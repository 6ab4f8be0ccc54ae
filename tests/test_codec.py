import pytest
from hypothesis import example, given, settings, strategies as st

from rdistill.codec import (ANSWER_BUDGET, CharBlockCounter, EmptyAnswer,
                            NoAnswerMarker, PREFIX_BUDGET, PROGRAM_BUDGET,
                            SEP_ANSWER, TABLE_BUDGET, WordCounter, _shrink,
                            encode_program_rationale, encode_target, escape_field,
                            linearize_table, parse_answer, parse_target)

WORD = WordCounter()
CHAR4 = CharBlockCounter()


class TestEncodeTarget:
    def test_canonical_format(self):
        out = encode_target("What is X?", "evidence here", "42")
        assert out == "What is X? <s> evidence here <answer> 42"

    def test_no_rationale(self):
        assert encode_target("Q", None, "A") == "Q <answer> A"

    def test_empty_answer(self):
        with pytest.raises(EmptyAnswer):
            encode_target("Q", "R", "  ")

    def test_long_rationale_trimmed_question_intact(self):
        rationale = " ".join(f"w{i}" for i in range(500))
        out = encode_target("What is X?", rationale, "42", WORD)
        prefix = out[:out.rfind(SEP_ANSWER)].rstrip()
        assert WORD.count(prefix) == PREFIX_BUDGET
        assert prefix.startswith("What is X? <s> ")

    def test_question_trimmed_only_after_rationale_gone(self):
        question = " ".join(f"q{i}" for i in range(200))
        out = encode_target(question, "r0 r1", "a", WORD)
        prefix = out[:out.rfind(SEP_ANSWER)].rstrip()
        assert WORD.count(prefix) <= PREFIX_BUDGET
        assert "r0" not in prefix

    def test_answer_truncated(self):
        answer = " ".join(f"a{i}" for i in range(50))
        out = encode_target("Q", None, answer, WORD)
        assert WORD.count(out.split(SEP_ANSWER)[-1]) <= ANSWER_BUDGET

    def test_separator_in_field_escaped(self):
        out = encode_target("is <answer> here?", "r <s> r", "a")
        assert out.count(SEP_ANSWER) == 1
        assert out.count("<s>") == 1
        parsed = parse_target(out)
        assert parsed.question == "is <answer> here?"
        assert parsed.rationale == "r <s> r"

    def test_program_marker_survives_in_rationale(self):
        rationale = encode_program_rationale([["a", "b"]], "Div(4, 2)")
        out = encode_target("Q", rationale, "2")
        assert "<program> Div(4, 2)" in out


class TestEncodeProgramRationale:
    def test_linearization(self):
        out = encode_program_rationale([["a", "b"], ["c", "d"]], "Div(25, 5)")
        assert out == "a | b \n c | d <program> Div(25, 5)"

    def test_empty_table(self):
        assert encode_program_rationale([], "Div(25, 5)") == "<program> Div(25, 5)"

    def test_long_table_rows_dropped(self):
        table = [[f"r{i}c0", f"r{i}c1"] for i in range(50)]
        out = encode_program_rationale(table, "Sum(1, 2)", WORD)
        segment = out[:out.find("<program>")].rstrip()
        assert WORD.count(segment) <= TABLE_BUDGET
        assert segment.startswith("r0c0 | r0c1")  # leading rows kept

    def test_long_program_truncated(self):
        program = "Sum(" + ", ".join(str(i) for i in range(200)) + ")"
        out = encode_program_rationale([], program, WORD)
        assert WORD.count(out.split("<program>")[-1]) <= PROGRAM_BUDGET


class TestParseTarget:
    def test_inverse_of_encode(self):
        t = parse_target("Q <s> R <answer> A")
        assert (t.question, t.rationale, t.answer) == ("Q", "R", "A")

    def test_none_sentinel(self):
        t = parse_target("Q <answer> None")
        assert t.rationale is None
        assert t.answer == "None"
        assert t.is_none

    def test_no_marker(self):
        with pytest.raises(NoAnswerMarker):
            parse_target("garbage with no marker")

    def test_splits_last_answer_marker(self):
        t = parse_target("Q <s> contains <answer> inside <answer> final")
        assert t.answer == "final"

    def test_splits_first_rationale_marker(self):
        t = parse_target("Q <s> r1 <s> r2 <answer> A")
        assert t.question == "Q"
        assert t.rationale == "r1 <s> r2"


# decoded sequences built from separators, their escapes, the None sentinel,
# whitespace and plain text, so that every branch of the parse is drawn
decoded_pieces = st.lists(st.one_of(
    st.sampled_from(["<answer>", "<s>", "<program>", "⟨answer⟩", "⟨s⟩", "⟨program⟩",
                     "⟨", "None", " None ", " ", "\n", "\t"]),
    st.text(max_size=6)), max_size=12).map("".join)


@given(decoded_pieces)
@example("Q <s> R <answer>  ")
@example("Q <answer> ⟨answer⟩ None")
def test_parse_answer_is_parse_targets_answer(decoded):
    try:
        expected = parse_target(decoded).answer
    except ValueError as e:
        with pytest.raises(ValueError) as raised:
            parse_answer(decoded)
        assert type(raised.value) is type(e)
    else:
        assert parse_answer(decoded) == expected


@given(decoded_pieces, st.booleans())
@example("<answer", False)
@example("a<s><program>b", True)
def test_escape_field_is_the_replace_chain(text, keep_program):
    want = text.replace("<s>", "⟨s⟩").replace("<answer>", "⟨answer⟩")
    if not keep_program:
        want = want.replace("<program>", "⟨program⟩")
    assert escape_field(text, keep_program) == want


clean_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" "),
    min_size=1, max_size=80,
).filter(lambda s: s.strip() == s and s.split())

cells = st.text(alphabet="abcdefgh123", min_size=1, max_size=6)


@given(clean_text, clean_text, clean_text)
def test_round_trip_when_untrimmed(q, r, a):
    out = encode_target(q, r, a, WORD)
    parsed = parse_target(out)
    if WORD.count(f"{q} <s> {r}") <= PREFIX_BUDGET and WORD.count(a) <= ANSWER_BUDGET:
        assert parsed.question == q
        assert parsed.rationale == r
        assert parsed.answer.strip() == a.strip()


@pytest.mark.parametrize("counter", [WORD, CHAR4], ids=["word", "char4"])
@given(q=clean_text, r=clean_text, a=clean_text)
def test_budgets_hold_for_any_counter(counter, q, r, a):
    out = encode_target(q, r, a, counter)
    idx = out.rfind(SEP_ANSWER)
    assert counter.count(out[:idx].rstrip()) <= PREFIX_BUDGET
    assert counter.count(out[idx + len(SEP_ANSWER):].strip()) <= ANSWER_BUDGET


@pytest.mark.parametrize("counter", [WORD, CHAR4], ids=["word", "char4"])
@given(table=st.lists(st.lists(cells, min_size=1, max_size=6), max_size=12),
       program=clean_text)
def test_program_budgets_hold(counter, table, program):
    out = encode_program_rationale(table, program, counter)
    idx = out.find("<program>")
    assert counter.count(out[:idx].rstrip()) <= TABLE_BUDGET
    assert counter.count(out[idx + len("<program>"):].strip()) <= PROGRAM_BUDGET


@given(st.text(max_size=40), st.integers(0, 30))
def test_counter_truncate_contract(text, budget):
    for counter in (WORD, CHAR4):
        assert counter.count(counter.truncate(text, budget)) <= budget


def test_linearize_table_basic():
    assert linearize_table([["a", "b"], ["c"]]) == "a | b \n c"


def naive_encode_program_rationale(table, program_source, counter):
    """The table trim as first written: relinearize the table after each drop."""
    rows = [list(r) for r in table]
    lin = linearize_table(rows)
    while rows and counter.count(lin) > TABLE_BUDGET:
        if len(rows) > 1:
            rows.pop()
        elif len(rows[-1]) > 1:
            rows[-1].pop()
        else:
            rows.pop()
        lin = linearize_table(rows)
    lin = escape_field(lin)
    if counter.count(lin) > TABLE_BUDGET:
        lin = counter.truncate(lin, TABLE_BUDGET)
    prog = escape_field(program_source)
    if counter.count(prog) > PROGRAM_BUDGET:
        prog = counter.truncate(prog, PROGRAM_BUDGET)
    return f"{lin} <program> {prog}" if lin else f"<program> {prog}"


wide_cell = st.integers(0, 40).map(lambda n: " ".join(["w"] * n))
any_cell = st.one_of(
    st.text(max_size=12),
    st.integers(-10**6, 10**6),
    st.sampled_from(["", " ", "\n", "\t ", "<program>", "<s>", "<answer>", "a <s> b",
                     "x | y", "⟨s⟩"]),
    wide_cell,
)


@pytest.mark.parametrize("counter", [WORD, CHAR4], ids=["word", "char4"])
@settings(max_examples=300)
@given(table=st.one_of(st.lists(st.lists(any_cell, max_size=10), max_size=60),
                       # one or two rows wide enough to reach the cell-drop phase
                       st.lists(st.lists(wide_cell, min_size=1, max_size=10),
                                min_size=1, max_size=2)),
       program=st.one_of(st.text(max_size=40),
                         st.text(alphabet="Add(1, 2) <program>", min_size=100, max_size=600)))
@example(table=[[" ".join(["w"] * 30), " ".join(["w"] * 40)]], program="Add(1, 2)")
@example(table=[["a" * 200, "b" * 100, "c"]], program="Add(1, 2)")
def test_program_trim_matches_the_relinearizing_reference(counter, table, program):
    assert encode_program_rationale(table, program, counter) \
        == naive_encode_program_rationale(table, program, counter)


def naive_encode_target(question, rationale, answer, counter):
    """The prefix trim as first written: rebuild and recount the prefix at
    each test of each loop."""
    q = escape_field(question)
    r = escape_field(rationale, keep_program=True) if rationale is not None else None
    a = escape_field(answer)
    if counter.count(a) > ANSWER_BUDGET:
        a = counter.truncate(a, ANSWER_BUDGET)

    def prefix(q_part, r_part):
        return q_part if r_part is None else f"{q_part} <s> {r_part}"

    while counter.count(prefix(q, r)) > PREFIX_BUDGET and r:
        r = _shrink(r, counter, counter.count(prefix(q, r)) - PREFIX_BUDGET)
    while counter.count(prefix(q, r)) > PREFIX_BUDGET and q:
        q = _shrink(q, counter, counter.count(prefix(q, r)) - PREFIX_BUDGET)
    return f"{prefix(q, r)} <answer> {a}"


target_word = st.sampled_from(["w", "<s>", "<program>", "<answer>", "⟨s⟩", "", " ", "\n",
                               "x y", "wordy" * 5]) | st.text(max_size=8)
# short fields, and fields of up to 400 words: longer than the 108-token
# prefix under either counter, so the rationale and then the question are trimmed
target_field = (st.lists(target_word, max_size=30).map(" ".join)
                | st.builds(lambda word, n: " ".join([word] * n), target_word,
                            st.integers(0, 400)))


@pytest.mark.parametrize("counter", [WORD, CHAR4], ids=["word", "char4"])
@settings(max_examples=300)
@given(question=target_field, rationale=st.none() | st.just("") | target_field,
       answer=target_field.filter(str.strip))
@example(question=" ".join(["q"] * 200), rationale=" ".join(["r"] * 200), answer="a")
@example(question=" ".join(["q <s>"] * 80), rationale=None, answer="a <answer> b")
@example(question="q", rationale="", answer=" ".join(["a"] * 30))
@example(question="<program> q " * 60, rationale="Div(1, 2) <program> " * 60, answer="x")
def test_target_trim_matches_the_recounting_reference(counter, question, rationale, answer):
    assert encode_target(question, rationale, answer, counter) \
        == naive_encode_target(question, rationale, answer, counter)


def cut_search_encode_program_rationale(table, program_source, counter):
    """The table trim before a table that fits skipped the cut search: every
    candidate cut, the whole table first, tried in turn; then escaped and
    counted again."""
    rows = [[str(c) for c in row] for row in table]
    row_text = [" | ".join(row) for row in rows]
    full = " \n ".join(row_text)

    def ends(parts, sep):
        out, end = [], -len(sep)
        for part in parts:
            end += len(sep) + len(part)
            out.append(end)
        return out

    cuts = ends(row_text, " \n ")[::-1] + ends(rows[0] if rows else [], " | ")[-2::-1] + [0]
    for cut in cuts:
        lin = full[:cut]
        if counter.count(lin) <= TABLE_BUDGET:
            break
    lin = escape_field(lin)
    if counter.count(lin) > TABLE_BUDGET:
        lin = counter.truncate(lin, TABLE_BUDGET)
    prog = escape_field(program_source)
    if counter.count(prog) > PROGRAM_BUDGET:
        prog = counter.truncate(prog, PROGRAM_BUDGET)
    return f"{lin} <program> {prog}" if lin else f"<program> {prog}"


def as_tuples(table):
    return tuple(tuple(row) for row in table)


# tables that fit, that need rows or cells dropped, whose first cell alone is
# over budget, that hold separators, and empty ones; as lists or as tuples
cut_tables = st.one_of(
    st.lists(st.lists(any_cell, max_size=6), max_size=8),
    st.lists(st.lists(any_cell, max_size=10), max_size=60),
    st.lists(st.lists(wide_cell, min_size=1, max_size=10), min_size=1, max_size=2),
    st.builds(lambda n, rest: [[" ".join(["w"] * n)] + rest], st.integers(60, 200),
              st.lists(any_cell, max_size=3)),
    st.lists(st.lists(st.sampled_from(["<s>", "a<b", "<", "<program>", "x"]), max_size=4),
             max_size=6),
    st.just([]), st.just([[]]),
).flatmap(lambda t: st.sampled_from([t, as_tuples(t)]))


class EscapeHeavyCounter(WordCounter):
    """Words, and 30 tokens more for each escaped separator: a counter under
    which escaping a table can take it over budget."""

    def count(self, text):
        return super().count(text) + 30 * text.count("⟨")

    def truncate(self, text, max_tokens):
        kept = []
        for word in text.split():
            if self.count(" ".join(kept + [word])) > max_tokens:
                break
            kept.append(word)
        return text if len(kept) == len(text.split()) else " ".join(kept)


@pytest.mark.parametrize("counter", [WORD, CHAR4, EscapeHeavyCounter()],
                         ids=["word", "char4", "escape-heavy"])
@settings(max_examples=300)
@given(table=cut_tables, program=st.text(max_size=40)
       | st.text(alphabet="Add(1, 2) <program>", min_size=100, max_size=300))
@example(table=[["a", "b"], ["c", "d"]], program="Div(1, 2)")
@example(table=(("<s>", "b"),), program="")
@example(table=[["w " * 100]], program="x")
@example(table=[[" ".join(["w"] * 30), " ".join(["w"] * 40)]], program="Add(1, 2)")
@example(table=[[]], program="Add(1, 2)")
@example(table=[[" ".join(["w"] * 64)]], program="x")            # exactly the budget
@example(table=[[" ".join(["w"] * 64)], ["x"]], program="x")     # one word over it
@example(table=[["<s>", "<s>", "<s>"]], program="x")
def test_program_encoding_matches_the_full_cut_search(counter, table, program):
    assert encode_program_rationale(table, program, counter) \
        == cut_search_encode_program_rationale(table, program, counter)


class CountingCounter:
    """A counter that notes each text it counts."""

    def __init__(self, counter):
        self.counter, self.counted = counter, []

    def count(self, text):
        self.counted.append(text)
        return self.counter.count(text)

    def truncate(self, text, max_tokens):
        return self.counter.truncate(text, max_tokens)


@pytest.mark.parametrize("counter", [WORD, CHAR4], ids=["word", "char4"])
@pytest.mark.parametrize("table", [[["a", "b"], ["c", 1]], (("a",),), []],
                         ids=["list", "tuple", "empty"])
def test_a_table_that_fits_is_counted_once(counter, table):
    counting = CountingCounter(counter)
    encode_program_rationale(table, "Add(1, 2)", counting)
    assert counting.counted == [linearize_table(table), "Add(1, 2)"]
