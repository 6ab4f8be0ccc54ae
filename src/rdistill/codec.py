"""Decoder-sequence encoding and parsing with enforced token budgets.

Target format: "[question] <s> [rationale] <answer> [answer]". The prefix
before <answer> is trimmed to 108 tokens (rationale tail first, then
question tail) and the answer to 20, for a 128-token decoder budget.
Program rationales are "[table] <program> [program]" with a 64-token
table segment and 44-token program segment.

Token counting is pluggable; the default counts whitespace-separated
words so budgets are enforceable without a model tokenizer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Protocol

from .records import NONE_SENTINEL, is_none_answer

SEP_RATIONALE = "<s>"
SEP_ANSWER = "<answer>"
SEP_PROGRAM = "<program>"

PREFIX_BUDGET = 108
ANSWER_BUDGET = 20
TABLE_BUDGET = 64
PROGRAM_BUDGET = 44

# visually-similar escapes so separators never collide with field text
_ESCAPES = [
    (SEP_RATIONALE, "⟨s⟩"),
    (SEP_ANSWER, "⟨answer⟩"),
    (SEP_PROGRAM, "⟨program⟩"),
]


class EmptyAnswer(ValueError):
    pass


class NoAnswerMarker(ValueError):
    pass


class TokenCounter(Protocol):
    def count(self, text: str) -> int: ...

    def truncate(self, text: str, max_tokens: int) -> str: ...


class WordCounter:
    """Whitespace word count; truncation keeps the first N words."""

    def count(self, text: str) -> int:
        return len(text.split())

    def truncate(self, text: str, max_tokens: int) -> str:
        words = text.split()
        if len(words) <= max_tokens:
            return text
        return " ".join(words[:max_tokens])


class CharBlockCounter:
    """Approximate counter: one token per 4 characters, rounded up."""

    def count(self, text: str) -> int:
        return math.ceil(len(text) / 4)

    def truncate(self, text: str, max_tokens: int) -> str:
        return text[:max_tokens * 4]


DEFAULT_COUNTER = WordCounter()


@dataclass(frozen=True)
class DecodedTarget:
    question: str
    rationale: str | None
    answer: str

    @property
    def is_none(self) -> bool:
        return is_none_answer(self.answer)


def escape_field(text: str, keep_program: bool = False) -> str:
    """Replace separator literals in field text with non-colliding forms.

    `keep_program` leaves <program> markers alone, for rationale slots
    that carry an already-encoded program rationale.
    """
    if "<" not in text:  # every separator starts with it
        return text
    for sep, esc in _ESCAPES:
        if keep_program and sep == SEP_PROGRAM:
            continue
        text = text.replace(sep, esc)
    return text


def unescape_field(text: str) -> str:
    if "⟨" not in text:  # every escape starts with it
        return text
    for sep, esc in _ESCAPES:
        text = text.replace(esc, sep)
    return text


def _shrink(text: str, counter: TokenCounter, overshoot: int) -> str:
    """Drop at least `overshoot` tokens from the tail of `text`."""
    have = counter.count(text)
    target = max(have - overshoot, 0)
    shrunk = counter.truncate(text, target)
    if shrunk == text and text:
        # guard against counters where truncate is a no-op at this size
        shrunk = text[:-1]
    return shrunk


def encode_target(question: str, rationale: str | None, answer: str,
                  counter: TokenCounter = DEFAULT_COUNTER) -> str:
    """Encode one decoder target, enforcing the 108/20 budgets.

    Trimming removes the rationale tail first, then the question tail;
    the answer is truncated independently.
    """
    if not answer.strip():
        raise EmptyAnswer("answer must be non-empty")
    q = escape_field(question)
    r = escape_field(rationale, keep_program=True) if rationale is not None else None
    a = escape_field(answer)

    if counter.count(a) > ANSWER_BUDGET:
        a = counter.truncate(a, ANSWER_BUDGET)

    # the prefix and its overshoot, each made and counted once per trim step
    p = _prefix(q, r)
    over = counter.count(p) - PREFIX_BUDGET
    while over > 0 and r:
        r = _shrink(r, counter, over)
        p = _prefix(q, r)
        over = counter.count(p) - PREFIX_BUDGET
    while over > 0 and q:
        q = _shrink(q, counter, over)
        p = _prefix(q, r)
        over = counter.count(p) - PREFIX_BUDGET

    return f"{p} {SEP_ANSWER} {a}"


def _prefix(question: str, rationale: str | None) -> str:
    """The part of a target before <answer>."""
    return question if rationale is None else f"{question} {SEP_RATIONALE} {rationale}"


_CELL_SEP = " | "
_ROW_SEP = " \n "


def linearize_table(table) -> str:
    """Row-major linearization: ' | ' between cells, ' \\n ' between rows."""
    return _ROW_SEP.join(_CELL_SEP.join(str(c) for c in row) for row in table)


def _part_ends(parts: list[str], sep: str) -> list[int]:
    """End offset, in `sep.join(parts)`, of the join of each prefix of `parts`."""
    return [end - len(sep) for end in itertools.accumulate(len(p) + len(sep) for p in parts)]


def encode_program_rationale(table, program_source: str,
                             counter: TokenCounter = DEFAULT_COUNTER) -> str:
    """Encode "[table] <program> [program]" within the 64/44 budgets.

    `table` is a sequence of rows. It is linearized and counted once; a
    table that fits the budget is taken whole. One that does not is trimmed
    by dropping whole trailing rows, then trailing cells of the last
    remaining row, then that row (`_cut_table`). Escaping keeps the count
    unless it changes the text, so the count is taken again only then.
    """
    row_text = [_CELL_SEP.join(map(str, row)) for row in table]
    lin = _ROW_SEP.join(row_text)
    count = counter.count(lin)
    if count > TABLE_BUDGET:
        lin, count = _cut_table(table, row_text, lin, counter)
    escaped = escape_field(lin)
    if escaped != lin:
        lin, count = escaped, counter.count(escaped)
    if count > TABLE_BUDGET:  # pathological single cell
        lin = counter.truncate(lin, TABLE_BUDGET)

    prog = escape_field(program_source)
    if counter.count(prog) > PROGRAM_BUDGET:
        prog = counter.truncate(prog, PROGRAM_BUDGET)

    if lin:
        return f"{lin} {SEP_PROGRAM} {prog}"
    return f"{SEP_PROGRAM} {prog}"


def _cut_table(table, row_text: list[str], full: str,
               counter: TokenCounter) -> tuple[str, int]:
    """The longest candidate cut of a table whose linearization `full`
    (rows `row_text`) is over budget, and its count: fewer rows, then fewer
    cells of the first row, then none. Each candidate linearizes to a prefix
    of `full`, so it is taken as a slice of it; the last, empty, is taken
    whatever its count."""
    cuts = (_part_ends(row_text, _ROW_SEP)[-2::-1]
            + _part_ends([str(c) for c in table[0]] if row_text else [], _CELL_SEP)[-2::-1]
            + [0])
    for cut in cuts:
        lin = full[:cut]
        count = counter.count(lin)
        if count <= TABLE_BUDGET:
            break
    return lin, count


def parse_answer(decoded: str) -> str:
    """The answer of a decoded sequence: the text after the LAST <answer>,
    unescaped. An answer of "None" maps to the None sentinel."""
    idx = decoded.rfind(SEP_ANSWER)
    if idx < 0:
        raise NoAnswerMarker(f"no {SEP_ANSWER!r} in {decoded!r}")
    answer = decoded[idx + len(SEP_ANSWER):].strip()
    if not answer:
        raise EmptyAnswer(f"empty answer in {decoded!r}")
    return NONE_SENTINEL if is_none_answer(answer) else unescape_field(answer)


def parse_target(decoded: str) -> DecodedTarget:
    """Split on the LAST <answer> and the FIRST <s>; missing <s> means
    no rationale. The answer is `parse_answer`'s."""
    answer = parse_answer(decoded)
    before = decoded[:decoded.rfind(SEP_ANSWER)]
    s_idx = before.find(SEP_RATIONALE)
    if s_idx < 0:
        question, rationale = before.strip(), None
    else:
        question = before[:s_idx].strip()
        rationale = unescape_field(before[s_idx + len(SEP_RATIONALE):].strip())
    return DecodedTarget(question=unescape_field(question), rationale=rationale, answer=answer)
