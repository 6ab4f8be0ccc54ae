import importlib.util
import json
import logging
import pathlib

import pytest
from click.testing import CliRunner
from hypothesis import example, given, strategies as st

from rdistill import cli
from rdistill.codec import parse_target
from rdistill.inference import (AllNone, anls, apply_calculator,
                                extract_program_source, levenshtein,
                                relaxed_accuracy, score_predictions, vote)
from rdistill.records import ImageRef, QAExample, ScoredHypothesis, serialize_example


def hyp(answer, prob, rationale="r"):
    return ScoredHypothesis(decoded=f"q <s> {rationale} <answer> {answer}", prob=prob)


class TestVote:
    def test_aggregation_excludes_none(self):
        result = vote([hyp("A", 0.3), hyp("None", 0.4), hyp("A", 0.2), hyp("B", 0.25)])
        assert result.answer == "A"
        assert result.aggregate_prob == pytest.approx(0.5)
        assert result.tally["None"] == pytest.approx(0.4)

    def test_single_hypothesis(self):
        assert vote([hyp("X", 0.9)]).answer == "X"

    def test_all_none(self):
        with pytest.raises(AllNone):
            vote([hyp("None", 0.5), hyp("None", 0.3)])

    def test_unparseable_skipped(self):
        result = vote([ScoredHypothesis(decoded="no marker here", prob=0.9),
                       hyp("A", 0.1)])
        assert result.answer == "A"

    def test_tie_break_by_beam_order(self):
        result = vote([hyp("B", 0.3), hyp("A", 0.3)])
        assert result.answer == "B"

    def test_scale_invariance(self):
        hyps = [hyp("A", 0.3), hyp("None", 0.4), hyp("A", 0.2), hyp("B", 0.25)]
        scaled = [ScoredHypothesis(h.decoded, h.prob * 17.5) for h in hyps]
        assert vote(hyps).answer == vote(scaled).answer

    def test_beam_is_the_most_probable_of_the_winning_answer(self):
        hyps = [hyp("5", 0.30), hyp("4", 0.20), hyp("4", 0.25), hyp("4", 0.25)]
        result = vote(hyps)
        assert result.answer == "4"
        assert result.beam is hyps[2]

    def test_permutation_invariance(self):
        hyps = [hyp("A", 0.3), hyp("None", 0.4), hyp("A", 0.2), hyp("B", 0.25)]
        assert vote(list(reversed(hyps))).answer == vote(hyps).answer


def reference_vote(hypotheses):
    """Vote as it reads from whole parsed targets: (answer, aggregate
    probability, tally, beam), or None when every answer is None."""
    tally, order, top = {}, {}, {}
    for i, h in enumerate(hypotheses):
        try:
            key = parse_target(h.decoded).answer.strip()
        except ValueError:
            continue
        tally[key] = tally.get(key, 0.0) + h.prob
        order.setdefault(key, i)
        if key not in top or h.prob > top[key].prob:
            top[key] = h
    candidates = [a for a in tally if a != "None"]
    if not candidates:
        return None
    best = max(candidates, key=lambda a: (tally[a], -order[a]))
    return best, tally[best], tally, top[best]


decoded = st.one_of(
    st.sampled_from(["A", "B", " B ", "None", "⟨s⟩ A", "", "<s>"]).map("q <s> r <answer> {}".format),
    st.lists(st.sampled_from(["<answer>", "<s>", "⟨answer⟩", "None", "A", " ", "x"]),
             max_size=6).map("".join))
hypotheses = st.lists(st.builds(ScoredHypothesis, decoded,
                                st.sampled_from([0.1, 0.2, 0.25, 0.3, 1e-9, 7.5])),
                      max_size=8)


@given(hypotheses)
def test_vote_equals_a_vote_over_parsed_targets(hyps):
    expected = reference_vote(hyps)
    if expected is None:
        with pytest.raises(AllNone):
            vote(hyps)
        return
    result = vote(hyps)
    assert (result.answer, result.aggregate_prob, result.tally) == expected[:3]
    assert result.beam is expected[3]


class TestApplyCalculator:
    def test_valid_program_replaces_answer(self):
        decoded = "q <s> t1 | t2 <program> Div(25, 5) <answer> 4"
        assert apply_calculator(decoded, "4") == "5"

    def test_invalid_program_falls_back(self):
        decoded = "q <s> t <program> Foo(1) <answer> 4"
        assert apply_calculator(decoded, "4") == "4"

    @pytest.mark.parametrize("program", ["Sum()", "Avg( )"])
    def test_an_empty_argument_list_falls_back(self, program):
        # an arity error, which is a ValueError like every parse error
        assert apply_calculator(f"q <s> t <program> {program} <answer> 4", "4") == "4"

    def test_find_falls_back(self):
        decoded = "q <s> t <program> Find(France) <answer> France"
        assert apply_calculator(decoded, "France") == "France"

    def test_no_program_marker_falls_back(self):
        assert apply_calculator("q <s> plain evidence <answer> x", "x") == "x"

    def test_boolean_program(self):
        decoded = "q <s> t <program> Greater(10, 2) <answer> maybe"
        assert apply_calculator(decoded, "maybe") == "Yes"

    def test_division_by_zero_falls_back(self):
        decoded = "q <s> t <program> Div(1, 0) <answer> 7"
        assert apply_calculator(decoded, "7") == "7"

    def test_extract_program_source(self):
        assert extract_program_source("a <program> Sum(1, 2) <answer> 3") == "Sum(1, 2)"
        assert extract_program_source("no marker") is None


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,d", [
        ("", "", 0), ("a", "", 1), ("", "abc", 3),
        ("kitten", "sitting", 3), ("abc", "abc", 0), ("abc", "acb", 2),
    ])
    def test_known_distances(self, a, b, d):
        assert levenshtein(a, b) == d


def reference_levenshtein(a, b):
    """The full (len(a)+1) x (len(b)+1) edit-distance table, cell by cell."""
    d = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)]
         for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[len(a)][len(b)]


def reference_anls(pred, golds, tau):
    p = pred.strip().lower()
    scores = []
    for gold in golds:
        g = gold.strip().lower()
        nl = reference_levenshtein(p, g) / max(len(p), len(g), 1)
        scores.append(1.0 - nl if nl < tau else 0.0)
    return max(scores)


# strings of 0-150 characters: few distinct characters (long runs and many
# matches), any characters, and non-ASCII ones past the 64- and 128-bit marks
edit_text = st.one_of(
    st.text(alphabet="ab", max_size=150),
    st.text(max_size=150),
    st.text(alphabet="aé漢 Z\u0301", min_size=60, max_size=150),
)


@given(edit_text, edit_text)
@example("a" * 65, "a" * 64 + "b")
@example("x" * 129, "")
@example("漢" * 130, "漢" * 128)
def test_levenshtein_equals_the_full_table(a, b):
    assert levenshtein(a, b) == reference_levenshtein(a, b)


@given(edit_text, st.lists(edit_text, min_size=1, max_size=3),
       st.floats(min_value=0.0, max_value=1.0))
def test_anls_equals_the_reference_at_any_threshold(pred, golds, tau):
    assert anls(pred, golds, tau) == reference_anls(pred, golds, tau)


class TestAnls:
    def test_identity(self):
        assert anls("Instagram", ["Instagram"]) == 1.0

    def test_case_insensitive(self):
        assert anls("instagram", ["Instagram"]) == 1.0

    def test_one_edit(self):
        assert anls("Instagrm", ["Instagram"]) == pytest.approx(1 - 1 / 9)

    def test_below_threshold_scores_zero(self):
        assert anls("Paris", ["Instagram"]) == 0.0

    def test_max_over_golds(self):
        assert anls("Paris", ["Instagram", "Paris"]) == 1.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            anls("x", [])


@given(st.text(max_size=30))
def test_anls_self_identity(x):
    assert anls(x, [x]) == 1.0


@given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
def test_anls_symmetric_single_gold(a, b):
    assert anls(a, [b]) == pytest.approx(anls(b, [a]))


class TestRelaxedAccuracy:
    @pytest.mark.parametrize("pred,gold,expected", [
        ("9.6", "10", 1),   # 4% off
        ("9.4", "10", 0),   # 6% off
        ("9.5", "10", 1),   # exactly 5%
        ("10.5", "10", 1),  # boundary above
        ("yes", "Yes", 1),
        ("25%", "25", 1),   # percent stripped, unscaled
        ("1,000", "1000", 1),
        ("0", "0", 1),
        ("0.001", "0", 0),  # gold zero requires exactness
        ("paris", "london", 0),
    ])
    def test_cases(self, pred, gold, expected):
        assert relaxed_accuracy(pred, gold) == expected


class TestRelaxedAccuracyNumerals:
    def test_nonfinite_word_equal_to_gold(self):
        assert relaxed_accuracy("INF", "INF") == 1
        assert relaxed_accuracy("nan", "nan") == 1
        assert relaxed_accuracy("inf", "1000") == 0

    def test_underscored_digits_are_not_a_number(self):
        assert relaxed_accuracy("1_000", "1000") == 0
        assert relaxed_accuracy("1_000", "1_000") == 1


@given(st.text(min_size=1, max_size=20))
def test_relaxed_accuracy_reflexive(g):
    assert relaxed_accuracy(g, g) == 1


class TestScorePredictions:
    def test_anls_report(self):
        report = score_predictions("ANLS", [("a", ["a"]), ("b", ["x"])])
        assert report.mean == pytest.approx(0.5)
        assert report.per_example == (1.0, 0.0)

    def test_ra_report(self):
        report = score_predictions("RA", [("9.6", ["10"]), ("9.4", ["10"])])
        assert report.mean == pytest.approx(0.5)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            score_predictions("BLEU", [("a", ["a"])])


def write_jsonl(path, objs):
    path.write_text("".join((o if isinstance(o, str) else json.dumps(o)) + "\n"
                            for o in objs), encoding="utf-8")
    return str(path)


def gold_line(example_id, answer):
    return serialize_example(QAExample(example_id=example_id,
                                       image=ImageRef(id="i", height=10, width=10),
                                       question="q", gold_answers=(answer,)))


class TestVoteCommand:
    def test_a_bad_line_costs_only_that_line(self, tmp_path, caplog):
        beams = write_jsonl(tmp_path / "beams.jsonl", [
            {"example_id": "e1", "decoded": "q <answer> A", "prob": 0.4},
            "not json",
            {"example_id": "e1", "decoded": "q <answer> B", "prob": 0},
            {"example_id": "e1", "decoded": "q <answer> B"},
            {"example_id": "e2", "decoded": "q <answer> C", "prob": "0.5"},
            {"decoded": "q <answer> B", "prob": 0.9},
            {"example_id": "e1", "decoded": 7, "prob": 0.9},
            {"example_id": "e1", "decoded": "q <answer> B", "prob": 0.3},
        ])
        with caplog.at_level(logging.WARNING):
            result = CliRunner().invoke(cli.main, ["vote", beams])
        assert result.exit_code == 0, result.output
        assert [json.loads(line) for line in result.output.splitlines()] \
            == [{"example_id": "e1", "answer": "A", "aggregate_prob": 0.4}]
        skipped = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
        assert [m.split(" line ")[1].split(":")[0] for m in skipped] == \
            ["2", "3", "4", "5", "6", "7"]
        assert all(m.startswith(f"skipping {beams} line ") for m in skipped)

    def test_blank_lines_keep_the_file_line_numbers(self, tmp_path, caplog):
        beams = tmp_path / "beams.jsonl"
        beams.write_text('\n{"example_id": "e1", "decoded": "q <answer> A", "prob": 1}\n'
                         '\n{"example_id": "e1", "prob": 1}\n', encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            result = CliRunner().invoke(cli.main, ["vote", str(beams)])
        assert result.exit_code == 0, result.output
        assert f"skipping {beams} line 4: missing field 'decoded'" in caplog.text

    def test_an_unparseable_beam_is_named_by_its_example_and_line(self, tmp_path, caplog):
        beams = write_jsonl(tmp_path / "beams.jsonl", [
            {"example_id": "e1", "decoded": "q <answer> A", "prob": 0.4},
            {"example_id": "e2", "decoded": "q <answer> B", "prob": 0.4},
            {"example_id": "e1", "decoded": "no marker", "prob": 0.5},
        ])
        with caplog.at_level(logging.WARNING):
            result = CliRunner().invoke(cli.main, ["vote", beams])
        assert result.exit_code == 0, result.output
        assert [json.loads(line)["answer"] for line in result.output.splitlines()] == ["A", "B"]
        assert "example e1: skipping the unparseable beam on line 3: no '<answer>' in " \
               "'no marker'" in caplog.text

    def test_a_beam_with_a_lone_surrogate_costs_only_that_line(self, tmp_path, caplog):
        beams = write_jsonl(tmp_path / "beams.jsonl", [
            {"example_id": "e1", "decoded": "q <answer> \ud800", "prob": 0.9},
            {"example_id": "e1", "decoded": "q <answer> A", "prob": 0.4},
        ])
        output = tmp_path / "preds.jsonl"
        with caplog.at_level(logging.WARNING):
            result = CliRunner().invoke(cli.main, ["vote", beams, "-o", str(output)])
        assert result.exit_code == 0, result.output
        assert [json.loads(line) for line in output.read_text().splitlines()] \
            == [{"example_id": "e1", "answer": "A", "aggregate_prob": 0.4}]
        assert f"skipping {beams} line 1: " in caplog.text and "surrogate" in caplog.text


class TestEvalCommand:
    """`eval` scores each gold example exactly once."""

    def run_eval(self, tmp_path, preds, golds, metric="anls"):
        pred_path = write_jsonl(tmp_path / "preds.jsonl", preds)
        gold_path = write_jsonl(tmp_path / "gold.jsonl", golds)
        result = CliRunner().invoke(cli.main, ["eval", pred_path, gold_path,
                                               "--metric", metric])
        return result, pred_path, gold_path

    def test_scores_each_example_once_in_prediction_order(self, tmp_path):
        result, _, _ = self.run_eval(
            tmp_path, [{"example_id": "e2", "answer": "9.6"}, {"example_id": "e1", "answer": "x"}],
            [gold_line("e1", "A"), gold_line("e2", "10")], metric="ra")
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"metric": "RA", "mean": 0.5,
                                             "per_example": [1.0, 0.0]}

    def test_a_second_prediction_for_an_example_exits_2(self, tmp_path):
        result, pred_path, _ = self.run_eval(
            tmp_path, [{"example_id": "e1", "answer": "A"}] * 2, [gold_line("e1", "A")])
        assert result.exit_code == 2, result.output
        assert f"eval error: {pred_path} line 2: second prediction for example 'e1'" \
            in result.output
        assert "per_example" not in result.output

    def test_gold_examples_without_a_prediction_exit_2(self, tmp_path):
        result, _, _ = self.run_eval(
            tmp_path, [{"example_id": "e2", "answer": "A"}],
            [gold_line(f"e{i}", "A") for i in range(1, 6)])
        assert result.exit_code == 2, result.output
        assert "eval error: 4 gold example(s) have no prediction, first 'e1', 'e3', 'e4'" \
            in result.output

    def test_a_second_gold_record_for_an_example_exits_2(self, tmp_path):
        result, _, gold_path = self.run_eval(
            tmp_path, [{"example_id": "e1", "answer": "A"}],
            [gold_line("e1", "A"), gold_line("e1", "B")])
        assert result.exit_code == 2, result.output
        assert f"eval error: {gold_path} line 2: second gold example 'e1'" in result.output

    @pytest.mark.parametrize("bad", ["not json", '{"answer": "A"}',
                                     '{"example_id": "e1", "answer": 3}'])
    def test_a_malformed_prediction_line_exits_2(self, tmp_path, bad):
        result, pred_path, _ = self.run_eval(tmp_path, [bad], [gold_line("e1", "A")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"eval error: {pred_path} line 1: " in result.output

    def test_a_malformed_gold_line_exits_2(self, tmp_path):
        result, _, gold_path = self.run_eval(
            tmp_path, [{"example_id": "e1", "answer": "A"}],
            [gold_line("e1", "A"), '{"example_id": "e2"}'])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"eval error: {gold_path} line 2: " in result.output

    @pytest.mark.parametrize("answers", [[5], "abc", [], ["A", None], None, ["None"]])
    def test_gold_answers_that_are_not_a_list_of_strings_exit_2(self, tmp_path, answers):
        bad = json.loads(gold_line("e1", "A"))
        bad["gold_answers"] = answers
        result, _, gold_path = self.run_eval(
            tmp_path, [{"example_id": "e1", "answer": "a"}], [bad])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"eval error: {gold_path} line 1: " in result.output

    @pytest.mark.parametrize("blank", ["", "   ", "\t\n"])
    def test_a_blank_gold_answer_exits_2(self, tmp_path, blank):
        bad = json.loads(gold_line("e2", "A"))
        bad["gold_answers"] = ["A", blank]
        result, _, gold_path = self.run_eval(
            tmp_path, [{"example_id": "e1", "answer": "a"}, {"example_id": "e2", "answer": "A"}],
            [gold_line("e1", "A"), bad])
        assert result.exit_code == 2, result.output
        assert f"eval error: {gold_path} line 2: example 'e2': gold answer {blank!r} is blank" \
            in result.output

    @pytest.mark.parametrize("field,value", [("image", {"id": "i", "height": -1}),
                                             ("image", None), ("ocr_boxes", [[1]]),
                                             ("question", None)])
    def test_reads_only_the_id_and_answers_of_a_gold_line(self, tmp_path, field, value):
        gold = json.loads(gold_line("e1", "A"))
        gold[field] = value
        del gold["structured_table"]
        result, _, _ = self.run_eval(tmp_path, [{"example_id": "e1", "answer": "A"}], [gold])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["per_example"] == [1.0]

    def test_a_prediction_for_an_unknown_example_is_skipped(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            result, _, _ = self.run_eval(
                tmp_path, [{"example_id": "zz", "answer": "A"},
                           {"example_id": "e1", "answer": "A"}], [gold_line("e1", "A")])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["per_example"] == [1.0]
        assert "prediction for unknown example zz" in caplog.text


def load_perfbench(name):
    """A module of the benchmark, loaded by path: it imports nothing of rdistill."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scoring_passes_the_benchmark_reference(tmp_path):
    # the benchmark's `score` pass, checked by its reference scorer; a change
    # to vote or eval that the benchmark would count as failed fails here first
    corpus, reference = load_perfbench("corpus"), load_perfbench("reference")
    written = corpus.write_score_inputs(str(tmp_path), seed=7)
    beams, gold = written["paths"]["beams"], written["paths"]["gold"]
    kept = {name: str(tmp_path / name) for name in ("preds.jsonl", "anls.json", "ra.json")}
    for args in (["vote", beams, "--calculator", "-o", kept["preds.jsonl"]],
                 ["eval", kept["preds.jsonl"], gold, "--metric", "anls", "-o", kept["anls.json"]],
                 ["eval", kept["preds.jsonl"], gold, "--metric", "ra", "-o", kept["ra.json"]]):
        cli.main.main(args, prog_name="rdistill", standalone_mode=False)
    verdicts = reference.check_score(beams, gold, kept, written["faults"])
    assert verdicts == {"failed": {}, "unexpected": []}
