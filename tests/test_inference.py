import pytest
from hypothesis import given, strategies as st

from rdistill.inference import (AllNone, anls, apply_calculator,
                                extract_program_source, levenshtein,
                                relaxed_accuracy, score_predictions, vote)
from rdistill.records import ScoredHypothesis


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


class TestApplyCalculator:
    def test_valid_program_replaces_answer(self):
        decoded = "q <s> t1 | t2 <program> Div(25, 5) <answer> 4"
        assert apply_calculator(decoded, "4") == "5"

    def test_invalid_program_falls_back(self):
        decoded = "q <s> t <program> Foo(1) <answer> 4"
        assert apply_calculator(decoded, "4") == "4"

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
