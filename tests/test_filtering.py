import math
import random

import pytest
from hypothesis import given, strategies as st

from rdistill.filtering import (BalanceReport, FilterConfig, balance, categorize,
                                is_useful)
from rdistill.records import (NONE_SENTINEL, CategorizedExample, ImageRef,
                              QAExample, Rationale, VerifierScores)


class StubVerifier:
    """Fixed greedy answer and log-probs, regardless of input."""

    def __init__(self, greedy, p_with, p_without):
        self._greedy = greedy
        self._p_with = p_with
        self._p_without = p_without

    def greedy_answer(self, image, question, rationale=None):
        return self._greedy

    def answer_logprob(self, image, question, answer, rationale=None):
        return math.log(self._p_with if rationale is not None else self._p_without)


def filter_reference(greedy, gold, p_with, p_without, lam):
    """Direct transcription of the two-filter categorization procedure."""
    if greedy != gold:
        return "irrelevant", "None"
    if p_with < lam * p_without:
        return "relevant-not-useful", gold
    return "useful", gold


def make_example(gold="Instagram"):
    return QAExample(example_id="e1", image=ImageRef(id="i", height=10, width=10),
                     question="q?", gold_answers=(gold,))


RATIONALE = Rationale.text("some evidence")
CFG = FilterConfig()


class TestCategorize:
    def test_wrong_greedy_is_irrelevant(self):
        cat = categorize(make_example(), RATIONALE,
                         StubVerifier("Paris", 0.5, 0.2), CFG)
        assert cat.category == "irrelevant"
        assert cat.effective_answer == NONE_SENTINEL

    def test_boosted_is_useful(self):
        cat = categorize(make_example(), RATIONALE,
                         StubVerifier("Instagram", 0.5, 0.2), CFG)
        assert cat.category == "useful"
        assert cat.effective_answer == "Instagram"

    def test_unboosted_is_relevant_not_useful(self):
        cat = categorize(make_example(), RATIONALE,
                         StubVerifier("Instagram", 0.3, 0.2), CFG)
        assert cat.category == "relevant-not-useful"
        assert cat.effective_answer == "Instagram"

    def test_boundary_counts_as_useful(self):
        cat = categorize(make_example(), RATIONALE,
                         StubVerifier("Instagram", 0.4, 0.2), CFG)
        assert cat.category == "useful"

    def test_greedy_comparison_trims_whitespace(self):
        cat = categorize(make_example(), RATIONALE,
                         StubVerifier(" Instagram ", 0.5, 0.2), CFG)
        assert cat.category == "useful"

    def test_greedy_comparison_case_sensitive(self):
        cat = categorize(make_example(), RATIONALE,
                         StubVerifier("instagram", 0.5, 0.2), CFG)
        assert cat.category == "irrelevant"

    def test_log_space_variant(self):
        cfg = FilterConfig(boost_factor=2.0, space="log")
        # logp_with = log(0.5), needs >= 2*log(0.25) = log(0.0625)
        cat = categorize(make_example(), RATIONALE,
                         StubVerifier("Instagram", 0.5, 0.25), cfg)
        assert cat.category == "useful"
        cat = categorize(make_example(), RATIONALE,
                         StubVerifier("Instagram", 0.05, 0.25), cfg)
        assert cat.category == "relevant-not-useful"

    def test_scores_recorded_for_audit(self):
        cat = categorize(make_example(), RATIONALE,
                         StubVerifier("Paris", 0.5, 0.2), CFG)
        assert cat.scores.greedy == "Paris"
        assert cat.scores.logp_with == pytest.approx(math.log(0.5))
        assert cat.scores.logp_without == pytest.approx(math.log(0.2))


def test_oracle_equivalence_on_randomized_scores():
    rng = random.Random(42)
    ex = make_example(gold="G")
    for _ in range(1000):
        greedy = rng.choice(["G", "X"])
        p_with = rng.uniform(1e-6, 1.0)
        p_without = rng.uniform(1e-6, 1.0)
        cat = categorize(ex, RATIONALE, StubVerifier(greedy, p_with, p_without), CFG)
        expected_cat, expected_ans = filter_reference(
            greedy, "G", p_with, p_without, CFG.boost_factor)
        assert cat.category == expected_cat
        assert cat.effective_answer == expected_ans


@given(st.floats(1.01, 10), st.floats(1.01, 10),
       st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
def test_lambda_monotonicity(lam_low, lam_high, p_with, p_without):
    if lam_low > lam_high:
        lam_low, lam_high = lam_high, lam_low
    low = is_useful(math.log(p_with), math.log(p_without), FilterConfig(boost_factor=lam_low))
    high = is_useful(math.log(p_with), math.log(p_without), FilterConfig(boost_factor=lam_high))
    if high:
        assert low  # raising lambda never promotes to useful


def test_usefulness_far_below_exp_range():
    # exp() of both scores underflows to 0, yet p_with is e^-100 times p_without
    cfg = FilterConfig(boost_factor=2.0)
    assert not is_useful(-900.0, -800.0, cfg)
    assert is_useful(-800.0, -900.0, cfg)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(boost_factor=0.5, space="probability")
    with pytest.raises(ValueError):
        FilterConfig(space="weird")


def make_categorized(example_id, category):
    answer = NONE_SENTINEL if category == "irrelevant" else "a"
    return CategorizedExample(
        example_id=example_id, question="q",
        image=ImageRef(id=example_id, height=10, width=10),
        rationale=RATIONALE, category=category, effective_answer=answer,
        scores=VerifierScores(-1.0, -2.0, "a"))


def make_pool(n_none, n_bad, n_good):
    pool = [make_categorized(f"n{i:04d}", "irrelevant") for i in range(n_none)]
    pool += [make_categorized(f"b{i:04d}", "relevant-not-useful") for i in range(n_bad)]
    pool += [make_categorized(f"g{i:04d}", "useful") for i in range(n_good)]
    return pool


class TestBalance:
    def test_formula(self):
        kept, report = balance(make_pool(500, 100, 40), seed=0)
        assert report == BalanceReport(n_none=500, n_bad_r=100, n_good_r=40,
                                       n_none_kept=60, seed=0)
        assert len(kept) == 100 + 40 + 60

    def test_clamped_at_zero(self):
        kept, report = balance(make_pool(500, 30, 50), seed=0)
        assert report.n_none_kept == 0
        assert all(c.category != "irrelevant" for c in kept)

    def test_supply_shortfall_keeps_all(self):
        kept, report = balance(make_pool(25, 100, 40), seed=0)
        assert report.n_none_kept == 25
        assert sum(1 for c in kept if c.category == "irrelevant") == 25

    def test_non_none_always_kept(self):
        pool = make_pool(10, 3, 5)
        kept, _ = balance(pool, seed=1)
        kept_ids = {c.example_id for c in kept}
        for c in pool:
            if c.category != "irrelevant":
                assert c.example_id in kept_ids

    def test_deterministic_given_seed(self):
        pool = make_pool(50, 30, 10)
        kept_a, _ = balance(pool, seed=7)
        kept_b, _ = balance(pool, seed=7)
        assert kept_a == kept_b
        kept_c, _ = balance(pool, seed=8)
        assert kept_a != kept_c  # overwhelmingly likely for this pool

    def test_category_partition(self):
        pool = make_pool(20, 10, 5)
        counts = {c: sum(1 for x in pool if x.category == c)
                  for c in ("irrelevant", "relevant-not-useful", "useful")}
        assert sum(counts.values()) == len(pool)
