import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rdistill import pipeline
from rdistill.codec import CharBlockCounter, WordCounter
from rdistill.filtering import (LOG_SPACE, PROBABILITY_SPACE, BalanceReport,
                                FilterConfig, balance, categorize, is_useful, score)
from rdistill.records import (NONE_SENTINEL, ImageRef, QAExample, Rationale, Verdict,
                              VerifierScores, parse_categorized, serialize_categorized)
from rdistill.tools import rationale_text


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


def scored_verdict(verifier, cfg=CFG, crop=None):
    """The verdict on one crop that `verifier` scores: score, then categorize."""
    crop = crop or make_example()
    return categorize(crop.example_id, crop.canonical_answer,
                      score(crop, RATIONALE, verifier), cfg)


class TestCategorize:
    def test_wrong_greedy_is_irrelevant(self):
        cat = scored_verdict(StubVerifier("Paris", 0.5, 0.2))
        assert cat.category == "irrelevant"
        assert cat.effective_answer == NONE_SENTINEL

    def test_boosted_is_useful(self):
        cat = scored_verdict(StubVerifier("Instagram", 0.5, 0.2))
        assert cat.category == "useful"
        assert cat.effective_answer == "Instagram"

    def test_unboosted_is_relevant_not_useful(self):
        cat = scored_verdict(StubVerifier("Instagram", 0.3, 0.2))
        assert cat.category == "relevant-not-useful"
        assert cat.effective_answer == "Instagram"

    def test_boundary_counts_as_useful(self):
        cat = scored_verdict(StubVerifier("Instagram", 0.4, 0.2))
        assert cat.category == "useful"

    def test_greedy_comparison_trims_whitespace(self):
        cat = scored_verdict(StubVerifier(" Instagram ", 0.5, 0.2))
        assert cat.category == "useful"

    def test_greedy_comparison_case_sensitive(self):
        cat = scored_verdict(StubVerifier("instagram", 0.5, 0.2))
        assert cat.category == "irrelevant"

    def test_log_space_variant(self):
        cfg = FilterConfig(boost_factor=2.0, space="log")
        # logp_with = log(0.5), needs >= 2*log(0.25) = log(0.0625)
        cat = scored_verdict(StubVerifier("Instagram", 0.5, 0.25), cfg)
        assert cat.category == "useful"
        cat = scored_verdict(StubVerifier("Instagram", 0.05, 0.25), cfg)
        assert cat.category == "relevant-not-useful"

    def test_scores_recorded_for_audit(self):
        cat = scored_verdict(StubVerifier("Paris", 0.5, 0.2))
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
        cat = scored_verdict(StubVerifier(greedy, p_with, p_without), crop=ex)
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


def test_filter_config_validation(tmp_path):
    # FilterConfig holds any value: `validate` refuses these, for a run of filter only
    config = pipeline.default_mock_config(str(tmp_path), write=False)
    for cfg, diagnostic in ((FilterConfig(boost_factor=0.5, space=PROBABILITY_SPACE),
                             "boost_factor must be > 1 in probability space"),
                            (FilterConfig(space="weird"), "unknown score space 'weird'")):
        config.filter = cfg
        assert pipeline.validate(config, ["filter"], read_datasets=False) == [diagnostic]
        assert pipeline.validate(config, ["crop", "generate-rationales", "build-tasks"],
                                 read_datasets=False) == []
    config.filter = FilterConfig(boost_factor=0.5, space=LOG_SPACE)
    assert pipeline.validate(config, ["filter"], read_datasets=False) == []


class SpyVerifier:
    """Records every request; answers "G" with log-probability -1."""

    def __init__(self):
        self.requests = []

    def greedy_answer(self, image, question, rationale=None):
        self.requests.append(("greedy", image, question, rationale))
        return "G"

    def answer_logprob(self, image, question, answer, rationale=None):
        self.requests.append(("logprob", image, question, answer, rationale))
        return -1.0


def chart(rows):
    """A chart crop with a `rows`-row table and a program rationale over it."""
    table = [["label", "value"]] + [[f"category_label_number_{i}", f"{1000 + i}"]
                                    for i in range(rows)]
    crop = QAExample(example_id="c1", image=ImageRef(id="img", height=400, width=1200),
                     question="Which is largest?", gold_answers=(" 1029 ",),
                     structured_table=tuple(tuple(r) for r in table))
    return crop, Rationale.program(table, "Max(1000, 1029)")


class TestScore:
    """`score` is the only filter step that calls the verifier: three
    requests, each carrying the rationale as the task files encode it."""

    # at 30 rows char4 and word trim the table differently
    @example(rows=30, counter=CharBlockCounter())
    @given(st.integers(0, 40), st.sampled_from([CharBlockCounter(), WordCounter()]))
    def test_three_requests_carry_the_encoded_rationale(self, rows, counter):
        crop, rationale = chart(rows)
        spy = SpyVerifier()
        scores = score(crop, rationale, spy, counter)
        encoded = rationale_text(rationale, counter)
        q, img, gold = crop.question, crop.image, crop.canonical_answer
        assert spy.requests == [("greedy", img, q, encoded),
                                ("logprob", img, q, gold, encoded),
                                ("logprob", img, q, gold, None)]
        assert scores == VerifierScores(logp_with=-1.0, logp_without=-1.0, greedy="G")


def rounded_once(op, x, y):
    """x op y in exact arithmetic, rounded once to a float as IEEE arithmetic
    rounds a single operation. With an infinity the operation is exact (or NaN)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return op(x, y)
    exact = op(Fraction(x), Fraction(y))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def category_reference(greedy, gold, logp_with, logp_without, cfg):
    """The filter's rule evaluated without is_useful: probability space tests
    p_with >= λ·p_without as log p_with − log p_without >= log λ, log space
    tests log p_with >= λ·log p_without. A comparison with NaN is false, so
    a NaN score is never useful; so is a difference of two equal infinities.
    A log p_with of −inf (p_with = 0) is never useful in either space."""
    if greedy.strip() != gold.strip():
        return "irrelevant"
    if cfg.space == PROBABILITY_SPACE:
        useful = rounded_once(operator.sub, logp_with, logp_without) >= math.log(cfg.boost_factor)
    else:
        useful = (logp_with != -math.inf
                  and logp_with >= rounded_once(operator.mul, cfg.boost_factor, logp_without))
    return "useful" if useful else "relevant-not-useful"


# the largest finite float (about 1.8e308), the smallest subnormal, infinities
EXTREMES = (sys.float_info.max, -sys.float_info.max, math.inf, -math.inf,
            5e-324, -5e-324, 0.0, -0.0)
LAMBDAS = (2.0, 3.0, 1.0000000000000002, 1e300)


@st.composite
def score_cases(draw, allow_nan=False):
    """(cfg, logp_with, logp_without), often at an extreme or at the boundary:
    equal scores, or scores exactly log λ apart; NaN too with `allow_nan`."""
    extreme_or_any = (st.sampled_from(EXTREMES + ((math.nan,) if allow_nan else ()))
                      | st.floats(allow_nan=allow_nan))
    space = draw(st.sampled_from([PROBABILITY_SPACE, LOG_SPACE]))
    lam = draw(st.sampled_from(LAMBDAS))
    cfg = FilterConfig(boost_factor=lam, space=space)
    logp_without = draw(extreme_or_any | st.sampled_from([math.log(lam), -math.log(lam)]))
    logp_with = draw(st.sampled_from([logp_without, logp_without + math.log(lam),
                                      lam * logp_without]) | extreme_or_any)
    return cfg, logp_with, logp_without


class TestExtremeScores:
    """Scores and verdict lines are the only record of the verifier's
    judgement, so the category must be right, and survive a round trip,
    wherever a float can go."""

    @given(score_cases(allow_nan=True), st.sampled_from(["G", " G ", "X"]))
    def test_categorize_matches_the_reference(self, case, greedy):
        cfg, logp_with, logp_without = case
        scores = VerifierScores(logp_with, logp_without, greedy)
        verdict = categorize("c1", "G", scores, cfg)
        assert verdict.category == category_reference(greedy, "G", logp_with, logp_without, cfg)
        assert verdict.effective_answer == ("None" if verdict.category == "irrelevant" else "G")
        assert verdict.example_id == "c1" and verdict.scores is scores

    @given(score_cases())
    def test_verdict_line_keeps_the_category(self, case):
        cfg, logp_with, logp_without = case
        cat = categorize("c1", "G", VerifierScores(logp_with, logp_without, "G"), cfg)
        verdict = parse_categorized(serialize_categorized(cat))
        assert verdict.scores == cat.scores
        assert category_reference(verdict.scores.greedy, "G", verdict.scores.logp_with,
                                  verdict.scores.logp_without, cfg) == cat.category

    def test_scores_exactly_log_lambda_apart_are_useful(self):
        lam = 2.0
        cfg = FilterConfig(boost_factor=lam)
        cat = categorize("c1", "G", VerifierScores(0.0, -math.log(lam), "G"), cfg)
        assert cat.category == "useful"
        cat = categorize("c1", "G", VerifierScores(-math.log(lam), -math.log(lam), "G"), cfg)
        assert cat.category == "relevant-not-useful"

    @pytest.mark.parametrize("space", [PROBABILITY_SPACE, LOG_SPACE])
    @pytest.mark.parametrize("logp_with,logp_without", [
        (math.nan, -1.0), (-1.0, math.nan), (math.nan, math.nan), (0.0, math.nan),
        (math.nan, -math.inf), (-math.inf, math.nan), (-math.inf, -math.inf),
    ])
    def test_nan_is_never_useful(self, space, logp_with, logp_without):
        cfg = FilterConfig(boost_factor=2.0, space=space)
        cat = categorize("c1", "G", VerifierScores(logp_with, logp_without, "G"), cfg)
        assert cat.category == "relevant-not-useful"
        verdict = parse_categorized(serialize_categorized(cat))
        assert verdict.category == cat.category
        assert [math.isnan(x) for x in (verdict.scores.logp_with, verdict.scores.logp_without)] \
            == [math.isnan(x) for x in (logp_with, logp_without)]


def make_verdict(example_id, category):
    answer = NONE_SENTINEL if category == "irrelevant" else "a"
    return Verdict(example_id=example_id, category=category, effective_answer=answer,
                   scores=VerifierScores(-1.0, -2.0, "a"))


def make_pool(n_none, n_bad, n_good):
    pool = [make_verdict(f"n{i:04d}", "irrelevant") for i in range(n_none)]
    pool += [make_verdict(f"b{i:04d}", "relevant-not-useful") for i in range(n_bad)]
    pool += [make_verdict(f"g{i:04d}", "useful") for i in range(n_good)]
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
