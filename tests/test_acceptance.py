"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report. Every criterion is self-contained; failures raise normally.
"""

import hashlib
import os
import random
import string
import time

import pytest
from click.testing import CliRunner

from rdistill import cli
from rdistill.codec import (ANSWER_BUDGET, PREFIX_BUDGET, PROGRAM_BUDGET,
                            SEP_ANSWER, SEP_PROGRAM, TABLE_BUDGET,
                            CharBlockCounter, WordCounter, encode_program_rationale,
                            encode_target)
from rdistill.cropping import plan_crops
from rdistill.dsl import DivisionByZero, Program, execute, parse, print_program
from rdistill.filtering import FilterConfig, balance, categorize, score
from rdistill.inference import anls, apply_calculator, relaxed_accuracy, vote
from rdistill.records import (NONE_SENTINEL, ImageRef, QAExample, Rationale,
                              ScoredHypothesis, Verdict, VerifierScores,
                              serialize_categorized)
from rdistill.tasks import (FoldLeak, build_apr, build_apraci, build_qraci,
                            plan_folds)
from rdistill.tools import MockStudentClient


def report(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


# ---------------------------------------------------------------------------
# 1. Crop-planner equivalence against a brute-force oracle


def brute_force_windows(height, width):
    """Literal transcription of the sliding-window crop procedure."""
    windows = []
    j = 0
    if height >= width:
        w = width
        while w * j < height:
            windows.append((w * j // 2, min(w * j // 2 + w, height)))
            j += 1
        return "height", windows
    h = height
    while h * j < width:
        windows.append((h * j // 2, min(h * j // 2 + h, width)))
        j += 1
    return "width", windows


def test_criterion_1_crop_equivalence():
    rng = random.Random(1)
    start = time.monotonic()
    for _ in range(10_000):
        h = rng.randint(1, 2000)
        w = rng.randint(1, 2000)
        plan = plan_crops(h, w)
        axis, windows = brute_force_windows(h, w)
        assert plan.axis == axis and list(plan.windows) == windows, (h, w)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"plan_crops matches brute force on 10,000 pairs in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Crop-count statistic


def test_criterion_2_mean_crop_count():
    import math
    rng = random.Random(2)
    ks = []
    for _ in range(2000):
        ratio = rng.uniform(2.0, 3.0)
        w = 800
        h = math.ceil(ratio * w)
        ks.append(len(plan_crops(h, w).windows))
    mean_k = sum(ks) / len(ks)
    assert 3.0 <= mean_k <= 5.0, mean_k
    report(2, f"mean crop count {mean_k:.3f} within [3, 5]")


# ---------------------------------------------------------------------------
# 3. Filter equivalence against a reference transcription


class _StubVerifier:
    def __init__(self, greedy, logp_with, logp_without):
        self.g, self.w, self.wo = greedy, logp_with, logp_without

    def greedy_answer(self, image, question, rationale=None):
        return self.g

    def answer_logprob(self, image, question, answer, rationale=None):
        return self.w if rationale is not None else self.wo


def _filter_reference(greedy, gold, p_with, p_without, lam):
    if greedy != gold:
        return "irrelevant", NONE_SENTINEL
    if p_with >= lam * p_without:
        return "useful", gold
    return "relevant-not-useful", gold


def test_criterion_3_filter_equivalence():
    import math
    rng = random.Random(3)
    ex = QAExample(example_id="e", image=ImageRef(id="i", height=10, width=10),
                   question="q", gold_answers=("G",))
    rationale = Rationale.text("evidence")
    cfg = FilterConfig()
    seen = set()
    for _ in range(1000):
        greedy = rng.choice(["G", "X"])
        p_with = rng.uniform(1e-6, 1.0)
        p_without = rng.uniform(1e-6, 1.0)
        scores = score(ex, rationale, _StubVerifier(greedy, math.log(p_with), math.log(p_without)))
        cat = categorize(ex.example_id, "G", scores, cfg)
        expect = _filter_reference(greedy, "G", p_with, p_without, cfg.boost_factor)
        assert (cat.category, cat.effective_answer) == expect
        seen.add(cat.category)
        # lambda monotonicity: larger lambda never promotes to useful
        big = categorize(ex.example_id, "G", scores, FilterConfig(boost_factor=5.0))
        if big.category == "useful":
            assert cat.category == "useful"
    assert seen == {"useful", "irrelevant", "relevant-not-useful"}  # partition hit
    report(3, "categorize matches the reference procedure on 1,000 score draws")


# ---------------------------------------------------------------------------
# 4. Balancing formula


def _verdict(example_id, category):
    answer = NONE_SENTINEL if category == "irrelevant" else "a"
    return Verdict(example_id=example_id, category=category, effective_answer=answer,
                   scores=VerifierScores(-1.0, -2.0, "a"))


def _kept(example_id, category):
    """A kept crop as the crop tasks take it: (verdict, crop, rationale)."""
    crop = QAExample(example_id=example_id, image=ImageRef(id=example_id, height=10, width=10),
                     question="q", gold_answers=("a",))
    return _verdict(example_id, category), crop, Rationale.text("e")


def test_criterion_4_balancing():
    rng = random.Random(4)
    for _ in range(50):
        n_none = rng.randint(0, 200)
        n_bad = rng.randint(0, 200)
        n_good = rng.randint(0, 200)
        pool = [_verdict(f"n{i:04d}", "irrelevant") for i in range(n_none)]
        pool += [_verdict(f"b{i:04d}", "relevant-not-useful") for i in range(n_bad)]
        pool += [_verdict(f"g{i:04d}", "useful") for i in range(n_good)]
        seed = rng.randint(0, 10_000)
        kept, rep = balance(pool, seed=seed)
        assert rep.n_none_kept == min(n_none, max(n_bad - n_good, 0))
        again, _ = balance(pool, seed=seed)
        assert b"\n".join(serialize_categorized(c).encode() for c in kept) == \
            b"\n".join(serialize_categorized(c).encode() for c in again)
    report(4, "kept-None formula and seed determinism hold on 50 profiles")


# ---------------------------------------------------------------------------
# 5. DSL identity + executor table


def _random_program(rng):
    op = rng.choice(("Div", "Mul", "Diff", "Greater", "Less", "Avg", "Sum", "Find"))
    if op == "Find":
        word = "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(1, 12)))
        return Program(op, (word,))
    n = 2 if op in ("Div", "Mul", "Diff", "Greater", "Less") else rng.randint(2, 5)
    args = []
    for _ in range(n):
        if rng.random() < 0.5:
            args.append(float(rng.randint(-10_000, 10_000)))
        else:
            args.append(round(rng.uniform(-1000, 1000), rng.randint(1, 4)))
    return Program(op, tuple(args))


def test_criterion_5_dsl():
    rng = random.Random(5)
    for _ in range(1000):
        p = _random_program(rng)
        assert parse(print_program(p)) == p
    table = [("Div(25, 5)", "5"), ("Avg(1, 2, 3, 6)", "3"), ("Diff(7, 2)", "5"),
             ("Sum(1, 2, 3)", "6"), ("Mul(3, 4)", "12"),
             ("Greater(10, 2)", "Yes"), ("Less(10, 2)", "No")]
    for source, expected in table:
        assert execute(parse(source)).render() == expected, source
    with pytest.raises(DivisionByZero):
        execute(parse("Div(1, 0)"))
    report(5, "parse∘print identity on 1,000 ASTs; executor hand table exact")


# ---------------------------------------------------------------------------
# 6. Token budgets


def _random_text(rng, max_words):
    words = []
    for _ in range(rng.randint(1, max_words)):
        if rng.random() < 0.02:
            words.append(rng.choice(["<s>", "<answer>", "<program>"]))
        else:
            words.append("".join(rng.choice(string.ascii_lowercase)
                                 for _ in range(rng.randint(1, 10))))
    return " ".join(words)


def test_criterion_6_token_budgets():
    rng = random.Random(6)
    counters = (WordCounter(), CharBlockCounter())
    for _ in range(1000):
        q = _random_text(rng, 120)
        r = _random_text(rng, 200) if rng.random() < 0.8 else None
        a = _random_text(rng, 40)
        table = [[_random_text(rng, 3) for _ in range(rng.randint(1, 6))]
                 for _ in range(rng.randint(1, 12))]
        prog = f"Sum({rng.randint(1, 9)}, {rng.randint(1, 9)})"
        for counter in counters:
            encoded = encode_target(q, r, a, counter)
            head, _, answer = encoded.rpartition(f" {SEP_ANSWER} ")
            assert counter.count(head) <= PREFIX_BUDGET
            assert counter.count(answer) <= ANSWER_BUDGET
            rationale = encode_program_rationale(table, prog, counter)
            tbl, _, psrc = rationale.rpartition(f" {SEP_PROGRAM} ")
            assert counter.count(tbl) <= TABLE_BUDGET
            assert counter.count(psrc) <= PROGRAM_BUDGET
    report(6, "108/20 and 64/44 budgets hold for 1,000 triples under two counters")


# ---------------------------------------------------------------------------
# 7. Task routing


def test_criterion_7_routing():
    crops = [_kept(f"u{i}", "useful") for i in range(10)]
    crops += [_kept(f"i{i}", "irrelevant") for i in range(10)]
    crops += [_kept(f"r{i}", "relevant-not-useful") for i in range(10)]
    qraci = build_qraci(crops)
    assert len(qraci) == 20
    nones = sum(1 for r in qraci if r.decoder_output.endswith(f"{SEP_ANSWER} None"))
    assert nones == 10 and len(qraci) - nones == 10
    assert len(build_apraci(crops)) == 10

    examples = [QAExample(example_id=f"e{i}",
                          image=ImageRef(id=f"i{i}", height=100, width=100),
                          question=f"q{i}", gold_answers=(f"a{i}",))
                for i in range(9)]
    plan = plan_folds({"s": examples}, seed=0)
    students = {f: MockStudentClient(train_folds=frozenset({0, 1, 2} - {f}))
                for f in range(3)}
    assert len(build_apr(examples, students, plan)) == 3 * len(examples)
    report(7, "30 crops route to 20 QRACI (10 gold / 10 None) + 10 APRCI; APR 3/example")


# ---------------------------------------------------------------------------
# 8. Fold integrity


def test_criterion_8_folds():
    def make(subset, n):
        return [QAExample(example_id=f"{subset}{i}",
                          image=ImageRef(id=f"{subset}{i}", height=10, width=10),
                          question="q", gold_answers=("a",)) for i in range(n)]

    examples = make("s", 9)
    plan = plan_folds({"s": examples}, seed=0)
    sizes = sorted(sum(1 for f in plan.assignment.values() if f == k)
                   for k in range(plan.fold_count))
    assert plan.fold_count == 3 and sizes == [3, 3, 3]

    two = plan_folds({"augmented": make("a", 6), "human": make("h", 6)}, seed=0)
    assert two.fold_count == 6

    leaky = {f: MockStudentClient(train_folds=frozenset({f})) for f in range(3)}
    with pytest.raises(FoldLeak):
        build_apr(examples, leaky, plan)
    report(8, "9 examples -> 3x3 folds; two subsets -> 6 folds; FoldLeak raised")


# ---------------------------------------------------------------------------
# 9. Voting


def test_criterion_9_voting():
    def hyp(answer, prob):
        return ScoredHypothesis(decoded=f"q <s> r {SEP_ANSWER} {answer}", prob=prob)

    hyps = [hyp("A", 0.3), hyp("None", 0.4), hyp("A", 0.2), hyp("B", 0.25)]
    result = vote(hyps)
    assert result.answer == "A"
    assert result.aggregate_prob == pytest.approx(0.5)
    scaled = [ScoredHypothesis(h.decoded, h.prob * 13.7) for h in hyps]
    assert vote(scaled).answer == "A"
    assert vote(list(reversed(hyps))).answer == "A"
    report(9, 'four-hypothesis fixture -> "A"@0.5; invariant to scaling/permutation')


# ---------------------------------------------------------------------------
# 10. Metrics


def test_criterion_10_metrics():
    assert anls("Instagram", ["Instagram"]) == 1.0
    assert abs(anls("Instagrm", ["Instagram"]) - 8 / 9) <= 1e-9
    assert anls("Paris", ["Instagram"]) == 0.0
    assert relaxed_accuracy("9.6", "10") == 1
    assert relaxed_accuracy("9.4", "10") == 0
    assert relaxed_accuracy("9.5", "10") == 1  # |delta| exactly 5% of gold
    report(10, "ANLS and relaxed-accuracy hand cases exact")


# ---------------------------------------------------------------------------
# 11. End-to-end determinism


def _task_hashes(out_dir):
    task_dir = os.path.join(out_dir, "tasks")
    return {name: hashlib.sha256(open(os.path.join(task_dir, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(task_dir))}


def test_criterion_11_end_to_end(tmp_path):
    runner = CliRunner()
    start = time.monotonic()
    for name in ("a", "b"):
        result = runner.invoke(cli.main, ["run", "--mock",
                                          "--out-dir", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    first = _task_hashes(str(tmp_path / "a"))
    assert first == _task_hashes(str(tmp_path / "b"))

    # delete a mid-pipeline artifact and every task file, rerun, compare bytes
    os.remove(tmp_path / "a" / "docs.categorized.jsonl")
    for name in os.listdir(tmp_path / "a" / "tasks"):
        os.remove(tmp_path / "a" / "tasks" / name)
    result = runner.invoke(cli.main, ["run", "--mock", "--out-dir", str(tmp_path / "a")])
    assert result.exit_code == 0, result.output
    assert _task_hashes(str(tmp_path / "a")) == first
    report(11, f"two mock runs + stage-deletion rerun byte-identical in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 12. Calculator substitution


def test_criterion_12_calculator():
    valid = [("Div(25, 5)", "5"), ("Sum(1, 2, 3)", "6"), ("Avg(1, 2, 3, 6)", "3"),
             ("Mul(3, 4)", "12"), ("Diff(7, 2)", "5"), ("Greater(10, 2)", "Yes")]
    fixtures = [(f"q <s> t {SEP_PROGRAM} {src} {SEP_ANSWER} guess", out)
                for src, out in valid]
    fixtures += [(f"q <s> t {SEP_PROGRAM} Foo(1) {SEP_ANSWER} guess", "guess"),
                 (f"q <s> t {SEP_PROGRAM} Div(1, 0) {SEP_ANSWER} guess", "guess"),
                 (f"q <s> t {SEP_PROGRAM} Find(France) {SEP_ANSWER} guess", "guess"),
                 (f"q <s> t {SEP_PROGRAM} Find(gas) {SEP_ANSWER} guess", "guess")]
    assert len(fixtures) == 10
    replaced = 0
    for decoded, expected in fixtures:
        got = apply_calculator(decoded, "guess")
        assert got == expected, decoded
        replaced += got != "guess"
    assert replaced == 6
    report(12, "exactly the 6 valid programs substituted; invalid/Find fall back")
