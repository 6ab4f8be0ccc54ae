import collections

import pytest
from hypothesis import given, strategies as st

from rdistill.codec import parse_target
from rdistill.filtering import balance
from rdistill.fixtures import make_mock_students
from rdistill.records import (NONE_SENTINEL, ImageRef, QAExample, Rationale, Verdict,
                              VerifierScores)
from rdistill.tasks import (DuplicateExample, FoldLeak, MissingRationale, SubsetTooSmall,
                            build_ans_only, build_apr, build_apraci, build_qid,
                            build_qra, build_qraci, crop_task, plan_folds)
from rdistill.tools import MockStudentClient


def make_example(i, subset="s"):
    return QAExample(example_id=f"{subset}-e{i}",
                     image=ImageRef(id=f"{subset}-i{i}", height=100, width=100),
                     question=f"question {i}?", gold_answers=(f"answer{i}",))


def make_kept(i, category, rationale=None):
    """Kept crop "c{i}" as the crop tasks take it: (verdict, crop, rationale)."""
    answer = NONE_SENTINEL if category == "irrelevant" else f"answer{i}"
    verdict = Verdict(example_id=f"c{i}", category=category, effective_answer=answer,
                      scores=VerifierScores(-1.0, -2.0, "x"))
    crop = QAExample(example_id=f"c{i}", image=ImageRef(id=f"i{i}", height=100, width=100),
                     question=f"question {i}?", gold_answers=(f"answer{i}",))
    return verdict, crop, rationale or Rationale.text(f"evidence {i}")


class TestBuildQra:
    def test_record_shape(self):
        ex = make_example(0)
        records = build_qra([ex], {ex.example_id: Rationale.text("the evidence")})
        assert len(records) == 1
        rec = records[0]
        assert rec.task == "QRA"
        assert rec.decoder_input == ""
        target = parse_target(rec.decoder_output)
        assert target.question == ex.question
        assert target.rationale == "the evidence"
        assert target.answer == "answer0"

    def test_flagged_rationale_excluded(self):
        ex = make_example(0)
        flagged = Rationale.program((("a",),), "", flagged=True)
        assert build_qra([ex], {ex.example_id: flagged}) == []

    def test_missing_rationale_raises(self):
        with pytest.raises(MissingRationale, match="^no rationale for example 's-e0'$"):
            build_qra([make_example(0)], {})


class TestPlanFolds:
    def test_nine_examples_three_folds(self):
        examples = [make_example(i) for i in range(9)]
        plan = plan_folds({"s": examples}, seed=0)
        assert plan.fold_count == 3
        sizes = [sum(1 for f in plan.assignment.values() if f == k) for k in range(3)]
        assert sizes == [3, 3, 3]

    def test_two_subsets_six_folds(self):
        data = {"augmented": [make_example(i, "a") for i in range(6)],
                "human": [make_example(i, "h") for i in range(6)]}
        plan = plan_folds(data, seed=0)
        assert plan.fold_count == 6
        assert set(plan.subset_folds["augmented"]) & set(plan.subset_folds["human"]) == set()

    def test_partition(self):
        examples = [make_example(i) for i in range(10)]
        plan = plan_folds({"s": examples}, seed=0)
        assert set(plan.assignment) == {e.example_id for e in examples}
        sizes = sorted(sum(1 for f in plan.assignment.values() if f == k) for k in range(3))
        assert max(sizes) - min(sizes) <= 1

    def test_subset_too_small(self):
        with pytest.raises(SubsetTooSmall):
            plan_folds({"s": [make_example(0), make_example(1)]})

    def test_deterministic(self):
        examples = [make_example(i) for i in range(9)]
        assert plan_folds({"s": examples}, seed=3).assignment == \
            plan_folds({"s": examples}, seed=3).assignment

    @pytest.mark.parametrize("other", ["t", "s"], ids=["two-subsets", "one-subset"])
    def test_an_example_id_twice_is_refused(self, other):
        # an id would otherwise take the fold of the subset planned last
        shared = make_example(0, "s")
        data = collections.defaultdict(list)
        data["s"] += [make_example(i, "s") for i in range(3)]
        data[other] += [make_example(i, "t") for i in range(1, 4)] + [shared]
        with pytest.raises(DuplicateExample, match=f"'s-e0' appears in subset 's' and again "
                                                   f"in '{other}'"):
            plan_folds(data)


def make_students(fold_count):
    folds = set(range(fold_count))
    return {f: MockStudentClient(train_folds=frozenset(folds - {f})) for f in folds}


class TestBuildApr:
    def test_three_records_per_example(self):
        examples = [make_example(i) for i in range(9)]
        plan = plan_folds({"s": examples}, seed=0)
        records = build_apr(examples, make_students(3), plan)
        assert len(records) == 27
        rec = records[0]
        assert rec.task == "APR"
        assert " <s> " in rec.decoder_input
        assert rec.decoder_output.startswith("answer")

    def test_fold_leak(self):
        examples = [make_example(i) for i in range(9)]
        plan = plan_folds({"s": examples}, seed=0)
        leaky = {f: MockStudentClient(train_folds=frozenset({f})) for f in range(3)}
        with pytest.raises(FoldLeak):
            build_apr(examples, leaky, plan)

    def spy_students(self, leaking_fold=None):
        """Students that count their samples; `leaking_fold`'s was trained on it."""
        calls = []

        class Spy(MockStudentClient):
            def sample_rationales(self, image, question, n):
                calls.append(image.id)
                return super().sample_rationales(image, question, n)

        folds = set(range(3))
        return calls, {f: Spy(train_folds=frozenset(folds - {f} | ({f} & {leaking_fold})))
                       for f in folds}

    @pytest.mark.parametrize("leaking_fold", [0, 1, 2])
    def test_fold_leak_before_any_sample(self, leaking_fold):
        examples = [make_example(i) for i in range(9)]
        plan = plan_folds({"s": examples}, seed=0)
        calls, students = self.spy_students(leaking_fold)
        with pytest.raises(FoldLeak):
            build_apr(examples, students, plan)
        assert calls == []

    def test_missing_fold_before_any_sample(self):
        examples = [make_example(i) for i in range(9)]
        plan = plan_folds({"s": examples[:8]}, seed=0)
        calls, students = self.spy_students()
        with pytest.raises(MissingRationale):
            build_apr(examples, students, plan)
        assert calls == []

    def test_no_dedup_of_identical_samples(self):
        examples = [make_example(i) for i in range(3)]
        plan = plan_folds({"s": examples}, seed=0)
        class Echo(MockStudentClient):
            def sample_rationales(self, image, question, n):
                return ["same"] * n

        echo = {f: Echo(train_folds=frozenset(set(range(3)) - {f})) for f in range(3)}
        records = build_apr(examples, echo, plan)
        assert len(records) == 9


def fixture_30_crops():
    crops = []
    for i in range(10):
        crops.append(make_kept(i, "useful"))
    for i in range(10, 20):
        crops.append(make_kept(i, "irrelevant"))
    for i in range(20, 30):
        crops.append(make_kept(i, "relevant-not-useful"))
    return crops


class TestRouting:
    def test_qraci_counts(self):
        records = build_qraci(fixture_30_crops())
        assert len(records) == 20
        answers = [parse_target(r.decoder_output).answer for r in records]
        assert sum(1 for a in answers if a == NONE_SENTINEL) == 10
        assert sum(1 for a in answers if a != NONE_SENTINEL) == 10

    def test_apraci_counts(self):
        records = build_apraci(fixture_30_crops())
        assert len(records) == 10
        for rec in records:
            assert rec.task == "APRCI"
            assert rec.decoder_output.startswith("answer")
            assert " <s> " in rec.decoder_input

    def test_routing_total_and_exclusive(self):
        crops = fixture_30_crops()
        qraci_ids = {r.example_id for r in build_qraci(crops)}
        apraci_ids = {r.example_id for r in build_apraci(crops)}
        assert qraci_ids & apraci_ids == set()
        assert qraci_ids | apraci_ids == {verdict.example_id for verdict, _, _ in crops}

    def test_every_output_parses_with_non_empty_answer(self):
        for rec in build_qraci(fixture_30_crops()):
            assert parse_target(rec.decoder_output).answer

    @pytest.mark.parametrize("category,task", [("useful", None), ("irrelevant", None),
                                               ("relevant-not-useful", "APRCI")])
    def test_a_flagged_crop_trains_only_an_answer(self, category, task):
        # a flagged rationale holds no program: it is no prediction target
        flagged = Rationale.program((("year", "2019"),), "", flagged=True)
        crop = make_kept(0, category, flagged)
        routed = [r.task for r in build_qraci([crop]) + build_apraci([crop])]
        assert routed == ([task] if task else [])
        assert crop_task(category, True) == (task and task.replace("APRCI", "apraci"))


CATEGORIES = ("useful", "irrelevant", "relevant-not-useful")


FLAGGED = Rationale.program((("year", "2019"),), "", flagged=True)


class TestRoutingProperties:
    @given(crops=st.lists(st.tuples(st.sampled_from(CATEGORIES), st.booleans()), max_size=40),
           balanced=st.booleans(), seed=st.integers(0, 2**32))
    def test_every_crop_lands_in_one_task_with_the_answer_its_category_needs(
            self, crops, balanced, seed):
        # a flagged useful or irrelevant crop goes nowhere, a relevant-not-useful
        # crop always to APRCI, and every other crop to exactly one task
        crops = [make_kept(i, c, FLAGGED if flagged else None)
                 for i, (c, flagged) in enumerate(crops)]
        if balanced:
            kept, _ = balance([verdict for verdict, _, _ in crops], seed=seed)
            crops = [crop for crop in crops if crop[0] in kept]
        routed = {}
        for rec in build_qraci(crops):
            routed.setdefault(rec.example_id, []).append(
                (rec.task, parse_target(rec.decoder_output).answer))
        for rec in build_apraci(crops):
            routed.setdefault(rec.example_id, []).append((rec.task, rec.decoder_output))
        expected = {}
        for verdict, crop, rationale in crops:
            if rationale.flagged and verdict.category != "relevant-not-useful":
                continue
            gold = crop.canonical_answer
            expected[verdict.example_id] = [{"useful": ("QRACI", gold),
                                             "irrelevant": ("QRACI", NONE_SENTINEL),
                                             "relevant-not-useful": ("APRCI", gold),
                                             }[verdict.category]]
        assert routed == expected


SUBSETS = ("augmented", "human", "s", "t")


class TestFoldProperties:
    @given(sizes=st.dictionaries(st.sampled_from(SUBSETS), st.integers(0, 25), min_size=1),
           folds_per_subset=st.integers(1, 5), seed=st.integers(0, 2**32))
    def test_each_id_in_one_fold_of_its_subset_with_even_sizes(self, sizes,
                                                               folds_per_subset, seed):
        data = {subset: [make_example(i, subset) for i in range(n)]
                for subset, n in sizes.items()}
        if min(sizes.values()) < folds_per_subset:
            with pytest.raises(SubsetTooSmall):
                plan_folds(data, folds_per_subset, seed)
            return
        plan = plan_folds(data, folds_per_subset, seed)
        assert set(plan.assignment) == {e.example_id for exs in data.values() for e in exs}
        owned = [f for subset in data for f in plan.subset_folds[subset]]
        assert sorted(owned) == list(range(plan.fold_count))
        for subset, examples in data.items():
            assert len(plan.subset_folds[subset]) == folds_per_subset
            sizes_of = collections.Counter(plan.assignment[e.example_id] for e in examples)
            assert set(sizes_of) <= set(plan.subset_folds[subset])
            fold_sizes = [sizes_of[f] for f in plan.subset_folds[subset]]
            assert max(fold_sizes) - min(fold_sizes) <= 1

    @given(st.integers(1, 40))
    def test_mock_students_never_serve_a_fold_they_trained_on(self, fold_count):
        students = make_mock_students(fold_count)
        assert set(students) == set(range(fold_count))
        for fold, student in students.items():
            assert student.train_folds == set(range(fold_count)) - {fold}

    @given(n=st.integers(3, 12), trained=st.lists(st.sets(st.integers(0, 2)),
                                                  min_size=3, max_size=3))
    def test_build_apr_raises_fold_leak_for_any_leaking_student_map(self, n, trained):
        examples = [make_example(i) for i in range(n)]
        plan = plan_folds({"s": examples}, seed=0)
        students = {f: MockStudentClient(train_folds=frozenset(t))
                    for f, t in enumerate(trained)}
        if any(f in t for f, t in enumerate(trained)):
            with pytest.raises(FoldLeak):
                build_apr(examples, students, plan)
        else:
            assert len(build_apr(examples, students, plan)) == 3 * n


class TestBaselines:
    def test_qid_format(self):
        records = build_qid([make_example(0)])
        assert records[0].decoder_output == "question 0? <answer> answer0"
        assert records[0].task == "QID"

    def test_ans_only_format(self):
        records = build_ans_only([make_example(0)])
        assert records[0].decoder_output == "answer0"
        assert records[0].task == "ANS_ONLY"
