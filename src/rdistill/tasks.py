"""Builders for the multi-task training datasets and baselines.

The crop tasks take each kept crop as the categorized, crop and
crop-rationale files hold it, a (verdict, crop, rationale) triple, and
keep the triples `crop_task` routes to them. Routing is total and
exclusive over crops whose rationale is not flagged: useful crops go to
QRACI with the gold answer, irrelevant crops to QRACI with the None
sentinel, and relevant-not-useful crops to APRCI (answer-only given the
noisy rationale in the decoder input), flagged or not; a flagged useful or
irrelevant crop goes to no task, and the filter stage leaves it out of its
balance. APR pairs each example with three
student-sampled rationales from a model trained on the other folds.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .codec import ANSWER_BUDGET, DEFAULT_COUNTER, TokenCounter, encode_target, escape_field
from .records import QAExample, Rationale, TaskRecord, Verdict
from .tools import STUDENT_SAMPLES, StudentRationaleClient, rationale_text

log = logging.getLogger(__name__)


class MissingRationale(LookupError):
    def __init__(self, example_id: str):
        super().__init__(f"no rationale for example {example_id!r}")


class FoldLeak(RuntimeError):
    """A student client was asked to generate on its own training fold."""


class SubsetTooSmall(ValueError):
    pass


class DuplicateExample(ValueError):
    """One example_id in two subsets, or twice in one: it would have two folds."""


@dataclass(frozen=True)
class FoldPlan:
    fold_count: int
    assignment: Mapping[str, int]  # example_id -> global fold index
    subset_folds: Mapping[str, tuple[int, ...]]  # subset -> its fold indices


def plan_folds(examples_by_subset: Mapping[str, Iterable[QAExample]],
               folds_per_subset: int = 3, seed: int = 0) -> FoldPlan:
    """Seeded k-fold partition, independent per subset; fold sizes differ
    by at most one. Fold indices are global across subsets. DuplicateExample
    if an example_id appears twice."""
    assignment: dict[str, int] = {}
    subset_of: dict[str, str] = {}
    subset_folds: dict[str, tuple[int, ...]] = {}
    next_fold = 0
    for subset in sorted(examples_by_subset):
        ids = sorted(ex.example_id for ex in examples_by_subset[subset])
        if len(ids) < folds_per_subset:
            raise SubsetTooSmall(
                f"subset {subset!r} has {len(ids)} examples for {folds_per_subset} folds")
        rng = random.Random((seed, subset).__repr__())
        rng.shuffle(ids)
        fold_ids = tuple(range(next_fold, next_fold + folds_per_subset))
        for i, ex_id in enumerate(ids):
            if ex_id in subset_of:
                raise DuplicateExample(f"example_id {ex_id!r} appears in subset "
                                       f"{subset_of[ex_id]!r} and again in {subset!r}")
            subset_of[ex_id] = subset
            assignment[ex_id] = fold_ids[i % folds_per_subset]
        subset_folds[subset] = fold_ids
        next_fold += folds_per_subset
    return FoldPlan(fold_count=next_fold, assignment=dict(assignment),
                    subset_folds=subset_folds)


def _answer_only(answer: str, counter: TokenCounter) -> str:
    out = escape_field(answer)
    if counter.count(out) > ANSWER_BUDGET:
        out = counter.truncate(out, ANSWER_BUDGET)
    return out


def build_qra(examples: Iterable[QAExample],
              rationales: Mapping[str, Rationale],
              counter: TokenCounter = DEFAULT_COUNTER) -> list[TaskRecord]:
    """Whole-image distillation records: decode question, rationale, answer."""
    records = []
    for ex in examples:
        if ex.example_id not in rationales:
            raise MissingRationale(ex.example_id)
        r = rationales[ex.example_id]
        if r.flagged:
            log.info("example %s: flagged rationale excluded from QRA", ex.example_id)
            continue
        records.append(TaskRecord(
            task="QRA",
            example_id=ex.example_id,
            image=ex.image,
            decoder_input="",
            decoder_output=encode_target(ex.question, rationale_text(r, counter),
                                         ex.canonical_answer, counter),
        ))
    return records


def build_apr(examples: Iterable[QAExample],
              students: Mapping[int, StudentRationaleClient],
              fold_plan: FoldPlan,
              counter: TokenCounter = DEFAULT_COUNTER) -> list[TaskRecord]:
    """Answer-with-provided-rationale records, three student samples each.

    The student client serving a fold must not have been trained on it.
    Every example's fold is checked before the first sample is drawn: a
    leak raises FoldLeak, and an example without a fold MissingRationale.
    """
    examples = list(examples)
    folds = [fold_plan.assignment.get(ex.example_id) for ex in examples]
    for ex, fold in zip(examples, folds):
        if fold is None:
            raise MissingRationale(ex.example_id)
        if fold in students[fold].train_folds:
            raise FoldLeak(
                f"student for fold {fold} was trained on it (example {ex.example_id})")
    records = []
    for ex, fold in zip(examples, folds):
        samples = students[fold].sample_rationales(ex.image, ex.question, STUDENT_SAMPLES)
        answer = _answer_only(ex.canonical_answer, counter)
        for r_hat in samples:
            records.append(TaskRecord(
                task="APR",
                example_id=ex.example_id,
                image=ex.image,
                decoder_input=_trim_input(ex.question, r_hat, counter),
                decoder_output=answer,
            ))
    return records


def _trim_input(question: str, rationale: str, counter: TokenCounter) -> str:
    """Decoder input "q <s> r", held to the same 108-token prefix budget."""
    target = encode_target(question, rationale, "x", counter)
    return target[:target.rfind(" <answer>")]


def crop_task(category: str, flagged: bool) -> str | None:
    """The key of the crop task a categorized crop goes to, if any (see above)."""
    if category == "relevant-not-useful":
        return "apraci"
    return None if flagged else "qraci"


def build_qraci(kept: Iterable[tuple[Verdict, QAExample, Rationale]],
                counter: TokenCounter = DEFAULT_COUNTER) -> list[TaskRecord]:
    """Cropped-image rationale-prediction records for the (verdict, crop,
    rationale) triples `crop_task` routes here: useful -> gold answer;
    irrelevant -> None sentinel (the rationale is a prediction target either
    way)."""
    records = []
    for verdict, crop, rationale in kept:
        if crop_task(verdict.category, rationale.flagged) != "qraci":
            continue
        records.append(TaskRecord(
            task="QRACI",
            example_id=verdict.example_id,
            image=crop.image,
            decoder_input="",
            decoder_output=encode_target(crop.question, rationale_text(rationale, counter),
                                         verdict.effective_answer, counter),
        ))
    return records


def build_apraci(kept: Iterable[tuple[Verdict, QAExample, Rationale]],
                 counter: TokenCounter = DEFAULT_COUNTER) -> list[TaskRecord]:
    """Answer-only records for the (verdict, crop, rationale) triples whose
    rationale is relevant but not useful, flagged or not: the noisy
    rationale rides in the decoder input."""
    records = []
    for verdict, crop, rationale in kept:
        if crop_task(verdict.category, rationale.flagged) != "apraci":
            continue
        records.append(TaskRecord(
            task="APRCI",
            example_id=verdict.example_id,
            image=crop.image,
            decoder_input=_trim_input(crop.question, rationale_text(rationale, counter), counter),
            decoder_output=_answer_only(verdict.effective_answer, counter),
        ))
    return records


def build_qid(examples: Iterable[QAExample],
              counter: TokenCounter = DEFAULT_COUNTER) -> list[TaskRecord]:
    """Question-in-decoder baseline: "q <answer> a", no rationale."""
    return [TaskRecord(
        task="QID",
        example_id=ex.example_id,
        image=ex.image,
        decoder_input="",
        decoder_output=encode_target(ex.question, None, ex.canonical_answer, counter),
    ) for ex in examples]


def build_ans_only(examples: Iterable[QAExample],
                   counter: TokenCounter = DEFAULT_COUNTER) -> list[TaskRecord]:
    """Direct answer-prediction baseline."""
    return [TaskRecord(
        task="ANS_ONLY",
        example_id=ex.example_id,
        image=ex.image,
        decoder_input="",
        decoder_output=_answer_only(ex.canonical_answer, counter),
    ) for ex in examples]
