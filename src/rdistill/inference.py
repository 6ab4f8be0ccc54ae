"""Inference-time post-processing and evaluation metrics.

Voting aggregates beam-hypothesis probabilities per distinct answer and
picks the best non-None answer. The calculator executes a program found
in a decoded rationale and substitutes its result for the model answer,
falling back to the model prediction for Find or invalid programs.
Metrics: ANLS (threshold 0.5, max over golds) and relaxed accuracy
(5% numeric tolerance, else case-insensitive exact match). ANLS's edit
distance is Myers' (1999) bit-parallel algorithm in Hyyrö's (2003)
Levenshtein form, over Python ints, so it has no length limit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import dsl
from .codec import SEP_ANSWER, SEP_PROGRAM, parse_answer
from .records import ScoredHypothesis

log = logging.getLogger(__name__)


class AllNone(ValueError):
    """Every parseable hypothesis answered with the None sentinel."""


@dataclass(frozen=True)
class VoteResult:
    answer: str
    aggregate_prob: float
    tally: dict
    beam: ScoredHypothesis  # the most probable hypothesis answering `answer`


def vote(hypotheses: Sequence[ScoredHypothesis], example_id: str | None = None) -> VoteResult:
    """Sum probabilities per distinct answer; argmax over non-None answers.

    Only each hypothesis's answer is parsed (`codec.parse_answer`).
    Unparseable hypotheses are skipped with a warning, which names
    `example_id` when given and the beam file's line when the hypothesis
    has one. Ties break by first occurrence in beam order, both between
    answers and between the beams of the winning answer.
    """
    tally: dict[str, float] = {}
    order: dict[str, int] = {}
    top_beam: dict[str, ScoredHypothesis] = {}
    for i, hyp in enumerate(hypotheses):
        try:
            key = parse_answer(hyp.decoded)
        except ValueError as e:
            log.warning("%sskipping the unparseable %s: %s",
                        f"example {example_id}: " if example_id is not None else "",
                        f"beam on line {hyp.line_no}" if hyp.line_no else f"hypothesis {i}", e)
            continue
        tally[key] = tally.get(key, 0.0) + hyp.prob
        order.setdefault(key, i)
        if key not in top_beam or hyp.prob > top_beam[key].prob:
            top_beam[key] = hyp

    candidates = [a for a in tally if a != "None"]
    if not candidates:
        raise AllNone("no non-None answer among parseable hypotheses")
    best = max(candidates, key=lambda a: (tally[a], -order[a]))
    return VoteResult(answer=best, aggregate_prob=tally[best], tally=tally,
                      beam=top_beam[best])


def extract_program_source(decoded: str) -> str | None:
    """Program text between the last <program> marker and <answer> (or end)."""
    idx = decoded.rfind(SEP_PROGRAM)
    if idx < 0:
        return None
    source = decoded[idx + len(SEP_PROGRAM):]
    a_idx = source.find(SEP_ANSWER)
    if a_idx >= 0:
        source = source[:a_idx]
    return source.strip()


def apply_calculator(decoded: str, fallback_answer: str) -> str:
    """Execute the program in a decoded sequence and substitute its result.

    Invalid programs, Find programs, and execution errors all fall back
    to the model-predicted answer; this function never raises.
    """
    source = extract_program_source(decoded)
    if not source:
        return fallback_answer
    try:
        program = dsl.parse(source)
        result = dsl.execute(program)
    except (ValueError, ZeroDivisionError):
        return fallback_answer
    if result.kind == "passthrough":
        return fallback_answer
    try:
        return result.render()
    except (ValueError, OverflowError):
        return fallback_answer


def levenshtein(a: str, b: str) -> int:
    """Edit distance (unit-cost insert, delete, substitute), bit-parallel.

    Myers (1999) in Hyyrö's (2003) form: bit i of each vector stands for
    row i+1 of the DP column over the shorter string, and `pv`/`mv` mark
    where that column steps up or down by one. One pass over the longer
    string updates a whole column in a few integer operations; `score`
    follows the last row, which ends at the distance.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}  # character -> bits of its positions in b
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | 1 << i
    mask = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv, score = mask, 0, len(b)
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = ph << 1 | 1  # row 0 steps up by one per column
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def anls(pred: str, golds: Sequence[str], tau: float = 0.5) -> float:
    """Normalized Levenshtein similarity, max over golds, 0 below threshold.

    Strings are lowercased and whitespace-trimmed before comparison.
    """
    if not golds:
        raise ValueError("golds must be non-empty")
    p = pred.strip().lower()
    best = 0.0
    for gold in golds:
        g = gold.strip().lower()
        nl = levenshtein(p, g) / max(len(p), len(g), 1)
        score = 1.0 - nl if nl < tau else 0.0
        best = max(best, score)
    return best


def _to_number(text: str) -> float | None:
    """A finite value for a plain numeral; words like 'inf' or '1_000' are not numbers."""
    value = dsl.parse_numeral(text.strip())
    return value if value is not None and math.isfinite(value) else None


def relaxed_accuracy(pred: str, gold: str) -> int:
    """1 iff numeric within 5% relative error (gold 0 requires exactness),
    else case-insensitive trimmed string equality."""
    p_num, g_num = _to_number(pred), _to_number(gold)
    if p_num is not None and g_num is not None:
        if g_num == 0:
            return int(p_num == 0)
        return int(abs(p_num - g_num) <= 0.05 * abs(g_num))
    return int(pred.strip().lower() == gold.strip().lower())


@dataclass(frozen=True)
class MetricReport:
    metric: str  # "ANLS" or "RA"
    per_example: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.per_example) / len(self.per_example) if self.per_example else 0.0

    def to_json(self) -> dict:
        return {"metric": self.metric, "mean": self.mean,
                "per_example": list(self.per_example)}


def score_predictions(metric: str, pairs: Iterable[tuple[str, Sequence[str]]]) -> MetricReport:
    """Score (prediction, gold answers) pairs with the chosen metric."""
    scores = []
    for pred, golds in pairs:
        if metric == "ANLS":
            scores.append(anls(pred, golds))
        elif metric == "RA":
            scores.append(float(relaxed_accuracy(pred, golds[0])))
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return MetricReport(metric=metric, per_example=tuple(scores))
