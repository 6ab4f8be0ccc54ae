"""Relevance / usefulness filtering of crop rationales, plus balancing.

`score` asks the verifier about one crop's rationale; `categorize` turns
those scores into a verdict without calling it, so changing the boost
factor needs no verifier. A rationale is *irrelevant* when the verifier's
greedy answer with the rationale differs from the gold answer (the example
keeps the None sentinel as its effective answer). Otherwise the usefulness
test asks whether the rationale boosts the gold answer's score by the
configured factor; failures are *relevant-not-useful*, passes are *useful*.

Balancing subsamples the None-labeled examples down to
max(n_bad_r - n_good_r, 0), capped by supply, with a seeded generator. The
pipeline balances only the verdicts of crops a task takes, so the counts
describe what the crop tasks hold.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

from .codec import DEFAULT_COUNTER, TokenCounter
from .records import NONE_SENTINEL, QAExample, Rationale, Verdict, VerifierScores
from .tools import VerifierClient, rationale_text

PROBABILITY_SPACE = "probability"
LOG_SPACE = "log"


@dataclass(frozen=True)
class FilterConfig:
    """λ and its score space; `pipeline.validate` refuses an unknown space
    and, in probability space, a λ that is not > 1."""
    boost_factor: float = 2.0
    space: str = PROBABILITY_SPACE


@dataclass(frozen=True)
class BalanceReport:
    n_none: int
    n_bad_r: int
    n_good_r: int
    n_none_kept: int
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def is_useful(logp_with: float, logp_without: float, cfg: FilterConfig) -> bool:
    """The usefulness inequality in the configured score space.

    In probability space p_with >= λ·p_without is tested on the logs, so
    scores far below exp()'s range still compare correctly. A logp_with of
    −inf is never useful, in either space.
    """
    if cfg.space == PROBABILITY_SPACE:
        return logp_with - logp_without >= math.log(cfg.boost_factor)
    return logp_with > -math.inf and logp_with >= cfg.boost_factor * logp_without


def score(example: QAExample, rationale: Rationale, verifier: VerifierClient,
          counter: TokenCounter = DEFAULT_COUNTER) -> VerifierScores:
    """The verifier's three judgements of one (crop, rationale) pair: its
    greedy answer with the rationale, and the gold answer's log-probability
    with and without it. The verifier sees the rationale as the task files
    encode it under `counter`; the canonical gold answer is the first of
    gold_answers."""
    gold = example.canonical_answer
    r_text = rationale_text(rationale, counter)
    greedy = verifier.greedy_answer(example.image, example.question, r_text)
    logp_with = verifier.answer_logprob(example.image, example.question, gold, r_text)
    logp_without = verifier.answer_logprob(example.image, example.question, gold, None)
    return VerifierScores(logp_with=logp_with, logp_without=logp_without, greedy=greedy)


def categorize(example_id: str, gold: str, scores: VerifierScores,
               cfg: FilterConfig) -> Verdict:
    """Assign one scored crop to its filter category; no verifier call.

    Greedy comparison is case-sensitive exact match after whitespace trimming.
    """
    if scores.greedy.strip() != gold.strip():
        category, answer = "irrelevant", NONE_SENTINEL
    elif is_useful(scores.logp_with, scores.logp_without, cfg):
        category, answer = "useful", gold
    else:
        category, answer = "relevant-not-useful", gold
    return Verdict(example_id=example_id, category=category, effective_answer=answer,
                   scores=scores)


def balance(categorized: list[Verdict],
            seed: int) -> tuple[list[Verdict], BalanceReport]:
    """Subsample None-labeled examples; keep everything else.

    The report counts the verdicts it is given: the filter stage gives it
    only those of crops `tasks.crop_task` routes to a task, so a flagged
    useful or irrelevant crop counts in neither the quota nor the report.
    Deterministic given the seed; kept examples preserve input order.
    """
    none_idx = [i for i, c in enumerate(categorized) if c.category == "irrelevant"]
    n_good = sum(1 for c in categorized if c.category == "useful")
    n_bad = sum(1 for c in categorized if c.category == "relevant-not-useful")
    target = max(n_bad - n_good, 0)
    n_keep = min(len(none_idx), target)

    rng = random.Random(seed)
    keep_none = set(rng.sample(none_idx, n_keep))
    kept = [c for i, c in enumerate(categorized)
            if c.category != "irrelevant" or i in keep_none]
    report = BalanceReport(n_none=len(none_idx), n_bad_r=n_bad, n_good_r=n_good,
                           n_none_kept=n_keep, seed=seed)
    return kept, report
