"""Reference scoring for the score workload, written apart from rdistill.inference.

Voting sums beam probabilities per distinct answer and picks the best
non-None one (ties: first in beam order). The calculator runs on the most
probable beam *of the winning answer*. ANLS is 1 - normalized edit
distance below 0.5, else 0, max over golds. Relaxed accuracy allows 5 %
relative error between finite numerals (exactness for a zero gold) and
otherwise compares trimmed, case-folded strings.
"""

from __future__ import annotations

import json
import math
import re

NUMERAL_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)$")
_CALL_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$", re.S)
_ARG_RE = re.compile(r"[+-]?\d+(?:\.\d+)?$")


def parse_answer(decoded: str) -> str | None:
    """Answer after the last <answer> marker; None when unparseable."""
    idx = decoded.rfind("<answer>")
    if idx < 0:
        return None
    answer = decoded[idx + len("<answer>"):].strip()
    return answer or None


def vote(beams: list[tuple[str, float]]) -> tuple[str, float, int | None]:
    """(answer, aggregate probability, index of the winner's best beam)."""
    tally, first, best = {}, {}, {}
    for i, (decoded, prob) in enumerate(beams):
        answer = parse_answer(decoded)
        if answer is None:
            continue
        tally[answer] = tally.get(answer, 0.0) + prob
        first.setdefault(answer, i)
        if answer not in best or prob > beams[best[answer]][1]:
            best[answer] = i
    real = [a for a in tally if a != "None"]
    if not real:
        return "None", 0.0, None
    winner = max(real, key=lambda a: (tally[a], -first[a]))
    return winner, tally[winner], best[winner]


def _render(x: float) -> str | None:
    if not math.isfinite(x):
        return None
    if x == int(x):
        return str(int(x))
    return f"{x:.6f}".rstrip("0").rstrip(".")


def calculate(decoded: str) -> str | None:
    """Result of the program in a decoded beam, or None to keep the model's answer."""
    idx = decoded.rfind("<program>")
    if idx < 0:
        return None
    source = decoded[idx + len("<program>"):].split("<answer>")[0]
    m = _CALL_RE.match(source)
    if not m:
        return None
    op, body = m.group(1), m.group(2)
    if op == "Find":
        return None
    parts = [p.strip() for p in body.split(",")]
    if not all(_ARG_RE.match(p) for p in parts):
        return None
    a = [float(p) for p in parts]
    if op in ("Div", "Mul", "Diff", "Greater", "Less") and len(a) != 2:
        return None
    if op == "Div":
        return None if a[1] == 0 else _render(a[0] / a[1])
    if op == "Mul":
        return _render(a[0] * a[1])
    if op == "Diff":
        return _render(a[0] - a[1])
    if op == "Sum":
        return _render(sum(a))
    if op == "Avg":
        return _render(sum(a) / len(a))
    if op == "Greater":
        return "Yes" if a[0] > a[1] else "No"
    if op == "Less":
        return "Yes" if a[0] < a[1] else "No"
    return None


def predict(beams: list[tuple[str, float]]) -> tuple[str, float]:
    answer, prob, best = vote(beams)
    if best is not None:
        answer = calculate(beams[best][0]) or answer
    return answer, prob


def edit_distance(a: str, b: str) -> int:
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        rows[i][0] = i
    for j in range(len(b) + 1):
        rows[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            rows[i][j] = min(rows[i - 1][j] + 1, rows[i][j - 1] + 1,
                             rows[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return rows[-1][-1]


def anls(pred: str, golds: list[str]) -> float:
    p = pred.strip().lower()
    scores = []
    for gold in golds:
        g = gold.strip().lower()
        nl = edit_distance(p, g) / max(len(p), len(g), 1)
        scores.append(1.0 - nl if nl < 0.5 else 0.0)
    return max(scores)


def _numeral(text: str) -> float | None:
    cleaned = text.strip().replace("%", "").replace(",", "").replace(" ", "")
    return float(cleaned) if NUMERAL_RE.match(cleaned) else None


def relaxed_accuracy(pred: str, gold: str) -> float:
    p, g = _numeral(pred), _numeral(gold)
    if p is not None and g is not None:
        return float(p == 0) if g == 0 else float(abs(p - g) <= 0.05 * abs(g))
    return float(pred.strip().lower() == gold.strip().lower())


def check_score(beams_path: str, gold_path: str, kept: dict, faults: dict) -> dict:
    """Per-example verdicts for one scoring pass.

    Returns {"failed": {example_id: [failed parts]}, "unexpected": [...]}:
    a part is "vote" (answer or probability), "anls" or "ra". A fixed fault
    example failing in exactly its expected part is a known fault; any
    other failure is unexpected.
    """
    beams: dict[str, list] = {}
    with open(beams_path, encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            beams.setdefault(obj["example_id"], []).append((obj["decoded"], obj["prob"]))
    golds = {}
    with open(gold_path, encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            golds[obj["example_id"]] = obj["gold_answers"]
    with open(kept["preds.jsonl"], encoding="utf-8") as f:
        preds = [json.loads(line) for line in f if line.strip()]
    reports = {}
    for name in ("anls.json", "ra.json"):
        with open(kept[name], encoding="utf-8") as f:
            reports[name] = json.load(f)["per_example"]

    failed, unexpected = {}, []
    if [p["example_id"] for p in preds] != list(beams):
        unexpected.append("predictions do not list every example once, in input order")
        return {"failed": {}, "unexpected": unexpected}
    if any(len(r) != len(preds) for r in reports.values()):
        unexpected.append("metric reports do not score every prediction")
        return {"failed": {}, "unexpected": unexpected}
    for i, p in enumerate(preds):
        ex_id = p["example_id"]
        parts = []
        answer, prob = predict(beams[ex_id])
        if p["answer"] != answer or abs(p["aggregate_prob"] - prob) > 1e-9:
            parts.append("vote")
        if abs(reports["anls.json"][i] - anls(p["answer"], golds[ex_id])) > 1e-9:
            parts.append("anls")
        if reports["ra.json"][i] != relaxed_accuracy(p["answer"], golds[ex_id][0]):
            parts.append("ra")
        if parts:
            failed[ex_id] = parts
            expected = {"calc": ["vote"], "nonfinite": ["ra"]}.get(faults.get(ex_id))
            if parts != expected:
                unexpected.append(f"{ex_id}: {parts} (answer {p['answer']!r}, reference {answer!r})")
    return {"failed": failed, "unexpected": unexpected}
