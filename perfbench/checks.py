"""Output checks computed apart from the program.

Nothing here imports rdistill: crop windows, categories, the None quota,
routing and token budgets are recomputed from the input files and the
paper's rules, and compared with what the pipeline wrote. Each check
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
import os

PREFIX_BUDGET, ANSWER_BUDGET = 108, 20
TABLE_BUDGET, PROGRAM_BUDGET = 64, 44
TASK_FILES = {"qra": "QRA", "apr": "APR", "qraci": "QRACI", "apraci": "APRCI",
              "qid": "QID", "ans-only": "ANS_ONLY"}
STUDENT_SAMPLES = 3


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def words(text: str) -> int:
    return len(text.split())


def truncate_words(text: str, n: int) -> str:
    w = text.split()
    return text if len(w) <= n else " ".join(w[:n])


def crop_windows(height: int, width: int) -> tuple[str, list[tuple[int, int]]]:
    """Verbatim sliding windows: side = short edge, stride = half of it,
    the j-th window [s*j//2, min(s*j//2 + s, extent)] for every j with s*j < extent."""
    axis, extent, short = ("height", height, width) if height >= width else ("width", width, height)
    return axis, [(short * j // 2, min(short * j // 2 + short, extent))
                  for j in range(-(-extent // short))]


def expected_crops(examples: list[dict]) -> dict[str, dict]:
    """Child id -> expected child fields, from the parents alone."""
    out = {}
    for ex in examples:
        img = ex["image"]
        axis, windows = crop_windows(img["height"], img["width"])
        boxes = ex.get("ocr_boxes") or []
        for j, (start, end) in enumerate(windows):
            if axis == "height":
                inside = [b for b in boxes if start <= b[2] and b[4] <= end]
            else:
                inside = [b for b in boxes if start <= b[1] and b[3] <= end]
            inside.sort(key=lambda b: (b[2], b[1]))
            out[f"{ex['example_id']}#c{j}"] = {
                "parent": ex, "crop": {"axis": axis, "start": start, "end": end},
                "ocr_text": " ".join(b[0] for b in inside),
            }
    return out


def check_crops(examples: list[dict], crops: list[dict]) -> list[str]:
    expected = expected_crops(examples)
    problems = []
    got = {c["example_id"]: c for c in crops}
    if len(got) != len(crops):
        problems.append("duplicate crop ids")
    if set(got) != set(expected):
        problems.append(f"crop ids differ: {len(set(got) ^ set(expected))} mismatched "
                        f"of {len(expected)} expected")
    for cid in sorted(set(got) & set(expected)):
        c, e = got[cid], expected[cid]
        if c["image"]["crop"] != e["crop"]:
            problems.append(f"{cid}: window {c['image']['crop']} != {e['crop']}")
        elif c["ocr_text"] != e["ocr_text"]:
            problems.append(f"{cid}: OCR text not restricted to its window")
        elif c["question"] != e["parent"]["question"] or c["gold_answers"] != e["parent"]["gold_answers"]:
            problems.append(f"{cid}: question or gold answers differ from the parent")
    return problems


def category_of(c: dict, gold: str, boost: float) -> str:
    s = c["scores"]
    if s["greedy"].strip() != gold.strip():
        return "irrelevant"
    if s["logp_with"] - s["logp_without"] >= math.log(boost):
        return "useful"
    return "relevant-not-useful"


def check_filter(crops: list[dict], categorized: list[dict], balance: dict,
                 boost: float) -> list[str]:
    problems = []
    gold = {c["example_id"]: c["gold_answers"][0] for c in crops}
    n = {"useful": 0, "relevant-not-useful": 0, "irrelevant": 0}
    for c in categorized:
        cid = c["example_id"]
        if cid not in gold:
            problems.append(f"{cid}: categorized but not a crop")
            continue
        want = category_of(c, gold[cid], boost)
        if c["category"] != want:
            problems.append(f"{cid}: category {c['category']} != recomputed {want}")
        answer = "None" if want == "irrelevant" else gold[cid]
        if c["effective_answer"] != answer:
            problems.append(f"{cid}: effective answer {c['effective_answer']!r} != {answer!r}")
        n[c["category"]] = n.get(c["category"], 0) + 1
    n_none = len(crops) - n["useful"] - n["relevant-not-useful"]
    quota = min(n_none, max(n["relevant-not-useful"] - n["useful"], 0))
    if n["irrelevant"] != quota:
        problems.append(f"kept {n['irrelevant']} None crops, quota is {quota}")
    want_report = {"n_none": n_none, "n_bad_r": n["relevant-not-useful"],
                   "n_good_r": n["useful"], "n_none_kept": quota}
    if any(balance.get(k) != v for k, v in want_report.items()):
        problems.append(f"balance report {balance} != {want_report}")
    return problems


def _budget_problems(rec: dict) -> list[str]:
    problems = []
    out = rec["decoder_output"]
    if rec["task"] in ("QRA", "QRACI", "QID"):
        prefix, sep, answer = out.rpartition(" <answer> ")
        if not sep:
            return [f"{rec['task']} {rec['example_id']}: no answer marker"]
    else:
        prefix, answer = rec["decoder_input"], out
    if words(prefix) > PREFIX_BUDGET:
        problems.append(f"{rec['task']} {rec['example_id']}: prefix {words(prefix)} > {PREFIX_BUDGET}")
    if words(answer) > ANSWER_BUDGET:
        problems.append(f"{rec['task']} {rec['example_id']}: answer {words(answer)} > {ANSWER_BUDGET}")
    rationale = prefix.partition(" <s> ")[2]
    if "<program>" in rationale:
        table, _, program = rationale.partition("<program>")
        if words(table) > TABLE_BUDGET or words(program) > PROGRAM_BUDGET:
            problems.append(f"{rec['task']} {rec['example_id']}: program rationale "
                            f"{words(table)}/{words(program)} over {TABLE_BUDGET}/{PROGRAM_BUDGET}")
    return problems


def check_tasks(examples: list[dict], categorized: list[dict], rationales: list[dict],
                tasks_dir: str, task_list: list[str]) -> list[str]:
    problems = []
    records = {}
    for key in task_list:
        path = os.path.join(tasks_dir, TASK_FILES[key] + ".jsonl")
        if not os.path.exists(path):
            problems.append(f"missing task file {TASK_FILES[key]}")
            continue
        records[key] = read_jsonl(path)
        for rec in records[key]:
            problems += _budget_problems(rec)[:1]
    by_id = {ex["example_id"]: ex for ex in examples}

    def ids(key):
        got = {}
        for rec in records.get(key, []):
            got[rec["example_id"]] = got.get(rec["example_id"], 0) + 1
        return got

    def answer_of(ex):
        return truncate_words(ex["gold_answers"][0], ANSWER_BUDGET)

    for key in ("qid", "ans-only"):
        if key not in records:
            continue
        if ids(key) != {i: 1 for i in by_id}:
            problems.append(f"{TASK_FILES[key]}: not exactly one record per example")
            continue
        for rec in records[key]:
            ex = by_id[rec["example_id"]]
            want = (f"{ex['question']} <answer> {answer_of(ex)}" if key == "qid" else answer_of(ex))
            if rec["decoder_output"] != want:
                problems.append(f"{TASK_FILES[key]} {rec['example_id']}: {rec['decoder_output']!r} != {want!r}")
                break
    if "qra" in records:
        unflagged = {r["example_id"] for r in rationales if not r["rationale"]["flagged"]}
        if ids("qra") != {i: 1 for i in by_id if i in unflagged}:
            problems.append("QRA: not one record per example with an unflagged rationale")
    if "apr" in records:
        if ids("apr") != {i: STUDENT_SAMPLES for i in by_id}:
            problems.append(f"APR: not {STUDENT_SAMPLES} records per example")
    if "qraci" in records or "apraci" in records:
        qraci = {r["example_id"]: r for r in records.get("qraci", [])}
        apraci = {r["example_id"]: r for r in records.get("apraci", [])}
        if len(qraci) != len(records.get("qraci", [])) or len(apraci) != len(records.get("apraci", [])):
            problems.append("QRACI/APRCI: a crop routed twice")
        routed = set(qraci) | set(apraci)
        cats = {c["example_id"]: c for c in categorized}
        if set(qraci) & set(apraci):
            problems.append("routing not exclusive: crops in both QRACI and APRCI")
        if routed != set(cats):
            problems.append(f"routing not total: {len(set(cats) - routed)} crops unrouted, "
                            f"{len(routed - set(cats))} unknown")
        for cid, c in cats.items():
            gold = truncate_words(c["effective_answer"], ANSWER_BUDGET)
            if c["category"] == "relevant-not-useful":
                rec = apraci.get(cid)
                if rec is None or rec["decoder_output"] != gold:
                    problems.append(f"{cid}: relevant-not-useful crop not in APRCI with its gold answer")
            else:
                rec = qraci.get(cid)
                want = "None" if c["category"] == "irrelevant" else gold
                if rec is None or rec["decoder_output"].rpartition(" <answer> ")[2] != want:
                    problems.append(f"{cid}: {c['category']} crop not in QRACI with answer {want!r}")
    return problems


def check_build(corpus: dict, out_dir: str, boost: float, task_list: list[str]) -> list[str]:
    """Every check of one finished pipeline run over the corpus files."""
    problems = []
    examples, categorized, rationales = [], [], []
    for name, path in sorted(corpus.items()):
        ds_examples = read_jsonl(path)
        crops = read_jsonl(os.path.join(out_dir, f"{name}.crops.jsonl"))
        ds_categorized = read_jsonl(os.path.join(out_dir, f"{name}.categorized.jsonl"))
        ds_rationales = read_jsonl(os.path.join(out_dir, f"{name}.rationales.jsonl"))
        with open(os.path.join(out_dir, f"{name}.balance.json"), encoding="utf-8") as f:
            balance = json.load(f)
        problems += [f"{name}: {p}" for p in check_crops(ds_examples, crops)]
        problems += [f"{name}: {p}" for p in check_filter(crops, ds_categorized, balance, boost)]
        if {r["example_id"] for r in ds_rationales} != {ex["example_id"] for ex in ds_examples}:
            problems.append(f"{name}: whole-image rationales do not cover exactly the examples")
        examples += ds_examples
        categorized += ds_categorized
        rationales += ds_rationales
    problems += check_tasks(examples, categorized, rationales,
                            os.path.join(out_dir, "tasks"), task_list)
    return problems


def expected_tool_calls(corpus: dict) -> dict:
    """Round trips a cold HTTP run must make, from the corpus alone: one
    summarizer or programmer call per page and per crop (the fake programmer's
    programs are all valid), three verifier calls per crop, and one OCR call
    per crop whose window holds no OCR box."""
    calls = {"summarizer": 0, "programmer": 0, "verifier": 0, "ocr": 0}
    for name, path in corpus.items():
        tool = "summarizer" if name == "docs" else "programmer"
        examples = read_jsonl(path)
        crops = expected_crops(examples)
        calls[tool] += len(examples) + len(crops)
        calls["verifier"] += 3 * len(crops)
        calls["ocr"] += sum(1 for c in crops.values() if not c["ocr_text"])
    return {k: v for k, v in calls.items() if v}
