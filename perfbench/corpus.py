"""Seeded input generators. The program under test sees only the files written here.

Every generator takes the seed as an argument; the same seed writes the same
bytes. Sizes and geometry are fixed per workload and never depend on the seed,
so per-example counts (crops, tool calls, parses) repeat exactly across seeds.
"""

from __future__ import annotations

import dataclasses
import json
import random

MOCK_REPLICAS = 200          # build-mock: 20 bundled fixtures x 200 = 4000 examples
HTTP_DOCS = 10               # build-http / retune: text-evidence examples
HTTP_CHARTS = 6              # build-http / retune: table-program examples
SCORE_EXAMPLES = 4000        # score: examples per pass
FAULT_EVERY = 100            # score: every 100th example is a fixed fault example

_WORDS = (
    "annual revenue growth region market share survey result total budget "
    "energy solar wind coal output index rate price cost profit sales unit "
    "population city country school health water transport vehicle policy "
    "report chart table figure value trend year quarter month average median"
).split()


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


# ---------------------------------------------------------------------------
# build-mock: the bundled fixtures, replicated with suffixed ids


def write_mock_corpus(out_dir: str, seed: int) -> dict:
    """Replicate the bundled fixtures; question text stays exact (the mocks key on it).

    The seed orders the lines of each file; it also seeds the pipeline's
    mock verifier and None-balancing, set by the caller.
    """
    from rdistill import fixtures
    from rdistill.records import serialize_example

    rng = random.Random(seed)
    paths = {}
    for name, base in (("docs", fixtures.make_doc_examples()),
                       ("charts", fixtures.make_chart_examples())):
        replicas = []
        for k in range(MOCK_REPLICAS):
            for ex in base:
                rid = f"{ex.example_id}-r{k:04d}"
                replicas.append(dataclasses.replace(
                    ex, example_id=rid, image=dataclasses.replace(ex.image, id=rid)))
        rng.shuffle(replicas)
        path = f"{out_dir}/{name}.jsonl"
        _write(path, (serialize_example(e) for e in replicas))
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# build-http / retune: distinct content per example, fixed geometry


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _http_doc(rng: random.Random, i: int, seed: int) -> dict:
    ex_id = f"hdoc{i:03d}"
    width = 400 + 50 * (i % 2)
    tall = 2 + i % 3                                  # 2..4 short edges tall
    height = width * tall + 37 * (i % 5)
    # Text only in the top part: the lowest crops hold no OCR box and need the
    # OCR tool. It still spans more than one window, so no crop repeats the
    # whole page's OCR (and with it the page's summarizer request).
    sparse = tall == 4 and i % 2 == 1
    extent = width * 7 // 5 if sparse else height
    boxes = []
    y = 10
    while y + 20 <= extent - 10:
        boxes.append([f"{_phrase(rng, rng.randint(3, 9))} s{seed}e{i}y{y}",
                      10, y, width - 10, y + 20])
        y += 30
    if i % 10 == 7:            # an answer too long for the 20-token budget
        answer = _phrase(rng, 24)
    else:
        answer = rng.choice((_phrase(rng, rng.randint(1, 3)), str(rng.randint(2, 9999))))
    question = f"What does the {_phrase(rng, rng.randint(2, 6))} show for item {i} of set {seed}?"
    return {
        "example_id": ex_id,
        "image": {"id": ex_id, "height": height, "width": width, "crop": None,
                  "source_uri": f"bench://{seed}/{ex_id}.png"},
        "question": question,
        "gold_answers": [answer],
        "ocr_text": " ".join(b[0] for b in boxes),
        "ocr_boxes": boxes,
        "structured_table": None,
    }


def _http_chart(rng: random.Random, i: int, seed: int) -> dict:
    ex_id = f"hchart{i:03d}"
    height = 400
    width = 900 + 150 * (i % 4)
    n_rows = 40 if i % 5 == 4 else rng.randint(3, 8)   # long tables exceed the 64-token budget
    table = [["label", "value"]] + [[f"{rng.choice(_WORDS)}{r}", str(rng.randint(1, 500))]
                                    for r in range(n_rows)]
    cells = [c for row in table for c in row]
    # Boxes spread over the whole width in rows of up to 20, so no crop window
    # holds every box and no crop's programmer request repeats the page's.
    shown = cells[:40]
    per_row = min(len(shown), 20)
    boxes = []
    for j, cell in enumerate(shown):
        x0 = 10 + (j % 20) * (width - 80) // per_row
        y0 = 10 + (j // 20) * 30
        boxes.append([f"{cell} s{seed}c{i}", x0, y0, x0 + 60, y0 + 20])
    answer = str(int(table[1][1]) + int(table[2][1]))
    question = f"What is the combined {_phrase(rng, rng.randint(1, 4))} of chart {i} in set {seed}?"
    return {
        "example_id": ex_id,
        "image": {"id": ex_id, "height": height, "width": width, "crop": None,
                  "source_uri": f"bench://{seed}/{ex_id}.png"},
        "question": question,
        "gold_answers": [answer],
        "ocr_text": " ".join(b[0] for b in boxes),
        "ocr_boxes": boxes,
        "structured_table": table,
    }


def write_http_corpus(out_dir: str, seed: int) -> dict:
    rng = random.Random(seed)
    docs = [_http_doc(rng, i, seed) for i in range(HTTP_DOCS)]
    charts = [_http_chart(rng, i, seed) for i in range(HTTP_CHARTS)]
    paths = {"docs": f"{out_dir}/docs.jsonl", "charts": f"{out_dir}/charts.jsonl"}
    _write(paths["docs"], (_dump(d) for d in docs))
    _write(paths["charts"], (_dump(c) for c in charts))
    return paths


# ---------------------------------------------------------------------------
# score: beams and golds


# Fixed fault examples, identical for every seed. Each is a list of
# (decoded, prob) beams plus the gold answer.
#  - calc: the most probable beam's answer loses the vote, and its program
#    computes something else than the winner's best beam;
#  - nonfinite: the prediction equals the gold and is a non-finite numeral.
FAULT_EXAMPLES = (
    ("calc", "4", [
        ("How many? <s> cats | 25 \n dogs | 5 <program> Div(25, 5) <answer> 5", 0.30),
        ("How many? <s> four are shown <answer> 4", 0.25),
        ("How many? <s> the chart counts four <answer> 4", 0.20),
    ]),
    ("calc", "10", [
        ("What total? <s> price | 3 \n qty | 4 <program> Mul(3, 4) <answer> 12", 0.35),
        ("What total? <s> a | 5 \n b | 5 <program> Sum(5, 5) <answer> 10", 0.30),
        ("What total? <s> ten in all <answer> 10", 0.20),
    ]),
    ("nonfinite", "inf", [
        ("Which limit? <s> the axis runs to inf <answer> inf", 0.50),
        ("Which limit? <answer> None", 0.30),
    ]),
    ("nonfinite", "NaN", [
        ("Which reading? <s> the sensor printed NaN <answer> NaN", 0.60),
        ("Which reading? <answer> 12", 0.20),
    ]),
)

_OPS = ("Div", "Mul", "Avg", "Sum", "Diff", "Greater", "Less", "Find")


def _num(rng: random.Random) -> str:
    return str(rng.randint(1, 400)) if rng.random() < 0.8 else f"{rng.randint(1, 99)}.{rng.randint(1, 9)}"


def _variant(rng: random.Random, gold: str) -> str:
    """A nearby answer: a numeric perturbation or a small typo."""
    try:
        g = float(gold.replace(",", "").rstrip("%"))
    except ValueError:
        g = None
    if g is not None and rng.random() < 0.7:
        factor = rng.choice((1.02, 0.98, 1.2, 0.8, 2.0))
        return f"{g * factor:.2f}"
    pos = rng.randrange(len(gold))
    return gold[:pos] + rng.choice("abcdkxyz") + gold[pos + 1:]


def _score_example(rng: random.Random, i: int) -> tuple[list, str]:
    q = f"Question {i} about {_phrase(rng, rng.randint(2, 5))}?"
    kind = rng.random()
    if kind < 0.45:
        gold = str(rng.randint(1, 5000))
    elif kind < 0.55:
        gold = f"{rng.randint(1, 99)}%"
    elif kind < 0.6:
        gold = f"{rng.randint(1, 9)},{rng.randint(100, 999)}"
    else:
        gold = _phrase(rng, rng.randint(1, 3))
    candidates = [gold if rng.random() < 0.7 else _variant(rng, gold)]
    for _ in range(rng.randint(0, 2)):
        candidates.append(_variant(rng, gold))
    n_beams = rng.randint(3, 6)
    all_none = rng.random() < 0.02
    while True:
        probs = sorted((round(rng.uniform(0.01, 0.5), 6) for _ in range(n_beams)), reverse=True)
        answers = ["None" if all_none or rng.random() < 0.15 else rng.choice(candidates)
                   for _ in range(n_beams)]
        # 0: program rationale, 1: text rationale, 2: no rationale, 3: no answer marker
        styles = [rng.choices((0, 1, 2, 3), (35, 40, 22, 3))[0] for _ in range(n_beams)]
        tally = {}
        for a, p, style in zip(answers, probs, styles):
            if style != 3:
                tally[a] = tally.get(a, 0.0) + p
        real = [a for a in tally if a != "None"]
        # Keep the known calculator fault out of seeded examples: the most
        # probable beam is unique, parseable and belongs to the winning answer.
        if styles[0] != 3 and probs[0] > probs[1] and (all_none or (real and answers[0] == max(real, key=lambda a: tally[a]))):
            break
    beams = []
    for a, p, style in zip(answers, probs, styles):
        if style == 0:
            op = rng.choice(_OPS)
            if op == "Find":
                prog = f"Find({a})"
            elif op in ("Avg", "Sum"):
                prog = f"{op}({', '.join(_num(rng) for _ in range(rng.randint(1, 5)))})"
            elif op == "Div" and rng.random() < 0.1:
                prog = f"Div({_num(rng)}, 0)"
            else:
                prog = f"{op}({_num(rng)}, {_num(rng)})"
            decoded = f"{q} <s> x | {_num(rng)} \n y | {_num(rng)} <program> {prog} <answer> {a}"
        elif style == 1:
            decoded = f"{q} <s> {_phrase(rng, rng.randint(3, 12))} <answer> {a}"
        elif style == 2:
            decoded = f"{q} <answer> {a}"
        else:
            decoded = f"{q} <s> {_phrase(rng, 4)}"
        beams.append((decoded, p))
    rng.shuffle(beams)
    return beams, gold


def write_score_inputs(out_dir: str, seed: int) -> dict:
    """Beam file and gold file for `rdistill vote` / `rdistill eval`.

    Returns the paths plus the fault kind of each fixed fault example id.
    """
    rng = random.Random(seed)
    beam_lines, gold_lines, faults = [], [], {}
    for i in range(SCORE_EXAMPLES):
        ex_id = f"s{i:05d}"
        if i % FAULT_EVERY == 0:
            kind, gold, beams = FAULT_EXAMPLES[(i // FAULT_EVERY) % len(FAULT_EXAMPLES)]
            faults[ex_id] = kind
        else:
            beams, gold = _score_example(rng, i)
        for decoded, prob in beams:
            beam_lines.append(_dump({"example_id": ex_id, "decoded": decoded, "prob": prob}))
        gold_lines.append(_dump({
            "example_id": ex_id,
            "image": {"id": ex_id, "height": 100, "width": 100, "crop": None, "source_uri": ""},
            "question": f"question {i}", "gold_answers": [gold], "ocr_text": "",
            "ocr_boxes": None, "structured_table": None}))
    paths = {"beams": f"{out_dir}/beams.jsonl", "gold": f"{out_dir}/gold.jsonl"}
    _write(paths["beams"], beam_lines)
    _write(paths["gold"], gold_lines)
    return {"paths": paths, "faults": faults}
