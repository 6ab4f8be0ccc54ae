"""rdistill benchmark: one run of one workload.

    python3 perfbench/run.py --workload build-mock --seed 1 --seconds 25 --trace 0

Run from the repository root. The run sets the workload up several times
(timing each set-up), starts perfbench/worker.py for the timed phase, checks
every operation's outputs against checks.py / reference.py and prints one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. Exits 2 without a result when the package is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
import reference  # noqa: E402
from hostspeed import Clock  # noqa: E402
from worker import file_hashes  # noqa: E402

WORKLOADS = ("build-mock", "build-http", "retune", "score")
BOOSTS = (2.0, 3.0)        # filter.boost_factor of the cold build, and the one retune switches to
SETUP_REPEATS = 3          # set-ups per run; setup_s is their median
ALL_TASKS = ["qra", "apr", "qraci", "apraci", "qid", "ans-only"]
HTTP_TASKS = ["qra", "qraci", "apraci", "qid", "ans-only"]     # apr needs mock students
TOOLS = ("ocr", "summarizer", "programmer", "verifier")
RUN_LIMIT_S = 170


class Endpoint:
    """The fake tool endpoint, in its own process."""

    def __init__(self, corpus_paths):
        cmd = [sys.executable, os.path.join(HERE, "fake_endpoint.py")]
        for p in corpus_paths:
            cmd += ["--corpus", p]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"fake endpoint did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def pipeline_config(paths: dict, seed: int, concurrency: int, endpoint: Endpoint | None) -> dict:
    tools = ({"mock": True, "mock_seed": seed} if endpoint is None else
             {"endpoints": {t: f"{endpoint.url}/{t}" for t in TOOLS}})
    return {
        "seed": seed, "concurrency": concurrency,
        "tasks": ALL_TASKS if endpoint is None else HTTP_TASKS,
        "datasets": [{"name": "docs", "path": paths["docs"], "flow": "text-evidence"},
                     {"name": "charts", "path": paths["charts"], "flow": "table-program"}],
        "tools": tools,
    }


def setup(workload: str, d: str, seed: int) -> dict:
    """Inputs, fake endpoint and pre-build of one workload; returns the worker spec parts."""
    os.makedirs(d)
    concurrency = len(os.sched_getaffinity(0))
    if workload == "score":
        s = corpus.write_score_inputs(d, seed)
        return {"beams": s["paths"]["beams"], "gold": s["paths"]["gold"], "faults": s["faults"],
                "examples_per_op": corpus.SCORE_EXAMPLES}
    if workload == "build-mock":
        paths = corpus.write_mock_corpus(d, seed)
        return {"corpus": paths, "config": pipeline_config(paths, seed, concurrency, None),
                "examples_per_op": 20 * corpus.MOCK_REPLICAS, "boosts": list(BOOSTS)}
    paths = corpus.write_http_corpus(d, seed)
    endpoint = Endpoint(paths.values())
    state = {"corpus": paths, "endpoint_proc": endpoint, "endpoint": endpoint.url,
             "config": pipeline_config(paths, seed, concurrency, endpoint),
             "examples_per_op": corpus.HTTP_DOCS + corpus.HTTP_CHARTS, "boosts": list(BOOSTS)}
    if workload == "retune":
        from rdistill import pipeline

        raw = dict(state["config"], out_dir=os.path.join(d, "out"),
                   filter={"boost_factor": BOOSTS[0], "space": "probability"})
        try:
            pipeline.run(pipeline.PipelineConfig.from_dict(raw))
        except BaseException:
            endpoint.stop()
            raise
        state["out_dir"] = raw["out_dir"]
    return state


def teardown(state: dict) -> None:
    if state.get("endpoint_proc") is not None:
        state.pop("endpoint_proc").stop()


def check_ops(workload: str, state: dict, ops: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, unexpected problems) over every operation of the run.

    Each kept output is checked in full; an operation whose output hashes
    equal the first of its group shares that output's verdict.
    """
    verdicts = {}
    attempted = failed = 0
    unexpected: list[str] = []
    first_of_group: dict[str, dict] = {}
    if workload == "retune":
        cold_tasks = {k: v for k, v in state["cold_hashes"].items() if k.startswith("tasks")}
    if workload == "build-http":
        want_calls = checks.expected_tool_calls(state["corpus"])
    for op in ops:
        first = first_of_group.setdefault(op["group"], op)
        source = op if op["kept"] else first
        if source["index"] not in verdicts:
            if workload == "score":
                kept = {n: os.path.join(source["kept"], n) for n in ("preds.jsonl", "anls.json", "ra.json")}
                verdicts[source["index"]] = reference.check_score(state["beams"], state["gold"],
                                                                  kept, state["faults"])
            else:
                boost = op.get("boost", BOOSTS[0])
                tasks = HTTP_TASKS if state.get("endpoint") else ALL_TASKS
                verdicts[source["index"]] = checks.check_build(state["corpus"], source["kept"],
                                                               boost, tasks)
        verdict = verdicts[source["index"]]
        if workload == "score":
            attempted += state["examples_per_op"]
            failed += len(verdict["failed"])
            unexpected += verdict["unexpected"]
            continue
        problems = list(verdict)
        if workload == "build-http" and op["endpoint"]["calls"] != want_calls:
            problems.append(f"round trips {op['endpoint']['calls']} != expected {want_calls}")
        if workload != "retune" and op["stages_run"] != 4:
            problems.append(f"a cold build ran {op['stages_run']} of 4 stages")
        if workload == "retune" and op["boost"] == BOOSTS[0]:
            tasks_now = {k: v for k, v in op["hashes"].items() if k.startswith("tasks")}
            if tasks_now != cold_tasks:
                problems.append("switching back to the first boost factor changed the task files")
        attempted += 1
        if problems:
            failed += 1
            unexpected += [f"operation {op['index']}: {p}" for p in problems]
    return attempted, failed, unexpected


def per_layer_units(trace: dict):
    for name, value in sorted(trace.items()):
        if name.endswith("_s") or name == "cropping.s":
            unit = "s"
        elif name.endswith("_mb"):
            unit = "MB"
        elif name.endswith("_ratio"):
            unit = "ratio"
        elif name == "tools.http_inflight_mean":
            unit = "requests"
        else:
            unit = "count"
        yield name, value, unit


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one rdistill benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rdistill", "__init__.py")):
        print(f"rdistill sources not found under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import rdistill.pipeline  # noqa: F401  (import time stays out of setup_s)

    base = os.path.join(root, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-s{args.seed}-{os.getpid()}")
    states = []
    try:
        setup_times = []
        with Clock() as clock:
            for r in range(SETUP_REPEATS):
                state, _, adjusted = clock.time(
                    lambda: setup(args.workload, os.path.join(work, f"setup{r}"), args.seed))
                states.append(state)
                setup_times.append(adjusted)
                if r < SETUP_REPEATS - 1:
                    teardown(states[-1])
        state = states[-1]
        if args.workload == "retune":
            state["cold_hashes"] = file_hashes(state["out_dir"])

        spec = {k: v for k, v in state.items() if k not in ("endpoint_proc", "faults")}
        spec.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=bool(args.trace), src=src, work=os.path.join(work, "timed"),
                    result=os.path.join(work, "result.json"))
        os.makedirs(spec["work"])
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        log_path = os.path.join(work, "worker.log")
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                                  stdout=log, stderr=subprocess.STDOUT, cwd=root,
                                  env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                                  timeout=max(RUN_LIMIT_S - (time.perf_counter() - started), 1))
        if proc.returncode != 0:
            with open(log_path, encoding="utf-8") as f:
                sys.stderr.write(f.read()[-4000:])
            print(f"worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(spec["result"], encoding="utf-8") as f:
            result = json.load(f)
        teardown(state)

        ops = result["ops"]
        attempted, failed, unexpected = check_ops(args.workload, state, ops)
        for p in unexpected[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        examples_per_s = len(ops) * state["examples_per_op"] / sum(op["adjusted_seconds"] for op in ops)
        if args.trace:
            metrics = {name: {"value": value, "unit": unit} for name, value, unit in
                       per_layer_units(result["trace"])}
            metrics["bench.traced_examples_per_s"] = {"value": examples_per_s, "unit": "examples/s"}
        else:
            metrics = {
                "examples_per_s": {"value": examples_per_s, "unit": "examples/s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            }
        print(json.dumps({"correct": not unexpected, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        for s in states:
            teardown(s)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
