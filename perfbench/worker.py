"""Timed phase of one benchmark run, in a fresh process.

    python3 perfbench/worker.py SPEC.json

run.py does the set-up, writes SPEC.json and starts this process, so the
process's memory high-water mark covers the timed phase only. It repeats
whole rounds of the workload's operation until the timed seconds are used
up, keeps the outputs the checks need and writes a result file. With
"trace" set it installs spans.py's wrappers first and adds the per-layer
numbers.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import resource
import shutil
import sys
import urllib.request

from hostspeed import Clock

sys.dont_write_bytecode = True


def output_files(out_dir: str) -> list[str]:
    """Stage and task outputs, relative to out_dir; manifests hold absolute paths and are left out."""
    files = []
    for sub in ("", "tasks"):
        d = os.path.join(out_dir, sub)
        if os.path.isdir(d):
            files += [os.path.join(sub, n) for n in sorted(os.listdir(d))
                      if n.endswith((".jsonl", ".balance.json"))]
    return files


def file_hashes(out_dir: str) -> dict:
    """sha256 of every output file."""
    hashes = {}
    for rel in output_files(out_dir):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, rel), "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        hashes[rel] = h.hexdigest()
    return hashes


def _copy_outputs(out_dir: str, dest: str) -> None:
    os.makedirs(os.path.join(dest, "tasks"), exist_ok=True)
    for rel in output_files(out_dir):
        shutil.copyfile(os.path.join(out_dir, rel), os.path.join(dest, rel))


def _endpoint(url: str, path: str, body: dict | None = None) -> dict:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url + path, data=data,
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def _count_lines(paths) -> int:
    n = 0
    for p in paths:
        with open(p, "rb") as f:
            n += sum(1 for line in f if line.strip())
    return n


class Ops:
    """Bookkeeping shared by the workloads: timings, hashes, kept outputs."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.records: list[dict] = []
        self.first_by_group: dict[str, dict] = {}
        self.timed = 0.0

    def record(self, group: str, wall: float, adjusted: float, out_dir: str,
               extra: dict | None = None, keep=_copy_outputs, hashes: dict | None = None) -> None:
        """Keep the first output of each group, and any later one that differs from it."""
        self.timed += wall
        hashes = file_hashes(out_dir) if hashes is None else hashes
        rec = {"index": len(self.records), "group": group, "seconds": wall,
               "adjusted_seconds": adjusted, "hashes": hashes, "kept": None}
        rec.update(extra or {})
        first = self.first_by_group.get(group)
        if first is None or first["hashes"] != hashes:
            rec["kept"] = os.path.join(self.spec["work"], f"kept{rec['index']}")
            keep(out_dir, rec["kept"])
            if first is None:
                self.first_by_group[group] = rec
        self.records.append(rec)


def _pipeline_config(spec: dict, out_dir: str, boost: float):
    from rdistill import pipeline

    raw = dict(spec["config"])
    raw["out_dir"] = out_dir
    raw["filter"] = {"boost_factor": boost, "space": "probability"}
    return pipeline.PipelineConfig.from_dict(raw)


def run_builds(spec: dict, ops: Ops, clock: Clock, tracer_state) -> None:
    """build-mock / build-http: one cold pipeline.run per operation, in a fresh directory."""
    from rdistill import pipeline

    url = spec.get("endpoint")
    i = 0
    while ops.timed < spec["seconds"]:
        out_dir = os.path.join(spec["work"], f"op{i}")
        cfg = _pipeline_config(spec, out_dir, spec["boosts"][0])
        if url:
            _endpoint(url, "/_bench/reset", {"seen": True})
        if tracer_state:
            tracer_state.new_run()
        summary, wall, adjusted = clock.time(lambda: pipeline.run(cfg))
        extra = {"stages_run": sum(1 for v in summary.values() if v != "skipped")}
        if url:
            extra["endpoint"] = _endpoint(url, "/_bench/stats")
        if tracer_state:
            tracer_state.after_op(out_dir)
        ops.record("cold", wall, adjusted, out_dir, extra)
        shutil.rmtree(out_dir)
        i += 1


def run_retune(spec: dict, ops: Ops, clock: Clock, tracer_state) -> None:
    """retune: each operation switches filter.boost_factor and reruns the pipeline in place."""
    from rdistill import pipeline

    url = spec["endpoint"]
    out_dir = spec["out_dir"]
    first, second = spec["boosts"]
    k = 0
    while ops.timed < spec["seconds"] or k % 2:
        boost = second if k % 2 == 0 else first
        cfg = _pipeline_config(spec, out_dir, boost)
        _endpoint(url, "/_bench/reset", {"seen": False})
        summary, wall, adjusted = clock.time(lambda: pipeline.run(cfg))
        extra = {"stages_run": sum(1 for v in summary.values() if v != "skipped"),
                 "boost": boost, "endpoint": _endpoint(url, "/_bench/stats")}
        if tracer_state:
            tracer_state.after_op(out_dir)
        ops.record(f"boost={boost}", wall, adjusted, out_dir, extra)
        k += 1


def _keep_files(paths: list[str]):
    def keep(_out_dir: str, dest: str) -> None:
        os.makedirs(dest, exist_ok=True)
        for p in paths:
            shutil.copyfile(p, os.path.join(dest, os.path.basename(p)))
    return keep


def run_score(spec: dict, ops: Ops, clock: Clock, tracer_state) -> None:
    """score: vote --calculator, then eval anls and eval ra, through the cli."""
    from rdistill import cli

    d = spec["work"]
    beams, gold = spec["beams"], spec["gold"]
    outs = [os.path.join(d, n) for n in ("preds.jsonl", "anls.json", "ra.json")]
    commands = [
        ["vote", beams, "--calculator", "-o", outs[0]],
        ["eval", outs[0], gold, "--metric", "anls", "-o", outs[1]],
        ["eval", outs[0], gold, "--metric", "ra", "-o", outs[2]],
    ]
    def one_pass():
        for args in commands:
            cli.main.main(args, prog_name="rdistill", standalone_mode=False)

    while ops.timed < spec["seconds"]:
        _, wall, adjusted = clock.time(one_pass)
        hashes = {}
        for p in outs:
            with open(p, "rb") as f:
                hashes[os.path.basename(p)] = hashlib.sha256(f.read()).hexdigest()
        ops.record("pass", wall, adjusted, d, keep=_keep_files(outs), hashes=hashes)


WORKLOADS = {"build-mock": run_builds, "build-http": run_builds,
             "retune": run_retune, "score": run_score}


class TraceState:
    """Per-layer bookkeeping that needs more than spans: trims, repeats, file sizes."""

    def __init__(self):
        from spans import Tracer, install

        self.tracer = Tracer()
        self.trims = 0
        self.mock_requests = 0
        self.mock_repeats = 0
        self._seen: set = set()
        self.stage_bytes = 0
        self.crops = 0
        self.task_records = 0
        self.valid_programs = 0
        self.stage_files_ops = 0
        install(self.tracer, on_trim=self.on_trim, on_mock_request=self.on_mock_request)

    def new_run(self) -> None:
        self._seen = set()

    def on_trim(self, kind: str, args, kwargs) -> None:
        from rdistill import codec

        if kind == "target":
            question, rationale, answer = args[:3]
            counter = args[3] if len(args) > 3 else kwargs.get("counter", codec.DEFAULT_COUNTER)
            prefix = counter.count(question) + (counter.count(rationale) + 1
                                                if rationale is not None else 0)
            self.trims += (prefix > codec.PREFIX_BUDGET) + (counter.count(answer) > codec.ANSWER_BUDGET)
        else:
            table, program = args[:2]
            counter = args[2] if len(args) > 2 else kwargs.get("counter", codec.DEFAULT_COUNTER)
            self.trims += ((counter.count(codec.linearize_table(table)) > codec.TABLE_BUDGET)
                           + (counter.count(program) > codec.PROGRAM_BUDGET))

    def on_mock_request(self, tool: str, args, kwargs) -> None:
        key = (tool, repr(args[1:]), repr(sorted(kwargs.items())))
        self.mock_requests += 1
        if key in self._seen:
            self.mock_repeats += 1
        self._seen.add(key)

    def after_op(self, out_dir: str) -> None:
        """Sizes and record counts of the operation's outputs (untimed)."""
        self.stage_files_ops += 1
        self.stage_bytes += sum(os.path.getsize(os.path.join(out_dir, rel))
                                for rel in output_files(out_dir))
        names = os.listdir(out_dir)
        self.crops += _count_lines(os.path.join(out_dir, n) for n in names if n.endswith(".crops.jsonl"))
        tasks_dir = os.path.join(out_dir, "tasks")
        self.task_records += _count_lines(os.path.join(tasks_dir, n) for n in os.listdir(tasks_dir))
        for n in names:
            if n.endswith("rationales.jsonl"):
                with open(os.path.join(out_dir, n), encoding="utf-8") as f:
                    for line in f:
                        r = json.loads(line)["rationale"]
                        self.valid_programs += r["kind"] == "table_program" and not r["flagged"]

    def metrics(self, ops: Ops, examples_per_op: int) -> dict:
        t = self.tracer
        n_ops = max(len(ops.records), 1)
        n_examples = n_ops * examples_per_op

        def per_op(name):
            return t.self_s.get(name, 0.0) / n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        tool_calls = {tool: t.counts.get(f"tools.{tool}", 0) for tool in ("ocr", "summarizer",
                                                                         "programmer", "verifier")}
        endpoint = [r["endpoint"] for r in ops.records if "endpoint" in r]
        server_calls = sum(sum(e["calls"].values()) for e in endpoint)
        if endpoint:
            requests_seen, repeats = server_calls, sum(e["repeats"] for e in endpoint)
        else:
            requests_seen, repeats = self.mock_requests, self.mock_repeats
        tool_wall = t.wall_s.get("pipeline.generate_s", 0.0) + t.wall_s.get("pipeline.filter_s", 0.0)
        parses = (t.counts.get("records.parse_example", 0) + t.counts.get("records.parse_record", 0)
                  + t.counts.get("records.Rationale.from_json", 0))
        return {
            "pipeline.crop_s": per_op("pipeline.crop_s"),
            "pipeline.generate_s": per_op("pipeline.generate_s"),
            "pipeline.filter_s": per_op("pipeline.filter_s"),
            "pipeline.build_tasks_s": per_op("pipeline.build_tasks_s"),
            "pipeline.manifest_s": per_op("pipeline.manifest_s"),
            "pipeline.stages_run": ratio(sum(r["stages_run"] for r in ops.records if "stages_run" in r),
                                         len(ops.records)),
            "records.parses_per_example": ratio(parses, n_examples),
            "records.parse_s": per_op("records.parse_s"),
            "records.serialize_s": per_op("records.serialize_s"),
            "records.stage_mb": ratio(self.stage_bytes, self.stage_files_ops) / 1e6,
            "cropping.s": per_op("cropping.s"),
            "cropping.crops_per_example": ratio(self.crops, self.stage_files_ops * examples_per_op),
            "tools.calls_per_example": ratio(sum(tool_calls.values()), n_examples),
            "tools.summarizer_calls_per_example": ratio(tool_calls["summarizer"], n_examples),
            "tools.programmer_calls_per_example": ratio(tool_calls["programmer"], n_examples),
            "tools.ocr_calls_per_example": ratio(tool_calls["ocr"], n_examples),
            "tools.verifier_calls_per_example": ratio(tool_calls["verifier"], n_examples),
            "tools.http_wait_s": per_op("tools.http_wait_s"),
            "tools.http_inflight_mean": ratio(sum(e["inflight_integral_s"] for e in endpoint), tool_wall),
            "tools.http_retries": (t.counts.get("tools.http_posts", 0)
                                   - t.counts.get("tools.http_calls", 0)) / n_ops,
            "tools.programmer_valid_ratio": ratio(self.valid_programs, tool_calls["programmer"]),
            "tools.repeat_request_ratio": ratio(repeats, requests_seen),
            "tools.generate_self_s": per_op("tools.generate_self_s"),
            "fixtures.mock_s": per_op("fixtures.mock_s"),
            "filtering.verifier_calls_per_crop": ratio(tool_calls["verifier"],
                                                       t.counts.get("filtering.categorized", 0)),
            "filtering.categorize_self_s": per_op("filtering.categorize_self_s"),
            "filtering.balance_s": per_op("filtering.balance_s"),
            "codec.encode_s": per_op("codec.encode_s"),
            "codec.trims_per_example": ratio(self.trims, n_examples),
            "codec.parse_target_s": per_op("codec.parse_target_s"),
            "tasks.build_s": per_op("tasks.build_s"),
            "tasks.records_per_example": ratio(self.task_records, self.stage_files_ops * examples_per_op),
            "dsl.parse_s": per_op("dsl.parse_s"),
            "inference.vote_s": per_op("inference.vote_s"),
            "inference.calculator_s": per_op("inference.calculator_s"),
            "inference.anls_s": per_op("inference.anls_s"),
            "inference.relaxed_accuracy_s": per_op("inference.relaxed_accuracy_s"),
            "cli.vote_s": per_op("cli.vote_s"),
            "cli.eval_s": per_op("cli.eval_s"),
        }


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    logging.basicConfig(level=logging.ERROR)    # keeps the cli's per-record warnings quiet
    import rdistill.cli  # noqa: F401  (loads every module before tracing wraps them)

    tracer_state = TraceState() if spec["trace"] else None
    ops = Ops(spec)
    with Clock() as clock:
        WORKLOADS[spec["workload"]](spec, ops, clock, tracer_state)
    result = {
        "ops": ops.records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer_state:
        result["trace"] = tracer_state.metrics(ops, spec["examples_per_op"])
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
