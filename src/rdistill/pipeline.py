"""File-based pipeline orchestration with manifests and resumability.

Stages (crop -> generate-rationales -> filter -> build-tasks) hand off
through line-delimited record files under the output directory. Each
stage writes a manifest of its input and output file hashes and a
fingerprint of the settings it reads; a rerun skips the stage while that
manifest still matches. HTTP tool responses are cached under
out_dir/cache, so a rerun re-issues only calls it has no response for.
Failed stages leave their partial output behind with a ".partial" suffix.

Within one `run`, the records a stage writes (and the dataset examples
crop reads) also pass in memory to the later stages that read them, so
each file is parsed at most once per run: a stage parses a file only when
its producer was skipped as fresh or was not part of the run. The files
are written all the same. With mock tools, generate-rationales and filter
call the tools inline; HTTP tools run on `concurrency` threads.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import os
import re
import threading
from dataclasses import dataclass, field

import yaml

from . import cropping, filtering, fixtures, tasks, tools
from .codec import CharBlockCounter, WordCounter
from .records import (TASK_NAMES, CategorizedExample, MalformedRecord, QAExample,
                      Rationale, parse_categorized, parse_example, read_lines,
                      serialize_categorized, serialize_example, serialize_record,
                      write_lines)

log = logging.getLogger(__name__)


class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: Exception | str):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


class ConfigError(ValueError):
    pass


_ENV_RE = re.compile(r"\$\{(\w+)\}")


def _interpolate(value):
    if isinstance(value, str):
        return _ENV_RE.sub(lambda m: os.environ.get(m.group(1), ""), value)
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    return value


@dataclass
class DatasetConfig:
    name: str
    path: str
    flow: str
    subset: str = ""

    def __post_init__(self):
        if self.flow not in (tools.TEXT_EVIDENCE_FLOW, tools.TABLE_PROGRAM_FLOW):
            raise ConfigError(f"dataset {self.name!r}: unknown flow {self.flow!r}")
        if not self.subset:
            self.subset = self.name


@dataclass
class TemplateConfig:
    path: str = ""
    shots: int = 0


@dataclass
class PipelineConfig:
    out_dir: str = "out"
    seed: int = 0
    crop_mode: str = cropping.VERBATIM
    counter: str = "word"
    concurrency: int = 4
    task_list: tuple[str, ...] = tuple(TASK_NAMES)
    filter: filtering.FilterConfig = field(default_factory=filtering.FilterConfig)
    datasets: list[DatasetConfig] = field(default_factory=list)
    mock: bool = False
    mock_seed: int = 0
    max_retries: int = 3
    endpoints: dict = field(default_factory=dict)
    templates: dict = field(default_factory=dict)  # name -> TemplateConfig
    filter_whole_image: bool = False  # whole-image rationales skip the verifier filter

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                raw = yaml.safe_load(f) or {}
        except (OSError, yaml.YAMLError) as e:
            raise ConfigError(f"{path}: {e}") from e
        return cls.from_dict(_interpolate(raw))

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """The config `raw` describes; ConfigError if it describes none."""
        try:
            filt = raw.get("filter", {})
            tool_cfg = raw.get("tools", {})
            templates = {
                name: TemplateConfig(path=t.get("path", ""), shots=t.get("shots", 0))
                for name, t in (raw.get("templates") or {}).items()
            }
            return cls(
                out_dir=raw.get("out_dir", "out"),
                seed=raw.get("seed", 0),
                crop_mode=raw.get("crop_mode", cropping.VERBATIM),
                counter=raw.get("counter", "word"),
                concurrency=raw.get("concurrency", 4),
                task_list=tuple(raw.get("tasks", TASK_NAMES)),
                filter=filtering.FilterConfig(
                    boost_factor=filt.get("boost_factor", 2.0),
                    space=filt.get("space", filtering.PROBABILITY_SPACE)),
                datasets=[DatasetConfig(name=d["name"], path=d["path"],
                                        flow=d["flow"], subset=d.get("subset", ""))
                          for d in raw.get("datasets", [])],
                mock=bool(tool_cfg.get("mock", False)),
                mock_seed=tool_cfg.get("mock_seed", 0),
                max_retries=tool_cfg.get("max_retries", 3),
                endpoints=tool_cfg.get("endpoints", {}) or {},
                templates=templates,
                filter_whole_image=raw.get("filter_whole_image", False),
            )
        except KeyError as e:
            raise ConfigError(f"dataset without required key {e}") from e
        except (AttributeError, TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e

    def make_counter(self):
        if self.counter == "word":
            return WordCounter()
        if self.counter == "char4":
            return CharBlockCounter()
        raise ConfigError(f"unknown token counter {self.counter!r}")


def default_mock_config(out_dir: str, seed: int = 0) -> PipelineConfig:
    """Config for the bundled synthetic corpus, materializing its data files."""
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    docs_path = os.path.join(data_dir, "docs.jsonl")
    charts_path = os.path.join(data_dir, "charts.jsonl")
    if not os.path.exists(docs_path):
        write_lines(docs_path, (serialize_example(e) for e in fixtures.make_doc_examples()))
    if not os.path.exists(charts_path):
        write_lines(charts_path, (serialize_example(e) for e in fixtures.make_chart_examples()))
    return PipelineConfig(
        out_dir=out_dir,
        seed=seed,
        mock=True,
        mock_seed=seed,
        datasets=[
            DatasetConfig(name="docs", path=docs_path, flow=tools.TEXT_EVIDENCE_FLOW),
            DatasetConfig(name="charts", path=charts_path, flow=tools.TABLE_PROGRAM_FLOW),
        ],
    )


def validate(config: PipelineConfig) -> list[str]:
    """Non-fatal configuration diagnostics."""
    diags = []
    if not config.datasets:
        diags.append("no datasets configured")
    names = [ds.name for ds in config.datasets]
    for name in sorted({n for n in names if names.count(n) > 1}):
        diags.append(f"dataset {name!r}: duplicate name; stage files are named "
                     "after the dataset, so they would overwrite each other")
    for ds in config.datasets:
        if not os.path.exists(ds.path):
            diags.append(f"dataset {ds.name!r}: path {ds.path} does not exist")
            continue
        try:
            first = next(iter(read_lines(ds.path)), None)
        except OSError as e:
            diags.append(f"dataset {ds.name!r}: unreadable ({e})")
            continue
        if first is not None and ds.flow == tools.TABLE_PROGRAM_FLOW:
            try:
                ex = parse_example(first)
            except MalformedRecord as e:
                diags.append(f"dataset {ds.name!r}: malformed first record ({e})")
                continue
            if ex.structured_table is None and not config.mock \
                    and "plot_to_table" not in config.endpoints:
                diags.append(f"dataset {ds.name!r}: table-program flow without "
                             "structured_table or a plot-to-table client")
    for name, expected in (("summarizer", tools.SUMMARIZER_SHOTS),
                           ("programmer", tools.PROGRAMMER_SHOTS)):
        tmpl = config.templates.get(name)
        if tmpl is None:
            continue
        if tmpl.path and not os.path.exists(tmpl.path):
            diags.append(f"template {name!r}: path {tmpl.path} does not exist")
        if tmpl.shots and tmpl.shots != expected:
            diags.append(f"template {name!r}: shot count {tmpl.shots}, expected {expected}")
    for key in config.task_list:
        if key not in TASK_NAMES:
            diags.append(f"unknown task {key!r}; known tasks: {', '.join(TASK_NAMES)}")
    if not config.mock:
        for tool in ("summarizer", "verifier"):
            if tool not in config.endpoints:
                diags.append(f"no endpoint configured for tool {tool!r} (and mock mode off)")
        if "apr" in config.task_list:
            diags.append("task 'apr' needs student rationale clients, which exist only "
                         "as mocks: enable tools.mock or drop 'apr'")
    try:
        config.make_counter()
    except ConfigError as e:
        diags.append(str(e))
    if config.crop_mode not in (cropping.VERBATIM, cropping.FULL_COVERAGE):
        diags.append(f"unknown crop mode {config.crop_mode!r}")
    return diags


def _load_template(config: PipelineConfig, name: str, default) -> tools.PromptTemplate:
    tmpl = config.templates.get(name)
    if tmpl is None or not tmpl.path:
        return default
    with open(tmpl.path, "r", encoding="utf-8") as f:
        body = f.read()
    shots = tmpl.shots or default.shot_count
    return tools.PromptTemplate(name=name, shot_count=shots, body=body)


_HTTP_CLIENTS = {"ocr": tools.HttpOcrClient, "summarizer": tools.HttpSummarizerClient,
                 "programmer": tools.HttpProgrammerClient,
                 "plot_to_table": tools.HttpPlotToTableClient,
                 "verifier": tools.HttpVerifierClient}


def response_cache_path(out_dir: str) -> str:
    return os.path.join(out_dir, "cache", "responses.jsonl")


def make_clients(config: PipelineConfig) -> tools.ToolClients:
    """Mock clients, or HTTP clients writing through one response cache."""
    if config.mock:
        return fixtures.make_mock_clients(seed=config.mock_seed)
    policy = tools.RetryPolicy(max_retries=config.max_retries)
    sem = threading.Semaphore(config.concurrency)
    cache = tools.ResponseCache(response_cache_path(config.out_dir))
    return tools.ToolClients(**{
        name: client(tools.HttpEndpoint(config.endpoints[name], policy, sem, cache=cache))
        for name, client in _HTTP_CLIENTS.items() if config.endpoints.get(name)})


def make_templates(config: PipelineConfig) -> tools.Templates:
    return tools.Templates(
        summarizer=_load_template(config, "summarizer", fixtures.SUMMARIZER_TEMPLATE),
        programmer=_load_template(config, "programmer", fixtures.PROGRAMMER_TEMPLATE),
    )


# ---------------------------------------------------------------------------
# manifests


def _file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, "manifests", f"{stage}.json")


def _manifest_key(out_dir: str, path: str) -> str:
    """Paths under out_dir relative to it, so a moved output directory stays fresh."""
    rel = os.path.relpath(path, out_dir)
    return path if rel.split(os.sep)[0] == os.pardir else rel


def _hashes(out_dir: str, paths: list[str]) -> dict[str, str]:
    return {_manifest_key(out_dir, p): _file_hash(p) for p in paths}


def _stage_fresh(out_dir: str, stage: str, inputs: list[str], fingerprint: str) -> bool:
    path = _manifest_path(out_dir, stage)
    if not os.path.exists(path):
        return False
    try:
        with open(path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError):
        return False
    if manifest.get("fingerprint") != fingerprint:
        return False
    if manifest.get("inputs") != _hashes(out_dir, [p for p in inputs if os.path.exists(p)]):
        return False
    for key, digest in manifest.get("outputs", {}).items():
        out_path = os.path.join(out_dir, key)
        if not os.path.exists(out_path) or _file_hash(out_path) != digest:
            return False
    return True


def _write_manifest(out_dir: str, stage: str, inputs: list[str], fingerprint: str,
                    outputs: list[str], counts: dict) -> None:
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
    _write_json_atomic(_manifest_path(out_dir, stage), {
        "stage": stage,
        "fingerprint": fingerprint,
        "inputs": _hashes(out_dir, inputs),
        "outputs": _hashes(out_dir, outputs),
        "counts": counts,
    })


def _write_atomic(path: str, lines) -> None:
    partial = path + ".partial"
    write_lines(partial, lines)
    os.replace(partial, path)


def _write_json_atomic(path: str, obj) -> None:
    partial = path + ".partial"
    with open(partial, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
    os.replace(partial, path)


# ---------------------------------------------------------------------------
# stage file paths


def stage_file(config, ds, kind: str) -> str:
    """Path of dataset `ds`'s file of `kind`: "dataset" (the dataset file
    itself), "crops", "rationales", "crop_rationales", "categorized",
    "whole_categorized" or "balance"."""
    if kind == "dataset":
        return ds.path
    ext = "json" if kind == "balance" else "jsonl"
    return os.path.join(config.out_dir, f"{ds.name}.{kind}.{ext}")


def task_path(config, task_key):
    return os.path.join(config.out_dir, "tasks", f"{TASK_NAMES[task_key]}.jsonl")


def _serialize_rationale_line(example_id: str, rationale: Rationale) -> str:
    return json.dumps({"example_id": example_id, "rationale": rationale.to_json()},
                      ensure_ascii=False, separators=(",", ":"))


def _parse_rationale_line(line: str) -> tuple[str, Rationale]:
    obj = json.loads(line)
    return obj["example_id"], Rationale.from_json(obj["rationale"])


def _read_rationales(path: str) -> dict[str, Rationale]:
    return dict(_parse_rationale_line(line) for line in read_lines(path))


def _read_examples(path: str) -> list[QAExample]:
    return [parse_example(line, i + 1) for i, line in enumerate(read_lines(path))]


def _read_categorized(path: str) -> list[CategorizedExample]:
    return [parse_categorized(line, i + 1) for i, line in enumerate(read_lines(path))]


class _Handoff:
    """Records of stage files, kept in memory between the stages of one `run`.

    Keyed by file path. A producer puts the records it just wrote; a reader
    takes them instead of parsing the file, and parses it only when no
    earlier stage of the run wrote or read it. An entry is kept only while
    a later stage of the run lists its file among its inputs.
    """

    def __init__(self, config: PipelineConfig, stages: list[str]):
        self._last_reader = {path: i for i, stage in enumerate(stages)
                             for path in _stage_paths(config, stage)[0]}
        self._records = {}
        self.position = 0  # index in `stages` of the stage now running

    def put(self, path: str, records) -> None:
        if self._last_reader.get(path, -1) > self.position:
            self._records[path] = records

    def take(self, path: str, read):
        records = self._records.pop(path) if path in self._records else read(path)
        self.put(path, records)
        return records


# ---------------------------------------------------------------------------
# stages


def stage_crop(config: PipelineConfig, handoff: _Handoff) -> dict:
    counts = {}
    for ds in config.datasets:
        children = []
        for ex in handoff.take(ds.path, _read_examples):
            plan = cropping.plan_crops(ex.image.height, ex.image.width, config.crop_mode)
            children.extend(cropping.apply_plan(ex, plan))
        children.sort(key=lambda e: e.example_id)
        crops = stage_file(config, ds, "crops")
        _write_atomic(crops, (serialize_example(e) for e in children))
        handoff.put(crops, children)
        counts[ds.name] = len(children)
    return counts


def _parallel_map(fn, items, config: PipelineConfig):
    """Map a tool-calling `fn` over `items`, on `concurrency` threads for HTTP tools.

    In-process mock tools never wait, so they run inline: threads would
    only contend for the interpreter lock.
    """
    if config.mock or config.concurrency <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        return list(pool.map(fn, items))


def stage_generate_rationales(config: PipelineConfig, handoff: _Handoff) -> dict:
    clients = make_clients(config)
    templates = make_templates(config)
    counter = config.make_counter()
    counts = {}
    for ds in config.datasets:
        def generate(ex: QAExample) -> tuple[str, Rationale]:
            try:
                r = tools.generate_rationale(ex, ds.flow, clients, templates,
                                             max_retries=config.max_retries,
                                             counter=counter)
            except tools.InvalidProgram as e:
                r = Rationale.program(e.table, "", flagged=True)
            return ex.example_id, r

        for src, dest in ((ds.path, stage_file(config, ds, "rationales")),
                          (stage_file(config, ds, "crops"),
                           stage_file(config, ds, "crop_rationales"))):
            results = _parallel_map(generate, handoff.take(src, _read_examples), config)
            results.sort(key=lambda pair: pair[0])
            _write_atomic(dest, (_serialize_rationale_line(i, r) for i, r in results))
            handoff.put(dest, dict(results))
            counts[_manifest_key(config.out_dir, dest)] = len(results)
    return counts


def stage_filter(config: PipelineConfig, handoff: _Handoff) -> dict:
    clients = make_clients(config)
    if clients.verifier is None:
        raise StageFailure("filter", "no verifier client configured")
    counter = config.make_counter()

    def categorize_all(examples_path: str, rationales_file: str):
        examples = {e.example_id: e for e in handoff.take(examples_path, _read_examples)}
        rationales = handoff.take(rationales_file, _read_rationales)

        def run_one(example_id: str):
            return filtering.categorize(examples[example_id], rationales[example_id],
                                        clients.verifier, config.filter, counter)

        ids = sorted(examples.keys() & rationales.keys())
        return _parallel_map(run_one, ids, config)

    counts = {}
    for ds in config.datasets:
        categorized = categorize_all(stage_file(config, ds, "crops"),
                                     stage_file(config, ds, "crop_rationales"))
        kept, report = filtering.balance(categorized, seed=config.seed)
        kept.sort(key=lambda c: c.example_id)
        kept_path = stage_file(config, ds, "categorized")
        _write_atomic(kept_path, (serialize_categorized(c) for c in kept))
        _write_json_atomic(stage_file(config, ds, "balance"), report.to_json())
        handoff.put(kept_path, kept)
        counts[ds.name] = {"categorized": len(categorized), "kept": len(kept)}

        # whole-image rationales skip the verifier filter unless explicitly enabled
        if config.filter_whole_image:
            whole = categorize_all(ds.path, stage_file(config, ds, "rationales"))
            whole_path = stage_file(config, ds, "whole_categorized")
            _write_atomic(whole_path, (serialize_categorized(c) for c in whole))
            handoff.put(whole_path, whole)
    return counts


def stage_build_tasks(config: PipelineConfig, handoff: _Handoff) -> dict:
    counter = config.make_counter()
    os.makedirs(os.path.join(config.out_dir, "tasks"), exist_ok=True)
    all_records = {key: [] for key in config.task_list}

    examples_by_subset = {}
    all_examples = []
    for ds in config.datasets:
        examples = handoff.take(ds.path, _read_examples)
        examples_by_subset.setdefault(ds.subset, []).extend(examples)
        all_examples.append((ds, examples))

    fold_plan = None
    students = None
    if "apr" in config.task_list:
        fold_plan = tasks.plan_folds(examples_by_subset, seed=config.seed)
        if config.mock:
            students = fixtures.make_mock_students(fold_plan.fold_count)
        else:
            raise StageFailure("build-tasks",
                               "APR requires student rationale clients; only mock "
                               "students are available, enable tools.mock or drop 'apr'")

    for ds, examples in all_examples:
        if "qra" in all_records:
            rationales = handoff.take(stage_file(config, ds, "rationales"), _read_rationales)
            qra_examples = examples
            if config.filter_whole_image:
                whole_cats = {c.example_id: c for c in
                              handoff.take(stage_file(config, ds, "whole_categorized"),
                                           _read_categorized)}
                qra_examples = [e for e in examples
                                if whole_cats.get(e.example_id) is None
                                or whole_cats[e.example_id].category != "irrelevant"]
            all_records["qra"].extend(tasks.build_qra(qra_examples, rationales, counter))
        if "apr" in all_records:
            all_records["apr"].extend(tasks.build_apr(examples, students, fold_plan, counter))
        if "qraci" in all_records or "apraci" in all_records:
            categorized = handoff.take(stage_file(config, ds, "categorized"),
                                       _read_categorized)
            if "qraci" in all_records:
                all_records["qraci"].extend(tasks.build_qraci(categorized, counter))
            if "apraci" in all_records:
                all_records["apraci"].extend(tasks.build_apraci(categorized, counter))
        if "qid" in all_records:
            all_records["qid"].extend(tasks.build_qid(examples, counter))
        if "ans-only" in all_records:
            all_records["ans-only"].extend(tasks.build_ans_only(examples, counter))

    counts = {}
    for key, records in all_records.items():
        records.sort(key=lambda r: (r.example_id, r.decoder_input, r.decoder_output))
        _write_atomic(task_path(config, key), (serialize_record(r) for r in records))
        counts[key] = len(records)
    return counts


_STAGE_FNS = {
    "crop": stage_crop,
    "generate-rationales": stage_generate_rationales,
    "filter": stage_filter,
    "build-tasks": stage_build_tasks,
}
STAGES = tuple(_STAGE_FNS)


def _fingerprint(config: PipelineConfig, stage: str) -> str:
    """Hash of the settings `stage` reads, and of nothing else.

    Dataset paths are left out: the manifest lists them with their hashes.
    Concurrency changes no output, so no fingerprint covers it.
    """
    settings = {"datasets": [{"name": d.name, "flow": d.flow, "subset": d.subset}
                             for d in config.datasets]}
    if stage == "crop":
        settings["crop_mode"] = config.crop_mode
    elif stage == "generate-rationales":
        templates = make_templates(config)
        settings.update(
            counter=config.counter, mock=config.mock, mock_seed=config.mock_seed,
            max_retries=config.max_retries,
            endpoints={t: config.endpoints.get(t)
                       for t in ("ocr", "summarizer", "programmer", "plot_to_table")},
            templates=[[t.name, t.shot_count, t.body]
                       for t in (templates.summarizer, templates.programmer)])
    elif stage == "filter":
        settings.update(
            seed=config.seed, counter=config.counter,
            filter={"boost_factor": config.filter.boost_factor, "space": config.filter.space},
            verifier=config.endpoints.get("verifier"), mock=config.mock,
            mock_seed=config.mock_seed, filter_whole_image=config.filter_whole_image)
    elif stage == "build-tasks":
        settings.update(
            seed=config.seed, counter=config.counter, tasks=list(config.task_list),
            mock_seed=config.mock_seed, filter_whole_image=config.filter_whole_image)
    return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()


# Per-dataset file kinds (see `stage_file`) each stage reads and writes, then
# those it also reads and writes when `filter_whole_image` is on.
_STAGE_FILES = {
    "crop": (("dataset",), ("crops",), (), ()),
    "generate-rationales": (("dataset", "crops"), ("rationales", "crop_rationales"), (), ()),
    "filter": (("crops", "crop_rationales"), ("categorized", "balance"),
               ("dataset", "rationales"), ("whole_categorized",)),
    "build-tasks": (("dataset", "rationales", "categorized"), (), ("whole_categorized",), ()),
}


def _stage_paths(config: PipelineConfig, stage: str) -> tuple[list[str], list[str]]:
    """(input paths, output paths) of `stage`, for manifests and the in-run hand-off."""
    reads, writes, whole_reads, whole_writes = _STAGE_FILES[stage]
    if config.filter_whole_image:
        reads, writes = reads + whole_reads, writes + whole_writes
    inputs = [stage_file(config, ds, kind) for ds in config.datasets for kind in reads]
    outputs = [stage_file(config, ds, kind) for ds in config.datasets for kind in writes]
    if stage == "build-tasks":
        outputs += [task_path(config, key) for key in config.task_list]
    return inputs, outputs


def run(config: PipelineConfig, stages: list[str] | None = None,
        progress=None) -> dict:
    """Run the requested stages in dependency order; returns per-stage counts.

    A stage is skipped while its manifest still matches its input files,
    its outputs and the fingerprint of the settings it reads. Records pass
    from stage to stage in memory for the length of this call only.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    selected = [s for s in STAGES if stages is None or s in stages]
    handoff = _Handoff(config, selected)
    summary = {}
    for position, stage in enumerate(selected):
        inputs, outputs = _stage_paths(config, stage)
        try:
            fingerprint = _fingerprint(config, stage)
        except OSError as e:
            raise StageFailure(stage, e) from e
        if _stage_fresh(config.out_dir, stage, inputs, fingerprint):
            log.info("stage %s: up to date, skipping", stage)
            summary[stage] = "skipped"
            if progress:
                progress(stage, "skipped")
            continue
        log.info("stage %s: running", stage)
        handoff.position = position
        try:
            counts = _STAGE_FNS[stage](config, handoff)
        except StageFailure:
            raise
        except Exception as e:
            raise StageFailure(stage, e) from e
        _write_manifest(config.out_dir, stage, inputs, fingerprint, outputs, counts)
        summary[stage] = counts
        if progress:
            progress(stage, counts)
    return summary
