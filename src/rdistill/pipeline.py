"""File-based pipeline orchestration with manifests and resumability.

Stages (crop -> generate-rationales -> filter -> build-tasks) hand off
through line-delimited record files under the output directory. One
table, `_STAGE_TABLE`, lists each stage's rows: groups of output files
that share the files and settings they read. A row has one manifest entry
per dataset, or, for a task file, which merges every dataset, one entry;
execution, manifests and the in-run hand-off all derive from the table.
A stage function makes one entry; `run` calls it for each stale entry in
turn. An entry records its input and output hashes, the fingerprint of its
settings and its counts, and a rerun runs only the entries that no longer
match; a manifest is one line of JSON. Within one `run` each file is
hashed at most once. A stage that fails, or is interrupted, still records
the entries that finished, so its rerun runs only the rest. HTTP tool
responses are cached under out_dir/cache, so a rerun re-issues only calls
it has no response for. A failed entry leaves its partial output behind
with a ".partial" suffix.

Within one `run`, the records an entry writes (and the dataset examples
crop reads) also pass in memory to the later entries that read them, and
are kept only until the last of those has read them, so each file is
parsed at most once per run: an entry parses a file only when its
producer was skipped as fresh or was not part of the run. The files are
written all the same.

Generate-rationales is the only stage that calls tools. In the same task
that makes a crop's rationale, it asks the verifier for the rationale's
scores and stores them in the scores file; with filter_whole_image, it
scores each example's rationale the same way. A run makes one set
of tool clients, at its first generate-rationales entry. With mock tools
it calls them inline. HTTP tools run on `concurrency` threads, so at most
`concurrency` requests are in flight; the transport is the standard
library's `http.client`, with kept-alive connections closed when the run
ends.

Filter is a pure function of the stored scores: it zips the crops (for
their gold answers) with the scores, both sorted by example_id, and
writes verdict lines (example_id, category, effective answer, scores). It
balances only the verdicts of crops a task takes, so it reads the crop
rationales too, for their flags. A
λ retune thus needs no reachable tool endpoint. Build-tasks pairs each
verdict with its crop and crop rationale for the crop tasks, whose
builders route them, and writes one task file at a time; with
filter_whole_image, QRA leaves out the examples whose
whole-image scores make them irrelevant, which no λ changes. Neither
stage reads OCR text, boxes or tables, so both parse examples and crops
without them (`records.parse_header`).

`run` pauses the cyclic garbage collector for its whole length and
restores the caller's setting when it returns or raises: the records it
holds are acyclic, and a run leaves a constant handful of cyclic objects
whatever its size.
"""

from __future__ import annotations

import contextlib
import difflib
import gc
import hashlib
import json
import logging
import os
import re
import reprlib
from dataclasses import asdict, dataclass, field

from . import cropping, filtering, fixtures, tasks, tools
from .codec import CharBlockCounter, WordCounter
from .records import (TASK_NAMES, MalformedRecord, QAExample, Rationale, Verdict,
                      VerifierScores, numbered_lines, parse_categorized, parse_example,
                      parse_header, parse_rationale, parse_scores, serialize_categorized,
                      serialize_example, serialize_rationale, serialize_record,
                      serialize_scores, write_lines)

log = logging.getLogger(__name__)


class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: Exception | str, entry: str = ""):
        where = f" in entry {entry!r}" if entry else ""
        super().__init__(f"stage {stage!r} failed{where}: {cause}")
        self.stage = stage
        self.cause = cause


class ConfigError(ValueError):
    """A config that cannot be run; `diagnostics` lists what is wrong with it."""
    def __init__(self, *diagnostics: str):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


_ENV_RE = re.compile(r"\$\{(\w+)\}")


def _interpolate(value):
    if isinstance(value, str):
        return _ENV_RE.sub(lambda m: os.environ.get(m.group(1), ""), value)
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    return value


_HTTP_CLIENTS = {"ocr": tools.HttpOcrClient, "summarizer": tools.HttpSummarizerClient,
                 "programmer": tools.HttpProgrammerClient,
                 "plot_to_table": tools.HttpPlotToTableClient,
                 "verifier": tools.HttpVerifierClient}

# The layout of a config file: each key's type, or the table of its keys.
# A list holds the type of its items; `object` takes any value.
_SCHEMA = {
    "out_dir": str, "seed": int, "crop_mode": str, "counter": str, "concurrency": int,
    "filter_whole_image": bool,
    "tasks": [str],
    "filter": {"boost_factor": float, "space": str},
    "datasets": [{"name": str, "path": str, "flow": str, "subset": str}],
    "templates": dict.fromkeys(("summarizer", "programmer"), {"path": str}),
    "tools": {"mock": bool, "mock_seed": int, "max_retries": int,
              # `validate` refuses, through tools.url_problem, a URL it cannot call
              "endpoints": dict.fromkeys(_HTTP_CLIENTS, object)},
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
               dict: "a mapping", list: "a list"}


def _schema_paths(schema: dict, prefix: str = ""):
    """The dotted path of each key of `schema`; a list's items are under `[]`."""
    for key, sub in schema.items():
        yield prefix + key
        if isinstance(sub, list):
            key, sub = key + "[]", sub[0]
        if isinstance(sub, dict):
            yield from _schema_paths(sub, f"{prefix}{key}.")


def _shape_problems(value, schema, path: str = "") -> list[str]:
    """A diagnostic for each key in `value` that `schema` does not list, and
    for each value not of the type `schema` gives it. An int is no bool, a
    float may be an int, and a null mapping counts as empty."""
    kind = type(schema) if isinstance(schema, (dict, list)) else schema
    if kind is dict and value is None:
        return []
    if not (kind is object or isinstance(value, bool) == (kind is bool)
            and isinstance(value, (int, float) if kind is float else kind)):
        return [f"{path or 'config'}: expected {_TYPE_NAMES[kind]}, got {reprlib.repr(value)}"]
    if kind is list:
        return [p for i, item in enumerate(value)
                for p in _shape_problems(item, schema[0], f"{path}[{i}]")]
    if kind is not dict:
        return []
    problems = []
    for key, item in value.items():
        key_path = f"{path}.{key}" if path else str(key)
        if key in schema:
            problems += _shape_problems(item, schema[key], key_path)
            continue
        generic = re.sub(r"\[\d+\]", "[]", key_path)
        close = difflib.get_close_matches(
            generic, [p for p in _schema_paths(_SCHEMA) if not generic.startswith(p)], n=1)
        problems.append(f"{key_path}: unknown key" + (f"; did you mean {close[0]}?" if close else ""))
    return problems


@dataclass
class DatasetConfig:
    name: str
    path: str
    flow: str
    subset: str = ""

    def __post_init__(self):
        if not self.subset:
            self.subset = self.name


@dataclass
class PipelineConfig:
    out_dir: str = "out"
    seed: int = 0
    crop_mode: str = cropping.VERBATIM
    counter: str = "word"
    concurrency: int = 4
    tasks: tuple[str, ...] = tuple(TASK_NAMES)
    filter: filtering.FilterConfig = field(default_factory=filtering.FilterConfig)
    datasets: list[DatasetConfig] = field(default_factory=list)
    mock: bool = False
    mock_seed: int = 0
    max_retries: int = 3
    endpoints: dict = field(default_factory=dict)
    templates: dict = field(default_factory=dict)  # client name -> path of its template
    filter_whole_image: bool = False  # QRA drops examples with an irrelevant whole-image rationale

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        import yaml     # only a config file needs the YAML parser

        try:
            with open(path, "r", encoding="utf-8") as f:
                raw = yaml.safe_load(f) or {}
        except (OSError, yaml.YAMLError) as e:
            raise ConfigError(f"{path}: {e}") from e
        return cls.from_dict(_interpolate(raw))

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """The config `raw` describes; ConfigError if it describes none, with
        one diagnostic per key or type `_SCHEMA` refuses. Values are checked
        only by `validate`, per stage."""
        problems = _shape_problems(raw, _SCHEMA)
        if problems:
            raise ConfigError(*problems)
        # the keys under `tools` are fields of their own; a null mapping counts as empty
        fields = {key: value for key, value in {**raw, **(raw.get("tools") or {})}.items()
                  if key != "tools" and value is not None}
        build = {"tasks": tuple, "filter": lambda f: filtering.FilterConfig(**f),
                 "datasets": lambda ds: [DatasetConfig(**(d or {})) for d in ds],
                 "templates": lambda ts: {name: (t or {}).get("path", "")
                                          for name, t in ts.items()}}
        try:
            return cls(**{key: build[key](value) if key in build else value
                          for key, value in fields.items()})
        except TypeError as e:      # a dataset without a required key
            raise ConfigError(f"datasets: {e}") from e


_COUNTERS = {"word": WordCounter, "char4": CharBlockCounter}  # `counter` setting -> class


# the bundled synthetic datasets: name -> (flow, maker of its examples)
MOCK_DATASETS = {"docs": (tools.TEXT_EVIDENCE_FLOW, fixtures.make_doc_examples),
                 "charts": (tools.TABLE_PROGRAM_FLOW, fixtures.make_chart_examples)}


def default_mock_config(out_dir: str, seed: int = 0, write: bool = True) -> PipelineConfig:
    """Config for the bundled synthetic corpus under out_dir/data; with
    `write`, its data files are materialized (see `write_mock_data`)."""
    config = PipelineConfig(
        out_dir=out_dir,
        seed=seed,
        mock=True,
        mock_seed=seed,
        datasets=[DatasetConfig(name=name, path=os.path.join(out_dir, "data", f"{name}.jsonl"),
                                flow=flow) for name, (flow, _) in MOCK_DATASETS.items()],
    )
    if write:
        write_mock_data(config)
    return config


def write_mock_data(config: PipelineConfig) -> None:
    """Write each bundled dataset of `config` whose file does not exist yet."""
    for ds in config.datasets:
        if not os.path.exists(ds.path):
            os.makedirs(os.path.dirname(ds.path), exist_ok=True)
            write_lines(ds.path, (serialize_example(e) for e in MOCK_DATASETS[ds.name][1]()))


def validate(config: PipelineConfig, stages: list[str] | None = None,
             read_datasets: bool = True) -> list[str]:
    """Diagnostics of a run of `stages` (all stages if None); `run` raises
    them as a ConfigError. The stage names and the datasets are always
    checked, and `tasks` when build-tasks is selected; any other setting
    only when a row of a selected stage lists it. Checks that read the
    dataset files are left out unless `read_datasets`. A null or empty
    endpoint URL counts as none."""
    diags = [f"unknown stage {s!r}; known stages: {', '.join(STAGES)}"
             for s in stages or () if s not in STAGES]
    reads = {setting for stage in STAGES if stages is None or stage in stages
             for row in _STAGE_TABLE[stage].values() for setting in row.settings}
    if not config.datasets:
        diags.append("no datasets configured")
    for ds in config.datasets:
        if ds.flow not in (tools.TEXT_EVIDENCE_FLOW, tools.TABLE_PROGRAM_FLOW):
            diags.append(f"dataset {ds.name!r}: unknown flow {ds.flow!r}")
    names = [ds.name for ds in config.datasets]
    for name in sorted({n for n in names if names.count(n) > 1}):
        diags.append(f"dataset {name!r}: duplicate name; stage files are named "
                     "after the dataset, so they would overwrite each other")
    # only crop and generate-rationales read whole examples
    whole = stages is None or not {"crop", "generate-rationales"}.isdisjoint(stages)
    for ds in config.datasets if read_datasets else ():
        if not os.path.exists(ds.path):
            diags.append(f"dataset {ds.name!r}: path {ds.path} does not exist")
            continue
        try:
            line_no, first = next(iter(numbered_lines(ds.path)), (0, None))
        except (OSError, UnicodeDecodeError) as e:
            diags.append(f"dataset {ds.name!r}: unreadable ({e})")
            continue
        if first is None:
            continue
        try:
            ex = (parse_example if whole else parse_header)(first, line_no)
        except MalformedRecord as e:
            diags.append(f"dataset {ds.name!r}: malformed first record ({ds.path}: {e})")
            continue
        if config.mock or "endpoints" not in reads:
            continue
        if ds.flow == tools.TABLE_PROGRAM_FLOW and ex.structured_table is None \
                and not config.endpoints.get("plot_to_table"):
            diags.append(f"dataset {ds.name!r}: table-program flow without "
                         "structured_table or a plot-to-table client")
        if not ex.ocr_text and not config.endpoints.get("ocr"):
            diags.append(f"dataset {ds.name!r}: first record has no ocr_text and "
                         "no endpoint is configured for tool 'ocr'")
    for name in config.templates if "templates" in reads else ():
        try:
            _load_template(config, name)
        except (OSError, ValueError) as e:
            diags.append(f"template {name!r}: {e}")
    retries = config.max_retries
    if "max_retries" in reads and not (type(retries) is int and retries > 0):
        diags.append(f"tools.max_retries {retries!r}: not an integer >= 1, the programmer's "
                     "attempts per rationale and the retries of an HTTP request")
    for key in config.tasks if stages is None or "build-tasks" in stages else ():
        if key not in TASK_NAMES:
            diags.append(f"unknown task {key!r}; known tasks: {', '.join(TASK_NAMES)}")
        elif key == "apr" and not config.mock:
            diags.append("task 'apr' needs student rationale clients, which exist only "
                         "as mocks: enable tools.mock or drop 'apr'")
    flows = {ds.flow for ds in config.datasets}
    needed = {"summarizer": tools.TEXT_EVIDENCE_FLOW in flows,
              "programmer": tools.TABLE_PROGRAM_FLOW in flows, "verifier": True}
    for tool in sorted(config.endpoints.keys() | needed.keys()) if "endpoints" in reads else ():
        url = config.endpoints.get(tool)
        if not url and needed.get(tool) and not config.mock:
            diags.append(f"no endpoint configured for tool {tool!r} (and mock mode off)")
        elif url and (problem := tools.url_problem(url)):
            diags.append(f"endpoint {tool!r}: {problem}")
    if "counter" in reads and config.counter not in _COUNTERS:
        diags.append(f"unknown token counter {config.counter!r}")
    space, boost = config.filter.space, config.filter.boost_factor
    if "filter" in reads and space not in (filtering.PROBABILITY_SPACE, filtering.LOG_SPACE):
        diags.append(f"unknown score space {space!r}")
    elif "filter" in reads and space == filtering.PROBABILITY_SPACE and not boost > 1:
        diags.append("boost_factor must be > 1 in probability space")
    if "crop_mode" in reads and config.crop_mode not in (cropping.VERBATIM,
                                                         cropping.FULL_COVERAGE):
        diags.append(f"unknown crop mode {config.crop_mode!r}")
    return diags


_TEMPLATES = {"summarizer": fixtures.SUMMARIZER_TEMPLATE,    # name -> default
              "programmer": fixtures.PROGRAMMER_TEMPLATE}


def _load_template(config: PipelineConfig, name: str) -> tools.PromptTemplate:
    """Template `name` of `config`, or its default; OSError or ValueError if it is no template."""
    path = config.templates.get(name)
    if not path:
        return _TEMPLATES[name]
    if not os.path.isfile(path):
        raise OSError(f"path {path} is not a file")
    with open(path, "r", encoding="utf-8") as f:
        return tools.PromptTemplate(f.read())


def response_cache_path(out_dir: str) -> str:
    return os.path.join(out_dir, "cache", "responses.jsonl")


def make_clients(config: PipelineConfig) -> tools.ToolClients:
    """Mock clients, or HTTP clients writing through one response cache; an
    HTTP summarizer or programmer holds its template."""
    if config.mock:
        return fixtures.make_mock_clients(seed=config.mock_seed)
    policy = tools.RetryPolicy(max_retries=config.max_retries)
    cache = tools.ResponseCache(response_cache_path(config.out_dir))
    templates = {name: [_load_template(config, name)] for name in _TEMPLATES}
    return tools.ToolClients(**{
        name: client(tools.HttpEndpoint(config.endpoints[name], cache, policy),
                     *templates.get(name, []))
        for name, client in _HTTP_CLIENTS.items() if config.endpoints.get(name)})


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


class _Digests:
    """The manifest key of each path one `run` looks up, and the sha256 of
    each file it hashes, by key. Kept per run, not per module: a relative
    path's key depends on the working directory."""

    def __init__(self, out_dir: str):
        self._out_dir, self._keys, self._digests = out_dir, {}, {}

    def key(self, path: str) -> str:
        if path not in self._keys:
            self._keys[path] = _manifest_key(self._out_dir, path)
        return self._keys[path]

    def of(self, paths: list[str]) -> dict[str, str]:
        """The sha256 of each of `paths`, by manifest key; a file is hashed
        once until it is forgotten."""
        digests = {}
        for path in paths:
            key = self.key(path)
            if key not in self._digests:
                self._digests[key] = _file_hash(path)
            digests[key] = self._digests[key]
        return digests

    def forget(self, path: str) -> None:
        """Drop the digest of `path`, which a stage is about to rewrite."""
        self._digests.pop(self.key(path), None)


def _read_manifest(out_dir: str, stage: str) -> dict:
    """The entries of `stage`'s manifest, by key; {} when there is none, it
    cannot be read or it is not of the shape `_write_manifest` gives, as one
    written before manifests held entries is not."""
    try:
        with open(_manifest_path(out_dir, stage), "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, ValueError, RecursionError):   # ValueError: not UTF-8, or not JSON
        return {}
    entries = manifest.get("entries") if isinstance(manifest, dict) \
        and manifest.get("stage") == stage else None
    return entries if isinstance(entries, dict) else {}


def _entry_fresh(record, entry: "_Entry", digests: _Digests) -> bool:
    """Whether a manifest's `record` of `entry` still matches: of the shape
    `_write_manifest` gives, with the same fingerprint, and each input and
    output still there with its hash."""
    return (isinstance(record, dict) and record.get("fingerprint") == entry.fingerprint
            and isinstance(record.get("counts"), dict)
            and all(os.path.exists(path) for path in entry.inputs + entry.outputs)
            and record.get("inputs") == digests.of(entry.inputs)
            and record.get("outputs") == digests.of(entry.outputs))


def _stage_fresh(out_dir: str, stage: str, entries: list["_Entry"],
                 digests: _Digests) -> tuple[bool, dict]:
    """(Whether `stage` is fresh, the records of its manifest that still match
    one of `entries`, by key). No entry reads a file of its own stage, so
    each is judged alone. The stage is fresh when its manifest lists exactly
    `entries` and each one matches."""
    records = _read_manifest(out_dir, stage)
    fresh = {entry.key: records[entry.key] for entry in entries
             if _entry_fresh(records.get(entry.key), entry, digests)}
    return len(fresh) == len(records) == len(entries), fresh


def _write_manifest(out_dir: str, stage: str, entries: list["_Entry"], counts: dict,
                    digests: _Digests) -> None:
    """Record `stage`'s manifest, one line of JSON: each of `entries` with
    its hashes and its counts (`counts`, by key)."""
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
    _write_atomic(_manifest_path(out_dir, stage), [json.dumps({"stage": stage, "entries": {
        entry.key: {"fingerprint": entry.fingerprint, "inputs": digests.of(entry.inputs),
                    "outputs": digests.of(entry.outputs), "counts": counts[entry.key]}
        for entry in entries}}, sort_keys=True)])


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
    itself), "crops", "rationales", "crop_rationales", "scores",
    "whole_scores", "categorized" or "balance"."""
    if kind == "dataset":
        return ds.path
    ext = "json" if kind == "balance" else "jsonl"
    return os.path.join(config.out_dir, f"{ds.name}.{kind}.{ext}")


def task_path(config, task_key):
    return os.path.join(config.out_dir, "tasks", f"{TASK_NAMES[task_key]}.jsonl")


def _read(path: str, parse) -> list:
    """`parse(line, line_no)` of each line of `path`; a MalformedRecord names the file."""
    try:
        return [parse(line, line_no) for line_no, line in numbered_lines(path)]
    except MalformedRecord as e:
        raise MalformedRecord(f"{path}: {e}") from e


def _read_rationales(path: str) -> dict[str, Rationale]:
    return dict(_read_unique(path, parse_rationale, lambda pair: pair[0]))


def _read_unique(path: str, parse_one, example_id=lambda ex: ex.example_id) -> list:
    """`parse_one` of each line of `path`; a MalformedRecord at the second
    line of an example_id, which `example_id` reads from a parsed line."""
    first_line = {}

    def parse(line: str, line_no: int):
        record = parse_one(line, line_no)
        key = example_id(record)
        if first_line.setdefault(key, line_no) != line_no:
            raise MalformedRecord(f"duplicate example_id {key!r}, first at line "
                                  f"{first_line[key]}", line_no)
        return record

    return _read(path, parse)


def _read_examples(path: str) -> list[QAExample]:
    """The examples of `path`, whole."""
    return _read_unique(path, parse_example)


def _read_headers(path: str) -> list[QAExample]:
    """The examples of `path` with no OCR text, boxes or table (`parse_header`),
    for the stages that read none: filter and build-tasks."""
    return _read_unique(path, parse_header)


def _read_verdicts(path: str) -> list[Verdict]:
    return _read(path, parse_categorized)


def _read_scores(path: str) -> list[tuple[str, VerifierScores]]:
    return _read(path, parse_scores)


class _Handoff:
    """What the entries of one `run` share: records of stage files, kept in
    memory between entries, and the run's one set of tool clients.

    Records are keyed by file path. A producer puts the records it just
    wrote; a reader takes them instead of parsing the file, and parses it
    only when no earlier entry of the run wrote or read it. Records are kept
    only while a later entry of the run lists their file among its inputs.

    Examples read by `_read_headers` hold no OCR text, so they go only to a
    reader that reads headers too: an entry that makes rationales from them
    would call the OCR tool for each. The stage order keeps them apart (crop
    and generate-rationales read whole examples before filter and
    build-tasks read headers), and `take` refuses a run that would not.

    The tool clients are made when an entry first asks for them, and
    `close` closes them.
    """

    def __init__(self, entries: list["_Entry"]):   # the run's entries, in order
        self._last_reader = {path: i for i, entry in enumerate(entries)
                             for path in entry.inputs}
        self._records = {}   # path -> (records, whether `_read_headers` read them)
        self._clients = None
        self.position = 0  # index in `entries` of the entry now running

    def clients(self, config: PipelineConfig) -> tools.ToolClients:
        if self._clients is None:
            self._clients = make_clients(config)
        return self._clients

    def close(self) -> None:
        if self._clients is not None:
            self._clients.close()

    def put(self, path: str, records, headers: bool = False) -> None:
        if self._last_reader.get(path, -1) > self.position:
            self._records[path] = records, headers

    def take(self, path: str, read):
        if path in self._records:
            records, headers = self._records.pop(path)
            if headers and read is not _read_headers:
                raise RuntimeError(f"{path}: examples read without OCR fields taken by "
                                   f"{read.__name__}")
        else:
            records, headers = read(path), read is _read_headers
        self.put(path, records, headers)
        return records


# ---------------------------------------------------------------------------
# stages


def stage_crop(config: PipelineConfig, handoff: _Handoff, entry: _Entry) -> dict:
    ds = entry.datasets[0]
    children = []
    for ex in handoff.take(ds.path, _read_examples):
        plan = cropping.plan_crops(ex.image.height, ex.image.width, config.crop_mode)
        children.extend(cropping.apply_plan(ex, plan))
    children.sort(key=lambda e: e.example_id)
    crops = stage_file(config, ds, "crops")
    _write_atomic(crops, (serialize_example(e) for e in children))
    handoff.put(crops, children)
    return {ds.name: len(children)}


def _parallel_map(fn, items, config: PipelineConfig):
    """Map a tool-calling `fn` over `items`, on `concurrency` threads for HTTP tools.

    Each thread makes one request at a time, so the pool alone holds the
    requests in flight to at most `concurrency`. In-process mock tools
    never wait, so they run inline: threads would only contend for the
    interpreter lock.
    """
    if config.mock or config.concurrency <= 1:
        return [fn(item) for item in items]
    import concurrent.futures   # only a pool needs it

    with concurrent.futures.ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        return list(pool.map(fn, items))


def stage_generate_rationales(config: PipelineConfig, handoff: _Handoff, entry: _Entry) -> dict:
    """Rationales for the examples or the crops of `entry`'s dataset and, when
    the entry writes a scores file, the verifier's scores of each, made in
    the same task as the rationale: always for a crop's, and with
    filter_whole_image for an example's. Without it, the entry removes the
    whole-image scores file a run with it left."""
    ds = entry.datasets[0]
    clients = handoff.clients(config)
    counter = _COUNTERS[config.counter]()
    kinds = entry.row.under(config, entry.row.writes)
    scored = any(kind.endswith("scores") for kind in kinds)

    def task(ex: QAExample):
        r = tools.generate_rationale(ex, ds.flow, clients, config.max_retries, counter)
        scores = filtering.score(ex, r, clients.verifier, counter) if scored else None
        return ex.example_id, r, scores

    results = _parallel_map(task, handoff.take(entry.inputs[0], _read_examples), config)
    results.sort(key=lambda result: result[0])
    for kind, dest in zip(kinds, entry.outputs):
        if kind.endswith("scores"):
            records = [(i, s) for i, _, s in results]
            _write_atomic(dest, (serialize_scores(i, s) for i, s in records))
        else:
            records = {i: r for i, r, _ in results}
            _write_atomic(dest, (serialize_rationale(i, r) for i, r in records.items()))
        handoff.put(dest, records)
    for kind in entry.row.writes:
        if kind not in kinds:
            with contextlib.suppress(FileNotFoundError):
                os.remove(stage_file(config, ds, kind))
    return {_manifest_key(config.out_dir, entry.outputs[0]): len(results)}


def _verdicts(cfg: filtering.FilterConfig, handoff: _Handoff, examples: list[QAExample],
              scores_path: str) -> list[Verdict]:
    """The verdict under `cfg` on each of `examples`, from the line of
    `scores_path` at the same position, which must hold the same example_id:
    both are sorted by example_id."""
    scores = handoff.take(scores_path, _read_scores)
    if len(scores) != len(examples):
        raise MalformedRecord(f"{scores_path}: {len(scores)} scores for {len(examples)} examples")
    verdicts = []
    for ex, (example_id, s) in zip(examples, scores):
        if example_id != ex.example_id:
            raise MalformedRecord(f"{scores_path}: scores of {example_id!r} where those of "
                                  f"{ex.example_id!r} belong")
        verdicts.append(filtering.categorize(example_id, ex.canonical_answer, s, cfg))
    return verdicts


def stage_filter(config: PipelineConfig, handoff: _Handoff, entry: _Entry) -> dict:
    """Categorize each crop from its stored scores, and balance the verdicts
    of the crops a task takes; calls no tool. A crop whose rationale is
    flagged and whose verdict is not relevant-not-useful goes to no task
    (`tasks.crop_task`), so it is left out before balancing and counts in
    neither the None quota nor the report."""
    ds = entry.datasets[0]
    crops = handoff.take(stage_file(config, ds, "crops"), _read_headers)
    rationales_path = stage_file(config, ds, "crop_rationales")
    rationales = handoff.take(rationales_path, _read_rationales)
    categorized = _verdicts(config.filter, handoff, crops, stage_file(config, ds, "scores"))
    routed = []
    for verdict in categorized:
        rationale = rationales.get(verdict.example_id)
        if rationale is None:
            raise MalformedRecord(f"{rationales_path}: no crop rationale for "
                                  f"{verdict.example_id!r}")
        if tasks.crop_task(verdict.category, rationale.flagged):
            routed.append(verdict)
    kept, report = filtering.balance(routed, seed=config.seed)
    _write_json_atomic(stage_file(config, ds, "balance"), report.to_json())
    path = stage_file(config, ds, "categorized")
    _write_atomic(path, (serialize_categorized(v) for v in kept))
    handoff.put(path, kept)
    return {ds.name: {"categorized": len(categorized), "kept": len(kept)}}


def _kept_crops(config: PipelineConfig, handoff: _Handoff, ds):
    """(verdict, crop, crop rationale) of each kept verdict of `ds`, one at a
    time. Verdicts and crops are both sorted by example_id, so one pass over
    the crops finds every verdict's."""
    path = stage_file(config, ds, "categorized")
    crops = iter(handoff.take(stage_file(config, ds, "crops"), _read_headers))
    rationales = handoff.take(stage_file(config, ds, "crop_rationales"), _read_rationales)
    for verdict in handoff.take(path, _read_verdicts):
        rationale = rationales.get(verdict.example_id)
        for crop in crops:
            if crop.example_id == verdict.example_id:
                break
        else:
            crop = None
        if crop is None or rationale is None:
            raise MalformedRecord(f"{path}: no crop or crop rationale for verdict "
                                  f"{verdict.example_id!r}")
        yield verdict, crop, rationale


def _qra_examples(config: PipelineConfig, handoff: _Handoff, ds,
                  examples: list[QAExample]) -> list[QAExample]:
    """`examples`, or, with filter_whole_image, those whose whole-image
    rationale is not irrelevant. Irrelevance compares the verifier's answer
    with the gold one: no λ reaches it."""
    if not config.filter_whole_image:
        return examples
    verdicts = _verdicts(filtering.FilterConfig(), handoff,
                         sorted(examples, key=lambda e: e.example_id),
                         stage_file(config, ds, "whole_scores"))
    irrelevant = {v.example_id for v in verdicts if v.category == "irrelevant"}
    return [e for e in examples if e.example_id not in irrelevant]


def stage_build_tasks(config: PipelineConfig, handoff: _Handoff, entry: _Entry) -> dict:
    """Build `entry`'s task file from the files of every dataset: its records
    are built, sorted and written at once."""
    counter, task, datasets = _COUNTERS[config.counter](), entry.name, config.datasets
    if task in ("qraci", "apraci"):
        build = tasks.build_qraci if task == "qraci" else tasks.build_apraci
        records = [r for ds in datasets
                   for r in build(_kept_crops(config, handoff, ds), counter)]
    else:
        examples = [handoff.take(ds.path, _read_headers) for ds in datasets]
        if task == "qra":
            records = [r for ds, exs in zip(datasets, examples) for r in tasks.build_qra(
                _qra_examples(config, handoff, ds, exs),
                handoff.take(stage_file(config, ds, "rationales"), _read_rationales), counter)]
        elif task == "apr":
            by_subset = {}
            for ds, exs in zip(datasets, examples):
                by_subset.setdefault(ds.subset, []).extend(exs)
            fold_plan = tasks.plan_folds(by_subset, seed=config.seed)
            # the only students are mocks: outside mock mode, `validate` refuses 'apr'
            students = fixtures.make_mock_students(fold_plan.fold_count)
            records = [r for exs in examples
                       for r in tasks.build_apr(exs, students, fold_plan, counter)]
        else:
            build = tasks.build_qid if task == "qid" else tasks.build_ans_only
            records = [r for exs in examples for r in build(exs, counter)]
    records.sort(key=lambda r: (r.example_id, r.decoder_input, r.decoder_output))
    os.makedirs(os.path.join(config.out_dir, "tasks"), exist_ok=True)
    _write_atomic(task_path(config, task), (serialize_record(r) for r in records))
    return {task: len(records)}


# One row per group of output files that share the files and settings they
# read; file kinds are those of `stage_file`. A row has one manifest entry
# per dataset (`<dataset>.<row>`), which fingerprints only that dataset; a
# task row has one, for its task file, which merges every dataset. No row
# reads a file a row of its own stage writes.
@dataclass(frozen=True)
class _Row:
    reads: tuple[str, ...]
    settings: tuple[str, ...]   # what its fingerprint covers, besides its datasets
    writes: tuple[str, ...] = ()    # a task row writes its task file
    whole_image: tuple[str, ...] = ()  # kinds and settings it has only with filter_whole_image

    def under(self, config: PipelineConfig, names: tuple[str, ...]) -> list[str]:
        """Those of `names`, kinds or settings of this row, that it has under `config`."""
        return [name for name in names
                if config.filter_whole_image or name not in self.whole_image]


_CROP_TASK = _Row(("categorized", "crops", "crop_rationales"), ("counter",))
_EXAMPLE_TASK = _Row(("dataset",), ("counter",))
# what a tool's reply depends on, besides its endpoint and its request
_TOOL_SETTINGS = ("counter", "mock", "mock_seed", "max_retries")

# Each stage's rows, in the order it makes them.
_STAGE_TABLE = {
    "crop": {"crops": _Row(("dataset",), ("crop_mode",), writes=("crops",))},
    "generate-rationales": {
        # the rationale of each example and, with filter_whole_image, its scores
        "rationales": _Row(("dataset",),
                           _TOOL_SETTINGS + ("endpoints", "templates", "verifier"),
                           writes=("rationales", "whole_scores"),
                           whole_image=("whole_scores", "verifier")),
        "crop_rationales": _Row(("crops",),
                                _TOOL_SETTINGS + ("endpoints", "templates", "verifier"),
                                writes=("crop_rationales", "scores")),
    },
    "filter": {
        "categorized": _Row(("crops", "scores", "crop_rationales"), ("seed", "filter"),
                            writes=("categorized", "balance")),
    },
    # the crop tasks first, so the crops and crop rationales are released
    # before the tasks of whole examples run
    "build-tasks": {
        "qraci": _CROP_TASK, "apraci": _CROP_TASK,
        "qra": _Row(("dataset", "rationales", "whole_scores"),
                    ("counter", "filter_whole_image"), whole_image=("whole_scores",)),
        "apr": _Row(("dataset",), ("seed", "counter")),
        "qid": _EXAMPLE_TASK, "ans-only": _EXAMPLE_TASK,
    },
}
_STAGE_FNS = {"crop": stage_crop, "generate-rationales": stage_generate_rationales,
              "filter": stage_filter, "build-tasks": stage_build_tasks}
STAGES = tuple(_STAGE_TABLE)

# Fingerprinted settings that are not the config field of the same name.
# The verifier's endpoint is a setting apart from the other tools', which a
# `<ds>.rationales` entry reads only with filter_whole_image; a template is
# its body alone. Concurrency changes no output, so no fingerprint covers it.
_SETTINGS = {
    "endpoints": lambda c: {t: c.endpoints.get(t) for t in _HTTP_CLIENTS if t != "verifier"},
    "templates": lambda c: [_load_template(c, name).body for name in _TEMPLATES],
    "filter": lambda c: asdict(c.filter),
    "verifier": lambda c: c.endpoints.get("verifier"),
}


def _fingerprint(config: PipelineConfig, row: _Row, datasets) -> str:
    """Hash of the settings `row` reads and of the names, flows and subsets
    of `datasets`, and of nothing else. Dataset paths are left out: the
    manifest lists them with their hashes."""
    settings = {name: _SETTINGS[name](config) if name in _SETTINGS else getattr(config, name)
                for name in row.under(config, row.settings)}
    settings["datasets"] = [{"name": d.name, "flow": d.flow, "subset": d.subset}
                            for d in datasets]
    return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class _Entry:
    """A row of `_STAGE_TABLE` under a config: one manifest entry."""
    key: str
    name: str   # of its row
    row: _Row
    datasets: tuple
    inputs: list[str]
    outputs: list[str]
    fingerprint: str


def _entries(config: PipelineConfig, stage: str) -> list[_Entry]:
    """`stage`'s entries under `config`, in the order they run: each
    dataset's, one per row that is not a task's, then one per selected
    task, in the table's order."""
    rows = _STAGE_TABLE[stage]
    scopes = [(f"{ds.name}.{name}", name, (ds,)) for ds in config.datasets
              for name, row in rows.items() if row.writes]
    scopes += [(key, key, tuple(config.datasets)) for key in rows if key in config.tasks]
    entries = []
    for key, name, datasets in scopes:
        row = rows[name]
        inputs, outputs = ([stage_file(config, ds, kind) for kind in row.under(config, kinds)
                            for ds in datasets] for kinds in (row.reads, row.writes))
        entries.append(_Entry(key, name, row, datasets, inputs,
                              outputs or [task_path(config, name)],
                              _fingerprint(config, row, datasets)))
    return entries


def run(config: PipelineConfig, stages: list[str] | None = None,
        progress=None) -> dict:
    """Run the requested stages in dependency order; returns per-stage counts.

    A stage runs only its stale entries, one at a time, and is skipped while
    its manifest lists exactly the config's entries and each one still
    matches its input files, its outputs and the fingerprint of the settings
    it reads. A stage that runs writes its manifest once, listing its fresh
    entries and those that finished, also when a later entry fails or the
    run is interrupted. Records pass from entry to entry in memory, and the
    tool clients serve every entry, for the length of this call only.
    ConfigError, before out_dir is created, if `validate` finds anything
    wrong with a run of `stages`.

    The cyclic garbage collector is off for the length of the call, and
    turned back on when it returns or raises if it was on before. The
    records a stage holds are acyclic, yet each collection walks them all,
    so at tens of thousands of examples collections cost a cold build about
    a quarter of its time; and a run leaves the same few cyclic objects
    whatever the corpus size (the closures of the json encoder behind
    `_write_json_atomic`), so pausing the collector keeps no garbage that
    grows with the run. Only the on/off switch is touched: the thresholds
    and frozen objects stay as the caller set them, since undoing a
    `gc.freeze()` with `gc.unfreeze()` would also release what the caller
    froze. Other threads of the process run without the collector
    meanwhile; reference counting still frees everything acyclic.
    """
    enabled = gc.isenabled()
    try:
        gc.disable()
        return _run(config, stages, progress)
    finally:
        if enabled:
            gc.enable()


def _run(config: PipelineConfig, stages: list[str] | None, progress) -> dict:
    """The work of `run`, done while the collector is paused."""
    diags = validate(config, stages)
    if diags:
        raise ConfigError(*diags)
    os.makedirs(config.out_dir, exist_ok=True)
    plan = {}
    for stage in STAGES:
        try:
            if stages is None or stage in stages:
                plan[stage] = _entries(config, stage)
        except (OSError, ValueError) as e:    # a template changed since `validate`
            raise StageFailure(stage, e) from e
    handoff = _Handoff([entry for entries in plan.values() for entry in entries])
    digests, summary, start = _Digests(config.out_dir), {}, 0
    with contextlib.closing(handoff):
        for stage, entries in plan.items():
            fresh, records = _stage_fresh(config.out_dir, stage, entries, digests)
            # the position of each stale entry among the run's entries
            stale = [(position, entry) for position, entry in enumerate(entries, start)
                     if entry.key not in records]
            start += len(entries)
            if fresh:
                log.info("stage %s: up to date, skipping", stage)
                summary[stage] = "skipped"
            else:
                log.info("stage %s: running %d of %d entries", stage, len(stale), len(entries))
                for path in (path for _, entry in stale for path in entry.outputs):
                    digests.forget(path)
                counts = {key: record["counts"] for key, record in records.items()}
                try:
                    for position, entry in stale:
                        handoff.position = position
                        counts[entry.key] = _STAGE_FNS[stage](config, handoff, entry)
                except Exception as e:
                    raise StageFailure(stage, e, entry.key) from e
                finally:
                    _write_manifest(config.out_dir, stage,
                                    [entry for entry in entries if entry.key in counts],
                                    counts, digests)
                summary[stage] = {k: v for entry in entries for k, v in counts[entry.key].items()}
            if progress:
                progress(stage, summary[stage])
    return summary
