import collections
import concurrent.futures
import contextlib
import dataclasses
import gc
import hashlib
import http.server
import importlib.util
import json
import math
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys
import threading
import time
import unittest.mock

import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings, strategies as st

from rdistill import cli, cropping, fixtures, pipeline, tasks, tools
from rdistill.codec import CharBlockCounter, WordCounter, parse_answer, parse_target
from rdistill.filtering import FilterConfig
from rdistill.pipeline import (DatasetConfig, PipelineConfig, StageFailure, default_mock_config,
                               run, validate)
from rdistill.records import (ImageRef, MalformedRecord, QAExample, Rationale, _dumps,
                              read_lines, serialize_example, write_lines)
from rdistill.tools import rationale_text


def pinned_digests():
    """The digests of tests/mock_outputs.sha256, by path: under mock/, those
    of `rdistill run --mock`; under whole/, those of a mock run with
    filter_whole_image; under fc/, those of `fc_config`'s run."""
    with open(os.path.join(os.path.dirname(__file__), "mock_outputs.sha256")) as f:
        return {path: digest for digest, path in (line.rstrip("\n").split("  ", 1) for line in f)}


def tree_hashes(out_dir):
    """sha256 of every task file, keyed by name."""
    task_dir = os.path.join(out_dir, "tasks")
    return {name: hashlib.sha256(open(os.path.join(task_dir, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(task_dir))}


@pytest.fixture(scope="module")
def mock_run(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("run1"))
    config = default_mock_config(out_dir, seed=0)
    summary = run(config)
    return config, summary


@pytest.fixture(scope="module")
def whole_run(tmp_path_factory):
    config = default_mock_config(str(tmp_path_factory.mktemp("whole")), seed=0)
    config.filter_whole_image = True
    return config, run(config)


def fc_config(out_dir):
    """The bundled corpus at seed 3, with full-coverage crops and char4 trims:
    95 crops where a default mock run makes 64."""
    config = default_mock_config(out_dir, seed=3)
    config.crop_mode = cropping.FULL_COVERAGE
    config.counter = "char4"
    return config


@pytest.fixture(scope="module")
def fc_run(tmp_path_factory):
    config = fc_config(str(tmp_path_factory.mktemp("fc")))
    return config, run(config)


class TestEndToEnd:
    def test_all_task_files_produced(self, mock_run):
        config, _ = mock_run
        names = sorted(os.listdir(os.path.join(config.out_dir, "tasks")))
        assert names == ["ANS_ONLY.jsonl", "APR.jsonl", "APRCI.jsonl",
                         "QID.jsonl", "QRA.jsonl", "QRACI.jsonl"]

    def test_deterministic_across_independent_runs(self, mock_run, tmp_path):
        config, _ = mock_run
        other = default_mock_config(str(tmp_path / "run2"), seed=0)
        run(other)
        assert tree_hashes(config.out_dir) == tree_hashes(other.out_dir)

    def test_stage_and_task_files_match_the_pinned_digests(self, mock_run, whole_run, fc_run):
        # tests/mock_outputs.sha256 (`sha256sum -c` format) holds the digest
        # of every stage and task file of the three runs; CI checks them against it
        written = {f"{name}/{path}": digest
                   for name, (config, _) in (("mock", mock_run), ("whole", whole_run),
                                             ("fc", fc_run))
                   for path, digest in tree_files(config.out_dir).items()
                   if not path.startswith("manifests")}
        assert written == pinned_digests()

    def test_generate_rationales_counts_every_entry(self, whole_run):
        # an entry counts the records of the first file it writes; an
        # example's whole-image scores are made by its rationale's entry
        _, summary = whole_run
        assert summary["generate-rationales"] == {
            "docs.rationales.jsonl": 12, "docs.crop_rationales.jsonl": 40,
            "charts.rationales.jsonl": 8, "charts.crop_rationales.jsonl": 24}

    def test_rerun_skips_all_stages(self, mock_run):
        config, _ = mock_run
        summary = run(config)
        assert all(v == "skipped" for v in summary.values())

    def test_stage_deletion_rerun_reproduces_bytes(self, mock_run, tmp_path):
        other = default_mock_config(str(tmp_path / "run3"), seed=0)
        run(other)
        before = tree_hashes(other.out_dir)
        os.remove(os.path.join(other.out_dir, "docs.categorized.jsonl"))
        for name in os.listdir(os.path.join(other.out_dir, "tasks")):
            os.remove(os.path.join(other.out_dir, "tasks", name))
        summary = run(other)
        assert summary["crop"] == "skipped"
        assert summary["filter"] != "skipped"
        assert tree_hashes(other.out_dir) == before

    def test_config_change_invalidates_manifest(self, tmp_path):
        config = default_mock_config(str(tmp_path / "run4"), seed=0)
        run(config, ["crop"])
        config.crop_mode = "full-coverage"
        summary = run(config, ["crop"])
        assert summary["crop"] != "skipped"

    def test_apr_has_three_records_per_example(self, mock_run):
        config, _ = mock_run
        lines = list(read_lines(os.path.join(config.out_dir, "tasks", "APR.jsonl")))
        assert len(lines) == 3 * 20

    @settings(max_examples=4, deadline=None)
    @given(whole_image=st.booleans(), rng=st.randoms(use_true_random=False))
    @example(whole_image=False, rng=random.Random(7))
    @example(whole_image=True, rng=random.Random(7))
    def test_shuffled_dataset_lines_give_the_same_task_files(self, tmp_path_factory,
                                                             whole_image, rng):
        config = default_mock_config(str(tmp_path_factory.mktemp("shuffled")), seed=0)
        config.filter_whole_image = whole_image
        for ds in config.datasets:
            lines = list(read_lines(ds.path))
            rng.shuffle(lines)
            write_lines(ds.path, lines)
        run(config)
        tree = "whole/tasks/" if whole_image else "mock/tasks/"
        assert tree_hashes(config.out_dir) == {path.removeprefix(tree): digest for path, digest
                                               in pinned_digests().items()
                                               if path.startswith(tree)}

    def test_balance_reports_written(self, mock_run):
        config, _ = mock_run
        for name in ("docs", "charts"):
            with open(os.path.join(config.out_dir, f"{name}.balance.json")) as f:
                report = json.load(f)
            assert report["n_none_kept"] == min(
                report["n_none"], max(report["n_bad_r"] - report["n_good_r"], 0))


def stages_run(summary):
    return {stage for stage, result in summary.items() if result != "skipped"}


ALL_STAGES = {"crop", "generate-rationales", "filter", "build-tasks"}


class TestStageInvalidation:
    """Each stage reruns exactly when its own settings or its inputs change."""

    @pytest.mark.parametrize("change,expected", [
        (lambda c: setattr(c, "filter", FilterConfig(boost_factor=3.0)),
         {"filter", "build-tasks"}),
        (lambda c: setattr(c, "tasks", ("qra", "qid")), {"build-tasks"}),
        (lambda c: setattr(c, "crop_mode", "full-coverage"), ALL_STAGES),
        (lambda c: setattr(c, "concurrency", 1), set()),
    ], ids=["boost", "tasks", "crop-mode", "concurrency"])
    def test_matrix(self, tmp_path, change, expected):
        config = default_mock_config(str(tmp_path / "m"), seed=0)
        assert stages_run(run(config)) == ALL_STAGES
        change(config)
        assert stages_run(run(config)) == expected

    def test_template_body_change(self, tmp_path, monkeypatch):
        @dataclasses.dataclass
        class PromptSummarizer:
            """Evidence that depends on the prompt, as a real model's does."""
            template: tools.PromptTemplate

            def summarize(self, question, gold_answer, full_ocr):
                return f"{self.template.body.split()[0]} {gold_answer}"

        def clients(config):
            c = fixtures.make_mock_clients(seed=config.mock_seed)
            c.summarizer = PromptSummarizer(pipeline._load_template(config, "summarizer"))
            return c

        monkeypatch.setattr(pipeline, "make_clients", clients)
        template = tmp_path / "summarizer.txt"
        template.write_text("First: {ocr} {question} {answer}")
        config = default_mock_config(str(tmp_path / "t"), seed=0)
        config.templates["summarizer"] = str(template)
        assert stages_run(run(config)) == ALL_STAGES
        template.write_text("Second: {ocr} {question} {answer}")
        assert stages_run(run(config)) == {"generate-rationales", "filter", "build-tasks"}

    def test_moved_out_dir_stays_fresh(self, tmp_path):
        run(default_mock_config(str(tmp_path / "a"), seed=0))
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        assert stages_run(run(default_mock_config(str(tmp_path / "b"), seed=0))) == set()

    def test_torn_balance_write_keeps_previous_file(self, tmp_path, monkeypatch):
        config = default_mock_config(str(tmp_path / "w"), seed=0)
        run(config)
        balance = tmp_path / "w" / "docs.balance.json"
        before = balance.read_bytes()

        def torn_dump(obj, f, **kw):
            f.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.json, "dump", torn_dump)
        config.filter = FilterConfig(boost_factor=3.0)
        with pytest.raises(StageFailure):
            run(config)
        assert balance.read_bytes() == before


def test_filter_scores_rationale_as_encoded_under_counter(tmp_path, monkeypatch):
    table = [["label", "value"]] + [[f"category_label_number_{i}", f"{1000 + i}"]
                                    for i in range(30)]
    chart = QAExample(example_id="c1", image=ImageRef(id="img", height=400, width=1200),
                      question="Which is largest?", gold_answers=("1029",),
                      structured_table=tuple(tuple(r) for r in table))
    data = tmp_path / "charts.jsonl"
    write_lines(data, [serialize_example(chart)])
    config = PipelineConfig(out_dir=str(tmp_path / "out"), mock=True, counter="char4",
                            datasets=[DatasetConfig("charts", str(data), "table-program")])
    seen = []

    class SpyVerifier:
        def __init__(self, inner):
            self.inner = inner

        def greedy_answer(self, image, question, rationale=None):
            seen.append(rationale)
            return self.inner.greedy_answer(image, question, rationale)

        def answer_logprob(self, image, question, answer, rationale=None):
            if rationale is not None:
                seen.append(rationale)
            return self.inner.answer_logprob(image, question, answer, rationale)

    def clients(config):
        c = fixtures.make_mock_clients(seed=config.mock_seed)
        c.verifier = SpyVerifier(c.verifier)
        return c

    monkeypatch.setattr(pipeline, "make_clients", clients)
    run(config, ["crop", "generate-rationales", "filter"])
    rationales = pipeline._read_rationales(
        pipeline.stage_file(config, config.datasets[0], "crop_rationales")).values()
    as_char4 = {rationale_text(r, CharBlockCounter()) for r in rationales}
    as_word = {rationale_text(r, WordCounter()) for r in rationales}
    assert as_char4 != as_word     # the two counters trim this table differently
    assert seen and set(seen) == as_char4


class _ToolHandler(http.server.BaseHTTPRequestHandler):
    """Answers every tool request with one fixed reply, counting requests."""

    calls = 0

    def reply(self, request: bytes) -> dict:
        return {"text": "Find(1)", "boxes": [], "answer": "no", "logprob": -1.0}

    def do_POST(self):
        type(self).calls += 1
        body = json.dumps(self.reply(self.rfile.read(int(self.headers["Content-Length"])))).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def http_run_config(out_dir, url, concurrency):
    """The bundled corpus, run against the HTTP tools at `url`."""
    config = default_mock_config(out_dir, seed=0)
    config.mock = False
    config.concurrency = concurrency
    config.tasks = ("qra", "qraci", "apraci", "qid", "ans-only")
    config.endpoints = {t: f"{url}/{t}" for t in ("ocr", "summarizer", "programmer",
                                                  "verifier")}
    return config


def test_http_rerun_replays_cached_responses(tmp_path):
    handler = type("Handler", (_ToolHandler,), {"calls": 0})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{server.server_port}"
        config = http_run_config(str(tmp_path / "h"), url, concurrency=4)
        assert stages_run(run(config)) == ALL_STAGES
        cold_calls = handler.calls
        assert cold_calls > 0
        assert os.path.exists(pipeline.response_cache_path(config.out_dir))
        config.filter = FilterConfig(boost_factor=3.0)
        assert "filter" in stages_run(run(config))
        assert handler.calls == cold_calls
    finally:
        server.shutdown()
        server.server_close()


class _PathCountingHandler(_ToolHandler):
    """`_ToolHandler`, counting the requests to each path in `paths`."""

    lock = paths = None

    def reply(self, request):
        with self.lock:
            type(self).paths[self.path] += 1
        return super().reply(request)


class _ConnectionCountingHandler(_ToolHandler):
    """`_ToolHandler` over kept-alive HTTP/1.1 connections. Records, server
    side, the paths each connection served, the connections open and the
    largest number of requests in flight."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    lock = None
    served = None       # one set of paths per connection
    open = in_flight = max_in_flight = 0

    def setup(self):
        super().setup()
        self.paths = set()
        with self.lock:
            type(self).served.append(self.paths)
            type(self).open += 1

    def finish(self):
        super().finish()
        with self.lock:
            type(self).open -= 1

    def reply(self, request):
        # A request is in flight from its arrival until its response is
        # sent, not until the handler returns: once the response is out, the
        # client may already be waiting on its next request, to another
        # endpoint over another connection.
        cls = type(self)
        with self.lock:
            self.paths.add(self.path)
            cls.in_flight += 1
            cls.max_in_flight = max(cls.max_in_flight, cls.in_flight)
        try:
            time.sleep(0.002)   # lets the pool's requests overlap
            return super().reply(request)
        finally:
            with self.lock:
                cls.in_flight -= 1


@pytest.fixture
def counting_server():
    handler = type("Handler", (_ConnectionCountingHandler,),
                   {"calls": 0, "lock": threading.Lock(), "served": []})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_port}", handler
    server.shutdown()
    server.server_close()


class TestHttpTransport:
    """A run's HTTP tools share kept-alive connections, at most `concurrency`
    of them and of requests in flight, and close them all before it returns."""

    CONCURRENCY = 3

    @pytest.fixture
    def http_run(self, tmp_path, counting_server, monkeypatch):
        url, handler = counting_server
        made = []   # holding the clients keeps garbage collection from closing their sockets

        def make_clients(config, make=pipeline.make_clients):
            made.append(make(config))
            return made[-1]

        monkeypatch.setattr(pipeline, "make_clients", make_clients)
        assert stages_run(run(http_run_config(str(tmp_path / "t"), url, self.CONCURRENCY))) \
            == ALL_STAGES
        assert len(made) == 1      # generate-rationales is the only stage calling tools
        return handler

    def test_at_most_concurrency_connections_per_endpoint(self, http_run):
        assert http_run.calls > 10 * self.CONCURRENCY
        assert all(len(paths) == 1 for paths in http_run.served)
        per_endpoint = collections.Counter(path for paths in http_run.served for path in paths)
        assert set(per_endpoint) == {"/summarizer", "/programmer", "/verifier"}
        assert max(per_endpoint.values()) <= self.CONCURRENCY

    def test_at_most_concurrency_requests_in_flight(self, http_run):
        assert 1 <= http_run.max_in_flight <= self.CONCURRENCY

    def test_every_connection_closed_when_run_returns(self, http_run):
        deadline = time.monotonic() + 5     # the server sees each close a moment later
        while http_run.open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert http_run.open == 0


# Modules a command loads only when it needs them: the HTTP stack for an
# upstream call, the thread pool for HTTP tools, the YAML parser for a
# config file.
NO_HTTP_STACK = """
import json, sys
import rdistill.cli
from rdistill import cli
cli.main.main(sys.argv[1:], prog_name="rdistill", standalone_mode=False)
print(json.dumps(sorted(m for m in ("concurrent.futures", "http.client", "requests", "yaml")
                        if m in sys.modules)))
"""


def loaded_http_modules(*args):
    """The lazily loaded modules that one `rdistill` command loads, run in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", NO_HTTP_STACK, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestHttpStackLoadedLazily:
    """Only an upstream call loads the HTTP stack."""

    def test_mock_run_loads_no_http_module(self, tmp_path):
        assert loaded_http_modules("run", "--mock", "--out-dir", str(tmp_path / "m")) == []

    def test_cached_retune_loads_no_http_module(self, tmp_path, counting_server):
        url, handler = counting_server
        config = http_run_config(str(tmp_path / "r"), url, 2)
        run(config)
        calls = handler.calls
        cfg_path = write_config_file(tmp_path / "retune.yaml", config, boost_factor=3.0)
        # the config file needs the YAML parser; the retune itself loads nothing
        assert loaded_http_modules("run", "--config", str(cfg_path)) == ["yaml"]
        assert handler.calls == calls


def write_config_file(path, config, boost_factor):
    """A config file (JSON is YAML) for the HTTP tree of `config`, at `boost_factor`."""
    path.write_text(json.dumps({
        "out_dir": config.out_dir, "concurrency": config.concurrency,
        "tasks": list(config.tasks), "filter_whole_image": config.filter_whole_image,
        "filter": {"boost_factor": boost_factor},
        "datasets": [dataclasses.asdict(ds) for ds in config.datasets],
        "tools": {"endpoints": config.endpoints}}))
    return path


GOLD_BY_QUESTION = {e.question: e.canonical_answer
                    for e in fixtures.make_doc_examples() + fixtures.make_chart_examples()}


class _ModelLikeHandler(_ToolHandler):
    """Replies that vary with the request, as a model's do: the verifier
    answers the bundled corpus's gold answer for about 70 % of requests and
    gives spread log-probabilities, so crops fall into every category."""

    def reply(self, request):
        u = (int.from_bytes(hashlib.sha256(request).digest()[:8], "big") + 1) / (2 ** 64 + 2)
        question = json.loads(request).get("text_input", "").rpartition("Answer in en: ")[2]
        return {**super().reply(request), "logprob": 4 * math.log(u),
                "answer": GOLD_BY_QUESTION.get(question, "no") if u < 0.7 else "no"}


def construction_spy(monkeypatch):
    """Names of the tool clients, endpoints and response caches constructed
    from now on, in order."""
    made = []

    def spy(name, make):
        def wrapper(*args, **kwargs):
            made.append(name)
            return make(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "make_clients", spy("clients", pipeline.make_clients))
    for cls in (tools.HttpEndpoint, tools.ResponseCache):
        monkeypatch.setattr(cls, "__init__", spy(cls.__name__, cls.__init__))
    return made


@pytest.fixture
def offline_trees(tmp_path):
    """Two finished HTTP trees of the bundled corpus whose server is gone:
    (connected, offline), made at λ 3 and at λ 2."""
    handler = type("Handler", (_ModelLikeHandler,), {"calls": 0})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{server.server_port}"
        connected = http_run_config(str(tmp_path / "connected"), url, concurrency=2)
        connected.filter = FilterConfig(boost_factor=3.0)
        run(connected)
        offline = http_run_config(str(tmp_path / "offline"), url, concurrency=2)
        run(offline)
    finally:
        server.shutdown()
        server.server_close()
    return connected, offline


def outputs(out_dir, prefixes=("tasks",)):
    """The categorized files under out_dir, and the task files."""
    return {name: digest for name, digest in tree_files(out_dir).items()
            if ".categorized." in name or name.startswith(prefixes)}


def ran(args):
    """The stages that the `rdistill` command `args` ran; it must exit 0."""
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    return [s for s in pipeline.STAGES
            if f"[{s}] " in result.output and f"[{s}] skipped" not in result.output]


def test_retune_needs_no_endpoint(tmp_path, monkeypatch, offline_trees):
    # a λ switch constructs no client and no cache, and gives the files of a
    # run made while the server was up
    connected, offline = offline_trees
    at_lambda_2, at_lambda_3 = outputs(offline.out_dir), outputs(connected.out_dir)
    assert at_lambda_2 != at_lambda_3
    made = construction_spy(monkeypatch)
    cfg_path = str(write_config_file(tmp_path / "offline.yaml", offline, boost_factor=2.0))
    assert ran(["run", "--stages", "filter", "--config", cfg_path, "--lambda", "3.0"]) \
        == ["filter"]
    assert outputs(offline.out_dir, ()) == outputs(connected.out_dir, ())
    assert ran(["run", "--stages", "build-tasks", "--config", cfg_path]) == ["build-tasks"]
    assert outputs(offline.out_dir) == at_lambda_3
    assert ran(["run", "--config", cfg_path]) == ["filter", "build-tasks"]
    assert outputs(offline.out_dir) == at_lambda_2
    assert made == []


def test_stages_that_call_no_tool_need_no_endpoint(tmp_path, offline_trees):
    # a config naming no endpoint validates and runs crop, filter and
    # build-tasks on a finished tree, and gives a connected run's files; a
    # run, and a validate, of every stage still ask for the endpoints
    connected, offline = offline_trees
    cfg_path = str(write_config_file(tmp_path / "no-endpoints.yaml",
                                     dataclasses.replace(offline, endpoints={}), 2.0))
    for stage in ("crop", "filter", "build-tasks"):
        result = CliRunner().invoke(cli.main, ["validate", "--stages", stage,
                                               "--config", cfg_path])
        assert (result.exit_code, result.output) == (0, "")
    assert ran(["run", "--stages", "crop", "--config", cfg_path]) == []
    assert ran(["run", "--stages", "filter", "--config", cfg_path, "--lambda", "3.0"]) \
        == ["filter"]
    assert ran(["run", "--stages", "build-tasks", "--config", cfg_path]) == ["build-tasks"]

    def files(out_dir):
        return {name: digest for name, digest in tree_files(out_dir).items()
                if not name.startswith("cache")}

    assert files(offline.out_dir) == files(connected.out_dir)
    for command in ("validate", "run"):
        result = CliRunner().invoke(cli.main, [command, "--config", cfg_path])
        assert result.exit_code == 2, result.output
        for tool in ("programmer", "summarizer", "verifier"):
            assert f"no endpoint configured for tool {tool!r}" in result.output


def tree_files(out_dir):
    """sha256 of every file under out_dir, keyed by its path relative to out_dir."""
    out = {}
    for root, _dirs, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path, out_dir)] = hashlib.sha256(
                open(path, "rb").read()).hexdigest()
    return out


@pytest.fixture
def parses(monkeypatch):
    """Records parsed from dataset and stage files during the test, by parser."""
    counts = collections.Counter()

    def counting(name, parse):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return parse(*args, **kwargs)
        return wrapper

    for name in ("parse_example", "parse_header", "parse_categorized", "parse_rationale"):
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    return counts


MOCK_EXAMPLES, MOCK_CROPS = 20, 64
FIRST_RECORDS = 2   # `run` validates the config, which parses each dataset's first record


def run_stage(config, stage):
    assert stages_run(run(config, [stage])) == {stage}


def run_stage_command(config, stage):
    result = CliRunner().invoke(cli.main, ["run", "--stages", stage, "--mock",
                                           "--out-dir", config.out_dir])
    assert result.exit_code == 0, result.output
    assert f"[{stage}] skipped" not in result.output


def run_entries(config, stages):
    """(stage, entry) of each entry of a run of `stages` under `config`, in
    the order the run takes them: the hand-off's positions."""
    return [(stage, entry) for stage in stages for entry in pipeline._entries(config, stage)]


def handoff_of(config, stages):
    """The hand-off of a run of `stages` under `config`, and the keys of the
    run's entries, by position."""
    entries = [entry for _, entry in run_entries(config, stages)]
    return pipeline._Handoff(entries), [entry.key for entry in entries]


def last_readers(config, stages):
    """"<stage>/<row>" of the last entry of a run of `stages` that reads each file."""
    entries = run_entries(config, stages)
    handoff = pipeline._Handoff([entry for _, entry in entries])
    return {path: f"{entries[i][0]}/{entries[i][1].name}"
            for path, i in handoff._last_reader.items()}


class TestInRunHandoff:
    """Stages of one run pass records in memory; the files they write stay the same."""

    @pytest.mark.parametrize("whole_image,run_one_stage", [
        (False, run_stage), (True, run_stage), (False, run_stage_command),
    ], ids=["crops", "whole-image", "cli"])
    def test_stage_by_stage_runs_match_one_run(self, tmp_path, whole_image, run_one_stage):
        def config(name):
            c = default_mock_config(str(tmp_path / name), seed=0)
            c.filter_whole_image = whole_image
            return c

        together, apart = config("together"), config("apart")
        run(together)
        for stage in pipeline.STAGES:
            run_one_stage(apart, stage)
        assert tree_files(together.out_dir) == tree_files(apart.out_dir)

    def test_cold_run_parses_each_dataset_example_once(self, tmp_path, parses):
        run(default_mock_config(str(tmp_path / "cold"), seed=0))
        assert parses == {"parse_example": FIRST_RECORDS + MOCK_EXAMPLES}

    def test_rerun_after_skipped_crop_reads_the_crop_file(self, tmp_path, parses):
        config = default_mock_config(str(tmp_path / "resume"), seed=0)
        run(config, ["crop"])
        parses.clear()
        summary = run(config)
        assert summary["crop"] == "skipped"
        assert stages_run(summary) == ALL_STAGES - {"crop"}
        # generate-rationales parses the dataset and the crop files; later stages reuse both
        assert parses == {"parse_example": FIRST_RECORDS + MOCK_EXAMPLES + MOCK_CROPS}
        fresh = default_mock_config(str(tmp_path / "fresh"), seed=0)
        run(fresh)
        assert tree_files(config.out_dir) == tree_files(fresh.out_dir)

    def test_records_are_released_after_their_last_reader(self, tmp_path):
        config = default_mock_config(str(tmp_path / "release"), seed=0)
        handoff, keys = handoff_of(config, pipeline.STAGES)
        crops = pipeline.stage_file(config, config.datasets[0], "crops")
        reads = []

        def read(path):
            reads.append(path)
            return ["from file"]

        assert keys[0] == "docs.crops"
        handoff.put(crops, ["from crop"])  # the docs.crops entry is at position 0
        for key in ("docs.crop_rationales", "docs.categorized", "qraci", "apraci"):
            handoff.position = keys.index(key)
            assert handoff.take(crops, read) == ["from crop"]
        assert handoff.take(crops, read) == ["from file"]
        assert reads == [crops]

    @pytest.mark.parametrize("stages,last", [
        (list(pipeline.STAGES), {"scores": "filter/categorized"}),
        (["crop", "generate-rationales", "build-tasks"], {"scores": None}),
    ], ids=["with-filter", "without-filter"])
    def test_build_tasks_keeps_crops_only_to_join_verdicts(self, tmp_path, stages, last):
        # build-tasks always joins the verdicts with the crops and crop
        # rationales; only filter reads the scores. The crop tasks come first,
        # so the crops are released before QRA and APR run.
        config = default_mock_config(str(tmp_path / "join"), seed=0)
        readers = last_readers(config, stages)
        last = {"crops": "build-tasks/apraci", "crop_rationales": "build-tasks/apraci", **last}
        for ds in config.datasets:
            assert {kind: readers.get(pipeline.stage_file(config, ds, kind))
                    for kind in last} == last
        _, keys = handoff_of(config, stages)
        assert keys.index("apraci") < min(keys.index("qra"), keys.index("apr"))

    # filter reads the crop rationales too, to leave flagged ones out of its balance
    @pytest.mark.parametrize("stages,crops_reader,rationales_reader", [
        (list(pipeline.STAGES), "filter/categorized", "filter/categorized"),
        (["crop", "generate-rationales", "build-tasks"], "generate-rationales/crop_rationales",
         None),
    ], ids=["with-filter", "without-filter"])
    def test_build_tasks_keeps_no_crops_for_tasks_that_read_none(self, tmp_path, stages,
                                                                 crops_reader, rationales_reader):
        config = default_mock_config(str(tmp_path / "subset"), seed=0)
        config.tasks = ("qid", "qra")
        readers = last_readers(config, stages)
        for ds in config.datasets:
            assert {kind: readers.get(pipeline.stage_file(config, ds, kind))
                    for kind in ("crops", "crop_rationales", "categorized", "rationales")} \
                == {"crops": crops_reader, "crop_rationales": rationales_reader,
                    "categorized": None, "rationales": "build-tasks/qra"}

    def test_build_tasks_alone_parses_each_file_once(self, tmp_path, parses):
        config = default_mock_config(str(tmp_path / "once"), seed=0)
        config.filter_whole_image = True
        run(config)
        kept = sum(1 for ds in config.datasets
                   for _ in read_lines(pipeline.stage_file(config, ds, "categorized")))
        shutil.rmtree(os.path.join(config.out_dir, "tasks"))
        parses.clear()
        run_stage(config, "build-tasks")
        # build-tasks reads no OCR field of an example or a crop, nor does
        # the config check of a run without crop and generate-rationales
        assert parses == {"parse_header": FIRST_RECORDS + MOCK_EXAMPLES + MOCK_CROPS,
                          "parse_rationale": MOCK_EXAMPLES + MOCK_CROPS,
                          "parse_categorized": kept}

    def test_examples_read_without_ocr_fields_reach_no_whole_reader(self, tmp_path):
        # a stage that makes rationales would find no OCR text in them and
        # call the OCR tool for each: the hand-off refuses to give them one
        config = default_mock_config(str(tmp_path / "headers"), seed=0)
        run(config, ["crop"])
        crops = pipeline.stage_file(config, config.datasets[0], "crops")
        handoff, keys = handoff_of(config, pipeline.STAGES)
        handoff.position = keys.index("docs.categorized")   # filter
        assert {c.ocr_boxes for c in handoff.take(crops, pipeline._read_headers)} == {None}
        handoff.position = keys.index("qraci")      # build-tasks
        with pytest.raises(RuntimeError, match="without OCR fields"):
            handoff.take(crops, pipeline._read_examples)
        # whole examples go to either reader
        handoff, _ = handoff_of(config, pipeline.STAGES)
        handoff.position = keys.index("docs.crop_rationales")   # generate-rationales
        assert handoff.take(crops, pipeline._read_examples)[0].ocr_text
        handoff.position = keys.index("docs.categorized")
        handoff.take(crops, pipeline._read_headers)
        handoff.position = keys.index("qraci")
        assert handoff.take(crops, pipeline._read_examples)[0].ocr_text

    def test_mock_run_starts_no_thread_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a mock run started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        config = default_mock_config(str(tmp_path / "inline"), seed=0)
        config.concurrency = 4
        assert stages_run(run(config)) == ALL_STAGES


def task_stamps(config):
    """(inode, mtime) of each task file, by task key: a rewrite changes them."""
    stamps = {}
    for key in pipeline.TASK_NAMES:
        with contextlib.suppress(FileNotFoundError):
            st = os.stat(pipeline.task_path(config, key))
            stamps[key] = (st.st_ino, st.st_mtime_ns)
    return stamps


def rewritten(before, after):
    """The keys whose file was written between two `task_stamps` or `file_stamps`."""
    return {key for key, stamp in after.items() if before.get(key) != stamp}


def file_stamps(out_dir):
    """(inode, mtime) of every file under out_dir, by its path relative to out_dir."""
    stamps = {}
    for root, _dirs, files in os.walk(out_dir):
        for name in files:
            st = os.stat(os.path.join(root, name))
            stamps[os.path.relpath(os.path.join(root, name), out_dir)] = (st.st_ino,
                                                                          st.st_mtime_ns)
    return stamps


def mock_dataset(out_dir, name):
    """A bundled dataset, or "extra": three docs examples under ids of their own."""
    path = os.path.join(out_dir, "data", f"{name}.jsonl")
    if name == "extra" and not os.path.exists(path):
        write_lines(path, (
            serialize_example(dataclasses.replace(e, example_id=f"x-{e.example_id}"))
            for e in fixtures.make_doc_examples()[:3]))
    return DatasetConfig(name, path, pipeline.MOCK_DATASETS.get(name, ("text-evidence",))[0])


STAGE_MANIFESTS = {f"manifests/{stage}.json" for stage in pipeline.STAGES}
TASK_FILES = {f"tasks/{name}.jsonl" for name in pipeline.TASK_NAMES.values()}


class TestPerDatasetFreshness:
    """A dataset's stage files have entries of their own, over that dataset
    and the settings that make them: a change elsewhere leaves them untouched."""

    def test_adding_a_dataset_leaves_the_files_of_the_others_untouched(self, tmp_path):
        config = default_mock_config(str(tmp_path / "add"), seed=0)
        charts = config.datasets.pop()
        run(config)
        before = file_stamps(config.out_dir)
        config.datasets.append(charts)
        assert stages_run(run(config)) == ALL_STAGES
        charts_files = {name for name in file_stamps(config.out_dir)
                        if name.startswith("charts.")}
        assert len(charts_files) == 6
        # every task file merges every dataset
        assert rewritten(before, file_stamps(config.out_dir)) \
            == charts_files | TASK_FILES | STAGE_MANIFESTS
        assert stages_run(run(config)) == set()

    def test_turning_on_whole_image_filtering_writes_only_its_files(self, tmp_path):
        # the entry that makes an example's rationale scores it too, so it
        # reruns, rewriting the rationales with the same bytes
        config = default_mock_config(str(tmp_path / "whole"), seed=0)
        run(config)
        before, digests = file_stamps(config.out_dir), tree_files(config.out_dir)
        config.filter_whole_image = True
        assert stages_run(run(config)) == {"generate-rationales", "build-tasks"}
        rationales = {f"{ds.name}.rationales.jsonl" for ds in config.datasets}
        assert rewritten(before, file_stamps(config.out_dir)) == rationales | {
            f"{ds.name}.whole_scores.jsonl" for ds in config.datasets} | {"tasks/QRA.jsonl"} \
            | {"manifests/generate-rationales.json", "manifests/build-tasks.json"}
        after = tree_files(config.out_dir)
        assert {name: after[name] for name in rationales} \
            == {name: digests[name] for name in rationales}

    def test_turning_whole_image_filtering_off_removes_its_files(self, tmp_path):
        # the rationales entries rerun without it, to the same bytes, and take
        # the whole-image scores files away: nothing reads them
        config = default_mock_config(str(tmp_path / "off"), seed=0)
        run(config)
        rationales = {name: digest for name, digest in tree_files(config.out_dir).items()
                      if name.endswith(".rationales.jsonl")}
        assert len(rationales) == 2
        config.filter_whole_image = True
        run(config)
        assert all(os.path.getsize(pipeline.stage_file(config, ds, "whole_scores")) > 0
                   for ds in config.datasets)
        config.filter_whole_image = False
        assert stages_run(run(config)) == {"generate-rationales", "build-tasks"}
        files = tree_files(config.out_dir)
        assert [name for name in files if name.endswith(".whole_scores.jsonl")] == []
        assert {name: files[name] for name in rationales} == rationales
        assert stages_run(run(config)) == set()

    def test_toggling_whole_image_filtering_over_http_asks_only_the_verifier(self, tmp_path):
        # turning it on replays every rationale request from the response
        # cache and asks the verifier three things per example, 20 in all;
        # turning it off asks nothing
        handler = type("Handler", (_PathCountingHandler,),
                       {"lock": threading.Lock(), "paths": collections.Counter()})
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            config = http_run_config(str(tmp_path / "toggle"), f"http://127.0.0.1:"
                                     f"{server.server_port}", concurrency=2)
            run(config)
            rationales = {name: digest for name, digest in tree_files(config.out_dir).items()
                          if name.endswith(".rationales.jsonl")}
            assert len(rationales) == 2
            handler.paths.clear()
            config.filter_whole_image = True
            run(config)
            assert handler.paths == {"/verifier": 60}
            files = tree_files(config.out_dir)
            assert {name: files[name] for name in rationales} == rationales
            for ds in config.datasets:
                assert os.path.getsize(pipeline.stage_file(config, ds, "whole_scores")) > 0
            handler.paths.clear()
            config.filter_whole_image = False
            assert stages_run(run(config)) == {"generate-rationales", "build-tasks"}
            assert handler.paths == {}
        finally:
            server.shutdown()
            server.server_close()

    def test_dropping_a_dataset_rewrites_only_manifests_and_task_files(self, tmp_path):
        config = default_mock_config(str(tmp_path / "drop"), seed=0)
        run(config)
        before = file_stamps(config.out_dir)
        config.datasets.pop()
        # each stage runs none of its entries, and records only the config's
        assert stages_run(run(config)) == ALL_STAGES
        assert rewritten(before, file_stamps(config.out_dir)) == TASK_FILES | STAGE_MANIFESTS
        assert stages_run(run(config)) == set()


# How to make a manifest that `_write_manifest` did not write, from one it did.
CORRUPT_MANIFESTS = {
    "not-utf8": lambda m: b'{"stage": "filter\xff"}',
    "not-json": lambda m: b'{"stage": ',
    "a-list": lambda m: b"[]",
    "of-another-stage": lambda m: {**m, "stage": "crop"},
    "entries-a-list": lambda m: {**m, "entries": list(m["entries"])},
    "entry-a-string": lambda m: {**m, "entries": dict.fromkeys(m["entries"], "x")},
    **{f"{field}-a-list": lambda m, field=field: {**m, "entries": {
        key: {**entry, field: list(entry[field])} for key, entry in m["entries"].items()}}
       for field in ("inputs", "outputs", "counts")},
}


@pytest.mark.parametrize("corrupt", CORRUPT_MANIFESTS.values(), ids=list(CORRUPT_MANIFESTS))
def test_a_manifest_not_of_the_written_shape_is_stale(tmp_path, corrupt):
    config = default_mock_config(str(tmp_path / "corrupt"), seed=0)
    run(config)
    files = tree_files(config.out_dir)
    path = pipeline._manifest_path(config.out_dir, "filter")
    with open(path, "rb") as f:
        manifest = corrupt(json.load(f))
    with open(path, "wb") as f:
        f.write(manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode())
    assert stages_run(run(config)) == {"filter"}
    assert tree_files(config.out_dir) == files


def test_a_manifest_is_one_compact_line_and_an_indented_one_stays_fresh(tmp_path):
    config = default_mock_config(str(tmp_path / "indented"), seed=0)
    run(config)
    for stage in pipeline.STAGES:
        path = pipeline._manifest_path(config.out_dir, stage)
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8") as f:   # as manifests used to be written
            json.dump(json.loads(text), f, indent=2, sort_keys=True)
    files, stamps = tree_files(config.out_dir), file_stamps(config.out_dir)
    assert stages_run(run(config)) == set()
    assert tree_files(config.out_dir) == files
    assert rewritten(stamps, file_stamps(config.out_dir)) == set()


ALL_TASKS = set(pipeline.TASK_NAMES)


class TestPerTaskFreshness:
    """Build-tasks keeps one manifest entry per task file and rebuilds only the stale ones."""

    @pytest.mark.parametrize("whole_image,moved", [(False, False), (True, False), (False, True)],
                             ids=["crops", "whole-image", "moved"])
    def test_a_lambda_switch_rewrites_only_what_lambda_reaches(self, tmp_path, parses,
                                                              whole_image, moved):
        config = default_mock_config(str(tmp_path / "a"), seed=0)
        config.filter_whole_image = whole_image
        run(config)
        if moved:
            shutil.copytree(tmp_path / "a", tmp_path / "b")
            config = default_mock_config(str(tmp_path / "b"), seed=0)
            assert stages_run(run(config)) == set()
        before = task_stamps(config)
        parses.clear()
        config.filter = FilterConfig(boost_factor=10.0)
        assert stages_run(run(config)) == {"filter", "build-tasks"}
        # QRA reads no λ, with filter_whole_image too
        assert rewritten(before, task_stamps(config)) == {"qraci", "apraci"}
        # filter parses the crops' headers, for their gold answers; build-tasks
        # takes them from it and parses only the crop rationales
        assert parses == {"parse_example": FIRST_RECORDS, "parse_header": MOCK_CROPS,
                          "parse_rationale": MOCK_CROPS}
        cold = default_mock_config(str(tmp_path / "cold"), seed=0)
        cold.filter_whole_image, cold.filter = whole_image, config.filter
        run(cold)
        assert tree_hashes(config.out_dir) == tree_hashes(cold.out_dir)

    def test_a_lambda_switch_with_whole_image_filtering_leaves_qra_untouched(self, tmp_path):
        # QRA leaves out the examples whose whole-image answer misses the
        # gold one, which no λ changes
        config = default_mock_config(str(tmp_path / "whole"), seed=0)
        config.filter_whole_image = True
        run(config)
        before = file_stamps(config.out_dir)
        config.filter = FilterConfig(boost_factor=5.0)
        assert stages_run(run(config)) == {"filter", "build-tasks"}
        assert rewritten(before, file_stamps(config.out_dir)) == {
            f"{ds.name}.{kind}" for ds in config.datasets
            for kind in ("categorized.jsonl", "balance.json")} \
            | {"tasks/QRACI.jsonl", "tasks/APRCI.jsonl", "manifests/filter.json",
               "manifests/build-tasks.json"}

    def test_qra_reads_no_lambda_with_whole_image_filtering(self, tmp_path):
        # build-tasks alone is not refused a λ that filter would refuse, so
        # QRA's whole-image verdicts must not read it
        config = default_mock_config(str(tmp_path / "whole"), seed=0)
        config.filter_whole_image = True
        run(config)
        files = tree_files(config.out_dir)
        os.remove(pipeline.task_path(config, "qra"))
        config.filter = FilterConfig(boost_factor=0.0)
        assert stages_run(run(config, ["build-tasks"])) == {"build-tasks"}
        assert tree_files(config.out_dir) == files

    @pytest.mark.parametrize("setting,value", [("filter", FilterConfig(boost_factor=3.0)),
                                               ("seed", 1)], ids=["lambda", "seed"])
    def test_a_switch_no_selected_task_reads_leaves_build_tasks_fresh(self, tmp_path,
                                                                     setting, value):
        config = default_mock_config(str(tmp_path / "subset"), seed=0)
        config.tasks = ("qid", "qra")
        run(config)
        manifest = pipeline._manifest_path(config.out_dir, "build-tasks")
        with open(manifest, "rb") as f:
            recorded = f.read()
        setattr(config, setting, value)
        assert stages_run(run(config)) == {"filter"}
        with open(manifest, "rb") as f:
            assert f.read() == recorded

    def test_a_mock_seed_switch_leaves_apr_untouched(self, tmp_path):
        # the mock students take no seed: APR reads the dataset, seed and counter
        config = default_mock_config(str(tmp_path / "students"), seed=0)
        run(config)
        before = task_stamps(config)
        config.mock_seed = 1
        assert stages_run(run(config)) == {"generate-rationales", "filter", "build-tasks"}
        after = task_stamps(config)
        assert "qraci" in rewritten(before, after)
        assert after["apr"] == before["apr"]

    def test_adding_a_task_builds_only_its_file(self, tmp_path, parses):
        config = default_mock_config(str(tmp_path / "add"), seed=0)
        config.tasks = ("qra", "apr", "qraci", "apraci", "ans-only")
        run(config)
        before = task_stamps(config)
        parses.clear()
        config.tasks += ("qid",)
        assert stages_run(run(config)) == {"build-tasks"}
        assert rewritten(before, task_stamps(config)) == {"qid"}
        assert parses == {"parse_example": FIRST_RECORDS, "parse_header": MOCK_EXAMPLES}
        assert stages_run(run(config)) == set()

    @pytest.mark.parametrize("switch", [False, True], ids=["cold", "lambda-switch"])
    def test_a_run_hashes_each_file_at_most_once(self, tmp_path, monkeypatch, switch):
        config = default_mock_config(str(tmp_path / "hashed"), seed=0)
        if switch:
            run(config)
            config.filter = FilterConfig(boost_factor=3.0)
        hashed = collections.Counter()
        file_hash = pipeline._file_hash

        def counting(path):
            hashed[os.path.normpath(path)] += 1
            return file_hash(path)

        monkeypatch.setattr(pipeline, "_file_hash", counting)
        run(config)
        assert hashed and max(hashed.values()) == 1

    def test_tasks_that_read_no_stage_file_build_after_crop_alone(self, tmp_path):
        # build-tasks lists only the files its selected tasks read; the
        # others need not exist
        config = default_mock_config(str(tmp_path / "early"), seed=0)
        config.tasks = ("qid", "ans-only")
        run(config, ["crop"])
        assert stages_run(run(config, ["build-tasks"])) == {"build-tasks"}
        assert sorted(os.listdir(os.path.join(config.out_dir, "tasks"))) \
            == ["ANS_ONLY.jsonl", "QID.jsonl"]
        assert stages_run(run(config, ["build-tasks"])) == set()

    @pytest.mark.parametrize("change", ["delete", "edit"])
    def test_a_deleted_or_edited_task_file_is_the_only_one_rebuilt(self, tmp_path, change):
        config = default_mock_config(str(tmp_path / "one"), seed=0)
        run(config)
        files = tree_files(config.out_dir)
        before = task_stamps(config)
        path = pipeline.task_path(config, "apr")
        if change == "delete":
            os.remove(path)
        else:
            with open(path, "a", encoding="utf-8") as f:
                f.write("{}\n")
        assert stages_run(run(config)) == {"build-tasks"}
        assert rewritten(before, task_stamps(config)) == {"apr"}
        assert tree_files(config.out_dir) == files

    @pytest.mark.parametrize("whole_image", [False, True], ids=["crops", "whole-image"])
    def test_a_manifest_without_task_entries_rebuilds_every_task_once(self, tmp_path,
                                                                      whole_image):
        # a tree written before build-tasks kept an entry per task: one
        # fingerprint for the stage, the task files among its outputs
        config = default_mock_config(str(tmp_path / "earlier"), seed=0)
        config.filter_whole_image = whole_image
        run(config)
        files = tree_files(config.out_dir)
        write_earlier_manifest(config, "build-tasks", task_entries=False)
        before = task_stamps(config)
        assert stages_run(run(config)) == {"build-tasks"}
        assert rewritten(before, task_stamps(config)) == ALL_TASKS
        assert tree_files(config.out_dir) == files
        assert stages_run(run(config)) == set()

    @settings(max_examples=25, deadline=None)
    @given(changes=st.lists(st.one_of(
        st.tuples(st.just("boost_factor"), st.sampled_from([1.5, 2.0, 3.0])),
        st.tuples(st.just("space"), st.sampled_from(["log", "probability"])),
        st.tuples(st.just("counter"), st.sampled_from(["word", "char4"])),
        st.tuples(st.just("tasks"), st.lists(st.sampled_from(sorted(ALL_TASKS)), min_size=1,
                                             unique=True).map(tuple)),
        st.tuples(st.just("filter_whole_image"), st.booleans()),
        st.tuples(st.just("seed"), st.integers(0, 2)),
        st.tuples(st.just("crop_mode"), st.sampled_from(["verbatim", "full-coverage"])),
        st.tuples(st.just("datasets"), st.lists(st.sampled_from(["docs", "charts", "extra"]),
                                                min_size=1, unique=True))),
        min_size=1, max_size=4))
    def test_incremental_runs_match_a_cold_build(self, tmp_path_factory, changes):
        # every file of a cold build at the final settings, manifests
        # included, is in the incremental tree with the same bytes; files of
        # a dropped task or dataset, or of filter_whole_image, stay behind
        root = tmp_path_factory.mktemp("incremental")

        def change(config, setting, value):
            if setting in ("boost_factor", "space"):
                config.filter = dataclasses.replace(config.filter, **{setting: value})
            elif setting == "datasets":
                config.datasets = [mock_dataset(config.out_dir, name) for name in value]
            else:
                setattr(config, setting, value)

        incremental = default_mock_config(str(root / "incremental"), seed=0)
        run(incremental)
        for setting, value in changes:
            change(incremental, setting, value)
            run(incremental)
        cold = default_mock_config(str(root / "cold"), seed=0)
        for setting, value in changes:
            change(cold, setting, value)
        run(cold)
        cold_files, incremental_files = tree_files(cold.out_dir), tree_files(incremental.out_dir)
        assert {name: incremental_files.get(name) for name in cold_files} == cold_files
        assert stages_run(run(incremental)) == set()


# Fingerprints that trees already written carry in their manifests, by stage
# and entry: changing one makes every such tree rerun that entry. Task
# entries fingerprint every dataset; the others only their own.
PINNED_FINGERPRINTS = {
    "mock": {
        "crop/docs.crops":
            "e6dbe6e6399bb5025f9d6bec68b691dc19f5877e7607e25e7ddeddfe4092001f",
        "crop/charts.crops":
            "17bcf484728ba53afc366cd26d071f18d5d796b16f737a4cbc54307b44e60b78",
        "generate-rationales/docs.rationales":
            "9aa84a5de9e1ef39473b93c4b6a8cb765548e22640336fbaf4d6e4723916b222",
        "generate-rationales/docs.crop_rationales":
            "58b9c8196a182f0fbfaac68fd94dede61340c5836f960a1c591e576f81783704",
        "generate-rationales/charts.rationales":
            "6f92c7454ec84c1973f65a7861526385bd6c661c8e74b138af5f0c5bd12b95b7",
        "generate-rationales/charts.crop_rationales":
            "1fd6948eb9fd3b167d793995a71149732b5880411d58e91847c817d8b9f422bf",
        "filter/docs.categorized":
            "f0a05b73eeaf6f4e602f4d950f0f3dbc943491b78877b7c1eee914176da80032",
        "filter/charts.categorized":
            "d5f61061d1a7e33b0a42280e084095639205b140a954d8e20cf9ccd72997197a",
        "build-tasks/qra":
            "9981d5d74680f6a2fa313259947da44e91952833702dce465a40578c442fdd07",
        "build-tasks/apr":
            "742f5c868b1a095ca78aba4d45b81601c5db29b2409711a44e01eb62159b87ff",
        "build-tasks/qraci":
            "f062818e551edf4a8045d24b7e43a3718ca678766cdf65c7d0c35d01de1c5104",
        "build-tasks/apraci":
            "f062818e551edf4a8045d24b7e43a3718ca678766cdf65c7d0c35d01de1c5104",
        "build-tasks/qid":
            "f062818e551edf4a8045d24b7e43a3718ca678766cdf65c7d0c35d01de1c5104",
        "build-tasks/ans-only":
            "f062818e551edf4a8045d24b7e43a3718ca678766cdf65c7d0c35d01de1c5104",
    },
    "mock-whole-image": {
        "crop/docs.crops":
            "e6dbe6e6399bb5025f9d6bec68b691dc19f5877e7607e25e7ddeddfe4092001f",
        "crop/charts.crops":
            "17bcf484728ba53afc366cd26d071f18d5d796b16f737a4cbc54307b44e60b78",
        "generate-rationales/docs.rationales":
            "58b9c8196a182f0fbfaac68fd94dede61340c5836f960a1c591e576f81783704",
        "generate-rationales/docs.crop_rationales":
            "58b9c8196a182f0fbfaac68fd94dede61340c5836f960a1c591e576f81783704",
        "generate-rationales/charts.rationales":
            "1fd6948eb9fd3b167d793995a71149732b5880411d58e91847c817d8b9f422bf",
        "generate-rationales/charts.crop_rationales":
            "1fd6948eb9fd3b167d793995a71149732b5880411d58e91847c817d8b9f422bf",
        "filter/docs.categorized":
            "f0a05b73eeaf6f4e602f4d950f0f3dbc943491b78877b7c1eee914176da80032",
        "filter/charts.categorized":
            "d5f61061d1a7e33b0a42280e084095639205b140a954d8e20cf9ccd72997197a",
        "build-tasks/qra":
            "920fbd48524d34a5936eb128442a453927873fd4db4798be64c518dc1e3d31ab",
        "build-tasks/apr":
            "742f5c868b1a095ca78aba4d45b81601c5db29b2409711a44e01eb62159b87ff",
        "build-tasks/qraci":
            "f062818e551edf4a8045d24b7e43a3718ca678766cdf65c7d0c35d01de1c5104",
        "build-tasks/apraci":
            "f062818e551edf4a8045d24b7e43a3718ca678766cdf65c7d0c35d01de1c5104",
        "build-tasks/qid":
            "f062818e551edf4a8045d24b7e43a3718ca678766cdf65c7d0c35d01de1c5104",
        "build-tasks/ans-only":
            "f062818e551edf4a8045d24b7e43a3718ca678766cdf65c7d0c35d01de1c5104",
    },
    "http": {
        "crop/docs.crops":
            "e6dbe6e6399bb5025f9d6bec68b691dc19f5877e7607e25e7ddeddfe4092001f",
        "crop/charts.crops":
            "17bcf484728ba53afc366cd26d071f18d5d796b16f737a4cbc54307b44e60b78",
        "generate-rationales/docs.rationales":
            "2916c8a2c437bdb432741d88840e3fd44c9e7807e2d1edaac6989da4c2662f90",
        "generate-rationales/docs.crop_rationales":
            "2916c8a2c437bdb432741d88840e3fd44c9e7807e2d1edaac6989da4c2662f90",
        "generate-rationales/charts.rationales":
            "4ccb8f49ac57912ba0ffa1525ae653612f9b051abc779113505dd4a7b9d86bc5",
        "generate-rationales/charts.crop_rationales":
            "4ccb8f49ac57912ba0ffa1525ae653612f9b051abc779113505dd4a7b9d86bc5",
        "filter/docs.categorized":
            "f0a05b73eeaf6f4e602f4d950f0f3dbc943491b78877b7c1eee914176da80032",
        "filter/charts.categorized":
            "d5f61061d1a7e33b0a42280e084095639205b140a954d8e20cf9ccd72997197a",
        "build-tasks/qra":
            "bbedfbe31381343b8b746d32eb591c8f598f33dface948da0d02a3d1d9db36eb",
        "build-tasks/apr":
            "7a5f60ff6e91c371fe71319a4a32696c3ba012bb6773ca97003713b986435e5b",
        "build-tasks/qraci":
            "49a8498f45b6c627c261d152b0669d9511d25d27d71cdca6d31fc46abf369ad6",
        "build-tasks/apraci":
            "49a8498f45b6c627c261d152b0669d9511d25d27d71cdca6d31fc46abf369ad6",
        "build-tasks/qid":
            "49a8498f45b6c627c261d152b0669d9511d25d27d71cdca6d31fc46abf369ad6",
        "build-tasks/ans-only":
            "49a8498f45b6c627c261d152b0669d9511d25d27d71cdca6d31fc46abf369ad6",
    },
}


def pinned_config(tmp_path, name):
    config = default_mock_config(str(tmp_path / name), seed=0)
    config.filter_whole_image = name != "mock"
    if name == "http":
        config.mock = False
        config.counter = "char4"
        config.endpoints = {t: f"http://127.0.0.1:9/{t}" for t in
                            ("ocr", "summarizer", "programmer", "plot_to_table", "verifier")}
        template = tmp_path / "summarizer.txt"
        template.write_text("Summarize {ocr}\nQ: {question}\nA: {answer}\n")
        config.templates = {"summarizer": str(template)}
    return config


def earlier_templates(config):
    """The templates as fingerprints covered them before a template was its
    body alone: [name, shot count, body] each, a default named "mock-<client>"."""
    return [[name if config.templates.get(name) else f"mock-{name}", shots,
             pipeline._load_template(config, name).body]
            for name, shots in (("summarizer", 5), ("programmer", 8))]


# The settings each stage's one fingerprint covered in trees written before
# manifests held an entry per group of output files; build-tasks' also
# covered those of each task it selected.
EARLIER_STAGE_SETTINGS = {
    "crop": ("crop_mode",),
    "generate-rationales": ("counter", "mock", "mock_seed", "max_retries", "endpoints",
                            "templates", "verifier", "filter_whole_image"),
    "filter": ("seed", "filter", "filter_whole_image"),
    "build-tasks": ("tasks",),
}


def write_earlier_manifest(config, stage, task_entries=True):
    """Rewrite `stage`'s manifest in the layout of a tree written before
    manifests held entries: one fingerprint over every dataset, the stage's
    inputs, outputs and counts, and for build-tasks an entry per task file,
    whose file was not among the stage's outputs. Without `task_entries`,
    the layout of a tree written before build-tasks kept an entry per task:
    the task files are among the stage's outputs. Files no longer in the
    tree are left out, as a tree written before they were is."""
    records = pipeline._read_manifest(config.out_dir, stage)

    def merged(field):
        return {k: v for record in records.values() for k, v in record[field].items()
                if os.path.exists(os.path.join(config.out_dir, k))}

    settings = EARLIER_STAGE_SETTINGS[stage]
    if stage == "build-tasks":
        rows = pipeline._STAGE_TABLE[stage]
        settings += tuple(s for key in config.tasks for s in rows[key].settings)
    manifest = {
        "stage": stage,
        "fingerprint": pipeline._fingerprint(
            config, pipeline._Row((), tuple(dict.fromkeys(settings))), config.datasets),
        "inputs": {k: v for k, v in merged("inputs").items() if k not in merged("outputs")},
        "outputs": {} if stage == "build-tasks" and task_entries else merged("outputs"),
        "counts": {k: v for record in records.values() for k, v in record["counts"].items()},
    }
    if stage == "build-tasks" and task_entries:
        manifest["tasks"] = {key: {field: record[field] for field in
                                   ("fingerprint", "inputs", "outputs")}
                             for key, record in records.items()}
    with open(pipeline._manifest_path(config.out_dir, stage), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


TRACED_RUN = """
import importlib.util, json, sys
import rdistill.cli
from rdistill import pipeline
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
pipeline.run(pipeline.default_mock_config(sys.argv[2]))
print(json.dumps(tracer.wall_s))
"""


class TestStageTable:
    """One table declares each stage's function, files and fingerprinted settings."""

    @pytest.mark.parametrize("name", list(PINNED_FINGERPRINTS))
    def test_fingerprints_are_pinned(self, tmp_path, name):
        config = pinned_config(tmp_path, name)
        assert {f"{stage}/{entry.key}": entry.fingerprint for stage in pipeline.STAGES
                for entry in pipeline._entries(config, stage)} == PINNED_FINGERPRINTS[name]

    @pytest.mark.parametrize("whole_image", [False, True], ids=["crops", "whole-image"])
    def test_an_earlier_format_tree_reruns_each_stage_once(
            self, tmp_path, counting_server, whole_image):
        # every stage reruns once, generate-rationales replaying its cached
        # responses, and rewrites its files with the same bytes
        url, handler = counting_server
        config = http_run_config(str(tmp_path / "earlier"), url, concurrency=2)
        config.filter_whole_image = whole_image
        run(config)
        for stage in pipeline.STAGES:
            write_earlier_manifest(config, stage)

        def stage_and_task_files():
            return {name: digest for name, digest in tree_files(config.out_dir).items()
                    if not name.startswith(("manifests", "cache"))}

        files, calls = stage_and_task_files(), handler.calls
        assert stages_run(run(config)) == ALL_STAGES
        assert handler.calls == calls
        assert stage_and_task_files() == files
        assert stages_run(run(config)) == set()

    @pytest.mark.parametrize("whole_image", [False, True], ids=["crops", "whole-image"])
    def test_tree_written_before_scores_files_reruns_once(self, tmp_path, counting_server,
                                                          whole_image):
        # no scores files, and manifests of one stage-level fingerprint, the
        # build-tasks one without task entries: every stage reruns once,
        # generate-rationales replaying its cached responses to score the
        # crops, and the tree ends as it was
        url, handler = counting_server
        config = http_run_config(str(tmp_path / "earlier"), url, concurrency=2)
        config.filter_whole_image = whole_image
        run(config)
        files = tree_files(config.out_dir)
        for ds in config.datasets:
            for kind in ("scores", "whole_scores"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(pipeline.stage_file(config, ds, kind))
        for stage in pipeline.STAGES:
            write_earlier_manifest(config, stage, task_entries=False)
        calls = handler.calls
        assert stages_run(run(config)) == ALL_STAGES
        assert handler.calls == calls
        assert tree_files(config.out_dir) == files
        assert stages_run(run(config)) == set()

    def test_a_stage_that_reads_the_verifier_endpoint_reads_every_endpoint(self):
        # so `validate` checks every endpoint of a stage under one gate
        for stage, rows in pipeline._STAGE_TABLE.items():
            settings = {setting for row in rows.values() for setting in row.settings}
            assert "verifier" not in settings or "endpoints" in settings, stage

    def test_a_tree_of_the_earlier_template_fingerprints_reruns_only_generate_rationales(
            self, tmp_path, counting_server, monkeypatch):
        # a template was fingerprinted with a name and a shot count: the
        # generate-rationales entries of a tree written so rerun once,
        # replaying every request, and leave every file as it was
        url, handler = counting_server
        config = http_run_config(str(tmp_path / "earlier"), url, concurrency=2)
        template = tmp_path / "summarizer.txt"
        template.write_text("Summarize {ocr}\nQ: {question}\nA: {answer}\n")
        config.templates = {"summarizer": str(template)}
        run(config)
        files, calls = tree_files(config.out_dir), handler.calls
        with monkeypatch.context() as patch:
            patch.setitem(pipeline._SETTINGS, "templates", earlier_templates)
            pinned = pinned_config(tmp_path, "http")
            assert pipeline._entries(pinned, "generate-rationales")[0].fingerprint \
                == "73bac86a01fbd353958390bd8c61ea5e6103024b15705f60d2a2b4c78d94b661"
            earlier = {entry.key: entry.fingerprint
                       for entry in pipeline._entries(config, "generate-rationales")}
        path = pipeline._manifest_path(config.out_dir, "generate-rationales")
        manifest = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        assert manifest["entries"].keys() == earlier.keys()
        for key, record in manifest["entries"].items():
            assert record["fingerprint"] != earlier[key]
            record["fingerprint"] = earlier[key]
        pathlib.Path(path).write_text(json.dumps(manifest, sort_keys=True) + "\n",
                                      encoding="utf-8")
        assert stages_run(run(config)) == {"generate-rationales"}
        assert handler.calls == calls
        assert tree_files(config.out_dir) == files
        assert stages_run(run(config)) == set()

    def test_no_row_reads_a_file_its_own_stage_writes(self):
        # so each entry of a stage is fresh or stale on its own (`_stage_fresh`)
        for stage, rows in pipeline._STAGE_TABLE.items():
            written = {kind for row in rows.values() for kind in row.writes}
            for name, row in rows.items():
                assert written.isdisjoint(row.reads), f"{stage}/{name}"

    def test_traced_benchmark_records_every_stage(self, tmp_path):
        # the traced benchmark wraps the entries of _STAGE_FNS; a run that
        # called the stage functions another way would read 0 for them
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", TRACED_RUN, str(root / "perfbench" / "spans.py"),
             str(tmp_path / "traced")], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        wall_s = json.loads(result.stdout.splitlines()[-1])
        for metric in ("crop_s", "generate_s", "filter_s", "build_tasks_s", "manifest_s"):
            assert wall_s.get(f"pipeline.{metric}", 0) > 0, metric


def categorized_files(config):
    """The verdict files, and the whole-image ones that earlier versions wrote."""
    return [pipeline.stage_file(config, ds, kind) for ds in config.datasets
            for kind in ("categorized", "whole_categorized")]


def rerecord_filter_manifest(config):
    """Record filter's manifest over its outputs as they are now, so a rerun
    takes the rewritten files for filter's own."""
    entries = pipeline._entries(config, "filter")
    records = pipeline._read_manifest(config.out_dir, "filter")
    pipeline._write_manifest(config.out_dir, "filter", entries,
                             {e.key: records[e.key]["counts"] for e in entries},
                             pipeline._Digests(config.out_dir))


def write_full_format(config):
    """Rewrite the categorized files in the older format, which also repeats
    each crop's question, image and rationale, as a tree written before
    verdict-only lines holds them."""
    for ds in config.datasets:
        path = pipeline.stage_file(config, ds, "categorized")
        crops = {e.example_id: e for e in
                 pipeline._read_examples(pipeline.stage_file(config, ds, "crops"))}
        rationales = pipeline._read_rationales(pipeline.stage_file(config, ds, "crop_rationales"))
        lines = []
        for line in read_lines(path):
            obj = json.loads(line)
            crop = crops[obj["example_id"]]
            lines.append(_dumps({
                "example_id": obj["example_id"], "question": crop.question,
                "image": crop.image.to_json(),
                "rationale": rationales[obj["example_id"]].to_json(),
                "category": obj["category"], "effective_answer": obj["effective_answer"],
                "scores": obj["scores"]}))
        write_lines(path, lines)
    rerecord_filter_manifest(config)


class TestVerdictOnlyFilterFiles:
    """Filter writes verdicts; build-tasks joins them with the crop files."""

    @pytest.mark.parametrize("whole_image", [False, True], ids=["crops", "whole-image"])
    def test_each_line_has_exactly_the_verdict_keys(self, tmp_path, whole_image):
        config = default_mock_config(str(tmp_path / "v"), seed=0)
        config.filter_whole_image = whole_image
        run(config)
        files = [p for p in categorized_files(config) if os.path.exists(p)]
        assert len(files) == 2
        for path in files:
            lines = list(read_lines(path))
            assert lines
            ids = [json.loads(line)["example_id"] for line in lines]
            assert ids == sorted(ids)
            for line in lines:
                assert list(json.loads(line)) == ["example_id", "category",
                                                  "effective_answer", "scores"]

    @pytest.mark.parametrize("whole_image", [False, True], ids=["crops", "whole-image"])
    def test_build_tasks_after_a_skipped_filter_matches_one_run(self, tmp_path, whole_image):
        def config(name):
            c = default_mock_config(str(tmp_path / name), seed=0)
            c.filter_whole_image = whole_image
            return c

        together, resumed = config("together"), config("resumed")
        run(together)
        run(resumed)
        shutil.rmtree(os.path.join(resumed.out_dir, "tasks"))
        summary = run(resumed)
        assert stages_run(summary) == {"build-tasks"}
        assert tree_files(together.out_dir) == tree_files(resumed.out_dir)

    @pytest.mark.parametrize("whole_image", [False, True], ids=["crops", "whole-image"])
    def test_tree_with_full_format_lines_reruns_to_the_same_tasks(self, tmp_path, whole_image):
        def config(name):
            c = default_mock_config(str(tmp_path / name), seed=0)
            c.filter_whole_image = whole_image
            return c

        fresh, old = config("fresh"), config("old")
        run(fresh)
        run(old, ["crop", "generate-rationales", "filter"])
        write_full_format(old)
        assert stages_run(run(old)) == {"build-tasks"}
        assert tree_hashes(old.out_dir) == tree_hashes(fresh.out_dir)

    def test_verdict_without_a_crop_fails_build_tasks(self, tmp_path):
        config = default_mock_config(str(tmp_path / "orphan"), seed=0)
        run(config, ["crop", "generate-rationales", "filter"])
        path = pipeline.stage_file(config, config.datasets[0], "categorized")
        lines = list(read_lines(path))
        write_lines(path, lines + [lines[-1].replace("#c", "#x", 1)])
        rerecord_filter_manifest(config)
        with pytest.raises(StageFailure, match="no crop or crop rationale"):
            run(config)


def load_benchmark_checks():
    """The benchmark's output checks, loaded by path: they import nothing of rdistill."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mock_run_passes_the_benchmark_checks(tmp_path):
    # every benchmark operation runs these checks; a stage-file change that
    # breaks them fails here first
    checks = load_benchmark_checks()
    out_dir = tmp_path / "bench"
    result = CliRunner().invoke(cli.main, ["run", "--mock", "--out-dir", str(out_dir)])
    assert result.exit_code == 0, result.output
    config = default_mock_config(str(out_dir))
    corpus = {ds.name: ds.path for ds in config.datasets}
    assert checks.check_build(corpus, str(out_dir), config.filter.boost_factor,
                              list(config.tasks)) == []


def test_mock_run_with_a_table_less_chart(tmp_path):
    config = default_mock_config(str(tmp_path / "p2t"), seed=0)
    charts = config.datasets[1]
    examples = fixtures.make_chart_examples()
    examples[0] = dataclasses.replace(examples[0], structured_table=None)
    write_lines(charts.path, (serialize_example(e) for e in examples))
    assert validate(config) == []
    assert stages_run(run(config)) == ALL_STAGES
    rationales = pipeline._read_rationales(pipeline.stage_file(config, charts, "rationales"))
    assert rationales["chart00"].table == (("label", "value"), ("chart00", "1"))
    assert rationales["chart01"].table == examples[1].structured_table


def records_by_dataset(out_dir):
    """The records of each task file, by task file and the dataset they come from."""
    by = collections.defaultdict(list)
    for name in os.listdir(os.path.join(out_dir, "tasks")):
        for line in read_lines(os.path.join(out_dir, "tasks", name)):
            dataset = "charts" if json.loads(line)["example_id"].startswith("chart") else "docs"
            by[name, dataset].append(line)
    return by


class _NoValidProgram:
    def write_program(self, *args):
        return "Foo(1)"


def test_a_flagged_crop_rationale_is_no_qraci_target(tmp_path, monkeypatch, mock_run):
    # a programmer whose every program `dsl.parse` refuses flags every chart
    # rationale; only a relevant-not-useful crop of them trains a task, APRCI
    def clients(config):
        c = fixtures.make_mock_clients(seed=config.mock_seed)
        c.programmer = _NoValidProgram()
        return c

    monkeypatch.setattr(pipeline, "make_clients", clients)
    config = default_mock_config(str(tmp_path / "flagged"), seed=0)
    run(config)
    charts = config.datasets[1]
    for kind in ("rationales", "crop_rationales"):
        rationales = pipeline._read_rationales(pipeline.stage_file(config, charts, kind))
        assert rationales and all(r.flagged and r.table and r.program_source == ""
                                  for r in rationales.values())
    verdicts = pipeline._read_verdicts(pipeline.stage_file(config, charts, "categorized"))
    records, plain = records_by_dataset(config.out_dir), records_by_dataset(mock_run[0].out_dir)
    assert len(records["QRACI.jsonl", "charts"]) == len(records["QRA.jsonl", "charts"]) == 0
    assert len(records["APRCI.jsonl", "charts"]) == 12 == \
        sum(v.category == "relevant-not-useful" for v in verdicts)
    assert {key: lines for key, lines in records.items() if key[1] == "docs"} == \
        {key: lines for key, lines in plain.items() if key[1] == "docs"}


@pytest.mark.parametrize("name", ["mock", "fc"])
def test_crop_tasks_hold_each_routed_kept_crop_once(name, mock_run, fc_run):
    config, summary = {"mock": mock_run, "fc": fc_run}[name]
    routed = {"QRACI": [], "APRCI": []}
    for ds in config.datasets:
        rationales = pipeline._read_rationales(
            pipeline.stage_file(config, ds, "crop_rationales"))
        for verdict in pipeline._read_verdicts(pipeline.stage_file(config, ds, "categorized")):
            task = tasks.crop_task(verdict.category, rationales[verdict.example_id].flagged)
            if task is not None:
                routed[pipeline.TASK_NAMES[task]].append(verdict.example_id)
    for task, ids in routed.items():
        written = [json.loads(line)["example_id"]
                   for line in read_lines(os.path.join(config.out_dir, "tasks", f"{task}.jsonl"))]
        assert sorted(written) == sorted(ids) and len(set(written)) == len(written)
    kept = sum(counts["kept"] for counts in summary["filter"].values())
    assert len(routed["QRACI"]) + len(routed["APRCI"]) == kept
    if name == "mock":
        assert (len(routed["QRACI"]), len(routed["APRCI"])) == (27, 35)


@pytest.mark.parametrize("name", ["mock", "fc", "no-valid-program"])
def test_the_balance_counts_only_crops_a_task_takes(name, mock_run, fc_run, tmp_path,
                                                     monkeypatch):
    # filter leaves a flagged useful or irrelevant crop out before balancing,
    # so each balance report counts exactly what the crop tasks hold
    if name == "no-valid-program":
        def clients(config):
            c = fixtures.make_mock_clients(seed=config.mock_seed)
            c.programmer = _NoValidProgram()
            return c

        monkeypatch.setattr(pipeline, "make_clients", clients)
        config = default_mock_config(str(tmp_path / "flagged"), seed=0)
        run(config)
    else:
        config, _ = {"mock": mock_run, "fc": fc_run}[name]
    records = records_by_dataset(config.out_dir)
    for ds in config.datasets:
        with open(pipeline.stage_file(config, ds, "balance"), encoding="utf-8") as f:
            report = json.load(f)
        answers = [parse_answer(json.loads(line)["decoder_output"])
                   for line in records["QRACI.jsonl", ds.name]]
        assert (report["n_good_r"], report["n_none_kept"], report["n_bad_r"]) == \
            (sum(a != "None" for a in answers), answers.count("None"),
             len(records["APRCI.jsonl", ds.name]))
    if name == "no-valid-program":   # every chart rationale is flagged
        assert report["n_good_r"] == report["n_none"] == 0 < report["n_bad_r"]


def spy_stage(monkeypatch, stage, error=None):
    """Patch `_STAGE_FNS[stage]` to note the key of each entry it is called
    for and, with `error`, to raise it at the second; returns the keys."""
    keys, make = [], pipeline._STAGE_FNS[stage]

    def spy(config, handoff, entry):
        keys.append(entry.key)
        if error is not None and len(keys) == 2:
            raise error
        return make(config, handoff, entry)

    monkeypatch.setitem(pipeline._STAGE_FNS, stage, spy)
    return keys


def manifest_writes(monkeypatch):
    """The stage of each manifest written from now on, in order."""
    stages, write = [], pipeline._write_manifest

    def spy(out_dir, stage, *args):
        stages.append(stage)
        return write(out_dir, stage, *args)

    monkeypatch.setattr(pipeline, "_write_manifest", spy)
    return stages


class TestFailedStageKeepsFinishedEntries:
    """A stage that fails, or is interrupted, at an entry records the entries
    that finished; its rerun makes only the others."""

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["failure", "interrupt"])
    def test_rerun_makes_only_the_unfinished_entries(self, tmp_path, monkeypatch, error):
        config = default_mock_config(str(tmp_path / "resumed"), seed=0)
        writes, keys = manifest_writes(monkeypatch), spy_stage(monkeypatch, "crop", error)
        interrupt = isinstance(error, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt if interrupt else StageFailure) as exc:
            run(config)
        if interrupt:
            assert exc.value is error   # not wrapped
        else:
            # the failing entry is named: an HTTP failure names only its URL
            assert str(exc.value) == "stage 'crop' failed in entry 'charts.crops': disk full"
            assert (exc.value.stage, exc.value.cause) == ("crop", error)
        assert keys == ["docs.crops", "charts.crops"]
        assert writes == ["crop"]
        assert set(pipeline._read_manifest(config.out_dir, "crop")) == {"docs.crops"}

        monkeypatch.undo()
        keys = spy_stage(monkeypatch, "crop")
        assert stages_run(run(config)) == ALL_STAGES
        assert keys == ["charts.crops"]
        cold = default_mock_config(str(tmp_path / "cold"), seed=0)
        run(cold)
        assert tree_files(config.out_dir) == tree_files(cold.out_dir)
        corpus = {ds.name: ds.path for ds in config.datasets}
        assert load_benchmark_checks().check_build(
            corpus, config.out_dir, config.filter.boost_factor, list(config.tasks)) == []

    def test_a_stage_that_runs_writes_its_manifest_once(self, tmp_path, monkeypatch):
        writes = manifest_writes(monkeypatch)
        config = default_mock_config(str(tmp_path / "once"), seed=0)
        run(config)
        assert writes == list(pipeline.STAGES)
        writes.clear()
        config.filter = FilterConfig(boost_factor=3.0)
        run(config)
        assert writes == ["filter", "build-tasks"]


@pytest.fixture
def caller_collector():
    """Set the collector as a caller might, with thresholds of its own and
    objects it froze, and restore the test process's settings afterwards."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(555, 7, 9)
    gc.freeze()
    yield
    gc.unfreeze()
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


def collector_seen(monkeypatch):
    """Whether the collector was on, noted when `validate` and each stage
    function are called from now on."""
    seen = []

    def noting(fn):
        def spy(*args):
            seen.append(gc.isenabled())
            return fn(*args)
        return spy

    monkeypatch.setattr(pipeline, "validate", noting(pipeline.validate))
    for stage, fn in pipeline._STAGE_FNS.items():
        monkeypatch.setitem(pipeline._STAGE_FNS, stage, noting(fn))
    return seen


class TestCollectorPause:
    """`run` pauses the cyclic collector and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("outcome", ["success", "stage-failure", "interrupt",
                                         "config-error"])
    def test_run_restores_the_callers_collector(self, tmp_path, monkeypatch,
                                                caller_collector, enabled, outcome):
        config = default_mock_config(str(tmp_path / "out"), seed=0)
        if outcome == "stage-failure":     # a broken dataset line
            path = config.datasets[1].path
            lines = list(read_lines(path))
            write_lines(path, [lines[0], '{"example_id": "broken"'] + lines[1:])
        elif outcome == "interrupt":
            spy_stage(monkeypatch, "filter", KeyboardInterrupt())
        elif outcome == "config-error":
            config.tasks = ("qra", "bogus")
        seen = collector_seen(monkeypatch)
        (gc.enable if enabled else gc.disable)()
        before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
        raised = {"success": contextlib.nullcontext(), "stage-failure": pytest.raises(StageFailure),
                  "interrupt": pytest.raises(KeyboardInterrupt),
                  "config-error": pytest.raises(pipeline.ConfigError)}[outcome]
        with raised:
            run(config)
        assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before
        # validate, then every stage function called, saw the collector off
        assert len(seen) >= (1 if outcome == "config-error" else 2)
        assert not any(seen)

    def test_a_run_leaves_no_more_cyclic_garbage_on_a_larger_corpus(self, tmp_path):
        """The pause's premise: a run's cyclic garbage does not grow with the
        corpus, so a paused collector keeps nothing that does."""
        def garbage(copies):
            config = default_mock_config(str(tmp_path / f"x{copies}"), seed=0)
            for ds in config.datasets:
                objs = [json.loads(line) for line in read_lines(ds.path)]
                write_lines(ds.path, [json.dumps(dict(
                    obj, example_id=f"{obj['example_id']}-{k}",
                    image=dict(obj["image"], id=f"{obj['image']['id']}-{k}")))
                    for k in range(copies) for obj in objs])
            enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                run(config)
                return gc.collect()
            finally:
                if enabled:
                    gc.enable()

        assert garbage(4) <= garbage(1)


class TestStageIsolation:
    def test_filter_failure_leaves_crop_outputs(self, tmp_path):
        config = default_mock_config(str(tmp_path / "runf"), seed=0)
        run(config, ["crop", "generate-rationales"])
        crops = os.path.join(config.out_dir, "docs.crops.jsonl")
        assert os.path.exists(crops)
        scores = pipeline.stage_file(config, config.datasets[0], "scores")
        lines = list(read_lines(scores))
        write_lines(scores, lines[:-1] + [lines[-1][:-5]])     # a torn last line
        with pytest.raises(StageFailure) as exc:
            run(config, ["filter"])
        assert exc.value.stage == "filter"
        assert f"line {len(lines)}" in str(exc.value)
        assert os.path.exists(crops)

    def test_generate_needs_a_verifier(self, tmp_path):
        config = default_mock_config(str(tmp_path / "noverifier"), seed=0)
        config.mock = False     # no endpoint configured
        with pytest.raises(pipeline.ConfigError) as exc:
            run(config)
        assert "no endpoint configured for tool 'verifier' (and mock mode off)" \
            in exc.value.diagnostics
        assert os.listdir(config.out_dir) == ["data"]   # crop wrote nothing

    @pytest.mark.parametrize("change", [
        lambda lines: lines[1:],                                       # a crop without scores
        lambda lines: lines + [lines[-1].replace("#c", "#x", 1)],      # scores without a crop
        lambda lines: [lines[1], lines[0]] + lines[2:],                # not sorted
    ], ids=["missing", "extra", "unsorted"])
    def test_filter_rejects_scores_that_do_not_match_the_crops(self, tmp_path, change):
        config = default_mock_config(str(tmp_path / "mismatch"), seed=0)
        run(config, ["crop", "generate-rationales"])
        scores = pipeline.stage_file(config, config.datasets[0], "scores")
        write_lines(scores, change(list(read_lines(scores))))
        with pytest.raises(StageFailure, match="scores") as exc:
            run(config, ["filter"])
        assert isinstance(exc.value.cause, MalformedRecord)

    def test_filter_rejects_a_crop_without_a_rationale(self, tmp_path):
        # filter reads each crop's rationale, for its flag, before balancing
        config = default_mock_config(str(tmp_path / "unexplained"), seed=0)
        run(config, ["crop", "generate-rationales"])
        path = pipeline.stage_file(config, config.datasets[0], "crop_rationales")
        write_lines(path, list(read_lines(path))[1:])
        with pytest.raises(StageFailure, match=re.escape(f"{path}: no crop rationale for ")) \
                as exc:
            run(config, ["filter"])
        assert isinstance(exc.value.cause, MalformedRecord)

    def test_a_malformed_line_is_named_by_its_line_in_the_file(self, tmp_path):
        config = default_mock_config(str(tmp_path / "numbered"), seed=0)
        run(config, ["crop", "generate-rationales"])
        scores = pipeline.stage_file(config, config.datasets[0], "scores")
        lines = list(read_lines(scores))
        write_lines(scores, [lines[0], "", lines[1][:-1]] + lines[2:])
        with pytest.raises(StageFailure, match=re.escape(f"{scores}: line 3: ")) as exc:
            run(config, ["filter"])
        assert isinstance(exc.value.cause, MalformedRecord)

    @pytest.mark.parametrize("bad,reason", [
        ("lone-surrogate", "lone surrogate \\ud800"),
        ("not-json", "not JSON ("),
        ({"evidence": 5}, "evidence 5 is not a string"),
        ({"program_source": None}, "program_source None is not a string"),
        ({"flagged": "no"}, "flagged 'no' is not a bool"),
        ({"table": ["ab"]}, "table ['ab'] is not a list of lists of strings"),
        ({"table": [["a", 1]]}, "table [['a', 1]] is not a list of lists of strings"),
    ], ids=["lone-surrogate", "not-json", "evidence-int", "program_source-null",
            "flagged-string", "table-of-strings", "table-int-cell"])
    def test_a_bad_rationale_line_is_named_by_its_file_and_line(self, tmp_path, bad, reason):
        config = default_mock_config(str(tmp_path / "rationales"), seed=0)
        run(config, ["crop", "generate-rationales", "filter"])
        path = pipeline.stage_file(config, config.datasets[0], "rationales")
        lines = list(read_lines(path))
        if bad == "not-json":
            lines[1] = "{" + lines[1][2:]
        else:
            obj = json.loads(lines[1])
            if bad == "lone-surrogate":
                obj["rationale"]["evidence"] += "\ud800"
            else:
                obj["rationale"].update(bad)
            lines[1] = json.dumps(obj)
        write_lines(path, lines)
        with pytest.raises(StageFailure, match=re.escape(f"{path}: line 2: {reason}")) as exc:
            run(config, ["build-tasks"])
        assert isinstance(exc.value.cause, MalformedRecord)


def with_lone_surrogate(line: str) -> str:
    """`line` with a lone high surrogate, escaped as JSON must, in its question."""
    obj = json.loads(line)
    obj["question"] += "\ud800"
    return json.dumps(obj)


class TestDuplicateExampleIds:
    """An example_id names one example: a second is refused, not merged."""

    def test_a_second_line_of_an_id_fails_crop_before_any_tool_call(self, tmp_path,
                                                                  monkeypatch):
        config = default_mock_config(str(tmp_path / "dup"), seed=0)
        path = config.datasets[0].path
        lines = list(read_lines(path))
        copy = {**json.loads(lines[1]), "example_id": json.loads(lines[0])["example_id"]}
        write_lines(path, lines + [json.dumps(copy)])
        made = construction_spy(monkeypatch)
        with pytest.raises(StageFailure, match=re.escape(
                f"{path}: line {len(lines) + 1}: duplicate example_id 'doc00', "
                "first at line 1")) as exc:
            run(config)
        assert exc.value.stage == "crop" and isinstance(exc.value.cause, MalformedRecord)
        assert made == []

    @pytest.mark.parametrize("kind", ["rationales", "crop_rationales"])
    def test_a_second_rationale_line_of_an_id_fails_build_tasks(self, tmp_path, kind):
        config = default_mock_config(str(tmp_path / kind), seed=0)
        run(config)
        path = pipeline.stage_file(config, config.datasets[0], kind)
        lines = list(read_lines(path))
        copy = json.loads(lines[0])
        copy["rationale"]["evidence"] = "SECOND COPY"
        write_lines(path, lines + [json.dumps(copy)])
        with pytest.raises(StageFailure, match=re.escape(
                f"{path}: line {len(lines) + 1}: duplicate example_id "
                f"{copy['example_id']!r}, first at line 1")) as exc:
            run(config, ["build-tasks"])
        assert exc.value.stage == "build-tasks" and isinstance(exc.value.cause, MalformedRecord)

    def test_an_id_in_two_datasets_fails_build_tasks(self, tmp_path):
        # APR would give it the fold of the subset planned last
        config = default_mock_config(str(tmp_path / "across"), seed=0)
        docs, charts = config.datasets
        write_lines(charts.path, list(read_lines(charts.path)) + [next(read_lines(docs.path))])
        with pytest.raises(StageFailure, match="'doc00' appears in subset 'charts' and "
                                               "again in 'docs'") as exc:
            run(config)
        assert exc.value.stage == "build-tasks"


def rewrite_line(path, line_no, **fields):
    """Set `fields` in line `line_no` of the JSONL file `path`."""
    lines = list(read_lines(path))
    lines[line_no - 1] = json.dumps({**json.loads(lines[line_no - 1]), **fields})
    write_lines(path, lines)


# a dataset field value the parser refuses, and the reason it gives
BLANK_INPUTS = {"blank-gold": ({"gold_answers": [" \t"]}, "gold answer ' \\t' is blank"),
                "ocr-without-boxes": ({"ocr_boxes": None}, "ocr_text without ocr_boxes")}


class TestBlankInputsStopWhereTheyEnter:
    """A blank gold answer and OCR text without boxes are refused by the
    parse that reads them, naming the file and line; a blank evidence is a
    flagged rationale, and a rationale file without an example's line names
    the example."""

    @pytest.mark.parametrize("bad", BLANK_INPUTS)
    def test_crop_names_the_line_before_any_tool_call(self, tmp_path, monkeypatch, bad):
        fields, reason = BLANK_INPUTS[bad]
        config = default_mock_config(str(tmp_path / bad), seed=0)
        path = config.datasets[0].path
        rewrite_line(path, 3, **fields)
        made = construction_spy(monkeypatch)
        with pytest.raises(StageFailure, match=re.escape(
                f"{path}: line 3: example 'doc02': {reason}")) as exc:
            run(config)
        assert exc.value.stage == "crop" and isinstance(exc.value.cause, MalformedRecord)
        assert made == []
        assert not os.path.exists(pipeline.stage_file(config, config.datasets[0], "rationales"))

    @pytest.mark.parametrize("bad", BLANK_INPUTS)
    def test_validate_names_a_first_line(self, tmp_path, bad):
        fields, reason = BLANK_INPUTS[bad]
        config = default_mock_config(str(tmp_path / bad), seed=0)
        path = config.datasets[0].path
        rewrite_line(path, 1, **fields)
        assert validate(config) == [f"dataset 'docs': malformed first record ({path}: line 1: "
                                    f"example 'doc00': {reason})"]

    def test_a_blank_evidence_is_flagged_and_trains_no_rationale_target(
            self, tmp_path, monkeypatch, mock_run):
        # doc01's evidence, for the page and each crop, is blank
        doc01 = fixtures.make_doc_examples()[1]

        def clients(config):
            c = fixtures.make_mock_clients(seed=config.mock_seed)
            c.summarizer.fixtures[doc01.question, doc01.canonical_answer] = " \n"
            return c

        monkeypatch.setattr(pipeline, "make_clients", clients)
        config = default_mock_config(str(tmp_path / "blank"), seed=0)
        run(config)
        docs = config.datasets[0]
        for kind in ("rationales", "crop_rationales"):
            rationales = pipeline._read_rationales(pipeline.stage_file(config, docs, kind))
            blank = {i for i, r in rationales.items() if r.flagged}
            assert blank and {i.split("#")[0] for i in blank} == {"doc01"}
            assert all(rationales[i] == Rationale("text_evidence", flagged=True) for i in blank)
        records, plain = records_by_dataset(config.out_dir), records_by_dataset(mock_run[0].out_dir)
        qra = [json.loads(line)["example_id"] for line in records["QRA.jsonl", "docs"]]
        assert qra == [json.loads(line)["example_id"] for line in plain["QRA.jsonl", "docs"]
                       if json.loads(line)["example_id"] != "doc01"]
        for line in records["QRACI.jsonl", "docs"] + records["QRA.jsonl", "docs"]:
            assert parse_target(json.loads(line)["decoder_output"]).rationale.strip()

    def test_a_missing_rationale_line_names_its_example(self, tmp_path):
        config = default_mock_config(str(tmp_path / "missing"), seed=0)
        run(config)
        path = pipeline.stage_file(config, config.datasets[0], "rationales")
        write_lines(path, list(read_lines(path))[1:])
        result = CliRunner().invoke(cli.main, ["run", "--stages", "build-tasks", "--mock",
                                               "--out-dir", config.out_dir])
        assert result.exit_code == 1, result.output
        assert "stage 'build-tasks' failed in entry 'qra': no rationale for example 'doc00'" \
            in result.output


# what spoils a dataset line: a blank or None-sentinel gold answer, or OCR text without boxes
SPOILS = st.sampled_from(["", "  ", "\t\n", "None", " None ", "no-boxes"])
DRAWN_EVIDENCE = st.sampled_from(["", " ", "\n", "The page says so."])


@st.composite
def drawn_dataset(draw, make_examples):
    """3 to 6 bundled examples, some of their lines spoilt, and a drawn,
    possibly blank, summarizer evidence for each; with the numbers of the
    spoilt lines."""
    examples = make_examples()[:draw(st.integers(3, 6))]
    spoilt = draw(st.dictionaries(st.integers(1, len(examples)), SPOILS, max_size=2))
    for line_no, spoil in spoilt.items():
        ex = examples[line_no - 1]
        examples[line_no - 1] = dataclasses.replace(ex, ocr_boxes=None) if spoil == "no-boxes" \
            else dataclasses.replace(ex, gold_answers=(spoil,) + ex.gold_answers[1:])
    evidence = {(ex.question, ex.canonical_answer): draw(DRAWN_EVIDENCE) for ex in examples}
    return examples, evidence, sorted(spoilt)


BLANK_EVIDENCE = {(ex.question, ex.canonical_answer): " "
                  for ex in fixtures.make_doc_examples()[:3]}


@settings(max_examples=60, deadline=None)
@given(docs=drawn_dataset(fixtures.make_doc_examples),
       charts=drawn_dataset(fixtures.make_chart_examples))
@example(docs=(fixtures.make_doc_examples()[:3], BLANK_EVIDENCE, []),
         charts=(fixtures.make_chart_examples()[:3], {}, []))
def test_a_drawn_run_stops_at_the_first_parse_or_trains_only_rationales(tmp_path_factory, docs,
                                                                        charts):
    """A run is refused at the first line a whole parse refuses, before any
    rationale is made, or it finishes with a rationale in every QRA and
    QRACI target."""
    config = default_mock_config(str(tmp_path_factory.mktemp("drawn")), seed=0, write=False)
    evidence = {}
    for ds, (examples, drawn, _) in zip(config.datasets, (docs, charts)):
        os.makedirs(os.path.dirname(ds.path), exist_ok=True)
        write_lines(ds.path, map(serialize_example, examples))
        evidence.update(drawn)

    def clients(config):
        c = fixtures.make_mock_clients(seed=config.mock_seed)
        c.summarizer.fixtures.update(evidence)
        return c

    spoilt = [(ds.path, lines[0]) for ds, (_, _, lines) in zip(config.datasets, (docs, charts))
              if lines]
    # the config check parses each first line; else crop parses the datasets in turn
    first = ([(path, n) for path, n in spoilt if n == 1] or spoilt)[:1]
    with unittest.mock.patch.object(pipeline, "make_clients", clients):
        if first:
            with pytest.raises((StageFailure, pipeline.ConfigError),
                               match=re.escape("{}: line {}: ".format(*first[0]))):
                run(config)
            assert not [name for name in os.listdir(config.out_dir)
                        if name.endswith(".rationales.jsonl")]
            return
        run(config)
    for name in ("QRA", "QRACI"):
        for line in read_lines(os.path.join(config.out_dir, "tasks", f"{name}.jsonl")):
            assert parse_target(json.loads(line)["decoder_output"]).rationale.strip()


class TestLoneSurrogates:
    """A dataset line whose JSON escapes a lone surrogate is valid JSON but no
    UTF-8 text: it is a malformed record, named by its file and line, found
    before a stage writes anything."""

    def test_crop_names_the_file_and_line(self, tmp_path):
        config = default_mock_config(str(tmp_path / "s"), seed=0)
        path = config.datasets[0].path
        lines = list(read_lines(path))
        lines[2] = with_lone_surrogate(lines[2])
        write_lines(path, lines)
        with pytest.raises(StageFailure, match=re.escape(f"{path}: line 3: ")) as exc:
            run(config, ["crop"])
        assert isinstance(exc.value.cause, MalformedRecord)
        assert not [name for name in os.listdir(config.out_dir) if name.endswith(".partial")]

    def test_validate_names_the_file_and_line(self, tmp_path):
        config = default_mock_config(str(tmp_path / "v"), seed=0)
        path = config.datasets[0].path
        lines = list(read_lines(path))
        write_lines(path, [""] + [with_lone_surrogate(lines[0])] + lines[1:])
        diags = validate(config)
        assert len(diags) == 1 and f"{path}: line 2: " in diags[0], diags
        result = CliRunner().invoke(cli.main, ["validate", "--mock", "--out-dir", config.out_dir])
        assert result.exit_code == 2 and f"{path}: line 2: lone surrogate" in result.output


class TestValidate:
    def test_valid_mock_config(self, tmp_path):
        config = default_mock_config(str(tmp_path / "v1"))
        assert validate(config) == []

    def test_missing_dataset_path(self, tmp_path):
        config = default_mock_config(str(tmp_path / "v2"))
        config.datasets[0].path = str(tmp_path / "nope.jsonl")
        assert any("does not exist" in d for d in validate(config))

    def test_no_endpoints_without_mock(self, tmp_path):
        config = default_mock_config(str(tmp_path / "v4"))
        config.mock = False
        diags = validate(config)
        assert any("verifier" in d for d in diags)

    def test_a_first_record_is_parsed_whole_only_for_the_stages_that_read_it(self, tmp_path):
        # only crop and generate-rationales read OCR boxes
        config = default_mock_config(str(tmp_path / "v5"))
        path = config.datasets[0].path
        lines = list(read_lines(path))
        write_lines(path, [_dumps({**json.loads(lines[0]), "ocr_boxes": [[1]]})] + lines[1:])
        assert validate(config, ["filter", "build-tasks"]) == []
        for stages in (None, ["crop"], ["generate-rationales", "build-tasks"]):
            diags = validate(config, stages)
            assert len(diags) == 1 and "malformed first record" in diags[0], (stages, diags)


class TestTemplateGate:
    """A template is checked where it is loaded: `validate` reports one whose
    body is not UTF-8 or holds a placeholder no client binds, with mock tools
    or without, and `run` refuses it before out_dir exists."""

    @pytest.mark.parametrize("body,named", [
        (b"Q: {question} {hint}", "unknown placeholder {hint}; "),
        (b"\xffQ: {question}", "'utf-8' codec can't decode byte 0xff")], ids=["hint", "latin"])
    @pytest.mark.parametrize("mock", [True, False], ids=["mock", "http"])
    def test_validate_and_run_refuse_it(self, tmp_path, mock_data_dir, body, named, mock):
        template = tmp_path / "summarizer.txt"
        template.write_bytes(body)
        config = default_mock_config(mock_data_dir)
        config.out_dir, config.mock = str(tmp_path / "out"), mock
        config.tasks = tuple(key for key in config.tasks if key != "apr")
        config.endpoints = {t: f"http://127.0.0.1:9/{t}"
                            for t in ("summarizer", "programmer", "verifier")}
        config.templates = {"summarizer": str(template)}
        diags = validate(config)
        assert len(diags) == 1 and diags[0].startswith(f"template 'summarizer': {named}"), diags
        assert validate(config, ["crop", "filter", "build-tasks"]) == []
        with pytest.raises(pipeline.ConfigError) as exc:
            run(config)
        assert exc.value.diagnostics == diags
        assert not os.path.exists(config.out_dir)

    def test_a_template_spoilt_after_the_gate_fails_its_stage(self, tmp_path, monkeypatch):
        template = tmp_path / "summarizer.txt"
        template.write_text("Q: {question} {hint}")
        config = default_mock_config(str(tmp_path / "late"), seed=0)
        config.templates = {"summarizer": str(template)}
        monkeypatch.setattr(pipeline, "validate", lambda *args: [])
        with pytest.raises(StageFailure, match="unknown placeholder") as exc:
            run(config)
        assert exc.value.stage == "generate-rationales"


def http_config(data_dir, flows, tools):
    """A non-mock config over the bundled datasets of `flows`, with endpoints for `tools`."""
    config = default_mock_config(data_dir)
    config.mock = False
    config.tasks = ("qra", "qraci", "apraci", "qid", "ans-only")
    config.datasets = [ds for ds in config.datasets if ds.flow in flows]
    config.endpoints = {t: f"http://127.0.0.1:9/{t}" for t in tools}
    return config


class TestEndpointsPerFlow:
    """`validate` asks for exactly the endpoints the configured flows call."""

    def test_chart_only_config_needs_a_programmer(self, mock_data_dir):
        config = http_config(mock_data_dir, {"table-program"}, ("summarizer", "verifier"))
        assert validate(config) == [
            "no endpoint configured for tool 'programmer' (and mock mode off)"]

    def test_chart_only_config_needs_no_summarizer(self, mock_data_dir):
        config = http_config(mock_data_dir, {"table-program"}, ("programmer", "verifier"))
        assert validate(config) == []

    def test_docs_only_config_needs_no_programmer(self, mock_data_dir):
        config = http_config(mock_data_dir, {"text-evidence"}, ("summarizer", "verifier"))
        assert validate(config) == []

    @pytest.mark.parametrize("flows", [{"text-evidence"}, {"table-program"}])
    def test_every_config_needs_a_verifier(self, mock_data_dir, flows):
        config = http_config(mock_data_dir, flows, ("summarizer", "programmer"))
        assert validate(config) == [
            "no endpoint configured for tool 'verifier' (and mock mode off)"]

    def test_ocr_needed_when_the_first_record_has_no_ocr_text(self, tmp_path, mock_data_dir):
        examples = fixtures.make_doc_examples()
        examples[0] = dataclasses.replace(examples[0], ocr_text="", ocr_boxes=None)
        write_lines(tmp_path / "docs.jsonl", (serialize_example(e) for e in examples))
        config = http_config(mock_data_dir, {"text-evidence"}, ("summarizer", "verifier"))
        config.datasets[0].path = str(tmp_path / "docs.jsonl")
        assert validate(config) == [
            "dataset 'docs': first record has no ocr_text and no endpoint is "
            "configured for tool 'ocr'"]
        config.endpoints["ocr"] = "http://127.0.0.1:9/ocr"
        assert validate(config) == []
        config.endpoints.pop("ocr")
        config.mock = True
        assert validate(config) == []

    @pytest.mark.parametrize("url", [None, ""], ids=["null", "empty"])
    def test_a_null_or_empty_url_is_no_endpoint(self, tmp_path, mock_data_dir, url):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(json.dumps({
            "tasks": ["qra", "qid"],
            "tools": {"endpoints": {"summarizer": "http://127.0.0.1:9/s", "verifier": url}},
            "datasets": [{"name": "docs", "path": f"{mock_data_dir}/data/docs.jsonl",
                          "flow": "text-evidence"}]}))
        result = CliRunner().invoke(cli.main, ["validate", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert result.output == ("config error: no endpoint configured for tool 'verifier' "
                                 "(and mock mode off)\n")


class TestMaxRetries:
    """`tools.max_retries` counts the programmer's attempts, and the retries
    after an HTTP request's first attempt: below 1, no program is ever asked for."""

    @pytest.mark.parametrize("value", [0, -1, 1.5, "3", True, None])
    def test_anything_but_a_positive_integer_is_rejected(self, mock_data_dir, value):
        config = default_mock_config(mock_data_dir)
        config.max_retries = value
        assert validate(config) == [
            f"tools.max_retries {value!r}: not an integer >= 1, the programmer's attempts "
            "per rationale and the retries of an HTTP request"]
        # only generate-rationales reads it
        assert validate(config, ["crop", "filter", "build-tasks"]) == []

    @pytest.mark.parametrize("value", [1, 3])
    def test_a_positive_integer_is_accepted(self, mock_data_dir, value):
        config = default_mock_config(mock_data_dir)
        config.max_retries = value
        assert validate(config) == []

    def test_run_exits_2_before_any_stage(self, tmp_path, mock_data_dir):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"), "tools": {"mock": True, "max_retries": 0},
            "datasets": [{"name": "charts", "path": f"{mock_data_dir}/data/charts.jsonl",
                          "flow": "table-program"}]}))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "config error: tools.max_retries 0: " in result.output
        assert not os.path.exists(tmp_path / "out")


@pytest.fixture(scope="module")
def mock_data_dir(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("validate"))
    default_mock_config(out_dir)
    return out_dir


TASK_KEYS = ("qra", "apr", "qraci", "apraci", "qid", "ans-only")
task_keys = st.sampled_from(TASK_KEYS) | st.text(min_size=1, max_size=8)


class TestValidateProperties:
    """Configs that would fail at a later stage are rejected before the first."""

    @given(tasks=st.lists(task_keys, max_size=8))
    def test_flags_exactly_the_unknown_task_keys(self, mock_data_dir, tasks):
        config = default_mock_config(mock_data_dir)
        config.tasks = tuple(tasks)
        flagged = {d.rsplit("; known tasks:", 1)[0] for d in validate(config)
                   if d.startswith("unknown task")}
        assert flagged == \
            {f"unknown task {k!r}" for k in tasks if k not in TASK_KEYS}

    @given(names=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5))
    def test_flags_exactly_the_duplicate_dataset_names(self, mock_data_dir, names):
        config = default_mock_config(mock_data_dir)
        config.datasets = [DatasetConfig(n, config.datasets[0].path, "text-evidence")
                           for n in names]
        flagged = {d.split(":")[0] for d in validate(config) if "duplicate name" in d}
        assert flagged == {f"dataset {n!r}" for n in names if names.count(n) > 1}

    @given(mock=st.booleans(),
           tasks=st.lists(st.sampled_from(TASK_KEYS), min_size=1, unique=True))
    def test_apr_needs_mock_students(self, mock_data_dir, mock, tasks):
        config = default_mock_config(mock_data_dir)
        config.mock = mock
        config.endpoints = {t: f"http://127.0.0.1:9/{t}"
                            for t in ("summarizer", "programmer", "verifier")}
        config.tasks = tuple(tasks)
        assert (validate(config) != []) == (not mock and "apr" in tasks)

    def test_run_exits_before_any_stage(self, tmp_path, mock_data_dir):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            f"out_dir: {tmp_path / 'out'}\n"
            f"datasets:\n  - name: docs\n    path: {mock_data_dir}/data/docs.jsonl\n"
            "    flow: text-evidence\n"
            "tasks: [qra, qraci, ans_only]\n"
            "tools:\n  mock: true\n")
        result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "unknown task 'ans_only'" in result.output
        assert not os.path.exists(tmp_path / "out")


GENERATE, BUILD = {"generate-rationales"}, {"build-tasks"}
# Defects a config can carry: the stages whose runs report it (None: every
# run, even of no stage), whether only HTTP tools make it one, and the change
# that makes it. "no-datasets" comes last, as it drops what the others change.
CONFIG_DEFECTS = {
    "missing-dataset": (None, False,
                        lambda c: setattr(c.datasets[0], "path", c.datasets[0].path + ".gone")),
    "duplicate-dataset": (None, False, lambda c: c.datasets.append(c.datasets[0])),
    "crop-mode": ({"crop"}, False, lambda c: setattr(c, "crop_mode", "tiles")),
    "counter": (GENERATE | BUILD, False, lambda c: setattr(c, "counter", "bpe")),
    "max-retries": (GENERATE, False, lambda c: setattr(c, "max_retries", 0)),
    "template": (GENERATE, False,
                 lambda c: c.templates.update(programmer="/gone")),
    "unknown-task": (BUILD, False, lambda c: setattr(c, "tasks", c.tasks + ("qa",))),
    "apr": (BUILD, True, lambda c: setattr(c, "tasks", c.tasks + ("apr",))),
    "bad-url": (GENERATE, False, lambda c: c.endpoints.update(summarizer="localhost:9/s")),
    "empty-programmer": (GENERATE, True, lambda c: c.endpoints.update(programmer="")),
    "null-verifier": (GENERATE, True, lambda c: c.endpoints.update(verifier=None)),
    "unknown-space": ({"filter"}, False,
                      lambda c: setattr(c, "filter", dataclasses.replace(c.filter, space="odds"))),
    "boost-below-one": ({"filter"}, False, lambda c: setattr(
        c, "filter", dataclasses.replace(c.filter, boost_factor=0.5))),
    "unknown-flow": (None, False, lambda c: setattr(c.datasets[0], "flow", "ocr")),
    "no-datasets": (None, False, lambda c: c.datasets.clear()),
}


class _Reached(Exception):
    """Raised in place of a stage: `run` got past its config check."""


def reached(config, handoff, entries):
    raise _Reached


class TestOneConfigGate:
    """`run` checks exactly the settings its stages read, before out_dir exists."""

    @given(defects=st.sets(st.sampled_from(list(CONFIG_DEFECTS))), mock=st.booleans(),
           stages=st.none() | st.lists(st.sampled_from(pipeline.STAGES), unique=True))
    def test_run_raises_the_diagnostics_of_its_stages(self, mock_data_dir, defects, mock,
                                                      stages):
        config = default_mock_config(mock_data_dir)
        config.out_dir = os.path.join(mock_data_dir, "gate")
        config.mock = mock
        config.tasks = ("qra", "qraci", "apraci", "qid", "ans-only")
        config.endpoints = {t: f"http://127.0.0.1:9/{t}"
                            for t in ("summarizer", "programmer", "verifier")}
        selected = set(pipeline.STAGES if stages is None else stages)
        for name, (_, _, change) in CONFIG_DEFECTS.items():
            if name in defects:
                change(config)
        reported = [name for name in defects if not (CONFIG_DEFECTS[name][1] and mock)
                    and (CONFIG_DEFECTS[name][0] is None or CONFIG_DEFECTS[name][0] & selected)]
        diags = validate(config, stages)
        assert bool(diags) == bool(reported)
        assert not collections.Counter(diags) - collections.Counter(validate(config))
        try:
            with unittest.mock.patch.dict(pipeline._STAGE_FNS,
                                          dict.fromkeys(pipeline.STAGES, reached)):
                run(config, stages)
        except pipeline.ConfigError as e:
            assert e.diagnostics == diags
            assert not os.path.exists(config.out_dir)
        except StageFailure as e:
            assert isinstance(e.cause, _Reached) and diags == []
        else:
            assert diags == [] and not selected
        finally:
            shutil.rmtree(config.out_dir, ignore_errors=True)


GOOD_DATASET = "datasets: [{name: docs, path: DATA, flow: text-evidence}]\n"
# the arguments of each command that loads a config, by the stage it runs
STAGE_COMMANDS = {stage: ("run", "--stages", stage) for stage in pipeline.STAGES}
CONFIG_COMMANDS = {"run": ("run",), "validate": ("validate",), **STAGE_COMMANDS}
FILTER_COMMANDS = {"run": ("run",), "validate": ("validate",),
                   "filter": STAGE_COMMANDS["filter"]}
BAD_FILTERS = {"boost-below-one": "filter: {boost_factor: 0.5}\n",
               "unknown-space": "filter: {space: odds}\n"}
# config file text, with DATA standing for a dataset file that exists; what the
# error names; the commands that refuse it
BAD_CONFIGS = {
    "malformed-yaml": ("datasets: [\n", "while parsing", CONFIG_COMMANDS),
    "unknown-flow": ("datasets: [{name: d, path: DATA, flow: ocr}]\n", "unknown flow 'ocr'",
                     CONFIG_COMMANDS),
    "no-name": ("datasets: [{path: DATA, flow: text-evidence}]\n", "'name'", CONFIG_COMMANDS),
    "no-path": ("datasets: [{name: d, flow: text-evidence}]\n", "'path'", CONFIG_COMMANDS),
    "no-flow": ("datasets: [{name: d, path: DATA}]\n", "'flow'", CONFIG_COMMANDS),
    "boost-below-one": (BAD_FILTERS["boost-below-one"] + GOOD_DATASET,
                        "boost_factor must be > 1", FILTER_COMMANDS),
    "unknown-space": (BAD_FILTERS["unknown-space"] + GOOD_DATASET, "unknown score space 'odds'",
                      FILTER_COMMANDS),
}
BAD_INPUTS = [
    *(pytest.param(command, text + "tools: {mock: true}\n", [], named, id=f"{name}-{key}")
      for name, (text, named, commands) in BAD_CONFIGS.items()
      for key, command in commands.items()),
    pytest.param(STAGE_COMMANDS["filter"], None, ["--lambda", "0.5"], "boost_factor must be > 1",
                 id="filter-lambda"),
    pytest.param(STAGE_COMMANDS["build-tasks"], None, ["--tasks", "qra,bogus"],
                 "unknown task 'bogus'", id="build-tasks-unknown-task"),
]


class TestConfigErrors:
    """A config that cannot be built, or would fail later, exits 2 before any stage."""

    @pytest.mark.parametrize("command,config_text,options,named", BAD_INPUTS)
    def test_exits_2_with_a_diagnostic(self, tmp_path, mock_data_dir, command, config_text,
                                       options, named):
        # every config problem is a `config error:` line, whichever layer
        # finds it: the loader, or the gate that `validate` and `run` share
        out_dir = tmp_path / "out"
        if config_text is None:
            args = ["--mock", "--out-dir", str(out_dir)]
        else:
            cfg_path = tmp_path / "cfg.yaml"
            cfg_path.write_text(config_text.replace("DATA", f"{mock_data_dir}/data/docs.jsonl"))
            args = ["--config", str(cfg_path), "--out-dir", str(out_dir)]
        result = CliRunner().invoke(cli.main, [*command, *args, *options])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert any(line.startswith("config error: ") and named in line
                   for line in result.output.splitlines()), result.output
        assert "Traceback" not in result.output
        assert not os.path.exists(out_dir / "tasks")

    @pytest.mark.parametrize("name,command", [
        pytest.param(name, command, id=f"{name}-{command}") for name in BAD_FILTERS
        for command in ("crop", "generate-rationales", "build-tasks")])
    def test_exits_0_if_unread(self, tmp_path, mock_data_dir, name, command):
        # values are checked per stage: only filter reads λ and its space, so
        # a config that filter refuses runs every other stage
        good, bad = tmp_path / "good.yaml", tmp_path / "bad.yaml"
        text = GOOD_DATASET.replace("DATA", f"{mock_data_dir}/data/docs.jsonl") \
            + f"out_dir: {tmp_path / 'out'}\ntools: {{mock: true}}\n"
        good.write_text(text)
        bad.write_text(BAD_FILTERS[name] + text)
        stages = pipeline.STAGES[:pipeline.STAGES.index(command) + 1]
        for stage in stages:
            cfg_path = str(good if stage == "filter" else bad)
            result = CliRunner().invoke(cli.main, ["validate", "--stages", stage,
                                                   "--config", cfg_path])
            assert (result.exit_code, result.output) == (0, "")
            result = CliRunner().invoke(cli.main, ["run", "--stages", stage,
                                                   "--config", cfg_path])
            assert result.exit_code == 0, result.output
            assert f"[{stage}] {{" in result.output     # ran, not skipped


class TestConfigFile:
    def test_yaml_round_trip_with_env_interpolation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DATA_DIR", str(tmp_path))
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "out_dir: ${DATA_DIR}/out\n"
            "seed: 5\n"
            "counter: char4\n"
            "filter:\n  boost_factor: 3.0\n  space: log\n"
            "datasets:\n"
            "  - name: d\n    path: ${DATA_DIR}/d.jsonl\n    flow: text-evidence\n"
            "tools:\n  mock: true\n")
        config = PipelineConfig.from_file(str(cfg_path))
        assert config.out_dir == f"{tmp_path}/out"
        assert config.seed == 5
        assert config.filter.boost_factor == 3.0
        assert config.filter.space == "log"
        assert config.datasets[0].path == f"{tmp_path}/d.jsonl"
        assert config.mock


# config file text, with DATA standing for a dataset file that exists; the
# diagnostics it gets, all at once
SHAPE_ERRORS = {
    "misplaced-key": ("max_retries: 0\n",
                      ["max_retries: unknown key; did you mean tools.max_retries?"]),
    "misspelt-key": ("filter: {boost_factr: 3.0}\n",
                     ["filter.boost_factr: unknown key; did you mean filter.boost_factor?"]),
    "list-for-mapping": ("tools: {endpoints: [http://a/s]}\n",
                         ["tools.endpoints: expected a mapping, got ['http://a/s']"]),
    "string-for-list": ("tasks: qra\n", ["tasks: expected a list, got 'qra'"]),
    "string-seed": ('seed: "1"\n', ["seed: expected an integer, got '1'"]),
    "string-flag": ('filter_whole_image: "no"\n',
                    ["filter_whole_image: expected a boolean, got 'no'"]),
    "string-boost": ('filter: {boost_factor: "3"}\n',
                     ["filter.boost_factor: expected a number, got '3'"]),
    "template-shots": ("templates: {summarizer: {path: '', shots: 5}}\n",
                       ["templates.summarizer.shots: unknown key; "
                        "did you mean templates.summarizer.path?"]),
    "several": ("endpoints: {verifier: http://a/v}\nseed: true\n"
                "datasets: [{name: d, path: DATA, flow: text-evidence, subst: d}]\n",
                ["endpoints: unknown key; did you mean tools.endpoints?",
                 "seed: expected an integer, got True",
                 "datasets[0].subst: unknown key; did you mean datasets[].subset?"]),
}

# Loading takes any value of the type `_SCHEMA` gives, but an empty subset
# stands for the dataset's name.
CHECKED_VALUES = {"datasets[].subset": st.text(min_size=1, max_size=4)}
LEAF_VALUES = {str: st.text(max_size=4), int: st.integers(), bool: st.booleans(),
               float: st.integers() | st.floats(allow_nan=False), object: st.none() | st.text()}
# values that a key of each type does not take
WRONG_VALUES = {str: [None, True, 1, 1.5, ["a"], {"a": 1}], int: [None, False, 1.5, "1", [1]],
                float: [None, True, "3", [3.0]], bool: [None, 0, 1, "no"],
                list: [None, "qra", 1, {"a": 1}], dict: ["x", 1, True, [{"a": 1}]]}


def raw_configs(schema=pipeline._SCHEMA, path=""):
    """Raw configs of `schema`'s keys and types, which load; a dataset has its
    required keys, and any other mapping may be null."""
    if isinstance(schema, list):
        return st.lists(raw_configs(schema[0], path + "[]"), max_size=3)
    if not isinstance(schema, dict):
        return CHECKED_VALUES.get(path, LEAF_VALUES.get(schema))
    keys = {key: raw_configs(sub, f"{path}.{key}" if path else key) for key, sub in schema.items()}
    required = ("name", "path", "flow") if path == "datasets[]" else ()
    mapping = st.fixed_dictionaries({k: keys[k] for k in required},
                                    optional={k: v for k, v in keys.items() if k not in required})
    return mapping if path in ("", "datasets[]") else mapping | st.none()


def positions(value, schema=pipeline._SCHEMA, path=""):
    """(path, container, key, schema) of each value inside `value`."""
    items = (value.items() if isinstance(schema, dict) and isinstance(value, dict) else
             enumerate(value) if isinstance(schema, list) else ())
    for key, item in items:
        sub = schema[key] if isinstance(schema, dict) else schema[0]
        item_path = (f"{path}[{key}]" if isinstance(schema, list) else
                     f"{path}.{key}" if path else key)
        yield item_path, value, key, sub
        yield from positions(item, sub, item_path)


def field_value(config, path):
    """The value a raw config's `path` sets on `config`; `tools`' keys are
    fields, and `templates` maps a client name to its template's path."""
    value = config
    parts = path.removeprefix("tools.").replace("[", ".").replace("]", "").split(".")
    for part in parts[:2] if parts[0] == "templates" else parts:
        value = (value[int(part)] if isinstance(value, (list, tuple)) else
                 value[part] if isinstance(value, dict) else getattr(value, part))
    return value


class TestConfigSchema:
    """Every config file loads through `_SCHEMA`: a key it does not list or a
    value of the wrong type is a diagnostic that names the key's path."""

    @pytest.mark.parametrize("text,expected", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS)
    def test_validate_exits_2_naming_each_path(self, tmp_path, mock_data_dir, text, expected):
        cfg_path = tmp_path / "cfg.yaml"
        text = text if "datasets" in text else text + GOOD_DATASET
        cfg_path.write_text(text.replace("DATA", f"{mock_data_dir}/data/docs.jsonl"))
        result = CliRunner().invoke(cli.main, ["validate", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"config error: {d}" for d in expected]

    @given(raw=raw_configs())
    def test_a_config_of_the_schema_loads_onto_its_fields(self, raw):
        config = PipelineConfig.from_dict(raw)
        for path, container, key, schema in positions(raw):
            if not isinstance(schema, (dict, list)):
                assert field_value(config, path) == container[key], path

    @given(raw=raw_configs(), data=st.data())
    def test_an_unknown_key_at_any_depth_is_one_diagnostic(self, raw, data):
        mappings = [("", {"": raw}, "", pipeline._SCHEMA)] + [
            position for position in positions(raw) if isinstance(position[3], dict)]
        path, container, key, schema = data.draw(st.sampled_from(mappings))
        if container[key] is None:
            container[key] = {}
        unknown = data.draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in schema))
        container[key][unknown] = data.draw(LEAF_VALUES[str])
        with pytest.raises(pipeline.ConfigError) as exc:
            PipelineConfig.from_dict(raw)
        named = f"{path}.{unknown}" if path else unknown
        assert len(exc.value.diagnostics) == 1
        assert exc.value.diagnostics[0].startswith(f"{named}: unknown key")

    @given(raw=raw_configs(), data=st.data())
    def test_a_value_of_the_wrong_type_is_one_diagnostic(self, raw, data):
        typed = [(path, container, key, schema) for path, container, key, schema
                 in positions(raw) if schema is not object]
        assume(typed)
        path, container, key, schema = data.draw(st.sampled_from(typed))
        container[key] = data.draw(st.sampled_from(
            WRONG_VALUES[type(schema) if isinstance(schema, (dict, list)) else schema]))
        with pytest.raises(pipeline.ConfigError) as exc:
            PipelineConfig.from_dict(raw)
        assert len(exc.value.diagnostics) == 1
        assert exc.value.diagnostics[0].startswith(f"{path}: expected ")

    def test_the_readme_config_loads(self, monkeypatch, tmp_path):
        readme = pathlib.Path(__file__).parent.parent / "README.md"
        block = readme.read_text().split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(block)
        monkeypatch.setenv("DATA_DIR", str(tmp_path))
        config = PipelineConfig.from_file(str(cfg_path))
        assert [ds.path for ds in config.datasets] == [
            f"{tmp_path}/infovqa.jsonl", f"{tmp_path}/chartqa.jsonl"]


# the options of `run` and `validate` that set a config field: the field's
# values as options, as fields, and the stages run with them
STAGE_OPTIONS = [
    pytest.param(["--mode", cropping.FULL_COVERAGE], {"crop_mode": cropping.FULL_COVERAGE},
                 ("crop", "generate-rationales"), id="mode"),
    pytest.param(["--lambda", "3.0"], {"filter": FilterConfig(boost_factor=3.0)},
                 ("filter", "build-tasks"), id="lambda"),
    pytest.param(["--lambda", "0.5"], {"filter": FilterConfig(boost_factor=0.5)},
                 ("filter",), id="lambda-refused"),
    pytest.param(["--lambda", "0.5"], {"filter": FilterConfig(boost_factor=0.5)},
                 ("crop", "build-tasks"), id="lambda-unread"),
    pytest.param(["--space", "log"], {"filter": FilterConfig(space="log")},
                 ("filter",), id="space"),
    pytest.param(["--space", "log", "--lambda", "0.5"],
                 {"filter": FilterConfig(boost_factor=0.5, space="log")},
                 ("filter", "build-tasks"), id="space-and-lambda"),
    pytest.param(["--tasks", "qra,qid"], {"tasks": ("qra", "qid")},
                 ("build-tasks",), id="tasks"),
    pytest.param(["--tasks", "qra,bogus"], {"tasks": ("qra", "bogus")},
                 ("build-tasks",), id="tasks-refused"),
]


class TestCli:
    @pytest.mark.parametrize("options,fields,stages", STAGE_OPTIONS)
    def test_an_option_acts_as_its_field(self, tmp_path, options, fields, stages):
        # on a finished tree, `run` gives the tree `pipeline.run` gives with
        # the field set, manifests included, and `validate` prints exactly
        # the diagnostics `pipeline.validate` gives
        config, clied = (default_mock_config(str(tmp_path / name), seed=0)
                         for name in ("api", "cli"))
        run(config)
        run(clied)
        config = dataclasses.replace(config, **fields)
        diags = validate(config, stages)
        args = ["--mock", "--out-dir", clied.out_dir, "--stages", ",".join(stages), *options]
        result = CliRunner().invoke(cli.main, ["validate", *args])
        assert (result.exit_code, result.output) == (
            2 if diags else 0, "".join(f"config error: {d}\n" for d in diags))
        result = CliRunner().invoke(cli.main, ["run", *args])
        assert result.exit_code == (2 if diags else 0), result.output
        if not diags:
            run(config, stages)
        assert tree_files(config.out_dir) == tree_files(clied.out_dir)

    def test_the_per_stage_commands_are_gone(self):
        assert sorted(cli.main.commands) == ["dsl", "eval", "make-fixture", "run", "validate",
                                             "vote"]
        result = CliRunner().invoke(cli.main, ["filter", "--mock", "--lambda", "3"])
        assert result.exit_code == 2
        assert "No such command 'filter'" in result.output

    def test_run_rejects_unknown_stages(self, tmp_path):
        out_dir = tmp_path / "stages"
        result = CliRunner().invoke(cli.main, ["run", "--mock", "--out-dir", str(out_dir),
                                               "--stages", "crop,filtr,bild"])
        assert result.exit_code == 2, result.output
        assert "config error: unknown stage 'filtr'" in result.output
        assert "config error: unknown stage 'bild'" in result.output
        assert result.output.count("config error:") == 2
        assert not os.path.exists(out_dir)

    def test_pipeline_run_rejects_unknown_stages(self, tmp_path):
        config = default_mock_config(str(tmp_path / "api"), seed=0)
        with pytest.raises(pipeline.ConfigError, match="unknown stage 'filtr'"):
            run(config, ["filtr"])
        assert not os.path.exists(os.path.join(config.out_dir, "manifests"))

    def test_run_mock(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["run", "--mock", "--out-dir", str(tmp_path / "c1")])
        assert result.exit_code == 0, result.output
        assert os.path.exists(tmp_path / "c1" / "tasks" / "QRA.jsonl")

    def test_validate_failure_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("datasets:\n  - name: d\n    path: /nope\n    flow: text-evidence\n")
        runner = CliRunner()
        result = runner.invoke(cli.main, ["validate", "--config", str(cfg_path)])
        assert result.exit_code == 2

    def test_validate_reports_a_dataset_that_is_not_utf8(self, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_bytes(b"\xff\xfe{}\n")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(f"datasets: [{{name: d, path: {data}, flow: text-evidence}}]\n"
                            "tools: {mock: true}\n")
        result = CliRunner().invoke(cli.main, ["validate", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("config error: dataset 'd': unreadable (")

    def test_run_refuses_a_template_path_that_is_a_directory(self, tmp_path, mock_data_dir):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(GOOD_DATASET.replace("DATA", f"{mock_data_dir}/data/docs.jsonl")
                            + f"templates: {{summarizer: {{path: {tmp_path}}}}}\n"
                            "tools: {mock: true}\n")
        out_dir = tmp_path / "out"
        result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path),
                                               "--out-dir", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert f"config error: template 'summarizer': path {tmp_path} is not a file" \
            in result.output
        assert not os.path.exists(out_dir)

    def test_mock_config_error_leaves_no_files(self, tmp_path):
        out_dir = tmp_path / "x"
        result = CliRunner().invoke(cli.main, ["run", "--stages", "build-tasks", "--mock",
                                               "--out-dir", str(out_dir), "--tasks", "qra,bogus"])
        assert result.exit_code == 2, result.output
        assert "config error: unknown task 'bogus'" in result.output
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("url", ["localhost:9000/s", "ftp://tools.example/s",
                                     "http:///s", "http://tools.example:port/s", 9000,
                                     "http://a b/s", "https://…"])
    def test_validate_rejects_an_endpoint_url_it_cannot_call(self, tmp_path, url):
        data = tmp_path / "docs.jsonl"
        write_lines(data, (serialize_example(e) for e in fixtures.make_doc_examples()))
        endpoints = {"summarizer": url, "verifier": "http://127.0.0.1:9/verifier"}
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(json.dumps({
            "tasks": ["qra", "qid"], "tools": {"endpoints": endpoints},
            "datasets": [{"name": "docs", "path": str(data), "flow": "text-evidence"}]}))
        result = CliRunner().invoke(cli.main, ["validate", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"config error: endpoint 'summarizer': {url!r}")
        assert result.output.count("\n") == 1
        endpoints["summarizer"] = "https://tools.example/s"
        cfg_path.write_text(cfg_path.read_text().replace(json.dumps(url), json.dumps(
            endpoints["summarizer"])))
        result = CliRunner().invoke(cli.main, ["validate", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output

    def test_dsl_exec(self):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["dsl", "exec", "Div(25, 5)"])
        assert result.exit_code == 0
        assert result.output.strip() == "5"

    def test_dsl_exec_error(self):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["dsl", "exec", "Div(1, 0)"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("source", ["Mul(" + "9" * 308 + ", 10)", "Sum(" + "9" * 400 + ")",
                                        "Diff(" + "9" * 400 + ", " + "9" * 400 + ")"])
    def test_dsl_exec_of_a_non_finite_result(self, source):
        result = CliRunner().invoke(cli.main, ["dsl", "exec", source])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ") and result.output.count("\n") == 1

    def test_vote_and_eval(self, tmp_path):
        hyp_path = tmp_path / "hyps.jsonl"
        write_lines(hyp_path, [
            json.dumps({"example_id": "e1", "decoded": "q <s> r <answer> A", "prob": 0.3}),
            json.dumps({"example_id": "e1", "decoded": "q <s> r <answer> None", "prob": 0.4}),
            json.dumps({"example_id": "e1", "decoded": "q <s> r <answer> A", "prob": 0.2}),
            json.dumps({"example_id": "e1", "decoded": "q <s> r <answer> B", "prob": 0.25}),
        ])
        runner = CliRunner()
        result = runner.invoke(cli.main, ["vote", str(hyp_path)])
        assert result.exit_code == 0, result.output
        pred = json.loads(result.output.strip().splitlines()[-1])
        assert pred["answer"] == "A"
        assert pred["aggregate_prob"] == pytest.approx(0.5)

    def test_vote_with_calculator(self, tmp_path):
        hyp_path = tmp_path / "hyps2.jsonl"
        write_lines(hyp_path, [
            json.dumps({"example_id": "e1",
                        "decoded": "q <s> t <program> Div(25, 5) <answer> 4",
                        "prob": 0.9}),
        ])
        runner = CliRunner()
        result = runner.invoke(cli.main, ["vote", str(hyp_path), "--calculator"])
        pred = json.loads(result.output.strip().splitlines()[-1])
        assert pred["answer"] == "5"

    def test_vote_calculator_runs_a_beam_of_the_winning_answer(self, tmp_path):
        hyp_path = tmp_path / "hyps3.jsonl"
        write_lines(hyp_path, [
            json.dumps({"example_id": "e1", "prob": 0.30,
                        "decoded": "q <s> t <program> Div(25, 5) <answer> 5"}),
            json.dumps({"example_id": "e1", "prob": 0.25,
                        "decoded": "q <s> t <program> Mul(2, 2) <answer> 4"}),
            json.dumps({"example_id": "e1", "prob": 0.20,
                        "decoded": "q <s> t <answer> 4"}),
        ])
        result = CliRunner().invoke(cli.main, ["vote", str(hyp_path), "--calculator"])
        assert result.exit_code == 0, result.output
        pred = json.loads(result.output.strip().splitlines()[-1])
        assert pred["answer"] == "4"
        assert pred["aggregate_prob"] == pytest.approx(0.45)

    def test_eval_cli(self, tmp_path):
        from rdistill.records import ImageRef, QAExample, serialize_example
        gold_path = tmp_path / "gold.jsonl"
        write_lines(gold_path, [serialize_example(QAExample(
            example_id="e1", image=ImageRef(id="i", height=10, width=10),
            question="q", gold_answers=("A",)))])
        pred_path = tmp_path / "pred.jsonl"
        write_lines(pred_path, [json.dumps({"example_id": "e1", "answer": "A"})])
        runner = CliRunner()
        result = runner.invoke(cli.main, ["eval", str(pred_path), str(gold_path),
                                          "--metric", "anls"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["mean"] == 1.0
