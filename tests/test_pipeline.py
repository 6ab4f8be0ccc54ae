import collections
import concurrent.futures
import dataclasses
import hashlib
import http.server
import json
import os
import shutil
import threading

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from rdistill import cli, fixtures, pipeline
from rdistill.codec import CharBlockCounter, WordCounter
from rdistill.filtering import FilterConfig
from rdistill.pipeline import (DatasetConfig, PipelineConfig, StageFailure,
                               TemplateConfig, default_mock_config, run, validate)
from rdistill.records import (ImageRef, QAExample, read_lines, serialize_example,
                              write_lines)
from rdistill.tools import rationale_text


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
        (lambda c: setattr(c, "task_list", ("qra", "qid")), {"build-tasks"}),
        (lambda c: setattr(c, "crop_mode", "full-coverage"), ALL_STAGES),
        (lambda c: setattr(c, "concurrency", 1), set()),
    ], ids=["boost", "tasks", "crop-mode", "concurrency"])
    def test_matrix(self, tmp_path, change, expected):
        config = default_mock_config(str(tmp_path / "m"), seed=0)
        assert stages_run(run(config)) == ALL_STAGES
        change(config)
        assert stages_run(run(config)) == expected

    def test_template_body_change(self, tmp_path, monkeypatch):
        class PromptSummarizer:
            """Evidence that depends on the prompt, as a real model's does."""

            def summarize(self, question, gold_answer, full_ocr, template):
                return f"{template.body.split()[0]} {gold_answer}"

        def clients(config):
            c = fixtures.make_mock_clients(seed=config.mock_seed)
            c.summarizer = PromptSummarizer()
            return c

        monkeypatch.setattr(pipeline, "make_clients", clients)
        template = tmp_path / "summarizer.txt"
        template.write_text("First: {ocr} {question} {answer}")
        config = default_mock_config(str(tmp_path / "t"), seed=0)
        config.templates["summarizer"] = TemplateConfig(path=str(template), shots=5)
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

    def do_POST(self):
        type(self).calls += 1
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"text": "Find(1)", "boxes": [], "answer": "no",
                           "logprob": -1.0}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_http_rerun_replays_cached_responses(tmp_path):
    handler = type("Handler", (_ToolHandler,), {"calls": 0})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{server.server_port}"
        config = default_mock_config(str(tmp_path / "h"), seed=0)
        config.mock = False
        config.task_list = ("qra", "qraci", "apraci", "qid", "ans-only")
        config.endpoints = {t: f"{url}/{t}" for t in ("ocr", "summarizer", "programmer",
                                                      "verifier")}
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

    for name in ("parse_example", "parse_categorized", "_parse_rationale_line"):
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    return counts


MOCK_EXAMPLES, MOCK_CROPS = 20, 64


def run_stage(config, stage):
    assert stages_run(run(config, [stage])) == {stage}


def run_stage_command(config, stage):
    result = CliRunner().invoke(cli.main, [stage, "--mock", "--out-dir", config.out_dir])
    assert result.exit_code == 0, result.output
    assert f"[{stage}] skipped" not in result.output


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
        assert parses == {"parse_example": MOCK_EXAMPLES}

    def test_rerun_after_skipped_crop_reads_the_crop_file(self, tmp_path, parses):
        config = default_mock_config(str(tmp_path / "resume"), seed=0)
        run(config, ["crop"])
        parses.clear()
        summary = run(config)
        assert summary["crop"] == "skipped"
        assert stages_run(summary) == ALL_STAGES - {"crop"}
        # generate-rationales parses the dataset and the crop files; later stages reuse both
        assert parses == {"parse_example": MOCK_EXAMPLES + MOCK_CROPS}
        fresh = default_mock_config(str(tmp_path / "fresh"), seed=0)
        run(fresh)
        assert tree_files(config.out_dir) == tree_files(fresh.out_dir)

    def test_records_are_released_after_their_last_reader(self, tmp_path):
        config = default_mock_config(str(tmp_path / "release"), seed=0)
        handoff = pipeline._Handoff(config, list(pipeline.STAGES))
        crops = pipeline.stage_file(config, config.datasets[0], "crops")
        reads = []

        def read(path):
            reads.append(path)
            return ["from file"]

        handoff.put(crops, ["from crop"])  # crop is stage 0
        for position in (1, 2):            # generate-rationales, then filter
            handoff.position = position
            assert handoff.take(crops, read) == ["from crop"]
        assert handoff.take(crops, read) == ["from file"]
        assert reads == [crops]

    def test_mock_run_starts_no_thread_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a mock run started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        config = default_mock_config(str(tmp_path / "inline"), seed=0)
        config.concurrency = 4
        assert stages_run(run(config)) == ALL_STAGES


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


class TestStageIsolation:
    def test_filter_failure_leaves_crop_outputs(self, tmp_path):
        config = default_mock_config(str(tmp_path / "runf"), seed=0)
        run(config, ["crop", "generate-rationales"])
        crops = os.path.join(config.out_dir, "docs.crops.jsonl")
        assert os.path.exists(crops)
        config.mock = False  # verifier endpoint now unconfigured
        with pytest.raises(StageFailure) as exc:
            run(config, ["filter"])
        assert exc.value.stage == "filter"
        assert os.path.exists(crops)


class TestValidate:
    def test_valid_mock_config(self, tmp_path):
        config = default_mock_config(str(tmp_path / "v1"))
        assert validate(config) == []

    def test_missing_dataset_path(self, tmp_path):
        config = default_mock_config(str(tmp_path / "v2"))
        config.datasets[0].path = str(tmp_path / "nope.jsonl")
        assert any("does not exist" in d for d in validate(config))

    def test_template_shot_count_mismatch(self, tmp_path):
        config = default_mock_config(str(tmp_path / "v3"))
        config.templates["programmer"] = pipeline.TemplateConfig(path="", shots=5)
        assert any("shot count 5" in d for d in validate(config))

    def test_no_endpoints_without_mock(self, tmp_path):
        config = default_mock_config(str(tmp_path / "v4"))
        config.mock = False
        diags = validate(config)
        assert any("verifier" in d for d in diags)


@pytest.fixture(scope="module")
def mock_data_dir(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("validate"))
    default_mock_config(out_dir)
    return out_dir


TASK_KEYS = ("qra", "apr", "qraci", "apraci", "qid", "ans-only")
task_keys = st.sampled_from(TASK_KEYS) | st.text(min_size=1, max_size=8)


class TestValidateProperties:
    """Configs that would fail at a later stage are rejected before the first."""

    @given(task_list=st.lists(task_keys, max_size=8))
    def test_flags_exactly_the_unknown_task_keys(self, mock_data_dir, task_list):
        config = default_mock_config(mock_data_dir)
        config.task_list = tuple(task_list)
        flagged = {d.rsplit("; known tasks:", 1)[0] for d in validate(config)
                   if d.startswith("unknown task")}
        assert flagged == \
            {f"unknown task {k!r}" for k in task_list if k not in TASK_KEYS}

    @given(names=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5))
    def test_flags_exactly_the_duplicate_dataset_names(self, mock_data_dir, names):
        config = default_mock_config(mock_data_dir)
        config.datasets = [DatasetConfig(n, config.datasets[0].path, "text-evidence")
                           for n in names]
        flagged = {d.split(":")[0] for d in validate(config) if "duplicate name" in d}
        assert flagged == {f"dataset {n!r}" for n in names if names.count(n) > 1}

    @given(mock=st.booleans(),
           task_list=st.lists(st.sampled_from(TASK_KEYS), min_size=1, unique=True))
    def test_apr_needs_mock_students(self, mock_data_dir, mock, task_list):
        config = default_mock_config(mock_data_dir)
        config.mock = mock
        config.endpoints = {t: f"http://127.0.0.1:9/{t}" for t in ("summarizer", "verifier")}
        config.task_list = tuple(task_list)
        assert (validate(config) != []) == (not mock and "apr" in task_list)

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


GOOD_DATASET = "datasets: [{name: docs, path: DATA, flow: text-evidence}]\n"
# config file text, with DATA standing for a dataset file that exists; what the error names
BAD_CONFIGS = {
    "malformed-yaml": ("datasets: [\n", "while parsing"),
    "unknown-flow": ("datasets: [{name: d, path: DATA, flow: ocr}]\n", "unknown flow 'ocr'"),
    "no-name": ("datasets: [{path: DATA, flow: text-evidence}]\n", "'name'"),
    "no-path": ("datasets: [{name: d, flow: text-evidence}]\n", "'path'"),
    "no-flow": ("datasets: [{name: d, path: DATA}]\n", "'flow'"),
    "boost-below-one": ("filter: {boost_factor: 0.5}\n" + GOOD_DATASET,
                        "boost_factor must be > 1"),
    "unknown-space": ("filter: {space: odds}\n" + GOOD_DATASET, "unknown score space 'odds'"),
}
CONFIG_COMMANDS = ("run", "validate", "crop", "generate-rationales", "filter", "build-tasks")
BAD_INPUTS = [
    *(pytest.param(command, text + "tools: {mock: true}\n", [], named, id=f"{name}-{command}")
      for name, (text, named) in BAD_CONFIGS.items() for command in CONFIG_COMMANDS),
    pytest.param("filter", None, ["--lambda", "0.5"], "boost_factor must be > 1",
                 id="filter-lambda"),
    pytest.param("build-tasks", None, ["--tasks", "qra,bogus"], "unknown task 'bogus'",
                 id="build-tasks-unknown-task"),
]


class TestConfigErrors:
    """A config that cannot be built, or would fail later, exits 2 before any stage."""

    @pytest.mark.parametrize("command,config_text,options,named", BAD_INPUTS)
    def test_exits_2_with_a_diagnostic(self, tmp_path, mock_data_dir, command, config_text,
                                       options, named):
        out_dir = tmp_path / "out"
        if config_text is None:
            args = ["--mock", "--out-dir", str(out_dir)]
        else:
            cfg_path = tmp_path / "cfg.yaml"
            cfg_path.write_text(config_text.replace("DATA", f"{mock_data_dir}/data/docs.jsonl"))
            args = ["--config", str(cfg_path), "--out-dir", str(out_dir)]
        result = CliRunner().invoke(cli.main, [command, *args, *options])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "config error: " in result.output and named in result.output
        assert "Traceback" not in result.output
        assert not os.path.exists(out_dir / "tasks")


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


class TestCli:
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

    def test_dsl_exec(self):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["dsl", "exec", "Div(25, 5)"])
        assert result.exit_code == 0
        assert result.output.strip() == "5"

    def test_dsl_exec_error(self):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["dsl", "exec", "Div(1, 0)"])
        assert result.exit_code == 1

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
