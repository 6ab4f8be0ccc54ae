import concurrent.futures
import http.server
import json
import logging
import os
import sys
import threading
import time
import types

import pytest

from rdistill import cropping, fixtures, pipeline, tools
from rdistill.codec import WordCounter
from rdistill.filtering import FilterConfig
from rdistill.records import Crop, ImageRef, QAExample
from rdistill.tools import (EVIDENCE_TOKEN_LIMIT, HttpEndpoint, HttpOcrClient,
                            HttpPlotToTableClient, HttpProgrammerClient, HttpSummarizerClient,
                            HttpVerifierClient, MockOcrClient, MockProgrammerClient,
                            MockSummarizerClient, MockVerifierClient,
                            PromptTemplate, ResponseCache, RetryPolicy,
                            ToolClients, ToolFailure, generate_rationale,
                            render_prompt, url_problem, verifier_prompt)

WORD = WordCounter()


class TestRenderPrompt:
    def test_single_substitution(self):
        t = PromptTemplate("Q: {question}")
        assert render_prompt(t, {"question": "x"}) == "Q: x"

    def test_missing_binding(self):
        t = PromptTemplate("table: {table}")
        with pytest.raises(KeyError):
            render_prompt(t, {"question": "x"})

    def test_unknown_placeholder_refused_when_built(self):
        with pytest.raises(ValueError, match=r"unknown placeholder \{hint\}"):
            PromptTemplate("{hint}")

    def test_repeated_placeholder(self):
        t = PromptTemplate("{question} and {question}")
        assert render_prompt(t, {"question": "x"}) == "x and x"


class TestVerifierPrompt:
    def test_with_rationale(self):
        assert verifier_prompt("Q", "R") == "R Answer in en: Q"

    def test_without_rationale(self):
        assert verifier_prompt("Q") == "Answer in en: Q"


def make_example(**kw):
    defaults = dict(
        example_id="e1",
        image=ImageRef(id="i1", height=800, width=400),
        question="Which social media platform is most used in 2019?",
        gold_answers=("Instagram",),
        ocr_text="Instagram leads with 68% of users Facebook trails at 52%",
    )
    defaults.update(kw)
    return QAExample(**defaults)


def make_clients(**kw):
    defaults = dict(
        ocr=MockOcrClient(),
        summarizer=MockSummarizerClient(
            fixtures={("Which social media platform is most used in 2019?",
                       "Instagram"): "Instagram leads with 68% of users"}),
        programmer=MockProgrammerClient(),
        verifier=MockVerifierClient(),
    )
    defaults.update(kw)
    return ToolClients(**defaults)


class TestGenerateRationale:
    def test_text_evidence_flow(self):
        r = generate_rationale(make_example(), "text-evidence", make_clients())
        assert r.kind == "text_evidence"
        assert "Instagram" in r.evidence

    def test_evidence_truncated_to_token_limit(self):
        long_evidence = " ".join(f"w{i}" for i in range(300))
        clients = make_clients(summarizer=MockSummarizerClient(
            fixtures={("q", "a"): long_evidence}))
        ex = make_example(question="q", gold_answers=("a",))
        r = generate_rationale(ex, "text-evidence", clients, counter=WORD)
        assert WORD.count(r.evidence) <= EVIDENCE_TOKEN_LIMIT

    def test_table_program_flow(self):
        table = (("a", "b"), ("25", "5"))
        clients = make_clients(programmer=MockProgrammerClient(
            fixtures={("q", "5"): "Div(25, 5)"}))
        ex = make_example(question="q", gold_answers=("5",), structured_table=table)
        r = generate_rationale(ex, "table-program", clients)
        assert r.kind == "table_program"
        assert r.table == table
        assert r.program_source == "Div(25, 5)"

    def test_invalid_program_after_retries(self):
        calls = []

        class Programmer:
            def write_program(self, *args):
                calls.append(args)
                return "Foo(1)"

        ex = make_example(question="q", gold_answers=("a",),
                          structured_table=(("x",),))
        r = generate_rationale(ex, "table-program", make_clients(programmer=Programmer()),
                               max_retries=3)
        assert (r.kind, r.flagged, r.table, r.program_source) == \
            ("table_program", True, (("x",),), "")
        assert len(calls) == 3

    def test_ocr_fetched_when_absent(self):
        ocr = MockOcrClient(fixtures={"i1": "fetched words"})
        captured = {}

        class Spy:
            def summarize(self, question, gold_answer, full_ocr):
                captured["ocr"] = full_ocr
                return "evidence"

        ex = make_example(ocr_text="")
        generate_rationale(ex, "text-evidence",
                           make_clients(ocr=ocr, summarizer=Spy()))
        assert captured["ocr"] == "fetched words"

    @pytest.mark.parametrize("blank", ["", " ", "\n\t"])
    def test_blank_evidence_is_flagged(self, blank):
        # like a program that never parses: nothing to predict, so no QRA or QRACI target
        clients = make_clients(summarizer=MockSummarizerClient(fixtures={("q", "a"): blank}))
        r = generate_rationale(make_example(question="q", gold_answers=("a",)),
                               "text-evidence", clients)
        assert (r.kind, r.flagged, r.evidence) == ("text_evidence", True, "")


class TestMockDeterminism:
    def test_verifier_pure_function_of_seed_and_request(self):
        a = MockVerifierClient(seed=7)
        b = MockVerifierClient(seed=7)
        img = ImageRef(id="x", height=10, width=10)
        assert a.greedy_answer(img, "q", "r") == b.greedy_answer(img, "q", "r")
        assert a.answer_logprob(img, "q", "ans", "r") == b.answer_logprob(img, "q", "ans", "r")

    def test_different_seed_differs(self):
        img = ImageRef(id="x", height=10, width=10)
        a = MockVerifierClient(seed=1).answer_logprob(img, "q", "ans")
        b = MockVerifierClient(seed=2).answer_logprob(img, "q", "ans")
        assert a != b

    def test_logprob_negative(self):
        img = ImageRef(id="x", height=10, width=10)
        assert MockVerifierClient(seed=3).answer_logprob(img, "q", "a") < 0


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    # class-level script: list of status codes to serve in order; `reply`
    # holds extra response fields, or `raw` the whole response body, and
    # `bodies` the request bodies received
    script = []
    calls = 0
    reply = {}
    raw = None
    bodies = []

    def do_POST(self):
        cls = type(self)
        status = cls.script[min(cls.calls, len(cls.script) - 1)]
        cls.calls += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        cls.bodies.append(body)
        payload = cls.raw if cls.raw is not None else \
            json.dumps({"echo": body, "ok": True, **cls.reply}).encode()
        self.send_response(status)
        if 300 <= status < 400:
            self.send_header("Location", "/elsewhere")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if status < 500:
            self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    def start(script, reply, raw):
        handler = type("Handler", (_ScriptedHandler,), {
            "script": script, "calls": 0, "reply": reply or {}, "raw": raw, "bodies": []})
        server = http.server.HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_port}/"
        return url, handler, server

    servers = []

    def factory(script, reply=None, raw=None):
        url, handler, server = start(script, reply, raw)
        servers.append(server)
        return url, handler

    yield factory
    for server in servers:
        server.shutdown()
        server.server_close()


FAST = RetryPolicy(timeout=5, max_retries=3, backoff=0.01)


def cache_path(tmp_path):
    return tmp_path / "cache" / "responses.jsonl"


def cached_endpoint(url, tmp_path, policy=FAST):
    """An endpoint writing through the response cache at `cache_path(tmp_path)`."""
    return HttpEndpoint(url, ResponseCache(str(cache_path(tmp_path))), policy)


class TestHttpEndpoint:
    def test_success(self, scripted_server, tmp_path):
        url, handler = scripted_server([200])
        out = cached_endpoint(url, tmp_path).cached_call({"x": 1})
        assert out == {"echo": {"x": 1}, "ok": True}

    def test_retry_then_succeed(self, scripted_server, tmp_path):
        url, handler = scripted_server([500, 500, 200])
        out = cached_endpoint(url, tmp_path).cached_call({"x": 1})
        assert out["ok"] is True
        assert handler.calls == 3

    def test_failure_after_retries(self, scripted_server, tmp_path):
        url, handler = scripted_server([500])
        with pytest.raises(ToolFailure) as exc:
            cached_endpoint(url, tmp_path, RetryPolicy(timeout=5, max_retries=2, backoff=0.01)
                            ).cached_call({})
        assert exc.value.attempts == 3
        assert handler.calls == 3

    def test_client_error_no_retry(self, scripted_server, tmp_path):
        url, handler = scripted_server([404])
        with pytest.raises(ToolFailure):
            cached_endpoint(url, tmp_path).cached_call({})
        assert handler.calls == 1

    @pytest.mark.parametrize("status,raw,cause", [
        (302, None, "HTTP 302"),
        (301, b"<html>moved</html>", "HTTP 301"),
        (200, b"<html>login</html>", "response is not a JSON object"),
        (200, b"[1, 2]", "response is not a JSON object"),
        (200, b"\xff\xfe", "response is not a JSON object"),
        # valid JSON, yet no UTF-8 text holds it, so the cache could not write it
        (200, b'{"text": "Find(1) \\ud800"}',
         "response is not UTF-8 text: lone surrogate \\ud800 in a string"),
    ], ids=["redirect", "redirect-html", "html", "json-list", "not-utf8", "lone-surrogate"])
    def test_unusable_response_fails_once_and_is_not_cached(self, scripted_server, tmp_path,
                                                           status, raw, cause):
        url, handler = scripted_server([status], raw=raw)
        with pytest.raises(ToolFailure) as exc:
            cached_endpoint(url, tmp_path).cached_call({"x": 1})
        assert (exc.value.tool, exc.value.cause, exc.value.attempts) == (url, cause, 1)
        assert handler.calls == 1
        assert not cache_path(tmp_path).exists()


class TestHttpPayloads:
    """A remote OCR or verifier sees the page and the window it reads."""

    IMAGE = ImageRef(id="p#c1", height=800, width=400, crop=Crop("height", 200, 600),
                     source_uri="s3://bucket/p.png")
    WINDOW = {"image_id": "p#c1", "source_uri": "s3://bucket/p.png",
              "crop": {"axis": "height", "start": 200, "end": 600}}

    def test_verifier_requests_carry_window(self, scripted_server, tmp_path):
        url, handler = scripted_server([200], reply={"answer": "A", "logprob": -1.5})
        client = HttpVerifierClient(cached_endpoint(url, tmp_path))
        assert client.greedy_answer(self.IMAGE, "q", "r") == "A"
        assert client.answer_logprob(self.IMAGE, "q", "A") == -1.5
        for body in handler.bodies:
            assert {k: body[k] for k in self.WINDOW} == self.WINDOW

    def test_ocr_request_carries_window(self, scripted_server, tmp_path):
        # the client reads the reply's text alone: boxes of any shape are left unread
        url, handler = scripted_server([200], reply={"text": "t", "boxes": [5]})
        assert HttpOcrClient(cached_endpoint(url, tmp_path)).recognize(self.IMAGE) == "t"
        assert handler.bodies == [self.WINDOW]


# each HTTP tool call: the maker of its client from an endpoint, its tool,
# the reply field it reads, and the call
TOOL_CALLS = {
    "summarize": (lambda e: HttpSummarizerClient(e, fixtures.SUMMARIZER_TEMPLATE), "summarizer",
                  "text", lambda c: c.summarize("q", "a", "o")),
    "write_program": (lambda e: HttpProgrammerClient(e, fixtures.PROGRAMMER_TEMPLATE),
                      "programmer", "text", lambda c: c.write_program("q", "a", "o", [["h"]])),
    "recognize": (HttpOcrClient, "ocr", "text", lambda c: c.recognize(TestHttpPayloads.IMAGE)),
    "extract_table": (HttpPlotToTableClient, "plot-to-table", "rows",
                      lambda c: c.extract_table(TestHttpPayloads.IMAGE)),
    "greedy_answer": (HttpVerifierClient, "verifier", "answer",
                      lambda c: c.greedy_answer(TestHttpPayloads.IMAGE, "q", "r")),
    "answer_logprob": (HttpVerifierClient, "verifier", "logprob",
                       lambda c: c.answer_logprob(TestHttpPayloads.IMAGE, "q", "a")),
}
GOOD_REPLY = {"text": "Find(1)", "answer": "A", "logprob": -1.5, "rows": [["a", "b"], []]}
# what each client returns of GOOD_REPLY, by the field it reads
GOOD_VALUE = {**GOOD_REPLY, "rows": (("a", "b"), ())}


@pytest.mark.parametrize("call,reply,cause", [
    ("summarize", {"text": 5}, "text 5 is not a string"),
    ("summarize", {}, "missing field 'text'"),
    ("write_program", {"text": None}, "text None is not a string"),
    ("write_program", {}, "missing field 'text'"),
    ("recognize", {"text": ["t"]}, "text ['t'] is not a string"),
    ("recognize", {"boxes": []}, "missing field 'text'"),
    ("greedy_answer", {"answer": 5}, "answer 5 is not a string"),
    ("greedy_answer", {"answer": None}, "answer None is not a string"),
    ("answer_logprob", {"logprob": None}, "logprob None is not a number"),
    ("answer_logprob", {"logprob": True}, "logprob True is not a number"),
    ("answer_logprob", {"logprob": "-1.5"}, "logprob '-1.5' is not a number"),
    ("answer_logprob", {}, "missing field 'logprob'"),
    ("extract_table", {}, "missing field 'rows'"),
    ("extract_table", {"rows": "ab"}, "rows 'ab' is not a list of lists of strings"),
    ("extract_table", {"rows": [["a", 1]]}, "rows [['a', 1]] is not a list of lists of strings"),
    ("extract_table", {"rows": ["a"]}, "rows ['a'] is not a list of lists of strings"),
], ids=["summarize-int", "summarize-missing", "write_program-null", "write_program-missing",
        "recognize-list", "recognize-missing", "greedy_answer-int", "greedy_answer-null",
        "answer_logprob-null", "answer_logprob-bool", "answer_logprob-string",
        "answer_logprob-missing", "extract_table-missing", "extract_table-string",
        "extract_table-int-cell", "extract_table-string-row"])
def test_an_ill_typed_reply_fails_uncached_and_a_rerun_asks_again(scripted_server, tmp_path,
                                                                  call, reply, cause):
    """A reply missing the field its client reads, or holding it as another
    type, is a ToolFailure naming the tool and the field, with no retry; it
    is not cached, so a rerun goes upstream again instead of replaying it."""
    client, tool, field, ask = TOOL_CALLS[call]
    url, handler = scripted_server([200], reply=reply)
    with pytest.raises(ToolFailure) as exc:
        ask(client(cached_endpoint(url, tmp_path)))
    assert (exc.value.tool, exc.value.cause, exc.value.attempts) == (tool, cause, 1)
    assert handler.calls == 1
    assert not cache_path(tmp_path).exists()
    handler.reply = GOOD_REPLY
    assert ask(client(cached_endpoint(url, tmp_path))) == GOOD_VALUE[field]
    assert handler.calls == 2
    assert len(cache_path(tmp_path).read_text(encoding="utf-8").splitlines()) == 1


@pytest.mark.parametrize("stored,cause", [
    ({"logprob": None}, "logprob None is not a number"),
    ([-1.5], "response is not a JSON object"),
], ids=["null-logprob", "not-an-object"])
def test_a_stored_reply_its_client_refuses_is_skipped_and_asked_again(scripted_server, tmp_path,
                                                                      caplog, stored, cause):
    """A replayed reply passes the check a fresh one does: a stored score
    reply holding no number is skipped with a warning, and the tool is asked
    once; the good reply it gives is stored after the bad one and replayed
    from then on."""
    url, handler = scripted_server([200], reply={"logprob": -1.5})
    path = cache_path(tmp_path)
    path.parent.mkdir()
    ask = TOOL_CALLS["answer_logprob"][3]
    payload = {**TestHttpPayloads.WINDOW, "text_input": "Answer in en: q", "mode": "score",
               "answer": "a"}
    path.write_text(json.dumps({"key": ResponseCache.key(url, payload),
                                "response": stored}) + "\n", encoding="utf-8")

    def rerun():
        return ask(HttpVerifierClient(cached_endpoint(url, tmp_path)))

    with caplog.at_level(logging.WARNING):
        assert rerun() == -1.5
    assert f"skipping a stored response: verifier: {cause}" in caplog.text
    assert handler.calls == 1 and handler.bodies == [payload]
    assert rerun() == -1.5
    assert handler.calls == 1


def test_a_bad_reply_after_a_retry_reports_the_attempts_it_took(scripted_server, tmp_path):
    url, handler = scripted_server([500, 200], reply={"logprob": None})
    with pytest.raises(ToolFailure) as exc:
        TOOL_CALLS["answer_logprob"][3](HttpVerifierClient(cached_endpoint(url, tmp_path)))
    assert str(exc.value) == "verifier: logprob None is not a number (after 2 attempt(s))"
    assert handler.calls == 2
    assert not cache_path(tmp_path).exists()


def test_a_fresh_reply_passes_its_clients_check_once(scripted_server, tmp_path, monkeypatch):
    """The check runs where the reply arrives, and the cache writes what it
    passed; a rerun replays the stored reply through the same check."""
    checked, is_number = [], tools._IS_NUMBER

    def counting(name, value):
        checked.append(value)
        return is_number(name, value)

    monkeypatch.setattr(tools, "_IS_NUMBER", counting)
    url, handler = scripted_server([200], reply={"logprob": -1.5})
    ask = TOOL_CALLS["answer_logprob"][3]
    assert ask(HttpVerifierClient(cached_endpoint(url, tmp_path))) == -1.5
    assert checked == [-1.5]
    assert ask(HttpVerifierClient(cached_endpoint(url, tmp_path))) == -1.5
    assert checked == [-1.5, -1.5] and handler.calls == 1


@pytest.mark.parametrize("configured", [True, False], ids=["configured", "default"])
def test_each_prompt_is_its_clients_template_filled_in(scripted_server, tmp_path, configured):
    """A run asks the summarizer about each docs example and crop, and the
    programmer about each chart one, with the template configured for it,
    else the default body, filled in with that example's fields."""
    summarizer_url, summarizer = scripted_server([200], reply={"text": "evidence"})
    programmer_url, programmer = scripted_server([200], reply={"text": "Div(25, 5)"})
    verifier_url, _ = scripted_server([200], reply={"answer": "no", "logprob": -1.0})
    corpus = pipeline.default_mock_config(str(tmp_path / "corpus"))
    bodies = {"summarizer": fixtures.SUMMARIZER_TEMPLATE.body,
              "programmer": fixtures.PROGRAMMER_TEMPLATE.body}
    templates = {}
    if configured:
        bodies = {"summarizer": "Span of {ocr} for {question}: {answer}{table}.",
                  "programmer": "{table}\n{question} = {answer}? ({ocr})"}
        for name, body in bodies.items():
            (tmp_path / f"{name}.txt").write_text(body, encoding="utf-8")
            templates[name] = {"path": str(tmp_path / f"{name}.txt")}
    config = pipeline.PipelineConfig.from_dict({
        "out_dir": str(tmp_path / "out"), "concurrency": 1,
        "tasks": ["qra", "qraci", "apraci", "qid", "ans-only"], "templates": templates,
        "datasets": [{"name": ds.name, "path": ds.path, "flow": ds.flow}
                     for ds in corpus.datasets],
        "tools": {"endpoints": {"summarizer": summarizer_url, "programmer": programmer_url,
                                "verifier": verifier_url}}})
    pipeline.run(config)

    def prompts(name, kind):
        ds = next(ds for ds in config.datasets if ds.name == name)
        examples = pipeline._read_examples(ds.path)
        examples += pipeline._read_examples(pipeline.stage_file(config, ds, "crops"))
        return sorted(bodies[kind].format(
            question=ex.question, answer=ex.canonical_answer, ocr=ex.ocr_text,
            table="\n".join(" | ".join(row) for row in ex.structured_table or ()))
            for ex in examples)

    for name, kind, handler in (("docs", "summarizer", summarizer),
                                ("charts", "programmer", programmer)):
        assert all(body.keys() == {"prompt", "temperature"} for body in handler.bodies)
        assert sorted(body["prompt"] for body in handler.bodies) == prompts(name, kind)


def test_http_config_asks_plot_to_table_for_a_missing_table(scripted_server, tmp_path):
    rows = [["animal", "count"], ["cats", "25"], ["dogs", "5"]]
    table_url, table_tool = scripted_server([200], reply={"rows": rows})
    programmer_url, _ = scripted_server([200], reply={"text": "Div(25, 5)"})
    config = pipeline.PipelineConfig(out_dir=str(tmp_path), endpoints={
        "plot_to_table": table_url, "programmer": programmer_url})
    chart = make_example(image=TestHttpPayloads.IMAGE, question="q", gold_answers=("5",))
    assert chart.structured_table is None
    r = generate_rationale(chart, "table-program", pipeline.make_clients(config))
    assert r.table == tuple(tuple(row) for row in rows)
    assert r.program_source == "Div(25, 5)"
    assert table_tool.bodies == [TestHttpPayloads.WINDOW]


def test_run_with_apr_and_http_tools_calls_no_tool(scripted_server, tmp_path):
    # APR's student clients exist only as mocks: the config check stops the
    # run before generate-rationales pays for a single tool call
    url, tool = scripted_server([200], reply={"text": "Find(1)", "answer": "no",
                                              "logprob": -1.0})
    config = pipeline.default_mock_config(str(tmp_path / "corpus"))
    config.out_dir = str(tmp_path / "out")
    config.mock = False
    config.endpoints = {t: url for t in ("summarizer", "programmer", "verifier")}
    assert "apr" in config.tasks
    with pytest.raises(pipeline.ConfigError) as exc:
        pipeline.run(config)
    assert exc.value.diagnostics == ["task 'apr' needs student rationale clients, which "
                                     "exist only as mocks: enable tools.mock or drop 'apr'"]
    assert tool.calls == 0
    assert not os.path.exists(config.out_dir)


def test_a_run_makes_one_response_cache(scripted_server, tmp_path, monkeypatch):
    # every generate-rationales entry of a run asks one set of clients, so a
    # request that an earlier entry made is not replayed from that entry's
    # responses; a λ switch calls no tool and makes none
    url, _ = scripted_server([200], reply={"text": "Find(1)", "answer": "no",
                                           "logprob": -1.0})
    config = pipeline.default_mock_config(str(tmp_path / "corpus"))
    config.out_dir = str(tmp_path / "out")
    config.mock = False
    config.tasks = ("qra", "qraci", "apraci", "qid", "ans-only")
    config.endpoints = {t: url for t in ("summarizer", "programmer", "verifier")}
    made, init = [], ResponseCache.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResponseCache, "__init__", counting)
    assert "skipped" not in pipeline.run(config).values()
    assert len(made) == 1
    made.clear()
    config.filter = FilterConfig(boost_factor=3.0)
    assert pipeline.run(config)["generate-rationales"] == "skipped"
    assert made == []


def fresh(response):
    """A `ResponseCache.fetch` call() whose reply is `response`, read as it is."""
    return lambda: (response, response)


def same(response):
    return response


class TestResponseCache:
    def test_second_run_makes_no_upstream_calls(self, scripted_server, tmp_path):
        url, handler = scripted_server([200])
        first = [cached_endpoint(url, tmp_path).cached_call({"x": i}) for i in range(3)]
        assert handler.calls == 3
        again = cached_endpoint(url, tmp_path)
        assert [again.cached_call({"x": i}) for i in range(3)] == first
        assert handler.calls == 3

    def test_repeated_payload_replayed_in_order(self, scripted_server, tmp_path):
        url, handler = scripted_server([200])
        ep = cached_endpoint(url, tmp_path)
        ep.cached_call({"x": 1})
        ep.cached_call({"x": 1})
        assert handler.calls == 2
        again = cached_endpoint(url, tmp_path)
        again.cached_call({"x": 1})
        again.cached_call({"x": 1})
        assert handler.calls == 2
        again.cached_call({"x": 1})     # a third sample goes upstream
        assert handler.calls == 3

    def test_nth_request_gets_nth_response(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        cache = ResponseCache(path)
        assert [cache.fetch("k", fresh({"n": n}), same) for n in (1, 2)] == [{"n": 1}, {"n": 2}]

        def upstream():
            raise AssertionError("stored response not replayed")

        cache = ResponseCache(path)
        assert [cache.fetch("k", upstream, same) for _ in range(2)] == [{"n": 1}, {"n": 2}]
        assert cache.fetch("k", fresh({"n": 3}), same) == {"n": 3}

    def test_truncated_last_line_ignored(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        cache = ResponseCache(path)
        cache.fetch("a", fresh({"v": 1}), same)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"key":"b","respo')
        cache = ResponseCache(path)
        assert cache.fetch("a", fresh({"v": 0}), same) == {"v": 1}
        assert cache.fetch("b", fresh({"v": 2}), same) == {"v": 2}
        with open(path, encoding="utf-8") as f:
            assert [json.loads(line)["key"] for line in f] == ["a", "b"]

    @pytest.mark.parametrize("bad", ['{"key":"b","response":{"text":"\\ud800"}}',
                                     '{"key":"b","response":{"text":"\\ud800\\ude00"}} x',
                                     '\ufeff{"key":"b","response":{}}', '["b"]', "\udcff"])
    def test_a_malformed_line_is_skipped(self, tmp_path, caplog, bad):
        # a reply escaping a lone surrogate is never written, so a line holding
        # one is malformed, as is a line that is not UTF-8 text or not one
        # {"key", "response"} object
        path = tmp_path / "r.jsonl"
        good = '{"key":"a","response":{"v":1}}\n'
        path.write_bytes(good.encode() + bad.encode("utf-8", "surrogateescape") + b"\n"
                         + good.encode())
        with caplog.at_level(logging.WARNING):
            cache = ResponseCache(str(path))
        assert caplog.text.count("skipping a malformed line") == 1
        assert [cache.fetch("a", fresh({"v": 0}), same) for _ in range(3)] == \
            [{"v": 1}, {"v": 1}, {"v": 0}]
        assert cache.fetch("b", fresh({"v": 2}), same) == {"v": 2}

    def test_rerun_after_failure_issues_only_missing_calls(self, scripted_server, tmp_path):
        url, handler = scripted_server([200, 200, 200, 404, 200])
        ep = cached_endpoint(url, tmp_path)
        with pytest.raises(ToolFailure):
            for i in range(6):
                ep.cached_call({"record": i})
        assert handler.calls == 4
        again = cached_endpoint(url, tmp_path)
        for i in range(6):
            again.cached_call({"record": i})
        assert handler.calls == 4 + 3

    def test_cache_file_is_jsonl_keyed_by_url_and_payload(self, scripted_server, tmp_path):
        url, _ = scripted_server([200])
        cached_endpoint(url, tmp_path).cached_call({"b": 1, "a": 2})
        with open(cache_path(tmp_path), encoding="utf-8") as f:
            (line,) = f.readlines()
        entry = json.loads(line)
        assert entry["key"] == ResponseCache.key(url, {"a": 2, "b": 1})
        assert entry["key"] != ResponseCache.key(url + "x", {"a": 2, "b": 1})
        assert entry["response"]["echo"] == {"b": 1, "a": 2}


class _KeepAliveHandler(http.server.BaseHTTPRequestHandler):
    """HTTP/1.1 replies that keep the connection open unless the class says
    otherwise; counts connections and requests. `delays` holds the seconds to
    wait before each reply, in request order."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    close_after_reply = False   # close while the client still takes it for kept alive
    delays = ()
    connections = 0
    requests = 0
    closed = None               # a threading.Event set when a connection ends

    def setup(self):
        super().setup()
        type(self).connections += 1

    def finish(self):
        super().finish()
        type(self).closed.set()

    def do_POST(self):
        cls = type(self)
        n = cls.requests
        cls.requests += 1
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if n < len(cls.delays):
            time.sleep(cls.delays[n])
        payload = json.dumps({"echo": json.loads(body)}).encode()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except OSError:         # the client gave up waiting
            pass
        self.close_connection = self.close_connection or cls.close_after_reply

    def log_message(self, *args):
        pass


@pytest.fixture
def keep_alive_server():
    servers = []

    def start(**attrs):
        handler = type("Handler", (_KeepAliveHandler,),
                       {"closed": threading.Event(), **attrs})
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}/tool", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff sleeps of HttpEndpoint.call, recorded instead of slept."""
    slept = []
    monkeypatch.setattr(tools, "time", types.SimpleNamespace(sleep=slept.append))
    return slept


class TestKeptAliveConnections:
    def test_calls_share_one_connection(self, keep_alive_server, tmp_path):
        url, handler = keep_alive_server()
        ep = cached_endpoint(url, tmp_path)
        assert [ep.cached_call({"x": i})["echo"] for i in range(3)] == [{"x": i} for i in range(3)]
        assert (handler.requests, handler.connections) == (3, 1)
        ep.close()
        assert handler.closed.wait(5)

    def test_connection_closed_while_idle_is_reopened_without_an_attempt(
            self, keep_alive_server, sleeps, tmp_path):
        url, handler = keep_alive_server(close_after_reply=True)
        ep = cached_endpoint(url, tmp_path, RetryPolicy(timeout=5, max_retries=0, backoff=60))
        ep.cached_call({"x": 1})
        assert handler.closed.wait(5)   # the server has closed the idle connection
        assert ep.cached_call({"x": 2}) == {"echo": {"x": 2}}
        ep.close()
        assert (handler.requests, handler.connections) == (2, 2)
        assert sleeps == []

    def test_read_timeout_is_retried_like_a_5xx(self, keep_alive_server, sleeps, tmp_path):
        url, handler = keep_alive_server(delays=(1.0,))
        ep = cached_endpoint(url, tmp_path, RetryPolicy(timeout=0.2, max_retries=1, backoff=0.01))
        assert ep.cached_call({"x": 1}) == {"echo": {"x": 1}}
        ep.close()
        assert handler.requests == 2
        assert sleeps == [0.01]

    def test_read_timeout_uses_an_attempt(self, keep_alive_server, sleeps, tmp_path):
        url, handler = keep_alive_server(delays=(1.0,))
        with pytest.raises(ToolFailure) as exc:
            cached_endpoint(url, tmp_path, RetryPolicy(timeout=0.2, max_retries=0)).cached_call({})
        assert exc.value.attempts == 1


@pytest.mark.parametrize("url", ["localhost:9000/s", "ftp://host/s", "http:///s",
                                 "http://host:port/s", "http://[::1/s", 9000, "http://a b/s",
                                 "https://…", "http://a..b/s", "http://.host/s"])
def test_endpoint_rejects_a_url_it_cannot_call(url, tmp_path):
    assert url_problem(url)
    with pytest.raises(ValueError):
        cached_endpoint(url, tmp_path)


@pytest.mark.parametrize("url", ["http://127.0.0.1:9/s", "https://tools.example/v1?k=1",
                                 "http://[::1]:8080/", "http://127.0.0.1:53121/verifier",
                                 "http://localhost./s", "http://bücher.example/s"])
def test_endpoint_accepts_http_and_https_urls(url, tmp_path):
    assert url_problem(url) is None
    cached_endpoint(url, tmp_path)


def test_threads_never_share_a_connection(keep_alive_server, tmp_path):
    url, handler = keep_alive_server()
    ep = cached_endpoint(url, tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            echoed = list(pool.map(lambda i: ep.cached_call({"i": i})["echo"]["i"], range(400)))
    finally:
        sys.setswitchinterval(interval)
    ep.close()
    assert echoed == list(range(400))   # a connection used by two threads at once mixes replies
    assert handler.connections <= 8


def test_the_rationales_of_a_pages_crops_share_its_table():
    page = fixtures.make_chart_examples()[0]
    crops = cropping.apply_plan(page, cropping.plan_crops(page.image.height, page.image.width))
    clients = fixtures.make_mock_clients(seed=0)
    rationales = [generate_rationale(crop, "table-program", clients)
                  for crop in crops]
    assert len(rationales) > 1
    assert all(r.table is page.structured_table for r in rationales)
