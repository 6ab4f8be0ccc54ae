import http.server
import json
import threading

import pytest

from rdistill import pipeline
from rdistill.codec import WordCounter
from rdistill.records import Crop, ImageRef, QAExample
from rdistill.tools import (EVIDENCE_TOKEN_LIMIT, HttpEndpoint, HttpOcrClient,
                            HttpVerifierClient, InvalidProgram, MissingBinding,
                            MockOcrClient, MockProgrammerClient,
                            MockSummarizerClient, MockVerifierClient,
                            PromptTemplate, ResponseCache, RetryPolicy, Templates,
                            ToolClients, ToolFailure, generate_rationale,
                            render_prompt, verifier_prompt)

WORD = WordCounter()


class TestRenderPrompt:
    def test_single_substitution(self):
        t = PromptTemplate("t", 5, "Q: {question}")
        assert render_prompt(t, {"question": "x"}) == "Q: x"

    def test_missing_binding(self):
        t = PromptTemplate("t", 8, "table: {table}")
        with pytest.raises(MissingBinding):
            render_prompt(t, {"question": "x"})

    def test_repeated_placeholder(self):
        t = PromptTemplate("t", 5, "{question} and {question}")
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


TEMPLATES = Templates(
    summarizer=PromptTemplate("s", 5, "{ocr} {question} {answer}"),
    programmer=PromptTemplate("p", 8, "{table} {ocr} {question} {answer}"),
)


class TestGenerateRationale:
    def test_text_evidence_flow(self):
        r = generate_rationale(make_example(), "text-evidence", make_clients(), TEMPLATES)
        assert r.kind == "text_evidence"
        assert "Instagram" in r.evidence

    def test_evidence_truncated_to_token_limit(self):
        long_evidence = " ".join(f"w{i}" for i in range(300))
        clients = make_clients(summarizer=MockSummarizerClient(
            fixtures={("q", "a"): long_evidence}))
        ex = make_example(question="q", gold_answers=("a",))
        r = generate_rationale(ex, "text-evidence", clients, TEMPLATES, counter=WORD)
        assert WORD.count(r.evidence) <= EVIDENCE_TOKEN_LIMIT

    def test_table_program_flow(self):
        table = (("a", "b"), ("25", "5"))
        clients = make_clients(programmer=MockProgrammerClient(
            fixtures={("q", "5"): "Div(25, 5)"}))
        ex = make_example(question="q", gold_answers=("5",), structured_table=table)
        r = generate_rationale(ex, "table-program", clients, TEMPLATES)
        assert r.kind == "table_program"
        assert r.table == table
        assert r.program_source == "Div(25, 5)"

    def test_invalid_program_after_retries(self):
        clients = make_clients(programmer=MockProgrammerClient(
            fixtures={("q", "a"): "Foo(1)"}))
        ex = make_example(question="q", gold_answers=("a",),
                          structured_table=(("x",),))
        with pytest.raises(InvalidProgram) as exc:
            generate_rationale(ex, "table-program", clients, TEMPLATES, max_retries=3)
        assert exc.value.attempts == 3

    def test_ocr_fetched_when_absent(self):
        ocr = MockOcrClient(fixtures={"i1": ("fetched words", [])})
        captured = {}

        class Spy:
            def summarize(self, question, gold_answer, full_ocr, template):
                captured["ocr"] = full_ocr
                return "evidence"

        ex = make_example(ocr_text="")
        generate_rationale(ex, "text-evidence",
                           make_clients(ocr=ocr, summarizer=Spy()), TEMPLATES)
        assert captured["ocr"] == "fetched words"


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
    # holds extra response fields, `bodies` the request bodies received
    script = []
    calls = 0
    reply = {}
    bodies = []

    def do_POST(self):
        cls = type(self)
        status = cls.script[min(cls.calls, len(cls.script) - 1)]
        cls.calls += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        cls.bodies.append(body)
        payload = json.dumps({"echo": body, "ok": True, **cls.reply}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if status < 500:
            self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    def start(script, reply):
        handler = type("Handler", (_ScriptedHandler,),
                       {"script": script, "calls": 0, "reply": reply or {}, "bodies": []})
        server = http.server.HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_port}/"
        return url, handler, server

    servers = []

    def factory(script, reply=None):
        url, handler, server = start(script, reply)
        servers.append(server)
        return url, handler

    yield factory
    for server in servers:
        server.shutdown()


FAST = RetryPolicy(timeout=5, max_retries=3, backoff=0.01)


class TestHttpEndpoint:
    def test_success(self, scripted_server):
        url, handler = scripted_server([200])
        out = HttpEndpoint(url, FAST).call({"x": 1})
        assert out == {"echo": {"x": 1}, "ok": True}

    def test_retry_then_succeed(self, scripted_server):
        url, handler = scripted_server([500, 500, 200])
        out = HttpEndpoint(url, FAST).call({"x": 1})
        assert out["ok"] is True
        assert handler.calls == 3

    def test_failure_after_retries(self, scripted_server):
        url, handler = scripted_server([500])
        with pytest.raises(ToolFailure) as exc:
            HttpEndpoint(url, RetryPolicy(timeout=5, max_retries=2, backoff=0.01)).call({})
        assert exc.value.attempts == 3
        assert handler.calls == 3

    def test_client_error_no_retry(self, scripted_server):
        url, handler = scripted_server([404])
        with pytest.raises(ToolFailure):
            HttpEndpoint(url, FAST).call({})
        assert handler.calls == 1


class TestHttpPayloads:
    """A remote OCR or verifier sees the page and the window it reads."""

    IMAGE = ImageRef(id="p#c1", height=800, width=400, crop=Crop("height", 200, 600),
                     source_uri="s3://bucket/p.png")
    WINDOW = {"image_id": "p#c1", "source_uri": "s3://bucket/p.png",
              "crop": {"axis": "height", "start": 200, "end": 600}}

    def test_verifier_requests_carry_window(self, scripted_server):
        url, handler = scripted_server([200], reply={"answer": "A", "logprob": -1.5})
        client = HttpVerifierClient(HttpEndpoint(url, FAST))
        assert client.greedy_answer(self.IMAGE, "q", "r") == "A"
        assert client.answer_logprob(self.IMAGE, "q", "A") == -1.5
        for body in handler.bodies:
            assert {k: body[k] for k in self.WINDOW} == self.WINDOW

    def test_ocr_request_carries_window(self, scripted_server):
        url, handler = scripted_server([200], reply={"text": "t", "boxes": []})
        HttpOcrClient(HttpEndpoint(url, FAST)).recognize(self.IMAGE)
        assert handler.bodies == [self.WINDOW]


def test_http_config_asks_plot_to_table_for_a_missing_table(scripted_server, tmp_path):
    rows = [["animal", "count"], ["cats", "25"], ["dogs", "5"]]
    table_url, table_tool = scripted_server([200], reply={"rows": rows})
    programmer_url, _ = scripted_server([200], reply={"text": "Div(25, 5)"})
    config = pipeline.PipelineConfig(out_dir=str(tmp_path), endpoints={
        "plot_to_table": table_url, "programmer": programmer_url})
    chart = make_example(image=TestHttpPayloads.IMAGE, question="q", gold_answers=("5",))
    assert chart.structured_table is None
    r = generate_rationale(chart, "table-program", pipeline.make_clients(config),
                           pipeline.make_templates(config))
    assert r.table == tuple(tuple(row) for row in rows)
    assert r.program_source == "Div(25, 5)"
    assert table_tool.bodies == [TestHttpPayloads.WINDOW]


class TestResponseCache:
    def endpoint(self, url, tmp_path):
        return HttpEndpoint(url, FAST, cache=ResponseCache(str(tmp_path / "cache" / "r.jsonl")))

    def test_second_run_makes_no_upstream_calls(self, scripted_server, tmp_path):
        url, handler = scripted_server([200])
        first = [self.endpoint(url, tmp_path).cached_call({"x": i}) for i in range(3)]
        assert handler.calls == 3
        again = self.endpoint(url, tmp_path)
        assert [again.cached_call({"x": i}) for i in range(3)] == first
        assert handler.calls == 3

    def test_repeated_payload_replayed_in_order(self, scripted_server, tmp_path):
        url, handler = scripted_server([200])
        ep = self.endpoint(url, tmp_path)
        ep.cached_call({"x": 1})
        ep.cached_call({"x": 1})
        assert handler.calls == 2
        again = self.endpoint(url, tmp_path)
        again.cached_call({"x": 1})
        again.cached_call({"x": 1})
        assert handler.calls == 2
        again.cached_call({"x": 1})     # a third sample goes upstream
        assert handler.calls == 3

    def test_nth_request_gets_nth_response(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        cache = ResponseCache(path)
        assert [cache.fetch("k", lambda n=n: {"n": n}) for n in (1, 2)] == [{"n": 1}, {"n": 2}]

        def upstream():
            raise AssertionError("stored response not replayed")

        cache = ResponseCache(path)
        assert [cache.fetch("k", upstream) for _ in range(2)] == [{"n": 1}, {"n": 2}]
        assert cache.fetch("k", lambda: {"n": 3}) == {"n": 3}

    def test_truncated_last_line_ignored(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        cache = ResponseCache(path)
        cache.fetch("a", lambda: {"v": 1})
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"key":"b","respo')
        cache = ResponseCache(path)
        assert cache.fetch("a", lambda: {"v": 0}) == {"v": 1}
        assert cache.fetch("b", lambda: {"v": 2}) == {"v": 2}
        with open(path, encoding="utf-8") as f:
            assert [json.loads(line)["key"] for line in f] == ["a", "b"]

    def test_rerun_after_failure_issues_only_missing_calls(self, scripted_server, tmp_path):
        url, handler = scripted_server([200, 200, 200, 404, 200])
        ep = self.endpoint(url, tmp_path)
        with pytest.raises(ToolFailure):
            for i in range(6):
                ep.cached_call({"record": i})
        assert handler.calls == 4
        again = self.endpoint(url, tmp_path)
        for i in range(6):
            again.cached_call({"record": i})
        assert handler.calls == 4 + 3

    def test_cache_file_is_jsonl_keyed_by_url_and_payload(self, scripted_server, tmp_path):
        url, _ = scripted_server([200])
        self.endpoint(url, tmp_path).cached_call({"b": 1, "a": 2})
        with open(tmp_path / "cache" / "r.jsonl", encoding="utf-8") as f:
            (line,) = f.readlines()
        entry = json.loads(line)
        assert entry["key"] == ResponseCache.key(url, {"a": 2, "b": 1})
        assert entry["key"] != ResponseCache.key(url + "x", {"a": 2, "b": 1})
        assert entry["response"]["echo"] == {"b": 1, "a": 2}
