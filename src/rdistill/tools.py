"""Client interfaces for the external tools, with HTTP and mock backends.

Five tools sit behind these interfaces: OCR, an LLM summarizer (text
evidence), an LLM programmer (arithmetic programs), a plot-to-table
extractor, and a multimodal verifier used for filtering. Mocks are
table-driven from a fixtures mapping and fall back to deterministic
seed-derived outputs, so identical runs produce identical pipelines
without any network access.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Protocol

from . import dsl
from .codec import DEFAULT_COUNTER, TokenCounter, encode_program_rationale
from .records import (NUMBER, STRING, TEXT_EVIDENCE, ImageRef, QAExample, Rationale, _dumps,
                      _loads, _table, _typed)

log = logging.getLogger(__name__)

EVIDENCE_TOKEN_LIMIT = 100
STUDENT_SAMPLES = 3

TEXT_EVIDENCE_FLOW = "text-evidence"
TABLE_PROGRAM_FLOW = "table-program"


class ToolFailure(RuntimeError):
    def __init__(self, tool: str, cause: str, attempts: int = 1):
        super().__init__(f"{tool}: {cause} (after {attempts} attempt(s))")
        self.tool = tool
        self.cause = cause
        self.attempts = attempts


_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")
_PLACEHOLDERS = ("question", "answer", "ocr", "table")


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt body with {question} {answer} {ocr} {table} slots, which its
    HTTP client fills in; ValueError, when it is built, for any other
    {placeholder}."""

    body: str

    def __post_init__(self):
        for name in _PLACEHOLDER_RE.findall(self.body):
            if name not in _PLACEHOLDERS:
                raise ValueError(f"unknown placeholder {{{name}}}; "
                                 f"known placeholders: {', '.join(_PLACEHOLDERS)}")


def render_prompt(template: PromptTemplate, bindings: dict) -> str:
    """Substitute every placeholder; exact substitution, nothing else. A
    template holds only placeholders every HTTP client binds, so this needs
    no check of its own."""
    return _PLACEHOLDER_RE.sub(lambda m: str(bindings[m.group(1)]), template.body)


def verifier_prompt(question: str, rationale: str | None = None) -> str:
    """Exact text-encoder input format of the verifier."""
    if rationale is not None:
        return f"{rationale} Answer in en: {question}"
    return f"Answer in en: {question}"


# ---------------------------------------------------------------------------
# client interfaces


class OcrClient(Protocol):
    def recognize(self, image: ImageRef) -> str: ...


class SummarizerClient(Protocol):
    def summarize(self, question: str, gold_answer: str, full_ocr: str) -> str: ...


class ProgrammerClient(Protocol):
    def write_program(self, question: str, gold_answer: str, full_ocr: str, table) -> str: ...


class PlotToTableClient(Protocol):
    def extract_table(self, image: ImageRef) -> tuple[tuple[str, ...], ...]: ...


class VerifierClient(Protocol):
    def greedy_answer(self, image: ImageRef, question: str,
                      rationale: str | None = None) -> str: ...

    def answer_logprob(self, image: ImageRef, question: str, answer: str,
                       rationale: str | None = None) -> float: ...


class StudentRationaleClient(Protocol):
    train_folds: frozenset[int]

    def sample_rationales(self, image: ImageRef, question: str, n: int) -> list[str]: ...


@dataclass
class ToolClients:
    ocr: OcrClient | None = None
    summarizer: SummarizerClient | None = None
    programmer: ProgrammerClient | None = None
    plot_to_table: PlotToTableClient | None = None
    verifier: VerifierClient | None = None

    def close(self) -> None:
        """Close the kept-alive connections of the HTTP clients."""
        for client in vars(self).values():
            endpoint = getattr(client, "endpoint", None)
            if endpoint is not None:
                endpoint.close()


# ---------------------------------------------------------------------------
# rationale generation flows


def generate_rationale(example: QAExample, flow: str, clients: ToolClients, max_retries: int = 3,
                       counter: TokenCounter = DEFAULT_COUNTER) -> Rationale:
    """Run one of the two teacher flows for a single example.

    text-evidence: full OCR -> few-shot summarizer -> evidence span,
    truncated to 100 tokens; blank evidence is flagged, and not kept.
    table-program: structured table (dataset or plot-to-table) + OCR ->
    few-shot programmer -> validated program source. After `max_retries`
    programs that `dsl.parse` refuses, the rationale is flagged: it keeps
    the table and has no program source.
    """
    ocr_text = example.ocr_text
    if not ocr_text and clients.ocr is not None:
        ocr_text = clients.ocr.recognize(example.image)

    if flow == TEXT_EVIDENCE_FLOW:
        evidence = clients.summarizer.summarize(
            example.question, example.canonical_answer, ocr_text)
        if counter.count(evidence) > EVIDENCE_TOKEN_LIMIT:
            evidence = counter.truncate(evidence, EVIDENCE_TOKEN_LIMIT)
        if evidence.strip():
            return Rationale.text(evidence)
        log.warning("example %s: blank evidence %r", example.example_id, evidence)
        return Rationale(TEXT_EVIDENCE, flagged=True)

    if flow == TABLE_PROGRAM_FLOW:
        table = example.structured_table
        if table is None:
            if clients.plot_to_table is None:
                raise ToolFailure("plot-to-table", "no structured table and no client")
            table = clients.plot_to_table.extract_table(example.image)
        for attempt in range(max_retries):
            source = clients.programmer.write_program(
                example.question, example.canonical_answer, ocr_text, table)
            try:
                dsl.parse(source)
                return Rationale.program(table, source)
            except ValueError:
                log.warning("example %s: invalid program %r (attempt %d)",
                            example.example_id, source, attempt + 1)
        return Rationale.program(table, "", flagged=True)

    raise ValueError(f"unknown flow {flow!r}")


def rationale_text(rationale: Rationale,
                   counter: TokenCounter = DEFAULT_COUNTER) -> str:
    """The rationale string as it appears in decoder sequences."""
    if rationale.kind == "text_evidence":
        return rationale.evidence
    return encode_program_rationale(rationale.table, rationale.program_source, counter)


# ---------------------------------------------------------------------------
# HTTP plumbing


@dataclass(frozen=True)
class RetryPolicy:
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 0.5


class ResponseCache:
    """Append-only JSONL store of endpoint responses, keyed by request.

    Each line is {"key": sha256 of (url, canonical JSON payload),
    "response": ...}, written and flushed as soon as the response arrives,
    so a stage that dies part-way keeps what it already paid for. Identical
    requests keep their order: the n-th identical request made through one
    cache replays the n-th stored response and goes upstream only past the
    last one, so a retried sampling prompt still gets fresh answers. A
    truncated last line (an interrupted write) is dropped on load; a
    malformed line, and a stored response its client's check refuses, are
    skipped (`fetch`).
    """

    def __init__(self, path: str):
        self.path = path
        self._stored: dict[str, list] = {}     # key -> responses not yet replayed, oldest first
        self._lock = threading.Lock()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.exists(path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb+") as f:
            end = 0
            for line in f:
                if not line.endswith(b"\n"):
                    log.warning("%s: dropping a truncated last line", self.path)
                    f.truncate(end)
                    break
                end += len(line)
                try:
                    obj = _loads(line[:-1].decode("utf-8"))
                    self._stored.setdefault(obj["key"], []).append(obj["response"])
                except (ValueError, KeyError, TypeError):     # a lone surrogate too
                    log.warning("%s: skipping a malformed line", self.path)

    @staticmethod
    def key(url: str, payload: dict) -> str:
        canonical = json.dumps([url, payload], sort_keys=True, ensure_ascii=False,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def fetch(self, key: str, call, read):
        """read() of the next stored response for `key`, else the value of
        call()'s (value, fresh response), whose response is then written
        through. read() is the client's check of a reply, stored or fresh
        (in call()): a stored reply it refuses (a ToolFailure) is skipped
        with a warning, a fresh one is not written."""
        with self._lock:
            stored = self._stored.get(key, [])
            while stored:
                try:
                    return read(stored.pop(0))  # replayed once; the memory goes with it
                except ToolFailure as e:
                    log.warning("%s: skipping a stored response: %s", self.path, e)
        value, response = call()
        line = _dumps({"key": key, "response": response})
        with self._lock, open(self.path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        return value


def url_problem(url) -> str | None:
    """Why `HttpEndpoint` cannot call `url`, or None when it can."""
    if not isinstance(url, str):
        return f"{url!r} is not a URL"
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port      # a port that is not a number raises here
    except ValueError as e:
        return f"{url!r} is not a URL ({e})"
    if parts.scheme not in ("http", "https"):
        return f"{url!r} is not an http or https URL"
    host = parts.hostname
    if not host:
        return f"{url!r} names no host"
    if any(c.isspace() for c in host):
        return f"{url!r} names a host holding whitespace"
    if ":" not in host:     # an IPv6 literal has no IDNA form to check
        try:
            labels = host.encode("idna").decode("ascii").removesuffix(".").split(".")
        except UnicodeError:
            labels = [""]
        if not all(labels):
            return f"{url!r} names a host that is no IDNA host name"
    return None


_JSON_HEADERS = {"Content-Type": "application/json"}


class HttpEndpoint:
    """POST-JSON endpoint with retries, exponential backoff, kept-alive
    connections, writing through its run's response cache.

    Connections are the standard library's `http.client` ones. A call takes
    an idle connection, or opens one, and puts it back after a complete
    response; a connection that fails is dropped. A caller running calls on
    N threads thus holds at most N connections and N requests in flight.
    `close` closes the idle connections.
    """

    def __init__(self, url: str, cache: ResponseCache, policy: RetryPolicy = RetryPolicy()):
        problem = url_problem(url)
        if problem:
            raise ValueError(problem)
        parts = urllib.parse.urlsplit(url)
        self.url = url
        self.policy = policy
        self.cache = cache
        self._https = parts.scheme == "https"
        self._host, self._port = parts.hostname, parts.port
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._idle = []     # kept-alive connections; a cached rerun opens none
        self._lock = threading.Lock()

    def cached_call(self, payload: dict, read=lambda response: response):
        """read() of the reply to `payload`, stored or fresh, through the
        response cache (`ResponseCache.fetch`): a reply that call() or
        read() refuses is never cached."""
        return self.cache.fetch(ResponseCache.key(self.url, payload),
                                lambda: self.call(payload, read), read)

    def call(self, payload: dict, read) -> tuple:
        """(read(reply), reply) of one upstream request, retried on connection
        errors, timeouts and 5xx; ToolFailure, with no retry, on a 3xx (no
        redirect is followed), a 4xx, or a 2xx whose body is not a JSON
        object in UTF-8 text: one whose strings escape a lone surrogate is
        refused too, so the response cache is never handed a reply it cannot
        write. The fields the reply holds are its client's to check, once:
        `read(reply)` refuses a reply with a ToolFailure of its tool, which
        is raised again with the attempts the reply took."""
        import http.client     # with ssl (~1.6 MB), loaded by the first upstream call

        body = json.dumps(payload).encode("utf-8")
        attempts = self.policy.max_retries + 1
        last = "no attempt made"
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.policy.backoff * (2 ** (attempt - 1)))
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as e:
                last = str(e) or type(e).__name__
            else:
                if status < 300:
                    try:
                        out = _loads(data.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        out = None
                    except ValueError as e:     # `_loads` refused a lone surrogate
                        raise ToolFailure(self.url, f"response is not UTF-8 text: {e}",
                                          attempt + 1) from None
                    if not isinstance(out, dict):
                        raise ToolFailure(self.url, "response is not a JSON object", attempt + 1)
                    try:
                        return read(out), out
                    except ToolFailure as e:
                        raise ToolFailure(e.tool, e.cause, attempt + 1) from None
                if status < 500:
                    raise ToolFailure(self.url, f"HTTP {status}", attempt + 1)
                last = f"HTTP {status}"
            log.warning("call to %s failed (attempt %d): %s", self.url, attempt + 1, last)
        raise ToolFailure(self.url, last, attempts)

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """(status, body) of one POST. A kept-alive connection that the server
        closed while it sat idle is replaced at once, without using an attempt."""
        import http.client

        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return self._exchange(conn, body)
            except ConnectionError:
                log.debug("kept-alive connection to %s was closed; reopening", self.url)
        cls = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        return self._exchange(cls(self._host, self._port, timeout=self.policy.timeout), body)

    def _exchange(self, conn, body: bytes) -> tuple[int, bytes]:
        """One request on `conn`, which goes back to the idle list after a
        complete 2xx or 3xx response and is closed otherwise."""
        try:
            conn.request("POST", self._target, body, _JSON_HEADERS)
            resp = conn.getresponse()
            data = resp.read() if resp.status < 400 else b""
        except BaseException:
            conn.close()
            raise
        if resp.status < 400 and not resp.will_close:
            with self._lock:
                self._idle.append(conn)
        else:
            resp.close()
            conn.close()
        return resp.status, data

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _image_fields(image: ImageRef) -> dict:
    """What a remote tool needs to locate the page and the window it reads."""
    return {"image_id": image.id, "source_uri": image.source_uri,
            "crop": image.to_json()["crop"]}


_IS_STRING, _IS_NUMBER = functools.partial(_typed, STRING), functools.partial(_typed, NUMBER)


def _reply(tool: str, name: str, check):
    """A client's reader of its tool's reply: the field `name`, as `check(name,
    value)` gives it, or a ToolFailure of `tool` naming the field."""
    def read(reply: dict):
        try:
            return check(name, reply[name])
        except KeyError:
            raise ToolFailure(tool, f"missing field {name!r}") from None
        except TypeError:       # a stored response that is no JSON object
            raise ToolFailure(tool, "response is not a JSON object") from None
        except ValueError as e:
            raise ToolFailure(tool, str(e)) from None
    return read


class _HttpClient:
    def __init__(self, endpoint: HttpEndpoint):
        self.endpoint = endpoint


class _HttpPromptClient(_HttpClient):
    """An LLM tool: its prompt is its template with each slot filled in."""

    def __init__(self, endpoint: HttpEndpoint, template: PromptTemplate):
        super().__init__(endpoint)
        self.template = template

    def _ask(self, tool: str, **bindings) -> str:
        return self.endpoint.cached_call(
            {"prompt": render_prompt(self.template, bindings), "temperature": 0.1},
            _reply(tool, "text", _IS_STRING))


class HttpSummarizerClient(_HttpPromptClient):
    def summarize(self, question, gold_answer, full_ocr):
        return self._ask("summarizer", question=question, answer=gold_answer, ocr=full_ocr,
                         table="")


class HttpProgrammerClient(_HttpPromptClient):
    def write_program(self, question, gold_answer, full_ocr, table):
        return self._ask("programmer", question=question, answer=gold_answer, ocr=full_ocr,
                         table="\n".join(" | ".join(r) for r in table))


class HttpOcrClient(_HttpClient):
    def recognize(self, image):
        return self.endpoint.cached_call(_image_fields(image), _reply("ocr", "text", _IS_STRING))


class HttpPlotToTableClient(_HttpClient):
    def extract_table(self, image):
        return self.endpoint.cached_call(_image_fields(image),
                                         _reply("plot-to-table", "rows", _table))


class HttpVerifierClient(_HttpClient):
    def greedy_answer(self, image, question, rationale=None):
        return self.endpoint.cached_call({
            **_image_fields(image),
            "text_input": verifier_prompt(question, rationale),
            "mode": "greedy"}, _reply("verifier", "answer", _IS_STRING))

    def answer_logprob(self, image, question, answer, rationale=None):
        return self.endpoint.cached_call({
            **_image_fields(image),
            "text_input": verifier_prompt(question, rationale),
            "mode": "score", "answer": answer}, _reply("verifier", "logprob", _IS_NUMBER))


# ---------------------------------------------------------------------------
# deterministic mocks


def _unit(seed: int, *parts: str) -> float:
    """Stable pseudo-random float in (0, 1) derived from seed + parts."""
    h = hashlib.sha256(("\x1f".join((str(seed),) + parts)).encode("utf-8")).digest()
    return (int.from_bytes(h[:8], "big") + 1) / (2 ** 64 + 2)


@dataclass
class MockOcrClient:
    """Fixture-driven OCR; unknown images get synthesized stable text."""

    fixtures: dict = field(default_factory=dict)  # image id -> text
    seed: int = 0

    def recognize(self, image):
        return self.fixtures.get(image.id, f"text{int(_unit(self.seed, 'ocr', image.id) * 1000)}")


@dataclass
class MockSummarizerClient:
    fixtures: dict = field(default_factory=dict)  # (question, answer) -> evidence

    def summarize(self, question, gold_answer, full_ocr):
        # else stable synthetic evidence mentioning the answer, like a real span
        return self.fixtures.get((question, gold_answer),
                                 f"The document shows that the answer to this is {gold_answer}.")


@dataclass
class MockProgrammerClient:
    fixtures: dict = field(default_factory=dict)  # (question, answer) -> program source

    def write_program(self, question, gold_answer, full_ocr, table):
        return self.fixtures.get((question, gold_answer), f"Find({gold_answer})")


@dataclass
class MockPlotToTableClient:
    def extract_table(self, image):
        return ("label", "value"), (image.id, "1")


MOCK_VERIFIER_AGREEMENT = 0.7    # share of greedy answers that are the gold one


@dataclass
class MockVerifierClient:
    """Scores are pure functions of (seed, request)."""

    seed: int = 0
    gold_by_question: dict = field(default_factory=dict)

    def greedy_answer(self, image, question, rationale=None):
        gold = self.gold_by_question.get(question)
        u = _unit(self.seed, "greedy", image.id, question, str(rationale))
        if gold is not None and u < MOCK_VERIFIER_AGREEMENT:
            return gold
        return f"wrong{int(u * 100)}"

    def answer_logprob(self, image, question, answer, rationale=None):
        u = _unit(self.seed, "logprob", image.id, question, answer, str(rationale))
        return math.log(u)


@dataclass
class MockStudentClient:
    """Stable noisy paraphrases of the tool rationale, one per sample index."""

    train_folds: frozenset = frozenset()

    def sample_rationales(self, image, question, n):
        return [f"student evidence {i} for {image.id}" for i in range(n)]
