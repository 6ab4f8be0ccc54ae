"""Client interfaces for the external tools, with HTTP and mock backends.

Five tools sit behind these interfaces: OCR, an LLM summarizer (text
evidence), an LLM programmer (arithmetic programs), a plot-to-table
extractor, and a multimodal verifier used for filtering. Mocks are
table-driven from a fixtures mapping and fall back to deterministic
seed-derived outputs, so identical runs produce identical pipelines
without any network access.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Protocol

from . import dsl
from .codec import DEFAULT_COUNTER, TokenCounter, encode_program_rationale
from .records import ImageRef, OcrBox, QAExample, Rationale

log = logging.getLogger(__name__)

EVIDENCE_TOKEN_LIMIT = 100
SUMMARIZER_SHOTS = 5
PROGRAMMER_SHOTS = 8
STUDENT_SAMPLES = 3

TEXT_EVIDENCE_FLOW = "text-evidence"
TABLE_PROGRAM_FLOW = "table-program"


class ToolFailure(RuntimeError):
    def __init__(self, tool: str, cause: str, attempts: int = 1):
        super().__init__(f"{tool}: {cause} (after {attempts} attempt(s))")
        self.tool = tool
        self.cause = cause
        self.attempts = attempts


class InvalidProgram(ValueError):
    """Programmer output failed DSL validation after all retries."""

    def __init__(self, source: str, table, attempts: int):
        super().__init__(f"invalid program after {attempts} attempts: {source!r}")
        self.source = source
        self.table = tuple(tuple(r) for r in table)
        self.attempts = attempts


class MissingBinding(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


@dataclass(frozen=True)
class PromptTemplate:
    """A few-shot prompt body with {question} {answer} {ocr} {table} slots."""

    name: str
    shot_count: int
    body: str


_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


def render_prompt(template: PromptTemplate, bindings: dict) -> str:
    """Substitute every placeholder; exact substitution, nothing else."""

    def sub(m):
        name = m.group(1)
        if name not in bindings:
            raise MissingBinding(name)
        return str(bindings[name])

    return _PLACEHOLDER_RE.sub(sub, template.body)


def verifier_prompt(question: str, rationale: str | None = None) -> str:
    """Exact text-encoder input format of the verifier."""
    if rationale is not None:
        return f"{rationale} Answer in en: {question}"
    return f"Answer in en: {question}"


# ---------------------------------------------------------------------------
# client interfaces


class OcrClient(Protocol):
    def recognize(self, image: ImageRef) -> tuple[str, list[OcrBox]]: ...


class SummarizerClient(Protocol):
    def summarize(self, question: str, gold_answer: str, full_ocr: str,
                  template: PromptTemplate) -> str: ...


class ProgrammerClient(Protocol):
    def write_program(self, question: str, gold_answer: str, full_ocr: str,
                      table, template: PromptTemplate) -> str: ...


class PlotToTableClient(Protocol):
    def extract_table(self, image: ImageRef) -> list[list[str]]: ...


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


@dataclass
class Templates:
    summarizer: PromptTemplate | None = None
    programmer: PromptTemplate | None = None


# ---------------------------------------------------------------------------
# rationale generation flows


def generate_rationale(example: QAExample, flow: str, clients: ToolClients,
                       templates: Templates, max_retries: int = 3,
                       counter: TokenCounter = DEFAULT_COUNTER) -> Rationale:
    """Run one of the two teacher flows for a single example.

    text-evidence: full OCR -> few-shot summarizer -> evidence span,
    truncated to 100 tokens. table-program: structured table (dataset or
    plot-to-table) + OCR -> few-shot programmer -> validated program
    source; InvalidProgram after `max_retries` failed attempts.
    """
    ocr_text = example.ocr_text
    if not ocr_text and clients.ocr is not None:
        ocr_text, _ = clients.ocr.recognize(example.image)

    if flow == TEXT_EVIDENCE_FLOW:
        evidence = clients.summarizer.summarize(
            example.question, example.canonical_answer, ocr_text, templates.summarizer)
        if counter.count(evidence) > EVIDENCE_TOKEN_LIMIT:
            evidence = counter.truncate(evidence, EVIDENCE_TOKEN_LIMIT)
        return Rationale.text(evidence)

    if flow == TABLE_PROGRAM_FLOW:
        table = example.structured_table
        if table is None:
            if clients.plot_to_table is None:
                raise ToolFailure("plot-to-table", "no structured table and no client")
            table = clients.plot_to_table.extract_table(example.image)
        source = ""
        for attempt in range(max_retries):
            source = clients.programmer.write_program(
                example.question, example.canonical_answer, ocr_text, table,
                templates.programmer)
            try:
                dsl.parse(source)
                return Rationale.program(table, source)
            except ValueError:
                log.warning("example %s: invalid program %r (attempt %d)",
                            example.example_id, source, attempt + 1)
        raise InvalidProgram(source, table, max_retries)

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
    truncated last line (an interrupted write) is dropped on load.
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
                    obj = json.loads(line)
                    self._stored.setdefault(obj["key"], []).append(obj["response"])
                except (ValueError, KeyError, TypeError):
                    log.warning("%s: skipping a malformed line", self.path)

    @staticmethod
    def key(url: str, payload: dict) -> str:
        canonical = json.dumps([url, payload], sort_keys=True, ensure_ascii=False,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def fetch(self, key: str, call) -> dict:
        """The next stored response for `key`, else call() written through."""
        with self._lock:
            stored = self._stored.get(key)
            if stored:
                return stored.pop(0)    # replayed once; the memory goes with it
        response = call()
        line = json.dumps({"key": key, "response": response}, ensure_ascii=False,
                          separators=(",", ":"))
        with self._lock, open(self.path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        return response


class HttpEndpoint:
    """POST-JSON endpoint with retries, exponential backoff, a shared
    concurrency limit across in-flight calls and an optional response cache."""

    def __init__(self, url: str, policy: RetryPolicy = RetryPolicy(),
                 semaphore: threading.Semaphore | None = None,
                 cache: ResponseCache | None = None):
        self.url = url
        self.policy = policy
        self.semaphore = semaphore
        self.cache = cache
        self._session = None    # opened on the first upstream call; a cached rerun opens none
        self._session_lock = threading.Lock()

    def cached_call(self, payload: dict) -> dict:
        """call() through the response cache, when there is one."""
        if self.cache is None:
            return self.call(payload)
        return self.cache.fetch(ResponseCache.key(self.url, payload),
                                lambda: self.call(payload))

    def call(self, payload: dict) -> dict:
        """One upstream request, retried on connection errors and 5xx."""
        import requests     # the HTTP stack (~10 MB) loads with the first upstream call

        with self._session_lock:
            if self._session is None:
                self._session = requests.Session()
        attempts = self.policy.max_retries + 1
        last = "no attempt made"
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.policy.backoff * (2 ** (attempt - 1)))
            try:
                with self.semaphore or contextlib.nullcontext():
                    resp = self._session.post(self.url, json=payload,
                                              timeout=self.policy.timeout)
            except requests.RequestException as e:
                last = str(e)
                log.warning("call to %s failed (attempt %d): %s", self.url, attempt + 1, e)
                continue
            if resp.status_code >= 500:
                last = f"HTTP {resp.status_code}"
                log.warning("call to %s failed (attempt %d): %s", self.url, attempt + 1, last)
                continue
            if resp.status_code >= 400:
                raise ToolFailure(self.url, f"HTTP {resp.status_code}", attempt + 1)
            return resp.json()
        raise ToolFailure(self.url, last, attempts)


def _image_fields(image: ImageRef) -> dict:
    """What a remote tool needs to locate the page and the window it reads."""
    return {"image_id": image.id, "source_uri": image.source_uri,
            "crop": image.to_json()["crop"]}


class HttpSummarizerClient:
    def __init__(self, endpoint: HttpEndpoint):
        self.endpoint = endpoint

    def summarize(self, question, gold_answer, full_ocr, template):
        prompt = render_prompt(template, {
            "question": question, "answer": gold_answer, "ocr": full_ocr, "table": ""})
        return self.endpoint.cached_call({"prompt": prompt, "temperature": 0.1})["text"]


class HttpProgrammerClient:
    def __init__(self, endpoint: HttpEndpoint):
        self.endpoint = endpoint

    def write_program(self, question, gold_answer, full_ocr, table, template):
        prompt = render_prompt(template, {
            "question": question, "answer": gold_answer, "ocr": full_ocr,
            "table": "\n".join(" | ".join(r) for r in table)})
        return self.endpoint.cached_call({"prompt": prompt, "temperature": 0.1})["text"]


class HttpOcrClient:
    def __init__(self, endpoint: HttpEndpoint):
        self.endpoint = endpoint

    def recognize(self, image):
        out = self.endpoint.cached_call(_image_fields(image))
        boxes = [OcrBox(*b) for b in out.get("boxes", [])]
        return out["text"], boxes


class HttpPlotToTableClient:
    def __init__(self, endpoint: HttpEndpoint):
        self.endpoint = endpoint

    def extract_table(self, image):
        return self.endpoint.cached_call(_image_fields(image))["rows"]


class HttpVerifierClient:
    def __init__(self, endpoint: HttpEndpoint):
        self.endpoint = endpoint

    def greedy_answer(self, image, question, rationale=None):
        out = self.endpoint.cached_call({
            **_image_fields(image),
            "text_input": verifier_prompt(question, rationale),
            "mode": "greedy"})
        return out["answer"]

    def answer_logprob(self, image, question, answer, rationale=None):
        out = self.endpoint.cached_call({
            **_image_fields(image),
            "text_input": verifier_prompt(question, rationale),
            "mode": "score", "answer": answer})
        return out["logprob"]


# ---------------------------------------------------------------------------
# deterministic mocks


def _unit(seed: int, *parts: str) -> float:
    """Stable pseudo-random float in (0, 1) derived from seed + parts."""
    h = hashlib.sha256(("\x1f".join((str(seed),) + parts)).encode("utf-8")).digest()
    return (int.from_bytes(h[:8], "big") + 1) / (2 ** 64 + 2)


@dataclass
class MockOcrClient:
    """Fixture-driven OCR; unknown images get synthesized stable text."""

    fixtures: dict = field(default_factory=dict)  # image id -> (text, boxes)
    seed: int = 0

    def recognize(self, image):
        if image.id in self.fixtures:
            text, boxes = self.fixtures[image.id]
            return text, [b if isinstance(b, OcrBox) else OcrBox(*b) for b in boxes]
        word = f"text{int(_unit(self.seed, 'ocr', image.id) * 1000)}"
        return word, [OcrBox(word, 0, 0, min(50, image.width), min(20, image.height))]


@dataclass
class MockSummarizerClient:
    fixtures: dict = field(default_factory=dict)  # (question, answer) -> evidence

    def summarize(self, question, gold_answer, full_ocr, template):
        key = (question, gold_answer)
        if key in self.fixtures:
            return self.fixtures[key]
        # stable synthetic evidence mentioning the answer, like a real span
        return f"The document shows that the answer to this is {gold_answer}."


@dataclass
class MockProgrammerClient:
    fixtures: dict = field(default_factory=dict)  # (question, answer) -> program source

    def write_program(self, question, gold_answer, full_ocr, table, template):
        key = (question, gold_answer)
        if key in self.fixtures:
            return self.fixtures[key]
        return f"Find({gold_answer})"


@dataclass
class MockPlotToTableClient:
    fixtures: dict = field(default_factory=dict)  # image id -> rows

    def extract_table(self, image):
        if image.id in self.fixtures:
            return [list(r) for r in self.fixtures[image.id]]
        return [["label", "value"], [image.id, "1"]]


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
    fixtures: dict = field(default_factory=dict)  # (image id, question) -> list of strings

    def sample_rationales(self, image, question, n):
        key = (image.id, question)
        if key in self.fixtures:
            samples = self.fixtures[key]
            return list(samples)[:n]
        return [f"student evidence {i} for {image.id}" for i in range(n)]
