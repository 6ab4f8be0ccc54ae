"""Fake tool endpoint on localhost, run as its own process.

    python3 perfbench/fake_endpoint.py --corpus docs.jsonl --corpus charts.jsonl

Prints "PORT <n>" on its first stdout line once it listens. Serves the four
tools the pipeline's HTTP clients call (POST /ocr, /summarizer, /programmer,
/verifier), each after a fixed injected latency (LATENCY_S, 20 ms). Every
answer is a pure function of the request body, so runs are deterministic.
The verifier knows the gold answers from the corpus files and keeps its three
categories well filled: in expectation 30 % irrelevant, and useful vs.
relevant-not-useful split by the boost factor (25/45 % at 2.0, 17/53 % at 3.0).

Bookkeeping for the benchmark: GET /_bench/stats returns round trips per
tool, repeated requests, and the time integral of requests in flight;
POST /_bench/reset zeroes the counters (and with {"seen": true} forgets the
requests seen so far).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_S = 0.020        # injected before every tool answer
AGREEMENT = 0.7          # share of verifier greedy answers that match the gold
WITHOUT_SCALE = 0.7      # p(answer | no rationale) = WITHOUT_SCALE * u
_NUMBER_RE = re.compile(r"\b\d+\b")


def _unit(*parts: str) -> float:
    h = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return (int.from_bytes(h[:8], "big") + 1) / (2 ** 64 + 2)


def _field(prompt: str, name: str, until: str) -> str:
    start = prompt.find(f"\n{name}: ")
    if start < 0:
        return ""
    start += len(name) + 3
    end = prompt.find(until, start)
    return prompt[start:end if end >= 0 else len(prompt)]


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.seen: set[bytes] = set()
        self.reset()

    def reset(self, seen: bool = False) -> None:
        with self.lock:
            self.calls: dict[str, int] = {}
            self.repeats = 0
            self.in_flight = 0
            self.inflight_integral = 0.0
            self.last_change = time.perf_counter()
            if seen:
                self.seen.clear()

    def _advance(self) -> None:
        now = time.perf_counter()
        self.inflight_integral += self.in_flight * (now - self.last_change)
        self.last_change = now

    def begin(self, tool: str, body: bytes) -> None:
        digest = hashlib.sha256(tool.encode() + b"\0" + body).digest()
        with self.lock:
            self._advance()
            self.in_flight += 1
            self.calls[tool] = self.calls.get(tool, 0) + 1
            if digest in self.seen:
                self.repeats += 1
            self.seen.add(digest)

    def end(self) -> None:
        with self.lock:
            self._advance()
            self.in_flight -= 1

    def snapshot(self) -> dict:
        with self.lock:
            self._advance()
            return {"calls": dict(self.calls), "repeats": self.repeats,
                    "inflight_integral_s": self.inflight_integral}


class Tools:
    def __init__(self, gold_by_question: dict[str, str]):
        self.gold = gold_by_question

    def ocr(self, req: dict) -> dict:
        words = [f"w{int(_unit('ocr', req['image_id'], str(k)) * 1e6)}" for k in range(6)]
        return {"text": " ".join(words), "boxes": []}

    def summarizer(self, req: dict) -> dict:
        prompt = req["prompt"]
        ocr = _field(prompt, "OCR", "\nQ: ").split() or ["nothing"]
        answer = _field(prompt, "A", "\nEvidence:")
        n = 4 + int(_unit("summarizer", prompt) * 130)    # some exceed the 100-token limit
        evidence = [ocr[k % len(ocr)] for k in range(n)]
        return {"text": " ".join(evidence) + " so the answer is " + answer}

    def programmer(self, req: dict) -> dict:
        prompt = req["prompt"]
        table = _field(prompt, "Table", "\nOCR: ")
        numbers = _NUMBER_RE.findall(table)
        u = _unit("programmer", prompt)
        if len(numbers) < 2 or u < 0.1:
            return {"text": f"Find({_field(prompt, 'A', chr(10) + 'Program:').strip()})"}
        if len(numbers) > 30 and u < 0.5:       # longer than the 44-token program budget
            return {"text": f"Avg({', '.join(numbers)})"}
        op = ("Sum", "Diff", "Mul", "Div", "Greater", "Less")[int(u * 60) % 6]
        return {"text": f"{op}({numbers[0]}, {numbers[1]})"}

    def verifier(self, req: dict) -> dict:
        text = req["text_input"]
        question = text[text.rfind("Answer in en: ") + len("Answer in en: "):]
        with_rationale = not text.startswith("Answer in en: ")
        # Outcomes hash only the crop id and the request kind, never the seeded
        # text, so the category mix (and every count downstream of it) is the
        # same for every seed.
        if req["mode"] == "greedy":
            u = _unit("greedy", req["image_id"], str(with_rationale))
            gold = self.gold.get(question)
            return {"answer": gold if gold is not None and u < AGREEMENT
                    else f"wrong{int(u * 1000)}"}
        u = _unit("score", req["image_id"], str(with_rationale))
        return {"logprob": math.log(u if with_rationale else WITHOUT_SCALE * u)}


def make_handler(tools: Tools, stats: Stats):
    routes = {"/ocr": tools.ocr, "/summarizer": tools.summarizer,
              "/programmer": tools.programmer, "/verifier": tools.verifier}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body go out in separate writes; without TCP_NODELAY each
        # response waits on the client's delayed ACK (about 40 ms)
        disable_nagle_algorithm = True

        def log_message(self, format, *args):
            pass

        def _reply(self, code: int, obj: dict) -> None:
            body = json.dumps(obj).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/_bench/stats":
                self._reply(200, stats.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/_bench/reset":
                stats.reset(seen=bool(json.loads(body or b"{}").get("seen")))
                self._reply(200, {})
                return
            fn = routes.get(self.path)
            if fn is None:
                self._reply(404, {"error": "not found"})
                return
            tool = self.path[1:]
            stats.begin(tool, body)
            try:
                time.sleep(LATENCY_S)
                try:
                    self._reply(200, fn(json.loads(body)))
                except (KeyError, ValueError, TypeError) as e:
                    self._reply(400, {"error": f"{type(e).__name__}: {e}"})
            finally:
                stats.end()

    return Handler


def load_gold(paths: list[str]) -> dict[str, str]:
    gold = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    obj = json.loads(line)
                    gold[obj["question"]] = obj["gold_answers"][0]
    return gold


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--corpus", action="append", default=[])
    args = ap.parse_args(argv)
    server = ThreadingHTTPServer(("127.0.0.1", 0),
                                 make_handler(Tools(load_gold(args.corpus)), Stats()))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
