"""Spans and counts around the calls into each rdistill module, from outside the package.

`install` replaces public functions and methods of the package where their
callers look them up (module globals, class attributes, the pipeline's stage
table and the cli's command callbacks) with wrappers that record a span. A
span's self time is its duration minus the part of it that its child spans
cover. Calls made in a pool thread have no parent on their own thread; they
are adopted by the span open on the main thread, so a stage's self time
excludes the time its workers were busy.

Nothing under src/ is changed on disk; the wrappers live only in the
benchmark's worker process.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter


def _covered(intervals: list) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._main_stack = self._stack()
        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        if stack is not self._main_stack:
            try:
                return self._main_stack[-1]
            except IndexError:
                return None
        return None

    def _run_hook(self, hook, stack, args, kwargs) -> None:
        """Run a counting hook; its time is excluded from the enclosing span."""
        h0 = perf_counter()
        hook(args, kwargs)
        parent = self._parent(stack)
        if parent is not None:
            parent[1].append((h0, perf_counter()))

    def span(self, name: str, fn, count_as: str | None = None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if before is not None:
                tracer._run_hook(before, stack, args, kwargs)
            span = [perf_counter(), []]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - span[0]
                own = duration - _covered(span[1])
                parent = tracer._parent(stack)
                if parent is not None:
                    parent[1].append((span[0], end))
                with tracer._lock:
                    tracer.self_s[name] += own
                    tracer.wall_s[name] += duration
                    if count_as:
                        tracer.counts[count_as] += 1

        return traced

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "rdistill" or n.startswith("rdistill.")) and m is not None]


def _patch_function(modules, fn, wrapper) -> None:
    """Rebind `fn` to `wrapper` in every module global that names it."""
    hits = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"no caller found for {fn!r}")


def _patch_method(cls, name: str, make_wrapper) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(make_wrapper(raw.__func__)))
    else:
        setattr(cls, name, make_wrapper(raw))


TOOL_METHODS = {
    "ocr": ("recognize",),
    "summarizer": ("summarize",),
    "programmer": ("write_program",),
    "verifier": ("greedy_answer", "answer_logprob"),
}


def install(tracer: Tracer, on_trim=None, on_mock_request=None) -> None:
    """Wrap the package's public entry points. Import rdistill.cli first."""
    import requests
    from rdistill import (cli, codec, cropping, dsl, filtering, inference, pipeline,
                          records, tasks, tools)

    modules = _package_modules()

    def fn(name, f, **kw):
        _patch_function(modules, f, tracer.span(name, f, **kw))

    # Stage functions and manifest helpers are private to pipeline; when a
    # refactor renames them, the traced run fails rather than reading 0.
    stage_fns = getattr(pipeline, "_STAGE_FNS", None)
    if stage_fns is None:
        raise RuntimeError("no caller found for the pipeline's stage table _STAGE_FNS")
    for stage, metric in (("crop", "pipeline.crop_s"), ("generate-rationales", "pipeline.generate_s"),
                          ("filter", "pipeline.filter_s"), ("build-tasks", "pipeline.build_tasks_s")):
        if stage not in stage_fns:
            raise RuntimeError(f"no caller found for pipeline stage {stage!r}")
        stage_fns[stage] = tracer.span(metric, stage_fns[stage])
    for name in ("_stage_fresh", "_write_manifest"):
        if not hasattr(pipeline, name):
            raise RuntimeError(f"no caller found for pipeline.{name}")
        fn("pipeline.manifest_s", getattr(pipeline, name))

    for f in (records.parse_example, records.parse_categorized, records.parse_record):
        fn("records.parse_s", f, count_as=f"records.{f.__name__}")
    _patch_method(records.Rationale, "from_json",
                  lambda f: tracer.span("records.parse_s", f, count_as="records.Rationale.from_json"))
    for f in (records.serialize_example, records.serialize_categorized, records.serialize_record):
        fn("records.serialize_s", f)
    _patch_method(records.Rationale, "to_json", lambda f: tracer.span("records.serialize_s", f))

    fn("cropping.s", cropping.plan_crops)
    fn("cropping.s", cropping.apply_plan)

    fn("tools.generate_self_s", tools.generate_rationale)
    _patch_method(tools.HttpEndpoint, "call",
                  lambda f: tracer.span("tools.http_wait_s", f, count_as="tools.http_calls"))
    _patch_method(requests.Session, "post", lambda f: tracer.counter("tools.http_posts", f))
    for tool, methods in TOOL_METHODS.items():
        prefix = tool.capitalize()
        for method in methods:
            _patch_method(getattr(tools, f"Http{prefix}Client"), method,
                          lambda f, t=tool: tracer.counter(f"tools.{t}", f))
            _patch_method(getattr(tools, f"Mock{prefix}Client"), method,
                          lambda f, t=tool: tracer.span("fixtures.mock_s", f, count_as=f"tools.{t}",
                                                        before=on_mock_request and
                                                        functools.partial(on_mock_request, t)))

    fn("filtering.categorize_self_s", filtering.categorize, count_as="filtering.categorized")
    fn("filtering.balance_s", filtering.balance)

    fn("codec.encode_s", codec.encode_target, before=on_trim and functools.partial(on_trim, "target"))
    fn("codec.encode_s", codec.encode_program_rationale,
       before=on_trim and functools.partial(on_trim, "program"))
    fn("codec.parse_target_s", codec.parse_target)

    for f in (tasks.build_qra, tasks.build_apr, tasks.build_qraci, tasks.build_apraci,
              tasks.build_qid, tasks.build_ans_only, tasks.plan_folds):
        fn("tasks.build_s", f)

    fn("dsl.parse_s", dsl.parse)

    fn("inference.vote_s", inference.vote)
    fn("inference.calculator_s", inference.apply_calculator)
    fn("inference.anls_s", inference.anls)
    fn("inference.relaxed_accuracy_s", inference.relaxed_accuracy)

    for command, metric in (("vote", "cli.vote_s"), ("eval", "cli.eval_s")):
        cmd = cli.main.commands[command]
        cmd.callback = tracer.span(metric, cmd.callback)
