"""Span tracing from outside the package.

``install(tracer)`` replaces the module and class attributes that
``themecoder.pipeline`` and ``themecoder.evaluation`` call with wrappers
that record one span per call: name, start, end, parent span and thread.
Spans stay in memory until the run ends. Nothing under ``src/`` changes;
the wrappers live only in the traced benchmark process.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts: dict[str, float] = defaultdict(float)
        self.counting_opens = False

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, owner, attr: str, name: str, on_result=None, around=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(result)`` runs after each call; ``around`` is a context
        manager factory entered around each call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                if around is None:
                    result = original(*args, **kwargs)
                else:
                    with around():
                        result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, busy time (summed over threads) and self time per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def child_busy(self, parent_name: str, thread: int) -> float:
        """Busy seconds on ``thread`` of the direct children of spans named
        ``parent_name``."""
        parents = {sid for sid, name, *_ in self.spans if name == parent_name}
        return sum(
            end - start
            for _, _, start, end, parent, tid in self.spans
            if parent in parents and tid == thread
        )


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.name, self.start, end, self.parent, threading.get_ident())
        )


class _TraceMalloc:
    """Peak traced allocation of one call, kept as the maximum over calls."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracemalloc.start()
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        with self.tracer._lock:
            self.tracer.counts[self.name] = max(self.tracer.counts[self.name], peak / 2**20)


def install(tracer: Tracer) -> None:
    """Wrap every call that pipeline and evaluation make into a layer."""
    from themecoder import backends, evaluation, pipeline

    def prompts(result) -> None:
        rendered = result if isinstance(result, list) else [result]
        tracer.count("prompts", len(rendered))
        tracer.count("prompt_bytes", sum(len(rp.text.encode("utf-8")) for rp in rendered))

    def parsed(outcome) -> None:
        tracer.count("parses")
        tracer.count("parses_ok", 1 if outcome.ok else 0)

    tracer.wrap(
        pipeline, "load_posts", "corpus.load_posts",
        on_result=lambda corpus: tracer.count("posts_loaded", len(corpus)),
    )
    for attr, name in (
        ("keyword_filter", "corpus.keyword_filter"),
        ("dedup_clean", "corpus.dedup_clean"),
        ("write_posts", "corpus.write_posts"),
        ("load_codebook", "codebook.load_codebook"),
        ("load_gold", "codebook.load_gold"),
        ("classify_with_retry", "backends.classify_with_retry"),
        ("build_manifest", "pipeline.build_manifest"),
        ("evaluate_predictions", "evaluation.evaluate_predictions"),
        ("theme_distribution", "evaluation.theme_distribution"),
        ("avg_rank", "evaluation.avg_rank"),
    ):
        tracer.wrap(pipeline, attr, name)
    tracer.wrap(pipeline, "render_prompt", "prompting.render_prompt", on_result=prompts)
    tracer.wrap(pipeline, "parse_single_line", "parsing.parse_single_line", on_result=parsed)
    tracer.wrap(pipeline, "parse_single_answer", "parsing.parse_single_answer", on_result=parsed)
    tracer.wrap(pipeline.ResultsStore, "__init__", "pipeline.ResultsStore.__init__")
    tracer.wrap(pipeline.ResultsStore, "append", "pipeline.ResultsStore.append")
    tracer.wrap(pipeline.RunLedger, "append", "pipeline.RunLedger.append")

    tracer.wrap(backends, "complete", "backends.complete")
    tracer.wrap(backends, "cache_key", "backends.cache_key")
    tracer.wrap(backends._BaseBackend, "call", "backends.call")
    tracer.wrap(backends.AuditLog, "append", "backends.AuditLog.append")
    tracer.wrap(backends.ResponseCache, "__init__", "backends.ResponseCache.__init__")
    tracer.wrap(backends.ResponseCache, "get", "backends.ResponseCache.get")
    tracer.wrap(backends.ResponseCache, "put", "backends.ResponseCache.put")

    tracer.wrap(evaluation, "confusion_per_theme", "evaluation.confusion_per_theme")
    tracer.wrap(evaluation, "theme_distribution", "evaluation.theme_distribution")
    tracer.wrap(
        evaluation, "bootstrap_ci", "evaluation.bootstrap_ci",
        around=lambda: _TraceMalloc(tracer, "bootstrap_peak_mb"),
    )
    tracer.wrap(evaluation.EvalReport, "write", "evaluation.EvalReport.write")

    def opened(event: str, args) -> None:
        if event == "open" and tracer.counting_opens:
            tracer.count("file_opens")

    sys.addaudithook(opened)  # cannot be removed; gated by counting_opens
