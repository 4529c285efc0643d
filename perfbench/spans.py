"""Host-time spans around the program's layers, recorded from outside.

:func:`install` wraps the public entry points of each layer (``workloads``,
``schemes``, ``erasure``, ``cloud``, ``sim``, ``metrics``, ``core``, ``fs``,
``service``, ``obs``) by replacing class or module attributes in the
running process.  The program's source is never edited, and only the traced
benchmark process calls :func:`install`.

Each wrapped call records one span: name, host start and end
(``time.perf_counter``), parent span and op id.  Spans stay in memory while
the benchmark runs; :meth:`SpanRecorder.write_jsonl` writes them out at the
end.  :func:`self_times` checks that every child lies inside its parent and
that siblings do not overlap, then gives each span its self time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

#: spans whose children start a new op id (the benchmark's driver spans)
DRIVE = "workloads.drive"

#: span fields, by position
NAME, START, END, PARENT, OP, NESTED, ERROR = range(7)

#: tolerance for comparing perf_counter readings taken in one process
EPS = 1e-9


class CoverageError(ValueError):
    """The span tree is not a proper nesting of intervals."""


class SpanRecorder:
    """In-memory span store fed by the wrappers :meth:`wrap` builds."""

    def __init__(self) -> None:
        #: one list per span: [name, start, end, parent, op, nested, error]
        self.spans: list[list] = []
        #: per-name sums of the values the wrappers' ``note`` hooks return
        self.notes: dict[str, float] = defaultdict(float)
        self.on = False
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._next_op = 0

    def _enter(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent < 0 or self.spans[parent][NAME] == DRIVE:
            op = self._next_op
            self._next_op += 1
        else:
            op = self.spans[parent][OP]
        nested = self._open[name] > 0
        self._open[name] += 1
        span = [name, 0.0, 0.0, parent, op, nested, False]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        self._stack.pop()
        self._open[span[NAME]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block (while ``on``)."""
        if not self.on:
            yield
            return
        span = self._enter(name)
        span[START] = time.perf_counter()
        try:
            yield
        except BaseException:
            span[ERROR] = True
            raise
        finally:
            span[END] = time.perf_counter()
            self._exit(span)

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span named ``name`` per call while ``on``.

        ``note(args, kwargs, result)`` returns a number added to
        ``notes[name]``; it runs only for calls not nested in a span of the
        same name, so sizes are not counted twice.
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = self._enter(name)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[ERROR] = True
                self._exit(span)
                raise
            span[END] = clock()
            self._exit(span)
            if note is not None and not span[NESTED]:
                self.notes[name] += note(args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(
                    f'{{"id": {i}, "name": "{s[NAME]}", "start": {s[START] - t0:.9f}, '
                    f'"end": {s[END] - t0:.9f}, "parent": {s[PARENT]}, "op": {s[OP]}}}\n'
                )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Raises :class:`CoverageError` unless every span ends after it starts,
    lies inside its parent, and starts after its previous sibling ended
    (so the children's durations add up to the time they cover), and unless
    every self time is at least zero.
    """
    covered = [0.0] * len(spans)
    last_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        start, end, parent = s[START], s[END], s[PARENT]
        if end < start:
            raise CoverageError(f"span {i} ({s[NAME]}) ends before it starts")
        if parent < 0:
            continue
        p = spans[parent]
        if start < p[START] - EPS or end > p[END] + EPS:
            raise CoverageError(
                f"span {i} ({s[NAME]}) lies outside its parent {parent} ({p[NAME]})"
            )
        if start < last_end.get(parent, start) - EPS:
            raise CoverageError(f"span {i} ({s[NAME]}) overlaps its previous sibling")
        last_end[parent] = end
        covered[parent] += end - start
    out = []
    for i, s in enumerate(spans):
        own = (s[END] - s[START]) - covered[i]
        if own < -EPS:
            raise CoverageError(f"span {i} ({s[NAME]}) has negative self time {own}")
        out.append(max(own, 0.0))
    return out


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and inclusive ``s`` of the outermost spans,
    summed ``self`` time of all spans, and ``errors`` raised."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self": 0.0, "errors": 0}
    )
    for s, self_s in zip(spans, own):
        row = out[s[NAME]]
        row["self"] += self_s
        if not s[NESTED]:
            row["calls"] += 1
            row["s"] += s[END] - s[START]
            row["errors"] += s[ERROR]
    return out


# ------------------------------------------------------------ installation
SCHEME_OPS = ("put", "get", "update", "remove", "stat", "listdir")
CLOUD_REQUESTS = ("put", "get", "remove", "list", "create", "head")


def _patch(recorder: SpanRecorder, owner, attr: str, name: str, note=None) -> None:
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), note))


def _size(arg: int):
    return lambda args, kwargs, result: len(args[arg])


def install(recorder: SpanRecorder, scheme_class, on_striped_read) -> None:
    """Wrap every layer's public entry points for ``recorder``.

    ``on_striped_read(scheme, path)`` returns 1 when ``path`` is stored
    erasure-coded; summed, it is the ``schemes.op.get`` note.
    """
    import repro.schemes.base as scheme_base
    from repro.cloud.provider import SimulatedProvider
    from repro.core.recovery import WriteLog
    from repro.core.resilience import CircuitBreaker, ProviderHealth
    from repro.erasure.codec import ErasureCodec
    from repro.fs.metadata import MetadataStore
    from repro.metrics.collector import LatencyCollector
    from repro.metrics.registry import MetricsRegistry
    from repro.obs.slo import SloTracker
    from repro.service.admission import AdmissionController
    from repro.service.frontend import ServicePlane
    from repro.service.tenant import TenantRegistry
    from repro.service.traffic import TrafficGenerator
    from repro.sim.events import EventLoop
    from repro.workloads.trace import TraceReplayer

    # workloads
    _patch(recorder, TraceReplayer, "payload", "workloads.payload")
    _patch(recorder, TraceReplayer, "patch_payload", "workloads.payload")
    _patch(recorder, TrafficGenerator, "payload", "workloads.payload")

    # schemes: the public ops of the concrete scheme class
    def user_bytes(args, kwargs, result):
        return len(args[-1])

    notes = {
        "put": user_bytes,
        "update": user_bytes,
        "get": lambda args, kwargs, result: on_striped_read(args[0], args[1]),
    }
    for op in SCHEME_OPS:
        _patch(recorder, scheme_class, op, f"schemes.op.{op}", notes.get(op))
    _patch(recorder, scheme_class, "heal_returned", "schemes.heal")

    # erasure: each codec class's own encode/decode definitions
    classes, todo = [], [ErasureCodec]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in classes:
        for attr in ("encode", "encode_views"):
            if attr in vars(cls):
                _patch(recorder, cls, attr, "erasure.encode", _size(1))
        if "encode_views_batch" in vars(cls):
            _patch(recorder, cls, "encode_views_batch", "erasure.encode",
                   lambda args, kwargs, result: sum(len(d) for d in args[1]))
        if "decode" in vars(cls):
            _patch(recorder, cls, "decode", "erasure.decode",
                   lambda args, kwargs, result: len(result))
        if "reconstruct_fragment" in vars(cls):
            _patch(recorder, cls, "reconstruct_fragment", "erasure.reconstruct")

    # cloud
    for kind in CLOUD_REQUESTS:
        note = _size(3) if kind == "put" else None
        _patch(recorder, SimulatedProvider, kind, f"cloud.{kind}", note)

    # sim
    scheme_base.simulate_transfers = recorder.wrap(
        "sim.transfer", scheme_base.simulate_transfers,
        lambda args, kwargs, result: len(args[0]),
    )
    _patch(recorder, EventLoop, "step", "sim.event")

    # metrics
    for attr in ("counter", "gauge", "histogram"):
        _patch(recorder, MetricsRegistry, attr, "metrics.lookup")
    _patch(recorder, LatencyCollector, "add", "metrics.collector_add")

    # core
    for attr in ("allow", "record_success", "record_failure"):
        _patch(recorder, CircuitBreaker, attr, "core.breaker")
    for attr in ("record_attempt", "record_latency"):
        _patch(recorder, ProviderHealth, attr, "core.health")
    _patch(recorder, WriteLog, "log_put", "core.writelog", _size(3))
    _patch(recorder, WriteLog, "log_remove", "core.writelog")
    _patch(recorder, WriteLog, "log_create", "core.writelog")

    # fs
    _patch(recorder, MetadataStore, "is_cached", "fs.is_cached",
           lambda args, kwargs, result: 1 if result else 0)
    _patch(recorder, MetadataStore, "apply_group", "fs.apply_group")
    _patch(recorder, MetadataStore, "encode_dir", "fs.encode_dir")

    # service
    _patch(recorder, ServicePlane, "route", "service.route")
    _patch(recorder, TenantRegistry, "authenticate", "service.auth")
    _patch(recorder, AdmissionController, "submit", "service.submit")
    _patch(
        recorder, AdmissionController, "next_request", "service.dispatch",
        lambda args, kwargs, result: (
            0.0 if result is None else args[0].clock.now - result.submitted_at
        ),
    )

    # obs
    _patch(recorder, SloTracker, "record_op", "obs.slo_record")
