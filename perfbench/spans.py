"""Spans recorded from outside the program, around calls into its layers.

A :class:`Recorder` wraps a callable so that every call appends one
:class:`Span` -- name, start, end, parent span and run id -- to an
in-memory list.  The wrapper is transparent: it returns what the callable
returns and lets every exception through.  :func:`install` puts wrappers
on the module attributes the program's callers look up and returns the
function that takes them off again.

A span's self time is its duration minus the part of it that its child
spans cover (:func:`self_times`); :func:`layer_metrics` turns a run's
spans into the benchmark's per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from stats import percentile_or


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    #: Facts about the call taken after it returned (bytes, pixels, ...).
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "info": self.info}


class Recorder:
    """Collects spans; one parent stack per thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: Run id stamped on new spans; the caller advances it per run.
        self.run = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``info(args, kwargs, result) -> dict`` runs after a successful
        call, outside the span, to note sizes on it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None,
                        self.run)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced


def _resolve(path: str):
    """``"pkg.mod:Attr.sub"`` -> (owner object, attribute name)."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder, targets) -> Callable[[], None]:
    """Wrap each ``(path, span_name, info)`` target; returns the undo."""
    saved = []
    try:
        for path, name, info in targets:
            owner, attr = _resolve(path)
            original = getattr(owner, attr)
            setattr(owner, attr, recorder.wrap(name, original, info))
            saved.append((owner, attr, original))
    except BaseException:
        _restore(saved)
        raise
    return lambda: _restore(saved)


def _restore(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out


def layer_metrics(spans, units: int) -> dict:
    """Per-layer figures per unit of work (one stitch, or one job)."""
    selfs = self_times(spans)
    by: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        by.setdefault(span.name, []).append((span, own))

    def total(name, key="dur"):
        rows = by.get(name, [])
        if key == "dur":
            return sum(s.duration for s, _ in rows)
        if key == "self":
            return sum(own for _, own in rows)
        return sum(s.info.get(key, 0) for s, _ in rows)

    def count(name):
        return len(by.get(name, []))

    pair_ms = [s.duration * 1e3 for s, _ in by.get("core.pciam.pair", [])]
    compose_self = total("core.compose", "self")
    hits = total("core.streamcompose", "cache_hits")
    lookups = hits + total("core.streamcompose", "cache_misses")
    n = max(units, 1)
    return {
        "cli.self_s": total("cli.main", "self") / n,
        "io.dataset.read_s": total("io.dataset.read") / n,
        "io.dataset.reads": count("io.dataset.read") / n,
        "io.dataset.read_mb": total("io.dataset.read", "bytes") / 1e6 / n,
        "core.pciam.forward_fft_s": total("core.pciam.forward_fft") / n,
        "core.pciam.forward_ffts": count("core.pciam.forward_fft") / n,
        "core.tilestats.build_s": total("core.tilestats") / n,
        "core.tilestats.builds": count("core.tilestats") / n,
        "core.pciam.pair_s": total("core.pciam.pair") / n,
        "core.pciam.pairs": count("core.pciam.pair") / n,
        "core.pciam.pair_ms_p50": percentile_or(pair_ms, 50, 0.0),
        "core.pciam.pair_ms_p90": percentile_or(pair_ms, 90, 0.0),
        "core.displacement.self_s": total("core.displacement", "self") / n,
        "core.global_opt.solve_s": total("core.global_opt") / n,
        "core.compose.render_s": compose_self / n,
        "core.compose.mpix_s": (total("core.compose", "pixels") / 1e6
                                / compose_self if compose_self else 0.0),
        "io.tiff.write_s": total("io.tiff.write") / n,
        "io.tiff.write_mb": total("io.tiff.write", "bytes") / 1e6 / n,
        "core.streamcompose.render_s":
            total("core.streamcompose", "self") / n,
        "core.streamcompose.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "core.streamcompose.peak_mb":
            max((s.info.get("peak_bytes", 0)
                 for s, _ in by.get("core.streamcompose", [])), default=0) / 1e6,
        "core.streamcompose.stripes": total("core.streamcompose", "stripes") / n,
    }
