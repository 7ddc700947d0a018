"""Deterministic, seedable fault injection.

A :class:`FaultPlan` is a list of :class:`Fault` specs plus trigger
bookkeeping.  It damages a run *without touching the files on disk* by
wrapping the surfaces the paper's pipeline touches:

- :meth:`FaultPlan.wrap_dataset` proxies ``TileDataset.load`` to inject
  missing files (``FileNotFoundError``), corrupt bytes
  (:class:`~repro.io.tiff.TiffError`, raised from the decoder on a
  truncated copy of the real bytes), transient ``IOError`` s that succeed
  after ``failures`` attempts, and slow reads (latency spikes);
- :meth:`FaultPlan.wrap_handler` makes a named pipeline stage raise for
  its first ``failures`` invocations;
- :meth:`FaultPlan.wrap_pool` makes a transform pool (host
  :class:`~repro.memmodel.pool.BufferPool` or the GPU
  ``DevicePool``) report exhaustion for its first ``failures`` acquires,
  simulating GPU buffer-pool pressure.

Every trigger is recorded as a :class:`FaultEvent`, and all trigger
decisions are deterministic (per-tile attempt counters, no clocks or
RNG at injection time), so a seeded plan plus a fixed dataset replays
bit-identically -- the property the CI smoke job and the acceptance
tests rely on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Any

import numpy as np

from repro.io.tiff import TiffError
from repro.memmodel.pool import PoolExhausted


class FaultKind(str, Enum):
    MISSING = "missing"            # tile file absent
    CORRUPT = "corrupt"            # tile bytes truncated -> TiffError
    TRANSIENT_IO = "transient_io"  # IOError for the first N attempts
    SLOW_READ = "slow_read"        # latency spike on read
    POOL_EXHAUSTED = "pool_exhausted"  # transform pool acquire fails
    STAGE_ERROR = "stage_error"    # handler exception in a named stage
    HANG = "hang"                  # operation blocks until cancelled (or a bound)
    STALL = "stall"                # named stage silently swallows items
    #: Process suicide: the first ``failures`` reads of the target tile
    #: SIGKILL the *current process* -- how the chaos harness makes a
    #: specific job deterministically kill every worker it lands on
    #: (poison input), as opposed to the harness's externally timed kills.
    CRASH = "crash"
    # Data-level kinds (docs/ROBUSTNESS.md): the read *succeeds* but the
    # pixels mislead registration -- the class of dirty data the
    # phase-2 quality gate exists for.
    DUST = "dust"                  # occluding blobs -> overlap contents disagree
    SATURATE = "saturate"          # blown-out exposure -> featureless overlap
    SHIFT = "shift"                # content shifted -> confident wrong offset


#: Per-kind RNG stream salt so a tile damaged by several data faults
#: draws independent randomness for each.
_DATA_KIND_SALT = {
    FaultKind.DUST: 101,
    FaultKind.SATURATE: 102,
    FaultKind.SHIFT: 103,
}


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    ``tile`` addresses tile-scoped kinds; ``stage`` addresses
    :data:`FaultKind.STAGE_ERROR`, :data:`FaultKind.STALL` and
    stage-scoped :data:`FaultKind.HANG`; ``failures`` is how many
    attempts fail before the operation succeeds (transient kinds) --
    permanent kinds (missing/corrupt) fail every attempt regardless;
    ``latency`` is the injected delay in seconds for
    :data:`FaultKind.SLOW_READ`, and for :data:`FaultKind.HANG` the
    upper bound on the hang (0 = hang until cooperatively cancelled).
    """

    kind: FaultKind
    tile: tuple[int, int] | None = None
    stage: str | None = None
    failures: int = 1
    latency: float = 0.0


@dataclass
class FaultEvent:
    """A fault actually firing (one per failed/delayed attempt)."""

    kind: FaultKind
    tile: tuple[int, int] | None
    stage: str | None
    attempt: int


@dataclass
class FaultPlan:
    """A deterministic set of faults plus trigger bookkeeping."""

    faults: list[Fault] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._attempts: dict[tuple, int] = {}
        self.events: list[FaultEvent] = []

    # -- construction --------------------------------------------------------

    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    @staticmethod
    def random(
        rows: int,
        cols: int,
        seed: int = 0,
        missing: int = 1,
        corrupt: int = 1,
        transient: int = 2,
        slow: int = 1,
        latency: float = 0.02,
    ) -> "FaultPlan":
        """Seeded plan over distinct random tiles of a ``rows x cols`` grid.

        Tile ``(0, 0)`` is never damaged: phase 2 anchors the mosaic
        there, and real acquisitions rarely lose the very first tile the
        operator watched being captured.
        """
        rng = Random(seed)
        candidates = [
            (r, c) for r in range(rows) for c in range(cols) if (r, c) != (0, 0)
        ]
        need = missing + corrupt + transient + slow
        if need > len(candidates):
            raise ValueError(
                f"{need} faults requested but only {len(candidates)} tiles "
                f"available on a {rows}x{cols} grid"
            )
        picked = rng.sample(candidates, need)
        plan = FaultPlan(seed=seed)
        i = 0
        for _ in range(missing):
            plan.add(Fault(FaultKind.MISSING, tile=picked[i])); i += 1
        for _ in range(corrupt):
            plan.add(Fault(FaultKind.CORRUPT, tile=picked[i])); i += 1
        for _ in range(transient):
            plan.add(Fault(FaultKind.TRANSIENT_IO, tile=picked[i], failures=1)); i += 1
        for _ in range(slow):
            plan.add(Fault(FaultKind.SLOW_READ, tile=picked[i], latency=latency)); i += 1
        return plan

    _SPEC_TILE_KINDS = {
        "missing": FaultKind.MISSING,
        "corrupt": FaultKind.CORRUPT,
        "transient": FaultKind.TRANSIENT_IO,
        "slow": FaultKind.SLOW_READ,
        "hang": FaultKind.HANG,
        "crash": FaultKind.CRASH,
        "dust": FaultKind.DUST,
        "saturate": FaultKind.SATURATE,
        "shift": FaultKind.SHIFT,
    }
    _SPEC_STAGE_KINDS = {
        "stall": FaultKind.STALL,
        "stage_error": FaultKind.STAGE_ERROR,
    }

    @classmethod
    def from_spec(cls, spec: str, rows: int, cols: int) -> "FaultPlan":
        """Parse a ``SEED[:key=value,...]`` fault spec into a seeded plan.

        A bare integer (``"42"``) keeps the historical
        ``--inject-faults SEED`` behaviour: the default :meth:`random`
        mix.  The extended form names explicit counts per kind, so a
        test can damage a run with exactly the failure mode it is
        exercising::

            42:missing=1,transient=2      # only these two kinds
            7:hang=1,latency=0.5          # one read hangs for <= 0.5 s
            7:hang=1,latency=0            # ... hangs until cancelled
            11:stall=3,stage=compute      # compute stage swallows 3 items

        Keys ``missing``/``corrupt``/``transient``/``slow``/``hang``
        are tile-scoped counts (tiles drawn like :meth:`random`);
        ``stall``/``stage_error`` are stage-scoped counts of swallowed /
        failing attempts; ``latency`` (seconds) sets the slow-read delay
        and the hang bound; ``stage`` names the target stage for the
        stage-scoped kinds (default ``"compute"``).
        """
        head, sep, rest = spec.partition(":")
        try:
            seed = int(head)
        except ValueError:
            raise ValueError(
                f"fault spec must start with an integer seed: {spec!r}"
            ) from None
        if not sep:
            return cls.random(rows, cols, seed=seed)

        counts: dict[str, int] = {}
        latency = 0.02
        stage = "compute"
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"expected key=value in fault spec: {item!r}")
            if key == "latency":
                latency = float(value)
            elif key == "stage":
                stage = value
            elif key in cls._SPEC_TILE_KINDS or key in cls._SPEC_STAGE_KINDS:
                counts[key] = int(value)
            else:
                raise ValueError(
                    f"unknown fault-spec key {key!r} (known: "
                    f"{', '.join(sorted({*cls._SPEC_TILE_KINDS, *cls._SPEC_STAGE_KINDS, 'latency', 'stage'}))})"
                )

        rng = Random(seed)
        candidates = [
            (r, c) for r in range(rows) for c in range(cols) if (r, c) != (0, 0)
        ]
        need = sum(n for k, n in counts.items() if k in cls._SPEC_TILE_KINDS)
        if need > len(candidates):
            raise ValueError(
                f"{need} tile faults requested but only {len(candidates)} "
                f"tiles available on a {rows}x{cols} grid"
            )
        picked = rng.sample(candidates, need)
        plan = cls(seed=seed)
        i = 0
        for key, kind in cls._SPEC_TILE_KINDS.items():
            for _ in range(counts.get(key, 0)):
                plan.add(Fault(kind, tile=picked[i], latency=latency))
                i += 1
        for key, kind in cls._SPEC_STAGE_KINDS.items():
            n = counts.get(key, 0)
            if n > 0:
                plan.add(Fault(kind, stage=stage, failures=n, latency=latency))
        return plan

    # -- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        """Clear trigger state so the same plan can replay a fresh run."""
        with self._lock:
            self._attempts.clear()
            self.events.clear()

    def _record(self, fault: Fault, attempt: int) -> None:
        self.events.append(
            FaultEvent(fault.kind, fault.tile, fault.stage, attempt)
        )

    def _next_attempt(self, key: tuple) -> int:
        """Post-increment the per-fault attempt counter (caller holds lock)."""
        n = self._attempts.get(key, 0)
        self._attempts[key] = n + 1
        return n

    def mark(self) -> tuple[dict, int]:
        """Snapshot of the trigger state, for :meth:`changes_since`."""
        with self._lock:
            return dict(self._attempts), len(self.events)

    def changes_since(self, mark: tuple[dict, int]) -> tuple[dict, list]:
        """Attempt counters and events recorded after ``mark``.

        A forked worker ships these back so the parent's copy of the plan
        can :meth:`absorb` what the worker's reads consumed (attempt keys
        hold fault ids, which a forked child shares with its parent).
        """
        attempts, n_events = mark
        with self._lock:
            changed = {
                k: v for k, v in self._attempts.items() if attempts.get(k) != v
            }
            return changed, self.events[n_events:]

    def absorb(self, changes: tuple[dict, list]) -> None:
        """Fold a worker's :meth:`changes_since` into this plan."""
        attempts, events = changes
        with self._lock:
            self._attempts.update(attempts)
            self.events.extend(events)

    def summary(self) -> dict[str, int]:
        """Planned faults by kind (what *should* fire at least once)."""
        out: dict[str, int] = {}
        for f in self.faults:
            out[f.kind.value] = out.get(f.kind.value, 0) + 1
        return out

    def triggered_summary(self) -> dict[str, int]:
        """Events that actually fired, by kind."""
        with self._lock:
            out: dict[str, int] = {}
            for e in self.events:
                out[e.kind.value] = out.get(e.kind.value, 0) + 1
            return out

    def faults_for_tile(self, row: int, col: int) -> list[Fault]:
        return [f for f in self.faults if f.tile == (row, col)]

    _STAGE_KINDS = (FaultKind.STAGE_ERROR, FaultKind.HANG, FaultKind.STALL)

    def faults_for_stage(self, stage: str) -> list[Fault]:
        return [
            f for f in self.faults
            if f.kind in self._STAGE_KINDS and f.stage == stage
        ]

    # -- wrapping ------------------------------------------------------------

    def wrap_dataset(self, dataset) -> "FaultyDataset":
        """Proxy ``dataset`` so ``load`` injects this plan's tile faults."""
        return FaultyDataset(dataset, self)

    def wrap_handler(self, stage: str, handler):
        """Wrap a pipeline stage handler with this plan's stage faults."""
        stage_faults = self.faults_for_stage(stage)
        if not stage_faults:
            return handler

        def wrapped(item, ctx):
            for fault in stage_faults:
                with self._lock:
                    attempt = self._next_attempt((id(fault), "stage"))
                    fire = attempt < fault.failures
                    if fire:
                        self._record(fault, attempt)
                if not fire:
                    continue
                if fault.kind is FaultKind.STAGE_ERROR:
                    raise RuntimeError(
                        f"injected stage fault in {stage!r} "
                        f"(attempt {attempt + 1}/{fault.failures})"
                    )
                if fault.kind is FaultKind.STALL:
                    # Swallow the item: downstream never hears about it,
                    # which is exactly the silent wedge the watchdog's
                    # pipeline-stall detector exists to catch.
                    return None
                if fault.kind is FaultKind.HANG:
                    self._hang(fault.latency)
            return handler(item, ctx)

        return wrapped

    def wrap_pool(self, pool) -> "FaultyPool":
        """Proxy a buffer pool so early acquires report exhaustion."""
        return FaultyPool(pool, self)

    # -- injection core (used by the proxies) --------------------------------

    @staticmethod
    def _hang(bound: float, poll: float = 0.005) -> None:
        """Block, polling the installed cancel token so a watchdog can
        break the hang; ``bound`` caps the wait (0 = until cancelled)."""
        from repro.recovery.cancel import current_token

        deadline = time.monotonic() + bound if bound > 0 else None
        while deadline is None or time.monotonic() < deadline:
            token = current_token()
            if token is not None:
                token.raise_if_cancelled()
            time.sleep(poll)

    def before_load(self, row: int, col: int, path) -> None:
        """Raise/delay per the plan; called before a real tile read."""
        for fault in self.faults_for_tile(row, col):
            if fault.kind is FaultKind.MISSING:
                with self._lock:
                    attempt = self._next_attempt((id(fault), row, col))
                    self._record(fault, attempt)
                raise FileNotFoundError(f"injected missing tile: {path}")
            if fault.kind is FaultKind.CORRUPT:
                with self._lock:
                    attempt = self._next_attempt((id(fault), row, col))
                    self._record(fault, attempt)
                raise TiffError(
                    f"injected corrupt tile ({row},{col}): truncated file "
                    f"while reading strip data"
                )
            if fault.kind is FaultKind.TRANSIENT_IO:
                with self._lock:
                    attempt = self._next_attempt((id(fault), row, col))
                    fire = attempt < fault.failures
                    if fire:
                        self._record(fault, attempt)
                if fire:
                    raise IOError(
                        f"injected transient I/O error on tile ({row},{col}) "
                        f"(attempt {attempt + 1}/{fault.failures})"
                    )
            if fault.kind is FaultKind.SLOW_READ:
                with self._lock:
                    attempt = self._next_attempt((id(fault), row, col))
                    self._record(fault, attempt)
                if fault.latency > 0:
                    time.sleep(fault.latency)
            if fault.kind is FaultKind.HANG:
                with self._lock:
                    attempt = self._next_attempt((id(fault), row, col))
                    fire = attempt < fault.failures
                    if fire:
                        self._record(fault, attempt)
                if fire:
                    self._hang(fault.latency)
            if fault.kind is FaultKind.CRASH:
                # Attempt counting keeps this deterministic *and* finite:
                # with failures=N the tile kills its host process N times,
                # then reads cleanly -- a transiently-poison job; with a
                # large N it is poison forever and earns quarantine.
                with self._lock:
                    attempt = self._next_attempt((id(fault), row, col))
                    fire = attempt < fault.failures
                    if fire:
                        self._record(fault, attempt)
                if fire:
                    import os as _os
                    import signal as _signal

                    _os.kill(_os.getpid(), _signal.SIGKILL)

    _DATA_KINDS = (FaultKind.DUST, FaultKind.SATURATE, FaultKind.SHIFT)

    def transform_tile(self, row: int, col: int, pixels, level: float):
        """Apply this plan's data-level faults to freshly read pixels.

        Called by :class:`FaultyDataset` *after* a successful read;
        returns the (possibly damaged) pixel array.  ``level`` is the
        sensor full-scale count saturation clips to.  Damage is a pure
        function of ``(plan seed, tile index, fault kind)``, so repeated
        reads of the same tile -- retries, band-partitioned
        implementations, resumed runs -- see identical pixels.
        """
        from repro.synth.noise import (
            apply_content_shift,
            apply_dust,
            apply_saturation,
        )

        for fault in self.faults_for_tile(row, col):
            if fault.kind not in self._DATA_KINDS:
                continue
            with self._lock:
                attempt = self._next_attempt((id(fault), row, col))
                self._record(fault, attempt)
            rng = np.random.default_rng(
                (self.seed, row, col, _DATA_KIND_SALT[fault.kind])
            )
            if fault.kind is FaultKind.DUST:
                pixels = apply_dust(pixels, rng)
            elif fault.kind is FaultKind.SATURATE:
                pixels = apply_saturation(pixels, level)
            elif fault.kind is FaultKind.SHIFT:
                pixels = apply_content_shift(pixels, rng)
        return pixels

    def before_acquire(self) -> None:
        """Raise :class:`PoolExhausted` per pending pool faults."""
        for fault in self.faults:
            if fault.kind is not FaultKind.POOL_EXHAUSTED:
                continue
            with self._lock:
                attempt = self._next_attempt((id(fault), "pool"))
                fire = attempt < fault.failures
                if fire:
                    self._record(fault, attempt)
            if fire:
                raise PoolExhausted(
                    f"injected pool exhaustion "
                    f"(attempt {attempt + 1}/{fault.failures})"
                )


class FaultyDataset:
    """Transparent :class:`~repro.io.dataset.TileDataset` proxy.

    Everything delegates to the wrapped dataset except :meth:`load`, which
    consults the plan first.  The plan is exposed as ``fault_plan`` so the
    stitcher can fold the injection summary into its fault report.
    """

    def __init__(self, dataset, plan: FaultPlan) -> None:
        self._dataset = dataset
        self.fault_plan = plan

    def __getattr__(self, name: str) -> Any:
        return getattr(self._dataset, name)

    def __len__(self) -> int:
        return len(self._dataset)

    def load(self, row: int, col: int, dtype=None, **kw):
        self.fault_plan.before_load(row, col, self._dataset.path(row, col))
        if dtype is None:
            pixels = self._dataset.load(row, col, **kw)
        else:
            pixels = self._dataset.load(row, col, dtype=dtype, **kw)
        if not any(
            f.kind in FaultPlan._DATA_KINDS and f.tile == (row, col)
            for f in self.fault_plan.faults
        ):
            return pixels
        # Data-level damage rides on top of the real read; the saturation
        # level is the acquisition's full-scale count so the clip lands
        # at the same value whatever dtype the caller asked for.
        meta = getattr(self._dataset, "metadata", None)
        bit_depth = int(getattr(meta, "bit_depth", 16) or 16)
        level = float((1 << bit_depth) - 1)
        return self.fault_plan.transform_tile(row, col, pixels, level)


class FaultyPool:
    """Buffer-pool proxy injecting :class:`PoolExhausted` on early acquires.

    Works for both the host :class:`~repro.memmodel.pool.BufferPool` and
    the GPU ``DevicePool`` (same acquire/release/array surface).
    """

    def __init__(self, pool, plan: FaultPlan) -> None:
        self._pool = pool
        self.fault_plan = plan

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pool, name)

    def acquire(self, *args, **kw):
        self.fault_plan.before_acquire()
        return self._pool.acquire(*args, **kw)
