"""Tests of the benchmark's own code.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types

import pytest

from run import backlog_max, latencies
from spans import Recorder, Span, install, self_times
from stats import TooFewSamples, percentile, samples_beyond
from workloads import END_TO_END, PER_LAYER, ROOT, WORKLOADS, job_mix

# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize("q, enough", [(50, 20), (90, 92), (99, 902)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    # With n samples the q-th percentile sits at rank (n - 1) q / 100;
    # ten samples must lie strictly above that rank.
    assert samples_beyond(enough - 1, q) == 9
    with pytest.raises(TooFewSamples):
        percentile(range(enough - 1), q)
    assert samples_beyond(enough, q) == 10
    percentile(range(enough), q)


def test_percentile_refuses_empty_input():
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_percentile_interpolates_linearly():
    values = list(range(100, 0, -1))  # unsorted input: 100 .. 1
    assert percentile(values, 90) == pytest.approx(90.1)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)


# -- wrappers and self time --------------------------------------------------


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_wrapper_returns_the_callees_value():
    rec = Recorder()
    token = object()
    wrapped = rec.wrap("f", lambda a, b=0: (token, a, b))
    assert wrapped(1, b=2) == (token, 1, 2)
    assert [s.name for s in rec.spans] == ["f"]


def test_wrapper_keeps_the_callees_name_and_doc():
    def layer():
        """Doc."""

    wrapped = Recorder().wrap("layer", layer)
    assert wrapped.__name__ == "layer" and wrapped.__doc__ == "Doc."


def test_wrapper_lets_exceptions_through_and_closes_the_span():
    rec = Recorder(clock=fake_clock(0.0, 1.0, 2.0, 3.0))
    error = KeyError("x")

    def boom():
        raise error

    wrapped = rec.wrap("boom", boom)
    with pytest.raises(KeyError) as caught:
        wrapped()
    assert caught.value is error
    assert rec.spans[0].duration == 1.0
    # The parent stack unwound: the next span is a root.
    rec.wrap("next", lambda: None)()
    assert rec.spans[1].parent is None


def test_self_time_subtracts_children():
    # outer [0, 10] calls inner [1, 3] and inner [4, 8]; the second inner
    # calls leaf [5, 6].
    rec = Recorder(clock=fake_clock(0, 1, 3, 4, 5, 6, 8, 10))
    leaf = rec.wrap("leaf", lambda: None)

    def inner_body(deep):
        if deep:
            leaf()

    inner = rec.wrap("inner", inner_body)
    outer = rec.wrap("outer", lambda: (inner(False), inner(True)))
    outer()
    names = [s.name for s in rec.spans]
    assert names == ["outer", "inner", "inner", "leaf"]
    assert [s.parent for s in rec.spans] == [None, 0, 0, 2]
    assert self_times(rec.spans) == [4, 2, 3, 1]
    # Self times of a tree add up to its root's duration.
    assert sum(self_times(rec.spans)) == rec.spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0, 10, None, 0), Span("a", 1, 5, 0, 0),
             Span("b", 3, 7, 0, 0)]
    assert self_times(spans)[0] == 4


def test_install_wraps_lookups_and_undo_restores(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    class Tiles:
        def load(self, k):
            return k * 2

    def solve(x):
        return x + 1

    mod.Tiles, mod.solve = Tiles, solve
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    rec = Recorder()
    undo = install(rec, [
        (f"{mod.__name__}:solve", "solve", None),
        (f"{mod.__name__}:Tiles.load", "load",
         lambda args, kwargs, result: {"bytes": result}),
    ])
    assert mod.solve(1) == 2
    assert Tiles().load(4) == 8
    assert [(s.name, s.info) for s in rec.spans] == [
        ("solve", {}), ("load", {"bytes": 8})]
    undo()
    assert mod.solve is solve
    assert Tiles.__dict__["load"].__name__ == "load"
    Tiles().load(1)
    assert len(rec.spans) == 2


# -- inputs ------------------------------------------------------------------


def test_job_mix_is_seeded():
    assert job_mix(7, 30) == job_mix(7, 30)
    assert job_mix(7, 30) != job_mix(8, 30)
    assert job_mix(7, 30).count("full") == 10


def test_same_seed_generates_the_same_dataset(tmp_path):
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from tasks import generate

    def files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    generate("service-mix", 5, tmp_path / "a")
    generate("service-mix", 5, tmp_path / "b")
    generate("service-mix", 6, tmp_path / "c")
    a = files(tmp_path / "a")
    assert a == files(tmp_path / "b")
    assert a != files(tmp_path / "c")


# -- output checks -----------------------------------------------------------


def test_a_check_that_cannot_run_is_a_failed_check(tmp_path):
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from tasks import check_stitch, generate

    generate("service-mix", 5, tmp_path / "ds")
    meta = json.loads((tmp_path / "ds" / "dataset.json").read_text())
    positions = tmp_path / "positions.json"
    positions.write_text(json.dumps(meta["true_positions"]))
    torn = tmp_path / "torn.tif"
    torn.write_bytes(b"II*\x00" + b"\x00" * 4)
    check = check_stitch(tmp_path / "ds", torn, positions)
    assert not check["ok"] and "check raised" in check["problems"][0]
    # Positions of the wrong shape: a failure, not an exception.
    positions.write_text(json.dumps([1, 2, 3]))
    check = check_stitch(tmp_path / "ds", torn, positions)
    assert not check["ok"] and check["problems"]


# -- open-loop bookkeeping ---------------------------------------------------


def test_latency_runs_from_the_scheduled_send():
    jobs = [
        {"kind": "full", "state": "done", "due": 1.0, "finished_at": 1.5},
        {"kind": "reuse", "state": "done", "due": 2.0, "finished_at": 2.1},
        {"kind": "reuse", "state": "failed", "due": 3.0, "finished_at": 3.1},
    ]
    assert latencies(jobs) == pytest.approx([0.5, 0.1])
    assert latencies(jobs, "full") == pytest.approx([0.5])


def test_backlog_counts_jobs_waiting_to_start():
    jobs = [
        {"submitted_at": 0.0, "started_at": 0.0},
        {"submitted_at": 1.0, "started_at": 4.0},
        {"submitted_at": 2.0, "started_at": 5.0},
        {"submitted_at": 3.0, "started_at": 3.5},
        {"submitted_at": 6.0, "started_at": 7.0},
    ]
    assert backlog_max(jobs) == 3


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
