"""Self-tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio

import pytest

from benchlib import (
    SUITE_CELLS,
    ResponseChecker,
    Span,
    growth_per_doubling,
    REFERENCE_S,
    hist_delta,
    normalized_times,
    percentile,
    self_time_by_name,
    self_times,
    serve_plan,
    supports,
)
from serve_child import latencies_ms, open_loop


# -- percentile rule ----------------------------------------------------


def test_p90_needs_100_samples():
    assert supports(100, 0.9)
    assert not supports(99, 0.9)
    assert supports(20, 0.5)
    assert not supports(19, 0.5)
    assert not supports(0, 0.5)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(list(reversed(values)), 0.9) == 90
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_growth_is_geomean_of_ratios_for_two_sizes():
    # machine A doubles, machine B quadruples: geomean sqrt(2*4).
    points = [(800, 1.0), (1600, 2.0), (800, 0.5), (1600, 2.0)]
    assert growth_per_doubling(points) == pytest.approx(8 ** 0.5)


def test_normalized_times_cancel_host_speed():
    walls = [1.0, 0.5, 2.0]
    quiet = normalized_times(walls, [REFERENCE_S] * 4)
    assert quiet == pytest.approx(walls)
    # A host twice as slow doubles every wall time and every reference.
    slow = normalized_times([2 * w for w in walls], [2 * REFERENCE_S] * 4)
    assert slow == pytest.approx(walls)
    # An operation is scaled by the references on both sides of it.
    assert normalized_times([1.0], [REFERENCE_S, 4 * REFERENCE_S]) == pytest.approx([0.5])
    with pytest.raises(ValueError):
        normalized_times(walls, [REFERENCE_S] * 3)


# -- self time -----------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        Span(0, "parent", 0.0, 10.0, -1, "r"),
        Span(1, "child", 1.0, 3.0, 0, "r"),
        Span(2, "child", 5.0, 6.0, 0, "r"),
        Span(3, "grandchild", 1.5, 2.5, 1, "r"),
    ]
    own = self_times(spans)
    assert own[(0, 0)] == pytest.approx(7.0)
    assert own[(0, 1)] == pytest.approx(1.0)
    assert own[(0, 3)] == pytest.approx(1.0)
    assert self_time_by_name(spans)["child"] == pytest.approx(2.0)
    assert self_time_by_name(spans, since=4.0) == {"child": pytest.approx(1.0)}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "parent", 0.0, 10.0, -1, "r"),
        Span(1, "child", 2.0, 6.0, 0, "r"),
        Span(2, "child", 4.0, 12.0, 0, "r"),  # overlaps, runs past the end
    ]
    assert self_times(spans)[(0, 0)] == pytest.approx(2.0)


def test_self_time_keeps_processes_apart():
    spans = [Span(0, "a", 0.0, 4.0, -1, "r", pid=1), Span(1, "b", 1.0, 2.0, 0, "r", pid=2)]
    assert self_times(spans)[(1, 0)] == pytest.approx(4.0)


# -- due-time latency ------------------------------------------------------


def test_latency_runs_from_due_time_under_a_fake_clock():
    now = [0.0]

    async def send(slot, i):
        now[0] += 1.0  # one second of service per request
        await asyncio.sleep(0)
        return 200, {"i": i}

    async def sleep(seconds):
        now[0] += seconds
        await asyncio.sleep(0)

    outcomes = asyncio.run(open_loop([0.0, 0.0, 0.0], send, 1, clock=lambda: now[0],
                                     sleep=sleep))
    # One connection: the second and third wait for it, and that wait counts.
    assert latencies_ms(outcomes, [False] * 3) == pytest.approx([1000.0, 2000.0, 3000.0])
    # Timed from the send instead, each would read as one second.
    assert [o.done - o.sent for o in outcomes] == pytest.approx([1.0, 1.0, 1.0])


def test_failed_request_misses_every_limit():
    async def send(slot, i):
        if i == 1:
            raise ConnectionResetError("gone")
        return 200, {}

    outcomes = asyncio.run(open_loop([0.0, 0.0], send, 2))
    assert outcomes[1].error.startswith("ConnectionResetError")
    failed = [o.error is not None for o in outcomes]
    assert latencies_ms(outcomes, failed)[1] >= 10_000.0


# -- seeded plans ------------------------------------------------------


def test_plan_is_a_function_of_the_seed():
    assert serve_plan(5, 25, 6.0) == serve_plan(5, 25, 6.0)
    assert serve_plan(5, 25, 6.0) != serve_plan(6, 25, 6.0)


def test_plan_mix():
    plan = serve_plan(7, 25, 6.0)
    cold = [r for r in plan if r.cold]
    assert len(plan) == 150
    assert len(cold) == 48  # the multiple of 16 nearest to 30%
    assert len({r.sched_seed for r in cold}) == len(cold)
    assert all(r.sched_seed == 7 for r in plan if not r.cold)
    assert {r.cell for r in plan if not r.cold} == set(range(len(SUITE_CELLS)))
    assert [r.due for r in plan] == sorted(r.due for r in plan)
    cold_at = [i for i, r in enumerate(plan) if r.cold]
    assert {b - a for a, b in zip(cold_at, cold_at[1:])} <= {3, 4}
    assert all(sum(r.cell == c for r in cold) == 3 for c in range(len(SUITE_CELLS)))


# -- output checks -------------------------------------------------------


def _response(cycles, verified=True, status="ok"):
    return {"served": "compile", "result": {
        "status": status, "cycles": cycles,
        "regions": [{"verified": verified}]}}


def test_checker_rejects_corrupted_cycles():
    checker = ResponseChecker()
    assert checker.check((0, 1), 200, _response(84)) is None
    assert checker.check((0, 1), 200, _response(84)) is None
    assert "same key" in checker.check((0, 1), 200, _response(85))


def test_checker_compares_with_direct_compile():
    checker = ResponseChecker(expected={(0, 1): 84})
    assert "direct compile" in checker.check((0, 1), 200, _response(83))
    late = ResponseChecker()
    late.check((2, 1), 200, _response(50))
    late.expected[(2, 1)] = 51
    assert late.recheck() == [(2, 1)]


def test_checker_rejects_errors_and_unverified_answers():
    checker = ResponseChecker()
    assert checker.check((0, 1), 429, {}) == "http 429"
    assert checker.check((0, 1), 500, {}) == "http 500"
    assert "verified" in checker.check((0, 1), 200, _response(84, verified=False))
    assert "status" in checker.check((0, 1), 200, _response(84, status="partial"))


def test_hist_delta_keeps_only_new_observations():
    before = {"count": 2, "total": 3.0, "buckets": {"10": 2}}
    after = {"count": 5, "total": 9.0, "min": 1.0, "max": 4.0,
             "buckets": {"10": 3, "20": 2}}
    delta = hist_delta(before, after)
    assert delta["count"] == 3
    assert delta["total"] == pytest.approx(6.0)
    assert delta["buckets"] == {"10": 1, "20": 2}


# -- the recorder -------------------------------------------------------


def test_recorder_wraps_and_restores_entry_points():
    pytest.importorskip("repro")
    import repro.core.kernels as kernels
    from repro.core.convergent import ConvergentScheduler
    from repro.machine import machine_from_spec
    from repro.machine.machine import Machine
    from repro.workloads.suite import build_benchmark
    from spans import SpanRecorder

    original = kernels.build_region_index
    original_can_execute = Machine.__dict__["can_execute"]
    machine = machine_from_spec("vliw4")
    region = build_benchmark("vvmul", machine).regions[0]
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert kernels.build_region_index is not original
        with recorder.op("vvmul@vliw4"):
            ConvergentScheduler().schedule(region, machine)
    finally:
        recorder.uninstall()
    assert kernels.build_region_index is original
    assert Machine.__dict__["can_execute"] is original_can_execute
    names = {s.name for s in recorder.spans}
    assert {"op", "core.schedule", "core.kernels.region_index", "core.passes.INITTIME",
            "schedulers.list_schedule", "core.extract"} <= names
    assert all(s.rid == "vvmul@vliw4" for s in recorder.spans)
    assert recorder.can_execute_calls > 0
    assert 0 < recorder.matrix_nonzero <= recorder.matrix_cells
