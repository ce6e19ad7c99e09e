"""Pure helpers shared by the benchmark's processes and its self-tests.

Nothing here imports the program under test, so the statistics, the
seeded plans and the output checker can be tested without it.  The
reference kernel needs numpy, which it imports when first run.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10

#: The paper suites, as (machine spec, benchmark name) cells: 9 Raw
#: kernels on raw4x4 and 7 VLIW kernels on vliw4.  Copied from
#: ``repro.workloads.suite``, not imported, so the benchmark's inputs
#: stay put when the program's lists change.
RAW_SUITE = ("cholesky", "tomcatv", "vpenta", "mxm", "fpppp-kernel",
             "sha", "swim", "jacobi", "life")
VLIW_SUITE = ("vvmul", "rbsorf", "yuv", "tomcatv", "mxm", "fir", "cholesky")
SUITE_CELLS: Tuple[Tuple[str, str], ...] = tuple(
    [("raw4x4", name) for name in RAW_SUITE]
    + [("vliw4", name) for name in VLIW_SUITE]
)

#: Fig-10 layered graphs: sizes, width and machines of the scale workload.
SCALE_SIZES = (800, 1600)
SCALE_WIDTH = 12
SCALE_MACHINES = ("raw4x4", "vliw4")
#: The scale graphs' seed.  It is fixed, not drawn from the workload
#: seed: graphs of one size differ in compile time by up to 25%, which
#: would swamp the change a run must resolve.
SCALE_GRAPH_SEED = 0

#: Nominal time of the reference kernel (:func:`reference_seconds`),
#: close to its time on a quiet 2-vCPU Xeon guest, so that normalised
#: compile times read as wall seconds on such a host.
REFERENCE_S = 0.015
#: Shape of the reference kernel's array: 10 MB of float64, the order of
#: a preference matrix on the scale workload.
REFERENCE_SHAPE = (800, 16, 100)
#: Dict updates per host-speed probe during a ``serve_mix`` window, and
#: the probe's nominal time, chosen like :data:`REFERENCE_S`.
PROBE_ITERATIONS = 8_000
PROBE_S = 0.002


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def supports(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least :data:`MIN_BEYOND` above
    the nearest-rank ``q``-percentile (so p90 needs 100 samples)."""
    return n > 0 and n - math.ceil(q * n) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-percentile (``q`` in ``(0, 1]``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geomean of an empty sample")
    return math.exp(sum(logs) / len(logs))


def growth_per_doubling(points: Sequence[Tuple[float, float]]) -> float:
    """``2**slope`` of the least-squares fit of log2(time) on log2(size).

    With every machine measured equally often at two sizes ``n`` and
    ``2n`` this is exactly the geometric mean over machines of
    ``t(2n) / t(n)``.

    Args:
        points: ``(instructions, seconds)`` pairs, at least two sizes.
    """
    xs = [math.log2(n) for n, _ in points]
    ys = [math.log2(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("growth needs at least two program sizes")
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return 2.0 ** slope


def interpreter_seconds(iterations: int = 40_000) -> float:
    """Time ``iterations`` dict updates in a Python loop."""
    started = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(iterations):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return time.perf_counter() - started


def reference_seconds() -> float:
    """Time a fixed piece of work that does not use the program.

    Other tenants slow interpreter work and array work by different
    amounts, so the kernel does some of each, as a compile does: dict
    updates in a Python loop, then elementwise and reduction passes over
    a 10 MB array.  The result is the geometric mean of the two times.
    """
    import numpy as np

    interp = interpreter_seconds()
    started = time.perf_counter()
    array = np.linspace(1.0, 2.0, int(np.prod(REFERENCE_SHAPE))).reshape(REFERENCE_SHAPE)
    for _ in range(3):
        scaled = array * 1.0001
        scaled /= scaled.sum(axis=1, keepdims=True)
        array = scaled.copy()
    arrays = time.perf_counter() - started
    return (interp * arrays) ** 0.5


def normalized_times(walls: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Wall times divided by the host's speed when each was measured.

    ``refs`` holds one more entry than ``walls``: the reference kernel's
    time before each operation and once after the last.  Operation
    ``i`` ran between ``refs[i]`` and ``refs[i + 1]``, so its wall time
    is scaled by :data:`REFERENCE_S` over their geometric mean.  A host
    that slows down by a factor leaves the result unchanged.
    """
    if len(refs) != len(walls) + 1:
        raise ValueError("need one reference time more than wall times")
    return [wall * REFERENCE_S / math.sqrt(before * after)
            for wall, before, after in zip(walls, refs, refs[1:])]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One recorded call of a wrapped entry point.

    Attributes:
        id: Unique within its process.
        name: Layer name, e.g. ``core.passes.PATHPROP``.
        start: ``time.perf_counter()`` at entry.
        end: ``time.perf_counter()`` at exit.
        parent: ``id`` of the enclosing span on the same thread, or -1.
        rid: Request id shared by every span of one operation.
        pid: Recording process.
    """

    id: int
    name: str
    start: float
    end: float
    parent: int
    rid: str
    pid: int = 0


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Each span's duration minus the part its child spans cover.

    Returns:
        ``(pid, id) -> self seconds``.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault((span.pid, span.parent), []).append(
                (span.start, span.end)
            )
    return {
        (s.pid, s.id): (s.end - s.start)
        - _covered(children.get((s.pid, s.id), []), s.start, s.end)
        for s in spans
    }


def self_time_by_name(
    spans: Sequence[Span], since: float = float("-inf")
) -> Dict[str, float]:
    """Total self time per span name, over spans starting at ``since`` or
    later."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if span.start >= since:
            totals[span.name] = totals.get(span.name, 0.0) + own[(span.pid, span.id)]
    return totals


# ----------------------------------------------------------------------
# Seeded plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedRequest:
    """One request of the serve_mix plan.

    Attributes:
        due: Seconds after the window opens when it is due.
        cell: Index into :data:`SUITE_CELLS`.
        sched_seed: Convergent scheduler seed (the NOISE stream).
        cold: True when the seed is fresh, so the fingerprint is new.
    """

    due: float
    cell: int
    sched_seed: int
    cold: bool

    @property
    def key(self) -> Tuple[int, int]:
        """Requests with one key must get identical answers."""
        return (self.cell, self.sched_seed)


def serve_plan(
    seed: int, seconds: float, rate: float, cold_share: float = 0.3
) -> List[PlannedRequest]:
    """The open-loop arrival plan: fixed spacing ``1/rate``.

    The number of cold requests is the multiple of 16 nearest to
    ``cold_share * n``, so each suite cell is compiled cold equally
    often.  They are spread evenly (request ``i`` is cold when
    ``floor((i + 1) * share)`` steps up), so no run piles cold compiles
    together by chance.  Warm requests cycle through the 16 suite cells
    and so do cold ones, each in an order drawn from ``seed``.  The warm
    requests all use scheduler seed ``seed``; each cold request gets a
    seed used nowhere else.
    """
    rng = random.Random(seed)
    n = max(1, int(round(seconds * rate)))
    cells = len(SUITE_CELLS)
    share = min(n, cells * max(1, round(cold_share * n / cells))) / n
    cold = [math.floor((i + 1) * share) > math.floor(i * share) for i in range(n)]
    warm_order = list(range(cells))
    cold_order = list(range(cells))
    rng.shuffle(warm_order)
    rng.shuffle(cold_order)
    cold_seeds = rng.sample(range(seed + 1, seed + 1 + 1_000_000), sum(cold))
    plan = []
    warm_i = cold_i = 0
    for i in range(n):
        if cold[i]:
            cell = cold_order[cold_i % len(cold_order)]
            plan.append(PlannedRequest(i / rate, cell, cold_seeds[cold_i], True))
            cold_i += 1
        else:
            cell = warm_order[warm_i % len(warm_order)]
            plan.append(PlannedRequest(i / rate, cell, seed, False))
            warm_i += 1
    return plan


def warm_requests(seed: int) -> List[PlannedRequest]:
    """The 16 warm requests, one per suite cell, due at once."""
    return [PlannedRequest(0.0, cell, seed, False) for cell in range(len(SUITE_CELLS))]


def cold_sample(plan: Sequence[PlannedRequest], seed: int, k: int) -> List[PlannedRequest]:
    """A seeded sample of ``k`` cold requests to check against a direct
    compile."""
    cold = [r for r in plan if r.cold]
    return random.Random(seed ^ 0x5EED).sample(cold, min(k, len(cold)))


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


@dataclass
class ResponseChecker:
    """Checks every compile response of one run.

    A 200 response must carry ``status: ok`` with every region
    verified, and report the same cycles as every other response with
    its key; where a direct compile of the key is known its cycles must
    match too.

    Attributes:
        expected: Key -> cycles from a direct in-process compile.
        seen: Key -> cycles of the first response with that key.
    """

    expected: Dict[Tuple[int, int], int] = field(default_factory=dict)
    seen: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def check(self, key: Tuple[int, int], status: int, payload: Mapping) -> Optional[str]:
        """Return why a response is wrong, or ``None`` when it is right."""
        if status != 200:
            return f"http {status}"
        result = payload.get("result") or {}
        if result.get("status") != "ok":
            return f"status {result.get('status')!r}"
        if not all(r.get("verified") for r in result.get("regions", [])):
            return "region not verified"
        cycles = result.get("cycles")
        if not isinstance(cycles, int) or cycles <= 0:
            return f"bad cycles {cycles!r}"
        first = self.seen.setdefault(key, cycles)
        if cycles != first:
            return f"cycles {cycles} != {first} for the same key"
        want = self.expected.get(key)
        if want is not None and cycles != want:
            return f"cycles {cycles} != direct compile {want}"
        return None

    def recheck(self) -> List[Tuple[int, int]]:
        """Keys whose first answer disagrees with a direct compile added
        after it was seen."""
        return [k for k, want in self.expected.items()
                if k in self.seen and self.seen[k] != want]


def hist_delta(before: Optional[Mapping], after: Optional[Mapping]) -> Dict:
    """The observations a ``QuantileHistogram`` dict gained between two
    ``/metrics`` snapshots, as a histogram dict."""
    after = dict(after or {})
    before = dict(before or {})
    if not after:
        return {"count": 0, "total": 0.0, "buckets": {}}
    buckets = {
        k: int(n) - int(before.get("buckets", {}).get(k, 0))
        for k, n in after.get("buckets", {}).items()
    }
    return {
        "count": int(after.get("count", 0)) - int(before.get("count", 0)),
        "total": float(after.get("total", 0.0)) - float(before.get("total", 0.0)),
        "min": after.get("min", 0.0),
        "max": after.get("max", 0.0),
        "buckets": {k: n for k, n in buckets.items() if n > 0},
    }
