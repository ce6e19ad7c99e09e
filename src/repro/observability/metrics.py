"""Convergence metrics and a counters/histograms registry.

Three things live here:

* :func:`matrix_delta` — the per-pass measurement behind ``repro
  trace``: given a snapshot of the preference matrix from *before* a
  pass, quantify what the pass did to it (L1 weight churn, preferred-
  cluster flips) alongside the matrix's current sharpness (mean
  normalized entropy, mean clamped confidence).
* :class:`MetricsRegistry` — a tiny counters-and-histograms registry
  the harness aggregates into :class:`~repro.harness.experiment.
  ProgramResult` and :func:`repro.harness.reporting.format_metrics`
  renders.  Snapshots are plain JSON-safe dicts so they survive the
  results round-trip unchanged.
* :class:`QuantileHistogram` — the registry's default histogram: the
  O(1) count/sum/min/max summary of :class:`Histogram` plus a fixed
  log-scale bucket layout whose merge is exact and associative, giving
  p50/p90/p99 accessors with a documented relative error bound (see
  ``docs/telemetry.md``).  Serialization is schema-versioned and stays
  backward-compatible: a legacy summary-only dict deserializes into a
  plain :class:`Histogram` via :func:`histogram_from_dict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.weights import PreferenceMatrix

#: Confidence values are clamped here before averaging so a single
#: fully-decided instruction (confidence = inf) cannot drown the mean.
CONFIDENCE_CAP = 100.0

#: Counter names the resilient engine records into its telemetry
#: registry (:attr:`repro.engine.pool.CompilationEngine.telemetry`)
#: and the bench snapshot environment.  Kept here — next to the
#: registry — so observability consumers (bench, docs, dashboards)
#: have one authoritative list:
#:
#: * ``resilience.retries`` — task attempts re-queued after a
#:   retryable worker failure;
#: * ``resilience.timeouts`` — tasks that overran their compile budget
#:   (cooperatively or preemptively killed);
#: * ``resilience.preemptive_kills`` — futures still running past
#:   ``deadline_s`` + kill tolerance whose workers were terminated;
#: * ``resilience.pool_respawns`` — worker pools torn down and rebuilt;
#: * ``resilience.rescues`` — tasks finished inline in the parent after
#:   retries were exhausted or their worker was lost;
#: * ``resilience.breaker_trips`` — circuit breakers opened;
#: * ``resilience.breaker_probes`` — half-open probe tasks admitted;
#: * ``resilience.breaker_resets`` — breakers closed after a good probe;
#: * ``resilience.breaker_routed`` — tasks routed past a tripped
#:   breaker straight to a fallback level.
RESILIENCE_COUNTERS = (
    "resilience.retries",
    "resilience.timeouts",
    "resilience.preemptive_kills",
    "resilience.pool_respawns",
    "resilience.rescues",
    "resilience.breaker_trips",
    "resilience.breaker_probes",
    "resilience.breaker_resets",
    "resilience.breaker_routed",
)

#: Cache-outcome counters the engine folds into its telemetry registry,
#: one per :meth:`repro.engine.cache.CacheStats.to_dict` field.
CACHE_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.stores",
    "cache.evictions",
    "cache.corrupt",
    "cache.quarantined",
)

#: Region statuses a finished task can report
#: (:data:`repro.harness.experiment.STATUS_OK` et al. minus
#: ``partial``, which only program-level results carry).
ENGINE_TASK_STATUSES = ("ok", "failed", "timeout")

#: Per-task timing histograms the engine records, suffixed with the
#: task's final status: ``engine.queue_wait_seconds.<status>`` is the
#: submit→start gap (time spent waiting for a worker slot) and
#: ``engine.execute_seconds.<status>`` is start→finish (time a worker
#: actually spent compiling).  Splitting the two makes saturation
#: (growing queue wait at steady execute time) directly observable.
ENGINE_HISTOGRAM_PREFIXES = (
    "engine.queue_wait_seconds",
    "engine.execute_seconds",
)

#: Response classes the compile server tags its telemetry with:
#: ``ok`` (200), ``bad_request`` (400/413), ``shed`` (429),
#: ``not_found`` (404/405), ``error`` (500).
SERVE_OUTCOMES = ("ok", "bad_request", "shed", "not_found", "error")

#: Plain counters the compile server (:mod:`repro.serve.server`)
#: records into its own registry, exposed at ``GET /metrics``.
SERVE_COUNTERS = (
    "serve.requests",
    "serve.fast_path",
    "serve.compiled",
    "serve.coalesced",
    "serve.parse_hits",
    "serve.parse_misses",
    "serve.shed.client",
    "serve.shed.queue",
    "serve.slow_clients",
)

#: Histograms the compile server records: ``serve.request_seconds.
#: <outcome>`` (end-to-end request latency per response class, the
#: source of the served p50/p99 quantiles) and ``serve.queue_depth``
#: (cold requests pending, sampled as each new one is admitted).
SERVE_HISTOGRAM_PREFIXES = ("serve.request_seconds",)


def _telemetry_names() -> Dict[str, str]:
    """Build the authoritative telemetry-name registry.

    Returns:
        Mapping of every counter/histogram name the engine, resilience
        layer, and cache emit into ``CompilationEngine.telemetry`` to a
        one-line description.  ``scripts/check_counter_names.py`` audits
        this registry bidirectionally against the source and
        ``docs/telemetry.md``.
    """
    names: Dict[str, str] = {}
    descriptions = {
        "resilience.retries": "task attempts re-queued after a retryable failure",
        "resilience.timeouts": "tasks that overran their compile deadline",
        "resilience.preemptive_kills": "workers terminated past deadline + tolerance",
        "resilience.pool_respawns": "worker pools torn down and rebuilt",
        "resilience.rescues": "tasks finished inline after retries were exhausted",
        "resilience.breaker_trips": "circuit breakers opened",
        "resilience.breaker_probes": "half-open probe tasks admitted",
        "resilience.breaker_resets": "breakers closed after a good probe",
        "resilience.breaker_routed": "tasks routed past a tripped breaker",
        "cache.hits": "schedule cache lookups answered from the cache",
        "cache.misses": "schedule cache lookups that fell through to compile",
        "cache.stores": "schedules written into the cache",
        "cache.evictions": "entries evicted to respect the capacity bound",
        "cache.corrupt": "cache files whose checksum or payload failed to load",
        "cache.quarantined": "corrupt cache files moved into quarantine/",
        "serve.requests": "HTTP requests accepted by the compile server",
        "serve.fast_path": "compile requests answered from the warm fast lane",
        "serve.compiled": "compile requests handed to the engine lane",
        "serve.coalesced": "duplicate in-flight requests folded onto one compile",
        "serve.parse_hits": "request bodies answered from the parse cache",
        "serve.parse_misses": "request bodies parsed and fingerprinted from scratch",
        "serve.shed.client": "requests shed with 429 by the per-client limit",
        "serve.shed.queue": "requests shed with 429 by the pending cold-request bound",
        "serve.slow_clients": "connections dropped for dawdling past the read timeout",
        "serve.queue_depth": "cold requests pending, sampled as each new one is admitted",
    }
    for name in RESILIENCE_COUNTERS + CACHE_COUNTERS + SERVE_COUNTERS:
        names[name] = descriptions[name]
    for prefix in ENGINE_HISTOGRAM_PREFIXES:
        stage = "submit-to-start queue wait" if "queue_wait" in prefix else "start-to-finish execute time"
        for status in ENGINE_TASK_STATUSES:
            names[f"{prefix}.{status}"] = (
                f"{stage} in seconds for tasks finishing with status {status}"
            )
    for outcome in SERVE_OUTCOMES:
        names[f"serve.responses.{outcome}"] = (
            f"HTTP responses sent with outcome {outcome}"
        )
    for prefix in SERVE_HISTOGRAM_PREFIXES:
        for outcome in SERVE_OUTCOMES:
            names[f"{prefix}.{outcome}"] = (
                f"end-to-end request latency in seconds for {outcome} responses"
            )
    names["serve.queue_depth"] = descriptions["serve.queue_depth"]
    return names


#: Authoritative name → description map for every telemetry counter and
#: histogram the engine/resilience/cache layers emit; audited by
#: ``scripts/check_counter_names.py`` against both the source code and
#: ``docs/telemetry.md``.
TELEMETRY_NAMES: Dict[str, str] = _telemetry_names()


def matrix_delta(
    before_weights: np.ndarray,
    before_preferred: Sequence[int],
    matrix: "PreferenceMatrix",
) -> Dict[str, float]:
    """Measure what one pass did to the preference matrix.

    Args:
        before_weights: Checkpoint of the raw ``(N, C, T)`` weights
            taken before the pass (:meth:`PreferenceMatrix.checkpoint`).
        before_preferred: Preferred cluster per instruction before the
            pass (:meth:`PreferenceMatrix.preferred_clusters`).
        matrix: The matrix after the pass (and its normalize).

    Returns:
        Dict with keys:

        * ``l1_churn`` — mean absolute per-instruction weight movement
          (L1 distance between the old and new rows, averaged over
          instructions; 0 = the pass changed nothing, 2 = every
          instruction moved all its mass).
        * ``flips`` — number of instructions whose preferred cluster
          changed.
        * ``flip_fraction`` — ``flips`` over the instruction count.
        * ``mean_entropy`` — current mean normalized spatial entropy
          (:meth:`PreferenceMatrix.mean_entropy`).
        * ``mean_confidence`` — current mean clamped confidence
          (:meth:`PreferenceMatrix.mean_confidence`).
    """
    n = matrix.n_instructions
    if n == 0:
        return {
            "l1_churn": 0.0,
            "flips": 0,
            "flip_fraction": 0.0,
            "mean_entropy": 0.0,
            "mean_confidence": 0.0,
        }
    l1 = float(np.abs(matrix.data - before_weights).sum()) / n
    preferred = matrix.preferred_clusters()
    flips = int(sum(1 for a, b in zip(before_preferred, preferred) if a != b))
    return {
        "l1_churn": l1,
        "flips": flips,
        "flip_fraction": flips / n,
        "mean_entropy": matrix.mean_entropy(),
        "mean_confidence": matrix.mean_confidence(cap=CONFIDENCE_CAP),
    }


@dataclass
class Histogram:
    """Streaming summary of an observed value: count/sum/min/max.

    Keeps O(1) state — no buckets — which is all the harness needs to
    report means and ranges per metric.  An empty histogram holds
    ``min = max = 0.0`` so a live empty instance, a merged-from-empty
    instance, and a :meth:`to_dict` → :meth:`from_dict` round-trip of
    one are all equal (the pre-flight-recorder representation kept
    sentinel ``±inf`` bounds that broke that symmetry).
    """

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        if self.count:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        else:
            self.min = value
            self.max = value
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations; 0 when empty."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe summary."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "Histogram":
        """Inverse of :meth:`to_dict`."""
        out = cls(count=int(data["count"]), total=float(data["total"]))
        if out.count:
            out.min = float(data["min"])
            out.max = float(data["max"])
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        if other.count:
            if self.count:
                self.min = min(self.min, other.min)
                self.max = max(self.max, other.max)
            else:
                self.min = other.min
                self.max = other.max
        self.count += other.count
        self.total += other.total


#: Schema tag :meth:`QuantileHistogram.to_dict` stamps on its payload so
#: future layout changes can be detected on read.
QUANTILE_SCHEMA_VERSION = 1

#: Log-scale bucket resolution.  16 buckets per decade bounds the
#: relative quantile error at ``10 ** (1 / 32) - 1`` ≈ 7.5 % (each
#: reported quantile is the geometric midpoint of a bucket spanning a
#: ``10 ** (1 / 16)`` ratio).
QUANTILE_BUCKETS_PER_DECADE = 16

#: Smallest bucketed value; everything at or below lands in the
#: underflow bucket (index ``-1``) and reports as the observed minimum.
QUANTILE_FLOOR = 1e-7

#: Decades covered above the floor: 1e-7 .. 1e7 spans microsecond
#: timings through multi-month totals.
QUANTILE_DECADES = 14

#: Number of regular buckets; index ``QUANTILE_BUCKET_COUNT`` is the
#: overflow bucket and reports as the observed maximum.
QUANTILE_BUCKET_COUNT = QUANTILE_BUCKETS_PER_DECADE * QUANTILE_DECADES


def _bucket_index(value: float) -> int:
    """Map an observation to its fixed log-scale bucket index.

    Args:
        value: The observed value (any float).

    Returns:
        ``-1`` for the underflow bucket (value ≤ floor, including zero
        and negatives), ``QUANTILE_BUCKET_COUNT`` for overflow, else the
        regular bucket index in ``[0, QUANTILE_BUCKET_COUNT)``.
    """
    if not value > QUANTILE_FLOOR:
        return -1
    index = int(
        math.floor(
            math.log10(value / QUANTILE_FLOOR) * QUANTILE_BUCKETS_PER_DECADE
        )
    )
    return min(max(index, 0), QUANTILE_BUCKET_COUNT)


def _bucket_value(index: int) -> float:
    """Representative value (geometric midpoint) of a regular bucket.

    Args:
        index: Regular bucket index in ``[0, QUANTILE_BUCKET_COUNT)``.

    Returns:
        The geometric midpoint of the bucket's bounds.
    """
    return QUANTILE_FLOOR * 10.0 ** ((index + 0.5) / QUANTILE_BUCKETS_PER_DECADE)


@dataclass
class QuantileHistogram(Histogram):
    """Histogram with fixed log-scale buckets and p50/p90/p99 accessors.

    The bucket layout is fixed (``QUANTILE_FLOOR`` · 16 buckets/decade ·
    14 decades plus underflow/overflow), so merging two instances is an
    exact, associative element-wise add — fleet aggregation across
    workers loses nothing.  Reported quantiles carry a relative error of
    at most ``10 ** (1 / 32) - 1`` ≈ 7.5 % (geometric midpoint of a
    one-sixteenth-decade bucket), and are additionally clamped to the
    exact observed ``[min, max]``.

    ``unbucketed`` counts observations merged in from plain
    :class:`Histogram` instances (legacy snapshots); quantiles are
    computed over the bucketed population only.
    """

    buckets: Dict[int, int] = field(default_factory=dict)
    unbucketed: int = 0

    def observe(self, value: float) -> None:
        """Fold one observation into the summary and its bucket."""
        value = float(value)
        super().observe(value)
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in; exact when both carry buckets.

        Args:
            other: A :class:`QuantileHistogram` (buckets add exactly) or
                a plain :class:`Histogram` (its observations join the
                ``unbucketed`` population).
        """
        super().merge(other)
        if isinstance(other, QuantileHistogram):
            for index, n in other.buckets.items():
                self.buckets[index] = self.buckets.get(index, 0) + n
            self.unbucketed += other.unbucketed
        else:
            self.unbucketed += other.count

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile of the bucketed observations.

        Args:
            q: Quantile in ``[0, 1]``, e.g. ``0.99``.

        Returns:
            The bucket-midpoint estimate clamped to the exact observed
            ``[min, max]``; the mean when only unbucketed observations
            exist; ``0.0`` when empty.
        """
        bucketed = sum(self.buckets.values())
        if not bucketed:
            return self.mean
        rank = max(0, min(bucketed - 1, math.ceil(q * bucketed) - 1))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen > rank:
                if index < 0:
                    return self.min
                if index >= QUANTILE_BUCKET_COUNT:
                    return self.max
                return min(max(_bucket_value(index), self.min), self.max)
        return self.max

    @property
    def p50(self) -> float:
        """Median estimate (see :meth:`quantile`)."""
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        """90th-percentile estimate (see :meth:`quantile`)."""
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        """99th-percentile estimate (see :meth:`quantile`)."""
        return self.quantile(0.99)

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe dump: legacy summary keys plus the bucket layer."""
        out = super().to_dict()
        out["quantile_schema"] = QUANTILE_SCHEMA_VERSION
        out["buckets"] = {str(i): n for i, n in sorted(self.buckets.items())}
        out["unbucketed"] = self.unbucketed
        out["p50"] = self.p50
        out["p90"] = self.p90
        out["p99"] = self.p99
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "QuantileHistogram":
        """Inverse of :meth:`to_dict` (also accepts legacy dicts)."""
        out = super().from_dict(data)
        out.buckets = {
            int(i): int(n) for i, n in dict(data.get("buckets", {})).items()
        }
        out.unbucketed = int(data.get("unbucketed", 0))
        return out


def histogram_from_dict(data: Dict[str, float]) -> Histogram:
    """Deserialize a histogram dict, dispatching on its schema.

    Args:
        data: Output of :meth:`Histogram.to_dict` (legacy summary-only)
            or :meth:`QuantileHistogram.to_dict` (carries ``buckets``).

    Returns:
        A :class:`QuantileHistogram` when bucket data is present, else a
        plain :class:`Histogram` — so old snapshots keep loading.
    """
    if "buckets" in data:
        return QuantileHistogram.from_dict(data)
    return Histogram.from_dict(data)


@dataclass
class MetricsRegistry:
    """Named counters and histograms for one run.

    Counters answer "how many" (regions scheduled, guard rollbacks);
    histograms answer "how much, typically" (compile seconds per
    region, cycles per region).  The registry is deliberately schema-
    free: any dotted name may be used, and :meth:`snapshot` produces
    the JSON-safe dict that rides on ``ProgramResult.metrics``.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0).

        Args:
            name: Counter name, e.g. ``"regions.scheduled"``.
            amount: Increment, default 1.
        """
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (creating it).

        New histograms are :class:`QuantileHistogram` instances, so
        every engine/resilience/cache timing recorded through the
        registry carries p50/p90/p99 for free.

        Args:
            name: Histogram name, e.g. ``"region.compile_seconds"``.
            value: The observation to fold in.
        """
        self.histograms.setdefault(name, QuantileHistogram()).observe(value)

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Optional[Histogram]:
        """Histogram ``name``, or ``None`` when nothing was observed."""
        return self.histograms.get(name)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (fleet aggregation).

        Type-preserving: merging a :class:`QuantileHistogram` into a
        registry that lacks (or holds a plain summary under) that name
        promotes the slot so bucket data is never silently dropped.
        """
        for name, value in other.counters.items():
            self.inc(name, value)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = type(histogram)()
                self.histograms[name] = mine
            elif isinstance(histogram, QuantileHistogram) and not isinstance(
                mine, QuantileHistogram
            ):
                promoted = QuantileHistogram()
                promoted.merge(mine)
                self.histograms[name] = promoted
                mine = promoted
            mine.merge(histogram)

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-safe dump: ``{"counters": {...}, "histograms": {...}}``."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Dict]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        out = cls()
        out.counters = {k: int(v) for k, v in data.get("counters", {}).items()}
        out.histograms = {
            k: histogram_from_dict(v) for k, v in data.get("histograms", {}).items()
        }
        return out


def trace_to_registry(records: Sequence, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Aggregate tracer records into a registry.

    Every span contributes ``span.<name>`` count/duration histograms;
    every event increments ``event.<name>``.  Used by ``repro profile``
    to turn a raw trace into the compile-time breakdown table.

    Args:
        records: :class:`~repro.observability.tracer.TraceRecord` items.
        registry: Registry to fold into; ``None`` creates a fresh one.

    Returns:
        The registry the records were folded into.
    """
    registry = registry or MetricsRegistry()
    for record in records:
        if record.kind == "span":
            registry.inc(f"span.{record.name}")
            registry.observe(f"span.{record.name}.seconds", record.duration_s or 0.0)
        else:
            registry.inc(f"event.{record.name}")
    return registry
