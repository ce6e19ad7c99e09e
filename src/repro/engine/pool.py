"""Parallel compilation engine: region fan-out with deterministic merge.

A :class:`CompilationEngine` runs independent region-scheduling tasks —
schedule, simulate, optionally verify, optionally serve/store cache
entries — either inline (``jobs=1``) or across a
:class:`~concurrent.futures.ProcessPoolExecutor` (``jobs>1``).  Three
rules make the parallel path indistinguishable from the serial one:

* **index-keyed merge** — every task carries its position; outcomes are
  reassembled by index, so completion order can never reorder results;
* **per-region determinism** — schedulers in this repository derive
  their randomness from ``(seed, region.name)`` (see
  :class:`~repro.core.convergent.ConvergentScheduler`), so a region
  schedules identically no matter which worker runs it or what ran
  before it in that worker;
* **no lost regions** — a task whose worker dies (or whose pool breaks)
  is re-executed inline in the parent; worker failures degrade
  throughput, never results.

There is one execution loop, completion-driven: each
:meth:`CompilationEngine.run_tasks` call keeps the workers busy,
absorbs each outcome the moment it finishes, and enforces every task's
own deadline.  An engine built without a
:class:`~repro.engine.resilience.ResilienceConfig` runs the same loop
under :data:`DEFAULT_POLICY`.

Workers are observability-clean: the initializer uninstalls any
fork-inherited ambient tracer, each task records into a private
:class:`~repro.observability.metrics.MetricsRegistry` and (when
requested) a private :class:`~repro.observability.tracer.Tracer`, and
the parent merges registries in index order and absorbs trace records
tagged with the worker's pid.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Iterator, List, NamedTuple, Optional, Sequence,
    Set, Tuple,
)

import multiprocessing

from ..harness.experiment import (
    STATUS_TIMEOUT,
    RegionResult,
    _record_region_metrics,
    _run_region,
)
from ..ir.regions import Region
from ..machine.machine import Machine
from ..observability.flight import FlightLedger, FlightRecord
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import Tracer, tracing, uninstall
from ..schedulers.base import Scheduler
from ..schedulers.schedule import Schedule
from .cache import CacheSpec, ScheduleCache
from .fingerprint import Fingerprint, schedule_key
from .resilience import (
    BreakerBoard,
    Budget,
    CircuitBreaker,
    ResilienceConfig,
    RetryPolicy,
    budget_scope,
)

#: ``TaskOutcome.cache_status`` values.
CACHE_OFF = "off"
CACHE_HIT = "hit"
CACHE_MISS = "miss"

#: The policy of an engine built without one: no deadline, a single
#: attempt, no circuit breakers, and the first pool failure finishes the
#: run inline in the parent (``pool_breaks`` counts it).
DEFAULT_POLICY = ResilienceConfig(
    retry=RetryPolicy(max_attempts=1),
    breaker_enabled=False,
    max_pool_respawns=0,
)


@dataclass
class RegionTask:
    """One schedulable unit of work, tagged with its merge position.

    Attributes:
        index: Position of this task in the submitting run; outcomes
            are merged by this index, never by completion order.
        region: The region to schedule.
        machine: Target machine model.
        scheduler: Scheduler instance (must be picklable for ``jobs>1``;
            every registered scheduler is).
        check_values: Replay dataflow against the reference interpreter.
        capture_errors: Capture scheduling failures into the result
            instead of raising.
        verify: Gate the region on the static verifier.
        collect_metrics: Record per-region counters/histograms into a
            private registry returned on the outcome.
        trace: Record scheduling/simulation spans into a private tracer
            returned (serialized) on the outcome.
        deadline_s: Per-task compile budget in seconds; ``None`` (the
            default) means unbudgeted.  A resilient engine fills this
            from its :class:`~repro.engine.resilience.ResilienceConfig`.
        route_level: Minimum :class:`~repro.schedulers.fallback.
            FallbackChain` member this task may use (0 = primary); a
            tripped circuit breaker raises it so the task skips the
            failing primary.  Ignored for schedulers without a
            ``min_level`` attribute.
        submit_s: Unix time the engine (re-)submitted the task for its
            latest attempt; the flight recorder derives queue-wait from
            it.  0.0 until the engine stamps it.
        fingerprint: Cache key the caller already computed (the compile
            server fingerprints every region while parsing).  Used only
            when it matches what the engine would compute — no deadline
            and route level 0 — and recomputed otherwise.
    """

    index: int
    region: Region
    machine: Machine
    scheduler: Scheduler
    check_values: bool = True
    capture_errors: bool = False
    verify: bool = False
    collect_metrics: bool = False
    trace: bool = False
    deadline_s: Optional[float] = None
    route_level: int = 0
    submit_s: float = 0.0
    fingerprint: Optional[Fingerprint] = None


@dataclass
class TaskOutcome:
    """Everything one :class:`RegionTask` produced.

    Attributes:
        index: Copied from the task; the merge key.
        result: The region outcome (cycles always simulator-verified,
            whether scheduled fresh or served from cache).
        schedule: The verified schedule (``None`` when the region
            failed); on a cache hit this is a fresh copy rebuilt in the
            requesting region's uid space.
        metrics: Private-registry snapshot when the task collected
            metrics, else ``None``.
        trace_records: Serialized tracer records when the task traced,
            else empty.
        cache_status: :data:`CACHE_OFF`, :data:`CACHE_HIT`, or
            :data:`CACHE_MISS`.
        cache_stats: Delta of the executing cache's counters caused by
            this task (empty when caching was off).
        worker: pid of the process that executed the task.
        attempts: Executions this task took (1 = first try succeeded);
            retries and inline rescues each add one.
        timed_out: True when the task overran its compile budget — the
            result is either :data:`~repro.harness.experiment.
            STATUS_TIMEOUT` or a degraded rescue by a fallback member.
        degradation_level: ``FallbackReport.level`` of the run that
            produced the result (0 = primary member or non-chain
            scheduler; >0 = a fallback member served it).
        fingerprint: Content-addressed cache key (SHA-256 hex) the task
            was looked up under, or ``None`` when caching was off.
        started_s: Unix time the executing process picked the task up.
        finished_s: Unix time the outcome was fully populated.
    """

    index: int
    result: RegionResult
    schedule: Optional[Schedule] = None
    metrics: Optional[Dict[str, Dict]] = None
    trace_records: List[Dict[str, Any]] = field(default_factory=list)
    cache_status: str = CACHE_OFF
    cache_stats: Dict[str, int] = field(default_factory=dict)
    worker: int = 0
    attempts: int = 1
    timed_out: bool = False
    degradation_level: int = 0
    fingerprint: Optional[str] = None
    started_s: float = 0.0
    finished_s: float = 0.0


def _execute_region_task(
    task: RegionTask, cache: Optional[ScheduleCache]
) -> TaskOutcome:
    """Run one task to completion in the current process.

    Args:
        task: The work item.
        cache: Schedule cache to consult/populate, or ``None``.

    Returns:
        The fully-populated :class:`TaskOutcome`.
    """
    registry = MetricsRegistry() if task.collect_metrics else None
    tracer = Tracer() if task.trace else None
    stats_before = cache.stats.to_dict() if cache is not None else {}
    outcome = TaskOutcome(
        index=task.index,
        result=None,  # type: ignore[arg-type]  # filled below
        worker=os.getpid(),
        started_s=time.time(),
    )
    # Install the breaker's routing floor *before* the cache key is
    # computed: ``min_level`` is part of the scheduler fingerprint, so
    # routed (degraded) results can never poison unrouted cache slots.
    if hasattr(task.scheduler, "min_level"):
        task.scheduler.min_level = task.route_level

    def _run() -> None:
        fingerprint: Optional[Fingerprint] = None
        scheduler_ran = False
        if cache is not None:
            fingerprint = task.fingerprint
            if fingerprint is None or task.deadline_s is not None or task.route_level:
                fingerprint = schedule_key(
                    task.region,
                    task.machine,
                    task.scheduler,
                    check_values=task.check_values,
                    verify=task.verify,
                    deadline_s=task.deadline_s,
                )
            outcome.fingerprint = fingerprint.key
            lookup_started = time.perf_counter()
            hit = cache.get(fingerprint, task.region)
            if hit is not None:
                outcome.cache_status = CACHE_HIT
                outcome.schedule = hit.schedule
                outcome.result = RegionResult(
                    region_name=task.region.name,
                    cycles=hit.cycles,
                    transfers=hit.transfers,
                    utilization=hit.utilization,
                    compile_seconds=time.perf_counter() - lookup_started,
                    n_instructions=len(task.region.ddg),
                    comm_busy=hit.comm_busy,
                    verified=hit.verified,
                    diagnostics=list(hit.diagnostics),
                )
            else:
                outcome.cache_status = CACHE_MISS
        if outcome.result is None:
            result, schedule = _run_region(
                task.region,
                task.machine,
                task.scheduler,
                task.check_values,
                task.capture_errors,
                task.verify,
            )
            scheduler_ran = True
            outcome.result = result
            outcome.schedule = schedule
            report = getattr(task.scheduler, "last_report", None)
            if report is not None:
                outcome.degradation_level = report.level
            if fingerprint is not None and result.ok and schedule is not None:
                cache.put(
                    fingerprint,
                    schedule,
                    cycles=result.cycles,
                    transfers=result.transfers,
                    utilization=result.utilization,
                    comm_busy=result.comm_busy,
                    compile_seconds=result.compile_seconds,
                    verified=result.verified,
                    diagnostics=result.diagnostics,
                )
        if registry is not None:
            _record_region_metrics(
                registry,
                outcome.result,
                task.scheduler if scheduler_ran else None,
            )
        if tracer is not None and cache is not None:
            tracer.event(
                "cache_lookup",
                status=outcome.cache_status,
                region=task.region.name,
            )

    def _invoke() -> None:
        if tracer is not None:
            with tracing(tracer):
                _run()
        else:
            _run()

    if task.deadline_s is not None:
        with budget_scope(Budget(deadline_s=task.deadline_s)):
            _invoke()
    else:
        _invoke()
    outcome.timed_out = outcome.result.status == STATUS_TIMEOUT

    if cache is not None:
        after = cache.stats.to_dict()
        outcome.cache_stats = {
            key: after[key] - stats_before.get(key, 0) for key in after
        }
        if registry is not None:
            for key, delta in outcome.cache_stats.items():
                if delta:
                    registry.inc(f"cache.{key}", delta)
    if registry is not None:
        outcome.metrics = registry.snapshot()
    if tracer is not None:
        outcome.trace_records = [r.to_dict() for r in tracer.records]
    outcome.finished_s = time.time()
    return outcome


def execute_task(
    task: RegionTask, cache: Optional[ScheduleCache]
) -> TaskOutcome:
    """Execute one task in the calling thread.

    The engine's inline path (serial mode, rescues after a pool
    failure) and in-process callers that need its single-task
    semantics — cache lookup/store, fast replay of hits, captured
    failures — without an engine (the compile server's warm fast lane
    uses it so cache hits never wait for the pool).  The cache is
    exposed via :func:`worker_cache` for the duration, exactly as in a
    worker.

    Args:
        task: The work item.
        cache: Schedule cache to consult/populate, or ``None``.

    Returns:
        The fully-populated :class:`TaskOutcome`.
    """
    with _as_worker_cache(cache):
        return _execute_region_task(task, cache)


def flight_record(
    task: RegionTask, outcome: TaskOutcome, breaker_state: Optional[str]
) -> FlightRecord:
    """The flight-ledger row for one finished task.

    Splits the task's wall time into queue-wait (submit → start) and
    execute (start → finish); the engine and the compile server's fast
    lane both build their ledger rows here, so ``repro timeline`` reads
    mixed ledgers unchanged.

    Args:
        task: The finished work item (carries ``submit_s``).
        outcome: Its outcome (carries ``started_s``/``finished_s``).
        breaker_state: State of the task's circuit breaker, or ``None``
            when no breaker applies.

    Returns:
        The :class:`~repro.observability.flight.FlightRecord`.
    """
    queue_wait = 0.0
    if task.submit_s and outcome.started_s:
        queue_wait = max(0.0, outcome.started_s - task.submit_s)
    execute = max(0.0, outcome.finished_s - outcome.started_s)
    slack = None
    if task.deadline_s is not None:
        slack = task.deadline_s - execute
    return FlightRecord(
        index=task.index,
        region=task.region.name,
        machine=task.machine.name,
        scheduler=getattr(task.scheduler, "name", type(task.scheduler).__name__),
        fingerprint=outcome.fingerprint,
        cache_status=outcome.cache_status,
        worker=outcome.worker,
        submit_s=task.submit_s or outcome.started_s,
        start_s=outcome.started_s,
        finish_s=outcome.finished_s,
        queue_wait_s=queue_wait,
        execute_s=execute,
        attempts=outcome.attempts,
        route_level=task.route_level,
        breaker=breaker_state,
        degradation_level=outcome.degradation_level,
        deadline_s=task.deadline_s,
        deadline_slack_s=slack,
        status=outcome.result.status,
        cycles=outcome.result.cycles,
    )


# ----------------------------------------------------------------------
# Worker-process state
# ----------------------------------------------------------------------

_WORKER_CACHE: Optional[ScheduleCache] = None


def _init_worker(cache_spec: Optional[CacheSpec]) -> None:
    """Process-pool initializer: clean tracer and SIGTERM state, build the cache.

    Forked workers inherit the parent's ambient tracer; recording into
    it from a child process would be silently lost (and confusing), so
    it is uninstalled and each task records into a private tracer
    instead.

    Args:
        cache_spec: Recipe for this worker's :class:`ScheduleCache`
            (sharing the parent's disk layer, if any), or ``None``.
    """
    global _WORKER_CACHE
    uninstall()
    # A worker forked from an asyncio server inherits its no-op SIGTERM
    # handler; restore the default so a kill always lands.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_CACHE = ScheduleCache.from_spec(cache_spec)


def worker_cache() -> Optional[ScheduleCache]:
    """The executing process's cache (worker-local; ``None`` if off)."""
    return _WORKER_CACHE


@contextlib.contextmanager
def _as_worker_cache(cache: Optional[ScheduleCache]) -> Iterator[None]:
    """Temporarily expose ``cache`` via :func:`worker_cache` in-parent.

    Used when the parent executes a task inline (serial mode, or a
    retry after a pool failure) so cache-aware helpers behave the same
    in both processes.
    """
    global _WORKER_CACHE
    previous = _WORKER_CACHE
    _WORKER_CACHE = cache
    try:
        yield
    finally:
        _WORKER_CACHE = previous


def _pool_run_task(task: RegionTask) -> TaskOutcome:
    """Top-level pool target: execute one task with the worker cache."""
    return _execute_region_task(task, _WORKER_CACHE)


def _pool_call(fn: Callable[[Any], Any], item: Any) -> Any:
    """Top-level pool target for :meth:`CompilationEngine.map`.

    Returns ``(result, cache_stats_delta)`` so the parent can fold the
    worker cache's activity into the shared stats."""
    cache = _WORKER_CACHE
    before = cache.stats.to_dict() if cache is not None else {}
    result = fn(item)
    delta: Dict[str, int] = {}
    if cache is not None:
        after = cache.stats.to_dict()
        delta = {key: after[key] - before.get(key, 0) for key in after}
    return result, delta


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class _Flight(NamedTuple):
    """One in-flight pool submission of a task."""

    task: RegionTask
    attempt: int
    #: The executor (by creation count) the task was submitted to.
    generation: int
    #: ``time.monotonic()`` past which the worker is killed, or ``None``.
    kill_at: Optional[float]


class CompilationEngine:
    """Schedules regions across a worker pool with deterministic merge.

    Args:
        jobs: Worker-process count; ``1`` executes inline (no pool, no
            pickling — byte-identical to the classic serial harness).
        cache: Shared :class:`ScheduleCache`; workers rebuild an
            equivalent cache from its :meth:`~ScheduleCache.spec` (a
            disk-backed cache is then genuinely shared through the
            filesystem; a memory-only cache becomes per-worker).
        resilience: The :class:`~repro.engine.resilience.
            ResilienceConfig` the task loop runs under: per-task
            deadlines (checked cooperatively in workers, enforced
            preemptively by killing overrunning workers),
            :class:`~repro.engine.resilience.RetryPolicy`-bounded
            retries with deterministic backoff, and per-(scheduler,
            machine) circuit breakers that route tasks past a
            repeatedly-failing primary.  ``None`` (the default) means
            :data:`DEFAULT_POLICY`, which reproduces a plain fan-out.
            Everything the policy does is counted in :attr:`telemetry`
            under ``resilience.*`` (see :data:`~repro.observability.
            metrics.RESILIENCE_COUNTERS`).
        ledger: Optional :class:`~repro.observability.flight.
            FlightLedger`.  When given, every finished task appends one
            :class:`~repro.observability.flight.FlightRecord` (cache
            status, worker pid, queue-wait vs execute split, attempt,
            breaker state, deadline slack); the caller flushes the
            ledger to disk.

    Per-task queue-wait and execute seconds are always recorded into
    :attr:`telemetry` as ``engine.queue_wait_seconds.<status>`` /
    ``engine.execute_seconds.<status>`` histograms (see
    :data:`~repro.observability.metrics.ENGINE_HISTOGRAM_PREFIXES`).

    :meth:`run_tasks` may be called from several threads at once; the
    calls share the pool, and one lock guards the pool's life cycle,
    :attr:`telemetry`, the ledger, the cache statistics, and the
    breakers (read :attr:`telemetry` from another thread through
    :meth:`telemetry_snapshot`).

    The executor is created lazily on first parallel use and should be
    released with :meth:`close` (or by using the engine as a context
    manager).  Once the policy's pool respawns are spent (at the first
    failure under the default policy), the remaining tasks run inline
    in the parent — results are unaffected, and :attr:`pool_breaks`
    counts the incident.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ScheduleCache] = None,
        resilience: Optional[ResilienceConfig] = None,
        ledger: Optional[FlightLedger] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.resilience = resilience if resilience is not None else DEFAULT_POLICY
        self.ledger = ledger
        self.telemetry = MetricsRegistry()
        self.pool_breaks = 0
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._killed: Set[int] = set()
        self._broken = False
        self._respawns = 0
        self._board: Optional[BreakerBoard] = None
        if self.resilience.breaker_enabled:
            self._board = BreakerBoard(
                failure_threshold=self.resilience.breaker_threshold,
                cooldown_tasks=self.resilience.breaker_cooldown,
            )

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "CompilationEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """A consistent :attr:`telemetry` snapshot, safe from any thread."""
        with self._lock:
            return self.telemetry.snapshot()

    def _pool(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, creating it on first use; ``None`` when
        serial or after the pool broke.  Call with the lock held."""
        if self.jobs == 1 or self._broken:
            return None
        if self._executor is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context()
            spec = self.cache.spec() if self.cache is not None else None
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=context,
                initializer=_init_worker,
                initargs=(spec,),
            )
            self._generation += 1
        return self._executor

    def _mark_broken(self) -> None:
        """Record a dead pool and stop submitting to it.

        One incident breaks every in-flight future; only the first
        report counts, so :attr:`pool_breaks` tallies incidents."""
        if self._broken:
            return
        self.pool_breaks += 1
        self._broken = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _respawn_pool(self, generation: int, killed: bool = False) -> None:
        """Kill pool ``generation`` so later submissions get a new one.

        Terminates worker processes (an uncooperatively hung task
        cannot be stopped any other way), counts the respawn, and —
        past ``max_pool_respawns`` — gives up on pooling entirely so
        the run finishes inline instead of thrashing.  A no-op when
        that pool is already gone, so each incident counts once.  Call
        with the lock held.

        Args:
            generation: The pool the failure was observed on.
            killed: The parent is killing it over a deadline overrun;
                every other task on it is then an innocent victim.
        """
        executor = self._executor
        if executor is None or generation != self._generation:
            return
        if killed:
            self._killed.add(generation)
        self._executor = None
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - best-effort kill
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        self._respawns += 1
        self.telemetry.inc("resilience.pool_respawns")
        if self._respawns >= self.resilience.max_pool_respawns:
            self._mark_broken()

    # -- breakers and bookkeeping (lock held) --------------------------

    def _breaker_for(self, task: RegionTask) -> Optional[CircuitBreaker]:
        """This task's circuit breaker, or ``None``.

        Breakers only apply to schedulers that can actually degrade —
        i.e. expose a ``min_level`` routing floor (FallbackChain).

        Args:
            task: The task whose (scheduler, machine) cell is keyed.

        Returns:
            The cell's breaker, or ``None`` when breakers are disabled
            or the scheduler cannot be routed.
        """
        if self._board is None or not hasattr(task.scheduler, "min_level"):
            return None
        return self._board.breaker(task.scheduler.name, task.machine.name)

    def _route(self, task: RegionTask) -> None:
        """Consult the circuit breaker and set the task's route level."""
        breaker = self._breaker_for(task)
        if breaker is None:
            return
        probes_before = breaker.probes
        level = breaker.route()
        if breaker.probes > probes_before:
            self.telemetry.inc("resilience.breaker_probes")
        if level > task.route_level:
            task.route_level = level
            self.telemetry.inc("resilience.breaker_routed")

    def _record_breaker(self, task: RegionTask, outcome: TaskOutcome) -> None:
        """Report a finished task's primary outcome to its breaker."""
        breaker = self._breaker_for(task)
        if breaker is None or task.route_level > 0:
            return  # routed task: the primary never ran, nothing to judge
        primary_ok = (
            outcome.result.ok
            and not outcome.timed_out
            and outcome.degradation_level == 0
        )
        trips_before, resets_before = breaker.trips, breaker.resets
        breaker.record(primary_ok)
        if breaker.trips > trips_before:
            self.telemetry.inc("resilience.breaker_trips")
        if breaker.resets > resets_before:
            self.telemetry.inc("resilience.breaker_resets")

    def _absorb(
        self,
        task: RegionTask,
        attempt: int,
        outcome: TaskOutcome,
        outcomes: Dict[int, TaskOutcome],
    ) -> None:
        """Fold one finished outcome into the merge map, the shared
        cache stats, the breaker, telemetry, and the ledger."""
        outcome.attempts = max(outcome.attempts, attempt)
        with self._lock:
            if outcome.timed_out:
                self.telemetry.inc("resilience.timeouts")
            # Fold worker-side cache activity into the shared stats
            # (entries themselves are shared via the disk layer).
            if self.cache is not None and outcome.worker != os.getpid():
                self.cache.stats.merge(outcome.cache_stats)
            self._record_breaker(task, outcome)
            breaker = self._breaker_for(task)
            record = flight_record(task, outcome, breaker.state if breaker else None)
            status = record.status
            self.telemetry.observe(
                f"engine.queue_wait_seconds.{status}", record.queue_wait_s
            )
            self.telemetry.observe(f"engine.execute_seconds.{status}", record.execute_s)
            if self.ledger is not None:
                self.ledger.append(record)
        outcomes[task.index] = outcome

    # -- region tasks --------------------------------------------------

    def run_tasks(self, tasks: Sequence[RegionTask]) -> List[TaskOutcome]:
        """Execute every task; outcomes are returned in *index* order.

        Keeps every worker busy — at most ``jobs`` tasks in flight when
        they carry a deadline, ``2 * jobs`` otherwise — and absorbs each
        outcome as soon as it finishes.  A task still running past its
        deadline
        plus ``kill_tolerance_s`` has its worker killed and is rescued
        inline (degraded through the fallback chain when possible,
        resolved as ``TIMEOUT`` otherwise); other tasks killed with it
        are resubmitted without spending an attempt.  Retryable
        infrastructure failures re-queue the task per the
        :class:`~repro.engine.resilience.RetryPolicy`; once retries are
        spent the task finishes inline, so every task yields exactly
        one outcome.  Exceptions a task legitimately raises
        (``capture_errors=False``) propagate, preserving the serial
        harness's fail-fast contract.

        Args:
            tasks: The work items (indices need not be contiguous, but
                must be unique).

        Returns:
            One :class:`TaskOutcome` per task, sorted by task index.
        """
        for task in tasks:
            if task.deadline_s is None:
                task.deadline_s = self.resilience.deadline_s
        # (task, attempt, fresh): a resubmitted victim is not re-routed.
        queue: Deque[Tuple[RegionTask, int, bool]] = deque(
            (task, 1, True) for task in tasks
        )
        running: Dict[Future, _Flight] = {}
        outcomes: Dict[int, TaskOutcome] = {}
        while queue or running:
            # A deadline clock starts at submission, so a budgeted task
            # is only submitted while a worker is free; unbudgeted tasks
            # may queue one deep behind each worker, so no worker idles
            # while the parent absorbs an outcome.
            budgeted = bool(queue) and queue[0][0].deadline_s is not None
            if queue and len(running) < (self.jobs if budgeted else 2 * self.jobs):
                task, attempt, fresh = queue.popleft()
                submitted = self._submit(task, attempt, fresh)
                if submitted is None:
                    # No pool (serial, or given up): cooperative
                    # deadlines only.
                    self._absorb(task, attempt, execute_task(task, self.cache), outcomes)
                else:
                    future, flight = submitted
                    running[future] = flight
                continue
            self._await_flights(running, queue, outcomes)
        return [outcomes[t.index] for t in sorted(tasks, key=lambda t: t.index)]

    def _submit(
        self, task: RegionTask, attempt: int, fresh: bool
    ) -> Optional[Tuple[Future, _Flight]]:
        """Route and stamp ``task``, then hand it to the pool.

        Returns:
            The future and its flight, or ``None`` when there is no
            pool and the caller must run the task inline.
        """
        with self._lock:
            if fresh:
                self._route(task)
            task.submit_s = time.time()
            while (executor := self._pool()) is not None:
                try:
                    future = executor.submit(_pool_run_task, task)
                except BrokenProcessPool:
                    self._respawn_pool(self._generation)
                    continue
                kill_at = None
                if task.deadline_s is not None:
                    kill_at = (
                        time.monotonic()
                        + task.deadline_s
                        + self.resilience.kill_tolerance_s
                    )
                return future, _Flight(task, attempt, self._generation, kill_at)
            return None

    def _await_flights(
        self,
        running: Dict[Future, _Flight],
        queue: "Deque[Tuple[RegionTask, int, bool]]",
        outcomes: Dict[int, TaskOutcome],
    ) -> None:
        """Wait for the first flight to land (or overrun) and absorb it.

        Args:
            running: In-flight futures; finished ones are removed.
            queue: Pending (task, attempt, fresh) entries; retries and
                innocent victims are pushed here.
            outcomes: The merge map.
        """
        kill_times = [f.kill_at for f in running.values() if f.kill_at is not None]
        timeout = None
        if kill_times:
            timeout = max(0.0, min(kill_times) - time.monotonic())
        done, _ = wait(list(running), timeout=timeout, return_when=FIRST_COMPLETED)
        for future in done:
            flight = running.pop(future)
            try:
                outcome = future.result()
            except Exception as exc:  # noqa: BLE001 - worker boundary
                with self._lock:
                    killed = flight.generation in self._killed
                if future.cancelled() or (killed and isinstance(exc, BrokenProcessPool)):
                    # Its pool was torn down under it: not its fault.
                    queue.appendleft((flight.task, flight.attempt, False))
                else:
                    self._handle_worker_error(flight, exc, queue, outcomes)
                continue
            self._absorb(flight.task, flight.attempt, outcome, outcomes)
        now = time.monotonic()
        overdue = [
            future
            for future, flight in running.items()
            if flight.kill_at is not None and flight.kill_at <= now and not future.done()
        ]
        if not overdue:
            return
        with self._lock:
            self.telemetry.inc("resilience.preemptive_kills", len(overdue))
            for generation in {running[future].generation for future in overdue}:
                self._respawn_pool(generation, killed=True)
        for future in overdue:
            flight = running.pop(future)
            outcome = self._rescue_timeout(flight.task, flight.attempt)
            self._absorb(flight.task, flight.attempt, outcome, outcomes)

    def _rescue_timeout(self, task: RegionTask, attempt: int) -> TaskOutcome:
        """Resolve a task whose worker was preemptively killed.

        A chain-backed task is re-run inline with its route level
        bumped past the member that burned the budget; anything else
        is resolved as a :data:`~repro.harness.experiment.
        STATUS_TIMEOUT` result so the region is never lost.

        Args:
            task: The killed task.
            attempt: The attempt number that timed out.

        Returns:
            The resolved outcome (degraded-ok or timeout), with
            ``timed_out=True`` either way.
        """
        members = getattr(task.scheduler, "schedulers", None)
        can_degrade = (
            hasattr(task.scheduler, "min_level")
            and members is not None
            and task.route_level + 1 < len(members)
        )
        if can_degrade:
            with self._lock:
                # The primary burned the whole budget: charge its
                # breaker while ``route_level`` still says it ran.
                breaker = self._breaker_for(task)
                if breaker is not None and task.route_level == 0:
                    trips_before = breaker.trips
                    breaker.record(False)
                    if breaker.trips > trips_before:
                        self.telemetry.inc("resilience.breaker_trips")
                self.telemetry.inc("resilience.rescues")
            task.route_level += 1
            outcome = execute_task(task, self.cache)
            outcome.attempts = attempt + 1
            outcome.timed_out = True
            return outcome
        deadline = float(task.deadline_s or 0.0)
        result = RegionResult(
            region_name=task.region.name,
            cycles=0,
            transfers=0,
            utilization=0.0,
            compile_seconds=deadline,
            n_instructions=len(task.region.ddg),
            status=STATUS_TIMEOUT,
            error=(
                f"DeadlineExceeded: worker overran the {deadline:.3f}s "
                "compile budget and was killed"
            ),
        )
        now = time.time()
        return TaskOutcome(
            index=task.index,
            result=result,
            worker=os.getpid(),
            attempts=attempt,
            timed_out=True,
            # The killed worker never reported back: charge the whole
            # submit→kill window as execute time on the parent's lane.
            started_s=task.submit_s or now,
            finished_s=now,
        )

    def _handle_worker_error(
        self,
        flight: _Flight,
        exc: BaseException,
        queue: "Deque[Tuple[RegionTask, int, bool]]",
        outcomes: Dict[int, TaskOutcome],
    ) -> None:
        """Classify one worker-side failure: retry, rescue, or raise."""
        task, attempt = flight.task, flight.attempt
        policy = self.resilience.retry
        retry = policy.is_retryable(exc) and attempt < policy.max_attempts
        # Retries exhausted (or terminal-but-captured): finish the task
        # inline in the parent so no region is ever lost.
        rescue = not retry and (policy.is_retryable(exc) or task.capture_errors)
        with self._lock:
            if isinstance(exc, BrokenProcessPool):
                self._respawn_pool(flight.generation)
            if retry:
                self.telemetry.inc("resilience.retries")
            elif rescue:
                self.telemetry.inc("resilience.rescues")
        if retry:
            delay = policy.delay_for(attempt + 1, key=task.region.name)
            if delay > 0:
                time.sleep(delay)
            queue.append((task, attempt + 1, True))
        elif rescue:
            self._absorb(task, attempt + 1, execute_task(task, self.cache), outcomes)
        else:
            raise exc

    # -- generic fan-out -----------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply a picklable top-level function to every item.

        Results are returned in *item* order regardless of completion
        order.  Items whose worker died are retried inline; other
        exceptions propagate (the serial semantics).

        Args:
            fn: Top-level function of one argument.  Inside workers it
                may consult :func:`worker_cache`; inline execution
                exposes the engine's own cache the same way.
            items: The inputs (each must be picklable for ``jobs>1``).

        Returns:
            ``[fn(item) for item in items]``, computed with up to
            ``jobs`` processes.
        """
        before = self.cache.stats.to_dict() if self.cache is not None else {}
        executor = self._pool()
        if executor is None:
            with _as_worker_cache(self.cache):
                results = [fn(item) for item in items]
            self._count_cache_delta(before)
            return results
        futures = [executor.submit(_pool_call, fn, item) for item in items]
        results = [None] * len(items)
        retry: List[int] = []
        for position, future in enumerate(futures):
            try:
                result, cache_delta = future.result()
            except BrokenProcessPool:
                self._mark_broken()
                retry.append(position)
                continue
            results[position] = result
            if self.cache is not None and cache_delta:
                self.cache.stats.merge(cache_delta)
        for position in retry:
            with _as_worker_cache(self.cache):
                results[position] = fn(items[position])
        self._count_cache_delta(before)
        return results

    def _count_cache_delta(self, before: Dict[str, int]) -> None:
        """Count shared-cache activity since ``before`` into telemetry.

        Args:
            before: Snapshot of ``self.cache.stats.to_dict()`` taken at
                the start of the fan-out (empty when caching is off).
        """
        if self.cache is None:
            return
        after = self.cache.stats.to_dict()
        for key in after:
            delta = after[key] - before.get(key, 0)
            if delta:
                self.telemetry.inc(f"cache.{key}", delta)
