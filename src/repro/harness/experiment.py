"""Running benchmarks through schedulers and the simulator.

One rule governs every number this repository reports: the cycle count
comes from :func:`repro.sim.simulate`, never from the scheduler itself.
A region whose schedule fails validation either raises (the default for
:func:`run_region`) or is captured into the result object with
``status="failed"`` — so every *cycle count* in EXPERIMENTS.md is backed
by a verified schedule, while a whole-program run degrades gracefully
instead of aborting on its first bad region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..ir.regions import Program, Region
from ..machine.machine import Machine
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import active
from ..schedulers.base import Scheduler
from ..schedulers.schedule import Schedule
from ..sim.simulator import SimulationReport, simulate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.cache import ScheduleCache
    from ..engine.pool import CompilationEngine
    from ..engine.resilience import ResilienceConfig
    from ..observability.flight import FlightLedger

#: Region/program completed with a verified schedule.
STATUS_OK = "ok"
#: Region failed (scheduler raised or validation rejected the schedule);
#: program-level: *every* region failed.
STATUS_FAILED = "failed"
#: Program-level only: some regions succeeded, some failed.
STATUS_PARTIAL = "partial"
#: Region-level only: the region overran its compile budget
#: (:exc:`repro.engine.resilience.DeadlineExceeded`) and no fallback
#: could absorb the timeout.  Counts as not-ok, like ``failed``.
STATUS_TIMEOUT = "timeout"


@dataclass
class RegionResult:
    """Outcome for one region.

    Attributes:
        status: :data:`STATUS_OK` or :data:`STATUS_FAILED`.
        error: Failure description when ``status`` is not ok.
        n_instructions: Instruction count of the region's DDG (0 when
            the region failed before its graph was inspected).
        comm_busy: Busy communication-resource cycles of the verified
            schedule (:attr:`repro.sim.simulator.SimulationReport.
            comm_busy_total`); 0 when the region failed.
        verified: Static-verifier verdict when the run was gated with
            ``verify=True`` (``None`` when verification was not
            requested or never reached).
        diagnostics: Rendered verifier diagnostics (warnings on a clean
            run, everything on a failed one); empty when ungated.
    """

    region_name: str
    cycles: int
    transfers: int
    utilization: float
    compile_seconds: float
    n_instructions: int = 0
    comm_busy: int = 0
    status: str = STATUS_OK
    error: Optional[str] = None
    verified: Optional[bool] = None
    diagnostics: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the region produced a verified schedule."""
        return self.status == STATUS_OK


@dataclass
class ProgramResult:
    """Outcome for one (program, machine, scheduler) combination.

    Attributes:
        cycles: Trip-count-weighted total cycles over all *succeeded*
            regions.
        compile_seconds: Total scheduling time (the Figure-10 metric).
        status: :data:`STATUS_OK`, :data:`STATUS_PARTIAL`, or
            :data:`STATUS_FAILED`.
        error: Summary of region failures when ``status`` is not ok.
        metrics: JSON-safe :meth:`MetricsRegistry.snapshot
            <repro.observability.metrics.MetricsRegistry.snapshot>` of
            the run's counters and histograms; ``None`` unless
            :func:`run_program` was given a registry.
    """

    benchmark: str
    machine_name: str
    scheduler_name: str
    cycles: int
    transfers: int
    compile_seconds: float
    regions: List[RegionResult]
    status: str = STATUS_OK
    error: Optional[str] = None
    metrics: Optional[Dict[str, Dict]] = None

    @property
    def instructions(self) -> int:
        """Total instruction count across all regions."""
        return sum(r.n_instructions for r in self.regions)

    @property
    def utilization(self) -> float:
        """Mean FU-slot utilization over the succeeded regions (0-1).

        Unweighted mean of each ok region's simulator-reported
        utilization; 0.0 when no region succeeded.
        """
        ok = [r.utilization for r in self.regions if r.ok]
        return sum(ok) / len(ok) if ok else 0.0

    @property
    def comm_busy(self) -> int:
        """Total busy communication-resource cycles over ok regions."""
        return sum(r.comm_busy for r in self.regions if r.ok)

    @property
    def n_regions(self) -> int:
        """Number of regions in the program."""
        return len(self.regions)

    @property
    def ok(self) -> bool:
        """True when every region produced a verified schedule."""
        return self.status == STATUS_OK

    @property
    def failed_regions(self) -> List[RegionResult]:
        """The regions that did not produce a verified schedule."""
        return [r for r in self.regions if not r.ok]


def run_region(
    region: Region,
    machine: Machine,
    scheduler: Scheduler,
    check_values: bool = True,
    capture_errors: bool = False,
    registry: Optional[MetricsRegistry] = None,
    verify: bool = False,
) -> RegionResult:
    """Schedule one region, validate it, and report verified cycles.

    Args:
        region: The region to schedule.
        machine: Target machine model.
        scheduler: Any :class:`~repro.schedulers.base.Scheduler`.
        check_values: Replay the dataflow against the reference
            interpreter in addition to structural validation.
        capture_errors: Return a ``status="failed"`` result instead of
            raising when the scheduler or the validator fails.
        registry: Optional metrics registry; when given, per-region
            counters (``regions.ok`` / ``regions.failed``, guard
            interventions) and histograms (compile seconds, cycles,
            transfers, utilization) are recorded into it.
        verify: Additionally run the static verifier
            (:func:`repro.verify.verify_ddg` +
            :func:`repro.verify.verify_schedule`) on the schedule; an
            ERROR diagnostic fails the region exactly like a simulator
            rejection, and the verdict lands on ``result.verified``.

    Returns:
        The :class:`RegionResult`; its ``cycles`` come from the
        simulator, never the scheduler.
    """
    result, _ = _run_region(
        region, machine, scheduler, check_values, capture_errors, verify
    )
    if registry is not None:
        _record_region_metrics(registry, result, scheduler)
    return result


def _run_region(
    region: Region,
    machine: Machine,
    scheduler: Scheduler,
    check_values: bool,
    capture_errors: bool,
    verify: bool = False,
) -> Tuple[RegionResult, Optional[Schedule]]:
    """Schedule + validate one region (no metrics bookkeeping).

    Returns the result *and* the verified schedule (``None`` on
    failure) so callers like the schedule cache can store it."""
    started = time.perf_counter()
    verified: Optional[bool] = None
    diagnostics: List[str] = []
    try:
        schedule = scheduler.schedule(region, machine)
        elapsed = time.perf_counter() - started
        report: SimulationReport = simulate(
            region, machine, schedule, strict=True, check_values=check_values
        )
        if verify:
            from ..verify import VerificationError, verify_ddg, verify_schedule

            vreport = verify_ddg(region.ddg, machine, subject=region.name)
            vreport.merge(verify_schedule(region, machine, schedule))
            vreport.subject = f"{region.name} on {machine.name}"
            diagnostics = [d.render() for d in vreport.diagnostics]
            verified = vreport.ok
            if not vreport.ok:
                raise VerificationError(vreport)
    except Exception as exc:  # noqa: BLE001 - harness boundary
        from ..engine.resilience import DeadlineExceeded

        if not capture_errors and not isinstance(exc, DeadlineExceeded):
            raise
        status = STATUS_TIMEOUT if isinstance(exc, DeadlineExceeded) else STATUS_FAILED
        return (
            RegionResult(
                region_name=region.name,
                cycles=0,
                transfers=0,
                utilization=0.0,
                compile_seconds=time.perf_counter() - started,
                n_instructions=len(region.ddg),
                status=status,
                error=f"{type(exc).__name__}: {exc}",
                verified=verified,
                diagnostics=diagnostics,
            ),
            None,
        )
    return (
        RegionResult(
            region_name=region.name,
            cycles=report.cycles,
            transfers=report.transfers,
            utilization=report.utilization(machine),
            compile_seconds=elapsed,
            n_instructions=len(region.ddg),
            comm_busy=report.comm_busy_total,
            verified=verified,
            diagnostics=diagnostics,
        ),
        schedule,
    )


def _record_region_metrics(
    registry: MetricsRegistry,
    result: RegionResult,
    scheduler: Optional[Scheduler] = None,
) -> None:
    """Fold one region outcome into the registry.

    ``scheduler`` is the instance that *actually ran* for this result,
    or ``None`` when the result was served from the schedule cache (a
    stale ``last_result`` must not re-count guard interventions)."""
    registry.inc("regions.scheduled")
    if result.ok:
        registry.inc("regions.ok")
    elif result.status == STATUS_TIMEOUT:
        registry.inc("regions.timeout")
    else:
        registry.inc("regions.failed")
    registry.observe("region.compile_seconds", result.compile_seconds)
    registry.observe("region.instructions", result.n_instructions)
    if result.ok:
        registry.observe("region.cycles", result.cycles)
        registry.observe("region.transfers", result.transfers)
        registry.observe("region.utilization", result.utilization)
        registry.observe("region.comm_busy", result.comm_busy)
    # Guard interventions, when the scheduler exposes a guarded result
    # (ConvergentScheduler and FallbackChain do via ``last_result``).
    last = getattr(scheduler, "last_result", None)
    guard = getattr(last, "guard", None)
    if guard is not None and guard.events:
        registry.inc("guard.rollbacks", guard.n_failures)
        registry.inc("guard.quarantines", len(guard.quarantined))


def _run_regions_serial(
    program: Program,
    machine: Machine,
    scheduler: Scheduler,
    check_values: bool,
    capture_errors: bool,
    registry: Optional[MetricsRegistry],
    verify: bool,
) -> List[RegionResult]:
    """The classic in-process region loop, with index-keyed merge."""
    results_by_index: Dict[int, RegionResult] = {}
    for index, region in enumerate(program.regions):
        results_by_index[index] = run_region(
            region,
            machine,
            scheduler,
            check_values=check_values,
            capture_errors=capture_errors,
            registry=registry,
            verify=verify,
        )
    return [results_by_index[i] for i in range(len(program.regions))]


def _run_regions_engine(
    engine: "CompilationEngine",
    program: Program,
    machine: Machine,
    scheduler: Scheduler,
    check_values: bool,
    capture_errors: bool,
    registry: Optional[MetricsRegistry],
    verify: bool,
) -> List[RegionResult]:
    """Fan regions out through a :class:`~repro.engine.pool.
    CompilationEngine` and merge outcomes deterministically by index."""
    from ..engine.pool import RegionTask

    tracer = active()
    tasks = [
        RegionTask(
            index=index,
            region=region,
            machine=machine,
            scheduler=scheduler,
            check_values=check_values,
            capture_errors=capture_errors,
            verify=verify,
            collect_metrics=registry is not None,
            # Serial engine tasks record into the ambient tracer
            # directly; workers need a private tracer shipped back.
            trace=tracer.enabled and engine.jobs > 1,
        )
        for index, region in enumerate(program.regions)
    ]
    telemetry_before = dict(engine.telemetry.counters) if registry is not None else {}
    outcomes = engine.run_tasks(tasks)
    for outcome in outcomes:  # index order: merge is deterministic
        if registry is not None and outcome.metrics is not None:
            registry.merge(MetricsRegistry.from_snapshot(outcome.metrics))
        if tracer.enabled and outcome.trace_records:
            tracer.absorb(outcome.trace_records, worker=outcome.worker)
    if registry is not None:
        # Surface what the resilient engine did for *this* run (the
        # engine may be reused across calls, hence the delta).
        for name, value in engine.telemetry.counters.items():
            delta = value - telemetry_before.get(name, 0)
            if delta:
                registry.inc(name, delta)
    return [outcome.result for outcome in outcomes]


def aggregate_program_result(
    program: Program,
    machine_name: str,
    scheduler_name: str,
    region_results: List[RegionResult],
    registry: Optional[MetricsRegistry] = None,
) -> ProgramResult:
    """Fold per-region results into one :class:`ProgramResult`.

    This is the single aggregation rule behind :func:`run_program` —
    trip-count-weighted cycle/transfer totals, summed compile seconds,
    and the ok/partial/failed status ladder with a first-three-failures
    error summary.  The compile server reuses it verbatim so a served
    response aggregates byte-identically to a serial run.

    Args:
        program: The program whose regions were scheduled (supplies
            names and trip counts; ``region_results`` must align with
            ``program.regions`` by position).
        machine_name: Target machine name for the result.
        scheduler_name: Scheduler name for the result.
        region_results: One :class:`RegionResult` per region, in region
            order.
        registry: Optional metrics registry; when given, program-level
            counters are recorded and its snapshot is attached.

    Returns:
        The aggregated :class:`ProgramResult`.
    """
    total_cycles = 0
    total_transfers = 0
    total_seconds = 0.0
    for region, result in zip(program.regions, region_results):
        total_cycles += result.cycles * region.trip_count
        total_transfers += result.transfers * region.trip_count
        total_seconds += result.compile_seconds
    failed = [r for r in region_results if not r.ok]
    if not failed:
        status, error = STATUS_OK, None
    else:
        status = STATUS_FAILED if len(failed) == len(region_results) else STATUS_PARTIAL
        error = "; ".join(
            f"{r.region_name}: {r.error}" for r in failed[:3]
        ) + ("" if len(failed) <= 3 else f"; +{len(failed) - 3} more")
    if registry is not None:
        registry.inc("programs.run")
        registry.observe("program.compile_seconds", total_seconds)
    return ProgramResult(
        benchmark=program.name,
        machine_name=machine_name,
        scheduler_name=scheduler_name,
        cycles=total_cycles,
        transfers=total_transfers,
        compile_seconds=total_seconds,
        regions=region_results,
        status=status,
        error=error,
        metrics=registry.snapshot() if registry is not None else None,
    )


def run_program(
    program: Program,
    machine: Machine,
    scheduler: Scheduler,
    check_values: bool = True,
    capture_errors: bool = True,
    registry: Optional[MetricsRegistry] = None,
    verify: bool = False,
    jobs: int = 1,
    cache: Optional["ScheduleCache"] = None,
    engine: Optional["CompilationEngine"] = None,
    resilience: Optional["ResilienceConfig"] = None,
    ledger: Optional["FlightLedger"] = None,
) -> ProgramResult:
    """Schedule every region of ``program``; weight cycles by trip count.

    Per-region failures are captured into the result (``status`` /
    ``error`` on each :class:`RegionResult`, ``status="partial"`` or
    ``"failed"`` on the program) instead of aborting the whole program;
    pass ``capture_errors=False`` to restore fail-fast behavior.

    Region→result association is by index: results are merged back in
    region order no matter which worker finished first (or, serially,
    how the loop was interleaved), so ``jobs=1`` and ``jobs=N`` produce
    identical results.

    Args:
        program: The program whose regions are scheduled.
        machine: Target machine model.
        scheduler: Any :class:`~repro.schedulers.base.Scheduler`.
        check_values: Replay the dataflow against the reference
            interpreter for every region.
        capture_errors: Capture per-region failures instead of raising.
        registry: Optional :class:`~repro.observability.metrics.
            MetricsRegistry`; when given, per-region counters and
            histograms are recorded and the registry's snapshot is
            attached as ``ProgramResult.metrics``.
        verify: Gate every region on the static verifier in addition to
            the simulator (see :func:`run_region`).
        jobs: Worker-process count for region fan-out; ``1`` (the
            default) stays on the classic in-process path.
        cache: Optional :class:`~repro.engine.cache.ScheduleCache`
            consulted per region (hits skip scheduling entirely and
            replay recorded simulator numbers).
        engine: Pre-built :class:`~repro.engine.pool.CompilationEngine`
            to reuse across calls (its pool stays warm); overrides
            ``jobs``/``cache``/``resilience``.
        resilience: Optional :class:`~repro.engine.resilience.
            ResilienceConfig`; when given, an engine is created even for
            ``jobs=1`` and runs its task loop under that policy
            (deadlines, retries, circuit breakers).  ``None`` (the
            default) keeps the byte-identical serial path, or the
            engine's :data:`~repro.engine.pool.DEFAULT_POLICY`.
        ledger: Optional :class:`~repro.observability.flight.
            FlightLedger`; when given, an engine is created even for
            ``jobs=1`` and every region task appends one flight record
            (results stay byte-identical — the engine's inline path is
            the serial harness).  Ignored when a pre-built ``engine``
            is passed: that engine's own ledger applies.

    Returns:
        The aggregated :class:`ProgramResult`.
    """
    own_engine: Optional["CompilationEngine"] = None
    if engine is None and (
        jobs > 1 or cache is not None or resilience is not None or ledger is not None
    ):
        from ..engine.pool import CompilationEngine

        engine = own_engine = CompilationEngine(
            jobs=jobs, cache=cache, resilience=resilience, ledger=ledger
        )
    try:
        if engine is None:
            region_results = _run_regions_serial(
                program, machine, scheduler, check_values, capture_errors,
                registry, verify,
            )
        else:
            region_results = _run_regions_engine(
                engine, program, machine, scheduler, check_values,
                capture_errors, registry, verify,
            )
    finally:
        if own_engine is not None:
            own_engine.close()
    return aggregate_program_result(
        program, machine.name, scheduler.name, region_results, registry
    )
