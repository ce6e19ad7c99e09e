"""Engine-level chaos: the seeded resilience campaign.

Where :mod:`repro.faults.campaign` attacks the *scheduler* (corrupted
preference matrices, raising passes), this module attacks the
*execution layer* built in PR 6 — deadlines, retries, circuit breakers,
worker pools, and the crash-safe disk cache:

* **Phase A — engine chaos.**  A synthetic program of ``n_regions``
  regions runs through a resilient :class:`~repro.engine.pool.
  CompilationEngine` while a seeded fraction of regions carry timing
  faults (:class:`~repro.faults.chaos.SlowPass` /
  :class:`~repro.faults.chaos.HangingPass`), a crashing pass, an
  *uncooperative* hang (only a worker kill can stop it), or a scheduler
  that hard-kills its worker.  The campaign asserts the engine's
  contract under fire: exactly one outcome per region (zero lost),
  every result simulator-verified or an honest
  :data:`~repro.harness.experiment.STATUS_TIMEOUT`, and every timed-out
  task resolved within ``deadline_s`` + kill tolerance (plus the
  inline-rescue allowance reported as ``max_overrun_s``).
* **Phase B — cache corruption round-trip.**  A cold run populates a
  disk cache, :func:`corrupt_cache_files` vandalizes a seeded subset of
  entry files (truncation, garbage, bit flips, version skew), and a
  warm run must still reproduce the cold results byte-for-byte while
  the damaged files are quarantined — then
  :meth:`~repro.engine.cache.ScheduleCache.verify_disk` and
  :meth:`~repro.engine.cache.ScheduleCache.gc` restore a clean store.

Everything is drawn from one seed: same seed, same storm, same report.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.convergent import ConvergentScheduler
from ..core.sequences import sequence_for_machine
from ..engine.cache import ScheduleCache
from ..engine.pool import CompilationEngine, RegionTask
from ..engine.resilience import ResilienceConfig, RetryPolicy
from ..harness.experiment import STATUS_TIMEOUT, run_program
from ..ir.builder import RegionBuilder
from ..ir.regions import Program
from ..machine.machine import Machine
from ..machine.raw import RawMachine
from ..schedulers.fallback import FallbackChain
from ..schedulers.single import SingleClusterScheduler
from ..schedulers.uas import UnifiedAssignAndSchedule
from .chaos import HangingPass, RaisingPass, SlowPass

_ARITH = ("fadd", "fmul", "fsub", "add")

#: Trial classes Phase A assigns to regions (seeded draw).  ``clean``
#: dominates; each chaotic class exercises one resilience mechanism.
TRIAL_CLEAN = "clean"
TRIAL_SLOW = "slow"  # cooperative: SlowPass burns the budget between checks
TRIAL_HANG_COOP = "hang_coop"  # cooperative: HangingPass polls the budget
TRIAL_HANG_HARD = "hang_hard"  # uncooperative: only a worker kill helps
TRIAL_RAISE = "raise"  # crashing pass (guard/chain territory)
TRIAL_KILL = "kill"  # scheduler hard-kills its worker process

_PARENT_PID = os.getpid()


class WorkerKillScheduler(UnifiedAssignAndSchedule):
    """Hard-kills the executing worker process (``os._exit``) once.

    The pid guard restricts the kill to pool workers: when the parent
    rescues the task inline, scheduling proceeds normally — which is
    exactly the recovery path the campaign wants to see.
    """

    name = "worker_kill"

    def schedule(self, region, machine):
        """Schedule ``region``, dying first when run in a pool worker."""
        if os.getpid() != _PARENT_PID:
            os._exit(1)
        return super().schedule(region, machine)


def _storm_program(n_regions: int, seed: int) -> Program:
    """A program of ``n_regions`` small, distinct synthetic regions."""
    rng = np.random.default_rng(seed)
    program = Program(f"storm{n_regions}")
    for r in range(n_regions):
        b = RegionBuilder(f"storm_r{r}")
        values = [b.li(float(rng.integers(1, 9))) for _ in range(2)]
        for _ in range(int(rng.integers(6, 14))):
            op = _ARITH[int(rng.integers(len(_ARITH)))]
            x = values[int(rng.integers(len(values)))]
            y = values[int(rng.integers(len(values)))]
            values.append(getattr(b, op)(x, y))
        b.live_out(values[-1])
        program.add(b.build())
    return program


def _assign_trials(n_regions: int, seed: int) -> List[str]:
    """Seeded trial class per region: mostly clean, one kill, the rest
    spread over the chaos classes."""
    rng = np.random.default_rng(seed + 1)
    classes = []
    for _ in range(n_regions):
        draw = rng.random()
        if draw < 0.04:
            classes.append(TRIAL_SLOW)
        elif draw < 0.08:
            classes.append(TRIAL_HANG_COOP)
        elif draw < 0.10:
            classes.append(TRIAL_HANG_HARD)
        elif draw < 0.16:
            classes.append(TRIAL_RAISE)
        else:
            classes.append(TRIAL_CLEAN)
    if n_regions:
        # Exactly one worker-kill region, placed deterministically.
        classes[int(rng.integers(0, n_regions))] = TRIAL_KILL
    return classes


def _storm_chain(
    machine: Machine, trial_class: str, deadline_s: float, seed: int
) -> FallbackChain:
    """The defense stack for one region, with its assigned fault armed."""
    passes = list(sequence_for_machine(machine.name))
    insert_at = len(passes) // 2
    if trial_class == TRIAL_SLOW:
        # Finishes, but blows well past the deadline: the *next*
        # between-pass budget check raises DeadlineExceeded.
        passes.insert(insert_at, SlowPass(delay_s=deadline_s * 2.0))
    elif trial_class == TRIAL_HANG_COOP:
        # Spins while polling the budget: dies mid-pass, cooperatively.
        passes.insert(insert_at, HangingPass(hang_s=deadline_s * 20.0))
    elif trial_class == TRIAL_HANG_HARD:
        # One long blind sleep: no budget poll, no between-pass check
        # until far too late — only the parent's worker kill resolves it.
        passes.insert(insert_at, SlowPass(delay_s=max(deadline_s * 40.0, 10.0)))
    elif trial_class == TRIAL_RAISE:
        passes.insert(insert_at, RaisingPass("storm: injected crash"))
    members = [
        ConvergentScheduler(passes=passes, seed=seed),
        UnifiedAssignAndSchedule(),
        SingleClusterScheduler(),
    ]
    if trial_class == TRIAL_KILL:
        members[0] = WorkerKillScheduler()
    return FallbackChain(members, check_values=False)


@dataclass
class ResilienceReport:
    """Everything one resilience storm proved (or failed to prove)."""

    machine_name: str
    seed: int
    n_regions: int
    jobs: int
    deadline_s: float
    #: Trial-class -> region count, as assigned.
    trial_counts: Dict[str, int] = field(default_factory=dict)
    ok_regions: int = 0
    degraded_regions: int = 0
    timeout_regions: int = 0
    lost_regions: int = 0
    max_overrun_s: float = 0.0
    telemetry: Dict[str, int] = field(default_factory=dict)
    #: Phase B numbers.
    cache_entries_cold: int = 0
    cache_files_corrupted: int = 0
    cache_quarantined: int = 0
    cache_warm_identical: bool = False
    cache_verify: Dict[str, int] = field(default_factory=dict)
    cache_gc: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every storm invariant held."""
        return not self.errors

    def render(self) -> str:
        """Plain-text storm summary for the CLI and CI logs."""
        parts = [
            f"resilience storm on {self.machine_name} (seed {self.seed}): "
            f"{self.n_regions} regions, jobs={self.jobs}, "
            f"deadline={self.deadline_s:.3f}s",
            "  trial classes:       "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.trial_counts.items())),
            f"  ok / degraded:       {self.ok_regions} / {self.degraded_regions}",
            f"  timeouts:            {self.timeout_regions}",
            f"  lost regions:        {self.lost_regions}",
            f"  max overrun:         {self.max_overrun_s:.3f}s",
            "  engine telemetry:    "
            + (
                ", ".join(f"{k.split('.')[-1]}={v}" for k, v in sorted(self.telemetry.items()))
                or "none"
            ),
            f"  cache cold entries:  {self.cache_entries_cold}",
            f"  cache corrupted:     {self.cache_files_corrupted}",
            f"  cache quarantined:   {self.cache_quarantined}",
            f"  warm == cold:        {self.cache_warm_identical}",
            "  cache verify:        "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.cache_verify.items())),
            "  cache gc:            "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.cache_gc.items())),
            f"  verdict:             {'OK' if self.ok else 'FAILED'}",
        ]
        for error in self.errors[:8]:
            parts.append(f"  ERROR: {error}")
        return "\n".join(parts)


def corrupt_cache_files(
    cache_dir: str, rng: np.random.Generator, fraction: float = 0.5
) -> int:
    """Vandalize a seeded subset of disk-cache entry files in place.

    Four corruption modes rotate over the victims: truncation (partial
    write), wholesale garbage (disk corruption), a single flipped byte
    inside the JSON (silent bit rot — caught by the checksum), and a
    version-skew rewrite (a newer writer's file format).

    Args:
        cache_dir: The cache's disk directory.
        rng: Seeded generator choosing victims.
        fraction: Fraction of entry files to damage.

    Returns:
        Number of files corrupted.
    """
    entries = sorted(
        name
        for name in os.listdir(cache_dir)
        if name.endswith(".json") and os.path.isfile(os.path.join(cache_dir, name))
    )
    n_victims = max(1, int(len(entries) * fraction)) if entries else 0
    victims = list(rng.choice(len(entries), size=n_victims, replace=False))
    for mode_index, victim in enumerate(sorted(victims)):
        path = os.path.join(cache_dir, entries[int(victim)])
        raw = open(path, "rb").read()
        mode = mode_index % 4
        if mode == 0:  # truncation
            with open(path, "wb") as fh:
                fh.write(raw[: max(1, len(raw) // 3)])
        elif mode == 1:  # garbage
            with open(path, "wb") as fh:
                fh.write(b"\x00\xffnot json at all\x80" * 4)
        elif mode == 2:  # one-byte bit flip inside the payload
            position = min(len(raw) - 2, (len(raw) // 2) + 5)
            flipped = bytes([raw[position] ^ 0x20])
            with open(path, "wb") as fh:
                fh.write(raw[:position] + flipped + raw[position + 1 :])
        else:  # version skew
            text = raw.decode("utf-8", errors="replace")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace('"file_version": 1', '"file_version": 999', 1))
    return n_victims


def _run_engine_phase(
    report: ResilienceReport,
    machine: Machine,
    n_regions: int,
    seed: int,
    jobs: int,
    deadline_s: float,
    kill_tolerance_s: float,
) -> None:
    """Phase A: chaos through the resilient engine; fills ``report``."""
    program = _storm_program(n_regions, seed)
    classes = _assign_trials(n_regions, seed)
    for trial_class in classes:
        report.trial_counts[trial_class] = report.trial_counts.get(trial_class, 0) + 1
    resilience = ResilienceConfig(
        deadline_s=deadline_s,
        kill_tolerance_s=kill_tolerance_s,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        breaker_threshold=3,
        breaker_cooldown=8,
        max_pool_respawns=max(8, jobs * 2),
    )
    engine = CompilationEngine(jobs=jobs, resilience=resilience)
    tasks = [
        RegionTask(
            index=index,
            region=region,
            machine=machine,
            scheduler=_storm_chain(machine, classes[index], deadline_s, seed),
            check_values=False,
            capture_errors=True,
        )
        for index, region in enumerate(program.regions)
    ]
    try:
        outcomes = engine.run_tasks(tasks)
    except Exception as exc:  # noqa: BLE001 - the campaign must observe, not die
        report.errors.append(f"uncaught engine exception: {type(exc).__name__}: {exc}")
        report.lost_regions = n_regions
        return
    finally:
        engine.close()
    report.telemetry = dict(engine.telemetry.counters)

    seen = {outcome.index for outcome in outcomes}
    report.lost_regions = n_regions - len(seen)
    if report.lost_regions:
        report.errors.append(f"{report.lost_regions} regions lost")
    if [o.index for o in outcomes] != sorted(seen):
        report.errors.append("outcomes not in index order")
    for outcome in outcomes:
        result = outcome.result
        if result.ok:
            report.ok_regions += 1
            if outcome.degradation_level > 0:
                report.degraded_regions += 1
        elif result.status == STATUS_TIMEOUT:
            report.timeout_regions += 1
        else:
            report.errors.append(
                f"region {result.region_name} neither ok nor timeout: "
                f"{result.status}: {result.error}"
            )
        if outcome.timed_out:
            overrun = max(0.0, result.compile_seconds - deadline_s)
            report.max_overrun_s = max(report.max_overrun_s, overrun)
    # Deadline honored within tolerance: detection is bounded by the
    # task's own deadline + kill tolerance; the inline fallback rescue afterwards is cheap, so
    # a generous-but-finite allowance separates "honored" from "hung".
    allowance = kill_tolerance_s + 2.0
    if report.max_overrun_s > allowance:
        report.errors.append(
            f"deadline overrun {report.max_overrun_s:.3f}s exceeds "
            f"tolerance {allowance:.3f}s"
        )


def _scrub(result) -> List[tuple]:
    """Comparable per-region quality tuple (timings excluded)."""
    return [
        (r.region_name, r.status, r.cycles, r.transfers, round(r.utilization, 12))
        for r in result.regions
    ]


def _run_cache_phase(
    report: ResilienceReport,
    machine: Machine,
    seed: int,
    cache_dir: Optional[str],
) -> None:
    """Phase B: corrupt the disk cache, prove detect-quarantine-rebuild."""
    own_dir = cache_dir is None
    directory = cache_dir or tempfile.mkdtemp(prefix="repro-storm-cache-")
    program = _storm_program(12, seed + 17)
    rng = np.random.default_rng(seed + 23)

    def _chain() -> FallbackChain:
        return FallbackChain(
            [
                ConvergentScheduler(seed=seed),
                UnifiedAssignAndSchedule(),
                SingleClusterScheduler(),
            ],
            check_values=False,
        )

    try:
        cold_cache = ScheduleCache(disk_dir=directory)
        cold = run_program(
            program, machine, _chain(), check_values=False, cache=cold_cache
        )
        report.cache_entries_cold = cold_cache.disk_stats()["entries"]
        report.cache_files_corrupted = corrupt_cache_files(directory, rng)

        warm_cache = ScheduleCache(disk_dir=directory)
        warm = run_program(
            program, machine, _chain(), check_values=False, cache=warm_cache
        )
        report.cache_quarantined = warm_cache.stats.quarantined
        report.cache_warm_identical = _scrub(cold) == _scrub(warm)
        if not report.cache_warm_identical:
            report.errors.append("warm-cache results differ from cold run")
        if report.cache_files_corrupted and not report.cache_quarantined:
            report.errors.append("corrupt cache files were not quarantined")

        # The warm run re-stored the recomputed entries; a verify pass
        # must now find a fully healthy store, and gc must empty the
        # quarantine.
        report.cache_verify = warm_cache.verify_disk()
        if report.cache_verify.get("corrupt") or report.cache_verify.get(
            "version_skew"
        ):
            report.errors.append(
                f"cache still unhealthy after rebuild: {report.cache_verify}"
            )
        report.cache_gc = warm_cache.gc()
    finally:
        if own_dir:
            import shutil

            shutil.rmtree(directory, ignore_errors=True)


def run_resilience_campaign(
    machine: Optional[Machine] = None,
    n_regions: int = 200,
    seed: int = 0,
    jobs: int = 4,
    deadline_s: float = 0.25,
    kill_tolerance_s: float = 1.0,
    cache_dir: Optional[str] = None,
) -> ResilienceReport:
    """Run the full two-phase resilience storm and report every invariant.

    Args:
        machine: Target machine; default ``RawMachine(4, 4)``.
        n_regions: Phase A region count (the acceptance bar is >= 200).
        seed: Seeds region synthesis, trial assignment, and cache
            vandalism — one seed replays the whole storm.
        jobs: Worker processes for Phase A (Phase B is serial: it is
            about the disk format, not the pool).
        deadline_s: Per-task compile budget for Phase A.
        kill_tolerance_s: Grace past the deadline before worker kills.
        cache_dir: Phase B cache directory; ``None`` uses a temporary
            directory that is removed afterwards.

    Returns:
        The filled :class:`ResilienceReport`; ``report.ok`` is the
        campaign verdict.
    """
    machine = machine or RawMachine(4, 4)
    report = ResilienceReport(
        machine_name=machine.name,
        seed=seed,
        n_regions=n_regions,
        jobs=jobs,
        deadline_s=deadline_s,
    )
    _run_engine_phase(
        report, machine, n_regions, seed, jobs, deadline_s, kill_tolerance_s
    )
    _run_cache_phase(report, machine, seed, cache_dir)
    return report
