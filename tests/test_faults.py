"""Fault tolerance: pass guard, fallback chain, hardened harness,
chaos passes, and the seeded injection campaign.

The acceptance bar for the whole subsystem is at the bottom: a campaign
of 100+ injected faults across every chaos kind completes with zero
crashes, every region ending in a simulator-validated schedule, with
each degradation recorded in the trace or result status.
"""

import numpy as np
import pytest

from repro.core import ConvergentScheduler, PassGuard, PreferenceMatrix
from repro.core.guard import GuardEvent
from repro.core.passes import PassContext, make_pass
from repro.faults import (
    FAULT_REGISTRY,
    NaNInjector,
    RaisingPass,
    WeightCorruptor,
    ZeroRowPass,
    make_fault,
    run_campaign,
)
from repro.harness import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_PARTIAL,
    format_degradations,
    run_program,
    run_region,
)
from repro.harness.results import program_result_from_dict, program_result_to_dict
from repro.machine import ClusteredVLIW, RawMachine
from repro.schedulers import (
    FallbackChain,
    Scheduler,
    SchedulingError,
    SingleClusterScheduler,
    UnifiedAssignAndSchedule,
)
from repro.sim import simulate
from repro.workloads import build_benchmark

from .conftest import build_dot_region, intonly2


def make_ctx(region, machine, seed=0):
    """A PassContext over a fresh uniform matrix for ``region``."""
    matrix = PreferenceMatrix.for_region(region.ddg, machine.n_clusters)
    return PassContext(
        ddg=region.ddg,
        machine=machine,
        matrix=matrix,
        rng=np.random.default_rng(seed),
    )


class TestMatrixCheckpoint:
    def test_restore_roundtrip(self, dot_region, vliw4):
        matrix = PreferenceMatrix.for_region(dot_region.ddg, vliw4.n_clusters)
        token = matrix.checkpoint()
        matrix.scale(0, 9.0)
        matrix.normalize()
        matrix.restore(token)
        assert np.allclose(matrix.data, 1.0 / matrix.data[0].size)

    def test_restore_invalidates_marginal_cache(self):
        matrix = PreferenceMatrix(2, 2, 2)
        token = matrix.checkpoint()
        matrix.scale(0, 4.0, cluster=1)
        assert matrix.preferred_cluster(0) == 1
        matrix.restore(token)
        assert matrix.cluster_marginals()[0][0] == matrix.cluster_marginals()[0][1]

    def test_restore_shape_mismatch_rejected(self):
        matrix = PreferenceMatrix(2, 2, 2)
        with pytest.raises(ValueError, match="shape"):
            matrix.restore(np.zeros((1, 2, 2)))

    def test_health_clean_matrix(self):
        assert PreferenceMatrix(3, 2, 4).health() is None

    def test_health_detects_nan(self):
        matrix = PreferenceMatrix(3, 2, 4)
        matrix.data[1, 0, 0] = np.nan
        assert "NaN" in matrix.health()

    def test_health_detects_inf(self):
        matrix = PreferenceMatrix(3, 2, 4)
        matrix.data[0, 1, 2] = np.inf
        assert "infinite" in matrix.health()

    def test_health_detects_negative(self):
        matrix = PreferenceMatrix(3, 2, 4)
        matrix.data[2, 0, 1] = -0.25
        assert "negative" in matrix.health()

    def test_health_detects_zero_row(self):
        matrix = PreferenceMatrix(3, 2, 4)
        matrix.data[1] = 0.0
        matrix.touch()
        assert "all-zero" in matrix.health()

    def test_health_normalization_check_is_opt_in(self):
        matrix = PreferenceMatrix(3, 2, 4)
        matrix.data[:] *= 3.0
        matrix.touch()
        assert matrix.health() is None
        assert "sum" in matrix.health(check_normalization=True)


class TestChaosPasses:
    @pytest.mark.parametrize("kind", sorted(FAULT_REGISTRY))
    def test_fault_registry_constructs(self, kind):
        assert make_fault(kind).name.startswith("FAULT")

    def test_unknown_fault_kind(self):
        with pytest.raises(KeyError, match="unknown fault"):
            make_fault("gamma_ray")

    def test_nan_injector_corrupts(self, dot_region, vliw4):
        ctx = make_ctx(dot_region, vliw4)
        NaNInjector().apply(ctx)
        assert np.isnan(ctx.matrix.data).any()

    def test_weight_corruptor_goes_negative(self, dot_region, vliw4):
        ctx = make_ctx(dot_region, vliw4)
        WeightCorruptor().apply(ctx)
        assert (ctx.matrix.data < 0).any()

    def test_zero_row_erases_an_instruction(self, dot_region, vliw4):
        ctx = make_ctx(dot_region, vliw4)
        ZeroRowPass().apply(ctx)
        sums = ctx.matrix.data.sum(axis=(1, 2))
        assert (sums == 0).sum() == 1

    def test_raising_pass_mutates_then_raises(self, dot_region, vliw4):
        ctx = make_ctx(dot_region, vliw4)
        before = ctx.matrix.checkpoint()
        with pytest.raises(RuntimeError, match="injected fault"):
            RaisingPass().apply(ctx)
        assert not np.allclose(ctx.matrix.data, before)  # partial damage

    def test_chaos_deterministic_given_rng_seed(self, dot_region, vliw4):
        a = make_ctx(dot_region, vliw4, seed=7)
        b = make_ctx(dot_region, vliw4, seed=7)
        NaNInjector().apply(a)
        NaNInjector().apply(b)
        assert np.array_equal(np.isnan(a.matrix.data), np.isnan(b.matrix.data))


class TestPassGuard:
    @pytest.mark.parametrize("kind", sorted(FAULT_REGISTRY))
    def test_rollback_restores_pre_pass_matrix(self, kind, dot_region, vliw4):
        ctx = make_ctx(dot_region, vliw4)
        ctx.matrix.scale(0, 3.0, cluster=1)
        ctx.matrix.normalize()
        before = ctx.matrix.checkpoint()
        guard = PassGuard()
        event = guard.run(make_fault(kind), ctx)
        assert event is not None
        assert event.recovered
        assert np.array_equal(ctx.matrix.data, before)

    def test_success_returns_none_and_normalizes(self, dot_region, vliw4):
        ctx = make_ctx(dot_region, vliw4)
        guard = PassGuard()
        assert guard.run(make_pass("LOAD"), ctx) is None
        ctx.matrix.check_invariants()
        assert guard.events == []

    def test_exception_vs_health_kinds(self, dot_region, vliw4):
        ctx = make_ctx(dot_region, vliw4)
        guard = PassGuard(quarantine_after=10)
        guard.run(RaisingPass(), ctx)
        guard.run(NaNInjector(), ctx)
        assert [e.kind for e in guard.events] == ["exception", "health"]

    def test_quarantine_after_repeat_failures(self, dot_region, vliw4):
        ctx = make_ctx(dot_region, vliw4)
        guard = PassGuard(quarantine_after=2)
        chaos = RaisingPass()
        guard.run(chaos, ctx)
        assert not guard.is_quarantined(chaos)
        guard.run(chaos, ctx)
        assert guard.is_quarantined(chaos)
        assert guard.quarantined == [chaos.name]
        assert guard.n_failures == 2

    def test_quarantine_after_validated(self):
        with pytest.raises(ValueError):
            PassGuard(quarantine_after=0)

    def test_two_failures_in_a_row_restore_exact_bytes(self, dot_region, vliw4):
        ctx = make_ctx(dot_region, vliw4)
        ctx.matrix.scale(0, 3.0, cluster=1)
        ctx.matrix.normalize()
        before = ctx.matrix.data.tobytes()
        guard = PassGuard(quarantine_after=10)
        assert guard.run(RaisingPass(), ctx) is not None
        assert ctx.matrix.data.tobytes() == before
        assert guard.run(NaNInjector(), ctx) is not None
        assert ctx.matrix.data.tobytes() == before

    def test_failure_after_success_restores_post_success_bytes(
        self, dot_region, vliw4
    ):
        ctx = make_ctx(dot_region, vliw4)
        guard = PassGuard(quarantine_after=10)
        assert guard.run(make_pass("INITTIME"), ctx) is None
        after_success = ctx.matrix.data.tobytes()
        assert guard.run(NaNInjector(), ctx) is not None
        assert ctx.matrix.data.tobytes() == after_success
        assert guard.run(RaisingPass(), ctx) is not None
        assert ctx.matrix.data.tobytes() == after_success

    def test_finished_guard_holds_no_matrix(self, mxm_vliw, vliw4):
        scheduler = ConvergentScheduler()
        scheduler.converge(mxm_vliw, vliw4)
        guard = scheduler.last_result.guard
        assert not any(isinstance(v, np.ndarray) for v in vars(guard).values())

    def test_reused_checkpoint_matches_fresh_copies_under_tracing(
        self, monkeypatch, mxm_vliw, vliw4
    ):
        """The reused buffer never aliases the tracer's own pre-pass copy:
        traced runs give the same cycles and per-pass L1 churn as a guard
        that checkpoints into a fresh copy before every pass."""
        import repro.core.convergent as convergent
        from repro.observability import Tracer

        class FreshCopyGuard(PassGuard):
            def run(self, scheduling_pass, ctx, round_index=0):
                self.release()
                return super().run(scheduling_pass, ctx, round_index)

        reused = ConvergentScheduler(tracer=Tracer()).converge(mxm_vliw, vliw4)
        monkeypatch.setattr(convergent, "PassGuard", FreshCopyGuard)
        fresh = ConvergentScheduler(tracer=Tracer()).converge(mxm_vliw, vliw4)
        assert isinstance(fresh.guard, FreshCopyGuard)
        assert reused.schedule.makespan == fresh.schedule.makespan
        churn = [r.l1_churn for r in reused.trace.records]
        assert churn == [r.l1_churn for r in fresh.trace.records]
        assert any(c > 0 for c in churn)

    def test_event_describe_mentions_pass(self):
        event = GuardEvent("FAULT_NAN", 0, "health", "NaN in row 3")
        assert "FAULT_NAN" in event.describe()
        assert "rolled back" in event.describe()


class TestGuardedScheduler:
    @pytest.mark.parametrize("kind", sorted(FAULT_REGISTRY))
    def test_survives_each_fault_kind(self, kind, vliw4):
        region = build_dot_region(n=8)
        passes = ["INITTIME", "NOISE", make_fault(kind), "LOAD", "COMM", "EMPHCP"]
        result = ConvergentScheduler(passes=passes).converge(region, vliw4)
        assert simulate(region, vliw4, result.schedule).ok
        assert result.degraded
        assert len(result.trace.guard_events) >= 1
        assert result.trace.degraded

    def test_trace_churn_series_excludes_failed_pass(self, vliw4):
        region = build_dot_region()
        passes = ["INITTIME", "NOISE", RaisingPass(), "LOAD", "EMPHCP"]
        result = ConvergentScheduler(passes=passes).converge(region, vliw4)
        names = [r.pass_name for r in result.trace.records]
        assert "FAULT_RAISE" not in names
        assert names == ["INITTIME", "NOISE", "LOAD", "EMPHCP"]

    def test_quarantine_across_iterations(self, vliw4):
        region = build_dot_region()
        passes = ["INITTIME", RaisingPass(), "LOAD", "EMPHCP"]
        result = ConvergentScheduler(
            passes=passes, iterations=4, quarantine_after=2
        ).converge(region, vliw4)
        guard = result.guard
        # Two failures, then quarantined: rounds 3 and 4 skip the pass.
        assert guard.failure_counts["FAULT_RAISE"] == 2
        assert guard.quarantined == ["FAULT_RAISE"]
        kinds = [e.kind for e in result.trace.guard_events]
        assert kinds == ["exception", "exception", "quarantine"]

    def test_unguarded_scheduler_crashes(self, vliw4):
        region = build_dot_region()
        passes = ["INITTIME", RaisingPass(), "LOAD"]
        scheduler = ConvergentScheduler(passes=passes, guard=False)
        with pytest.raises(RuntimeError, match="injected fault"):
            scheduler.converge(region, vliw4)

    def test_guard_neutral_on_happy_path(self, vliw4, mxm_vliw):
        guarded = ConvergentScheduler(guard=True).converge(mxm_vliw, vliw4)
        plain = ConvergentScheduler(guard=False).converge(mxm_vliw, vliw4)
        assert guarded.assignment == plain.assignment
        assert guarded.schedule.makespan == plain.schedule.makespan
        assert guarded.guard.events == []
        assert not guarded.degraded

    def test_extract_assignment_empty_feasible_is_descriptive(self):
        machine = intonly2()
        region = build_dot_region(n=2, banks=2)  # contains FMULs
        matrix = PreferenceMatrix.for_region(region.ddg, machine.n_clusters)
        with pytest.raises(SchedulingError, match="no feasible cluster"):
            ConvergentScheduler.extract_assignment(matrix, region, machine)
        with pytest.raises(SchedulingError, match="intonly2"):
            ConvergentScheduler.extract_assignment(matrix, region, machine)


class _AlwaysFails(Scheduler):
    """Scheduler that always raises; exercises the fallback chain."""

    name = "doomed"

    def schedule(self, region, machine):
        raise SchedulingError("doomed by design")


class TestFallbackChain:
    def test_level_zero_on_healthy_primary(self, vliw4, dot_region):
        chain = FallbackChain()
        schedule = chain.schedule(dot_region, vliw4)
        assert simulate(dot_region, vliw4, schedule).ok
        assert chain.last_level == 0
        assert not chain.last_report.degraded

    def test_falls_back_past_crashing_primary(self, vliw4, dot_region):
        chain = FallbackChain(
            [_AlwaysFails(), UnifiedAssignAndSchedule(), SingleClusterScheduler()]
        )
        schedule = chain.schedule(dot_region, vliw4)
        assert simulate(dot_region, vliw4, schedule).ok
        assert chain.last_level == 1
        assert chain.last_report.degraded
        assert "doomed by design" in chain.last_report.describe()

    def test_unguarded_fault_degrades_to_list_scheduler(self, vliw4):
        region = build_dot_region(n=8)
        faulty = ConvergentScheduler(
            passes=["INITTIME", RaisingPass(), "LOAD"], guard=False
        )
        chain = FallbackChain(
            [faulty, UnifiedAssignAndSchedule(), SingleClusterScheduler()]
        )
        schedule = chain.schedule(region, vliw4)
        assert simulate(region, vliw4, schedule).ok
        assert chain.last_level == 1

    def test_all_levels_fail_raises_with_details(self, vliw4, dot_region):
        chain = FallbackChain([_AlwaysFails(), _AlwaysFails()])
        with pytest.raises(SchedulingError, match="every scheduler"):
            chain.schedule(dot_region, vliw4)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            FallbackChain([])

    def test_default_chain_composition(self):
        chain = FallbackChain()
        assert [s.name for s in chain.schedulers] == ["convergent", "uas", "single"]


class TestHardenedHarness:
    def test_run_region_captures_failure(self, vliw4, dot_region):
        result = run_region(
            dot_region, vliw4, _AlwaysFails(), capture_errors=True
        )
        assert result.status == STATUS_FAILED
        assert not result.ok
        assert "doomed" in result.error
        assert result.cycles == 0
        assert result.n_instructions == len(dot_region.ddg)

    def test_run_region_raises_by_default(self, vliw4, dot_region):
        with pytest.raises(SchedulingError):
            run_region(dot_region, vliw4, _AlwaysFails())

    def test_run_program_partial_result(self, vliw4):
        program = build_benchmark("vvmul", vliw4)

        class FailsOnce(Scheduler):
            """Fails the first region only."""

            name = "flaky"

            def __init__(self):
                self.calls = 0
                self.inner = UnifiedAssignAndSchedule()

            def schedule(self, region, machine):
                self.calls += 1
                if self.calls == 1:
                    raise SchedulingError("transient failure")
                return self.inner.schedule(region, machine)

        # vvmul has one region; duplicate it so the program has two.
        program.regions.append(build_benchmark("yuv", vliw4).regions[0])
        result = run_program(program, vliw4, FailsOnce())
        assert result.status == STATUS_PARTIAL
        assert len(result.failed_regions) == 1
        assert "transient failure" in result.error
        assert not result.ok
        warning = format_degradations(result)
        assert "WARNING" in warning and "transient failure" in warning

    def test_run_program_all_failed(self, vliw4):
        program = build_benchmark("vvmul", vliw4)
        result = run_program(program, vliw4, _AlwaysFails())
        assert result.status == STATUS_FAILED

    def test_run_program_ok_status_and_counts(self, vliw4):
        program = build_benchmark("vvmul", vliw4)
        result = run_program(program, vliw4, UnifiedAssignAndSchedule())
        assert result.status == STATUS_OK
        assert result.ok
        assert result.error is None
        assert result.n_regions == len(program.regions)
        assert result.instructions == sum(len(r.ddg) for r in program.regions)
        assert result.instructions > result.n_regions
        assert format_degradations(result) == ""

    def test_program_result_serialization_roundtrip(self, vliw4):
        program = build_benchmark("vvmul", vliw4)
        result = run_program(program, vliw4, UnifiedAssignAndSchedule())
        data = program_result_to_dict(result)
        back = program_result_from_dict(data)
        assert back.cycles == result.cycles
        assert back.status == result.status
        assert back.instructions == result.instructions
        assert back.regions[0].region_name == result.regions[0].region_name


class TestCampaign:
    def make_regions(self, machine):
        return [
            region
            for name in ("vvmul", "yuv")
            for region in build_benchmark(name, machine).regions
        ]

    def test_campaign_zero_crashes_vliw(self, vliw4):
        regions = self.make_regions(vliw4)
        report = run_campaign(vliw4, regions, n_trials=60, seed=0)
        assert report.n_trials == 60
        assert report.ok, report.render()
        assert all(o.validated for o in report.outcomes)

    def test_campaign_zero_crashes_raw(self, raw4):
        regions = self.make_regions(raw4)
        report = run_campaign(raw4, regions, n_trials=40, seed=1)
        assert report.ok, report.render()

    def test_campaign_every_fault_kind_injected(self, vliw4):
        regions = self.make_regions(vliw4)
        report = run_campaign(vliw4, regions, n_trials=60, seed=0)
        assert {o.fault_kind for o in report.outcomes} == set(FAULT_REGISTRY)

    def test_campaign_records_degradations(self, vliw4):
        regions = self.make_regions(vliw4)
        report = run_campaign(vliw4, regions, n_trials=60, seed=0)
        # Guarded trials roll back; some unguarded trials fall back.
        assert report.count("rollback") > 0
        assert report.total_guard_events > 0
        for outcome in report.outcomes:
            if outcome.defense == "rollback":
                assert outcome.guard_events > 0
            if outcome.defense == "fallback":
                assert outcome.fallback_level > 0

    def test_campaign_deterministic(self, vliw4):
        regions = self.make_regions(vliw4)
        a = run_campaign(vliw4, regions, n_trials=25, seed=3)
        b = run_campaign(vliw4, regions, n_trials=25, seed=3)
        assert [(o.fault_kind, o.position, o.defense) for o in a.outcomes] == [
            (o.fault_kind, o.position, o.defense) for o in b.outcomes
        ]

    def test_campaign_render_mentions_survival(self, vliw4):
        regions = self.make_regions(vliw4)
        report = run_campaign(vliw4, regions, n_trials=10, seed=5)
        text = report.render()
        assert "survived" in text and "10 trials" in text

    def test_campaign_rejects_empty_region_pool(self, vliw4):
        with pytest.raises(ValueError):
            run_campaign(vliw4, [], n_trials=1)


class TestMakePassHardening:
    def test_duplicate_argument_rejected(self):
        with pytest.raises(ValueError, match="duplicate argument"):
            make_pass("LEVEL(stride=2, stride=3)")

    def test_non_identifier_name_rejected(self):
        with pytest.raises(ValueError, match="identifier"):
            make_pass("LEVEL(str ide=2)")
        with pytest.raises(ValueError, match="identifier"):
            make_pass("NOISE(2amount=0.5)")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            make_pass("NOISE(amount=lots)")

    def test_good_specs_still_parse(self):
        p = make_pass("LEVEL(stride=2, granularity=1)")
        assert p.stride == 2 and p.granularity == 1
