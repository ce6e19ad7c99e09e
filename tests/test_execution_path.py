"""The completion-driven execution path of the engine and the server.

:meth:`~repro.engine.pool.CompilationEngine.run_tasks` is one loop that
keeps at most ``jobs`` tasks in flight and absorbs each outcome as it
lands; the compile server runs one such call per cold request on an
engine lane of ``jobs`` threads.  These tests pin what that buys:

* **head-of-line** — a fast cold request is answered while a slow one
  is still compiling;
* **innocent resubmission** — a task killed only because its pool was
  killed over a hung neighbour is resubmitted without spending an
  attempt, and comes back ``ok``;
* **concurrent callers** — four threads share one engine; each gets its
  own index-ordered outcomes, identical to serial, and the engine's
  telemetry counts every task exactly once;
* **fingerprint once** — a served region is fingerprinted while the
  request is parsed and never again in the engine;
* **SIGTERM** — ``repro serve`` stops gracefully on SIGTERM and takes
  its pool workers with it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core import ConvergentScheduler
from repro.engine import CompilationEngine, RegionTask, ResilienceConfig, RetryPolicy
from repro.harness.experiment import STATUS_TIMEOUT
from repro.ir import Program, RegionBuilder
from repro.machine import ClusteredVLIW
from repro.observability.flight import FlightLedger
from repro.schedulers import UnifiedAssignAndSchedule
from repro.serve import ServeConfig, ServerThread, compile_request
from repro.serve.loadtest import http_request
from repro.workloads import build_benchmark

MACHINE = ClusteredVLIW(4)
SRC = Path(__file__).resolve().parents[1] / "src"


class SleepyScheduler(UnifiedAssignAndSchedule):
    """UAS after an uncooperative sleep (no budget checks), so only a
    kill can cut it short."""

    name = "sleepy"

    def __init__(self, delay_s: float = 1.0) -> None:
        super().__init__()
        self.delay_s = delay_s

    def schedule(self, region, machine):
        """Sleep, then schedule like UAS."""
        time.sleep(self.delay_s)
        return super().schedule(region, machine)


def _region(name, n=10):
    """A small synthetic region with a real dependence chain."""
    b = RegionBuilder(name)
    values = [b.li(1.0), b.li(2.0)]
    for _ in range(n):
        values.append(b.fadd(values[-1], values[-2]))
    b.live_out(values[-1])
    return b.build()


def _body(program, spec, scheduler):
    """Encoded wire body for one compile request."""
    return json.dumps(compile_request(program, spec, scheduler)).encode()


def _summary(outcomes):
    """The timing-free part of a list of outcomes."""
    return [
        (o.index, o.result.region_name, o.result.status, o.result.cycles,
         o.result.transfers)
        for o in outcomes
    ]


class TestEngineLoop:
    def test_innocent_task_killed_with_a_hung_neighbour_is_resubmitted(self):
        config = ResilienceConfig(
            kill_tolerance_s=0.1, retry=RetryPolicy(base_delay_s=0.0)
        )
        hung = RegionTask(
            index=0, region=_region("hung"), machine=MACHINE,
            scheduler=SleepyScheduler(delay_s=60.0), check_values=False,
            deadline_s=0.2,
        )
        quick = RegionTask(
            index=1, region=_region("quick"), machine=MACHINE,
            scheduler=SleepyScheduler(delay_s=1.0), check_values=False,
        )
        with CompilationEngine(jobs=2, resilience=config) as engine:
            hung_out, quick_out = engine.run_tasks([hung, quick])
            counters = dict(engine.telemetry.counters)
        assert hung_out.timed_out
        assert hung_out.result.status == STATUS_TIMEOUT
        # The quick task was running on the killed pool; it is not its
        # fault, so it reruns on the new pool on its first attempt.
        assert quick_out.result.ok
        assert not quick_out.timed_out
        assert quick_out.attempts == 1
        assert counters["resilience.preemptive_kills"] == 1
        assert "resilience.retries" not in counters

    def test_concurrent_callers_share_one_engine(self):
        callers = 4  # more threads than the pool has workers
        regions = [_region(f"cc_r{i}", n=6 + i) for i in range(12)]

        def tasks(slot):
            return [
                RegionTask(
                    index=i, region=region, machine=MACHINE,
                    scheduler=ConvergentScheduler(seed=0), check_values=False,
                )
                for i, region in enumerate(regions[slot::callers])
            ]

        with CompilationEngine(jobs=1) as serial_engine:
            serial = [
                _summary(serial_engine.run_tasks(tasks(s))) for s in range(callers)
            ]
        ledger = FlightLedger()
        results = [None] * callers
        barrier = threading.Barrier(callers)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CompilationEngine(jobs=2, ledger=ledger) as engine:

                def call(slot):
                    barrier.wait()
                    results[slot] = engine.run_tasks(tasks(slot))

                threads = [
                    threading.Thread(target=call, args=(s,)) for s in range(callers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                snapshot = engine.telemetry_snapshot()
                assert engine.pool_breaks == 0
        finally:
            sys.setswitchinterval(switch_interval)
        assert [_summary(r) for r in results] == serial
        executed = sum(
            histogram["count"]
            for name, histogram in snapshot["histograms"].items()
            if name.startswith("engine.execute_seconds.")
        )
        assert executed == len(regions)
        assert sorted(r.region for r in ledger.records) == sorted(
            region.name for region in regions
        )


class TestServerPath:
    def test_fast_cold_request_overtakes_a_slow_one(self):
        registry = {"sleepy": SleepyScheduler, "uas": UnifiedAssignAndSchedule}
        program = build_benchmark("vvmul")
        slow_body = _body(program, "vliw4", "sleepy")
        fast_body = _body(program, "vliw4", "uas")
        with ServerThread(ServeConfig(port=0, jobs=2), registry=registry) as thread:

            async def timed(body):
                status, _, payload = await http_request(
                    thread.host, thread.port, "POST", "/compile", body, 60.0
                )
                return status, payload["served"], time.monotonic()

            async def race():
                slow = asyncio.ensure_future(timed(slow_body))
                await asyncio.sleep(0.3)
                fast = await timed(fast_body)
                return await slow, fast

            (slow_status, slow_served, slow_done), (
                fast_status, fast_served, fast_done
            ) = asyncio.run(race())
        assert slow_status == fast_status == 200
        assert slow_served == fast_served == "compile"
        assert fast_done < slow_done

    def test_cold_request_fingerprints_each_region_once(self, monkeypatch):
        import repro.engine.pool as pool
        import repro.serve.wire as wire

        fingerprinted = []
        real_key = wire.schedule_key

        def counting_key(region, *args, **kwargs):
            fingerprinted.append(region.name)
            return real_key(region, *args, **kwargs)

        monkeypatch.setattr(wire, "schedule_key", counting_key)
        monkeypatch.setattr(pool, "schedule_key", counting_key)
        program = Program("pair", [_region("fp_a"), _region("fp_b", n=7)])
        with ServerThread(ServeConfig(port=0, jobs=1)) as thread:
            status, _, payload = asyncio.run(
                http_request(
                    thread.host, thread.port, "POST", "/compile",
                    _body(program, "vliw4", "convergent"), 60.0,
                )
            )
        assert status == 200
        assert payload["served"] == "compile"
        assert payload["cache"] == {"hits": 0, "misses": 2}
        assert sorted(fingerprinted) == ["fp_a", "fp_b"]


def _children(pid):
    """Live (non-zombie) child processes of ``pid``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            kids.append(int(entry))
    return kids


def _alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_sigterm_stops_serve_and_its_pool_workers():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--jobs", "2", "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    kids = []
    try:
        line = proc.stdout.readline().decode()
        assert "listening on http://" in line, line
        host_port = line.split("http://")[1].split(" ")[0]
        host, port = host_port.rsplit(":", 1)
        status, _, payload = asyncio.run(
            http_request(
                host, int(port), "POST", "/compile",
                _body(build_benchmark("vvmul"), "vliw4", "uas"), 60.0,
            )
        )
        assert status == 200 and payload["served"] == "compile"
        kids = _children(proc.pid)
        assert kids, "the cold compile should have started pool workers"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30.0) == 0
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in kids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in kids if _alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in kids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
