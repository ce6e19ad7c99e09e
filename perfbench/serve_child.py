"""The ``serve_mix`` workload: an open-loop generator against ``repro serve``.

Run by ``run.py``, never by hand::

    python perfbench/serve_child.py --seed 1 --seconds 30 --trace 0 \\
        --out-dir .perfbench

This process is the one load generator.  It starts ``repro serve --jobs
2`` as its own process on an ephemeral port (three times when untraced,
to time set-up), warms the 16 suite requests, then sends the seeded
plan open-loop: requests are due every ``1/RATE`` seconds whatever the
server does, at most :data:`CONNECTIONS` keep-alive connections carry
them, and each is timed from when it was due.  About 70% repeat a warm
request; the rest carry a fresh scheduler seed, so their fingerprint is
new and the server compiles them.

Every request asks for ``check_values`` and ``verify``.  Every answer is
checked (see :class:`benchlib.ResponseChecker`), and the cycles of the
16 warm requests and of a seeded sample of cold ones are compared with
a direct ``run_program``.  A 429, a 5xx, a transport error or a wrong
answer is a failure, and its latency counts as the client timeout.

The server's peak memory (``VmHWM``) is read before it is stopped with
SIGINT; a child process of the server that outlives it fails the run.
The last line of output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from benchlib import (
    PROBE_ITERATIONS,
    PROBE_S,
    SUITE_CELLS,
    PlannedRequest,
    ResponseChecker,
    cold_sample,
    geomean,
    growth_per_doubling,
    hist_delta,
    interpreter_seconds,
    percentile,
    self_time_by_name,
    serve_plan,
    warm_requests,
)

#: Requests per second; below saturation on a 2-core machine.  At 6 per
#: second two cold compiles often overlapped, and then warm answers
#: waited for a core, so the median latency jumped with the host's speed.
RATE = 4.0
#: Most keep-alive connections the generator opens at once.
CONNECTIONS = 2
#: Client timeout; a failed request's latency counts as this.
TIMEOUT_S = 20.0
#: Server starts per untraced run; ``setup_s`` is their median.
BOOTS = 3
#: Cold requests re-compiled directly to check their cycles.
COLD_CHECKS = 6
#: Seconds between host-speed probes during the window.
PROBE_EVERY_S = 0.1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Outcome:
    """What happened to one planned request (``perf_counter`` times)."""

    due: float
    issued: float
    sent: float
    done: float
    status: int
    payload: Optional[Dict[str, Any]]
    error: Optional[str]


async def open_loop(
    dues: Sequence[float],
    send: Callable[[int, int], Awaitable[Tuple[int, Dict[str, Any]]]],
    connections: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> List[Outcome]:
    """Issue request ``i`` at ``dues[i]`` seconds after start, whatever
    earlier requests are doing, on at most ``connections`` connections.

    Args:
        dues: Due offsets, non-decreasing.
        send: ``send(connection, i)`` performs request ``i`` and returns
            ``(status, payload)``; a transport failure raises.
        connections: Connection slots.
        clock: Time source.
        sleep: Sleeps on ``clock``'s scale.
    """
    idle: asyncio.Queue = asyncio.Queue()
    for slot in range(connections):
        idle.put_nowait(slot)
    outcomes: List[Optional[Outcome]] = [None] * len(dues)

    async def one(i: int, due: float) -> None:
        issued = clock()
        slot = await idle.get()
        sent = clock()
        status, payload, error = 0, None, None
        try:
            status, payload = await send(slot, i)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            idle.put_nowait(slot)
        outcomes[i] = Outcome(due, issued, sent, clock(), status, payload, error)

    start = clock()
    tasks = []
    loop = asyncio.get_running_loop()
    for i, due in enumerate(dues):
        wait = start + due - clock()
        if wait > 0:
            await sleep(wait)
        tasks.append(loop.create_task(one(i, start + due)))
    await asyncio.gather(*tasks)
    return [o for o in outcomes if o is not None]


def latencies_ms(outcomes: Sequence[Outcome], failed: Sequence[bool]) -> List[float]:
    """Latency of each request from when it was due; a failure counts as
    the client timeout."""
    return [TIMEOUT_S * 1000.0 if bad else (o.done - o.due) * 1000.0
            for o, bad in zip(outcomes, failed)]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


def _get(port: int, path: str) -> Tuple[int, Dict[str, Any]]:
    """One blocking GET against the server."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process, from start to a checked stop."""

    def __init__(self, cmd: List[str], log_path: Path) -> None:
        self.cmd = cmd
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.boot_s = 0.0

    def start(self) -> "Server":
        """Start the process; return once ``/healthz`` answers."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(self.cmd, cwd=ROOT, env=env,
                                         stdout=subprocess.PIPE, stderr=log)
        deadline = started + 60.0
        line = b""
        while b"listening on" not in line:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.perf_counter()))
            line = self.proc.stdout.readline() if ready else b""
            if not ready or (not line and self.proc.poll() is not None):
                self.stop()
                raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split(b"http://")[1].split(b" ")[0].rsplit(b":", 1)[1])
        while _get(self.port, "/healthz")[0] != 200:
            time.sleep(0.01)
        self.boot_s = time.perf_counter() - started
        return self

    def children(self) -> List[int]:
        """Live child processes of the server."""
        kids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid and fields[0] != "Z":
                kids.append(int(entry))
        return kids

    def vmhwm_kb(self) -> int:
        """Peak resident memory of the server process so far."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[str]:
        """SIGINT the server, wait, and check that no child survives.

        Returns:
            ``None`` when it stopped cleanly, else what went wrong.
        """
        if self.proc is None or self.proc.poll() is not None:
            return None
        kids = self.children()
        self.proc.send_signal(signal.SIGINT)
        problem = None
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            problem = "server ignored SIGINT for 30 s"
        self.proc.stdout.close()
        deadline = time.perf_counter() + 5.0
        survivors = kids
        while survivors and time.perf_counter() < deadline:
            survivors = [pid for pid in survivors if _alive(pid)]
            time.sleep(0.05)
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        if survivors:
            problem = f"server children survived SIGINT: {survivors}"
        return problem


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


class Requests:
    """Programs, request bodies and instruction counts, per key."""

    def __init__(self) -> None:
        from repro.machine import machine_from_spec
        from repro.workloads.suite import build_benchmark

        self.machines = {spec: machine_from_spec(spec) for spec in ("raw4x4", "vliw4")}
        self.programs = [build_benchmark(bench, self.machines[spec])
                         for spec, bench in SUITE_CELLS]
        self.n_instr = [sum(len(r.ddg) for r in p.regions) for p in self.programs]
        self._bodies: Dict[Tuple[int, int], bytes] = {}

    def body(self, request: PlannedRequest) -> bytes:
        """The encoded ``POST /compile`` body (built once per key)."""
        from repro.serve.wire import compile_request

        body = self._bodies.get(request.key)
        if body is None:
            spec = SUITE_CELLS[request.cell][0]
            doc = compile_request(self.programs[request.cell], spec, "convergent",
                                  seed=request.sched_seed, check_values=True,
                                  verify=True)
            body = self._bodies[request.key] = json.dumps(doc).encode()
        return body

    def direct(self, request: PlannedRequest) -> Tuple[int, float]:
        """Cycles and compile seconds of an in-process ``run_program``."""
        from repro.core.convergent import ConvergentScheduler
        from repro.harness.experiment import run_program

        spec = SUITE_CELLS[request.cell][0]
        result = run_program(self.programs[request.cell], self.machines[spec],
                             ConvergentScheduler(seed=request.sched_seed),
                             check_values=True, verify=True)
        if result.status != "ok":
            raise RuntimeError(f"direct compile failed: {result.error}")
        return result.cycles, result.compile_seconds


async def send_all(port: int, requests: Requests, plan: Sequence[PlannedRequest],
                   probes: Optional[List[float]] = None) -> List[Outcome]:
    """Drive ``plan`` open-loop against the server on ``port``.

    With ``probes`` given, a task on the same event loop times
    :func:`benchlib.interpreter_seconds` every :data:`PROBE_EVERY_S`
    and appends the times to it.  A probe holds the loop for about
    2 ms, so it can delay one send or answer by that much.
    """
    from repro.serve.loadtest import HttpClient

    clients = [HttpClient("127.0.0.1", port, timeout_s=TIMEOUT_S)
               for _ in range(CONNECTIONS)]
    bodies = [requests.body(r) for r in plan]

    async def send(slot: int, i: int) -> Tuple[int, Dict[str, Any]]:
        try:
            status, _headers, payload = await clients[slot].request(
                "POST", "/compile", bodies[i])
        except BaseException:
            # The connection may hold a late answer: never reuse it.
            await clients[slot].close()
            clients[slot] = HttpClient("127.0.0.1", port, timeout_s=TIMEOUT_S)
            raise
        return status, payload

    async def probe() -> None:
        while True:
            probes.append(interpreter_seconds(PROBE_ITERATIONS))
            await asyncio.sleep(PROBE_EVERY_S)

    prober = asyncio.create_task(probe()) if probes is not None else None
    try:
        return await open_loop([r.due for r in plan], send, CONNECTIONS)
    finally:
        if prober is not None:
            prober.cancel()
        for client in clients:
            await client.close()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _counter(snapshot: Dict, section: str, name: str) -> int:
    """A counter from a ``/metrics`` payload section."""
    return int(snapshot.get(section, {}).get("counters", {}).get(name, 0))


def _hist(before: Dict, after: Dict, section: str, name: str):
    """The window's observations of one ``/metrics`` histogram."""
    from repro.observability.metrics import QuantileHistogram

    grab = lambda snap: snap.get(section, {}).get("histograms", {}).get(name)  # noqa: E731
    return QuantileHistogram.from_dict(hist_delta(grab(before), grab(after)))


def server_layers(before: Dict, after: Dict) -> Dict[str, Tuple[float, str]]:
    """Queue, batch, parse and schedule-cache numbers for the window."""
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    batch = _hist(before, after, "serve", "serve.batch_size")
    depth = _hist(before, after, "serve", "serve.queue_depth")
    wait = _hist(before, after, "engine", "engine.queue_wait_seconds.ok")
    execute = _hist(before, after, "engine", "engine.execute_seconds.ok")
    parse = {name: _counter(after, "serve", name) - _counter(before, "serve", name)
             for name in ("serve.parse_hits", "serve.parse_misses")}
    return {
        "serve.parse_hits": (parse["serve.parse_hits"], "count"),
        "serve.parse_misses": (parse["serve.parse_misses"], "count"),
        "engine.cache_lookups": (hits + misses, "count"),
        "engine.cache_hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "share"),
        "serve.batch_size_mean": (batch.mean if batch.count else 0.0, "count"),
        "serve.queue_depth_p90": (depth.p90 if depth.count else 0.0, "count"),
        "engine.queue_wait_p90_ms": (wait.p90 * 1000.0 if wait.count else 0.0, "ms"),
        "engine.execute_p50_ms": (execute.p50 * 1000.0 if execute.count else 0.0, "ms"),
        "engine.execute_p90_ms": (execute.p90 * 1000.0 if execute.count else 0.0, "ms"),
    }


def client_layers(outcomes: Sequence[Outcome], failed: Sequence[bool]) -> Dict[str, Tuple[float, str]]:
    """Latency by provenance, connection wait and generator lag."""
    by_served: Dict[str, List[float]] = {}
    for o, bad in zip(outcomes, failed):
        if not bad:
            by_served.setdefault(o.payload.get("served", "?"), []).append(
                (o.done - o.due) * 1000.0)
    cache = by_served.get("cache", [])
    compiled = by_served.get("compile", [])
    ok = sum(1 for bad in failed if not bad)
    pct = lambda xs, q: percentile(xs, q) if xs else 0.0  # noqa: E731
    return {
        "serve.responses": (ok, "count"),
        "serve.cache_served_share": (len(cache) / ok if ok else 0.0, "share"),
        "serve.latency_cache_p50_ms": (pct(cache, 0.5), "ms"),
        "serve.latency_compile_p50_ms": (pct(compiled, 0.5), "ms"),
        "serve.latency_compile_p90_ms": (pct(compiled, 0.9), "ms"),
        "loadgen.conn_wait_p90_ms": (pct([(o.sent - o.issued) * 1000.0 for o in outcomes], 0.9), "ms"),
        "loadgen.lag_p90_ms": (pct([(o.issued - o.due) * 1000.0 for o in outcomes], 0.9), "ms"),
    }


def span_layers(spans_dir: Path, since: float) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self time per span name since ``since``, over the server and its
    workers, and the summed counters."""
    from spans import load

    spans, counters = [], {}
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        got, counts = load(path)
        spans.extend(got)
        for key, value in counts.items():
            if key == "matrix_max_bytes":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return self_time_by_name(spans, since), counters


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    requests = Requests()
    warm = warm_requests(args.seed)
    plan = serve_plan(args.seed, args.seconds, RATE)
    for request in warm + plan:
        requests.body(request)
    spans_dir = args.out_dir / "serve-spans"
    if args.trace:
        spans_dir.mkdir(exist_ok=True)
        for old in spans_dir.glob("spans-*.jsonl"):
            old.unlink()
        cmd = [sys.executable, str(HERE / "serve_launcher.py"),
               "--spans-dir", str(spans_dir)]
    else:
        cmd = [sys.executable, "-m", "repro"]
    cmd += ["serve", "--jobs", "2", "--port", "0"]
    log = args.out_dir / "serve.log"

    problems: List[str] = []
    boots: List[float] = []
    for boot in range(1 if args.trace else BOOTS):
        server = Server(cmd, log).start()
        boots.append(server.boot_s)
        if boot < BOOTS - 1 and not args.trace:
            problems += filter(None, [server.stop()])
    try:
        warmed = asyncio.run(send_all(server.port, requests, warm))
        before = _get(server.port, "/metrics")[1]
        window_start = time.perf_counter()
        probes: List[float] = []
        outcomes = asyncio.run(send_all(server.port, requests, plan, probes))
        after = _get(server.port, "/metrics")[1]
        vmhwm_kb = server.vmhwm_kb()
    finally:
        problems += filter(None, [server.stop()])

    checker = ResponseChecker()
    for request, outcome in zip(warm, warmed):
        why = outcome.error or checker.check(request.key, outcome.status, outcome.payload or {})
        if why:
            problems.append(f"warm-up {request.key}: {why}")
    checked = warm + cold_sample(plan, args.seed, COLD_CHECKS)
    direct_seconds: Dict[Tuple[int, int], float] = {}
    for request in checked:
        try:
            checker.expected[request.key], direct_seconds[request.key] = requests.direct(request)
        except RuntimeError as exc:
            problems.append(f"direct compile of {request.key}: {exc}")
    wrong = set(checker.recheck())
    reasons = [o.error or checker.check(r.key, o.status, o.payload or {})
               or ("differs from direct compile" if r.key in wrong else None)
               for r, o in zip(plan, outcomes)]
    failed = [bool(why) for why in reasons]
    problems += [f"request {i} {plan[i].key}: {why}"
                 for i, why in enumerate(reasons) if why][:10]

    ok = [(r, o) for r, o, bad in zip(plan, outcomes, failed) if not bad]
    window = max(o.done for o in outcomes) - window_start
    lat = latencies_ms(outcomes, failed)
    # Latencies are normalised by the host's speed during the window, as
    # compile times are; a failure keeps the client timeout.
    host = statistics.median(probes)
    norm_lat = [ms if bad else ms * PROBE_S / host for ms, bad in zip(lat, failed)]
    # Growth fits each program's median server-side compile time, as the
    # compile workloads do; single cold compiles scatter too much.
    by_cell: Dict[int, List[float]] = {}
    for r, o in ok:
        if o.payload.get("served") == "compile":
            by_cell.setdefault(r.cell, []).append(o.payload["result"]["compile_seconds"])
    compiled = [(requests.n_instr[cell], statistics.median(times))
                for cell, times in by_cell.items()]
    cycles = {r.key: o.payload["result"]["cycles"] for r, o in ok}
    e2e = {
        "setup_s": (statistics.median(boots), "s"),
        "instr_per_s": (sum(requests.n_instr[r.cell] for r, _ in ok) / window, "instr/s"),
        "cycles_geomean": (geomean(cycles.values()) if cycles else 0.0, "cycles"),
        "growth_per_doubling": (growth_per_doubling(compiled) if len(compiled) > 1 else 0.0, "x"),
        "peak_rss_mb": (vmhwm_kb / 1024.0, "MB"),
        "latency_p50_ms": (percentile(norm_lat, 0.5), "ms"),
        "latency_p90_ms": (percentile(norm_lat, 0.9), "ms"),
        "ok_share": (len(ok) / len(plan), "share"),
    }
    layers = {**server_layers(before, after), **client_layers(outcomes, failed)}
    if args.trace:
        times, counters = span_layers(spans_dir, window_start)
        served = {r.key: o.payload["result"]["compile_seconds"] for r, o in ok
                  if o.payload.get("served") == "compile"}
        common = [k for k in direct_seconds if k in served]
        overhead = (sum(served[k] for k in common) / sum(direct_seconds[k] for k in common)
                    if common else 0.0)
        layers["trace"] = {"times": times, "counters": counters, "overhead": overhead}
    print(json.dumps({
        "attempted": len(plan), "failed": sum(failed), "problems": problems,
        "e2e": e2e, "layers": layers, "boots": boots, "n_latency": len(lat),
        "wall": {"wall.latency_p50_ms": (percentile(lat, 0.5), "ms"),
                 "wall.latency_p90_ms": (percentile(lat, 0.9), "ms"),
                 "probe_ms": (host * 1000.0, "ms")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
