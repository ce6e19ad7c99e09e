"""The repository benchmark: one command per workload, outputs checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``suite`` — the 16 paper-suite programs compiled in-process;
* ``scale`` — Fig-10 layered graphs of 800 and 1600 instructions;
* ``serve_mix`` — an open-loop request mix against ``repro serve``.

``--trace 0`` measures the program untouched and reports the
end-to-end metrics; ``--trace 1`` is a separate run with span wrappers
installed that reports the per-layer metrics.  The human-readable
report comes first; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each workload
runs in a fresh child process, so its peak memory is its own.  The
exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchlib import (geomean, growth_per_doubling, normalized_times, percentile,
                      reference_seconds, supports)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("suite", "scale", "serve_mix")

#: Set-up samples per untraced compile run; ``setup_s`` is the median.
SETUPS = 5
#: A run whose children are not done after this is killed and fails.
RUN_TIMEOUT_S = 170.0
#: Latency counted for a failed compile: it missed every limit.
FAILED_LATENCY_MS = RUN_TIMEOUT_S * 1000.0

#: Passes the default raw4x4 and vliw4 sequences run.
PASSES = ("INITTIME", "NOISE", "PLACE", "PLACEPROP", "LOAD", "PATH",
          "PATHPROP", "LEVEL", "COMM", "EMPHCP")

#: Per-layer metric -> span name whose self time it reports.
SPAN_METRICS = {
    "schedulers.feasible_clusters_s": "schedulers.feasible_clusters",
    "core.kernels.region_index_s": "core.kernels.region_index",
    **{f"core.passes.{name}_s": f"core.passes.{name}" for name in PASSES},
    "core.guard_s": "core.guard",
    "core.weights.normalize_s": "core.weights.normalize",
    "core.weights.checkpoint_s": "core.weights.checkpoint",
    "core.extract_s": "core.extract",
    "schedulers.list_schedule_s": "schedulers.list_schedule",
    "sim.simulate_s": "sim.simulate",
    "verify.verify_s": "verify.verify",
}

#: Serve-path span times; zero on the compile workloads, so they are
#: printed but kept out of the JSON result.
SERVE_SPAN_METRICS = {
    "serve.parse_s": "serve.parse",
    "engine.fingerprint_s": "engine.fingerprint",
    "engine.cache_get_s": "engine.cache_get",
    "engine.cache_put_s": "engine.cache_put",
}

#: Serve-path counts and shares reported in the JSON on every workload
#: (zero where no server runs).
SERVE_COUNT_METRICS = {
    "serve.parse_hits": "count",
    "serve.parse_misses": "count",
    "serve.responses": "count",
    "serve.cache_served_share": "share",
    "engine.cache_lookups": "count",
    "engine.cache_hit_rate": "share",
    "serve.batch_size_mean": "count",
    "serve.queue_depth_p90": "count",
}

Metrics = Dict[str, Tuple[float, str]]


class ChildFailed(RuntimeError):
    """A workload process crashed, timed out or printed no result."""


def _env() -> Dict[str, str]:
    """Child environment: the checkout's sources first on the path."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")


def run_child(cmd: List[str], deadline: float) -> Tuple[float, Dict]:
    """Run one child until ``deadline`` (a ``perf_counter`` time).

    The child leads its own process group, so a timeout kills it and
    every process it started.

    Returns:
        Seconds until it printed ``READY`` (or ended), and the JSON
        object on its last line (empty when there is none).
    """
    started = time.perf_counter()
    ready_at = None
    chunks: List[bytes] = []
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise ChildFailed(f"{Path(cmd[1]).name} ran out of time")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if ready_at is None and b"READY\n" in b"".join(chunks[:2]):
                ready_at = time.perf_counter() - started
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{Path(cmd[1]).name} exited with {proc.returncode}")
    if ready_at is None:
        ready_at = time.perf_counter() - started
    last = b"".join(chunks).decode().rstrip("\n").rsplit("\n", 1)[-1]
    return ready_at, json.loads(last) if last.startswith("{") else {}


def compile_run(workload: str, seed: int, seconds: float, trace: bool,
                deadline: float) -> Dict:
    """Set up and run one compile workload; return the child's report
    with ``setups`` and ``setup_walls`` (seconds) added.

    An untraced run times :data:`SETUPS` set-up-only children, each
    between two runs of the reference kernel, and normalises them like
    the compiles.  A traced run keeps only the wall set-up of its one
    child.
    """
    base = [sys.executable, str(HERE / "compile_child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out-dir", str(OUT_DIR)]
    walls: List[float] = []
    reference_seconds()  # warm-up
    refs = [reference_seconds()]
    for _ in range(0 if trace else SETUPS):
        walls.append(run_child(base + ["--setup-only"], deadline)[0])
        refs.append(reference_seconds())
    ready, report = run_child(base, deadline)
    if "ops" not in report:
        raise ChildFailed(f"{workload} printed no report")
    report["setups"] = normalized_times(walls, refs) if walls else [ready]
    report["setup_walls"] = walls or [ready]
    return report


def compile_metrics(report: Dict) -> Tuple[Metrics, Metrics]:
    """(End-to-end metrics, printed-only wall-clock figures) of the
    untraced passes of a compile run.

    Compile times are normalised: each wall time is divided by the
    host's speed around it, as the reference kernel measured it (see
    ``benchlib.normalized_times``).  On a shared host whose speed
    swings by up to 1.8x within minutes, that cut the run-to-run spread
    of ``suite`` throughput fourfold and of its p50 by half, and left
    ``scale``'s as it was.  The wall-clock figures are printed beside
    them.  Each program's time is the median of its repetitions; the
    fastest repetition moved two to three times as much between runs.
    A program that failed on any repetition counts as
    :data:`FAILED_LATENCY_MS`.  The latency percentiles are
    taken over the programs.  Peak RSS is the largest program's, as the
    median over its repetitions.
    """
    ops = [op for op in report["ops"] if not op["traced"]]
    ok = [op for op in ops if not op["error"]]
    by_program: Dict[str, List[Dict]] = {}
    for op in ops:
        by_program.setdefault(op["label"], []).append(op)
    ok_instr = sum(op["n"] for op in ok) / sum(op["n"] for op in ops)

    def timing(key: str) -> Tuple[float, List[float], List[Tuple[int, float]]]:
        """(instr/s, per-program latencies in ms, (size, seconds) points)
        from the per-op times under ``key``."""
        typical = [(runs[0]["n"], FAILED_LATENCY_MS / 1000.0 if any(op["error"] for op in runs)
                    else statistics.median(op[key] for op in runs))
                   for runs in by_program.values()]
        rate = ok_instr * sum(n for n, _ in typical) / sum(t for _, t in typical)
        return rate, [t * 1000.0 for _, t in typical], typical

    rate, latencies, typical = timing("norm")
    sizes = {n for n, _ in typical}
    metrics: Metrics = {
        "setup_s": (statistics.median(report["setups"]), "s"),
        "instr_per_s": (rate, "instr/s"),
        "cycles_geomean": (geomean(op["cycles"] for op in ok) if ok else 0.0, "cycles"),
        "growth_per_doubling": (growth_per_doubling(typical) if len(sizes) > 1 else 0.0, "x"),
        "peak_rss_mb": (max(statistics.median(op["peak_kb"] for op in runs)
                            for runs in by_program.values()) / 1024.0, "MB"),
        "latency_p50_ms": (percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9), "ms"),
        "ok_share": (len(ok) / len(ops), "share"),
    }
    wall_rate, wall_latencies, _ = timing("wall")
    wall: Metrics = {
        "wall.setup_s": (statistics.median(report["setup_walls"]), "s"),
        "wall.instr_per_s": (wall_rate, "instr/s"),
        "wall.latency_p50_ms": (percentile(wall_latencies, 0.5), "ms"),
        "wall.latency_p90_ms": (percentile(wall_latencies, 0.9), "ms"),
        "reference_ms": (statistics.median(op["ref"] for op in ops) * 1000.0, "ms"),
    }
    return metrics, wall


def compile_layers(report: Dict) -> Tuple[Metrics, Metrics]:
    """(JSON per-layer metrics, printed-only extras) of a traced compile
    run; times are seconds per traced pass."""
    layers = report["layers"]
    per_pass = layers["per_pass"]
    counters = layers["counters"]
    metrics: Metrics = {
        "machine.can_execute_calls": (counters["can_execute_calls"], "count"),
        **{name: (per_pass.get(span, 0.0), "s") for name, span in SPAN_METRICS.items()},
        "core.weights.matrix_mb": (counters["matrix_max_bytes"] / 2**20, "MB"),
        "core.weights.occupied_share": (
            counters["matrix_nonzero"] / counters["matrix_cells"], "share"),
        "residual_s": (per_pass.get("op", 0.0) + per_pass.get("core.schedule", 0.0), "s"),
        "trace_overhead": (layers["overhead"], "x"),
        **{name: (0.0, unit) for name, unit in SERVE_COUNT_METRICS.items()},
    }
    extras: Metrics = {
        **{name: (per_pass.get(span, 0.0), "s") for name, span in SERVE_SPAN_METRICS.items()},
        "traced_wall_s": (layers["traced_wall"], "s"),
        "residual_share": (metrics["residual_s"][0] / layers["traced_wall"], "share"),
        "feasibility_and_index_share": (
            (per_pass.get("schedulers.feasible_clusters", 0.0)
             + per_pass.get("core.kernels.region_index", 0.0)) / layers["traced_wall"],
            "share"),
    }
    for machine, row in sorted(layers["by_machine"].items()):
        for name in PASSES:
            extras[f"{machine}.core.passes.{name}_s"] = (row.get(f"core.passes.{name}", 0.0), "s")
    return metrics, extras


def serve_run(seed: int, seconds: float, trace: bool, deadline: float) -> Dict:
    """Run the serve_mix generator process and return its report."""
    _, report = run_child([sys.executable, str(HERE / "serve_child.py"), "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(int(trace)),
                           "--out-dir", str(OUT_DIR)], deadline)
    if "e2e" not in report:
        raise ChildFailed("serve_mix printed no report")
    return report


def serve_layers(report: Dict) -> Tuple[Metrics, Metrics]:
    """(JSON per-layer metrics, printed-only extras) of a traced
    serve_mix run; span times are totals over the measured window."""
    layers = dict(report["layers"])
    trace = layers.pop("trace")
    times, counters = trace["times"], trace["counters"]
    metrics: Metrics = {
        "machine.can_execute_calls": (counters.get("can_execute_calls", 0), "count"),
        **{name: (times.get(span, 0.0), "s") for name, span in SPAN_METRICS.items()},
        "core.weights.matrix_mb": (counters.get("matrix_max_bytes", 0) / 2**20, "MB"),
        "core.weights.occupied_share": (
            counters.get("matrix_nonzero", 0) / max(1, counters.get("matrix_cells", 0)),
            "share"),
        "residual_s": (times.get("core.schedule", 0.0), "s"),
        "trace_overhead": (trace["overhead"], "x"),
        **{name: (layers[name][0], unit) for name, unit in SERVE_COUNT_METRICS.items()},
    }
    extras: Metrics = {
        **{name: (times.get(span, 0.0), "s") for name, span in SERVE_SPAN_METRICS.items()},
        **{name: tuple(value) for name, value in layers.items()
           if name not in SERVE_COUNT_METRICS},
    }
    return metrics, extras


def render(title: str, metrics: Metrics) -> str:
    """A two-column table of ``name value unit`` rows."""
    rows = [f"{title}:"]
    rows += [f"  {name:<44} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    return "\n".join(rows)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        if args.workload == "serve_mix":
            report = serve_run(args.seed, args.seconds, trace, deadline)
            attempted, failed = report["attempted"], report["failed"]
            problems = report["problems"]
            e2e = {name: tuple(value) for name, value in report["e2e"].items()}
            wall = {name: tuple(value) for name, value in report["wall"].items()}
            if not trace and not supports(report["n_latency"], 0.9):
                print(f"note: {report['n_latency']} requests are too few for a p90")
            layers, extras = serve_layers(report) if trace else ({}, {})
        else:
            report = compile_run(args.workload, args.seed, args.seconds, trace, deadline)
            e2e, wall = compile_metrics(report)
            problems = [f"{op['label']}: {op['error']}" for op in report["ops"] if op["error"]]
            attempted, failed = len(report["ops"]), len(problems)
            layers, extras = compile_layers(report) if trace else ({}, {})
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {int(trace)}: "
          f"{attempted} operations, {failed} failed, failed_share {failed / attempted:.6g}")
    for problem in problems:
        print(f"  problem: {problem}")
    if trace:
        print(render("per-layer", layers))
        print(render("per-layer, not in the result line", extras))
    else:
        print(render("end-to-end", e2e))
        if wall:
            print(render("wall clock, not in the result line", wall))
    result = layers if trace else e2e
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
