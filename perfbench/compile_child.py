"""One compile workload (``suite`` or ``scale``) in a fresh process.

Run by ``run.py``, never by hand::

    python perfbench/compile_child.py --workload suite --seed 1 --seconds 30 \\
        --trace 0 --out-dir .perfbench

The process imports the program, builds the workload's inputs, prints
``READY`` (the parent times set-up up to that line), warms up, then
compiles passes over its programs until ``--seconds`` of wall time
have passed; the last pass stops early at that point.  Every program
goes through ``run_program(check_values=True, verify=True)``, so every
schedule is replayed by the simulator in strict mode with value checks
and passes ``verify_schedule``.  A fixed reference kernel runs before
every compile and once after the last, so each compile's wall time can
be divided by the host's speed around it.

With ``--trace 1`` it alternates whole untraced and traced passes over
the same inputs, so the traced run also yields the tracing
overhead, and reports per-layer times per traced pass.  The last line
of output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchlib import (
    SCALE_GRAPH_SEED,
    SCALE_MACHINES,
    SCALE_SIZES,
    SCALE_WIDTH,
    SUITE_CELLS,
    normalized_times,
    reference_seconds,
    self_times,
)


class Workload:
    """The machines and programs of one compile workload.

    Attributes:
        cells: ``(label, machine spec, program)`` compiled every pass.
        warm: Programs compiled once, untimed, before the first pass.
    """

    def __init__(self, name: str, seed: int) -> None:
        from repro.machine import machine_from_spec

        self.name = name
        self.seed = seed
        self.machines = {spec: machine_from_spec(spec)
                         for spec in ("raw4x4", "vliw4")}
        if name == "suite":
            from repro.workloads.suite import build_benchmark

            self.cells = [
                (f"{bench}@{spec}", spec, build_benchmark(bench, self.machines[spec]))
                for spec, bench in SUITE_CELLS
            ]
            self.warm = self.cells
        elif name == "scale":
            from repro.workloads.synthetic import layered_graph

            self.cells = [
                (f"layered{n}@{spec}", spec,
                 layered_graph(n, width=SCALE_WIDTH, seed=SCALE_GRAPH_SEED))
                for spec in SCALE_MACHINES
                for n in SCALE_SIZES
            ]
            self.warm = [(f"warm@{spec}", spec, layered_graph(200, width=SCALE_WIDTH))
                         for spec in SCALE_MACHINES]
        else:
            raise ValueError(f"unknown compile workload {name!r}")


def reset_peak_rss() -> None:
    """Return freed heap to the system, then restart the kernel's
    peak-RSS count at the current RSS.

    Without the trim, how much of the last compile's memory glibc still
    holds depends on allocation history, and the next peak with it.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        libc.malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the peak may then include retained memory
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        pass  # the peak then counts from the process start


def peak_rss_kb() -> int:
    """Peak RSS since the last reset (or since the process started)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def compile_one(workload: Workload, label: str, spec: str, program) -> Dict:
    """Compile and check one program; the op record for the parent."""
    from repro.core.convergent import ConvergentScheduler
    from repro.harness.experiment import run_program

    n_instr = sum(len(region.ddg) for region in program.regions)
    started = time.perf_counter()
    error: Optional[str] = None
    try:
        result = run_program(
            program, workload.machines[spec], ConvergentScheduler(seed=workload.seed),
            check_values=True, verify=True,
        )
    except Exception as exc:  # noqa: BLE001 - a crash is a failed op
        wall = time.perf_counter() - started
        return {"label": label, "machine": spec, "n": n_instr, "wall": wall,
                "cycles": 0, "error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - started
    if result.status != "ok":
        error = result.error or result.status
    elif not all(region.verified for region in result.regions):
        error = "region not verified"
    return {"label": label, "machine": spec, "n": n_instr, "wall": wall,
            "cycles": result.cycles, "error": error}


def run_pass(workload: Workload, recorder=None,
             deadline: float = float("inf")) -> List[Dict]:
    """Compile every program of one pass, optionally under ``recorder``;
    start no compile after ``deadline`` (a ``perf_counter`` time)."""
    ops = []
    for label, spec, program in workload.cells:
        if time.perf_counter() >= deadline:
            break
        ref = reference_seconds()
        # Free the last compile's cyclic garbage first, so the peak RSS
        # is one compile's, not a matter of when the collector last ran.
        gc.collect()
        reset_peak_rss()
        if recorder is None:
            op = compile_one(workload, label, spec, program)
        else:
            with recorder.op(label):
                op = compile_one(workload, label, spec, program)
        op["peak_kb"] = peak_rss_kb()
        op["traced"] = recorder is not None
        op["ref"] = ref
        ops.append(op)
    return ops


def check_repeats(ops: List[Dict]) -> None:
    """Fail an op whose cycles differ from an earlier op on the same
    program (same label); compiles are deterministic."""
    first: Dict[str, int] = {}
    for op in ops:
        if op["error"]:
            continue
        want = first.setdefault(op["label"], op["cycles"])
        if op["cycles"] != want:
            op["error"] = f"cycles {op['cycles']} != {want} on a repeat"


def layer_report(recorder, ops: List[Dict], n_traced: int) -> Dict:
    """Per-layer self times per traced pass, in total and by machine."""
    own = self_times(recorder.spans)
    machine_of = {op["label"]: op["machine"] for op in ops}
    per_pass: Dict[str, float] = {}
    by_machine: Dict[str, Dict[str, float]] = {}
    for span in recorder.spans:
        seconds = own[(span.pid, span.id)] / n_traced
        per_pass[span.name] = per_pass.get(span.name, 0.0) + seconds
        row = by_machine.setdefault(machine_of[span.rid], {})
        row[span.name] = row.get(span.name, 0.0) + seconds
    counters = recorder.counters()
    return {
        "per_pass": per_pass,
        "by_machine": by_machine,
        "traced_wall": sum(op["wall"] for op in ops if op["traced"]) / n_traced,
        "counters": {key: value / n_traced if key != "matrix_max_bytes" else value
                     for key, value in counters.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = Workload(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    for label, spec, program in workload.warm:
        compile_one(workload, label, spec, program)
    reference_seconds()
    # Exempt the set-up heap from collection, so the collection before
    # each compile costs little.
    gc.collect()
    gc.freeze()

    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
    ops: List[Dict] = []
    pairs: List[Tuple[float, float]] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not ops:
        # The first pass is always whole, so every program has a sample;
        # a traced run keeps whole passes to pair them.
        batch = run_pass(workload, deadline=deadline if ops and recorder is None
                         else float("inf"))
        if recorder is not None:
            recorder.install()
            try:
                traced = run_pass(workload, recorder)
            finally:
                recorder.uninstall()
            pairs.append((sum(op["wall"] for op in batch), sum(op["wall"] for op in traced)))
            batch += traced
        ops.extend(batch)
    refs = [op["ref"] for op in ops] + [reference_seconds()]
    for op, norm in zip(ops, normalized_times([op["wall"] for op in ops], refs)):
        op["norm"] = norm
    report = None
    if recorder is not None:
        report = layer_report(recorder, ops, len(pairs))
        report["overhead"] = sum(t for _, t in pairs) / sum(u for u, _ in pairs)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        recorder.dump(args.out_dir / f"spans-{args.workload}.jsonl")
    check_repeats(ops)
    print(json.dumps({"ops": ops, "layers": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
