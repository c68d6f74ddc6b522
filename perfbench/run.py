"""Pipeline benchmark for besselcmc.

    python3 perfbench/run.py --workload {surface,verify,generate} \\
        --seed N --seconds S --trace {0,1}

Load: a closed loop with one client.  One process runs operations back to
back under the shipped thread defaults (BESSELCMC_MAX_WORKERS unset, so one
factorization worker; OpenBLAS at its default thread count) and stops
starting new ones once the next would end after S seconds (at least two
operations, or one traced pair).  The seed only picks the start of the
sequence r_k = lo + (hi - lo) frac(u + k / golden ratio) in the workload's
interval, so any number of operations covers the interval evenly; the
program receives plain r values.  Each operation's output is checked
against the acceptance-suite bounds (workloads.py); a failed check counts
in `failed`.

--trace 0 measures with nothing wrapped and reports the end-to-end metrics.
--trace 1 runs every r twice, untraced and then traced, and
reports the per-layer metrics (spans.py): times are medians over the traced
operations, counts are those of the first one, so they repeat exactly for
a given seed.

Output: an `env` line (machine, numpy/BLAS, thread variables), one
`metric <name> <value> <unit>` line per metric, and last one JSON object
{"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spans import LAYER, Tracer, installed, layer_times  # noqa: E402

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SETUP_RUNS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BESSELCMC_MAX_WORKERS")

# Metrics that go into the result line, with their units.  The other
# end-to-end metrics are printed only: fail_ratio is 0 when all is well
# (failures count in `failed` instead), nodes_per_s / checks_per_s and
# H_spread exist on some workloads only, and residual_margin_log10 varies
# with the drawn r by about 18% between seeds (roundoff in unitarity_max),
# too much for a bound; the per-op gates enforce the acceptance bounds.
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "iwasawa.self_s": "s", "iwasawa.ms_per_node": "ms", "iwasawa.nodes": "count",
    "iwasawa.factor_calls": "count", "iwasawa.section_rows": "count",
    "iwasawa.retry_nodes": "count", "iwasawa.useful_ratio": "ratio",
    "iwasawa.gflop_computed": "Gflop", "iwasawa.gflops_computed": "Gflop/s",
    "iwasawa.section_mb_computed": "MB",
    "flow.self_s": "s", "flow.rk_segments": "count", "flow.rhs_evals": "count",
    "flow.rhs_members": "count", "flow.us_per_rhs": "us",
    "bessel.self_s": "s", "bessel.rhs_evals": "count",
    "potentials.basepoint_s": "s",
    "surface.sym_s": "s", "surface.mesh_s": "s", "surface.reference_s": "s",
    "surface.symmetry_s": "s",
    "cli.export_s": "s", "cli.export_bytes": "B",
    "trace.overhead_s": "s",
}
# Work counters come from the first traced operation, which the seed fixes;
# times and rates are medians over all traced operations.
FIRST_OP = {name for name, unit in PER_LAYER.items()
            if unit not in ("s", "ms", "us", "Gflop/s")}


@dataclass
class Op:
    r: float
    seconds: float
    traced: bool
    result: object        # workloads.OpResult, or None when the call raised
    failures: list


def r_sequence(interval, seed: int, repeat_first: bool):
    lo, hi = interval
    u = random.Random(seed).random()

    def r_at(k: int) -> float:
        if repeat_first:
            k = max(k - 1, 0)
        return lo + (hi - lo) * ((u + k * GOLDEN) % 1.0)
    return r_at


def environment() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, **{k: os.environ.get(k) for k in THREAD_VARS}}


def measure_setup(workload: str, r: float) -> float:
    """Median wall time of a fresh process that imports besselcmc and runs
    one tiny operation.  One untimed probe first compiles bytecode and fills
    the file cache, which a user pays once, not on every run."""
    cmd = [sys.executable, str(HERE / "warmup.py"), workload, repr(r)]
    samples = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        if i:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _run_op(wl, r: float, tiny: bool, scratch: Path, tracer, seen: dict) -> Op:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = wl.call(r, tiny, scratch)
        else:
            with installed(tracer), tracer.span(f"op.{wl.name}"):
                raw = wl.call(r, tiny, scratch)
        seconds = time.perf_counter() - t0
        res = wl.check(raw)
    except Exception as exc:  # a failed operation is counted; the run goes on
        return Op(r, time.perf_counter() - t0, tracer is not None, None,
                  [f"{type(exc).__name__}: {exc}"])
    failures = list(res.failures)
    if res.digest is not None and seen.setdefault(r, res.digest) != res.digest:
        failures.append("export differs from an earlier operation with the same r")
    return Op(r, seconds, tracer is not None, res, failures)


def run_ops(wl, seed: int, seconds: float, tracer: Tracer | None, tiny: bool) -> list[Op]:
    r_at = r_sequence(wl.interval, seed, wl.repeat_first)
    ops: list[Op] = []
    seen: dict = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp, \
            warnings.catch_warnings():
        # the Sym-defect warning duplicates a gate the check applies anyway
        warnings.simplefilter("ignore")
        scratch = Path(tmp)
        wl.call(r_at(0), True, scratch)      # warm-up: lazy set-up and caches
        start = time.perf_counter()
        k = 0
        while True:
            t0 = time.perf_counter()
            if tracer is None:
                ops.append(_run_op(wl, r_at(k), tiny, scratch, None, seen))
            else:
                # alternate which half of the pair runs first, so neither
                # side of trace.overhead_s always pays for the first call
                tracer.op = k
                pair = [_run_op(wl, r_at(k), tiny, scratch, t, seen)
                        for t in ((None, tracer) if k % 2 == 0 else (tracer, None))]
                ops += sorted(pair, key=lambda op: op.traced)
            k += 1
            now = time.perf_counter()
            if k >= (1 if tracer else 2) and (now - start) + (now - t0) > seconds:
                return ops


def end_to_end(wl, ops: list[Op], setup_s: float) -> dict:
    done = [op for op in ops if op.result is not None]
    busy = sum(op.seconds for op in done)
    work = sum(op.result.work for op in done)
    margin = statistics.median(op.result.margin for op in done) if done else math.inf
    failed = sum(1 for op in ops if op.failures)
    metrics = {
        "op_s": (statistics.median(op.seconds for op in ops), "s"),
        f"{wl.work_unit}_per_s": (work / busy if busy else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_ratio": (failed / len(ops), "ratio"),
        "residual_margin_log10": (margin, "log10"),
    }
    spreads = [op.result.h_spread for op in done if op.result.h_spread is not None]
    if spreads:
        metrics["H_spread"] = (statistics.median(spreads), "ratio")
    return metrics


def _op_layers(spans) -> dict:
    """Per-layer metrics of one traced operation."""
    total, own = layer_times(spans)
    self_s: dict = {}
    for name, t in own.items():
        layer = LAYER.get(name, "op")
        self_s[layer] = self_s.get(layer, 0.0) + t

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    batches = [s.counts["batch"] for s in spans if s.name == "iwasawa.factor_samples"]
    nsec = max((s.counts["nsec"] for s in spans if s.name == "iwasawa.factor_samples"),
               default=0)
    order = 2 * nsec                       # Hermitian section is 2 nsec square
    first_pass = count("surface.iwasawa_grid", "nodes")
    nodes = first_pass - count("surface.iwasawa_grid", "failed")
    gflop = sum(batches) * 4 * order**3 / 3 / 1e9
    iw_s = self_s.get("iwasawa", 0.0)
    rhs = count("flow._rk_segment", "rhs_evals")
    return {
        "iwasawa.self_s": iw_s,
        "iwasawa.ms_per_node": 1e3 * iw_s / nodes if nodes else 0.0,
        "iwasawa.nodes": nodes,
        "iwasawa.factor_calls": len(batches),
        "iwasawa.section_rows": nsec,
        "iwasawa.retry_nodes": sum(batches) - first_pass,
        "iwasawa.useful_ratio": nodes / sum(batches) if batches else 1.0,
        "iwasawa.gflop_computed": gflop,
        "iwasawa.gflops_computed": gflop / iw_s if iw_s else 0.0,
        "iwasawa.section_mb_computed": max(batches, default=0) * order**2 * 16 / 1e6,
        "flow.self_s": self_s.get("flow", 0.0),
        "flow.rk_segments": sum(1 for s in spans if s.name == "flow._rk_segment"),
        "flow.rhs_evals": rhs,
        "flow.rhs_members": count("flow._rk_segment", "rhs_members"),
        "flow.us_per_rhs": 1e6 * self_s.get("flow", 0.0) / rhs if rhs else 0.0,
        "bessel.self_s": self_s.get("bessel", 0.0),
        "bessel.rhs_evals": count("bessel._rk_segment", "rhs_evals"),
        "potentials.basepoint_s": (total.get("surface.cylinder_basepoint_frame", 0.0)
                                   + total.get("cli.cylinder_basepoint_frame", 0.0)),
        "surface.sym_s": total.get("surface._sym_points", 0.0),
        "surface.mesh_s": total.get("surface.mesh_from_grid", 0.0),
        "surface.reference_s": own.get("cli.delaunay_reference", 0.0),
        "surface.symmetry_s": total.get("cli.reflection_symmetry_check", 0.0),
        "cli.export_s": total.get("cli.export_mesh", 0.0),
        "cli.export_bytes": count("cli.export_mesh", "bytes"),
    }


def per_layer(ops: list[Op], tracer: Tracer) -> dict:
    per_op = [_op_layers(tracer.op_spans(k)) for k in range(len(ops) // 2)]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = statistics.median(t.seconds - u.seconds
                                      for u, t in zip(ops[::2], ops[1::2]))
        elif name in FIRST_OP:
            value = per_op[0][name]
        else:
            value = statistics.median(m[name] for m in per_op)
        metrics[name] = (value, unit)
    return metrics


def main(argv=None, tiny: bool = False) -> int:
    """Run one workload and print its result.  tiny=True swaps in the tiny
    grids, for the smoke test."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("surface", "verify", "generate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "besselcmc" / "__init__.py").is_file():
        print(f"run.py: no besselcmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    setup_s = 0.0
    if tracer is None:
        setup_s = measure_setup(wl.name, r_sequence(wl.interval, args.seed, False)(0))
    ops = run_ops(wl, args.seed, args.seconds, tracer, tiny)

    print("env", json.dumps(environment(), sort_keys=True))
    failed = [op for op in ops if op.failures]
    print(f"run workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(ops)} failed={len(failed)} "
          f"(times are medians over the ops)")
    for op in ops:
        print(f"op r={op.r!r} traced={int(op.traced)} seconds={op.seconds:.4f} "
              + ("FAILED " + "; ".join(op.failures) if op.failures else "ok"))
    if tracer is None:
        metrics = end_to_end(wl, ops, setup_s)
        reported = END_TO_END
    else:
        metrics = per_layer(ops, tracer)
        reported = PER_LAYER
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
