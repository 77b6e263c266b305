#!/usr/bin/env python3
"""edgeyolo benchmark: three closed-loop workloads, checked outputs, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload detect-416 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
The exit code is non-zero when any operation's output fails its check.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
# each workload's own Python threads; BLAS gets the rest of nproc
PYTHON_THREADS = {"detect-416": 1, "train-toy": 1, "edge-cloud-loopback": 2}
WORKLOAD_NAMES = tuple(PYTHON_THREADS)

# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_program():
    """Import edgeyolo from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "edgeyolo" / "__init__.py").is_file():
        raise SystemExit(f"error: no edgeyolo sources under {src}")
    sys.path.insert(0, str(src))
    import edgeyolo
    if Path(edgeyolo.__file__).resolve().parent != (src / "edgeyolo").resolve():
        raise SystemExit(f"error: imported edgeyolo from {edgeyolo.__file__}")


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads_in_use():
    """Ask the loaded OpenBLAS how many threads it will use, if it says."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _src_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, blas_requested: int) -> dict:
    import platform

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "workload": workload, "seed": seed, "commit": _commit(),
        "src_sha256": _src_digest(), "nproc": nproc(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
        "blas_threads_requested": blas_requested,
        "blas_threads_in_use": _blas_threads_in_use(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Run:
    """Set-up repetitions, then the timed closed loop, then the checks."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.lat: list[float] = []
        self.traced: list[float] = []
        self.untraced: list[float] = []
        self.retained_mb = 0.0
        self.pricer = None

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems[:3]

    def _op(self, first: bool, traced: bool) -> float:
        inp = self.wl.next_input()
        tr = self.tracer
        if tr is not None:
            tr.enabled = traced
        t0 = time.perf_counter()
        out = self.wl.op(inp)
        dt = time.perf_counter() - t0
        if tr is not None:
            tr.enabled = False
        self.attempted += 1
        self._fail(self.wl.check(inp, out, first))
        return dt

    def execute(self, seconds: float) -> bool:
        """Returns False when an operation raised."""
        wl, tr = self.wl, self.tracer
        for _ in range(SETUP_REPS):
            if tr is not None:
                tr.phase = "setup"
                tr.enabled = True
            t0 = time.perf_counter()
            wl.setup()
            built = time.perf_counter() - t0
            if self.pricer is not None:
                self.pricer.add(wl.graphs())
            self.setup_s.append(built + self._op(first=True, traced=tr is not None))
        if tr is not None:
            self.retained_mb = probe_retained_mb(wl)
            tr.phase = "op"
        start = time.perf_counter()
        raised = False
        while not raised and time.perf_counter() - start < seconds:
            # alternate, flipping phase every 4 ops so that inputs cycling
            # with an even period (detect-416's 4 frame sizes) land on both
            k = len(self.lat)
            traced = tr is not None and (k + k // 4) % 2 == 1
            try:
                dt = self._op(first=False, traced=traced)
            except Exception:
                traceback.print_exc()
                self.attempted += 1
                self.failed += 1
                self.problems.append("operation raised; run stopped")
                raised = True
                continue
            self.lat.append(dt)
            (self.traced if traced else self.untraced).append(dt)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if raised:
            return False
        for p in wl.finish():
            self.failed += 1
            self.problems.append(p)
        return True

    def end_to_end(self) -> dict:
        lat = self.lat
        tail = percentile(lat, self.wl.tail_pct)
        return {
            "setup_s": statistics.median(self.setup_s),
            "throughput_ops_s": len(lat) / sum(lat),
            "latency_p50_ms": 1000.0 * statistics.median(lat),
            "latency_tail_ms": 1000.0 * tail,
            "peak_rss_mb": self.peak_rss_mb,
            "success_rate": (self.attempted - self.failed) / self.attempted,
        }


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def probe_retained_mb(wl) -> float:
    """Peak bytes numpy holds inside one inference forward (tracemalloc)."""
    import tracemalloc

    from edgeyolo import netdef
    probe = wl.probe_input()
    if probe is None:
        return 0.0
    g, x = probe
    tracemalloc.start()
    try:
        netdef.forward(g, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def run_one(args, blas_threads: int) -> int:
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    wl = cls(ROOT, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    run = Run(wl, tracer)
    try:
        if tracer is not None:
            run.pricer = install_tracer(tracer)
        completed = run.execute(args.seconds)
    finally:
        if tracer is not None:
            tracer.restore()
        wl.close()
    env = environment(args.workload, args.seed, blas_threads)
    print(json.dumps({"env": env}))
    if completed:
        print(json.dumps({"workload_report": wl.report()}))
    for p in run.problems[:20]:
        print(f"check failed: {p}")
    if not run.lat:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        import layers
        metrics = layers.per_layer(run, tracer, wl)
        layers.print_tables(run, tracer)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in run.end_to_end().items()}
        n = len(run.lat)
        beyond = n - n * wl.tail_pct / 100.0
        print(f"latency_tail_ms is p{wl.tail_pct} over {n} ops "
              f"({beyond:.1f} beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    correct = completed and run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def install_tracer(tracer):
    import tracer as tracing

    from edgeyolo import analyzer, anchors, images, netdef, nn, postprocess, training
    from edgeyolo.edgecloud import live, protocol
    modules = {"nn": nn, "netdef": netdef, "images": images, "postprocess": postprocess,
               "training": training, "anchors": anchors, "protocol": protocol,
               "live": live}
    pricer = tracing.Pricer(analyzer)
    tracing.install(tracer, pricer, modules)
    return pricer


# ---------------------------------------------------------------------------
# all workloads, one child process each
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    combined: dict = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result line")
            return 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            combined[f"{name}/{k}"] = v
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    sys.dont_write_bytecode = True      # leave nothing behind in the checkout
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # the thread budget (nproc, BLAS included) is fixed before numpy loads
    blas = max(1, nproc() - PYTHON_THREADS[args.workload] + 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    import_program()
    return run_one(args, blas)


if __name__ == "__main__":
    sys.exit(main())
