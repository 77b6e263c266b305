#!/usr/bin/env python3
"""Paired benchmark of a base revision against the working tree, written as one JSON file.

Usage (from the repository root):

    python3 tools/bench_pairs.py --out bench.json
    python3 tools/bench_pairs.py --base HEAD~1 --pairs 10 --seeds 3,4 --out bench.json

The base revision (default HEAD) is exported with `git archive` into a
temporary directory. If its src/ and perfbench/ are byte-identical to the
working tree's (say, the change is already committed and --base is HEAD),
the tool exits with an error before any run. For each workload
BENCHMARK.json lists and each pair, `perfbench/run.py --trace 0` runs once
in the base export and once in this working tree, with the same seed and
BENCHMARK.json's run_seconds. Which side goes first alternates from pair
to pair, so a drift in host load falls on both sides. Pair i uses seed
seeds[i % len(seeds)]. Each side then makes one traced run per workload on
the first seed, also run_seconds long. SIGTERM stops a run cleanly: the
running perfbench child is killed and the export is removed.

The JSON holds the CPU model; the seeds; per workload and side, the
environment record run.py prints (commit, source digest, Python, numpy, BLAS
and its threads, which differ between workloads); every pair's end-to-end
metrics and check result; per side the median and quartiles of each metric;
per metric the number of pairs in which the working tree is better (the
direction comes from BENCHMARK.json); and the traced runs' per-layer metrics
and tables.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
MIN_PAIRS = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seeds", default="1,2")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    args.seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < MIN_PAIRS:
        p.error(f"--pairs must be at least {MIN_PAIRS}")
    return args


def git(*cmd: str) -> bytes:
    return subprocess.run(["git", *cmd], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def program_files(tree: Path) -> dict[str, bytes]:
    """What a perfbench run executes: the files under src/ and perfbench/."""
    return {str(p.relative_to(tree)): p.read_bytes()
            for top in ("src", "perfbench") for p in sorted((tree / top).rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its result line, its environment record and its text."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln)["env"] for ln in lines if ln.startswith('{"env"')), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: no result line from {workload} in {tree}")
    return {"exit": proc.returncode, "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "env": env, "text": lines[:-1]}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    names = list(pairs[0]["base"])
    out: dict = {side: {m: quartiles([p[side][m] for p in pairs]) for m in names}
                 for side in ("base", "change")}
    wins = {}
    for m in names:
        sign = -1.0 if better.get(m) == "lower" else 1.0
        wins[m] = sum(sign * (p["change"][m] - p["base"][m]) > 0 for p in pairs)
    out["change_better_in_pairs"] = wins
    out["median_ratio"] = {m: out["change"][m]["median"] / out["base"][m]["median"]
                           for m in names if out["base"][m]["median"]}
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh
                         if ln.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    # A kill unwinds like an exception: subprocess.run kills the running
    # run.py child and the base export's TemporaryDirectory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = float(spec["run_seconds"])
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    report: dict = {
        "command": ["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])],
        "cpu": cpu_model(), "seeds": args.seeds, "pairs": args.pairs, "seconds": seconds,
        "base": {"rev": args.base, "commit": git("rev-parse", args.base).decode().strip()},
        "change": {"commit": git("rev-parse", "HEAD").decode().strip(),
                   "uncommitted_changes": dirty},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        export(args.base, base_tree)
        if program_files(base_tree) == program_files(ROOT):
            raise SystemExit(f"error: src/ and perfbench/ at {args.base} are byte-identical "
                             "to the working tree's; every pair would time one program")
        trees = {"base": base_tree, "change": ROOT}
        for wl in (w["name"] for w in spec["workloads"]):
            pairs, env = [], {}
            for i in range(args.pairs):
                seed = args.seeds[i % len(args.seeds)]
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair: dict = {"seed": seed, "first": order[0]}
                for side in order:
                    r = run(trees[side], wl, seed, seconds, 0)
                    pair[side] = r["metrics"]
                    pair[side + "_correct"] = r["correct"] and r["exit"] == 0
                    env.setdefault(side, r["env"])
                pairs.append(pair)
                print(f"{wl} pair {i + 1}/{args.pairs} seed {seed}: throughput "
                      f"{pair['base']['throughput_ops_s']:.3g} -> "
                      f"{pair['change']['throughput_ops_s']:.3g} ops/s", flush=True)
            entry = {"env": env, "pairs": pairs, "summary": summarize(
                [{s: p[s] for s in ("base", "change")} for p in pairs], better), "traced": {}}
            for side in ("base", "change"):
                r = run(trees[side], wl, args.seeds[0], seconds, 1)
                entry["traced"][side] = {"correct": r["correct"], "metrics": r["metrics"],
                                         "table": r["text"]}
            report["workloads"][wl] = entry
            args.out.write_text(json.dumps(report, indent=1) + "\n")   # kept if a later run fails
    ok = all(p[s + "_correct"] for e in report["workloads"].values()
             for p in e["pairs"] for s in ("base", "change"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
