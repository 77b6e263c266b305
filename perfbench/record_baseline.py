#!/usr/bin/env python3
"""Record the benchmark's numbers for this checkout as JSON on stdout.

Runs every workload untraced and traced on the development seed and on one
held-out seed, one after another:

    python3 perfbench/record_baseline.py > perfbench/baseline.json
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

SEEDS = {"dev": 1, "held_out": 7}
SECONDS = 40


def one(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    env = next(json.loads(ln)["env"] for ln in lines if ln.startswith('{"env"'))
    return env, json.loads(lines[-1])


def main() -> int:
    out: dict = {"command": f"perfbench/run.py --seconds {SECONDS}", "seeds": SEEDS,
                 "env": {}, "results": {}}
    for workload in run.WORKLOAD_NAMES:
        per_seed = out["results"][workload] = {}
        for label, seed in SEEDS.items():
            env, plain = one(workload, seed, 0)
            _, traced = one(workload, seed, 1)
            out["env"][workload] = {k: v for k, v in env.items()
                                    if k not in ("workload", "seed")}
            per_seed[label] = {
                "correct": plain["correct"] and traced["correct"],
                "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            }
            print(f"{workload} {label}: done", file=sys.stderr)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
