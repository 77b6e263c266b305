"""The benchmark's own tests: corrupted outputs are counted as failed.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from edgeyolo.postprocess import Box, Detection  # noqa: E402
from edgeyolo.training import LossReport  # noqa: E402

GOOD = [Detection(Box(10.0, 20.0, 4.0, 5.0), 1, 0.9),
        Detection(Box(30.0, 40.0, 6.0, 2.0), 0, 0.4)]


def _corrupt(i: int, **change) -> list[Detection]:
    d = GOOD[i]
    box = Box(**{**d.box.__dict__, **{k: v for k, v in change.items() if k != "score"}})
    out = list(GOOD)
    out[i] = Detection(box, d.class_id, change.get("score", d.score))
    return out


@pytest.mark.parametrize("dets", [
    _corrupt(0, cx=math.nan),
    _corrupt(1, w=0.0),
    _corrupt(1, h=-1.0),
    _corrupt(0, cx=500.0),
    _corrupt(1, score=1.5),
    _corrupt(1, score=0.0),
    _corrupt(1, score=0.95),          # rises above the first score
])
def test_each_detection_corruption_is_caught(dets):
    assert checks.detections(GOOD, (0, 100), (0, 100)) == []
    assert checks.detections(dets, (0, 100), (0, 100))


def test_heads_outside_tolerance_are_caught():
    ref = [np.linspace(-5, 5, 60).reshape(1, 6, 10)]
    near = [ref[0].astype(np.float32)]
    assert checks.heads_match(near, ref) == []
    off = [near[0].copy()]
    off[0][0, 2, 3] += 1e-2
    assert checks.heads_match(off, ref)
    nan = [near[0].copy()]
    nan[0][0, 0, 0] = np.nan
    assert checks.heads_match(nan, ref)


def test_loss_that_does_not_fall_is_caught():
    assert checks.loss_falls([10.0] + [5.0] * 30, window=20) == []
    assert checks.loss_falls([10.0] + [11.0] * 30, window=20)
    assert checks.loss_falls([10.0] + [math.nan] * 30, window=20)
    assert checks.loss_falls([10.0] * 5, window=20)


class _Stub:
    """A workload whose every third output is a corrupted detection list."""

    tail_pct = 50

    def __init__(self):
        self.n = 0

    def setup(self):
        pass

    def graphs(self):
        return []

    def next_input(self):
        self.n += 1
        return self.n

    def op(self, i):
        return _corrupt(0, w=-1.0) if i % 3 == 0 else GOOD

    def check(self, i, out, first):
        return checks.detections(out, (0, 100), (0, 100))

    def finish(self):
        return []


def test_corrupted_output_counts_as_failed_not_passed():
    r = run.Run(_Stub())
    assert r.execute(seconds=0.01)
    corrupted = sum(1 for i in range(1, r.attempted + 1) if i % 3 == 0)
    assert corrupted >= 1
    assert r.failed == corrupted
    assert r.end_to_end()["success_rate"] == (r.attempted - corrupted) / r.attempted


def test_non_finite_training_loss_fails_its_step():
    wl = workloads.TrainToy(run.ROOT, seed=0)
    bad = LossReport(1.0, math.nan, 1.0, math.nan, 3)
    assert wl.check(None, bad, first=False)
    assert wl.check(None, LossReport(1.0, 1.0, 1.0, 3.0, 3), first=False) == []


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_operation_that_raises_stops_the_run_as_failed():
    class Raising(_Stub):
        def op(self, i):
            if i > run.SETUP_REPS + 2:
                raise RuntimeError("broken")
            return GOOD

    r = run.Run(Raising())
    assert not r.execute(seconds=5.0)
    assert r.failed == 1 and r.attempted == run.SETUP_REPS + 3
    assert r.end_to_end()["success_rate"] < 1.0
