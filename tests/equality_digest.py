"""SHA-256 digest of outputs that a behaviour-preserving refactor must keep.

Run it on two checkouts and compare the last line:

    PYTHONPATH=src python3 tests/equality_digest.py

It prints one digest per section and then the digest of all of them. The
sections cover the toy-model builder (demo_setup graphs and anchors), a
short train_toy run (history, weights and held-out AP), random
assign_targets calls, the backward pass in train and inference mode, a
10-frame live loopback, the analyzer CSV and `edgeyolo detect` JSON on the
416 preset. It uses only names both sides of such a comparison share, and
it is not collected by pytest (about 20 s on 2 CPUs).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from edgeyolo import analyzer, cli, images, netdef, nn
from edgeyolo.anchors import AnchorSet
from edgeyolo.edgecloud import live
from edgeyolo.postprocess import Box
from edgeyolo.training import (ToyScenario, assign_targets, graph_backward,
                               train_toy)


def _feed_params(h, g) -> None:
    for i, p in enumerate(g.params):
        if p is None:
            continue
        for k in sorted(p):
            h.update(f"{i}.{k}".encode())
            h.update(np.ascontiguousarray(p[k]).tobytes())


def _feed_dets(h, dets) -> None:
    for d in dets:
        h.update(repr((d.class_id, d.score, d.box.cx, d.box.cy,
                       d.box.w, d.box.h)).encode())


def demo_graphs(h) -> None:
    for seed in (0, 3):
        g, sc = live.demo_setup(seed)
        h.update(g.canonical_text().encode())
        h.update(g.anchors.centroids.tobytes())
        h.update(repr((g.num_classes, g.anchors_per_scale, sc.img_size,
                       sc.num_classes, sc.width, sc.lambda_noobj,
                       sc.anchors_per_scale, sc.decode_floor)).encode())
        _feed_params(h, g)


def short_training(h) -> None:
    res = train_toy(ToyScenario(seed=0, steps=60, train_images=64,
                                val_images=16, eval_every=30))
    for row in res.history:
        h.update(repr(sorted(row.items())).encode())
    h.update(repr((res.final_ap, res.initial_loss, res.final_loss)).encode())
    h.update(res.anchors.centroids.tobytes())
    _feed_params(h, res.graph)


def random_assignments(h) -> None:
    rng = np.random.default_rng(2024)
    for trial in range(900):
        aps = int(rng.integers(1, 4))
        wh = rng.uniform(2.0, 40.0, size=(3 * aps, 2))
        wh = wh[np.argsort(wh[:, 0] * wh[:, 1], kind="stable")]
        anchors = AnchorSet(wh, 64)
        gts = [(Box(float(rng.uniform(0, 63.9)), float(rng.uniform(0, 63.9)),
                    float(rng.uniform(1, 40)), float(rng.uniform(1, 40))),
                int(rng.integers(0, 3)))
               for _ in range(int(rng.integers(1, 7)))]
        thresh = (None, 0.3, 0.6)[trial % 3]
        try:
            ta = assign_targets(gts, anchors, (4, 8, 16), (64, 64), 3,
                                iou_thresh=thresh)
        except ValueError as err:
            h.update(str(err).encode())
            continue
        h.update(repr(ta.n_positive).encode())
        for arrs in (ta.obj_mask, ta.box_target, ta.cls_target, ta.anchor_px):
            for a in arrs:
                h.update(np.ascontiguousarray(a).tobytes())


def backward_passes(h) -> None:
    g = netdef.parse_config("net 16 16 3\nconv 3x3/1 4\nmax 2x2/2\n"
                            "conv 3x3/1 4\nroute 2 1\nroute 3 split 1\n"
                            "upsample\nconv 3x3/2 4\nconv 1x1/1 7 linear\n"
                            "head 0\n")
    rng = np.random.default_rng(5)
    for train in (True, False):
        g.init_random(1, dtype=np.float64)
        x = nn.Tensor(rng.normal(size=(2, 3, 16, 16)))
        outputs, caches, heads = netdef.forward_trace(g, x, train=train)
        seed = rng.normal(size=heads[0].raw.data.shape)
        grads, d_in = graph_backward(g, x, outputs, caches,
                                     {len(g.layers) - 1: seed}, train=train)
        for o in outputs:
            h.update(o.tobytes())
        for i in sorted(grads):
            for k in sorted(grads[i]):
                h.update(grads[i][k].tobytes())
        h.update(d_in.tobytes())
        _feed_params(h, g)


def loopback(h) -> None:
    edge, cloud, dets = live.run_loopback(n_frames=10, seed=0)
    for frame in dets:
        _feed_dets(h, frame)
    h.update(repr((edge.version, cloud.version, edge.log, cloud.log,
                   len(cloud.buffer))).encode())
    _feed_params(h, edge.graph)
    _feed_params(h, cloud.graph)


def preset_files(h) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        _preset_files(h, Path(tmp))


def _preset_files(h, tmp: Path) -> None:
    g = netdef.build_edge_yolo()
    analyzer.write_csv(analyzer.analyze(g), tmp / "cost.csv")
    h.update((tmp / "cost.csv").read_bytes())
    h.update(repr(analyzer.read_golden(netdef.PRESET_DIR / "table-golden.csv"))
             .encode())
    g.init_random(0)
    weights = tmp / "416.weights"
    netdef.save_weights(g, weights)
    rng = np.random.default_rng(7)
    frames = []
    for w, hh in ((640, 480), (500, 300)):
        path = tmp / f"frame{w}.ppm"
        images.write_ppm(path, rng.random((3, hh, w), dtype=np.float32))
        frames.append(str(path))
    out = tmp / "dets.jsonl"
    rc = cli.main(["detect", "--config",
                   str(netdef.PRESET_DIR / "edge-yolo-416.net"),
                   "--weights", str(weights), "--score-floor", "0.45",
                   "--out", str(out), *frames])
    h.update(repr(rc).encode())
    h.update(out.read_bytes().replace(str(tmp).encode(), b"<tmp>"))


def main() -> int:
    total = hashlib.sha256()
    for section in (demo_graphs, short_training, random_assignments,
                    backward_passes, loopback, preset_files):
        h = hashlib.sha256()
        section(h)
        print(f"{section.__name__:20s} {h.hexdigest()}", flush=True)
        total.update(h.digest())
    print(f"{'all':20s} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
