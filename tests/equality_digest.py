"""SHA-256 digest of outputs that a behaviour-preserving refactor must keep.

Run it on two checkouts and compare the last line:

    PYTHONPATH=src python3 tests/equality_digest.py

It prints one digest per section and then the digest of all of them. The
sections cover the toy-model builder (demo_setup graphs and anchors), a
short train_toy run (history, weights and held-out AP), random
assign_targets calls, the training forward and backward pass on a graph with
a pool, routes, a split and an upsample, a 10-frame live loopback, the
analyzer CSV and `edgeyolo detect` JSON on the 416 preset, and weight blobs
(save_weights bytes of the 416 preset and the toy model, a load round trip
and the analyzer's parameter totals). The detection sections run
detect_image on 4 frames of the detect-416 benchmark model (its weights seed
and objectness bias, floor 0.001) and on 10 toy frames (floors 0.05 and
0.001), soft_nms on random sets with score ties, sigma 1e-6 and t_nms 0, and
evaluate on random fixtures plus evaluate_toy. The simulator section hashes
run_sim traces, delays, upload counts and model versions over both paths,
both edge profiles, two seeds and two links, one 10,000-frame cloud run, and
`edgeyolo sim --trace --delays` output for both paths. It uses only names
both sides of such a comparison share, and it is not collected by pytest
(about 20 s on 2 CPUs).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from edgeyolo import analyzer, cli, images, netdef, nn
from edgeyolo.anchors import AnchorSet
from edgeyolo.edgecloud import live, sim
from edgeyolo.postprocess import Box, Detection, SoftNmsConfig, evaluate, soft_nms
from edgeyolo.training import (ToyScenario, assign_targets, detect_image,
                               evaluate_toy, generate_toy_dataset,
                               graph_backward, train_toy)


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
    g.init_random(1, dtype=np.float64)
    x = nn.Tensor(rng.normal(size=(2, 3, 16, 16)))
    outputs, caches, heads = netdef.forward_trace(g, x)
    seed = rng.normal(size=heads[0].raw.data.shape)
    grads, d_in = graph_backward(g, x, outputs, caches, {len(g.layers) - 1: seed})
    for o in outputs:
        h.update(o.tobytes())
    for i in sorted(grads):
        for k in sorted(grads[i]):
            h.update(grads[i][k].tobytes())
    h.update(d_in.tobytes())
    _feed_params(h, g)


def loopback(h) -> None:
    edge, cloud, dets = live.run_loopback()
    for frame in dets:
        _feed_dets(h, frame)
    # the accepted-upload count: `uploads`, or the buffer before it existed
    uploads = getattr(cloud, "uploads", None)
    if uploads is None:
        uploads = len(cloud.buffer)
    h.update(repr((edge.version, cloud.version, edge.log, cloud.log,
                   uploads)).encode())
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


def weights(h) -> None:
    for g in (netdef.build_edge_yolo().init_random(0), live.demo_setup(0)[0]):
        buf = io.BytesIO()
        netdef.save_weights(g, buf)
        blob = buf.getvalue()
        h.update(blob)
        back = netdef.load_weights(netdef.parse_config(g.canonical_text()), blob)
        _feed_params(h, back)
        report = analyzer.analyze(g)
        h.update(repr((report.total_params, report.total_weight_bytes, len(blob),
                       [r.params for r in report.layers])).encode())


def detect416(h) -> None:
    # the detect-416 benchmark's model: weights seed 0, objectness bias -7.75
    g = netdef.load_config(netdef.PRESET_DIR / "edge-yolo-416.net").init_random(0)
    per = 5 + 80
    for src in g.head_source_indices():
        for a in range(6):
            g.params[src]["b"][a * per + 4] = -7.75
    priors = AnchorSet.from_file(netdef.PRESET_DIR / "anchors-416.txt",
                                 input_size=416)
    g.attach_detection_meta(80, priors, 6)
    rng = np.random.default_rng(1)
    nms = SoftNmsConfig(sigma=0.5, t_nms=0.45, score_floor=0.001)
    for w, hh in ((640, 480), (1280, 720), (416, 416), (500, 300)):
        _feed_dets(h, detect_image(g, rng.random((3, hh, w), dtype=np.float32),
                                   0.001, nms))


def toy_detections(h) -> None:
    g, sc = live.demo_setup(0)
    frames = generate_toy_dataset(5, 10, sc.img_size, sc.num_classes)
    for floor in (0.05, 0.001):
        for img, _ in frames:
            _feed_dets(h, detect_image(g, img, floor))


def _random_dets(rng, n: int, n_classes: int) -> list[Detection]:
    # scores from a small set, so ties are common
    return [Detection(Box(float(rng.uniform(0, 60)), float(rng.uniform(0, 60)),
                          float(rng.uniform(1, 30)), float(rng.uniform(1, 30))),
                      int(rng.integers(0, n_classes)),
                      float(rng.choice([0.2, 0.5, 0.9, rng.uniform(0, 1)])))
            for _ in range(n)]


def random_soft_nms(h) -> None:
    rng = np.random.default_rng(77)
    configs = (SoftNmsConfig(), SoftNmsConfig(sigma=1e-6),
               SoftNmsConfig(t_nms=0.0, score_floor=0.01))
    for trial in range(900):
        dets = _random_dets(rng, int(rng.integers(0, 30)), 3)
        _feed_dets(h, soft_nms(dets, configs[trial % 3]))


def random_evaluations(h) -> None:
    rng = np.random.default_rng(78)
    for trial in range(1600):
        n_img = int(rng.integers(1, 4))
        preds = [_random_dets(rng, int(rng.integers(0, 8)), 3) for _ in range(n_img)]
        gts = [[(d.box, d.class_id) for d in _random_dets(rng, int(rng.integers(0, 5)), 3)]
               for _ in range(n_img)]
        # boxes shared between a prediction and a gt give IoU ties and exact 1s
        for p, g_ in zip(preds, gts):
            if p and g_:
                g_.append((p[0].box, p[0].class_id))
        h.update(repr(evaluate(preds, gts, (0.5, 0.1, 0.0, 0.9)[trial % 4],
                               3 if trial % 2 else None)).encode())
    g, sc = live.demo_setup(0)
    data = generate_toy_dataset(6, 16, sc.img_size, sc.num_classes)
    h.update(repr(evaluate_toy(g, data, 0.001)).encode())


def _feed_sim(h, res) -> None:
    h.update(res.to_csv().encode())
    h.update(repr((res.delays, res.uploaded_frames,
                   res.final_model_version)).encode())


def simulator(h) -> None:
    links = (sim.NetworkModel(), sim.NetworkModel(jitter_max_s=0.01, loss_rate=0.05))
    for path in ("cloud", "ecc"):
        for profile in sorted(sim.EDGE_PROFILES):
            for seed in (0, 7):
                for net in links:
                    _feed_sim(h, sim.run_sim(sim.Scenario(
                        path=path, n_frames=300, seed=seed, net=net,
                        edge_infer_s=sim.EDGE_PROFILES[profile])))
    _feed_sim(h, sim.run_sim(sim.Scenario(path="cloud", n_frames=10_000)))
    with tempfile.TemporaryDirectory() as tmp:
        for path in ("cloud", "ecc"):
            trace, delays = Path(tmp) / "trace.csv", Path(tmp) / "delays.csv"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(["sim", "--path", path, "--trace", str(trace),
                               "--delays", str(delays)])
            h.update(repr(rc).encode())
            h.update(out.getvalue().encode())
            h.update(trace.read_bytes())
            h.update(delays.read_bytes())


def main() -> int:
    total = hashlib.sha256()
    for section in (demo_graphs, short_training, random_assignments,
                    backward_passes, loopback, preset_files, weights, detect416,
                    toy_detections, random_soft_nms, random_evaluations,
                    simulator):
        h = hashlib.sha256()
        section(h)
        print(f"{section.__name__:20s} {h.hexdigest()}", flush=True)
        total.update(h.digest())
    print(f"{'all':20s} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
