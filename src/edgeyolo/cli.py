"""Command-line entry point.

One subcommand per capability: `detect` runs the full image pipeline,
`bench` times forward passes, `analyze` prices a config, `anchors`
clusters labeled boxes, `train-toy` runs the synthetic-shapes training
loop, `sim` runs the edge/cloud delay simulator, and `edge` / `cloud` run
the live protocol roles over TCP. Every run is deterministic given its
seed except bench timings. Exit code 0 means the run completed cleanly;
an error, such as an output path that cannot be written, prints an
`error:` line and exits 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import socket
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import analyzer, images, netdef, nn
from .anchors import AnchorSet, kmeans_anchors
from .edgecloud import live
from .edgecloud.sim import EDGE_PROFILES, NetworkModel, Scenario, run_sim
from .postprocess import SoftNmsConfig
from .training import (ToyScenario, TrainingDivergedError, detect_image,
                       train_toy)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _load_graph(config: str, weights: str, anchors_path: str) -> netdef.NetGraph:
    """Config, anchors and weights. Anchors per scale follow from the anchor
    and head counts, the class count from the head channels."""
    g = netdef.load_config(config)
    anchors = AnchorSet.from_file(anchors_path, input_size=g.input_shape[0])
    heads = g.head_layers()
    if not heads or len(anchors) % len(heads):
        raise ValueError(f"{len(anchors)} anchors do not divide among "
                         f"{len(heads)} detection heads")
    per_scale = len(anchors) // len(heads)
    # attach_detection_meta checks every head against the derived counts
    g.attach_detection_meta(g.out_shapes[heads[0].index][0] // per_scale - 5,
                            anchors, per_scale)
    return netdef.load_weights(g, weights)


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def cmd_detect(args) -> int:
    anchors_path = args.anchors or str(netdef.PRESET_DIR / "anchors-416.txt")
    try:
        g = _load_graph(args.config, args.weights, anchors_path)
        nms = SoftNmsConfig(sigma=args.sigma, t_nms=args.t_nms,
                            score_floor=args.score_floor)
    except (OSError, netdef.ConfigError, netdef.WeightsError, ValueError) as e:
        return _fail(str(e))
    if not args.images:
        return _fail("no input images given")
    wrote = 0
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for name in args.images:
            try:
                img = images.read_image(name)
            except (OSError, images.ImageError) as e:
                print(f"warning: skipping {name}: {e}", file=sys.stderr)
                continue
            dets = detect_image(g, img, args.score_floor, nms)
            for d in dets:
                out.write(json.dumps({
                    "image": name, "class": d.class_id,
                    "score": round(d.score, 6),
                    "cx": round(d.box.cx, 2), "cy": round(d.box.cy, 2),
                    "w": round(d.box.w, 2), "h": round(d.box.h, 2)}) + "\n")
            if args.draw_dir:
                Path(args.draw_dir).mkdir(parents=True, exist_ok=True)
                annotated = images.draw_detections(img, dets)
                dst = Path(args.draw_dir) / (Path(name).stem + ".ppm")
                images.write_ppm(dst, annotated)
            wrote += 1
    finally:
        if args.out:
            out.close()
    if wrote == 0:
        return _fail("no readable input images")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args) -> int:
    try:
        g = netdef.load_config(args.config)
        if args.weights:
            netdef.load_weights(g, args.weights)
        else:
            g.init_random(args.seed)
    except (OSError, netdef.ConfigError, netdef.WeightsError) as e:
        return _fail(str(e))
    if args.warmup < 1 or args.runs < 1:
        return _fail("--warmup and --runs must both be at least 1")
    w, h, c = g.input_shape
    x = nn.Tensor(np.random.default_rng(args.seed)
                  .uniform(0, 1, size=(1, c, h, w)).astype(np.float32))
    for _ in range(args.warmup):
        netdef.forward(g, x)
    samples = []
    for _ in range(args.runs):
        t0 = time.perf_counter()
        netdef.forward(g, x)
        samples.append(time.perf_counter() - t0)
    report = {
        "config": args.config,
        "input": f"{w}x{h}x{c}",
        "runs": args.runs,
        "warmup": args.warmup,
        "mean_s": statistics.fmean(samples),
        "median_s": statistics.median(samples),
        "fps": 1.0 / statistics.median(samples),
    }
    if args.runs > 1:                   # single sample has no spread
        ranked = sorted(samples)
        report["p95_s"] = ranked[min(len(ranked) - 1,
                                     int(0.95 * len(ranked)))]
        report["stdev_s"] = statistics.stdev(samples)
    print(json.dumps(report, indent=2))
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    try:
        g = netdef.load_config(args.config)
    except (OSError, netdef.ConfigError) as e:
        return _fail(str(e))
    report = analyzer.analyze(g)
    print(analyzer.render_text(report))
    if args.csv:
        analyzer.write_csv(report, args.csv)
    if args.golden:
        try:
            mismatches = analyzer.diff_golden(report, args.golden)
        except (OSError, ValueError) as e:
            return _fail(str(e))
        blocking = [m for m in mismatches if not m.known]
        for m in mismatches:
            tag = "known" if m.known else "MISMATCH"
            print(f"{tag}: layer {m.index} {m.field}: "
                  f"expected {m.expected}, got {m.actual}")
        if blocking:
            return _fail(f"{len(blocking)} unexplained golden mismatches")
        print("golden table matches")
    return 0


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def _read_label_boxes(path: str) -> list[tuple[float, float]]:
    """CSV lines image,class,cx,cy,w,h (pixels); returns the (w, h) pairs."""
    pairs = []
    with open(path, newline="") as f:
        for row_no, row in enumerate(csv.reader(f), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row_no == 1 and row[:2] == ["image", "class"]:
                continue
            if len(row) != 6:
                raise ValueError(f"{path}:{row_no}: expected 6 columns "
                                 f"image,class,cx,cy,w,h, got {len(row)}")
            pairs.append((float(row[4]), float(row[5])))
    if not pairs:
        raise ValueError(f"{path}: no labeled boxes")
    return pairs


def cmd_anchors(args) -> int:
    try:
        pairs = _read_label_boxes(args.labels)
        result = kmeans_anchors(pairs, k=args.k, seed=args.seed,
                                input_size=args.input_size,
                                metric=args.metric)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    text = result.to_text()
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def _write_history(path: str, history: list[dict]) -> None:
    # eval rows carry an extra val_ap50 column; quiet rows leave it blank
    fields = ["step", "loss_total", "loss_box", "loss_obj", "loss_cls",
              "clamped_share"]
    for row in history:
        fields += [k for k in row if k not in fields]
    with open(path, "w", newline="") as f:
        wr = csv.DictWriter(f, fieldnames=fields, restval="")
        wr.writeheader()
        wr.writerows(history)


def cmd_train_toy(args) -> int:
    # checked before the run: a write that fails after it loses the trained net
    for path in (args.out, args.history):
        if path and not Path(path).parent.is_dir():
            return _fail(f"cannot write {path}: {Path(path).parent} is not a directory")
    try:
        result = train_toy(ToyScenario(seed=args.seed, steps=args.steps,
                                       eta=args.eta,
                                       train_images=args.train_images,
                                       eval_every=args.eval_every))
    except TrainingDivergedError as e:
        if args.history:
            _write_history(args.history, e.history)
        return _fail(str(e))
    except ValueError as e:              # bad scenario
        return _fail(str(e))
    print(f"initial loss {result.initial_loss:.4f}  "
          f"final loss {result.final_loss:.4f}  "
          f"held-out AP@0.5 {result.final_ap:.4f}")
    if args.out:
        netdef.save_weights(result.graph, args.out)
        anchor_path = Path(args.out).with_suffix(".anchors.txt")
        anchor_path.write_text(result.anchors.to_text())
        net_path = Path(args.out).with_suffix(".net")
        net_path.write_text(result.graph.canonical_text())
        print(f"weights -> {args.out}, anchors -> {anchor_path}, "
              f"config -> {net_path}")
    if args.history:
        _write_history(args.history, result.history)
    return 0


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def _net_from_profile(path: str | None) -> NetworkModel:
    if not path:
        return NetworkModel()
    spec = json.loads(Path(path).read_text())
    if not isinstance(spec, dict):
        raise ValueError(f"a net profile must be a JSON object, got {spec!r}")
    allowed = {"uplink_bps", "downlink_bps", "rtt_s", "loss_rate",
               "jitter_max_s"}
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(f"unknown net-profile keys: {sorted(unknown)}")
    for key, value in spec.items():
        # bool is an int subclass; true is no link rate
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"net-profile {key} must be a number, got {value!r}")
    return NetworkModel(**spec)


def cmd_sim(args) -> int:
    try:
        net = _net_from_profile(args.net_profile)
        sc = Scenario(path=args.path, n_frames=args.frames, seed=args.seed,
                      edge_infer_s=EDGE_PROFILES[args.edge_profile], net=net)
        result = run_sim(sc)
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        return _fail(str(e))
    print(f"path={args.path} frames={args.frames} "
          f"edge_profile={args.edge_profile} "
          f"mean_delay_s={result.mean_delay():.6f} "
          f"final_model_version={result.final_model_version}")
    if args.trace:
        result.write_csv(args.trace)
    if args.delays:
        with open(args.delays, "w", newline="") as f:
            wr = csv.writer(f, lineterminator="\n")
            wr.writerow(["frame_id", "delay_s", "prefix_mean_s"])
            for i, (d, m) in enumerate(zip(result.delays,
                                           result.prefix_mean_delays())):
                wr.writerow([i, f"{d:.9f}", f"{m:.9f}"])
    return 0


# ---------------------------------------------------------------------------
# live roles
# ---------------------------------------------------------------------------

def cmd_cloud(args) -> int:
    graph, _ = live.demo_setup(args.seed)
    try:
        node = live.CloudNode(graph, retrain_every=args.retrain_every,
                              retrain_steps=args.retrain_steps)
    except ValueError as e:
        return _fail(str(e))
    try:
        srv = socket.create_server(("127.0.0.1", args.port))
    except (OSError, OverflowError) as e:
        return _fail(f"cannot listen on port {args.port}: {e}")
    print(f"cloud listening on 127.0.0.1:{args.port}", flush=True)
    try:
        conn, peer = srv.accept()
        print(f"edge connected from {peer[0]}:{peer[1]}", flush=True)
        node.serve(live.Transport(conn))
    finally:
        srv.close()
    for line in node.log:
        print(line)
    print(f"served {node.uploads} uploads, "
          f"final version {node.version}")
    return 0


def cmd_edge(args) -> int:
    from .training import generate_toy_dataset

    graph, sc = live.demo_setup(args.seed)
    node = live.EdgeNode(graph)
    frames = generate_toy_dataset(args.seed * 1000 + 5, args.frames,
                                  sc.img_size, sc.num_classes)
    try:
        conn = socket.create_connection((args.host, args.port), timeout=30)
    except OSError as e:
        return _fail(f"cannot reach cloud role: {e}")
    transport = live.Transport(conn)
    try:
        dets = node.run_session(transport, frames)
    finally:
        transport.close()
    for line in node.log:
        print(line)
    total = sum(len(d) for d in dets)
    print(f"uploaded {len(frames)} frames, {total} local detections, "
          f"model version now {node.version}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="edgeyolo",
        description="Lightweight detection engine with edge/cloud tooling")
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("detect", help="run detection on images")
    d.add_argument("--config", required=True, help="network config file")
    d.add_argument("--weights", required=True,
                   help="weight blob produced by this tool")
    d.add_argument("--anchors", default=None,
                   help="anchor text file (default: preset 416 anchors)")
    d.add_argument("images", nargs="*", help="input images (.ppm, .png)")
    d.add_argument("--score-floor", type=float, default=0.001,
                   help="discard detections below this score (default 0.001)")
    d.add_argument("--t-nms", type=float, default=0.45,
                   help="suppression overlap threshold (default 0.45)")
    d.add_argument("--sigma", type=float, default=0.5,
                   help="Gaussian rescale width (default 0.5)")
    d.add_argument("--out", default=None,
                   help="detection JSON-lines file (default stdout)")
    d.add_argument("--draw-dir", default=None,
                   help="also write annotated .ppm copies here")
    d.set_defaults(fn=cmd_detect)

    b = sub.add_parser("bench", help="time forward passes")
    b.add_argument("--config", required=True)
    b.add_argument("--weights", default=None,
                   help="optional weights (default: seeded random init)")
    b.add_argument("--warmup", type=int, default=1,
                   help="untimed warmup passes (default 1, minimum 1)")
    b.add_argument("--runs", type=int, default=5,
                   help="timed passes (default 5)")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=cmd_bench)

    a = sub.add_parser("analyze", help="static per-layer cost report")
    a.add_argument("--config", required=True)
    a.add_argument("--golden", default=None,
                   help="golden layer table CSV to diff against")
    a.add_argument("--csv", default=None, help="write the report as CSV")
    a.set_defaults(fn=cmd_analyze)

    k = sub.add_parser("anchors", help="cluster labeled boxes into anchors")
    k.add_argument("--labels", required=True,
                   help="CSV lines image,class,cx,cy,w,h (pixels)")
    k.add_argument("--k", type=int, default=18,
                   help="number of anchors (default 18)")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--input-size", type=int, default=416,
                   help="square canvas the anchors are stored against")
    k.add_argument("--metric", choices=("euclid", "iou"), default="euclid",
                   help="cluster distance (default euclid)")
    k.add_argument("--out", default=None, help="anchor text file to write")
    k.set_defaults(fn=cmd_anchors)

    t = sub.add_parser("train-toy", help="train on the synthetic shapes task")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--steps", type=int, default=4000,
                   help="SGD steps (default 4000)")
    t.add_argument("--eta", type=float, default=ToyScenario.eta,
                   help="peak learning rate, cosine-decayed over the run "
                        f"(default {ToyScenario.eta})")
    t.add_argument("--train-images", type=int, default=1024,
                   help="synthetic training images (default 1024)")
    t.add_argument("--eval-every", type=int, default=0,
                   help="evaluate held-out AP every N steps (0: only at end)")
    t.add_argument("--out", default=None, help="weight blob to write")
    t.add_argument("--history", default=None, help="loss history CSV")
    t.set_defaults(fn=cmd_train_toy)

    s = sub.add_parser("sim", help="edge/cloud delay simulator")
    s.add_argument("--path", choices=("ecc", "cloud"), required=True,
                   help="ecc: detect locally, upload in idle windows; "
                        "cloud: offload every frame")
    s.add_argument("--frames", type=int, default=300,
                   help="captured frames (default 300)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--edge-profile", choices=sorted(EDGE_PROFILES),
                   default="xavier",
                   help="edge inference speed profile (default xavier)")
    s.add_argument("--net-profile", default=None,
                   help="JSON file overriding link parameters")
    s.add_argument("--trace", default=None, help="event trace CSV")
    s.add_argument("--delays", default=None,
                   help="per-frame delay + prefix-mean CSV")
    s.set_defaults(fn=cmd_sim)

    c = sub.add_parser("cloud", help="serve the cloud role on TCP")
    c.add_argument("--port", type=int, default=44180)
    c.add_argument("--seed", type=int, default=0,
                   help="must match the edge role's seed")
    c.add_argument("--retrain-every", type=int, default=5,
                   help="fine-tune after every N uploads (default 5)")
    c.add_argument("--retrain-steps", type=int, default=3,
                   help="SGD steps per fine-tune (default 3)")
    c.set_defaults(fn=cmd_cloud)

    e = sub.add_parser("edge", help="run the edge role against a cloud")
    e.add_argument("--host", default="127.0.0.1")
    e.add_argument("--port", type=int, default=44180)
    e.add_argument("--seed", type=int, default=0,
                   help="must match the cloud role's seed")
    e.add_argument("--frames", type=int, default=10,
                   help="frames to detect and upload (default 10)")
    e.set_defaults(fn=cmd_edge)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:                 # e.g. an output path in a missing directory
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
