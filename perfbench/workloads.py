"""The three closed-loop workloads. Each drives edgeyolo only through public
functions: one caller, one operation at a time.

A workload object makes its inputs from the seed in ``__init__`` and
``next_input`` (untimed), builds the program's state in ``setup`` (timed as
set-up), and runs one operation in ``op`` (timed). ``check`` and ``finish``
verify outputs and return a list of problems each.
"""

from __future__ import annotations

import io
import math
import socket
import threading
import time
from pathlib import Path

import numpy as np

# module attributes, not imported names, so the traced run's wrappers apply
from edgeyolo import anchors, images, netdef, nn, postprocess, training
from edgeyolo.edgecloud import live, protocol

import checks


def _set_objectness_bias(g, num_classes: int, anchors_per_scale: int,
                         bias: float) -> None:
    """Objectness logit bias on every head, as the toy trainer initialises it."""
    per = 5 + num_classes
    for src in g.head_source_indices():
        b = g.params[src]["b"]
        for a in range(anchors_per_scale):
            b[a * per + 4] = bias


class Detect416:
    """letterbox -> forward -> decode -> soft-NMS -> map back, 416 preset."""

    name = "detect-416"
    tail_pct = 60                  # ~45 frames in 40 s: 18 beyond p60
    SOURCE_SIZES = ((640, 480), (1280, 720), (416, 416), (500, 300))
    NUM_CLASSES = 80
    ANCHORS_PER_SCALE = 6
    # The model is fixed, like a deployed one; the seed picks the frames.
    # With these weights and bias a frame yields CANDIDATE_BAND candidates
    # at the 0.001 floor. At bias 0 all 21,294 slots pass and soft-NMS takes
    # tens of seconds; at -8.5 a few hundred pass and it takes nothing.
    WEIGHTS_SEED = 0
    OBJ_BIAS = -7.75
    CANDIDATE_BAND = (2000, 5000)
    NMS = postprocess.SoftNmsConfig(sigma=0.5, t_nms=0.45, score_floor=0.001)

    def __init__(self, root: Path, seed: int):
        presets = root / "src" / "edgeyolo" / "presets"
        self.config_path = presets / "edge-yolo-416.net"
        self.anchors_path = presets / "anchors-416.txt"
        self.rng = np.random.default_rng(seed)
        g = netdef.load_config(self.config_path).init_random(self.WEIGHTS_SEED)
        _set_objectness_bias(g, self.NUM_CLASSES, self.ANCHORS_PER_SCALE,
                             self.OBJ_BIAS)
        self.blob = self._save(g)
        self.n_frames = 0
        self.setup_frames: list[tuple[np.ndarray, list[np.ndarray]]] = []
        self.candidates: list[int] = []
        self.g = None

    @staticmethod
    def _save(g) -> bytes:
        buf = io.BytesIO()
        netdef.save_weights(g, buf)
        return buf.getvalue()

    def _load(self):
        g = netdef.load_config(self.config_path)
        priors = anchors.AnchorSet.from_file(self.anchors_path, input_size=416)
        g.attach_detection_meta(self.NUM_CLASSES, priors, self.ANCHORS_PER_SCALE)
        return netdef.load_weights(g, self.blob)

    def setup(self) -> None:
        self.g = self._load()

    def graphs(self):
        return [self.g]

    def next_input(self) -> np.ndarray:
        w, h = self.SOURCE_SIZES[self.n_frames % len(self.SOURCE_SIZES)]
        self.n_frames += 1
        return self.rng.random((3, h, w), dtype=np.float32)

    def op(self, frame: np.ndarray):
        g = self.g
        size = g.input_shape[0]
        boxed, tf = images.letterbox(frame, size)
        heads = netdef.forward(g, nn.Tensor(boxed[None]))
        dets = []
        for head in heads:
            anc = g.anchors.for_scale_index(head.scale_index, len(heads))
            dets.extend(postprocess.decode(head, anc, size, size,
                                           self.NMS.score_floor))
        kept = postprocess.soft_nms(dets, self.NMS)
        return images.map_detections_to_source(kept, tf), tf, len(dets), boxed, heads

    def check(self, frame, out, first: bool) -> list[str]:
        dets, tf, n_candidates, boxed, heads = out
        self.candidates.append(n_candidates)
        if first:       # set-up frames are compared with float64 in finish()
            self.setup_frames.append((boxed, [h.raw.data.copy() for h in heads]))
        xr, yr = checks.canvas_in_source(tf, self.g.input_shape[0])
        return checks.detections(dets, xr, yr)

    def finish(self) -> list[str]:
        g64 = self._load().astype(np.float64)
        problems = []
        for i, (boxed, heads32) in enumerate(self.setup_frames):
            ref = netdef.forward(g64, nn.Tensor(boxed[None].astype(np.float64)))
            problems += [f"set-up frame {i}: {p}" for p in
                         checks.heads_match(heads32, [h.raw.data for h in ref])]
        return problems

    def probe_input(self):
        return self.g, nn.Tensor(self.setup_frames[0][0][None])

    def report(self) -> dict:
        lo, hi = self.CANDIDATE_BAND
        c = self.candidates
        return {"candidates_min": min(c), "candidates_max": max(c),
                "frames_outside_band": sum(not lo <= n <= hi for n in c)}

    def close(self) -> None:
        pass


class TrainToy:
    """SGD steps of batch 8 on the seeded 64 px shapes task."""

    name = "train-toy"
    tail_pct = 90                  # ~550 steps in 40 s: 55 beyond p90
    LOSS_WINDOW = 20

    # the scenario (data, anchors, initial weights) is fixed, as in the
    # toy trainer's default; the seed picks the order batches are drawn in
    SCENARIO_SEED = 0

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.sc = training.ToyScenario(seed=self.SCENARIO_SEED)
        self.losses: list[float] = []
        self.g = None

    def setup(self) -> None:
        sc = self.sc
        train_set = training.generate_toy_dataset(sc.seed * 1000 + 1, sc.train_images,
                                                  sc.img_size, sc.num_classes)
        wh = [(b.w, b.h) for _, gts in train_set for b, _ in gts]
        priors = anchors.kmeans_anchors(wh, k=3 * sc.anchors_per_scale, seed=sc.seed,
                                        input_size=sc.img_size)
        g = netdef.parse_config(training.toy_config(sc.num_classes, sc.anchors_per_scale,
                                                    sc.width, sc.img_size))
        g.attach_detection_meta(sc.num_classes, priors, sc.anchors_per_scale)
        g.init_random(sc.seed)
        _set_objectness_bias(g, sc.num_classes, sc.anchors_per_scale, -4.0)
        grids = g.head_grids()
        self.targets = [training.assign_targets(gts, priors, grids,
                                                (sc.img_size, sc.img_size),
                                                sc.num_classes, sc.lambda_noobj)
                        for _, gts in train_set]
        self.images = np.stack([img for img, _ in train_set])
        self.rng = np.random.default_rng(self.seed)
        self.opt = training.OptimizerConfig(eta=sc.eta)
        self.g = g
        self.losses = []

    def graphs(self):
        return [self.g]

    def next_input(self):
        idx = self.rng.choice(len(self.targets), size=self.sc.batch_size, replace=False)
        return nn.Tensor(self.images[idx]), [self.targets[i] for i in idx]

    def op(self, inp):
        batch, targets = inp
        self.g, report = training.backward_and_step(self.g, batch, targets, self.opt)
        return report

    def check(self, inp, report, first: bool) -> list[str]:
        self.losses.append(report.loss_total)
        if not math.isfinite(report.loss_total):
            return [f"loss {report.loss_total} is not finite"]
        return []

    def finish(self) -> list[str]:
        return checks.loss_falls(self.losses, self.LOSS_WINDOW)

    def probe_input(self):
        return None

    def report(self) -> dict:
        return {"step0_loss": self.losses[0],
                "final_window_loss": sum(self.losses[-self.LOSS_WINDOW:])
                / min(self.LOSS_WINDOW, len(self.losses))}

    def close(self) -> None:
        pass


class RecordingTransport(live.Transport):
    """The edge's end of the link; records each reply and when it came."""

    def __init__(self, sock):
        super().__init__(sock)
        self.replies: list[tuple[int, int]] = []
        self.sent_at = 0.0
        self.wait_s = 0.0

    def send(self, msg) -> None:
        self.sent_at = time.perf_counter()
        super().send(msg)

    def recv(self):
        t0 = time.perf_counter()
        msg = super().recv()
        self.wait_s += time.perf_counter() - t0
        if msg is not None:
            self.replies.append((msg.msg_type, msg.version))
        return msg


class EdgeCloudLoopback:
    """Live edge and cloud roles over one TCP connection on 127.0.0.1.

    A session is RETRAIN_EVERY uploads, the last one answered with a weight
    push that the edge verifies and applies. Then both roles restart from
    demo_setup on a fresh connection (untimed), so every run does the same
    work per upload however far fine-tuning would have got in its time.
    """

    name = "edge-cloud-loopback"
    tail_pct = 90                  # ~130 uploads in 40 s: 13 beyond p90
    MODEL_SEED = 0
    RETRAIN_EVERY = 5              # CLI defaults of the cloud role
    RETRAIN_STEPS = 3
    SESSION_UPLOADS = RETRAIN_EVERY
    JOIN_TIMEOUT_S = 60.0

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.listener = None
        self.server = None
        self.transport = None
        self.session = 0
        self.push_rtt_s: list[float] = []
        self.reply_wait_s: list[float] = []
        self.pushes = 0
        self.pushes_applied = 0
        self.session_problems: list[str] = []

    def setup(self) -> None:
        self.close()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.session = 0
        self._start_session()

    def _start_session(self) -> None:
        # both roles start from the CLI's default model; the seed picks frames
        edge_graph, sc = live.demo_setup(self.MODEL_SEED)
        cloud_graph, _ = live.demo_setup(self.MODEL_SEED)
        self.sc = sc
        self.edge = live.EdgeNode(edge_graph)
        self.cloud = live.CloudNode(cloud_graph, retrain_every=self.RETRAIN_EVERY,
                                    retrain_steps=self.RETRAIN_STEPS)
        frame_seed = int(np.random.SeedSequence([self.seed, self.session])
                         .generate_state(1)[0])
        self.frames = training.generate_toy_dataset(frame_seed, self.SESSION_UPLOADS,
                                                    sc.img_size, sc.num_classes)
        self.uploads = 0
        # daemon only so a wedged cloud cannot hold the process open; it is
        # always joined in _end_session
        self.server = threading.Thread(target=self._serve, args=(self.cloud,),
                                       name="cloud", daemon=True)
        self.server.start()
        conn = socket.create_connection(self.listener.getsockname()[:2],
                                        timeout=self.JOIN_TIMEOUT_S)
        self.transport = RecordingTransport(conn)

    def _serve(self, cloud) -> None:
        self.listener.settimeout(self.JOIN_TIMEOUT_S)
        conn, _ = self.listener.accept()
        conn.settimeout(None)
        transport = live.Transport(conn)
        try:
            cloud.serve(transport)
        finally:
            transport.close()

    def _end_session(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        if self.server is not None:
            self.server.join(self.JOIN_TIMEOUT_S)
            alive = self.server.is_alive()
            self.server = None
            if alive:
                raise RuntimeError("cloud role did not stop after the edge hung up")
            if self.edge.version != self.cloud.version:
                self.session_problems.append(
                    f"session {self.session}: edge ended at version "
                    f"{self.edge.version}, cloud at {self.cloud.version}")
        self.session += 1

    def graphs(self):
        return [self.edge.graph]

    def next_input(self):
        if self.uploads == self.SESSION_UPLOADS:
            self._end_session()
            self._start_session()
        frame = self.frames[self.uploads]
        self.uploads += 1
        return frame

    def op(self, frame):
        t = self.transport
        before = len(t.replies)
        waited = t.wait_s
        dets = self.edge.run_session(t, [frame])[0]
        rtt = time.perf_counter() - t.sent_at
        return dets, t.replies[before:], t.wait_s - waited, rtt

    def check(self, frame, out, first: bool) -> list[str]:
        dets, replies, waited, rtt = out
        if not first:
            self.reply_wait_s.append(waited)
        if len(replies) != 1:
            return [f"{len(replies)} replies to one upload"]
        kind, version = replies[0]
        problems = []
        if kind == protocol.WEIGHT_PUSH:
            self.pushes += 1
            if not first:
                self.push_rtt_s.append(rtt)
            if self.edge.version == version:
                self.pushes_applied += 1
            else:
                problems.append(f"push of version {version} not applied "
                                f"(edge at {self.edge.version})")
        elif kind != protocol.ACK:
            problems.append(f"upload answered with message type {kind}")
        size = float(self.sc.img_size)
        return problems + checks.detections(dets, (0.0, size), (0.0, size))

    def finish(self) -> list[str]:
        self._end_session()
        return self.session_problems

    def probe_input(self):
        img = self.frames[0][0]
        return self.edge.graph, nn.Tensor(img[None])

    def report(self) -> dict:
        return {"pushes": self.pushes, "pushes_applied": self.pushes_applied,
                "sessions": self.session}

    def close(self) -> None:
        if self.server is not None or self.transport is not None:
            self._end_session()
        if self.listener is not None:
            self.listener.close()
            self.listener = None


WORKLOADS = {w.name: w for w in (Detect416, TrainToy, EdgeCloudLoopback)}
