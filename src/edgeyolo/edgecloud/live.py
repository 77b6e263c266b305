"""Live edge/cloud cooperation over a byte stream.

Each side is a single-threaded state machine owning all of its mutable
state; the transport is a strict request/reply alternation. The edge
detects its frames locally, uploads each one, and gets back either an ACK
or a WEIGHT_PUSH carrying a full weight blob. The cloud fine-tunes on every
`retrain_every` uploads it accepts, then drops them and bumps its version.

FRAME_UPLOAD payload: u16 height, u16 width, u8 channels, u16 gt count,
then h*w*c bytes of u8 pixels, then per gt (4 x f32 box, u32 class),
little-endian. Demo frames carry their programmatic labels with them.
"""

from __future__ import annotations

import io
import socket
import struct

import numpy as np

from .. import nn
from ..netdef import NetGraph, WeightsError, load_weights, save_weights
from ..postprocess import Box, Detection
from ..training import (TOY_ANCHOR_IOU, OptimizerConfig, TargetAssignment,
                        ToyScenario, assign_targets, backward_and_step,
                        detect_image, generate_toy_dataset, toy_graph)
from . import protocol
from .protocol import Message

_FRAME_HEAD = struct.Struct("<HHBH")
_GT = struct.Struct("<ffffI")   # cx, cy, w, h, class


class MalformedUploadError(protocol.ProtocolError):
    """A FRAME_UPLOAD payload whose size does not match its own header."""


def pack_frame(img: np.ndarray, gts: list[tuple[Box, int]]) -> bytes:
    """img is float CHW in [0,1]; quantized to u8 for the wire."""
    c, h, w = img.shape
    u8 = np.clip(img * 255.0 + 0.5, 0, 255).astype(np.uint8)
    parts = [_FRAME_HEAD.pack(h, w, c, len(gts)), u8.tobytes()]
    parts += [_GT.pack(b.cx, b.cy, b.w, b.h, cls) for b, cls in gts]
    return b"".join(parts)


def unpack_frame(payload: bytes) -> tuple[np.ndarray, list[tuple[Box, int]]]:
    if len(payload) < _FRAME_HEAD.size:
        raise MalformedUploadError(f"{len(payload)}-byte upload is shorter than "
                                   f"its {_FRAME_HEAD.size}-byte header")
    h, w, c, n_gt = _FRAME_HEAD.unpack_from(payload, 0)
    want = _FRAME_HEAD.size + h * w * c + n_gt * _GT.size
    if len(payload) != want:
        raise MalformedUploadError(f"a {h}x{w}x{c} upload with {n_gt} boxes takes "
                                   f"{want} bytes, got {len(payload)}")
    off = _FRAME_HEAD.size
    pixels = np.frombuffer(payload, dtype=np.uint8, count=h * w * c, offset=off)
    img = pixels.reshape(c, h, w).astype(np.float32) / 255.0
    off += h * w * c
    gts = []
    for _ in range(n_gt):
        cx, cy, bw, bh, cls = _GT.unpack_from(payload, off)
        off += _GT.size
        gts.append((Box(cx, cy, bw, bh), int(cls)))
    return img, gts


class Transport:
    """Framed messages over a connected socket (or socket-like pair)."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._reader = sock.makefile("rb")

    def send(self, msg: Message) -> None:
        self._sock.sendall(protocol.encode_message(msg))

    def recv(self) -> Message | None:
        return protocol.read_message(self._reader)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


class EdgeNode:
    """Runs local detection, uploads frames, applies pushed weights."""

    def __init__(self, graph: NetGraph):
        self.graph = graph
        self.version = 1
        self.log: list[str] = []

    def handle_push(self, msg: Message) -> bool:
        """Validate and atomically apply a WEIGHT_PUSH; reject regressions."""
        if msg.version <= self.version:
            self.log.append(f"rejected push: version {msg.version} "
                            f"<= current {self.version}")
            return False
        try:
            load_weights(self.graph, msg.payload)     # all layers or none
        except WeightsError as err:
            self.log.append(f"rejected push: {err}")
            return False
        self.version = msg.version
        self.log.append(f"applied push: now at version {self.version}")
        return True

    def run_session(self, transport: Transport,
                    frames: list[tuple[np.ndarray, list[tuple[Box, int]]]]
                    ) -> list[list[Detection]]:
        """Detect and upload every frame; returns the local detections."""
        results = []
        for img, gts in frames:
            results.append(detect_image(self.graph, img,
                                        ToyScenario.decode_floor))
            transport.send(Message(protocol.FRAME_UPLOAD, self.version,
                                   pack_frame(img, gts)))
            reply = transport.recv()
            if reply is None:
                self.log.append("cloud hung up mid-session")
                break
            if reply.msg_type == protocol.WEIGHT_PUSH:
                self.handle_push(reply)
            elif reply.msg_type != protocol.ACK:
                self.log.append(f"unexpected reply type {reply.msg_type}")
        return results


class CloudNode:
    """Fine-tunes on every `retrain_every` accepted uploads, then drops them."""

    def __init__(self, graph: NetGraph, retrain_every: int = 5,
                 retrain_steps: int = 3):
        if retrain_every < 1:
            raise ValueError(f"retrain_every must be >= 1, got {retrain_every}")
        if retrain_steps < 1:
            raise ValueError(f"retrain_steps must be >= 1, got {retrain_steps}")
        self.graph = graph
        self.version = 1
        self.retrain_every = retrain_every
        self.retrain_steps = retrain_steps
        self.opt = OptimizerConfig(eta=5e-4)
        self.uploads = 0                # accepted since the node started
        self.pending: list[tuple[np.ndarray, TargetAssignment]] = []
        self.log: list[str] = []

    def _retrain(self) -> None:
        usable = [(img, ta) for img, ta in self.pending if ta.n_positive]
        self.pending = []
        if not usable:
            return
        imgs, targets = zip(*usable)
        batch = nn.Tensor(np.stack(imgs))
        for _ in range(self.retrain_steps):
            backward_and_step(self.graph, batch, targets, self.opt)
        self.version += 1
        self.log.append(f"retrained on {len(usable)} frames -> "
                        f"version {self.version}")

    def _check_upload(self, img: np.ndarray, gts: list[tuple[Box, int]]
                      ) -> TargetAssignment:
        """The frame's training targets; ValueError unless _retrain can use it."""
        w, h, c = self.graph.input_shape
        if img.shape != (c, h, w):
            raise ValueError(f"frame shape {img.shape} is not the model's {(c, h, w)}")
        if not np.all(np.isfinite([(b.cx, b.cy, b.w, b.h) for b, _ in gts])):
            raise ValueError("a box has a non-finite coordinate")
        # class range, positive extents, centers on the canvas, free slots
        return assign_targets(gts, self.graph.anchors, self.graph.head_grids(),
                              (w, h), self.graph.num_classes,
                              iou_thresh=TOY_ANCHOR_IOU)

    def handle(self, msg: Message) -> Message:
        if msg.msg_type == protocol.FRAME_UPLOAD:
            try:
                img, gts = unpack_frame(msg.payload)
                targets = self._check_upload(img, gts)
            except ValueError as err:       # MalformedUploadError included
                # still answered, so the request/reply alternation holds
                self.log.append(f"rejected upload: {err}")
                return Message(protocol.ACK, self.version)
            self.uploads += 1
            self.pending.append((img, targets))
            if len(self.pending) == self.retrain_every:
                before = self.version
                self._retrain()
                if self.version != before:
                    blob = io.BytesIO()
                    save_weights(self.graph, blob)
                    return Message(protocol.WEIGHT_PUSH, self.version,
                                   blob.getvalue())
            return Message(protocol.ACK, self.version)
        self.log.append(f"ignoring message type {msg.msg_type}")
        return Message(protocol.ACK, self.version)

    def serve(self, transport: Transport) -> None:
        while True:
            try:
                msg = transport.recv()
            except (protocol.BadMagicError, protocol.OversizeFrameError,
                    protocol.TruncatedFrameError) as err:
                # frame boundaries are lost, or the stream ended inside a
                # frame: nothing after this can be trusted or answered
                self.log.append(f"closing desynchronised stream: {err}")
                return
            except protocol.ProtocolError as err:
                # a whole frame with a bad checksum or type: still answered,
                # so the request/reply alternation holds
                self.log.append(f"dropping bad frame: {err}")
                transport.send(Message(protocol.ACK, self.version))
                continue
            if msg is None:
                return
            transport.send(self.handle(msg))


def demo_setup(seed: int = 0) -> tuple[NetGraph, ToyScenario]:
    """A deterministic slim graph both roles can reconstruct from the seed."""
    sc = ToyScenario(seed=seed)
    sample = generate_toy_dataset(seed * 1000 + 1, 64, sc.img_size, sc.num_classes)
    return toy_graph(sc, sample), sc


def run_loopback() -> tuple[EdgeNode, CloudNode, list]:
    """Ten seed-0 frames from an edge to a cloud that fine-tunes (two steps)
    on every five, through an in-process socket pair."""
    import threading

    edge_graph, sc = demo_setup(0)
    cloud_graph, _ = demo_setup(0)
    edge = EdgeNode(edge_graph)
    cloud = CloudNode(cloud_graph, retrain_every=5, retrain_steps=2)
    frames = generate_toy_dataset(5, 10, sc.img_size, sc.num_classes)
    a, b = socket.socketpair()
    edge_t, cloud_t = Transport(a), Transport(b)
    server = threading.Thread(target=cloud.serve, args=(cloud_t,), daemon=True)
    server.start()
    try:
        detections = edge.run_session(edge_t, frames)
    finally:
        edge_t.close()
        server.join(timeout=30)
        cloud_t.close()
    return edge, cloud, detections
