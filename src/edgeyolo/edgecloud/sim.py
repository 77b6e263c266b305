"""Discrete-event model of the two offloading strategies.

CLOUD path: every captured frame crosses a serialized uplink, is inferred on
the cloud GPU, and the result returns over the downlink; per-frame delay is
capture-to-result. The three are FIFO servers in a row, each serving one
job at a time while the rest wait. Because a raw frame takes longer to
transmit than the capture interval, the uplink queue grows without bound
and so does delay.

ECC path: frames are detected on the device at a fixed latency, so delay is
flat; captured frames also queue for background upload, which only runs
during the IDLE part of a duty cycle. The cloud periodically retrains on
the uploaded frames and pushes fresh weights back, bumping the edge model
version. Each ECC link carries one transfer at a time by construction (one
upload in flight; no retrain until the last push has landed), so a transfer
is a timer, not a queue.

The event loop is single-threaded and seeded; runs are bit-reproducible.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import math
import numbers
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

XAVIER_INFER_S = 1.0 / 26.6     # ~37.6 ms per frame
NANO_INFER_S = 1.0 / 11.4       # ~87.7 ms per frame

EDGE_PROFILES = {"xavier": XAVIER_INFER_S, "nano": NANO_INFER_S}

# the modelled workload; a run varies only the link and the edge latency
CAPTURE_FPS = 30.0
FRAME_BYTES = 416 * 416 * 3             # raw frame on the wire
RESULT_BYTES = 1024
CLOUD_INFER_S = 0.004
CLOUD_RETRAIN_S = 2.0
RETRAIN_INTERVAL_S = 5.0
WEIGHT_BYTES = 1_000_000
DUTY_PERIOD_S = 1.0
ACTIVE_FRAC = 0.8                       # uploads run in the rest of each period


@dataclass(frozen=True)
class NetworkModel:
    """Link parameters shared by both paths."""

    uplink_bps: float = 61.4e6
    downlink_bps: float = 20.35e6
    rtt_s: float = 0.014
    loss_rate: float = 0.0
    jitter_max_s: float = 0.0

    def __post_init__(self):
        # written so that NaN fails each test
        if not (0.0 < self.uplink_bps < math.inf and 0.0 < self.downlink_bps < math.inf):
            raise ValueError("uplink_bps and downlink_bps must be positive and finite, "
                             f"got {self.uplink_bps} and {self.downlink_bps}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0,1), got {self.loss_rate}")
        if not (0.0 <= self.rtt_s < math.inf and 0.0 <= self.jitter_max_s < math.inf):
            raise ValueError("rtt_s and jitter_max_s must be finite and >= 0, "
                             f"got {self.rtt_s} and {self.jitter_max_s}")


@dataclass(frozen=True)
class Scenario:
    path: str = "ecc"                       # "ecc" or "cloud"
    n_frames: int = 300
    edge_infer_s: float = XAVIER_INFER_S
    net: NetworkModel = field(default_factory=NetworkModel)
    seed: int = 0

    def __post_init__(self):
        if self.path not in ("ecc", "cloud"):
            raise ValueError(f"path must be 'ecc' or 'cloud', got {self.path!r}")
        # the type test fails NaN and 2.5 alike; range() takes only an integer
        if not (isinstance(self.n_frames, numbers.Integral) and self.n_frames >= 1):
            raise ValueError(f"n_frames must be a positive integer, got {self.n_frames!r}")
        if not 0.0 <= self.edge_infer_s < math.inf:
            raise ValueError(f"edge_infer_s must be finite and >= 0, got {self.edge_infer_s}")


@dataclass(frozen=True)
class TraceEvent:
    time_s: float
    node: str
    event: str
    frame_id: int | None = None
    delay_s: float | None = None


@dataclass
class SimResult:
    scenario: Scenario
    events: tuple[TraceEvent, ...]
    delays: tuple[float, ...]               # per frame, indexed by frame id
    uploaded_frames: int                    # frames whose upload reached the cloud
    final_model_version: int

    def prefix_mean_delays(self) -> list[float]:
        """mean(delays[:n]) for n = 1..N; the delay-vs-upload-count curve."""
        return [acc / n for n, acc in enumerate(itertools.accumulate(self.delays), start=1)]

    def mean_delay(self) -> float:
        return sum(self.delays) / len(self.delays)

    def to_csv(self) -> str:
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["time_s", "node", "event", "frame_id", "delay_s"])
        for ev in self.events:
            wr.writerow([f"{ev.time_s:.9f}", ev.node, ev.event,
                         "" if ev.frame_id is None else ev.frame_id,
                         "" if ev.delay_s is None else f"{ev.delay_s:.9f}"])
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


class _EventLoop:
    """Deterministic heapq scheduler; FIFO among same-time events."""

    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0

    def at(self, time_s: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (time_s, self._seq, fn))
        self._seq += 1

    def run(self) -> None:
        while self._heap:
            time_s, _, fn = heapq.heappop(self._heap)
            self.now = time_s
            fn()


class _FifoLink:
    """Single-server queue: one transfer (or job) in flight at a time, the rest wait."""

    def __init__(self, loop: _EventLoop):
        self._loop = loop
        self._queue: deque[tuple[float, Callable, Callable]] = deque()
        self._busy = False

    def submit(self, service_s: float, on_start: Callable,
               on_done: Callable) -> None:
        self._queue.append((service_s, on_start, on_done))
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        service_s, on_start, on_done = self._queue.popleft()
        self._busy = True
        on_start()

        def finish():
            self._busy = False
            on_done()
            self._pump()

        self._loop.at(self._loop.now + service_s, finish)


def run_sim(sc: Scenario) -> SimResult:
    loop = _EventLoop()
    rng = random.Random(sc.seed)
    events: list[TraceEvent] = []
    delays: dict[int, float] = {}
    state = {"uploaded": 0, "version": 1, "retrained_at": 0, "retraining": False,
             "uploading": False}
    interval = 1.0 / CAPTURE_FPS
    # Every capture is scheduled before any other event and same-time events
    # run in insertion order, so at loop.now every capture up to loop.now has
    # run: one is still to come exactly while loop.now < last_capture_t.
    last_capture_t = (sc.n_frames - 1) * interval

    def log(node: str, event: str, frame_id: int | None = None,
            delay_s: float | None = None) -> None:
        events.append(TraceEvent(loop.now, node, event, frame_id, delay_s))

    def hop(fn: Callable[[], None]) -> None:
        """Run fn after one-way propagation: half the RTT plus jitter."""
        jitter = rng.uniform(0.0, sc.net.jitter_max_s) if sc.net.jitter_max_s > 0 else 0.0
        loop.at(loop.now + (sc.net.rtt_s / 2.0 + jitter), fn)

    def upload_end(i: int) -> None:
        state["uploaded"] += 1
        log("cloud", "upload_end", i)

    up_tx = FRAME_BYTES * 8.0 / sc.net.uplink_bps
    down_tx = RESULT_BYTES * 8.0 / sc.net.downlink_bps
    weight_tx = WEIGHT_BYTES * 8.0 / sc.net.downlink_bps

    # ---------------- CLOUD path ----------------

    uplink = _FifoLink(loop)
    cloud_gpu = _FifoLink(loop)
    downlink = _FifoLink(loop)

    def cloud_capture(i: int) -> None:
        log("edge", "capture", i)
        send_frame(i, loop.now)

    def send_frame(i: int, capture_t: float) -> None:
        uplink.submit(up_tx, lambda: log("edge", "upload_start", i),
                      lambda: frame_sent(i, capture_t))

    def frame_sent(i: int, capture_t: float) -> None:
        if sc.net.loss_rate > 0 and rng.random() < sc.net.loss_rate:
            log("edge", "upload_lost", i)
            send_frame(i, capture_t)         # retransmit; the frame is never dropped
        else:
            hop(lambda: cloud_arrival(i, capture_t))

    def cloud_arrival(i: int, capture_t: float) -> None:
        upload_end(i)
        cloud_gpu.submit(CLOUD_INFER_S, lambda: log("cloud", "infer_start", i),
                         lambda: send_result(i, capture_t))

    def send_result(i: int, capture_t: float) -> None:
        log("cloud", "infer_end", i)
        downlink.submit(down_tx, lambda: log("cloud", "result_start", i),
                        lambda: hop(lambda: result_end(i, capture_t)))

    def result_end(i: int, capture_t: float) -> None:
        delays[i] = loop.now - capture_t
        log("edge", "result_end", i, delays[i])

    # ---------------- ECC path ----------------

    upload_queue: deque[int] = deque()
    active_len = DUTY_PERIOD_S * ACTIVE_FRAC

    def ecc_capture(i: int) -> None:
        log("edge", "capture", i)
        log("edge", "infer_start", i)
        loop.at(loop.now + sc.edge_infer_s, lambda: infer_end(i))
        upload_queue.append(i)
        pump_uploads()

    def infer_end(i: int) -> None:
        delays[i] = sc.edge_infer_s
        log("edge", "infer_end", i, sc.edge_infer_s)

    def pump_uploads() -> None:
        # uploads only start inside an idle window and run one at a time
        if state["uploading"] or not upload_queue or \
                loop.now % DUTY_PERIOD_S < active_len - 1e-12:
            return
        i = upload_queue.popleft()
        state["uploading"] = True
        log("edge", "upload_start", i)
        loop.at(loop.now + up_tx, lambda: upload_sent(i))

    def upload_sent(i: int) -> None:
        hop(lambda: upload_end(i))
        state["uploading"] = False
        pump_uploads()

    def uploads_left() -> bool:
        return bool(upload_queue) or state["uploading"] or loop.now < last_capture_t

    def idle_start(k: int) -> None:
        log("edge", "mode_idle")
        pump_uploads()
        if uploads_left():
            loop.at((k + 1) * DUTY_PERIOD_S, lambda: active_start(k + 1))

    def active_start(k: int) -> None:
        log("edge", "mode_active")
        loop.at(k * DUTY_PERIOD_S + active_len, lambda: idle_start(k))

    def retrain_check(k: int) -> None:
        fresh = state["uploaded"] - state["retrained_at"]
        work_left = uploads_left() or fresh > 0
        if fresh > 0 and not state["retraining"]:
            state["retraining"] = True
            state["retrained_at"] = state["uploaded"]
            log("cloud", "retrain_start")
            loop.at(loop.now + CLOUD_RETRAIN_S, retrain_end)
        if work_left:
            loop.at((k + 1) * RETRAIN_INTERVAL_S, lambda: retrain_check(k + 1))

    def retrain_end() -> None:
        # the next retrain waits for this push's swap: one push at a time
        log("cloud", "retrain_end")
        log("cloud", "push_start")
        loop.at(loop.now + weight_tx, lambda: hop(model_swap))

    def model_swap() -> None:
        state["version"] += 1
        state["retraining"] = False
        log("edge", "model_swap")

    # ---------------- wiring ----------------

    capture = cloud_capture if sc.path == "cloud" else ecc_capture
    for i in range(sc.n_frames):
        loop.at(i * interval, lambda i=i: capture(i))
    if sc.path == "ecc":
        log("edge", "mode_active")
        loop.at(active_len, lambda: idle_start(0))
        loop.at(RETRAIN_INTERVAL_S, lambda: retrain_check(1))

    loop.run()

    if len(delays) != sc.n_frames:
        raise RuntimeError(f"conservation violated: {len(delays)} delays "
                           f"for {sc.n_frames} frames")
    times = [ev.time_s for ev in events]
    if any(b < a for a, b in zip(times, times[1:])):
        raise RuntimeError("event log is not time-ordered")
    return SimResult(sc, tuple(events),
                     tuple(delays[i] for i in range(sc.n_frames)),
                     state["uploaded"], state["version"])


def crossover_frame(cloud: SimResult, ecc: SimResult) -> int | None:
    """Smallest frame count at which CLOUD's mean delay exceeds ECC's.

    Returns a 1-based count, or None if CLOUD stays at or below ECC for the
    whole run.
    """
    ecc_means = ecc.prefix_mean_delays()
    for n, mean in enumerate(cloud.prefix_mean_delays(), start=1):
        if mean > ecc_means[min(n, len(ecc_means)) - 1]:
            return n
    return None
