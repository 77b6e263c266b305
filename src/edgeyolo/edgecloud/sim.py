"""Discrete-event model of the two offloading strategies.

CLOUD path: every captured frame crosses a serialized uplink, is inferred on
the cloud GPU, and the result returns over the downlink; per-frame delay is
capture-to-result. Because a raw frame takes longer to transmit than the
capture interval, the uplink queue grows without bound and so does delay.

ECC path: frames are detected on the device at a fixed latency, so delay is
flat; captured frames also queue for background upload, which only runs
during the IDLE part of a duty cycle. The cloud periodically retrains on
the uploaded frames and pushes fresh weights back, bumping the edge model
version.

The event loop is single-threaded and seeded; runs are bit-reproducible.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
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
        if self.n_frames < 1:
            raise ValueError("need at least one frame")
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
        out, acc = [], 0.0
        for i, d in enumerate(self.delays, start=1):
            acc += d
            out.append(acc / i)
        return out

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
    """Single-server queue: one transfer (or job) in flight at a time."""

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
             "captured": 0}

    def log(node: str, event: str, frame_id: int | None = None,
            delay_s: float | None = None) -> None:
        events.append(TraceEvent(loop.now, node, event, frame_id, delay_s))

    def one_way() -> float:
        jitter = rng.uniform(0.0, sc.net.jitter_max_s) if sc.net.jitter_max_s > 0 else 0.0
        return sc.net.rtt_s / 2.0 + jitter

    uplink = _FifoLink(loop)
    downlink = _FifoLink(loop)
    cloud_gpu = _FifoLink(loop)
    up_tx = FRAME_BYTES * 8.0 / sc.net.uplink_bps
    down_tx = RESULT_BYTES * 8.0 / sc.net.downlink_bps
    weight_tx = WEIGHT_BYTES * 8.0 / sc.net.downlink_bps

    # ---------------- CLOUD path ----------------

    def cloud_capture(i: int, capture_t: float):
        def handler():
            log("edge", "capture", i)
            send_frame(i, capture_t)
        return handler

    def send_frame(i: int, capture_t: float) -> None:
        def started():
            log("edge", "upload_start", i)

        def done():
            if sc.net.loss_rate > 0 and rng.random() < sc.net.loss_rate:
                log("edge", "upload_lost", i)
                send_frame(i, capture_t)     # retransmit; the frame is never dropped
                return
            arrive_at = loop.now + one_way()
            loop.at(arrive_at, lambda: cloud_arrival(i, capture_t))

        uplink.submit(up_tx, started, done)

    def cloud_arrival(i: int, capture_t: float) -> None:
        state["uploaded"] += 1
        log("cloud", "upload_end", i)
        cloud_gpu.submit(CLOUD_INFER_S,
                         lambda: log("cloud", "infer_start", i),
                         lambda: send_result(i, capture_t))

    def send_result(i: int, capture_t: float) -> None:
        log("cloud", "infer_end", i)

        def done():
            deliver_at = loop.now + one_way()

            def delivered():
                delays[i] = loop.now - capture_t
                log("edge", "result_end", i, delays[i])

            loop.at(deliver_at, delivered)

        downlink.submit(down_tx, lambda: log("cloud", "result_start", i), done)

    # ---------------- ECC path ----------------

    upload_queue: deque[int] = deque()
    active_len = DUTY_PERIOD_S * ACTIVE_FRAC

    def is_idle(t: float) -> bool:
        return (t % DUTY_PERIOD_S) >= active_len - 1e-12

    def ecc_capture(i: int, capture_t: float):
        def handler():
            log("edge", "capture", i)
            log("edge", "infer_start", i)

            def inferred():
                delays[i] = sc.edge_infer_s
                log("edge", "infer_end", i, sc.edge_infer_s)

            loop.at(capture_t + sc.edge_infer_s, inferred)
            upload_queue.append(i)
            pump_uploads()
        return handler

    uploading = {"busy": False}

    def pump_uploads() -> None:
        # uploads only start inside an idle window and run one at a time
        if uploading["busy"] or not upload_queue or not is_idle(loop.now):
            return
        i = upload_queue.popleft()
        uploading["busy"] = True

        def done():
            arrive_at = loop.now + one_way()

            def arrived():
                state["uploaded"] += 1
                log("cloud", "upload_end", i)

            loop.at(arrive_at, arrived)
            uploading["busy"] = False
            pump_uploads()

        uplink.submit(up_tx, lambda: log("edge", "upload_start", i), done)

    def schedule_windows() -> None:
        # lazily emit duty-cycle boundaries while upload work remains
        def idle_start(k: int):
            def handler():
                log("edge", "mode_idle")
                pump_uploads()
                if upload_queue or uploading["busy"] or \
                        state["captured"] < sc.n_frames:
                    loop.at((k + 1) * DUTY_PERIOD_S, active_start(k + 1))
            return handler

        def active_start(k: int):
            def handler():
                log("edge", "mode_active")
                loop.at(k * DUTY_PERIOD_S + active_len, idle_start(k))
            return handler

        log("edge", "mode_active")
        loop.at(active_len, idle_start(0))

    def schedule_retrain_checks() -> None:
        def check(k: int):
            def handler():
                fresh = state["uploaded"] - state["retrained_at"]
                work_left = (upload_queue or uploading["busy"]
                             or state["captured"] < sc.n_frames or fresh > 0)
                if fresh > 0 and not state["retraining"]:
                    state["retraining"] = True
                    state["retrained_at"] = state["uploaded"]
                    log("cloud", "retrain_start")
                    loop.at(loop.now + CLOUD_RETRAIN_S, retrain_done)
                if work_left:
                    loop.at((k + 1) * RETRAIN_INTERVAL_S, check(k + 1))
            return handler

        def retrain_done():
            log("cloud", "retrain_end")

            def push_delivered():
                state["version"] += 1
                state["retraining"] = False
                log("edge", "model_swap")

            def tx_done():
                loop.at(loop.now + one_way(), push_delivered)

            downlink.submit(weight_tx, lambda: log("cloud", "push_start"), tx_done)

        loop.at(RETRAIN_INTERVAL_S, check(1))

    # ---------------- wiring ----------------

    interval = 1.0 / CAPTURE_FPS
    for i in range(sc.n_frames):
        t = i * interval
        handler = cloud_capture(i, t) if sc.path == "cloud" else ecc_capture(i, t)

        def counted(h=handler):
            state["captured"] += 1
            h()

        loop.at(t, counted)
    if sc.path == "ecc":
        schedule_windows()
        schedule_retrain_checks()

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
