"""Wire protocol round trips, the offloading simulator, and the live loop."""

import hashlib
import io
import math
import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from edgeyolo import training
from edgeyolo.edgecloud import live, protocol, sim
from edgeyolo.edgecloud.protocol import (ACK, FRAME_UPLOAD, MAX_PAYLOAD,
                                         WEIGHT_PUSH, BadMagicError,
                                         ChecksumError, Message,
                                         OversizeFrameError, ProtocolError,
                                         TruncatedFrameError,
                                         UnknownTypeError, decode_message,
                                         encode_message, read_message)
from edgeyolo.postprocess import Box


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def test_round_trip_1000_random_messages(rng):
    types = [FRAME_UPLOAD, WEIGHT_PUSH, ACK]
    for trial in range(1000):
        msg = Message(types[int(rng.integers(0, 3))],
                      int(rng.integers(0, 2**32)),
                      rng.bytes(int(rng.integers(0, 200))))
        back = decode_message(encode_message(msg))
        assert back == msg, trial


def test_empty_payload_frame_is_18_bytes():
    assert len(encode_message(Message(ACK, 0))) == 18


def test_stream_reader_round_trip(rng):
    msgs = [Message(FRAME_UPLOAD, i, rng.bytes(int(rng.integers(0, 64))))
            for i in range(20)]
    stream = io.BytesIO(b"".join(encode_message(m) for m in msgs))
    got = []
    while (m := read_message(stream)) is not None:
        got.append(m)
    assert got == msgs


def test_read_message_none_at_clean_eof():
    assert read_message(io.BytesIO(b"")) is None


def test_bad_magic():
    buf = bytearray(encode_message(Message(ACK, 1)))
    buf[:4] = b"NOPE"
    with pytest.raises(BadMagicError):
        decode_message(bytes(buf))


def test_corrupt_payload_crc():
    buf = bytearray(encode_message(Message(FRAME_UPLOAD, 1, b"hello world")))
    buf[16] ^= 0xFF      # inside the payload; the 14-byte header ends before it
    with pytest.raises(ChecksumError):
        decode_message(bytes(buf))


def test_truncated_frame():
    whole = encode_message(Message(FRAME_UPLOAD, 1, b"payload bytes"))
    with pytest.raises(TruncatedFrameError):
        decode_message(whole[:-3])
    with pytest.raises(TruncatedFrameError):
        decode_message(whole[:6])


def test_trailing_garbage_rejected():
    whole = encode_message(Message(ACK, 1))
    with pytest.raises(ProtocolError):
        decode_message(whole + b"x")


def test_unknown_type_rejected():
    # 2 and 3 were reserved for a cloud-only detect path that no role sends
    for code in (99, 2, 3):
        with pytest.raises(UnknownTypeError):
            Message(code, 0)
        # and on the wire: patch the type byte of a valid frame, fix no crc
        buf = bytearray(encode_message(Message(ACK, 1)))
        buf[4] = code
        with pytest.raises(UnknownTypeError):
            decode_message(bytes(buf))


def test_error_types_are_distinct_protocol_errors():
    kinds = (BadMagicError, ChecksumError, TruncatedFrameError, UnknownTypeError)
    for k in kinds:
        assert issubclass(k, ProtocolError)
    assert len(set(kinds)) == 4


def test_stream_mid_frame_eof():
    whole = encode_message(Message(FRAME_UPLOAD, 1, b"abcdef"))
    with pytest.raises(TruncatedFrameError):
        read_message(io.BytesIO(whole[:9]))


class _RecordingReader:
    """Serves fixed bytes and records each size asked of it; allocates
    nothing for a large request."""

    def __init__(self, data: bytes):
        self.data = data
        self.asked: list[int] = []

    def read(self, n: int) -> bytes:
        self.asked.append(n)
        chunk, self.data = self.data[:n], self.data[n:]
        return chunk


def test_forged_length_is_rejected_before_the_payload_is_read():
    def header(length):
        return struct.pack("<4sBBII", b"EYP1", ACK, 0, 1, length)

    for length in (MAX_PAYLOAD + 1, 0xFFFFFFFF):
        reader = _RecordingReader(header(length) + b"\0" * 64)
        with pytest.raises(OversizeFrameError):
            read_message(reader)
        assert max(reader.asked) <= 18           # the header, nothing more
        with pytest.raises(OversizeFrameError):
            decode_message(header(length) + b"\0" * 4)
    # at the cap itself the payload is asked for
    reader = _RecordingReader(header(MAX_PAYLOAD))
    with pytest.raises(TruncatedFrameError):
        read_message(reader)
    assert reader.asked[-1] == MAX_PAYLOAD + 4


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pair_300():
    cloud = sim.run_sim(sim.Scenario(path="cloud", n_frames=300, seed=0))
    ecc = sim.run_sim(sim.Scenario(path="ecc", n_frames=300, seed=0))
    return cloud, ecc


def test_cloud_mean_delay_strictly_increasing(pair_300):
    cloud, _ = pair_300
    means = cloud.prefix_mean_delays()
    assert all(b > a for a, b in zip(means, means[1:]))


def test_ecc_delay_constant_within_1e9(pair_300):
    _, ecc = pair_300
    assert max(ecc.delays) - min(ecc.delays) <= 1e-9
    assert ecc.delays[0] == pytest.approx(sim.XAVIER_INFER_S, abs=1e-9)


def test_ecc_nano_constant_at_profile_latency():
    r = sim.run_sim(sim.Scenario(path="ecc", n_frames=100,
                                 edge_infer_s=sim.NANO_INFER_S))
    assert max(r.delays) - min(r.delays) <= 1e-9
    assert r.delays[0] == pytest.approx(sim.NANO_INFER_S, abs=1e-9)


def test_crossover_exists_for_both_profiles(pair_300):
    cloud, ecc = pair_300
    n = sim.crossover_frame(cloud, ecc)
    assert n is not None and n >= 1

    nano = sim.run_sim(sim.Scenario(path="ecc", n_frames=300,
                                    edge_infer_s=sim.NANO_INFER_S))
    n2 = sim.crossover_frame(cloud, nano)
    assert n2 is not None and n2 >= n   # slower edge tolerates more uploads


def test_crossover_none_when_ecc_never_beaten(pair_300):
    cloud, _ = pair_300
    slow = sim.run_sim(sim.Scenario(path="ecc", n_frames=300,
                                    edge_infer_s=60.0))
    assert sim.crossover_frame(cloud, slow) is None


def test_identical_seeds_bitwise_identical_traces():
    a = sim.run_sim(sim.Scenario(path="cloud", n_frames=200, seed=42,
                                 net=sim.NetworkModel(jitter_max_s=0.01,
                                                      loss_rate=0.05)))
    b = sim.run_sim(sim.Scenario(path="cloud", n_frames=200, seed=42,
                                 net=sim.NetworkModel(jitter_max_s=0.01,
                                                      loss_rate=0.05)))
    assert a.to_csv() == b.to_csv()
    assert a.delays == b.delays


def test_different_seed_changes_jittered_trace():
    mk = lambda s: sim.run_sim(sim.Scenario(path="cloud", n_frames=100, seed=s,
                                            net=sim.NetworkModel(
                                                jitter_max_s=0.01)))
    assert mk(1).delays != mk(2).delays


def test_ecc_model_version_increments(pair_300):
    _, ecc = pair_300
    assert ecc.final_model_version > 1
    swaps = [e for e in ecc.events if e.event == "model_swap"]
    assert len(swaps) == ecc.final_model_version - 1
    # every swap is preceded by a completed retrain
    retrains = [e for e in ecc.events if e.event == "retrain_end"]
    assert len(retrains) >= len(swaps)


def test_cloud_uploads_every_frame(pair_300):
    cloud, ecc = pair_300
    assert cloud.uploaded_frames == 300
    # ECC defers uploads to idle windows but drains the whole queue eventually
    assert ecc.uploaded_frames == 300
    active_len = sim.DUTY_PERIOD_S * sim.ACTIVE_FRAC
    starts = [e.time_s for e in ecc.events
              if e.node == "edge" and e.event == "upload_start"]
    assert starts
    assert all(t % sim.DUTY_PERIOD_S >= active_len - 1e-9 for t in starts)


def test_ten_thousand_frames_under_five_seconds():
    import time
    t0 = time.time()
    r = sim.run_sim(sim.Scenario(path="cloud", n_frames=10_000))
    took = time.time() - t0
    assert len(r.delays) == 10_000
    assert took < 5.0, took


def test_delays_positive_and_cloud_above_rtt(pair_300):
    cloud, ecc = pair_300
    assert all(d > 0 for d in cloud.delays)
    assert all(d > 0 for d in ecc.delays)
    # every cloud delay includes at least propagation plus serialization
    floor = sim.Scenario().net.rtt_s
    assert all(d > floor for d in cloud.delays)


@pytest.mark.parametrize("path,digest,n_events,version", [
    ("cloud", "2066d34d978b5ae993c16a38c7a5e984d903823d35c633d8f3dbc3899e3a3f6b", 2856, 1),
    ("ecc", "aa31f30192ac36656bd2fb812c7a4d8f5df0b5c3dc1f42442403ba71347072ec", 2378, 28),
])
def test_exact_trace_on_a_jittery_lossy_link(path, digest, n_events, version):
    # pins event order, times and rng draws byte for byte, not just properties
    net = sim.NetworkModel(jitter_max_s=0.01, loss_rate=0.05)
    r = sim.run_sim(sim.Scenario(path=path, n_frames=400, seed=7, net=net))
    assert (len(r.events), r.final_model_version) == (n_events, version)
    assert hashlib.sha256(r.to_csv().encode()).hexdigest() == digest


def test_scenario_validation():
    with pytest.raises(ValueError):
        sim.Scenario(path="fog")
    for bad in (0, math.nan, 2.5):
        with pytest.raises(ValueError, match="n_frames"):
            sim.Scenario(n_frames=bad)
    with pytest.raises(ValueError):
        sim.NetworkModel(loss_rate=1.0)
    with pytest.raises(ValueError):
        sim.NetworkModel(uplink_bps=0)
    # NaN would pass a test written the other way round; inf gives inf delays
    for name in ("uplink_bps", "downlink_bps", "rtt_s", "loss_rate", "jitter_max_s"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                sim.NetworkModel(**{name: bad})
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="edge_infer_s"):
            sim.Scenario(edge_infer_s=bad)


def test_csv_trace_shape(pair_300, tmp_path):
    cloud, _ = pair_300
    p = tmp_path / "trace.csv"
    cloud.write_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "time_s,node,event,frame_id,delay_s"
    assert len(lines) > 300


# ---------------------------------------------------------------------------
# live loopback
# ---------------------------------------------------------------------------

def test_frame_payload_round_trip(rng):
    from edgeyolo.postprocess import Box
    img = rng.uniform(0, 1, size=(3, 32, 32)).astype(np.float32)
    gts = [(Box(10.0, 12.0, 8.0, 6.0), 1), (Box(20.0, 20.0, 5.0, 7.0), 0)]
    blob = live.pack_frame(img, gts)
    back_img, back_gts = live.unpack_frame(blob)
    assert back_img.shape == img.shape
    # u8 quantization: within half a step
    assert np.max(np.abs(back_img - img)) <= 0.5 / 255 + 1e-6
    assert [cls for _, cls in back_gts] == [1, 0]
    for (gb, _), (wb, _) in zip(back_gts, gts):
        # box fields travel as float32
        assert (gb.cx, gb.cy, gb.w, gb.h) == \
            pytest.approx((wb.cx, wb.cy, wb.w, wb.h), abs=1e-5)


def test_unpack_frame_checks_the_payload_size():
    blob = live.pack_frame(np.zeros((3, 8, 8), np.float32),
                           [(Box(4.0, 4.0, 2.0, 2.0), 0)])
    for bad in (blob[:2], blob[:-1], blob + b"\0", blob[:7 + 3 * 64]):
        with pytest.raises(live.MalformedUploadError):
            live.unpack_frame(bad)
    assert issubclass(live.MalformedUploadError, ProtocolError)


def _serving(cloud):
    """The cloud's serve loop on one end of a socket pair; returns the other
    end as a raw socket, the cloud's transport and the thread."""
    a, b = socket.socketpair()
    cloud_t = live.Transport(b)
    server = threading.Thread(target=cloud.serve, args=(cloud_t,), daemon=True)
    server.start()
    return a, cloud_t, server


def test_cloud_rejects_malformed_uploads_and_keeps_serving():
    graph, _ = live.demo_setup(seed=0)
    cloud = live.CloudNode(graph, retrain_every=2, retrain_steps=1)
    img = np.full((3, 64, 64), 0.5, dtype=np.float32)
    good = live.pack_frame(img, [(Box(20.0, 20.0, 16.0, 16.0), 1)])
    bad = [
        good[:2],                                     # shorter than its header
        good[:-3],                                    # truncated box record
        live.pack_frame(np.zeros((3, 32, 32), np.float32),
                        [(Box(10.0, 10.0, 8.0, 8.0), 0)]),   # wrong frame size
        live.pack_frame(img, [(Box(20.0, 20.0, 16.0, 16.0), 7)]),
        live.pack_frame(img, [(Box(20.0, float("nan"), 16.0, 16.0), 0)]),
        live.pack_frame(img, [(Box(20.0, 20.0, float("inf"), 16.0), 0)]),
        live.pack_frame(img, [(Box(20.0, 20.0, -3.0, 16.0), 0)]),
        live.pack_frame(img, [(Box(80.0, 20.0, 16.0, 16.0), 0)]),   # off canvas
    ]
    sock, cloud_t, server = _serving(cloud)
    edge_t = live.Transport(sock)
    try:
        for i, payload in enumerate(bad):
            edge_t.send(Message(FRAME_UPLOAD, 1, payload))
            assert edge_t.recv() == Message(ACK, 1), i
            assert (cloud.uploads, cloud.pending) == (0, []), i
            assert server.is_alive(), i
        # the cloud still trains: the second good upload gets a push
        edge_t.send(Message(FRAME_UPLOAD, 1, good))
        assert edge_t.recv() == Message(ACK, 1)
        edge_t.send(Message(FRAME_UPLOAD, 1, good))
        assert edge_t.recv().msg_type == WEIGHT_PUSH
    finally:
        edge_t.close()
        server.join(timeout=30)
        cloud_t.close()
    assert not server.is_alive()
    assert (cloud.uploads, cloud.pending) == (2, [])
    assert sum(line.startswith("rejected upload") for line in cloud.log) == len(bad)


@pytest.mark.parametrize("head", [
    b"NOPE" + encode_message(Message(ACK, 1))[4:],
    struct.pack("<4sBBII", b"EYP1", FRAME_UPLOAD, 0, 1, MAX_PAYLOAD + 1),
], ids=["bad-magic", "over-cap"])
def test_cloud_stops_reading_a_desynchronised_stream(head):
    cloud = live.CloudNode(live.demo_setup(seed=0)[0])
    sock, cloud_t, server = _serving(cloud)
    try:
        sock.sendall(head + encode_message(Message(ACK, 1)))
        server.join(timeout=30)
        assert not server.is_alive()
    finally:
        sock.close()
        server.join(timeout=30)
        cloud_t.close()
    assert cloud.log[-1].startswith("closing desynchronised stream")


def _flip_crc(frame: bytes) -> bytes:
    return frame[:-4] + bytes([frame[-4] ^ 0x01]) + frame[-3:]


@pytest.mark.parametrize("corrupt", [
    lambda frame: _flip_crc(frame),
    lambda frame: frame[:4] + bytes([9]) + frame[5:],      # unknown type
    lambda frame: frame[:4] + bytes([2]) + frame[5:],      # a deleted type
], ids=["bad-crc", "unknown-type", "deleted-type"])
def test_cloud_answers_a_dropped_frame_and_keeps_serving(corrupt):
    cloud = live.CloudNode(live.demo_setup(seed=0)[0])
    img = np.full((3, 64, 64), 0.5, dtype=np.float32)
    good = encode_message(Message(FRAME_UPLOAD, 1, live.pack_frame(
        img, [(Box(20.0, 20.0, 16.0, 16.0), 1)])))
    sock, cloud_t, server = _serving(cloud)
    sock.settimeout(2.0)
    edge_t = live.Transport(sock)
    try:
        sock.sendall(corrupt(good))
        assert edge_t.recv() == Message(ACK, 1)        # within the 2 s timeout
        assert server.is_alive()
        assert cloud.log[-1].startswith("dropping bad frame")
        sock.sendall(good)
        assert edge_t.recv() == Message(ACK, 1)
        assert cloud.uploads == len(cloud.pending) == 1
        # a frame cut short by the end of the stream gets no reply
        sock.sendall(good[:-5])
        sock.shutdown(socket.SHUT_WR)
        server.join(timeout=30)
        assert not server.is_alive()
        cloud_t.close()
        assert edge_t.recv() is None
    finally:
        edge_t.close()
        server.join(timeout=30)
        cloud_t.close()
    assert cloud.log[-1].startswith("closing desynchronised stream")


class _StubTransport:
    """serve()'s side of a transport: reads a fixed byte string and records
    every reply and the largest pending batch seen at any reply."""

    def __init__(self, data: bytes, cloud):
        self.reader = _RecordingReader(data)
        self.cloud = cloud
        self.replies: list[Message] = []
        self.most_pending = 0

    def recv(self):
        return protocol.read_message(self.reader)

    def send(self, msg: Message) -> None:
        self.replies.append(msg)
        self.most_pending = max(self.most_pending, len(self.cloud.pending))


def _whole_frames(data: bytes) -> tuple[int, bool]:
    """How many frames a reader takes whole from data before it stops, and
    whether it stops short of a clean end of stream."""
    count, pos = 0, 0
    while pos < len(data):
        if len(data) - pos < 14:
            return count, True
        magic, _, _, _, length = struct.unpack_from("<4sBBII", data, pos)
        if magic != b"EYP1" or length > MAX_PAYLOAD \
                or pos + 18 + length > len(data):
            return count, True
        count += 1
        pos += 18 + length
    return count, False


def test_serve_survives_1000_fuzzed_frames():
    graph, sc = live.demo_setup(seed=0)
    cloud = live.CloudNode(graph, retrain_every=5, retrain_steps=1)
    uploads = [encode_message(Message(FRAME_UPLOAD, 1, live.pack_frame(img, gts)))
               for img, gts in training.generate_toy_dataset(
                   9, 8, sc.img_size, sc.num_classes)]
    ack = encode_message(Message(ACK, 1))
    rng = np.random.default_rng(2025)
    kinds = ("truncate", "bit-flip", "under-cap-length", "over-cap-length", "type-byte")
    for trial in range(1000):
        good = uploads[int(rng.integers(len(uploads)))]
        frame = bytearray(good)
        kind = kinds[trial % len(kinds)]
        if kind == "bit-flip":
            bit = int(rng.integers(8 * len(frame)))
            frame[bit // 8] ^= 1 << (bit % 8)
        elif kind == "under-cap-length":
            frame[10:14] = struct.pack("<I", int(rng.integers(MAX_PAYLOAD + 1)))
        elif kind == "over-cap-length":
            frame[10:14] = struct.pack("<I", int(rng.integers(MAX_PAYLOAD + 1, 2**32)))
        elif kind == "type-byte":
            frame[4] = int(rng.integers(256))
        follower = (ack, good)[trial % 2]
        if kind == "truncate":
            data = follower + bytes(frame[:int(rng.integers(1, len(frame)))])
        else:
            data = bytes(frame) + follower
        n_logged = len(cloud.log)
        transport = _StubTransport(data, cloud)
        cloud.serve(transport)                      # never raises
        want_replies, desync = _whole_frames(data)
        assert len(transport.replies) == want_replies, (trial, kind)
        closed = [line for line in cloud.log[n_logged:]
                  if line.startswith("closing desynchronised stream")]
        assert len(closed) == desync, (trial, kind)
        # serve only returns at the end of the stream or on a desync
        assert desync or transport.reader.data == b"", (trial, kind)
        assert max(transport.reader.asked) <= 14 + MAX_PAYLOAD + 4
        assert transport.most_pending < cloud.retrain_every
        assert len(cloud.pending) < cloud.retrain_every
    assert cloud.version > 10                       # it kept fine-tuning


def test_cloud_retrains_on_the_toy_recipes_targets(monkeypatch):
    graph, sc = live.demo_setup(seed=0)
    cloud = live.CloudNode(graph, retrain_every=5, retrain_steps=1)
    frames = training.generate_toy_dataset(5, 5, sc.img_size, sc.num_classes)
    seen = []
    real_step = live.backward_and_step

    def step(g, batch, targets, opt):
        seen.append(targets)
        return real_step(g, batch, targets, opt)

    monkeypatch.setattr(live, "backward_and_step", step)
    for img, gts in frames:
        cloud.handle(Message(FRAME_UPLOAD, 1, live.pack_frame(img, gts)))
    assert len(seen) == 1
    for got, (img, gts) in zip(seen[0], [f for f in frames if f[1]]):
        # the wire carries boxes as f32
        gts = live.unpack_frame(live.pack_frame(img, gts))[1]
        want = training.assign_targets(gts, graph.anchors, graph.head_grids(),
                                       (sc.img_size, sc.img_size), sc.num_classes,
                                       iou_thresh=training.TOY_ANCHOR_IOU)
        assert got.n_positive == want.n_positive
        for a, b in zip(got.obj_mask, want.obj_mask):
            assert np.array_equal(a, b)
    # the recipe's multi-slot assignment is what differs from single-slot here
    assert sum(t.n_positive for t in seen[0]) > sum(
        len(gts) for _, gts in frames)


def test_cloud_trains_on_the_targets_it_checked(monkeypatch):
    graph, sc = live.demo_setup(seed=0)
    cloud = live.CloudNode(graph, retrain_every=4, retrain_steps=1)
    frames = training.generate_toy_dataset(5, 3 * cloud.retrain_every,
                                           sc.img_size, sc.num_classes)
    frames[1] = (frames[1][0], [])      # accepted, but nothing to train on
    checked, trained = [], []
    real_check, real_step = cloud._check_upload, live.backward_and_step

    def check(img, gts):
        checked.append(real_check(img, gts))
        return checked[-1]

    def step(g, batch, targets, opt):
        trained.append(targets)
        return real_step(g, batch, targets, opt)

    monkeypatch.setattr(cloud, "_check_upload", check)
    monkeypatch.setattr(live, "backward_and_step", step)
    for i, (img, gts) in enumerate(frames, start=1):
        cloud.handle(Message(FRAME_UPLOAD, 1, live.pack_frame(img, gts)))
        assert cloud.uploads == i
        assert len(cloud.pending) == i % cloud.retrain_every
    assert cloud.version == 4 and len(trained) == 3
    for k, targets in enumerate(trained):
        batch = checked[k * cloud.retrain_every:(k + 1) * cloud.retrain_every]
        want = [ta for ta in batch if ta.n_positive]
        assert len(targets) == len(want) == 4 - (k == 0)
        assert all(got is ta for got, ta in zip(targets, want))


def test_cloud_needs_a_positive_retrain_interval():
    graph, _ = live.demo_setup(seed=0)
    for every in (0, -1):
        with pytest.raises(ValueError, match="retrain_every"):
            live.CloudNode(graph, retrain_every=every)
    for steps in (0, -1):
        with pytest.raises(ValueError, match="retrain_steps"):
            live.CloudNode(graph, retrain_steps=steps)


def test_loopback_session_pushes_weights():
    edge, cloud, detections = live.run_loopback()
    assert len(detections) == 10
    assert cloud.version == edge.version
    assert edge.version >= 2            # at least one push applied
    # pushed weights landed: edge and cloud agree bitwise on every tensor
    for pe, pc in zip(edge.graph.params, cloud.graph.params):
        if pe is None:
            assert pc is None
            continue
        for k in pe:
            assert np.array_equal(pe[k], pc[k]), k


def _weights_blob(graph):
    from edgeyolo.netdef import save_weights
    buf = io.BytesIO()
    save_weights(graph, buf)
    return buf.getvalue()


def test_corrupted_push_keeps_prior_weights():
    graph, _ = live.demo_setup(seed=0)
    edge = live.EdgeNode(graph)
    snap = [{k: v.copy() for k, v in p.items()} if p is not None else None
            for p in edge.graph.params]
    version_before = edge.version

    good = _weights_blob(edge.graph)
    broken_magic = bytearray(good)
    broken_magic[0] ^= 0xFF
    truncated = good[:-100]
    one_nan = good[:-4] + struct.pack("<f", float("nan"))
    for bad in (bytes(broken_magic), truncated, one_nan):
        applied = edge.handle_push(Message(WEIGHT_PUSH, version_before + 1, bad))
        assert applied is False
        assert edge.version == version_before
    assert any("rejected push" in line for line in edge.log)
    assert "rejected push" in edge.log[-1] and "NaN" in edge.log[-1]
    for p, s in zip(edge.graph.params, snap):
        if p is None:
            continue
        for k in p:
            assert np.array_equal(p[k], s[k]), k


def test_stale_push_rejected():
    graph, _ = live.demo_setup(seed=0)
    other, _ = live.demo_setup(seed=0)
    edge = live.EdgeNode(graph)
    good = _weights_blob(other)
    applied = edge.handle_push(Message(WEIGHT_PUSH, edge.version, good))
    assert applied is False             # same version: not newer, rejected
    applied = edge.handle_push(Message(WEIGHT_PUSH, edge.version + 1, good))
    assert applied is True
    assert edge.version == 2
