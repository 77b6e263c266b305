"""Config parsing, shape inference, forward execution, weight round trips."""

import io
import struct

import numpy as np
import pytest

from edgeyolo import netdef, nn
from edgeyolo.netdef import (BadMagicError, ConfigError, NetGraph,
                             SignatureMismatchError, TruncatedWeightsError,
                             VersionMismatchError, build_edge_yolo,
                             load_weights, parse_config, save_weights)

from conftest import conv2d_oracle

TINY = """\
net 16 16 3
conv 3x3/2 4
conv 3x3/1 4
route 1 split 0
conv 1x1/1 16 linear
head 0
"""


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def test_parse_empty_body():
    g = parse_config("net 32 32 3\n")
    assert g.layers == []
    assert g.input_shape == (32, 32, 3)


def test_comments_and_blank_lines_ignored():
    g = parse_config("# top\n\nnet 16 16 3\n  # indented comment\nconv 3x3/1 4\n")
    assert len(g.layers) == 1


def test_roundtrip_canonical_text():
    g = parse_config(TINY)
    again = parse_config(g.canonical_text())
    assert again.canonical_text() == g.canonical_text()
    assert again.signature() == g.signature()


def test_conv_activation_follows_batch_norm():
    # `linear` means no batch norm and an identity activation: one fact
    g = parse_config(TINY)
    plain, linear = g.layers[0], g.layers[3]
    assert (plain.batch_norm, plain.activation) == (True, "leaky_relu")
    assert (linear.batch_norm, linear.activation) == (False, "linear")
    with pytest.raises(TypeError):
        netdef.LayerSpec(0, "conv", size=1, stride=1, filters=2,
                         batch_norm=False, activation="leaky_relu")


def test_signature_ignores_comments_only():
    sig_a = parse_config(TINY).signature()
    sig_b = parse_config("# header comment\n" + TINY).signature()
    assert sig_a == sig_b
    sig_c = parse_config(TINY.replace("conv 3x3/2 4", "conv 3x3/2 8")).signature()
    assert sig_c != sig_a


def test_forward_route_reference_rejected():
    with pytest.raises(ConfigError) as ei:
        parse_config("net 16 16 3\nconv 3x3/1 4\nroute 5\n")
    assert "route" in str(ei.value)


def test_unknown_layer_kind_rejected():
    with pytest.raises(ConfigError):
        parse_config("net 16 16 3\nshuffle 3x3/1 4\n")


def test_head_channel_mismatch_rejected_at_meta_attach():
    # head carries 16 channels; 2 anchors x (5 + 4 classes) needs 18
    from edgeyolo.anchors import AnchorSet
    g = parse_config(TINY)
    anchors = AnchorSet(((10.0, 10.0), (20.0, 20.0)), input_size=16)
    with pytest.raises(ValueError):
        g.attach_detection_meta(4, anchors, 2)


def test_missing_net_header_rejected():
    with pytest.raises(ConfigError):
        parse_config("conv 3x3/1 4\n")


# ---------------------------------------------------------------------------
# preset shape golden (layer kind, output shape per printed architecture)
# ---------------------------------------------------------------------------

# (index, kind, out_c, out_h, out_w) for every layer of the printed tables
PRESET_SHAPES = [
    (0, "conv", 32, 208, 208),
    (1, "conv", 64, 104, 104),
    (2, "conv", 64, 104, 104),
    (3, "route", 32, 104, 104),
    (4, "conv", 32, 104, 104),
    (5, "conv", 32, 104, 104),
    (6, "route", 64, 104, 104),
    (7, "conv", 64, 104, 104),
    (8, "route", 128, 104, 104),
    (9, "max", 128, 52, 52),
    (10, "conv", 128, 52, 52),
    (11, "max", 128, 52, 52),
    (12, "route", 128, 52, 52),
    (13, "max", 128, 52, 52),
    (14, "route", 128, 52, 52),
    (15, "max", 128, 52, 52),
    (16, "route", 512, 52, 52),
    (17, "conv", 256, 52, 52),
    (18, "conv", 128, 52, 52),
    (19, "route", 64, 52, 52),
    (20, "conv", 64, 52, 52),
    (21, "conv", 64, 52, 52),
    (22, "route", 128, 52, 52),
    (23, "conv", 128, 52, 52),
    (24, "route", 256, 52, 52),
    (25, "max", 256, 26, 26),
    (26, "conv", 128, 26, 26),
    (27, "conv", 256, 26, 26),
    (28, "route", 128, 26, 26),
    (29, "conv", 128, 26, 26),
    (30, "conv", 128, 26, 26),
    (31, "route", 256, 26, 26),
    (32, "conv", 256, 26, 26),
    (33, "route", 512, 26, 26),
    (34, "max", 512, 13, 13),
]


def test_preset_shape_golden():
    g = build_edge_yolo()
    for idx, kind, c, h, w in PRESET_SHAPES:
        sp = g.layers[idx]
        assert sp.kind == kind, f"layer {idx}"
        assert g.out_shapes[idx] == (c, h, w), f"layer {idx}"


def test_preset_heads():
    g = build_edge_yolo()
    assert g.head_grids() == [13, 26, 52]
    heads = g.head_layers()
    assert [sp.scale_index for sp in heads] == [0, 1, 2]
    for sp in heads:
        c, _, _ = g.out_shapes[sp.index]
        assert c == 6 * 85


def test_preset_spp_merge_concatenates_four_pool_scales():
    g = build_edge_yolo()
    # the 4-way merge after the pyramid pools carries 4x128 channels
    assert g.out_shapes[16] == (512, 52, 52)
    assert g.layers[16].kind == "route"
    assert len(g.layers[16].route_refs) == 4


# ---------------------------------------------------------------------------
# forward execution
# ---------------------------------------------------------------------------

def build_tiny(seed=0):
    g = parse_config(TINY)
    g.init_random(seed)
    return g


def test_forward_output_shapes():
    g = build_tiny()
    heads = netdef.forward(g, nn.Tensor(np.zeros((2, 3, 16, 16), np.float32)))
    assert len(heads) == 1
    assert heads[0].raw.shape == (2, 16, 8, 8)


def test_forward_batch_equivariance(rng):
    g = build_tiny()
    x = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
    batch = netdef.forward(g, nn.Tensor(x))[0].raw.data
    solo = np.concatenate(
        [netdef.forward(g, nn.Tensor(x[i:i + 1]))[0].raw.data for i in range(3)])
    assert np.abs(batch - solo).max() < 1e-6


def test_forward_deterministic():
    g = build_tiny()
    x = nn.Tensor(np.random.default_rng(3).normal(size=(1, 3, 16, 16)).astype(np.float32))
    a = netdef.forward(g, x)[0].raw.data
    b = netdef.forward(g, x)[0].raw.data
    assert np.array_equal(a, b)


# SPP 5/9/13, 2x2/2 pools, a split, concats and an upsample between two heads
POOLED = """\
net 32 32 3
conv 3x3/1 8
max 2x2/2
conv 3x3/1 16
route 2 split 1
conv 3x3/1 8
route 4 3
max 2x2/2
conv 1x1/1 16
max 5x5/1
route 7
max 9x9/1
route 7
max 13x13/1
route 12 10 8 7
conv 1x1/1 16
conv 1x1/1 14 linear
head 0
route 14
conv 1x1/1 8
upsample
route 19 5
conv 3x3/1 14 linear
head 1
"""


def test_liveness_plan_frees_after_last_reader():
    g = parse_config(POOLED)
    assert g.free_after == [
        [], [0], [1], [2], [], [3, 4], [], [6], [], [], [9], [], [11],
        [7, 8, 10, 12], [13], [], [15, 16], [14], [17], [18], [5, 19], [20],
        [21, 22]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_heads_bitwise_equal_without_freeing(rng, dtype):
    # freeing outputs after their last reader must not change the heads
    g = parse_config(POOLED).init_random(5, dtype=dtype)
    keep_all = parse_config(POOLED)
    keep_all.params = g.params
    keep_all.free_after = [[] for _ in keep_all.layers]
    x = nn.Tensor(rng.normal(size=(2, 3, 32, 32)).astype(dtype))
    want = netdef.forward(keep_all, x)
    got = netdef.forward(g, x)
    assert [h.scale_index for h in got] == [0, 1]
    for a, b in zip(got, want):
        assert a.raw.data.dtype == dtype
        assert a.raw.shape == b.raw.shape
        assert a.raw.data.tobytes() == b.raw.data.tobytes()


def _checksum_oracle(g: NetGraph, x: np.ndarray) -> np.ndarray:
    """The checksum graph's heads from conv2d_oracle and plain numpy."""
    p = g.params

    def conv_bn_leaky(z, i, stride):
        z = conv2d_oracle(z, p[i]["w"], p[i]["b"], stride)
        inv = (p[i]["gamma"] / np.sqrt(p[i]["var"] + 1e-5))[:, None, None]
        z = (z - p[i]["mean"][:, None, None]) * inv + p[i]["beta"][:, None, None]
        return np.where(z > 0, z, 0.1 * z)

    l1 = conv_bn_leaky(conv_bn_leaky(x, 0, 2), 1, 1)
    l3 = l1[:, 4:].reshape(1, 4, 8, 2, 8, 2).max(axis=(3, 5))     # split 1, max 2x2/2
    l5 = conv_bn_leaky(l3, 4, 1).repeat(2, axis=2).repeat(2, axis=3)
    return conv2d_oracle(np.concatenate([l5, l1], axis=1), p[7]["w"], p[7]["b"], 1)


def test_seeded_preset_forward_checksum():
    """Frozen regression value: seeded graph, fixed input, tanh(heads).sum().

    The pin is the checksum of a float64 forward (the seeded float32
    weights and input, cast up), and a forward composed from conv2d_oracle
    and plain numpy reproduces it, so it does not depend on one BLAS's
    summation order. The float32 forward of the same values must land
    within u * |pin| of it, u = 2**-24: rounding the float64 checksum itself
    to float32 may move it that far (|fl32(S) - S| <= u |S|), so float32
    arithmetic is not held to more. The worst-case forward error bound,
    gamma_d * sum(|W| |x|) over the heads with d = 147 roundings on the
    deepest path, is about 4.5 here and would pass almost any drift.
    """
    g = parse_config("net 32 32 3\n" + "\n".join([
        "conv 3x3/2 8",
        "conv 3x3/1 8",
        "route 1 split 1",
        "max 2x2/2",
        "conv 1x1/1 8",
        "upsample",
        "route 5 1",
        "conv 1x1/1 14 linear",
        "head 0",
    ]) + "\n")
    g.init_random(7)
    x = np.linspace(-1.0, 1.0, 3 * 32 * 32, dtype=np.float32).reshape(1, 3, 32, 32)
    out32 = netdef.forward(g, nn.Tensor(x))[0].raw.data.astype(np.float64)
    g.astype(np.float64)
    x = x.astype(np.float64)
    out64 = netdef.forward(g, nn.Tensor(x))[0].raw.data
    checksum = float(np.tanh(out64).sum())
    assert float(np.tanh(_checksum_oracle(g, x)).sum()) == \
        pytest.approx(REGRESSION_CHECKSUM, abs=1e-9)
    assert checksum == pytest.approx(REGRESSION_CHECKSUM, abs=1e-9)
    assert abs(float(np.tanh(out32).sum()) - checksum) <= 2.0 ** -24 * abs(checksum)


# recorded once from the float64 forward and pinned; see
# test_seeded_preset_forward_checksum
REGRESSION_CHECKSUM = 451.04062403905755


# ---------------------------------------------------------------------------
# weight serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip_bitwise():
    g = build_tiny(seed=1)
    buf = io.BytesIO()
    n = save_weights(g, buf)
    assert n == len(buf.getvalue())
    g2 = parse_config(TINY)
    load_weights(g2, buf.getvalue())
    for idx, params in enumerate(g.params):
        if params is None:
            continue
        for key, arr in params.items():
            assert np.array_equal(arr, g2.params[idx][key]), (idx, key)


class _RecordingSink:
    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data) -> int:
        self.writes.append(bytes(data))
        return len(data)


def test_save_weights_writes_one_tensor_at_a_time(tmp_path):
    g = build_tiny(seed=1)
    tensors = [np.asarray(g.params[sp.index][k], dtype="<f4")
               for sp in g.conv_layers() for k in g.param_shapes(sp)]
    want = struct.pack("<4sIIQ", b"EYWT", 1, len(g.layers), g.signature()) \
        + b"".join(t.tobytes() for t in tensors)
    sink = _RecordingSink()
    assert save_weights(g, sink) == len(want)
    assert b"".join(sink.writes) == want
    assert max(len(w) for w in sink.writes) <= max(t.nbytes for t in tensors)
    assert save_weights(g, tmp_path / "w.bin") == len(want)
    assert (tmp_path / "w.bin").read_bytes() == want


def test_roundtrip_many_random_graphs(rng):
    """1,000 random parameter sets must survive save->load bit for bit."""
    g = parse_config(TINY)
    g.init_random(0)
    for trial in range(1000):
        for params in g.params:
            if params is None:
                continue
            for key in params:
                params[key] = rng.normal(
                    size=params[key].shape).astype(np.float32)
                if key == "var":
                    params[key] = np.abs(params[key])
        blob = io.BytesIO()
        save_weights(g, blob)
        g2 = parse_config(TINY)
        load_weights(g2, blob.getvalue())
        for idx, params in enumerate(g.params):
            if params is None:
                continue
            for key, arr in params.items():
                assert np.array_equal(arr, g2.params[idx][key])


def test_load_rejects_bad_magic():
    g = build_tiny()
    buf = io.BytesIO()
    save_weights(g, buf)
    blob = bytearray(buf.getvalue())
    blob[:4] = b"XXXX"
    with pytest.raises(BadMagicError):
        load_weights(parse_config(TINY), bytes(blob))


def test_load_rejects_version_mismatch():
    g = build_tiny()
    buf = io.BytesIO()
    save_weights(g, buf)
    blob = bytearray(buf.getvalue())
    blob[4:8] = struct.pack("<I", 999)
    with pytest.raises(VersionMismatchError):
        load_weights(parse_config(TINY), bytes(blob))


def test_load_rejects_wrong_graph():
    g = build_tiny()
    buf = io.BytesIO()
    save_weights(g, buf)
    other = parse_config(TINY.replace("conv 3x3/2 4", "conv 3x3/2 8"))
    with pytest.raises(SignatureMismatchError):
        load_weights(other, buf.getvalue())


def test_load_rejects_truncation():
    g = build_tiny()
    buf = io.BytesIO()
    save_weights(g, buf)
    blob = buf.getvalue()
    with pytest.raises(TruncatedWeightsError):
        load_weights(parse_config(TINY), blob[:len(blob) - 3])
    with pytest.raises(TruncatedWeightsError):
        load_weights(parse_config(TINY), blob[:10])


def test_load_rejects_trailing_garbage():
    g = build_tiny()
    buf = io.BytesIO()
    save_weights(g, buf)
    with pytest.raises(netdef.WeightsError):
        load_weights(parse_config(TINY), buf.getvalue() + b"\x00")


def test_error_names_offending_layer():
    g = build_tiny()
    buf = io.BytesIO()
    save_weights(g, buf)
    blob = buf.getvalue()
    # cut inside the second conv's parameter block
    with pytest.raises(TruncatedWeightsError) as ei:
        load_weights(parse_config(TINY), blob[:len(blob) - 20])
    assert "layer" in str(ei.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["first", "last"])
def test_load_rejects_non_finite_values(value, where):
    buf = io.BytesIO()
    save_weights(build_tiny(), buf)
    blob = bytearray(buf.getvalue())
    at = netdef._HEADER.size if where == "first" else len(blob) - 4
    blob[at:at + 4] = struct.pack("<f", value)
    with pytest.raises(netdef.NonFiniteWeightsError, match="layer"):
        load_weights(parse_config(TINY), bytes(blob))


def _param_bits(g):
    return [{k: v.tobytes() for k, v in p.items()} if p is not None else None
            for p in g.params]


@pytest.mark.parametrize("spoil", [
    lambda blob: blob + b"\x00",
    lambda blob: blob[:len(blob) - 20],         # ends inside the last conv
    lambda blob: blob[:-4] + struct.pack("<f", float("nan")),   # last conv's last bias
], ids=["trailing-byte", "mid-layer-truncation", "nan-last-value"])
def test_failed_load_leaves_the_graph_unchanged(spoil):
    g = build_tiny(seed=1)
    params, bits = g.params, _param_bits(g)
    buf = io.BytesIO()
    save_weights(build_tiny(seed=2), buf)
    with pytest.raises(netdef.WeightsError):
        load_weights(g, spoil(buf.getvalue()))
    assert g.params is params
    assert _param_bits(g) == bits


def test_train_trace_writes_no_parameter(rng):
    g = build_tiny(seed=1)
    bits = _param_bits(g)
    x = nn.Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
    netdef.forward_trace(g, x)
    assert _param_bits(g) == bits
