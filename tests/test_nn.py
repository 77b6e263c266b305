"""Core tensor ops: hand cases, oracles, gradients, invariances."""

import numpy as np
import pytest

from edgeyolo import nn

from conftest import conv2d_oracle, maxpool_backward_oracle, maxpool_oracle


def central_diff(f, x, h=1e-4):
    """Central finite-difference gradient of scalar f at x (float64)."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        fp = f()
        x[i] = orig - h
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(1e-12, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / denom


# ---------------------------------------------------------------------------
# forward correctness
# ---------------------------------------------------------------------------

def test_conv_hand_case_all_ones():
    # 3x3 all-ones kernel over an all-ones 3x3 single-channel image:
    # the center sums 9 neighbors, corners only 4 (zero padding outside)
    x = np.ones((1, 1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    b = np.zeros(1)
    y = nn.conv2d_raw(x, w, b, stride=1)
    expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
    assert np.array_equal(y[0, 0], expected)


@pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (3, 2), (5, 2), (5, 1)])
def test_conv_matches_oracle(rng, k, stride):
    x = rng.normal(size=(2, 3, 7, 6))
    w = rng.normal(size=(4, 3, k, k))
    b = rng.normal(size=4)
    got = nn.conv2d_raw(x, w, b, stride)
    want = conv2d_oracle(x, w, b, stride)
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize("k,stride", [(2, 2), (3, 2), (5, 1), (9, 1), (13, 1)])
def test_maxpool_matches_oracle(rng, k, stride):
    # gradient routing: small integers make windows tie, and border windows
    # of negatives only would route into the padding were it 0, not -inf
    x = rng.integers(-3, 1, size=(2, 3, 13, 13)).astype(np.float64)
    y = nn.maxpool_raw(x, k, stride)
    dy = rng.integers(-4, 5, size=y.shape).astype(np.float64)
    got = nn.maxpool_backward(dy, x, y, k, stride)
    assert got.shape == x.shape
    assert np.array_equal(got, maxpool_backward_oracle(dy, x, k, stride))
    assert got.sum() == dy.sum()        # every window routes to an input


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,stride,h,w", [
    (2, 2, 13, 13), (2, 2, 11, 8), (3, 2, 13, 13), (3, 2, 10, 7),
    (5, 1, 13, 13), (9, 1, 13, 13), (13, 1, 13, 13)])
def test_maxpool_raw_matches_oracle(rng, dtype, k, stride, h, w):
    x = rng.normal(size=(2, 3, h, w)).astype(dtype)
    got = nn.maxpool_raw(x, k, stride)
    want = maxpool_oracle(x, k, stride)
    assert got.dtype == dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_in_row_bands_matches_oracle(rng, stride):
    # 64x63 input with 64 channels: the column matrix exceeds one band, and
    # the last band is partial
    x = rng.normal(size=(1, 64, 64, 63))
    w = rng.normal(size=(2, 64, 3, 3))
    b = rng.normal(size=2)
    hout, wout = nn.conv_out_size(64, 3, stride), nn.conv_out_size(63, 3, stride)
    band = nn.COLUMN_BAND_BYTES // (64 * 9 * wout * x.itemsize)
    assert band < hout and hout % band != 0
    got = nn.conv2d_raw(x, w, b, stride)
    want = conv2d_oracle(x, w, b, stride)
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (3, 2), (5, 2)])
def test_conv_float32_close_to_oracle(rng, k, stride):
    # float32 in, float32 out. Bound: a sum of m = 16*k*k + 1 float32 terms
    # is off by at most m * eps times the sum of their magnitudes (the exact
    # float64 oracle on |x|, |w|, |b|)
    x = rng.normal(size=(2, 16, 9, 8)).astype(np.float32)
    w = rng.normal(size=(4, 16, k, k)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    got = nn.conv2d_raw(x, w, b, stride)
    assert got.dtype == np.float32
    bound = (16 * k * k + 1) * np.finfo(np.float32).eps * conv2d_oracle(
        np.abs(x), np.abs(w), np.abs(b), stride)
    assert np.all(np.abs(got - conv2d_oracle(x, w, b, stride)) <= bound)


def test_stride1_pool_keeps_size(rng):
    x = rng.normal(size=(1, 2, 13, 13))
    for k in (5, 9, 13):
        y = nn.maxpool_raw(x, k, 1)
        assert y.shape == x.shape


def test_upsample_exact():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    y = nn.upsample2x_raw(x)
    assert y.shape == (1, 1, 4, 4)
    assert np.array_equal(y[0, 0], np.array([
        [1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float))


def test_leaky_slope():
    x = np.array([[[[-2.0, 2.0]]]])
    y = nn.activate_raw(x, "leaky_relu")
    assert np.allclose(y, [[[[-0.2, 2.0]]]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_bits_match_where_formula(rng, dtype):
    # activate_raw takes max(x, LEAKY_SLOPE*x); the formula it replaced is
    # pinned here bit for bit, signed zeros, NaN, infinities and subnormals
    # included
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
                        tiny, -tiny, 1.0, -1.0], dtype=dtype)
    x = np.concatenate([special, (rng.normal(size=990) * 10.0 ** rng.integers(
        -30, 30, size=990)).astype(dtype)])
    old = np.where(x > 0, x, nn.LEAKY_SLOPE * x)
    new = nn.activate_raw(x, "leaky_relu")
    assert new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


def test_batchnorm_infer_is_affine(rng):
    # inference BN must be exactly an affine map in x
    gamma = rng.normal(size=3) + 2
    beta = rng.normal(size=3)
    mean = rng.normal(size=3)
    var = rng.uniform(0.5, 2.0, size=3)
    x1 = rng.normal(size=(2, 3, 4, 4))
    x2 = rng.normal(size=(2, 3, 4, 4))
    f = lambda v: nn.batchnorm_infer_raw(v, gamma, beta, mean, var, 1e-5)
    lhs = f(0.3 * x1 + 0.7 * x2)
    rhs = 0.3 * f(x1) + 0.7 * f(x2) - 0.0
    # affine: f(ax+by) = a f(x) + b f(y) + (1-a-b) f(0); here a+b=1
    assert rel_err(lhs, rhs) < 1e-9


def test_batchnorm_train_normalizes(rng):
    x = rng.normal(loc=3.0, scale=2.5, size=(4, 3, 5, 5))
    gamma = np.ones(3)
    beta = np.zeros(3)
    y, cache = nn.batchnorm_train_forward(x, gamma, beta, 1e-5)
    assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-10
    assert np.abs(y.var(axis=(0, 2, 3)) - 1.0).max() < 1e-3   # eps skews slightly


def test_split_halves_partition(rng):
    x = rng.normal(size=(1, 6, 2, 2))
    lo = nn.split_half(x, 0)
    hi = nn.split_half(x, 1)
    assert np.array_equal(np.concatenate([lo, hi], axis=1), x)


def test_concat_roundtrip(rng):
    xs = [rng.normal(size=(1, c, 3, 3)) for c in (2, 3, 4)]
    y = nn.concat_channels(xs)
    parts = nn.concat_backward(y, [2, 3, 4])
    for a, b in zip(xs, parts):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# shape and validation errors
# ---------------------------------------------------------------------------

def test_tensor_rejects_bad_rank():
    with pytest.raises(nn.ShapeError):
        nn.Tensor(np.zeros((3, 3)))


def test_tensor_rejects_zero_dim():
    with pytest.raises(nn.ShapeError):
        nn.Tensor(np.zeros((1, 0, 3, 3)))


def test_conv_channel_mismatch(rng):
    x = rng.normal(size=(1, 3, 4, 4))
    w = rng.normal(size=(2, 4, 3, 3))
    with pytest.raises(nn.ShapeError):
        nn.conv2d_raw(x, w, np.zeros(2), 1)


def test_split_odd_channels_rejected(rng):
    with pytest.raises(nn.ShapeError):
        nn.split_half(rng.normal(size=(1, 5, 2, 2)), 0)


# ---------------------------------------------------------------------------
# gradient checks (64-bit, h=1e-4, max rel err < 1e-3 per the stated bound;
# observed errors are far smaller)
# ---------------------------------------------------------------------------

def test_conv_gradients(rng):
    # odd H != W and batch 2; a 1x1/1 conv uses its input as the column matrix
    for k in (1, 3, 5):
        for stride in (1, 2):
            x = rng.normal(size=(2, 3, 7, 5))
            w = rng.normal(size=(4, 3, k, k))
            b = rng.normal(size=4)
            dy = rng.normal(size=nn.conv2d_raw(x, w, b, stride).shape)
            dx, dw, db = nn.conv2d_backward(dy, x, w, stride)
            loss = lambda: float((nn.conv2d_raw(x, w, b, stride) * dy).sum())
            assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
            assert rel_err(dx, central_diff(loss, x)) < 1e-3
            assert rel_err(dw, central_diff(loss, w)) < 1e-3
            assert rel_err(db, central_diff(loss, b)) < 1e-3


def test_batchnorm_train_gradients(rng):
    x = rng.normal(size=(3, 2, 4, 4))
    gamma = rng.normal(size=2) + 2
    beta = rng.normal(size=2)
    dy = rng.normal(size=x.shape)

    def loss():
        y, _ = nn.batchnorm_train_forward(x, gamma, beta, 1e-5)
        return float((y * dy).sum())

    _, cache = nn.batchnorm_train_forward(x, gamma, beta, 1e-5)
    dx, dgamma, dbeta = nn.batchnorm_train_backward(dy, cache)
    assert rel_err(dx, central_diff(loss, x)) < 1e-3
    assert rel_err(dgamma, central_diff(loss, gamma)) < 1e-3
    assert rel_err(dbeta, central_diff(loss, beta)) < 1e-3


@pytest.mark.parametrize("kind", ["linear", "leaky_relu"])
def test_activation_gradients(rng, kind):
    x = rng.normal(size=(2, 2, 3, 3))
    x[np.abs(x) < 0.05] += 0.2          # keep away from the leaky kink
    dy = rng.normal(size=x.shape)
    dx = nn.activate_backward(dy, x, kind)
    loss = lambda: float((nn.activate_raw(x, kind) * dy).sum())
    assert rel_err(dx, central_diff(loss, x)) < 1e-3


@pytest.mark.parametrize("k,stride", [(2, 2), (3, 2), (5, 1)])
def test_maxpool_gradients(rng, k, stride):
    x = rng.normal(size=(2, 2, 6, 6))
    y = nn.maxpool_raw(x, k, stride)
    dy = rng.normal(size=y.shape)
    dx = nn.maxpool_backward(dy, x, y, k, stride)
    loss = lambda: float((nn.maxpool_raw(x, k, stride) * dy).sum())
    # finite differences are valid only off window ties; random floats are safe
    assert rel_err(dx, central_diff(loss, x)) < 1e-3


def test_upsample_gradients(rng):
    x = rng.normal(size=(1, 2, 3, 3))
    dy = rng.normal(size=(1, 2, 6, 6))
    dx = nn.upsample2x_backward(dy)
    loss = lambda: float((nn.upsample2x_raw(x) * dy).sum())
    assert rel_err(dx, central_diff(loss, x)) < 1e-3


def test_split_gradients(rng):
    x = rng.normal(size=(1, 4, 3, 3))
    for half in (0, 1):
        dy = rng.normal(size=(1, 2, 3, 3))
        dx = nn.split_half_backward(dy, 4, half)
        loss = lambda: float((nn.split_half(x, half) * dy).sum())
        assert rel_err(dx, central_diff(loss, x)) < 1e-3


def _backward_outputs(rng, kernel: str, dtype) -> list[np.ndarray]:
    x = rng.normal(size=(2, 4, 6, 6)).astype(dtype)
    dy = rng.normal(size=x.shape).astype(dtype)
    ch = np.ones(4, dtype=dtype)
    if kernel == "conv":
        w = rng.normal(size=(3, 4, 3, 3)).astype(dtype)
        return list(nn.conv2d_backward(dy[:, :3], x, w, 1))
    if kernel == "batchnorm_train":
        _, cache = nn.batchnorm_train_forward(x, ch, 0 * ch, 1e-5)
        return list(nn.batchnorm_train_backward(dy, cache))
    if kernel == "activation":
        return [nn.activate_backward(dy, x, kind) for kind in ("linear", "leaky_relu")]
    if kernel == "maxpool":
        y = nn.maxpool_raw(x, 2, 2)
        return [nn.maxpool_backward(y, x, y, 2, 2)]
    if kernel == "upsample":
        return [nn.upsample2x_backward(dy)]
    if kernel == "split":
        return [nn.split_half_backward(dy[:, :2], 4, 1)]
    return nn.concat_backward(dy, [1, 3])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", ["conv", "batchnorm_train", "activation",
                                    "maxpool", "upsample", "split", "concat"])
def test_backward_keeps_input_dtype(rng, kernel, dtype):
    # a float64 factor anywhere would move the rest of a float32 backward
    # pass to float64
    for g in _backward_outputs(rng, kernel, dtype):
        assert g.dtype == dtype


# ---------------------------------------------------------------------------
# pad-free kernels: bitwise the padded-copy formulas they replace
# ---------------------------------------------------------------------------

def _np_pad(x, pad):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x


def _padded_columns(xp, k, stride, hout, wout):
    n, cin = xp.shape[:2]
    if k == 1:
        return xp[:, :, ::stride, ::stride].reshape(n, cin, hout * wout)
    cols = np.empty((n, cin, k, k, hout, wout), dtype=xp.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki, kj] = xp[:, :, ki:ki + stride * hout:stride,
                                    kj:kj + stride * wout:stride]
    return cols.reshape(n, cin * k * k, hout * wout)


def _padded_conv(x, w, b, stride):
    """conv2d_raw on an np.pad copy of x, in the same row bands."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    hout, wout = nn.conv_out_size(h, k, stride), nn.conv_out_size(wd, k, stride)
    xp = _np_pad(x, k // 2)
    y = np.empty((n, cout, hout * wout), dtype=np.result_type(x, w))
    band = hout if k == 1 and stride == 1 else max(
        1, nn.COLUMN_BAND_BYTES // (n * cin * k * k * wout * x.itemsize))
    for r0 in range(0, hout, band):
        r1 = min(r0 + band, hout)
        np.matmul(w.reshape(cout, -1),
                  _padded_columns(xp[:, :, r0 * stride:(r1 - 1) * stride + k],
                                  k, stride, r1 - r0, wout),
                  out=y[:, :, r0 * wout:r1 * wout])
    y += b[None, :, None]
    return y.reshape(n, cout, hout, wout)


def _padded_conv_backward(dy, x, w, stride):
    """conv2d_backward with col2im into a padded dX, then cropped."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    pad = k // 2
    hout, wout = dy.shape[2:]
    dyr = dy.reshape(n, cout, hout * wout)
    cols = _padded_columns(_np_pad(x, pad), k, stride, hout, wout)
    dw = np.matmul(dyr, cols.transpose(0, 2, 1)).sum(axis=0)
    taps = np.matmul(w.reshape(cout, -1).T, dyr).reshape(n, cin, k, k, hout, wout)
    dxp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + stride * hout:stride,
                kj:kj + stride * wout:stride] += taps[:, :, ki, kj]
    return (dxp[:, :, pad:pad + h, pad:pad + wd],
            dw.reshape(w.shape).astype(w.dtype, copy=False), dy.sum(axis=(0, 2, 3)))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


CONV_SHAPES = [(7, 6), (8, 9), (5, 5), (2, 5), (5, 2), (1, 1), (2, 2)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("band_bytes", [nn.COLUMN_BAND_BYTES, 1], ids=["whole", "row-bands"])
@pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("h,w", CONV_SHAPES)
def test_pad_free_conv_is_bitwise_the_padded_one(rng, monkeypatch, dtype, band_bytes,
                                                 k, stride, h, w):
    # band_bytes 1 builds the columns one output row at a time
    monkeypatch.setattr(nn, "COLUMN_BAND_BYTES", band_bytes)
    x = rng.normal(size=(2, 3, h, w)).astype(dtype)
    wt = rng.normal(size=(4, 3, k, k)).astype(dtype)
    b = rng.normal(size=4).astype(dtype)
    assert _same_bits(nn.conv2d_raw(x, wt, b, stride), _padded_conv(x, wt, b, stride))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("h,w", CONV_SHAPES)
def test_pad_free_conv_backward_is_bitwise_the_padded_one(rng, dtype, k, stride, h, w):
    x = rng.normal(size=(2, 3, h, w)).astype(dtype)
    wt = rng.normal(size=(4, 3, k, k)).astype(dtype)
    dy = rng.normal(size=(2, 4, nn.conv_out_size(h, k, stride),
                          nn.conv_out_size(w, k, stride))).astype(dtype)
    got = nn.conv2d_backward(dy, x, wt, stride)
    want = _padded_conv_backward(dy, x, wt, stride)
    assert all(_same_bits(g, r) for g, r in zip(got, want))


def test_conv_backward_returns_three_arrays(rng):
    # the benchmark's tracer prices a call by out[0].nbytes and out[1].nbytes
    x = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
    w = rng.normal(size=(6, 3, 3, 3)).astype(np.float32)
    out = nn.conv2d_backward(np.ones((2, 6, 3, 2), np.float32), x, w, 2)
    assert isinstance(out, tuple) and len(out) == 3
    assert all(isinstance(a, np.ndarray) for a in out)
    assert [a.shape for a in out] == [x.shape, w.shape, (6,)]


def _batchnorm_formula(x, gamma, beta, eps):
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None, None]) * inv[None, :, None, None]
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return y, (xhat, inv, gamma, mu, var)


def _batchnorm_backward_formula(dy, cache):
    xhat, inv, gamma, _, _ = cache
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    gi = (gamma * inv)[None, :, None, None]
    return (gi * (dy - dbeta[None, :, None, None] / m
                  - xhat * dgamma[None, :, None, None] / m), dgamma, dbeta)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 16, 32, 32), (5, 3, 7, 9), (1, 2, 1, 1)])
def test_batchnorm_train_is_bitwise_the_mean_var_formulas(rng, dtype, shape):
    x = rng.normal(loc=1.5, scale=3.0, size=shape).astype(dtype)
    gamma = rng.normal(size=shape[1]).astype(dtype)
    beta = rng.normal(size=shape[1]).astype(dtype)
    y, cache = nn.batchnorm_train_forward(x, gamma, beta, 1e-5)
    y_ref, cache_ref = _batchnorm_formula(x, gamma, beta, 1e-5)
    assert _same_bits(y, y_ref)
    assert len(cache) == len(cache_ref)
    assert all(_same_bits(c, r) for c, r in zip(cache, cache_ref))
    dy = rng.normal(size=shape).astype(dtype)
    got = nn.batchnorm_train_backward(dy, cache)
    want = _batchnorm_backward_formula(dy, cache_ref)
    assert all(_same_bits(g, r) for g, r in zip(got, want))


# ---------------------------------------------------------------------------
# structural invariances
# ---------------------------------------------------------------------------

def test_conv_linearity(rng):
    x1 = rng.normal(size=(1, 2, 5, 5))
    x2 = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    b = np.zeros(3)
    lhs = nn.conv2d_raw(2.0 * x1 + 0.5 * x2, w, b, 1)
    rhs = 2.0 * nn.conv2d_raw(x1, w, b, 1) + 0.5 * nn.conv2d_raw(x2, w, b, 1)
    assert rel_err(lhs, rhs) < 1e-6


def test_conv_batch_equivariance(rng):
    # a batch of two must equal the two single-image results stacked
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    full = nn.conv2d_raw(x, w, b, 1)
    solo = np.concatenate([nn.conv2d_raw(x[i:i + 1], w, b, 1)
                           for i in range(2)])
    assert np.array_equal(full, solo)


def test_determinism(rng):
    x = rng.normal(size=(1, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    a = nn.conv2d_raw(x, w, b, 1)
    c = nn.conv2d_raw(x.copy(), w.copy(), b.copy(), 1)
    assert np.array_equal(a, c)


def test_maxpool_tie_first_occurrence():
    # equal values in the window: the first kernel offset takes the gradient
    x = np.zeros((1, 1, 2, 2))
    y = nn.maxpool_raw(x, 2, 2)
    assert y[0, 0, 0, 0] == 0.0
    dx = nn.maxpool_backward(np.ones_like(y), x, y, 2, 2)
    assert np.array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])
