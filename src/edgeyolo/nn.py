"""Dense NCHW tensors and the small set of layer kernels the detector needs.

Everything here is plain numpy. Each forward kernel used by the training loop
has a matching backward that reads only the layer's input and output, plus
batch norm's cache; `batchnorm_infer_raw` is inference-only. Forwards are
pure functions of their inputs, so identical inputs always produce
bitwise-identical outputs.

Convolutions are lowered to GEMMs (im2col: Chellapilla et al. 2006; cuDNN,
Chetlur et al. 2014). `_columns` builds a column matrix of shape
(n, cin*k*k, hout*wout), rows in the weights' (c, ki, kj) order, so the conv
is `w.reshape(cout, cin*k*k)` times it. It reads the unpadded input: each
kernel tap copies only its in-range slice, and the strips that fall on the
zero padding are zeroed in one write per kernel row and one per kernel
column. No padded copy of the input is made. A 1x1/1 conv uses its input as
the column matrix: no copy. `conv2d_raw` builds the matrix in bands of output
rows whose columns fit in COLUMN_BAND_BYTES (one row at least), with one
matmul per band into the output, so a 416 frame never holds its whole column
matrix.
`conv2d_backward` builds it whole; one matmul gives dW, one gives the dX
columns, and a k*k scatter-add (col2im) folds each tap's in-range part into
a contiguous dX.

Dtypes: outputs and gradients keep the dtype of the float inputs. No kernel
multiplies by a float64 constant array, so a float32 graph trains in float32.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

LEAKY_SLOPE = 0.1
# cap on the column matrix of one conv2d_raw band of output rows, in bytes
COLUMN_BAND_BYTES = 4 << 20


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested kernel."""


class Tensor:
    """Rank-4 dense array in (batch, channels, height, width) order."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be rank 4 (n,c,h,w), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ShapeError(f"all tensor dimensions must be >= 1, got shape {arr.shape}")
        self.data = arr

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor{self.data.shape} dtype={self.data.dtype}"


def conv_out_size(size: int, kernel: int, stride: int) -> int:
    pad = kernel // 2
    return (size + 2 * pad - kernel) // stride + 1


def pool_out_size(size: int, kernel: int, stride: int) -> int:
    pad = kernel // 2 if stride == 1 else 0
    return (size + 2 * pad - kernel) // stride + 1


# ---------------------------------------------------------------------------
# functional kernels (ndarray in, ndarray out)
# ---------------------------------------------------------------------------

def conv2d_raw(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    n, cin, h, wd = x.shape
    cout, cin_w, k, _ = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv expects {cin_w} input channels, got {cin}")
    hout = conv_out_size(h, k, stride)
    wout = conv_out_size(wd, k, stride)
    wm = w.reshape(cout, cin * k * k)
    y = np.empty((n, cout, hout * wout), dtype=np.result_type(x, w))
    if k == 1 and stride == 1:
        band = hout             # the input is its own column matrix
    else:
        band = max(1, COLUMN_BAND_BYTES // (n * cin * k * k * wout * x.itemsize))
    for r0 in range(0, hout, band):
        r1 = min(r0 + band, hout)
        # one statement, so a band's columns are freed before the next is built
        np.matmul(wm, _columns(x, k, stride, r0, r1, wout),
                  out=y[:, :, r0 * wout:r1 * wout])
    y += b[None, :, None]
    return y.reshape(n, cout, hout, wout)


def conv2d_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray,
                    stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    hout, wout = dy.shape[2], dy.shape[3]
    dyr = dy.reshape(n, cout, hout * wout)
    cols = _columns(x, k, stride, 0, hout, wout)
    dw = np.matmul(dyr, cols.transpose(0, 2, 1)).sum(axis=0)
    dcols = np.matmul(w.reshape(cout, cin * k * k).T, dyr)
    db = dy.sum(axis=(0, 2, 3))
    dx = np.zeros(x.shape, dtype=x.dtype)
    taps = dcols.reshape(n, cin, k, k, hout, wout)
    col_spans = _tap_spans(k, stride, 0, wout, wd)
    for ki, (a, b, si) in enumerate(_tap_spans(k, stride, 0, hout, h)):
        for kj, (c, d, sj) in enumerate(col_spans):
            if a < b and c < d:
                dx[:, :, si, sj] += taps[:, :, ki, kj, a:b, c:d]
    return dx, dw.reshape(w.shape).astype(w.dtype, copy=False), db


def _pad(x: np.ndarray, pad: int, value: float = 0.0) -> np.ndarray:
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                  constant_values=value) if pad else x


def _tap_spans(k: int, stride: int, lo: int, hi: int,
               size: int) -> list[tuple[int, int, slice]]:
    """Per kernel offset t < k along one axis: the outputs [a, b) within
    [lo, hi) whose tap lands on the input (not on its k // 2 padding), and
    the input slice they read; a == b when all of them land on padding."""
    spans = []
    for t in range(k):
        off = t - k // 2
        a = min(max(lo, -(off // stride)), hi)
        b = max(a, min(hi, (size - 1 - off) // stride + 1))
        spans.append((a, b, slice(a * stride + off, (b - 1) * stride + off + 1, stride)))
    return spans


def _columns(x: np.ndarray, k: int, stride: int, r0: int, r1: int,
             wout: int) -> np.ndarray:
    """Column matrix (n, cin*k*k, (r1-r0)*wout) of output rows r0..r1-1 of a
    same-padded conv of x, rows in w's (c, ki, kj) order.

    One copy of the in-range slice per kernel tap; the padding strips are
    zeroed per kernel row and per kernel column. A 1x1 conv reads x directly
    (a view when the stride is 1).
    """
    n, cin = x.shape[:2]
    if k == 1:
        return x[:, :, r0 * stride:r1 * stride:stride, ::stride].reshape(
            n, cin, (r1 - r0) * wout)
    cols = np.empty((n, cin, k, k, r1 - r0, wout), dtype=x.dtype)
    row_spans = _tap_spans(k, stride, r0, r1, x.shape[2])
    col_spans = _tap_spans(k, stride, 0, wout, x.shape[3])
    for ki, (a, b, _) in enumerate(row_spans):
        if a > r0:
            cols[:, :, ki, :, :a - r0] = 0
        if b < r1:
            cols[:, :, ki, :, b - r0:] = 0
    for kj, (c, d, _) in enumerate(col_spans):
        if c > 0:
            cols[:, :, :, kj, :, :c] = 0
        if d < wout:
            cols[:, :, :, kj, :, d:] = 0
    for ki, (a, b, si) in enumerate(row_spans):
        for kj, (c, d, sj) in enumerate(col_spans):
            if a < b and c < d:
                cols[:, :, ki, kj, a - r0:b - r0, c:d] = x[:, :, si, sj]
    return cols.reshape(n, cin * k * k, (r1 - r0) * wout)


def batchnorm_infer_raw(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                        mean: np.ndarray, var: np.ndarray, eps: float) -> np.ndarray:
    inv = gamma / np.sqrt(var + eps)
    return x * inv[None, :, None, None] + (beta - mean * inv)[None, :, None, None]


def batchnorm_train_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                            eps: float) -> tuple[np.ndarray, tuple]:
    """Normalize by batch statistics (biased variance over n,h,w).

    Bitwise np.mean and np.var: one add.reduce each, divided by an intp count.
    The input is centred once; the variance squares a second buffer, which
    then holds y.
    """
    axes = (0, 2, 3)
    m = np.intp(x.shape[0] * x.shape[2] * x.shape[3])
    mu = np.add.reduce(x, axis=axes, keepdims=True)
    np.true_divide(mu, m, out=mu, casting="unsafe")
    xhat = x - mu
    y = np.square(xhat)
    var = np.add.reduce(y, axis=axes)
    np.true_divide(var, m, out=var, casting="unsafe")
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv[None, :, None, None]
    np.multiply(gamma[None, :, None, None], xhat, out=y)
    y += beta[None, :, None, None]
    return y, (xhat, inv, gamma, mu.reshape(-1), var)


def batchnorm_train_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv, gamma, _, _ = cache
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    t = dy * xhat
    dgamma = t.sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    # dx = gamma*inv * (dy - dbeta/m - xhat*dgamma/m), in that order, in two buffers
    np.multiply(xhat, dgamma[None, :, None, None], out=t)
    t /= m
    dx = dy - dbeta[None, :, None, None] / m
    dx -= t
    np.multiply((gamma * inv)[None, :, None, None], dx, out=dx)
    return dx, dgamma, dbeta


def activate_raw(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return x
    if kind == "leaky_relu":
        # bitwise where(x > 0, x, LEAKY_SLOPE * x)
        return np.maximum(x, LEAKY_SLOPE * x)
    raise ValueError(f"unknown activation {kind!r}")


def activate_backward(dy: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """Gradient through an activation from its output y (or its input: leaky
    ReLU's output is positive exactly where its input is)."""
    if kind == "linear":
        return dy
    if kind == "leaky_relu":
        # LEAKY_SLOPE * dy stays in dy's dtype, as in activate_raw
        return np.where(y > 0, dy, LEAKY_SLOPE * dy)
    raise ValueError(f"unknown activation {kind!r}")


def maxpool_raw(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Max pool; stride-1 pools keep spatial size via -inf same padding.

    Separable: a running max over the kernel's row offsets, then over its
    column offsets, so 2k passes instead of k^2. Pools without padding make
    no padded copy. A NaN in a window propagates to that window's output
    (np.maximum). Where a window holds both +0 and -0, either may win.
    """
    h, w = x.shape[2:]
    hout = pool_out_size(h, kernel, stride)
    wout = pool_out_size(w, kernel, stride)
    if hout < 1 or wout < 1:
        raise ShapeError(f"pool {kernel}x{kernel}/{stride} does not fit input {h}x{w}")
    xp = _pad(x, kernel // 2 if stride == 1 else 0, -np.inf)
    rows = _running_max(xp, kernel, stride, hout, axis=2)
    return _running_max(rows, kernel, stride, wout, axis=3)


def _running_max(a: np.ndarray, kernel: int, stride: int, size: int,
                 axis: int) -> np.ndarray:
    """out[i] = max(a[i * stride + k] for k < kernel) along one axis, i < size."""
    def tap(k: int) -> np.ndarray:
        index = [slice(None)] * a.ndim
        index[axis] = slice(k, k + stride * size, stride)
        return a[tuple(index)]

    out = tap(0).copy()
    for k in range(1, kernel):
        np.maximum(out, tap(k), out=out)
    return out


def maxpool_backward(dy: np.ndarray, x: np.ndarray, y: np.ndarray,
                     kernel: int, stride: int) -> np.ndarray:
    """Gradient of y = maxpool_raw(x, kernel, stride): each output's gradient
    goes to the first input of its window, in (ki, kj) order, equal to it."""
    h, w = x.shape[2:]
    hout, wout = y.shape[2:]
    pad = kernel // 2 if stride == 1 else 0
    xp = _pad(x, pad, -np.inf)
    dxp = np.zeros(xp.shape, dtype=dy.dtype)
    unrouted = np.ones(y.shape, dtype=bool)
    for ki in range(kernel):
        for kj in range(kernel):
            sl = (slice(None), slice(None),
                  slice(ki, ki + stride * hout, stride),
                  slice(kj, kj + stride * wout, stride))
            hit = unrouted & (xp[sl] == y)
            dxp[sl] += dy * hit
            unrouted &= ~hit
    return dxp[:, :, pad:pad + h, pad:pad + w]


def upsample2x_raw(x: np.ndarray) -> np.ndarray:
    return x.repeat(2, axis=2).repeat(2, axis=3)


def upsample2x_backward(dy: np.ndarray) -> np.ndarray:
    n, c, h, w = dy.shape
    return dy.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


def concat_channels(xs: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(xs, axis=1)


def concat_backward(dy: np.ndarray, channel_sizes: Sequence[int]) -> list[np.ndarray]:
    splits = np.cumsum(channel_sizes)[:-1]
    return [np.ascontiguousarray(g) for g in np.split(dy, splits, axis=1)]


def split_half(x: np.ndarray, half: int) -> np.ndarray:
    c = x.shape[1]
    if c % 2 != 0:
        raise ShapeError(f"split needs an even channel count, got {c}")
    lo = half * (c // 2)
    return np.ascontiguousarray(x[:, lo:lo + c // 2])


def split_half_backward(dy: np.ndarray, c_total: int, half: int) -> np.ndarray:
    n, _, h, w = dy.shape
    dx = np.zeros((n, c_total, h, w), dtype=dy.dtype)
    lo = half * (c_total // 2)
    dx[:, lo:lo + c_total // 2] = dy
    return dx
