"""Shared fixtures and independent oracle implementations.

The oracles here re-derive expected behavior from first principles with
deliberately plain (slow) code, so the fast implementations in the package
are checked against something that cannot share their bugs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from edgeyolo.postprocess import Box, Detection


# ---------------------------------------------------------------------------
# convolution / pooling oracles: direct nested loops over the definition
# ---------------------------------------------------------------------------

def conv2d_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                  stride: int) -> np.ndarray:
    """Same-padded cross-correlation, one output element at a time."""
    n, cin, hh, ww = x.shape
    cout, _, k, _ = w.shape
    pad = k // 2
    ho = (hh + 2 * pad - k) // stride + 1
    wo = (ww + 2 * pad - k) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for oc in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ic in range(cin):
                        for ky in range(k):
                            for kx in range(k):
                                iy = oy * stride + ky - pad
                                ix = ox * stride + kx - pad
                                if 0 <= iy < hh and 0 <= ix < ww:
                                    acc += float(x[ni, ic, iy, ix]) * \
                                        float(w[oc, ic, ky, kx])
                    out[ni, oc, oy, ox] = acc + float(b[oc])
    return out


def maxpool_oracle(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    n, c, hh, ww = x.shape
    pad = k // 2 if stride == 1 else 0
    ho = (hh + 2 * pad - k) // stride + 1
    wo = (ww + 2 * pad - k) // stride + 1
    out = np.full((n, c, ho, wo), -np.inf, dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    for ky in range(k):
                        for kx in range(k):
                            iy = oy * stride + ky - pad
                            ix = ox * stride + kx - pad
                            if 0 <= iy < hh and 0 <= ix < ww:
                                v = float(x[ni, ci, iy, ix])
                                if v > out[ni, ci, oy, ox]:
                                    out[ni, ci, oy, ox] = v
    return out


def maxpool_backward_oracle(dy: np.ndarray, x: np.ndarray, k: int,
                            stride: int) -> np.ndarray:
    """Each output's gradient goes to the first in-bounds input of its
    window, in (ky, kx) order, that holds the window's maximum."""
    n, c, hh, ww = x.shape
    pad = k // 2 if stride == 1 else 0
    dx = np.zeros(x.shape, dtype=np.float64)
    for ni, ci, oy, ox in np.ndindex(*dy.shape):
        best = None
        for ky in range(k):
            for kx in range(k):
                iy = oy * stride + ky - pad
                ix = ox * stride + kx - pad
                if 0 <= iy < hh and 0 <= ix < ww and (
                        best is None or x[ni, ci, iy, ix] > x[ni, ci][best]):
                    best = (iy, ix)
        dx[ni, ci][best] += dy[ni, ci, oy, ox]
    return dx


# ---------------------------------------------------------------------------
# suppression oracle: literal greedy rescale-and-filter over Detection lists
# ---------------------------------------------------------------------------

def iou_oracle(a: Box, b: Box) -> float:
    ax0, ax1 = a.cx - a.w / 2, a.cx + a.w / 2
    ay0, ay1 = a.cy - a.h / 2, a.cy + a.h / 2
    bx0, bx1 = b.cx - b.w / 2, b.cx + b.w / 2
    by0, by1 = b.cy - b.h / 2, b.cy + b.h / 2
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def soft_nms_oracle(dets: list[Detection], sigma: float, t_nms: float,
                    score_floor: float) -> list[Detection]:
    """Greedy per-class: pick the max, Gaussian-rescale overlapping rest."""
    out: list[Detection] = []
    by_class: dict[int, list[list]] = {}
    for i, d in enumerate(dets):
        by_class.setdefault(d.class_id, []).append([d.score, i, d])
    for cid in sorted(by_class):
        pool = by_class[cid]
        while pool:
            # highest score; earliest original index breaks ties
            best = max(pool, key=lambda t: (t[0], -t[1]))
            pool.remove(best)
            score, idx, det = best
            if score < score_floor:
                continue
            out.append(Detection(det.box, det.class_id, score))
            for entry in pool:
                ov = iou_oracle(det.box, entry[2].box)
                if ov >= t_nms:
                    entry[0] = entry[0] * math.exp(-ov / sigma)
    out.sort(key=lambda d: (-d.score, d.class_id))
    return out


def hard_nms_oracle(dets: list[Detection], t_nms: float) -> list[Detection]:
    out = []
    by_class: dict[int, list[tuple[float, int, Detection]]] = {}
    for i, d in enumerate(dets):
        by_class.setdefault(d.class_id, []).append((d.score, i, d))
    for cid in sorted(by_class):
        pool = sorted(by_class[cid], key=lambda t: (-t[0], t[1]))
        kept: list[Detection] = []
        for score, _, det in pool:
            if all(iou_oracle(det.box, k.box) < t_nms for k in kept):
                kept.append(det)
        out.extend(kept)
    return out


# ---------------------------------------------------------------------------
# evaluation oracle: explicit greedy matching and trapezoid-free AP
# ---------------------------------------------------------------------------

def evaluate_oracle(preds: list[list[Detection]],
                    gts: list[list[tuple[Box, int]]],
                    iou_thresh: float, num_classes: int):
    """Returns (per-class AP or None, micro precision, micro recall)."""
    aps: list[float | None] = []
    total_tp = total_fp = total_gt = 0
    for cid in range(num_classes):
        records = []          # (score, image, det) across the whole dataset
        n_gt = 0
        for img_i, (p, g) in enumerate(zip(preds, gts)):
            n_gt += sum(1 for _, c in g if c == cid)
            for d in p:
                if d.class_id == cid:
                    records.append((d.score, img_i, d))
        records.sort(key=lambda t: -t[0])
        matched: set[tuple[int, int]] = set()
        flags = []
        for score, img_i, d in records:
            cands = [(iou_oracle(d.box, b), j)
                     for j, (b, c) in enumerate(gts[img_i])
                     if c == cid and (img_i, j) not in matched]
            cands = [(v, j) for v, j in cands if v >= iou_thresh]
            if cands:
                v, j = max(cands)
                matched.add((img_i, j))
                flags.append(True)
            else:
                flags.append(False)
        tp = sum(flags)
        total_tp += tp
        total_fp += len(flags) - tp
        total_gt += n_gt
        if n_gt == 0:
            aps.append(None)
            continue
        # all-points interpolated AP via the precision envelope
        precisions, recalls = [], []
        run_tp = 0
        for i, f in enumerate(flags, start=1):
            run_tp += int(f)
            precisions.append(run_tp / i)
            recalls.append(run_tp / n_gt)
        ap = 0.0
        prev_r = 0.0
        for r_level in sorted(set(recalls)):
            p_max = max((p for p, r in zip(precisions, recalls)
                         if r >= r_level), default=0.0)
            ap += (r_level - prev_r) * p_max
            prev_r = r_level
        aps.append(ap)
    precision = total_tp / (total_tp + total_fp) if total_tp + total_fp else 0.0
    recall = total_tp / total_gt if total_gt else 0.0
    return aps, precision, recall


# ---------------------------------------------------------------------------
# k-means distortion oracle: brute force over all partitions (tiny m only)
# ---------------------------------------------------------------------------

def optimal_distortion_oracle(points: np.ndarray, k: int) -> float:
    """Exact minimum of sum-of-squared-distances over all k-partitions."""
    m = len(points)
    best = math.inf
    # assignment vector in {0..k-1}^m; centroid of each part = its mean
    for code in range(k ** m):
        labels = []
        c = code
        for _ in range(m):
            labels.append(c % k)
            c //= k
        if len(set(labels)) != k:
            continue
        total = 0.0
        for j in range(k):
            members = points[[i for i, l in enumerate(labels) if l == j]]
            mu = members.mean(axis=0)
            total += float(((members - mu) ** 2).sum())
        best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def random_boxes(rng, n, canvas=416.0, min_wh=2.0, max_wh=200.0):
    out = []
    for _ in range(n):
        w = float(rng.uniform(min_wh, max_wh))
        h = float(rng.uniform(min_wh, max_wh))
        cx = float(rng.uniform(w / 2, canvas - w / 2))
        cy = float(rng.uniform(h / 2, canvas - h / 2))
        out.append(Box(cx, cy, w, h))
    return out
