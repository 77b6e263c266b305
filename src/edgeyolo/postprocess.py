"""Box decoding, CIoU geometry, Gaussian soft suppression, PR/AP metrics.

Boxes are axis-aligned (cx, cy, w, h) in image pixels throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .netdef import HeadOutput


@dataclass(frozen=True)
class Box:
    cx: float
    cy: float
    w: float
    h: float

    def corners(self) -> tuple[float, float, float, float]:
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0,
                self.cx + self.w / 2.0, self.cy + self.h / 2.0)


@dataclass(frozen=True)
class Detection:
    box: Box
    class_id: int
    score: float


@dataclass(frozen=True)
class SoftNmsConfig:
    sigma: float = 0.5
    t_nms: float = 0.45
    score_floor: float = 0.001

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 <= self.t_nms <= 1.0:
            raise ValueError(f"t_nms must be in [0,1], got {self.t_nms}")
        if self.score_floor < 0:
            raise ValueError(f"score_floor must be >= 0, got {self.score_floor}")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 when either box is degenerate."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    # areas from the same corner arithmetic, so identical boxes hit 1 exactly
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


# ---------------------------------------------------------------------------
# CIoU
# ---------------------------------------------------------------------------

def _ciou_value_grad(p: Sequence[float], g: Sequence[float],
                     want_grad: bool) -> tuple[float, np.ndarray | None]:
    """Complete-IoU loss of pred p vs target g, optionally with d(loss)/dp.

    p and g are (cx, cy, w, h). The gradient covers every term, including
    the dependence of the aspect weight on IoU and v.
    """
    pcx, pcy, pw, ph = (float(v) for v in p)
    gcx, gcy, gw, gh = (float(v) for v in g)
    if pw <= 0 or ph <= 0 or gw <= 0 or gh <= 0:
        raise ValueError("boxes must have positive extent")
    d = np.zeros(4) if want_grad else None   # d/d(pcx, pcy, pw, ph)

    px1, px2 = pcx - pw / 2, pcx + pw / 2
    py1, py2 = pcy - ph / 2, pcy + ph / 2
    gx1, gx2 = gcx - gw / 2, gcx + gw / 2
    gy1, gy2 = gcy - gh / 2, gcy + gh / 2

    # intersection, with indicator bookkeeping for the gradient
    ix1, ix1_p = (px1, True) if px1 >= gx1 else (gx1, False)
    ix2, ix2_p = (px2, True) if px2 <= gx2 else (gx2, False)
    iy1, iy1_p = (py1, True) if py1 >= gy1 else (gy1, False)
    iy2, iy2_p = (py2, True) if py2 <= gy2 else (gy2, False)
    iw, ih = ix2 - ix1, iy2 - iy1
    inter = iw * ih if (iw > 0 and ih > 0) else 0.0
    # areas from corner differences: identical boxes then give IoU 1 exactly
    area_p, area_g = (px2 - px1) * (py2 - py1), (gx2 - gx1) * (gy2 - gy1)
    union = area_p + area_g - inter
    iou_val = inter / union

    # enclosing box diagonal
    cx1, cx1_p = (px1, True) if px1 <= gx1 else (gx1, False)
    cx2, cx2_p = (px2, True) if px2 >= gx2 else (gx2, False)
    cy1, cy1_p = (py1, True) if py1 <= gy1 else (gy1, False)
    cy2, cy2_p = (py2, True) if py2 >= gy2 else (gy2, False)
    cw, chh = cx2 - cx1, cy2 - cy1
    c2 = cw * cw + chh * chh
    rho2 = (pcx - gcx) ** 2 + (pcy - gcy) ** 2

    q = math.atan(gw / gh) - math.atan(pw / ph)
    v = (4.0 / math.pi ** 2) * q * q
    s = (1.0 - iou_val) + v
    alpha = v / s if s > 0 else 0.0

    loss = 1.0 - iou_val + rho2 / c2 + alpha * v
    if not want_grad:
        return loss, None

    # d(inter), d(union), d(iou)
    d_inter = np.zeros(4)
    if inter > 0.0:
        # d(iw)/d(pcx, pw), d(ih)/d(pcy, ph)
        diw_dcx = (1.0 if ix2_p else 0.0) - (1.0 if ix1_p else 0.0)
        diw_dw = 0.5 * (1.0 if ix2_p else 0.0) + 0.5 * (1.0 if ix1_p else 0.0)
        dih_dcy = (1.0 if iy2_p else 0.0) - (1.0 if iy1_p else 0.0)
        dih_dh = 0.5 * (1.0 if iy2_p else 0.0) + 0.5 * (1.0 if iy1_p else 0.0)
        d_inter[0] = ih * diw_dcx
        d_inter[2] = ih * diw_dw
        d_inter[1] = iw * dih_dcy
        d_inter[3] = iw * dih_dh
    d_area_p = np.array([0.0, 0.0, ph, pw])
    d_union = d_area_p - d_inter
    d_iou = (d_inter * union - inter * d_union) / (union * union)

    # d(rho2 / c2)
    d_rho2 = np.array([2.0 * (pcx - gcx), 2.0 * (pcy - gcy), 0.0, 0.0])
    dcw = np.zeros(4)
    dcw[0] = (1.0 if cx2_p else 0.0) - (1.0 if cx1_p else 0.0)
    dcw[2] = 0.5 * (1.0 if cx2_p else 0.0) + 0.5 * (1.0 if cx1_p else 0.0)
    dch = np.zeros(4)
    dch[1] = (1.0 if cy2_p else 0.0) - (1.0 if cy1_p else 0.0)
    dch[3] = 0.5 * (1.0 if cy2_p else 0.0) + 0.5 * (1.0 if cy1_p else 0.0)
    d_c2 = 2.0 * cw * dcw + 2.0 * chh * dch
    d_dist = (d_rho2 * c2 - rho2 * d_c2) / (c2 * c2)

    # d(alpha * v); atan'(w/h) terms
    denom = pw * pw + ph * ph
    d_q = np.array([0.0, 0.0, -ph / denom, pw / denom])
    d_v = (8.0 / math.pi ** 2) * q * d_q
    if s > 0:
        d_alpha = (d_v * (1.0 - iou_val) + v * d_iou) / (s * s)
        d_av = alpha * d_v + v * d_alpha
    else:
        d_av = np.zeros(4)

    d[:] = -d_iou + d_dist + d_av
    return loss, d


def ciou_loss(pred: Box, gt: Box) -> float:
    """1 - IoU + center-distance penalty + aspect-consistency penalty.

    Zero iff the boxes coincide; always < 3.
    """
    loss, _ = _ciou_value_grad((pred.cx, pred.cy, pred.w, pred.h),
                               (gt.cx, gt.cy, gt.w, gt.h), want_grad=False)
    return loss


def ciou_loss_grad(pred: Sequence[float], gt: Sequence[float]) -> tuple[float, np.ndarray]:
    """CIoU loss and its gradient w.r.t. the predicted (cx, cy, w, h)."""
    return _ciou_value_grad(pred, gt, want_grad=True)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def decode(head: HeadOutput, anchors, img_w: float, img_h: float,
           score_floor: float = 0.0) -> list[Detection]:
    """Turn one head's raw tensor into detections on an img_w x img_h canvas.

    anchors is an (A, 2) array of (w, h) pixel pairs for this scale. Each
    anchor cell yields at most one detection: its argmax class, kept when
    sigmoid(objectness) * sigmoid(class logit) exceeds score_floor.
    """
    raw = head.raw.data
    if raw.shape[0] != 1:
        raise ValueError(f"decode works on single-image tensors, got batch {raw.shape[0]}")
    anchors = np.asarray(anchors, dtype=np.float64)
    a = anchors.shape[0]
    s = head.scale
    per = raw.shape[1] // a
    if raw.shape[1] != a * per or per < 6:
        raise ValueError(f"head channels {raw.shape[1]} do not factor into "
                         f"{a} anchors x (5+classes)")
    r = raw[0].astype(np.float64).reshape(a, per, s, s)
    stride_x, stride_y = img_w / s, img_h / s
    col = np.arange(s, dtype=np.float64)[None, None, :]
    row = np.arange(s, dtype=np.float64)[None, :, None]
    bx = (sigmoid(r[:, 0]) + col) * stride_x
    by = (sigmoid(r[:, 1]) + row) * stride_y
    bw = anchors[:, 0][:, None, None] * np.exp(r[:, 2])
    bh = anchors[:, 1][:, None, None] * np.exp(r[:, 3])
    obj = sigmoid(r[:, 4])
    cls = sigmoid(r[:, 5:])
    best_class = cls.argmax(axis=1)
    best_p = cls.max(axis=1)
    score = obj * best_p
    out: list[Detection] = []
    for ai, yi, xi in zip(*np.nonzero(score > score_floor)):
        out.append(Detection(Box(float(bx[ai, yi, xi]), float(by[ai, yi, xi]),
                                 float(bw[ai, yi, xi]), float(bh[ai, yi, xi])),
                             int(best_class[ai, yi, xi]), float(score[ai, yi, xi])))
    return out


# ---------------------------------------------------------------------------
# soft suppression
# ---------------------------------------------------------------------------

def soft_nms(dets: Sequence[Detection], cfg: SoftNmsConfig = SoftNmsConfig()) -> list[Detection]:
    """Gaussian score decay per class: overlapping rivals are rescored, not cut.

    Repeatedly keeps the highest-scoring remaining box M of each class and
    rescales every rival with IoU(M, b) >= t_nms by exp(-IoU / sigma); boxes
    whose running score falls below score_floor are dropped. As sigma
    approaches 0 this reproduces hard suppression at threshold t_nms.
    """
    survivors: list[tuple[float, int, Detection]] = []
    for cls in sorted({d.class_id for d in dets}):
        pool = [(d.score, i, d) for i, d in enumerate(dets) if d.class_id == cls]
        while pool:
            best = max(pool, key=lambda t: (t[0], -t[1]))
            pool.remove(best)
            survivors.append(best)
            kept = []
            for score, i, d in pool:
                ov = iou(best[2].box, d.box)
                if ov >= cfg.t_nms:
                    score = score * math.exp(-ov / cfg.sigma)
                if score >= cfg.score_floor:
                    kept.append((score, i, d))
            pool = kept
    survivors.sort(key=lambda t: (-t[0], t[1]))
    return [Detection(d.box, d.class_id, score) for score, _, d in survivors]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassEval:
    class_id: int
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    ap: float | None        # None when the class has no ground truth


@dataclass(frozen=True)
class EvalReport:
    per_class: tuple[ClassEval, ...]
    precision: float        # micro-averaged over all classes
    recall: float
    mean_ap: float


def _average_precision(tp_flags: list[bool], n_gt: int) -> float:
    """Area under the precision envelope over recall (all-points rule)."""
    if n_gt == 0:
        return 0.0
    tp = np.cumsum([1.0 if f else 0.0 for f in tp_flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in tp_flags])
    rec = tp / n_gt
    prec = tp / np.maximum(tp + fp, 1e-12)
    mrec = np.concatenate(([0.0], rec, [1.0]))
    mpre = np.concatenate(([0.0], prec, [0.0]))
    for i in range(mpre.size - 1, 0, -1):
        mpre[i - 1] = max(mpre[i - 1], mpre[i])
    changed = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))


def evaluate(preds: Sequence[Sequence[Detection]],
             gts: Sequence[Sequence[tuple[Box, int]]],
             iou_thresh: float = 0.5,
             num_classes: int | None = None) -> EvalReport:
    """Greedy per-class matching of detections to ground truth over a dataset.

    preds[i] and gts[i] describe image i. Within a class, detections are
    visited in descending score order; each matches the still-unmatched
    ground-truth box of highest IoU if that IoU >= iou_thresh. AP follows
    the all-points interpolation rule; mean AP averages classes that have
    at least one ground-truth box.
    """
    if len(preds) != len(gts):
        raise ValueError(f"got {len(preds)} prediction lists for {len(gts)} images")
    seen: set[int] = set()
    for img in preds:
        for d in img:
            seen.add(d.class_id)
    for img in gts:
        for _, cid in img:
            seen.add(cid)
    for cid in seen:
        if cid < 0 or (num_classes is not None and cid >= num_classes):
            raise ValueError(f"class id {cid} out of range")

    rows: list[ClassEval] = []
    total_tp = total_fp = total_fn = 0
    class_ids = sorted(seen) if num_classes is None else range(num_classes)
    for cls in class_ids:
        ranked = sorted(((d.score, img_i, j, d.box)
                         for img_i, img in enumerate(preds)
                         for j, d in enumerate(img) if d.class_id == cls),
                        key=lambda t: (-t[0], t[1], t[2]))
        gt_boxes = {img_i: [b for b, cid in img if cid == cls]
                    for img_i, img in enumerate(gts)}
        n_gt = sum(len(v) for v in gt_boxes.values())
        used: dict[int, set[int]] = {img_i: set() for img_i in gt_boxes}
        tp_flags: list[bool] = []
        for _, img_i, _, box in ranked:
            best_iou, best_j = 0.0, -1
            for j, gbox in enumerate(gt_boxes.get(img_i, [])):
                if j in used[img_i]:
                    continue
                ov = iou(box, gbox)
                if ov > best_iou:
                    best_iou, best_j = ov, j
            if best_j >= 0 and best_iou >= iou_thresh:
                used[img_i].add(best_j)
                tp_flags.append(True)
            else:
                tp_flags.append(False)
        tp = sum(tp_flags)
        fp = len(tp_flags) - tp
        fn = n_gt - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        ap = _average_precision(tp_flags, n_gt) if n_gt else None
        rows.append(ClassEval(cls, tp, fp, fn, precision, recall, ap))
        total_tp += tp
        total_fp += fp
        total_fn += fn

    aps = [r.ap for r in rows if r.ap is not None]
    return EvalReport(
        per_class=tuple(rows),
        precision=total_tp / (total_tp + total_fp) if total_tp + total_fp else 0.0,
        recall=total_tp / (total_tp + total_fn) if total_tp + total_fn else 0.0,
        mean_ap=float(np.mean(aps)) if aps else 0.0,
    )
