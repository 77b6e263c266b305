"""Box decoding, CIoU geometry, Gaussian soft suppression, PR/AP metrics.

Boxes are axis-aligned (cx, cy, w, h) in image pixels throughout.
"""

from __future__ import annotations

import heapq
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
        # written so that NaN fails each test
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 <= self.t_nms <= 1.0:
            raise ValueError(f"t_nms must be in [0,1], got {self.t_nms}")
        if not self.score_floor >= 0:
            raise ValueError(f"score_floor must be >= 0, got {self.score_floor}")


def sigmoid(x):
    # a saturated negative logit overflows exp harmlessly: the quotient is 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _iou(a, b) -> np.ndarray:
    """IoU of boxes held as rows (x1, y1, x2, y2, area) that broadcast.

    0 where the boxes do not overlap or the union is not positive.
    """
    iw = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    ih = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = iw * ih
    union = a[4] + b[4] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((iw <= 0.0) | (ih <= 0.0) | (union <= 0.0), 0.0,
                        inter / union)


def _corner_rows(c):
    """(..., 4) corners as the rows _iou takes: x1, y1, x2, y2 and area."""
    x1, y1, x2, y2 = np.moveaxis(np.asarray(c, dtype=np.float64), -1, 0)
    # areas from the same corner arithmetic, so identical boxes hit 1 exactly
    return x1, y1, x2, y2, (x2 - x1) * (y2 - y1)


def corner_iou(a, b) -> np.ndarray:
    """IoU of (x1, y1, x2, y2) boxes along the last axis; a and b broadcast.

    0 where the boxes do not overlap or the union is not positive.
    """
    return _iou(_corner_rows(a), _corner_rows(b))


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 when either box is degenerate."""
    return float(corner_iou(a.corners(), b.corners()))


# ---------------------------------------------------------------------------
# CIoU
# ---------------------------------------------------------------------------

def _span_grad(lo_p: np.ndarray, hi_p: np.ndarray) -> np.ndarray:
    """d/d(cx, cy, w, h) of the x and y spans between two boxes' edges,
    where lo_p and hi_p mark the low and high edges that pred supplies."""
    lo, hi = lo_p.astype(np.float64), hi_p.astype(np.float64)
    return np.concatenate([hi - lo, 0.5 * hi + 0.5 * lo], axis=-1)


def ciou_loss_grad(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """Complete-IoU loss of pred against gt, and d(loss)/d(pred).

    pred and gt are (..., 4) arrays of (cx, cy, w, h) that broadcast. The
    loss has their broadcast leading shape and the gradient that shape plus
    the last axis. The gradient covers every term, including the dependence
    of the aspect weight on IoU and v.
    """
    p, g = np.broadcast_arrays(np.asarray(pred, dtype=np.float64),
                               np.asarray(gt, dtype=np.float64))
    if np.any(p[..., 2:] <= 0) or np.any(g[..., 2:] <= 0):
        raise ValueError("boxes must have positive extent")
    # x and y sit side by side in (..., 2) arrays; per-pair values are (..., 1)
    pc, pwh, gc, gwh = p[..., :2], p[..., 2:], g[..., :2], g[..., 2:]
    p1, p2, g1, g2 = pc - pwh / 2, pc + pwh / 2, gc - gwh / 2, gc + gwh / 2

    # intersection; i1_p and i2_p mark the edges pred supplies
    i1_p, i2_p = p1 >= g1, p2 <= g2
    iwh = np.where(i2_p, p2, g2) - np.where(i1_p, p1, g1)
    inter = np.where(np.all(iwh > 0, -1, keepdims=True),
                     np.prod(iwh, -1, keepdims=True), 0.0)
    # areas from corner differences: identical boxes then give IoU 1 exactly
    union = (np.prod(p2 - p1, -1, keepdims=True)
             + np.prod(g2 - g1, -1, keepdims=True) - inter)
    iou_val = inter / union

    # enclosing box diagonal and center distance
    c1_p, c2_p = p1 <= g1, p2 >= g2
    cwh = np.where(c2_p, p2, g2) - np.where(c1_p, p1, g1)
    c2 = np.sum(cwh * cwh, -1, keepdims=True)
    rho2 = np.sum((pc - gc) ** 2, -1, keepdims=True)

    q = np.arctan(gwh[..., :1] / gwh[..., 1:]) - np.arctan(pwh[..., :1] / pwh[..., 1:])
    v = (4.0 / math.pi ** 2) * q * q
    s = (1.0 - iou_val) + v
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(s > 0, v / s, 0.0)
    loss = 1.0 - iou_val + rho2 / c2 + alpha * v

    d_inter = np.where(inter > 0, np.tile(iwh[..., ::-1], 2) * _span_grad(i1_p, i2_p), 0.0)
    d_union = np.concatenate([np.zeros_like(pc), pwh[..., ::-1]], -1) - d_inter
    d_iou = (d_inter * union - inter * d_union) / (union * union)
    d_rho2 = np.concatenate([2.0 * (pc - gc), np.zeros_like(pc)], -1)
    d_c2 = np.tile(2.0 * cwh, 2) * _span_grad(c1_p, c2_p)
    d_dist = (d_rho2 * c2 - rho2 * d_c2) / (c2 * c2)
    # atan'(w/h) terms of d(alpha * v)
    d_q = (np.concatenate([np.zeros_like(pc), pwh[..., ::-1] * (-1.0, 1.0)], -1)
           / np.sum(pwh * pwh, -1, keepdims=True))
    d_v = (8.0 / math.pi ** 2) * q * d_q
    with np.errstate(divide="ignore", invalid="ignore"):
        d_alpha = (d_v * (1.0 - iou_val) + v * d_iou) / (s * s)
    d_av = np.where(s > 0, alpha * d_v + v * d_alpha, 0.0)
    return loss[..., 0], -d_iou + d_dist + d_av


def ciou_loss(pred: Box, gt: Box) -> float:
    """1 - IoU + center-distance penalty + aspect-consistency penalty.

    Zero iff the boxes coincide; always < 3.
    """
    loss, _ = ciou_loss_grad((pred.cx, pred.cy, pred.w, pred.h),
                             (gt.cx, gt.cy, gt.w, gt.h))
    return float(loss)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def as_detections(boxes, classes, scores) -> list[Detection]:
    """Detection objects from (N, 4) (cx, cy, w, h) boxes, class ids and scores."""
    return [Detection(Box(*b), c, s) for b, c, s in
            zip(boxes.tolist(), classes.tolist(), scores.tolist())]


def as_arrays(dets: Sequence[Detection]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (N, 4) boxes, class ids and scores of a detection list."""
    boxes = np.array([(d.box.cx, d.box.cy, d.box.w, d.box.h) for d in dets],
                     dtype=np.float64).reshape(-1, 4)
    return (boxes, np.array([d.class_id for d in dets], dtype=np.intp),
            np.array([d.score for d in dets], dtype=np.float64))


def decode_arrays(head: HeadOutput, anchors, img_w: float, img_h: float,
                  score_floor: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn one head's raw tensor into candidates on an img_w x img_h canvas.

    Returns the kept cells' (N, 4) (cx, cy, w, h) boxes, class ids and
    scores, in (anchor, row, column) order. anchors is an (A, 2) array of
    (w, h) pixel pairs for this scale. Each anchor cell yields at most one
    candidate: its argmax class, kept when sigmoid(objectness) *
    sigmoid(class logit) exceeds score_floor and its box is finite: a size
    logit above ~709 overflows exp and is dropped. The class is the argmax
    of the logits, so among logits above ~37, whose sigmoids all round to
    1.0, the largest wins.
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
    r = raw[0].reshape(a, per, s, s)
    # the sigmoid rises with the logit, so the best logit is the best class
    best_class = r[:, 5:].argmax(axis=1)
    best_logit = np.take_along_axis(r[:, 5:], best_class[:, None], axis=1)[:, 0]
    score = (sigmoid(r[:, 4].astype(np.float64))
             * sigmoid(best_logit.astype(np.float64)))
    ai, yi, xi = np.nonzero(score > score_floor)
    t = r[ai, :4, yi, xi].astype(np.float64)
    bx = (sigmoid(t[:, 0]) + xi) * (img_w / s)
    by = (sigmoid(t[:, 1]) + yi) * (img_h / s)
    with np.errstate(over="ignore"):
        bw = anchors[ai, 0] * np.exp(t[:, 2])
        bh = anchors[ai, 1] * np.exp(t[:, 3])
    ok = np.isfinite(bx + by + bw + bh)
    return (np.stack([bx, by, bw, bh], axis=1)[ok], best_class[ai, yi, xi][ok],
            score[ai, yi, xi][ok])


def decode(head: HeadOutput, anchors, img_w: float, img_h: float,
           score_floor: float = 0.0) -> list[Detection]:
    """decode_arrays as Detections; stays for perfbench's detect-416 until ROADMAP item 1."""
    return as_detections(*decode_arrays(head, anchors, img_w, img_h, score_floor))


# ---------------------------------------------------------------------------
# soft suppression
# ---------------------------------------------------------------------------

# a pass takes its picks from this many of a class's best live boxes
NMS_BLOCK = 32
# the rival search builds at most about this many candidate pairs at a time
PAIR_CHUNK = 1 << 14
# below this area a float IoU can be far from the exact one (underflow)
_TINY_AREA = 2.0 ** -500


def _rival_pairs(rows, t_nms: float, limit: float):
    """A class's rival pairs: positions (a, b) with a != b and their IoU,
    for every pair whose IoU is positive and at least t_nms.

    rows are the class's boxes as _iou takes them. Returns None when the
    sweep yields more than limit candidate pairs, or when a box is so small
    that its float IoU may exceed the exact one by more than rounding.
    """
    x1, y1, x2, y2, area = rows
    # a box without positive finite size has IoU 0 or NaN with every box
    sub = np.flatnonzero((x2 > x1) & (y2 > y1) & np.isfinite(area))
    if (area[sub] < _TINY_AREA).any():
        return None
    # IoU >= t needs each axis' 1-D IoU >= t, and so the boxes shrunk about
    # their centres by (1 - t) / (1 + t) to overlap. The pad, far above a
    # few ulps, covers the rounding of the float IoU and of the shrink.
    q = t_nms / (1.0 + t_nms)
    lo, hi = [], []
    for e1, e2 in ((x1[sub], x2[sub]), (y1[sub], y2[sub])):
        shrink, pad = q * (e2 - e1), 1e-12 * (np.abs(e1) + np.abs(e2))
        lo.append(e1 + shrink - pad)
        hi.append(e2 - shrink + pad)
    order = np.argsort(lo[0], kind="stable")
    sub, lo, hi = sub[order], [v[order] for v in lo], [v[order] for v in hi]
    # sorted by low x edge: box i's x candidates are the run i+1 .. end-1
    n = sub.size
    count = np.maximum(np.searchsorted(lo[0], hi[0], side="right") - np.arange(n) - 1, 0)
    if count.sum() > limit:
        return None
    first = np.cumsum(count) - count                # offset of each box's run
    found = [(sub[:0], sub[:0], np.empty(0))]
    start = 0
    while start < n:
        # whole runs, about PAIR_CHUNK pairs
        stop = int(np.searchsorted(first, first[start] + PAIR_CHUNK))
        k = count[start:stop]
        i = np.repeat(np.arange(start, stop), k)
        j = i + 1 + np.arange(i.size) - np.repeat(first[start:stop] - first[start], k)
        on_y = (lo[1][j] <= hi[1][i]) & (lo[1][i] <= hi[1][j])
        a, b = sub[i[on_y]], sub[j[on_y]]
        ov = _iou(rows[:, a], rows[:, b])
        gate = (ov >= t_nms) & (ov > 0.0)
        found.append((a[gate], b[gate], ov[gate]))
        start = stop
    return tuple(np.concatenate(v) for v in zip(*found))


def _heap_picks(s: list, pos, pairs, stop: tuple, cfg: SoftNmsConfig) -> list:
    """The one-box loop as a heap over rival pairs: its picks, in pick order.

    s and pos hold the boxes' scores and pool positions; pairs holds the
    offsets (a, b) into s of each rival pair, once, and its IoU. A pick is
    the best unpicked box by (score, lower position), taken while its key
    (-score, position) comes before stop. Each pick decays its unpicked
    rivals in s, in place, so a pick's entry in s is its kept score. A box
    decayed below the floor is never pushed again, so never picked.
    """
    a, b, ov = pairs
    rivals = [[] for _ in s]
    for i, j, o in zip(a.tolist(), b.tolist(), ov.tolist()):
        rivals[i].append((j, o))
        rivals[j].append((i, o))
    heap = [(-v, p, j) for j, (v, p) in enumerate(zip(s, pos))]
    heapq.heapify(heap)
    picked = [False] * len(s)
    picks = []
    while heap:
        neg, p, i = heapq.heappop(heap)
        if -neg != s[i]:
            continue                            # an entry from before a decay
        if (neg, p) > stop:
            break
        picked[i] = True
        picks.append(i)
        for j, o in rivals[i]:
            if not picked[j]:
                v = s[j] * math.exp(-o / cfg.sigma)
                if v != s[j]:
                    s[j] = v
                    if v >= cfg.score_floor:    # else j is dropped
                        heapq.heappush(heap, (-v, pos[j], j))
    return picks


def _rivals(pool, rows, cfg: SoftNmsConfig):
    """A class's rival pairs if it takes the rival path (see soft_nms_arrays), else None.

    The rival path pays for the candidate pairs once, the block passes for
    a block x pool IoU per pass, so the rival path wins where most boxes
    are kept and the candidates are few.
    """
    m = pool.size
    if m <= NMS_BLOCK:
        return None
    floor, median = cfg.score_floor, float(np.partition(pool, m // 2)[m // 2])
    # a floor of 0 drops nothing: ln(median / 0) passes any bound
    if floor > 0 and math.log(median / floor) < 3 * cfg.t_nms / cfg.sigma:
        return None
    return _rival_pairs(rows, cfg.t_nms, 2 * NMS_BLOCK * m)


def soft_nms_arrays(boxes, classes, scores,
                    cfg: SoftNmsConfig = SoftNmsConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian score decay per class: overlapping rivals are rescored, not cut.

    Repeatedly keeps the highest-scoring remaining box M of each class (ties
    go to the lower index) and rescales every rival with IoU(M, b) >= t_nms
    by exp(-IoU / sigma). A box below score_floor, at the start or once
    rescaled, is dropped. As sigma approaches 0 this reproduces hard
    suppression at threshold t_nms. Raises ValueError on a non-finite score.

    Takes (N, 4) (cx, cy, w, h) boxes, class ids and scores, and returns the
    kept rows' indices and their scores, by descending score and then index.

    One function, _heap_picks, runs the one-box loop as a heap over a list
    of rival pairs, those whose IoU is positive and at least t_nms. That is
    exact: a pair below the gate, or at IoU 0 (a factor of exp(0) = 1),
    never changes a score, and the heap picks in the loop's order, ties
    included, so every score sees the same multiplications in the same
    order. Each class takes its pairs from one of two sources, chosen from
    its own boxes.

    The rival path is for a class of more than NMS_BLOCK boxes whose median
    box survives three gated decays (ln(median / score_floor) >= 3 t_nms /
    sigma), so that most boxes are kept, and whose sweep below finds at most
    2 NMS_BLOCK candidate pairs per box. IoU is at most the 1-D IoU along
    each axis, so IoU >= t needs the two boxes, each shrunk about its centre
    by (1 - t) / (1 + t), to overlap on both axes. A sweep over the shrunk
    boxes sorted by x finds those candidates, in chunks of about PAIR_CHUNK
    pairs, and the loop runs once over the class, to the floor.

    Every other class takes block passes. A pass ranks the class's NMS_BLOCK
    best live boxes by (score, lower index) and runs the loop over the pairs
    of their IoU block, for as long as the best box still ranks ahead of the
    best box outside the block, taken at its score when the pass began: a
    higher score, or an equal one and a lower index. A block box decayed to
    exactly that score with a higher index waits for the next pass. The
    picks' decays then go to the rest of the pool in pick order. That is
    exact: a score outside the block only falls during the pass, so the
    one-box loop would keep the same boxes in the same order. That holds for
    a block box with no rival in the block too: nothing decays it in the
    pass and it ranks ahead of every box outside, so the loop picks it in
    this pass, in its place in the pick order that the pool's decays follow.
    """
    if not np.isfinite(scores).all():
        raise ValueError("soft_nms needs finite scores")
    half = boxes[:, 2:] / 2.0
    all_rows = np.stack(_corner_rows(np.concatenate([boxes[:, :2] - half,
                                                     boxes[:, :2] + half], axis=1)))
    live = scores >= cfg.score_floor
    no_stop = (-cfg.score_floor, math.inf)      # every live box's key comes before it
    kept_idx, kept_scores = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for cls in np.unique(classes[live]):
        idx = np.flatnonzero(live & (classes == cls))
        pool, rows = scores[idx], all_rows[:, idx]
        pairs = _rivals(pool, rows, cfg)
        if pairs is not None:
            s = pool.tolist()
            picks = _heap_picks(s, range(pool.size), pairs, no_stop, cfg)
            kept_idx.append(idx[picks])
            kept_scores.append(np.array([s[i] for i in picks]))
            continue
        while idx.size:
            # the pool stays in index order, so a stable sort breaks ties by index
            ranked = np.argsort(-pool, kind="stable")
            top = ranked[:NMS_BLOCK]
            if ranked.size > top.size:
                stop = (-float(pool[ranked[top.size]]), int(ranked[top.size]))
            else:                       # nothing outside: stop at the floor
                stop = no_stop
            ov = _iou(rows[:, top, None], rows[:, None, :])
            blk = ov[:, top]
            a, b = np.nonzero((blk >= cfg.t_nms) & (blk > 0.0))
            up = a < b                          # blk is symmetric: each pair once
            a, b = a[up], b[up]
            s = pool[top].tolist()
            picks = _heap_picks(s, top.tolist(), (a, b, blk[a, b]), stop, cfg)
            run = top[picks]
            kept_idx.append(idx[run])
            kept_scores.append(np.array([s[i] for i in picks]))
            # the block's scores are final; the picks' decays go to the rest
            ov = ov[picks]
            ov[:, top] = -1.0                           # below every gate
            r, c = np.nonzero(ov >= cfg.t_nms)          # row-major: pick order
            # math.exp, not np.exp, whose last ulp differs on some inputs
            np.multiply.at(pool, c, [math.exp(-o / cfg.sigma) for o in ov[r, c].tolist()])
            pool[top] = s
            keep = pool >= cfg.score_floor
            keep[run] = False
            idx, pool, rows = idx[keep], pool[keep], rows[:, keep]
    kept_idx, kept_scores = np.concatenate(kept_idx), np.concatenate(kept_scores)
    order = np.lexsort((kept_idx, -kept_scores))
    return kept_idx[order], kept_scores[order]


def soft_nms(dets: Sequence[Detection], cfg: SoftNmsConfig = SoftNmsConfig()) -> list[Detection]:
    """soft_nms_arrays on Detections; stays for perfbench's detect-416 until ROADMAP item 1."""
    idx, kept = soft_nms_arrays(*as_arrays(dets), cfg)
    return [Detection(dets[i].box, dets[i].class_id, score)
            for i, score in zip(idx.tolist(), kept.tolist())]


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
        gt_corners = [np.array([b.corners() for b, cid in img if cid == cls])
                      for img in gts]
        n_gt = sum(len(v) for v in gt_corners)
        used = [np.zeros(len(v), dtype=bool) for v in gt_corners]
        tp_flags: list[bool] = []
        for _, img_i, _, box in ranked:
            matched = False
            if len(gt_corners[img_i]):
                ov = np.where(used[img_i], 0.0,
                              corner_iou(box.corners(), gt_corners[img_i]))
                j = int(np.argmax(ov))       # the first maximum
                if ov[j] > 0.0 and ov[j] >= iou_thresh:
                    used[img_i][j] = matched = True
            tp_flags.append(matched)
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
