"""Training: target assignment, composite loss, backprop, toy fine-tuning.

The loss follows the usual one-stage recipe: CIoU on decoded boxes at
positive slots, binary cross-entropy on objectness everywhere (negatives
weighted by lambda_noobj), binary cross-entropy on class scores at positive
slots. Probabilities are clamped to [1e-7, 1 - 1e-7] inside every BCE term.
Scalar reductions use math.fsum, so totals do not depend on summation order.

A term clamped on the wrong side of its target (target 1 with p <= 1e-7,
target 0 with p >= 1 - 1e-7) costs -ln 1e-7 ~ 16.1 and passes no gradient.
The loss reports what such terms carry, and train_toy aborts a run whose
loss is mostly made of them, since no step can then bring it down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from . import images, nn, netdef
from .anchors import AnchorSet, iou_wh, kmeans_anchors
from .netdef import HeadOutput, NetGraph, parse_config
from .postprocess import (Box, Detection, SoftNmsConfig, as_detections, ciou_loss_grad,
                          decode_arrays, evaluate, iou, sigmoid, soft_nms_arrays)

BCE_EPS = 1e-7

# share of the old running batch-norm estimate kept at each training step
BN_MOMENTUM = 0.9

# the iou_thresh train_toy passes to assign_targets: the toy's k-means
# anchors sit close together across scales
TOY_ANCHOR_IOU = 0.6


class TrainingDivergedError(RuntimeError):
    """Training can no longer make progress.

    Raised when a gradient or the loss stops being finite, or when the loss
    has risen above its initial value and is mostly carried by saturated
    BCE terms, which are clamped and pass no gradient. train_toy attaches
    the rows logged so far as `history`.
    """


@dataclass
class OptimizerConfig:
    """Plain stochastic gradient descent, theta <- theta - eta * grad."""

    eta: float = 0.0002

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:       # written so that NaN fails
            raise ValueError(f"learning rate eta must be positive and finite, got {self.eta}")


@dataclass
class LossReport:
    loss_box: float
    loss_obj: float
    loss_cls: float
    loss_total: float
    n_positive: int
    # part of loss_total carried by BCE terms clamped on the wrong side of
    # their target: each is stuck at -ln(BCE_EPS) with zero gradient
    loss_clamped: float = 0.0


@dataclass
class TargetAssignment:
    """Dense per-scale training targets for one image.

    Arrays are indexed [anchor, row, col] on each scale's grid; scales are
    ordered coarsest grid first, matching forward()'s head order.
    """

    grids: tuple[int, ...]
    canvas: tuple[float, float]            # (img_w, img_h)
    anchor_px: list[np.ndarray]            # (A, 2) per scale
    obj_mask: list[np.ndarray]             # bool (A, S, S)
    box_target: list[np.ndarray]           # float (A, S, S, 4) as cx, cy, w, h
    cls_target: list[np.ndarray]           # int (A, S, S)
    lambda_noobj: float = 0.5
    n_positive: int = 0


def assign_targets(gts: Sequence[tuple[Box, int]], anchors: AnchorSet,
                   grids: Sequence[int], canvas: tuple[float, float],
                   num_classes: int, lambda_noobj: float = 0.5,
                   iou_thresh: float | None = None) -> TargetAssignment:
    """Assign each gt box to one (scale, cell, anchor) slot, or to several.

    The anchor is the one of highest IoU against the gt extent at the
    origin; the cell is the one containing the gt center on that anchor's
    scale. When the preferred slot is already taken the box falls through
    to its next-best anchor. Boxes whose extent is not positive and finite
    and out-of-canvas centers are rejected.

    With iou_thresh set, every further anchor whose extent IoU with the gt
    exceeds it also takes the gt, at its own scale's center cell, where
    that slot is free (darknet YOLOv4's iou_thresh). Otherwise slots on
    neighbouring scales whose anchors nearly match the gt are trained as
    negatives although they see the same object, and at test time they
    fire anyway with boxes no loss ever shaped.
    """
    img_w, img_h = canvas
    groups = anchors.per_scale(len(grids))
    ta = TargetAssignment(
        grids=tuple(grids), canvas=(float(img_w), float(img_h)),
        anchor_px=[np.asarray(grp, dtype=np.float64) for grp in groups],
        obj_mask=[np.zeros((len(grp), s, s), dtype=bool)
                  for grp, s in zip(groups, grids)],
        box_target=[np.zeros((len(grp), s, s, 4)) for grp, s in zip(groups, grids)],
        cls_target=[np.zeros((len(grp), s, s), dtype=np.int64)
                    for grp, s in zip(groups, grids)],
        lambda_noobj=lambda_noobj,
    )
    flat = [(si, ai, float(w), float(h))
            for si, grp in enumerate(groups) for ai, (w, h) in enumerate(grp)]
    # extent IoU of every gt against every anchor, in flat's order
    gt_wh = np.array([(box.w, box.h) for box, _ in gts], dtype=np.float64)
    ious = iou_wh(gt_wh.reshape(-1, 2), np.array([t[2:] for t in flat])).tolist()
    for (box, cls), box_ious in zip(gts, ious):
        # written so that a NaN extent fails too
        if not (0 < box.w < math.inf and 0 < box.h < math.inf):
            raise ValueError(f"gt box extent is not positive and finite: {box}")
        if not (0 <= box.cx < img_w and 0 <= box.cy < img_h):
            raise ValueError(f"gt center outside the {img_w}x{img_h} canvas: {box}")
        if not 0 <= cls < num_classes:
            raise ValueError(f"class id {cls} out of range for {num_classes} classes")
        ranked = sorted(zip(box_ious, flat), key=lambda t: (-t[0], t[1][0], t[1][1]))
        placed = False
        for overlap, (si, ai, aw, ah) in ranked:
            if placed and (iou_thresh is None or overlap <= iou_thresh):
                break
            s = grids[si]
            cx = int(box.cx / (img_w / s))
            cy = int(box.cy / (img_h / s))
            if ta.obj_mask[si][ai, cy, cx]:
                continue
            # the size part of the slot's raw target must be recoverable
            assert math.isfinite(math.log(box.w / aw)) and \
                math.isfinite(math.log(box.h / ah))
            ta.obj_mask[si][ai, cy, cx] = True
            ta.box_target[si][ai, cy, cx] = (box.cx, box.cy, box.w, box.h)
            ta.cls_target[si][ai, cy, cx] = cls
            ta.n_positive += 1
            placed = True
        if not placed:
            raise ValueError("no free (scale, cell, anchor) slot left for a gt box")
    return ta


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def _bce_and_dlogit(p: np.ndarray, target: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise clamped BCE against a constant target, d/d(logit), and
    the mask of terms clamped on the wrong side of the target."""
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    above, below = p > BCE_EPS, p < 1.0 - BCE_EPS
    in_range = above & below
    if target == 1.0:
        return -np.log(pc), np.where(in_range, p - 1.0, 0.0), ~above
    return -np.log1p(-pc), np.where(in_range, p, 0.0), ~below


def _loss_and_grads(raws: list[np.ndarray], targets: Sequence[TargetAssignment]
                    ) -> tuple[LossReport, list[np.ndarray]]:
    """Composite loss of the heads' raw logits against one target set per
    image, and d(loss)/d(raws) as float64 arrays of the heads' shapes.

    One pass per scale covers the whole batch. Each image's canvas,
    lambda_noobj and anchor extents are honoured. Every term is summed per
    image and scale before the math.fsum totals, so an image contributes the
    same terms, and gets the same gradient times 1/n, as in a batch of one.
    """
    n = raws[0].shape[0]
    if len(targets) != n:
        raise ValueError(f"{n} images in the batch but {len(targets)} target sets")
    for r in raws:
        if not np.all(np.isfinite(r)):
            raise TrainingDivergedError("head logits contain non-finite values")
    grids = targets[0].grids
    if tuple(r.shape[2] for r in raws) != grids:
        raise ValueError(f"head grids {[r.shape[2] for r in raws]} do not match "
                         f"targets {grids}")
    lam = np.array([ta.lambda_noobj for ta in targets])
    canvas = np.array([ta.canvas for ta in targets])          # (n, 2) as w, h
    grads: list[np.ndarray] = []
    box_terms: list[float] = []
    obj_terms: list[float] = []
    cls_terms: list[float] = []
    clamped_terms: list[float] = []
    for si, s in enumerate(grids):
        pos = np.stack([ta.obj_mask[si] for ta in targets])   # (n, A, S, S)
        a = pos.shape[1]
        per = raws[si].shape[1] // a
        c = per - 5
        r = raws[si].astype(np.float64).reshape(n, a, per, s, s)
        grads.append(np.zeros(raws[si].shape))
        dr = grads[si].reshape(r.shape)

        p_obj = sigmoid(r[:, :, 4])
        l_pos, g_pos, stuck_pos = _bce_and_dlogit(p_obj, 1.0)
        l_neg, g_neg, stuck_neg = _bce_and_dlogit(p_obj, 0.0)
        cells = (1, 2, 3)
        obj_terms += np.sum(np.where(pos, l_pos, 0.0), axis=cells).tolist()
        obj_terms += (lam * np.sum(np.where(pos, 0.0, l_neg), axis=cells)).tolist()
        clamped_terms += np.sum(l_pos, axis=cells, where=pos & stuck_pos).tolist()
        clamped_terms += (lam * np.sum(l_neg, axis=cells,
                                       where=stuck_neg & ~pos)).tolist()
        dr[:, :, 4] = np.where(pos, g_pos, lam[:, None, None, None] * g_neg)

        # class BCE over every positive of this scale at once: (P, C)
        pb, pa, py, px = np.nonzero(pos)
        p_cls = sigmoid(r[pb, pa, 5:, py, px])
        cls_of = np.stack([ta.cls_target[si] for ta in targets])[pb, pa, py, px]
        onehot = np.arange(c) == cls_of[:, None]
        l1, g1, stuck1 = _bce_and_dlogit(p_cls, 1.0)
        l0, g0, stuck0 = _bce_and_dlogit(p_cls, 0.0)
        l_cls = np.where(onehot, l1, l0)
        cls_terms += np.sum(l_cls, axis=1).tolist()
        # pack each image's positives into its own row, so that its clamped
        # class terms are summed over its rows alone, as in a batch of one
        rank = np.arange(len(pb)) - np.searchsorted(pb, pb)
        rows = np.zeros((n, np.max(rank, initial=-1) + 1, c))
        mask = np.zeros(rows.shape, dtype=bool)
        rows[pb, rank], mask[pb, rank] = l_cls, np.where(onehot, stuck1, stuck0)
        clamped_terms += np.sum(rows.reshape(n, -1), axis=1,
                                where=mask.reshape(n, -1)).tolist()
        dr[pb, pa, 5:, py, px] = np.where(onehot, g1, g0)

        t = r[pb, pa, :4, py, px]
        # finite float32 logits can still overflow exp (~709); anything
        # near that scale is a diverged step, not a loss value
        if np.any(np.abs(t) > 600.0):
            raise TrainingDivergedError("diverged: box logits out of numeric range")
        sxy = sigmoid(t[:, :2])
        stride = canvas[pb] / s
        wh = np.stack([ta.anchor_px[si] for ta in targets])[pb, pa] * np.exp(t[:, 2:])
        pred = np.concatenate([(sxy + np.stack([px, py], 1)) * stride, wh], 1)
        box_gt = np.stack([ta.box_target[si] for ta in targets])[pb, pa, py, px]
        lb, dbox = ciou_loss_grad(pred, box_gt)
        box_terms += lb.tolist()
        dr[pb, pa, :4, py, px] = np.concatenate([dbox[:, :2] * sxy * (1.0 - sxy) * stride,
                                                 dbox[:, 2:] * wh], 1)

    # batch means, so eta does not depend on batch size
    loss_box = math.fsum(box_terms) / n
    loss_obj = math.fsum(obj_terms) / n
    loss_cls = math.fsum(cls_terms) / n
    for gr in grads:
        gr /= n
    report = LossReport(loss_box, loss_obj, loss_cls,
                        loss_box + loss_obj + loss_cls, len(box_terms),
                        math.fsum(clamped_terms) / n)
    return report, grads


def total_loss(heads: Sequence[HeadOutput], targets: Sequence[TargetAssignment]
               ) -> LossReport:
    """Composite loss of a forward pass against assigned targets."""
    return _loss_and_grads([h.raw.data for h in heads], targets)[0]


# ---------------------------------------------------------------------------
# backprop through a graph
# ---------------------------------------------------------------------------

def graph_backward(g: NetGraph, x: nn.Tensor, outputs: list[np.ndarray],
                   caches: list[tuple | None], head_grads: dict[int, np.ndarray]):
    """Propagate d(loss)/d(layer output) seeds back to parameter gradients.

    outputs and caches come from netdef.forward_trace. head_grads maps layer
    index -> gradient array. Returns (param_grads, d_input) where
    param_grads maps conv layer index -> {name: grad}.
    """
    n_layers = len(g.layers)
    d_out: list[np.ndarray | None] = [None] * n_layers
    for idx, grad in head_grads.items():
        d_out[idx] = grad.astype(outputs[idx].dtype)
    param_grads: dict[int, dict[str, np.ndarray]] = {}
    d_input: np.ndarray | None = None

    def send(idx: int, grad: np.ndarray) -> None:
        nonlocal d_input
        if idx < 0:
            d_input = grad if d_input is None else d_input + grad
        elif d_out[idx] is None:
            d_out[idx] = grad.copy()
        else:
            d_out[idx] += grad

    for i in range(n_layers - 1, -1, -1):
        dy = d_out[i]
        if dy is None:
            continue
        sp = g.layers[i]
        src = outputs[i - 1] if i > 0 else x.data      # the layer's input
        if sp.kind == "conv":
            dz = nn.activate_backward(dy, outputs[i], sp.activation)
            pg = param_grads[i] = {}
            if sp.batch_norm:
                dz, pg["gamma"], pg["beta"] = nn.batchnorm_train_backward(dz, caches[i])
            dx, pg["w"], pg["b"] = nn.conv2d_backward(dz, src, g.params[i]["w"], sp.stride)
            send(i - 1, dx)
        elif sp.kind == "max":
            send(i - 1, nn.maxpool_backward(dy, src, outputs[i], sp.size, sp.stride))
        elif sp.kind == "route":
            if sp.split is not None:
                src_c = outputs[sp.route_refs[0]].shape[1]
                send(sp.route_refs[0], nn.split_half_backward(dy, src_c, sp.split))
            else:
                channels = [g.out_shapes[r][0] for r in sp.route_refs]
                for ref, part in zip(sp.route_refs, nn.concat_backward(dy, channels)):
                    send(ref, part)
        elif sp.kind == "upsample":
            send(i - 1, nn.upsample2x_backward(dy))
        elif sp.kind == "yolo_head":
            send(i - 1, dy)
    return param_grads, d_input


def backward_and_step(g: NetGraph, batch: nn.Tensor, targets: Sequence[TargetAssignment],
                      opt: OptimizerConfig) -> tuple[NetGraph, LossReport]:
    """One SGD step over a batch; returns the loss measured before the step.

    g is written only after the loss and every gradient are found finite."""
    outputs, caches, heads = netdef.forward_trace(g, batch)
    report, raw_grads = _loss_and_grads([h.raw.data for h in heads], targets)
    if not math.isfinite(report.loss_total):
        raise TrainingDivergedError(f"loss is not finite: {report}")
    # heads and head_layers() both come in scale-index order
    head_grads = {sp.index: grad for sp, grad in zip(g.head_layers(), raw_grads)}
    param_grads, _ = graph_backward(g, batch, outputs, caches, head_grads)
    for idx, pg in param_grads.items():
        for name, grad in pg.items():
            if not np.all(np.isfinite(grad)):
                raise TrainingDivergedError(
                    f"non-finite gradient at conv layer {idx} ({name})")
    for p, cache in zip(g.params, caches):
        if cache is not None:
            for key, batch_stat in zip(("mean", "var"), cache[3:]):
                p[key] = (BN_MOMENTUM * p[key]
                          + (1.0 - BN_MOMENTUM) * batch_stat).astype(p[key].dtype)
    for idx, pg in param_grads.items():
        p = g.params[idx]
        for name, grad in pg.items():
            p[name] = (p[name] - opt.eta * grad).astype(p[name].dtype)
    return g, report


# ---------------------------------------------------------------------------
# synthetic-shapes scenario
# ---------------------------------------------------------------------------

@dataclass
class ToyScenario:
    """Seeded colored-shapes detection task small enough to train on a CPU.

    train_toy shows each training image under a random symmetry of the
    square (toy_symmetry) and decays the step size from eta to 0 along a
    half cosine over `steps`. The class-level constants fix the task and the
    model shape (toy_graph); the fields are the run's settings.
    """

    num_classes: ClassVar[int] = 3
    img_size: ClassVar[int] = 64
    lambda_noobj: ClassVar[float] = 0.5
    anchors_per_scale: ClassVar[int] = 2
    width: ClassVar[int] = 8
    decode_floor: ClassVar[float] = 0.05

    seed: int = 0
    train_images: int = 1024   # smaller corpora reward background memorization
    val_images: int = 64
    steps: int = 4000          # held-out AP levels off by ~3000 (seeds 0-4)
                               # and holds within ~0.01 to the end
    batch_size: int = 8
    eta: float = 0.004         # peak step size, at step 0
    eval_every: int = 0            # 0: evaluate only at the end

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.steps >= 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not self.val_images >= 1:
            raise ValueError(f"val_images must be >= 1, got {self.val_images}")
        if not self.eval_every >= 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 1 <= self.batch_size <= self.train_images:
            raise ValueError(f"batch_size must be in 1..train_images "
                             f"({self.train_images}), got {self.batch_size}")


# class -> (fill color, shape); even ids are rectangles, odd ids ellipses
_TOY_STYLES = [
    ((0.90, 0.15, 0.10), "rect"),
    ((0.10, 0.85, 0.15), "ellipse"),
    ((0.15, 0.25, 0.95), "rect"),
    ((0.92, 0.85, 0.10), "ellipse"),
]

# class -> extent range in pixels; tying size to identity keeps the task
# learnable from a small corpus instead of rewarding background memorization
_TOY_SIZE_BANDS = [
    (14.0, 20.0),
    (20.0, 27.0),
    (26.0, 36.0),
    (17.0, 23.0),
]


def generate_toy_dataset(seed: int, count: int, img_size: int,
                         num_classes: int) -> list[tuple[np.ndarray, list[tuple[Box, int]]]]:
    """Colored rectangles and ellipses on uniform noise, with exact boxes."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:img_size, 0:img_size]
    out = []
    for _ in range(count):
        img = rng.uniform(0.0, 0.30, size=(3, img_size, img_size)).astype(np.float32)
        gts: list[tuple[Box, int]] = []
        for _ in range(int(rng.integers(1, 3))):
            cls = int(rng.integers(0, num_classes))
            lo, hi = _TOY_SIZE_BANDS[cls]
            w = float(rng.uniform(lo, hi))
            h = float(rng.uniform(lo, hi))
            cx = float(rng.uniform(w / 2 + 1, img_size - w / 2 - 1))
            cy = float(rng.uniform(h / 2 + 1, img_size - h / 2 - 1))
            box = Box(cx, cy, w, h)
            if any(iou(box, b) > 0.10 for b, _ in gts):
                continue
            color, shape = _TOY_STYLES[cls]
            if shape == "rect":
                mask = (np.abs(xx - cx) <= w / 2) & (np.abs(yy - cy) <= h / 2)
            else:
                mask = ((xx - cx) / (w / 2)) ** 2 + ((yy - cy) / (h / 2)) ** 2 <= 1.0
            for ch in range(3):
                img[ch][mask] = color[ch] * float(rng.uniform(0.85, 1.0))
            gts.append((box, cls))
        out.append((img, gts))
    return out


def toy_symmetry(img: np.ndarray, gts: Sequence[tuple[Box, int]], k: int
                 ) -> tuple[np.ndarray, list[tuple[Box, int]]]:
    """Map a CHW toy image and its boxes through symmetry k of the square.

    Bit 0 of k mirrors x, bit 1 mirrors y and bit 2 swaps the axes, so
    k = 0..7 covers all eight. Pixel i has center coordinate i, as in
    generate_toy_dataset, so a mirror takes a box center c to size-1-c. The
    shapes, colors and size bands of the task are unchanged by each of these
    maps, so a mapped sample is as likely a draw as the original.
    """
    size = img.shape[-1]
    gts = list(gts)
    if k & 4:
        img = img.transpose(0, 2, 1)
        gts = [(Box(b.cy, b.cx, b.h, b.w), c) for b, c in gts]
    if k & 1:
        img = img[:, :, ::-1]
        gts = [(Box(size - 1 - b.cx, b.cy, b.w, b.h), c) for b, c in gts]
    if k & 2:
        img = img[:, ::-1, :]
        gts = [(Box(b.cx, size - 1 - b.cy, b.w, b.h), c) for b, c in gts]
    return img, gts


def toy_config(num_classes: int, anchors_per_scale: int, width: int = 8,
               img_size: int = 64) -> str:
    """A slim three-scale graph (strides 4/8/16) for small canvases."""
    w = width
    f = anchors_per_scale * (5 + num_classes)
    body = [
        f"conv 3x3/2 {w}",
        f"conv 3x3/1 {w}",
        f"conv 3x3/2 {2 * w}",
        f"conv 3x3/1 {2 * w}",          # 3: fine lateral
        f"conv 3x3/2 {4 * w}",
        f"conv 3x3/1 {4 * w}",          # 5: mid lateral
        f"conv 3x3/2 {8 * w}",          # 6: coarse trunk
        f"conv 3x3/1 {16 * w}",
        f"conv 1x1/1 {f} linear",
        "head 0",
        "route 6",
        f"conv 1x1/1 {2 * w}",
        "upsample",
        "route 12 5",
        f"conv 1x1/1 {4 * w}",          # 14: mid fuse
        f"conv 3x3/1 {8 * w}",
        f"conv 1x1/1 {f} linear",
        "head 1",
        "route 14",
        f"conv 1x1/1 {w}",
        "upsample",
        "route 20 3",
        f"conv 1x1/1 {2 * w}",
        f"conv 3x3/1 {4 * w}",
        f"conv 1x1/1 {f} linear",
        "head 2",
    ]
    return f"net {img_size} {img_size} 3\n" + "\n".join(body) + "\n"


def toy_graph(sc: ToyScenario, dataset) -> NetGraph:
    """The scenario's slim graph with random weights drawn from sc.seed.

    Its anchors are K-means clusters of the dataset's box extents.
    """
    wh = [(b.w, b.h) for _, gts in dataset for b, _ in gts]
    anchors = kmeans_anchors(wh, k=3 * sc.anchors_per_scale, seed=sc.seed,
                             input_size=sc.img_size)
    g = parse_config(toy_config(sc.num_classes, sc.anchors_per_scale,
                                sc.width, sc.img_size))
    g.attach_detection_meta(sc.num_classes, anchors, sc.anchors_per_scale)
    return g.init_random(sc.seed)


def _init_head_bias(g: NetGraph) -> None:
    # start objectness near zero so the negative-slot sea is quiet
    per = 5 + g.num_classes
    for src in g.head_source_indices():
        b = g.params[src]["b"]
        for a in range(g.anchors_per_scale):
            b[a * per + 4] = -4.0


@dataclass
class TrainResult:
    graph: NetGraph
    anchors: AnchorSet
    history: list[dict]
    final_ap: float
    initial_loss: float
    final_loss: float


def detect_image(g: NetGraph, img: np.ndarray, score_floor: float,
                 nms: SoftNmsConfig = SoftNmsConfig()) -> list[Detection]:
    """The detect pipeline: letterbox -> forward -> decode -> soft-NMS -> map back.

    img is a float32 CHW array in [0, 1] of any size; the returned boxes are
    in its pixels. The graph needs anchors attached. A frame already at the
    input size passes through the letterbox and the map back unchanged. The
    candidates stay arrays until the return. Raises ImageError on an array
    that is not CxHxW or has an empty side, ValueError on a score_floor that
    is negative or NaN.
    """
    if not score_floor >= 0:
        raise ValueError(f"score_floor must be >= 0, got {score_floor}")
    size = g.input_shape[0]
    boxed, tf = images.letterbox(img, size)
    heads = netdef.forward(g, nn.Tensor(boxed[None]))
    parts = [decode_arrays(head, g.anchors.for_scale_index(head.scale_index, len(heads)),
                           size, size, score_floor) for head in heads]
    boxes, classes, scores = (np.concatenate(p) for p in zip(*parts))
    idx, kept = soft_nms_arrays(boxes, classes, scores, nms)
    return as_detections(tf.boxes_to_source(boxes[idx]), classes[idx], kept)


def evaluate_toy(g: NetGraph, dataset, score_floor: float = 0.05) -> float:
    """Held-out AP@0.5."""
    preds = [detect_image(g, img, score_floor) for img, _ in dataset]
    gts = [list(g_) for _, g_ in dataset]
    return evaluate(preds, gts, 0.5, g.num_classes).mean_ap


def train_toy(scenario: ToyScenario = ToyScenario()) -> TrainResult:
    """Train the slim graph on the shapes task; deterministic given the seed.

    Anchors come from K-means over the training boxes. Returns the trained
    graph plus per-step loss history and the held-out mean AP at IoU 0.5.
    Each history row carries clamped_share, the part of the step's loss
    held by saturated BCE terms. Raises TrainingDivergedError, with the rows
    so far (the failing step last) as `history`, when the loss leaves the
    finite range or rises above its initial value with more than half of it
    held by such terms.
    """
    sc = scenario
    train_set = generate_toy_dataset(sc.seed * 1000 + 1, sc.train_images,
                                     sc.img_size, sc.num_classes)
    val_set = generate_toy_dataset(sc.seed * 1000 + 2, sc.val_images,
                                   sc.img_size, sc.num_classes)
    g = toy_graph(sc, train_set)
    _init_head_bias(g)
    grids = g.head_grids()
    rng = np.random.default_rng(sc.seed + 7)
    sym_rng = np.random.default_rng(sc.seed + 11)
    history: list[dict] = []
    initial_loss = final_loss = 0.0
    for step in range(sc.steps):
        idx = rng.choice(len(train_set), size=sc.batch_size, replace=False)
        # each image is seen under a random symmetry of the square
        views = [toy_symmetry(*train_set[i], int(k))
                 for i, k in zip(idx, sym_rng.integers(0, 8, size=len(idx)))]
        batch = nn.Tensor(np.stack([img for img, _ in views]))
        targets = [assign_targets(gts, g.anchors, grids, (sc.img_size, sc.img_size),
                                  sc.num_classes, sc.lambda_noobj,
                                  iou_thresh=TOY_ANCHOR_IOU)
                   for _, gts in views]
        # cosine decay from sc.eta: quiet last steps leave settled weights
        # and batch-norm statistics to evaluate
        opt = OptimizerConfig(
            eta=sc.eta * 0.5 * (1.0 + math.cos(math.pi * step / sc.steps)))
        try:
            g, report = backward_and_step(g, batch, targets, opt)
        except TrainingDivergedError as err:
            err.history = history
            raise
        if step == 0:
            initial_loss = report.loss_total
        final_loss = report.loss_total
        clamped_share = report.loss_clamped / report.loss_total
        entry = {"step": step, "loss_total": report.loss_total,
                 "loss_box": report.loss_box, "loss_obj": report.loss_obj,
                 "loss_cls": report.loss_cls, "clamped_share": clamped_share}
        history.append(entry)
        problem = None
        if not math.isfinite(report.loss_total) or report.loss_total > 1e4:
            problem = "loss out of range"
        elif clamped_share > 0.5 and report.loss_total > initial_loss:
            # saturated terms pass no gradient: the run has stopped learning
            problem = (f"clamped BCE terms carry {clamped_share:.0%} of a loss "
                       f"above its initial {initial_loss:.4g}")
        if problem:
            err = TrainingDivergedError(f"diverged: {problem} at step {step}: "
                                        f"{report}")
            err.history = history
            raise err
        if sc.eval_every and (step + 1) % sc.eval_every == 0:
            entry["val_ap50"] = evaluate_toy(g, val_set, sc.decode_floor)
    final_ap = evaluate_toy(g, val_set, sc.decode_floor)
    return TrainResult(g, g.anchors, history, final_ap, initial_loss, final_loss)
