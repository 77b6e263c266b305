"""Target assignment, composite loss vs a scalar oracle, SGD stepping."""

import math

import numpy as np
import pytest

from edgeyolo import images, nn, netdef, training
from edgeyolo.anchors import AnchorSet
from edgeyolo.edgecloud.live import demo_setup
from edgeyolo.netdef import HeadOutput, parse_config
from edgeyolo.postprocess import Box, SoftNmsConfig, ciou_loss, decode, soft_nms
from edgeyolo.training import (LossReport, OptimizerConfig, ToyScenario,
                               TrainingDivergedError, _loss_and_grads,
                               assign_targets, backward_and_step, detect_image,
                               graph_backward, total_loss, train_toy)


def _anchor_set(pairs, input_size=416):
    arr = np.array(sorted(pairs, key=lambda p: p[0] * p[1]), dtype=float)
    return AnchorSet(arr, input_size)


# two scales (coarse grid first), two anchors per scale
ANCHORS_2x2 = _anchor_set([(20, 22), (60, 50), (120, 110), (230, 200)])


# ---------------------------------------------------------------------------
# target assignment
# ---------------------------------------------------------------------------

def test_center_cell_selection():
    """Center (176, 240) at stride 32 lands in column 5, row 7."""
    anchors = _anchor_set([(100, 100)])
    ta = assign_targets([(Box(176, 240, 100, 100), 0)], anchors, [13],
                        (416, 416), 1)
    slots = np.argwhere(ta.obj_mask[0])
    assert slots.tolist() == [[0, 7, 5]]
    assert ta.n_positive == 1


def test_anchor_with_matching_shape_wins():
    # gt extent equals anchor 2 exactly: IoU 1 beats every other anchor
    gt = Box(200, 200, 120, 110)
    ta = assign_targets([(gt, 0)], ANCHORS_2x2, [13, 26], (416, 416), 1)
    # anchors sorted by area: (20,22),(60,50) fine grid; (120,110),(230,200) coarse
    assert ta.obj_mask[0][0].any()            # scale 0 (coarse), anchor 0
    assert not ta.obj_mask[0][1].any()
    assert not ta.obj_mask[1].any()


def test_contended_slot_falls_to_next_best_anchor():
    """Two same-shape gts in one cell: the second takes its second-choice
    anchor instead of displacing the first."""
    g1 = Box(200, 200, 120, 110)
    g2 = Box(201, 201, 120, 110)              # same 13-grid cell, same shape
    ta = assign_targets([(g1, 0), (g2, 0)], ANCHORS_2x2, [13, 26], (416, 416), 1)
    assert ta.n_positive == 2
    # first gt holds the exact-match slot
    cell = np.argwhere(ta.obj_mask[0][0])
    assert cell.tolist() == [[6, 6]]
    # the second went somewhere else, and that somewhere is its next-best
    # anchor by extent IoU across all four anchors
    occupied = [(si, ai) for si in range(2)
                for ai in range(2) if ta.obj_mask[si][ai].any()]
    assert (0, 0) in occupied and len(occupied) == 2

    def wh_iou(a, b):
        inter = min(a[0], b[0]) * min(a[1], b[1])
        return inter / (a[0] * a[1] + b[0] * b[1] - inter)

    flat = [(si, ai, tuple(ta.anchor_px[si][ai]))
            for si in range(2) for ai in range(2)]
    ranked = sorted(flat, key=lambda t: -wh_iou((g2.w, g2.h), t[2]))
    assert (ranked[1][0], ranked[1][1]) in occupied


def test_iou_thresh_also_assigns_every_anchor_above_it():
    # coarse anchors (120,110) and (230,200) match the gt at IoU 1 and 0.287;
    # fine anchor (60,50) matches at 0.227, below the threshold
    g1 = Box(200, 200, 120, 110)
    ta = assign_targets([(g1, 0)], ANCHORS_2x2, [13, 26], (416, 416), 1,
                        iou_thresh=0.25)
    assert ta.n_positive == 2
    assert ta.obj_mask[0][:, 6, 6].all() and ta.obj_mask[0].sum() == 2
    assert not ta.obj_mask[1].any()
    assert tuple(ta.box_target[0][1, 6, 6]) == (200, 200, 120, 110)
    # a same-shape gt in the same cell finds both coarse slots taken and
    # falls through to its best free anchor, even one below the threshold
    g2 = Box(201, 201, 120, 110)
    ta = assign_targets([(g1, 0), (g2, 0)], ANCHORS_2x2, [13, 26], (416, 416),
                        1, iou_thresh=0.25)
    assert ta.n_positive == 3
    assert ta.obj_mask[1][1, 12, 12] and ta.obj_mask[1].sum() == 1
    assert tuple(ta.box_target[1][1, 12, 12]) == (201, 201, 120, 110)


def test_exhaustive_small_case_matches_greedy_oracle(rng):
    """Random contention instances: every gt sits on a distinct slot and each
    placement is the best anchor still free at its turn."""
    for trial in range(50):
        gts = []
        for _ in range(int(rng.integers(1, 5))):
            w = float(rng.uniform(15, 230))
            h = float(rng.uniform(15, 230))
            gts.append((Box(float(rng.uniform(40, 370)),
                            float(rng.uniform(40, 370)), w, h),
                        int(rng.integers(0, 2))))
        try:
            ta = assign_targets(gts, ANCHORS_2x2, [13, 26], (416, 416), 2)
        except ValueError:
            continue   # all slots taken is a legal outcome for crowded draws
        assert ta.n_positive == len(gts)

        def wh_iou(a, b):
            inter = min(a[0], b[0]) * min(a[1], b[1])
            return inter / (a[0] * a[1] + b[0] * b[1] - inter)

        taken = set()
        for box, cls in gts:
            flat = []
            for si, grid in enumerate([13, 26]):
                for ai in range(2):
                    aw, ah = ta.anchor_px[si][ai]
                    flat.append((si, ai, wh_iou((box.w, box.h), (aw, ah))))
            flat.sort(key=lambda t: (-t[2], t[0], t[1]))
            for si, ai, _ in flat:
                cy = int(box.cy / (416 / [13, 26][si]))
                cx = int(box.cx / (416 / [13, 26][si]))
                if (si, ai, cy, cx) in taken:
                    continue
                taken.add((si, ai, cy, cx))
                assert ta.obj_mask[si][ai, cy, cx], trial
                assert tuple(ta.box_target[si][ai, cy, cx]) == \
                    (box.cx, box.cy, box.w, box.h)
                assert ta.cls_target[si][ai, cy, cx] == cls
                break
            else:
                pytest.fail("oracle found no free slot but assign_targets did")


def test_assignment_rejects_bad_gts():
    anchors = _anchor_set([(100, 100)])
    with pytest.raises(ValueError):
        assign_targets([(Box(100, 100, 0, 10), 0)], anchors, [13], (416, 416), 1)
    with pytest.raises(ValueError):
        assign_targets([(Box(500, 100, 10, 10), 0)], anchors, [13], (416, 416), 1)
    with pytest.raises(ValueError):
        assign_targets([(Box(100, 100, 10, 10), 3)], anchors, [13], (416, 416), 2)
    for w, h in ((math.nan, 10), (10, math.nan), (math.inf, 10)):
        with pytest.raises(ValueError):
            assign_targets([(Box(100, 100, w, h), 0)], anchors, [13], (416, 416), 1)


# ---------------------------------------------------------------------------
# loss vs an independent scalar re-implementation
# ---------------------------------------------------------------------------

def _bce(p, t):
    p = min(max(p, 1e-7), 1.0 - 1e-7)
    return -math.log(p) if t == 1.0 else -math.log(1.0 - p)


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def loss_oracle(raws, targets):
    """Plain-scalar (batch-mean) recomputation of the composite loss."""
    n = raws[0].shape[0]
    box_v = obj_v = cls_v = 0.0
    for b in range(n):
        ta = targets[b]
        img_w, img_h = ta.canvas
        for si, s in enumerate(ta.grids):
            a = ta.obj_mask[si].shape[0]
            per = raws[si].shape[1] // a
            c = per - 5
            r = raws[si][b].reshape(a, per, s, s).astype(np.float64)
            for ai in range(a):
                for cy in range(s):
                    for cx in range(s):
                        p_obj = _sig(float(r[ai, 4, cy, cx]))
                        if ta.obj_mask[si][ai, cy, cx]:
                            obj_v += _bce(p_obj, 1.0)
                            gx, gy, gw, gh = ta.box_target[si][ai, cy, cx]
                            aw, ah = ta.anchor_px[si][ai]
                            px = (_sig(float(r[ai, 0, cy, cx])) + cx) * (img_w / s)
                            py = (_sig(float(r[ai, 1, cy, cx])) + cy) * (img_h / s)
                            pw = aw * math.exp(float(r[ai, 2, cy, cx]))
                            ph = ah * math.exp(float(r[ai, 3, cy, cx]))
                            box_v += ciou_loss(Box(px, py, pw, ph),
                                               Box(gx, gy, gw, gh))
                            want = ta.cls_target[si][ai, cy, cx]
                            for k in range(c):
                                cls_v += _bce(_sig(float(r[ai, 5 + k, cy, cx])),
                                              1.0 if k == want else 0.0)
                        else:
                            obj_v += ta.lambda_noobj * _bce(p_obj, 0.0)
    return box_v / n, obj_v / n, cls_v / n


def _rand_heads(rng, n, grids=(4, 8), a=2, c=3, scale_logits=3.0):
    raws = []
    for si, s in enumerate(grids):
        raw = rng.normal(0, scale_logits, size=(n, a * (5 + c), s, s))
        raws.append(raw.astype(np.float64))
    return [HeadOutput(scale_index=si, scale=grids[si], raw=nn.Tensor(raws[si]))
            for si in range(len(grids))], raws


def _rand_targets(rng, n, anchors, grids=(4, 8), c=3, canvas=(64.0, 64.0),
                  lambda_noobj=0.5):
    out = []
    for _ in range(n):
        gts = []
        for _ in range(int(rng.integers(1, 4))):
            w = float(rng.uniform(6, 40))
            h = float(rng.uniform(6, 40))
            gts.append((Box(float(rng.uniform(w / 2, canvas[0] - w / 2)),
                            float(rng.uniform(h / 2, canvas[1] - h / 2)), w, h),
                        int(rng.integers(0, c))))
        try:
            out.append(assign_targets(gts, anchors, grids, canvas, c, lambda_noobj))
        except ValueError:
            out.append(assign_targets(gts[:1], anchors, grids, canvas, c, lambda_noobj))
    return out


TOY_ANCHORS = _anchor_set([(8, 9), (14, 12), (22, 25), (34, 30)], input_size=64)
WIDE_ANCHORS = _anchor_set([(12, 6), (18, 10), (30, 16), (40, 24)], input_size=64)


def test_loss_matches_scalar_oracle(rng):
    # the last batch's images differ in canvas, lambda_noobj and anchors
    mixed = [((64.0, 64.0), 0.5, TOY_ANCHORS), ((96.0, 48.0), 0.25, WIDE_ANCHORS),
             ((48.0, 80.0), 1.0, TOY_ANCHORS)]
    for trial in range(31):
        n = int(rng.integers(1, 4)) if trial < 30 else len(mixed)
        heads, raws = _rand_heads(rng, n)
        targets = _rand_targets(rng, n, TOY_ANCHORS) if trial < 30 else \
            [_rand_targets(rng, 1, anchors, canvas=canvas, lambda_noobj=lam)[0]
             for canvas, lam, anchors in mixed]
        rep = total_loss(heads, targets)
        box_v, obj_v, cls_v = loss_oracle(raws, targets)
        assert rep.loss_box == pytest.approx(box_v, rel=1e-10), trial
        assert rep.loss_obj == pytest.approx(obj_v, rel=1e-10), trial
        assert rep.loss_cls == pytest.approx(cls_v, rel=1e-10), trial
        assert rep.loss_total == rep.loss_box + rep.loss_obj + rep.loss_cls


def test_box_gradients_of_a_batch_equal_single_image_batches(rng):
    _, raws = _rand_heads(rng, 3)
    targets = _rand_targets(rng, 3, TOY_ANCHORS)
    _, grads = _loss_and_grads(raws, targets)
    for b in range(3):
        _, single = _loss_and_grads([r[b:b + 1] for r in raws], targets[b:b + 1])
        for si in range(len(raws)):
            assert np.array_equal(grads[si][b], single[si][0] / 3), (b, si)
    assert any(np.any(g[:, :4] != 0) for g in grads)   # positives have box grads


def test_loss_batch_order_invariance(rng):
    n = 4
    heads, raws = _rand_heads(rng, n)
    targets = _rand_targets(rng, n, TOY_ANCHORS)
    rep = total_loss(heads, targets)
    perm = [2, 0, 3, 1]
    heads_p = [HeadOutput(h.scale_index, h.scale, nn.Tensor(r[perm]))
               for h, r in zip(heads, raws)]
    rep_p = total_loss(heads_p, [targets[i] for i in perm])
    assert rep_p.loss_total == pytest.approx(rep.loss_total, rel=1e-14)


def test_loss_gt_order_invariance(rng):
    # well-separated gts so assignment cannot contend on any slot
    gts = [(Box(10, 10, 8, 9), 0), (Box(40, 40, 22, 25), 1),
           (Box(55, 12, 14, 12), 2)]
    heads, raws = _rand_heads(rng, 1)
    ta_fwd = assign_targets(gts, TOY_ANCHORS, (4, 8), (64.0, 64.0), 3)
    ta_rev = assign_targets(gts[::-1], TOY_ANCHORS, (4, 8), (64.0, 64.0), 3)
    a = total_loss(heads, [ta_fwd]).loss_total
    b = total_loss(heads, [ta_rev]).loss_total
    assert a == pytest.approx(b, rel=1e-14)


def test_loss_no_gts_quiet_logits():
    grids = (4, 8)
    a, c = 2, 3
    raws = [np.full((1, a * (5 + c), s, s), 0.0) for s in grids]
    for r in raws:
        r[:, 4::5 + c] = -20.0
        r[:, 4 + (5 + c)::5 + c] = -20.0
    ta = assign_targets([], TOY_ANCHORS, grids, (64.0, 64.0), c)
    heads = [HeadOutput(si, grids[si], nn.Tensor(raws[si]))
             for si in range(2)]
    rep = total_loss(heads, [ta])
    assert rep.loss_box == 0.0 and rep.loss_cls == 0.0
    # clamping floors each negative slot at lambda * 1e-7
    n_slots = sum(a * s * s for s in grids)
    assert rep.loss_obj <= 1e-6 * n_slots
    assert rep.n_positive == 0


def _exact_fit_case():
    """One 4x4 scale, two anchors, two gts; logits that fit them exactly."""
    grids = (4,)
    a, c = 2, 3
    canvas = 64.0
    anchors = _anchor_set([(8, 9), (22, 25)], input_size=64)
    # centers exactly on half-cell positions make the x/y logits exactly 0
    gts = [(Box(24.0, 8.0, 22.0, 25.0), 1), (Box(40.0, 56.0, 8.0, 9.0), 2)]
    ta = assign_targets(gts, anchors, grids, (canvas, canvas), c)
    assert ta.n_positive == 2
    raws = [np.zeros((1, a * (5 + c), s, s)) for s in grids]
    for si, s in enumerate(grids):
        r = raws[si].reshape(a, 5 + c, s, s)
        r[:, 4] = -20.0
        for ai, cy, cx in zip(*np.nonzero(ta.obj_mask[si])):
            gx, gy, gw, gh = ta.box_target[si][ai, cy, cx]
            aw, ah = ta.anchor_px[si][ai]
            r[ai, 0, cy, cx] = 0.0            # center on the half cell
            r[ai, 1, cy, cx] = 0.0
            r[ai, 2, cy, cx] = math.log(gw / aw)
            r[ai, 3, cy, cx] = math.log(gh / ah)
            r[ai, 4, cy, cx] = 20.0
            for k in range(c):
                r[ai, 5 + k, cy, cx] = 20.0 if k == ta.cls_target[si][ai, cy, cx] \
                    else -20.0
    return ta, raws


def _heads_of(raws):
    return [HeadOutput(si, r.shape[2], nn.Tensor(r)) for si, r in enumerate(raws)]


def test_loss_vanishes_at_exact_targets():
    # one 4x4 scale with two anchors: 32 slots, so the clamp floor of
    # 0.5e-7 per quiet slot stays inside the 3e-6 budget
    ta, raws = _exact_fit_case()
    rep = total_loss(_heads_of(raws), [ta])
    assert rep.loss_total <= 3e-6


def test_loss_reports_terms_clamped_on_the_wrong_side():
    ta, raws = _exact_fit_case()
    stuck = -math.log(1e-7)             # what one saturated term costs
    # +-20 on the correct side saturates too, but against nothing
    assert total_loss(_heads_of(raws), [ta]).loss_clamped == 0.0

    r = raws[0].reshape(2, 8, 4, 4)
    (na, ny, nx), (pa, py, px) = np.argwhere(~ta.obj_mask[0])[0], \
        np.argwhere(ta.obj_mask[0])[0]
    r[na, 4, ny, nx] = 20.0             # a negative slot sure of an object
    rep = total_loss(_heads_of(raws), [ta])
    assert rep.loss_clamped == pytest.approx(ta.lambda_noobj * stuck, rel=1e-9)

    r[pa, 4, py, px] = -20.0            # a positive slot sure of none
    rep = total_loss(_heads_of(raws), [ta])
    assert rep.loss_clamped == pytest.approx((1 + ta.lambda_noobj) * stuck,
                                             rel=1e-9)
    assert rep.loss_clamped <= rep.loss_total
    assert rep.loss_total == rep.loss_box + rep.loss_obj + rep.loss_cls


def test_loss_rejects_non_finite_logits():
    heads, raws = _rand_heads(np.random.default_rng(0), 1)
    raws[0][0, 0, 0, 0] = float("nan")
    heads[0] = HeadOutput(0, heads[0].scale, nn.Tensor(raws[0]))
    ta = _rand_targets(np.random.default_rng(0), 1, TOY_ANCHORS)
    with pytest.raises(TrainingDivergedError):
        total_loss(heads, ta)


# ---------------------------------------------------------------------------
# gradients through a real graph
# ---------------------------------------------------------------------------

MINI_CFG = """\
net 16 16 3
conv 3x3/2 4
conv 3x3/2 6
conv 1x1/1 7 linear
head 0
"""

# max pools of both kinds, split routes of both halves, and a conv (layer 5)
# that no head reads, so graph_backward skips it
BRANCHY_CFG = """\
net 16 16 3
conv 3x3/1 4
max 2x2/2
route 1 split 1
conv 3x3/1 4
max 3x3/1
conv 1x1/1 3
route 4 split 0
route 6 2
conv 3x3/2 6
conv 1x1/1 7 linear
head 0
"""


def _mini_graph(cfg=MINI_CFG):
    g = parse_config(cfg)
    anchors = _anchor_set([(6, 7)], input_size=16)
    g.attach_detection_meta(2, anchors, 1)
    g.init_random(11)
    return g, anchors


def _mini_loss(g, x, targets):
    # train-mode forward (batch statistics), matching how gradients and
    # backward_and_step measure the loss
    _, _, heads = netdef.forward_trace(g, x)
    return total_loss(heads, targets).loss_total


def test_total_loss_gradcheck_through_graph(rng):
    """Analytic parameter gradients vs central differences, h=1e-4.

    A conv layer with no analytic gradient must not move the loss."""
    for cfg in (MINI_CFG, BRANCHY_CFG):
        g, anchors = _mini_graph(cfg)
        x = nn.Tensor(rng.uniform(0, 1, size=(2, 3, 16, 16)))
        gts = [[(Box(6.0, 6.0, 6.5, 7.5), 0)], [(Box(10.0, 9.0, 5.5, 6.0), 1)]]
        targets = [assign_targets(b, anchors, g.head_grids(), (16.0, 16.0), 2)
                   for b in gts]

        outputs, caches, heads = netdef.forward_trace(g, x)
        _, raw_grads = _loss_and_grads([h.raw.data for h in heads], targets)
        head_idx = {sp.scale_index: sp.index for sp in g.head_layers()}
        head_grads = {head_idx[h.scale_index]: raw_grads[k]
                      for k, h in enumerate(heads)}
        analytic, _ = graph_backward(g, x, outputs, caches, head_grads)

        h = 1e-4
        worst = 0.0
        for sp in g.conv_layers():
            p, pg = g.params[sp.index], analytic.get(sp.index)
            for name in ("w", "b", "gamma", "beta"):
                if name not in p:
                    continue
                flat = p[name].reshape(-1)
                n_probe = min(10, flat.size)
                probes = rng.choice(flat.size, size=n_probe, replace=False)
                for j in probes:
                    keep = flat[j]
                    flat[j] = keep + h
                    hi = _mini_loss(g, x, targets)
                    flat[j] = keep - h
                    lo = _mini_loss(g, x, targets)
                    flat[j] = keep
                    num = (hi - lo) / (2 * h)
                    ana = pg[name].reshape(-1)[j] if pg else 0.0
                    denom = max(abs(num), abs(ana), 1e-6)
                    worst = max(worst, abs(num - ana) / denom)
        assert worst < 1e-3, (cfg, worst)


def test_single_step_decreases_loss_tiny_eta():
    g, anchors = _mini_graph()
    rng = np.random.default_rng(5)
    x = nn.Tensor(rng.uniform(0, 1, size=(1, 3, 16, 16)))
    targets = [assign_targets([(Box(8.0, 8.0, 6.0, 7.0), 0)], anchors,
                              g.head_grids(), (16.0, 16.0), 2)]
    before = _mini_loss(g, x, targets)
    g, report = backward_and_step(g, x, targets, OptimizerConfig(eta=1e-6))
    assert report.loss_total == pytest.approx(before, rel=1e-12)
    after = _mini_loss(g, x, targets)
    assert after < before


def test_step_scales_linearly_with_eta():
    def deltas(eta):
        g, anchors = _mini_graph()
        x = nn.Tensor(np.random.default_rng(5).uniform(0, 1, size=(1, 3, 16, 16)))
        targets = [assign_targets([(Box(8.0, 8.0, 6.0, 7.0), 0)], anchors,
                                  g.head_grids(), (16.0, 16.0), 2)]
        before = {i: {k: v.copy() for k, v in p.items()}
                  for i, p in enumerate(g.params) if p is not None}
        backward_and_step(g, x, targets, OptimizerConfig(eta=eta))
        return {(i, k): g.params[i][k].astype(np.float64) - before[i][k]
                for i in before for k in before[i]}

    d1 = deltas(1e-5)
    d2 = deltas(2e-5)
    for key, v1 in d1.items():
        if key[1] in ("mean", "var"):
            continue   # running statistics update regardless of eta
        # parameters live in float32: deltas resolve to ~1 ulp of the stored
        # value (1.2e-7 at magnitude 1), so allow two ulps of slack
        assert np.allclose(d2[key], 2.0 * v1, rtol=5e-3, atol=2.5e-7), key


def test_effectively_zero_eta_keeps_weights_bitwise():
    # the optimizer requires eta > 0; a denormal-scale eta must round away
    g, anchors = _mini_graph()
    x = nn.Tensor(np.random.default_rng(5).uniform(0, 1, size=(1, 3, 16, 16)))
    targets = [assign_targets([(Box(8.0, 8.0, 6.0, 7.0), 0)], anchors,
                              g.head_grids(), (16.0, 16.0), 2)]
    snap = [{k: v.copy() for k, v in p.items()} if p is not None else None
            for p in g.params]
    backward_and_step(g, x, targets, OptimizerConfig(eta=1e-300))
    for p, s in zip(g.params, snap):
        if p is None:
            continue
        for k in ("w", "b", "gamma", "beta"):
            if k in p:
                assert np.array_equal(p[k], s[k]), k


def test_diverged_step_leaves_the_graph_unchanged():
    g, anchors = _mini_graph()
    g.params[2]["w"] *= 1e6             # head logits far past exp's range
    x = nn.Tensor(np.random.default_rng(5).uniform(0, 1, size=(2, 3, 16, 16)))
    targets = [assign_targets([(Box(8.0, 8.0, 6.0, 7.0), 0)], anchors,
                              g.head_grids(), (16.0, 16.0), 2)] * 2
    snap = [{k: v.copy() for k, v in p.items()} if p is not None else None
            for p in g.params]
    with pytest.raises(TrainingDivergedError, match="numeric range"):
        backward_and_step(g, x, targets, OptimizerConfig(eta=1e-3))
    for p, s in zip(g.params, snap):
        if p is None:
            continue
        for k in p:                     # running mean and var included
            assert np.array_equal(p[k], s[k]), k


def test_optimizer_rejects_nonpositive_eta():
    for bad in (0.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eta"):
            OptimizerConfig(eta=bad)


def test_update_rule_arithmetic():
    # theta = 1, gradient 2, eta = 2e-4 -> 0.9996
    assert 1.0 - 0.0002 * 2.0 == pytest.approx(0.9996, abs=1e-12)


# ---------------------------------------------------------------------------
# toy loop behaviour (short runs only; the pinned budget lives in acceptance)
# ---------------------------------------------------------------------------

def test_toy_scenario_rejects_bad_settings():
    # a run that takes no step, evaluates nothing or cannot fill a batch is
    # refused before any data is made
    for bad, field in ((dict(steps=0), "steps"), (dict(steps=-3), "steps"),
                       (dict(val_images=0), "val_images"),
                       (dict(eval_every=-1), "eval_every"),
                       (dict(batch_size=0), "batch_size"),
                       (dict(train_images=4), "batch_size"),
                       (dict(train_images=16, batch_size=17), "batch_size"),
                       (dict(steps=math.nan), "steps"),
                       (dict(val_images=math.nan), "val_images"),
                       (dict(eval_every=math.nan), "eval_every"),
                       (dict(eta=0.0), "eta"), (dict(eta=-1.0), "eta"),
                       (dict(eta=math.nan), "eta"), (dict(eta=math.inf), "eta")):
        with pytest.raises(ValueError, match=field):
            ToyScenario(**bad)
    ToyScenario(steps=1, train_images=8, batch_size=8, val_images=1)


def test_toy_symmetry_moves_boxes_with_pixels():
    """Under each of the eight symmetries, redrawing the mapped boxes the way
    generate_toy_dataset draws them gives exactly the mapped shape pixels."""
    from edgeyolo.training import _TOY_STYLES, generate_toy_dataset, toy_symmetry
    size = 64
    yy, xx = np.mgrid[0:size, 0:size]
    for img, gts in generate_toy_dataset(5, 6, size, 3):
        views = set()
        for k in range(8):
            img_k, gts_k = toy_symmetry(img, gts, k)
            drawn = np.zeros((size, size), dtype=bool)
            for b, cls in gts_k:
                if _TOY_STYLES[cls][1] == "rect":
                    drawn |= (np.abs(xx - b.cx) <= b.w / 2) & \
                        (np.abs(yy - b.cy) <= b.h / 2)
                else:
                    drawn |= ((xx - b.cx) / (b.w / 2)) ** 2 + \
                        ((yy - b.cy) / (b.h / 2)) ** 2 <= 1.0
            # noise stays below 0.3; every fill has a channel above 0.7
            assert np.array_equal(drawn, img_k.max(axis=0) > 0.3), k
            assert [c for _, c in gts_k] == [c for _, c in gts]
            views.add(img_k.tobytes())
        assert len(views) == 8


def test_short_run_reduces_loss_and_is_deterministic():
    sc = ToyScenario(seed=1, steps=40, train_images=16, val_images=4,
                     batch_size=4)
    a = train_toy(sc)
    b = train_toy(sc)
    assert len(a.history) == 40
    assert a.final_loss < a.initial_loss
    assert a.final_loss == b.final_loss
    assert a.final_ap == b.final_ap
    for p, q in zip(a.graph.params, b.graph.params):
        if p is None:
            continue
        for k in p:
            assert np.array_equal(p[k], q[k])


def test_divergence_aborts_with_history():
    sc = ToyScenario(seed=1, steps=400, train_images=8, val_images=4,
                     batch_size=4, eta=5.0)
    with pytest.raises(TrainingDivergedError) as exc:
        train_toy(sc)
    assert isinstance(exc.value.history, list)


def test_loss_out_of_range_aborts_with_history(monkeypatch):
    huge = LossReport(0.0, 2e4, 0.0, 2e4, 1)
    monkeypatch.setattr(training, "backward_and_step", lambda g, *_: (g, huge))
    sc = ToyScenario(seed=1, steps=3, train_images=8, val_images=4, batch_size=4)
    with pytest.raises(TrainingDivergedError) as exc:
        train_toy(sc)
    assert str(exc.value) == f"diverged: loss out of range at step 0: {huge}"
    assert [row["step"] for row in exc.value.history] == [0]


# ---------------------------------------------------------------------------
# the detect pipeline
# ---------------------------------------------------------------------------

DETECT_FLOOR = 0.001


def _detect_graph():
    """32 px, one 8x8 head, two anchors x (5 + 2 classes), random weights."""
    g = parse_config("net 32 32 3\n"
                     "conv 3x3/2 8\n"
                     "conv 3x3/2 8\n"
                     "conv 1x1/1 14 linear\n"
                     "head 0\n")
    g.attach_detection_meta(2, _anchor_set([(6, 6), (12, 10)], 32), 2)
    g.init_random(0)
    return g


def _candidates(g, canvas):
    heads = netdef.forward(g, nn.Tensor(canvas[None]))
    return [d for head in heads
            for d in decode(head, g.anchors.for_scale_index(0, 1), 32, 32,
                            DETECT_FLOOR)]


def _bits(dets):
    return np.array([(d.box.cx, d.box.cy, d.box.w, d.box.h, d.score,
                      d.class_id) for d in dets]).tobytes()


def test_detect_image_letterboxes_and_maps_back_to_source_pixels(rng):
    g = _detect_graph()
    img = rng.random((3, 28, 40), dtype=np.float32)
    got = detect_image(g, img, DETECT_FLOOR)
    boxed, tf = images.letterbox(img, 32)
    kept = soft_nms(_candidates(g, boxed), SoftNmsConfig())
    want = images.map_detections_to_source(kept, tf)
    assert len(got) > 0
    assert _bits(got) == _bits(want)
    assert tf.scale == 0.8 and tf.pad_y == 5.0   # 40x28 -> 32x22, 5 px bands
    for d, k in zip(got, kept):
        assert d.box.cx == pytest.approx(k.box.cx / 0.8)
        assert d.box.cy == pytest.approx((k.box.cy - 5.0) / 0.8)


def test_detect_image_at_input_size_skips_nothing_and_changes_nothing(rng):
    g = _detect_graph()
    img = rng.random((3, 32, 32), dtype=np.float32)
    want = soft_nms(_candidates(g, img), SoftNmsConfig())
    got = detect_image(g, img, DETECT_FLOOR)
    assert len(got) > 0
    assert _bits(got) == _bits(want)


def test_detect_image_equals_the_list_chain_on_several_heads_and_classes(rng):
    # the chain perfbench's detect-416 runs: decode per head, soft_nms, map back
    g, _ = demo_setup(0)
    assert len(g.head_grids()) == 3 and g.num_classes == 3
    img = rng.random((3, 48, 80), dtype=np.float32)
    boxed, tf = images.letterbox(img, 64)
    heads = netdef.forward(g, nn.Tensor(boxed[None]))
    dets = [d for head in heads
            for d in decode(head, g.anchors.for_scale_index(head.scale_index, 3),
                            64, 64, DETECT_FLOOR)]
    want = images.map_detections_to_source(soft_nms(dets, SoftNmsConfig()), tf)
    got = detect_image(g, img, DETECT_FLOOR)
    assert len({d.class_id for d in got}) == 3 and len(got) > 100
    assert _bits(got) == _bits(want)


def test_detect_image_rejects_an_empty_frame_and_a_nan_floor(rng):
    g = _detect_graph()
    with pytest.raises(images.ImageError):
        detect_image(g, np.zeros((3, 0, 20), dtype=np.float32), DETECT_FLOOR)
    with pytest.raises(ValueError, match="score_floor"):
        detect_image(g, rng.random((3, 32, 32), dtype=np.float32), math.nan)
