"""Decode, CIoU, soft suppression, and evaluation metrics."""

import math
import warnings

import numpy as np
import pytest

from edgeyolo import nn, postprocess
from edgeyolo.netdef import HeadOutput
from edgeyolo.postprocess import (Box, Detection, SoftNmsConfig, ciou_loss,
                                  ciou_loss_grad, corner_iou, decode, evaluate,
                                  iou, sigmoid, soft_nms)

from conftest import (evaluate_oracle, hard_nms_oracle, iou_oracle,
                      random_boxes, soft_nms_oracle)


# ---------------------------------------------------------------------------
# IoU basics
# ---------------------------------------------------------------------------

def test_iou_identity_and_disjoint():
    a = Box(10, 10, 4, 4)
    assert iou(a, a) == 1.0
    assert iou(a, Box(100, 100, 4, 4)) == 0.0


def test_iou_matches_oracle(rng):
    for a, b in zip(random_boxes(rng, 300), random_boxes(rng, 300)):
        assert iou(a, b) == pytest.approx(iou_oracle(a, b), abs=1e-12)


def test_corner_iou_broadcasts_and_equals_iou_per_pair(rng):
    boxes = random_boxes(rng, 12, canvas=50, min_wh=2, max_wh=30)
    corners = np.array([b.corners() for b in boxes])
    row = corner_iou(corners[0], corners)
    assert row.shape == (12,)
    assert row.tolist() == [iou(boxes[0], b) for b in boxes]
    grid = corner_iou(corners[:5, None], corners[None, 5:])
    assert grid.shape == (5, 7)
    assert grid.tolist() == [[iou(a, b) for b in boxes[5:]] for a in boxes[:5]]
    assert row[0] == 1.0 and np.all(np.diag(corner_iou(corners[:, None], corners)) == 1.0)


def test_corner_iou_zero_width_and_touching_edges_give_zero():
    a = (0.0, 0.0, 10.0, 10.0)
    others = np.array([(10.0, 0.0, 20.0, 10.0),     # shares the right edge
                       (0.0, 10.0, 10.0, 20.0),     # shares the bottom edge
                       (5.0, 0.0, 5.0, 10.0),       # zero width, inside a
                       (0.0, 5.0, 10.0, 5.0)])      # zero height, inside a
    assert corner_iou(a, others).tolist() == [0.0] * 4
    assert corner_iou(others, others).tolist() == [1.0, 1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def _head_from_raw(raw, scale_index=0):
    return HeadOutput(scale_index=scale_index, scale=raw.shape[2],
                      raw=nn.Tensor(raw))


def test_decode_zero_logits_hand_case():
    """All-zero logits at cell (row 5, col 7), anchor (2, 3), grid 13 on 416:
    center = (0.5 + cell) * 32, size = anchor exactly."""
    c = 2
    a = 1
    raw = np.zeros((1, a * (5 + c), 13, 13), dtype=np.float32)
    # make exactly one cell clear the floor: sigma(2.0)*sigma(2.0) ~ 0.777
    raw[0, 4, 5, 7] = 2.0
    raw[0, 5, 5, 7] = 2.0
    dets = decode(_head_from_raw(raw), np.array([[2.0, 3.0]]), 416, 416,
                  score_floor=0.5)
    assert len(dets) == 1
    d = dets[0]
    assert d.box.cx == pytest.approx((0.5 + 7) * 32)
    assert d.box.cy == pytest.approx((0.5 + 5) * 32)
    assert d.box.w == pytest.approx(2.0)
    assert d.box.h == pytest.approx(3.0)
    assert d.class_id == 0
    assert d.score == pytest.approx(sigmoid(2.0) * sigmoid(2.0))


def test_decode_zero_everything_scores_quarter():
    # sigma(0) * sigma(0) = 0.25: floored out at 0.5, kept at 0.2
    raw = np.zeros((1, 7, 4, 4), dtype=np.float32)
    assert decode(_head_from_raw(raw), np.array([[2.0, 2.0]]), 64, 64, 0.5) == []
    dets = decode(_head_from_raw(raw), np.array([[2.0, 2.0]]), 64, 64, 0.2)
    assert len(dets) == 16
    assert all(d.score == pytest.approx(0.25) for d in dets)


def test_decode_picks_argmax_class():
    raw = np.zeros((1, 9, 2, 2), dtype=np.float32)   # 1 anchor, 4 classes
    raw[0, 4] = 3.0
    raw[0, 5 + 2] = 1.5          # class 2 has the hottest logit
    dets = decode(_head_from_raw(raw), np.array([[5.0, 5.0]]), 32, 32, 0.3)
    assert dets and all(d.class_id == 2 for d in dets)


def test_decode_exponential_size():
    raw = np.zeros((1, 7, 1, 1), dtype=np.float32)
    raw[0, 2] = 1.0
    raw[0, 3] = -1.0
    raw[0, 4] = raw[0, 5] = 4.0
    d = decode(_head_from_raw(raw), np.array([[10.0, 10.0]]), 416, 416, 0.5)[0]
    assert d.box.w == pytest.approx(10.0 * math.e)
    assert d.box.h == pytest.approx(10.0 / math.e)


def test_decode_saturated_objectness_is_quiet():
    # exp(800) overflows to inf; the sigmoid is then exactly 0, not a warning
    raw = np.zeros((1, 7, 2, 2))
    raw[0, 4] = -800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert decode(_head_from_raw(raw), np.array([[5.0, 5.0]]), 32, 32) == []


def test_decode_drops_overflowing_box_sizes():
    # a size logit of 800 overflows exp to an infinite width; soft-NMS would
    # get NaN IoUs from such boxes and keep them all
    raw = np.full((1, 7, 2, 2), 5.0)
    raw[0, 2] = 800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dets = decode(_head_from_raw(raw), np.array([[5.0, 5.0]]), 32, 32, 0.5)
        assert dets == []
        assert soft_nms(dets) == []
    raw[0, 2] = 5.0
    assert len(decode(_head_from_raw(raw), np.array([[5.0, 5.0]]), 32, 32, 0.5)) == 4


def test_decode_takes_the_class_of_the_largest_saturated_logit():
    # sigmoid(40) and sigmoid(50) both round to 1.0; ranking the sigmoids
    # picked the first such class, ranking the logits picks the largest
    raw = np.zeros((1, 8, 1, 1))                    # 1 anchor, 3 classes
    raw[0, 4] = 4.0
    raw[0, 5:, 0, 0] = (40.0, 50.0, 45.0)
    assert sigmoid(40.0) == sigmoid(50.0) == 1.0
    (d,) = decode(_head_from_raw(raw), np.array([[5.0, 5.0]]), 32, 32, 0.5)
    assert d.class_id == 1
    assert d.score == sigmoid(4.0)


# ---------------------------------------------------------------------------
# CIoU
# ---------------------------------------------------------------------------

def test_ciou_zero_on_identical_boxes(rng):
    for b in random_boxes(rng, 1000):
        assert ciou_loss(b, b) == 0.0


def test_ciou_range(rng):
    boxes = random_boxes(rng, 1000)
    perm = list(reversed(boxes))
    for a, b in zip(boxes, perm):
        v = ciou_loss(a, b)
        assert 0.0 <= v < 3.0


def test_ciou_concentric_hand_case():
    # 2x2 inside 4x4, same center: IoU = 1/4, rho = 0, aspect terms cancel
    assert ciou_loss(Box(5, 5, 2, 2), Box(5, 5, 4, 4)) == pytest.approx(0.75, abs=1e-9)


def test_ciou_grad_matches_finite_difference(rng):
    h = 1e-6
    for trial in range(50):
        p = [float(v) for v in rng.uniform(5, 60, size=4)]
        g = [float(v) for v in rng.uniform(5, 60, size=4)]
        _, grad = ciou_loss_grad(p, g)
        for i in range(4):
            stepped_hi = list(p)
            stepped_hi[i] += h
            stepped_lo = list(p)
            stepped_lo[i] -= h
            num = (ciou_loss_grad(stepped_hi, g)[0] -
                   ciou_loss_grad(stepped_lo, g)[0]) / (2 * h)
            assert grad[i] == pytest.approx(num, abs=2e-4), (trial, i)


def test_ciou_on_rows_equals_row_by_row_calls(rng):
    pred = np.column_stack([rng.uniform(5, 60, size=(200, 2)),
                            rng.uniform(1, 40, size=(200, 2))])
    gt = np.column_stack([rng.uniform(5, 60, size=(200, 2)),
                          rng.uniform(1, 40, size=(200, 2))])
    gt[:20] = pred[:20]                      # coincident pairs: alpha is 0
    loss, grad = ciou_loss_grad(pred, gt)
    assert loss.shape == (200,) and grad.shape == (200, 4)
    for i in range(200):
        li, gi = ciou_loss_grad(pred[i], gt[i])
        assert li == loss[i] and np.array_equal(gi, grad[i]), i


def test_ciou_rejects_degenerate_boxes():
    with pytest.raises(ValueError):
        ciou_loss(Box(5, 5, 0, 2), Box(5, 5, 2, 2))
    with pytest.raises(ValueError):
        ciou_loss(Box(5, 5, 2, 2), Box(5, 5, 2, -1))


# ---------------------------------------------------------------------------
# soft suppression
# ---------------------------------------------------------------------------

def _random_detections(rng, n, n_classes=3, canvas=100.0):
    dets = []
    for b in random_boxes(rng, n, canvas=canvas, min_wh=5, max_wh=40):
        dets.append(Detection(b, int(rng.integers(0, n_classes)),
                              float(rng.uniform(0.01, 1.0))))
    return dets


def test_soft_nms_matches_oracle_1000(rng):
    cfg = SoftNmsConfig()
    for trial in range(1000):
        dets = _random_detections(rng, int(rng.integers(0, 11)))
        got = soft_nms(dets, cfg)
        want = soft_nms_oracle(dets, cfg.sigma, cfg.t_nms, cfg.score_floor)
        assert len(got) == len(want), trial
        for a, b in zip(got, want):
            assert a.box == b.box and a.class_id == b.class_id
            assert a.score == pytest.approx(b.score, abs=1e-9)


def test_soft_nms_tiny_sigma_equals_hard_nms(rng):
    cfg = SoftNmsConfig(sigma=1e-6, t_nms=0.45, score_floor=0.001)
    for trial in range(200):
        dets = _random_detections(rng, int(rng.integers(0, 11)))
        got = {(d.box, d.class_id) for d in soft_nms(dets, cfg)}
        want = {(d.box, d.class_id) for d in hard_nms_oracle(dets, 0.45)}
        assert got == want, trial


def test_soft_nms_gaussian_rescale_hand_case():
    # overlap 1/3 < 0.45 keeps the second score; overlap above gate rescales
    a = Detection(Box(10, 10, 10, 10), 0, 0.9)
    b = Detection(Box(14, 10, 10, 10), 0, 0.8)     # IoU = 6*10 / (200-60) = 0.428..
    out = soft_nms([a, b], SoftNmsConfig(sigma=0.5, t_nms=0.4, score_floor=0.001))
    ov = iou(a.box, b.box)
    assert out[0].score == pytest.approx(0.9)
    assert out[1].score == pytest.approx(0.8 * math.exp(-ov / 0.5), abs=1e-12)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_soft_nms_equal_scores_keep_the_lower_index(order):
    pair = [Detection(Box(10, 10, 10, 10), 0, 0.8),
            Detection(Box(12, 10, 10, 10), 0, 0.8)]
    dets = [pair[i] for i in order]
    out = soft_nms(dets, SoftNmsConfig(sigma=0.5, t_nms=0.45, score_floor=0.001))
    assert out[0] == dets[0]
    assert out[1].box == dets[1].box
    assert out[1].score == 0.8 * math.exp(-iou(dets[0].box, dets[1].box) / 0.5)


def test_soft_nms_zero_gate_decays_every_rival_exactly():
    best = Detection(Box(30, 30, 20, 20), 0, 0.95)
    # mutually disjoint rivals, each decayed once by best only; the last one
    # misses best, so exp(-0) leaves it as it was
    rivals = [Detection(Box(22, 22, 10, 10), 0, 0.7),
              Detection(Box(38, 22, 10, 10), 0, 0.6),
              Detection(Box(30, 40, 10, 12), 0, 0.5),
              Detection(Box(90, 90, 10, 10), 0, 0.4)]
    cfg = SoftNmsConfig(sigma=0.5, t_nms=0.0, score_floor=0.001)
    out = soft_nms([best] + rivals, cfg)
    assert out[0] == best
    want = {d.box: d.score * math.exp(-iou(best.box, d.box) / cfg.sigma) for d in rivals}
    assert {d.box: d.score for d in out[1:]} == want
    assert want[rivals[-1].box] == rivals[-1].score


def test_soft_nms_drops_a_rival_decayed_below_the_floor_partway():
    a = Detection(Box(10, 10, 10, 10), 0, 0.9)
    b = Detection(Box(30, 10, 10, 10), 0, 0.8)       # disjoint from a
    c = Detection(Box(20, 10, 20, 10), 0, 0.1)       # IoU 0.2 with each
    cfg = SoftNmsConfig(sigma=0.5, t_nms=0.1, score_floor=0.05)
    after_a = c.score * math.exp(-iou(a.box, c.box) / cfg.sigma)
    after_b = after_a * math.exp(-iou(b.box, c.box) / cfg.sigma)
    assert after_a >= cfg.score_floor > after_b       # the case under test
    assert soft_nms([a, b, c], cfg) == [a, b]


def _crowded_detections(rng, counts, n_levels):
    # the loopback regime: many boxes per class on a 64 px canvas, with
    # scores drawn from a few repeated values
    levels = rng.uniform(0.2, 0.4, size=n_levels)
    dets = [Detection(b, cid, float(rng.choice(levels)))
            for cid, n in enumerate(counts)
            for b in random_boxes(rng, n, canvas=64.0, min_wh=8.0, max_wh=40.0)]
    return [dets[i] for i in rng.permutation(len(dets))]


def _assert_matches_oracle(got, dets, cfg):
    want = soft_nms_oracle(dets, cfg.sigma, cfg.t_nms, cfg.score_floor)
    assert len(got) == len(want)
    # the oracle breaks cross-class score ties by class, soft_nms by index
    want_scores = {(d.box, d.class_id): d.score for d in want}
    for d in got:
        assert d.score == pytest.approx(want_scores[d.box, d.class_id], abs=1e-9)
    rank = {d.box: i for i, d in enumerate(dets)}
    keys = [(-d.score, rank[d.box]) for d in got]
    assert keys == sorted(keys)


# the last two drop boxes below the floor partway through a pass
CROWDED = [SoftNmsConfig(), SoftNmsConfig(t_nms=0.0), SoftNmsConfig(sigma=1e-6),
           SoftNmsConfig(score_floor=0.2), SoftNmsConfig(sigma=0.3, t_nms=0.3)]
CROWDED_CFGS = pytest.mark.parametrize(
    "cfg", CROWDED, ids=["default", "zero_gate", "tiny_sigma", "high_floor", "low_gate"])


@CROWDED_CFGS
def test_soft_nms_matches_oracle_on_crowded_classes(cfg):
    # far more boxes per class than one pass's block
    dets = _crowded_detections(np.random.default_rng(14), (480, 310), 12)
    _assert_matches_oracle(soft_nms(dets, cfg), dets, cfg)


@CROWDED_CFGS
def test_soft_nms_pass_rule_is_exact_at_every_block_size(cfg, monkeypatch):
    # a block of 1 is the one-box loop; larger blocks must agree bit for bit
    rng = np.random.default_rng(15)
    sets = [_crowded_detections(rng, (90, 60), 4) for _ in range(3)]
    monkeypatch.setattr(postprocess, "NMS_BLOCK", 1)
    base = [soft_nms(dets, cfg) for dets in sets]
    for block in (1, 2, 5, 32):
        monkeypatch.setattr(postprocess, "NMS_BLOCK", block)
        for dets, want in zip(sets, base):
            got = soft_nms(dets, cfg)
            assert got == want, block
            _assert_matches_oracle(got, dets, cfg)


def test_soft_nms_block_box_decayed_to_the_bound_waits_for_a_lower_index(monkeypatch):
    # block of 2: a, then b. a decays b to exactly c's score; c sits outside
    # the block at a lower index, so c is kept next and decays b once more
    cfg = SoftNmsConfig(sigma=0.5, t_nms=0.3, score_floor=0.001)
    a = Detection(Box(10, 10, 10, 10), 0, 0.9)
    b = Detection(Box(14, 10, 10, 10), 0, 0.8)
    tie = b.score * math.exp(-iou(a.box, b.box) / cfg.sigma)
    c = Detection(Box(19, 10, 10, 10), 0, tie)
    assert iou(a.box, c.box) < cfg.t_nms <= iou(b.box, c.box)
    monkeypatch.setattr(postprocess, "NMS_BLOCK", 2)
    out = soft_nms([c, a, b], cfg)
    assert out == [a, c, Detection(b.box, 0, tie * math.exp(-iou(b.box, c.box) / cfg.sigma))]
    assert out == soft_nms_oracle([c, a, b], cfg.sigma, cfg.t_nms, cfg.score_floor)


def _force_path(monkeypatch, path):
    """Send every class down one soft-NMS path, whatever its boxes."""
    if path == "rival":
        monkeypatch.setattr(postprocess, "_rivals", lambda pool, rows, cfg:
                            postprocess._rival_pairs(rows, cfg.t_nms, math.inf))
    else:
        monkeypatch.setattr(postprocess, "_rivals", lambda pool, rows, cfg: None)


def _bits(dets):
    """A detection list as (box object, class, score bits): NaN boxes compare."""
    return [(id(d.box), d.class_id, d.score.hex()) for d in dets]


@pytest.mark.parametrize("path", ["rival", "block"])
def test_soft_nms_exactness_tests_hold_on_each_path(path, monkeypatch):
    # the crowded classes split between the paths by themselves; force each
    _force_path(monkeypatch, path)
    for cfg in CROWDED:
        test_soft_nms_matches_oracle_on_crowded_classes(cfg)
        test_soft_nms_pass_rule_is_exact_at_every_block_size(cfg, monkeypatch)
    test_soft_nms_block_box_decayed_to_the_bound_waits_for_a_lower_index(monkeypatch)


def test_soft_nms_paths_are_bitwise_equal_on_loopback_frames(monkeypatch):
    from edgeyolo.edgecloud.live import demo_setup
    from edgeyolo.training import detect_image, generate_toy_dataset

    g, sc = demo_setup(0)
    frames = [img for img, _ in generate_toy_dataset(7, 3, sc.img_size, sc.num_classes)]
    rivals, taken = postprocess._rivals, []

    def noted(*args):
        taken.append(rivals(*args))
        return taken[-1]

    monkeypatch.setattr(postprocess, "_rivals", noted)
    natural = [postprocess.as_arrays(detect_image(g, img, sc.decode_floor)) for img in frames]
    assert any(pairs is not None for pairs in taken)     # the loopback's regime
    for path in ("rival", "block"):
        _force_path(monkeypatch, path)
        for img, want in zip(frames, natural):
            got = postprocess.as_arrays(detect_image(g, img, sc.decode_floor))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], path


@pytest.mark.parametrize("cfg", [
    SoftNmsConfig(), SoftNmsConfig(t_nms=0.0), SoftNmsConfig(t_nms=1.0),
    SoftNmsConfig(t_nms=1 / 3), SoftNmsConfig(sigma=1e-6),
    SoftNmsConfig(score_floor=0.0), SoftNmsConfig(sigma=1e-6, t_nms=0.0, score_floor=0.0)],
    ids=["default", "zero_gate", "unit_gate", "exact_gate", "tiny_sigma", "zero_floor",
         "all_edges"])
def test_soft_nms_paths_are_bitwise_equal_on_pair_search_edge_cases(cfg, monkeypatch):
    edge = [Box(10, 10, 10, 10), Box(10, 10, 10, 10),       # identical
            Box(10, 10, 4, 4), Box(10, 10, 10, 6),           # nested
            Box(20, 10, 10, 10), Box(10, 20, 10, 10),        # touching
            Box(15, 10, 10, 10),                             # IoU exactly 1/3
            Box(12, 12, 0, 8), Box(12, 12, 8, 0),            # zero width, height
            Box(math.nan, 10, 10, 10), Box(10, 10, math.inf, 10),
            Box(-math.inf, 10, 10, 10), Box(10, 10, 10, -math.inf)]
    assert iou(edge[0], edge[6]) == 1 / 3
    # more boxes than a block, with tied scores, so the selection runs too
    rng = np.random.default_rng(17)
    levels = rng.uniform(0.2, 0.9, size=4)
    boxes = edge + random_boxes(rng, 40, canvas=40.0, min_wh=4.0, max_wh=16.0)
    dets = [Detection(b, 0, float(rng.choice(levels))) for b in boxes]
    # areas near the smallest subnormal round the IoU of this pair, 0.27 in
    # exact arithmetic, up to 1; the shrink bound does not hold there
    u = 2.0 ** -537
    tiny = [Box(0.7 * u, 0.5 * u, 1.4 * u, u), Box(1.5 * u, 0.5 * u, 1.4 * u, u)]
    assert iou(*tiny) == 1.0
    dets += [Detection(b, 1, 0.5) for b in tiny]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # inf - inf in the areas
        want = _bits(soft_nms(dets, cfg))
        for path in ("rival", "block"):
            _force_path(monkeypatch, path)
            assert _bits(soft_nms(dets, cfg)) == want, path


def test_rival_pairs_find_every_pair_at_exactly_the_gate(rng):
    # each pair's gate is its own float IoU, which rounding can put above
    # the exact one: the shrunk boxes must still overlap
    for _ in range(2000):
        w1, w2, c = rng.uniform(1, 50), rng.uniform(1, 50), rng.uniform(0, 500)
        x1 = c - w1 / 2 + rng.uniform(0, w1)
        corners = np.array([(c - w1 / 2, 0.0, c + w1 / 2, 10.0), (x1, 0.0, x1 + w2, 10.0)])
        gate = float(corner_iou(corners[0], corners[1]))
        a, b, ov = postprocess._rival_pairs(
            np.stack(postprocess._corner_rows(corners)), gate, math.inf)
        assert ({*a.tolist(), *b.tolist()}, ov.tolist()) == ({0, 1}, [gate])


def test_soft_nms_rival_path_evaluates_only_overlapping_pairs(monkeypatch):
    # ROADMAP item 9: the rival path's work follows the rivals, not the pool
    dets = _crowded_detections(np.random.default_rng(18), (480,), 8)
    corners = np.array([d.box.corners() for d in dets])
    overlapping = np.triu(corner_iou(corners[:, None], corners[None, :]) > 0, 1).sum()
    iou_fn, evaluated = postprocess._iou, []

    def counted_iou(a, b):
        ov = iou_fn(a, b)
        evaluated.append(ov.size)
        return ov

    monkeypatch.setattr(postprocess, "_iou", counted_iou)
    _force_path(monkeypatch, "rival")
    soft_nms(dets, SoftNmsConfig())
    assert 0 < sum(evaluated) <= overlapping


def test_soft_nms_drops_a_class_whose_best_box_is_below_the_floor():
    low = [Detection(Box(10, 10, 10, 10), 0, 0.0005),
           Detection(Box(50, 50, 10, 10), 0, 0.0004)]
    kept = Detection(Box(30, 30, 10, 10), 1, 0.5)
    assert soft_nms(low, SoftNmsConfig()) == []
    assert soft_nms(low + [kept], SoftNmsConfig()) == [kept]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_soft_nms_rejects_non_finite_scores(bad):
    dets = [Detection(Box(10, 10, 10, 10), 0, 0.9),
            Detection(Box(12, 10, 10, 10), 0, bad)]
    with pytest.raises(ValueError, match="finite"):
        soft_nms(dets, SoftNmsConfig())


@pytest.mark.parametrize("field", ["sigma", "t_nms", "score_floor"])
def test_soft_nms_config_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        SoftNmsConfig(**{field: math.nan})


def test_soft_nms_keeps_other_classes(rng):
    a = Detection(Box(10, 10, 10, 10), 0, 0.9)
    b = Detection(Box(10, 10, 10, 10), 1, 0.8)     # same box, other class
    out = soft_nms([a, b], SoftNmsConfig())
    assert {d.class_id for d in out} == {0, 1}
    assert all(d.score in (0.9, 0.8) for d in out)


def test_soft_nms_empty():
    assert soft_nms([], SoftNmsConfig()) == []


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_perfect_predictions_give_ap_one(rng):
    gts, preds = [], []
    for _ in range(20):
        boxes = random_boxes(rng, int(rng.integers(1, 4)), canvas=100,
                             min_wh=5, max_wh=30)
        labels = [int(rng.integers(0, 3)) for _ in boxes]
        gts.append(list(zip(boxes, labels)))
        preds.append([Detection(b, c, float(rng.uniform(0.5, 1.0)))
                      for b, c in zip(boxes, labels)])
    rep = evaluate(preds, gts, 0.5, 3)
    assert rep.mean_ap == pytest.approx(1.0)
    assert rep.precision == pytest.approx(1.0)
    assert rep.recall == pytest.approx(1.0)


def test_eval_identities_1000_fixtures(rng):
    """precision = TP/(TP+FP) and recall = TP/n_gt on random fixtures."""
    for trial in range(1000):
        n_img = int(rng.integers(1, 4))
        gts, preds = [], []
        for _ in range(n_img):
            g_boxes = random_boxes(rng, int(rng.integers(0, 4)), canvas=64,
                                   min_wh=4, max_wh=30)
            gts.append([(b, int(rng.integers(0, 2))) for b in g_boxes])
            p_boxes = random_boxes(rng, int(rng.integers(0, 5)), canvas=64,
                                   min_wh=4, max_wh=30)
            preds.append([Detection(b, int(rng.integers(0, 2)),
                                    float(rng.uniform(0.05, 1)))
                          for b in p_boxes])
        rep = evaluate(preds, gts, 0.5, 2)
        aps, precision, recall = evaluate_oracle(preds, gts, 0.5, 2)
        assert rep.precision == pytest.approx(precision, abs=1e-12), trial
        assert rep.recall == pytest.approx(recall, abs=1e-12), trial
        for cls_eval, want in zip(rep.per_class, aps):
            if want is None:
                assert cls_eval.ap is None
            else:
                assert cls_eval.ap == pytest.approx(want, abs=1e-9), trial


def test_eval_three_pred_two_gt_hand_case():
    """Worked example: 2 gts of one class, 3 scored predictions.

    Ranked by score: hit, miss, hit -> precision points 1/1, 1/2, 2/3 at
    recalls 1/2, 1/2, 1; envelope AP = 0.5 * 1 + 0.5 * (2/3) = 5/6.
    """
    g1, g2 = Box(10, 10, 8, 8), Box(40, 40, 8, 8)
    preds = [[
        Detection(Box(10, 10, 8, 8), 0, 0.9),      # matches g1
        Detection(Box(70, 70, 8, 8), 0, 0.8),      # matches nothing
        Detection(Box(40, 41, 8, 8), 0, 0.7),      # matches g2
    ]]
    rep = evaluate(preds, [[(g1, 0), (g2, 0)]], 0.5, 1)
    assert rep.per_class[0].ap == pytest.approx(5 / 6, abs=1e-12)
    assert rep.precision == pytest.approx(2 / 3, abs=1e-12)
    assert rep.recall == pytest.approx(1.0)
    aps, precision, recall = evaluate_oracle(preds, [[(g1, 0), (g2, 0)]], 0.5, 1)
    assert aps[0] == pytest.approx(5 / 6, abs=1e-12)


def test_eval_duplicate_detections_count_as_fp():
    g = Box(10, 10, 8, 8)
    preds = [[Detection(g, 0, 0.9), Detection(Box(10.5, 10, 8, 8), 0, 0.8)]]
    rep = evaluate(preds, [[(g, 0)]], 0.5, 1)
    assert rep.precision == pytest.approx(0.5)
    assert rep.recall == pytest.approx(1.0)


def test_eval_class_without_gts_has_no_ap():
    preds = [[Detection(Box(5, 5, 4, 4), 1, 0.9)]]
    rep = evaluate(preds, [[(Box(5, 5, 4, 4), 0)]], 0.5, 2)
    assert rep.per_class[0].ap == pytest.approx(0.0)   # gt class, missed
    assert rep.per_class[1].ap is None                 # no gts of class 1
    assert rep.mean_ap == pytest.approx(0.0)


def test_eval_rejects_bad_class_ids():
    with pytest.raises(ValueError):
        evaluate([[Detection(Box(5, 5, 4, 4), 7, 0.9)]], [[]], 0.5, 2)
