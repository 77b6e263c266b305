"""Release gate: one test per shipping criterion.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each test also prints a PASS summary (visible with -s) stating
what was verified and at which tolerance.
"""

import io
import math
import time

import numpy as np
import pytest

from edgeyolo import analyzer, netdef, nn
from edgeyolo.anchors import AnchorSet, kmeans_anchors
from edgeyolo.edgecloud import protocol, sim
from edgeyolo.postprocess import (Box, Detection, SoftNmsConfig, ciou_loss,
                                  evaluate, soft_nms)
from edgeyolo.training import (_loss_and_grads, assign_targets, graph_backward,
                               total_loss, train_toy, ToyScenario)

from conftest import (evaluate_oracle, hard_nms_oracle,
                      optimal_distortion_oracle, random_boxes, soft_nms_oracle)

PRESET = netdef.__file__.rsplit("/", 1)[0] + "/presets"


# ---------------------------------------------------------------------------
# 1. static cost analysis reproduces the golden per-layer table
# ---------------------------------------------------------------------------

def test_criterion_01_bflops_golden_table():
    t0 = time.perf_counter()
    g = netdef.load_config(f"{PRESET}/edge-yolo-416.net")
    report = analyzer.analyze(g)
    mismatches = analyzer.diff_golden(report, f"{PRESET}/table-golden.csv")
    took = time.perf_counter() - t0
    blocking = [m for m in mismatches if not m.known]
    assert blocking == [], blocking
    # spot values quoted in the layer table, same +-0.0005 tolerance
    for idx, want in ((0, 0.075), (1, 0.399), (2, 0.797)):
        assert abs(report.layers[idx].bflops - want) <= 0.0005
    assert took < 1.0, f"analysis took {took:.3f}s"
    print(f"\nPASS 1: per-layer BFLOPS match the golden table within 0.0005 "
          f"({len(mismatches)} known-discrepancy rows excluded), {took:.3f}s")


# ---------------------------------------------------------------------------
# 2. shape inference reproduces every consistent golden shape cell
# ---------------------------------------------------------------------------

def test_criterion_02_shape_golden_cells():
    g = netdef.load_config(f"{PRESET}/edge-yolo-416.net")
    report = analyzer.analyze(g)
    shape_misses = [m for m in analyzer.diff_golden(
        report, f"{PRESET}/table-golden.csv")
        if not m.known and m.field in ("out_c", "out_h", "out_w")]
    assert shape_misses == [], shape_misses
    shapes = {(r.out_w, r.out_h, r.out_c) for r in report.layers}
    first = report.layers[0]
    assert (first.out_w, first.out_h, first.out_c) == (208, 208, 32)
    assert (52, 52, 512) in shapes          # fine-scale merge
    assert (26, 26, 512) in shapes          # mid-scale pooling merge
    assert set(g.head_grids()) == {13, 26, 52}
    print("\nPASS 2: every consistent golden output-shape cell reproduced "
          "exactly (208x208x32, 52x52x512, 26x26x512, head grids 13/26/52)")


# ---------------------------------------------------------------------------
# 3. analytic gradients vs central differences for every core op
# ---------------------------------------------------------------------------

def _probe_worst(f, pairs, rng, h=1e-4, probes=12):
    """Worst relative error between analytic grads and central differences.

    pairs: list of (array, analytic_grad) checked in place.
    """
    worst = 0.0
    for arr, ana in pairs:
        flat = arr.reshape(-1)
        idx = rng.choice(flat.size, size=min(probes, flat.size), replace=False)
        for j in idx:
            keep = flat[j]
            flat[j] = keep + h
            hi = f()
            flat[j] = keep - h
            lo = f()
            flat[j] = keep
            num = (hi - lo) / (2 * h)
            got = ana.reshape(-1)[j]
            denom = max(abs(num), abs(got), 1e-6)
            worst = max(worst, abs(num - got) / denom)
    return worst


def test_criterion_03_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0

    # convolution (strides 1 and 2)
    for stride in (1, 2):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3)) * 0.5
        b = rng.standard_normal(4)
        c = rng.standard_normal(nn.conv2d_raw(x, w, b, stride).shape)
        f = lambda: float((nn.conv2d_raw(x, w, b, stride) * c).sum())
        dx, dw, db = nn.conv2d_backward(c, x, w, stride)
        worst = max(worst, _probe_worst(f, [(x, dx), (w, dw), (b, db)], rng))

    # batch norm, training mode (batch statistics)
    x = rng.standard_normal((3, 4, 5, 5))
    gamma = rng.uniform(0.5, 1.5, 4)
    beta = rng.standard_normal(4)
    c = rng.standard_normal(x.shape)

    def f_bn_train():
        y, _ = nn.batchnorm_train_forward(x, gamma, beta, 1e-5)
        return float((y * c).sum())

    _, cache = nn.batchnorm_train_forward(x, gamma, beta, 1e-5)
    dx, dgamma, dbeta = nn.batchnorm_train_backward(c, cache)
    worst = max(worst, _probe_worst(
        f_bn_train, [(x, dx), (gamma, dgamma), (beta, dbeta)], rng))

    # leaky relu
    x = rng.standard_normal((2, 3, 5, 5)) + 0.05   # keep probes off the kink
    c = rng.standard_normal(x.shape)
    f_act = lambda: float((nn.activate_raw(x, "leaky_relu") * c).sum())
    dx = nn.activate_backward(c, x, "leaky_relu")
    worst = max(worst, _probe_worst(f_act, [(x, dx)], rng))

    # max pool (strided and same-size variants)
    for kernel, stride in ((3, 2), (5, 1)):
        x = rng.standard_normal((2, 2, 8, 8))
        y = nn.maxpool_raw(x, kernel, stride)
        c = rng.standard_normal(y.shape)
        f_pool = lambda: float((nn.maxpool_raw(x, kernel, stride) * c).sum())
        dx = nn.maxpool_backward(c, x, y, kernel, stride)
        worst = max(worst, _probe_worst(f_pool, [(x, dx)], rng))

    # 2x nearest upsample
    x = rng.standard_normal((2, 3, 4, 4))
    c = rng.standard_normal((2, 3, 8, 8))
    f_up = lambda: float((nn.upsample2x_raw(x) * c).sum())
    worst = max(worst, _probe_worst(f_up, [(x, nn.upsample2x_backward(c))], rng))

    # channel concat and half split
    xs = [rng.standard_normal((2, k, 4, 4)) for k in (2, 3)]
    c = rng.standard_normal((2, 5, 4, 4))
    f_cat = lambda: float((nn.concat_channels(xs) * c).sum())
    gs = nn.concat_backward(c, [2, 3])
    worst = max(worst, _probe_worst(f_cat, list(zip(xs, gs)), rng))

    x = rng.standard_normal((2, 6, 4, 4))
    for half in (0, 1):
        c = rng.standard_normal((2, 3, 4, 4))
        f_split = lambda: float((nn.split_half(x, half) * c).sum())
        dx = nn.split_half_backward(c, 6, half)
        worst = max(worst, _probe_worst(f_split, [(x, dx)], rng))

    # total loss through a miniature three-layer graph
    g = netdef.parse_config("net 16 16 3\n"
                            "conv 3x3/2 4\n"
                            "conv 3x3/2 6\n"
                            "conv 1x1/1 7 linear\n"
                            "head 0\n")
    anchors = AnchorSet(np.array([[6.0, 7.0]]), 16)
    g.attach_detection_meta(2, anchors, 1)
    g.init_random(11)
    xin = nn.Tensor(rng.uniform(0, 1, size=(2, 3, 16, 16)))
    gts = [[(Box(6.0, 6.0, 6.5, 7.5), 0)], [(Box(10.0, 9.0, 5.5, 6.0), 1)]]
    targets = [assign_targets(b, anchors, g.head_grids(), (16.0, 16.0), 2)
               for b in gts]

    def f_loss():
        _, _, heads = netdef.forward_trace(g, xin)
        return total_loss(heads, targets).loss_total

    outputs, caches, heads = netdef.forward_trace(g, xin)
    _, raw_grads = _loss_and_grads([h.raw.data for h in heads], targets)
    head_idx = {sp.scale_index: sp.index for sp in g.head_layers()}
    head_grads = {head_idx[h.scale_index]: raw_grads[k]
                  for k, h in enumerate(heads)}
    analytic, _ = graph_backward(g, xin, outputs, caches, head_grads)
    for li, pg in analytic.items():
        pairs = [(g.params[li][name], pg[name])
                 for name in ("w", "b", "gamma", "beta") if name in pg]
        worst = max(worst, _probe_worst(f_loss, pairs, rng, probes=6))

    took = time.perf_counter() - t0
    assert worst < 1e-3, worst
    assert took < 30.0, f"gradient checks took {took:.1f}s"
    print(f"\nPASS 3: analytic vs central-difference gradients (h=1e-4) for "
          f"every core op and the composite loss, worst rel err "
          f"{worst:.2e} < 1e-3, {took:.1f}s")


# ---------------------------------------------------------------------------
# 4. soft suppression equals a brute-force oracle; tiny sigma = hard NMS
# ---------------------------------------------------------------------------

def _random_detections(rng, n, n_classes=3):
    return [Detection(b, int(rng.integers(0, n_classes)),
                      float(rng.uniform(0.01, 1.0)))
            for b in random_boxes(rng, n, canvas=100.0, min_wh=5, max_wh=40)]


def test_criterion_04_soft_nms_oracle():
    rng = np.random.default_rng(4)
    cfg = SoftNmsConfig()
    for trial in range(1000):
        dets = _random_detections(rng, int(rng.integers(0, 11)))
        got = soft_nms(dets, cfg)
        want = soft_nms_oracle(dets, cfg.sigma, cfg.t_nms, cfg.score_floor)
        assert len(got) == len(want), trial
        for a, b in zip(got, want):
            assert a.box == b.box and a.class_id == b.class_id, trial
            assert a.score == pytest.approx(b.score, abs=1e-9), trial
    tiny = SoftNmsConfig(sigma=1e-6, t_nms=0.45, score_floor=0.001)
    for trial in range(1000):
        dets = _random_detections(rng, int(rng.integers(0, 11)))
        got = {(d.box, d.class_id) for d in soft_nms(dets, tiny)}
        want = {(d.box, d.class_id) for d in hard_nms_oracle(dets, 0.45)}
        assert got == want, trial
    print("\nPASS 4: soft suppression matches the brute-force oracle on 1000 "
          "random instances (scores to 1e-9); sigma=1e-6 equals hard NMS")


# ---------------------------------------------------------------------------
# 5. box-overlap loss properties
# ---------------------------------------------------------------------------

def test_criterion_05_ciou_properties():
    rng = np.random.default_rng(5)
    for b in random_boxes(rng, 1000):
        assert ciou_loss(b, b) == 0.0       # bitwise, not approx
    pool = random_boxes(rng, 1000)
    for a, b in zip(pool, reversed(pool)):
        v = ciou_loss(a, b)
        assert 0.0 <= v < 3.0
    assert ciou_loss(Box(5, 5, 2, 2), Box(5, 5, 4, 4)) == \
        pytest.approx(0.75, abs=1e-9)
    print("\nPASS 5: overlap loss is exactly 0 on 1000 identical pairs, "
          "always in [0,3), and the 2x2-in-4x4 concentric case is 0.75+-1e-9")


# ---------------------------------------------------------------------------
# 6. anchor clustering convergence and optimality
# ---------------------------------------------------------------------------

def test_criterion_06_kmeans_properties():
    rng = np.random.default_rng(6)
    for trial in range(100):
        n = int(rng.integers(6, 40))
        k = int(rng.integers(1, min(n, 9)))
        dims = rng.uniform(4, 120, size=(n, 2))
        _, history = kmeans_anchors(dims, k, seed=trial, return_history=True)
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-12, trial
    for trial in range(20):
        dims = rng.uniform(4, 120, size=(int(rng.integers(2, 30)), 2))
        got = kmeans_anchors(dims, 1, seed=trial)
        assert np.allclose(got.centroids[0], dims.mean(axis=0), atol=1e-12)
    locals_seen, trials = 0, 25
    for trial in range(trials):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 4))
        dims = rng.uniform(5, 60, size=(n, 2))
        _, history = kmeans_anchors(dims, k, seed=trial, input_size=416,
                                    return_history=True)
        best = optimal_distortion_oracle(dims / 416.0, k)
        assert history[-1] >= best - 1e-9, (trial, history[-1], best)
        if history[-1] > best + 1e-9:
            locals_seen += 1                # permitted, logged below
    assert locals_seen < 0.2 * trials, f"{locals_seen}/{trials} local optima"
    print(f"\nPASS 6: distortion non-increasing on 100 datasets; K=1 equals "
          f"the mean to 1e-12; {locals_seen}/{trials} local optima on small "
          f"fixtures (logged, < 20% permitted)")


# ---------------------------------------------------------------------------
# 7. end-to-end training on the synthetic shapes task
# ---------------------------------------------------------------------------

def test_criterion_07_toy_training():
    t0 = time.perf_counter()
    result = train_toy(ToyScenario())
    took = time.perf_counter() - t0
    ratio = result.final_loss / result.initial_loss
    assert ratio < 0.2, f"loss only fell to {ratio:.1%} of start"
    assert result.final_ap > 0.9, f"held-out AP@0.5 {result.final_ap:.4f}"
    assert took < 600.0, f"training took {took:.0f}s"
    print(f"\nPASS 7: default training run: loss {result.initial_loss:.2f} -> "
          f"{result.final_loss:.2f} ({ratio:.1%} < 20%), held-out AP@0.5 "
          f"{result.final_ap:.4f} > 0.9, {took:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 8. serialization round trips
# ---------------------------------------------------------------------------

def test_criterion_08_round_trips():
    rng = np.random.default_rng(8)
    types = (protocol.FRAME_UPLOAD, protocol.WEIGHT_PUSH, protocol.ACK)
    for trial in range(1000):
        msg = protocol.Message(types[int(rng.integers(0, 3))],
                               int(rng.integers(0, 2 ** 32)),
                               rng.bytes(int(rng.integers(0, 200))))
        back = protocol.decode_message(protocol.encode_message(msg))
        assert back == msg, trial

    cfg = ("net 16 16 3\n"
           "conv 3x3/2 4\n"
           "conv 3x3/1 6\n"
           "conv 1x1/1 8 linear\n")
    g = netdef.parse_config(cfg)
    g2 = netdef.parse_config(cfg)
    for trial in range(1000):
        g.init_random(trial)
        blob = io.BytesIO()
        netdef.save_weights(g, blob)
        netdef.load_weights(g2, blob.getvalue())
        for li, (params, other) in enumerate(zip(g.params, g2.params)):
            assert params.keys() == other.keys(), (trial, li)
            for name, arr in params.items():
                assert arr.dtype == other[name].dtype, (trial, li, name)
                assert np.array_equal(arr, other[name]), (trial, li, name)
    print("\nPASS 8: 1000 random protocol messages and 1000 random weight "
          "blobs round-trip bitwise")


# ---------------------------------------------------------------------------
# 9. delay-vs-upload-count behavior of the two offloading paths
# ---------------------------------------------------------------------------

def test_criterion_09_simulator_qualitative():
    cloud = sim.run_sim(sim.Scenario(path="cloud", n_frames=300, seed=0))
    means = cloud.prefix_mean_delays()
    assert all(b > a for a, b in zip(means, means[1:]))
    for profile, speed in sim.EDGE_PROFILES.items():
        ecc = sim.run_sim(sim.Scenario(path="ecc", n_frames=300, seed=0,
                                       edge_infer_s=speed))
        assert max(ecc.delays) - min(ecc.delays) <= 1e-9, profile
        assert sim.crossover_frame(cloud, ecc) is not None, profile
    noisy = sim.Scenario(path="cloud", n_frames=200, seed=7,
                         net=sim.NetworkModel(jitter_max_s=0.01,
                                              loss_rate=0.05))
    assert sim.run_sim(noisy).events == sim.run_sim(noisy).events
    t0 = time.perf_counter()
    big = sim.run_sim(sim.Scenario(path="cloud", n_frames=10_000))
    took = time.perf_counter() - t0
    assert len(big.delays) == 10_000
    assert took < 5.0, f"10k-frame run took {took:.2f}s"
    print(f"\nPASS 9: offload-path mean delay strictly increasing, both edge "
          f"profiles constant within 1e-9 with a crossover, seeded traces "
          f"bitwise identical, 10k frames in {took:.2f}s < 5s")


# ---------------------------------------------------------------------------
# 10. precision / recall / AP identities
# ---------------------------------------------------------------------------

def test_criterion_10_metric_identities():
    rng = np.random.default_rng(10)
    for trial in range(1000):
        gts, preds = [], []
        for _ in range(int(rng.integers(1, 4))):
            g_boxes = random_boxes(rng, int(rng.integers(0, 4)), canvas=64,
                                   min_wh=4, max_wh=30)
            gts.append([(b, int(rng.integers(0, 2))) for b in g_boxes])
            preds.append([Detection(b, int(rng.integers(0, 2)),
                                    float(rng.uniform(0.05, 1)))
                          for b in random_boxes(rng, int(rng.integers(0, 5)),
                                                canvas=64, min_wh=4,
                                                max_wh=30)])
        rep = evaluate(preds, gts, 0.5, 2)
        aps, precision, recall = evaluate_oracle(preds, gts, 0.5, 2)
        assert rep.precision == pytest.approx(precision, abs=1e-12), trial
        assert rep.recall == pytest.approx(recall, abs=1e-12), trial
        tp = sum(c.tp for c in rep.per_class)
        fp = sum(c.fp for c in rep.per_class)
        fn = sum(c.fn for c in rep.per_class)
        assert rep.precision == (tp / (tp + fp) if tp + fp else 0.0), trial
        assert rep.recall == (tp / (tp + fn) if tp + fn else 0.0), trial
        for cls_eval, want in zip(rep.per_class, aps):
            if want is None:
                assert cls_eval.ap is None, trial
            else:
                assert cls_eval.ap == pytest.approx(want, abs=1e-9), trial

    # perfect predictions
    gts, preds = [], []
    for _ in range(20):
        boxes = random_boxes(rng, int(rng.integers(1, 4)), canvas=100,
                             min_wh=5, max_wh=30)
        labels = [int(rng.integers(0, 3)) for _ in boxes]
        gts.append(list(zip(boxes, labels)))
        preds.append([Detection(b, c, float(rng.uniform(0.5, 1.0)))
                      for b, c in zip(boxes, labels)])
    assert evaluate(preds, gts, 0.5, 3).mean_ap == pytest.approx(1.0)

    # worked 3-prediction / 2-truth example: envelope AP = 5/6
    g1, g2 = Box(10, 10, 8, 8), Box(40, 40, 8, 8)
    hand = [[Detection(Box(10, 10, 8, 8), 0, 0.9),
             Detection(Box(70, 70, 8, 8), 0, 0.8),
             Detection(Box(40, 41, 8, 8), 0, 0.7)]]
    rep = evaluate(hand, [[(g1, 0), (g2, 0)]], 0.5, 1)
    want_aps, _, _ = evaluate_oracle(hand, [[(g1, 0), (g2, 0)]], 0.5, 1)
    assert rep.per_class[0].ap == pytest.approx(5 / 6, abs=1e-12)
    assert rep.per_class[0].ap == pytest.approx(want_aps[0], abs=1e-12)
    print("\nPASS 10: precision/recall/AP identities hold on 1000 random "
          "fixtures; perfect predictions give AP 1; the 3-pred/2-truth hand "
          "case returns 5/6")
