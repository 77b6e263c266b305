"""K-means anchor clustering against brute-force and closed-form oracles."""

import numpy as np
import pytest

from edgeyolo.anchors import AnchorSet, kmeans_anchors

from conftest import optimal_distortion_oracle


def _random_dims(rng, n, lo=4.0, hi=120.0):
    return rng.uniform(lo, hi, size=(n, 2))


# ---------------------------------------------------------------------------
# convergence behaviour
# ---------------------------------------------------------------------------

def test_distortion_non_increasing_100_datasets(rng):
    for trial in range(100):
        n = int(rng.integers(6, 40))
        k = int(rng.integers(1, min(n, 9)))
        dims = _random_dims(rng, n)
        _, history = kmeans_anchors(dims, k, seed=trial, metric="euclid",
                                    return_history=True)
        assert len(history) >= 1
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-12, (trial, history)


def test_k1_equals_mean(rng):
    for trial in range(20):
        dims = _random_dims(rng, int(rng.integers(2, 30)))
        anchors = kmeans_anchors(dims, 1, seed=trial)
        assert anchors.centroids.shape == (1, 2)
        assert np.allclose(anchors.centroids[0], dims.mean(axis=0), atol=1e-12)


def test_small_fixtures_reach_global_optimum(rng):
    """m <= 12 points: compare converged distortion with the enumeration
    oracle (both in input-normalized units). Local optima are permitted in
    < 20% of seeds."""
    locals_seen = 0
    trials = 25
    for trial in range(trials):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 4))
        dims = _random_dims(rng, n, lo=5, hi=60)
        _, history = kmeans_anchors(dims, k, seed=trial, metric="euclid",
                                    input_size=416, return_history=True)
        got = history[-1]
        best = optimal_distortion_oracle(dims / 416.0, k)
        assert got >= best - 1e-9, (trial, got, best)
        if got > best + 1e-9:
            locals_seen += 1
    assert locals_seen < 0.2 * trials, f"{locals_seen}/{trials} local optima"


def test_iou_metric_produces_valid_anchors(rng):
    """The IoU metric has no monotonic-distortion guarantee; it must still
    terminate with k positive sorted anchors and a finite history."""
    for trial in range(20):
        dims = _random_dims(rng, int(rng.integers(8, 30)))
        anchors, history = kmeans_anchors(dims, 3, seed=trial, metric="iou",
                                          return_history=True)
        assert len(anchors) == 3
        assert np.all(anchors.centroids > 0)
        assert all(np.isfinite(v) for v in history)


def test_determinism(rng):
    dims = _random_dims(rng, 25)
    a = kmeans_anchors(dims, 4, seed=9)
    b = kmeans_anchors(dims, 4, seed=9)
    assert np.array_equal(a.centroids, b.centroids)


def test_exact_cluster_recovery():
    # four tight clusters, k=4: every centroid lands on a cluster mean
    pts = []
    means = [(10, 10), (50, 12), (14, 60), (80, 90)]
    for mx, my in means:
        for dx in (-0.5, 0.0, 0.5):
            pts.append((mx + dx, my - dx))
    anchors = kmeans_anchors(np.array(pts, dtype=float), 4, seed=0)
    got = sorted((round(w), round(h)) for w, h in anchors.centroids)
    assert got == sorted(means)


# ---------------------------------------------------------------------------
# validation and round trips
# ---------------------------------------------------------------------------

def test_k_larger_than_samples_rejected(rng):
    with pytest.raises(ValueError):
        kmeans_anchors(_random_dims(rng, 3), 4, seed=0)


def test_nonpositive_dims_rejected():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            kmeans_anchors(np.array([[4.0, bad], [3.0, 2.0]]), 1, seed=0)
    for bad in (0, -5):
        with pytest.raises(ValueError, match="input_size"):
            kmeans_anchors(np.array([[4.0, 2.0], [3.0, 2.0]]), 1, seed=0, input_size=bad)


def test_bad_metric_rejected(rng):
    with pytest.raises(ValueError):
        kmeans_anchors(_random_dims(rng, 8), 2, seed=0, metric="cosine")


def test_anchorset_sorted_by_area(rng):
    anchors = kmeans_anchors(_random_dims(rng, 40), 6, seed=3)
    areas = [w * h for w, h in anchors.centroids]
    assert areas == sorted(areas)


def test_anchorset_scale_slices(rng):
    anchors = kmeans_anchors(_random_dims(rng, 40), 6, seed=3)
    slices = [anchors.for_scale_index(i, 3) for i in range(3)]
    # scale 0 is the coarsest head: it takes the largest anchors
    assert np.array_equal(np.vstack(slices[::-1]), anchors.centroids)
    with pytest.raises(ValueError):
        anchors.for_scale_index(3, 3)


def test_anchorset_text_round_trip(tmp_path, rng):
    anchors = kmeans_anchors(_random_dims(rng, 30), 6, seed=1)
    p = tmp_path / "anchors.txt"
    p.write_text(anchors.to_text())
    back = AnchorSet.from_text(p.read_text())
    # to_text keeps four decimals
    assert np.allclose(back.centroids, anchors.centroids, atol=1e-4)


def test_anchorset_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        AnchorSet.from_text("12,not-a-number\n")
    with pytest.raises(ValueError):
        AnchorSet.from_text("")
    for text in ("nan,nan\n1,1\n", "-3,4\n1,1\n", "0,4\n", "inf,2\n"):
        with pytest.raises(ValueError, match="positive and finite"):
            AnchorSet.from_text(text)
