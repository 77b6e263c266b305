"""Anchor priors via seeded K-means over normalized (w, h) box extents."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_ITER = 300      # Lloyd iterations per run; runs stop earlier once stable
N_INIT = 10         # independent seedings, the lowest-distortion run is kept


@dataclass(frozen=True)
class AnchorSet:
    """Clustered anchor extents in pixels, sorted by area ascending.

    For a three-scale detector the first third belongs to the finest grid,
    the middle third to the middle grid and the largest third to the
    coarsest grid.
    """

    centroids: np.ndarray       # (K, 2) float64, pixels
    input_size: int

    def __post_init__(self):
        arr = np.asarray(self.centroids, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"centroids must be (K, 2), got {arr.shape}")
        # written so that NaN fails too
        if not np.all((0 < arr) & (arr < np.inf)):
            raise ValueError("anchor extents must be positive and finite")
        areas = arr[:, 0] * arr[:, 1]
        if np.any(np.diff(areas) < 0):
            raise ValueError("centroids must be sorted by area ascending")
        object.__setattr__(self, "centroids", arr)

    def __len__(self) -> int:
        return len(self.centroids)

    def per_scale(self, n_scales: int = 3) -> list[np.ndarray]:
        """Anchor groups ordered coarsest scale first (matches head order)."""
        k = len(self.centroids)
        if k % n_scales != 0:
            raise ValueError(f"{k} anchors do not divide into {n_scales} scales")
        step = k // n_scales
        groups = [self.centroids[i * step:(i + 1) * step] for i in range(n_scales)]
        return groups[::-1]

    def for_scale_index(self, scale_index: int, n_scales: int = 3) -> np.ndarray:
        if not 0 <= scale_index < n_scales:
            raise ValueError(f"scale index {scale_index} outside 0..{n_scales - 1}")
        return self.per_scale(n_scales)[scale_index]

    def to_text(self) -> str:
        lines = [f"# {len(self.centroids)} anchors (w,h pixels) for input "
                 f"{self.input_size}"]
        lines += [f"{w:.4f},{h:.4f}" for w, h in self.centroids]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, input_size: int = 416) -> "AnchorSet":
        pairs = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            w, h = (float(v) for v in line.replace(",", " ").split())
            pairs.append((w, h))
        if not pairs:
            raise ValueError("anchor text contains no (w,h) pairs")
        arr = np.array(sorted(pairs, key=lambda p: p[0] * p[1]))
        return cls(arr, input_size)

    @classmethod
    def from_file(cls, path: str | Path, input_size: int = 416) -> "AnchorSet":
        return cls.from_text(Path(path).read_text(), input_size)


def distortion(pairs, centroids) -> float:
    """Sum of squared distances from each point to its nearest centroid."""
    pts = np.asarray(pairs, dtype=np.float64)
    cen = np.asarray(centroids, dtype=np.float64)
    d2 = ((pts[:, None, :] - cen[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())


def iou_wh(pairs: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (w, h) extents anchored at a common corner."""
    iw = np.minimum(pairs[:, None, 0], centroids[None, :, 0])
    ih = np.minimum(pairs[:, None, 1], centroids[None, :, 1])
    inter = iw * ih
    union = (pairs[:, 0] * pairs[:, 1])[:, None] + \
            (centroids[:, 0] * centroids[:, 1])[None, :] - inter
    return inter / union


def _seed_plusplus(norm: np.ndarray, k: int, rng: np.random.Generator,
                   dist2) -> np.ndarray:
    """D²-weighted sequential seeding: each new centroid is drawn with
    probability proportional to its squared distance from the chosen ones."""
    m = len(norm)
    chosen = [int(rng.integers(0, m))]
    while len(chosen) < k:
        d = dist2(norm, norm[chosen]).min(axis=1)
        d[chosen] = 0.0
        total = d.sum()
        if total <= 0.0:
            # all remaining points coincide with a centroid: pick any unused
            rest = [i for i in range(m) if i not in chosen]
            chosen.append(rest[0])
            continue
        chosen.append(int(rng.choice(m, p=d / total)))
    return norm[chosen].copy()


def kmeans_anchors(pairs, k: int, seed: int = 0, input_size: int = 416,
                   metric: str = "euclid", return_history: bool = False):
    """Cluster (w, h) box extents into k anchors.

    pairs are pixel extents at the network input resolution; clustering runs
    on extents normalized by input_size. Assignment uses squared Euclidean
    distance (or 1 - IoU with metric="iou"), centroids move to the arithmetic
    mean, and iteration stops when no centroid moves (or after MAX_ITER
    steps). A cluster left empty is reseeded from the point farthest from
    its centroid. N_INIT independent D²-seeded runs are performed and the
    lowest-distortion result kept.

    Returns an AnchorSet (and the winning run's per-iteration distortion
    history when return_history is set).
    """
    pts = np.asarray(pairs, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (m, 2) extents, got {pts.shape}")
    m = len(pts)
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m} samples, got k={k}")
    if not np.all((0 < pts) & (pts < np.inf)):
        raise ValueError("box extents must be positive and finite")
    if metric not in ("euclid", "iou"):
        raise ValueError(f"metric must be 'euclid' or 'iou', got {metric!r}")
    if not input_size >= 1:
        raise ValueError(f"input_size must be >= 1, got {input_size}")

    norm = pts / float(input_size)
    rng = np.random.default_rng(seed)

    def dist2(points, cents):
        if metric == "iou":
            return 1.0 - iou_wh(points, cents)
        return ((points[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)

    def one_run(centroids):
        history: list[float] = []
        prev = None
        for _ in range(MAX_ITER):
            d2 = dist2(norm, centroids)
            assign = d2.argmin(axis=1)
            new = centroids.copy()
            for ci in range(k):
                members = norm[assign == ci]
                if len(members):
                    new[ci] = members.mean(axis=0)
            # reseed empty clusters from the worst-served point
            taken: set[int] = set()
            for ci in range(k):
                if not np.any(assign == ci):
                    nearest = dist2(norm, new).min(axis=1)
                    nearest[list(taken)] = -np.inf
                    far = int(nearest.argmax())
                    new[ci] = norm[far]
                    taken.add(far)
            cur = distortion(norm, new)
            # the mean update provably never worsens the squared-Euclidean
            # objective; the IoU variant carries no such guarantee
            if metric == "euclid" and prev is not None and cur > prev + 1e-12:
                raise AssertionError(f"distortion increased: {prev} -> {cur}")
            history.append(cur)
            moved = not np.array_equal(new, centroids)
            centroids = new
            prev = cur
            if not moved:
                break
        return centroids, history

    best_c, best_h = None, None
    for _ in range(N_INIT):
        cand_c, cand_h = one_run(_seed_plusplus(norm, k, rng, dist2))
        if best_h is None or cand_h[-1] < best_h[-1] - 1e-15:
            best_c, best_h = cand_c, cand_h

    px = best_c * float(input_size)
    px = px[np.argsort(px[:, 0] * px[:, 1], kind="stable")]
    result = AnchorSet(px, input_size)
    if return_history:
        return result, best_h
    return result
