"""Output checks the benchmark applies to every operation it times.

Each returns a list of problems; an empty list means the output passed. They
take plain values so a test can hand them corrupted outputs.
"""

from __future__ import annotations

import math

import numpy as np

# float32 forward against a float64 copy of the same graph and weights;
# measured differences on the 416 preset are about 5e-6 on logits up to 10
HEAD_ATOL = 1e-4
HEAD_RTOL = 1e-4


def detections(dets, x_range: tuple[float, float],
               y_range: tuple[float, float]) -> list[str]:
    """Finite positive boxes, centres in range, scores in (0, 1], sorted."""
    problems = []
    prev = math.inf
    for i, d in enumerate(dets):
        b = d.box
        if not all(math.isfinite(v) for v in (b.cx, b.cy, b.w, b.h, d.score)):
            problems.append(f"detection {i}: non-finite value")
            continue
        if b.w <= 0 or b.h <= 0:
            problems.append(f"detection {i}: extent {b.w}x{b.h} is not positive")
        if not (x_range[0] <= b.cx <= x_range[1] and y_range[0] <= b.cy <= y_range[1]):
            problems.append(f"detection {i}: centre ({b.cx}, {b.cy}) outside "
                            f"{x_range} x {y_range}")
        if not 0.0 < d.score <= 1.0:
            problems.append(f"detection {i}: score {d.score} outside (0, 1]")
        if d.score > prev:
            problems.append(f"detection {i}: score {d.score} rises above {prev}")
        prev = d.score
    return problems


def canvas_in_source(transform, size: int) -> tuple[tuple[float, float],
                                                     tuple[float, float]]:
    """The size x size letterbox canvas mapped back to source coordinates."""
    x0 = (0.0 - transform.pad_x) / transform.scale
    x1 = (size - transform.pad_x) / transform.scale
    y0 = (0.0 - transform.pad_y) / transform.scale
    y1 = (size - transform.pad_y) / transform.scale
    # allow the last bit of float32 rounding at the canvas edge
    slack = 1e-6 * max(abs(x0), abs(x1), abs(y0), abs(y1), 1.0)
    return (x0 - slack, x1 + slack), (y0 - slack, y1 + slack)


def heads_match(got: list[np.ndarray], ref: list[np.ndarray]) -> list[str]:
    """Head tensors within HEAD_ATOL + HEAD_RTOL * |ref| of the reference."""
    if len(got) != len(ref):
        return [f"{len(got)} heads, reference has {len(ref)}"]
    problems = []
    for i, (a, b) in enumerate(zip(got, ref)):
        if a.shape != b.shape:
            problems.append(f"head {i}: shape {a.shape} != {b.shape}")
            continue
        excess = np.abs(a.astype(np.float64) - b) - (HEAD_ATOL + HEAD_RTOL * np.abs(b))
        if not np.all(np.isfinite(a)) or np.any(excess > 0):
            worst = float(np.nanmax(np.abs(a.astype(np.float64) - b)))
            problems.append(f"head {i}: max abs difference {worst:.3g} beyond "
                            f"tolerance")
    return problems


def loss_falls(losses: list[float], window: int) -> list[str]:
    """The mean loss of the final window is below the step-0 loss.

    Per-step finiteness is checked on each step as it runs.
    """
    if len(losses) <= window:
        return [f"only {len(losses)} steps, need more than {window}"]
    tail = math.fsum(losses[-window:]) / window
    if not tail < losses[0]:      # also false when either side is NaN
        return [f"final {window}-step mean {tail:.4f} is not below "
                f"step-0 loss {losses[0]:.4f}"]
    return []
