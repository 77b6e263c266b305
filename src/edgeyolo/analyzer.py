"""Static per-layer cost model: BFLOPS, parameter counts, serialized size.

Conventions: a convolution costs 2*K^2*Cin*Cout*Hout*Wout multiply-adds and
a max pool costs K^2*C*Hout*Wout comparisons, both reported in units of 1e9
(BFLOPS). Routes, upsampling and head markers are free.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .netdef import NetGraph, _HEADER

_GOLDEN_COLUMNS = ("index", "kind", "size", "stride", "filters",
                   "out_c", "out_h", "out_w", "bflops")
BFLOPS_TOL = 0.0005


@dataclass(frozen=True)
class LayerCost:
    index: int
    kind: str
    size: int
    stride: int
    filters: int
    out_c: int
    out_h: int
    out_w: int
    bflops: float
    params: int


@dataclass(frozen=True)
class CostReport:
    layers: tuple[LayerCost, ...]
    total_bflops: float
    total_params: int
    total_weight_bytes: int


@dataclass(frozen=True)
class GoldenMismatch:
    index: int | None
    field: str
    expected: object
    actual: object
    known: bool = False     # row was marked known-discrepancy in the golden file

    def __str__(self) -> str:
        tag = " [known-discrepancy]" if self.known else ""
        return (f"layer {self.index}: {self.field} expected {self.expected}, "
                f"got {self.actual}{tag}")


def analyze(g: NetGraph) -> CostReport:
    """Walk the graph once and price every layer."""
    rows: list[LayerCost] = []
    total_bytes = _HEADER.size
    for sp in g.layers:
        c, h, w = g.out_shapes[sp.index]
        bflops = 0.0
        params = 0
        if sp.kind == "conv":
            cin = g.in_channels_of(sp)
            bflops = 2.0 * sp.size * sp.size * cin * sp.filters * h * w / 1e9
            params = sum(math.prod(s) for s in g.param_shapes(sp).values())
            total_bytes += 4 * params
        elif sp.kind == "max":
            bflops = float(sp.size * sp.size * c * h * w) / 1e9
        rows.append(LayerCost(sp.index, sp.kind, sp.size, sp.stride, sp.filters,
                              c, h, w, bflops, params))
    return CostReport(tuple(rows),
                      total_bflops=sum(r.bflops for r in rows),
                      total_params=sum(r.params for r in rows),
                      total_weight_bytes=total_bytes)


def render_text(report: CostReport) -> str:
    lines = [f"{'idx':>4} {'kind':<10} {'size':>4} {'stride':>6} {'filters':>7} "
             f"{'output':>16} {'BFLOPS':>8} {'params':>9}"]
    for r in report.layers:
        size = f"{r.size}x{r.size}" if r.kind in ("conv", "max") else ""
        filt = str(r.filters) if r.kind == "conv" else ""
        stride = str(r.stride) if r.kind in ("conv", "max") else ""
        out = f"{r.out_w}x{r.out_h}x{r.out_c}"
        bf = f"{r.bflops:.3f}" if r.kind in ("conv", "max") else ""
        pc = str(r.params) if r.params else ""
        lines.append(f"{r.index:>4} {r.kind:<10} {size:>4} {stride:>6} {filt:>7} "
                     f"{out:>16} {bf:>8} {pc:>9}")
    mb = report.total_weight_bytes / 1e6
    lines.append(f"total: {report.total_bflops:.3f} BFLOPS, "
                 f"{report.total_params} params, "
                 f"{report.total_weight_bytes} weight bytes ({mb:.2f} MB)")
    return "\n".join(lines)


def write_csv(report: CostReport, path: str | Path) -> None:
    """Machine-readable per-layer costs; same columns the golden differ reads."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(_GOLDEN_COLUMNS + ("params",))
        for r in report.layers:
            wr.writerow([r.index, r.kind, r.size, r.stride, r.filters,
                         r.out_c, r.out_h, r.out_w, f"{r.bflops:.6f}", r.params])


def read_golden(path: str | Path) -> list[dict]:
    """Read a golden layer table CSV.

    Blank cells mean "do not compare this field". An optional `note` column
    valued `known-discrepancy` marks rows whose mismatches are expected.
    """
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            row: dict = {"note": (rec.get("note") or "").strip()}
            for col in _GOLDEN_COLUMNS:
                val = (rec.get(col) or "").strip()
                if val == "":
                    row[col] = None
                elif col == "kind":
                    row[col] = val
                elif col == "bflops":
                    row[col] = float(val)
                else:
                    row[col] = int(val)
            if row["index"] is None:
                raise ValueError("golden row is missing its layer index")
            rows.append(row)
    return rows


def diff_golden(report: CostReport,
                golden: str | Path | list[dict]) -> list[GoldenMismatch]:
    """Compare a cost report against a golden table row by row.

    Compares kind, output shape and BFLOPS for every golden row; report rows
    without a golden counterpart are ignored. An empty list (or one with only
    `known=True` entries) means the report matches the table.
    """
    rows = golden if isinstance(golden, list) else read_golden(golden)
    by_index = {r.index: r for r in report.layers}
    out: list[GoldenMismatch] = []
    for row in rows:
        idx = row["index"]
        known = row["note"] == "known-discrepancy"
        actual = by_index.get(idx)
        if actual is None:
            out.append(GoldenMismatch(idx, "row-count",
                                      "a layer at this index", "missing", known))
            continue
        if row["kind"] is not None and row["kind"] != actual.kind:
            out.append(GoldenMismatch(idx, "kind", row["kind"], actual.kind, known))
        for shape_field in ("out_c", "out_h", "out_w"):
            want = row[shape_field]
            got = getattr(actual, shape_field)
            if want is not None and want != got:
                out.append(GoldenMismatch(idx, shape_field, want, got, known))
        if row["bflops"] is not None and abs(row["bflops"] - actual.bflops) > BFLOPS_TOL:
            out.append(GoldenMismatch(idx, "bflops", row["bflops"],
                                      round(actual.bflops, 6), known))
    return out
