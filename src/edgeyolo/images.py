"""Minimal image I/O and geometry for feeding the detector.

Images move through the package as float32 CHW arrays in [0, 1]. Disk
format is binary PPM (P6, maxval 255), which needs no third-party reader;
PNG is supported opportunistically when Pillow happens to be installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .postprocess import Detection, as_arrays, as_detections

try:                                    # optional, only for .png files
    from PIL import Image as _PILImage
except ImportError:                     # pragma: no cover - env dependent
    _PILImage = None


class ImageError(ValueError):
    pass


def _read_ppm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited token, skipping `#` comments."""
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageError("truncated PPM header")
    return data[start:pos], pos


def read_ppm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise ImageError(f"{path}: not a binary PPM (P6) file")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_ppm_token(data, pos)
        # ASCII digits only, no sign; int() refuses over 4,300 digits
        if not tok.isdigit() or len(tok) > 9 or int(tok) < 1:
            raise ImageError(f"{path}: width, height and maxval must be "
                             f"positive integers below 1e9, got {tok[:20]!r}")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise ImageError(f"{path}: only maxval 255 is supported, got {maxval}")
    pos += 1                            # single whitespace byte after maxval
    need = w * h * 3
    raster = data[pos:pos + need]
    if len(raster) != need:
        raise ImageError(f"{path}: expected {need} raster bytes, "
                         f"got {len(raster)}")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3)
    return arr.transpose(2, 0, 1).astype(np.float32) / 255.0


def write_ppm(path: str | Path, img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[0] != 3:
        raise ImageError(f"expected a 3xHxW array, got {img.shape}")
    u8 = np.clip(img * 255.0 + 0.5, 0, 255).astype(np.uint8)
    h, w = img.shape[1], img.shape[2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(u8.transpose(1, 2, 0).tobytes())


def read_image(path: str | Path) -> np.ndarray:
    """Dispatch on suffix; PPM always works, PNG only with Pillow present."""
    suffix = Path(path).suffix.lower()
    if suffix == ".ppm":
        return read_ppm(path)
    if suffix == ".png":
        if _PILImage is None:
            raise ImageError("reading PNG requires Pillow; convert to PPM")
        arr = np.asarray(_PILImage.open(path).convert("RGB"))
        return arr.transpose(2, 0, 1).astype(np.float32) / 255.0
    raise ImageError(f"unsupported image format: {path}")


def resize_nearest(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    if out_w < 1 or out_h < 1:
        raise ImageError("target size must be positive")
    c, h, w = img.shape
    rows = np.minimum((np.arange(out_h) * (h / out_h)).astype(int), h - 1)
    cols = np.minimum((np.arange(out_w) * (w / out_w)).astype(int), w - 1)
    return img[:, rows[:, None], cols[None, :]]


@dataclass(frozen=True)
class LetterboxTransform:
    """Maps source-image coordinates into the padded square canvas."""

    scale: float
    pad_x: float
    pad_y: float

    def boxes_to_source(self, boxes: np.ndarray) -> np.ndarray:
        """(N, 4) canvas (cx, cy, w, h) boxes in source-image pixels."""
        return (boxes - (self.pad_x, self.pad_y, 0.0, 0.0)) / self.scale


def letterbox(img: np.ndarray, size: int) -> tuple[np.ndarray, LetterboxTransform]:
    """Aspect-preserving resize onto a size x size canvas, gray padding."""
    if img.ndim != 3 or 0 in img.shape:
        raise ImageError(f"expected a CxHxW array with no empty side, got {img.shape}")
    c, h, w = img.shape
    scale = min(size / w, size / h)
    new_w = max(1, round(w * scale))
    new_h = max(1, round(h * scale))
    resized = resize_nearest(img, new_w, new_h)
    canvas = np.full((c, size, size), 0.5, dtype=np.float32)
    pad_x = (size - new_w) // 2
    pad_y = (size - new_h) // 2
    canvas[:, pad_y:pad_y + new_h, pad_x:pad_x + new_w] = resized
    return canvas, LetterboxTransform(scale, float(pad_x), float(pad_y))


def map_detections_to_source(dets: list[Detection],
                             t: LetterboxTransform) -> list[Detection]:
    boxes, classes, scores = as_arrays(dets)
    return as_detections(t.boxes_to_source(boxes), classes, scores)


_PALETTE = [(1.0, 0.2, 0.2), (0.2, 1.0, 0.2), (0.3, 0.4, 1.0),
            (1.0, 0.9, 0.1), (1.0, 0.4, 1.0), (0.2, 1.0, 1.0)]


def draw_detections(img: np.ndarray, dets: list[Detection]) -> np.ndarray:
    """Returns a copy with one colored box outline per detection."""
    out = img.copy()
    _, h, w = out.shape
    for d in dets:
        left, right = d.box.cx - d.box.w / 2, d.box.cx + d.box.w / 2
        top, bottom = d.box.cy - d.box.h / 2, d.box.cy + d.box.h / 2
        if right < 0 or bottom < 0 or left >= w or top >= h:
            continue        # wholly off the canvas: clamping would paint a border line
        color = _PALETTE[d.class_id % len(_PALETTE)]
        x0 = int(max(0, min(w - 1, left)))
        x1 = int(max(0, min(w - 1, right)))
        y0 = int(max(0, min(h - 1, top)))
        y1 = int(max(0, min(h - 1, bottom)))
        for ch in range(3):
            out[ch, y0, x0:x1 + 1] = color[ch]
            out[ch, y1, x0:x1 + 1] = color[ch]
            out[ch, y0:y1 + 1, x0] = color[ch]
            out[ch, y0:y1 + 1, x1] = color[ch]
    return out
