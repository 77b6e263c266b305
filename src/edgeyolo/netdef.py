"""Network graphs: text-config parsing, shape inference, forward, weights IO.

A graph is a flat list of layers; every layer implicitly consumes the
previous layer's output except `route`, which references earlier layers by
index. `head` layers mark their input tensor as a detection output.

Config grammar (one layer per line, `#` starts a comment):

    net <W> <H> <C_in>
    conv <K>x<K>/<s> <filters> [linear]
    max <K>x<K>/<s>
    route <i> [<j> ...] [split <0|1>]
    upsample
    head <scale_index>

`conv` layers carry batch norm and a leaky-relu activation unless marked
`linear` (bias only, identity activation).
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import nn
from .nn import ShapeError, Tensor

WEIGHTS_MAGIC = b"EYWT"
WEIGHTS_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")  # magic, format version, layer count, graph signature

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class ConfigError(ValueError):
    """Malformed network config; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None, layer: int | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if layer is not None:
            where.append(f"layer {layer}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)
        self.line = line
        self.layer = layer


class WeightsError(ValueError):
    """Base class for weight blob problems."""


class BadMagicError(WeightsError):
    pass


class VersionMismatchError(WeightsError):
    pass


class SignatureMismatchError(WeightsError):
    pass


class TruncatedWeightsError(WeightsError):
    pass


class NonFiniteWeightsError(WeightsError):
    pass


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass
class LayerSpec:
    """Static description of one layer; weights live in NetGraph.params."""

    index: int
    kind: str                     # conv | max | route | upsample | yolo_head
    size: int = 0                 # kernel size for conv/max
    stride: int = 1
    filters: int = 0              # conv output channels
    route_refs: tuple[int, ...] = ()
    split: int | None = None      # channel half for split routes
    batch_norm: bool = False      # conv only; also selects leaky-relu
    scale_index: int = -1         # yolo_head only

    @property
    def activation(self) -> str:
        return "leaky_relu" if self.batch_norm else "linear"

    def render(self) -> str:
        if self.kind == "conv":
            line = f"conv {self.size}x{self.size}/{self.stride} {self.filters}"
            if not self.batch_norm:
                line += " linear"
            return line
        if self.kind == "max":
            return f"max {self.size}x{self.size}/{self.stride}"
        if self.kind == "route":
            line = "route " + " ".join(str(r) for r in self.route_refs)
            if self.split is not None:
                line += f" split {self.split}"
            return line
        if self.kind == "upsample":
            return "upsample"
        if self.kind == "yolo_head":
            return f"head {self.scale_index}"
        raise ValueError(f"unknown layer kind {self.kind!r}")


@dataclass
class HeadOutput:
    """Raw prediction tensor of one detection scale (grid is scale x scale)."""

    scale_index: int
    scale: int
    raw: Tensor


class NetGraph:
    """A parsed layer graph plus (optionally) its weights and detection meta."""

    def __init__(self, input_shape: tuple[int, int, int], layers: list[LayerSpec]):
        self.input_shape = input_shape          # (w, h, c_in)
        self.layers = layers
        self.out_shapes: list[tuple[int, int, int]] = []   # (c, h, w) per layer
        self.params: list[dict | None] = [None] * len(layers)
        self.num_classes: int | None = None
        self.anchors = None                     # AnchorSet, attached separately
        self.anchors_per_scale: int | None = None
        self._infer_shapes()
        self.free_after = self._plan_liveness()

    # -- static structure ---------------------------------------------------

    def _infer_shapes(self) -> None:
        w, h, c = self.input_shape
        if min(self.input_shape) < 1:
            raise ConfigError(f"input dimensions must be >= 1, got {self.input_shape}")
        shapes: list[tuple[int, int, int]] = []
        scale_seen: set[int] = set()
        for sp in self.layers:
            prev = shapes[sp.index - 1] if sp.index > 0 else (c, h, w)
            if sp.kind == "conv":
                oh = nn.conv_out_size(prev[1], sp.size, sp.stride)
                ow = nn.conv_out_size(prev[2], sp.size, sp.stride)
                shapes.append((sp.filters, oh, ow))
            elif sp.kind == "max":
                oh = nn.pool_out_size(prev[1], sp.size, sp.stride)
                ow = nn.pool_out_size(prev[2], sp.size, sp.stride)
                if oh < 1 or ow < 1:
                    raise ConfigError(f"pool does not fit {prev[1]}x{prev[2]} input",
                                      layer=sp.index)
                shapes.append((prev[0], oh, ow))
            elif sp.kind == "route":
                for r in sp.route_refs:
                    if not 0 <= r < sp.index:
                        raise ConfigError(f"route references layer {r}, which is not "
                                          f"an earlier layer", layer=sp.index)
                srcs = [shapes[r] for r in sp.route_refs]
                if sp.split is not None:
                    if len(srcs) != 1:
                        raise ConfigError("split route takes exactly one source",
                                          layer=sp.index)
                    sc, sh, sw = srcs[0]
                    if sc % 2 != 0:
                        raise ConfigError(f"cannot split {sc} channels in half",
                                          layer=sp.index)
                    shapes.append((sc // 2, sh, sw))
                else:
                    if len({(s[1], s[2]) for s in srcs}) != 1:
                        raise ConfigError("route sources disagree on spatial size",
                                          layer=sp.index)
                    shapes.append((sum(s[0] for s in srcs), srcs[0][1], srcs[0][2]))
            elif sp.kind == "upsample":
                shapes.append((prev[0], prev[1] * 2, prev[2] * 2))
            elif sp.kind == "yolo_head":
                if sp.index == 0:
                    raise ConfigError("head cannot be the first layer", layer=sp.index)
                if prev[1] != prev[2]:
                    raise ConfigError(f"head needs a square grid, got {prev[1]}x{prev[2]}",
                                      layer=sp.index)
                if sp.scale_index in scale_seen:
                    raise ConfigError(f"duplicate head scale index {sp.scale_index}",
                                      layer=sp.index)
                scale_seen.add(sp.scale_index)
                shapes.append(prev)
            else:
                raise ConfigError(f"unknown layer kind {sp.kind!r}", layer=sp.index)
        if scale_seen and scale_seen != set(range(len(scale_seen))):
            raise ConfigError(f"head scale indices must be 0..{len(scale_seen) - 1}, "
                              f"got {sorted(scale_seen)}")
        self.out_shapes = shapes

    def _plan_liveness(self) -> list[list[int]]:
        """free_after[j] lists the outputs whose last reader is layer j.

        Routes read their route_refs, every other layer reads index - 1.
        An output nothing reads is listed under its own layer, so inference
        drops it as soon as it is made (heads keep their own reference).
        """
        last = list(range(len(self.layers)))
        for sp in self.layers:
            for r in sp.route_refs if sp.kind == "route" else (sp.index - 1,):
                if r >= 0:
                    last[r] = sp.index
        free_after: list[list[int]] = [[] for _ in self.layers]
        for i, j in enumerate(last):
            free_after[j].append(i)
        return free_after

    def head_layers(self) -> list[LayerSpec]:
        """Head layer specs sorted coarse grid first (scale index order)."""
        return sorted((sp for sp in self.layers if sp.kind == "yolo_head"),
                      key=lambda sp: sp.scale_index)

    def head_grids(self) -> list[int]:
        return [self.out_shapes[sp.index][1] for sp in self.head_layers()]

    def head_source_indices(self) -> list[int]:
        return [sp.index - 1 for sp in self.head_layers()]

    def canonical_text(self) -> str:
        w, h, c = self.input_shape
        lines = [f"net {w} {h} {c}"]
        lines += [sp.render() for sp in self.layers]
        return "\n".join(lines) + "\n"

    def signature(self) -> int:
        return fnv1a64(self.canonical_text().encode("utf-8"))

    # -- weights ------------------------------------------------------------

    def conv_layers(self) -> list[LayerSpec]:
        return [sp for sp in self.layers if sp.kind == "conv"]

    def is_weighted(self) -> bool:
        return all(self.params[sp.index] is not None for sp in self.conv_layers())

    def in_channels_of(self, sp: LayerSpec) -> int:
        if sp.index == 0:
            return self.input_shape[2]
        return self.out_shapes[sp.index - 1][0]

    def param_shapes(self, sp: LayerSpec) -> dict[str, tuple[int, ...]]:
        """A conv layer's parameter names and shapes in weight-blob order."""
        bn = ("gamma", "beta", "mean", "var") if sp.batch_norm else ()
        return {**{key: (sp.filters,) for key in bn},
                "w": (sp.filters, self.in_channels_of(sp), sp.size, sp.size),
                "b": (sp.filters,)}

    def init_random(self, seed: int = 0, dtype=np.float32) -> "NetGraph":
        """He-scaled random conv weights; identity batch norm stats."""
        rng = np.random.default_rng(seed)
        for sp in self.conv_layers():
            p = {}
            for k, shape in self.param_shapes(sp).items():
                if k == "w":
                    std = np.sqrt(2.0 / (sp.size * sp.size * shape[1]))
                    p[k] = rng.normal(0.0, std, shape).astype(dtype)
                else:
                    fill = np.ones if k in ("gamma", "var") else np.zeros
                    p[k] = fill(shape, dtype=dtype)
            self.params[sp.index] = p
        return self

    def astype(self, dtype) -> "NetGraph":
        for p in self.params:
            if p is not None:
                for k in p:
                    p[k] = p[k].astype(dtype)
        return self

    def attach_detection_meta(self, num_classes: int, anchors,
                              anchors_per_scale: int) -> "NetGraph":
        """Bind class count and anchors; validates head channel counts."""
        if num_classes < 1:
            raise ValueError(f"need at least one class, got {num_classes}")
        heads = self.head_layers()
        if heads and len(anchors.centroids) != anchors_per_scale * len(heads):
            raise ValueError(f"{len(heads)} scales x {anchors_per_scale} anchors "
                             f"needs {anchors_per_scale * len(heads)} anchors, "
                             f"got {len(anchors.centroids)}")
        want = anchors_per_scale * (5 + num_classes)
        for sp in heads:
            got = self.out_shapes[sp.index][0]
            if got != want:
                raise ConfigError(
                    f"head expects {want} channels "
                    f"({anchors_per_scale} anchors x (5+{num_classes})), got {got}",
                    layer=sp.index)
        self.num_classes = num_classes
        self.anchors = anchors
        self.anchors_per_scale = anchors_per_scale
        return self


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_kernel_stride(tok: str, line_no: int) -> tuple[int, int]:
    try:
        size_part, stride_part = tok.split("/")
        ka, kb = size_part.split("x")
        k, k2, s = int(ka), int(kb), int(stride_part)
    except ValueError:
        raise ConfigError(f"expected <K>x<K>/<s>, got {tok!r}", line=line_no) from None
    if k != k2:
        raise ConfigError(f"only square kernels are supported, got {tok!r}", line=line_no)
    if k < 1 or s < 1:
        raise ConfigError(f"kernel and stride must be positive, got {tok!r}", line=line_no)
    return k, s


def parse_config(text: str) -> NetGraph:
    """Parse config text into a shape-checked (unweighted) NetGraph."""
    header: tuple[int, int, int] | None = None
    specs: list[LayerSpec] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        word = toks[0]
        if header is None:
            if word != "net":
                raise ConfigError(f"first directive must be 'net', got {word!r}",
                                  line=line_no)
            if len(toks) != 4:
                raise ConfigError("net takes exactly <W> <H> <C_in>", line=line_no)
            try:
                header = (int(toks[1]), int(toks[2]), int(toks[3]))
            except ValueError:
                raise ConfigError(f"bad net dimensions {toks[1:]}", line=line_no) from None
            continue
        idx = len(specs)
        if word == "conv":
            if len(toks) not in (3, 4) or (len(toks) == 4 and toks[3] != "linear"):
                raise ConfigError("conv takes <K>x<K>/<s> <filters> [linear]",
                                  line=line_no)
            k, s = _parse_kernel_stride(toks[1], line_no)
            if k % 2 == 0:
                raise ConfigError(f"conv kernel must be odd, got {k}", line=line_no)
            if s not in (1, 2):
                raise ConfigError(f"conv stride must be 1 or 2, got {s}", line=line_no)
            try:
                filters = int(toks[2])
            except ValueError:
                raise ConfigError(f"bad filter count {toks[2]!r}", line=line_no) from None
            if filters < 1:
                raise ConfigError(f"filters must be >= 1, got {filters}", line=line_no)
            specs.append(LayerSpec(idx, "conv", size=k, stride=s, filters=filters,
                                   batch_norm=len(toks) == 3))
        elif word == "max":
            if len(toks) != 2:
                raise ConfigError("max takes <K>x<K>/<s>", line=line_no)
            k, s = _parse_kernel_stride(toks[1], line_no)
            specs.append(LayerSpec(idx, "max", size=k, stride=s))
        elif word == "route":
            args = toks[1:]
            split: int | None = None
            if "split" in args:
                at = args.index("split")
                if at != len(args) - 2:
                    raise ConfigError("split takes exactly one trailing 0/1 argument",
                                      line=line_no)
                if args[at + 1] not in ("0", "1"):
                    raise ConfigError(f"split half must be 0 or 1, got {args[at + 1]!r}",
                                      line=line_no)
                split = int(args[at + 1])
                args = args[:at]
            if not args:
                raise ConfigError("route needs at least one source index", line=line_no)
            try:
                refs = tuple(int(a) for a in args)
            except ValueError:
                raise ConfigError(f"bad route indices {args}", line=line_no) from None
            specs.append(LayerSpec(idx, "route", route_refs=refs, split=split))
        elif word == "upsample":
            if len(toks) != 1:
                raise ConfigError("upsample takes no arguments", line=line_no)
            specs.append(LayerSpec(idx, "upsample"))
        elif word == "head":
            if len(toks) != 2:
                raise ConfigError("head takes <scale_index>", line=line_no)
            try:
                scale_index = int(toks[1])
            except ValueError:
                raise ConfigError(f"bad scale index {toks[1]!r}", line=line_no) from None
            if scale_index < 0:
                raise ConfigError(f"scale index must be >= 0, got {scale_index}",
                                  line=line_no)
            specs.append(LayerSpec(idx, "yolo_head", scale_index=scale_index))
        else:
            raise ConfigError(f"unknown directive {word!r}", line=line_no)
    if header is None:
        raise ConfigError("config has no 'net' header")
    return NetGraph(header, specs)


def load_config(path: str | Path) -> NetGraph:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# the shipped 416 detector
# ---------------------------------------------------------------------------

PRESET_DIR = Path(__file__).parent / "presets"


def build_edge_yolo() -> NetGraph:
    """The 416x416 three-scale detector, parsed from presets/edge-yolo-416.net.

    Its heads assume 80 classes and 6 anchors per scale. No anchors are
    attached: the static analyzer and forward pass do not need them,
    detection post-processing does (presets/anchors-416.txt).
    """
    return load_config(PRESET_DIR / "edge-yolo-416.net")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def forward_trace(g: NetGraph, x: Tensor):
    """The training forward; returns (outputs, caches, heads).

    Keeps what graph_backward reads besides x and the graph's shapes: every
    layer output (so each layer's input) and, in caches, each batch norm's
    cache (None for other layers). Batch norm uses batch statistics;
    backward_and_step folds them into the running estimates, so no call
    here writes the graph.
    """
    return _run(g, x, train=True)


def forward(g: NetGraph, x: Tensor) -> list[HeadOutput]:
    """Inference: returns head outputs ordered coarsest grid first.

    Keeps no training state: batch norm uses the running statistics, no
    backward caches are built and each layer output is dropped once its
    last reader has run (g.free_after).
    """
    _, _, heads = _run(g, x, train=False)
    return heads


def _run(g: NetGraph, x: Tensor, train: bool):
    """The layer loop behind forward (train=False) and forward_trace (train=True)."""
    w, h, c = g.input_shape
    if (x.c, x.h, x.w) != (c, h, w):
        raise ShapeError(f"graph expects input (c,h,w)=({c},{h},{w}), "
                         f"got ({x.c},{x.h},{x.w})")
    if not g.is_weighted():
        missing = [sp.index for sp in g.conv_layers() if g.params[sp.index] is None]
        raise ValueError(f"graph has no weights for conv layers {missing}")
    outputs: list[np.ndarray | None] = []
    caches: list[tuple | None] = []
    heads: list[HeadOutput] = []
    for sp in g.layers:
        src = outputs[sp.index - 1] if sp.index > 0 else x.data
        cache = None
        if sp.kind == "conv":
            p = g.params[sp.index]
            z = nn.conv2d_raw(src, p["w"], p["b"], sp.stride)
            if sp.batch_norm and train:
                z, cache = nn.batchnorm_train_forward(z, p["gamma"], p["beta"], 1e-5)
            elif sp.batch_norm:
                z = nn.batchnorm_infer_raw(z, p["gamma"], p["beta"],
                                           p["mean"], p["var"], 1e-5)
            out = nn.activate_raw(z, sp.activation)
            del z       # not held while the next layer runs
        elif sp.kind == "max":
            out = nn.maxpool_raw(src, sp.size, sp.stride)
        elif sp.kind == "route":
            # no local list of sources, so a freed output is not held past its reader
            if sp.split is not None:
                out = nn.split_half(outputs[sp.route_refs[0]], sp.split)
            else:
                out = nn.concat_channels([outputs[r] for r in sp.route_refs])
        elif sp.kind == "upsample":
            out = nn.upsample2x_raw(src)
        elif sp.kind == "yolo_head":
            out = src
            heads.append(HeadOutput(sp.scale_index, src.shape[2], Tensor(src)))
        else:
            raise ValueError(f"unknown layer kind {sp.kind!r}")
        outputs.append(out)
        if train:
            caches.append(cache)
        else:
            for i in g.free_after[sp.index]:
                outputs[i] = None
    heads.sort(key=lambda ho: ho.scale_index)
    return outputs, caches, heads


# ---------------------------------------------------------------------------
# weights serialization
# ---------------------------------------------------------------------------

def save_weights(g: NetGraph, sink: str | Path | BinaryIO) -> int:
    """Write all conv parameters as little-endian f32; returns bytes written."""
    if not g.is_weighted():
        raise ValueError("cannot save an unweighted graph")
    # straight from each tensor's buffer: the blob is never held whole
    is_path = isinstance(sink, (str, Path))
    with open(sink, "wb") if is_path else contextlib.nullcontext(sink) as out:
        header = _HEADER.pack(WEIGHTS_MAGIC, WEIGHTS_VERSION, len(g.layers),
                              g.signature())
        out.write(header)
        written = len(header)
        for sp in g.conv_layers():
            p = g.params[sp.index]
            for key in g.param_shapes(sp):
                data = np.ascontiguousarray(p[key], dtype="<f4")
                out.write(data)
                written += data.nbytes
    return written


def load_weights(g: NetGraph, source: str | Path | bytes) -> NetGraph:
    """Read a weight blob written by save_weights into g (validates identity)."""
    blob = source if isinstance(source, bytes) else Path(source).read_bytes()
    if len(blob) < _HEADER.size:
        raise TruncatedWeightsError(f"blob is {len(blob)} bytes, header needs "
                                    f"{_HEADER.size}")
    magic, version, count, sig = _HEADER.unpack_from(blob, 0)
    if magic != WEIGHTS_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {WEIGHTS_MAGIC!r}")
    if version != WEIGHTS_VERSION:
        raise VersionMismatchError(f"format version {version}, expected {WEIGHTS_VERSION}")
    if count != len(g.layers):
        raise SignatureMismatchError(f"blob is for a {count}-layer graph, "
                                     f"this graph has {len(g.layers)} layers")
    if sig != g.signature():
        raise SignatureMismatchError(f"graph signature {sig:#018x} does not match "
                                     f"{g.signature():#018x}")
    # every layer is read and the length checked before g changes
    params = list(g.params)
    off = _HEADER.size
    for sp in g.conv_layers():
        p = {}
        for key, shape in g.param_shapes(sp).items():
            n_items = int(np.prod(shape))
            end = off + 4 * n_items
            if end > len(blob):
                raise TruncatedWeightsError(
                    f"blob ends inside conv layer {sp.index} ({key})")
            a = np.frombuffer(blob, dtype="<f4", count=n_items,
                              offset=off).astype(np.float32).reshape(shape)
            # min and max are finite exactly when every value is
            if not (np.isfinite(a.min()) and np.isfinite(a.max())):
                raise NonFiniteWeightsError(
                    f"conv layer {sp.index} ({key}) holds a NaN or infinite value")
            p[key] = a
            off = end
        params[sp.index] = p
    if off != len(blob):
        raise WeightsError(f"{len(blob) - off} trailing bytes after the last layer")
    g.params = params
    return g
