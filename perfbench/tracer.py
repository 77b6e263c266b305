"""Spans around edgeyolo's functions, recorded from the benchmark's own files.

The traced run replaces module attributes with timing wrappers and puts the
originals back when it ends; the untraced run never installs them. A
function can be bound under several names (``training`` imports
``soft_nms`` from ``postprocess``, ``live`` imports ``detect_image`` from
``training``), so every ``edgeyolo`` module attribute that is the same
object gets the wrapper. A target that no longer exists is recorded as
missing instead of failing the run, so refactors that rename or merge
functions leave the benchmark working.

Each wrapped call is a span: name, phase, start, end and the enclosing
span on the same thread. Observers attached to a target turn the call's
arguments and result into counters (priced FLOPs, bytes, candidates).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "phase", "start", "end")

    def __init__(self, name: str, parent: "Span | None", phase: str):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def has_ancestor(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


class Tracer:
    """Timing wrappers over module and class attributes, for one run."""

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.found: set[str] = set()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._local = threading.local()

    def add(self, key: str, value: float) -> None:
        self.counters[(self.phase, key)] += value

    def count(self, phase: str, key: str) -> float:
        return self.counters.get((phase, key), 0.0)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Time every call of owner.attr as a span called name."""
        orig = getattr(owner, attr, None)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if not callable(orig):
            self.missing.append(label)
            return
        self.found.add(name)
        wrapper = self._wrapper(orig, name, observe)
        if isinstance(owner, types.ModuleType):
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "edgeyolo"
                                       or mod_name.startswith("edgeyolo.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)
        else:
            self._patch(owner, attr, orig, wrapper)

    def restore(self) -> None:
        for owner, attr, orig, own in reversed(self._patches):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._patches.append((owner, attr, orig, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, orig, name: str, observe):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, tracer.phase)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception:
                tracer.add(name + ".raised", 1)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                try:
                    observe(tracer, args, result, span.duration)
                except Exception:       # a changed signature must not fail the op
                    tracer.add("trace.unpriced", 1)
            return result

        return traced

    # -- summaries ------------------------------------------------------------

    def outer_time(self, names: str | tuple[str, ...], phase: str,
                   under: str | None = None, not_under: str | None = None) -> float:
        """Seconds in spans with one of these names, not nested in another."""
        names = (names,) if isinstance(names, str) else names
        total = 0.0
        for s in self.spans:
            if (s.name not in names or s.phase != phase
                    or any(s.has_ancestor(n) for n in names)):
                continue
            if under is not None and not s.has_ancestor(under):
                continue
            if not_under is not None and s.has_ancestor(not_under):
                continue
            total += s.duration
        return total

    def self_times(self, phase: str) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds) over one phase."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.duration
        out: dict[str, list] = {}
        for s in self.spans:
            if s.phase != phase:
                continue
            row = out.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += s.duration - child.get(id(s), 0.0)
        return {k: tuple(v) for k, v in out.items()}


class Pricer:
    """Static cost of nn kernel calls, joined by shape to analyzer rows.

    Keys are (kind, kernel, stride, in_channels, out_channels, out_h, out_w);
    values are analyzer BFLOPS for one image (comparisons for pools).
    """

    def __init__(self, analyzer):
        self.analyzer = analyzer
        self.cost: dict[tuple, float] = {}

    def add(self, graphs) -> None:
        for g in graphs:
            report = self.analyzer.analyze(g)
            for sp, row in zip(g.layers, report.layers):
                if sp.kind == "conv":
                    key = ("conv", sp.size, sp.stride, g.in_channels_of(sp),
                           row.out_c, row.out_h, row.out_w)
                elif sp.kind == "max":
                    key = ("max", sp.size, sp.stride, row.out_c, row.out_c,
                           row.out_h, row.out_w)
                else:
                    continue
                self.cost[key] = row.bflops * 1e9

    def conv(self, x, w, stride: int, out_hw: tuple[int, int]) -> float | None:
        per = self.cost.get(("conv", w.shape[2], stride, x.shape[1], w.shape[0])
                            + tuple(out_hw))
        return None if per is None else per * x.shape[0]

    def pool(self, x, kernel: int, stride: int, y) -> float | None:
        per = self.cost.get(("max", kernel, stride, x.shape[1], y.shape[1],
                             y.shape[2], y.shape[3]))
        return None if per is None else per * x.shape[0]


def install(tracer: Tracer, pricer: Pricer, edgeyolo_modules) -> None:
    """Wrap the functions each per-layer metric is measured from."""
    m = edgeyolo_modules
    nn, netdef, images, post, training, anchors, protocol, live = (
        m["nn"], m["netdef"], m["images"], m["postprocess"], m["training"],
        m["anchors"], m["protocol"], m["live"])

    def priced(tr, flops, prefix, nbytes, shape, dt):
        if flops is None:
            tr.add("trace.unpriced", 1)
        else:
            tr.add(prefix + ".flop", flops)
        tr.add(prefix + ".bytes", nbytes)
        # one roofline row per kernel and shape: "<kernel> <shape>.<field>"
        row = f"{prefix} {shape}"
        tr.add(row + ".s", dt)
        tr.add(row + ".calls", 1)
        tr.add(row + ".flop", flops or 0.0)

    def obs_conv(tr, args, out, dt):
        x, w, _, stride = args[:4]
        n, cin, h, wd = x.shape
        shape = f"{w.shape[2]}x{w.shape[2]}/{stride} {cin}->{w.shape[0]} n{n} {h}x{wd}"
        priced(tr, pricer.conv(x, w, stride, out.shape[2:]), "nn.conv",
               x.nbytes + w.nbytes + out.nbytes, shape, dt)

    def obs_conv_backward(tr, args, out, dt):
        dy, x, w, stride = args[:4]
        n, cin, h, wd = x.shape
        shape = f"{w.shape[2]}x{w.shape[2]}/{stride} {cin}->{w.shape[0]} n{n} {h}x{wd}"
        fwd = pricer.conv(x, w, stride, dy.shape[2:])
        priced(tr, None if fwd is None else 2.0 * fwd, "nn.conv_backward",
               dy.nbytes + x.nbytes + w.nbytes + out[0].nbytes + out[1].nbytes,
               shape, dt)

    def obs_pool(tr, args, out, dt):
        x, kernel, stride = args[:3]
        y = out[0]
        n, c, h, wd = x.shape
        shape = f"{kernel}x{kernel}/{stride} {c} n{n} {h}x{wd}"
        priced(tr, pricer.pool(x, kernel, stride, y), "nn.maxpool",
               x.nbytes + sum(a.nbytes for a in out), shape, dt)
        if stride == 1 and kernel > 1:
            tr.add("nn.maxpool_spp.s", dt)

    def obs_decode(tr, args, out, dt):
        tr.add("postprocess.candidates", len(out))

    def obs_nms(tr, args, out, dt):
        tr.add("postprocess.nms_in", len(args[0]))
        tr.add("postprocess.nms_out", len(out))

    def obs_step(tr, args, out, dt):
        tr.add("training.steps", 1)
        tr.add("training.positives", out[1].n_positive)

    def obs_encode(tr, args, out, dt):
        up = args[0].msg_type == protocol.FRAME_UPLOAD
        tr.add("protocol.bytes_up" if up else "protocol.bytes_down", len(out))

    def obs_push(tr, args, out, dt):
        tr.add("live.pushes_seen", 1)
        tr.add("live.pushes_applied", 1 if out else 0)

    targets = [
        (nn, "conv2d_raw", "nn.conv", obs_conv),
        (nn, "conv2d_backward", "nn.conv_backward", obs_conv_backward),
        (nn, "maxpool_forward", "nn.maxpool", obs_pool),
        (nn, "batchnorm_train_forward", "nn.batchnorm_train", None),
        (nn, "batchnorm_train_backward", "nn.batchnorm_train", None),
        (nn, "batchnorm_infer_raw", "nn.batchnorm_infer", None),
        (nn, "activate_raw", "nn.activation", None),
        (nn, "activate_backward", "nn.activation", None),
        (netdef, "forward", "netdef.forward", None),
        (netdef, "forward_trace", "netdef.forward_trace", None),
        (netdef, "save_weights", "netdef.save_weights", None),
        (netdef, "load_weights", "netdef.load_weights", None),
        (images, "letterbox", "images.letterbox", None),
        (images, "map_detections_to_source", "images.map_back", None),
        (post, "decode", "postprocess.decode", obs_decode),
        (post, "soft_nms", "postprocess.soft_nms", obs_nms),
        (training, "backward_and_step", "training.step", obs_step),
        (training, "_loss_and_grads", "training.loss", None),
        (training, "graph_backward", "training.backward", None),
        (training, "assign_targets", "training.assign", None),
        (anchors, "kmeans_anchors", "anchors.kmeans", None),
        (protocol, "encode_message", "protocol.encode", obs_encode),
        (protocol, "decode_message", "protocol.read", None),
        (protocol, "read_message", "protocol.read_message", None),
        (training, "detect_image", "live.edge_detect", None),
        (live.CloudNode, "handle", "live.cloud_handle", None),
        (live.CloudNode, "_retrain", "live.retrain", None),
        (live.EdgeNode, "handle_push", "live.push_apply", obs_push),
    ]
    for owner, attr, name, observe in targets:
        tracer.wrap(owner, attr, name, observe)
