"""Per-layer metrics of a traced run, and the roofline and self-time tables.

Times are milliseconds per operation (a detected frame, an SGD step or an
answered upload) over the traced operations, except anchors.kmeans_ms and
training.assign_ms, which are milliseconds per set-up. A metric whose
spans never ran on a workload reads 0; one whose function no longer exists
is listed as missing on standard output.
"""

from __future__ import annotations

import statistics

# name -> (unit, span it is measured from, or None for derived values)
PER_LAYER = {
    "nn.conv_ms": ("ms", "nn.conv"),
    "nn.conv_gflops": ("GFLOP/s", "nn.conv"),
    "nn.conv_computed_mb": ("MB", "nn.conv"),
    "nn.conv_backward_ms": ("ms", "nn.conv_backward"),
    "nn.conv_backward_gflops": ("GFLOP/s", "nn.conv_backward"),
    "nn.conv_backward_computed_mb": ("MB", "nn.conv_backward"),
    "nn.maxpool_ms": ("ms", "nn.maxpool"),
    "nn.maxpool_spp_ms": ("ms", "nn.maxpool"),
    "nn.maxpool_gcmp_s": ("Gcmp/s", "nn.maxpool"),
    "nn.maxpool_computed_mb": ("MB", "nn.maxpool"),
    "nn.batchnorm_train_ms": ("ms", "nn.batchnorm_train"),
    "nn.batchnorm_infer_ms": ("ms", "nn.batchnorm_infer"),
    "nn.activation_ms": ("ms", "nn.activation"),
    "netdef.forward_ms": ("ms", "netdef.forward"),
    "netdef.forward_retained_mb": ("MB", "netdef.forward"),
    "netdef.save_weights_ms": ("ms", "netdef.save_weights"),
    "netdef.load_weights_ms": ("ms", "netdef.load_weights"),
    "images.letterbox_ms": ("ms", "images.letterbox"),
    "images.map_back_ms": ("ms", "images.map_back"),
    "postprocess.decode_ms": ("ms", "postprocess.decode"),
    "postprocess.candidates": ("count", "postprocess.decode"),
    "postprocess.soft_nms_ms": ("ms", "postprocess.soft_nms"),
    "postprocess.kept_ratio": ("ratio", "postprocess.soft_nms"),
    "training.forward_ms": ("ms", "training.step"),
    "training.loss_ms": ("ms", "training.loss"),
    "training.backward_ms": ("ms", "training.backward"),
    "training.update_ms": ("ms", "training.step"),
    "training.positives": ("count", "training.step"),
    "training.assign_ms": ("ms", "training.assign"),
    "anchors.kmeans_ms": ("ms", "anchors.kmeans"),
    "protocol.encode_ms": ("ms", "protocol.encode"),
    "protocol.read_ms": ("ms", "protocol.read"),
    "protocol.bytes_up": ("B", "protocol.encode"),
    "protocol.bytes_down": ("B", "protocol.encode"),
    "protocol.bad_frames": ("count", "protocol.read"),
    "live.edge_detect_ms": ("ms", "live.edge_detect"),
    "live.cloud_handle_ms": ("ms", "live.cloud_handle"),
    "live.retrain_ms": ("ms", "live.retrain"),
    "live.reply_wait_ms": ("ms", None),
    "live.push_apply_ms": ("ms", "live.push_apply"),
    "live.pushes_applied_ratio": ("ratio", "live.push_apply"),
    "live.push_rtt_p50_ms": ("ms", None),
    "trace.overhead_ratio": ("ratio", None),
    "trace.missing": ("count", None),
    "trace.unpriced_calls": ("count", None),
}


FORWARDS = ("netdef.forward", "netdef.forward_trace")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run, tracer, wl) -> dict[str, tuple[float, str]]:
    n = max(len(run.traced), 1)
    n_setup = max(len(run.setup_s), 1)
    t = tracer

    def ms(name, **kw):
        return 1000.0 * t.outer_time(name, "op", **kw) / n

    def per_op(key):
        return t.count("op", key) / n

    def rate(key, name):
        return _ratio(t.count("op", key), t.outer_time(name, "op")) / 1e9

    selfs = t.self_times("op")
    step_self = selfs.get("training.step", (0, 0.0, 0.0))[2]
    wait = getattr(wl, "reply_wait_s", [])
    rtt = getattr(wl, "push_rtt_s", [])
    values = {
        "nn.conv_ms": ms("nn.conv"),
        "nn.conv_gflops": rate("nn.conv.flop", "nn.conv"),
        "nn.conv_computed_mb": per_op("nn.conv.bytes") / 1e6,
        "nn.conv_backward_ms": ms("nn.conv_backward"),
        "nn.conv_backward_gflops": rate("nn.conv_backward.flop", "nn.conv_backward"),
        "nn.conv_backward_computed_mb": per_op("nn.conv_backward.bytes") / 1e6,
        "nn.maxpool_ms": ms("nn.maxpool"),
        "nn.maxpool_spp_ms": 1000.0 * per_op("nn.maxpool_spp.s"),
        "nn.maxpool_gcmp_s": rate("nn.maxpool.flop", "nn.maxpool"),
        "nn.maxpool_computed_mb": per_op("nn.maxpool.bytes") / 1e6,
        "nn.batchnorm_train_ms": ms("nn.batchnorm_train"),
        "nn.batchnorm_infer_ms": ms("nn.batchnorm_infer"),
        "nn.activation_ms": ms("nn.activation"),
        "netdef.forward_ms": ms(FORWARDS, not_under="training.step"),
        "netdef.forward_retained_mb": run.retained_mb,
        "netdef.save_weights_ms": ms("netdef.save_weights"),
        "netdef.load_weights_ms": ms("netdef.load_weights"),
        "images.letterbox_ms": ms("images.letterbox"),
        "images.map_back_ms": ms("images.map_back"),
        "postprocess.decode_ms": ms("postprocess.decode"),
        "postprocess.candidates": per_op("postprocess.candidates"),
        "postprocess.soft_nms_ms": ms("postprocess.soft_nms"),
        "postprocess.kept_ratio": _ratio(t.count("op", "postprocess.nms_out"),
                                         t.count("op", "postprocess.nms_in")),
        # forward_trace is the train-mode entry today; either name counts
        "training.forward_ms": ms(FORWARDS, under="training.step"),
        "training.loss_ms": ms("training.loss"),
        "training.backward_ms": ms("training.backward"),
        # the step's own time: SGD update and finiteness checks
        "training.update_ms": 1000.0 * step_self / n,
        "training.positives": _ratio(t.count("op", "training.positives"),
                                     t.count("op", "training.steps")),
        "training.assign_ms": 1000.0 * t.outer_time("training.assign", "setup") / n_setup,
        "anchors.kmeans_ms": 1000.0 * t.outer_time("anchors.kmeans", "setup") / n_setup,
        "protocol.encode_ms": ms("protocol.encode"),
        "protocol.read_ms": ms("protocol.read"),
        "protocol.bytes_up": per_op("protocol.bytes_up"),
        "protocol.bytes_down": per_op("protocol.bytes_down"),
        "protocol.bad_frames": max(t.count("op", "protocol.read.raised"),
                                   t.count("op", "protocol.read_message.raised")),
        "live.edge_detect_ms": ms("live.edge_detect"),
        "live.cloud_handle_ms": ms("live.cloud_handle"),
        "live.retrain_ms": ms("live.retrain"),
        "live.reply_wait_ms": 1000.0 * statistics.fmean(wait) if wait else 0.0,
        "live.push_apply_ms": ms("live.push_apply"),
        "live.pushes_applied_ratio": _ratio(t.count("op", "live.pushes_applied"),
                                            t.count("op", "live.pushes_seen")),
        "live.push_rtt_p50_ms": 1000.0 * statistics.median(rtt) if rtt else 0.0,
        "trace.overhead_ratio": (_ratio(statistics.median(run.traced),
                                        statistics.median(run.untraced)) - 1.0
                                 if run.traced and run.untraced else 0.0),
        "trace.missing": float(len(t.missing)),
        "trace.unpriced_calls": t.count("op", "trace.unpriced")
        + t.count("setup", "trace.unpriced"),
    }
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}


def missing_metrics(tracer) -> list[str]:
    return [name for name, (_, span) in PER_LAYER.items()
            if span is not None and span not in tracer.found]


def print_tables(run, tracer) -> None:
    n = max(len(run.traced), 1)
    print(f"traced ops {len(run.traced)}, untraced ops {len(run.untraced)}")
    if tracer.missing:
        print("missing functions: " + ", ".join(tracer.missing))
        print("missing metrics: " + ", ".join(missing_metrics(tracer)))
    print(f"{'span':28s} {'calls/op':>9s} {'incl ms/op':>11s} {'self ms/op':>11s}")
    rows = sorted(tracer.self_times("op").items(), key=lambda kv: -kv[1][2])
    for name, (calls, incl, own) in rows:
        print(f"{name:28s} {calls / n:9.2f} {1000 * incl / n:11.3f} "
              f"{1000 * own / n:11.3f}")
    print_roofline(tracer, n)


def print_roofline(tracer, n: int) -> None:
    """Kernel calls by shape: measured time against the analyzer's cost."""
    rows = [key[:-2] for phase, key in tracer.counters
            if phase == "op" and key.startswith("nn.") and " " in key
            and key.endswith(".s")]
    if not rows:
        return
    print(f"{'kernel shape (roofline join)':48s} {'calls/op':>9s} {'ms/op':>9s} "
          f"{'GFLOP/op':>9s} {'GFLOP/s':>8s}")
    rows.sort(key=lambda r: -tracer.count("op", r + ".s"))
    for row in rows:
        secs = tracer.count("op", row + ".s")
        flop = tracer.count("op", row + ".flop")
        print(f"{row:48s} {tracer.count('op', row + '.calls') / n:9.2f} "
              f"{1000 * secs / n:9.3f} {flop / n / 1e9:9.4f} "
              f"{_ratio(flop, secs) / 1e9:8.2f}")
