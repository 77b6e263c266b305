"""Lightweight anchor-based object detection with edge/cloud tooling.

Pure-numpy inference and training for a slim single-stage detector, a
static cost analyzer for its configs, anchor clustering, and a simulator
plus live wire protocol for edge/cloud cooperative deployment.
"""

from .anchors import AnchorSet, kmeans_anchors
from .analyzer import CostReport, analyze, diff_golden, render_text
from .netdef import (ConfigError, NetGraph, WeightsError, build_edge_yolo,
                     forward, load_config, load_weights, parse_config,
                     save_weights)
from .nn import ShapeError, Tensor
from .postprocess import (Box, Detection, SoftNmsConfig, ciou_loss, decode,
                          evaluate, iou, soft_nms)
from .training import (OptimizerConfig, ToyScenario, TrainResult,
                       assign_targets, backward_and_step, detect_image,
                       generate_toy_dataset, total_loss, train_toy)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet", "Box", "ConfigError", "CostReport", "Detection",
    "NetGraph", "OptimizerConfig", "ShapeError", "SoftNmsConfig",
    "Tensor", "ToyScenario", "TrainResult", "WeightsError", "analyze",
    "assign_targets", "backward_and_step", "build_edge_yolo", "ciou_loss",
    "decode", "detect_image", "diff_golden", "evaluate", "forward",
    "generate_toy_dataset", "iou", "kmeans_anchors",
    "load_config", "load_weights", "parse_config", "render_text",
    "save_weights", "soft_nms", "total_loss", "train_toy",
]
