"""Edge-cloud cooperation: wire protocol, offload simulator, live nodes."""

from .protocol import (ACK, FRAME_UPLOAD, WEIGHT_PUSH, BadMagicError,
                       ChecksumError, Message, OversizeFrameError,
                       ProtocolError, TruncatedFrameError, UnknownTypeError,
                       decode_message, encode_message, read_message)
from .sim import (NANO_INFER_S, XAVIER_INFER_S, NetworkModel, Scenario,
                  SimResult, TraceEvent, crossover_frame, run_sim)
from .live import CloudNode, EdgeNode, demo_setup, run_loopback

__all__ = [
    "ACK", "FRAME_UPLOAD", "WEIGHT_PUSH",
    "BadMagicError", "ChecksumError", "Message", "OversizeFrameError",
    "ProtocolError", "TruncatedFrameError", "UnknownTypeError",
    "decode_message", "encode_message", "read_message",
    "NANO_INFER_S", "XAVIER_INFER_S", "NetworkModel", "Scenario", "SimResult",
    "TraceEvent", "crossover_frame", "run_sim",
    "CloudNode", "EdgeNode", "demo_setup", "run_loopback",
]
