"""Trace-driven simulator and detector for ROP payloads.

The detector watches three hardware-counter events over an instruction
trace (instructions, returns, mispredicted returns), divides execution
into tumbling intervals of `t_m` mispredicted returns, and flags an
interval whose counts match a gadget chain: exactly `t_m` returns and at
most `t_i * t_m` instructions.
"""

from .detector import (DEFAULT_CAPACITY, ClosedBy, DetectionReport,
                       DetectorConfig, IntervalRecord, Replay, RopDetected,
                       replay, run)
from .trace import (KERNEL_BASE, Call, ControlFlow, Plain, PrivilegeLevel,
                    Return, Switch, Trace, TraceEvent, TraceParseError,
                    classify_address, control_flow, load_trace, parse_trace,
                    scan_trace, serialize_trace)
from .workload import (BenignSpec, GenerationError, InterleaveSpec, RopSpec,
                       gen_benign, gen_rop, interleave, replay_mispredictions)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BASE", "DEFAULT_CAPACITY",
    "PrivilegeLevel", "Plain", "Call", "Return", "Switch", "Trace",
    "TraceEvent", "TraceParseError", "classify_address", "parse_trace",
    "serialize_trace", "load_trace", "ControlFlow", "control_flow",
    "scan_trace", "DetectorConfig", "DetectionReport",
    "RopDetected", "IntervalRecord", "ClosedBy", "run", "Replay", "replay",
    "BenignSpec", "RopSpec", "InterleaveSpec", "GenerationError",
    "gen_benign", "gen_rop", "interleave", "replay_mispredictions",
]
