"""Instruction-trace event model and its text serialization.

A trace is a header naming the initial process followed by an ordered
stream of retired-instruction events and context-switch markers:

    P <pid>                        header, exactly once, first record
    I <pc>                         plain (non-control-flow) instruction
    C <pc> <target> <return_addr>  call; return_addr is the next instruction
    R <pc> <actual_target>         return with its architectural target
    X <pid>                        context switch to <pid>

Addresses are 8-digit lowercase hex without prefix, fields are separated
by single spaces, lines end with "\\n", and lines starting with '#' are
comments.  Plain, Call and Return each count as one retired instruction;
Switch counts as zero.

Event objects are plain mutable-slot containers but are treated as
immutable values everywhere in this package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import IO, Union

ADDRESS_MASK = 0xFFFFFFFF

# Split of the 32-bit virtual address space: everything at or
# above this boundary is kernel memory.
KERNEL_BASE = 0xC0000000


class PrivilegeLevel(enum.Enum):
    USER = "user"
    KERNEL = "kernel"


@dataclass(slots=True)
class Plain:
    pc: int


@dataclass(slots=True)
class Call:
    pc: int
    target: int
    return_addr: int


@dataclass(slots=True)
class Return:
    pc: int
    actual_target: int


@dataclass(slots=True)
class Switch:
    next_pid: int


TraceEvent = Union[Plain, Call, Return, Switch]


@dataclass(slots=True)
class Trace:
    initial_process: int
    events: list[TraceEvent] = field(default_factory=list)

    def instruction_count(self) -> int:
        return sum(1 for ev in self.events if ev.__class__ is not Switch)


class TraceParseError(ValueError):
    """Malformed trace input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def classify_address(addr: int) -> PrivilegeLevel:
    """Classify a virtual address as kernel or user space.

    The classification is total: every 32-bit address falls on exactly
    one side of the boundary.
    """
    if KERNEL_BASE <= addr <= ADDRESS_MASK:
        return PrivilegeLevel.KERNEL
    return PrivilegeLevel.USER


def _parse_addr(tok: str, lineno: int) -> int:
    try:
        value = int(tok, 16)
    except ValueError:
        raise TraceParseError(lineno, f"bad address {tok!r}") from None
    if not 0 <= value <= ADDRESS_MASK:
        raise TraceParseError(lineno, f"address {tok!r} out of 32-bit range")
    return value


def _parse_pid(tok: str, lineno: int) -> int:
    try:
        value = int(tok, 10)
    except ValueError:
        raise TraceParseError(lineno, f"bad process id {tok!r}") from None
    if value < 0:
        raise TraceParseError(lineno, f"negative process id {tok!r}")
    return value


def parse_trace(text: Union[str, bytes]) -> Trace:
    """Parse the text trace format; inverse of :func:`serialize_trace`."""
    if isinstance(text, bytes):
        text = text.decode("ascii")

    initial: int | None = None
    events: list[TraceEvent] = []
    lineno = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split(" ")
        tag = fields[0]
        if tag == "P":
            if initial is not None:
                raise TraceParseError(lineno, "duplicate header record")
            if events:
                raise TraceParseError(lineno, "header record not first")
            if len(fields) != 2:
                raise TraceParseError(lineno, "header takes one field")
            initial = _parse_pid(fields[1], lineno)
            continue
        if initial is None:
            raise TraceParseError(lineno, "missing 'P <pid>' header record")
        if tag == "I":
            if len(fields) != 2:
                raise TraceParseError(lineno, "'I' takes one field")
            events.append(Plain(_parse_addr(fields[1], lineno)))
        elif tag == "C":
            if len(fields) != 4:
                raise TraceParseError(lineno, "'C' takes three fields")
            events.append(Call(_parse_addr(fields[1], lineno),
                               _parse_addr(fields[2], lineno),
                               _parse_addr(fields[3], lineno)))
        elif tag == "R":
            if len(fields) != 3:
                raise TraceParseError(lineno, "'R' takes two fields")
            events.append(Return(_parse_addr(fields[1], lineno),
                                 _parse_addr(fields[2], lineno)))
        elif tag == "X":
            if len(fields) != 2:
                raise TraceParseError(lineno, "'X' takes one field")
            events.append(Switch(_parse_pid(fields[1], lineno)))
        else:
            raise TraceParseError(lineno, f"unknown event tag {tag!r}")
    if initial is None:
        raise TraceParseError(1, "missing 'P <pid>' header record")
    return Trace(initial, events)


def serialize_trace(trace: Trace) -> str:
    """Emit the canonical text form; identical traces yield identical bytes."""
    out = [f"P {trace.initial_process}"]
    append = out.append
    for ev in trace.events:
        cls = ev.__class__
        if cls is Plain:
            append(f"I {ev.pc:08x}")
        elif cls is Call:
            append(f"C {ev.pc:08x} {ev.target:08x} {ev.return_addr:08x}")
        elif cls is Return:
            append(f"R {ev.pc:08x} {ev.actual_target:08x}")
        elif cls is Switch:
            append(f"X {ev.next_pid}")
        else:
            raise TypeError(f"not a trace event: {ev!r}")
    append("")
    return "\n".join(out)


def load_trace(path) -> Trace:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return parse_trace(fh.read())


def dump_trace(trace: Trace, file: Union[str, IO[str]]) -> None:
    if hasattr(file, "write"):
        file.write(serialize_trace(trace))
    else:
        with open(file, "w", encoding="ascii", newline="") as fh:
            fh.write(serialize_trace(trace))

