"""Instruction-trace event model and its text serialization.

A trace is a header naming the initial process followed by an ordered
stream of retired-instruction events and context-switch markers:

    P <pid>                        header, exactly once, first record
    I <pc>                         plain (non-control-flow) instruction
    C <pc> <target> <return_addr>  call; return_addr is the next instruction
    R <pc> <actual_target>         return with its architectural target
    X <pid>                        context switch to <pid>

Addresses are exactly 8 lowercase hex digits without prefix, a pid is
decimal with no sign and no leading zero, fields are separated by single
spaces, lines end with "\\n", and lines starting with '#' are comments.
The parser accepts only this canonical form, so every accepted record
re-serializes to the same bytes.  Plain, Call and Return each count as
one retired instruction; Switch counts as zero.

Event objects are plain mutable-slot containers but are treated as
immutable values everywhere in this package.
"""

from __future__ import annotations

import enum
import re
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


# The one canonical form of each record; `lastindex` of a match names the
# record: 1 plain, 4 call, 6 return, 7 switch, 8 header.
_RECORD = re.compile(
    r"I ([0-9a-f]{8})"
    r"|C ([0-9a-f]{8}) ([0-9a-f]{8}) ([0-9a-f]{8})"
    r"|R ([0-9a-f]{8}) ([0-9a-f]{8})"
    r"|X (0|[1-9][0-9]*)"
    r"|P (0|[1-9][0-9]*)")
_FORMS = {"P": "P <pid>", "I": "I <addr>", "C": "C <addr> <addr> <addr>",
          "R": "R <addr> <addr>", "X": "X <pid>"}


def _bad_record(lineno: int, line: str) -> TraceParseError:
    tag = line.split(" ", 1)[0]
    if tag not in _FORMS:
        return TraceParseError(lineno, f"unknown event tag {tag!r}")
    return TraceParseError(
        lineno, f"bad record {line!r}: expected '{_FORMS[tag]}' (addr: 8 "
        "lowercase hex digits; pid: decimal, no sign or leading zero)")


def parse_trace(text: Union[str, bytes]) -> Trace:
    """Parse the text trace format; inverse of :func:`serialize_trace`."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TraceParseError(text.count(b"\n", 0, exc.start) + 1,
                                  f"non-ASCII byte {text[exc.start]:#04x}") from None

    initial: int | None = None
    events: list[TraceEvent] = []
    append = events.append
    match = _RECORD.fullmatch
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line[0] == "#":
            continue
        m = match(line)
        if m is None:
            raise _bad_record(lineno, line)
        kind = m.lastindex
        if kind == 8:
            # Events need a header before them, so a second one is a duplicate.
            if initial is not None:
                raise TraceParseError(lineno, "duplicate header record")
            initial = int(m[8])
            continue
        if initial is None:
            raise TraceParseError(lineno, "missing 'P <pid>' header record")
        if kind == 1:
            append(Plain(int(m[1], 16)))
        elif kind == 4:
            append(Call(int(m[2], 16), int(m[3], 16), int(m[4], 16)))
        elif kind == 6:
            append(Return(int(m[5], 16), int(m[6], 16)))
        else:
            append(Switch(int(m[7])))
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
    with open(path, "rb") as fh:
        return parse_trace(fh.read())


def dump_trace(trace: Trace, file: Union[str, IO[str]]) -> None:
    if hasattr(file, "write"):
        file.write(serialize_trace(trace))
    else:
        with open(file, "w", encoding="ascii", newline="") as fh:
            fh.write(serialize_trace(trace))

