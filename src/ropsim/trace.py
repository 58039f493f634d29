"""Instruction-trace event model, its text serialization and its control flow.

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

The detector reads a trace as its `ControlFlow`, which `control_flow`
derives from a `Trace` and `scan_trace` builds straight from the text,
without one object per instruction.  The scanner and `parse_trace` share
one grammar and accept the same language; on rejected text the scanner
re-runs `parse_trace`, so both raise the same `TraceParseError`.

Event objects are plain mutable-slot containers but are treated as
immutable values everywhere in this package.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Union

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


# Control-flow item kinds; each but END is the `lastindex` of its `_CONTROL` match.
CALL, RETURN, SWITCH, END = 3, 5, 6, 0


@dataclass(slots=True)
class ControlFlow:
    """Items `(n, CALL, pc, return_addr)`, `(n, RETURN, pc, actual_target)`
    and `(n, SWITCH, next_pid, 0)`, in trace order, each after `n` plain
    instructions, then `(n, END, 0, 0)` for the `n` after the last of them.
    """
    initial_process: int
    items: list[tuple[int, int, int, int]]


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
    if KERNEL_BASE <= addr <= 0xFFFFFFFF:
        return PrivilegeLevel.KERNEL
    return PrivilegeLevel.USER


_ADDR = "[0-9a-f]{8}"
_PID = "0|[1-9][0-9]*+"
_FIELDS = {"I": (_ADDR,), "C": (_ADDR,) * 3, "R": (_ADDR,) * 2,
           "X": (_PID,), "P": (_PID,)}


def _records(tags: str, capture: bool) -> str:
    """Alternation of the canonical forms of `tags`, fields captured or not."""
    group = "({})" if capture else "(?:{})"
    return "|".join(" ".join([tag, *map(group.format, _FIELDS[tag])])
                    for tag in tags)


# One record per line; `lastindex` of a match names the record:
# 1 plain, 4 call, 6 return, 7 switch, 8 header.
_RECORD = re.compile(_records("ICRXP", True))
# A whole file: comment or blank lines, the header, then any other lines.
# Possessive loops keep no backtracking state, so memory stays flat.
_COMMENT = r"#[\x00-\x09\x0b-\x7f]*+"
_FILE = re.compile((rf"(?:(?:{_COMMENT})?\n)*+{_records('P', True)}"
                    rf"(?:\n(?:{_records('ICRX', False)}|{_COMMENT})?)*+").encode())
# A call, return or switch line of text that `_FILE` accepted.
_CONTROL = re.compile(f"\n(?:{_records('CRX', True)})".encode())


def _bad_record(lineno: int, line: str) -> TraceParseError:
    tag = line.split(" ", 1)[0]
    if tag not in _FIELDS:
        return TraceParseError(lineno, f"unknown event tag {tag!r}")
    form = " ".join([tag, *("<pid>" if f is _PID else "<addr>" for f in _FIELDS[tag])])
    return TraceParseError(
        lineno, f"bad record {line!r}: expected '{form}' (addr: 8 "
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


def control_flow(trace: Trace) -> ControlFlow:
    """The `ControlFlow` of a parsed trace."""
    items = []
    append = items.append
    plains = 0
    for ev in trace.events:
        cls = ev.__class__
        if cls is Plain:
            plains += 1
            continue
        if cls is Call:
            append((plains, CALL, ev.pc, ev.return_addr))
        elif cls is Return:
            append((plains, RETURN, ev.pc, ev.actual_target))
        else:
            append((plains, SWITCH, ev.next_pid, 0))
        plains = 0
    append((plains, END, 0, 0))
    return ControlFlow(trace.initial_process, items)


def scan_trace(data: bytes) -> ControlFlow:
    """`control_flow(parse_trace(data))`, raising the same errors.

    One match validates the whole text, a second visits only the call,
    return and switch lines, and the plain lines between are counted.
    """
    header = _FILE.fullmatch(data)
    if header is None:
        parse_trace(data)
        raise AssertionError("scan_trace rejected a trace that parse_trace accepts")
    items = []
    append = items.append
    count = data.count
    pos = header.end(1)
    for m in _CONTROL.finditer(data, pos):
        plains = count(b"\nI ", pos, m.start())
        kind = m.lastindex
        if kind == CALL:
            append((plains, CALL, int(m[1], 16), int(m[3], 16)))
        elif kind == RETURN:
            append((plains, RETURN, int(m[4], 16), int(m[5], 16)))
        else:
            append((plains, SWITCH, int(m[6]), 0))
        pos = m.end()
    append((count(b"\nI ", pos), END, 0, 0))
    return ControlFlow(int(header[1]), items)


def load_trace(path) -> ControlFlow:
    """The control flow of a trace file; see :func:`scan_trace`."""
    with open(path, "rb") as fh:
        return scan_trace(fh.read())

