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
derives from a `Trace` and `scan_trace` reads from the text with numpy,
one chunk of lines at a time: lines are found by their newlines and
classed by their first byte, and the parser's field table gives the
widths and offsets by which fixed-width records are checked as arrays.

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


# Control-flow item kinds.
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
# A pid field, also as `ropsim interleave` spec keys: decimal, no sign or leading zero.
PID_PATTERN = "0|[1-9][0-9]*+"
_FIELDS = {"I": (_ADDR,), "C": (_ADDR,) * 3, "R": (_ADDR,) * 2,
           "X": (PID_PATTERN,), "P": (PID_PATTERN,)}
# One record per line; `lastindex` of a match names the record:
# 1 plain, 4 call, 6 return, 7 switch, 8 header.
_RECORD = re.compile("|".join(" ".join([tag, *map("({})".format, fields)])
                              for tag, fields in _FIELDS.items()))
# Address-only records have a fixed width: tag -> (line length, address offsets).
_FIXED = {tag: (1 + 9 * len(fields), range(2, 9 * len(fields), 9))
          for tag, fields in _FIELDS.items() if set(fields) == {_ADDR}}
# Bytes of text the scanner takes at a time, up to the last newline in them.
SCAN_CHUNK = 1 << 18


def _bad_record(lineno: int, line: str) -> TraceParseError:
    tag = line.split(" ", 1)[0]
    if tag not in _FIELDS:
        return TraceParseError(lineno, f"unknown event tag {tag!r}")
    form = " ".join([tag, *("<pid>" if f is PID_PATTERN else "<addr>" for f in _FIELDS[tag])])
    return TraceParseError(
        lineno, f"bad record {line!r}: expected '{form}' (addr: 8 "
        "lowercase hex digits; pid: decimal, no sign or leading zero)")


def _parse_pid(lineno: int, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than `int` converts
        raise TraceParseError(lineno, f"process id of {len(digits)} digits is too long") from None


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
            initial = _parse_pid(lineno, m[8])
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
            append(Switch(_parse_pid(lineno, m[7])))
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
    """`control_flow(parse_trace(data))`; on text that fails a check,
    `parse_trace` runs on it to raise the same `TraceParseError`."""
    try:
        return _scan(data)
    except ValueError:
        pass
    parse_trace(data)
    raise AssertionError("scan_trace rejected a trace that parse_trace accepts")


def _require(ok) -> None:
    if not ok:
        raise ValueError("not a canonical trace")


def _scan(data: bytes) -> ControlFlow:
    import numpy as np
    text = np.frombuffer(data, np.uint8)
    # The 8 bytes at each offset, so that one gather reads one address.
    words = np.ndarray((max(len(text) - 7, 0),), np.uint64, data, 0, (1,))
    kind_of = np.zeros(256, np.int8)
    kind_of[list(b"CRX")] = CALL, RETURN, SWITCH

    def pid(line: int) -> int:     # of a switch or header line of the current chunk
        m = _RECORD.fullmatch(data[starts[line]:ends[line]].decode())
        _require(m)
        return int(m[m.lastindex])  # a ValueError if it has too many digits

    initial, items = None, []
    start = plains = mark = 0   # `mark`: the plain lines up to the last item
    while start < len(text):
        end = start + SCAN_CHUNK    # cut after the chunk's last newline, or the next one
        end = data.rfind(b"\n", start, end) + 1 or data.find(b"\n", end) + 1 or len(text)
        chunk = text[start:end]
        _require(chunk.max() < 0x80)
        ends = start + np.flatnonzero(chunk == 10)
        if chunk[-1] != 10:     # the last line of a file without a final newline
            ends = np.append(ends, end)
        starts = np.append(start, ends[:-1] + 1)
        tags = text[starts]     # a blank line's tag is its newline
        _require(np.isin(tags, list(b"\n#" + "".join(_FIELDS).encode())).all())

        # Only comment and blank lines, whose tags sort first, precede the header.
        headers = np.flatnonzero(tags == ord("P"))
        if initial is None and (tags > ord("#")).any():
            _require(tags[(tags > ord("#")).argmax()] == ord("P"))
            initial, headers = pid(headers[0]), headers[1:]
        _require(not len(headers))

        control = np.flatnonzero(kind_of[tags])
        first, last = np.zeros((2, len(control)), np.int64)
        for tag, (length, fields) in _FIXED.items():
            rows = np.flatnonzero(tags == ord(tag))
            _require((ends[rows] - starts[rows] == length).all())
            at = starts[rows, None] + fields
            digits = words[at].view(np.uint8)
            _require((text[at - 1] == 32).all())
            _require((((digits - 48) < 10) | ((digits - 97) < 6)).all())
            if tag != "I":
                values = np.frombuffer(bytes.fromhex(digits.tobytes().decode()), ">u4")
                at = np.searchsorted(control, rows)
                first[at] = values[::len(fields)]
                last[at] = values[len(fields) - 1::len(fields)]
        kinds = kind_of[tags[control]]
        counts = plains + np.cumsum(tags == ord("I"))
        before = np.diff(counts[control], prepend=mark)
        mark = counts[control[-1]] if len(control) else mark
        plains = counts[-1]
        a = first.tolist()
        for i in np.flatnonzero(kinds == SWITCH).tolist():
            a[i] = pid(control[i])
        items.extend(zip(before.tolist(), kinds.tolist(), a, last.tolist()))
        start = end
    _require(initial is not None)
    items.append((int(plains - mark), END, 0, 0))
    return ControlFlow(initial, items)


def load_trace(path) -> ControlFlow:
    """The control flow of a trace file; see :func:`scan_trace`."""
    with open(path, "rb") as fh:
        return scan_trace(fh.read())

