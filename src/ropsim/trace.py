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

One table, `_LAYOUT`, states each record's class and fields by kind; the
parser, the scanner and the serializer derive their forms from it.
`serialize_trace` formats `SERIALIZE_CHUNK` events at a time, and `ropsim
gen-*` and `interleave` write each chunk's piece as it comes, so no more
than one chunk's text is ever held.  A chunk's plain, call and return lines
are three blocks of one line width each, each from one `bytes.hex` call.
Header and switch lines are formatted one by one and written only if the
parser's pattern accepts them, so every text written parses back.

The detector reads a trace as its `ControlFlow`, which `control_flow`
derives from a `Trace` as a list of items, and `load_trace` scans from a
file with numpy, one chunk of lines at a time, as the items are read:
lines are found by their newlines and classed by their first byte, and
each check runs once over the whole chunk: every line's width and spaces
by the widths and offsets that the table gives, its digits by one count of
the chunk's bytes of [0-9a-f].  Plain lines (most of any trace) are only
counted.  A scanned chunk is handed on as columns, a `Chunk`, in which an
address is its 8 checked digits as one 64-bit word, so that the detector
replays the chunk with numpy and decodes only the pcs its marks report.
Iterated, a scanned flow's items (`Scanned`) are the same tuples that
`control_flow` gives.

Every reader reports the first line that fails, and a byte past 0x7f fails
its own line: a `str`, its UTF-8 bytes and a file of them read alike.  The
scanner reads no further than the first chunk that fails a check.

Event objects are plain mutable-slot containers but are treated as
immutable values everywhere in this package.
"""

from __future__ import annotations

import enum
import re
import struct
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import is_, is_not, sub
from typing import Iterable, Iterator, NamedTuple, NoReturn, Union

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
    """Items `(n, CALL, 0, return_addr)`, `(n, RETURN, pc, actual_target)`
    and `(n, SWITCH, next_pid, 0)`, in trace order, each after `n` plain
    instructions, then `(n, END, 0, 0)` for the `n` after the last of them:
    a list, or from `load_trace` a `Scanned` that is read once.  A call's
    pc is 0: the return-address stack reads only its return address.
    """
    initial_process: int
    items: Iterable[tuple[int, int, int, int]]


class Chunk(NamedTuple):
    """The items of one scanned chunk of lines, as columns: the plain instructions
    before each item since the item before the chunk, each item's kind, pc (a
    return's) and address (a call's return address, a return's target), and the
    pid of each switch in order.  An address is its line's 8 digits as one
    `uint64` word (0 where an item has none): checked lowercase hex, so equal
    words are equal addresses; `firsts` reads pcs and pids."""
    plains: np.ndarray
    kinds: np.ndarray
    pcs: np.ndarray
    words: np.ndarray
    pids: list[int]

    def items(self):
        """The chunk's `ControlFlow` items."""
        plains = self.plains.tolist()
        return zip(map(sub, plains, [0, *plains]), self.kinds.tolist(),
                   self.firsts(slice(None)), _decoded(self.words).tolist())

    def firsts(self, at) -> list[int]:
        """The `a` field of the items at the indices `at`, which hold every
        switch: a return's pc, a switch's pid, else 0."""
        a = _decoded(self.pcs[at]).tolist()
        for i, pid in zip((self.kinds[at] == SWITCH).nonzero()[0].tolist(), self.pids):
            a[i] = pid
        return a


class Scanned:
    """The items of a `ControlFlow` scanned from a file, read once: `chunks`
    yields each chunk's `Chunk`, the last a lone END; iterated, the same
    items are the tuples that `ControlFlow` describes."""
    __slots__ = ("chunks",)

    def __init__(self, chunks: Iterator[Chunk]):
        self.chunks = chunks

    def __iter__(self):
        return chain.from_iterable(map(Chunk.items, self.chunks))


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
    if addr >= KERNEL_BASE:
        return PrivilegeLevel.KERNEL
    return PrivilegeLevel.USER


# A pid field, also as `ropsim interleave` spec keys: decimal, no sign or leading zero.
PID_PATTERN = "0|[1-9][0-9]*+"
# Per field kind: its text's pattern, the format spec that writes it, and its base.
_KINDS = {"addr": ("[0-9a-f]{8}", "08x", 16), "pid": (PID_PATTERN, "d", 10)}
# The record layout, stated once: the class each tag's line reads as (a header's
# is a `Trace` without events) and that class's fields in line order, by kind.
_LAYOUT = {"I": (Plain, {"pc": "addr"}),
           "C": (Call, {"pc": "addr", "target": "addr", "return_addr": "addr"}),
           "R": (Return, {"pc": "addr", "actual_target": "addr"}),
           "X": (Switch, {"next_pid": "pid"}),
           "P": (Trace, {"initial_process": "pid"})}
_RECORD = re.compile("|".join(
    " ".join([tag, *("(?:{})".format(_KINDS[kind][0]) for kind in fields.values())])
    for tag, (_, fields) in _LAYOUT.items()))
_READ = {tag: (cls, tuple(_KINDS[kind][2] for kind in fields.values()))  # for the parser
         for tag, (cls, fields) in _LAYOUT.items()}
_WRITE = {cls: (tag, fields) for tag, (cls, fields) in _LAYOUT.items()}    # for the serializer
# Each tag's form, as the parser's and the serializer's errors state it.
_EXPECTED = {tag: "expected '{}' (addr: 8 lowercase hex digits; pid: decimal, no sign or "
             "leading zero)".format(" ".join([tag, *map("<{}>".format, fields.values())]))
             for tag, (_, fields) in _LAYOUT.items()}
# Address-only records have a fixed width: tag -> (line length, address offsets).
_FIXED = {tag: (1 + 9 * len(fields), range(2, 9 * len(fields), 9))
          for tag, (_, fields) in _LAYOUT.items() if set(fields.values()) == {"addr"}}
# Bytes of text the scanner takes at a time, up to the last newline in them.
SCAN_CHUNK = 1 << 18
# Events whose lines the serializer formats and hands on at a time, so that
# no more than one chunk of line strings is alive at once.
SERIALIZE_CHUNK = 1 << 15


def parse_trace(text: Union[str, bytes]) -> Trace:
    """Parse the text trace format; inverse of :func:`serialize_trace`.
    A `str` is read as its UTF-8 bytes, so that both give the same trace or error."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    records = _events(text.decode("latin-1").split("\n"))
    return Trace(next(records).initial_process, list(records))


def _events(lines: Iterable[str], start: int = 1, headed: bool = False):
    """Yield the header's `Trace`, then the event of each record of `lines` (each
    without its newline, a character per byte), or raise the error for the first
    line that fails a check.  `lines` start on line `start`, after a header if `headed`."""
    match = _RECORD.fullmatch
    for lineno, line in enumerate(lines, start):
        if not line or line[0] == "#":
            if line.isascii():
                continue
        tag, _, text = line.partition(" ")
        if match(line) is None:     # so too a comment with a byte past 0x7f
            if not line.isascii():
                byte = next(c for c in line if c > "\x7f")
                raise TraceParseError(lineno, f"non-ASCII byte {ord(byte):#04x}")
            if tag not in _READ:
                raise TraceParseError(lineno, f"unknown event tag {tag!r}")
            raise TraceParseError(lineno, f"bad record {line!r}: {_EXPECTED[tag]}")
        cls, bases = _READ[tag]
        if cls is Trace:
            # Events need a header before them, so a second one is a duplicate.
            if headed:
                raise TraceParseError(lineno, "duplicate header record")
            headed = True
        elif not headed:
            raise TraceParseError(lineno, "missing 'P <pid>' header record")
        try:
            if len(bases) == 1:     # as most lines are: one `int` costs less than a `map`
                record = cls(int(text, bases[0]))
            else:
                record = cls(*map(int, text.split(" "), bases))
        except ValueError:  # a pid of more digits than `int` converts: the longest field
            raise TraceParseError(lineno, f"process id of {max(map(len, text.split()))} "
                                  "digits is too long") from None
        yield record
    if not headed:
        raise TraceParseError(1, "missing 'P <pid>' header record")


def serialize_trace(trace: Trace) -> str:
    """Emit the canonical text form; identical traces yield identical bytes.
    A `TypeError` for what is not an event, a `ValueError` for a header or
    an event whose line `parse_trace` would reject."""
    return "".join(_serialized(trace))


def _serialized(trace: Trace):
    """Yield `serialize_trace`'s text: the header line, then the lines of
    each `SERIALIZE_CHUNK` events, every piece ending with its newline.  Of
    `_hex_lines`' three blocks, the plain one has a line for every event, so
    a run of plain events is a slice of it.  No line makes an object the
    garbage collector tracks: a collection started here would traverse all
    of a freshly built trace's events."""
    yield _line(Trace(trace.initial_process))
    # The widths of plain, call and return lines, with their newline.
    plain_w, call_w, return_w = (_FIXED[_WRITE[cls][0]][0] + 1 for cls in (Plain, Call, Return))
    events = trace.events
    for start in range(0, len(events), SERIALIZE_CHUNK):
        chunk = events[start:start + SERIALIZE_CHUNK]
        at = list(compress(count(), map(is_not, map(type, chunk), repeat(Plain))))
        others = list(map(chunk.__getitem__, at))
        kinds = list(map(type, others))
        try:
            plains = _hex_lines(Plain, chunk)
            calls = _hex_lines(Call, list(compress(others, map(is_, kinds, repeat(Call)))))
            returns = _hex_lines(Return, list(compress(others, map(is_, kinds, repeat(Return)))))
        except struct.error:
            _reject(chunk)
        out = []
        append = out.append
        cut = c = r = 0     # offsets into the plain, call and return blocks
        for i, cls in zip(at, kinds):
            append(plains[cut:plain_w * i])
            cut = plain_w * i + plain_w
            if cls is Call:
                append(calls[c:c + call_w])
                c += call_w
            elif cls is Return:
                append(returns[r:r + return_w])
                r += return_w
            elif cls is Switch:     # every event before it has its line
                append(_line(chunk[i]))
            else:
                _reject(chunk)
        append(plains[cut:])
        # Freed before the join, so that the piece can take their memory: held
        # across it, they left gaps among the pieces that raised the peak.
        del chunk, at, others, kinds, plains, calls, returns
        yield "".join(out)


def _hex_lines(cls: type, events: list) -> str:
    """The lines of `events` as `cls` lines: each field 8 hex digits, 0 where an
    event lacks it, all from one `bytes.hex` call; a `struct.error` for a field
    that is not an int in 0..0xFFFFFFFF."""
    tag, fields = _WRITE[cls]
    n, width = len(events), len(fields)
    if not n:
        return ""
    words = [0] * (width * n)
    for k, name in enumerate(fields):
        words[k::width] = map(getattr, events, repeat(name), repeat(0))
    text = bytearray(struct.pack(f">{width * n}I", *words).hex(" ", 4), "ascii")
    step = _FIXED[tag][0] - len(tag)    # per event: its digits and a space after each field
    text[step - 1::step] = b"\n" * (n - 1)    # the space after each last field
    return "{0} {1}\n".format(tag, text.decode().replace("\n", f"\n{tag} "))


def _line(record) -> str:
    """The line of `record`, an event or a header's `Trace` without events,
    with each field written by its kind's format spec, or a `ValueError` if
    `parse_trace` would not read the line: the serializer's one validity rule."""
    tag, fields = _WRITE[record.__class__]
    try:
        line = " ".join([tag, *(format(getattr(record, name), _KINDS[kind][1])
                                for name, kind in fields.items())])
        if _RECORD.fullmatch(line):
            return f"{line}\n"
    except (TypeError, ValueError):     # a value that the spec does not format
        pass
    try:
        shown = repr(record)
    except ValueError:  # an int field of more digits than `repr` writes (4300 by default)
        shown = f"{record.__class__.__name__}(<an int field too long to print>)"
    raise ValueError(f"cannot serialize {shown}: {_EXPECTED[tag]}")


def _reject(events) -> NoReturn:
    """Raise the error for the first of `events` that is not an event or that `_line` rejects."""
    for ev in events:
        if ev.__class__ not in (Plain, Call, Return, Switch):
            raise TypeError(f"not a trace event: {ev!r}")
        _line(ev)
    raise AssertionError("every event of the chunk has a line")


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
            append((plains, CALL, 0, ev.return_addr))
        elif cls is Return:
            append((plains, RETURN, ev.pc, ev.actual_target))
        else:
            append((plains, SWITCH, ev.next_pid, 0))
        plains = 0
    append((plains, END, 0, 0))
    return ControlFlow(trace.initial_process, items)


def load_trace(path) -> ControlFlow:
    """`control_flow(parse_trace(...))` of a file, read once as its one-pass `items` are read."""
    chunks = _scan(path)
    return ControlFlow(next(chunks), Scanned(chunks))


def _decoded(words):
    """The addresses of `Chunk` words, as an int64 array; 0 for a 0 word."""
    import numpy as np
    out = np.zeros(len(words), np.int64)
    at = words.nonzero()[0]
    out[at] = np.frombuffer(bytes.fromhex(words[at].tobytes().decode()), ">u4")
    return out


def _require(ok) -> None:
    if not ok:
        raise ValueError("not a canonical trace")


def _scan(path):
    """Yield the header's pid, each chunk's `Chunk`, then END's, or raise `parse_trace`'s error,
    as `_events` finds it on the lines of the first chunk that fails.  A chunk is the next
    `SCAN_CHUNK` bytes of `path` up to their last newline, or else one line.  The plain lines
    before an item are its line index less its rank among the other lines.

    Each check runs once over a whole chunk.  A line's first byte must be a tag, '#' or its
    newline.  An I, C or R line must have its tag's width, a space after its tag and, in a C
    or R line, a space before each further address; `_RECORD` matches each header and switch
    line.  Every other byte of those lines is then a digit's place, so a line holds at most
    8 bytes of [0-9a-f] per address, a header or switch line all but its tag and space, a
    blank line none, and a comment the number it holds.  The chunk's bytes of [0-9a-f] add
    up to that sum only if every digit's place holds one."""
    import numpy as np
    kind_of = np.full(256, -1, np.int8)    # -1: not a record's first byte
    kind_of[list(b"\n#" + "".join(_LAYOUT).encode())] = 0
    kind_of[list(b"CRX")] = CALL, RETURN, SWITCH
    width_of = np.zeros(256, np.int64)     # 0: no fixed width
    width_of[list(map(ord, _FIXED))] = [length for length, _ in _FIXED.values()]

    def hexes(a) -> int:    # how many of the bytes `a` are [0-9a-f]
        low = a - 48        # 0-9 for a digit
        found = np.count_nonzero(low < 10)
        low -= 49           # 0-5 for a letter a-f
        return found + np.count_nonzero(low < 6)

    def pid(line: int) -> int:     # of a switch or header line of the current chunk
        record = data[starts[line]:ends[line]].decode()
        _require(_RECORD.fullmatch(record))
        return int(record.partition(" ")[2])    # a ValueError if it has too many digits

    initial = header = None     # the header's pid, and as it was before the current chunk
    plains = 0          # plain lines since the last item
    rest = b""          # a partial line, carried into the next read
    line = 1            # the current chunk's first
    with open(path, "rb") as fh:
        try:
            while data := rest + fh.read(SCAN_CHUNK - len(rest)):
                if b"\n" not in data:   # a line longer than a read
                    data += fh.readline()
                cut = data.rfind(b"\n") + 1 or len(data)
                data, rest = data[:cut], data[cut:]
                text = np.frombuffer(data, np.uint8)
                # The 8 bytes at each offset, so that one gather reads one address.
                words = np.ndarray((max(len(text) - 7, 0),), np.uint64, data, 0, (1,))
                _require(text.max() < 0x80)
                ends = np.flatnonzero(text == 10)
                if text[-1] != 10:      # the last line of a file without a final newline
                    ends = np.append(ends, len(text))
                starts = np.append(0, ends[:-1] + 1)
                tags = text[starts]     # a blank line's tag is its newline
                lengths = ends - starts
                # An I, C or R line has its tag's width and a space after its tag.
                width = width_of.take(tags)
                spaced = text.take(starts + 1, mode="clip") == 32
                _require((((lengths == width) & spaced) | (width == 0)).all())
                other = np.flatnonzero(tags != ord("I"))
                firsts = tags[other]
                kinds = kind_of[firsts]
                _require((kinds >= 0).all())

                # Only comment and blank lines, whose tags sort first, precede the header.
                headers = other[firsts == ord("P")]
                if initial is None and (tags > ord("#")).any():
                    _require(tags[(tags > ord("#")).argmax()] == ord("P"))
                    initial, headers = pid(headers[0]), headers[1:]
                _require(not len(headers))

                rank = np.flatnonzero(kinds)    # of each item among the other lines
                control, kinds = other[rank], kinds[rank]
                pids = list(map(pid, control[kinds == SWITCH].tolist()))
                digits = 8 * (len(tags) - len(other))   # the most the lines can hold, plain first
                pcs, addrs = columns = np.zeros((2, len(control)), np.uint64)
                for tag, kind, n in ("C", CALL, 1), ("R", RETURN, 2):   # a call's pc stays 0
                    at = np.flatnonzero(kinds == kind)
                    fields = np.array(_FIXED[tag][1])[:, None] + starts[control[at]]
                    _require((text[fields[1:] - 1] == 32).all())
                    columns[-n:, at] = words[fields[-n:]]   # only the addresses the replay reads
                    digits += 8 * fields.size
                pid_lines = other[(firsts == ord("X")) | (firsts == ord("P"))]
                digits += int((lengths[pid_lines] - 2).sum())
                notes = other[firsts == ord("#")]
                if len(notes):      # what the comments hold, counted over their gathered bytes
                    size = lengths[notes]   # each byte's offset less its rank, then plus it
                    index = np.int32 if len(text) < 1 << 31 else np.int64   # a line may pass 2 GiB
                    at = np.repeat((starts[notes] - size.cumsum() + size).astype(index), size)
                    at += np.arange(len(at), dtype=index)
                    digits += hexes(text.take(at))
                _require(hexes(text) == digits)
                if header is None and initial is not None:  # the header is on this chunk's lines
                    yield initial
                counted = plains + control - rank   # plain lines before each item, since the last
                plains += len(tags) - len(other)
                if len(control):    # so none before the header
                    plains -= int(counted[-1])
                    yield Chunk(counted, kinds, pcs, addrs, pids)
                line += len(ends)
                header = initial
            _require(initial is not None)
            zero = np.zeros(1, np.uint64)
            yield Chunk(np.array([plains]), np.array([END], np.int8), zero, zero, [])
            return
        except ValueError:  # the error is found below, so that it chains no scanner error
            pass
        # Earlier chunks passed the same checks, so the first error is on one of this chunk's lines.
        for _ in _events(data.decode("latin-1").split("\n"), line, header is not None):
            pass
    raise AssertionError("the scanner rejected a trace that parse_trace accepts")
