"""Signature-based ROP detection over a trace's control flow.

Execution is divided into tumbling monitor intervals, each delimited by
`t_m` mispredicted returns.  The detector counts three events per
interval (instructions, returns, mispredicted returns); the interval
closes on the event that brings the third count to `t_m`, with no
interrupt skid.  When an interval completes, the payload signature
holds iff the interval saw exactly `t_m` returns (every return
mispredicted, so none had a matching call) and at most `t_i * t_m`
instructions (short gadgets only).  A passing check flags
the current process and monitoring of it stops; a failing check
discards the interval and counting starts again from zero.

Context switches would let an attacker split a gadget chain across
scheduling quanta, so the counts of a partial interval are saved per
process in a lookup table: on switch-out they are stored, and on
switch-in they are restored into the live counts, so the interval
completes exactly where it would have without the switch.  A table entry
holds one byte per count.  The signature reads the true counts, and an
interval restored from the table is recorded with `n_i` and `n_r`
clamped at 255.  The hardware check reads the stored byte, which agrees
with the true count only below 255, so configurations with
`t_i * t_m >= 255` are rejected.

Mispredictions come from a return-address-stack predictor, a small
LIFO of predicted return targets.  A call pushes the address of the
instruction after it; a return pops the top entry and the prediction is
correct only when the popped address equals the architectural target.
Pushing at capacity drops the oldest entry, so deep recursion unwinds
into mispredictions, and a return with no entry (a gadget return with no
associated call) always mispredicts.  `collections.deque(maxlen=...)`
has exactly these semantics.

A plain instruction only adds one to the instruction count, so `run`
takes a `ControlFlow`: one item per call, return or switch, carrying the
plain run before it (see `trace`).  A replay of the predictor marks each
mispredicted return, switch and the end with the counts since the mark
before; `run` closes intervals on the marks as they come, so it reads a
flow from `load_trace` while that is scanned.  A flagged process no
longer touches the predictor, so after a verdict the other processes'
marks depend on `t_m`/`t_i`.  A switch-free flow has no other process:
`replay` stores its marks once, and `run` counts them for any cell.

The predictor is replayed in two ways, and `run` picks one by where the
flow came from.  A flow in memory, a list of items from `control_flow` or
the generators, goes through `_marks`, one Python loop over its items.  A
flow that `load_trace` scans from a file has `trace.Scanned` items, the
columns of each scanned chunk, and goes through `_scanned_marks`: numpy
replays a whole chunk at a time (`_replayed`), so no Python runs per call
or return, and replays the rest of a chunk again only where a process
flagged in it would move the predictor.  The predictor is thus stated
twice, on purpose.  Each way is the faster on its own inputs: a file
holds up to millions of items and has paid for numpy's import in the
scan, while the sweep replays hundreds of short flows, on which the loop
is faster than the array replay's fixed cost per chunk, and imports no
numpy at all.  The tests hold both ways to the oracle in `tests/oracle.py`.

All options are `DetectorConfig` fields: `table_enabled=False` disables
the table (partial intervals are discarded at every switch), a
deliberately vulnerable mode kept as a regression baseline;
`ras_capacity` sets the predictor depth; and `flush_ras_on_switch`
empties the predictor at every context switch.
"""

from __future__ import annotations

import enum
import sys
from collections import deque
from dataclasses import dataclass, field

from .trace import (CALL, END, RETURN, SWITCH, Chunk, ControlFlow, PrivilegeLevel,
                    Scanned, classify_address)

SATURATE_AT = 0xFF  # one byte per stored event count
DEFAULT_CAPACITY = 16  # return-address-stack entries


@dataclass
class DetectorConfig:
    t_m: int = 6  # mispredicted returns per monitor interval
    t_i: int = 6  # assumed maximum instructions per gadget
    table_enabled: bool = True
    ras_capacity: int = DEFAULT_CAPACITY  # predictor stack depth
    flush_ras_on_switch: bool = False

    def __post_init__(self):
        if self.t_m < 1:
            raise ValueError("t_m must be >= 1")
        if self.t_i < 1:
            raise ValueError("t_i must be >= 1")
        if self.t_i * self.t_m >= SATURATE_AT:
            raise ValueError(
                "t_i * t_m must be below 255: a one-byte table entry cannot hold it")
        if self.ras_capacity < 1:
            raise ValueError("ras_capacity must be >= 1")
        if self.ras_capacity > sys.maxsize:
            raise ValueError(f"ras_capacity must be at most {sys.maxsize}")


class ClosedBy(enum.Enum):
    OVERFLOW = "overflow"
    SWITCH = "switch"
    END_OF_TRACE = "end_of_trace"


@dataclass(slots=True)
class IntervalRecord:
    pid: int
    index: int  # 1-based per-process ordinal
    n_i: int
    n_r: int
    n_m: int
    closed_by: ClosedBy


@dataclass(slots=True)
class RopDetected:
    pid: int
    level: PrivilegeLevel
    interval_index: int
    n_i: int
    n_r: int
    trigger_pc: int


@dataclass
class DetectionReport:
    verdicts: list[RopDetected] = field(default_factory=list)
    intervals: list[IntervalRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        """One JSON record per interval and per verdict; stable field names.
        Each record is written as `json.dumps(record, sort_keys=True)` would."""
        lines = [f'{{"closed_by": "{r.closed_by.value}", "interval_index": {r.index}, '
                 f'"n_i": {r.n_i}, "n_m": {r.n_m}, "n_r": {r.n_r}, "pid": {r.pid}, '
                 f'"type": "interval"}}\n' for r in self.intervals]
        lines += [f'{{"interval_index": {v.interval_index}, "level": "{v.level.value}", '
                  f'"n_i": {v.n_i}, "n_r": {v.n_r}, "pid": {v.pid}, '
                  f'"trigger_pc": "{v.trigger_pc:08x}", "type": "verdict", '
                  f'"verdict": "rop_detected"}}\n' for v in self.verdicts]
        return "".join(lines)


def _marks(flow: ControlFlow, ras_capacity: int, flush_ras_on_switch: bool,
           stopped: set[int]):
    """Yield `(RETURN, n_i, n_r, pc)` at each mispredicted return,
    `(SWITCH, n_i, n_r, next_pid)` at each switch and `(END, n_i, n_r, 0)`,
    with the counts since the previous mark.  A pid the caller adds to `stopped`
    leaves the predictor alone from then on, and `run` drops its counts."""
    ras: deque[int] = deque(maxlen=ras_capacity)
    push, pop = ras.append, ras.pop
    cur = flow.initial_process
    live = cur not in stopped
    n_i = n_r = 0
    kind = None
    for plains, kind, a, b in flow.items:
        if kind == RETURN:
            # Counted, then predicted.
            n_i += plains + 1
            n_r += 1
            if live and (not ras or pop() != b):
                yield RETURN, n_i, n_r, a
                n_i = n_r = 0
                live = cur not in stopped
        elif kind == CALL:
            n_i += plains + 1
            if live:
                push(b)
        elif kind == SWITCH:
            yield SWITCH, n_i + plains, n_r, a
            n_i = n_r = 0
            if flush_ras_on_switch:
                ras.clear()
            cur = a
            live = cur not in stopped
    if kind != END:  # e.g. items built by hand, or an iterator already spent
        raise ValueError("control flow items end without an END item")
    yield END, n_i + plains, n_r, 0


def _scanned_marks(flow: ControlFlow, ras_capacity: int, flush_ras_on_switch: bool,
                   stopped: set[int]):
    """`_marks` over the `Chunk`s of a scanned flow, each replayed by `_replayed`."""
    import numpy as np
    cur, entries, n_i, n_r = flow.initial_process, np.zeros(0, np.uint64), 0, 0
    for chunk in flow.items.chunks:
        if chunk.kinds[0] == END:   # the last chunk, END alone: nothing to replay
            yield END, n_i + int(chunk.plains[0]), n_r, 0
            return
        cur, entries, n_i, n_r = yield from _replayed(chunk, entries, cur, n_i, n_r, ras_capacity,
                                                      flush_ras_on_switch, stopped)
    raise ValueError("control flow items end without an END item")


def _replayed(chunk: Chunk, entries, cur: int, n_i: int, n_r: int, cap: int, flush: bool,
              stopped: set[int]):
    """Yield the marks of one chunk's items as `_marks` gives them, and return
    `(cur, entries, n_i, n_r)` as the chunk leaves them: the current pid, the
    predictor's entries as address words, oldest first, and the counts since
    the last mark.  The arguments are as the chunk before left them.  A pid that the
    caller stops leaves the predictor alone from then on.  Where its next item after
    its verdict, or after a switch to it, is a call or return, the rest of the chunk
    is replayed without it from that mark: `k` such pids in a chunk cost
    `O(k * chunk)`.  Its marks carry counts that `run` drops, not its true ones: the
    live mask takes its calls and returns out of the walk, and a restart's first
    mark counts plains from the chunk's start.

    The predictor is a walk over call depth, kept at 0; the entries carried in
    are pushes at depths 1 to `m` before the first item.  A return at depth
    `d > 0` pops the last push at depth `d`.  A push at depth `q` evicts the last
    push at depth `q - cap`, and under a flush a switch evicts every push before
    it, so a return hits when its push was not evicted before the return and
    holds its target."""
    import numpy as np
    while True:     # the chunk, then the rest of it after each restart
        plains, kinds, _, words, pids = chunk
        n, m = len(kinds), len(entries)
        call, ret, switch = kinds == CALL, kinds == RETURN, kinds == SWITCH
        if stopped:     # a process stopped before this replay leaves the predictor alone
            live = np.array([pid not in stopped for pid in [cur, *pids]])[switch.cumsum()]
            call, ret = call & live, ret & live
        step = np.concatenate([np.ones(m, np.int64), call.astype(np.int64) - ret])
        walk = step.cumsum()
        depth = walk - np.minimum(np.minimum.accumulate(walk), 0)     # after each item
        before = np.concatenate([[0], depth[:-1]])
        addrs = np.concatenate([entries, words])

        # Each push and pop at its depth, in depth order and then in time order, so
        # that a pop comes right after the push it pops (a pop at depth 0 has none).
        level = np.where(step, np.maximum(depth, before), 0)
        moved = level.nonzero()[0]
        size = len(depth) + 1
        shift = size.bit_length()
        # Keys are below `2 * size**2`, inside `int64` for any `size` below about 2 * 10**9.
        keys = np.sort(level[moved] << shift | moved)
        stack = keys & (1 << shift) - 1

        def last_push(at_level, at):  # the last push at `at_level` before item `at`
            return stack[keys.searchsorted(at_level << shift | at) - 1]

        evicted = np.full(size, size)  # the first item that evicted each push
        if flush:   # the first switch after it
            flushes = m + switch.nonzero()[0]
            evicted = np.append(flushes, size)[flushes.searchsorted(np.arange(size))]
        deep = ((level > cap) & (step > 0)).nonzero()[0]
        np.minimum.at(evicted, last_push(depth[deep] - cap, deep), deep)
        pops = (step[stack] < 0).nonzero()[0]
        popped, match = stack[pops], stack[pops - 1]
        hit = np.zeros(len(depth), bool)
        hit[popped] = (evicted[match] > popped) & (addrs[match] == addrs[popped])
        miss = ret & ~hit[m:]

        def entries_after(at):
            top = int(depth[m + at])
            kept = last_push(np.arange(max(1, top - cap + 1), top + 1), m + at + 1)
            return addrs[kept[evicted[kept] > m + at]]

        marked = (miss | switch).nonzero()[0]
        # The counts up to each mark and up to the last item, then since the one
        # before.  Every switch is a mark, and calls less returns is the walk.
        upto = np.concatenate([marked, [n - 1]])
        switched = np.concatenate([switch[marked].cumsum(), [len(pids)]])
        moves = upto + 1 - switched     # calls and returns
        n_is = plains[upto] + moves
        n_rs = (moves - walk[m + upto] + m) // 2
        n_is -= np.concatenate([[-n_i], n_is[:-1]])
        n_rs -= np.concatenate([[-n_r], n_rs[:-1]])
        for kind, d_i, d_r, a, at in zip(kinds[marked].tolist(), n_is[:-1].tolist(),
                                         n_rs[:-1].tolist(), chunk.firsts(marked), marked.tolist()):
            yield kind, d_i, d_r, a
            if kind == SWITCH:
                cur = a
            if cur in stopped and at + 1 < n and step[m + at + 1]:  # it would move the predictor
                break
        else:
            return cur, entries_after(n - 1), int(n_is[-1]), int(n_rs[-1])
        chunk = Chunk(*(column[at + 1:] for column in chunk[:4]), pids[int(switch[:at + 1].sum()):])
        entries, n_i, n_r = entries_after(at), 0, 0


@dataclass(frozen=True)
class Replay:
    """The marks of a switch-free flow at one predictor depth; see `replay`."""
    initial_process: int
    ras_capacity: int
    marks: list[tuple[int, int, int, int]]


def replay(flow: ControlFlow, ras_capacity: int) -> Replay:
    """The predictor replayed over `flow` once, for `run` under any `t_m`/`t_i`.
    A flow with a switch is a `ValueError`: its marks depend on them."""
    DetectorConfig(ras_capacity=ras_capacity)   # a `ValueError` for a depth it rejects
    marks = list(_marks(flow, ras_capacity, False, set()))
    if any(mark[0] == SWITCH for mark in marks):
        raise ValueError("a replay needs a flow without context switches")
    return Replay(flow.initial_process, ras_capacity, marks)


def run(flow: ControlFlow | Replay, cfg: DetectorConfig | None = None) -> DetectionReport:
    """Run one detection pass over `flow`; deterministic in its arguments.
    A `Replay` made at another `ras_capacity` than `cfg`'s is a `ValueError`."""
    cfg = cfg if cfg is not None else DetectorConfig()
    t_m = cfg.t_m
    limit = cfg.t_i * t_m
    stopped: set[int] = set()
    if not isinstance(flow, Replay):
        replayed = _scanned_marks if isinstance(flow.items, Scanned) else _marks
        marks = replayed(flow, cfg.ras_capacity, cfg.flush_ras_on_switch, stopped)
    elif flow.ras_capacity != cfg.ras_capacity:
        raise ValueError(f"replay at ras_capacity {flow.ras_capacity}, run at {cfg.ras_capacity}")
    else:
        marks = flow.marks

    table: dict[int, tuple[int, int, int]] = {}  # pid -> parked (n_i, n_r, n_m)
    report = DetectionReport()
    record_counts: dict[int, int] = {}

    def emit(pid: int, n_i: int, n_r: int, n_m: int, closed_by: ClosedBy, parked: bool) -> int:
        if parked:  # restored from the table: recorded as the stored bytes read
            n_i, n_r = min(SATURATE_AT, n_i), min(SATURATE_AT, n_r)
        index = record_counts.get(pid, 0) + 1
        record_counts[pid] = index
        report.intervals.append(IntervalRecord(pid, index, n_i, n_r, n_m, closed_by))
        return index

    # Live counts of the current interval, added only while its process is
    # monitored, which stops at its verdict; `parked` when restored from the table.
    cur = flow.initial_process
    n_i = n_r = n_m = 0
    monitored, parked = True, False
    for kind, d_i, d_r, a in marks:
        if monitored:
            n_i += d_i
            n_r += d_r
        if kind == RETURN and monitored:  # a miss, which may close the interval
            n_m += 1
            if n_m == t_m:
                index = emit(cur, n_i, n_r, n_m, ClosedBy.OVERFLOW, parked)
                if n_r == t_m and n_i <= limit:  # the ROP signature
                    report.verdicts.append(RopDetected(
                        cur, classify_address(a), index, n_i, n_r, a))
                    stopped.add(cur)
                    monitored = False
                n_i = n_r = n_m = 0
                parked = False
        elif kind == SWITCH:
            if n_i or n_r or n_m:
                if cfg.table_enabled:
                    table[cur] = (n_i, n_r, n_m)
                else:
                    # Vulnerable baseline: the partial interval is discarded wholesale.
                    emit(cur, n_i, n_r, n_m, ClosedBy.SWITCH, parked)
            cur = a
            monitored = cur not in stopped
            parked = cur in table
            n_i, n_r, n_m = table.pop(cur) if parked else (0, 0, 0)

    # The open interval is incomplete, so it is recorded but never checked.
    if n_i or n_r or n_m:
        emit(cur, n_i, n_r, n_m, ClosedBy.END_OF_TRACE, parked)
    return report
