"""Signature-based ROP detection over an attributed instruction trace.

Execution is divided into tumbling monitor intervals, each delimited by
`t_m` mispredicted returns.  The detector counts three events per
interval (instructions, returns, mispredicted returns); the third count
is armed with a threshold and closes the interval on the event that
reaches it, with no interrupt skid.  When an interval completes, the
payload signature holds iff the interval saw exactly `t_m` returns
(every return mispredicted, so none had a matching call) and at most
`t_i * t_m` instructions (short gadgets only).  A passing check flags
the current process and monitoring of it stops; a failing check
discards the interval and re-arms the threshold at `t_m`.

Context switches would let an attacker split a gadget chain across
scheduling quanta, so partial interval state is parked per process in a
lookup table: on switch-out the counts are added into the outgoing
process's entry (one byte each, clamped at 255), and on switch-in the
threshold is re-armed with the residue `t_m - n_m` so the interval
completes exactly where it would have without the switch.  A clamped
count must not pass the signature where the true count would fail, so
configurations with `t_i * t_m >= 255` are rejected.

Options: `table_enabled=False` disables the table (partial intervals are
discarded at every switch), a deliberately vulnerable mode kept as a
regression baseline; `ras_capacity` sets the predictor depth; and
`flush_ras_on_switch` empties the predictor at every context switch.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from .ras import DEFAULT_CAPACITY, ReturnAddressStack
from .trace import (Call, Plain, PrivilegeLevel, Switch, Trace,
                    classify_address)

SATURATE_AT = 0xFF  # one byte per stored event count


@dataclass
class DetectorConfig:
    t_m: int = 6  # mispredicted returns per monitor interval
    t_i: int = 6  # assumed maximum instructions per gadget
    table_enabled: bool = True

    def __post_init__(self):
        if self.t_m < 1:
            raise ValueError("t_m must be >= 1")
        if self.t_i < 1:
            raise ValueError("t_i must be >= 1")
        if self.t_i * self.t_m >= SATURATE_AT:
            raise ValueError(
                "t_i * t_m must be below 255: a one-byte table entry cannot hold it")


def signature_check(n_i: int, n_r: int, cfg: DetectorConfig) -> bool:
    """ROP signature over one complete interval's counts.

    Valid only when the interval really accumulated t_m mispredicted
    returns; the caller guarantees that.
    """
    return n_r == cfg.t_m and n_i <= cfg.t_i * cfg.t_m


class ProcessEntry:
    """Per-process partial-interval state: three one-byte counts."""

    __slots__ = ("pid", "n_i", "n_r", "n_m")

    def __init__(self, pid: int):
        self.pid = pid
        self.n_i = 0
        self.n_r = 0
        self.n_m = 0

    def accumulate(self, n_i: int, n_r: int, n_m: int) -> None:
        self.n_i = min(SATURATE_AT, self.n_i + n_i)
        self.n_r = min(SATURATE_AT, self.n_r + n_r)
        self.n_m += n_m

    def __repr__(self):
        return f"ProcessEntry(pid={self.pid}, n_i={self.n_i}, n_r={self.n_r}, n_m={self.n_m})"


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

    @property
    def clean(self) -> bool:
        return not self.verdicts

    def detected_pids(self) -> set[int]:
        return {v.pid for v in self.verdicts}

    def to_jsonl(self) -> str:
        """One JSON record per interval and per verdict; stable field names."""
        lines = []
        for r in self.intervals:
            lines.append(json.dumps({
                "type": "interval",
                "pid": r.pid,
                "interval_index": r.index,
                "n_i": r.n_i,
                "n_r": r.n_r,
                "n_m": r.n_m,
                "closed_by": r.closed_by.value,
            }, sort_keys=True))
        for v in self.verdicts:
            lines.append(json.dumps({
                "type": "verdict",
                "verdict": "rop_detected",
                "pid": v.pid,
                "interval_index": v.interval_index,
                "n_i": v.n_i,
                "n_r": v.n_r,
                "level": v.level.value,
                "trigger_pc": f"{v.trigger_pc:08x}",
            }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


class Detector:
    """One detection run over one trace; single-owner mutable state."""

    def __init__(self, cfg: DetectorConfig | None = None, *,
                 ras_capacity: int = DEFAULT_CAPACITY,
                 flush_ras_on_switch: bool = False):
        self.cfg = cfg if cfg is not None else DetectorConfig()
        self.flush_ras_on_switch = flush_ras_on_switch
        self.ras = ReturnAddressStack(ras_capacity)
        self.table: dict[int, ProcessEntry] = {}
        self.cur: int | None = None
        self.stopped: set[int] = set()
        self.verdicts: list[RopDetected] = []
        self.intervals: list[IntervalRecord] = []
        self._record_counts: dict[int, int] = {}
        self._finished = False

    # -- interval bookkeeping -------------------------------------------------

    def _emit_interval(self, pid: int, n_i: int, n_r: int, n_m: int,
                       closed_by: ClosedBy) -> IntervalRecord:
        index = self._record_counts.get(pid, 0) + 1
        self._record_counts[pid] = index
        rec = IntervalRecord(pid, index, n_i, n_r, n_m, closed_by)
        self.intervals.append(rec)
        return rec

    def _unpark(self, pid: int, n_i: int, n_r: int,
                n_m: int) -> tuple[int, int, int]:
        """Add `pid`'s parked counts, if any, to its live counts; clears the entry."""
        entry = self.table.pop(pid, None)
        if entry is None:
            return n_i, n_r, n_m
        return (min(SATURATE_AT, entry.n_i + n_i),
                min(SATURATE_AT, entry.n_r + n_r), entry.n_m + n_m)

    def _overflow(self, trigger_pc: int, n_i: int, n_r: int, n_m: int) -> None:
        """The armed threshold was reached: check one complete interval."""
        pid = self.cur
        n_i, n_r, n_m = self._unpark(pid, n_i, n_r, n_m)
        assert n_m == self.cfg.t_m, "overflow fired away from the interval boundary"
        rec = self._emit_interval(pid, n_i, n_r, n_m, ClosedBy.OVERFLOW)
        if signature_check(n_i, n_r, self.cfg):
            self.verdicts.append(RopDetected(
                pid=pid,
                level=classify_address(trigger_pc),
                interval_index=rec.index,
                n_i=n_i,
                n_r=n_r,
                trigger_pc=trigger_pc,
            ))
            self.stopped.add(pid)

    def handle_switch(self, in_pid: int, n_i: int, n_r: int, n_m: int) -> int:
        """Park the outgoing process's partial interval `(n_i, n_r, n_m)`.

        Returns the threshold armed for the incoming process: `t_m` less
        the mispredictions it has parked.
        """
        out_pid = self.cur
        t_m = self.cfg.t_m
        # A stopped process counts nothing, so live counts imply a monitored one.
        if n_i or n_r or n_m:
            if not self.cfg.table_enabled:
                # Vulnerable baseline: the partial interval is discarded wholesale.
                self._emit_interval(out_pid, n_i, n_r, n_m, ClosedBy.SWITCH)
            else:
                entry = self.table.get(out_pid)
                if entry is None:
                    entry = self.table[out_pid] = ProcessEntry(out_pid)
                entry.accumulate(n_i, n_r, n_m)
                # The threshold closes an interval as soon as n_m reaches
                # t_m, so a parked interval is always partial.
                if entry.n_m >= t_m:
                    raise AssertionError(
                        f"parked n_m {entry.n_m} reaches interval size {t_m}")
        # Without the table nothing is parked, so every process gets t_m.
        in_entry = self.table.get(in_pid)
        if self.flush_ras_on_switch:
            self.ras.flush()
        self.cur = in_pid
        return t_m if in_entry is None else t_m - in_entry.n_m

    # -- main loop ------------------------------------------------------------

    def run(self, trace: Trace) -> DetectionReport:
        if self._finished:
            raise RuntimeError("detector instances are single-use")
        self.cur = cur = trace.initial_process
        t_m = self.cfg.t_m
        ras = self.ras
        on_call = ras.on_call
        on_return = ras.on_return
        stopped = self.stopped
        plain_t, call_t, switch_t = Plain, Call, Switch

        # Live counts of the current interval, and the mispredicted-return
        # count that closes it.
        n_i = n_r = n_m = 0
        armed = t_m
        for ev in trace.events:
            cls = ev.__class__
            if cls is switch_t:
                armed = self.handle_switch(ev.next_pid, n_i, n_r, n_m)
                n_i = n_r = n_m = 0
                cur = self.cur
                continue
            if cur in stopped:
                continue
            n_i += 1
            if cls is plain_t:
                continue
            if cls is call_t:
                on_call(ev.return_addr)
                continue
            # Return: counted, then predicted; a miss may close the interval.
            n_r += 1
            if on_return(ev.actual_target):
                n_m += 1
                if n_m == armed:
                    self._overflow(ev.pc, n_i, n_r, n_m)
                    n_i = n_r = n_m = 0
                    armed = t_m
        return self.finish(n_i, n_r, n_m)

    def finish(self, n_i: int, n_r: int, n_m: int) -> DetectionReport:
        """Close the open interval (never checked: it is incomplete)."""
        if self._finished:
            raise RuntimeError("detector instances are single-use")
        self._finished = True
        pid = self.cur
        # A stopped process has neither live nor parked counts.
        n_i, n_r, n_m = self._unpark(pid, n_i, n_r, n_m)
        if n_i or n_r or n_m:
            self._emit_interval(pid, n_i, n_r, n_m, ClosedBy.END_OF_TRACE)
        return DetectionReport(self.verdicts, self.intervals)


def run(trace: Trace, cfg: DetectorConfig | None = None, *,
        ras_capacity: int = DEFAULT_CAPACITY,
        flush_ras_on_switch: bool = False) -> DetectionReport:
    """Run one detection pass over `trace`; deterministic in its arguments."""
    det = Detector(cfg, ras_capacity=ras_capacity,
                   flush_ras_on_switch=flush_ras_on_switch)
    return det.run(trace)
