"""Brute-force reference detector used to cross-check the real one.

Deliberately shares no machinery with the package: mispredictions are
labeled by the oracle's own deque-based bounded LIFO, separate from the
detector's replay loop, and each process's misprediction stream is
partitioned into consecutive groups of t_m by direct counting — no
counter bank, no overflow thresholds, no lookup table.  Partial groups
carry across context switches exactly as the table-based detector is
supposed to carry them (or are discarded at switches when emulating the
disabled table).

Every group is also an interval record, numbered per process in the
order its records appear.  A group that was carried across a switch is
reported with its instruction and return counts clamped at one byte, as
the hardware table would hand them back.  At the end of the trace only
the running process's unfinished group is recorded.
"""

import json
from collections import deque

from ropsim.trace import Call, Return, Switch, Trace, classify_address

ONE_BYTE = 255


def _reference(trace: Trace, t_m: int, t_i: int, ras_capacity: int,
               table_enabled: bool, flush_ras_on_switch: bool):
    """(intervals, verdicts) of one pass over `trace`."""
    stack: deque = deque(maxlen=ras_capacity)
    cur = trace.initial_process
    stopped: set[int] = set()
    acc: dict[int, list[int]] = {}       # pid -> [n_i, n_r, n_m] toward current group
    carried: set[int] = set()            # pids whose current group crossed a switch
    records: dict[int, int] = {}         # pid -> emitted interval-record count
    intervals: list[tuple] = []
    verdicts: list[tuple] = []
    limit = t_i * t_m

    def record(pid, a, closed_by):
        records[pid] = index = records.get(pid, 0) + 1
        n_i, n_r = a[0], a[1]
        if pid in carried:
            carried.discard(pid)
            n_i, n_r = min(n_i, ONE_BYTE), min(n_r, ONE_BYTE)
        intervals.append((pid, index, n_i, n_r, a[2], closed_by))
        return index

    for ev in trace.events:
        cls = ev.__class__
        if cls is Switch:
            a = acc.get(cur)
            if a is not None and (a[0] or a[1] or a[2]):
                if table_enabled:
                    carried.add(cur)
                else:
                    # The partial group is discarded but still recorded.
                    record(cur, a, "switch")
                    a[0] = a[1] = a[2] = 0
            if flush_ras_on_switch:
                stack.clear()
            cur = ev.next_pid
            continue
        if cur in stopped:
            continue
        a = acc.get(cur)
        if a is None:
            a = acc[cur] = [0, 0, 0]
        a[0] += 1
        if cls is Call:
            stack.append(ev.return_addr)
        elif cls is Return:
            a[1] += 1
            if stack:
                mispredicted = stack.pop() != ev.actual_target
            else:
                mispredicted = True
            if mispredicted:
                a[2] += 1
                if a[2] == t_m:
                    # The check reads the true counts, not the clamped ones.
                    index = record(cur, a, "overflow")
                    if a[1] == t_m and a[0] <= limit:
                        verdicts.append((cur, index, a[0], a[1],
                                         classify_address(ev.pc), ev.pc))
                        stopped.add(cur)
                    a[0] = a[1] = a[2] = 0
    a = acc.get(cur)
    if a is not None and (a[0] or a[1] or a[2]):
        record(cur, a, "end_of_trace")
    return intervals, verdicts


def reference_verdicts(trace: Trace, t_m: int, t_i: int, ras_capacity: int,
                       table_enabled: bool = True,
                       flush_ras_on_switch: bool = False) -> list[tuple]:
    """Verdicts as (pid, interval_index, n_i, n_r, level, trigger_pc) tuples."""
    return _reference(trace, t_m, t_i, ras_capacity, table_enabled,
                      flush_ras_on_switch)[1]


def reference_intervals(trace: Trace, t_m: int, t_i: int, ras_capacity: int,
                        table_enabled: bool = True,
                        flush_ras_on_switch: bool = False) -> list[tuple]:
    """Interval records as (pid, index, n_i, n_r, n_m, closed_by) tuples,
    `closed_by` one of "overflow", "switch" and "end_of_trace"."""
    return _reference(trace, t_m, t_i, ras_capacity, table_enabled,
                      flush_ras_on_switch)[0]


def reference_jsonl(trace: Trace, t_m: int, t_i: int, ras_capacity: int,
                    table_enabled: bool = True,
                    flush_ras_on_switch: bool = False) -> str:
    """The detector's JSONL report: every interval record, then every verdict."""
    intervals, verdicts = _reference(trace, t_m, t_i, ras_capacity,
                                     table_enabled, flush_ras_on_switch)
    lines = [{"type": "interval", "pid": pid, "interval_index": index,
              "n_i": n_i, "n_r": n_r, "n_m": n_m, "closed_by": closed_by}
             for pid, index, n_i, n_r, n_m, closed_by in intervals]
    lines += [{"type": "verdict", "verdict": "rop_detected", "pid": pid,
               "interval_index": index, "n_i": n_i, "n_r": n_r,
               "level": level.value, "trigger_pc": f"{pc:08x}"}
              for pid, index, n_i, n_r, level, pc in verdicts]
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def detector_verdict_tuples(report) -> list[tuple]:
    return [(v.pid, v.interval_index, v.n_i, v.n_r, v.level, v.trigger_pc)
            for v in report.verdicts]
