"""Brute-force reference detector used to cross-check the real one.

Deliberately shares no machinery with the package: mispredictions are
labeled by the oracle's own deque-based bounded LIFO, separate from the
detector's replay loop, and each process's misprediction stream is
partitioned into consecutive groups of t_m by direct counting — no
counter bank, no overflow thresholds, no lookup table.  Partial groups
carry across context switches exactly as the table-based detector is
supposed to carry them (or are discarded at switches when emulating the
disabled table).
"""

from collections import deque

from ropsim.trace import Call, Return, Switch, Trace, classify_address


def reference_verdicts(trace: Trace, t_m: int, t_i: int, ras_capacity: int,
                       table_enabled: bool = True,
                       flush_ras_on_switch: bool = False) -> list[tuple]:
    """Verdicts as (pid, interval_index, n_i, n_r, level, trigger_pc) tuples."""
    stack: deque = deque(maxlen=ras_capacity)
    cur = trace.initial_process
    stopped: set[int] = set()
    acc: dict[int, list[int]] = {}       # pid -> [n_i, n_r, n_m] toward current group
    records: dict[int, int] = {}         # pid -> emitted interval-record count
    verdicts: list[tuple] = []
    limit = t_i * t_m

    for ev in trace.events:
        cls = ev.__class__
        if cls is Switch:
            if not table_enabled:
                a = acc.get(cur)
                if a is not None and (a[0] or a[1] or a[2]):
                    # Discarded partial interval still occupies an ordinal.
                    records[cur] = records.get(cur, 0) + 1
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
                    index = records.get(cur, 0) + 1
                    records[cur] = index
                    if a[1] == t_m and a[0] <= limit:
                        verdicts.append((cur, index, a[0], a[1],
                                         classify_address(ev.pc), ev.pc))
                        stopped.add(cur)
                    a[0] = a[1] = a[2] = 0
    return verdicts


def detector_verdict_tuples(report) -> list[tuple]:
    return [(v.pid, v.interval_index, v.n_i, v.n_r, v.level, v.trigger_pc)
            for v in report.verdicts]
