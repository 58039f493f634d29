"""The three hardware counters of the signature, as `run` counts them.

Instructions and returns are counted; the mispredicted-return count
closes the interval on the event that brings it to `t_m`.  Every
guarantee is checked through detector output: the interval records and
verdicts.
"""

import random

import pytest

from ropsim.detector import ClosedBy, DetectorConfig, run
from ropsim.trace import Call, Plain, Return, Switch, Trace

from helpers import chaos_trace


def _overflow(report):
    return [r for r in report.intervals if r.closed_by is ClosedBy.OVERFLOW]


def _bare_returns(n, base=0x100, plains=0):
    """`n` returns with no matching call, each after `plains` plain instructions."""
    events = []
    for i in range(n):
        pc = base + 0x100 * i
        events += [Plain(pc + 4 * j) for j in range(plains)]
        events.append(Return(pc + 4 * plains, 0x9000 + 0x10 * i))
    return events


def _gadgets(sizes):
    """One gadget per size: size - 1 plains, then a mispredicted return."""
    events = []
    for i, size in enumerate(sizes):
        events += _bare_returns(1, base=0x10000 * (i + 1), plains=size - 1)
    return events


class TestCounterBank:
    def test_overflow_fires_exactly_at_threshold(self):
        five = run(Trace(1, _bare_returns(5)))
        assert not _overflow(five)
        assert five.intervals[-1].n_m == 5
        events = _bare_returns(6)
        six = run(Trace(1, events))
        assert [r.n_m for r in _overflow(six)] == [6]
        assert six.verdicts[0].trigger_pc == events[-1].pc

    def test_no_resignal_before_reset(self):
        # 10 mispredictions at t_m=3, each after 20 plains so no interval
        # passes: one signal per 3 misses, the last one left open.
        report = run(Trace(1, _bare_returns(10, plains=20)), DetectorConfig(t_m=3))
        assert [r.n_m for r in _overflow(report)] == [3, 3, 3]
        assert report.intervals[-1].closed_by is ClosedBy.END_OF_TRACE
        assert report.intervals[-1].n_m == 1

    def test_counting_mode_never_signals(self):
        events = [Plain(4 * i) for i in range(1000)]
        for i in range(100):
            events += [Call(0x8000 + 8 * i, 0x20000, 0x8004 + 8 * i),
                       Return(0x20000, 0x8004 + 8 * i)]
        report = run(Trace(1, events))
        assert not _overflow(report)
        rec = report.intervals[-1]
        assert (rec.n_i, rec.n_r, rec.n_m) == (1200, 100, 0)

    def test_reset_zeroes_and_rearms(self):
        # Three failing intervals of identical shape: each record holds its
        # own counts only, and a fresh interval needs all t_m misses again.
        report = run(Trace(1, _gadgets([8] * 20)))
        assert [(r.n_i, r.n_r, r.n_m) for r in _overflow(report)] == [(48, 6, 6)] * 3
        assert (report.intervals[-1].n_i, report.intervals[-1].n_m) == (16, 2)

    def test_residual_threshold(self):
        # 2 + 2 misses parked over two switches and restored each time: the
        # last 2 misses complete the interval of 6.
        events = _bare_returns(2, plains=20)
        events += [Switch(2), Plain(0), Switch(1)]
        events += _bare_returns(2, base=0x2000, plains=20)
        events += [Switch(3), Plain(0), Switch(1)]
        events += _bare_returns(2, base=0x4000, plains=20)
        report = run(Trace(1, events))
        assert [(r.pid, r.n_m, r.n_r) for r in _overflow(report)] == [(1, 6, 6)]

    def test_read_is_side_effect_free(self):
        # Reading the counts at a switch does not change them: switching a
        # process out and back with nothing run in between leaves its
        # interval as it was.
        events = _bare_returns(4)
        plain = run(Trace(1, events + _bare_returns(2, base=0x4000)))
        idle = [Switch(2), Switch(1)] * 3
        switched = run(Trace(1, events + idle + _bare_returns(2, base=0x4000)))
        assert ([(r.n_i, r.n_r, r.n_m) for r in _overflow(switched)]
                == [(r.n_i, r.n_r, r.n_m) for r in _overflow(plain)]
                == [(6, 6, 6)])
        assert switched.verdicts == plain.verdicts

    def test_six_four_instruction_gadgets_read_24_6_6(self):
        report = run(Trace(1, _gadgets([4] * 6)))
        assert [(r.n_i, r.n_r, r.n_m) for r in _overflow(report)] == [(24, 6, 6)]
        assert not report.clean

    def test_zero_threshold_rejected(self):
        # An interval closes at t_m misses, so t_m must be at least 1.
        with pytest.raises(ValueError):
            DetectorConfig(t_m=0)

    def test_counts_are_monotone_within_cycle(self):
        # A return is an instruction and a misprediction is a return.
        for seed in range(30):
            for rec in run(chaos_trace(random.Random(seed))).intervals:
                assert rec.n_m <= rec.n_r <= rec.n_i


class TestCounter:
    def test_standalone_sampling(self):
        # t_m=1: every mispredicted return closes its own interval, and a
        # correctly predicted one closes none.
        events = _bare_returns(3, plains=10)
        events += [Call(0x7000, 0x20000, 0x7004), Return(0x20000, 0x7004)]
        report = run(Trace(1, events), DetectorConfig(t_m=1))
        assert [(r.n_r, r.n_m) for r in _overflow(report)] == [(1, 1)] * 3
        assert (report.intervals[-1].n_r, report.intervals[-1].n_m) == (1, 0)

    def test_counting_mode(self):
        # Live counts are not one byte: only parked counts saturate.
        report = run(Trace(1, [Plain(4 * i) for i in range(300)]))
        assert report.intervals[-1].n_i == 300

