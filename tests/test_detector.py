import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from ropsim import trace as trace_mod
from ropsim.detector import ClosedBy, DetectorConfig, replay, run
from ropsim.trace import (RETURN, Call, ControlFlow, Plain, PrivilegeLevel, Return, Scanned,
                          Switch, Trace, control_flow, load_trace, serialize_trace)
from ropsim.workload import (BenignSpec, InterleaveSpec, RopSpec, gen_benign,
                             gen_rop, interleave, replay_mispredictions)

from helpers import chaos_trace, load_bytes, pooled_trace, split_attack_trace, trace_path
from oracle import (detector_verdict_tuples, reference_intervals, reference_jsonl,
                    reference_verdicts)


def rop_trace(g=12, size=4, region=PrivilegeLevel.USER, **kw):
    kw.setdefault("prologue", 0)
    kw.setdefault("alignment_offset", 0)
    return gen_rop(RopSpec(chain_length=g, gadget_sizes=[size] * g,
                           address_region=region, **kw))


def _long_park_trace(plains, before, gap, after):
    """pid 1: plains and bare returns, parked across pid 2's quantum, then more."""
    events = [Plain(4 * i) for i in range(plains)]
    events += [Return(0x1000 + 4 * i, 0x9000 + 4 * i) for i in range(before)]
    events += [Switch(2)] + [Plain(0x100 + 4 * i) for i in range(gap)] + [Switch(1)]
    events += [Return(0x2000 + 4 * i, 0xA000 + 4 * i) for i in range(after)]
    return Trace(1, events)


def _signature(n_i, n_r):
    """Whether one interval of n_i instructions, n_r returns and 6 misses is flagged."""
    pairs = n_r - 6  # matched call/return pairs: their returns are predicted
    events = [Plain(4 * i) for i in range(n_i - 2 * pairs - 6)]
    for i in range(pairs):
        events += [Call(0x8000 + 8 * i, 0x20000, 0x8004 + 8 * i),
                   Return(0x20000, 0x8004 + 8 * i)]
    events += [Return(0x1000 + 4 * i, 0x9000 + 4 * i) for i in range(6)]
    report = run(control_flow(Trace(1, events)))
    assert [(r.n_i, r.n_r, r.n_m) for r in report.intervals] == [(n_i, n_r, 6)]
    return bool(report.verdicts)


class TestSignatureCheck:
    def test_six_gadgets_of_four_instructions(self):
        assert _signature(24, 6) is True

    def test_instruction_budget_exceeded(self):
        assert _signature(37, 6) is False

    def test_extra_predicted_return(self):
        assert _signature(30, 7) is False

    def test_boundary_is_inclusive(self):
        assert _signature(36, 6) is True


class TestBasicVerdicts:
    def test_pure_chain_detected_in_first_interval(self):
        report = run(control_flow(rop_trace()))
        assert len(report.verdicts) == 1
        v = report.verdicts[0]
        assert (v.pid, v.interval_index, v.n_i, v.n_r) == (1, 1, 24, 6)
        assert v.level is PrivilegeLevel.USER

    def test_kernel_chain_reports_kernel_level(self):
        report = run(control_flow(rop_trace(region=PrivilegeLevel.KERNEL)))
        assert report.verdicts
        v = report.verdicts[0]
        assert v.level is PrivilegeLevel.KERNEL
        assert v.trigger_pc >= 0xC0000000

    def test_fat_gadgets_not_detected(self):
        # 12 gadgets of 8 instructions: n_i = 48 > 36 in every interval.
        report = run(control_flow(rop_trace(size=8)))
        assert not report.verdicts
        overflow = [r for r in report.intervals if r.closed_by is ClosedBy.OVERFLOW]
        # One interval per t_m mispredictions, never a second signal.
        assert len(overflow) == 2
        assert all(r.n_i == 48 for r in overflow)

    def test_single_gadget_cannot_fill_an_interval(self):
        report = run(control_flow(rop_trace(g=1)))
        assert not report.verdicts
        assert not [r for r in report.intervals if r.closed_by is ClosedBy.OVERFLOW]

    def test_benign_matched_trace_closes_no_intervals(self):
        trace = gen_benign(BenignSpec(total_instructions=4000,
                                      mispredict_burst_count=0, seed=5))
        report = run(control_flow(trace))
        assert not report.verdicts
        assert not [r for r in report.intervals if r.closed_by is ClosedBy.OVERFLOW]

    def test_detection_stops_monitoring_that_process_only(self):
        # Two payload processes: both get exactly one verdict each.
        a = rop_trace(g=18, seed=1)
        b = rop_trace(g=18, seed=2)
        trace = interleave(InterleaveSpec(
            parts=[(1, a), (2, b)],
            schedule=[(1, len(a.events)), (2, len(b.events))]))
        report = run(control_flow(trace))
        assert sorted(v.pid for v in report.verdicts) == [1, 2]

    def test_events_after_detection_are_ignored(self):
        trace = rop_trace(g=24)
        report = run(control_flow(trace))
        assert len(report.verdicts) == 1
        # First full interval already matches; later chain intervals never close.
        overflow = [r for r in report.intervals if r.closed_by is ClosedBy.OVERFLOW]
        assert len(overflow) == 1

    @pytest.mark.parametrize("table", [True, False])
    def test_a_stopped_process_counts_no_plains(self, table):
        # pid 1 is flagged at its sixth return; its plains before a switch
        # and before the end count nothing, pid 2's still do.
        events = [Return(0x1000 + 4 * i, 0x9000 + 4 * i) for i in range(6)]
        events += [Plain(0), Call(4, 0x100, 8), Plain(0x100), Switch(2), Plain(0x200),
                   Switch(1), Plain(0x10), Plain(0x14)]
        trace = Trace(1, events)
        report = run(control_flow(trace), DetectorConfig(table_enabled=table))
        got = [(r.pid, r.index, r.n_i, r.n_r, r.n_m, r.closed_by.value)
               for r in report.intervals]
        assert got == reference_intervals(trace, 6, 6, 16, table_enabled=table)
        assert got == [(1, 1, 6, 6, 6, "overflow")] + [(2, 1, 1, 0, 0, "switch")] * (not table)


class TestIntervals:
    def test_end_of_trace_interval_is_never_checked(self):
        # Five bare gadget returns: one short of an interval, clean at exit.
        trace = rop_trace(g=5)
        report = run(control_flow(trace))
        assert not report.verdicts
        assert report.intervals[-1].closed_by is ClosedBy.END_OF_TRACE
        assert report.intervals[-1].n_m == 5

    def test_trace_ending_exactly_at_overflow_is_checked(self):
        trace = rop_trace(g=6)
        report = run(control_flow(trace))
        assert report.verdicts

    def test_monotone_counts_in_all_records(self):
        rng = random.Random(3)
        for seed in range(5):
            trace = gen_benign(BenignSpec(total_instructions=20_000,
                                          mispredict_burst_count=4,
                                          gap_profile="mixed", seed=seed))
            for rec in run(control_flow(trace)).intervals:
                assert rec.n_m <= rec.n_r <= rec.n_i

    def test_overflow_records_carry_full_interval(self):
        trace = gen_benign(BenignSpec(total_instructions=20_000,
                                      mispredict_burst_count=6,
                                      gap_profile="sparse", seed=9))
        report = run(control_flow(trace))
        overflow = [r for r in report.intervals if r.closed_by is ClosedBy.OVERFLOW]
        assert overflow, "sparse bursts of 10 must close intervals at t_m=6"
        assert all(r.n_m == 6 for r in overflow)
        # Sparse bursts are rejected by instruction count, not return count.
        assert all(r.n_i > 36 for r in overflow)


class TestSwitchHandling:
    def test_parked_counts_resume_after_switch_back(self):
        # pid 1: 8 plains + 2 bare returns -> counts (10, 2, 2), parked on
        # switch; switched back in, 4 more bare returns complete the
        # interval on top of the parked counts.
        events = [Plain(i * 4) for i in range(8)]
        events += [Return(0x100, 0x5000), Return(0x104, 0x6000)]
        events += [Switch(2), Switch(1)]
        events += [Return(0x200 + 4 * i, 0xA000 + i) for i in range(4)]
        report = run(control_flow(Trace(1, events)))
        assert ([(r.pid, r.n_i, r.n_r, r.n_m) for r in report.intervals]
                == [(1, 14, 6, 6)])
        assert report.intervals[0].closed_by is ClosedBy.OVERFLOW

    def test_restored_misses_count_toward_t_m(self):
        # pid 1 accumulates 4 mispredictions, is switched out and back in:
        # its 4 are restored, so one more miss closes nothing and two
        # close one interval.
        pre = [Return(0x100 + 4 * i, 0x9000 + i) for i in range(4)]
        mid = [Switch(2), Plain(0), Switch(1)]
        post = [Return(0x200 + 4 * i, 0xA000 + i) for i in range(2)]
        one_more = run(control_flow(Trace(1, pre + mid + post[:1])))
        assert not [r for r in one_more.intervals
                    if r.closed_by is ClosedBy.OVERFLOW]
        two_more = run(control_flow(Trace(1, pre + mid + post)))
        overflow = [r for r in two_more.intervals
                    if r.closed_by is ClosedBy.OVERFLOW]
        assert [(r.pid, r.n_m) for r in overflow] == [(1, 6)]
        assert two_more.verdicts[0].trigger_pc == 0x204

    def test_fresh_process_gets_full_threshold(self):
        # pid 1 parks 4 mispredictions; pid 2 has parked none and needs
        # all 6 of its own.
        events = [Return(0x100 + 4 * i, 0x9000 + i) for i in range(4)]
        events.append(Switch(2))
        pid2 = [Return(0x200 + 4 * i, 0xA000 + i) for i in range(6)]
        five = run(control_flow(Trace(1, events + pid2[:5])))
        assert not [r for r in five.intervals if r.closed_by is ClosedBy.OVERFLOW]
        six = run(control_flow(Trace(1, events + pid2)))
        overflow = [r for r in six.intervals if r.closed_by is ClosedBy.OVERFLOW]
        assert [(r.pid, r.n_m) for r in overflow] == [(2, 6)]

    def test_carried_interval_counts_whole_interval(self):
        # 4 mispredictions before the switch, 2 after: the completed interval
        # reports totals across the switch.
        pre = [Return(0x100 + 4 * i, 0x9000 + i) for i in range(4)]
        mid = [Switch(2), Plain(0), Plain(4), Switch(1)]
        post = [Return(0x200 + 4 * i, 0xA000 + i) for i in range(2)]
        report = run(control_flow(Trace(1, pre + mid + post)))
        completed = [r for r in report.intervals
                     if r.pid == 1 and r.closed_by is ClosedBy.OVERFLOW]
        assert len(completed) == 1
        assert (completed[0].n_i, completed[0].n_r, completed[0].n_m) == (6, 6, 6)
        # n_i = 6 <= 36 and n_r = 6: this bare-return interval is a detection.
        assert report.verdicts

    def test_failed_check_clears_parked_entry(self):
        # 4 mispreds + enough plain padding that the completed interval
        # fails; the next interval then starts from zero, not from the
        # parked counts.
        pre = [Return(0x100 + 4 * i, 0x9000 + i) for i in range(4)]
        pad = [Plain(i * 4) for i in range(40)]
        post = [Return(0x200 + 4 * i, 0xA000 + i) for i in range(2)]
        tail = [Return(0x300 + 4 * i, 0xB000 + i) for i in range(3)]
        mid = [Switch(2), Plain(0), Switch(1)]
        report = run(control_flow(Trace(1, pre + pad + mid + post + tail)))
        assert not report.verdicts
        assert ([(r.n_i, r.n_r, r.n_m, r.closed_by) for r in report.intervals
                 if r.pid == 1]
                == [(46, 6, 6, ClosedBy.OVERFLOW),
                    (3, 3, 3, ClosedBy.END_OF_TRACE)])

    def test_no_table_discards_partial_interval(self):
        events = [Return(0x100 + 4 * i, 0x9000 + i) for i in range(4)]
        events += [Switch(2), Plain(0), Switch(1)]
        events += [Return(0x200 + 4 * i, 0xA000 + i) for i in range(6)]
        cfg = DetectorConfig(table_enabled=False)
        report = run(control_flow(Trace(1, events)), cfg)
        discarded = [r for r in report.intervals
                     if r.closed_by is ClosedBy.SWITCH and r.pid == 1]
        assert len(discarded) == 1
        assert discarded[0].n_m == 4
        # The second quantum's six bare returns complete an interval alone.
        assert report.verdicts
        assert report.verdicts[0].n_r == 6


class TestSplitChain:
    def test_split_into_thirds_needs_the_table(self):
        # 12 four-instruction gadgets in three 4-gadget quanta, benign
        # process in between: detected with the table, missed without.
        rop = rop_trace(prologue=60)
        benign = gen_benign(BenignSpec(total_instructions=3000,
                                       mispredict_burst_count=1,
                                       gap_profile="sparse", seed=3))
        n = len(rop.events)
        chain_events = 12 * 4
        cut1 = n - chain_events + 16  # after gadget 4
        cut2 = n - chain_events + 32  # after gadget 8
        b = len(benign.events)
        spec = InterleaveSpec(
            parts=[(1, benign), (7, rop)],
            schedule=[(1, 1000), (7, cut1), (1, 1000), (7, cut2 - cut1),
                      (1, 500), (7, n - cut2), (1, b - 2500)])
        trace = interleave(spec)
        with_table = run(control_flow(trace))
        assert {v.pid for v in with_table.verdicts} == {7}
        without_table = run(control_flow(trace), DetectorConfig(table_enabled=False))
        assert not without_table.verdicts

    def test_verdict_matches_reference_on_split_trace(self):
        rop = rop_trace(prologue=60)
        benign = gen_benign(BenignSpec(total_instructions=3000,
                                       mispredict_burst_count=1,
                                       gap_profile="sparse", seed=4))
        n = len(rop.events)
        spec = InterleaveSpec(
            parts=[(1, benign), (7, rop)],
            schedule=[(1, 1500), (7, n // 2), (1, 1000), (7, n - n // 2),
                      (1, len(benign.events) - 2500)])
        trace = interleave(spec)
        for table in (True, False):
            cfg = DetectorConfig(table_enabled=table)
            got = detector_verdict_tuples(run(control_flow(trace), cfg))
            want = reference_verdicts(trace, 6, 6, 16, table_enabled=table)
            assert got == want


class TestParkedCounts:
    def test_saturates_at_one_byte(self):
        # Parks of 200 and then 100 more plains: the parked interval closes
        # with its instruction count clamped at 255, whether a counter
        # overflow or the end of the trace closes it.
        first = [Plain(4 * i) for i in range(200)] + [Switch(2), Switch(1)]
        second = [Plain(0x1000 + 4 * i) for i in range(100)]
        ended = run(control_flow(Trace(1, first + second)))
        assert ([(r.n_i, r.closed_by) for r in ended.intervals]
                == [(255, ClosedBy.END_OF_TRACE)])
        misses = [Return(0x2000 + 4 * i, 0x9000 + i) for i in range(2)]
        events = first + second + [Switch(2), Switch(1)] + misses
        closed = run(control_flow(Trace(1, events)), DetectorConfig(t_m=2))
        assert ([(r.n_i, r.n_r, r.n_m, r.closed_by) for r in closed.intervals]
                == [(255, 2, 2, ClosedBy.OVERFLOW)])

    def test_stored_counts_fit_one_byte(self):
        # 300 instructions, 17 returns and 4 misses parked: the interval
        # reads the counts a three-byte table entry holds.
        events = [Plain(4 * i) for i in range(270)]
        for i in range(13):
            events += [Call(0x8000 + 8 * i, 0x20000, 0x8004 + 8 * i),
                       Return(0x20000, 0x8004 + 8 * i)]
        events += [Return(0x1000 + 4 * i, 0x9000 + i) for i in range(4)]
        events += [Switch(2), Switch(1)]
        rec = run(control_flow(Trace(1, events))).intervals[-1]
        # bytes() raises ValueError on a count above 255.
        assert bytes([rec.n_i, rec.n_r, rec.n_m]) == bytes([255, 17, 4])


class TestConfig:
    def test_rejects_non_positive_parameters(self):
        with pytest.raises(ValueError):
            DetectorConfig(t_m=0)
        with pytest.raises(ValueError):
            DetectorConfig(t_i=0)

    def test_rejects_configurations_the_table_cannot_hold(self):
        for t_m, t_i in ((50, 6), (255, 1), (1, 255), (51, 5), (17, 15)):
            with pytest.raises(ValueError):
                DetectorConfig(t_m=t_m, t_i=t_i)
        for t_m, t_i in ((50, 5), (254, 1), (1, 254), (6, 6)):
            DetectorConfig(t_m=t_m, t_i=t_i)

    def test_saturated_park_is_not_a_false_positive(self):
        # A benign pid: 600 plains and 40 bare returns, switched out and
        # back, then 10 more bare returns.  The parked n_i clamps to 255.
        # At t_m=50, t_i=6 the limit of 300 would pass the clamped count
        # though the true 650 fails; that configuration is refused.
        trace = _long_park_trace(600, 40, 1, 10)
        assert reference_verdicts(trace, 50, 6, 16) == []
        with pytest.raises(ValueError):
            DetectorConfig(t_m=50, t_i=6)
        # Limit 250 < 255: the clamped count fails as the true one does.
        report = run(control_flow(trace), DetectorConfig(t_m=50, t_i=5))
        assert not report.verdicts
        assert reference_verdicts(trace, 50, 5, 16) == []
        overflow = [r for r in report.intervals if r.closed_by is ClosedBy.OVERFLOW]
        assert [(r.n_i, r.n_r, r.n_m) for r in overflow] == [(255, 50, 50)]
        assert reference_intervals(trace, 50, 5, 16) == [(1, 1, 255, 50, 50, "overflow")]

    def test_flush_ras_on_switch_breaks_cross_switch_matches(self):
        events = [Call(0x100, 0x2000, 0x104), Switch(2), Plain(0), Switch(1),
                  Return(0x2004, 0x104)]
        flow = control_flow(Trace(1, events))
        kept = run(flow)
        assert not any(r.n_m for r in kept.intervals)
        flushed = run(flow, DetectorConfig(flush_ras_on_switch=True))
        assert any(r.n_m for r in flushed.intervals)


class TestReplay:
    def test_flow_with_a_switch_is_refused(self):
        flow = control_flow(Trace(1, [Plain(0), Switch(2), Return(4, 8)]))
        with pytest.raises(ValueError):
            replay(flow, 16)

    def test_runs_only_at_the_capacity_it_was_made_at(self):
        marks = replay(control_flow(rop_trace()), 16)
        with pytest.raises(ValueError):
            run(marks, DetectorConfig(ras_capacity=8))
        assert run(marks, DetectorConfig(ras_capacity=16)).verdicts

    @pytest.mark.parametrize("replayed, capacity", [
        ("replay", 0), ("replay", -1), ("replay", 10**20), ("replay_mispredictions", 10**20)])
    def test_a_depth_the_config_rejects_is_refused(self, replayed, capacity):
        # At 0 every return would mispredict; below it or past sys.maxsize
        # the deque's own errors would surface.
        trace = Trace(1, [Call(0x100, 0x200, 0x104), Return(0x200, 0x104)])
        with pytest.raises(ValueError, match="^ras_capacity must be"):
            if replayed == "replay":
                replay(control_flow(trace), capacity)
            else:
                replay_mispredictions(trace, capacity)

    def test_a_flow_without_an_end_item_is_refused(self):
        with pytest.raises(ValueError, match="^control flow items end without an END item$"):
            run(ControlFlow(1, [(0, RETURN, 0, 4)]))


class TestReportSerialization:
    def test_jsonl_records_and_fields(self):
        report = run(control_flow(rop_trace()))
        lines = [json.loads(line) for line in report.to_jsonl().splitlines()]
        kinds = {line["type"] for line in lines}
        assert kinds == {"interval", "verdict"}
        verdict = next(l for l in lines if l["type"] == "verdict")
        assert verdict["verdict"] == "rop_detected"
        assert set(verdict) >= {"pid", "interval_index", "n_i", "n_r",
                                "level", "trigger_pc"}
        assert verdict["level"] == "user"
        int(verdict["trigger_pc"], 16)
        interval = next(l for l in lines if l["type"] == "interval")
        assert set(interval) >= {"pid", "interval_index", "n_i", "n_r",
                                 "n_m", "closed_by"}

    def test_clean_report_serializes_empty(self):
        report = run(control_flow(Trace(1, [])))
        assert report.to_jsonl() == ""


# -- the three hardware counters of the signature, as `run` counts them -------
#
# Instructions and returns are counted; the mispredicted-return count
# closes the interval on the event that brings it to `t_m`.  Every
# guarantee is checked through detector output: the interval records and
# verdicts.

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


class TestEventCounts:
    def test_overflow_fires_exactly_at_threshold(self):
        five = run(control_flow(Trace(1, _bare_returns(5))))
        assert not _overflow(five)
        assert five.intervals[-1].n_m == 5
        events = _bare_returns(6)
        six = run(control_flow(Trace(1, events)))
        assert [r.n_m for r in _overflow(six)] == [6]
        assert six.verdicts[0].trigger_pc == events[-1].pc

    def test_one_interval_per_t_m_misses(self):
        # 10 mispredictions at t_m=3, each after 20 plains so no interval
        # passes: one signal per 3 misses, the last one left open.
        flow = control_flow(Trace(1, _bare_returns(10, plains=20)))
        report = run(flow, DetectorConfig(t_m=3))
        assert [r.n_m for r in _overflow(report)] == [3, 3, 3]
        assert report.intervals[-1].closed_by is ClosedBy.END_OF_TRACE
        assert report.intervals[-1].n_m == 1

    def test_predicted_returns_close_no_interval(self):
        events = [Plain(4 * i) for i in range(1000)]
        for i in range(100):
            events += [Call(0x8000 + 8 * i, 0x20000, 0x8004 + 8 * i),
                       Return(0x20000, 0x8004 + 8 * i)]
        report = run(control_flow(Trace(1, events)))
        assert not _overflow(report)
        rec = report.intervals[-1]
        assert (rec.n_i, rec.n_r, rec.n_m) == (1200, 100, 0)

    def test_each_interval_counts_from_zero(self):
        # Three failing intervals of identical shape: each record holds its
        # own counts only, and a fresh interval needs all t_m misses again.
        report = run(control_flow(Trace(1, _gadgets([8] * 20))))
        assert [(r.n_i, r.n_r, r.n_m) for r in _overflow(report)] == [(48, 6, 6)] * 3
        assert (report.intervals[-1].n_i, report.intervals[-1].n_m) == (16, 2)

    def test_misses_parked_over_two_switches_close_one_interval(self):
        # 2 + 2 misses parked over two switches and restored each time: the
        # last 2 misses complete the interval of 6.
        events = _bare_returns(2, plains=20)
        events += [Switch(2), Plain(0), Switch(1)]
        events += _bare_returns(2, base=0x2000, plains=20)
        events += [Switch(3), Plain(0), Switch(1)]
        events += _bare_returns(2, base=0x4000, plains=20)
        report = run(control_flow(Trace(1, events)))
        assert [(r.pid, r.n_m, r.n_r) for r in _overflow(report)] == [(1, 6, 6)]

    def test_idle_switches_leave_the_interval_unchanged(self):
        # Reading the counts at a switch does not change them: switching a
        # process out and back with nothing run in between leaves its
        # interval as it was.
        events = _bare_returns(4)
        tail = _bare_returns(2, base=0x4000)
        plain = run(control_flow(Trace(1, events + tail)))
        idle = [Switch(2), Switch(1)] * 3
        switched = run(control_flow(Trace(1, events + idle + tail)))
        assert ([(r.n_i, r.n_r, r.n_m) for r in _overflow(switched)]
                == [(r.n_i, r.n_r, r.n_m) for r in _overflow(plain)]
                == [(6, 6, 6)])
        assert switched.verdicts == plain.verdicts

    def test_six_four_instruction_gadgets_close_at_24_6_6(self):
        report = run(control_flow(Trace(1, _gadgets([4] * 6))))
        assert [(r.n_i, r.n_r, r.n_m) for r in _overflow(report)] == [(24, 6, 6)]
        assert report.verdicts

    def test_counts_are_monotone_within_cycle(self):
        # A return is an instruction and a misprediction is a return.
        for seed in range(30):
            for rec in run(control_flow(chaos_trace(random.Random(seed)))).intervals:
                assert rec.n_m <= rec.n_r <= rec.n_i

    def test_every_miss_closes_an_interval_at_t_m_1(self):
        # t_m=1: every mispredicted return closes its own interval, and a
        # correctly predicted one closes none.
        events = _bare_returns(3, plains=10)
        events += [Call(0x7000, 0x20000, 0x7004), Return(0x20000, 0x7004)]
        report = run(control_flow(Trace(1, events)), DetectorConfig(t_m=1))
        assert [(r.n_r, r.n_m) for r in _overflow(report)] == [(1, 1)] * 3
        assert (report.intervals[-1].n_r, report.intervals[-1].n_m) == (1, 0)

    def test_live_counts_exceed_one_byte(self):
        # Live counts are not one byte: only parked counts saturate.
        report = run(control_flow(Trace(1, [Plain(4 * i) for i in range(300)])))
        assert report.intervals[-1].n_i == 300


# -- agreement with the oracle over the configurations the API accepts ---------

@st.composite
def configs(draw):
    """(t_m, t_i) with t_i * t_m < 255, mostly small enough to close intervals."""
    t_m = draw(st.one_of(st.integers(1, 12), st.integers(1, 254)))
    return t_m, draw(st.integers(1, 254 // t_m))


def _assert_agrees(trace, t_m, t_i, capacity, flush, table):
    cfg = DetectorConfig(t_m=t_m, t_i=t_i, table_enabled=table,
                         ras_capacity=capacity, flush_ras_on_switch=flush)
    want = reference_jsonl(trace, t_m, t_i, capacity, table_enabled=table,
                           flush_ras_on_switch=flush)
    assert run(control_flow(trace), cfg).to_jsonl() == want
    # The scanned text gives the same records as the parsed events.
    scanned = load_bytes(serialize_trace(trace).encode("ascii"))
    assert run(scanned, cfg).to_jsonl() == want


def _assert_file_agrees(trace, t_m, t_i, capacity, flush, table, chunk=trace_mod.SCAN_CHUNK):
    """`run` over `trace` read from a file `chunk` bytes at a time, as `detect`
    reads it, agrees with the oracle."""
    cfg = DetectorConfig(t_m=t_m, t_i=t_i, table_enabled=table,
                         ras_capacity=capacity, flush_ras_on_switch=flush)
    path = trace_path(serialize_trace(trace).encode("ascii"))
    with mock.patch.object(trace_mod, "SCAN_CHUNK", chunk):
        got = run(load_trace(path), cfg).to_jsonl()
    assert got == reference_jsonl(trace, t_m, t_i, capacity, table_enabled=table,
                                  flush_ras_on_switch=flush)


# A failing example is reported as drawn: shrinking it can take minutes.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def _cell(rng: random.Random, t_m: int):
    """`t_m` and the rest of a cell drawn from `rng`: `t_i` with `t_i * t_m < 255`,
    a predictor of 1-32 entries, the flush and the table.  The tests below draw
    only a seed and take the trace and the cell from it, so that each example
    is a new trace: hypothesis builds examples by changing the draws of earlier
    ones, which would also keep their seeds."""
    return (t_m, rng.randint(1, 254 // t_m), rng.randint(1, 32), rng.random() < 0.5,
            rng.random() < 0.5)


def _chaos_t_m(rng: random.Random) -> int:
    """A `t_m` as `configs` draws one: mostly small enough to close intervals."""
    return rng.randint(1, rng.choice((12, 254)))


class TestOracleAgreement:
    @settings(max_examples=300, phases=_NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_chaos_traces(self, seed):
        rng = random.Random(seed)
        _assert_agrees(chaos_trace(rng), *_cell(rng, _chaos_t_m(rng)))

    @settings(max_examples=40, phases=_NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_split_attack_traces(self, seed):
        rng = random.Random(seed)
        t_m = rng.randint(1, 12)
        trace, _ = split_attack_trace(rng.getrandbits(32), t_m)
        _assert_agrees(trace, *_cell(rng, t_m))

    @settings(max_examples=150, phases=_NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1),
           t_ms=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           t_is=st.lists(st.integers(1, 21), min_size=1, max_size=3),
           capacity=st.integers(1, 32), flush=st.booleans(), table=st.booleans())
    def test_replay_of_switch_free_chaos_traces(self, seed, t_ms, t_is, capacity,
                                                flush, table):
        # One replay per trace, counted for every cell of the grid
        # (t_i <= 21 keeps t_i * t_m below 255 for t_m <= 12).
        trace = chaos_trace(random.Random(seed))
        trace = Trace(trace.initial_process,
                      [ev for ev in trace.events if not isinstance(ev, Switch)])
        marks = replay(control_flow(trace), capacity)
        for t_m in t_ms:
            for t_i in t_is:
                cfg = DetectorConfig(t_m=t_m, t_i=t_i, table_enabled=table,
                                     ras_capacity=capacity, flush_ras_on_switch=flush)
                assert run(marks, cfg).to_jsonl() == reference_jsonl(
                    trace, t_m, t_i, capacity, table_enabled=table,
                    flush_ras_on_switch=flush)

    def test_split_attack_with_one_miss_per_interval(self):
        # At t_m = 1 this chain spans too few events for 5 quanta.
        trace, _ = split_attack_trace(2342, 1)
        _assert_agrees(trace, 1, 6, 16, False, True)

    @settings(max_examples=100, phases=_NO_SHRINK)
    @given(cfg=configs(), plains=st.integers(256, 700), before=st.integers(0, 60),
           gap=st.integers(0, 3), after=st.integers(0, 60), table=st.booleans())
    @example(cfg=(50, 5), plains=600, before=40, gap=1, after=10, table=True)
    def test_parks_of_more_than_255_instructions(self, cfg, plains, before, gap,
                                                 after, table):
        trace = _long_park_trace(plains, before, gap, after)
        _assert_agrees(trace, *cfg, 16, False, table)


class TestScannedReplay:
    """A scanned file is replayed a chunk at a time, here of a few hundred bytes,
    so that predictor entries, counts and a verdict's stopped process all cross
    chunk boundaries."""

    @settings(max_examples=40, phases=_NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_chaos_traces(self, seed):
        rng = random.Random(seed)
        _assert_file_agrees(chaos_trace(rng), *_cell(rng, _chaos_t_m(rng)),
                            rng.randint(300, 1000))

    @settings(max_examples=3, phases=_NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1), t_m=st.integers(1, 12), data=st.data(),
           capacity=st.integers(1, 32), flush=st.booleans(), table=st.booleans(),
           chunk=st.integers(300, 1000))
    def test_split_attack_traces(self, seed, t_m, data, capacity, flush, table, chunk):
        t_i = data.draw(st.integers(1, 254 // t_m))
        trace, _ = split_attack_trace(seed, t_m)
        _assert_file_agrees(trace, t_m, t_i, capacity, flush, table, chunk)

    def test_a_verdict_leaves_the_predictor_to_the_others(self):
        # pid 2 is flagged mid-chunk; the entry it pushed before its miss is
        # still there for pid 1, whose return to it is predicted.
        trace = Trace(1, [Call(0x100, 0x500, 0x104), Switch(2), Call(0x2000, 0x600, 0x2004),
                          Call(0x2004, 0x700, 0x2008), Return(0x3000, 0x9999), Plain(0),
                          Switch(1), Return(0x504, 0x2004)])
        _assert_agrees(trace, 1, 6, 16, False, True)
        _assert_file_agrees(trace, 1, 6, 16, False, True)
        assert [v.pid for v in run(control_flow(trace), DetectorConfig(t_m=1)).verdicts] == [2]

    def test_a_flagged_process_switched_back_in_leaves_the_predictor_alone(self):
        # pid 2 is flagged mid-chunk and switched out, then back in, where its
        # call must not push: pid 1's return to 0x104 finds its own entry.
        trace = Trace(1, [Call(0x100, 0x500, 0x104), Call(0x500, 0x600, 0x504), Switch(2),
                          Return(0x3000, 0x9999), Switch(3), Plain(0), Switch(2),
                          Call(0x2000, 0x700, 0x2004), Switch(1), Return(0x604, 0x104)])
        _assert_agrees(trace, 1, 6, 16, False, True)
        _assert_file_agrees(trace, 1, 6, 16, False, True)
        assert [v.pid for v in run(control_flow(trace), DetectorConfig(t_m=1)).verdicts] == [2]

    def test_an_entry_stays_evicted_when_pushed_over_again(self):
        # pid 2's second call evicts 0x104; its miss flags it, and its call after
        # the verdict evicts 0x104 again.  pid 1's return to 0x104 finds no entry.
        trace = Trace(2, [Call(0x100, 0x500, 0x104), Call(0x500, 0x600, 0x504),
                          Return(0x3000, 0x9999), Call(0x2000, 0x700, 0x2004), Switch(1),
                          Return(0x800, 0x104)])
        _assert_agrees(trace, 1, 6, 1, False, True)
        _assert_file_agrees(trace, 1, 6, 1, False, True)
        cfg = DetectorConfig(t_m=1, ras_capacity=1)
        assert [v.pid for v in run(control_flow(trace), cfg).verdicts] == [2, 1]

    def test_a_verdict_on_a_chunks_last_item(self):
        # pid 2's miss flags it and ends the first chunk, so the next chunk
        # starts from the entries as the verdict left them: pid 1's return
        # to 0x104 hits.
        trace = Trace(1, [Call(0x100, 0x500, 0x104), Switch(2), Call(0x2000, 0x600, 0x2004),
                          Return(0x3000, 0x9999), Switch(1), Return(0x504, 0x104)])
        _assert_agrees(trace, 1, 6, 16, False, True)
        _assert_file_agrees(trace, 1, 6, 16, False, True,
                            serialize_trace(trace).index("X 1\n"))
        assert [v.pid for v in run(control_flow(trace), DetectorConfig(t_m=1)).verdicts] == [2]

    def test_more_verdicts_in_a_chunk_than_the_recursion_limit(self):
        # Every pid is flagged inside the one chunk and calls after its verdict, so
        # its replay starts over after each verdict, more times than Python allows
        # nested calls.
        pids = range(2, sys.getrecursionlimit() + 100)
        trace = Trace(1, [item for pid in pids for item in
                          (Switch(pid), Return(0x3000, 0x9999), Call(0x3004, 0x700, 0x3008))])
        _assert_agrees(trace, 1, 6, 16, False, True)
        _assert_file_agrees(trace, 1, 6, 16, False, True)
        assert len(run(control_flow(trace), DetectorConfig(t_m=1)).verdicts) == len(pids)

    def test_a_predictor_deeper_than_16_bits(self):
        # The unwind's chunks carry more than 2**16 entries, so the depths of
        # their pushes and pops need more than 16 bits.  Every return of the
        # unwind hits, and the six after it miss and close the one interval.
        depth = 65_540
        calls = [Call(0, 0, 4 * i + 4) for i in range(depth)]
        returns = [Return(0, 4 * i + 4) for i in reversed(range(depth))]
        trace = Trace(1, calls + returns + [Return(0, 1)] * 6)
        _assert_file_agrees(trace, 6, 6, depth, False, True)


class TestPooledAddresses:
    """Calls and returns over a pool of a few addresses, at a predictor of 1-4
    entries, so that returns reach entries that were reused, evicted or flushed."""

    @settings(max_examples=50, phases=_NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1))
    # A return to an entry that was evicted, popped and pushed over again, and a
    # return to an entry pushed before another process's verdict: the draws reach
    # each in about 1 of 60 and 1 of 20.
    @example(seed=4041461143)
    def test_pooled_traces(self, seed):
        """`run` over a `pooled_trace` agrees with the oracle, as a list flow and
        as the file read a few hundred bytes at a time, at two cells: the first
        without the flush and the second with it.  The trace, the read size and
        the cells all come from `seed`, so that each example is a new trace; the
        file is scanned once, and each cell replays its chunks."""
        rng = random.Random(seed)
        trace = pooled_trace(rng)
        path = trace_path(serialize_trace(trace).encode("ascii"))
        with mock.patch.object(trace_mod, "SCAN_CHUNK", rng.randint(300, 1000)):
            scanned = load_trace(path)
            chunks = list(scanned.items.chunks)
        flow = control_flow(trace)
        for flush in False, True:
            capacity, t_m, table = rng.randint(1, 4), rng.randint(1, 3), rng.random() < 0.5
            t_i = rng.randint(1, 254 // t_m)
            cfg = DetectorConfig(t_m=t_m, t_i=t_i, table_enabled=table,
                                 ras_capacity=capacity, flush_ras_on_switch=flush)
            want = reference_jsonl(trace, t_m, t_i, capacity, table_enabled=table,
                                   flush_ras_on_switch=flush)
            assert run(flow, cfg).to_jsonl() == want
            loaded = ControlFlow(scanned.initial_process, Scanned(iter(chunks)))
            assert run(loaded, cfg).to_jsonl() == want, cfg
