import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ropsim import workload
from ropsim.detector import DEFAULT_CAPACITY, DetectorConfig, replay, run
from ropsim.trace import (CALL, KERNEL_BASE, Call, Plain, PrivilegeLevel, Return,
                          Switch, Trace, control_flow, parse_trace,
                          serialize_trace)
from ropsim.workload import (GAP_PROFILES, BenignSpec, GenerationError,
                             InterleaveSpec, RopSpec, benign_flow, gen_benign,
                             gen_rop, interleave, replay_mispredictions,
                             rop_flow)

from helpers import mispredict_runs


def instruction_count(trace):
    """Retired instructions: the serialized plain, call and return records."""
    text = serialize_trace(trace)
    return sum(text.count(f"\n{tag} ") for tag in "ICR")


class TestBenignGenerator:
    def test_no_bursts_means_no_mispredictions(self):
        trace = gen_benign(BenignSpec(total_instructions=5000,
                                      mispredict_burst_count=0, seed=1))
        assert not any(replay_mispredictions(trace, 16))

    def test_single_burst_hits_the_chain_cap_exactly(self):
        spec = BenignSpec(total_instructions=5000, ras_capacity=16,
                          max_benign_mispredict_chain=10,
                          mispredict_burst_count=1, seed=2)
        runs = mispredict_runs(replay_mispredictions(gen_benign(spec), 16))
        assert runs == [10]

    def test_deterministic_in_seed(self):
        spec = BenignSpec(total_instructions=8000, mispredict_burst_count=3, seed=7)
        a = serialize_trace(gen_benign(spec))
        b = serialize_trace(gen_benign(spec))
        assert a == b
        other = BenignSpec(total_instructions=8000, mispredict_burst_count=3, seed=8)
        assert serialize_trace(gen_benign(other)) != a

    def test_exact_instruction_count(self):
        for events in (3000, 5000, 12_345):
            trace = gen_benign(BenignSpec(total_instructions=events,
                                          mispredict_burst_count=2, seed=3))
            assert instruction_count(trace) == events
            assert len(trace.events) == events  # single-process: no switches

    @pytest.mark.parametrize("profile", ["sparse", "dense", "mixed"])
    def test_chain_cap_respected_across_profiles(self, profile):
        for seed in range(8):
            spec = BenignSpec(total_instructions=12_000,
                              max_benign_mispredict_chain=10,
                              mispredict_burst_count=5,
                              gap_profile=profile, seed=seed)
            runs = mispredict_runs(replay_mispredictions(gen_benign(spec), 16))
            assert len(runs) == 5
            assert max(runs) <= 10

    def test_infeasible_spec_rejected(self):
        with pytest.raises(GenerationError):
            gen_benign(BenignSpec(total_instructions=500,
                                  mispredict_burst_count=4, seed=0))

    def test_unknown_profile_rejected(self):
        with pytest.raises(GenerationError):
            gen_benign(BenignSpec(gap_profile="bogus"))

    def test_bursts_with_zero_cap_rejected(self):
        with pytest.raises(GenerationError):
            gen_benign(BenignSpec(max_benign_mispredict_chain=0,
                                  mispredict_burst_count=1))

    def test_negative_burst_count_rejected(self):
        with pytest.raises(GenerationError):
            gen_benign(BenignSpec(total_instructions=1000,
                                  mispredict_burst_count=-1))

    def test_negative_seed_rejected(self):
        # `random.Random` seeds with abs(seed): seed -3 would draw seed 3's trace.
        for generate in (gen_benign, benign_flow):
            with pytest.raises(GenerationError, match="seed must be >= 0"):
                generate(BenignSpec(total_instructions=1000, seed=-3))

    def test_zero_ras_capacity_rejected(self):
        # Past sys.maxsize as at 0: neither is a depth `DetectorConfig` accepts.
        for capacity in (0, 10**20):
            for bursts in (0, 1):
                with pytest.raises(GenerationError, match="ras_capacity"):
                    gen_benign(BenignSpec(ras_capacity=capacity, total_instructions=1000,
                                          mispredict_burst_count=bursts))

    def test_small_trace_without_bursts_is_fine(self):
        trace = gen_benign(BenignSpec(total_instructions=10,
                                      mispredict_burst_count=0, seed=0))
        assert instruction_count(trace) == 10


class TestRopGenerator:
    def test_chain_returns_all_mispredict(self):
        trace = gen_rop(RopSpec(chain_length=12, seed=5))
        runs = mispredict_runs(replay_mispredictions(trace, 16))
        assert runs == [12]

    def test_alignment_offset_extends_the_run(self):
        trace = gen_rop(RopSpec(chain_length=12, alignment_offset=3, seed=5))
        runs = mispredict_runs(replay_mispredictions(trace, 16))
        assert runs == [15]

    def test_deterministic_in_seed(self):
        spec = RopSpec(chain_length=14, prologue=120, alignment_offset=2, seed=9)
        assert serialize_trace(gen_rop(spec)) == serialize_trace(gen_rop(spec))

    def test_kernel_region_addresses(self):
        trace = gen_rop(RopSpec(chain_length=8, prologue=50,
                                address_region=PrivilegeLevel.KERNEL, seed=1))
        returns = [ev for ev in trace.events if ev.__class__ is Return]
        for ev in returns[-8:]:
            assert ev.pc >= KERNEL_BASE
            assert ev.actual_target >= KERNEL_BASE

    def test_user_region_addresses(self):
        trace = gen_rop(RopSpec(chain_length=8, seed=1))
        returns = [ev for ev in trace.events if ev.__class__ is Return]
        assert all(ev.pc < KERNEL_BASE for ev in returns[-8:])

    def test_gadget_size_validation(self):
        with pytest.raises(GenerationError):
            gen_rop(RopSpec(chain_length=3, gadget_sizes=[4, 4]))
        with pytest.raises(GenerationError):
            gen_rop(RopSpec(chain_length=2, gadget_sizes=[4, 0]))
        with pytest.raises(GenerationError):
            gen_rop(RopSpec(chain_length=0))

    def test_gadget_running_past_32_bits_rejected(self):
        # Seed 9730 draws a kernel base less than 4 * 39999 bytes below the
        # top of the address space.
        spec = RopSpec(chain_length=1, gadget_sizes=[40000], prologue=0,
                       address_region=PrivilegeLevel.KERNEL, seed=9730)
        with pytest.raises(GenerationError, match="0xffffffff"):
            gen_rop(spec)
        spec.gadget_sizes = [2]
        assert max(ev.pc for ev in gen_rop(spec).events) > 0xFFFFFFFF - 4 * 39999

    def test_negative_prologue_and_offset_rejected(self):
        with pytest.raises(GenerationError):
            gen_rop(RopSpec(chain_length=4, alignment_offset=-3))
        with pytest.raises(GenerationError):
            gen_rop(RopSpec(chain_length=4, prologue=-1))

    def test_negative_seed_rejected(self):
        for generate in (gen_rop, rop_flow):
            with pytest.raises(GenerationError, match="seed must be >= 0"):
                generate(RopSpec(chain_length=4, seed=-7))

    def test_single_gadget(self):
        trace = gen_rop(RopSpec(chain_length=1, prologue=0, seed=0))
        assert sum(replay_mispredictions(trace, 16)) == 1

    def test_prologue_length_reached(self):
        trace = gen_rop(RopSpec(chain_length=4, prologue=500, seed=2))
        # Prologue plus 4 small gadgets plus any alignment padding.
        assert instruction_count(trace) >= 500 + 4


@st.composite
def chains_within_t_i(draw):
    """A detector cell with `t_i >= 4`, and a chain whose gadgets all fit in `t_i`."""
    t_m = draw(st.integers(1, 12))
    t_i = draw(st.integers(4, 254 // t_m))
    g = draw(st.integers(1, 3 * t_m))
    spec = RopSpec(chain_length=g, gadget_sizes=draw(st.lists(st.integers(1, t_i),
                                                              min_size=g, max_size=g)),
                   prologue=draw(st.integers(1, 200)),
                   alignment_offset=draw(st.integers(0, 2 * t_m)),
                   address_region=draw(st.sampled_from(PrivilegeLevel)),
                   seed=draw(st.integers(0, 2**32 - 1)))
    return DetectorConfig(t_m=t_m, t_i=t_i), spec


class TestCountCondition:
    """With every gadget within `t_i` and a call in the prologue, a generated
    chain is flagged exactly when it brings `2 * t_m` mispredicted returns.
    The prologue's predicted returns push the first interval's `n_r` above
    `t_m`; each later interval holds only gadgets and alignment returns,
    which carry 2-4 instructions, so its instructions are within `t_i * t_m`."""

    @settings(max_examples=100)
    @given(chains_within_t_i())
    def test_flagged_exactly_from_two_intervals_of_misses(self, case):
        cfg, spec = case
        flow, replayed = rop_flow(spec)
        # The chain and the alignment returns hold no call: any is the prologue's.
        assume(any(kind == CALL for _, kind, _, _ in flow.items))
        flagged = bool(run(replayed, cfg).verdicts)
        assert flagged == (spec.alignment_offset + spec.chain_length >= 2 * cfg.t_m)


def pc_breaks(trace):
    """Indices of the events whose pc does not follow from the event before."""
    breaks, expected = [], workload.USER_CODE_LO
    for i, ev in enumerate(trace.events):
        if ev.pc != expected:
            breaks.append(i)
        cls = ev.__class__
        expected = (ev.target if cls is Call else ev.actual_target if cls is Return
                    else ev.pc + 4)
    return breaks


class TestFlowView:
    """A generator's own flow and replay are those of the trace it returns,
    whose pc moves only as its events direct, bar `gen_rop`'s jump to the chain."""

    @pytest.mark.parametrize("profile", GAP_PROFILES)
    def test_benign(self, profile):
        # At capacity 1 and 4 the recursion nests `capacity + k` are shallow.
        for capacity, seed in itertools.product((1, 4, DEFAULT_CAPACITY), range(4)):
            spec = BenignSpec(total_instructions=6000, ras_capacity=capacity,
                              mispredict_burst_count=3, gap_profile=profile,
                              seed=seed)
            flow, replayed = benign_flow(spec)
            trace = gen_benign(spec)
            assert control_flow(trace) == flow
            assert replayed == replay(flow, spec.ras_capacity)
            assert pc_breaks(trace) == []

    def test_rop(self):
        ended_on_plains = 0  # prologues whose plains precede the jump to the chain
        for region, offset, seed in itertools.product(PrivilegeLevel, range(4), range(6)):
            spec = RopSpec(chain_length=5, gadget_sizes=[2] * 5, prologue=60,
                           alignment_offset=offset, address_region=region, seed=seed)
            flow, replayed = rop_flow(spec)
            trace = gen_rop(spec)
            assert control_flow(trace) == flow
            assert replayed == replay(flow, DEFAULT_CAPACITY)
            assert pc_breaks(trace) == [len(trace.events) - 2 * 5]
            ended_on_plains += offset == 0 and flow.items[-6][0] > 1
        assert ended_on_plains


class TestDraws:
    """`_below` stands in for `random.Random`'s `randint`, `randrange` and
    `choice`: the same values from the same bits, so the traces stay the same."""

    MISMATCH = ("workload._below no longer matches CPython's "
                "Random._randbelow_with_getrandbits (the `_randbelow` behind "
                "randint, randrange and choice)")
    # Every (start, stop, step) the generators draw an address from.
    ADDRESS_RANGES = [(lo, stop, step)
                      for lo, hi in ((workload.USER_CODE_LO, workload.USER_CODE_HI),
                                     (workload.KERNEL_CODE_LO, workload.KERNEL_CODE_HI))
                      for stop in (hi, hi - 64) for step in (4, 16)]

    def test_same_draws_as_random(self):
        below = workload._below
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            bits = ours.getrandbits
            # Widths 1..40 cover every fixed-range randint in the generators
            # and chain caps up to 41, the rejection-heavy randint(1, 1) at a
            # chain cap of 1 among them.
            for n in range(1, 41):
                got = [7 + below(bits, n) for _ in range(3)]
                assert got == [theirs.randint(7, 6 + n) for _ in range(3)], self.MISMATCH
            for lo, stop, step in self.ADDRESS_RANGES:
                got = lo + step * below(bits, (stop - lo + step - 1) // step)
                assert got == theirs.randrange(lo, stop, step), self.MISMATCH
            got = [("sparse", "dense")[below(bits, 2)] for _ in range(4)]
            assert got == [theirs.choice(("sparse", "dense")) for _ in range(4)], self.MISMATCH
            assert ours.getstate() == theirs.getstate(), self.MISMATCH
        # `nest` draws its call targets as randrange(USER_CODE_LO, USER_CODE_HI, 16).
        assert workload._TARGETS == len(range(workload.USER_CODE_LO,
                                              workload.USER_CODE_HI, 16))


class TestSelfCheck:
    """The generators check their output on a replay; a wrong one raises."""

    def test_benign_at_a_shallower_predictor(self, monkeypatch):
        real = workload.replay
        monkeypatch.setattr(workload, "replay",
                            lambda flow, capacity: real(flow, capacity - 1))
        with pytest.raises(AssertionError, match="planned"):
            gen_benign(BenignSpec(total_instructions=5000, mispredict_burst_count=2,
                                  seed=1))

    def test_rop_whose_prologue_mispredicts(self, monkeypatch):
        real = workload.replay
        monkeypatch.setattr(workload, "replay", lambda flow, capacity: real(flow, 1))
        with pytest.raises(AssertionError, match="prologue"):
            gen_rop(RopSpec(chain_length=6, prologue=200, seed=1))


class TestInterleave:
    def test_projection_reproduces_segments(self):
        rng = random.Random(0)
        a = gen_benign(BenignSpec(total_instructions=400,
                                  mispredict_burst_count=0, seed=1))
        b = gen_rop(RopSpec(chain_length=6, prologue=30, seed=2))
        schedule = []
        pos = {1: 0, 2: 0}
        lengths = {1: len(a.events), 2: len(b.events)}
        while any(pos[p] < lengths[p] for p in pos):
            pid = rng.choice([p for p in pos if pos[p] < lengths[p]])
            quantum = min(rng.randint(1, 60), lengths[pid] - pos[pid])
            schedule.append((pid, quantum))
            pos[pid] += quantum
        woven = interleave(InterleaveSpec(parts=[(1, a), (2, b)],
                                          schedule=schedule))
        back = {1: [], 2: []}
        cur = woven.initial_process
        for ev in woven.events:
            if ev.__class__ is Switch:
                cur = ev.next_pid
            else:
                back[cur].append(ev)
        assert back[1] == a.events
        assert back[2] == b.events

    def test_degenerate_single_quantum(self):
        a = gen_benign(BenignSpec(total_instructions=200,
                                  mispredict_burst_count=0, seed=4))
        woven = interleave(InterleaveSpec(parts=[(5, a)],
                                          schedule=[(5, len(a.events))]))
        assert woven.initial_process == 5
        assert woven.events == a.events

    def test_round_robin_benign_parts_stay_clean(self):
        a = gen_benign(BenignSpec(total_instructions=2000,
                                  mispredict_burst_count=1,
                                  gap_profile="sparse", seed=5))
        b = gen_benign(BenignSpec(total_instructions=2000,
                                  mispredict_burst_count=1,
                                  gap_profile="sparse", seed=6))
        schedule = []
        for start in range(0, 2000, 50):
            schedule.append((1, 50))
            schedule.append((2, 50))
        woven = interleave(InterleaveSpec(parts=[(1, a), (2, b)],
                                          schedule=schedule))
        assert not run(control_flow(woven)).verdicts

    def test_schedule_validation(self):
        a = gen_benign(BenignSpec(total_instructions=100,
                                  mispredict_burst_count=0, seed=1))
        part = [(1, a)]
        with pytest.raises(GenerationError):  # unknown pid
            interleave(InterleaveSpec(parts=part, schedule=[(2, 10)]))
        with pytest.raises(GenerationError):  # overrun
            interleave(InterleaveSpec(parts=part, schedule=[(1, 101)]))
        with pytest.raises(GenerationError):  # leftover events
            interleave(InterleaveSpec(parts=part, schedule=[(1, 99)]))
        with pytest.raises(GenerationError):  # zero quantum
            interleave(InterleaveSpec(parts=part, schedule=[(1, 0), (1, 100)]))
        with pytest.raises(GenerationError):  # empty schedule
            interleave(InterleaveSpec(parts=part, schedule=[]))
        with pytest.raises(GenerationError):  # duplicate part
            interleave(InterleaveSpec(parts=part + part, schedule=[(1, 100)]))
        switchy = Trace(1, [Plain(0), Switch(2)])
        with pytest.raises(GenerationError):  # nested switch
            interleave(InterleaveSpec(parts=[(1, switchy)], schedule=[(1, 2)]))
        with pytest.raises(GenerationError):  # negative pid
            interleave(InterleaveSpec(parts=[(-1, a)], schedule=[(-1, 100)]))

    @settings(max_examples=100)
    @given(pids=st.lists(st.integers(-3, 3) | st.integers(0, 10**6), min_size=1,
                         max_size=3, unique=True),
           data=st.data())
    def test_accepted_interleavings_round_trip(self, pids, data):
        # Each part is exactly as long as its quanta, so only the pids decide.
        schedule = data.draw(st.lists(
            st.tuples(st.sampled_from(pids), st.integers(1, 4)), max_size=6))
        events = [Plain(0), Call(4, 0x100, 8), Return(0x100, 8), Plain(8)]
        parts = [(pid, Trace(pid, [events[i % 4] for i in
                                   range(sum(q for p, q in schedule if p == pid))]))
                 for pid in pids]
        try:
            woven = interleave(InterleaveSpec(parts=parts, schedule=schedule))
        except GenerationError:
            return
        assert parse_trace(serialize_trace(woven)) == woven


# -- return-address-stack semantics, observed through replay outcomes ---------
#
# Each test replays a hand-built trace and reads the per-return outcome
# sequence (True = mispredicted).  What a stack still holds is read as the
# outcome of one more return.

def call(return_addr: int) -> Call:
    return Call(0, 0, return_addr)


def ret(target: int) -> Return:
    return Return(0, target)


def outcomes(capacity: int, events: list) -> list[bool]:
    return replay_mispredictions(Trace(1, events), capacity)


def test_single_push():
    assert outcomes(16, [call(0x1004), ret(0x1004), ret(0x1004)]) == [False, True]


def test_push_then_pop_predicts_pushed_address():
    # The second return finds the stack empty again.
    assert outcomes(16, [call(0x1004), ret(0x1004), ret(0x2000)]) == [False, True]


def test_overflow_overwrites_oldest():
    # cap 2: push A, B, C -> live {C, B}, A lost; unwinding C, B predicts,
    # then A underflows.
    events = [call(0xA0), call(0xB0), call(0xC0),
              ret(0xC0), ret(0xB0), ret(0xA0)]
    assert outcomes(2, events) == [False, False, True]


def test_empty_pop_mispredicts_and_leaves_stack_unchanged():
    events = [ret(0x2000), ret(0x2000),  # empty: both mispredict
              call(0x10),
              ret(0x999),  # wrong target still pops
              ret(0x10)]  # entry was consumed above
    assert outcomes(4, events) == [True, True, True, True]
    # The empty pop left nothing behind: the next call is the only entry.
    assert outcomes(4, [ret(0x2000), call(0x10), ret(0x10), ret(0x10)]) == [
        True, False, True]


def test_mismatched_target_pops_entry():
    assert outcomes(4, [call(0x10), ret(0x20), ret(0x10)]) == [True, True]


def test_matched_nesting_within_capacity_never_mispredicts():
    rng = random.Random(7)
    for _ in range(200):
        cap = rng.randint(1, 32)
        stack = []
        events = []
        for _ in range(rng.randint(1, 100)):
            if stack and (len(stack) == cap or rng.random() < 0.5):
                events.append(ret(stack.pop()))
            else:
                addr = rng.randrange(0, 1 << 32)
                events.append(call(addr))
                stack.append(addr)
        while stack:
            events.append(ret(stack.pop()))
        returns = sum(1 for ev in events if ev.__class__ is Return)
        assert outcomes(cap, events) == [False] * returns


def test_over_recursion_mispredicts_exactly_k_times():
    rng = random.Random(8)
    for _ in range(200):
        cap = rng.randint(1, 24)
        k = rng.randint(1, 12)
        addrs = [rng.randrange(0, 1 << 32) for _ in range(cap + k)]
        events = [call(a) for a in addrs] + [ret(a) for a in reversed(addrs)]
        assert outcomes(cap, events) == [False] * cap + [True] * k


def test_bare_return_chain_mispredicts_every_time():
    events = [ret(0x5000 + 4 * i) for i in range(9)]
    assert outcomes(16, events) == [True] * 9


def test_flush_drops_live_entries():
    # Replay keeps entries across a switch; flushing at one is a detector
    # option, tested through `run` in test_detector.py.
    events = [call(0x44), Switch(2), ret(0x44)]
    assert outcomes(8, events) == [False]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        replay_mispredictions(Trace(1, [call(0x44), ret(0x44)]), 0)
