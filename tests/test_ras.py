"""Return-address-stack semantics, observed through replay outcomes.

Each test replays a hand-built trace and reads the per-return outcome
sequence (True = mispredicted).  What a stack still holds is read as the
outcome of one more return.
"""

import random

import pytest

from ropsim.trace import Call, Return, Switch, Trace
from ropsim.workload import replay_mispredictions


def call(return_addr: int) -> Call:
    return Call(0, 0, return_addr)


def ret(target: int) -> Return:
    return Return(0, target)


def outcomes(capacity: int, events: list, flush: bool = False) -> list[bool]:
    return replay_mispredictions(Trace(1, events), capacity, flush)


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
    events = [call(0x44), Switch(2), ret(0x44)]
    assert outcomes(8, events, flush=True) == [True]
    assert outcomes(8, events, flush=False) == [False]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        replay_mispredictions(Trace(1, [call(0x44), ret(0x44)]), 0)
