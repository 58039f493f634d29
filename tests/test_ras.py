import random

import pytest

from ropsim.ras import ReturnAddressStack


def test_single_push():
    ras = ReturnAddressStack(16)
    ras.on_call(0x1004)
    assert ras.depth == 1
    assert [ras.on_return(0x1004), ras.on_return(0x1004)] == [False, True]


def test_push_then_pop_predicts_pushed_address():
    ras = ReturnAddressStack(16)
    ras.on_call(0x1004)
    assert ras.on_return(0x1004) is False
    assert ras.depth == 0


def test_overflow_overwrites_oldest():
    # cap 2: push A, B, C -> live {C, B}, A lost; unwinding C, B predicts,
    # then A underflows.
    ras = ReturnAddressStack(2)
    ras.on_call(0xA0)
    ras.on_call(0xB0)
    ras.on_call(0xC0)
    assert ras.depth == 2
    assert ras.on_return(0xC0) is False
    assert ras.on_return(0xB0) is False
    assert ras.on_return(0xA0) is True  # underflow after overwrite


def test_empty_pop_mispredicts_and_leaves_stack_unchanged():
    ras = ReturnAddressStack(4)
    assert ras.on_return(0x2000) is True
    assert ras.depth == 0
    ras.on_call(0x10)
    ras.on_return(0x999)  # wrong target still pops
    assert ras.on_return(0x10) is True  # entry was consumed above


def test_mismatched_target_pops_entry():
    ras = ReturnAddressStack(4)
    ras.on_call(0x10)
    assert ras.on_return(0x20) is True
    assert ras.depth == 0


def test_matched_nesting_within_capacity_never_mispredicts():
    rng = random.Random(7)
    for _ in range(200):
        cap = rng.randint(1, 32)
        ras = ReturnAddressStack(cap)
        stack = []
        mispredictions = 0
        for _ in range(rng.randint(1, 100)):
            if stack and (len(stack) == cap or rng.random() < 0.5):
                mispredictions += ras.on_return(stack.pop())
            else:
                addr = rng.randrange(0, 1 << 32)
                ras.on_call(addr)
                stack.append(addr)
        while stack:
            mispredictions += ras.on_return(stack.pop())
        assert mispredictions == 0


def test_over_recursion_mispredicts_exactly_k_times():
    rng = random.Random(8)
    for _ in range(200):
        cap = rng.randint(1, 24)
        k = rng.randint(1, 12)
        ras = ReturnAddressStack(cap)
        addrs = [rng.randrange(0, 1 << 32) for _ in range(cap + k)]
        for a in addrs:
            ras.on_call(a)
        outcomes = [ras.on_return(a) for a in reversed(addrs)]
        assert outcomes == [False] * cap + [True] * k


def test_bare_return_chain_mispredicts_every_time():
    ras = ReturnAddressStack(16)
    outcomes = [ras.on_return(0x5000 + 4 * i) for i in range(9)]
    assert outcomes == [True] * 9


def test_flush_drops_live_entries():
    ras = ReturnAddressStack(8)
    ras.on_call(0x44)
    ras.flush()
    assert ras.depth == 0
    assert ras.on_return(0x44) is True


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ReturnAddressStack(0)
