import random

import pytest

from ropsim.trace import (ADDRESS_MASK, KERNEL_BASE, Call, Plain,
                          PrivilegeLevel, Return, Switch, Trace,
                          TraceParseError, classify_address, parse_trace,
                          serialize_trace)
from ropsim.workload import BenignSpec, gen_benign

from helpers import chaos_trace


class TestClassifyAddress:
    def test_kernel_base_is_kernel(self):
        assert classify_address(0xC0000000) is PrivilegeLevel.KERNEL

    def test_lowest_address_is_user(self):
        assert classify_address(0x00000000) is PrivilegeLevel.USER

    def test_one_below_boundary_is_user(self):
        assert classify_address(0xBFFFFFFF) is PrivilegeLevel.USER

    def test_top_of_space_is_kernel(self):
        assert classify_address(0xFFFFFFFF) is PrivilegeLevel.KERNEL

    def test_partition_is_total_and_exact(self):
        rng = random.Random(0)
        for _ in range(2000):
            addr = rng.randint(0, ADDRESS_MASK)
            level = classify_address(addr)
            assert level is (PrivilegeLevel.KERNEL if addr >= KERNEL_BASE
                             else PrivilegeLevel.USER)


class TestParse:
    def test_single_plain_event(self):
        t = parse_trace("P 1\nI 00001000\n")
        assert t == Trace(1, [Plain(0x1000)])

    def test_return_with_kernel_target(self):
        t = parse_trace("P 1\nR 00001004 c0001000\n")
        assert t.events == [Return(0x1004, 0xC0001000)]
        assert classify_address(t.events[0].actual_target) is PrivilegeLevel.KERNEL

    def test_unknown_tag_reports_line(self):
        with pytest.raises(TraceParseError) as exc:
            parse_trace("P 1\nZ 0\n")
        assert exc.value.line == 2

    def test_call_fields(self):
        t = parse_trace("P 3\nC 00001000 00002000 00001004\n")
        assert t.initial_process == 3
        assert t.events == [Call(0x1000, 0x2000, 0x1004)]

    def test_comments_and_blank_lines_skipped(self):
        t = parse_trace("# corpus x\nP 1\n\n# mid\nI 00000004\n")
        assert t.events == [Plain(4)]

    def test_missing_header(self):
        with pytest.raises(TraceParseError):
            parse_trace("I 00001000\n")
        with pytest.raises(TraceParseError):
            parse_trace("")

    def test_duplicate_header(self):
        with pytest.raises(TraceParseError) as exc:
            parse_trace("P 1\nP 2\n")
        assert exc.value.line == 2

    def test_wrong_field_counts(self):
        for bad in ("P 1\nI\n", "P 1\nC 00000000 00000004\n", "P 1\nR 00000000\n",
                    "P 1\nX\n", "P 1 2\n"):
            with pytest.raises(TraceParseError):
                parse_trace(bad)

    def test_bad_hex_and_range(self):
        with pytest.raises(TraceParseError):
            parse_trace("P 1\nI zzzz\n")
        with pytest.raises(TraceParseError):
            parse_trace("P 1\nI 100000000\n")
        with pytest.raises(TraceParseError):
            parse_trace("P -1\n")

    def test_accepts_bytes(self):
        assert parse_trace(b"P 1\nX 2\n").events == [Switch(2)]


class TestSerialize:
    def test_empty_trace(self):
        assert serialize_trace(Trace(1, [])) == "P 1\n"

    def test_switch(self):
        assert serialize_trace(Trace(1, [Switch(2)])) == "P 1\nX 2\n"

    def test_addresses_are_8_digit_lowercase_hex(self):
        out = serialize_trace(Trace(1, [Plain(0xC0000000), Return(0x4, 0xAB)]))
        assert out == "P 1\nI c0000000\nR 00000004 000000ab\n"


class TestRoundTrip:
    def test_generated_10k_trace_byte_identical(self):
        trace = gen_benign(BenignSpec(total_instructions=10_000,
                                      mispredict_burst_count=3, seed=11))
        text = serialize_trace(trace)
        again = parse_trace(text)
        assert again == trace
        assert serialize_trace(again) == text

    def test_chaos_traces_round_trip(self):
        rng = random.Random(99)
        for _ in range(50):
            trace = chaos_trace(rng)
            assert parse_trace(serialize_trace(trace)) == trace

    def test_event_equality_is_type_aware(self):
        assert Plain(5) != Switch(5)
        assert Plain(5) == Plain(5)


def test_instruction_count_excludes_switches():
    t = Trace(1, [Plain(0), Switch(2), Call(0, 4, 4), Return(8, 4)])
    assert t.instruction_count() == 3
