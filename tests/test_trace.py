import functools
import io
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ropsim import trace as trace_mod
from ropsim.detector import DetectorConfig, run
from ropsim.trace import (CALL, END, KERNEL_BASE, RETURN, SWITCH, Call,
                          ControlFlow, Plain, PrivilegeLevel, Return, Switch,
                          Trace, TraceParseError, classify_address,
                          control_flow, parse_trace, serialize_trace)
from ropsim.workload import (BenignSpec, RopSpec, benign_flow, gen_benign,
                             rop_flow)

from helpers import chaos_trace, load_bytes, reference_serialize

_ADDR = st.integers(0, 0xFFFFFFFF).map("{:08x}".format)
_PID = st.integers(0, 10**6).map(str)
# Fields near the canonical forms: canonical addresses and pids, and
# short strings of digits, signs, prefixes, separators and a non-ASCII digit.
_FIELD = st.one_of(
    _ADDR, _PID,
    st.text(alphabet="0123456789abcdefABCDEFx_+- \r\u0661", max_size=10))
_ARITY = {"P": 1, "I": 1, "C": 3, "R": 2, "X": 1}


@functools.cache     # built once, so validated once
def _record(tag: str):
    n = _ARITY[tag]
    return st.lists(_FIELD, min_size=n, max_size=n).map(
        lambda fields: " ".join([tag, *fields]))


_CANONICAL = st.one_of(
    _ADDR.map("I {}".format),
    st.tuples(_ADDR, _ADDR, _ADDR).map(lambda f: "C {} {} {}".format(*f)),
    st.tuples(_ADDR, _ADDR).map(lambda f: "R {} {}".format(*f)),
    _PID.map("X {}".format))
# Lines that are valid only in some places, or never.
_ODD = st.one_of(st.sampled_from(["", "#", "# note", "#\r", "P 2", "I 0000001f\r"]),
                 st.sampled_from("PICRX").flatmap(_record))


# A text's lines before, at and after its header, each strategy built once:
# hypothesis validates a new strategy object at its first draw.
_HEADER = _PID.map("P {}".format)
_LEADING = st.lists(st.sampled_from(["", "# before"] * 3 + ["I 00000000"]), max_size=2)
_HEADERS = st.one_of(_HEADER, _HEADER, _HEADER, _record("P"), st.just(None)).map(
    lambda p: [] if p is None else [p])
_BODY = st.lists(st.one_of(*[_CANONICAL] * 5, _ODD), max_size=6)


@st.composite
def _trace_texts(draw):
    """Texts near the trace grammar: mostly canonical, sometimes broken."""
    lines = draw(_LEADING) + draw(_HEADERS) + draw(_BODY)
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    text = (newline.join(lines) + draw(st.sampled_from([newline, ""]))).encode()
    if draw(st.sampled_from([False] * 9 + [True])):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\x80", b"\xc3\xa9", b"\xff"])) + text[at:]
    return text


def _scanned(data: bytes):
    try:
        return load_bytes(data)
    except TraceParseError as exc:
        return exc.line, str(exc)


def _parsed(data: bytes):
    try:
        return control_flow(parse_trace(data))
    except TraceParseError as exc:
        return exc.line, str(exc)


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
            addr = rng.randint(0, 0xFFFFFFFF)
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

    @pytest.mark.parametrize("text, line", [
        ("P 1\nI 0x00001f\n", 2), ("P 1\nI 1_f\n", 2), ("P 1\nI +ff\n", 2),
        ("P 1\nI \u0661\u0662\n", 2),  # non-ASCII digits
        ("P 1\nI 0000001F\n", 2), ("P 1\nR 00000004 1f\n", 2),
        ("P 1\nI 0000001f\r\n", 2), ("P 1\r\nI 0000001f\n", 1),  # CRLF
        ("P 007\n", 1), ("P 1\nX 01\n", 2), ("P 1\nX +2\n", 2),
    ])
    def test_rejects_non_canonical_records(self, text, line):
        with pytest.raises(TraceParseError) as exc:
            parse_trace(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text, line, message", [
        (b"P 1\nI 0000000G\n", 2, "bad record 'I 0000000G': expected 'I <addr>'"),
        (b"P 1\nC 00000000 00000004\n", 2,
         "bad record 'C 00000000 00000004': expected 'C <addr> <addr> <addr>'"),
        (b"P 1\nR 00000000 00000004 00000008\n", 2,
         "bad record 'R 00000000 00000004 00000008': expected 'R <addr> <addr>'"),
        (b"P 1\nX 01\n", 2, "bad record 'X 01': expected 'X <pid>'"),
        (b"P -1\n", 1, "bad record 'P -1': expected 'P <pid>'"),
        (b"P 1\nQ 1\n", 2, "unknown event tag 'Q'"),
        (b"P 1\nIX 00000000\n", 2, "unknown event tag 'IX'"),
        (b"P 1\nI 00000000\nP 2\n", 3, "duplicate header record"),
        (b"# c\nI 00000000\nP 1\n", 2, "missing 'P <pid>' header record"),
        (b"# only a comment\n", 1, "missing 'P <pid>' header record")],
        ids=["I", "C", "R", "X", "P", "unknown-tag", "long-tag", "duplicate-header",
             "event-before-header", "no-header"])
    def test_error_messages(self, text, line, message):
        if message.startswith("bad record"):
            message += " (addr: 8 lowercase hex digits; pid: decimal, no sign or leading zero)"
        assert _parsed(text) == (line, f"line {line}: {message}")
        assert _scanned(text) == (line, f"line {line}: {message}")

    def test_non_ascii_byte_reports_its_line(self):
        with pytest.raises(TraceParseError) as exc:
            parse_trace(b"P 1\n# ok\nI 0000000\xc3\xa9\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("text, line, byte", [
        ("P 1\n# caf\u00e9\nI 00000000\n", 2, 0xc3), ("P 1\nI 0000000\u00e9\n", 2, 0xc3),
        ("P 1\n\u20ac 00000000\n", 2, 0xe2), ("# ok\n\u00fc\nP 1\n", 2, 0xc3),
        ("P 1\nX 1\udc80\n", 2, 0xed)],
        ids=["comment", "record", "tag", "before-header", "lone-surrogate"])
    def test_a_str_reads_as_its_utf8_bytes(self, text, line, byte):
        # `parse_trace` of a `str`, of its bytes and `load_trace` of them agree.
        data = text.encode("utf-8", "surrogatepass")
        message = (line, f"line {line}: non-ASCII byte {byte:#04x}")
        assert _parsed(text) == _parsed(data) == _scanned(data) == message

    @pytest.mark.parametrize("text, line", [
        (b"P 1\nX " + b"1" * 5000 + b"\n", 2), (b"P " + b"9" * 5000 + b"\n", 1)],
        ids=["switch", "header"])
    def test_pid_too_long_for_int(self, text, line):
        # int() refuses more than 4300 digits by default.
        message = f"line {line}: process id of 5000 digits is too long"
        assert _parsed(text) == (line, message)
        assert _scanned(text) == (line, message)


class TestSerialize:
    def test_empty_trace(self):
        assert serialize_trace(Trace(1, [])) == "P 1\n"

    def test_switch(self):
        assert serialize_trace(Trace(1, [Switch(2)])) == "P 1\nX 2\n"

    def test_addresses_are_8_digit_lowercase_hex(self):
        out = serialize_trace(Trace(1, [Plain(0xC0000000), Return(0x4, 0xAB)]))
        assert out == "P 1\nI c0000000\nR 00000004 000000ab\n"

    def test_rejects_what_is_not_an_event(self):
        with pytest.raises(TypeError, match="not a trace event"):
            serialize_trace(Trace(1, [object()]))

    @pytest.mark.parametrize("event", [
        Plain(-4), Plain(1 << 32), Return(-4, 8), Call(0, 1 << 32, 4), Switch(-1),
        Switch(1.5), Switch("7")],
        ids=["I-negative", "I-too-large", "R-negative", "C-too-large", "X-negative",
             "X-float", "X-str"])
    def test_rejects_a_field_out_of_range(self, event):
        # The text would hold a line that parse_trace rejects.
        with pytest.raises(ValueError, match=re.escape(f"cannot serialize {event!r}")):
            serialize_trace(Trace(1, [Plain(0), Call(4, 8, 8), event, Return(12, 16)]))

    @pytest.mark.parametrize("pid", [-1, 1.5, "7"])
    def test_rejects_a_header_pid_the_parser_rejects(self, pid):
        # The message names the header as the `Trace` without events that it reads as.
        with pytest.raises(ValueError, match=re.escape(f"cannot serialize {Trace(pid)!r}")):
            serialize_trace(Trace(pid, [Plain(0)]))

    @pytest.mark.parametrize("trace, name", [
        (Trace(1, [Plain(0), Switch(10**5000)]), "Switch"), (Trace(10**5000), "Trace")],
        ids=["switch", "header"])
    def test_rejects_a_pid_too_long_to_print(self, trace, name):
        # `repr` cannot print the pid either, so the message names the class.
        with pytest.raises(ValueError, match=re.escape(f"cannot serialize {name}(<an int ")):
            serialize_trace(trace)

    def test_a_bool_is_an_int_in_every_field(self):
        # As in an address, so in a pid: True is written as 1.
        trace = Trace(True, [Plain(True), Switch(True), Return(False, True)])
        text = serialize_trace(trace)
        assert text == "P 1\nI 00000001\nX 1\nR 00000000 00000001\n"
        assert parse_trace(text) == trace

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_equals_the_per_event_reference(self, chunk, monkeypatch):
        # Plain runs of 0, 1 and many events between the other kinds, so that
        # chunks hold no plain event or only plain events, and runs are cut at
        # a chunk's edge.
        monkeypatch.setattr(trace_mod, "SERIALIZE_CHUNK", chunk)
        rng = random.Random(chunk)

        def addr():
            return rng.choice([0, 0xFFFFFFFF, rng.getrandbits(32)])

        others = [lambda: Call(addr(), addr(), addr()), lambda: Return(addr(), addr()),
                  lambda: Switch(rng.choice([0, 7, 10**30]))]
        for _ in range(100):
            events = []
            for _ in range(rng.randrange(12)):
                events += [Plain(addr()) for _ in range(rng.choice([0, 1, rng.randrange(2, 20)]))]
                events.append(rng.choice(others)())
            events += [Plain(addr()) for _ in range(rng.choice([0, 1, 9]))]
            trace = Trace(rng.randrange(3), events)
            assert serialize_trace(trace) == reference_serialize(trace)

    def test_holds_one_chunk_of_lines_at_a_time(self, monkeypatch):
        # The text and the pieces it is joined from, but not a string per line.
        monkeypatch.setattr(trace_mod, "SERIALIZE_CHUNK", 128)
        trace = Trace(1, [Plain(4 * i) for i in range(4000)])
        tracemalloc.start()
        try:
            text = serialize_trace(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text), (peak, len(text))


class TestControlFlow:
    def test_items_carry_the_plain_runs(self):
        trace = Trace(4, [Plain(0), Plain(4), Call(8, 0x100, 0xc), Plain(0x100),
                          Return(0x104, 0xc), Switch(5), Switch(4), Plain(0x10)])
        assert control_flow(trace) == ControlFlow(4, [
            (2, CALL, 0, 0xc), (1, RETURN, 0x104, 0xc), (0, SWITCH, 5, 0),
            (0, SWITCH, 4, 0), (1, END, 0, 0)])

    def test_scan_reads_the_same_items(self):
        text = b"# c\nP 4\nI 00000000\nI 00000004\nC 00000008 00000100 0000000c\n" \
            b"\n# mid\nI 00000100\nR 00000104 0000000c\nX 5\nX 4\nI 00000010"
        assert load_bytes(text) == control_flow(parse_trace(text))
        assert load_bytes(b"P 0") == ControlFlow(0, [(0, END, 0, 0)])

    def test_call_items_carry_no_pc(self):
        # The predictor reads only a call's return address.
        spec = BenignSpec(total_instructions=2000, mispredict_burst_count=1, seed=1)
        trace = gen_benign(spec)
        for flow in (control_flow(trace), load_bytes(serialize_trace(trace).encode()),
                     benign_flow(spec)[0], rop_flow(RopSpec())[0]):
            calls = [item for item in flow.items if item[1] == CALL]
            assert calls and {pc for _, _, pc, _ in calls} == {0}

    @settings(max_examples=300)
    @given(text=_trace_texts())
    @example(text=b"# first\nP 1\nI 00000000\n")       # comment before the header
    @example(text=b"P 1\n\nI 00000000\n\n")             # blank lines
    @example(text=b"P 1\nI 00000000")                    # no trailing newline
    @example(text=b"I 00000000\nP 1\n")                  # event before the header
    @example(text=b"P 1\nI 00000000\nP 2\n")             # duplicate header
    @example(text=b"# only\n#\n")                        # only comments
    @example(text=b"")                                    # empty file
    @example(text=b"P 1\r\nI 00000000\r\n")              # CRLF
    @example(text=b"P 1\n# caf\xc3\xa9\nI 00000000\n")   # non-ASCII byte
    @example(text=b"P 1\nI 00000000\nR 00000001 00000002\n# c\n\nX 2\n")  # no plains between
    @example(text=b"P 1\nI 0000000A\n")                  # an upper-case digit
    @example(text=b"P 1\nC 00000000 0000000g 00000000\n")  # a call target past f
    def test_scanner_and_parser_accept_the_same_language(self, text):
        # Same items on accepted text; the same line and message on rejected text.
        assert _scanned(text) == _parsed(text)

    def test_each_byte_of_a_record_replaced_by_a_bad_byte(self):
        # Each byte of a canonical I, C and R line, its newline too, replaced in turn by
        # bytes that no digit's or space's place may hold.  A comment with hex digits and
        # a switch come before the line and a blank line after it, so that a line made
        # one byte longer keeps its digit count.
        head, tail = b"P 1\n# c0ffee 12\nX 25\n", b"\nI 89abcdef\n"
        records = [b"I 0123abcd\n", b"C 00000010 deadbeef 00000014\n", b"R 00000020 00000014\n"]
        texts = [head + tail, head + b"Ia12345678\nI 1234567g\n" + tail]    # counts that cancel
        for record in records:
            texts += [head + record[:at] + bad + record[at + 1:] + tail
                      for at in range(len(record)) for bad in (b"g", b"A", b" ", b"\n", b"I")]
        scanned = list(map(_scanned, texts))
        assert scanned == list(map(_parsed, texts))
        # Only the texts that a replacement left as they were are read.
        accepted = {text for text, flow in zip(texts, scanned) if isinstance(flow, ControlFlow)}
        assert accepted == {head + tail, *(head + record + tail for record in records)}


@functools.cache
def _chunked_text(seed: int, chunk: int = trace_mod.SCAN_CHUNK) -> bytes:
    """A text of more than two scanner chunks, with comment and blank lines
    on both sides of each cut, one comment longer than a chunk, and a last
    line without a newline.  A chunk is cut after its last newline."""
    rng = random.Random(seed)
    addr = lambda: f"{rng.getrandbits(32):08x}"
    forms = [lambda: f"I {addr()}", lambda: f"C {addr()} {addr()} {addr()}",
             lambda: f"R {addr()} {addr()}", lambda: f"X {rng.randrange(5)}"]
    records = [f"{rng.choices(forms, weights=(12, 1, 1, 1))[0]()}\n".encode()
               for _ in range(4096)]
    out = bytearray(b"# chunked\nP 3\n")
    start = 0                                   # where the current chunk starts
    for comment in (b"# after", b"#" + b"~" * (chunk + 100), b"# after"):
        while len(out) < start + chunk - 64:    # in lines of at most 29 bytes
            out += b"".join(rng.choices(records, k=1 + (start + chunk - 64 - len(out)) // 29))
        out += b"# before\n\n"
        cut = len(out)
        # A comment that crosses the chunk's end, so that the blank line ends
        # the chunk; a comment longer than a chunk is a chunk by itself.
        out += comment + b"." * max(0, start + chunk - cut) + b"\n"
        start = len(out) if len(comment) > chunk else cut
        out += b"\n"
    return bytes(out + b"I 0000abcd")


class TestChunks:
    def test_scan_across_chunks_equals_parse(self):
        text = _chunked_text(5)
        assert len(text) > 3 * trace_mod.SCAN_CHUNK and not text.endswith(b"\n")
        start = 0   # each cut has a comment or blank line on both sides
        while start < len(text) - trace_mod.SCAN_CHUNK:
            end = start + trace_mod.SCAN_CHUNK
            start = text.rfind(b"\n", start, end) + 1 or text.index(b"\n", end) + 1
            before = text.rfind(b"\n", 0, start - 1) + 1
            assert text[before] in b"\n#" and text[start] in b"\n#", start
        flow = load_bytes(text)
        assert flow == control_flow(parse_trace(text))
        assert {kind for _, kind, _, _ in flow.items} == {CALL, RETURN, SWITCH, END}

    @pytest.mark.parametrize("record", [b"I 0000000G", b"P 12345678", b"X 01234567",
                                        b"Z 00000000", b"I_0000000a",
                                        b"C 00000000 00000004 0000008",
                                        b"R 00000000 00000004 00000008"])
    def test_bad_record_in_the_second_chunk(self, record, monkeypatch):
        monkeypatch.setattr(trace_mod, "SCAN_CHUNK", 1024)
        text = _chunked_text(5, 1024)
        at = text.index(b"\nI ", trace_mod.SCAN_CHUNK + 100) + 1
        bad = text[:at] + record + text[text.index(b"\n", at):]  # replaces one I line
        line = text.count(b"\n", 0, at) + 1
        scanned = _scanned(bad)
        assert scanned == _parsed(bad)
        assert scanned[0] == line

    def test_a_bad_trace_read_through_a_pipe(self, monkeypatch):
        # A pipe can be read only once: the error comes from the chunk that failed.
        monkeypatch.setattr(trace_mod, "SCAN_CHUNK", 1024)
        text = _chunked_text(5, 1024)
        at = text.index(b"\nI ", 2 * trace_mod.SCAN_CHUNK) + 1
        bad = text[:at] + b"I 0000000G" + text[at + 10:]
        reader, writer = os.pipe()
        os.set_blocking(writer, False)  # a text the pipe cannot hold fails the test, not hangs it
        try:
            with open(writer, "wb", buffering=0) as fh:
                assert fh.write(bad) == len(bad)
            with pytest.raises(TraceParseError) as exc:
                list(trace_mod.load_trace(f"/dev/fd/{reader}").items)
        finally:
            os.close(reader)
        assert (exc.value.line, str(exc.value)) == _parsed(bad)
        assert exc.value.line == bad.count(b"\n", 0, at) + 1

    def test_a_bad_record_comes_before_a_later_non_ascii_byte(self, monkeypatch):
        # The first line that fails is reported: a non-ASCII byte fails only its own line.
        monkeypatch.setattr(trace_mod, "SCAN_CHUNK", 1024)
        text = _chunked_text(5, 1024)
        at = text.index(b"\nI ", trace_mod.SCAN_CHUNK + 100) + 1
        bad = text[:at] + b"I 0000000G" + text[at + 10:] + b"\n# caf\xc3\xa9"
        line = bad.count(b"\n", 0, at) + 1
        scanned = _scanned(bad)
        assert scanned == _parsed(bad)
        assert scanned[1].startswith(f"line {line}: bad record 'I 0000000G': ")

    def test_reads_nothing_after_the_failing_chunk(self, tmp_path, monkeypatch):
        # The error is found among the failing chunk's lines, so the reads stop there.
        monkeypatch.setattr(trace_mod, "SCAN_CHUNK", 1024)
        text = _chunked_text(5, 1024)
        at = text.index(b"\nI ", trace_mod.SCAN_CHUNK + 100) + 1
        bad = text[:at] + b"I 0000000G" + text[at + 10:]
        path = tmp_path / "bad.trace"
        path.write_bytes(bad)
        offsets = []    # of the file after each read

        class File(io.FileIO):
            def read(self, size=-1):
                data = super().read(size)
                offsets.append(self.tell())
                return data

        monkeypatch.setattr(trace_mod, "open", lambda name, mode: File(name), raising=False)
        with pytest.raises(TraceParseError) as exc:
            list(trace_mod.load_trace(path).items)
        assert exc.value.line == bad.count(b"\n", 0, at) + 1
        assert max(offsets) < at + trace_mod.SCAN_CHUNK < len(bad)

    # Texts of many 64-byte reads: comment-only reads before the header,
    # lines across reads, a comment longer than a read, no final newline,
    # and reads of only plain or only comment lines between two items.
    @pytest.mark.parametrize("text", [
        b"# before the header\n" * 8 + _chunked_text(5, 1024), b"",
        b"# no header\n" * 8, b"#" * 200, b"P 1\n" + b"R 00000000 00000004\n" * 20,
        b"P 1\n" + b"#" * 200 + b"\nI 00000004",
        b"P 1\nX 2\nI 00000000\n" + b"I 00000004\n" * 20 + b"X 1\n",
        b"P 1\nX 2\nI 00000000\n" + b"# comment\n" * 20 + b"I 00000004\nX 1\n"],
        ids=["chunked", "empty", "comments", "long-comment", "ends-at-a-read", "long-line",
             "plain-reads", "comment-reads"])
    def test_load_streams_the_scanned_items(self, text, monkeypatch):
        monkeypatch.setattr(trace_mod, "SCAN_CHUNK", 64)
        assert _scanned(text) == _parsed(text)

    @pytest.mark.parametrize("record", [b"I 0000000G", b"P 12345678", b"X 01234567",
                                        b"Z 00000000"])
    def test_bad_record_in_a_late_read_fails_the_items(self, record, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_mod, "SCAN_CHUNK", 64)
        text = _chunked_text(5, 1024)
        at = text.rindex(b"\nI ", 0, len(text) - 500) + 1
        bad = text[:at] + record + text[at + len(record):]
        path = tmp_path / "bad.trace"
        path.write_bytes(bad)
        flow = trace_mod.load_trace(path)   # the header reads fine
        with pytest.raises(TraceParseError) as exc:
            list(flow.items)
        assert (exc.value.line, str(exc.value)) == _parsed(bad)
        assert exc.value.line == bad.count(b"\n", 0, at) + 1

    def test_a_loaded_flow_is_read_once(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"P 1\nR 00000000 00000004\n")
        flow = trace_mod.load_trace(path)
        assert run(flow).intervals
        with pytest.raises(ValueError, match="without an END item"):
            run(flow)

    def test_load_runs_in_bounded_memory(self, tmp_path, monkeypatch):
        # The peak must not grow with the trace: the same body once and ten
        # times, and ten times with a bad last line, read to report it.
        monkeypatch.setattr(trace_mod, "SCAN_CHUNK", 2048)
        body = serialize_trace(gen_benign(BenignSpec(
            total_instructions=600, mispredict_burst_count=0, seed=3))).encode()
        bad = b"I 0000000G\n"
        # Both paths run once before the peaks are traced, to import numpy
        # and make what the error path makes only the first time.
        load_bytes(body)
        with pytest.raises(TraceParseError):
            load_bytes(body + bad)
        peaks, errors = [], []
        for copies, last in (1, b""), (10, b""), (10, bad):
            path = tmp_path / f"x{copies}{len(last)}.trace"
            path.write_bytes(body + body[body.index(b"\n") + 1:] * (copies - 1) + last)
            tracemalloc.start()
            try:
                run(trace_mod.load_trace(path))
            except TraceParseError as exc:
                errors.append(exc.line)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        assert errors == [path.read_bytes().count(b"\n")]    # the bad last line's
        assert max(peaks) - peaks[0] < 16 << 10, peaks


class TestRoundTrip:
    def test_generated_10k_trace_byte_identical(self):
        trace = gen_benign(BenignSpec(total_instructions=10_000,
                                      mispredict_burst_count=3, seed=11))
        text = serialize_trace(trace)
        again = parse_trace(text)
        assert again == trace
        assert serialize_trace(again) == text
        assert load_bytes(text.encode("ascii")) == control_flow(trace)

    def test_chaos_traces_round_trip(self):
        rng = random.Random(99)
        for _ in range(50):
            trace = chaos_trace(rng)
            assert parse_trace(serialize_trace(trace)) == trace

    @settings(max_examples=300)
    @given(st.data())
    def test_accepted_text_re_serializes_to_itself(self, data):
        lines = [data.draw(_record(tag)) for tag in
                 ["P", *data.draw(st.lists(st.sampled_from("ICRX"), max_size=5))]]
        text = "".join(line + "\n" for line in lines)
        try:
            trace = parse_trace(text)
        except TraceParseError:
            return
        assert serialize_trace(trace) == text

    def test_event_equality_is_type_aware(self):
        assert Plain(5) != Switch(5)
        assert Plain(5) == Plain(5)


def test_instruction_count_excludes_switches():
    # Without the table each pid's counts are recorded at the switch and
    # at the end: together they count every event but the switch.
    t = Trace(1, [Plain(0), Switch(2), Call(0, 4, 4), Return(8, 4)])
    report = run(control_flow(t), DetectorConfig(table_enabled=False))
    assert sum(r.n_i for r in report.intervals) == 3
