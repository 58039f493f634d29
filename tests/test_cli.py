import csv
import json
import os
import subprocess
import sys

import pytest

from ropsim import trace as trace_mod
from ropsim.cli import build_parser, main
from ropsim.trace import Plain, Trace, parse_trace, serialize_trace
from ropsim.workload import BenignSpec, RopSpec, gen_benign, gen_rop

from helpers import package_env


def write_trace(trace, path):
    path.write_text(serialize_trace(trace), encoding="ascii")


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestGenerate:
    def test_gen_normal_then_detect_is_clean(self, tmp_path, capsys):
        trace = tmp_path / "benign_0.trace"
        code, out, err = run_cli(["gen-normal", "--events", "5000",
                                  "--bursts", "2", "--seed", "3",
                                  "--out", str(trace)], capsys)
        assert code == 0, err
        code, out, err = run_cli(["detect", str(trace)], capsys)
        assert code == 0

    def test_gen_rop_then_detect_flags_it(self, tmp_path, capsys):
        trace = tmp_path / "rop_0.trace"
        code, _, err = run_cli(["gen-rop", "-G", "12", "--prologue", "100",
                                "--seed", "5", "--out", str(trace)], capsys)
        assert code == 0, err
        code, out, _ = run_cli(["detect", str(trace)], capsys)
        assert code == 2
        verdicts = [json.loads(l) for l in out.splitlines()
                    if json.loads(l)["type"] == "verdict"]
        assert verdicts and verdicts[0]["pid"] == 1
        assert verdicts[0]["interval_index"] >= 1

    def test_writes_serialize_trace_bytes_chunk_by_chunk(self, tmp_path, capsys,
                                                         monkeypatch):
        spec = BenignSpec(total_instructions=5000, mispredict_burst_count=2, seed=4)
        want = serialize_trace(gen_benign(spec))
        monkeypatch.setattr(trace_mod, "SERIALIZE_CHUNK", 1000)
        path = tmp_path / "benign.trace"
        argv = ["gen-normal", "--events", "5000", "--bursts", "2", "--seed", "4"]
        assert run_cli([*argv, "--out", str(path)], capsys) == (0, "", "")
        assert path.read_bytes() == want.encode("ascii")
        assert run_cli(argv, capsys) == (0, want, "")

    def test_gen_rop_explicit_sizes_to_stdout(self, capsys):
        code, out, _ = run_cli(["gen-rop", "-G", "3",
                                "--gadget-sizes", "2,3,4",
                                "--prologue", "0"], capsys)
        assert code == 0
        assert out.startswith("P 1\n")
        assert out.count("\nR ") == 3

    def test_gen_normal_infeasible_spec_errors(self, capsys):
        code, _, err = run_cli(["gen-normal", "--events", "100",
                                "--bursts", "5"], capsys)
        assert code == 1
        assert "too small" in err

    def test_gen_normal_zero_ras_capacity_errors(self, capsys):
        for capacity, bursts in ("0", "1"), ("99999999999999999999", "0"):
            code, _, err = run_cli(["gen-normal", "--ras-capacity", capacity,
                                    "--events", "1000", "--bursts", bursts], capsys)
            assert code == 1, capacity
            assert "ropsim: error:" in err
            assert "ras_capacity" in err

    def test_bad_gadget_sizes_value(self, capsys):
        # "" is a value, not an absent flag; sizes are decimal as pids are
        # written, and -G matches the count so that no length check fires.
        for sizes in ("2,x", "", "\uff11,2", "2, 3", "+2", "2_0", " 2", "02", "9" * 5000):
            argv = ["gen-rop", "-G", str(sizes.count(",") + 1), "--prologue", "0",
                    "--gadget-sizes", sizes]
            code, _, err = run_cli(argv, capsys)
            assert code == 1, sizes
            assert err == f"ropsim: error: bad --gadget-sizes value {sizes!r}\n"

    def test_negative_counts_rejected(self, capsys):
        for argv in (["gen-rop", "--offset", "-3"],
                     ["gen-rop", "--prologue", "-1"],
                     ["gen-normal", "--events", "1000", "--bursts", "-1"],
                     ["gen-normal", "--events", "20000", "--seed", "-5"],
                     ["gen-rop", "--seed", "-7"]):
            code, _, err = run_cli(argv, capsys)
            assert code == 1, argv
            assert err.startswith("ropsim: error:"), argv


class TestDetect:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(["detect", "/nonexistent/file.trace"], capsys)
        assert code == 1
        assert "error" in err

    def test_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("P 1\nQ what\n")
        code, _, err = run_cli(["detect", str(bad)], capsys)
        assert code == 1
        assert "line 2" in err

    def test_usage_error_exits_1(self, capsys):
        code, _, _ = run_cli(["detect", "x", "--bogus-flag"], capsys)
        assert code == 1
        code, _, _ = run_cli(["no-such-command"], capsys)
        assert code == 1
        # Errors raised by a subcommand's own parser must not take
        # argparse's exit 2, which detect reserves for a detection.
        for argv in (["detect"],
                     ["detect", "x", "--tm", "abc"],
                     ["gen-normal", "--gap-profile", "nope"]):
            code, _, err = run_cli(argv, capsys)
            assert code == 1, argv
            assert f"ropsim {argv[0]}: error:" in err, argv

    @pytest.mark.parametrize("flags, message", [
        (["--tm", "0"], "t_m must be >= 1"),
        (["--tm", "50", "--ti", "6"], "t_i * t_m must be below 255"),
        (["--ras-capacity", "0"], "ras_capacity must be >= 1"),
        (["--ras-capacity", "99999999999999999999"], "ras_capacity must be at most")])
    def test_bad_detector_config(self, flags, message, tmp_path, capsys):
        path = tmp_path / "t.trace"
        write_trace(Trace(1, [Plain(0)]), path)
        code, out, err = run_cli(["detect", str(path), *flags], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"ropsim: error: {message}") and err.count("\n") == 1

    def test_pid_too_long_for_int_is_an_input_error(self, tmp_path, capsys):
        # int() refuses more than 4300 digits by default.
        bad = tmp_path / "bad.trace"
        bad.write_text("P 1\nX " + "1" * 5000 + "\n")
        code, out, err = run_cli(["detect", str(bad)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("ropsim: error:")
        assert "line 2: process id of 5000 digits is too long" in err

    def test_non_ascii_byte_reports_its_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        bad = corpus / "benign_0.trace"
        bad.write_bytes(b"P 1\nI 00000004\nI 0000000\xc3\xa9\n")
        spec = tmp_path / "weave.json"
        spec.write_text(json.dumps({"parts": {"1": str(bad)},
                                    "schedule": [[1, 2]]}))
        for argv in (["detect", str(bad)], ["scatter", str(corpus)],
                     ["interleave", str(spec)]):
            code, _, err = run_cli(argv, capsys)
            assert code == 1, argv
            assert err.startswith("ropsim: error:"), argv
            assert "line 3" in err, argv

    def test_bad_record_in_the_last_read_writes_nothing(self, tmp_path, capsys,
                                                         monkeypatch):
        # The trace is scanned while the detector runs: a bad last record,
        # read after the chain's verdict, still exits 1 with no output.
        monkeypatch.setattr(trace_mod, "SCAN_CHUNK", 256)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        text = serialize_trace(gen_rop(RopSpec(seed=1)))
        assert len(text) > 8 * 256
        bad = corpus / "rop_0.trace"
        bad.write_text(text + "R 0000000g 00000000\n")
        line = f"line {text.count(chr(10)) + 1}"
        code, out, err = run_cli(["detect", str(bad)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("ropsim: error:") and line in err
        code, out, err = run_cli(["scatter", str(corpus)], capsys)
        assert (code, out) == (1, "")
        assert line in err

    def test_parser_defaults(self):
        # bench/workloads.py passes these defaults to cmd_detect in a
        # hand-built Namespace; keep the two in step.
        args = build_parser().parse_args(["detect", "t"])
        assert (args.tm, args.ti, args.ras_capacity) == (6, 6, 16)
        assert args.no_table is False
        assert args.flush_ras_on_switch is False

    def test_no_table_flag_changes_outcome(self, tmp_path, capsys):
        # A split chain in thirds: detected normally, missed with --no-table.
        from helpers import split_attack_trace
        for seed in range(40):
            trace, rop_pid = split_attack_trace(seed)
            path = tmp_path / "split.trace"
            write_trace(trace, path)
            code_on, _, _ = run_cli(["detect", str(path)], capsys)
            code_off, _, _ = run_cli(["detect", str(path), "--no-table"], capsys)
            if code_on == 2 and code_off == 0:
                return
        pytest.fail("no split trace separated the two modes")

    def test_tm_flag(self, tmp_path, capsys):
        trace = tmp_path / "rop.trace"
        write_trace(gen_rop(RopSpec(chain_length=12, prologue=100, seed=1)), trace)
        code, _, _ = run_cli(["detect", str(trace), "--tm", "10"], capsys)
        assert code == 0  # 12 < 2*10: may legitimately escape at offset 0
        code, _, _ = run_cli(["detect", str(trace), "--tm", "6"], capsys)
        assert code == 2


class TestInterleaveCommand:
    def test_interleave_spec_file(self, tmp_path, capsys):
        a = gen_benign(BenignSpec(total_instructions=300,
                                  mispredict_burst_count=0, seed=1))
        b = gen_benign(BenignSpec(total_instructions=200,
                                  mispredict_burst_count=0, seed=2))
        write_trace(a, tmp_path / "a.trace")
        write_trace(b, tmp_path / "b.trace")
        spec = {"parts": {"1": str(tmp_path / "a.trace"),
                          "2": str(tmp_path / "b.trace")},
                "schedule": [[1, 150], [2, 200], [1, 150]]}
        spec_path = tmp_path / "weave.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "woven.trace"
        code, _, err = run_cli(["interleave", str(spec_path),
                                "--out", str(out_path)], capsys)
        assert code == 0, err
        woven = parse_trace(out_path.read_bytes())
        assert woven.initial_process == 1
        assert sum(1 for line in out_path.read_text().splitlines()
                   if line.startswith("X ")) == 2

    def test_interleave_schedule_mismatch(self, tmp_path, capsys):
        a = gen_benign(BenignSpec(total_instructions=100,
                                  mispredict_burst_count=0, seed=1))
        write_trace(a, tmp_path / "a.trace")
        spec = {"parts": {"1": str(tmp_path / "a.trace")},
                "schedule": [[1, 99]]}
        spec_path = tmp_path / "weave.json"
        spec_path.write_text(json.dumps(spec))
        code, _, err = run_cli(["interleave", str(spec_path)], capsys)
        assert code == 1
        assert "consume" in err

    def test_negative_pid_rejected(self, tmp_path, capsys):
        # `P -1` would be written, and detect rejects it.
        write_trace(Trace(1, [Plain(4 * i) for i in range(10)]),
                    tmp_path / "a.trace")
        spec_path = tmp_path / "weave.json"
        spec_path.write_text(json.dumps({"parts": {"-1": str(tmp_path / "a.trace")},
                                         "schedule": [[-1, 10]]}))
        code, out, err = run_cli(["interleave", str(spec_path)], capsys)
        assert code == 1
        assert err.startswith("ropsim: error:")
        assert out == ""

    def test_missing_or_incomplete_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "weave.json"
        code, _, err = run_cli(["interleave", str(spec_path)], capsys)
        assert code == 1
        assert err.startswith("ropsim: error: cannot read spec: ")
        for spec in ({"parts": {}}, {"schedule": []}, []):
            spec_path.write_text(json.dumps(spec))
            code, out, err = run_cli(["interleave", str(spec_path)], capsys)
            assert (code, out) == (1, ""), spec
            assert err == "ropsim: error: spec must contain 'parts' and 'schedule'\n", spec

    def test_bad_part_names_its_file(self, tmp_path, capsys):
        write_trace(Trace(1, [Plain(4 * i) for i in range(9)]), tmp_path / "a.trace")
        (tmp_path / "b.trace").write_text("P 2\nI 0000000G\n", encoding="ascii")
        spec_path = tmp_path / "weave.json"
        spec_path.write_text(json.dumps({"parts": {"1": str(tmp_path / "a.trace"),
                                                   "2": str(tmp_path / "b.trace")},
                                         "schedule": [[1, 9], [2, 1]]}))
        code, out, err = run_cli(["interleave", str(spec_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(
            f"ropsim: error: bad spec: {tmp_path / 'b.trace'}: line 2: bad record 'I 0000000G': ")
        # A part that cannot be read: missing, a directory, a path no OS accepts.
        for path in (tmp_path / "missing.trace", tmp_path, "b\u0000.trace"):
            spec_path.write_text(json.dumps({"parts": {"1": str(tmp_path / "a.trace"),
                                                       "2": str(path)},
                                             "schedule": [[1, 9], [2, 1]]}))
            code, out, err = run_cli(["interleave", str(spec_path)], capsys)
            assert (code, out) == (1, ""), path
            assert err.startswith("ropsim: error: bad spec: ") and err.count("\n") == 1, path
            assert "Traceback" not in err, path
        assert err == "ropsim: error: bad spec: part 2 at 'b\\x00.trace': embedded null byte\n"

    def test_parts_must_map_pids_to_paths(self, tmp_path, capsys):
        # Keys are pids as the trace format writes them: each of the last
        # four reads as pid 10 under int(), whose 9 events the schedule runs.
        write_trace(Trace(1, [Plain(4 * i) for i in range(9)]),
                    tmp_path / "a.trace")
        path = str(tmp_path / "a.trace")
        spec_path = tmp_path / "weave.json"
        for spec in ({"parts": [1], "schedule": []},
                     {"parts": "a.trace", "schedule": []},
                     {"parts": {"1": 0}, "schedule": [[1, 1]]},
                     *({"parts": {key: path}, "schedule": [[10, 9]]}
                       for key in ("1_0", " 10 ", "+10", "\uff11\uff10"))):
            spec_path.write_text(json.dumps(spec))
            code, _, err = run_cli(["interleave", str(spec_path)], capsys)
            assert code == 1, spec
            assert "ropsim: error:" in err, spec
            assert "Traceback" not in err, spec

    def test_schedule_must_be_pid_count_pairs(self, tmp_path, capsys):
        # Each bad schedule reads as 9 events of pid 1 when its strings are
        # unpacked character by character or its items are coerced with
        # int(), and the part has exactly 9 events.
        write_trace(Trace(1, [Plain(4 * i) for i in range(9)]),
                    tmp_path / "a.trace")
        spec_path = tmp_path / "weave.json"
        for schedule in (["19"], {"19": 1}, [[1, 9.9]], [[1, 8], [1, True]],
                         [["1", "9"]], [[1.7, 9]], [[True, 9]]):
            spec = {"parts": {"1": str(tmp_path / "a.trace")},
                    "schedule": schedule}
            spec_path.write_text(json.dumps(spec))
            code, _, err = run_cli(["interleave", str(spec_path)], capsys)
            assert code == 1, schedule
            assert "ropsim: error:" in err, schedule


class TestScatter:
    def _corpus(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        for i in range(3):
            write_trace(gen_benign(BenignSpec(total_instructions=8000,
                                              mispredict_burst_count=3,
                                              gap_profile="mixed", seed=i)),
                        d / f"benign_{i}.trace")
        for i in range(2):
            write_trace(gen_rop(RopSpec(chain_length=12 + i, prologue=80,
                                        alignment_offset=i, seed=i)),
                        d / f"rop_{i}.trace")
        return d

    def test_scatter_rows(self, tmp_path, capsys):
        d = self._corpus(tmp_path)
        out = tmp_path / "scatter.csv"
        code, _, err = run_cli(["scatter", str(d), "--out", str(out)], capsys)
        assert code == 0, err
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 5
        for row in rows:
            if row["label"] == "rop":
                assert int(row["min_n_r"]) == 6
                assert int(row["paired_n_i"]) <= 36
            elif row["min_n_r"]:
                assert (int(row["min_n_r"]) > 6 or int(row["paired_n_i"]) > 36)

    def test_empty_corpus(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        code, _, err = run_cli(["scatter", str(d)], capsys)
        assert code == 1

    def test_corpus_must_be_a_directory(self, tmp_path, capsys):
        path = tmp_path / "benign_0.trace"
        write_trace(Trace(1, [Plain(0)]), path)
        code, out, err = run_cli(["scatter", str(path)], capsys)
        assert (code, out, err) == (1, "", f"ropsim: error: not a directory: {path}\n")

    def test_zero_ras_capacity_rejected(self, tmp_path, capsys):
        d = self._corpus(tmp_path)
        code, _, err = run_cli(["scatter", str(d), "--ras-capacity", "0"],
                               capsys)
        assert code == 1
        assert err.startswith("ropsim: error:")
        assert "ras_capacity" in err

    def test_unlabeled_file_rejected(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        write_trace(gen_benign(BenignSpec(total_instructions=100,
                                          mispredict_burst_count=0, seed=0)),
                    d / "mystery.trace")
        code, _, err = run_cli(["scatter", str(d)], capsys)
        assert code == 1
        assert "label" in err


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path, capsys):
        spec = {"t_m_values": [6], "t_i_values": [6], "g_values": [12],
                "alignment_offsets": [0, 3], "benign_count": 2,
                "benign_events": 4000, "benign_bursts": 1, "seeds": [1]}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["sweep", str(spec_path),
                                  "--out", str(out_dir)], capsys)
        assert code == 0, err
        rows = list(csv.DictReader((out_dir / "rows.csv").read_text().splitlines()))
        summary = list(csv.DictReader((out_dir / "summary.csv").read_text().splitlines()))
        assert len(rows) == 2 + 2  # 2 benign + 2 rop offsets
        rop_cell = next(c for c in summary if c["kind"] == "rop")
        assert rop_cell["fn_rate"] == "0.0"

    def test_invalid_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({"t_m_values": "all"}))
        code, _, err = run_cli(["sweep", str(spec_path),
                                "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        spec_path.write_text("{not json")
        code, _, err = run_cli(["sweep", str(spec_path),
                                "--out", str(tmp_path / "o")], capsys)
        assert code == 1

    def test_bool_and_saturating_specs_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        for spec in ({"benign_count": True}, {"t_m_values": [True]},
                     {"t_m_values": [300]}, {"t_m_values": [6, 43]}):
            spec_path.write_text(json.dumps(spec))
            code, _, err = run_cli(["sweep", str(spec_path),
                                    "--out", str(tmp_path / "o")], capsys)
            assert code == 1, spec
            assert err.startswith("ropsim: error: bad sweep spec"), spec

    def test_generation_error_writes_no_csv(self, tmp_path, capsys):
        # The spec checks pass; generating a benign trace of no events fails.
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({"benign_count": 1, "benign_events": 0}))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(["sweep", str(spec_path), "--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("ropsim: error: ") and err.count("\n") == 1
        assert not list(out_dir.iterdir())

    def test_bad_capacity_and_gadget_range_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        for spec in ({"ras_capacity": 0}, {"ras_capacity": 100000000000000000000},
                     {"gadget_size_lo": 5, "gadget_size_hi": 3},
                     {"rop_reps": -1}, {"gadget_size_lo": 0}):
            spec_path.write_text(json.dumps(spec))
            code, _, err = run_cli(["sweep", str(spec_path),
                                    "--out", str(tmp_path / "o")], capsys)
            assert code == 1, spec
            assert err.startswith("ropsim: error: bad sweep spec"), spec


@pytest.mark.parametrize("command", ["gen-normal", "gen-rop", "interleave",
                                     "scatter", "sweep", "sweep-csv"])
def test_unwritable_out_is_an_error(command, tmp_path, capsys):
    """`--out` in a missing directory, a sweep `--out` that is a file, or one
    whose rows.csv is a directory: exit 1 with one error line."""
    part = tmp_path / "benign_0.trace"
    write_trace(Trace(1, [Plain(4 * i) for i in range(9)]), part)
    weave, sweep = tmp_path / "weave.json", tmp_path / "sweep.json"
    weave.write_text(json.dumps({"parts": {"1": str(part)}, "schedule": [[1, 9]]}))
    sweep.write_text(json.dumps({"g_values": [6], "alignment_offsets": [0],
                                 "benign_count": 1, "benign_events": 3000,
                                 "benign_bursts": 1}))
    (tmp_path / "out" / "rows.csv").mkdir(parents=True)
    missing = str(tmp_path / "missing" / "out")
    argv, out = {
        "gen-normal": (["gen-normal", "--events", "500", "--bursts", "0"], missing),
        "gen-rop": (["gen-rop", "-G", "3", "--prologue", "0"], missing),
        "interleave": (["interleave", str(weave)], missing),
        "scatter": (["scatter", str(tmp_path)], missing),
        "sweep": (["sweep", str(sweep)], str(part)),
        "sweep-csv": (["sweep", str(sweep)], str(tmp_path / "out")),
    }[command]
    code, stdout, err = run_cli([*argv, "--out", out], capsys)
    assert code == 1
    assert err.startswith(f"ropsim: error: cannot write {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_is_an_error(tmp_path):
    """stdout on a full device, or a pipe whose reader has gone: exit 1 with
    one error line, and nothing more when Python flushes stdout at exit."""
    trace = tmp_path / "t.trace"
    write_trace(Trace(1, [Plain(0)]), trace)
    reader, closed_pipe = os.pipe()
    os.close(reader)
    full = os.open("/dev/full", os.O_WRONLY)
    cases = [("Errno 28", ["gen-rop", "-G", "1", "--prologue", "0"], full),
             ("Broken pipe", ["gen-normal", "--events", "200000"], closed_pipe),
             ("Errno 28", ["detect", str(trace)], full)]
    try:  # all at once, so that the test takes the time of the slowest one
        procs = [(name, subprocess.Popen([sys.executable, "-m", "ropsim.cli", *argv],
                                         stdout=stdout, stderr=subprocess.PIPE,
                                         text=True, env=package_env()))
                 for name, argv, stdout in cases]
    finally:
        os.close(full)
        os.close(closed_pipe)
    for name, proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1, (name, err)
        assert err.startswith("ropsim: error: cannot write stdout: "), (name, err)
        assert name in err and err.count("\n") == 1, (name, err)
