"""Output bytes of `ropsim detect` and `ropsim sweep`, pinned as SHA-256 digests.

Each case writes a seeded input, runs the command through `cli.main` and
compares the digest of what it wrote.  Any change to an interval record,
a verdict, a JSONL field or a CSV cell changes a digest, so a refactor
that must keep the output bytes is checked here byte for byte.  The
inputs cover a benign trace, a split gadget chain with and without the
table, a process parked across switches for more than 255 instructions
(the one-byte clamp at close time), and switches at non-zero call depth
with and without the predictor flush.
"""

import hashlib
import json

import pytest

from ropsim.cli import main
from ropsim.trace import Plain, Return, Switch, Trace, serialize_trace
from ropsim.workload import BenignSpec, InterleaveSpec, gen_benign, interleave

from helpers import split_attack_trace


def _benign() -> Trace:
    return gen_benign(BenignSpec(total_instructions=20_000,
                                 mispredict_burst_count=6,
                                 gap_profile="mixed", seed=3))


def _split() -> Trace:
    return split_attack_trace(3)[0]


def _bare_returns(base: int, n: int) -> list:
    return [Return(base + 4 * i, 0x9000 + 4 * i) for i in range(n)]


def _long_park() -> Trace:
    """pid 1 parks 303 instructions, so both of its intervals close clamped."""
    events = [Plain(4 * i) for i in range(300)] + _bare_returns(0x1000, 3)
    events += [Switch(2), *(Plain(0x4000 + 4 * i) for i in range(50)),
               *_bare_returns(0x2000, 2), Switch(1)]
    events += [Plain(0x5000 + 4 * i) for i in range(100)] + _bare_returns(0x3000, 3)
    events += [Plain(0x6000 + 4 * i) for i in range(280)] + _bare_returns(0x7000, 2)
    events += [Switch(2), Switch(1)] + [Plain(0x8000 + 4 * i) for i in range(20)]
    return Trace(1, events)


def _round_robin() -> Trace:
    """Two benign processes switched every 150 events, whatever the call depth."""
    parts = [(pid, gen_benign(BenignSpec(total_instructions=6000,
                                         mispredict_burst_count=2,
                                         gap_profile="dense", seed=pid)))
             for pid in (1, 2)]
    schedule = [(pid, 150) for _ in range(40) for pid in (1, 2)]
    return interleave(InterleaveSpec(parts=parts, schedule=schedule))


DETECT_CASES = {
    "benign": (_benign, [], 0,
               "45eb5a695731a2e98ed524c49849e474b36577862448906c9dc0bbb803759d40"),
    "split": (_split, [], 2,
              "47aceaf045038ac9540a908282862e67b88251712cd2b22090e56944ab846953"),
    "split-no-table": (_split, ["--no-table"], 0,
                       "9ada2663cd0765e0dbe36c9d8f792a188efb224e08aa3b55954132a99f010354"),
    "long-park": (_long_park, [], 0,
                  "90b7a0a1bcf3e8822ab28f21bf73185621ad332da73cb7b6d1a403eeee5dca99"),
    "round-robin": (_round_robin, [], 0,
                    "6e05832bfa2130b1d7179c943e56c71dd3b84b0f0da38bbccb62a76b5703fd16"),
    "round-robin-flush": (_round_robin, ["--flush-ras-on-switch"], 0,
                          "6ede5e635c9acc0ace0b58101e546b9c80a2cb7007cbe214c248993edb29c95a"),
}

SWEEP_SPEC = {"t_m_values": [4, 6], "t_i_values": [4, 6], "g_values": [6, 12],
              "alignment_offsets": [0, 1], "seeds": [1], "benign_count": 3,
              "benign_events": 6000, "benign_bursts": 2, "rop_reps": 1}
SWEEP_DIGESTS = {
    "rows.csv": "6fcb6b9f14d6556fbadc8ecdce0a22319d97469552134bb4a07029f0d4e97723",
    "summary.csv": "3c7be0e7782b13f083b7651c9cc69d64f2bee923c64216d511c2c884ea3b4ac9",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(DETECT_CASES))
def test_detect_output_bytes(case, tmp_path, capsys):
    build, flags, exit_code, digest = DETECT_CASES[case]
    path = tmp_path / "input.trace"
    path.write_text(serialize_trace(build()), encoding="ascii")
    code = main(["detect", str(path), *flags])
    out, _ = capsys.readouterr()
    assert code == exit_code
    assert _sha256(out.encode("ascii")) == digest


def test_sweep_csv_bytes(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(SWEEP_SPEC), encoding="ascii")
    assert main(["sweep", str(spec), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert {name: _sha256((tmp_path / "out" / name).read_bytes())
            for name in SWEEP_DIGESTS} == SWEEP_DIGESTS
