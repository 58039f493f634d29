"""Output bytes of the generators, `ropsim detect`, `ropsim scatter` and
`ropsim sweep`, pinned as SHA-256 digests.

Each generator case serializes a seeded trace from `gen_benign` (at every
gap profile, and at predictors of 4 and 1 entries with chain caps of 1 and
2), `gen_rop` (user and kernel region) or `interleave`, so a
change to any address, draw or event order shows here.  Each command case
writes a seeded input, runs the command through `cli.main` and compares
the digest of what it wrote.  Any change to an interval record,
a verdict, a JSONL field or a CSV cell changes a digest, so a refactor
that must keep the output bytes is checked here byte for byte.  The
inputs cover a benign trace, a split gadget chain with and without the
table, a process parked across switches for more than 255 instructions
(the one-byte clamp at close time), and switches at non-zero call depth
with and without the predictor flush.  The scatter corpus holds those
inputs too, labeled by file name, at the defaults and at a two-entry
predictor with the flush.
"""

import hashlib
import json
from functools import partial

import pytest

from ropsim import trace as trace_mod
from ropsim.cli import main
from ropsim.trace import (Plain, PrivilegeLevel, Return, Switch, Trace,
                         serialize_trace)
from ropsim.workload import (BenignSpec, InterleaveSpec, RopSpec, gen_benign,
                             gen_rop, interleave)

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


def _benign_at(profile: str) -> Trace:
    return gen_benign(BenignSpec(total_instructions=20_000,
                                 mispredict_burst_count=5,
                                 gap_profile=profile, seed=7))


def _benign_shallow(capacity: int, chain_cap: int, bursts: int, profile: str,
                    seed: int) -> Trace:
    """A predictor shallower than the nests that fill between bursts."""
    return gen_benign(BenignSpec(total_instructions=6000, ras_capacity=capacity,
                                 max_benign_mispredict_chain=chain_cap,
                                 mispredict_burst_count=bursts,
                                 gap_profile=profile, seed=seed))


def _rop_user() -> Trace:
    return gen_rop(RopSpec(chain_length=12, alignment_offset=3, prologue=300,
                           seed=5))


def _rop_kernel() -> Trace:
    return gen_rop(RopSpec(chain_length=4, gadget_sizes=[1, 3, 5, 40],
                           prologue=100, address_region=PrivilegeLevel.KERNEL,
                           seed=11))


def _interleaved() -> Trace:
    """A benign process and a gadget chain, switched at uneven quanta."""
    benign = gen_benign(BenignSpec(total_instructions=3000,
                                   mispredict_burst_count=1, seed=2))
    rop = gen_rop(RopSpec(chain_length=6, prologue=200, seed=2))
    rest = len(rop.events) - 70
    schedule = [(4, 1000), (9, 30), (4, 500), (9, 40), (4, 1500), (9, rest)]
    return interleave(InterleaveSpec(parts=[(4, benign), (9, rop)],
                                     schedule=schedule))


TRACE_CASES = {
    "benign-sparse": (partial(_benign_at, "sparse"),
                      "08523c147567661c43be2581f30210f336f9e1f37b8758ca1eebc4a5c2bad488"),
    "benign-dense": (partial(_benign_at, "dense"),
                     "52f869fc085beb9af888b5d983c656f549893b4c0b2f5432606811d68cb96151"),
    "benign-mixed": (partial(_benign_at, "mixed"),
                     "440f8c6c3273f15c6309673b5f1599f945242b39cd042b70b7af1ea5183db9e4"),
    "benign-ras4-chain1": (partial(_benign_shallow, 4, 1, 3, "sparse", 11),
                           "f4dcc32669987a8e8a45c99ffad3d01f0589615524aee309658553d0018c82c5"),
    "benign-ras1-chain2": (partial(_benign_shallow, 1, 2, 2, "dense", 2),
                           "93f4a0010873902a2248b7c5a5ee0720758a0b64394ad6f97c3a4b96d0437103"),
    "rop-user": (_rop_user,
                 "6d77223bc63ed06a106a7b1c7b8c869ce49f0165c771be5dd80da77ac6dbd6b1"),
    "rop-kernel": (_rop_kernel,
                   "4a59c5235d027f23f112b13220989dd841b13feff0b35c0fe8cdf00eb8335a2a"),
    "interleave": (_interleaved,
                   "68bcfec5851534cc33e777dbedcfc54a67150258926e6daf0277f796cc1e04a5"),
}

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


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_generated_trace_bytes(case, monkeypatch):
    build, digest = TRACE_CASES[case]
    trace = build()
    assert _sha256(serialize_trace(trace).encode("ascii")) == digest
    # Again across thousands of chunk boundaries.
    monkeypatch.setattr(trace_mod, "SERIALIZE_CHUNK", 7)
    assert _sha256(serialize_trace(trace).encode("ascii")) == digest


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


# The scatter corpus: a file name's prefix is its label.
SCATTER_CORPUS = {"benign_mixed": _benign, "benign_dense": partial(_benign_at, "dense"),
                  "benign_round_robin": _round_robin, "benign_long_park": _long_park,
                  "rop_user": _rop_user, "rop_kernel": _rop_kernel,
                  "rop_interleaved": _interleaved, "rop_split": _split}
SCATTER_CASES = {
    "defaults": ([], "0d701ca2e25c7f0e6a9a80f42d167e2a7313cbf8f2a4b507b0bc3fd92781fb5f"),
    "shallow-flush": (["--tm", "4", "--ti", "8", "--ras-capacity", "2",
                       "--flush-ras-on-switch"],
                      "f44dfe4c47809bc7bcc0b414ec6b479b81535348c0b6b16a30cc30d87634b729"),
}


@pytest.fixture(scope="module")
def scatter_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    for name, build in SCATTER_CORPUS.items():
        (corpus / f"{name}.trace").write_text(serialize_trace(build()), encoding="ascii")
    return corpus


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_scatter_csv_bytes(case, scatter_corpus, tmp_path, capsys):
    flags, digest = SCATTER_CASES[case]
    out = tmp_path / "scatter.csv"
    assert main(["scatter", str(scatter_corpus), *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == digest
