"""The benchmark's workloads: seeded inputs, the operation, and its oracle check.

Each workload follows the same life cycle, driven by ``run_bench.py``:

* ``setup()`` builds the inputs from the seed with the package's public
  generators and writes the files the operation reads (timed as ``setup_s``);
* ``expect()`` computes the expected result with the independent oracle in
  ``tests/oracle.py`` and counts the input's RAS outcomes, untimed;
* ``operate()`` runs the CLI handler in-process, its stdout sent to a file;
* ``check(code)`` compares the exit code and the output with the oracle and
  with the bytes of the first passing operation, returning a problem or None.

The handlers are called directly with an ``argparse.Namespace`` at the
documented defaults because ``cli.build_parser`` raises ``TypeError`` at the
commit that introduced this benchmark, so ``ropsim ...`` cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import random
from bisect import bisect_left
from collections import deque
from pathlib import Path

import oracle
from helpers import _depth_zero_positions
from ropsim import cli, harness
from ropsim import trace as trace_mod
from ropsim import workload as gen
from ropsim.trace import Call, Return, Switch, Trace

# Paper / CLI defaults: interval of 6 mispredicted returns, 6 instructions per
# gadget, a 16-entry RAS, the per-process table on and no flush at switches.
T_M = 6
T_I = 6
RAS_CAPACITY = 16


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def ras_outcomes(traces) -> tuple[int, int]:
    """(returns, mispredicted returns) of each trace replayed on a fresh RAS.

    A deque-based LIFO, like the oracle's, so the count does not depend on
    the package's own predictor model.
    """
    returns = mispredicts = 0
    for trace in traces:
        stack: deque = deque(maxlen=RAS_CAPACITY)
        for ev in trace.events:
            cls = ev.__class__
            if cls is Return:
                returns += 1
                if not stack or stack.pop() != ev.actual_target:
                    mispredicts += 1
            elif cls is Call:
                stack.append(ev.return_addr)
    return returns, mispredicts


class Workload:
    """Shared life cycle; subclasses build the inputs and check the outputs."""

    name = ""

    def __init__(self, workdir: Path, seed: int, smoke: bool = False):
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.inputs: list[Trace] = []   # what set-up generated, until expect()
        self.input_bytes = 0
        self.events = 0
        self.switches = 0
        self.ras_returns = 0
        self.ras_mispredicts = 0
        self.fp_rate = 0.0
        self.fn_rate = 0.0
        self.exit_codes: set[int] = set()
        self._output_digest: str | None = None

    def expect(self) -> None:
        self.ras_returns, self.ras_mispredicts = ras_outcomes(self.inputs)
        self._expect()
        self.inputs = []

    def operate(self) -> int:
        with open(self.workdir / "stdout.txt", "w", encoding="ascii",
                  newline="") as fh, contextlib.redirect_stdout(fh):
            return self.handler()(self.args())

    def check(self, code: int) -> str | None:
        problem = self._check(code)
        if problem is not None:
            return problem
        self.exit_codes.add(code)
        digest = _digest(*self.output_files())
        if self._output_digest is None:
            self._output_digest = digest
        elif digest != self._output_digest:
            return "output bytes differ from the first passing operation"
        return None

    # -- per-workload parts ---------------------------------------------------

    def setup(self) -> str:
        """Generate and write the inputs; returns a digest of the written bytes."""
        raise NotImplementedError

    def handler(self):
        """The CLI handler, looked up on `cli` at call time so that a wrapper
        installed by `spans.instrument` is the one called."""
        raise NotImplementedError

    def args(self) -> argparse.Namespace:
        raise NotImplementedError

    def output_files(self) -> list[Path]:
        raise NotImplementedError

    def _expect(self) -> None:
        raise NotImplementedError

    def _check(self, code: int) -> str | None:
        raise NotImplementedError


class _DetectWorkload(Workload):
    """`ropsim detect TRACE` on one trace file written by set-up."""

    def __init__(self, workdir: Path, seed: int, smoke: bool = False):
        super().__init__(workdir, seed, smoke)
        self.trace_path = workdir / "input.trace"
        self.expected_verdicts: list[tuple] = []

    def build_trace(self) -> Trace:
        raise NotImplementedError

    def setup(self) -> str:
        self.inputs = []  # release the previous set-up's trace first
        trace = self.build_trace()
        text = trace_mod.serialize_trace(trace)
        with open(self.trace_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        self.inputs = [trace]
        self.input_bytes = len(text)
        self.events = len(trace.events)
        self.switches = sum(1 for ev in trace.events if ev.__class__ is Switch)
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def handler(self):
        return cli.cmd_detect

    def args(self) -> argparse.Namespace:
        return argparse.Namespace(command="detect", trace=str(self.trace_path),
                                  tm=T_M, ti=T_I, ras_capacity=RAS_CAPACITY,
                                  no_table=False, flush_ras_on_switch=False)

    def output_files(self) -> list[Path]:
        return [self.workdir / "stdout.txt"]

    def _expect(self) -> None:
        self.expected_verdicts = [
            (pid, index, n_i, n_r, level.value, pc)
            for pid, index, n_i, n_r, level, pc in oracle.reference_verdicts(
                self.inputs[0], T_M, T_I, RAS_CAPACITY)]

    def _check(self, code: int) -> str | None:
        expected_code = cli.EXIT_DETECTED if self.expected_verdicts else cli.EXIT_CLEAN
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        verdicts = []
        with open(self.workdir / "stdout.txt", encoding="ascii") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["type"] == "verdict":
                    verdicts.append((rec["pid"], rec["interval_index"], rec["n_i"],
                                     rec["n_r"], rec["level"], int(rec["trigger_pc"], 16)))
        if verdicts != self.expected_verdicts:
            return f"verdicts {verdicts} disagree with the oracle's {self.expected_verdicts}"
        return None


class DetectBenign(_DetectWorkload):
    """One benign 1M-instruction process: the run is mostly trace parsing."""

    name = "detect-benign-1m"

    def build_trace(self) -> Trace:
        return gen.gen_benign(gen.BenignSpec(
            total_instructions=20_000 if self.smoke else 1_000_000,
            mispredict_burst_count=8, gap_profile="mixed", seed=self.seed))


class DetectSplit(_DetectWorkload):
    """Four dense benign processes and a 24-gadget chain split over 8 quanta."""

    name = "detect-split-1m"
    ROP_PID = 99
    GADGETS = 24
    ROP_QUANTA = 8

    def build_trace(self) -> Trace:
        rng = random.Random(self.seed)
        instructions, bursts = (5_000, 16) if self.smoke else (250_000, 800)
        parts, pieces = [], []
        for pid in range(1, 5):
            part = gen.gen_benign(gen.BenignSpec(
                total_instructions=instructions, mispredict_burst_count=bursts,
                gap_profile="dense", seed=rng.getrandbits(32)))
            parts.append((pid, part))
            pieces.append(_benign_pieces(rng, part))
        rop = gen.gen_rop(gen.RopSpec(chain_length=self.GADGETS,
                                      alignment_offset=rng.randint(0, T_M - 1),
                                      seed=rng.getrandbits(32)))
        parts.append((self.ROP_PID, rop))
        pieces.append(_chain_pieces(rng, rop, self.GADGETS, self.ROP_QUANTA))
        # Round-robin: each round gives every process with pieces left one quantum.
        schedule = []
        for rnd in range(max(len(p) for p in pieces)):
            for (pid, _), sizes in zip(parts, pieces):
                if rnd < len(sizes):
                    schedule.append((pid, sizes[rnd]))
        return gen.interleave(gen.InterleaveSpec(parts=parts, schedule=schedule))

    def _expect(self) -> None:
        super()._expect()
        flagged = {v[0] for v in self.expected_verdicts}
        if flagged != {self.ROP_PID}:
            raise RuntimeError(f"split workload input flags pids {sorted(flagged)}, "
                               f"expected only {self.ROP_PID}")


def _benign_pieces(rng: random.Random, part: Trace) -> list[int]:
    """Quantum sizes cut at call-depth-zero positions every 600-1400 events."""
    positions = _depth_zero_positions(part)
    total = len(part.events)
    sizes, last = [], 0
    while True:
        i = bisect_left(positions, last + rng.randint(600, 1400))
        if i == len(positions):
            sizes.append(total - last)
            return sizes
        sizes.append(positions[i] - last)
        last = positions[i]


def _chain_pieces(rng: random.Random, rop: Trace, gadgets: int, quanta: int) -> list[int]:
    """Quantum sizes whose cuts all fall inside the gadget chain's event span."""
    returns_seen = chain_len = 0
    for ev in reversed(rop.events):
        chain_len += 1
        if ev.__class__ is Return:
            returns_seen += 1
            if returns_seen == gadgets:
                break
    total = len(rop.events)
    cuts = sorted(rng.sample(range(total - chain_len + 1, total), quanta - 1))
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges, edges[1:])]


class SweepGrid(Workload):
    """`ropsim sweep` on the baseline grid: 540 short detector runs, no parsing."""

    name = "sweep-grid"

    def __init__(self, workdir: Path, seed: int, smoke: bool = False):
        super().__init__(workdir, seed, smoke)
        self.spec_path = workdir / "sweep.json"
        self.out_dir = workdir / "sweep-out"
        if smoke:
            self.spec = {"t_m_values": [6], "t_i_values": [6], "g_values": [12],
                         "alignment_offsets": [0, 1], "seeds": [seed],
                         "benign_count": 2, "rop_reps": 1}
        else:
            self.spec = {"t_m_values": [4, 6, 8], "t_i_values": [4, 6, 8],
                         "g_values": [6, 12, 24], "alignment_offsets": [0, 1, 2, 3],
                         "seeds": [2 * seed, 2 * seed + 1],
                         "benign_count": 6, "rop_reps": 2}
        # Written out in full so that the oracle regenerates exactly these traces.
        self.spec.update(benign_events=20_000, benign_bursts=4, max_benign_chain=10,
                         gadget_size_lo=2, gadget_size_hi=6, rop_prologue=200,
                         ras_capacity=RAS_CAPACITY)
        self.trace_ids: list[str] = []
        self.expected: dict[tuple[str, int, int], int] = {}

    def setup(self) -> str:
        """Write the spec and regenerate its traces, the oracle's inputs."""
        text = json.dumps(self.spec, sort_keys=True)
        self.spec_path.write_text(text, encoding="ascii")
        self.input_bytes = len(text)
        self.trace_ids, self.inputs = [], []
        s = self.spec
        for seed in s["seeds"]:
            for benign_id in range(s["benign_count"]):
                self.trace_ids.append(f"benign-s{seed}-n{benign_id}")
                self.inputs.append(gen.gen_benign(gen.BenignSpec(
                    total_instructions=s["benign_events"],
                    ras_capacity=s["ras_capacity"],
                    max_benign_mispredict_chain=s["max_benign_chain"],
                    mispredict_burst_count=s["benign_bursts"],
                    gap_profile=gen.GAP_PROFILES[benign_id % len(gen.GAP_PROFILES)],
                    seed=harness.derive_seed(seed, 1, benign_id))))
            for g in s["g_values"]:
                for offset in s["alignment_offsets"]:
                    for rep in range(s["rop_reps"]):
                        rop_seed = harness.derive_seed(seed, 2, g, offset, rep)
                        size_rng = random.Random(harness.derive_seed(rop_seed, 3))
                        sizes = [size_rng.randint(s["gadget_size_lo"], s["gadget_size_hi"])
                                 for _ in range(g)]
                        self.trace_ids.append(f"rop-g{g}-o{offset}-s{seed}-r{rep}")
                        self.inputs.append(gen.gen_rop(gen.RopSpec(
                            chain_length=g, gadget_sizes=sizes,
                            prologue=s["rop_prologue"], alignment_offset=offset,
                            seed=rop_seed)))
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def handler(self):
        return cli.cmd_sweep

    def args(self) -> argparse.Namespace:
        return argparse.Namespace(command="sweep", spec=str(self.spec_path),
                                  out=str(self.out_dir))

    def output_files(self) -> list[Path]:
        return [self.out_dir / "rows.csv", self.out_dir / "summary.csv"]

    def _expect(self) -> None:
        self.expected = {}
        for trace_id, trace in zip(self.trace_ids, self.inputs):
            for t_m in self.spec["t_m_values"]:
                for t_i in self.spec["t_i_values"]:
                    self.expected[(trace_id, t_m, t_i)] = int(bool(
                        oracle.reference_verdicts(trace, t_m, t_i, RAS_CAPACITY)))

    def _check(self, code: int) -> str | None:
        if code != cli.EXIT_CLEAN:
            return f"exit code {code}, expected {cli.EXIT_CLEAN}"
        rows_path, summary_path = self.output_files()
        with open(rows_path, encoding="ascii", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = {(r["trace_id"], int(r["t_m"]), int(r["t_i"])): int(r["detected"])
               for r in rows}
        if len(rows) != len(self.expected) or got.keys() != self.expected.keys():
            return f"rows.csv has {len(rows)} rows, expected {len(self.expected)}"
        wrong = [key for key, detected in got.items() if detected != self.expected[key]]
        if wrong:
            return f"{len(wrong)} rows disagree with the oracle, first {wrong[0]}"
        cells: dict[tuple, list[int]] = {}
        for r in rows:
            cell = (r["kind"], r["t_m"], r["t_i"], r["g"])
            cells.setdefault(cell, [0, 0])
            cells[cell][0] += 1
            cells[cell][1] += int(r["detected"])
        with open(summary_path, encoding="ascii", newline="") as fh:
            summary = {(r["kind"], r["t_m"], r["t_i"], r["g"]): [int(r["traces"]), int(r["flagged"])]
                       for r in csv.DictReader(fh)}
        if summary != cells:
            return "summary.csv does not match the rows"
        benign = [int(r["detected"]) for r in rows if r["kind"] == "benign"]
        rop = [int(r["detected"]) for r in rows if r["kind"] == "rop"]
        self.fp_rate = sum(benign) / len(benign)
        self.fn_rate = rop.count(0) / len(rop)
        return None


WORKLOADS = {w.name: w for w in (DetectBenign, DetectSplit, SweepGrid)}
