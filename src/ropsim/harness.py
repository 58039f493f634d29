"""Experiment harness: labeled corpora, scatter extraction, parameter sweeps.

A sweep enumerates the full cartesian product of detector parameters over
a seeded corpus and emits two CSV tables: one row per (parameters, trace)
with the detection outcome and the trace's scatter coordinates, and a
summary of false-positive / false-negative rates per parameter cell.
Results are bitwise-reproducible from the spec and sorted canonically,
independent of evaluation order.

The false negatives of a generated chain follow from counts alone when
every gadget is at most `t_i` instructions, `t_i >= 4` and the prologue
holds a call: the chain is flagged exactly when
``alignment_offset + g >= 2 * t_m``.  The prologue's predicted returns
push the first interval's `n_r` above `t_m`, and every later interval
holds only gadgets and alignment returns of 2-4 instructions each.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field, fields as dataclass_fields
from itertools import product
from typing import IO

from .detector import (DEFAULT_CAPACITY, ClosedBy, DetectionReport,
                       DetectorConfig, Replay, replay, run)
from .trace import ControlFlow
# `gen_benign` and `gen_rop` are not called here, but `bench/spans.py` wraps them.
from .workload import (BenignSpec, GAP_PROFILES, RopSpec, benign_flow,  # noqa: F401
                       gen_benign, gen_rop, rop_flow)

_M64 = (1 << 64) - 1


def derive_seed(*parts: int) -> int:
    """Stable 64-bit mix of integer components (splitmix-style)."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = ((x ^ (p + 0x9E3779B97F4A7C15)) * 0xBF58476D1CE4E5B9) & _M64
        x ^= x >> 27
    return x


def scatter_point(report: DetectionReport) -> tuple[int | None, int | None]:
    """Smallest per-interval return count of the run, with its instruction count.

    Only intervals closed by a counter overflow qualify; a run that never
    completed an interval yields absent coordinates `(None, None)`.
    """
    points = [(r.n_r, r.n_i) for r in report.intervals
              if r.closed_by is ClosedBy.OVERFLOW]
    return min(points) if points else (None, None)


class SweepSpecError(ValueError):
    """A sweep spec document that cannot be used."""


def is_json_int(value) -> bool:
    """An int loaded from JSON; true and false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class SweepSpec:
    t_m_values: list[int] = field(default_factory=lambda: [6])
    t_i_values: list[int] = field(default_factory=lambda: [6])
    g_values: list[int] = field(default_factory=lambda: [12])
    alignment_offsets: list[int] = field(default_factory=lambda: [0])
    seeds: list[int] = field(default_factory=lambda: [0])
    benign_count: int = 0
    rop_reps: int = 1
    benign_events: int = 20_000
    benign_bursts: int = 4
    max_benign_chain: int = 10
    gadget_size_lo: int = 2
    gadget_size_hi: int = 6
    rop_prologue: int = 200
    ras_capacity: int = DEFAULT_CAPACITY

    # The least value of each field, one line per error message.
    _FLOORS = ((1, "g_values"), (0, "alignment_offsets"),
               (0, "benign_count", "rop_reps", "benign_bursts", "rop_prologue"),
               (1, "gadget_size_lo"))

    @classmethod
    def from_mapping(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise SweepSpecError("sweep spec must be a JSON object")
        unknown = set(data) - {f.name for f in dataclass_fields(cls)}
        if unknown:
            raise SweepSpecError(f"unknown sweep spec fields: {sorted(unknown)}")
        for f in [f for f in dataclass_fields(cls) if f.name in data]:  # int lists, then ints
            value = data[f.name]
            if f.type == "int":  # annotations are their source text here
                if not is_json_int(value):
                    raise SweepSpecError(f"{f.name} must be an int")
            elif not isinstance(value, list) or not value or not all(map(is_json_int, value)):
                raise SweepSpecError(f"{f.name} must be a non-empty list of ints")
        spec = cls(**data)
        try:  # every grid cell must be a valid detector configuration
            spec.configs()
        except ValueError as exc:
            raise SweepSpecError(f"sweep grid: {exc}") from None
        for floor, *names in cls._FLOORS:
            values = [getattr(spec, name) for name in names]
            if min(min(v) if isinstance(v, list) else v for v in values) < floor:
                listed = f"{', '.join(names[:-1])} and {names[-1]}" if len(names) > 1 else names[0]
                raise SweepSpecError(f"{listed} must be >= {floor}")
        if spec.gadget_size_lo > spec.gadget_size_hi:
            raise SweepSpecError("gadget_size_lo must not exceed gadget_size_hi")
        return spec

    def configs(self) -> list[tuple[int, int, DetectorConfig]]:
        """`(t_m, t_i, config)` for each cell of the grid, in row order."""
        return [(t_m, t_i, DetectorConfig(t_m=t_m, t_i=t_i, ras_capacity=self.ras_capacity))
                for t_m, t_i in product(self.t_m_values, self.t_i_values)]


ROW_FIELDS = ["kind", "t_m", "t_i", "trace_id", "g", "alignment_offset",
              "seed", "benign_id", "detected", "min_n_r", "paired_n_i",
              "overflow_intervals"]
SUMMARY_FIELDS = ["kind", "t_m", "t_i", "g", "traces", "flagged",
                  "fp_rate", "fn_rate"]


def _trace_rows(spec: SweepSpec, cells: list, flow: ControlFlow,
                replayed: Replay, base: dict) -> list[dict]:
    # The generator's own replay serves every cell (a generated flow has no
    # switches) unless it ran at another depth: `gen_rop` checks at the default.
    if replayed.ras_capacity != spec.ras_capacity:
        replayed = replay(flow, spec.ras_capacity)
    rows = []
    for t_m, t_i, cfg in cells:
        report = run(replayed, cfg)
        min_n_r, paired_n_i = scatter_point(report)
        overflow = sum(1 for r in report.intervals if r.closed_by is ClosedBy.OVERFLOW)
        rows.append({**base, "t_m": t_m, "t_i": t_i, "detected": int(bool(report.verdicts)),
                     "min_n_r": min_n_r, "paired_n_i": paired_n_i,
                     "overflow_intervals": overflow})
    return rows


def run_sweep(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Full cartesian sweep; returns (per-trace rows, per-cell summary)."""
    rows: list[dict] = []
    cells = spec.configs()
    for seed in spec.seeds:
        for benign_id in range(spec.benign_count):
            flow, replayed = benign_flow(BenignSpec(
                total_instructions=spec.benign_events, ras_capacity=spec.ras_capacity,
                max_benign_mispredict_chain=spec.max_benign_chain,
                mispredict_burst_count=spec.benign_bursts,
                gap_profile=GAP_PROFILES[benign_id % len(GAP_PROFILES)],
                seed=derive_seed(seed, 1, benign_id)))
            base = {"kind": "benign", "trace_id": f"benign-s{seed}-n{benign_id}", "g": None,
                    "alignment_offset": None, "seed": seed, "benign_id": benign_id}
            rows.extend(_trace_rows(spec, cells, flow, replayed, base))
        for g in spec.g_values:
            for offset in spec.alignment_offsets:
                for rep in range(spec.rop_reps):
                    rop_seed = derive_seed(seed, 2, g, offset, rep)
                    size_rng = random.Random(derive_seed(rop_seed, 3))
                    sizes = [size_rng.randint(spec.gadget_size_lo, spec.gadget_size_hi)
                             for _ in range(g)]
                    flow, replayed = rop_flow(RopSpec(
                        chain_length=g, gadget_sizes=sizes, prologue=spec.rop_prologue,
                        alignment_offset=offset, seed=rop_seed))  # user-level gadgets
                    base = {"kind": "rop", "trace_id": f"rop-g{g}-o{offset}-s{seed}-r{rep}",
                            "g": g, "alignment_offset": offset, "seed": seed, "benign_id": None}
                    rows.extend(_trace_rows(spec, cells, flow, replayed, base))

    rows.sort(key=lambda r: (r["kind"], r["t_m"], r["t_i"], r["g"] or 0,
                             r["alignment_offset"] or 0, r["seed"],
                             r["benign_id"] or 0, r["trace_id"]))
    return rows, summarize_rows(rows)


def summarize_rows(rows: list[dict]) -> list[dict]:
    """FP/FN rates per cell, recomputable from the per-trace rows."""
    cells: dict[tuple, list[int]] = {}
    for row in rows:
        g = row["g"] if row["kind"] == "rop" else None
        key = (row["kind"], row["t_m"], row["t_i"], g)
        cells.setdefault(key, []).append(row["detected"])
    summary = []
    for (kind, t_m, t_i, g) in sorted(cells, key=lambda k: (k[0], k[1], k[2], k[3] or 0)):
        outcomes = cells[(kind, t_m, t_i, g)]
        flagged, total = sum(outcomes), len(outcomes)
        benign = kind == "benign"
        summary.append({"kind": kind, "t_m": t_m, "t_i": t_i, "g": g,
                        "traces": total, "flagged": flagged,
                        "fp_rate": flagged / total if benign else None,
                        "fn_rate": None if benign else (total - flagged) / total})
    return summary


def write_csv(rows: list[dict], fields: list[str], out: IO[str]) -> None:
    """A header line, then each row's `fields` in order; a None or absent
    value is an empty field (`csv.writer` writes None as "")."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([row.get(k) for k in fields] for row in rows)
