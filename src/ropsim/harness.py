"""Experiment harness: labeled corpora, scatter extraction, parameter sweeps.

A sweep enumerates the full cartesian product of detector parameters over
a seeded corpus and emits two CSV tables: one row per (parameters, trace)
with the detection outcome and the trace's scatter coordinates, and a
summary of false-positive / false-negative rates per parameter cell.
Results are bitwise-reproducible from the spec and sorted canonically,
independent of evaluation order.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from itertools import product
from typing import IO

from .detector import (DEFAULT_CAPACITY, ClosedBy, DetectionReport,
                       DetectorConfig, replay, run)
from .trace import PrivilegeLevel, Trace, control_flow
from .workload import BenignSpec, GAP_PROFILES, RopSpec, gen_benign, gen_rop

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


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int.
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

    _INT_LISTS = ("t_m_values", "t_i_values", "g_values",
                  "alignment_offsets", "seeds")
    _INTS = ("benign_count", "rop_reps", "benign_events", "benign_bursts",
             "max_benign_chain", "gadget_size_lo", "gadget_size_hi",
             "rop_prologue", "ras_capacity")

    @classmethod
    def from_mapping(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise SweepSpecError("sweep spec must be a JSON object")
        known = set(cls._INT_LISTS) | set(cls._INTS)
        unknown = set(data) - known
        if unknown:
            raise SweepSpecError(f"unknown sweep spec fields: {sorted(unknown)}")
        kwargs = {}
        for name in cls._INT_LISTS:
            if name in data:
                value = data[name]
                if (not isinstance(value, list) or not value
                        or not all(_is_int(v) for v in value)):
                    raise SweepSpecError(f"{name} must be a non-empty list of ints")
                kwargs[name] = value
        for name in cls._INTS:
            if name in data:
                if not _is_int(data[name]):
                    raise SweepSpecError(f"{name} must be an int")
                kwargs[name] = data[name]
        spec = cls(**kwargs)
        try:  # every grid cell must be a valid detector configuration
            for t_m, t_i in product(spec.t_m_values, spec.t_i_values):
                DetectorConfig(t_m=t_m, t_i=t_i, ras_capacity=spec.ras_capacity)
        except ValueError as exc:
            raise SweepSpecError(f"sweep grid: {exc}") from None
        if any(g < 1 for g in spec.g_values):
            raise SweepSpecError("g_values must be >= 1")
        if any(o < 0 for o in spec.alignment_offsets):
            raise SweepSpecError("alignment_offsets must be >= 0")
        if min(spec.benign_count, spec.rop_reps, spec.benign_bursts,
               spec.rop_prologue) < 0:
            raise SweepSpecError(
                "benign_count, rop_reps, benign_bursts and rop_prologue must be >= 0")
        if spec.gadget_size_lo < 1:
            raise SweepSpecError("gadget_size_lo must be >= 1")
        if spec.gadget_size_lo > spec.gadget_size_hi:
            raise SweepSpecError("gadget_size_lo must not exceed gadget_size_hi")
        return spec


ROW_FIELDS = ["kind", "t_m", "t_i", "trace_id", "g", "alignment_offset",
              "seed", "benign_id", "detected", "min_n_r", "paired_n_i",
              "overflow_intervals"]
SUMMARY_FIELDS = ["kind", "t_m", "t_i", "g", "traces", "flagged",
                  "fp_rate", "fn_rate"]


def _trace_rows(spec: SweepSpec, trace: Trace, base: dict) -> list[dict]:
    replayed = replay(control_flow(trace), spec.ras_capacity)  # switch-free: one for all cells
    rows = []
    for t_m in spec.t_m_values:
        for t_i in spec.t_i_values:
            cfg = DetectorConfig(t_m=t_m, t_i=t_i, ras_capacity=spec.ras_capacity)
            report = run(replayed, cfg)
            min_n_r, paired_n_i = scatter_point(report)
            overflow = sum(1 for r in report.intervals
                           if r.closed_by is ClosedBy.OVERFLOW)
            row = dict(base)
            row.update(t_m=t_m, t_i=t_i, detected=int(not report.clean),
                       min_n_r=min_n_r, paired_n_i=paired_n_i,
                       overflow_intervals=overflow)
            rows.append(row)
    return rows


def run_sweep(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Full cartesian sweep; returns (per-trace rows, per-cell summary)."""
    rows: list[dict] = []
    for seed in spec.seeds:
        for benign_id in range(spec.benign_count):
            bspec = BenignSpec(
                total_instructions=spec.benign_events,
                ras_capacity=spec.ras_capacity,
                max_benign_mispredict_chain=spec.max_benign_chain,
                mispredict_burst_count=spec.benign_bursts,
                gap_profile=GAP_PROFILES[benign_id % len(GAP_PROFILES)],
                seed=derive_seed(seed, 1, benign_id),
            )
            trace = gen_benign(bspec)
            base = {"kind": "benign", "trace_id": f"benign-s{seed}-n{benign_id}",
                    "g": None, "alignment_offset": None,
                    "seed": seed, "benign_id": benign_id}
            rows.extend(_trace_rows(spec, trace, base))
        for g in spec.g_values:
            for offset in spec.alignment_offsets:
                for rep in range(spec.rop_reps):
                    rop_seed = derive_seed(seed, 2, g, offset, rep)
                    size_rng = random.Random(derive_seed(rop_seed, 3))
                    sizes = [size_rng.randint(spec.gadget_size_lo,
                                              spec.gadget_size_hi)
                             for _ in range(g)]
                    rspec = RopSpec(chain_length=g, gadget_sizes=sizes,
                                    prologue=spec.rop_prologue,
                                    alignment_offset=offset,
                                    address_region=PrivilegeLevel.USER,
                                    seed=rop_seed)
                    trace = gen_rop(rspec)
                    base = {"kind": "rop",
                            "trace_id": f"rop-g{g}-o{offset}-s{seed}-r{rep}",
                            "g": g, "alignment_offset": offset,
                            "seed": seed, "benign_id": None}
                    rows.extend(_trace_rows(spec, trace, base))

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
        flagged = sum(outcomes)
        total = len(outcomes)
        entry = {"kind": kind, "t_m": t_m, "t_i": t_i, "g": g,
                 "traces": total, "flagged": flagged,
                 "fp_rate": None, "fn_rate": None}
        if kind == "benign":
            entry["fp_rate"] = flagged / total
        else:
            entry["fn_rate"] = (total - flagged) / total
        summary.append(entry)
    return summary


def write_csv(rows: list[dict], fields: list[str], out: IO[str]) -> None:
    writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row[k]) for k in fields})
