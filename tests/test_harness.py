import io
import random
from itertools import product

import pytest

from ropsim import harness
from ropsim.detector import Replay, run
from ropsim.harness import (SUMMARY_FIELDS, SweepSpec, SweepSpecError,
                            derive_seed, run_sweep, scatter_point,
                            summarize_rows, write_csv)
from ropsim.trace import control_flow
from ropsim.workload import (GAP_PROFILES, BenignSpec, RopSpec, gen_benign,
                             gen_rop)

from oracle import reference_intervals, reference_verdicts


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(s, i) for s in range(10) for i in range(10)}
    assert len(seen) == 100


class TestScatterPoint:
    def test_no_overflow_interval_yields_absent_coordinates(self):
        trace = gen_benign(BenignSpec(total_instructions=2000,
                                      mispredict_burst_count=0, seed=1))
        assert scatter_point(run(control_flow(trace))) == (None, None)

    def test_detected_payload_sits_in_the_detection_region(self):
        trace = gen_rop(RopSpec(chain_length=12, prologue=100, seed=3))
        min_n_r, paired_n_i = scatter_point(run(control_flow(trace)))
        assert min_n_r == 6
        assert paired_n_i <= 36

    def test_benign_bursts_sit_outside_the_detection_region(self):
        trace = gen_benign(BenignSpec(total_instructions=20_000,
                                      mispredict_burst_count=5,
                                      gap_profile="mixed", seed=4))
        min_n_r, paired_n_i = scatter_point(run(control_flow(trace)))
        if min_n_r is not None:
            assert min_n_r > 6 or paired_n_i > 36


class TestSweepSpec:
    def test_defaults_round_trip(self):
        spec = SweepSpec.from_mapping({})
        assert spec.t_m_values == [6]

    def test_rejects_unknown_fields(self):
        with pytest.raises(SweepSpecError):
            SweepSpec.from_mapping({"tm_values": [6]})

    def test_rejects_bad_types_and_values(self):
        with pytest.raises(SweepSpecError):
            SweepSpec.from_mapping({"t_m_values": "6"})
        with pytest.raises(SweepSpecError):
            SweepSpec.from_mapping({"t_m_values": []})
        with pytest.raises(SweepSpecError):
            SweepSpec.from_mapping({"t_m_values": [0]})
        with pytest.raises(SweepSpecError):
            SweepSpec.from_mapping({"g_values": [1, -2]})
        with pytest.raises(SweepSpecError):
            SweepSpec.from_mapping({"benign_count": "ten"})
        with pytest.raises(SweepSpecError):
            SweepSpec.from_mapping([1, 2])
        with pytest.raises(SweepSpecError):
            SweepSpec.from_mapping({"ras_capacity": 0})
        with pytest.raises(SweepSpecError):
            SweepSpec.from_mapping({"gadget_size_lo": 5, "gadget_size_hi": 3})
        for doc in ({"rop_reps": -1}, {"benign_count": -1},
                    {"benign_bursts": -1, "benign_count": 1},
                    {"rop_prologue": -5}, {"gadget_size_lo": 0}):
            with pytest.raises(SweepSpecError):
                SweepSpec.from_mapping(doc)

    def test_rejects_bools_where_ints_are_expected(self):
        for doc in ({"benign_count": True}, {"rop_reps": False},
                    {"seeds": [0, True]}, {"t_i_values": [False]}):
            with pytest.raises(SweepSpecError):
                SweepSpec.from_mapping(doc)

    def test_rejects_grids_the_table_cannot_hold(self):
        for doc in ({"t_m_values": [300]}, {"t_m_values": [255], "t_i_values": [1]},
                    {"t_m_values": [4, 50], "t_i_values": [6, 5]}):
            with pytest.raises(SweepSpecError):
                SweepSpec.from_mapping(doc)
        spec = SweepSpec.from_mapping({"t_m_values": [50], "t_i_values": [5]})
        assert (spec.t_m_values, spec.t_i_values) == ([50], [5])


SMALL_SPEC = {
    "t_m_values": [6, 10],
    "t_i_values": [6],
    "g_values": [12, 20],
    "alignment_offsets": list(range(10)),
    "benign_count": 3,
    "benign_events": 6000,
    "benign_bursts": 2,
    "seeds": [0],
}


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(SweepSpec.from_mapping(SMALL_SPEC))


class TestRunSweep:
    def test_row_counts(self, sweep):
        rows, _ = sweep
        benign = [r for r in rows if r["kind"] == "benign"]
        rop = [r for r in rows if r["kind"] == "rop"]
        assert len(benign) == 3 * 2  # traces x (t_m, t_i) cells
        assert len(rop) == 2 * 10 * 2

    def test_summary_matches_row_recomputation(self, sweep):
        rows, summary = sweep
        assert summary == summarize_rows(rows)
        for cell in summary:
            matching = [r for r in rows
                        if r["kind"] == cell["kind"] and r["t_m"] == cell["t_m"]
                        and r["t_i"] == cell["t_i"]
                        and (cell["kind"] == "benign" or r["g"] == cell["g"])]
            assert len(matching) == cell["traces"]
            assert sum(r["detected"] for r in matching) == cell["flagged"]

    def test_detection_regimes(self, sweep):
        _, summary = sweep
        by_cell = {(c["kind"], c["t_m"], c["g"]): c for c in summary}
        assert by_cell[("benign", 6, None)]["fp_rate"] == 0.0
        assert by_cell[("benign", 10, None)]["fp_rate"] == 0.0
        assert by_cell[("rop", 6, 12)]["fn_rate"] == 0.0
        assert by_cell[("rop", 6, 20)]["fn_rate"] == 0.0
        assert by_cell[("rop", 10, 12)]["fn_rate"] > 0.0
        assert by_cell[("rop", 10, 20)]["fn_rate"] == 0.0

    def test_reproducible(self, sweep):
        rows, summary = sweep
        rows2, summary2 = run_sweep(SweepSpec.from_mapping(SMALL_SPEC))
        assert rows == rows2
        assert summary == summary2

    def test_each_trace_is_compiled_once(self, monkeypatch):
        # Every (t_m, t_i) cell of a trace runs on the same Replay.
        flows = []

        def spy(flow, cfg=None):
            flows.append(flow)
            return run(flow, cfg)

        monkeypatch.setattr(harness, "run", spy)
        spec = SweepSpec.from_mapping({"t_m_values": [4, 6], "t_i_values": [5, 6],
                                       "g_values": [8], "alignment_offsets": [0, 1],
                                       "benign_count": 2, "benign_events": 2000,
                                       "benign_bursts": 1, "seeds": [0]})
        rows, _ = run_sweep(spec)
        assert len(flows) == len(rows) == 4 * 4
        assert all(isinstance(flow, Replay) for flow in flows)
        assert len({id(flow) for flow in flows}) == 4  # traces

    def test_fn_rate_is_the_share_of_chains_short_of_two_intervals(self):
        # Every gadget fits every t_i >= 4, behind the default prologue: the
        # count condition of the harness docstring decides each row.
        spec = SweepSpec.from_mapping({"t_m_values": [2, 3, 4, 6], "t_i_values": [4, 6],
                                       "g_values": [3, 5, 8, 11], "alignment_offsets": [0, 1, 3],
                                       "gadget_size_lo": 2, "gadget_size_hi": 4,
                                       "seeds": [0, 1]})
        rows, summary = run_sweep(spec)
        cells = [c for c in summary if c["kind"] == "rop"]
        assert len(cells) == 4 * 2 * 4
        for cell in cells:
            mine = [r for r in rows if (r["t_m"], r["t_i"], r["g"])
                    == (cell["t_m"], cell["t_i"], cell["g"])]
            missed = sum(r["alignment_offset"] + r["g"] < 2 * r["t_m"] for r in mine)
            assert cell["fn_rate"] == missed / len(mine), cell
        assert any(0 < c["fn_rate"] < 1 for c in cells)


def _sweep_traces(spec: SweepSpec):
    """`(trace_id, trace)` of each trace `run_sweep` evaluates, rebuilt here."""
    for seed in spec.seeds:
        for benign_id in range(spec.benign_count):
            yield f"benign-s{seed}-n{benign_id}", gen_benign(BenignSpec(
                total_instructions=spec.benign_events,
                ras_capacity=spec.ras_capacity,
                max_benign_mispredict_chain=spec.max_benign_chain,
                mispredict_burst_count=spec.benign_bursts,
                gap_profile=GAP_PROFILES[benign_id % len(GAP_PROFILES)],
                seed=derive_seed(seed, 1, benign_id)))
        for g, offset, rep in product(spec.g_values, spec.alignment_offsets,
                                      range(spec.rop_reps)):
            rop_seed = derive_seed(seed, 2, g, offset, rep)
            size_rng = random.Random(derive_seed(rop_seed, 3))
            sizes = [size_rng.randint(spec.gadget_size_lo, spec.gadget_size_hi)
                     for _ in range(g)]
            yield f"rop-g{g}-o{offset}-s{seed}-r{rep}", gen_rop(RopSpec(
                chain_length=g, gadget_sizes=sizes, prologue=spec.rop_prologue,
                alignment_offset=offset, seed=rop_seed))


@pytest.mark.parametrize("capacity", [8, 24])
def test_sweep_at_another_ras_capacity_agrees_with_the_oracle(capacity):
    spec = SweepSpec.from_mapping({"t_m_values": [4, 6], "t_i_values": [4, 6],
                                   "g_values": [6, 12], "alignment_offsets": [0, 3],
                                   "benign_count": 3, "benign_events": 8000,
                                   "benign_bursts": 3, "seeds": [0],
                                   "ras_capacity": capacity})
    rows, _ = run_sweep(spec)
    got = {(r["trace_id"], r["t_m"], r["t_i"]): (r["detected"], r["overflow_intervals"])
           for r in rows}
    want = {}
    for trace_id, trace in _sweep_traces(spec):
        for t_m, t_i in product(spec.t_m_values, spec.t_i_values):
            overflow = sum(1 for rec in reference_intervals(trace, t_m, t_i, capacity)
                           if rec[5] == "overflow")
            detected = int(bool(reference_verdicts(trace, t_m, t_i, capacity)))
            want[(trace_id, t_m, t_i)] = (detected, overflow)
    assert len(want) == 7 * 4
    assert got == want


def test_write_csv_format():
    buf = io.StringIO()
    write_csv([{"kind": "rop", "t_m": 6, "t_i": 6, "g": 12,
                "traces": 5, "flagged": 5, "fp_rate": None, "fn_rate": 0.0}],
              SUMMARY_FIELDS, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "kind,t_m,t_i,g,traces,flagged,fp_rate,fn_rate"
    assert "\r" not in text
    assert text.splitlines()[1] == "rop,6,6,12,5,5,,0.0"
