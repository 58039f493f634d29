#!/usr/bin/env python3
"""Benchmark of ropsim's two user-facing operations, `detect` and `sweep`.

Run one workload, from the repository root:

    python3 bench/run_bench.py --workload detect-benign-1m --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (``setup_s``, ``wall_rel``,
``peak_rss_mb``); with ``--trace 1`` it reports the per-layer metrics from
spans recorded around calls into the package.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run_bench.py --self-test

runs every workload on tiny inputs in both modes, checks that each metric in
``BENCHMARK.json`` is printed with its unit, and checks that a detector whose
verdicts are dropped makes every operation fail.

Everything runs in this process, one operation at a time, except
``peak_rss_mb``: one operation in a fresh child process, on the inputs this
process wrote, so that set-up and earlier runs do not raise it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
try:
    import spans
    from workloads import WORKLOADS
except ImportError as exc:
    sys.exit(f"run_bench: cannot import ropsim and its test oracle under {ROOT}: {exc}")

SETUPS = 3        # set-ups per run; setup_s is their median
MIN_SAMPLES = 3   # timed operations per run, however long --seconds is
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_rel": "x", "peak_rss_mb": "MB"}
PER_LAYER = {
    "wall_s": "s", "reference_s": "s",
    "trace.parse_s": "s", "trace.parse_mev_s": "Mev/s",
    "trace.serialize_s": "s", "trace.input_bytes": "bytes",
    "trace.events": "count", "trace.switches": "count",
    "workload.gen_benign_s": "s", "workload.gen_rop_s": "s",
    "workload.interleave_s": "s", "workload.replay_s": "s",
    "detector.run_s": "s", "detector.run_mev_s": "Mev/s",
    "detector.calls": "count", "detector.events_in": "count",
    "hpc.overflow_intervals": "count", "detector.intervals": "count",
    "detector.verdicts": "count", "detector.to_jsonl_s": "s",
    "detector.jsonl_bytes": "bytes",
    "ras.returns": "count", "ras.mispredicts": "count", "ras.mispredict_ratio": "ratio",
    "harness.sweep_s": "s", "harness.summarize_s": "s", "harness.write_csv_s": "s",
    "harness.rows": "count",
    "cli.other_s": "s", "tracing_overhead_s": "s",
    "error_rate": "ratio", "fp_rate": "ratio", "fn_rate": "ratio",
}
# Workloads whose expected output holds a verdict, so that dropping the
# detector's verdicts must fail every operation (detect-benign-1m has none).
FAULT_WORKLOADS = ("detect-split-1m", "sweep-grid")


class _Event:
    __slots__ = ("pc", "target")

    def __init__(self, pc: int, target: int):
        self.pc = pc
        self.target = target


def reference_s() -> float:
    """Seconds for a fixed pure-Python job that does not touch ropsim.

    It formats 100,000 text lines, splits and parses them into slotted
    objects and tallies those in a dict, with a working set of about 20 MB:
    the kind of work the parser and the detector do.  The host's speed
    swings by about 1.5x over seconds to minutes; dividing each operation's
    wall time by this job's time, taken just before it, cancels most of that
    swing.  A smaller, cache-resident job tracked the 1M-event operations
    about half as well.
    """
    gc.collect()
    start = perf_counter()
    text = "\n".join(f"R {i * 4:08x} {i * 8:08x}" for i in range(100_000))
    events = []
    for line in text.split("\n"):
        fields = line.split(" ")
        events.append(_Event(int(fields[1], 16), int(fields[2], 16)))
    buckets: dict[int, int] = {}
    for ev in events:
        bucket = ev.pc & 1023
        buckets[bucket] = buckets.get(bucket, 0) + 1
    del events, text
    return perf_counter() - start


class Operations:
    """Runs the workload's operation and keeps the attempted/failed tally."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self) -> float:
        """One checked operation; returns its wall time in seconds."""
        gc.collect()
        problem = None
        start = perf_counter()
        try:
            code = self.wl.operate()
        except Exception:
            problem = traceback.format_exc(limit=4)
        wall = perf_counter() - start
        if problem is None:
            problem = self.check(code)
        self.record(problem)
        return wall

    def check(self, code: int) -> str | None:
        try:
            return self.wl.check(code)
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {exc!r}"

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def run_in_child(self, fault: bool) -> float:
        """One checked operation in a fresh process; returns its peak RSS in MB."""
        cmd = [sys.executable, str(Path(__file__).resolve()), "--rss-child",
               str(self.wl.workdir), "--workload", self.wl.name]
        if fault:
            cmd.append("--inject-fault")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            self.record(f"child process failed: {proc.stderr.strip()[-2000:]}")
            return 0.0
        child = json.loads(proc.stdout.splitlines()[-1])
        self.record(self.check(child["exit"]))
        return child["maxrss_kb"] * 1024 / 1e6


def _untraced(wl, seconds: float, fault: bool) -> tuple[dict, Operations, list[str]]:
    setup_s, digests = [], set()
    for _ in range(SETUPS):
        gc.collect()
        start = perf_counter()
        digests.add(wl.setup())
        setup_s.append(perf_counter() - start)
    wl.expect()
    ops = Operations(wl)
    walls, refs = [], []
    start = perf_counter()
    while len(walls) < MIN_SAMPLES or perf_counter() - start < seconds:
        refs.append(reference_s())
        walls.append(ops.run())
    rss = ops.run_in_child(fault)
    if len(digests) != 1:
        ops.record("set-up wrote different bytes from the same seed")
    metrics = {"setup_s": statistics.median(setup_s),
               "wall_rel": statistics.median(w / r for w, r in zip(walls, refs)),
               "peak_rss_mb": rss}
    notes = [f"setup_s samples {len(setup_s)}: {sorted(setup_s)}",
             f"wall_s samples {len(walls)}: {walls}",
             f"reference_s samples {len(refs)}: {refs}",
             f"wall_s {statistics.median(walls)} s (median of {len(walls)})"]
    return metrics, ops, notes


def _traced(wl, seconds: float) -> tuple[dict, Operations, list[str]]:
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        wl.setup()
    setup_self, _ = tracer.take()
    wl.expect()
    ops = Operations(wl)
    plain, refs, traced, layers = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        refs.append(reference_s())
        plain.append(ops.run())
        with spans.instrument(tracer):
            traced.append(ops.run())
        layers.append(tracer.take())

    def self_s(span: str) -> float:
        # One traced set-up plus the median traced operation.
        return setup_self.get(span, 0.0) + statistics.median(
            op_self.get(span, 0.0) for op_self, _ in layers)

    def count(key: str) -> float:
        return statistics.median_low(counts.get(key, 0) for _, counts in layers)

    parse_s, run_s = self_s("trace.parse"), self_s("detector.run")
    m = {
        "wall_s": statistics.median(plain),
        "reference_s": statistics.median(refs),
        "trace.parse_s": parse_s,
        "trace.parse_mev_s": wl.events / parse_s / 1e6 if parse_s else 0.0,
        "trace.serialize_s": self_s("trace.serialize"),
        "trace.input_bytes": wl.input_bytes,
        "trace.events": wl.events,
        "trace.switches": wl.switches,
        "workload.gen_benign_s": self_s("workload.gen_benign"),
        "workload.gen_rop_s": self_s("workload.gen_rop"),
        "workload.interleave_s": self_s("workload.interleave"),
        "workload.replay_s": self_s("workload.replay"),
        "detector.run_s": run_s,
        "detector.run_mev_s": count("detector.events_in") / run_s / 1e6 if run_s else 0.0,
        "detector.to_jsonl_s": self_s("detector.to_jsonl"),
        "ras.returns": wl.ras_returns,
        "ras.mispredicts": wl.ras_mispredicts,
        "ras.mispredict_ratio": wl.ras_mispredicts / wl.ras_returns if wl.ras_returns else 0.0,
        "harness.sweep_s": self_s("harness.sweep"),
        "harness.summarize_s": self_s("harness.summarize"),
        "harness.write_csv_s": self_s("harness.write_csv"),
        "cli.other_s": self_s("cli"),
        "tracing_overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    for key in ("detector.calls", "detector.events_in", "hpc.overflow_intervals",
                "detector.intervals", "detector.verdicts", "detector.jsonl_bytes",
                "harness.rows"):
        m[key] = count(key)
    notes = [f"traced operations {len(traced)}, untraced {len(plain)}"]
    return m, ops, notes


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False, fault: bool = False) -> dict:
    """One benchmark run: the result object, plus human-readable notes."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    wl = WORKLOADS[name](workdir, seed, smoke)
    try:
        with spans.drop_verdicts() if fault else contextlib.nullcontext():
            if traced:
                metrics, ops, notes = _traced(wl, seconds)
            else:
                metrics, ops, notes = _untraced(wl, seconds, fault)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
    error_rate = ops.failed / ops.attempted
    if traced:
        metrics.update(error_rate=error_rate, fp_rate=wl.fp_rate, fn_rate=wl.fn_rate)
    units = PER_LAYER if traced else END_TO_END
    notes += [f"error_rate {error_rate} ratio ({ops.failed} of {ops.attempted} operations failed)",
              f"fp_rate {wl.fp_rate} ratio", f"fn_rate {wl.fn_rate} ratio",
              f"exit codes {sorted(wl.exit_codes)}"]
    for problem in ops.problems[:5]:
        print(f"run_bench: {name}: {problem}", file=sys.stderr)
    return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items()},
            "notes": notes}


def self_test() -> int:
    """Smoke-run every workload in both modes, then with an injected fault."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for w in spec["workloads"]:
        for traced in (False, True):
            res = run_workload(w["name"], seed=1, seconds=0.5, traced=traced, smoke=True)
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            if printed != declared[traced]:
                failures.append(f"{w['name']} trace={int(traced)}: metrics {printed}")
            if not res["correct"]:
                failures.append(f"{w['name']} trace={int(traced)}: incorrect on smoke inputs")
            _print_result(w["name"], res)
        if w["name"] in FAULT_WORKLOADS:
            res = run_workload(w["name"], seed=1, seconds=0.5, traced=False,
                               smoke=True, fault=True)
            if res["correct"] or res["failed"] != res["attempted"]:
                failures.append(f"{w['name']}: dropped verdicts gave error_rate "
                                f"{res['failed']}/{res['attempted']}, expected 1.0")
            _print_result(f"{w['name']} (verdicts dropped)", res)
    for failure in failures:
        print(f"self-test FAILED: {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def _print_result(label: str, res: dict) -> None:
    print(f"== {label}")
    for key, metric in res["metrics"].items():
        print(f"{key} {metric['value']} {metric['unit']}")
    for note in res["notes"]:
        print(f"# {note}")


def _rss_child(workdir: str, name: str, fault: bool) -> int:
    wl = WORKLOADS[name](Path(workdir), seed=0)
    with spans.drop_verdicts() if fault else contextlib.nullcontext():
        code = wl.operate()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"exit": code, "maxrss_kb": peak}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to keep timing operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, to check the benchmark itself")
    parser.add_argument("--inject-fault", action="store_true",
                        help="drop the detector's verdicts; every operation must fail")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--rss-child", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.rss_child:
        return _rss_child(args.rss_child, args.workload, args.inject_fault)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       smoke=args.smoke, fault=args.inject_fault)
    _print_result(args.workload, res)
    del res["notes"]
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
