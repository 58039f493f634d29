"""Spans around calls into ropsim's layers, recorded from outside the package.

``instrument(tracer)`` replaces module attributes (and one method) with
wrappers that open a span around the original call, and puts the originals
back on exit.  Nothing inside ``src/`` is changed or told about it.  Spans
are kept in memory; a layer's self time is its spans' duration minus the
time covered by their child spans.  Counts are taken from arguments and
results after the span has closed, so counting is not billed to a layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import defaultdict
from time import perf_counter

from ropsim import cli, harness
from ropsim import trace as trace_mod
from ropsim import workload as gen
from ropsim.detector import ClosedBy, DetectionReport


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per span name and the counts so far; then start afresh."""
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            self_s[name] += end - start
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
        counts = dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return dict(self_s), counts


def _count_run(counts, args, report) -> None:
    counts["detector.calls"] += 1
    counts["detector.events_in"] += len(getattr(args[0], "events", ()))
    counts["detector.intervals"] += len(report.intervals)
    counts["hpc.overflow_intervals"] += sum(
        1 for r in report.intervals if r.closed_by is ClosedBy.OVERFLOW)
    counts["detector.verdicts"] += len(report.verdicts)


def _count_jsonl(counts, args, text) -> None:
    counts["detector.jsonl_bytes"] += len(text)


def _count_rows(counts, args, result) -> None:
    counts["harness.rows"] += len(result[0])


# (owner, attribute, span name, counter).  The same function is reached
# through more than one module (the CLI and the harness import names), so
# each binding the operation or set-up calls through is wrapped.
TARGETS = [
    (cli, "cmd_detect", "cli", None),
    (cli, "cmd_sweep", "cli", None),
    (cli, "load_trace", "trace.parse", None),
    (trace_mod, "serialize_trace", "trace.serialize", None),
    (gen, "gen_benign", "workload.gen_benign", None),
    (harness, "gen_benign", "workload.gen_benign", None),
    (gen, "gen_rop", "workload.gen_rop", None),
    (harness, "gen_rop", "workload.gen_rop", None),
    (gen, "interleave", "workload.interleave", None),
    (gen, "replay_mispredictions", "workload.replay", None),
    (cli, "run", "detector.run", _count_run),
    (harness, "run", "detector.run", _count_run),
    (DetectionReport, "to_jsonl", "detector.to_jsonl", _count_jsonl),
    (cli, "run_sweep", "harness.sweep", _count_rows),
    (harness, "summarize_rows", "harness.summarize", None),
    (cli, "write_csv", "harness.write_csv", None),
]


@contextlib.contextmanager
def _patched(patches):
    """Install {(owner, attr): wrap}, wrap(original) giving the replacement,
    and restore the originals on exit."""
    originals = {key: getattr(*key) for key in patches}
    try:
        for (owner, attr), wrap in patches.items():
            setattr(owner, attr, wrap(originals[(owner, attr)]))
        yield
    finally:
        for (owner, attr), original in originals.items():
            setattr(owner, attr, original)


def instrument(tracer: Tracer):
    """Context manager: every target reports spans and counts to `tracer`."""
    def wrapping(name, counter):
        def wrap(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if counter is not None:
                    counter(tracer.counts, args, result)
                return result
            return wrapper
        return wrap
    return _patched({(owner, attr): wrapping(name, counter)
                     for owner, attr, name, counter in TARGETS
                     if hasattr(owner, attr)})


def drop_verdicts():
    """Context manager: the detector's reports lose their verdicts (a fault)."""
    def wrap(original):
        def wrapper(*args, **kwargs):
            return dataclasses.replace(original(*args, **kwargs), verdicts=[])
        return wrapper
    return _patched({(cli, "run"): wrap, (harness, "run"): wrap})
