"""Shared corpus builders for the test suite."""

import functools
import os
import random
import tempfile
from itertools import groupby
from pathlib import Path

import ropsim
from ropsim.trace import (Call, ControlFlow, Plain, Return, Switch, Trace,
                          load_trace)
from ropsim.workload import (BenignSpec, InterleaveSpec, RopSpec, gen_benign,
                             gen_rop, interleave)


def package_env() -> dict[str, str]:
    """The environment for a fresh Python process that imports this `ropsim`."""
    src = str(Path(ropsim.__file__).resolve().parent.parent)
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


@functools.cache
def _trace_file():
    """The temporary file that `trace_path` rewrites; deleted at exit."""
    return tempfile.NamedTemporaryFile(prefix="ropsim-", suffix=".trace")


def trace_path(data: bytes) -> Path:
    """A file holding `data`: the same file on every call."""
    path = Path(_trace_file().name)
    path.write_bytes(data)
    return path


def load_bytes(data: bytes) -> ControlFlow:
    """`load_trace` of a file holding `data`, with the items read into a list."""
    flow = load_trace(trace_path(data))
    return ControlFlow(flow.initial_process, list(flow.items))


def chaos_trace(rng: random.Random) -> Trace:
    """Unstructured random events: stresses paths the generators never emit."""
    pids = list(range(1, rng.randint(2, 5)))
    events = []
    pushed = []  # recent return addresses, so some returns predict correctly
    for _ in range(rng.randint(50, 400)):
        roll = rng.random()
        if roll < 0.08:
            events.append(Switch(rng.choice(pids)))
        elif roll < 0.45:
            events.append(Plain(rng.randrange(0, 1 << 32, 4)))
        elif roll < 0.70:
            pc = rng.randrange(0, 1 << 32, 4)
            events.append(Call(pc, rng.randrange(0, 1 << 32, 4), pc + 4))
            pushed.append(pc + 4)
        else:
            pc = rng.randrange(0, 1 << 32, 4)
            if pushed and rng.random() < 0.6:
                target = pushed.pop()
            else:
                target = rng.randrange(0, 1 << 32, 4)
            events.append(Return(pc, target))
    return Trace(rng.choice(pids), events)


def pooled_trace(rng: random.Random) -> Trace:
    """Like `chaos_trace`, but with 2-4 processes, and with every call's return
    address and every return's target drawn from a pool of 2-8 addresses: a
    return often meets an entry that another call or process pushed, or that
    was flushed or evicted."""
    pids = list(range(1, rng.randint(3, 5)))
    pool = rng.sample(range(0, 1 << 32, 4), rng.randint(2, 8))
    events = []
    for _ in range(rng.randint(30, 150)):
        roll = rng.random()
        pc = rng.getrandbits(30) << 2
        if roll < 0.15:
            events.append(Switch(rng.choice(pids)))
        elif roll < 0.25:
            events.append(Plain(pc))
        elif roll < 0.65:
            events.append(Call(pc, rng.getrandbits(30) << 2, rng.choice(pool)))
        else:
            events.append(Return(pc, rng.choice(pool)))
    return Trace(rng.choice(pids), events)


def reference_serialize(trace: Trace) -> str:
    """`serialize_trace` as one f-string per event: the reference the
    serializer's block formatting is checked against."""
    out = [f"P {trace.initial_process}"]
    append = out.append
    for ev in trace.events:
        cls = ev.__class__
        if cls is Plain:
            append(f"I {ev.pc:08x}")
        elif cls is Call:
            append(f"C {ev.pc:08x} {ev.target:08x} {ev.return_addr:08x}")
        elif cls is Return:
            append(f"R {ev.pc:08x} {ev.actual_target:08x}")
        elif cls is Switch:
            append(f"X {ev.next_pid}")
        else:
            raise TypeError(f"not a trace event: {ev!r}")
    append("")
    return "\n".join(out)


def mispredict_runs(flags: list[bool]) -> list[int]:
    """Lengths of maximal runs of consecutive mispredicted returns."""
    return [len(list(group)) for missed, group in groupby(flags) if missed]


def _cut_into(rng: random.Random, positions: list[int], pieces: int) -> list[int]:
    """`pieces - 1` sorted cut points drawn from candidate positions."""
    return sorted(rng.sample(positions, pieces - 1))


def _piece_sizes(cuts: list[int], total: int) -> list[int]:
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges, edges[1:])]


def _depth_zero_positions(trace: Trace) -> list[int]:
    """Indices where no call is pending: safe quantum boundaries."""
    out = []
    depth = 0
    for i, ev in enumerate(trace.events):
        if i and depth == 0:
            out.append(i)
        cls = ev.__class__
        if cls is Call:
            depth += 1
        elif cls is Return and depth:
            depth -= 1
    return out


def split_attack_trace(seed: int, t_m: int = 6) -> tuple[Trace, int]:
    """A 2*t_m gadget chain split across >= 2 quanta among benign processes.

    The chain is cut at random points inside its own event span; benign
    parts are cut only at call-depth-zero block boundaries so the shared
    predictor stack is empty at every switch.  Returns (trace, rop_pid).
    """
    rng = random.Random(seed)
    g = 2 * t_m
    rop_pid = 99
    rop = gen_rop(RopSpec(
        chain_length=g,
        gadget_sizes=[rng.randint(2, 6) for _ in range(g)],
        prologue=rng.randint(60, 140),
        alignment_offset=rng.randint(0, t_m - 1),
        seed=rng.getrandbits(32),
    ))
    # Chain span: the trailing events up to and including the g-th return
    # from the end are the gadgets themselves.
    chain_len = 0
    returns_seen = 0
    for ev in reversed(rop.events):
        chain_len += 1
        if ev.__class__ is Return:
            returns_seen += 1
            if returns_seen == g:
                break
    chain_start = len(rop.events) - chain_len

    cut_candidates = list(range(chain_start + 1, len(rop.events)))
    # A short chain (t_m = 1) may have too few cut points for 5 quanta.
    quanta = rng.randint(2, min(5, len(cut_candidates) + 1))
    rop_cuts = _cut_into(rng, cut_candidates, quanta)
    rop_sizes = _piece_sizes(rop_cuts, len(rop.events))

    n_benign = rng.randint(1, 2)
    parts = [(rop_pid, rop)]
    benign_sizes = []
    for i in range(n_benign):
        part = gen_benign(BenignSpec(
            total_instructions=rng.randint(2800, 5000),
            mispredict_burst_count=rng.randint(1, 2),
            gap_profile="sparse",
            seed=rng.getrandbits(32),
        ))
        pid = i + 1
        parts.append((pid, part))
        cuts = _cut_into(rng, _depth_zero_positions(part), quanta + 1)
        benign_sizes.append((pid, _piece_sizes(cuts, len(part.events))))

    # Round-robin benign pieces around the chain pieces; benign parts have
    # one more piece than the rop part, so rop quanta never run adjacently.
    schedule = []
    for i in range(quanta + 1):
        for pid, sizes in benign_sizes:
            schedule.append((pid, sizes[i]))
        if i < quanta:
            schedule.append((rop_pid, rop_sizes[i]))
    return interleave(InterleaveSpec(parts=parts, schedule=schedule)), rop_pid
