"""Shared corpus builders for the test suite."""

import random
from itertools import groupby

from ropsim.trace import Call, Plain, Return, Switch, Trace
from ropsim.workload import (BenignSpec, InterleaveSpec, RopSpec, gen_benign,
                             gen_rop, interleave)


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
