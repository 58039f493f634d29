"""Seeded generators for benign traces, ROP payload traces, and interleavings.

Every generator is a pure function of its spec: the same seed yields the
same trace bytes.  Draws are `random.Random(seed)`'s, taken through
`_below`'s rejection loop.  The hot loops, `_Emitter.nest` and `_fill`, run
that loop inline, so that a draw there costs no Python call: those draws
are most of a sweep's generation.  `gen_benign` and `gen_rop` emit a
`ControlFlow`, not events: a plain run only moves the pc cursor and is
counted on the call or return after it.  Each checks the misprediction
structure it promised (burst run lengths, chain length) on the marks of
`detector.replay` over that flow, so a generator bug cannot silently skew
detection results.  The `Trace` they return is built from the checked flow
afterwards; `benign_flow` and `rop_flow` return the flow and its replay
instead, which is all a sweep needs.

Benign traces mix matched call/return activity with recursion bursts that
overflow the stack and unwind into short runs of mispredicted returns.
Two burst shapes are used so a benign corpus exercises both rejection
branches of the detector:

* sparse bursts: runs up to the configured chain limit, with at least
  ``SPARSE_MIN_GAP`` plain instructions between unwinding returns, so any
  window of mispredictions carries far more instructions than a gadget
  chain could (instruction-count rejection);
* dense bursts: tightly packed runs capped at ``DENSE_MAX_CHAIN``
  mispredictions, short enough that a monitor interval can never fill
  inside one burst; an interval spanning two bursts always crosses the
  matched-pair filler between them (return-count rejection).

The dense cap assumes monitor intervals of at least six mispredictions;
the sparse gap keeps six-gadget windows above 36 instructions and scales
safely to larger intervals.
"""

from __future__ import annotations

import gc
import random
import sys
from dataclasses import dataclass

from .detector import DEFAULT_CAPACITY, DetectorConfig, Replay, _marks, replay
from .trace import (CALL, END, KERNEL_BASE, RETURN, Call, ControlFlow, Plain,
                    PrivilegeLevel, Return, Switch, Trace, TraceEvent,
                    control_flow)

USER_CODE_LO = 0x08048000
USER_CODE_HI = 0xB0000000
KERNEL_CODE_LO = KERNEL_BASE
KERNEL_CODE_HI = 0xFFFFFF00
_TARGETS = (USER_CODE_HI - USER_CODE_LO + 15) // 16  # number of 16-byte aligned call targets
_TARGET_BITS = _TARGETS.bit_length()

SPARSE_MIN_GAP = 11
SPARSE_MAX_GAP = 40
DENSE_MAX_CHAIN = 5
DENSE_MAX_GAP = 5

GAP_PROFILES = ("sparse", "dense", "mixed")


class GenerationError(ValueError):
    """A workload spec that cannot be realized."""


@dataclass
class BenignSpec:
    total_instructions: int = 100_000
    ras_capacity: int = DEFAULT_CAPACITY
    max_benign_mispredict_chain: int = 10
    mispredict_burst_count: int = 8
    gap_profile: str = "mixed"
    seed: int = 0   # >= 0: `random.Random` seeds with abs(seed), so -3 would draw as 3


@dataclass
class RopSpec:
    chain_length: int = 12
    gadget_sizes: list[int] | None = None  # default: drawn from 2..6
    prologue: int = 200
    alignment_offset: int = 0
    address_region: PrivilegeLevel = PrivilegeLevel.USER
    seed: int = 0   # >= 0, as in `BenignSpec`


@dataclass
class InterleaveSpec:
    parts: list[tuple[int, Trace]]
    schedule: list[tuple[int, int]]


# -- replay helpers -----------------------------------------------------------

def replay_mispredictions(trace: Trace, ras_capacity: int) -> list[bool]:
    """Outcome (True = mispredicted) of each Return event, in trace order.
    The predictor keeps its entries across Switch events."""
    DetectorConfig(ras_capacity=ras_capacity)   # a `ValueError` for a depth it rejects
    out: list[bool] = []
    for kind, _, n_r, _ in _marks(control_flow(trace), ras_capacity, False, set()):
        out += [False] * n_r  # the returns since the mark before;
        if kind == RETURN:    # a miss mark's last one is the miss
            out[-1] = True
    return out


def _miss_runs(replayed: Replay) -> list[int]:
    """Lengths of the runs of consecutive mispredicted returns: a miss whose
    mark counts one return directly follows the miss before it."""
    runs: list[int] = []
    for _, _, n_r, _ in replayed.marks[:-1]:  # misses, then END
        if runs and n_r == 1:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


# -- control-flow emission ----------------------------------------------------

def _below(getrandbits, n: int) -> int:
    """A draw in [0, n): CPython's `Random._randbelow_with_getrandbits`, so
    ``lo + _below(rng.getrandbits, hi - lo + 1)`` is ``rng.randint(lo, hi)``.
    `_Emitter.nest` and `_fill` inline this loop, with `k` worked out once per
    call, so that their draws cost no Python call; they must stay in step."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class _Emitter:
    """Builds a `ControlFlow` with a pc cursor.

    A plain run only moves the cursor; its length is counted on the item
    after it, and `jump` records the one cursor move that is not a call or
    return.  `trace` rebuilds the events from these: a call's pc, which its
    item carries as 0, from its return address, and its target, which no
    item carries, from where the next item's plain run starts."""

    def __init__(self, bits):
        self.bits = bits  # a `random.Random`'s `getrandbits`
        self.items: list[tuple[int, int, int, int]] = []
        self.jump: tuple[int, int, int] | None = None  # (item, plains before it, pc)
        self.pc = USER_CODE_LO
        self.run = 0    # plains since the last item
        self.count = 0  # instructions emitted

    def plains(self, n: int) -> None:
        if n > 0:
            self.pc += 4 * n
            self.run += n
            self.count += n

    def ret_to(self, target: int) -> None:
        """A return that ignores the call stack (corrupted/absent frame)."""
        self.items.append((self.run, RETURN, self.pc, target))
        self.pc = target
        self.run = 0
        self.count += 1

    def jump_to(self, pc: int) -> None:
        self.jump = (len(self.items), self.run, pc)
        self.pc = pc

    def nest(self, depth: int, _frames: int = 4, _unwind: tuple[int, int] = (0, 3)) -> None:
        """A balanced call/return nest: `depth` calls, each to a drawn target
        and followed by [0, `_frames`) plains, then the returns in reverse,
        each preceded by `_unwind` = (lo, hi) plains.  Draws are `_below`'s
        loop, inlined."""
        bits, append = self.bits, self.items.append
        unwind_lo, unwinds = _unwind[0], _unwind[1] - _unwind[0] + 1
        frame_k, unwind_k = _frames.bit_length(), unwinds.bit_length()
        pc, run, count, returns = self.pc, self.run, self.count + 2 * depth, []
        for _ in range(depth):
            r = bits(_TARGET_BITS)
            while r >= _TARGETS:
                r = bits(_TARGET_BITS)
            target = USER_CODE_LO + 16 * r
            returns.append(pc + 4)
            append((run, CALL, 0, returns[-1]))  # the matching RETURN shares the int
            run = bits(frame_k)
            while run >= _frames:
                run = bits(frame_k)
            pc = target + 4 * run if run else target  # an unmoved cursor keeps its int
            count += run
        for ret in reversed(returns):
            n = bits(unwind_k)
            while n >= unwinds:
                n = bits(unwind_k)
            n += unwind_lo
            count += n
            append((run + n, RETURN, pc + 4 * n if n else pc, ret))
            pc, run = ret, 0
        self.pc, self.run, self.count = pc, run, count

    def close(self) -> None:
        """End the flow: `flow` holds the items, then END."""
        self.items.append((self.run, END, 0, 0))
        self.flow = ControlFlow(1, self.items)

    def trace(self) -> Trace:
        """The events of the closed flow."""
        events: list[TraceEvent] = []
        items, append, extend = self.items, events.append, events.extend
        jump_at, jump_after, jump_pc = self.jump or (-1, 0, 0)
        pc = USER_CODE_LO
        enabled = gc.isenabled()
        gc.disable()    # events form no cycles: collections would only rescan them
        try:
            for i, (n, kind, a, b) in enumerate(items):
                if i == jump_at:
                    extend(map(Plain, range(pc, pc + 4 * jump_after, 4)))
                    pc, n = jump_pc, n - jump_after
                if n > 0:   # the first shares the cursor's int: one object fewer per run
                    append(Plain(pc))
                    extend(map(Plain, range(pc + 4, pc + 4 * n, 4)))
                if kind == CALL:    # `nest` puts a call 4 bytes before its return address,
                    # then a call or a return, never END or the jump: its run starts at the target
                    n2, kind2, a2, b2 = items[i + 1]
                    pc = (b2 - 4 if kind2 == CALL else a2) - 4 * n2
                    append(Call(b - 4, pc, b))
                elif kind == RETURN:
                    append(Return(a, b))
                    pc = b
        finally:
            if enabled:
                gc.enable()
        return Trace(1, events)


def _fill(em: _Emitter, coin, stop: int, p_nest: float, depths: int, lo: int,
          runs: int) -> None:
    """Emit until `stop` instructions: on each `coin() < p_nest` a nest
    1 + [0, `depths`) deep, else a run of `lo` + [0, `runs`) plains."""
    bits, nest, plains = em.bits, em.nest, em.plains
    depth_k, run_k = depths.bit_length(), runs.bit_length()
    while em.count < stop:
        if coin() < p_nest:
            r = bits(depth_k)
            while r >= depths:
                r = bits(depth_k)
            nest(1 + r)
        else:
            r = bits(run_k)
            while r >= runs:
                r = bits(run_k)
            plains(lo + r)


# -- benign traces ------------------------------------------------------------

def _burst_plan(spec: BenignSpec, bits) -> list[tuple[int, int, int]]:
    """Per-burst (run length, gap lo, gap hi); the first burst hits the chain cap."""
    chain_cap = spec.max_benign_mispredict_chain
    plan = []
    for i in range(spec.mispredict_burst_count):
        profile = spec.gap_profile
        if profile == "mixed":
            profile = ("sparse", "dense")[_below(bits, 2)]
        if i == 0 and spec.gap_profile != "dense":
            profile = "sparse"
        if profile == "sparse":
            lo = min(2, chain_cap)
            k = chain_cap if i == 0 else lo + _below(bits, chain_cap - lo + 1)
            plan.append((k, SPARSE_MIN_GAP, SPARSE_MAX_GAP))
        else:
            k = 1 + _below(bits, min(DENSE_MAX_CHAIN, chain_cap))
            plan.append((k, 0, DENSE_MAX_GAP))
    return plan


def gen_benign(spec: BenignSpec) -> Trace:
    """Single-process benign trace; deterministic in the spec seed."""
    return _benign(spec)[0].trace()


def benign_flow(spec: BenignSpec) -> tuple[ControlFlow, Replay]:
    """`control_flow(gen_benign(spec))`, and its replay at `spec.ras_capacity`."""
    em, replayed = _benign(spec)
    return em.flow, replayed


def _benign(spec: BenignSpec) -> tuple[_Emitter, Replay]:
    if spec.gap_profile not in GAP_PROFILES:
        raise GenerationError(f"unknown gap profile {spec.gap_profile!r}")
    if spec.total_instructions < 1:
        raise GenerationError("total_instructions must be positive")
    if not 1 <= spec.ras_capacity <= sys.maxsize:   # the depths `DetectorConfig` accepts
        raise GenerationError(f"ras_capacity must be from 1 to {sys.maxsize}")
    if spec.mispredict_burst_count < 0 or spec.seed < 0:
        raise GenerationError("mispredict_burst_count and seed must be >= 0")
    if spec.mispredict_burst_count and spec.max_benign_mispredict_chain < 1:
        raise GenerationError("bursts requested but the mispredict chain cap is 0")

    rng = random.Random(spec.seed)
    bits = rng.getrandbits
    em = _Emitter(bits)
    plan = _burst_plan(spec, bits)
    nest_cap = min(spec.ras_capacity, 6)
    total = spec.total_instructions

    # Worst-case burst cost (every draw at its maximum) bounds feasibility;
    # 64 instructions per segment are reserved for block-granularity slack.
    burst_cost = sum((spec.ras_capacity + k) * (3 + gap_hi) for k, _, gap_hi in plan)
    usable = total - burst_cost - 64 * (len(plan) + 1)
    if plan and usable < (len(plan) + 1) * 16:
        raise GenerationError("total_instructions too small for the requested bursts")
    segment_target = usable // (len(plan) + 1) if plan else 0

    for k, gap_lo, gap_hi in plan:
        stop = em.count + segment_target
        # A nest leads every filler segment so any interval spanning two
        # bursts picks up correctly predicted returns.
        em.nest(1 + _below(bits, nest_cap))
        _fill(em, rng.random, stop, 0.4, nest_cap, 4, 37)
        # Recursion `capacity + k` deep: the unwind mispredicts exactly k times.
        em.nest(spec.ras_capacity + k, _frames=2, _unwind=(gap_lo, gap_hi))
    # Exact tail fill: land on the requested instruction count.
    _fill(em, rng.random, total - 64, 0.4, nest_cap, 4, 37)
    em.plains(total - em.count)
    em.close()

    replayed = replay(em.flow, spec.ras_capacity)
    runs = sorted(_miss_runs(replayed))
    expected = sorted(k for k, _, _ in plan)
    if runs != expected:
        raise AssertionError(f"benign generator produced runs {runs}, planned {expected}")
    if em.count != total:
        raise AssertionError("benign generator missed the instruction target")
    return em, replayed


# -- ROP payload traces -------------------------------------------------------

def gen_rop(spec: RopSpec) -> Trace:
    """Benign prologue, alignment mispredictions, then the gadget chain."""
    return _rop(spec)[0].trace()


def rop_flow(spec: RopSpec) -> tuple[ControlFlow, Replay]:
    """`control_flow(gen_rop(spec))`, and its replay at `DEFAULT_CAPACITY`."""
    em, replayed = _rop(spec)
    return em.flow, replayed


def _rop(spec: RopSpec) -> tuple[_Emitter, Replay]:
    g = spec.chain_length
    if g < 1:
        raise GenerationError("chain_length must be >= 1")
    if spec.prologue < 0 or spec.alignment_offset < 0 or spec.seed < 0:
        raise GenerationError("prologue, alignment_offset and seed must be >= 0")
    rng = random.Random(spec.seed)
    bits = rng.getrandbits
    if spec.gadget_sizes is None:
        sizes = [2 + _below(bits, 5) for _ in range(g)]
    else:
        sizes = list(spec.gadget_sizes)
        if len(sizes) != g:
            raise GenerationError("gadget_sizes length must equal chain_length")
        if any(s < 1 for s in sizes):
            raise GenerationError("gadget sizes must be >= 1")

    em = _Emitter(bits)
    _fill(em, rng.random, spec.prologue, 0.5, 6, 2, 19)

    # Alignment knob: benign mispredicted returns right before the chain
    # shift where interval boundaries fall inside it.  The prologue is
    # balanced, so these returns find an empty predictor stack.
    for _ in range(spec.alignment_offset):
        em.plains(1 + _below(bits, 3))
        em.ret_to(USER_CODE_LO + 4 * _below(bits, (USER_CODE_HI - USER_CODE_LO + 3) // 4))

    kernel = spec.address_region is PrivilegeLevel.KERNEL
    lo, hi = (KERNEL_CODE_LO, KERNEL_CODE_HI) if kernel else (USER_CODE_LO, USER_CODE_HI)
    bases = [lo + 16 * _below(bits, (hi - 64 - lo + 15) // 16) for _ in range(g)]
    # Each gadget returns to the next, so only the first is jumped to.
    em.jump_to(bases[0])
    for i, size in enumerate(sizes):
        if bases[i] + 4 * (size - 1) > 0xFFFFFFFF:
            raise GenerationError(f"gadget {i} runs past address 0xffffffff")
        em.plains(size - 1)
        em.ret_to(bases[i + 1] if i + 1 < g else lo + 4 * _below(bits, (hi - 64 - lo + 3) // 4))
    em.close()

    replayed = replay(em.flow, DEFAULT_CAPACITY)
    runs = _miss_runs(replayed)
    need = g + spec.alignment_offset
    # The END mark counts the returns after the last miss; there must be none.
    if replayed.marks[-1][2] or not runs or runs[-1] < need:
        raise AssertionError("chain or alignment returns were not all mispredicted")
    if runs != [need]:
        raise AssertionError("prologue unexpectedly mispredicted")
    return em, replayed


# -- interleavings ------------------------------------------------------------

def interleave(spec: InterleaveSpec) -> Trace:
    """Merge per-process segments under an explicit quantum schedule."""
    parts: dict[int, list[TraceEvent]] = {}
    for pid, segment in spec.parts:
        if pid < 0:
            raise GenerationError(f"process id {pid} is negative")
        if pid in parts:
            raise GenerationError(f"duplicate part for pid {pid}")
        if Switch in map(type, segment.events):
            raise GenerationError(f"part for pid {pid} contains Switch events")
        parts[pid] = segment.events
    if not spec.schedule:
        raise GenerationError("empty schedule")

    cursors = dict.fromkeys(parts, 0)
    events: list[TraceEvent] = []
    initial = spec.schedule[0][0]
    cur = initial
    for pid, quantum in spec.schedule:
        if pid not in parts:
            raise GenerationError(f"schedule names unknown pid {pid}")
        if quantum < 1:
            raise GenerationError("schedule quanta must be >= 1")
        start = cursors[pid]
        end = start + quantum
        segment = parts[pid]
        if end > len(segment):
            raise GenerationError(f"schedule overruns part for pid {pid}")
        if pid != cur:
            events.append(Switch(pid))
            cur = pid
        events.extend(segment[start:end])
        cursors[pid] = end
    leftover = [pid for pid, pos in cursors.items() if pos != len(parts[pid])]
    if leftover:
        raise GenerationError(
            f"schedule does not consume parts for pids {sorted(leftover)}")
    return Trace(initial, events)
