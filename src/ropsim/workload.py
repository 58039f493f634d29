"""Seeded generators for benign traces, ROP payload traces, and interleavings.

Every generator is a pure function of its spec: the same seed yields the
same trace bytes.  `gen_benign` and `gen_rop` emit a `ControlFlow`, not
events: a plain run only moves the pc cursor and is counted on the call or
return after it.  Each checks the misprediction structure it promised
(burst run lengths, chain length) on the marks of `detector.replay` over
that flow, so a generator bug cannot silently skew detection results.
The `Trace` they return is built from the checked flow afterwards;
`benign_flow` and `rop_flow` return the flow and its replay instead, which
is all a sweep needs.

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

import random
from dataclasses import dataclass

from .detector import DEFAULT_CAPACITY, Replay, _marks, replay
from .trace import (CALL, END, KERNEL_BASE, RETURN, Call, ControlFlow, Plain,
                    PrivilegeLevel, Return, Switch, Trace, TraceEvent,
                    control_flow)

USER_CODE_LO = 0x08048000
USER_CODE_HI = 0xB0000000
KERNEL_CODE_LO = KERNEL_BASE
KERNEL_CODE_HI = 0xFFFFFF00

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
    seed: int = 0


@dataclass
class RopSpec:
    chain_length: int = 12
    gadget_sizes: list[int] | None = None  # default: drawn from 2..6
    prologue: int = 200
    alignment_offset: int = 0
    address_region: PrivilegeLevel = PrivilegeLevel.USER
    seed: int = 0


@dataclass
class InterleaveSpec:
    parts: list[tuple[int, Trace]]
    schedule: list[tuple[int, int]]


# -- replay helpers -----------------------------------------------------------

def replay_mispredictions(trace: Trace, ras_capacity: int) -> list[bool]:
    """Outcome (True = mispredicted) of each Return event, in trace order.
    The predictor keeps its entries across Switch events."""
    if ras_capacity < 1:
        # deque(maxlen=0) would silently mispredict every return.
        raise ValueError("ras_capacity must be >= 1")
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

class _Emitter:
    """Builds a `ControlFlow` with a pc cursor and a software call stack.

    A plain run only moves the cursor; its length is counted on the item
    after it.  Items do not carry call targets, so those go in `targets`,
    and `jump` records the one cursor move that is not a call or return.
    `trace` rebuilds the events from these."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.items: list[tuple[int, int, int, int]] = []
        self.targets: list[int] = []
        self.jump: tuple[int, int, int] | None = None  # (item, plains before it, pc)
        self.pc = USER_CODE_LO
        self.run = 0    # plains since the last item
        self.count = 0  # instructions emitted
        self.shadow: list[int] = []

    def plains(self, n: int) -> None:
        if n > 0:
            self.pc += 4 * n
            self.run += n
            self.count += n

    def call(self) -> None:
        pc = self.pc
        return_addr = pc + 4
        target = self.rng.randrange(USER_CODE_LO, USER_CODE_HI, 16)
        self.items.append((self.run, CALL, pc, return_addr))
        self.targets.append(target)
        self.shadow.append(return_addr)
        self.pc = target
        self.run = 0
        self.count += 1

    def ret_matched(self) -> None:
        self.ret_to(self.shadow.pop())

    def ret_to(self, target: int) -> None:
        """A return that ignores the software stack (corrupted/absent frame)."""
        self.items.append((self.run, RETURN, self.pc, target))
        self.pc = target
        self.run = 0
        self.count += 1

    def jump_to(self, pc: int) -> None:
        self.jump = (len(self.items), self.run, pc)
        self.pc = pc

    def nest(self, depth: int, _frame: tuple[int, int] = (0, 3),
             _unwind: tuple[int, int] = (0, 3)) -> None:
        """A balanced call/return nest; leaves the stack as it found it.

        `_frame` plains follow each call, `_unwind` plains precede each return."""
        randint = self.rng.randint
        frame_lo, frame_hi = _frame
        unwind_lo, unwind_hi = _unwind
        for _ in range(depth):
            self.call()
            self.plains(randint(frame_lo, frame_hi))
        for _ in range(depth):
            self.plains(randint(unwind_lo, unwind_hi))
            self.ret_matched()

    def close(self) -> None:
        """End the flow: `flow` holds the items, then END."""
        self.items.append((self.run, END, 0, 0))
        self.flow = ControlFlow(1, self.items)

    def trace(self) -> Trace:
        """The events of the closed flow."""
        events: list[TraceEvent] = []
        append = events.append

        def plains(pc: int, n: int) -> None:
            if n > 0:  # the first shares the cursor's int: one object fewer per run
                append(Plain(pc))
                events.extend(map(Plain, range(pc + 4, pc + 4 * n, 4)))

        next_target = iter(self.targets).__next__
        jump_at, jump_after, jump_pc = self.jump or (-1, 0, 0)
        pc = USER_CODE_LO
        for i, (n, kind, a, b) in enumerate(self.items):
            if i == jump_at:
                plains(pc, jump_after)
                pc, n = jump_pc, n - jump_after
            plains(pc, n)
            if kind == CALL:
                pc = next_target()
                append(Call(a, pc, b))
            elif kind == RETURN:
                append(Return(a, b))
                pc = b
        return Trace(1, events)


# -- benign traces ------------------------------------------------------------

def _burst_plan(spec: BenignSpec, rng: random.Random) -> list[tuple[int, int, int]]:
    """Per-burst (run length, gap lo, gap hi); the first burst hits the chain cap."""
    chain_cap = spec.max_benign_mispredict_chain
    plan = []
    for i in range(spec.mispredict_burst_count):
        profile = spec.gap_profile
        if profile == "mixed":
            profile = rng.choice(("sparse", "dense"))
        if i == 0 and spec.gap_profile != "dense":
            profile = "sparse"
        if profile == "sparse":
            k = chain_cap if i == 0 else rng.randint(min(2, chain_cap), chain_cap)
            plan.append((k, SPARSE_MIN_GAP, SPARSE_MAX_GAP))
        else:
            k = rng.randint(1, min(DENSE_MAX_CHAIN, chain_cap))
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
    if spec.ras_capacity < 1:
        raise GenerationError("ras_capacity must be >= 1")
    if spec.mispredict_burst_count < 0:
        raise GenerationError("mispredict_burst_count must be >= 0")
    if spec.mispredict_burst_count and spec.max_benign_mispredict_chain < 1:
        raise GenerationError("bursts requested but the mispredict chain cap is 0")

    rng = random.Random(spec.seed)
    em = _Emitter(rng)
    plan = _burst_plan(spec, rng)
    nest_cap = min(spec.ras_capacity, 6)
    total = spec.total_instructions

    # Worst-case burst cost (every draw at its maximum) bounds feasibility;
    # 64 instructions per segment are reserved for block-granularity slack.
    burst_cost = sum((spec.ras_capacity + k) * (3 + gap_hi)
                     for k, _, gap_hi in plan)
    usable = total - burst_cost - 64 * (len(plan) + 1)
    if plan and usable < (len(plan) + 1) * 16:
        raise GenerationError(
            "total_instructions too small for the requested bursts")
    segment_target = usable // (len(plan) + 1) if plan else 0

    def fill(stop: int) -> None:
        while em.count < stop:
            if rng.random() < 0.4:
                em.nest(rng.randint(1, nest_cap))
            else:
                em.plains(rng.randint(4, 40))

    for k, gap_lo, gap_hi in plan:
        stop = em.count + segment_target
        # A nest leads every filler segment so any interval spanning two
        # bursts picks up correctly predicted returns.
        em.nest(rng.randint(1, nest_cap))
        fill(stop)
        # Recursion `capacity + k` deep: the unwind mispredicts exactly k times.
        em.nest(spec.ras_capacity + k, _frame=(0, 1), _unwind=(gap_lo, gap_hi))
    # Exact tail fill: land on the requested instruction count.
    fill(total - 64)
    em.plains(total - em.count)
    em.close()

    replayed = replay(em.flow, spec.ras_capacity)
    runs = sorted(_miss_runs(replayed))
    expected = sorted(k for k, _, _ in plan)
    if runs != expected:
        raise AssertionError(
            f"benign generator produced runs {runs}, planned {expected}")
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
    if spec.prologue < 0 or spec.alignment_offset < 0:
        raise GenerationError("prologue and alignment_offset must be >= 0")
    rng = random.Random(spec.seed)
    if spec.gadget_sizes is None:
        sizes = [rng.randint(2, 6) for _ in range(g)]
    else:
        sizes = list(spec.gadget_sizes)
        if len(sizes) != g:
            raise GenerationError("gadget_sizes length must equal chain_length")
        if any(s < 1 for s in sizes):
            raise GenerationError("gadget sizes must be >= 1")

    em = _Emitter(rng)
    nest_cap = 6
    while em.count < spec.prologue:
        if rng.random() < 0.5:
            em.nest(rng.randint(1, nest_cap))
        else:
            em.plains(rng.randint(2, 20))

    # Alignment knob: benign mispredicted returns right before the chain
    # shift where interval boundaries fall inside it.  The prologue is
    # balanced, so these returns find an empty predictor stack.
    for _ in range(spec.alignment_offset):
        em.plains(rng.randint(1, 3))
        em.ret_to(rng.randrange(USER_CODE_LO, USER_CODE_HI, 4))

    kernel = spec.address_region is PrivilegeLevel.KERNEL
    lo, hi = (KERNEL_CODE_LO, KERNEL_CODE_HI) if kernel else (USER_CODE_LO, USER_CODE_HI)
    bases = [rng.randrange(lo, hi - 64, 16) for _ in range(g)]
    # Each gadget returns to the next, so only the first is jumped to.
    em.jump_to(bases[0])
    for i, size in enumerate(sizes):
        if bases[i] + 4 * (size - 1) > 0xFFFFFFFF:
            raise GenerationError(f"gadget {i} runs past address 0xffffffff")
        em.plains(size - 1)
        em.ret_to(bases[i + 1] if i + 1 < g else rng.randrange(lo, hi - 64, 4))
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
        if any(ev.__class__ is Switch for ev in segment.events):
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
