"""Random structured program generator and differential-testing harness.

Generates seeded, architecturally well-defined programs: straight-line
ALU blocks, loads/stores confined to a scratch region, forward branches
on computed values and bounded counted loops, closed by an outer jump so
the program runs forever (budget-terminated).

The differential harness (:func:`run_differential`) cross-checks every
timing core (baseline, CPR, MSP) under both detailed-core schedulers
(event and scan) against the reference emulator on the same seeded
program — commit trace and final memory must match the oracle exactly.
A mismatch comes back as a typed :class:`Divergence`; :func:`shrink`
reduces it to the smallest ``(blocks, budget)`` pair that still
reproduces, so a fuzz failure lands as a minimal repro, not a
700-instruction haystack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import fp_reg, int_reg

_ALU_EMITTERS = [
    lambda b, d, s1, s2: b.add(d, s1, s2),
    lambda b, d, s1, s2: b.sub(d, s1, s2),
    lambda b, d, s1, s2: b.xor(d, s1, s2),
    lambda b, d, s1, s2: b.and_(d, s1, s2),
    lambda b, d, s1, s2: b.or_(d, s1, s2),
    lambda b, d, s1, s2: b.mul(d, s1, s2),
    lambda b, d, s1, s2: b.slt(d, s1, s2),
]

_FP_EMITTERS = [
    lambda b, d, s1, s2: b.fadd(d, s1, s2),
    lambda b, d, s1, s2: b.fsub(d, s1, s2),
    lambda b, d, s1, s2: b.fmul(d, s1, s2),
]


def random_program(seed: int, blocks: int = 8,
                   scratch_words: int = 64) -> Program:
    """Build a random structured program for the given seed."""
    rng = random.Random(seed)
    b = ProgramBuilder(f"fuzz-{seed}")
    data = b.data_region([rng.randrange(1, 100)
                          for _ in range(scratch_words)])

    # Register roles: r1 scratch base, r2 mask, r3..r11 data,
    # r12..r15 loop counters, f0..f5 fp data.
    r_base, r_mask = int_reg(1), int_reg(2)
    data_regs: List[int] = [int_reg(k) for k in range(3, 12)]
    counter_regs = [int_reg(k) for k in range(12, 16)]
    fp_regs = [fp_reg(k) for k in range(6)]

    b.li(r_base, data)
    b.li(r_mask, scratch_words - 1)
    for reg in data_regs:
        b.li(reg, rng.randrange(1, 50))
    b.label("outer")

    for block in range(blocks):
        # A few ALU ops.
        for _ in range(rng.randrange(2, 6)):
            emit = rng.choice(_ALU_EMITTERS)
            emit(b, rng.choice(data_regs), rng.choice(data_regs),
                 rng.choice(data_regs))
        # Occasional fp work.
        if rng.random() < 0.5:
            emit = rng.choice(_FP_EMITTERS)
            emit(b, rng.choice(fp_regs), rng.choice(fp_regs),
                 rng.choice(fp_regs))
            if rng.random() < 0.5:
                b.fcvt(rng.choice(fp_regs), rng.choice(data_regs))
        # A masked load and maybe a store into the scratch region.
        addr_reg = rng.choice(data_regs)
        value_reg = rng.choice(data_regs)
        b.and_(addr_reg, addr_reg, r_mask)
        b.add(addr_reg, addr_reg, r_base)
        if rng.random() < 0.5:
            b.st(value_reg, addr_reg, 0)
        b.ld(rng.choice(data_regs), addr_reg, 0)
        # A forward branch on a computed value (data-dependent).
        skip = f"skip_{block}"
        condition = rng.choice(data_regs)
        if rng.random() < 0.5:
            b.beqz(condition, skip)
        else:
            b.bnez(condition, skip)
        for _ in range(rng.randrange(1, 4)):
            emit = rng.choice(_ALU_EMITTERS)
            emit(b, rng.choice(data_regs), rng.choice(data_regs),
                 rng.choice(data_regs))
        b.label(skip)
        # Occasionally a small counted loop.
        if rng.random() < 0.4:
            counter = counter_regs[block % len(counter_regs)]
            bound = rng.randrange(2, 6)
            loop = f"loop_{block}"
            b.li(counter, 0)
            b.label(loop)
            emit = rng.choice(_ALU_EMITTERS)
            emit(b, rng.choice(data_regs), rng.choice(data_regs),
                 counter)
            b.addi(counter, counter, 1)
            b.li(data_regs[0], bound)
            b.blt(counter, data_regs[0], loop)

    b.jmp("outer")
    return b.build()


# --------------------------------------------------------------------- #
# Differential harness: every core x scheduler vs the emulator oracle.
# --------------------------------------------------------------------- #

#: Detailed-core schedulers the harness sweeps (they must be
#: cycle-for-cycle interchangeable, so any commit-trace difference
#: between them is a bug in one of them).
SCHEDULERS = ("event", "scan")


def fuzz_configs() -> List:
    """The three timing cores the harness checks against the oracle."""
    from repro.sim import SimConfig
    return [SimConfig.baseline(), SimConfig.cpr(), SimConfig.msp(8)]


@dataclass
class Divergence:
    """One core/scheduler disagreeing with the emulator oracle — the
    minimal facts needed to reproduce it deterministically."""

    seed: int
    blocks: int
    budget: int
    machine: str                          # SimConfig label
    scheduler: str
    kind: str                             # "stall"|"commit-trace"|"memory"
    detail: str
    config: Optional[object] = None       # the SimConfig (for recheck)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "blocks": self.blocks,
                "budget": self.budget, "machine": self.machine,
                "scheduler": self.scheduler,
                "kind": self.kind, "detail": self.detail}

    def repro_command(self) -> str:
        """One line a human can paste to replay the divergence."""
        return (f"random_program(seed={self.seed}, blocks={self.blocks})"
                f" on {self.machine}/{self.scheduler}"
                f" for {self.budget} instructions")


def compare_with_oracle(commit_trace: Sequence[int],
                        oracle_trace: Sequence[int],
                        core_memory: dict,
                        oracle_memory: dict) -> Optional[Tuple[str, str]]:
    """Compare a core's committed PCs and final memory against the
    oracle's; returns ``(kind, detail)`` on the first mismatch, else
    None.  Pure so the detection logic is testable without planting a
    real simulator bug."""
    if list(commit_trace) != list(oracle_trace):
        limit = min(len(commit_trace), len(oracle_trace))
        for i in range(limit):
            if commit_trace[i] != oracle_trace[i]:
                return ("commit-trace",
                        f"commit #{i}: core pc={commit_trace[i]}, "
                        f"oracle pc={oracle_trace[i]}")
        return ("commit-trace",
                f"length mismatch: core committed {len(commit_trace)}, "
                f"oracle {len(oracle_trace)}")
    for addr in sorted(set(core_memory) | set(oracle_memory)):
        got = core_memory.get(addr, 0)
        want = oracle_memory.get(addr, 0)
        if got != want:
            return ("memory",
                    f"addr {addr}: core={got}, oracle={want}")
    return None


def check_one(seed: int, config, scheduler: str, *,
              blocks: int = 8, budget: int = 700) -> Optional[Divergence]:
    """Run one (core, scheduler) cell against the emulator oracle;
    returns a :class:`Divergence` or None when they agree."""
    from repro.isa import Emulator
    from repro.sim import build_core
    program = random_program(seed, blocks=blocks)
    core = build_core(program, config.with_(scheduler=scheduler,
                                            record_commits=True))
    stats = core.run(max_instructions=budget)
    if stats.committed < budget:
        return Divergence(seed, blocks, budget, config.label, scheduler,
                          "stall", f"core stalled after "
                          f"{stats.committed}/{budget} instructions",
                          config=config)
    oracle = Emulator(program, trace_pcs=True)
    reference = oracle.run(max_instructions=stats.committed)
    mismatch = compare_with_oracle(core.commit_trace, reference.pc_trace,
                                   core.memory, oracle.memory)
    if mismatch is None:
        return None
    kind, detail = mismatch
    return Divergence(seed, blocks, budget, config.label, scheduler,
                      kind, detail, config=config)


def run_differential(seed: int, *, blocks: int = 8, budget: int = 700,
                     configs=None,
                     schedulers: Sequence[str] = SCHEDULERS
                     ) -> List[Divergence]:
    """Sweep every core x scheduler cell for one seed; returns all
    divergences found (empty on a healthy simulator)."""
    divergences = []
    for config in (configs if configs is not None else fuzz_configs()):
        for scheduler in schedulers:
            found = check_one(seed, config, scheduler,
                              blocks=blocks, budget=budget)
            if found is not None:
                divergences.append(found)
    return divergences


def shrink(divergence: Divergence,
           reproduces: Optional[Callable[[int, int],
                                         Optional[Divergence]]] = None
           ) -> Divergence:
    """Reduce a divergence to the smallest ``(blocks, budget)`` that
    still reproduces it: drop blocks one at a time, then bisect the
    instruction budget.  ``reproduces(blocks, budget)`` defaults to
    re-running the real cell; tests inject synthetic predicates."""
    if reproduces is None:
        def reproduces(blocks: int, budget: int) -> Optional[Divergence]:
            return check_one(divergence.seed, divergence.config,
                             divergence.scheduler,
                             blocks=blocks, budget=budget)
    best = divergence
    while best.blocks > 1:
        candidate = reproduces(best.blocks - 1, best.budget)
        if candidate is None:
            break
        best = candidate
    lo, hi = 1, best.budget
    while lo < hi:
        mid = (lo + hi) // 2
        candidate = reproduces(best.blocks, mid)
        if candidate is not None:
            best, hi = candidate, mid
        else:
            lo = mid + 1
    return best
