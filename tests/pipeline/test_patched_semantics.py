"""Monkeypatched semantics reach every timing core.

Decode snapshots the semantics tables into the program's static
columns (``DecodedProgram.evalf``), and every issue path — the fused
baseline loop, the event scheduler's kind ladder and the scan oracle —
executes through that snapshot.  So a program decoded *after* an
experiment replaces ``EVAL_FNS[Op.ADD]`` must compute with the
replacement on every machine under both schedulers.
"""

from __future__ import annotations

import pytest

from repro.isa.opcodes import Op
from repro.isa.program import ProgramBuilder
from repro.isa.semantics import EVAL_FNS
from repro.sim import SimConfig, build_core

MACHINES = {
    "baseline": SimConfig.baseline,
    "cpr": SimConfig.cpr,
    "msp16": lambda **kw: SimConfig.msp(16, **kw),
}

#: Where the program stores the ADD result (committed memory is the one
#: architectural view every core exposes the same way).
RESULT_ADDR = 64


def _add_program():
    builder = ProgramBuilder("patched-add")
    builder.li(1, 5)
    builder.li(2, 9)
    builder.add(3, 1, 2)
    builder.li(4, RESULT_ADDR)
    builder.st(3, 4)
    builder.halt()
    return builder.build()


@pytest.mark.parametrize("scheduler", ["event", "scan"])
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_patched_add_reaches_every_core(monkeypatch, machine, scheduler):
    monkeypatch.setitem(EVAL_FNS, Op.ADD, lambda srcs, imm: 777)
    program = _add_program()               # decoded after the patch
    core = build_core(program, MACHINES[machine](scheduler=scheduler))
    stats = core.run(max_instructions=100)
    assert stats.committed == 6
    assert core.memory[RESULT_ADDR] == 777  # r3 held the patched sum
