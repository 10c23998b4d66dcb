"""Scan-vs-event trace equality: the correctness oracle for tracing.

The event scheduler skips provably idle cycles; the scan oracle
simulates every one.  The tracer's consecutive-stall dedup (see
:mod:`repro.obs.trace`) is designed to make the two serialized Kanata
streams *byte-identical* anyway — so any divergence pinpoints either a
scheduler accounting bug or a mis-placed emission site.
"""

from __future__ import annotations

import pytest

from repro.obs import KANATA_HEADER, PipelineTracer, to_kanata
from repro.sim.config import SimConfig
from repro.sim.runner import build_core
from repro.workloads import get_program

#: The quick SPECint grid (``REPRO_BENCHSET=quick`` — SPECINT[::3]).
QUICK_GRID = ["gzip", "mcf", "eon", "vortex"]

MACHINES = {
    "baseline": lambda **kw: SimConfig.baseline(**kw),
    "cpr": lambda **kw: SimConfig.cpr(**kw),
    "msp16": lambda **kw: SimConfig.msp(16, **kw),
}


def _trace(workload: str, make, scheduler: str, n: int = 1500):
    core = build_core(get_program(workload), make(scheduler=scheduler))
    tracer = PipelineTracer()
    core.attach_tracer(tracer)
    stats = core.run(max_instructions=n)
    return to_kanata(tracer.events), stats.to_dict()


def _first_diff(a: str, b: str) -> str:
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines())):
        if la != lb:
            return f"line {i}: scan={la!r} event={lb!r}"
    return f"length: scan={len(a)} event={len(b)}"


@pytest.mark.parametrize("workload", QUICK_GRID)
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_event_scan_kanata_byte_identical(workload, machine):
    make = MACHINES[machine]
    scan_text, scan_stats = _trace(workload, make, "scan")
    event_text, event_stats = _trace(workload, make, "event")
    assert scan_text.startswith(KANATA_HEADER)
    assert event_text == scan_text, _first_diff(scan_text, event_text)
    assert event_stats == scan_stats
