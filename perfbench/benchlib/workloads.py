"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``get_program(name,
seed)`` for cores, ``CampaignSpec(..., seed=seed)`` for grids), then runs
*rounds*: one round is one complete pass of the workload's work, timed
as a whole, with one root span per simulated cell.  Machines use the
TAGE predictor throughout.

Why each workload was chosen:

``cores-detail``
    Serial and in-process, no campaign engine: {gzip, mcf, bzip2} x
    {Baseline, CPR-192, 16-SP+Arb}, full detail.  The detailed cores
    (``pipeline``, ``baseline``, ``cpr``, ``core``, ``branch``,
    ``memory``) do nearly all the work, and ``isa``, ``sim.campaign``
    and ``sim.artifacts`` do none.  mcf is miss-bound (IPC 0.29-0.50),
    bzip2 has high IPC (~2.0) and gzip sits between.  Speed work on the
    MSP and CPR cores (incremental LCS, stage overhead) and the codegen
    deletion show here.
``fig7-grid``
    The cold quick Fig. 7 grid (gzip, mcf, eon, vortex x Baseline,
    CPR-192, 8-SP+Arb, 16-SP+Arb, ideal MSP = 20 cells), full detail at
    the default per-cell budget (3000), through ``run_jobs`` with two
    workers in a fresh cache directory, the path ``experiments.figure7``
    takes.  Cells are short, so per-cell core build, pickling, store
    writes and the process pool (``sim.campaign``) weigh heavily; three
    of the five machines are MSP.  Executor work shows here.
``fig7-sampled``
    The same grid under periodic sampling (bare ``--sample``, 90k
    represented instructions per cell), two workers, one fresh shared
    checkpoint store.  Fast-forward and warm-up training (``isa``,
    ``sim.sampling``) are a large share and detail is a minority;
    ``sim.artifacts`` writes each benchmark's trace once and reads it
    for the other machines, so store writes run beside reads.
"""

from __future__ import annotations

import gc
import shutil
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.defaults import BASE_INSTRUCTIONS, SAMPLE_BUDGET_FACTOR
from repro.sim import runner
from repro.sim.campaign import CampaignSpec, run_jobs
from repro.sim.config import SimConfig
from repro.sim.sampling import SamplingParams
from repro.workloads import BUILDERS, get_program

from benchlib import checks
from benchlib.instrument import cell_runner, patch_campaign
from benchlib.sandbox import Sandbox, require_cold
from benchlib.spans import Tracer

#: Committed instructions per cores-detail cell.
CORE_INSTRUCTIONS = 10_000
#: Per-cell budgets of the two grids: the defaults users get.
GRID_INSTRUCTIONS = BASE_INSTRUCTIONS
SAMPLED_INSTRUCTIONS = SAMPLE_BUDGET_FACTOR * BASE_INSTRUCTIONS
#: Campaign workers for the grids (the machine has two cores).
WORKERS = 2

CORE_BENCHMARKS = ("gzip", "mcf", "bzip2")
#: The quick benchset's SPECint list (``SPECINT[::3]``).
FIG7_BENCHMARKS = ("gzip", "mcf", "eon", "vortex")


def core_machines() -> List[SimConfig]:
    return [SimConfig.baseline(predictor="tage"),
            SimConfig.cpr(predictor="tage"),
            SimConfig.msp(16, predictor="tage")]


def fig7_machines() -> List[SimConfig]:
    return [SimConfig.baseline(predictor="tage"),
            SimConfig.cpr(predictor="tage"),
            SimConfig.msp(8, predictor="tage"),
            SimConfig.msp(16, predictor="tage"),
            SimConfig.msp_ideal(predictor="tage")]


def _rotate(items, k: int) -> list:
    items = list(items)
    k %= len(items)
    return items[k:] + items[:k]


@dataclass
class Round:
    """Outcome of one round."""

    run_id: int
    wall: float = 0.0
    #: "benchmark/machine" -> SimStats.to_dict()
    stats: Dict[str, dict] = field(default_factory=dict)
    #: cells that failed outright (error, quarantine, cache hit, missing)
    failed: Dict[str, str] = field(default_factory=dict)
    phase: Optional[object] = None
    ff_executed: int = 0
    ff_skipped: int = 0

    def digests(self) -> Dict[str, str]:
        return {cell: checks.digest(d) for cell, d in self.stats.items()}


class Workload:
    name = ""
    benchmarks: tuple = ()
    workers = 1

    def __init__(self, seed: int, sandbox: Sandbox) -> None:
        self.seed = seed
        self.sandbox = sandbox

    def cells(self) -> List[str]:
        return [f"{b}/{c.label}" for b in self.benchmarks
                for c in self.machines()]

    def machines(self) -> List[SimConfig]:
        raise NotImplementedError

    def setup(self, keep: bool = True) -> float:
        """Build and predecode every program; return the build seconds.
        With ``keep`` the programs go through ``get_program``'s cache,
        which the rounds and forked workers use; without it they come
        straight from the builders and are dropped, so repeated set-ups
        each pay the full build and only the kept copy stays in
        memory."""
        t0 = time.perf_counter()
        for name in self.benchmarks:
            program = (get_program(name, self.seed) if keep
                       else BUILDERS[name](seed=self.seed))
            program.decoded
            program.memory_line_addrs
        return time.perf_counter() - t0

    def warmup(self) -> None:
        """Untimed warm-up before the first round (none by default:
        the grids are meant cold)."""

    def round(self, tracer: Tracer, run_id: int,
              profile: bool = False) -> Round:
        raise NotImplementedError

    def oracle(self, reference: Round) -> Dict[str, str]:
        """Check ``reference`` without pinned digests; return the
        failing cells.  Full-detail cells are re-run with commit
        recording and compared with the emulator."""
        digests = reference.digests()
        failed = {}
        for name in self.benchmarks:
            program = get_program(name, self.seed)
            for config in self.machines():
                cell = f"{name}/{config.label}"
                problem = checks.oracle_full_detail(
                    program, config, self.instructions, digests.get(cell))
                if problem:
                    failed[cell] = problem
        return failed


class CoresDetail(Workload):
    name = "cores-detail"
    benchmarks = CORE_BENCHMARKS
    instructions = CORE_INSTRUCTIONS

    def machines(self) -> List[SimConfig]:
        return core_machines()

    def warmup(self) -> None:
        program = get_program(self.benchmarks[0], self.seed)
        for config in self.machines():
            runner.build_core(program, config).run(
                max_instructions=self.instructions // 5)

    def round(self, tracer: Tracer, run_id: int,
              profile: bool = False) -> Round:
        """Every cell once, serially; benchmark and machine order rotate
        from round to round so drift hits every machine alike.  A full
        collection after each cell, left out of the round's time, frees
        the core (cores hold reference cycles), so the peak RSS is that
        of one cell at a time whatever the seed or order."""
        tracer.run_id = run_id
        out = Round(run_id)
        collect_s = 0.0
        t0 = time.perf_counter()
        for name in _rotate(self.benchmarks, run_id):
            program = get_program(name, self.seed)
            for config in _rotate(self.machines(), run_id):
                cell = f"{name}/{config.label}"
                try:
                    core = runner.build_core(program, config)
                    stats = cell_runner(tracer, core)(
                        max_instructions=self.instructions)
                    out.stats[cell] = stats.to_dict()
                except Exception:                   # noqa: BLE001
                    out.failed[cell] = traceback.format_exc(limit=3)
                core = None
                t_gc = time.perf_counter()
                gc.collect()
                collect_s += time.perf_counter() - t_gc
        out.wall = time.perf_counter() - t0 - collect_s
        return out


class Fig7Grid(Workload):
    name = "fig7-grid"
    benchmarks = FIG7_BENCHMARKS
    instructions = GRID_INSTRUCTIONS
    workers = WORKERS

    def machines(self) -> List[SimConfig]:
        return fig7_machines()

    def spec(self) -> CampaignSpec:
        return CampaignSpec(self.name, list(self.benchmarks),
                            self.machines(), self.instructions,
                            seed=self.seed)

    def setup(self, keep: bool = True) -> float:
        seconds = super().setup(keep)
        for job in self.spec().jobs():   # code fingerprint, cache keys
            job.cache_key()
        return seconds

    def round(self, tracer: Tracer, run_id: int,
              profile: bool = False) -> Round:
        """One cold grid through ``run_jobs`` in a fresh cache dir."""
        spec = self.spec()
        cache_dir = require_cold(
            self.sandbox.fresh_dir(f"cache-r{run_id}"))
        spool = self.sandbox.fresh_dir(f"spool-r{run_id}")
        tracer.run_id = run_id
        tracer.spool_dir = spool
        with ExitStack() as patches:
            patch_campaign(tracer, patches)
            t0 = time.perf_counter()
            report = run_jobs(spec.jobs(), workers=self.workers,
                              use_cache=True, cache_dir=cache_dir,
                              checkpoints=True, profile=profile,
                              retries=0, raise_on_error=False)
            wall = time.perf_counter() - t0
        tracer.collect(spool)
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(spool, ignore_errors=True)
        out = Round(run_id, wall=wall, phase=report.phase,
                    ff_executed=report.ff_executed,
                    ff_skipped=report.ff_skipped)
        for job in spec.jobs():
            cell = f"{job.workload}/{job.config.label}"
            key = job.cache_key()
            if key not in report.results:
                out.failed[cell] = report.failures.get(
                    job.label, "missing result")
            elif key not in report.receipts:
                # A cold round simulates every cell: a hit is a failure.
                out.failed[cell] = "served from cache in a cold round"
            else:
                out.stats[cell] = report.results[key].to_dict()
        if report.interrupted:
            for cell in self.cells():
                out.failed.setdefault(cell, f"run interrupted by "
                                            f"{report.interrupted}")
        return out


class Fig7Sampled(Fig7Grid):
    name = "fig7-sampled"
    instructions = SAMPLED_INSTRUCTIONS

    def machines(self) -> List[SimConfig]:
        params = SamplingParams.coerce(True)
        return [params.apply(config) for config in fig7_machines()]

    def oracle(self, reference: Round) -> Dict[str, str]:
        """The same cells on one worker without a store."""
        spec = self.spec()
        cache_dir = self.sandbox.fresh_dir("oracle")
        report = run_jobs(spec.jobs(), workers=1, use_cache=False,
                          cache_dir=cache_dir, checkpoints=False,
                          profile=False, retries=0,
                          raise_on_error=False)
        shutil.rmtree(cache_dir, ignore_errors=True)
        digests = reference.digests()
        failed = {}
        for job in spec.jobs():
            cell = f"{job.workload}/{job.config.label}"
            stats = report.results.get(job.cache_key())
            if stats is None:
                failed[cell] = "store-free reference run failed"
            elif checks.digest(stats.to_dict()) != digests.get(cell):
                failed[cell] = "differs from the store-free 1-worker run"
        return failed

    def full_detail_ipc(self) -> Dict[str, float]:
        """Full-detail IPC of every cell at the sampled budget (the
        reference of ``sampling.ipc_error_pct``)."""
        spec = CampaignSpec("fig7-full", list(self.benchmarks),
                            fig7_machines(), self.instructions,
                            seed=self.seed)
        cache_dir = self.sandbox.fresh_dir("reference")
        report = run_jobs(spec.jobs(), workers=self.workers,
                          use_cache=False, cache_dir=cache_dir,
                          checkpoints=False, profile=False, retries=0)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return {f"{job.workload}/{job.config.label}":
                report.stats_for(job).ipc for job in spec.jobs()}


WORKLOADS = {w.name: w for w in (CoresDetail, Fig7Grid, Fig7Sampled)}
