"""Wrappers that feed a :class:`~benchlib.spans.Tracer` from the
program's public entry points.

Cores are instrumented per instance, so every span carries its machine
(``baseline``/``cpr``/``msp``) in its name.  The per-run wrappers are
armed on entry to ``core.run`` and restored when it returns: TAGE
compiles ``predict``/``train`` per instance and the sampled engine
installs warm predictors and caches after the core is built, so only
wrapping at run start sees the objects the run really uses.  The fused
baseline loop binds its predictor and D-cache calls at run start and
inlines its stages, so on baseline only those calls show.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Callable, Tuple
from unittest import mock

from benchlib.spans import FULL, Tracer

#: Stage methods wrapped on CPR and MSP cores, as (attribute, span).
STAGES = (("commit_stage", "pipeline.commit"),
          ("writeback_stage", "pipeline.writeback"),
          ("issue_stage", "pipeline.issue"),
          ("dispatch_stage", "pipeline.dispatch"))

#: Per-run counter deltas recorded for each machine.
COUNTERS = ("cycles", "skipped", "committed", "issued", "branches",
            "mispredictions", "bank_stall_cycles", "checkpoints_created",
            "l1d_accesses", "l1d_misses")


def _snapshot(core) -> Tuple[int, ...]:
    stats = core.stats
    dcache = core.hierarchy.dcache
    return (stats.cycles, core.skipped_cycles, stats.committed,
            stats.issued, stats.branches, stats.branch_mispredictions,
            sum(stats.bank_stall_cycles.values()),
            stats.checkpoints_created, dcache.hits + dcache.misses,
            dcache.misses)


def _wrap(patches: ExitStack, tracer: Tracer, obj, attr: str,
          span: str) -> None:
    """Replace ``obj.attr`` by a span wrapper until ``patches`` closes."""
    patches.enter_context(mock.patch.object(
        obj, attr, tracer.wrap(span, getattr(obj, attr))))


def _arm(tracer: Tracer, core, arch: str, patches: ExitStack) -> None:
    _wrap(patches, tracer, core.predictor, "predict",
          f"{arch}.branch.predict")
    _wrap(patches, tracer, core.predictor, "update",
          f"{arch}.branch.update")
    _wrap(patches, tracer, core.hierarchy, "load_latency",
          f"{arch}.memory.load")
    if arch == "baseline":
        return
    for attr, span in STAGES:
        _wrap(patches, tracer, core, attr, f"{arch}.{span}")
    _wrap(patches, tracer, core.fetch, "cycle", f"{arch}.pipeline.fetch")
    layer = "core" if arch == "msp" else "cpr"
    _wrap(patches, tracer, core, "rename", f"{arch}.{layer}.rename")
    if arch == "msp":
        _wrap(patches, tracer, core.lcs, "step", "msp.core.lcs")


def instrument_core(tracer: Tracer, core) -> None:
    """Span every ``core.run`` and record its counter deltas; when fully
    traced, also arm the machine's stages, rename, LCS, predictor and
    D-cache loads for the duration of each run."""
    arch = core.config.arch
    run = tracer.wrap(f"{arch}.run", core.run)
    full = tracer.level >= FULL

    def timed_run(*args, **kwargs):
        with ExitStack() as patches:
            if full:
                _arm(tracer, core, arch, patches)
            before = _snapshot(core)
            try:
                return run(*args, **kwargs)
            finally:
                for name, old, new in zip(COUNTERS, before,
                                          _snapshot(core)):
                    tracer.count(f"{arch}.{name}", new - old)

    core.run = timed_run


def patch_campaign(tracer: Tracer, patches: ExitStack) -> None:
    """Patch the entry points a campaign worker goes through:
    ``runner.simulate`` becomes the cell root span,
    ``runner.build_core`` instruments every core it builds and, when
    fully traced, the artifact store's ``get``/``put`` become spans.
    Workers fork after this, so they inherit the patches."""
    from repro.sim import runner
    from repro.sim.artifacts import ArtifactStore
    build = runner.build_core

    def build_core(program, config):
        core = build(program, config)
        instrument_core(tracer, core)
        return core

    patches.enter_context(mock.patch.object(
        runner, "simulate", tracer.cell(runner.simulate)))
    patches.enter_context(mock.patch.object(runner, "build_core",
                                            build_core))
    if tracer.level >= FULL:
        _wrap(patches, tracer, ArtifactStore, "get", "artifacts.read")
        _wrap(patches, tracer, ArtifactStore, "put", "artifacts.write")


def cell_runner(tracer: Tracer, core) -> Callable:
    """In-process cell: the instrumented ``core.run`` under a root
    span."""
    instrument_core(tracer, core)
    return tracer.cell(core.run)
