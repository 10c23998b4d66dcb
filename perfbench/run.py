"""Repository benchmark: detailed-core rates and cold Fig. 7 grids.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cores-detail --seed 1 \\
        --seconds 20 --trace 0

Workloads are described in ``benchlib/workloads.py`` and metrics in
``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (simulated cells) and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separately traced round with ``--trace 1``.  Progress goes
to standard error.  Runs are hermetic: every ``REPRO_*`` variable is
cleared, and caches and stores live in fresh directories under
``.perfbench-tmp/`` that are deleted afterwards.  Spans are written to
``.perfbench-out/`` when the run ends.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchlib.sandbox import Sandbox  # noqa: E402

#: Set-up repetitions whose median is ``setup_s`` (imports once).
SETUP_REPEATS = 9


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import every program module a round touches; return seconds.
    The benchmark's own modules and the oracles are imported later,
    outside this time."""
    t0 = time.perf_counter()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("perfbench: no src/repro next to perfbench/; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import concurrent.futures.process  # noqa: F401
    import repro.sim.artifacts  # noqa: F401
    import repro.sim.campaign  # noqa: F401
    import repro.sim.runner  # noqa: F401
    import repro.sim.sampling.engine  # noqa: F401
    import repro.workloads  # noqa: F401
    return time.perf_counter() - t0


def check_outputs(workload, rounds, pins, sandbox: Sandbox) -> dict:
    """Every output check, run after the timed rounds: returns
    ``{(round, cell): reason}`` for each failed cell."""
    from benchlib import checks
    failed = {}
    for rnd in rounds:
        for cell, why in rnd.failed.items():
            failed[(rnd.run_id, cell)] = why
    expected = (pins or {}).get(workload.name)
    reference = expected or rounds[0].digests()
    for rnd in rounds:
        for cell in checks.mismatches(rnd.digests(), reference):
            failed.setdefault((rnd.run_id, cell), "digest mismatch")
    if expected is None:
        for cell, why in workload.oracle(rounds[0]).items():
            failed[(0, cell)] = why
    if not sandbox.default_cache_untouched():
        failed[(-1, "*")] = "something wrote to the default cache dir"
    return failed


def run(args, sandbox: Sandbox) -> dict:
    import_s = import_program()
    from benchlib import checks, metrics
    from benchlib.spans import CELLS, FULL, Tracer
    from benchlib.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, sandbox)
    pins = checks.load_pins(args.seed)
    if pins and pins["instructions"][workload.name] != workload.instructions:
        raise SystemExit(f"perfbench: pins for seed {args.seed} were made "
                         f"at another per-cell budget; regenerate them "
                         f"with perfbench/pin.py")

    builds, setups = [], []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        builds.append(workload.setup(keep=i == SETUP_REPEATS - 1))
        sandbox.fresh_dir("setup").rmdir()
        setups.append(time.perf_counter() - t0)
        gc.collect()        # drop this copy before the next is built
    setup_s = import_s + median(setups)
    log(f"{workload.name} seed {args.seed}: set-up {setup_s:.3f}s "
        f"(imports {import_s:.3f}s); "
        f"{'pinned' if pins else 'no pinned'} digests")

    tracer = Tracer(CELLS)
    workload.warmup()
    rounds = []
    t0 = time.perf_counter()
    while True:
        # Cores hold reference cycles, so their memory comes back only
        # at a full collection.  Collecting between rounds makes every
        # round start from the same heap, and keeps peak_rss_mb from
        # depending on how many rounds fit in --seconds.
        gc.collect()
        rounds.append(workload.round(tracer, len(rounds)))
        log(f"round {len(rounds)}: {rounds[-1].wall:.3f}s")
        if args.trace or time.perf_counter() - t0 >= args.seconds:
            break
    traced = None
    if args.trace:
        tracer.level = FULL
        gc.collect()
        traced = workload.round(tracer, len(rounds), profile=True)
        log(f"traced round: {traced.wall:.3f}s")

    if traced is None:
        # Before the output checks, whose oracles run in this process
        # and would otherwise count towards its peak RSS.
        kips = [metrics.round_kips(tracer, r.run_id) for r in rounds]
        values = metrics.end_to_end([r.wall for r in rounds], kips,
                                    setup_s)
    all_rounds = rounds + ([traced] if traced else [])
    attempted = len(workload.cells()) * len(all_rounds)
    failed = check_outputs(workload, all_rounds, pins, sandbox)
    if traced is not None:
        error = 0.0
        if workload.name == "fig7-sampled":
            ref_ipc = (pins or {}).get("fig7-full-ipc")
            if ref_ipc is None:
                log("no pinned full-detail reference: simulating it")
                ref_ipc = workload.full_detail_ipc()
            error = metrics.ipc_error_pct(traced.stats, ref_ipc) or 0.0
        self_s = tracer.self_times(traced.run_id)
        values = metrics.per_layer(
            self_s, tracer.counter_totals(traced.run_id), wall=traced.wall,
            untraced_wall=rounds[0].wall, workers=workload.workers,
            build_s=median(builds), phase=traced.phase,
            ff_executed=traced.ff_executed, ff_skipped=traced.ff_skipped,
            ipc_error_pct=error)
        if sum(self_s.values()) > traced.wall * workload.workers:
            failed[(traced.run_id, "*")] = (
                "span self times sum to more than wall x workers")
    for (run_id, cell), why in sorted(failed.items()):
        log(f"FAILED round {run_id} {cell}: {why.strip()}")
    out_dir = ROOT / ".perfbench-out"
    tracer.dump(out_dir / f"spans-{workload.name}-seed{args.seed}"
                          f"-trace{args.trace}.pkl")
    return {"correct": not failed, "attempted": attempted,
            "failed": min(len(failed), attempted),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    with Sandbox(ROOT / ".perfbench-tmp") as sandbox:
        result = run(args, sandbox)
    log(f"done in {time.perf_counter() - T_START:.1f}s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
