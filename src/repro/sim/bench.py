"""Simulator-throughput benchmark: committed instructions per second.

Not a paper figure — this tracks the *performance trajectory* of the
simulator itself across PRs.  Four modes run the same workload/machine:

* ``emulator``    — the fast interpreter (``Emulator.run_fast``), the
  sampled engine's fast-forward ceiling;
* ``ff+warmup``   — ``run_fast`` with the warm-up engine fused in
  (what fast-forward actually costs);
* ``detailed``    — the cycle-level core (full-detail cost);
* ``sampled``     — the complete sampled engine (periodic windows),
  reported as *represented* instructions per second;
* ``simpoint``    — the sampled engine under SimPoint phase
  clustering (BBV profiling + k-medoids representative windows);
  its record carries ``detail_instructions`` and the
  ``detail_reduction_vs_sampled`` ratio, CI-guarded against
  :data:`MIN_SIMPOINT_DETAIL_REDUCTION`;
* ``campaign-amortized`` — a 3-config simpoint mini-grid, cold (no
  checkpoint store: every config pays fast-forward + profiling) vs
  warm (shared pre-populated store: zero functional execution); its
  ``amortized_speedup`` ratio is CI-guarded against
  :data:`MIN_CAMPAIGN_AMORTIZATION`.

Two reference modes (``--ref``) time the pre-overhaul paths — the
``step()`` interpreter and the per-retire observer — so the speedup of
the fused fast path stays measurable in place.

:func:`measure` returns one machine-readable record (inst/s per mode,
budgets, git SHA); :func:`write_json` lands it in
``BENCH_throughput.json`` so the trajectory is tracked across PRs, and
:func:`check_regression` gates CI on it (the ``repro bench`` command
wires all three together).
"""

from __future__ import annotations

import json
import subprocess
import time
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

#: The JSON artifact's schema tag (bump on incompatible changes).
SCHEMA = "repro-bench-throughput/1"

#: Mode names in canonical order.
MODES = ("emulator", "ff+warmup", "detailed", "sampled", "simpoint",
         "campaign-amortized")
REFERENCE_MODES = ("emulator-ref", "ff+warmup-ref")

#: The modes the CI regression gate watches (the PR-over-PR trajectory
#: this subsystem exists to protect): the fast-forward path since PR 3,
#: the detailed cycle cores since the event-scheduler PR, and the two
#: end-to-end sampled engines since the simpoint PR.
GATED_MODES = ("ff+warmup", "detailed", "sampled", "simpoint",
               "campaign-amortized")
#: Backwards-compatible alias (the historical single gated mode).
GATED_MODE = "ff+warmup"

#: Floor on the simpoint cell's detailed-work reduction over periodic
#: sampling (the acceptance criterion of the simpoint PR): a simpoint
#: record whose ``detail_reduction_vs_sampled`` drops below this fails
#: the regression check outright, independent of inst/s rates.
MIN_SIMPOINT_DETAIL_REDUCTION = 2.0

#: Floor on the campaign-amortized cell's cold-over-warm grid speedup
#: (the acceptance criterion of the checkpoint-store PR): a record
#: whose ``amortized_speedup`` drops below this fails the regression
#: check outright — the store no longer pays for itself.
MIN_CAMPAIGN_AMORTIZATION = 2.0

#: Ceiling on the detailed core's slowdown relative to the emulator
#: measured in the same record (the acceptance criterion of the
#: SoA-window PR).  A machine-independent ratio, like the two floors
#: above: both legs run back-to-back in one process, so load cancels.
#: The seed detailed core sat at ~43x the emulator; the SoA in-flight
#: window brought it to ~36x, and the gate holds the line between the
#: two.  (That ~36x also included generated per-static-instruction
#: exec closures, since removed: they were worth 3-11% on the detailed
#: cores and a net loss on short cells.)  An
#: emulator-only speedup can tighten this ratio — that is deliberate:
#: the contract is that the detailed core tracks the functional
#: interpreter's performance work, not that it never regresses alone.
MAX_DETAILED_SLOWDOWN_VS_EMULATOR = 42.0


def git_sha() -> str:
    """The repository HEAD this measurement describes (``unknown``
    outside a git checkout)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def _tage_config():
    from repro.sim.config import SimConfig
    return SimConfig.baseline(predictor="tage")


def _rate(instructions: int, seconds: float) -> float:
    return instructions / seconds if seconds else 0.0


def measure_mode(mode: str, workload: str, emulate_n: int, detail_n: int,
                 sampled_n: int) -> Dict[str, float]:
    """Time one mode once and return its record (instructions, seconds,
    instructions_per_second, plus sampled-cost fields where relevant)."""
    from repro.isa.emulator import Emulator
    from repro.sim.runner import simulate
    from repro.sim.sampling.warmup import WarmupEngine
    from repro.workloads import get_program

    program = get_program(workload)
    program.decoded          # predecode outside the timed region
    config = _tage_config()

    if mode == "emulator":
        emulator = Emulator(program)
        t0 = time.perf_counter()
        result = emulator.run_fast(emulate_n)
        elapsed = time.perf_counter() - t0
        retired = result.retired
    elif mode == "emulator-ref":
        emulator = Emulator(program)
        t0 = time.perf_counter()
        result = emulator.run(max_instructions=emulate_n)
        elapsed = time.perf_counter() - t0
        retired = result.retired
    elif mode == "ff+warmup":
        emulator = Emulator(program)
        warm = WarmupEngine(config, program)
        t0 = time.perf_counter()
        result = emulator.run_fast(emulate_n, warmup=warm)
        elapsed = time.perf_counter() - t0
        retired = result.retired
    elif mode == "ff+warmup-ref":
        emulator = Emulator(program)
        emulator.observer = WarmupEngine(config, program)
        t0 = time.perf_counter()
        result = emulator.run(max_instructions=emulate_n)
        elapsed = time.perf_counter() - t0
        retired = result.retired
    elif mode == "detailed":
        from repro.obs import PhaseProfile
        prof = PhaseProfile()
        t0 = time.perf_counter()
        stats = simulate(program, config, max_instructions=detail_n,
                         profile=prof)
        elapsed = time.perf_counter() - t0
        retired = stats.committed
        return {"instructions": retired, "seconds": elapsed,
                "instructions_per_second": _rate(retired, elapsed),
                "phase_seconds": dict(prof.seconds)}
    elif mode in ("sampled", "simpoint"):
        # artifacts=False: these cells measure the full engine
        # including fast-forward — a populated checkpoint store would
        # silently turn them into replay benchmarks (and benchmark runs
        # must not pollute the user's campaign store either way).
        from repro.obs import PhaseProfile
        prof = PhaseProfile()
        sampling = True if mode == "sampled" else "simpoint"
        t0 = time.perf_counter()
        stats = simulate(program, config, max_instructions=sampled_n,
                         sampling=sampling, artifacts=False,
                         profile=prof)
        elapsed = time.perf_counter() - t0
        record = {
            "instructions": stats.committed,
            "seconds": elapsed,
            "instructions_per_second": _rate(stats.committed, elapsed),
            "detail_instructions": stats.detail_instructions,
            "phase_seconds": dict(prof.seconds),
        }
        return record
    elif mode == "campaign-amortized":
        return _measure_campaign_amortized(program, sampled_n)
    else:
        raise ValueError(f"unknown bench mode {mode!r}; choose from "
                         f"{MODES + REFERENCE_MODES}")
    return {"instructions": retired, "seconds": elapsed,
            "instructions_per_second": _rate(retired, elapsed)}


def _measure_campaign_amortized(program, sampled_n: int) -> Dict[str, float]:
    """Time a 3-config simpoint mini-grid cold (no checkpoint store —
    every config pays fast-forward + BBV profiling) and warm (shared
    pre-populated store — pure replay, zero functional execution).

    The warm leg is the headline rate: it is the marginal cost of one
    more config in a campaign grid, which is what the store exists to
    shrink. ``amortized_speedup`` = cold/warm grid wall-clock.
    """
    import shutil
    import tempfile

    from repro.obs import PhaseProfile
    from repro.sim.artifacts import ArtifactStore
    from repro.sim.config import SimConfig
    from repro.sim.runner import simulate

    configs = [SimConfig.baseline(predictor="tage"),
               SimConfig.msp(8, predictor="tage"),
               SimConfig.msp(16, predictor="tage")]
    represented = 0
    t0 = time.perf_counter()
    for config in configs:
        stats = simulate(program, config, max_instructions=sampled_n,
                         sampling="simpoint", artifacts=False)
        represented += stats.committed
    cold = time.perf_counter() - t0
    tmp = tempfile.mkdtemp(prefix="repro-bench-artifacts-")
    prof = PhaseProfile()
    try:
        store = ArtifactStore(tmp)
        # Populate untimed: the record pass is the grid's once-per-
        # campaign cost, the timed warm leg its steady-state marginal.
        simulate(program, configs[0], max_instructions=sampled_n,
                 sampling="simpoint", artifacts=store)
        t0 = time.perf_counter()
        for config in configs:
            simulate(program, config, max_instructions=sampled_n,
                     sampling="simpoint", artifacts=store,
                     profile=prof)
        warm = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "instructions": represented,
        "seconds": warm,
        "instructions_per_second": _rate(represented, warm),
        "cold_seconds": cold,
        "warm_seconds": warm,
        "amortized_speedup": cold / warm if warm else 0.0,
        "phase_seconds": dict(prof.seconds),
    }


def measure(workload: str = "gzip", emulate_n: int = 200_000,
            detail_n: int = 20_000, sampled_n: int = 200_000,
            modes: Optional[List[str]] = None,
            repeats: int = 1) -> dict:
    """Measure the requested modes and return the full bench record.

    ``repeats`` > 1 keeps the best (highest inst/s) run per mode —
    throughput is a property of the code, noise only subtracts.
    """
    record = {
        "schema": SCHEMA,
        "workload": workload,
        "git_sha": git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "budgets": {"emulate": emulate_n, "detail": detail_n,
                    "sampled": sampled_n},
        "modes": {},
    }
    for mode in (modes or MODES):
        # One small untimed priming run per mode: we report steady-state
        # throughput, not allocator/codepath cold-start.
        measure_mode(mode, workload, min(5000, emulate_n),
                     min(500, detail_n), min(5000, sampled_n))
        best = None
        for _ in range(max(1, repeats)):
            current = measure_mode(mode, workload, emulate_n, detail_n,
                                   sampled_n)
            if best is None or (current["instructions_per_second"]
                                > best["instructions_per_second"]):
                best = current
        record["modes"][mode] = best
    _annotate_simpoint_reduction(record)
    return record


def _annotate_simpoint_reduction(record: dict) -> None:
    """Stamp the simpoint cell with its detailed-work reduction over
    the periodic ``sampled`` cell (same represented budget, so the
    detail_instructions ratio is the honest comparison the simpoint
    PR's >= 2x acceptance criterion guards)."""
    cells = record.get("modes", {})
    periodic = cells.get("sampled", {}).get("detail_instructions")
    simpoint = cells.get("simpoint")
    if periodic and simpoint and simpoint.get("detail_instructions"):
        simpoint["detail_reduction_vs_sampled"] = (
            periodic / simpoint["detail_instructions"])


def write_json(path: str, record: dict) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def check_regression(current: dict, baseline: dict,
                     tolerance: float = 0.30,
                     mode: str = GATED_MODE) -> Optional[str]:
    """Compare ``mode``'s inst/s against a committed baseline record.

    Returns a human-readable failure message when the current rate is
    more than ``tolerance`` below the baseline, None when within
    bounds (or when either record lacks the mode — absence is not a
    regression).  Records measured on different workloads are not
    comparable and always fail: silently passing would let a
    ``--workload`` run overwrite the committed baseline with rates the
    CI gate (which measures the baseline's workload) can't gate on.
    """
    mismatch = _workload_mismatch(current, baseline)
    if mismatch is not None:
        return mismatch
    try:
        new = current["modes"][mode]["instructions_per_second"]
        old = baseline["modes"][mode]["instructions_per_second"]
    except KeyError:
        return None
    if old <= 0:
        return None
    floor = old * (1.0 - tolerance)
    if new < floor:
        return (f"{mode} throughput regressed: {new:,.0f} inst/s vs "
                f"baseline {old:,.0f} (floor {floor:,.0f} at "
                f"-{tolerance:.0%}; baseline git {baseline.get('git_sha')})")
    return None


def _workload_mismatch(current: dict, baseline: dict) -> Optional[str]:
    """Failure message when the two records measure different
    workloads (their rates are never comparable), else None."""
    current_wl = current.get("workload")
    baseline_wl = baseline.get("workload")
    if current_wl and baseline_wl and current_wl != baseline_wl:
        return (f"baseline measures workload {baseline_wl!r} but this "
                f"run measured {current_wl!r}; rates are not "
                f"comparable (re-run with --workload {baseline_wl} or "
                f"point --baseline at a {current_wl} record)")
    return None


def check_simpoint_reduction(current: dict) -> Optional[str]:
    """Failure message when the record's simpoint cell no longer cuts
    detailed work >= :data:`MIN_SIMPOINT_DETAIL_REDUCTION` x below
    periodic sampling, else None (absence of the cell or of the ratio
    is not a failure — e.g. a --ref-only or pre-simpoint record).

    The floor only applies when the record's sampled budget holds at
    least ``floor x clusters`` default-sized intervals — with fewer,
    even perfect clustering cannot reach the floor (every cluster must
    keep >= 1 representative window), so a small ``-n`` smoke run is
    not a regression signal."""
    reduction = (current.get("modes", {}).get("simpoint", {})
                 .get("detail_reduction_vs_sampled"))
    if reduction is None:
        return None
    from repro.sim.sampling import SamplingParams
    defaults = SamplingParams()
    budget = current.get("budgets", {}).get("sampled")
    achievable = (MIN_SIMPOINT_DETAIL_REDUCTION * defaults.clusters
                  * defaults.period)
    if budget is not None and budget < achievable:
        return None
    if reduction < MIN_SIMPOINT_DETAIL_REDUCTION:
        return (f"simpoint detailed-work reduction regressed: "
                f"{reduction:.2f}x vs periodic sampling (floor "
                f"{MIN_SIMPOINT_DETAIL_REDUCTION:.1f}x)")
    return None


def check_campaign_amortization(current: dict) -> Optional[str]:
    """Failure message when the record's campaign-amortized cell no
    longer shows >= :data:`MIN_CAMPAIGN_AMORTIZATION` x cold-over-warm
    grid speedup, else None (absence of the cell or of the ratio is
    not a failure — e.g. a pre-store record).

    Like :func:`check_simpoint_reduction`, the floor only applies at
    budgets large enough for fast-forward + profiling to dominate the
    per-config cost: below that, the measured windows (which both legs
    pay identically) swamp the functional work the store amortizes, so
    a small ``-n`` smoke run is not a regression signal."""
    speedup = (current.get("modes", {}).get("campaign-amortized", {})
               .get("amortized_speedup"))
    if speedup is None:
        return None
    from repro.sim.sampling import SamplingParams
    defaults = SamplingParams()
    budget = current.get("budgets", {}).get("sampled")
    achievable = (MIN_CAMPAIGN_AMORTIZATION * defaults.clusters
                  * defaults.period)
    if budget is not None and budget < achievable:
        return None
    if speedup < MIN_CAMPAIGN_AMORTIZATION:
        return (f"campaign checkpoint amortization regressed: "
                f"{speedup:.2f}x cold-over-warm grid speedup (floor "
                f"{MIN_CAMPAIGN_AMORTIZATION:.1f}x)")
    return None


def check_detailed_slowdown(current: dict) -> Optional[str]:
    """Failure message when the record's detailed core runs more than
    :data:`MAX_DETAILED_SLOWDOWN_VS_EMULATOR` x slower than the
    emulator measured in the same record, else None (absence of either
    mode is not a failure — e.g. a partial or --ref-only record).

    Like the two ratio floors above, the ceiling only applies at
    detail budgets large enough to amortize the fixed core-build
    cost the detailed leg pays and the emulator leg does not: a small ``-n`` smoke run is not a regression signal."""
    modes = current.get("modes", {})
    detailed = modes.get("detailed", {}).get("instructions_per_second")
    emulator = modes.get("emulator", {}).get("instructions_per_second")
    if not detailed or not emulator:
        return None
    budget = current.get("budgets", {}).get("detail")
    if budget is not None and budget < 10_000:
        return None
    slowdown = emulator / detailed
    if slowdown > MAX_DETAILED_SLOWDOWN_VS_EMULATOR:
        return (f"detailed-core relative cost regressed: "
                f"{slowdown:.1f}x slower than the emulator (ceiling "
                f"{MAX_DETAILED_SLOWDOWN_VS_EMULATOR:.1f}x)")
    return None


def check_regressions(current: dict, baseline: dict,
                      tolerance: float = 0.30,
                      modes: Sequence[str] = GATED_MODES) -> List[str]:
    """Run :func:`check_regression` for every gated mode plus the
    simpoint detailed-work-reduction floor; returns the (possibly
    empty) list of failure messages.  A workload mismatch is reported
    once, not per mode."""
    mismatch = _workload_mismatch(current, baseline)
    if mismatch is not None:
        return [mismatch]
    failures: List[str] = []
    for mode in modes:
        failure = check_regression(current, baseline, tolerance, mode)
        if failure is not None:
            failures.append(failure)
    reduction_failure = check_simpoint_reduction(current)
    if reduction_failure is not None:
        failures.append(reduction_failure)
    amortization_failure = check_campaign_amortization(current)
    if amortization_failure is not None:
        failures.append(amortization_failure)
    slowdown_failure = check_detailed_slowdown(current)
    if slowdown_failure is not None:
        failures.append(slowdown_failure)
    return failures


def format_table(record: dict) -> str:
    """One aligned line per measured mode, for the CLI."""
    lines = [f"workload {record['workload']}  git {record['git_sha'][:12]}"
             f"  budgets {record['budgets']}"]
    for mode, row in record["modes"].items():
        extra = ""
        if "detail_instructions" in row:
            extra = (f"  ({row['detail_instructions']:,d} detailed of "
                     f"{row['instructions']:,d} represented)")
        if "detail_reduction_vs_sampled" in row:
            extra += (f"  [{row['detail_reduction_vs_sampled']:.1f}x "
                      f"less detail than sampled]")
        if "amortized_speedup" in row:
            extra += (f"  [cold {row['cold_seconds']:.2f}s -> warm "
                      f"{row['warm_seconds']:.2f}s, "
                      f"{row['amortized_speedup']:.1f}x]")
        lines.append(f"  {mode:14s} {row['instructions_per_second']:12,.0f}"
                     f" inst/s{extra}")
        phases = row.get("phase_seconds")
        if phases:
            total = sum(phases.values())
            if total > 0:
                parts = " · ".join(
                    f"{name} {100.0 * seconds / total:.0f}%"
                    for name, seconds in sorted(
                        phases.items(), key=lambda kv: -kv[1]))
                lines.append(f"  {'':14s} phases: {parts} "
                             f"(spans {total:.2f}s)")
    return "\n".join(lines)


__all__ = ["GATED_MODE", "GATED_MODES", "MAX_DETAILED_SLOWDOWN_VS_EMULATOR",
           "MIN_CAMPAIGN_AMORTIZATION",
           "MIN_SIMPOINT_DETAIL_REDUCTION", "MODES", "REFERENCE_MODES",
           "SCHEMA", "check_campaign_amortization",
           "check_detailed_slowdown", "check_regression",
           "check_regressions", "check_simpoint_reduction",
           "format_table", "git_sha", "load_json", "measure",
           "measure_mode", "write_json"]
