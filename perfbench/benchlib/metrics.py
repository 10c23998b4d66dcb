"""End-to-end and per-layer metrics from rounds and spans.

The names, units and bounds are declared in ``BENCHMARK.json``; this
module computes them.  Every metric is reported on every workload.  A
per-layer metric whose layer a workload never enters reads 0 there,
which is the prediction for that workload.
"""

from __future__ import annotations

import resource
from statistics import median
from typing import Dict, List, Optional

from benchlib.spans import Tracer

ARCHES = ("baseline", "cpr", "msp")
STAGES = ("fetch", "dispatch", "issue", "writeback", "commit")


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its (reaped) workers'."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def round_kips(tracer: Tracer, run_id: int) -> Dict[str, float]:
    """Committed kilo-instructions per second of ``core.run``, per
    machine class: sum of committed over sum of run seconds."""
    seconds = tracer.durations(run_id)
    counts = tracer.counter_totals(run_id)
    return {arch: counts[f"{arch}.committed"] / seconds[f"{arch}.run"]
            / 1000.0 for arch in ARCHES if seconds.get(f"{arch}.run")}


def end_to_end(walls: List[float], kips: List[Dict[str, float]],
               setup_s: float) -> Dict[str, tuple]:
    out = {"wall_s": (median(walls), "s"),
           "setup_s": (setup_s, "s"),
           "peak_rss_mb": (peak_rss_mb(), "MB")}
    for arch in ARCHES:
        out[f"{arch}_kips"] = (median(k.get(arch, 0.0) for k in kips),
                               "kinst/s")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(self_s: Dict[str, float], counts: Dict[str, float],
              *, wall: float, untraced_wall: float,
              workers: int, build_s: float, phase=None,
              ff_executed: int = 0, ff_skipped: int = 0,
              ipc_error_pct: float = 0.0) -> Dict[str, tuple]:
    """Every per-layer metric of one traced round, from its span self
    times and counter totals (see :class:`~benchlib.spans.Tracer`)."""
    out: Dict[str, tuple] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    for arch in ARCHES:
        if arch != "baseline":
            for stage in STAGES:
                put(f"{arch}.pipeline.{stage}_s",
                    self_s.get(f"{arch}.pipeline.{stage}", 0.0), "s")
        for op in ("predict", "update"):
            put(f"{arch}.branch.{op}_s",
                self_s.get(f"{arch}.branch.{op}", 0.0), "s")
        put(f"{arch}.branch.mispredict_rate",
            _ratio(counts.get(f"{arch}.mispredictions", 0),
                   counts.get(f"{arch}.branches", 0)), "ratio")
        put(f"{arch}.memory.load_s",
            self_s.get(f"{arch}.memory.load", 0.0), "s")
        put(f"{arch}.memory.l1d_miss_rate",
            _ratio(counts.get(f"{arch}.l1d_misses", 0),
                   counts.get(f"{arch}.l1d_accesses", 0)), "ratio")
        put(f"{arch}.pipeline.skip_ratio",
            _ratio(counts.get(f"{arch}.skipped", 0),
                   counts.get(f"{arch}.cycles", 0)), "ratio")
        put(f"{arch}.pipeline.issued_per_commit",
            _ratio(counts.get(f"{arch}.issued", 0),
                   counts.get(f"{arch}.committed", 0)), "ratio")
    put("baseline.run_s", self_s.get("baseline.run", 0.0), "s")
    put("msp.core.lcs_s", self_s.get("msp.core.lcs", 0.0), "s")
    put("msp.core.rename_s", self_s.get("msp.core.rename", 0.0), "s")
    put("msp.core.bank_stall_cycles",
        counts.get("msp.bank_stall_cycles", 0), "count")
    put("cpr.cpr.rename_s", self_s.get("cpr.cpr.rename", 0.0), "s")
    put("cpr.cpr.checkpoints_created",
        counts.get("cpr.checkpoints_created", 0), "count")

    seconds = dict(phase.seconds) if phase is not None else {}
    job = seconds.get("job", 0.0)
    for name in ("ff", "warmup", "detail", "replay"):
        put(f"sampling.{name}_s", seconds.get(name, 0.0), "s")
    put("sampling.detail_fraction", _ratio(seconds.get("detail", 0.0),
                                           job), "ratio")
    put("sampling.ipc_error_pct", ipc_error_pct, "%")
    put("artifacts.read_s", self_s.get("artifacts.read", 0.0), "s")
    put("artifacts.write_s", self_s.get("artifacts.write", 0.0), "s")
    put("artifacts.ff_executed", ff_executed, "count")
    put("artifacts.reuse_ratio",
        _ratio(ff_skipped, ff_executed + ff_skipped), "ratio")
    put("campaign.job_s", job, "s")
    put("campaign.queue_wait_s", seconds.get("queue-wait", 0.0), "s")
    put("campaign.overhead_s",
        max(0.0, workers * wall - job) if phase is not None else 0.0, "s")
    put("campaign.cell_setup_s",
        max(0.0, job - seconds.get("detail", 0.0)), "s")
    put("workloads.build_s", build_s, "s")
    put("trace.overhead_s", wall - untraced_wall, "s")
    return out


def ipc_error_pct(sampled: Dict[str, dict],
                  reference: Dict[str, float]) -> Optional[float]:
    """Mean |sampled IPC - full-detail IPC| / full-detail IPC in %."""
    errors = []
    for cell, stats in sampled.items():
        ref = reference.get(cell)
        if not ref:
            return None
        ipc = stats["committed"] / stats["cycles"] if stats["cycles"] else 0
        errors.append(abs(ipc - ref) / ref)
    return 100.0 * sum(errors) / len(errors) if errors else None
