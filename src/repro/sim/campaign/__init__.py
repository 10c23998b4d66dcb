"""Parallel simulation campaigns with a persistent result cache.

A *campaign* is a batch of independent simulations (a figure's
workload x machine grid, an ablation sweep, a fuzz batch). This
subsystem gives every experiment harness three things:

* a :class:`~repro.sim.campaign.job.Job` model — one deterministic
  ``(workload, SimConfig, budget)`` cell with a stable content-hash key;
* a :class:`~repro.sim.campaign.store.ResultStore` — statistics
  persisted on disk by job key, so reruns skip already-simulated cells;
* an executor — :func:`~repro.sim.campaign.executor.run_jobs` runs
  pending jobs serially or on the lease-based worker pool
  (:mod:`~repro.sim.campaign.pool`, ``REPRO_JOBS`` / ``--jobs``), the
  same engine the ``repro serve`` daemon drives.

Grids are expressed declaratively with
:class:`~repro.sim.campaign.spec.CampaignSpec`.
"""

from repro.sim.campaign.executor import (
    CampaignError,
    CampaignInterrupted,
    CampaignReport,
    WorkerLost,
    classify_error,
    default_retries,
    default_workers,
    profile_path,
    run_jobs,
)
from repro.sim.campaign.job import CACHE_VERSION, Job
from repro.sim.campaign.journal import CampaignJournal, JobReceipt
from repro.sim.campaign.spec import CampaignSpec
from repro.sim.campaign.status import status_snapshot
from repro.sim.campaign.store import ResultStore, default_cache_dir

__all__ = [
    "CACHE_VERSION",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignJournal",
    "CampaignReport",
    "CampaignSpec",
    "Job",
    "JobReceipt",
    "ResultStore",
    "WorkerLost",
    "classify_error",
    "default_cache_dir",
    "default_retries",
    "default_workers",
    "profile_path",
    "run_jobs",
    "status_snapshot",
]
