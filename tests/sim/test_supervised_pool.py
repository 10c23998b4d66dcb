"""Leased worker pool, retry/quarantine, and chaos convergence.

The chaos invariant (the PR's acceptance criterion): under injected
worker kills, timeouts and disk faults, ``run_jobs`` completes, retried
jobs carry receipts proving ``attempts > 1``, poison jobs are
quarantined without sinking the grid, and every surviving result is
bit-identical to a fault-free run.
"""

import pytest

from repro.sim import SimConfig
from repro.sim.campaign import CampaignSpec, Job, run_jobs
from repro.sim.campaign.executor import (
    JobTimeout,
    TRANSIENT_ERRORS,
    WorkerLost,
    classify_error,
)
from repro.sim.faults import FaultPlan

#: Provenance counters may legitimately differ on retried cells (a
#: retry can replay checkpoints its first attempt recorded); everything
#: else must be bit-identical.
PROVENANCE = {"checkpoint_hits", "ff_executed_instructions",
              "ff_skipped_instructions"}


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")


def _grid_jobs(budget=250):
    spec = CampaignSpec("chaos", ["gzip", "crafty"],
                        [SimConfig.baseline(), SimConfig.msp(8)], budget)
    return spec.jobs()


def _payload(stats):
    return {k: v for k, v in stats.to_dict().items()
            if k not in PROVENANCE}


def test_classification():
    assert classify_error(JobTimeout("t")) == "transient"
    assert classify_error(WorkerLost("w")) == "transient"
    assert classify_error(OSError(28, "enospc")) == "transient"
    assert classify_error(AssertionError("a")) == "permanent"
    assert classify_error(ValueError("v")) == "permanent"
    assert JobTimeout in TRANSIENT_ERRORS


def test_worker_kill_respawns_pool_and_converges():
    jobs = _grid_jobs()
    clean = run_jobs(jobs, workers=2, use_cache=False)
    faulted = run_jobs(jobs, workers=2, use_cache=False, retries=2,
                       fault_plan=FaultPlan.parse("worker-kill@1"))
    assert not faulted.failures
    assert faulted.retried_attempts >= 1
    retried = [r for r in faulted.receipts.values()
               if r.outcome == "retried"]
    assert retried and all(r.attempts > 1 for r in retried)
    assert any(r.error_class == "WorkerLost" for r in retried)
    assert set(faulted.results) == set(clean.results)
    for key, stats in clean.results.items():
        assert _payload(faulted.results[key]) == _payload(stats)


def test_injected_timeout_is_retried_then_succeeds():
    jobs = _grid_jobs()
    report = run_jobs(jobs, workers=1, use_cache=False, retries=1,
                      fault_plan=FaultPlan.parse("timeout@1"))
    assert not report.failures and report.simulated == 4
    retried = [r for r in report.receipts.values()
               if r.outcome == "retried"]
    assert len(retried) == 1
    assert retried[0].attempts == 2
    assert retried[0].error_class == "JobTimeout"
    assert any("injected job timeout" in e for e in retried[0].errors)


def test_injected_oserror_is_transient():
    job = Job("gzip", SimConfig.baseline(), 250)
    report = run_jobs([job], workers=1, use_cache=False, retries=1,
                      fault_plan=FaultPlan.parse("oserror@1"))
    assert not report.failures
    receipt = report.receipts[job.cache_key()]
    assert receipt.outcome == "retried" and receipt.attempts == 2
    assert receipt.error_class == "OSError"


def test_assertion_quarantined_immediately_without_sinking_grid():
    jobs = _grid_jobs()
    report = run_jobs(jobs, workers=1, use_cache=False, retries=3,
                      raise_on_error=False,
                      fault_plan=FaultPlan.parse("assert@1"))
    assert report.quarantined == 1 and len(report.failures) == 1
    quarantined = [r for r in report.receipts.values()
                   if r.outcome == "quarantined"]
    assert len(quarantined) == 1
    # Permanent: one attempt, never retried despite the budget of 3.
    assert quarantined[0].attempts == 1
    assert quarantined[0].error_class == "AssertionError"
    # The other three cells finished normally.
    assert report.simulated == 3
    assert len(report.results) == 3


def test_retry_budget_exhaustion_quarantines():
    job = Job("gzip", SimConfig.baseline(), 250)
    report = run_jobs([job], workers=1, use_cache=False, retries=1,
                      raise_on_error=False,
                      fault_plan=FaultPlan.parse("timeout@1,timeout@2"))
    receipt = report.receipts[job.cache_key()]
    assert receipt.outcome == "quarantined"
    assert receipt.attempts == 2 and len(receipt.errors) == 2
    assert report.quarantined == 1 and not report.results


def test_serial_worker_kill_degrades_to_worker_lost():
    job = Job("crafty", SimConfig.baseline(), 250)
    report = run_jobs([job], workers=1, use_cache=False, retries=1,
                      fault_plan=FaultPlan.parse("worker-kill@1"))
    assert not report.failures
    receipt = report.receipts[job.cache_key()]
    assert receipt.outcome == "retried"
    assert receipt.error_class == "WorkerLost"


def test_parallel_chaos_matches_serial_clean(tmp_path):
    """The full chaos invariant: kills + timeouts in a parallel run
    still converge to the serial fault-free results."""
    jobs = _grid_jobs()
    clean = run_jobs(jobs, workers=1, use_cache=False)
    faulted = run_jobs(jobs, workers=2, cache_dir=tmp_path, retries=2,
                       fault_plan=FaultPlan.parse(
                           "worker-kill@2,timeout@1"))
    assert not faulted.failures
    assert faulted.retried_attempts >= 2
    for key, stats in clean.results.items():
        assert _payload(faulted.results[key]) == _payload(stats)


def test_retries_zero_quarantines_on_first_transient():
    job = Job("gzip", SimConfig.baseline(), 250)
    report = run_jobs([job], workers=1, use_cache=False, retries=0,
                      raise_on_error=False,
                      fault_plan=FaultPlan.parse("timeout@1"))
    assert report.quarantined == 1
    assert report.receipts[job.cache_key()].attempts == 1


def test_env_retry_knobs(monkeypatch):
    from repro.sim.campaign.executor import default_backoff, \
        default_retries
    monkeypatch.setenv("REPRO_RETRIES", "3")
    assert default_retries() == 3
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
    assert default_backoff() == 0.5
    monkeypatch.setenv("REPRO_RETRIES", "nope")
    from repro.defaults import EnvConfigError
    with pytest.raises(EnvConfigError):
        default_retries()


def _quarantined_via_run_jobs(job, tmp_path, monkeypatch):
    report = run_jobs([job], workers=2, cache_dir=tmp_path,
                      raise_on_error=False,
                      fault_plan=FaultPlan.parse("assert@1"))
    return report.receipts[job.cache_key()]


def _quarantined_via_service(job, tmp_path, monkeypatch):
    import time

    from repro.sim.campaign import CampaignJournal
    from repro.sim.service import CampaignService
    monkeypatch.setenv("REPRO_FAULT_INJECT", "assert@1")
    service = CampaignService(cache_dir=tmp_path, workers=2)
    service.start()
    try:
        ack = service.submit({"workloads": [job.workload],
                              "machines": [job.config.to_dict()],
                              "instructions": job.instructions})
        [key] = service.queue.campaign(ack["campaign"])["keys"]
        assert key == job.cache_key()
        deadline = time.monotonic() + 60
        while service.queue.outcome(key) is None:
            assert time.monotonic() < deadline, "job never settled"
            time.sleep(0.05)
    finally:
        service.stop()
    return CampaignJournal(tmp_path).receipts()[key]


@pytest.mark.parametrize("engine", [_quarantined_via_run_jobs,
                                    _quarantined_via_service],
                         ids=["run_jobs", "service"])
def test_quarantined_receipt_carries_worker_traceback(engine, tmp_path,
                                                      monkeypatch):
    """Both drivers of the worker pool keep the frame that raised, as
    formatted in the worker, in the receipt."""
    job = Job("gzip", SimConfig.baseline(), 250)
    receipt = engine(job, tmp_path, monkeypatch)
    assert receipt.outcome == "quarantined"
    assert receipt.error_class == "AssertionError"
    assert "_apply_injected_fault" in receipt.errors[-1]
