"""Campaign journal, graceful drain (SIGINT/SIGTERM) and --resume."""

import json
import os
import signal

import pytest

from repro.sim import SimConfig, experiments
from repro.sim.campaign import (
    CampaignInterrupted,
    CampaignJournal,
    CampaignSpec,
    JobReceipt,
    run_jobs,
)


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")


def _grid_jobs(budget=250):
    spec = CampaignSpec("j", ["gzip", "crafty"],
                        [SimConfig.baseline(), SimConfig.msp(8)], budget)
    return spec.jobs()


# --------------------------------------------------------------------- #
# Journal basics.
# --------------------------------------------------------------------- #

def test_receipts_journaled_next_to_store(tmp_path):
    run_jobs(_grid_jobs(), workers=1, cache_dir=tmp_path)
    journal = CampaignJournal(tmp_path)
    assert journal.path == tmp_path / "journal.jsonl"
    receipts = journal.receipts()
    assert len(receipts) == 4
    assert all(r.outcome == "ok" and r.attempts == 1
               for r in receipts.values())
    assert journal.summary() == {"ok": 4, "retried": 0,
                                 "quarantined": 0}


def test_receipt_roundtrip():
    receipt = JobReceipt(key="k", label="gzip/msp@250",
                         outcome="quarantined", attempts=3,
                         error_class="JobTimeout",
                         errors=["a", "b", "c"], wall_seconds=1.25)
    assert JobReceipt.from_dict(receipt.to_dict()) == receipt


def test_no_cache_run_keeps_receipts_in_memory_only(tmp_path):
    report = run_jobs(_grid_jobs(), workers=1, use_cache=False,
                      cache_dir=tmp_path)
    assert len(report.receipts) == 4
    assert not (tmp_path / "journal.jsonl").exists()


def test_journal_tolerates_torn_tail_line(tmp_path):
    run_jobs(_grid_jobs(), workers=1, cache_dir=tmp_path)
    with (tmp_path / "journal.jsonl").open("a") as fh:
        fh.write('{"event": "receipt", "key"')
    assert len(CampaignJournal(tmp_path).receipts()) == 4


def test_later_campaign_supersedes_receipts(tmp_path):
    jobs = _grid_jobs()
    run_jobs(jobs, workers=1, cache_dir=tmp_path)
    # Warm rerun: cache hits never execute, so no new receipts.
    run_jobs(jobs, workers=1, cache_dir=tmp_path)
    journal = CampaignJournal(tmp_path)
    assert len(journal.receipts()) == 4
    events = [json.loads(line) for line
              in journal.path.read_text().splitlines()]
    assert [e["event"] for e in events].count("begin") >= 1


# --------------------------------------------------------------------- #
# Resume.
# --------------------------------------------------------------------- #

def test_resume_executes_only_missing_cells(tmp_path):
    jobs = _grid_jobs()
    first = run_jobs(jobs[:2], workers=1, cache_dir=tmp_path)
    assert first.simulated == 2
    resumed = run_jobs(jobs, workers=1, cache_dir=tmp_path, resume=True)
    assert resumed.hits == 2 and resumed.simulated == 2
    assert len(resumed.results) == 4
    # Only the missing cells executed, so only they carry receipts.
    assert len(resumed.receipts) == 2


def test_fully_complete_resume_simulates_nothing(tmp_path):
    jobs = _grid_jobs()
    run_jobs(jobs, workers=1, cache_dir=tmp_path)
    resumed = run_jobs(jobs, workers=1, cache_dir=tmp_path, resume=True)
    assert resumed.hits == 4 and resumed.simulated == 0


# --------------------------------------------------------------------- #
# Graceful drain.
# --------------------------------------------------------------------- #

def _kill_after_first(signum):
    fired = {"done": False}

    def progress(line):
        if not fired["done"]:
            fired["done"] = True
            os.kill(os.getpid(), signum)
    return progress


@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_drains_run_and_journals_gap(tmp_path, workers):
    """Serial and pooled runs drain alike: finished results are kept,
    the gap is journalled, and a resume completes the grid."""
    jobs = _grid_jobs()
    report = run_jobs(jobs, workers=workers, cache_dir=tmp_path,
                      progress=_kill_after_first(signal.SIGTERM))
    assert report.interrupted == "SIGTERM"
    assert 1 <= report.simulated < 4
    events = [json.loads(line) for line in
              (tmp_path / "journal.jsonl").read_text().splitlines()]
    drains = [e for e in events if e["event"] == "interrupted"]
    assert len(drains) == 1
    assert drains[0]["signal"] == "SIGTERM"
    assert len(drains[0]["missing"]) == 4 - report.simulated

    # Resume picks up exactly the missing cells.
    resumed = run_jobs(jobs, workers=workers, cache_dir=tmp_path,
                       resume=True)
    assert resumed.interrupted is None
    assert resumed.hits == report.simulated
    assert resumed.simulated == 4 - report.simulated
    assert len(resumed.results) == 4


def test_sigint_drain_reports_signal_name(tmp_path):
    report = run_jobs(_grid_jobs(), workers=1, cache_dir=tmp_path,
                      progress=_kill_after_first(signal.SIGINT))
    assert report.interrupted == "SIGINT"


def test_run_grid_raises_campaign_interrupted(tmp_path):
    with pytest.raises(CampaignInterrupted) as err:
        experiments.run_grid(
            "drain", ["gzip"],
            [SimConfig.baseline(), SimConfig.msp(8)], 250,
            jobs=1, cache_dir=tmp_path,
            progress=_kill_after_first(signal.SIGTERM))
    assert err.value.signal_name == "SIGTERM"
    assert "--resume" in str(err.value)

    # The drained cells persisted: a resume run completes the grid.
    result = experiments.run_grid(
        "drain", ["gzip"],
        [SimConfig.baseline(), SimConfig.msp(8)], 250,
        jobs=1, cache_dir=tmp_path, resume=True)
    assert result.cache_hits >= 1
    assert result.cache_hits + result.simulated == 2
