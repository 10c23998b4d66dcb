"""Two concurrent ``campaign run`` processes sharing one cache dir.

The store, journal and artifact layers all take the same per-cache
``flock`` sidecar; two whole campaigns racing over the same grid must
both succeed, leave exactly one record per cell, tear no receipts, and
account every cell as either simulated or a cache hit — never lose one.
Their ``--profile`` merges into one ``profile.json`` must not lose one
either.
"""

import json
import os
import re
import subprocess
import sys

from repro.sim.campaign import CampaignJournal
from repro.sim.campaign.store import ResultStore

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _campaign(cache_dir, workloads="gzip,mcf", *flags):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         "--workloads", workloads, "--machines", "baseline,msp:16",
         "-n", "4000", "--cache-dir", str(cache_dir), "--jobs", "2",
         *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH="src", REPRO_LOG="warn"),
        cwd=REPO)


def test_concurrent_campaigns_share_cache_without_tearing(tmp_path):
    cache = tmp_path / "shared"
    first = _campaign(cache, "gzip,mcf", "--profile")
    second = _campaign(cache, "gzip,mcf", "--profile")
    out1, err1 = first.communicate(timeout=300)
    out2, err2 = second.communicate(timeout=300)
    assert first.returncode == 0, err1
    assert second.returncode == 0, err2
    # Both rendered the full table (same grid, same values).
    for out in (out1, out2):
        assert "gzip" in out and "mcf" in out

    # Exactly one store record per cell, all loadable.
    store = ResultStore(cache)
    status = store.status()
    assert status["entries"] == 4

    # No torn receipts: every journal line parses, and the receipt set
    # covers the grid without duplication per key.
    journal = CampaignJournal(cache)
    for line in journal.path.read_text().splitlines():
        if line.strip():
            json.loads(line)
    receipts = journal.receipts()
    assert len(receipts) <= 4
    assert all(r.outcome in ("ok", "retried")
               for r in receipts.values())

    # No lost execution accounting: each process reports
    # simulated + cache hits covering all 4 cells.  (Both may simulate
    # the same cell — that is allowed, idempotent by key — but neither
    # may miscount.)
    for err in (err1, err2):
        match = re.search(r"cache: (\d+) hit\(s\), (\d+) simulated",
                          err)
        if match is None:
            continue                   # all fresh: no cache line logged
        hits, simulated = int(match.group(1)), int(match.group(2))
        assert simulated + hits == 4, err

    # The locked profile.json merge kept both runs: one `job` span per
    # cell either process simulated (a run without a cache line
    # simulated all four).
    simulated = [4 - int(match.group(1)) if match else 4
                 for match in (re.search(r"cache: (\d+) hit\(s\)", err)
                               for err in (err1, err2))]
    merged = json.loads((cache / "profile.json").read_text())
    assert merged["counts"]["job"] == sum(simulated)


def test_sequential_rerun_is_pure_cache_hits(tmp_path):
    """After the race, a third run touches nothing: 4 hits, 0 sims."""
    cache = tmp_path / "shared"
    proc = _campaign(cache)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    rerun = _campaign(cache)
    out, err = rerun.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert "cache: 4 hit(s), 0 simulated" in err
