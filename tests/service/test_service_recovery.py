"""The headline invariants: kill -9 the daemon and lose nothing;
stall a worker and the job re-dispatches under its lease exactly once.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.sim.campaign.journal import CampaignJournal
from repro.sim.campaign.store import ResultStore
from repro.sim.config import SimConfig
from repro.sim.experiments import run_grid
from repro.sim.service import CampaignService

pytestmark = pytest.mark.skipif(sys.platform == "win32",
                                reason="POSIX signals")


def call(base, path, payload=None, timeout=15):
    req = urllib.request.Request(
        base + path,
        data=(json.dumps(payload).encode("utf-8")
              if payload is not None else None))
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


# --------------------------------------------------------------------- #
# kill -9 crash recovery, vs the serial oracle.
# --------------------------------------------------------------------- #

def _start_daemon(cache_dir, jobs=2):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir), "--jobs", str(jobs)],
        stdout=subprocess.PIPE, text=True, bufsize=1,
        env=dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1"),
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))))
    line = proc.stdout.readline()
    assert "listening on http://" in line, line
    base = line.split("listening on ")[1].split()[0]
    # Wait until the API answers (workers may still be forking).
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            call(base, "/healthz", timeout=2)
            return proc, base
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    raise AssertionError("daemon never became healthy")


def test_kill9_restart_completes_bit_identical(tmp_path):
    cache = tmp_path / "cache"
    budget = 30_000
    spec = {"workloads": ["gzip", "mcf"],
            "machines": "baseline,msp:16",
            "instructions": budget, "name": "chaos"}

    proc, base = _start_daemon(cache)
    try:
        ack = call(base, "/campaigns", spec)
        cid = ack["campaign"]
        assert ack["jobs"] == 4
        # Let it make real progress, then murder it mid-flight.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            body = call(base, f"/campaigns/{cid}")
            if body["done"] >= 1:
                break
            time.sleep(0.1)
        assert body["done"] >= 1, body
    finally:
        proc.kill()                         # SIGKILL: no cleanup at all
        proc.wait(timeout=10)

    # Restart on the same cache dir: the spool replays the campaign
    # and its undone jobs; cells finished before (or during, by the
    # orphaned workers) the crash are recognized in the result store.
    proc, base = _start_daemon(cache)
    try:
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            body = call(base, f"/campaigns/{cid}")
            if body["state"] in ("done", "partial"):
                break
            time.sleep(0.2)
        assert body["state"] == "done", body
        assert body["quarantined"] == 0
        results = call(base, f"/campaigns/{cid}/results")
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    oracle = run_grid(
        "chaos", ["gzip", "mcf"],
        [SimConfig.from_token("baseline"),
         SimConfig.from_token("msp:16")],
        budget, jobs=1, cache_dir=tmp_path / "oracle")
    assert results["table"] == oracle.to_table()
    for bench in ("gzip", "mcf"):
        for label in ("Baseline", "16-SP+Arb"):
            expected = json.loads(json.dumps(
                oracle.stats[bench][label].to_dict()))
            assert results["cells"][bench][label] == expected, \
                f"{bench}/{label} diverged from the serial oracle"


# --------------------------------------------------------------------- #
# Lease expiry: stalled worker, job re-dispatched exactly once.
# --------------------------------------------------------------------- #

def test_stalled_worker_lease_expires_and_job_retries_once(tmp_path):
    service = CampaignService(cache_dir=tmp_path, workers=2,
                              lease_ttl=0.8)
    service.start()
    stopped_pid = None
    try:
        ack = service.submit(
            {"workloads": ["gzip"], "machines": ["baseline"],
             "instructions": 100_000, "name": "stall"})
        [key] = service.queue.campaign(ack["campaign"])["keys"]

        # Wait for the lease grant, then SIGSTOP its holder: beats
        # cease, the lease ages past REPRO_LEASE_TTL and expires.
        deadline = time.monotonic() + 30
        holder = None
        while time.monotonic() < deadline:
            with service._lock:
                holder = service.leases.holder(key)
                if holder is not None:
                    stopped_pid = service.pool.workers[holder].process.pid
                    break
            time.sleep(0.02)
        assert holder is not None, "job never dispatched"
        os.kill(stopped_pid, signal.SIGSTOP)

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status = service.campaign_status(ack["campaign"])
            if status["state"] in ("done", "partial"):
                break
            time.sleep(0.1)
        assert status["state"] == "done", status

        # Re-dispatched exactly once: two attempts, outcome=retried.
        assert service.queue.attempts(key) == 2
        receipt = CampaignJournal(tmp_path).receipts()[key]
        assert receipt.outcome == "retried"
        assert receipt.attempts == 2
        assert receipt.error_class == "LeaseExpired"
        assert any("LeaseExpired" in err for err in receipt.errors)

        # The zombie resumes, finishes late, and changes nothing:
        # its settlement is an ignored duplicate, its store.put an
        # idempotent no-op on the same content-hashed key.
        before = ResultStore(tmp_path).get(key).to_dict()
        os.kill(stopped_pid, signal.SIGCONT)
        stopped_pid = None
        time.sleep(1.0)
        with service._lock:
            service._tick()
        assert service.queue.attempts(key) == 2
        assert service.queue.outcome(key) == "retried"
        assert ResultStore(tmp_path).get(key).to_dict() == before
    finally:
        if stopped_pid is not None:
            os.kill(stopped_pid, signal.SIGCONT)
        service.stop()


def test_heartbeat_fault_site_ages_lease_to_expiry(tmp_path,
                                                   monkeypatch):
    """eio@heartbeat suppresses the worker's beats: the lease expires
    even though the worker is healthy.  With a single worker the
    retry cannot be dispatched while the original still runs — its
    late result is accepted (work conservation) and the receipt
    carries the LeaseExpired evidence."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "eio@heartbeat*999")
    service = CampaignService(cache_dir=tmp_path, workers=1,
                              lease_ttl=0.5)
    service.start()
    try:
        ack = service.submit(
            {"workloads": ["gzip"], "machines": ["baseline"],
             "instructions": 60_000, "name": "mute"})
        [key] = service.queue.campaign(ack["campaign"])["keys"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status = service.campaign_status(ack["campaign"])
            if status["state"] in ("done", "partial"):
                break
            time.sleep(0.1)
        assert status["state"] == "done", status
        receipt = CampaignJournal(tmp_path).receipts()[key]
        assert any("LeaseExpired" in err for err in receipt.errors)
        assert ResultStore(tmp_path).get(key) is not None
    finally:
        service.stop()
