"""Phase profiling: spans, merge semantics, campaign persistence."""

from __future__ import annotations

import json
import re

from repro.obs import PhaseProfile, profile_enabled, span
from repro.sim.campaign import CampaignSpec, profile_path, run_jobs
from repro.sim.config import SimConfig
from repro.sim.runner import simulate
from repro.workloads import get_program


def test_disabled_span_is_shared_noop():
    assert span(None, "ff") is span(None, "detail")
    with span(None, "ff"):
        pass


def test_add_merge_total_round_trip():
    a = PhaseProfile()
    a.add("ff", 1.0)
    a.add("ff", 0.5)
    a.add("detail", 2.0, count=3)
    b = PhaseProfile.from_dict(a.to_dict())
    assert b.seconds == {"ff": 1.5, "detail": 2.0}
    assert b.counts == {"ff": 2, "detail": 3}
    b.merge(a)
    assert b.seconds["ff"] == 3.0
    assert b.total() == 7.0


def test_format_orders_by_share():
    profile = PhaseProfile()
    profile.add("ff", 1.0)
    profile.add("detail", 3.0)
    lines = profile.format().splitlines()
    assert lines[0].startswith("detail") and "75.0%" in lines[0]
    assert lines[1].startswith("ff") and "25.0%" in lines[1]


def test_format_shows_job_as_self_time():
    """``job`` encloses every phase but ``queue-wait``: the table shows
    its self time, so the shares sum to 100%, while the stored totals
    keep the enclosing ``job`` span."""
    profile = PhaseProfile()
    profile.add("job", 7.0, count=4)
    profile.add("detail", 4.0, count=4)
    profile.add("ff", 1.25, count=4)
    profile.add("queue-wait", 1.0, count=4)
    rows = {}
    for line in profile.format().splitlines():
        match = re.match(r"(\S+(?: \(self\))?)\s+([\d.]+)s\s+([\d.]+)%",
                         line)
        rows[match.group(1)] = (float(match.group(2)),
                                float(match.group(3)))
    assert rows["job (self)"][0] == 1.75
    assert rows["detail"][0] == 4.0 and rows["queue-wait"][0] == 1.0
    assert abs(sum(share for _, share in rows.values()) - 100.0) < 0.5
    assert profile.seconds["job"] == 7.0
    assert profile.to_dict()["seconds"]["job"] == 7.0


def test_profile_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    assert not profile_enabled()
    monkeypatch.setenv("REPRO_PROFILE", "0")
    assert not profile_enabled()
    monkeypatch.setenv("REPRO_PROFILE", "1")
    assert profile_enabled()


def test_simulate_records_detail_span():
    profile = PhaseProfile()
    simulate(get_program("gzip"), SimConfig.baseline(),
             max_instructions=1000, profile=profile)
    assert profile.seconds["detail"] > 0
    assert profile.counts["detail"] == 1


def test_sampled_simulate_records_engine_phases():
    profile = PhaseProfile()
    simulate(get_program("gzip"), SimConfig.msp(16),
             max_instructions=20_000, sampling=True, artifacts=False,
             profile=profile)
    for phase in ("ff", "warmup", "detail"):
        assert profile.seconds[phase] > 0, phase


def test_profile_does_not_perturb_stats():
    program = get_program("gzip")
    plain = simulate(program, SimConfig.msp(16),
                     max_instructions=20_000, sampling=True,
                     artifacts=False).to_dict()
    profiled = simulate(program, SimConfig.msp(16),
                        max_instructions=20_000, sampling=True,
                        artifacts=False,
                        profile=PhaseProfile()).to_dict()
    assert profiled == plain


def test_run_jobs_persists_merged_profile(tmp_path):
    spec = CampaignSpec("profiled", ["gzip"],
                        [SimConfig.baseline(), SimConfig.msp(16)], 1500)
    report = run_jobs(spec.jobs(), cache_dir=tmp_path, profile=True)
    assert report.phase is not None
    assert report.phase.seconds["job"] > 0
    assert report.phase.counts["job"] == 2
    path = profile_path(tmp_path)
    assert path.is_file()
    merged = PhaseProfile.from_dict(json.loads(path.read_text()))
    assert merged.seconds["job"] > 0
    # A second run is served from the result cache: no simulator, no
    # new spans — the sidecar keeps the first run's numbers.
    again = run_jobs(spec.jobs(), cache_dir=tmp_path, profile=True)
    assert again.hits == 2 and not again.phase.seconds


def test_run_jobs_profile_off_by_default(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    spec = CampaignSpec("unprofiled", ["gzip"],
                        [SimConfig.baseline()], 1000)
    report = run_jobs(spec.jobs(), cache_dir=tmp_path)
    assert report.phase is None
    assert not profile_path(tmp_path).exists()
