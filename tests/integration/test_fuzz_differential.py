"""Differential fuzz harness: cores x schedulers vs oracle, plus the
divergence shrinker.

The sweep tests prove the harness passes cleanly on a healthy
simulator (and actually exercises both schedulers on all three cores);
the detection and shrinker tests exercise the failure paths with
synthetic mismatches, since planting a real simulator bug is not an
option in-tree.
"""

import pytest

from repro.workloads.fuzz import (
    SCHEDULERS,
    Divergence,
    check_one,
    compare_with_oracle,
    fuzz_configs,
    run_differential,
    shrink,
)


@pytest.mark.parametrize("seed", range(3))
def test_clean_sweep_finds_no_divergence(seed):
    assert run_differential(seed, budget=400) == []


def test_sweep_covers_every_core_and_scheduler():
    labels = {config.label for config in fuzz_configs()}
    assert len(labels) == 3
    assert set(SCHEDULERS) == {"event", "scan"}
    for config in fuzz_configs():
        for scheduler in SCHEDULERS:
            assert check_one(5, config, scheduler, budget=300) is None


def test_sweep_exercises_window_growth(monkeypatch):
    """With a forced tiny ring, fuzz programs must cross the growth
    path (in-place column re-placement + mask rebake) and still match
    the oracle on every cell."""
    monkeypatch.setenv("REPRO_WINDOW_CAP", "4")
    from repro.sim import build_core
    from repro.workloads.fuzz import random_program
    assert run_differential(1, budget=300) == []
    core = build_core(random_program(1),
                      fuzz_configs()[0].with_(record_commits=True))
    core.run(max_instructions=300)
    assert core.w.grows > 0          # the tiny ring actually doubled


def test_compare_detects_commit_trace_mismatch():
    kind, detail = compare_with_oracle([4, 8, 12], [4, 8, 16], {}, {})
    assert kind == "commit-trace"
    assert "commit #2" in detail and "16" in detail


def test_compare_detects_length_mismatch():
    kind, detail = compare_with_oracle([4, 8], [4, 8, 12], {}, {})
    assert kind == "commit-trace"
    assert "length mismatch" in detail


def test_compare_detects_memory_mismatch():
    kind, detail = compare_with_oracle([4], [4], {100: 7}, {100: 9})
    assert kind == "memory"
    assert "addr 100" in detail


def test_compare_agreement_is_none():
    assert compare_with_oracle([4, 8], [4, 8], {1: 2}, {1: 2}) is None


def _synthetic(min_blocks, min_budget):
    """A divergence that reproduces iff blocks >= min_blocks and
    budget >= min_budget — the monotone shape a real bug has."""
    def reproduces(blocks, budget):
        if blocks >= min_blocks and budget >= min_budget:
            return Divergence(seed=1, blocks=blocks, budget=budget,
                              machine="msp:8", scheduler="event",
                              kind="commit-trace", detail="synthetic")
        return None
    return reproduces


def test_shrink_converges_to_minimal_repro():
    start = _synthetic(3, 137)(8, 700)
    minimal = shrink(start, reproduces=_synthetic(3, 137))
    assert (minimal.blocks, minimal.budget) == (3, 137)


def test_shrink_keeps_an_already_minimal_divergence():
    start = _synthetic(1, 1)(1, 1)
    minimal = shrink(start, reproduces=_synthetic(1, 1))
    assert (minimal.blocks, minimal.budget) == (1, 1)


def test_shrink_real_recheck_path_is_stable():
    # On a healthy simulator check_one never diverges, so feed shrink a
    # divergence whose real recheck immediately fails to reproduce:
    # shrink must stop reducing blocks and bisect budget down to the
    # smallest value that "reproduces" (here: none do below the start,
    # so the original budget survives only if every probe fails).
    config = fuzz_configs()[0]
    start = Divergence(seed=2, blocks=2, budget=64,
                       machine=config.label, scheduler="event",
                       kind="commit-trace", detail="stale",
                       config=config)
    minimal = shrink(start)
    # Nothing reproduces, so the shrinker must return the input intact.
    assert (minimal.blocks, minimal.budget) == (2, 64)


def test_divergence_repro_command_and_dict():
    d = Divergence(seed=9, blocks=4, budget=250, machine="cpr",
                   scheduler="scan", kind="memory", detail="addr 8")
    assert "seed=9" in d.repro_command()
    assert "on cpr/scan for 250 instructions" in d.repro_command()
    assert d.to_dict()["kind"] == "memory"
    assert "config" not in d.to_dict()
