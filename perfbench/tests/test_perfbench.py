"""Self-tests of the repository benchmark (``perfbench/``).

They run the benchmark's own code on shrunken workloads (one or two
benchmarks, a few hundred instructions per cell), so they take seconds.
Run with ``python -m pytest perfbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchlib import checks  # noqa: E402
from benchlib import workloads as wl  # noqa: E402
from benchlib.sandbox import NotCold, Sandbox, require_cold  # noqa: E402
from benchlib.spans import FULL, Tracer  # noqa: E402


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few hundred instructions per cell."""
    monkeypatch.setattr(wl.CoresDetail, "benchmarks", ("gzip",))
    monkeypatch.setattr(wl.CoresDetail, "instructions", 400)
    monkeypatch.setattr(wl.Fig7Grid, "benchmarks", ("gzip", "mcf"))
    monkeypatch.setattr(wl.Fig7Grid, "instructions", 300)
    monkeypatch.setattr(wl.Fig7Sampled, "benchmarks", ("gzip",))
    monkeypatch.setattr(wl.Fig7Sampled, "instructions", 12_000)


@pytest.fixture
def sandbox(tmp_path):
    with Sandbox(tmp_path / "sandbox") as box:
        yield box


def _round(cls, sandbox, seed=3, level=0):
    workload = cls(seed, sandbox)
    workload.setup()
    tracer = Tracer(level)
    return workload, tracer, workload.round(tracer, 0,
                                            profile=level == FULL)


def test_digest_excludes_exactly_the_provenance_fields():
    from repro.pipeline.stats import SimStats
    assert checks.EXCLUDED == {"checkpoint_hits",
                               "ff_executed_instructions",
                               "ff_skipped_instructions"}
    base = SimStats().to_dict()
    reference = checks.digest(base)
    for key, value in base.items():
        changed = dict(base)
        if isinstance(value, list):
            changed[key] = value + [[1, 1]]
        elif isinstance(value, bool):
            changed[key] = not value
        else:
            changed[key] = value + 1
        moved = checks.digest(changed) != reference
        assert moved == (key not in checks.EXCLUDED), key


def test_planted_digest_mismatch_fails_the_run(tiny, tmp_path,
                                                 monkeypatch):
    run = _load_run_module()
    pins = tmp_path / "pins"
    pins.mkdir()
    monkeypatch.setattr(checks, "PIN_DIR", pins)
    with Sandbox(tmp_path / "first") as box:
        workload, _tracer, rnd = _round(wl.CoresDetail, box)
    digests = rnd.digests()
    args = Namespace(workload="cores-detail", seed=3, seconds=0.0,
                     trace=0)

    def write(cells):
        (pins / "seed-3.json").write_text(json.dumps(
            {"instructions": {"cores-detail": workload.instructions},
             "cores-detail": cells}))

    write(digests)
    with Sandbox(tmp_path / "good") as box:
        good = run.run(args, box)
    assert good["correct"] and good["failed"] == 0

    planted = dict(digests)
    cell = sorted(planted)[0]
    planted[cell] = "0" * 64
    write(planted)
    with Sandbox(tmp_path / "bad") as box:
        bad = run.run(args, box)
    assert not bad["correct"]
    assert bad["failed"] >= 1 and bad["attempted"] >= bad["failed"]


def test_repro_environment_does_not_change_outputs(tiny, tmp_path,
                                                   monkeypatch):
    with Sandbox(tmp_path / "clean") as box:
        clean = _round(wl.Fig7Grid, box)[2]
        clean_cores = _round(wl.CoresDetail, box)[2]
    noisy = {"REPRO_INSTRUCTIONS": "777", "REPRO_SAMPLE": "1",
             "REPRO_SAMPLE_INSTRUCTIONS": "5000", "REPRO_BENCHSET": "quick",
             "REPRO_JOBS": "3", "REPRO_NO_CACHE": "1",
             "REPRO_CHECKPOINTS": "off", "REPRO_WINDOW_CAP": "64",
             "REPRO_CACHE_DIR": str(tmp_path / "user-cache")}
    for key, value in noisy.items():
        monkeypatch.setenv(key, value)
    with Sandbox(tmp_path / "noisy") as box:
        assert not any(k in os.environ for k in noisy
                       if k != "REPRO_CACHE_DIR")
        grid = _round(wl.Fig7Grid, box)[2]
        cores = _round(wl.CoresDetail, box)[2]
        assert box.default_cache_untouched()
    assert not clean.failed and not grid.failed
    assert grid.digests() == clean.digests()
    assert cores.digests() == clean_cores.digests()
    # The sandbox restores the caller's environment and never touched
    # the user's cache directory.
    assert os.environ["REPRO_INSTRUCTIONS"] == "777"
    assert not (tmp_path / "user-cache").exists()


def test_prepopulated_cache_dir_is_refused(tiny, sandbox, monkeypatch):
    warm = sandbox.fresh_dir("warm")
    (warm / "results.jsonl").write_text("{}\n")
    with pytest.raises(NotCold):
        require_cold(warm)
    workload = wl.Fig7Grid(3, sandbox)
    workload.setup()
    monkeypatch.setattr(sandbox, "fresh_dir", lambda label: warm)
    with pytest.raises(NotCold):
        workload.round(Tracer(), 0)


def test_cache_hits_in_a_cold_round_count_as_failures(tiny, sandbox,
                                                      monkeypatch):
    """Second line of defence behind the cold check: a round whose
    cells come back from the result cache fails every such cell."""
    workload = wl.Fig7Grid(3, sandbox)
    workload.setup()
    shared = sandbox.fresh_dir("shared")
    fresh = sandbox.fresh_dir
    monkeypatch.setattr(sandbox, "fresh_dir", lambda label: shared
                        if label.startswith("cache") else fresh(label))
    monkeypatch.setattr(wl, "require_cold", lambda path: path)
    wl.run_jobs(workload.spec().jobs(), workers=1, use_cache=True,
                cache_dir=shared)
    warm = workload.round(Tracer(), 0)
    assert set(warm.failed) == set(workload.cells())
    assert all("cache" in why for why in warm.failed.values())


@pytest.mark.parametrize("cls", [wl.CoresDetail, wl.Fig7Grid,
                                 wl.Fig7Sampled])
def test_traced_round_matches_untraced_oracle_and_restores_wrappers(
        tiny, sandbox, cls):
    from repro.sim import runner
    from repro.sim.artifacts import ArtifactStore
    originals = (runner.simulate, runner.build_core, ArtifactStore.get,
                 ArtifactStore.put)
    workload, _tracer, plain = _round(cls, sandbox)
    _w, tracer, traced = _round(cls, sandbox, level=FULL)
    assert not plain.failed and not traced.failed
    assert traced.digests() == plain.digests()
    assert workload.oracle(plain) == {}
    names = set(tracer.names)
    assert {"cell", "msp.pipeline.commit", "msp.core.lcs",
            "cpr.cpr.rename", "baseline.branch.predict",
            "baseline.memory.load"} <= names
    if cls is wl.Fig7Sampled:
        assert {"artifacts.read", "artifacts.write"} <= names
    assert sum(tracer.self_times(0).values()) <= traced.wall * max(
        1, cls.workers) + 1e-6
    assert (runner.simulate, runner.build_core, ArtifactStore.get,
            ArtifactStore.put) == originals


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", leaf)

    def body():
        tracer.wrap("child", lambda: None)()
        mid()

    tracer.wrap("root", body)()
    names = [tracer.names[n] for n in tracer.name]
    assert names == ["root", "child", "mid", "leaf"]
    assert tracer.parent.tolist() == [-1, 0, 0, 2]

    synthetic = Tracer()
    for name, parent, start, end in (("root", -1, 0.0, 10.0),
                                     ("child", 0, 1.0, 3.0),
                                     ("mid", 0, 4.0, 6.0),
                                     ("leaf", 2, 4.5, 5.0)):
        synthetic.name.append(synthetic.name_id(name))
        synthetic.parent.append(parent)
        synthetic.start.append(start)
        synthetic.end.append(end)
        synthetic.run.append(0)
    assert synthetic.self_times(0) == {"root": 6.0, "child": 2.0,
                                       "mid": 1.5, "leaf": 0.5}
    assert synthetic.self_times(1) == {}
