"""The throughput-bench library and the ``repro bench`` command."""

import json

import pytest

from repro.cli import main
from repro.sim import bench


def test_measure_produces_all_modes_and_schema():
    record = bench.measure(workload="gzip", emulate_n=3000,
                           detail_n=300, sampled_n=3000)
    assert record["schema"] == bench.SCHEMA
    assert set(record["modes"]) == set(bench.MODES)
    for mode, row in record["modes"].items():
        assert row["instructions"] > 0, mode
        assert row["instructions_per_second"] > 0, mode
    assert record["modes"]["sampled"]["detail_instructions"] > 0
    assert record["budgets"]["emulate"] == 3000


def test_json_roundtrip(tmp_path):
    record = bench.measure(workload="gzip", emulate_n=2000,
                           detail_n=200, sampled_n=2000,
                           modes=["emulator"])
    path = tmp_path / "bench.json"
    bench.write_json(str(path), record)
    assert bench.load_json(str(path)) == json.loads(path.read_text())


def test_check_regression_flags_only_real_regressions():
    base = {"git_sha": "abc",
            "modes": {"ff+warmup": {"instructions_per_second": 1000.0}}}
    ok = {"modes": {"ff+warmup": {"instructions_per_second": 800.0}}}
    slow = {"modes": {"ff+warmup": {"instructions_per_second": 600.0}}}
    assert bench.check_regression(ok, base, tolerance=0.30) is None
    message = bench.check_regression(slow, base, tolerance=0.30)
    assert message is not None and "regressed" in message
    # Missing modes are not a regression (new baselines bootstrap).
    assert bench.check_regression({"modes": {}}, base) is None
    assert bench.check_regression(ok, {"modes": {}}) is None
    # Records for different workloads are never comparable — even a
    # faster rate must fail rather than silently ratify a baseline the
    # CI gate can't reproduce.
    mismatch = bench.check_regression(
        {"workload": "mcf", "modes": ok["modes"]},
        {"workload": "gzip", **base})
    assert mismatch is not None and "not comparable" in mismatch


def test_cli_bench_writes_artifact_and_gates(tmp_path, capsys):
    out = tmp_path / "BENCH_throughput.json"
    assert main(["bench", "-n", "2000", "-o", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record["modes"]) == set(bench.MODES)
    captured = capsys.readouterr()
    assert "inst/s" in captured.out

    # Same machine, same code: the gate must pass against itself.
    # Tolerance is deliberately loose — this asserts the check
    # *plumbing*, and two independent millisecond-scale timings under
    # a loaded test machine can legitimately differ far more than the
    # production 30%.
    assert main(["bench", "-n", "2000", "-o", "", "--check",
                 "--baseline", str(out), "--tolerance", "0.95"]) == 0

    # An absurdly fast fake baseline must trip the gate — and a failed
    # check must never overwrite the baseline it compared against (the
    # regression would self-ratify on the next run).
    record["modes"]["ff+warmup"]["instructions_per_second"] *= 1000
    fake = tmp_path / "fake.json"
    fake.write_text(json.dumps(record))
    before = fake.read_text()
    assert main(["bench", "-n", "2000", "-o", str(fake), "--check",
                 "--baseline", str(fake)]) == 1
    assert fake.read_text() == before


def test_check_regressions_covers_detailed_mode():
    """The gate watches the detailed cycle cores too (event-scheduler
    PR): a detailed-only collapse must fail even when fast-forward is
    healthy."""
    assert "detailed" in bench.GATED_MODES
    base = {"workload": "gzip", "modes": {
        "ff+warmup": {"instructions_per_second": 1000.0},
        "detailed": {"instructions_per_second": 100.0}}}
    healthy = {"workload": "gzip", "modes": {
        "ff+warmup": {"instructions_per_second": 990.0},
        "detailed": {"instructions_per_second": 95.0}}}
    detail_collapse = {"workload": "gzip", "modes": {
        "ff+warmup": {"instructions_per_second": 990.0},
        "detailed": {"instructions_per_second": 30.0}}}
    assert bench.check_regressions(healthy, base, tolerance=0.30) == []
    failures = bench.check_regressions(detail_collapse, base,
                                       tolerance=0.30)
    assert len(failures) == 1 and "detailed" in failures[0]
    # A workload mismatch fails once, not once per gated mode.
    mismatch = bench.check_regressions(
        {"workload": "mcf", "modes": healthy["modes"]}, base)
    assert len(mismatch) == 1 and "not comparable" in mismatch[0]


def test_check_regressions_covers_sampled_engines():
    """The gate watches the end-to-end sampled engines too (simpoint
    PR): a sampled/simpoint-only collapse must fail even when
    fast-forward and the detailed cores are healthy."""
    assert "sampled" in bench.GATED_MODES
    assert "simpoint" in bench.GATED_MODES
    base = {"workload": "gzip", "modes": {
        "sampled": {"instructions_per_second": 1000.0},
        "simpoint": {"instructions_per_second": 2000.0}}}
    healthy = {"workload": "gzip", "modes": {
        "sampled": {"instructions_per_second": 950.0},
        "simpoint": {"instructions_per_second": 1900.0}}}
    collapse = {"workload": "gzip", "modes": {
        "sampled": {"instructions_per_second": 950.0},
        "simpoint": {"instructions_per_second": 500.0}}}
    assert bench.check_regressions(healthy, base, tolerance=0.30) == []
    failures = bench.check_regressions(collapse, base, tolerance=0.30)
    assert len(failures) == 1 and "simpoint" in failures[0]


def test_simpoint_reduction_floor():
    """The simpoint cell's detailed-work reduction over periodic
    sampling is regression-guarded at >= 2x — but only at budgets
    where >= 2x is achievable with the default schedule."""
    from repro.sim.sampling import SamplingParams
    defaults = SamplingParams()
    big = (defaults.period * defaults.clusters
           * bench.MIN_SIMPOINT_DETAIL_REDUCTION)

    def record(reduction, budget):
        return {"workload": "gzip",
                "budgets": {"sampled": budget},
                "modes": {"simpoint": {
                    "instructions_per_second": 1000.0,
                    "detail_instructions": 100,
                    "detail_reduction_vs_sampled": reduction}}}

    assert bench.check_simpoint_reduction(record(2.5, big)) is None
    failure = bench.check_simpoint_reduction(record(1.4, big))
    assert failure is not None and "simpoint" in failure \
        and "floor" in failure
    # Small smoke budgets cannot reach the floor even with perfect
    # clustering: not a regression signal.
    assert bench.check_simpoint_reduction(record(1.0, 2000)) is None
    # Records without the cell (pre-simpoint baselines) pass.
    assert bench.check_simpoint_reduction({"modes": {}}) is None
    # The floor also feeds the aggregate gate.
    failures = bench.check_regressions(record(1.4, big),
                                       {"modes": {}})
    assert len(failures) == 1 and "floor" in failures[0]


def test_detailed_slowdown_ceiling():
    """The detailed core's cost relative to the emulator in the same
    record is regression-guarded (SoA-window PR): the seed's
    ~43x slowdown must fail, the post-PR ~36x must pass."""

    def record(emulator, detailed):
        return {"workload": "gzip", "modes": {
            "emulator": {"instructions_per_second": emulator},
            "detailed": {"instructions_per_second": detailed}}}

    ceiling = bench.MAX_DETAILED_SLOWDOWN_VS_EMULATOR
    assert ceiling < 43.0            # the seed-era ratio must not pass
    assert bench.check_detailed_slowdown(
        record(2_580_000.0, 72_000.0)) is None          # ~36x
    failure = bench.check_detailed_slowdown(
        record(2_580_000.0, 60_000.0))                  # ~43x (seed)
    assert failure is not None and "ceiling" in failure
    # Smoke budgets can't amortize the core-build cost: the
    # ceiling stands down rather than flagging fixed cost.
    smoke = record(2_580_000.0, 20_000.0)
    smoke["budgets"] = {"detail": 1000}
    assert bench.check_detailed_slowdown(smoke) is None
    # Partial records (either leg missing) are not a regression.
    assert bench.check_detailed_slowdown({"modes": {}}) is None
    assert bench.check_detailed_slowdown(
        {"modes": {"detailed": {"instructions_per_second": 1.0}}}) is None
    # The ceiling feeds the aggregate gate.
    failures = bench.check_regressions(
        record(2_580_000.0, 60_000.0), {"modes": {}})
    assert len(failures) == 1 and "ceiling" in failures[0]


def test_measure_annotates_simpoint_reduction():
    from repro.sim.bench import _annotate_simpoint_reduction
    record = {"budgets": {"sampled": 100_000}, "modes": {
        "sampled": {"detail_instructions": 15000},
        "simpoint": {"detail_instructions": 6000}}}
    _annotate_simpoint_reduction(record)
    assert record["modes"]["simpoint"][
        "detail_reduction_vs_sampled"] == pytest.approx(2.5)
    # No periodic cell to compare against: no annotation.
    lone = {"modes": {"simpoint": {"detail_instructions": 6000}}}
    _annotate_simpoint_reduction(lone)
    assert "detail_reduction_vs_sampled" not in lone["modes"]["simpoint"]


@pytest.mark.parametrize("content", [
    None, "", "{not json", "{}", '{"modes": {}}',
    # Non-empty but records none of the gated modes: silently passing
    # would let the run self-ratify a fresh baseline.
    '{"workload": "gzip", "modes": '
    '{"emulator": {"instructions_per_second": 1.0}}}',
])
def test_cli_bench_check_needs_usable_baseline(tmp_path, capsys, content):
    """``--check`` against a missing, empty, corrupt or gated-mode-less
    baseline fails with a one-line actionable error and never writes a
    record (PR 3's \"never persist a failing record\" rule)."""
    baseline = tmp_path / "BENCH_throughput.json"
    if content is not None:
        baseline.write_text(content)
    out = tmp_path / "out.json"
    assert main(["bench", "-n", "1500", "-o", str(out), "--check",
                 "--baseline", str(baseline)]) == 1
    err = capsys.readouterr().err
    bench_lines = [line for line in err.splitlines()
                   if line.startswith("bench:")]
    assert len(bench_lines) == 1
    assert "repro bench --output" in bench_lines[0]
    assert not out.exists(), "failed --check must not write a record"
