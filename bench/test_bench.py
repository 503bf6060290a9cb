"""Tests of the benchmark itself: its checks reject perturbed outputs, its
inputs repeat byte for byte, and its trace counts repeat exactly.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import contextlib
import copy
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibration  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import ensq.cli  # noqa: E402
from ensq.harness import check_properties  # noqa: E402
from ensq.linalg import NormSpec  # noqa: E402
from tracing import Tracer  # noqa: E402

TRIALS = 20


def run_cli(argv) -> str:
    """``ensq.cli.main``, looked up at call time so a Tracer sees it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ensq.cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def cell_reports():
    return {
        norm: check_properties(3, 3, TRIALS, 11, NormSpec.parse(norm))
        for norm in inputs.GRID_NORMS
    }


def test_grid_check_accepts_program_reports(cell_reports):
    checks.check_reports(cell_reports, TRIALS)


def test_grid_check_rejects_a_failing_property(cell_reports):
    reports = copy.deepcopy(cell_reports)
    result = reports["frobenius"].results[2]
    result.passes -= 1
    result.failures += 1
    with pytest.raises(checks.Mismatch, match="union-concavity"):
        checks.check_reports(reports, TRIALS)


def test_grid_check_rejects_excess_slack(cell_reports):
    reports = copy.deepcopy(cell_reports)
    reports["trace"].results[1].worst_slack = 2e-9
    with pytest.raises(checks.Mismatch, match="worst slack"):
        checks.check_reports(reports, TRIALS)


@pytest.mark.parametrize("norm", ["spectral", "kyfan:1"])
def test_grid_check_rejects_kyfan_spectral_gap(cell_reports, norm):
    reports = copy.deepcopy(cell_reports)
    values = reports[norm].values.copy()
    values[7] += 1e-8
    reports[norm].values = values
    with pytest.raises(checks.Mismatch):
        checks.check_reports(reports, TRIALS)


def test_grid_check_rejects_broken_norm_order(cell_reports):
    reports = copy.deepcopy(cell_reports)
    values = reports["frobenius"].values.copy()
    values[3] = reports["trace"].values[3] + 1e-8
    reports["frobenius"].values = values
    with pytest.raises(checks.Mismatch, match="M_frobenius"):
        checks.check_reports(reports, TRIALS)


def small_sweeps():
    return [
        inputs.Sweep("bloch-angle", {
            "alpha": inputs.Grid(0.125, 2.0**-4, 9),
            "r1": inputs.Grid(0.25, 0.25, 3),
            "r2": inputs.Grid(0.75, 0.0, 1),
            "p1": inputs.Grid(0.125, 0.25, 2),
        }),
        inputs.Sweep("overlap", {"c": inputs.Grid(0.5, 2.0**-6, 17), "p1": inputs.Grid(0.3125, 0.0, 1)}),
        inputs.Sweep("phase-damping", {
            "lambda": inputs.Grid(0.0, 2.0**-4, 16),
            "theta": inputs.Grid(0.25, 0.25, 2),
            "p1": inputs.Grid(0.0625, 0.0, 1),
        }),
    ]


@pytest.fixture(scope="module")
def sweep_csvs(tmp_path_factory):
    out = []
    for sweep in small_sweeps():
        path = tmp_path_factory.mktemp("sweep") / f"{sweep.family}.csv"
        run_cli(sweep.argv(path))
        out.append((sweep, path.read_text()))
    return out


def test_sweep_check_accepts_program_csv(sweep_csvs):
    for sweep, text in sweep_csvs:
        checks.check_sweep_csv(text, sweep)


def test_sweep_check_rejects_a_dropped_row(sweep_csvs):
    for sweep, text in sweep_csvs:
        lines = text.splitlines(keepends=True)
        del lines[len(lines) // 2]
        with pytest.raises(checks.Mismatch, match="rows"):
            checks.check_sweep_csv("".join(lines), sweep)


def test_sweep_check_rejects_an_m_off_by_1e_8(sweep_csvs):
    for sweep, text in sweep_csvs:
        lines = text.splitlines(keepends=True)
        cells = lines[5].rstrip("\n").split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-8)
        lines[5] = ",".join(cells) + "\n"
        with pytest.raises(checks.Mismatch, match="closed form"):
            checks.check_sweep_csv("".join(lines), sweep)


def test_sweep_check_rejects_a_moved_grid_point(sweep_csvs):
    sweep, text = sweep_csvs[1]
    lines = text.splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[0] = repr(float(cells[0]) + 2.0**-20)
    lines[2] = ",".join(cells)
    with pytest.raises(checks.Mismatch, match="grid"):
        checks.check_sweep_csv("".join(lines), sweep)


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    inp = inputs.small_input(3)
    out = []
    for mixed, states in ((False, inputs.pure_states(inp)), (True, inputs.mixed_states(inp))):
        path = tmp_path_factory.mktemp("ens") / "e.json"
        inputs.write_ensemble(path, inp.probabilities, states)
        out.append((run_cli(["compute", str(path)]), checks.expected_quantumness(inp, mixed)))
    return out


def test_compute_check_accepts_program_output(computed):
    for stdout, expected in computed:
        checks.check_compute_output(stdout, expected)


def test_compute_check_rejects_an_m_off_by_1e_8(computed):
    for stdout, expected in computed:
        for value in (float(stdout) + 1e-8, float(stdout) * (1.0 + 1e-8)):
            if abs(value - expected) > 1e-9 * abs(expected):  # 1e-8 absolute needs M < 10
                with pytest.raises(checks.Mismatch):
                    checks.check_compute_output(f"{value:.12f}\n", expected)


def test_compute_check_rejects_non_numeric_output():
    with pytest.raises(checks.Mismatch, match="expected a number"):
        checks.check_compute_output("", 1.0)


def test_mixed_reference_is_eps_squared_times_pure():
    inp = inputs.small_input(5)
    pure = checks.expected_quantumness(inp, False)
    assert checks.expected_quantumness(inp, True) == pytest.approx(
        inputs.EPSILON**2 * pure, rel=1e-15
    )


def test_generated_files_are_byte_identical_for_one_seed(tmp_path):
    def write(seed, name):
        inp = inputs.ensemble_input(seed, 6, 5, 5)
        path = tmp_path / name
        inputs.write_ensemble(path, inp.probabilities, inputs.mixed_states(inp))
        return path.read_bytes()

    assert write(8, "a.json") == write(8, "b.json")
    assert write(8, "a.json") != write(9, "c.json")
    assert [s.argv("x") for s in inputs.sweeps(8)] == [s.argv("x") for s in inputs.sweeps(8)]
    assert inputs.grid_cells(8) == inputs.grid_cells(8) != inputs.grid_cells(9)


def test_sweep_grids_hit_every_point_the_parser_makes():
    from ensq.sweeps import parse_grid

    for seed in range(20):
        for sweep in [*inputs.sweeps(seed), inputs.small_sweep(seed)]:
            for grid in sweep.grids.values():
                assert parse_grid(grid.flag()) == grid.points()
            r = sweep.grids.get("r1")
            if r is not None:
                assert min(r.points()) < 1.0
            assert any(p != 0.5 for p in sweep.grids["p1"].points())


def test_trace_counts_repeat_and_wrappers_come_off(tmp_path):
    import ensq.ensemble
    import ensq.harness

    kernel = ensq.harness.quantumness_batch
    sweep = small_sweeps()[1]

    def traced_round():
        with Tracer() as tracer:
            assert ensq.harness.quantumness_batch is not kernel
            ensq.harness.check_properties(3, 4, 30, 2, NormSpec.trace())
            run_cli(sweep.argv(tmp_path / "o.csv"))
        return tracer.layer_metrics(), tracer.dump()

    (first, spans), (second, _) = traced_round(), traced_round()
    assert ensq.harness.quantumness_batch is kernel is ensq.ensemble.quantumness_batch
    for name in ("harness.trials", "sweeps.rows", "ensemble.kernel_calls", "ensemble.pairs",
                 "states.validate_calls", "states.validated_matrices",
                 "states.density_matrix_count", "ensemble.ensemble_count"):
        assert first[name] == second[name] > 0, name
    assert first["harness.trials"] == 30 and first["sweeps.rows"] == sweep.rows()
    # Self times are what remains of a span after its children.
    assert first["cli.main_s"] >= first["sweeps.self_s"] + first["sweeps.write_csv_s"] > 0
    names = {s["name"] for s in spans}
    assert {"cli.main", "harness", "ensemble.kernel", "states.validate"} <= names
    assert np.all([s["end"] >= s["start"] for s in spans])


def test_times_are_scaled_by_the_calibration_loop():
    import run

    workload = run.Workload("property-grid", 1)
    # The loop ran at half the reference speed, so every time halves.
    workload.loop_times = [1.5 * calibration.REFERENCE_S, 2.5 * calibration.REFERENCE_S]
    workload._record("compute_pure_s", 3.0)
    workload._record("compute_pure_s", 5.0)
    workload._record("property_trials_per_s", 1.0, work=100)
    workload._record("property_trials_per_s", 3.0, work=100)
    values = workload.metrics(setup_s=0.4)
    assert values["compute_pure_s"] == pytest.approx(2.0)
    assert values["property_trials_per_s"] == pytest.approx(100.0)
    assert values["setup_s"] == pytest.approx(0.2)
    assert 0 < calibration.loop() < 10 * calibration.REFERENCE_S
