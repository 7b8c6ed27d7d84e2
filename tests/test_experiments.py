import json
import math

import numpy as np
import pytest

from helpers import tmi_report
from qscramble.channels import ChoiState
from qscramble.experiments import (CSV_HEADER, ExperimentConfig,
                                   ScanRow, ScramblingReport,
                                   backflow_integral, load_unitary_file,
                                   run_clifford_scan, run_scan,
                                   save_unitary_file, size_sweep)
from qscramble.models import haar_random_unitary
from qscramble import experiments, steering
from qscramble.plotting import write_scan_svg
from qscramble.sdp import NumericalFailure, verify_certificate


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(model="heisenberg")
    with pytest.raises(ValueError):
        ExperimentConfig(model="unitary-file")
    with pytest.raises(ValueError):
        ExperimentConfig(points=1)
    with pytest.raises(ValueError):
        ExperimentConfig(t_start=-0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(t_start=2.0, t_max=1.0)
    for model, coupling in (("syk", "j_coupling"), ("ising", "g")):
        with pytest.raises(ValueError, match="no default horizon"):
            ExperimentConfig(model=model, **{coupling: 0.0})
        assert ExperimentConfig(model=model, t_max=3.0,
                                **{coupling: 0.0}).resolved_t_max() == 3.0
    # a saved config from when the gap tolerance was a field is rejected
    saved = tmp_path / "saved.json"
    saved.write_text(json.dumps({"n": 3, "sdp_gap_tol": 1e-7}))
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json(str(saved))
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            ExperimentConfig(jobs=jobs)
    with pytest.raises(ValueError, match="at least one Pauli axis"):
        ExperimentConfig(measurements="")
    with pytest.raises(ValueError, match="unknown Pauli axis"):
        ExperimentConfig(measurements="xq")
    for bad in (3, None, ["x", "z"]):
        with pytest.raises(ValueError, match="must be a string of Pauli axes"):
            ExperimentConfig(measurements=bad)


def test_config_partition_defaults():
    assert ExperimentConfig(model="ising", n=3).resolved_n_c() == 2
    assert ExperimentConfig(model="ising", n=2).resolved_n_c() == 1
    assert ExperimentConfig(model="ising", n=8).resolved_n_c() == 2
    assert ExperimentConfig(model="ising", n=8, n_c=4).resolved_n_c() == 4
    assert ExperimentConfig(model="clifford", n=3).resolved_n_c() == 1


def test_config_horizon_defaults():
    assert ExperimentConfig(model="ising", g=2.0).resolved_t_max() == 20.0
    assert ExperimentConfig(model="syk",
                            j_coupling=2.0).resolved_t_max() == 74.0
    assert ExperimentConfig(model="clifford").resolved_t_max() == \
        pytest.approx(math.pi)
    assert ExperimentConfig(model="ising", t_max=7.5).resolved_t_max() == 7.5
    # the horizon scales with the coupling's magnitude, not its sign
    for model, coupling, t_max in (("syk", "j_coupling", 74.0),
                                   ("ising", "g", 20.0)):
        assert ExperimentConfig(model=model,
                                **{coupling: -2.0}).resolved_t_max() == t_max


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "syk", "n": 4, "points": 11}))
    cfg = ExperimentConfig.from_json(str(path), seed=5)
    assert cfg.model == "syk" and cfg.n == 4 and cfg.points == 11
    assert cfg.seed == 5
    path.write_text(json.dumps({"model": "syk", "bogus": 1}))
    with pytest.raises(ValueError, match="bogus"):
        ExperimentConfig.from_json(str(path))


def test_unitary_file_roundtrip(tmp_path, rng):
    u = haar_random_unitary(8, rng)
    path = tmp_path / "u.txt"
    save_unitary_file(str(path), u)
    back = load_unitary_file(str(path))
    np.testing.assert_array_equal(back, u)  # 17 digits survive the trip


def test_unitary_file_parse_errors(tmp_path):
    path = tmp_path / "u.txt"
    path.write_text("1 0\n0 zebra\n")
    with pytest.raises(ValueError, match=r"u\.txt:2"):
        load_unitary_file(str(path))
    path.write_text("1 0\n0\n")
    with pytest.raises(ValueError, match="inconsistent"):
        load_unitary_file(str(path))
    path.write_text("1 0 0\n0 1 0\n0 0 1\n")  # square but not 2^n
    with pytest.raises(ValueError, match="power of two"):
        load_unitary_file(str(path))
    path.write_text("1 0\n0 0.5\n")  # not unitary
    with pytest.raises(ValueError, match="unitary"):
        load_unitary_file(str(path))
    path.write_text("1 0\n")  # not square
    with pytest.raises(ValueError):
        load_unitary_file(str(path))


def test_run_scan_rows_and_witness_identity():
    cfg = ExperimentConfig(model="ising", n=3, g=1.0, h=0.0, points=5,
                           t_max=4.0)
    report = run_scan(cfg)
    assert len(report.rows) == 5
    times = report.times
    assert np.all(np.diff(times) > 0)
    np.testing.assert_allclose(times, np.linspace(0, 4, 5), atol=1e-12)
    for row in report.rows:
        assert row.status == "ok"
        assert row.minus_t3 == pytest.approx(
            row.tsw_tot - row.tsw_c - row.tsw_d, abs=1e-9)
        assert np.isfinite(row.minus_i3) and np.isfinite(row.i_ac)


def test_run_scan_worker_pool_is_order_deterministic():
    # Ising n = 3 is too small for OpenBLAS to thread; the SYK n = 8 Choi
    # state (2^9 dimensions) is not, so its rows must not depend on the
    # thread count of the process that computed them
    for cfg in (ExperimentConfig(model="ising", n=3, g=1.0, h=0.5, points=6,
                                 t_max=3.0),
                ExperimentConfig(model="syk", n=8, points=3, t_max=148.0)):
        seq = run_scan(cfg)
        par = run_scan(ExperimentConfig(**{**cfg.to_dict(), "jobs": 2}))
        assert seq.to_csv() == par.to_csv()


def test_run_scan_worker_pool_reports_progress():
    calls = []
    cfg = ExperimentConfig(model="ising", n=3, g=1.0, h=0.5, points=6,
                           t_max=3.0, jobs=2)
    run_scan(cfg, progress=lambda done, total: calls.append((done, total)))
    # one call per grid point, as in a single-process scan
    assert calls == [(k, 6) for k in range(1, 7)]


def test_run_scan_from_unitary_file(tmp_path, rng):
    path = tmp_path / "u.txt"
    save_unitary_file(str(path), haar_random_unitary(8, rng))
    cfg = ExperimentConfig(model="unitary-file", unitary_file=str(path))
    report = run_scan(cfg)
    assert len(report.rows) == 1
    assert report.config.n == 3
    assert report.rows[0].t == 0.0
    assert report.rows[0].status == "ok"


def test_run_scan_jobs_leave_rows_unchanged():
    # region D (dimension 64) is certified zero at every point, so no row
    # depends on state carried along a worker's chunk
    cfg = ExperimentConfig(model="syk", n=8, seed=0, points=6)
    seq = run_scan(cfg)
    par = run_scan(ExperimentConfig(**{**cfg.to_dict(), "jobs": 2}))
    assert seq.to_csv() == par.to_csv()


def test_past_cap_rows_do_not_depend_on_the_grid():
    # region D of Ising n=7 --nc 1 (dimension 64) is past the Schur cap and
    # zeroed by the exit's long search at t = 4; that row must not depend
    # on the point scanned before it (t = 0 or 0.5, both settled at once)
    def row_at_4(t_start):
        cfg = ExperimentConfig(model="ising", n=7, n_c=1, points=2,
                               t_start=t_start, t_max=4.0)
        rows = run_scan(cfg).to_csv().splitlines()[1:]
        return [r for r in rows if r.startswith("4,")]

    row = row_at_4(0.0)
    assert len(row) == 1 and row[0].endswith(",ok")
    assert row == row_at_4(0.5)


def test_every_reported_weight_has_a_verified_certificate(monkeypatch):
    # the integrable Ising and Clifford scans reach the exact zero, the
    # exact unit weight and the IPM; the n=7 --nc 1 point at t = 4 reaches
    # the long search past the Schur cap
    solve, solved = steering.solve_steering_weight, []

    def spy(members, **kwargs):
        sol = solve(members, **kwargs)
        solved.append((members, sol))
        return sol

    monkeypatch.setattr(steering, "solve_steering_weight", spy)
    run_scan(ExperimentConfig(model="ising", n=4, h=0.0, points=41))
    run_clifford_scan()
    choi = ChoiState(experiments.model_propagator(
        ExperimentConfig(n=7, n_c=1)).unitary(4.0))
    steering.minus_t3(choi, ("q1",), tuple(f"q{i}" for i in range(2, 8)))
    assert all(verify_certificate(members, sol) for members, sol in solved)
    paths = {"ipm" if sol.iterations else
             "unit" if sol.mu_star == 0.0 else "zero" for _, sol in solved}
    assert paths == {"ipm", "unit", "zero"}
    assert solved[-1][0].shape[-1] == 64 and solved[-1][1].iterations == 0


def test_run_scan_records_per_row_failures(monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalFailure("injected solver failure")

    monkeypatch.setattr(steering, "solve_steering_weight", fail)
    cfg = ExperimentConfig(model="ising", n=3, points=3, t_max=2.0)
    report = run_scan(cfg)  # must complete despite every solve failing
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.status.startswith("failed:")
        assert np.isfinite(row.minus_i3)  # witness columns that need no SDP
        assert math.isnan(row.minus_t3)
    assert "failed:" in report.to_csv()


def test_run_scan_caps_workers_at_grid_size(monkeypatch):
    workers = []

    class InProcessPool:
        """ProcessPoolExecutor stand-in: records its worker count and runs
        the grid points in this process, so the test starts no process."""

        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, times):
            return map(fn, times)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiments, "_worker_state", {})
    cfg = ExperimentConfig(model="ising", n=3, g=1.0, h=0.5, points=3,
                           t_max=3.0)
    par = run_scan(ExperimentConfig(**{**cfg.to_dict(), "jobs": 5000}))
    assert workers == [3]
    assert par.to_csv() == run_scan(cfg).to_csv()


def test_clifford_scan_reports_progress_and_honours_jobs():
    calls = []
    cfg = ExperimentConfig(model="clifford", n=3, points=5)
    seq = run_scan(cfg, progress=lambda done, total: calls.append(done))
    assert calls == [1, 2, 3, 4, 5]
    par = run_scan(ExperimentConfig(**{**cfg.to_dict(), "jobs": 2}))
    assert par.to_csv() == seq.to_csv()
    assert run_clifford_scan(points=5).to_csv() == seq.to_csv()


@pytest.mark.parametrize("model, n", [("ising", 5), ("syk", 6)])
def test_scan_never_forms_the_dense_choi_state(monkeypatch, model, n):
    def dense(self):
        raise AssertionError("dense Choi state formed")
    monkeypatch.setattr(ChoiState, "state", property(dense))
    report = run_scan(ExperimentConfig(model=model, n=n, points=3,
                                       t_max=4.0))
    # _witness_row turns exceptions into "failed: ..." rows, not raises
    assert len(report.rows) == 3
    assert not [r.status for r in report.rows if r.status.startswith("failed")]


def test_clifford_scan_grid():
    report = run_clifford_scan(points=9)
    assert report.config.n == 3
    assert len(report.rows) == 9
    np.testing.assert_allclose(report.times,
                               np.linspace(0, np.pi, 9), atol=1e-12)
    assert report.rows[0].minus_i3 == pytest.approx(0.0, abs=1e-9)


def test_backflow_rectifier_arithmetic():
    cfg = ExperimentConfig(model="ising", n=3, points=4, t_max=3.0)
    nan = float("nan")
    rows = [ScanRow(t, i3, t3, 0, 0, nan, nan, nan, "ok")
            for t, i3, t3 in [(0.0, 0.0, 0.0), (1.0, 0.5, 1.0),
                              (2.0, 0.2, 0.5), (3.0, 0.4, 0.8)]]
    report = ScramblingReport(cfg, rows)
    res = backflow_integral(report, "I3", units="bits")
    assert res.value == pytest.approx(0.3, abs=1e-12)
    assert res.units == "bits" and res.n_steps == 3 and res.dt == 1.0
    res = backflow_integral(report, "I3")  # nats by default
    assert res.value == pytest.approx(0.3 * math.log(2), abs=1e-12)
    assert res.units == "nats"
    res = backflow_integral(report, "T3", units="bits")
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.units == "unitless"
    res = backflow_integral(report, "I3", t_end=2.0, units="bits")
    assert res.value == pytest.approx(0.3, abs=1e-12)
    assert res.n_steps == 2 and res.t_end == 2.0


def test_backflow_input_validation():
    cfg = ExperimentConfig(model="ising", n=3, points=2, t_max=1.0)
    rows = [ScanRow(0.0, 0, 0, 0, 0, 0, 0, 1, "ok"),
            ScanRow(1.0, 1, 1, 0, 0, 0, 0, 1, "ok")]
    report = ScramblingReport(cfg, rows)
    with pytest.raises(ValueError):
        backflow_integral(report, "X7")
    with pytest.raises(ValueError):
        backflow_integral(report, "I3", units="furlongs")
    with pytest.raises(ValueError):
        backflow_integral(report, "I3", t_end=9.0)
    with pytest.raises(ValueError):
        backflow_integral(ScramblingReport(cfg, rows[:1]), "I3")


def test_backflow_nondecreasing_in_horizon():
    cfg = ExperimentConfig(model="ising", n=3, g=1.0, h=0.0, points=41)
    report = tmi_report(cfg)
    ends = report.times[5::7]
    vals = [backflow_integral(report, "I3", t_end=float(t)).value
            for t in ends]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_backflow_stable_under_grid_refinement():
    # doubling the default spin-chain grid moves the integral < 5%
    coarse = backflow_integral(tmi_report(ExperimentConfig(
        model="ising", n=3, g=1.0, h=0.0, points=200)), "I3").value
    fine = backflow_integral(tmi_report(ExperimentConfig(
        model="ising", n=3, g=1.0, h=0.0, points=400)), "I3").value
    assert abs(fine - coarse) / coarse < 0.05


def test_csv_roundtrip(tmp_path):
    cfg = ExperimentConfig(model="ising", n=3, points=5, t_max=4.0)
    report = run_scan(cfg)
    path = tmp_path / "scan.csv"
    text = report.to_csv(str(path))
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    back = ScramblingReport.from_csv(str(path))
    assert len(back.rows) == len(report.rows)
    for a, b in zip(back.rows, report.rows):
        assert a.status == b.status
        assert a.t == pytest.approx(b.t, rel=1e-11)
        assert a.minus_t3 == pytest.approx(b.minus_t3, rel=1e-10, abs=1e-11)
    # write-out is stable: parsing and re-serializing changes nothing
    assert back.to_csv() == text


def test_size_sweep_partition_modes():
    entries = size_sweep("integrable", sizes=(3,), points=4)
    assert entries[0].n == 3 and entries[0].n_c == 2
    assert entries[0].backflow_i3 == pytest.approx(
        backflow_integral(entries[0].report, "I3").value)
    entries = size_sweep("integrable", sizes=(3,), points=4, partition=1)
    assert entries[0].n_c == 1
    entries = size_sweep("integrable", sizes=(3,), points=4,
                         partition={3: 1})
    assert entries[0].n_c == 1
    with pytest.raises(ValueError):
        size_sweep("ballistic", sizes=(3,))


def test_scan_svg_output(tmp_path):
    report = run_clifford_scan(points=5)
    path = tmp_path / "scan.svg"
    write_scan_svg(report, str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
