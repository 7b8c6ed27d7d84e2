"""End-to-end acceptance gates for the scrambling-witness package.

Each test prints one PASS/FAIL summary line (collected in the terminal
summary).  Frozen numeric targets were produced by independent routes:
closed-form values where available, otherwise a reference conic solver or
a finer-grid rerun; tolerances are pinned next to each target.
"""

import functools
import time

import numpy as np
import pytest

import conftest
from helpers import (bloch_assemblage, random_steerable_state, swap_network,
                     tmi_report)
from qscramble import cli
from qscramble.channels import (PartitionSpec, build_choi, build_pdm,
                                haar_scrambled_baseline)
from qscramble.experiments import (ExperimentConfig, ScramblingReport,
                                   backflow_integral, run_clifford_scan,
                                   run_scan)
from qscramble.models import (clifford_scrambler_unitary, haar_random_unitary,
                              pauli_matrix, random_local_unitary)
from qscramble.sdp import first_order_steering_weight, solve_steering_weight
from qscramble.steering import (MeasurementSet, minus_t3, temporal_assemblage,
                                total_steerable_weight)

#: every report produced while the acceptance suite runs; the hierarchy
#: gate (criterion 9) sweeps all of their rows at the end
REPORTS = []


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                conftest.ACCEPTANCE_LINES[num] = (
                    f"criterion {num:02d} [{title}]: FAIL "
                    f"({type(exc).__name__}: {exc})")
                raise
            line = f"criterion {num:02d} [{title}]: PASS"
            if detail:
                line += f" ({detail})"
            conftest.ACCEPTANCE_LINES[num] = line
        return wrapper
    return deco


def scan_and_register(**kwargs) -> ScramblingReport:
    report = run_scan(ExperimentConfig(**kwargs))
    REPORTS.append(report)
    return report


@criterion(1, "product unitaries show no witness")
def test_criterion_01_product_unitaries():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    part = PartitionSpec.leading(4, 2)
    worst = 0.0
    for _ in range(50):
        u = random_local_unitary(part, rng)
        rec = minus_t3(build_choi(u), part.region_c, part.region_d)
        worst = max(worst, abs(rec.minus_t3))
    elapsed = time.perf_counter() - t0
    assert worst <= 2e-6
    assert elapsed <= 600.0
    return f"50 draws, max |-T3| = {worst:.2e}, {elapsed:.0f}s"


@criterion(2, "SWAP networks show no witness")
def test_criterion_02_swap_networks():
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (4, 5):
        part = PartitionSpec.leading(n, 2)
        for _ in range(10):
            depth = int(rng.integers(1, 6))
            u = np.eye(2 ** n, dtype=complex)
            for _ in range(depth):
                qubits = list(rng.permutation(n) + 1)
                pairs = []
                while len(qubits) >= 2:
                    a, b = int(qubits.pop()), int(qubits.pop())
                    if rng.random() < 0.75:
                        pairs.append((a, b))
                if pairs:
                    u = swap_network(n, pairs) @ u
            rec = minus_t3(build_choi(u), part.region_c, part.region_d)
            worst = max(worst, abs(rec.minus_t3))
    assert worst <= 2e-6
    return f"20 networks, max |-T3| = {worst:.2e}"


@criterion(3, "PDM routes agree")
def test_criterion_03_pdm_routes():
    rng = np.random.default_rng(303)
    worst = 0.0
    sizes = [1] * 8 + [2] * 12 + [3] * 5
    for n in sizes:
        u = haar_random_unitary(2 ** n, rng)
        a = build_pdm(u, method="choi").matrix
        b = build_pdm(u, method="correlator").matrix
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-10
    return f"{len(sizes)} unitaries, max deviation = {worst:.1e}"


@criterion(4, "unevolved Pauli assemblage has unit weight")
def test_criterion_04_unit_weight_at_t0():
    ms = MeasurementSet.pauli("xyz")
    total = total_steerable_weight(ms)
    assert total == pytest.approx(1.0, abs=1e-6)
    direct = solve_steering_weight(
        temporal_assemblage(build_choi(np.eye(4)), ms)).steerable_weight
    assert direct == pytest.approx(1.0, abs=1e-6)
    return f"shortcut {total:.9f}, full-register solve {direct:.9f}"


# 25-point Clifford interpolation curves, frozen from the implementation
# after cross-checks (endpoint values are exact by the circuit algebra;
# the -T3 plateau is reproducible to the solver gap)
CLIFFORD_I3 = np.array([
    0.000000000000, 0.210284097451, 0.533859817470, 0.798507629668,
    0.980885011041, 1.124717700630, 1.254272386551, 1.349161240982,
    1.404069239187, 1.501946056742, 1.711045171842, 1.917098588735,
    2.000000000000, 1.917098588735, 1.711045171842, 1.501946056742,
    1.404069239187, 1.349161240982, 1.254272386551, 1.124717700630,
    0.980885011041, 0.798507629668, 0.533859817470, 0.210284097451,
    0.000000000000])
CLIFFORD_T3 = np.array([
    -0.000000215652, 0.070795867491, 0.274686514899, 0.566916605333,
    0.882750070455, 0.999999833330, 0.999999891878, 0.999999891863,
    0.999999867956, 0.999999641711, 0.999999784341, 0.999999844391,
    0.999999735126, 0.999999844391, 0.999999784341, 0.999999641711,
    0.999999867956, 0.999999891863, 0.999999891878, 0.999999833331,
    0.882750069873, 0.566916605349, 0.274686542861, 0.070795873758,
    -0.000000215652])


def first_argmax(values, tol=1e-6):
    """Earliest grid index within ``tol`` of the maximum.

    Plateaued curves make the literal argmax a coin flip on solver noise,
    so saturation times are compared by first entry into the plateau.
    """
    values = np.asarray(values)
    return int(np.flatnonzero(values >= values.max() - tol)[0])


@criterion(5, "Clifford interpolation curves")
def test_criterion_05_clifford_interpolation():
    report = run_clifford_scan(points=25)
    REPORTS.append(report)
    i3 = report.column("minusI3")
    t3 = report.column("minusT3")
    thetas = report.times
    assert abs(i3[0]) <= 1e-9
    idx_i3 = first_argmax(i3)
    assert thetas[idx_i3] == pytest.approx(np.pi / 2, abs=1e-12)
    idx_t3 = first_argmax(t3)
    assert thetas[idx_t3] <= thetas[idx_i3] + 1e-12
    # exact pi-periodicity: same grid shifted by one period
    shifted = run_clifford_scan(ExperimentConfig(
        model="clifford", n=3, t_start=float(np.pi),
        t_max=float(2 * np.pi), points=25))
    REPORTS.append(shifted)
    per_i3 = float(np.max(np.abs(shifted.column("minusI3") - i3)))
    per_t3 = float(np.max(np.abs(shifted.column("minusT3") - t3)))
    assert per_i3 <= 1e-6 and per_t3 <= 1e-6
    np.testing.assert_allclose(i3, CLIFFORD_I3, atol=1e-9)
    np.testing.assert_allclose(t3, CLIFFORD_T3, atol=5e-6)
    return (f"-I3 peak at theta[{idx_i3}] = pi/2, -T3 saturates at "
            f"theta[{idx_t3}], periodicity defect {max(per_i3, per_t3):.1e}")


# how the fixed scrambler conjugates every single-site Pauli: each output
# is a full-weight string, the algebraic fingerprint of scrambling
SCRAMBLER_TABLE = [
    ("XII", "XYY", -1), ("YII", "YZZ", -1), ("ZII", "ZXX", -1),
    ("IXI", "YXY", -1), ("IYI", "ZYZ", -1), ("IZI", "XZX", -1),
    ("IIX", "YYX", -1), ("IIY", "ZZY", -1), ("IIZ", "XXZ", -1),
]


@criterion(6, "scrambler conjugation table")
def test_criterion_06_conjugation_identities():
    u = clifford_scrambler_unitary()
    worst = 0.0
    for src, dst, sign in SCRAMBLER_TABLE:
        got = u @ pauli_matrix(src) @ u.conj().T
        want = sign * pauli_matrix(dst)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-10
    return f"9 identities, max deviation = {worst:.1e}"


# published backflow of the tripartite-information witness for the
# transverse-field chain (natural-log units, 101-point grid, C = {q1,q2})
INTEGRABLE_BACKFLOW = {3: 5.295, 4: 2.602, 5: 1.764, 8: 0.557}


@criterion(7, "integrable-chain backflow table")
def test_criterion_07_integrable_backflow():
    values = {}
    elapsed8 = None
    for n in (3, 4, 5, 8):
        t0 = time.perf_counter()
        report = tmi_report(ExperimentConfig(model="ising", n=n, g=1.0,
                                             h=0.0, points=101))
        values[n] = backflow_integral(report, "I3").value
        if n == 8:
            elapsed8 = time.perf_counter() - t0
    for n, target in INTEGRABLE_BACKFLOW.items():
        assert values[n] == pytest.approx(target, rel=0.10)
    ordered = [values[n] for n in (3, 4, 5, 8)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    assert elapsed8 <= 1800.0
    ratios = ", ".join(f"n{n}: {values[n] / t:.3f}"
                       for n, t in INTEGRABLE_BACKFLOW.items())
    return f"target ratios {ratios}; size-8 grid in {elapsed8:.0f}s"


@criterion(8, "chaotic and random-coupling backflow")
def test_criterion_08_chaotic_backflow():
    t3_flows = {}
    for n in (4, 5, 8):
        rep = scan_and_register(model="ising", n=n, g=1.0, h=0.5, points=101)
        assert all(r.status == "ok" for r in rep.rows)
        t3_flows[f"chaotic n{n}"] = backflow_integral(rep, "T3").value
        rep = scan_and_register(model="syk", n=n, seed=0, points=101)
        assert all(r.status == "ok" for r in rep.rows)
        t3_flows[f"syk n{n}"] = backflow_integral(rep, "T3").value
    for name, value in t3_flows.items():
        assert 0.0 <= value <= 1e-4, name
    # the MI-witness backflow keeps its size ordering for 3 disorder draws
    for seed in (0, 1, 2):
        flows = []
        for n in (3, 4, 5, 8):
            report = tmi_report(ExperimentConfig(model="syk", n=n, seed=seed,
                                                 points=101))
            flows.append(backflow_integral(report, "I3").value)
        assert all(a > b for a, b in zip(flows, flows[1:])), \
            f"seed {seed}: {flows}"
    worst = max(t3_flows.values())
    return f"max weight-witness backflow = {worst:.2e}; ordering holds x3"


@criterion(10, "late-time witness matches the Haar reference")
def test_criterion_10_haar_baseline():
    part = PartitionSpec.leading(7, 3)
    base = haar_scrambled_baseline(7, part, samples=200, seed=0)
    cfg = ExperimentConfig(model="ising", n=7, g=1.0, h=0.5, n_c=3,
                           t_start=30.0, t_max=40.0, points=26)
    report = tmi_report(cfg)
    late = report.column("minusI3")
    rel = np.abs(late - base.mean) / base.mean
    assert float(rel.max()) <= 0.15
    assert abs(late.mean() - base.mean) / base.mean <= 0.15
    return (f"window mean {late.mean():.4f} vs Haar {base.mean:.4f} "
            f"+- {base.stderr:.4f}, worst deviation {rel.max():.1%}")


@criterion(11, "conic and splitting solvers agree")
def test_criterion_11_solver_cross_check():
    rng = np.random.default_rng(1105)
    worst = 0.0
    steerable = 0
    for _ in range(30):
        rho = random_steerable_state(rng)
        axes = rng.normal(size=(3, 3))
        members = bloch_assemblage(rho, axes)
        sol = solve_steering_weight(members)
        res = first_order_steering_weight(members, tol=1e-8)
        assert res.converged
        worst = max(worst, abs(sol.steerable_weight - res.weight))
        steerable += sol.steerable_weight > 0.01
    assert worst <= 1e-5
    assert steerable >= 10  # the ensemble genuinely exercises both solvers
    return f"30 assemblages ({steerable} steerable), max gap = {worst:.1e}"


@criterion(12, "repeated scans are bitwise identical")
def test_criterion_12_determinism(tmp_path):
    args = ["scan", "--model", "syk", "--n", "3", "--points", "5",
            "--seed", "3", "--quiet"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    REPORTS.append(ScramblingReport.from_csv(str(out_a)))
    return f"two runs, {len(bytes_a)} bytes each, identical"


@criterion(9, "steering implies mutual information")
def test_criterion_09_hierarchy_every_row():
    # runs last: sweeps every report the suite produced above
    if not REPORTS:  # standalone invocation
        REPORTS.append(run_scan(ExperimentConfig(
            model="ising", n=3, g=1.0, h=0.0, points=41)))
    checked = 0
    for report in REPORTS:
        for row in report.rows:
            for weight, info in ((row.tsw_c, row.i_ac), (row.tsw_d, row.i_ad)):
                if np.isnan(weight):
                    continue
                checked += 1
                if weight > 1e-4:
                    assert info > 1e-6, (report.config.model, row.t)
    assert checked >= 100
    return f"{checked} weight/information pairs, no inversions"
