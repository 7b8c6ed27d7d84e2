import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qscramble import cli
from qscramble.experiments import (ExperimentConfig, ScanRow,
                                   ScramblingReport, save_unitary_file)
from qscramble.models import haar_random_unitary


def test_scan_writes_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = cli.main(["scan", "--model", "ising", "--n", "3", "--points", "4",
                   "--tmax", "3.0", "--out", str(out)])
    assert rc == 0
    report = ScramblingReport.from_csv(str(out))
    assert len(report.rows) == 4
    assert "wrote 4 rows" in capsys.readouterr().out


def test_scan_stdout_when_no_out(capsys):
    rc = cli.main(["scan", "--model", "ising", "--n", "3", "--points", "2",
                   "--tmax", "1.0", "--quiet"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("t,minusI3,minusT3")
    assert len(text.strip().splitlines()) == 3


def test_scan_accepts_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "ising", "n": 3, "points": 2,
                               "t_max": 1.0}))
    out = tmp_path / "scan.csv"
    rc = cli.main(["scan", "--config", str(cfg), "--points", "3",
                   "--out", str(out), "--quiet"])
    assert rc == 0
    assert len(ScramblingReport.from_csv(str(out)).rows) == 3  # flag wins


def test_scan_unitary_file(tmp_path, rng):
    upath = tmp_path / "u.txt"
    save_unitary_file(str(upath), haar_random_unitary(4, rng))
    out = tmp_path / "one.csv"
    rc = cli.main(["scan", "--model", "unitary-file", "--unitary-file",
                   str(upath), "--out", str(out), "--quiet"])
    assert rc == 0
    report = ScramblingReport.from_csv(str(out))
    assert len(report.rows) == 1


def test_clifford_and_backflow_pipeline(tmp_path, capsys):
    out = tmp_path / "cliff.csv"
    rc = cli.main(["clifford", "--points", "9", "--out", str(out), "--quiet"])
    assert rc == 0
    rc = cli.main(["backflow", "--in", str(out), "--quantity", "I3",
                   "--units", "bits"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "backflow[I3]" in text and "bits" in text
    rc = cli.main(["backflow", "--in", str(out), "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert [d["quantity"] for d in data] == ["I3", "T3"]
    assert data[1]["units"] == "unitless"


def test_backflow_rejects_non_finite_t_end(tmp_path, capsys):
    rows = [ScanRow(t, 0.1 * t, 0.2 * t, 1.0, 1.0, 0.5, 0.5, 0.9, "ok")
            for t in (0.0, 1.0, 2.0)]
    path = tmp_path / "s.csv"
    path.write_text(ScramblingReport(ExperimentConfig(), rows).to_csv())
    for t_end in ("nan", "inf"):
        assert cli.main(["backflow", "--in", str(path),
                         "--t-end", t_end]) == 2
        assert f"error: t_end {t_end} outside scan grid" in \
            capsys.readouterr().err


def test_clifford_reports_progress(monkeypatch):
    ticks = []
    monkeypatch.setattr(cli, "_progress",
                        lambda quiet: lambda done, total:
                        ticks.append((done, total)))
    assert cli.main(["clifford", "--points", "3", "--quiet"]) == 0
    assert ticks == [(1, 3), (2, 3), (3, 3)]


def test_backflow_rejects_malformed_csv(tmp_path, capsys):
    rows = [ScanRow(t, 0.1 * t, 0.2 * t, 1.0, 1.0, 0.5, 0.5, 0.9, "ok")
            for t in (0.0, 1.0, 2.0, 3.0)]
    text = ScramblingReport(ExperimentConfig(), rows).to_csv()
    blank = tmp_path / "blank.csv"
    blank.write_text(text + "\r\n", newline="")
    assert ScramblingReport.from_csv(str(blank)).to_csv() == text
    assert cli.main(["backflow", "--in", str(blank)]) == 0
    capsys.readouterr()

    lines = text.splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1] + [lines[-1][:12]]) + "\n")
    assert cli.main(["backflow", "--in", str(short)]) == 2
    assert f"{short}:5: expected 9 fields" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert cli.main(["backflow", "--in", str(empty)]) == 2
    assert f"error: {empty}: empty file" in capsys.readouterr().err

    word = tmp_path / "word.csv"
    fields = lines[3].split(",")
    fields[1] = "abc"
    word.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:])
                    + "\n")
    assert cli.main(["backflow", "--in", str(word)]) == 2
    assert (f"error: {word}:4: could not convert string to float: 'abc'"
            in capsys.readouterr().err)

    leading = tmp_path / "leading.csv"
    leading.write_text("\n \n" + text)
    assert ScramblingReport.from_csv(str(leading)).to_csv() == text

    blanks = tmp_path / "blanks.csv"
    blanks.write_text("\n\n  \n")
    assert cli.main(["backflow", "--in", str(blanks)]) == 2
    assert f"error: {blanks}: empty file" in capsys.readouterr().err

    header = tmp_path / "header.csv"
    header.write_text("\n".join(["t,minusI3"] + lines[1:]) + "\n")
    assert cli.main(["backflow", "--in", str(header)]) == 2
    assert (f"error: {header}: unexpected CSV header ['t', 'minusI3']"
            in capsys.readouterr().err)


def test_python_dash_m_runs_the_command():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "qscramble", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: qscramble" in proc.stdout


def test_clifford_svg(tmp_path):
    out = tmp_path / "cliff.csv"
    svg = tmp_path / "cliff.svg"
    rc = cli.main(["clifford", "--points", "5", "--out", str(out),
                   "--svg", str(svg), "--quiet"])
    assert rc == 0
    assert svg.read_text().startswith("<svg")


def test_sweep_json_and_csv_dir(tmp_path, capsys):
    # the output directory does not exist yet; the command must create it
    out_dir = tmp_path / "results"
    rc = cli.main(["sweep", "--family", "integrable", "--sizes", "3",
                   "--points", "4", "--nc", "1", "--json",
                   "--out-dir", str(out_dir)])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["n"] == 3 and rows[0]["n_c"] == 1
    assert (out_dir / "integrable_n3.csv").exists()


def test_haar_baseline_output(capsys):
    rc = cli.main(["haar-baseline", "--n", "3", "--nc", "1",
                   "--samples", "6", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-I3 Haar baseline (n=3, n_c=1, 6 samples):" in out


def test_verify_subcommand_quick_subset(capsys):
    rc = cli.main(["verify", "--quick", "--only", "choi", "determinism"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] choi" in out and "[PASS] determinism" in out
    assert "2/2 checks passed" in out
    header = out.splitlines()[0]
    assert header.startswith("environment: cpu_count=")
    for key in ("OPENBLAS_NUM_THREADS=", "OMP_NUM_THREADS="):
        assert key in header
    assert "backend=" not in header


def test_verify_term_matching_no_check_is_a_clean_error(capsys):
    rc = cli.main(["verify", "--quick", "--only", "choi", "strategies"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: no checks match ['strategies']" in captured.err
    assert captured.out == ""


def test_zero_coupling_without_horizon_is_a_clean_error(capsys):
    rc = cli.main(["scan", "--model", "syk", "--J", "0", "--points", "2"])
    assert rc == 2
    assert "error: model 'syk' with j_coupling = 0 has no default horizon" \
        in capsys.readouterr().err
    rc = cli.main(["scan", "--model", "ising", "--g", "0", "--points", "2"])
    assert rc == 2
    assert "with g = 0 has no default horizon" in capsys.readouterr().err


def test_unusable_tolerance_or_job_count_is_a_clean_error(capsys, tmp_path):
    base = ["scan", "--model", "ising", "--n", "3", "--points", "3",
            "--tmax", "40"]
    # the solver's stop rule is fixed, so the tolerance flag is gone
    with pytest.raises(SystemExit) as exc:
        cli.main(base + ["--sdp-tol", "-1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sdp-tol" in capsys.readouterr().err
    for jobs in ("0", "-2"):
        rc = cli.main(base + ["--jobs", jobs])
        assert rc == 2
        assert (f"error: jobs must be at least 1, got {jobs}"
                in capsys.readouterr().err)
    rc = cli.main(["sweep", "--family", "chaotic", "--sizes", "3",
                   "--points", "2", "--jobs", "0"])
    assert rc == 2
    assert "error: jobs must be at least 1" in capsys.readouterr().err
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"measurements": ""}))
    rc = cli.main(base + ["--config", str(config)])
    assert rc == 2
    assert ("error: measurements must name at least one Pauli axis, got ''"
            in capsys.readouterr().err)
    config.write_text(json.dumps({"measurements": 3}))
    rc = cli.main(base + ["--config", str(config)])
    assert rc == 2
    assert ("error: measurements must be a string of Pauli axes, got 3"
            in capsys.readouterr().err)


def test_late_start_is_a_clean_error(capsys):
    # the default horizon of the g = 1 chain is 40: a later start would
    # run the grid backwards
    rc = cli.main(["scan", "--model", "ising", "--n", "3", "--points", "3",
                   "--tstart", "50"])
    assert rc == 2
    assert ("error: t_max must exceed t_start, got t_start = 50.0 and "
            "t_max = 40.0" in capsys.readouterr().err)


@pytest.mark.parametrize("config, message", [
    (["n"], "config must be a JSON object, got list"),
    ({"points": 2.5}, "points must be an integer, got 2.5"),
    ({"n": "5"}, "n must be an integer, got '5'"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"g": "x"}, "g must be a number, got 'x'"),
    ({"n_c": 1.5}, "n_c must be an integer, got 1.5"),
    ({"t_max": "3"}, "t_max must be a number, got '3'"),
    ({"jobs": 2.0}, "jobs must be an integer, got 2.0"),
    ({"n": True}, "n must be an integer, got True"),
    ({"h": False}, "h must be a number, got False"),
    ({"unitary_file": 5}, "unitary_file must be a path, got 5"),
], ids=["list", "points", "n", "seed", "g", "n_c", "t_max", "jobs",
        "bool-int", "bool-float", "unitary_file"])
def test_config_type_errors_are_clean(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    if isinstance(config, dict):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**config)


@pytest.mark.parametrize("flag, field, value", [
    ("--tmax", "t_max", "nan"), ("--h", "h", "inf"),
    ("--tstart", "t_start", "nan"), ("--g", "g", "-inf")],
    ids=["tmax-nan", "h-inf", "tstart-nan", "g-minus-inf"])
def test_non_finite_config_values_are_clean_errors(capsys, flag, field,
                                                   value):
    rc = cli.main(["scan", "--model", "ising", "--n", "3", "--points", "3",
                   f"{flag}={value}"])
    assert rc == 2
    message = f"{field} must be finite, got {float(value)!r}"
    assert f"error: {message}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(n=3, points=3, **{field: float(value)})


def test_bad_arguments_exit_nonzero():
    with pytest.raises(SystemExit):
        cli.main(["scan", "--model", "warp-drive"])
    with pytest.raises(SystemExit):
        cli.main([])
