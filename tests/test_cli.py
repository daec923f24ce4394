import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qgeom import __version__
from qgeom.cli import main

CUT = "--cutoff"


def parse_csv(text):
    import csv
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    rows = [dict(zip(header, cells)) for cells in reader]
    return header, rows


def test_eval_gho_all_methods(capsys, tmp_path):
    out_file = tmp_path / "eval.csv"
    code = main(["eval", "--model", "gho", "--point", "2,0.5,1", "--n", "1",
                 "--method", "all", CUT, "40", "--out", str(out_file)])
    assert code == 0
    header, rows = parse_csv(out_file.read_text())
    methods = [r["method"] for r in rows]
    assert methods == ["perturbative", "overlap-fd", "covariance",
                       "closed-form", "agreement"]
    agree = rows[-1]
    assert float(agree["dev[perturbative-vs-overlap-fd]"]) < 1e-5
    assert float(agree["dev[perturbative-vs-covariance]"]) < 1e-8
    # split columns present for the perturbative record
    assert "metric_re[X|Y]" in header and "berry_re[X|Y]" in header


def test_eval_domain_message(capsys):
    code = main(["eval", "--model", "gho", "--point", "1,2,1", "--n", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "XZ - Y^2" in captured.err


def _run_python(*args):
    """A fresh interpreter that imports this checkout's qgeom."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_cli(*args):
    return _run_python("-m", "qgeom", *args)


@pytest.mark.parametrize("args", [
    ("--model", "gho", "--point", "1e200,0,1e200", CUT, "20"),
    ("--model", "lin-coupled", "--point", "1e200,2e200,1", CUT, "10",
     "--method", "covariance"),
    ("--model", "sym-coupled", "--point", "1,1e308", CUT, "10"),
])
def test_overflowing_point_is_a_domain_error(args):
    # a derived quantity (XZ - Y^2, 4AB - C^2, k0 + 2 k1) that overflows is
    # rejected before any operator is built, so numpy never warns
    done = _run_cli("eval", *args)
    assert done.returncode == 2
    assert done.stderr.startswith("domain error:")
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize("sigma", ["1/(l1-l1)", "9^9^9", "exp(1000*l1)"])
def test_expression_failure_exit_2(capsys, sigma):
    # division by zero, overflow in the expression, overflow in sigma^-5
    code = main(["eval", "--model", "gaussian", "--sigma", sigma, "--mu", "l2",
                 "--params", "l1,l2", "--point", "0.5,0.1", "--n", "0"])
    assert code == 2
    assert "domain error" in capsys.readouterr().err


def test_unknown_model_exit_2(capsys):
    import subprocess, sys
    proc = subprocess.run([sys.executable, "-m", "qgeom.cli", "eval",
                           "--model", "bogus", "--point", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_degenerate_state_exit_3(capsys):
    code = main(["eval", "--model", "sym-coupled", "--point", "2,3.000000004",
                 "--n", "1,2", CUT, "16"])
    captured = capsys.readouterr()
    assert code == 3


def test_eval_gaussian_expressions(capsys, tmp_path):
    out_file = tmp_path / "gauss.json"
    code = main(["eval", "--model", "gaussian", "--sigma", "X^(-1/4)",
                 "--mu", "W/X", "--params", "W,X", "--point", "1,1",
                 "--n", "0", CUT, "40", "--method", "perturbative,closed-form",
                 "--format", "json", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    rows = doc["rows"]
    pert = rows[0]
    # metric at (W, X) = (1, 1): g_WW = 1/2, g_WX = -1/2, g_XX = 17/32
    assert pert["G_re[W|W]"] == pytest.approx(0.5, abs=1e-8)
    assert pert["G_re[W|X]"] == pytest.approx(-0.5, abs=1e-8)
    assert pert["G_re[X|X]"] == pytest.approx(17.0 / 32.0, abs=1e-8)


def test_sweep_monotone_trends(tmp_path):
    out_file = tmp_path / "sweep.csv"
    code = main(["sweep", "--model", "sym-coupled", "--axis", "k1=0:5:11",
                 "--fix", "k0=1", "--n", "0,0", CUT, "16",
                 "--quantities", "purity,entropy,nu,det_metric",
                 "--out", str(out_file), "--no-header-timestamp"])
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    assert len(rows) == 11
    mus = [float(r["purity"]) for r in rows]
    ents = [float(r["entropy"]) for r in rows]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    assert all(b > a for a, b in zip(ents, ents[1:]))


def test_sweep_detqmt_column(tmp_path):
    # det g over Y at X = 1, W = 1 reproduces the closed determinant
    out_file = tmp_path / "det.csv"
    code = main(["sweep", "--model", "gho-linear", "--axis", "Y=-0.5:0.5:5",
                 "--fix", "W=1", "--fix", "X=1", "--fix", "Z=1", "--n", "1",
                 "--quantities", "metric_det", "--out", str(out_file)])
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    from qgeom.models import get_model
    model = get_model("gho-linear")
    for row in rows:
        y = float(row["point[Y]"])
        expected = model.closed_form("metric_det", model.point(1.0, 1.0, y, 1.0), (1,))
        assert float(row["metric_det"]) == pytest.approx(expected, rel=1e-12)


def test_sweep_curvature_columns(tmp_path):
    # phase-metric curvatures along Y at Z = 1, X = 2, n = 0
    out_file = tmp_path / "curv.csv"
    code = main(["sweep", "--model", "gho", "--axis", "Y=-0.9:0.9:7",
                 "--fix", "X=2", "--fix", "Z=1", "--n", "0",
                 "--quantities", "scalar:phase:XY,scalar:phase:XZ,scalar:phase:YZ",
                 "--out", str(out_file)])
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    from qgeom.models import get_model
    model = get_model("gho")
    for row in rows:
        y = float(row["point[Y]"])
        point = model.point(2.0, y, 1.0)
        for name in ("scalar:phase:XY", "scalar:phase:XZ", "scalar:phase:YZ"):
            assert float(row[name]) == pytest.approx(
                model.closed_form(name, point, (0,)), rel=1e-12)


def test_sweep_scalar_column_is_scalar_param(tmp_path):
    # an INI `which` key does not redirect the `scalar` column
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[job]\nwhich = scalar:phase:XY\n")
    out_file = tmp_path / "scalar.csv"
    assert main(["sweep", "--config", str(cfg), "--model", "gho",
                 "--axis", "Y=-0.5:0.5:3", "--fix", "X=2", "--fix", "Z=1",
                 "--n", "0", "--quantities", "scalar", "--out", str(out_file)]) == 0
    _, rows = parse_csv(out_file.read_text())
    from qgeom.models import get_model
    model = get_model("gho")
    for row in rows:
        point = model.point(2.0, float(row["point[Y]"]), 1.0)
        assert float(row["scalar"]) == pytest.approx(
            model.closed_form("scalar:param", point, (0,)), rel=1e-12)


@pytest.mark.parametrize("model,axis,fix,levels", [
    ("gho", "X=1:2:2", ["Y=0", "Z=1"], range(4)),
    ("gho-linear", "X=1:2:2", ["W=0.5", "Y=0.3", "Z=1"], range(4)),
    ("gaussian", "l1=-0.5:0.5:2", ["l2=0.7"], [0]),
])
def test_sweep_one_mode_nu_is_n_plus_half(tmp_path, model, axis, fix, levels):
    # the symplectic eigenvalue of the closed covariance of level n
    for n in levels:
        out_file = tmp_path / f"nu{n}.csv"
        args = ["sweep", "--model", model, "--axis", axis, "--n", str(n),
                "--quantities", "nu", "--out", str(out_file)]
        for assign in fix:
            args += ["--fix", assign]
        assert main(args) == 0
        _, rows = parse_csv(out_file.read_text())
        assert [float(r["nu"]) for r in rows] == pytest.approx([n + 0.5] * 2, abs=1e-12)


@pytest.mark.parametrize("model,axis,fix", [
    ("gho", "X=1:2:2", ["Y=0.3", "Z=1"]),
    ("gho-linear", "X=1:2:2", ["W=0.5", "Y=0.3", "Z=1"]),
    ("gaussian", "l1=-0.5:0.5:2", ["l2=0.7"]),
    ("sym-coupled", "k1=0.2:0.8:2", ["k0=1"]),
    ("lin-coupled", "C=0.5:1:2", ["A=1", "B=2"]),
])
def test_default_sweep_writes_no_error(tmp_path, model, axis, fix):
    out_file = tmp_path / "default.csv"
    args = ["sweep", "--model", model, "--axis", axis, CUT, "16", "--out", str(out_file)]
    for assign in fix:
        args += ["--fix", assign]
    assert main(args) == 0
    header, rows = parse_csv(out_file.read_text())
    assert "error" not in header and "nu" in header and len(rows) == 2


def test_sweep_error_column_keeps_running(tmp_path):
    out_file = tmp_path / "err.csv"
    # the grid crosses the domain boundary 4AB = C^2
    code = main(["sweep", "--model", "lin-coupled", "--axis", "C=0:4:5",
                 "--fix", "A=1", "--fix", "B=2", "--n", "0,0",
                 "--quantities", "purity", "--out", str(out_file)])
    assert code == 0
    header, rows = parse_csv(out_file.read_text())
    assert "error" in header
    assert len(rows) == 5
    assert any(r.get("error") for r in rows)
    assert any(r.get("purity") for r in rows)


def test_output_determinism_and_timestamp(tmp_path):
    args = ["eval", "--model", "gho", "--point", "1.5,0.2,1", "--n", "0",
            CUT, "24", "--method", "perturbative"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a), "--no-header-timestamp"]) == 0
    assert main(args + ["--out", str(b), "--no-header-timestamp"]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the entangle command takes its state from the ARPACK window solve
    ent = ["entangle", "--model", "sym-coupled", "--point", "1.3,0.7", "--n", "1,2",
           CUT, "24", "--no-header-timestamp"]
    e1 = tmp_path / "e1.csv"
    e2 = tmp_path / "e2.csv"
    assert main(ent + ["--out", str(e1)]) == 0
    assert main(ent + ["--out", str(e2)]) == 0
    assert e1.read_bytes() == e2.read_bytes()
    c = tmp_path / "c.csv"
    assert main(args + ["--out", str(c)]) == 0
    assert c.read_text().startswith("# generated ")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.ini"
    cfg.write_text("""
[job]
model = gho
point = 2, 0.5, 1
n = 0
cutoff = 24
method = perturbative
timestamp = false
""")
    out_file = tmp_path / "out.csv"
    code = main(["eval", "--config", str(cfg), "--n", "1", "--out", str(out_file)])
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    assert rows[0]["n"] == "1"  # flag wins over the config file


def test_gaussian_config_section(tmp_path):
    cfg = tmp_path / "job.ini"
    cfg.write_text("""
[job]
model = gaussian
point = 1, 1
n = 0
cutoff = 30
method = closed-form

[gaussian]
sigma = X^(-1/4)
mu = W/X
params = W, X
""")
    out_file = tmp_path / "out.csv"
    assert main(["eval", "--config", str(cfg), "--out", str(out_file)]) == 0
    _, rows = parse_csv(out_file.read_text())
    assert rows[0]["method"] == "closed-form"


def test_curvature_command(tmp_path):
    out_file = tmp_path / "curv.json"
    code = main(["curvature", "--model", "sym-coupled", "--point", "1,1",
                 "--n", "0,0", "--which", "param", "--format", "json",
                 "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    row = doc["rows"][0]
    assert row["flat"] is True
    assert row["christoffel[0|0|0]"] == pytest.approx(-1.0, abs=1e-6)


def test_curvature_phase_submanifold(tmp_path):
    out_file = tmp_path / "curv2.json"
    code = main(["curvature", "--model", "gho", "--point", "2,0.5,1",
                 "--n", "0", "--which", "phase:XY", "--format", "json",
                 "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    row = doc["rows"][0]
    from qgeom.models import get_model
    model = get_model("gho")
    expected = model.closed_form("scalar:phase:XY", model.point(2.0, 0.5, 1.0), (0,))
    assert row["scalar"] == pytest.approx(expected, abs=1e-4)
    assert row["scalar_2d_direct"] == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("pinned", ["X", "Y", "Z"])
def test_curvature_metric_sub_pins_its_parameter(tmp_path, pinned):
    # metric_sub:K is the metric on the other two parameters, K at --point;
    # its scalar curvature is -16/b_n, b_1 = 3
    out_file = tmp_path / "sub.json"
    code = main(["curvature", "--model", "gho", "--point", "2,0.5,1", "--n", "1",
                 "--which", f"metric_sub:{pinned}", "--format", "json",
                 "--out", str(out_file)])
    assert code == 0
    row = json.loads(out_file.read_text())["rows"][0]
    assert {key for key in row if key.startswith("point[")} == {
        f"point[{name}]" for name in "XYZ" if name != pinned}
    assert row["scalar"] == pytest.approx(-16.0 / 3.0, abs=1e-4)
    assert row["scalar_2d_direct"] == pytest.approx(-16.0 / 3.0, abs=1e-4)


def test_entangle_command(tmp_path):
    out_file = tmp_path / "ent.csv"
    code = main(["entangle", "--model", "sym-coupled", "--point", "1,1",
                 "--n", "0,0", CUT, "20", "--out", str(out_file)])
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    row = rows[0]
    w1, w2 = 1.0, math.sqrt(3.0)
    assert float(row["purity"]) == pytest.approx(float(row["purity_closed"]), abs=1e-8)
    assert float(row["nu"]) == pytest.approx((w1 + w2) / (4 * math.sqrt(w1 * w2)),
                                             abs=1e-8)


def test_entangle_command_lin_coupled(tmp_path):
    out_file = tmp_path / "ent.csv"
    code = main(["entangle", "--model", "lin-coupled", "--point", "1,2,1",
                 "--n", "0,0", CUT, "20", "--out", str(out_file)])
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    row = rows[0]
    assert float(row["purity"]) == pytest.approx(float(row["purity_closed"]), abs=1e-8)
    assert float(row["entropy"]) == pytest.approx(float(row["entropy_closed"]), abs=1e-8)


def test_entangle_rejects_single_mode(capsys):
    assert main(["entangle", "--model", "gho", "--point", "1,0,1", "--n", "0"]) == 2


def test_bad_cutoff_rejected(capsys):
    assert main(["eval", "--model", "gho", "--point", "1,0,1", "--n", "0",
                 CUT, "4"]) == 2


def test_sweep_two_axes_grid_order(tmp_path):
    out_file = tmp_path / "grid.csv"
    code = main(["sweep", "--model", "sym-coupled", "--axis", "k0=1:2:2",
                 "--axis", "k1=0:2:3", "--n", "0,0",
                 "--quantities", "purity", "--out", str(out_file)])
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    got = [(float(r["point[k0]"]), float(r["point[k1]"])) for r in rows]
    assert got == [(1.0, 0.0), (1.0, 1.0), (1.0, 2.0),
                   (2.0, 0.0), (2.0, 1.0), (2.0, 2.0)]


def test_sweep_det_multiple_quantum_numbers(tmp_path):
    for n in (0, 2):
        out_file = tmp_path / f"det{n}.csv"
        assert main(["sweep", "--model", "gho-linear", "--axis", "Y=-0.4:0.4:3",
                     "--fix", "W=1", "--fix", "X=1", "--fix", "Z=1",
                     "--n", str(n), "--quantities", "metric_det",
                     "--out", str(out_file)]) == 0
        _, rows = parse_csv(out_file.read_text())
        assert all(float(r["metric_det"]) > 0 for r in rows)


def test_eval_two_mode_all_methods(tmp_path):
    out_file = tmp_path / "sym.csv"
    code = main(["eval", "--model", "sym-coupled", "--point", "1,0.8",
                 "--n", "0,0", "--method", "all", CUT, "16",
                 "--out", str(out_file)])
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    agree = rows[-1]
    assert agree["method"] == "agreement"
    assert float(agree["dev[perturbative-vs-covariance]"]) < 1e-8
    cov_row = rows[2]
    assert cov_row["method"] == "covariance"
    assert float(cov_row["sigma_re[q1|q1]"]) > 0


def test_curvature_param_z1(tmp_path):
    out_file = tmp_path / "z1.json"
    code = main(["curvature", "--model", "gho-linear", "--point", "1,1,0,1",
                 "--n", "0", "--which", "param-z1", "--format", "json",
                 "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    row = doc["rows"][0]
    assert row["scalar"] == pytest.approx(-6.88, abs=1e-4)
    assert row["flat"] is False


def test_config_two_axes(tmp_path):
    cfg = tmp_path / "grid.ini"
    cfg.write_text("""
[job]
model = sym-coupled
axis = k0=1:2:2; k1=0:1:2
n = 0, 0
quantities = purity
timestamp = false
""")
    out_file = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_file)]) == 0
    _, rows = parse_csv(out_file.read_text())
    assert len(rows) == 4


def test_eval_covariance_solves_no_full_spectrum(monkeypatch, tmp_path):
    # the covariance pathway alone takes its state from the lowest-levels window
    import qgeom.cli
    from qgeom.models import get_model

    def full_spectrum(*args, **kwargs):
        raise AssertionError("eval built a full spectrum it does not need")

    monkeypatch.setattr(qgeom.cli, "eigh", full_spectrum)
    out_file = tmp_path / "cov.csv"
    assert main(["eval", "--model", "sym-coupled", "--point", "1,0.8", "--n", "1,2",
                 "--method", "covariance,closed-form", CUT, "24",
                 "--out", str(out_file)]) == 0
    _, rows = parse_csv(out_file.read_text())
    model = get_model("sym-coupled")
    closed = model.closed_form("covariance", model.point(1.0, 0.8), (1, 2))
    assert float(rows[0]["sigma_re[q1|q1]"]) == pytest.approx(closed[0, 0], abs=1e-8)


def test_default_n_is_the_models_ground_state(tmp_path):
    ent = ["entangle", "--model", "sym-coupled", "--point", "1,0.5", CUT, "20",
           "--no-header-timestamp"]
    omitted, explicit = tmp_path / "omitted.csv", tmp_path / "explicit.csv"
    assert main(ent + ["--out", str(omitted)]) == 0
    assert main(ent + ["--n", "0,0", "--out", str(explicit)]) == 0
    assert omitted.read_bytes() == explicit.read_bytes()
    sweep = ["sweep", "--model", "sym-coupled", "--axis", "k1=0.2:1:3", "--fix", "k0=1",
             "--quantities", "purity", CUT, "20"]
    out_file = tmp_path / "sweep.csv"
    assert main(sweep + ["--out", str(out_file)]) == 0
    header, rows = parse_csv(out_file.read_text())
    assert "error" not in header and len(rows) == 3


def test_sweep_wrong_n_length_exit_2(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "sym-coupled", "--axis", "k1=0.2:1:3",
                 "--fix", "k0=1", "--quantities", "purity", "--n", "0", CUT, "20",
                 "--out", str(out_file)]) == 2
    assert "needs 2 quantum numbers" in capsys.readouterr().err
    assert not out_file.exists()


def test_check_rejects_flags_it_does_not_read(tmp_path):
    out_file = tmp_path / "check.csv"
    for flags in (["--out", str(out_file)], ["--model", "gho"]):
        with pytest.raises(SystemExit) as exc:
            main(["check", *flags])
        assert exc.value.code == 2
    assert not out_file.exists()


def test_python_dash_m_runs_the_cli():
    done = _run_cli("--version")
    assert done.returncode == 0
    assert done.stdout.strip() == __version__


@pytest.mark.parametrize("n", ["1,0", "0,1", "1,1"])
def test_entangle_degenerate_window_exit_3(capsys, n):
    # at k1 = 0 the two normal modes share w = sqrt(k0)
    assert main(["entangle", "--model", "sym-coupled", "--point", "1,0",
                 "--n", n, CUT, "20"]) == 3
    err = capsys.readouterr().err
    assert f"the ({n.replace(',', ', ')}) state (E=" in err
    assert "of another level" in err


def test_sweep_writes_an_error_at_the_degenerate_point(tmp_path):
    out_file = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "sym-coupled", "--axis", "k1=0:0.2:3",
                 "--fix", "k0=1", "--n", "1,0", CUT, "20",
                 "--quantities", "purity,entropy", "--out", str(out_file)]) == 0
    _, rows = parse_csv(out_file.read_text())
    assert [float(r["point[k1]"]) for r in rows] == [0.0, 0.1, 0.2]
    assert rows[0]["error"].startswith("DegeneracyError")
    assert rows[0]["purity"] == ""
    for row in rows[1:]:
        assert row["error"] == ""
        assert 0 < float(row["purity"]) < 1


@pytest.mark.parametrize("axis", ["k1=0:0.2:3", "k1=0.2:0:3"])
def test_sweep_header_does_not_depend_on_the_failing_point(tmp_path, axis):
    # the degenerate k1 = 0 point comes first, then last: error stays last
    out_file = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "sym-coupled", "--axis", axis,
                 "--fix", "k0=1", "--n", "1,0", CUT, "20", "--no-header-timestamp",
                 "--quantities", "purity,entropy", "--out", str(out_file)]) == 0
    header = out_file.read_text().splitlines()[0]
    assert header == "point[k0],point[k1],purity,entropy,error"


def test_curvature_phase_metric_as_parameter_metric_exit_2(capsys):
    assert main(["curvature", "--model", "sym-coupled", "--point", "1,0.8",
                 "--which", "phase_metric"]) == 2
    err = capsys.readouterr().err
    assert "phase_metric is 4x4 but the field has 2 coordinates (k0, k1)" in err
    assert "--which phase:XY" in err and "--which phase-reduced" in err


@pytest.mark.parametrize("args, unknown", [
    (("--model", "gho", "--point", "2,0.5,1", "--which", "param-z1"), "['W']"),
    (("--model", "sym-coupled", "--point", "1,0.8", "--which", "phase:q1p1"),
     "['q', '1', 'p', '1']"),
])
def test_curvature_unknown_coordinates_exit_2(capsys, args, unknown):
    assert main(["curvature", *args]) == 2
    err = capsys.readouterr().err
    assert f"has no parameters {unknown}" in err
    assert "its parameters are" in err


COLD_START = """
import json, sys
import numpy as np
import qgeom
from qgeom import cli, fock, gauss, geometry, get_model

field = geometry.metric_field(get_model("lin-coupled"), "metric", (0, 0))
geometry.ricci_scalar(field, np.array([1.0, 2.0, 1.0]))
cov = gauss.CovarianceMatrix(2, np.diag([0.6, 0.5, 0.6, 0.5]))
gauss.von_neumann_entropy(gauss.reduce(cov, [0]))
assert cli.main(["curvature", "--model", "lin-coupled", "--point", "1,2,1",
                 "--out", sys.argv[2]]) == 0
assert cli.main(["sweep", "--model", "gho-linear", "--axis", "Y=-0.4:0.4:3",
                 "--fix", "W=1", "--fix", "X=1", "--fix", "Z=1", "--n", "1",
                 "--quantities", "det_metric,nu,scalar:param-z1", "--out", sys.argv[2]]) == 0
cold = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

model = get_model("gho")
op = model.hamiltonian(model.point(2.0, 0.5, 1.0), fock.basis(1, 20))
before = "scipy.linalg" in sys.modules
lowest = 3 if sys.argv[1] == "window" else None
energies = fock.eigh(op, lowest=lowest).energies
print(json.dumps({"cold": cold, "before": before,
                  "after": "scipy.linalg" in sys.modules,
                  "energies": energies.tolist()}))
"""


@pytest.mark.parametrize("kind", ["operator", "window"])
def test_scipy_loads_on_the_first_eigensolve(tmp_path, kind):
    # a fresh process: this one has loaded scipy long ago
    done = _run_python("-c", COLD_START, kind, str(tmp_path / "out.csv"))
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["cold"] == []  # import, geometry, gauss, curvature, sweep
    assert not report["before"] and report["after"]
    # the one-mode sweep completed its rows, so the guard covers them
    _, rows = parse_csv((tmp_path / "out.csv").read_text())
    assert len(rows) == 3 and not any(row.get("error") for row in rows)
    assert all(float(row["scalar:param-z1"]) < 0 for row in rows)
    from qgeom import fock, get_model
    model = get_model("gho")
    op = model.hamiltonian(model.point(2.0, 0.5, 1.0), fock.basis(1, 20))
    expected = fock.eigh(op, lowest=3 if kind == "window" else None).energies
    np.testing.assert_allclose(report["energies"], expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("which, real", [("phase_qgt", "phase_metric"), ("qgt", "metric")])
def test_curvature_of_a_complex_quantity_exit_2(capsys, which, real):
    # its curvature used to be that of its real part, with a ComplexWarning
    assert main(["curvature", "--model", "gaussian", "--point", "0.3,0.2",
                 "--which", which]) == 2
    err = capsys.readouterr().err
    assert f"{which} is complex-valued; use its real part, {real}" in err


CATALOG_POINTS = {"gho": "2,0.5,1", "gho-linear": "0.8,1.7,0.6,1", "sym-coupled": "1,0.8",
                  "lin-coupled": "1,2,1", "gaussian": "0.3,0.2"}


def _catalog_quantities():
    from qgeom import MODEL_NAMES, get_model
    return [(name, q) for name in MODEL_NAMES for q in get_model(name).closed_quantities()]


@pytest.mark.parametrize("name, quantity", _catalog_quantities())
def test_curvature_of_every_closed_quantity_exits_0_2_or_3(capsys, name, quantity):
    # the broadcasting catalog behind `curvature --which`: a result, a usage
    # or domain error, or a numerical failure, never a crash
    from qgeom import get_model
    code = main(["curvature", "--model", name, "--point", CATALOG_POINTS[name],
                 "--which", quantity, "--no-header-timestamp"])
    assert code in (0, 2, 3)
    value = get_model(name).closed_form(
        quantity, get_model(name).point(*map(float, CATALOG_POINTS[name].split(","))),
        (0,) * get_model(name).dof)
    if np.ndim(value) != 2:  # not a matrix: named by its shape
        dim = len(get_model(name).param_names)
        expected = f"{quantity} is of shape {np.shape(value)} but the field has {dim} coordinates"
        if (name, quantity) in (("gho-linear", "christoffel"), ("gho-linear", "metric_det"),
                                ("gho-linear", "scalar:param-z1")):
            # Z = 1 slice forms, and the stencil leaves the slice
            expected = "domain error: the reduced closed forms fix Z = 1 (at "
        assert code == 2
        assert expected in capsys.readouterr().err
