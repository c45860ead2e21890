"""Command-line interface: outputs, exit codes, determinism."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cdapprox.basis import BasisSpec
from cdapprox.benchmarks import get_benchmark
from cdapprox.cdkernel import beta_schedule
from cdapprox.cli import build_parser, main
from cdapprox.moments import MomentMatrix, Provenance, save_text


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cdapprox", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def sign_matrix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrices") / "sign_d3.txt"
    save_text(get_benchmark("sign").moment_matrix(3), path)
    return path


def test_version_and_help():
    assert run_cli("--version").returncode == 0
    out = run_cli("--help")
    assert out.returncode == 0
    for sub in ("approx", "benchmark", "support", "rates"):
        assert sub in out.stdout


def test_missing_subcommand_and_flags_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("approx").returncode == 2  # --matrix is required
    assert run_cli("benchmark", "--name", "sign").returncode == 2  # --degree required


def test_approx_points_csv(tmp_path, sign_matrix_file):
    pts = tmp_path / "pts.csv"
    np.savetxt(pts, np.linspace(-0.9, 0.9, 7)[:, None], delimiter=",")
    out_csv = tmp_path / "out.csv"
    res = run_cli(
        "approx",
        "--matrix",
        str(sign_matrix_file),
        "--points",
        str(pts),
        "--out",
        str(out_csv),
        "--beta",
        "1e-6",
    )
    assert res.returncode == 0, res.stderr
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "x1,y,q"
    data = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert data.shape == (7, 3)
    # matches the library route
    from cdapprox.approximant import Approximant
    from cdapprox.cdkernel import CDKernel

    app = Approximant(CDKernel(get_benchmark("sign").moment_matrix(3), 1e-6))
    ys, qs = app.evaluate_batch(np.linspace(-0.9, 0.9, 7)[:, None])
    np.testing.assert_allclose(data[:, 1], ys, atol=1e-12)
    np.testing.assert_allclose(data[:, 2], qs, rtol=1e-12)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_approx_points_with_a_non_finite_row_exit_2(tmp_path, sign_matrix_file, bad, capsys):
    # such a file used to fail on "non-finite fiber coefficients", after a matmul RuntimeWarning for inf
    pts = tmp_path / "pts.csv"
    pts.write_text(f"-0.5\n0.25\n{bad}\n0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["approx", "--matrix", str(sign_matrix_file), "--points", str(pts)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: point row 2 has a non-finite coordinate") and out.out == ""


def test_approx_stdout_and_grid(sign_matrix_file):
    res = run_cli("approx", "--matrix", str(sign_matrix_file), "--grid", "5")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "x1,y,q"
    assert len(lines) == 6
    res2 = run_cli("approx", "--matrix", str(sign_matrix_file))
    assert res2.returncode == 2  # neither --points nor --grid


def test_approx_sos_certificate(tmp_path, sign_matrix_file):
    sos = tmp_path / "sos.csv"
    res = run_cli(
        "approx",
        "--matrix",
        str(sign_matrix_file),
        "--grid",
        "3",
        "--sos-out",
        str(sos),
        "--beta",
        "1e-6",
    )
    assert res.returncode == 0
    data = np.loadtxt(sos, delimiter=",", skiprows=1)
    n = 10  # basis size for p=2, d=3
    assert data.shape == (n, n + 1)
    evals = data[:, 0]
    assert np.all(np.diff(evals) >= 0)  # ascending eigenvalue order
    # rows reconstruct q = sum (w . b)^2 at a sample point
    from cdapprox.basis import eval_basis_batch
    from cdapprox.cdkernel import CDKernel

    M = get_benchmark("sign").moment_matrix(3)
    kern = CDKernel(M, 1e-6)
    b = eval_basis_batch(M.spec, [[0.3, -0.4]])[0]
    q_csv = float(np.sum((data[:, 1:] @ b) ** 2))
    assert q_csv == pytest.approx(kern.eval_q_batch([[0.3, -0.4]])[0], rel=1e-10)


def test_approx_error_exits(tmp_path):
    res = run_cli("approx", "--matrix", str(tmp_path / "missing.txt"), "--grid", "3")
    assert res.returncode == 2

    bad = tmp_path / "indef.txt"
    save_text(
        MomentMatrix(BasisSpec(2, 1), np.diag([1.0, 1.0, -0.5]), Provenance.FILE, 1.0), bad
    )
    res = run_cli("approx", "--matrix", str(bad), "--grid", "3")
    assert res.returncode == 3
    assert "numerical error" in res.stderr

    uni = tmp_path / "p1.txt"
    spec = BasisSpec(1, 2)
    save_text(MomentMatrix(spec, np.eye(spec.size), Provenance.ANALYTIC, spec.domain_volume()), uni)
    res = run_cli("approx", "--matrix", str(uni), "--grid", "3")
    assert res.returncode == 2
    assert "p >= 2" in res.stderr


@pytest.mark.parametrize("field,value", [("entry", "nan"), ("entry", "inf"), ("mass", "nan")])
def test_matrix_files_with_non_finite_values_exit_2(tmp_path, sign_matrix_file, field, value, capsys):
    # a nan or inf entry used to exit 3 from the eigensolver, and a nan mass to exit 0
    lines = sign_matrix_file.read_text().splitlines()
    if field == "mass":
        lines = [f"mass {value}" if line.startswith("mass ") else line for line in lines]
    else:
        lines[-1] = " ".join(lines[-1].split()[:-1] + [value])
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    for argv in (["approx", "--matrix", str(bad), "--grid", "3"], ["support", "--name", "sign", "--matrix", str(bad)]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error:") and "finite" in out.err and out.out == ""


@pytest.mark.parametrize("domain", ["-inf 1.0 -1.0 1.0", "-1.0 1.0 -1.0 inf", "-1e308 1e308 -1.0 1.0"])
def test_matrix_files_with_an_infinite_domain_exit_2(tmp_path, sign_matrix_file, domain, capsys):
    # such a file used to load, and approx then failed on "non-finite fiber coefficients"
    lines = sign_matrix_file.read_text().splitlines()
    lines = [f"domain {domain}" if line.startswith("domain ") else line for line in lines]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["approx", "--matrix", str(bad), "--grid", "3"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error:") and "is not a finite interval" in out.err and out.out == ""


@pytest.mark.parametrize(
    "key,value", [("entries", {"a": 1}), ("domain", 3), ("entries", [[1.0, 0.0], [0.0]]), ("note", None)]
)
def test_json_matrices_with_wrong_value_types_exit_2(tmp_path, key, value, capsys):
    # a dict of entries or an int domain used to escape as TypeError (traceback, exit 1), a null note to load
    doc = {
        "format": "cdmoments",
        "version": 1,
        "p": 2,
        "d": 1,
        "family": "legendre-orthonormal",
        "ordering": "grevlex",
        "domain": [[-1.0, 1.0], [-1.0, 1.0]],
        "mass": 4.0,
        "provenance": "analytic",
        "note": "eye",
        "entries": np.eye(3).tolist(),
        key: value,
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["approx", "--matrix", str(bad), "--grid", "3"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error:") and out.out == ""


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_benchmark_rejects_samples_below_one(samples, capsys):
    # -5 used to fail in numpy with "negative dimensions are not allowed"
    argv = ["benchmark", "--name", "sign", "--degree", "3", "--mode", "empirical", "--samples", samples]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples must be at least 1" in err


@pytest.mark.parametrize("count", ["0", "-2", "-3"])
def test_grid_counts_below_one_exit_2(tmp_path, sign_matrix_file, count, capsys):
    # --eval-grid 0 used to divide by zero (exit 3), and approx --grid 0 wrote a header-only CSV
    out = tmp_path / "out.csv"
    for argv in (
        ["benchmark", "--name", "sign", "--degree", "3", "--eval-grid", count],
        ["rates", "--name", "sign", "--degrees", "2", "--eval-grid", count],
        ["approx", "--matrix", str(sign_matrix_file), "--grid", count, "--out", str(out)],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least 1" in err
    assert not out.exists()


def test_benchmark_command_reports_errors(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli(
        "benchmark",
        "--name",
        "sign",
        "--degree",
        "4",
        "--eval-grid",
        "100",
        "--beta",
        "1e-8",
        "--out",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    lines = dict(
        line.split(" ", 1) for line in res.stdout.strip().splitlines() if " " in line
    )
    assert float(lines["l1"]) < 0.05
    assert float(lines["max_err"]) <= 2.0
    assert float(lines["overshoot"]) == pytest.approx(0.0, abs=1e-9)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (100, 4)


def test_benchmark_command_builds_high_degree_analytic_matrices():
    # the default analytic route sums an exact graph rule, so it stays PSD at d = 32
    res = run_cli("benchmark", "--name", "sign", "--degree", "32")
    assert res.returncode == 0, res.stderr
    assert float(dict(line.split(" ", 1) for line in res.stdout.splitlines()[1:])["max_err"]) < 1e-6
    res = run_cli("benchmark", "--name", "disk2", "--degree", "4", "--mode", "analytic")
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "'quad'" in res.stderr and "'empirical'" in res.stderr


def test_support_command_writes_report(tmp_path):
    rep = tmp_path / "report.json"
    res = run_cli(
        "support",
        "--name",
        "sign",
        "--degree",
        "4",
        "--beta-schedule",
        "--probes",
        "2000",
        "--mesh",
        "500",
        "--out",
        str(rep),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(rep.read_text())
    assert doc["mass_ok"] and doc["distance_ok"]
    assert doc["d"] == 4
    assert doc["sublevel_empty"] is True and doc["n_members"] == 0
    assert "ok=True" in res.stdout


@pytest.mark.parametrize("flags", [("--probes", "0"), ("--mesh", "1")])
def test_support_command_rejects_empty_samples(flags):
    res = run_cli("support", "--name", "sign", "--degree", "4", "--beta-schedule", "--probes", "200", *flags)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:") and "at least" in res.stderr
    assert "bound violation" not in res.stderr


@pytest.mark.parametrize("flags", [("--beta", "nan"), ("--beta", "inf"), ("--r", "nan"), ("--r", "inf")])
def test_support_command_rejects_non_finite_beta_and_r(flags, capsys):
    # a nan or infinite beta gave an all-nan or all-zero kernel, and a nan r a
    # nan threshold; both used to print a verdict instead of refusing
    assert main(["support", "--name", "sign", "--degree", "4", "--probes", "1000", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert "bound violation" not in err


@pytest.mark.parametrize("flags", [("--r", "nan"), ("--r", "inf"), ("--beta", "nan")])
def test_rates_command_rejects_non_finite_beta_and_r(flags, capsys, tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--name", "sign", "--degrees", "4", "--eval-grid", "20", "--out", str(out), *flags]) == 2
    err = capsys.readouterr()
    assert err.err.startswith("error:") and "finite" in err.err
    assert "bound" not in err.out and not out.exists()


def test_rates_command(tmp_path):
    res = run_cli(
        "rates",
        "--name",
        "sign",
        "--degrees",
        "2,4",
        "--eval-grid",
        "100",
        "--out",
        str(tmp_path / "rates.csv"),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("rates sign d=") == 2
    data = np.loadtxt(tmp_path / "rates.csv", delimiter=",", skiprows=1)
    assert data.shape == (2, 4)
    assert np.all(data[:, 2] <= data[:, 3])  # l1 below the bound

    res = run_cli("rates", "--name", "sign", "--degrees", "1,4")
    assert res.returncode == 2
    res = run_cli("rates", "--name", "disk2", "--degrees", "2")
    assert res.returncode == 2  # no regularity constant declared


def test_rates_beta_defaults_to_the_schedule(tmp_path):
    out = tmp_path / "rates.csv"
    argv = ["rates", "--name", "sign", "--degrees", "2,4", "--eval-grid", "20", "--out", str(out)]
    for extra, expected in (([], [beta_schedule(2), beta_schedule(4)]), (["--beta", "1e-6"], [1e-6, 1e-6])):
        assert main(argv + extra) == 0
        assert list(np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]) == expected


def test_threshold_exponent_only_where_it_changes_output():
    parser = build_parser()
    assert parser.parse_args(["support", "--name", "sign", "--r", "3"]).r == 3.0
    assert parser.parse_args(["rates", "--name", "sign", "--r", "3"]).r == 3.0
    for argv in (["approx", "--matrix", "M.txt"], ["benchmark", "--name", "sign", "--degree", "4"]):
        assert parser.parse_args(argv).beta == 1e-8
        for flag in ("--r", "--epsilon"):
            with pytest.raises(SystemExit):
                parser.parse_args([*argv, flag, "3"])


def test_reruns_are_byte_identical(tmp_path, sign_matrix_file):
    # two full reruns of approx and benchmark, comparing all artifacts
    def run_twice(outputs, *argv):
        blobs = []
        for _ in range(2):
            res = run_cli(*argv)
            assert res.returncode == 0, res.stderr
            blobs.append((res.stdout, *[p.read_bytes() for p in outputs]))
        assert blobs[0] == blobs[1]

    out = tmp_path / "a.csv"
    man = tmp_path / "a.manifest.json"
    run_twice(
        [out, man],
        "approx",
        "--matrix",
        str(sign_matrix_file),
        "--grid",
        "11",
        "--out",
        str(out),
        "--manifest",
        str(man),
    )
    bout = tmp_path / "b.csv"
    bman = tmp_path / "b.manifest.json"
    run_twice(
        [bout, bman],
        "benchmark",
        "--name",
        "step",
        "--degree",
        "3",
        "--mode",
        "empirical",
        "--grid",
        "50",
        "--eval-grid",
        "50",
        "--seed",
        "1",
        "--out",
        str(bout),
        "--manifest",
        str(bman),
    )
