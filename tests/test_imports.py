"""Import hygiene: the library never loads mpmath, and scipy only when a run needs it.

The bound constants are plain float arithmetic, so no run imports mpmath, and
the fiber solver groups its rows without ``np.unique``, so neither fiber
evaluation nor a support check loads ``numpy.ma``.
"""

import subprocess
import sys

import pytest


def _imported_modules(*argv):
    # -X importtime lists every module the interpreter imports, one per stderr line
    res = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[-1].strip() for line in lines}


def _under(modules, package):
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


@pytest.mark.parametrize(
    "argv",
    [("-c", "import cdapprox"), ("-m", "cdapprox", "--help")],
    ids=["import", "cli-help"],
)
def test_cold_start_loads_neither_scipy_nor_mpmath(argv):
    modules = _imported_modules(*argv)
    assert "numpy" in modules and "cdapprox" in modules
    heavy = sorted(m for m in modules if m.split(".")[0] in ("scipy", "mpmath"))
    assert heavy == []


def test_vacuous_support_report_loads_no_scipy():
    # the q >= gamma_d tests are settled by the bound min(g) ||b||^2 in numpy
    # alone (at d = 8 by certified_floor, from eigvalsh and the fiber solver), and an
    # empty sublevel set needs no mesh query: scipy (and its BLAS wrappers,
    # tens of MB of resident memory) stays unloaded
    code = (
        "from cdapprox.benchmarks import get_benchmark\n"
        "from cdapprox.cdkernel import beta_schedule\n"
        "from cdapprox.support import support_report\n"
        "bench = get_benchmark('sign')\n"
        "for d in (4, 8):\n"
        "    rep = support_report(bench, bench.moment_matrix(d), beta_schedule(d),"
        " n_mass_samples=2000, n_probes=2000, mesh_points=500)\n"
        "    assert rep.n_members == 0 and rep.mass_ok and rep.distance_ok\n"
    )
    modules = _imported_modules("-c", code)
    assert "cdapprox.support" in modules
    assert sorted(m for m in modules if m.split(".")[0] == "scipy") == []


@pytest.mark.parametrize(
    "argv",
    [
        ("support", "--name", "sign", "--degree", "4", "--beta-schedule", "--probes", "2000", "--mesh", "500"),
        ("rates", "--name", "sign", "--degrees", "2,4", "--eval-grid", "100"),
    ],
    ids=["support", "rates"],
)
def test_bound_runs_load_no_mpmath(argv):
    modules = _imported_modules("-m", "cdapprox", *argv)
    assert "cdapprox.support" in modules and "cdapprox.metrics" in modules
    assert _under(modules, "mpmath") == []


def test_fiber_evaluation_and_vacuous_support_report_load_no_numpy_ma():
    code = (
        "from cdapprox.approximant import Approximant, ApproxConfig\n"
        "from cdapprox.benchmarks import get_benchmark\n"
        "from cdapprox.cdkernel import CDKernel, beta_schedule\n"
        "from cdapprox.support import support_report\n"
        "bench = get_benchmark('sign')\n"
        "M = bench.moment_matrix(8)\n"
        "for alpha in (0.0, 0.2):\n"
        "    Approximant(CDKernel(M, beta_schedule(8)), ApproxConfig(alpha=alpha)).evaluate_batch(bench.grid_x(200))\n"
        "rep = support_report(bench, M, beta_schedule(8), n_mass_samples=2000, n_probes=2000, mesh_points=500)\n"
        "assert rep.n_members == 0\n"
    )
    modules = _imported_modules("-c", code)
    assert "cdapprox.approximant" in modules and "cdapprox.support" in modules
    assert _under(modules, "numpy.ma") == []
