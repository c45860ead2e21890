"""Import hygiene: scipy and mpmath load only when a run needs them."""

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
    # alone (at d = 8 by its box-wide minimum, from the fiber solver), and an
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
