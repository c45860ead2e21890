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
