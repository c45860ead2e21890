"""The README's Quick start block runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_returns_one_value_per_point():
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = {}
    exec(compile(code, str(README), "exec"), env)
    assert env["xs"].shape == (9, 1)
    assert env["ys"].shape == env["qs"].shape == (9,)
    assert np.all(np.isfinite(env["ys"])) and np.all(env["qs"] >= 0)
