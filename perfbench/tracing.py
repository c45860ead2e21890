"""In-memory spans around the calls into each cdapprox layer.

A span records its name, start, end, parent span and the id of the case it
belongs to.  Spans are opened by the benchmark itself (case roots and moment
builds) and by wrappers that ``instrument`` installs, for the length of a
traced run, around public library functions and methods.  The wrappers
replace every binding of a function in the loaded ``cdapprox`` modules, so
calls made inside the library (``CDKernel.eval_q_batch`` calling
``eval_basis_batch``) are recorded too.  Nothing in the library changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, case id]
        self.counts: dict = defaultdict(int)
        self.case = None
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.case])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def self_times(self, first: int = 0) -> dict:
        """Per span name, the summed duration not covered by child spans."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans[first:]:
            if parent >= first:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for k, (name, t0, t1, _, _) in enumerate(self.spans[first:], start=first):
            out[name] += (t1 - t0) - child[k]
        return dict(out)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = not tracer.inside(name)
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if counter is not None and outer:
            tracer.counts[counter[0]] += counter[1](out)
        return out

    return wrapper


def _rows(out) -> int:
    return int(out.shape[0])


def _table_rows(out) -> int:
    return int(out[0].shape[0]) if out else 0


# (span name, module, function, (count name, count of the result) or None)
FUNCTIONS = [
    ("basis.eval", "cdapprox.basis", "eval_basis_batch", ("basis.rows", _rows)),
    ("basis.eval", "cdapprox.basis", "axis_tables", ("basis.rows", _table_rows)),
    ("moments.io", "cdapprox.moments", "save_text", None),
    ("moments.io", "cdapprox.moments", "load_text", None),
    ("approximant.argmin", "cdapprox.approximant", "partial_argmin", ("approximant.points", lambda out: 1)),
    ("support.report", "cdapprox.support", "support_report", None),
    ("support.mesh", "cdapprox.support", "graph_mesh", None),
    ("support.bounds", "cdapprox.support", "outside_mass_bound", None),
    ("support.bounds", "cdapprox.support", "distance_bound", None),
    ("metrics", "cdapprox.metrics", "l1_error", None),
    ("metrics", "cdapprox.metrics", "overshoot", None),
]
# (span name, module, class, method, counter)
METHODS = [
    ("cdkernel.factor", "cdapprox.cdkernel", "CDKernel", "__init__", None),
    ("cdkernel.filtered", "cdapprox.cdkernel", "CDKernel", "filtered_matrix", None),
    ("cdkernel.eval_q", "cdapprox.cdkernel", "CDKernel", "eval_q_batch", ("cdkernel.q_evals", _rows)),
    ("approximant.init", "cdapprox.approximant", "Approximant", "__init__", None),
    ("approximant.coeffs", "cdapprox.approximant", "Approximant", "y_coefficients", None),
]


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on the library for the body of the with block."""
    undo = []
    try:
        loaded = [m for k, m in list(sys.modules.items()) if k == "cdapprox" or k.startswith("cdapprox.")]
        for name, modname, attr, counter in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            wrapper = _wrap(tracer, name, fn, counter)
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, fn))
        for name, modname, clsname, attr, counter in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            fn = cls.__dict__[attr]
            setattr(cls, attr, _wrap(tracer, name, fn, counter))
            undo.append((cls, attr, fn))
        yield tracer
    finally:
        for owner, key, fn in reversed(undo):
            setattr(owner, key, fn)
