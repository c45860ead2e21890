"""Import hygiene: the library never loads mpmath, and scipy only when a run needs it.

The bound constants are plain float arithmetic, so no run imports mpmath, and
the fiber solver groups its rows without ``np.unique``, so neither fiber
evaluation nor a support check loads ``numpy.ma``.  The fiber solver's one
eigenvalue call is ``approximant._real_roots``, and ``approximant`` reaches
no Legendre series of numpy.  The package's own modules import each other at
module level only, and those imports form no cycle, and only ``basis``
derives the y-degree layout of a basis from its exponent rows or walks points
in blocks.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cdapprox"


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
    # the certificate is settled in numpy alone, by a Cholesky PSD proof and a norm
    # bound on lambda_max (with rho(d // p) from the fiber solver), also at p = 3
    # with n = 165, and a sublevel set with no member needs no mesh query, also
    # where it is not certified but sampled (sign at d = 12): scipy (and its BLAS
    # wrappers, tens of MB of resident memory) stays unloaded
    code = (
        "from cdapprox.benchmarks import get_benchmark\n"
        "from cdapprox.cdkernel import beta_schedule\n"
        "from cdapprox.support import support_report\n"
        "for name, d in (('sign', 4), ('sign', 8), ('disk1', 8), ('sign', 12)):\n"
        "    bench = get_benchmark(name)\n"
        "    rep = support_report(bench, bench.moment_matrix(d), beta_schedule(d),"
        " n_mass_samples=2000, n_probes=2000, mesh_points=500)\n"
        "    assert rep.n_members == 0 and rep.mass_ok and rep.distance_ok\n"
        "    assert rep.sublevel_empty == (d != 12)\n"
    )
    modules = _imported_modules("-c", code)
    assert "cdapprox.support" in modules
    assert sorted(m for m in modules if m.split(".")[0] == "scipy") == []


def test_kernel_and_fiber_evaluation_load_no_scipy():
    # CDKernel is numpy alone on both routes: on level inputs (sign and step by quad, disk1
    # analytic and from a grid) the levels' roots, the null directions' SVD and QRs and the
    # eigh of M_r, and on abs, which has no levels, one eigh of M.  eval_q_batch, q_at_least,
    # sos_decomposition and the fiber solver are numpy alone too.  scipy.linalg's eigh would
    # need less workspace, but loading it costs about 0.26 s and 28 MB of resident memory,
    # more than the kernel saves by holding its range rows only
    code = (
        "from cdapprox.approximant import Approximant, ApproxConfig\n"
        "from cdapprox.benchmarks import get_benchmark\n"
        "from cdapprox.cdkernel import CDKernel\n"
        "cases = (('sign', 8, 'quad', {}, True), ('step', 12, 'quad', {}, True), ('disk1', 6, 'analytic', {}, True),\n"
        "         ('disk1', 4, 'empirical', {'grid': 30}, True), ('abs', 16, 'quad', {}, False))\n"
        "for name, d, mode, kwargs, split in cases:\n"
        "    bench = get_benchmark(name)\n"
        "    kern = CDKernel(bench.moment_matrix(d, mode=mode, **kwargs), 1e-8)\n"
        "    assert (kern._null.shape[0] > 0) == split\n"
        "    X = bench.grid_x(8)\n"
        "    Z = bench.graph_points(X)\n"
        "    assert (kern.eval_q_batch(Z) > 0).all() and kern.q_at_least(Z, 0.0).all()\n"
        "    assert kern.sos_decomposition().shape == (kern.spec.size,) * 2\n"
        "    for alpha in (0.0, 0.2):\n"
        "        Approximant(kern, ApproxConfig(alpha=alpha)).evaluate_batch(X)\n"
    )
    modules = _imported_modules("-c", code)
    assert "cdapprox.cdkernel" in modules and "cdapprox.approximant" in modules
    assert sorted(m for m in modules if m.split(".")[0] == "scipy") == []


def test_moment_routes_and_text_files_load_no_scipy(tmp_path):
    # every build route, the level and the node route of the Gram sum among them,
    # and the row-by-row text writer and parser are numpy alone
    code = (
        "import numpy as np\n"
        "from cdapprox.benchmarks import get_benchmark\n"
        "from cdapprox.moments import load_text, save_text\n"
        "rng = np.random.default_rng(0)\n"
        "builds = [('sign', 4, 'quad', {}), ('sign', 20, 'quad', {}), ('abs', 8, 'analytic', {}),\n"
        "          ('disk1', 8, 'analytic', {}), ('disk1', 8, 'empirical', {'grid': 100}),\n"
        "          ('abs', 6, 'empirical', {'samples': 500, 'rng': rng}), ('disk2', 6, 'quad', {})]\n"
        f"path = {str(tmp_path / 'm.txt')!r}\n"
        "for name, d, mode, kwargs in builds:\n"
        "    M = get_benchmark(name).moment_matrix(d, mode=mode, **kwargs)\n"
        "    save_text(M, path)\n"
        "    assert (load_text(path).entries == M.entries).all()\n"
    )
    modules = _imported_modules("-c", code)
    assert "cdapprox.moments" in modules
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
        "Approximant(CDKernel(bench.moment_matrix(12), 1e-8)).evaluate_batch(bench.grid_x(50))  # the window route\n"
        "rep = support_report(bench, M, beta_schedule(8), n_mass_samples=2000, n_probes=2000, mesh_points=500)\n"
        "assert rep.n_members == 0\n"
    )
    modules = _imported_modules("-c", code)
    assert "cdapprox.approximant" in modules and "cdapprox.support" in modules
    assert _under(modules, "numpy.ma") == []


def _package_imports(path, modules):
    """(line, module, in a function) for each import of a package module in one source file.

    Imports under ``if TYPE_CHECKING:`` never run and are skipped.
    """
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for child in node.orelse:
                visit(child, in_function)
            return
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        targets = []
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 1 or base == "cdapprox":
                targets = [base] if node.level and base else [a.name for a in node.names]
            elif base.startswith("cdapprox."):
                targets = [base.split(".")[1]]
        elif isinstance(node, ast.Import):
            targets = [a.name.split(".")[1] for a in node.names if a.name.startswith("cdapprox.")]
        found.extend((node.lineno, t, in_function) for t in targets if t in modules)
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(path.read_text()), False)
    return found


def _module_graph():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    return {name: _package_imports(path, modules) for name, path in modules.items()}


def test_no_package_module_is_imported_inside_a_function():
    # a function-level import of a package module hides a dependency, usually to dodge a cycle;
    # lazy imports of third-party modules (scipy) stay allowed
    late = [f"{name}.py:{line} imports {target}" for name, found in _module_graph().items()
            for line, target, in_function in found if in_function]
    assert late == []


def test_package_imports_form_no_cycle():
    # an import inside a function only defers a cycle, so it counts as an edge too
    edges = {name: {t for _, t, _ in found} for name, found in _module_graph().items()}
    cycles, done = [], set()

    def walk(name, path):
        if name in path:
            cycles.append(path[path.index(name) :] + [name])
            return
        if name in done:
            return
        for target in sorted(edges[name]):
            walk(target, path + [name])
        done.add(name)

    for name in sorted(edges):
        walk(name, [])
    assert cycles == []


def _scope(node):
    """The nodes of one scope, a module or a function body, not entering the functions defined in it."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(n))


def _bound_names(target):
    """The names an assignment to ``target`` binds; an attribute or item binds none."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(_bound_names, target.elts))
    return set()


def _layout_derivations(source):
    """(line, what) for each ``argsort`` or ``bincount`` call and each comparison in ``source`` that reads a basis's exponent rows.

    ``what`` is the call's name, or "compare".  A call reads them where an
    operand mentions ``.indices`` or
    ``_grevlex_indices``, or a name that its scope binds to an expression
    that does, directly or through other such names.
    """
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))]:
        nodes = list(_scope(scope))
        tainted = set()

        def reads(node):
            return any(
                isinstance(n, ast.Attribute) and n.attr == "indices"
                or isinstance(n, ast.Name) and (n.id in tainted or n.id == "_grevlex_indices")
                for n in ast.walk(node)
            )

        binds = [(t, n.value) for n in nodes if isinstance(n, ast.Assign) for t in n.targets]
        binds += [(n.target, n.value) for n in nodes if isinstance(n, (ast.AnnAssign, ast.NamedExpr)) and n.value]
        while True:  # until no binding adds a name
            grown = set().union(*(_bound_names(target) for target, value in binds if reads(value)))
            if grown <= tainted:
                break
            tainted |= grown
        for n in nodes:
            if isinstance(n, ast.Call):
                f = n.func
                call = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                operands = [*n.args, *(k.value for k in n.keywords), *([f.value] if isinstance(f, ast.Attribute) else [])]
                if call in ("argsort", "bincount") and any(reads(op) for op in operands):
                    found.append((n.lineno, call))
            elif isinstance(n, ast.Compare) and reads(n):
                found.append((n.lineno, "compare"))
    return sorted(found)


def test_only_basis_derives_the_y_degree_layout():
    # the stable y-degree sort, its runs, the x-index and the sorted exponent rows are
    # basis.y_layout's; the kernel, the fiber solver, the level route and the L2 projection
    # read it, so they cannot fall out of step
    found = [
        f"{path.name}:{line} reads a basis's exponent rows in a {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "basis"
        for line, what in _layout_derivations(path.read_text())
    ]
    assert found == []
    # the check sees basis's own derivation and the ones that y_layout replaced
    assert {call for _, call in _layout_derivations((PACKAGE / "basis.py").read_text())} == {"argsort", "bincount"}
    old = (
        "order = np.argsort(self.spec.indices[:, -1], kind='stable')\n"
        "blocks = np.split(rows, np.cumsum(np.bincount(spec.indices[:, -1]))[:-1])\n"
        "deg = BasisSpec(p, d).indices[:, -1]\n"
        "order = deg.argsort(kind='stable')\n"
    )
    assert _layout_derivations(old) == [(1, "argsort"), (2, "bincount"), (4, "argsort")]
    # so does a comparison that picks members by their exponents, as l2_projection's
    # search for the y-degree-0 members and for y did before it read y_layout
    scan = (
        "def l2_projection(matrix):\n"
        "    idx = matrix.spec.indices\n"
        "    flat = np.flatnonzero(idx[:, -1] == 0)\n"
        "    y_member = int(np.flatnonzero((idx[:, -1] == 1) & (idx.sum(axis=1) == 1))[0])\n"
    )
    assert _layout_derivations(scan) == [(3, "compare"), (4, "compare"), (4, "compare")]
    # a sort, count or comparison of anything else is not a derivation
    others = (
        "self.idx = spec.indices[order]\norder = np.argsort(self.y, kind='stable')\nn = np.bincount(deg)\n"
        "if spec.p < 2 or lay.runs[0] == 0:\n    pass\n"
    )
    assert _layout_derivations(others) == []


def _eigvals_callers(source):
    """(line, top-level function) of each ``eigvals`` call in ``source``; "" outside any function."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else ""
        found += [
            (n.lineno, name)
            for n in ast.walk(top)
            if isinstance(n, ast.Call) and (getattr(n.func, "attr", None) or getattr(n.func, "id", None)) == "eigvals"
        ]
    return found


def test_only_the_fiber_roots_call_eigvals():
    # approximant._real_roots is the one eigenvalue call of the fiber solver: the window
    # route's anchors and crossings and the full solve's critical points all go through it
    found = [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, name in _eigvals_callers(path.read_text())
    ]
    assert found and set(found) == {("approximant", "_real_roots")}
    # the check sees a call in a nested helper, under any alias, and at module level
    snippet = (
        "def _real_roots(c):\n    def solve(rows):\n        return np.linalg.eigvals(rows)\n"
        "def _anchors(p):\n    return la.eigvals(p)\n"
        "roots = eigvals(m)\n"
    )
    assert _eigvals_callers(snippet) == [(3, "_real_roots"), (5, "_anchors"), (6, "")]


def _legendre_references(source):
    """Lines of ``source`` that import or name ``numpy.polynomial.legendre`` or its ``Legendre`` class."""
    names = ("legendre", "Legendre")
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom):
            module = n.module or ""
            hit = module.startswith("numpy.polynomial.legendre") or (
                module == "numpy.polynomial" and any(a.name in names for a in n.names)
            )
        elif isinstance(n, ast.Import):
            hit = any(a.name.startswith("numpy.polynomial.legendre") for a in n.names)
        else:
            hit = isinstance(n, ast.Attribute) and n.attr in names and getattr(n.value, "attr", None) == "polynomial"
        if hit:
            found.append(n.lineno)
    return sorted(found)


def test_the_fiber_solver_holds_no_legendre_series():
    # every series of the fiber solver is a Chebyshev series, from _window_maps, and its
    # roots come from the Chebyshev colleague matrix; the Gauss-Legendre nodes come from basis
    assert _legendre_references((PACKAGE / "approximant.py").read_text()) == []
    # the check sees each way of reaching the module or its class, and nothing else
    snippet = (
        "from numpy.polynomial import chebyshev, legendre\n"
        "from numpy.polynomial.legendre import legroots\n"
        "import numpy.polynomial.legendre as L\n"
        "c = np.polynomial.legendre.legder(c)\n"
        "from numpy.polynomial import Legendre as P\n"
        "m = numpy.polynomial.Legendre.basis(3)\n"
        "from numpy.polynomial import chebyshev\n"
        "from .basis import Family, leggauss\n"
        "u = leggauss(5)[0] if family is Family.LEGENDRE_ORTHONORMAL else chebyshev.chebpts1(5)\n"
    )
    assert _legendre_references(snippet) == [1, 2, 3, 4, 5, 6]


def _private_block_loops(source):
    """Lines of ``source`` that call ``range()`` with a step naming ``_BLOCK`` or ``_BOUND_BLOCK``."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "range" and len(n.args) == 3
        and any(isinstance(m, ast.Name) and m.id in ("_BLOCK", "_BOUND_BLOCK") for m in ast.walk(n.args[2]))
    )


def test_only_basis_walks_points_in_blocks():
    # basis.table_blocks is the one loop over points in blocks; the moment Gram, q and the
    # q bound iterate it, so block bookkeeping cannot come back beside it
    found = [
        f"{path.name}:{line} steps a range by a block size"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "basis"
        for line in _private_block_loops(path.read_text())
    ]
    assert found == []
    # the check sees the node route's own loop that table_blocks replaced, and a scaled step
    old = (
        "M = np.zeros((spec.size, spec.size))\n"
        "for start in range(0, Z.shape[0] if nodes is None else nodes.size, _BLOCK):\n"
        "    at = slice(start, start + _BLOCK) if nodes is None else nodes[start : start + _BLOCK]\n"
        "for start in range(0, N, 2 * _BOUND_BLOCK):\n"
        "    pass\n"
    )
    assert _private_block_loops(old) == [2, 4]
    assert _private_block_loops("for i in range(0, n, block):\n    x = range(_BLOCK)\n") == []
