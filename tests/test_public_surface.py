"""Every exported name and every function the benchmark traces resolves,
every function the package defines has a caller in the program, every
parameter is passed, and passed other than as one literal, every dataclass
field is read, every solver and penalty option is live and a config field,
only grid splits the packed face layout, only the Picard loop reads its
iteration controls, the package needs neither scipy nor
numpy.linalg, only harness.rng_stream builds a random generator, and the
package imports itself only relatively, so that a checkout loads under
another name, and the layer yardstick rotates the order of the checkouts it
compares."""

import ast
import dataclasses
import importlib
import pkgutil
import re
import runpy
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import stackstokes
from stackstokes.leader import PenaltyConfig
from stackstokes.stokes import SolverOptions

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
PERFBENCH = SPANS.parent
TESTS = Path(__file__).resolve().parent
SRC = Path(stackstokes.__file__).resolve().parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(stackstokes.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"stackstokes.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"stackstokes.{name}.__all__ names undefined {missing}"


def test_readme_sketch_runs():
    # the library sketch of the README uses the documented top-level names
    # and call signatures; it must run and find a converged saddle
    readme = (TESTS.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["saddle"].converged


def test_traced_functions_resolve():
    # the benchmark's tracer wraps these by name; a missing one breaks --trace 1
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    for module_name, attr, *_ in targets:
        obj = importlib.import_module(f"stackstokes.{module_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"stackstokes.{module_name}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj)


def test_checkouts_load_independent_copies():
    # the yardstick scripts load each checkout as a package of its own name;
    # an absolute self-import would make that copy run another checkout's code
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(n.split(".")[0] != "stackstokes" for n in names), (path.name, names)
    load = runpy.run_path(str(TESTS.parent / "scripts" / "checkouts.py"))["load"]
    aliases = ("stackstokes_copy_a", "stackstokes_copy_b")
    try:
        a, b = (load(TESTS.parent, name) for name in aliases)
        assert sys.modules["stackstokes_copy_a.grid"] is a.grid
        for module in ("grid", "stokes", "harness"):
            assert len({id(getattr(m, module)) for m in (a, b, stackstokes)}) == 3, module
        assert a.grid._dst1_matrix(7) is not b.grid._dst1_matrix(7)
        solutions = []
        for m in (a, b):
            g = m.grid.GridSpec(nx=8, ny=8, nt=8, T=0.5)
            rng = np.random.default_rng(3)
            start = m.grid.project_div_free(
                m.grid.VelocityField.from_packed(g, m.grid.closed_noise(g, rng, 1)[0]))
            h = m.grid.Trajectory(g, m.grid.closed_noise(g, rng, g.nt + 1, first=1))
            chi = m.grid.SmoothCutoff.for_grid(m.grid.Region(0.05, 0.25, 0.05, 0.25), g)
            coupling = m.stokes.Coupling.build(g, chi, m.grid.Region(0.45, 0.95, 0.45, 0.95),
                                               10.0, 10.0, 1.0)
            solutions.append(m.stokes.solve_coupled_linear(
                h, start, None, coupling, omega=m.grid.Region(0.35, 0.75, 0.35, 0.75)))
        sa, sb = solutions
        assert type(sa) is not type(sb) and sa.iterations == sb.iterations
        assert np.array_equal(sa.y.data, sb.y.data) and np.array_equal(sa.z.data, sb.z.data)
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] in aliases]:
            del sys.modules[name]


def test_bench_layers_rotates_the_root_order(monkeypatch):
    # batch b of the paired batches starts at root b and runs the rest in
    # turn: every root takes every position equally often, and with three or
    # more roots none runs two batches back to back
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # set by the script; restored afterwards
    monkeypatch.syspath_prepend(str(TESTS.parent / "scripts"))
    paired = runpy.run_path(str(TESTS.parent / "scripts" / "bench_layers.py"))["paired"]
    for n in (2, 3, 4):
        log = []
        times = paired([partial(log.append, i) for i in range(n)], 2 * n, 3)
        assert [len(t) for t in times] == [2 * n] * n
        assert all(log[k:k + 3] == [log[k]] * 3 for k in range(0, len(log), 3))
        runs = log[::3]  # one entry per batch of calls
        batches = [runs[b:b + n] for b in range(0, len(runs), n)]
        assert all(sorted(b) == list(range(n)) for b in batches)
        assert all(Counter(b[p] for b in batches) == Counter(dict.fromkeys(range(n), 2))
                   for p in range(n))
        if n >= 3:
            assert all(a != b for a, b in zip(runs, runs[1:]))


# Functions that no run calls, kept because tests compare the program against them
TEST_REFERENCES = {
    "gradient": "the adjoint partner of divergence, which criterion 01 checks",
    "inner_cells": "the cell pairing of criterion 01's adjointness check",
}


def _loaded_names(path, imports=False):
    """Names and attribute names the file loads, and with ``imports`` the names it imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.name.rpartition(".")[2] for a in node.names)
    return out


def test_every_function_has_a_caller():
    # a function or class that only its tests reach is surface no run
    # exercises; the program is the package (its re-exports aside), the
    # benchmark's scripts and the functions the benchmark traces by name
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _loaded_names(path)
    for path in PERFBENCH.glob("*.py"):
        used |= _loaded_names(path, imports=True)
    for _, attr, *_ in runpy.run_path(str(SPANS))["TARGETS"]:
        used.update(attr.split("."))
    uncalled = sorted(defined - used - TEST_REFERENCES.keys())
    assert not uncalled, f"defined in stackstokes, called only by tests: {uncalled}"
    stale = sorted(n for n in TEST_REFERENCES if n not in defined or n in used)
    assert not stale, f"TEST_REFERENCES entries that are gone or called by the program: {stale}"


# Parameters with a default that no run passes, kept because tests pass them
TEST_PARAMETERS = {
    "main.argv": "the CLI tests run main on their own argument lists",
    "check_weight_domination.t_grid": "test_overflow_contract_large_s_lam and "
                                      "test_array_pole_errors probe chosen times",
    "verify_saddle.tol_scale": "test_verify_saddle_negative_control and criterion 04",
    "_mms_fields.amp": "the convective manufactured-solution test runs at amplitude 1",
}

# Required parameters that every run passes as the same literal, kept because
# tests pass other values
TEST_CONSTANTS = {
    f"solve_backward_adjoint.{name}": "the benchmark calls it positionally with None, and the "
                                      "transposition tests pass sources and a link"
    for name in ("g1", "g2", "link")
}


def _parameters(fn):
    """{name: (positional index or None for keyword-only, whether it has a default)}
    of fn's parameters; the index does not count a leading self or cls."""
    a = fn.args
    positional = [x.arg for x in a.posonlyargs + a.args]
    offset = 1 if positional[:1] in (["self"], ["cls"]) else 0
    first_default = len(positional) - len(a.defaults)
    out = {name: (i - offset, i >= first_default)
           for i, name in enumerate(positional) if i >= offset}
    out.update((x.arg, (None, d is not None)) for x, d in zip(a.kwonlyargs, a.kw_defaults))
    return out


def _parameter_gaps(defining, calling):
    """The parameters ("function.parameter") of the functions in the sources
    ``defining`` that the calls in the sources ``calling`` leave fixed: those
    with a default that no call passes, and the required ones that every call
    passes as the same literal.  A call is matched to a function by name."""
    params = {}
    for text in defining:
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                for param, (index, default) in _parameters(node).items():
                    params.setdefault(f"{node.name}.{param}", (node.name, param, index, default))
    calls = {}  # name: (the arguments by position and keyword, unpacked) of each call
    for text in calling:
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            unpacked = (any(isinstance(x, ast.Starred) for x in call.args)
                        or any(k.arg is None for k in call.keywords))
            args = {**dict(enumerate(call.args)), **{k.arg: k.value for k in call.keywords}}
            calls.setdefault(name, []).append((args, unpacked))

    def literal(node):
        """The node's source form if it is a literal, else None."""
        try:
            ast.literal_eval(node)
        except ValueError:
            return None
        return ast.dump(node)

    unpassed, constant = set(), set()
    for q, (name, param, index, default) in params.items():
        # what each call passes: a node, None, or "*" (an unpacked call may pass any)
        given = ["*" if unpacked else args.get(param, args.get(index))
                 for args, unpacked in calls.get(name, [])]
        if default and all(node is None for node in given):
            unpassed.add(q)
        values = {literal(node) if isinstance(node, ast.AST) else None for node in given}
        if not default and given and len(values) == 1 and None not in values:
            constant.add(q)
    return unpassed, constant


def test_every_parameter_is_passed():
    # a parameter that no caller in the program sets only ever takes its
    # default, and one that every caller sets to the same literal only ever
    # takes that value: the branches behind either are surface no run
    # exercises.  The program is the package (its re-exports aside) and the
    # benchmark's scripts.
    program = [path.read_text() for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
               if path != SRC / "__init__.py"]
    unpassed, constant = _parameter_gaps([path.read_text() for path in SRC.glob("*.py")],
                                         program)
    for found, allowed, what in ((unpassed, TEST_PARAMETERS, "passes"),
                                 (constant, TEST_CONSTANTS, "passes other than one literal")):
        missing = sorted(found - allowed.keys())
        assert not missing, f"parameters that no call in the program {what}: {missing}"
        stale = sorted(allowed.keys() - found)
        assert not stale, f"allow-list entries that are gone or varied by the program: {stale}"


def test_parameter_guard_sees_planted_parameters():
    # a planted function whose default no call passes, and whose required
    # parameter every call passes as the same literal
    planted = """
def planted(a, b, c=1, *, d=2):
    return a + b + c + d

planted(0.0, x, d=3)
planted(0.0, y)
planted(a=0.0, b=z)
"""
    assert _parameter_gaps([planted], [planted]) == ({"planted.c"}, {"planted.a"})
    # a second literal, a non-literal or an unpacked call varies it
    for call in ("planted(1.0, w)", "planted(w, w)", "planted(*w)"):
        assert _parameter_gaps([planted], [planted + call])[1] == set(), call


def _attributes_read(path):
    """Attribute names the file loads."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_result_field_is_read():
    # a dataclass field that no code reads is a result nobody looks at; the
    # readers are the package (its re-exports aside), the benchmark's scripts
    # and the tests
    fields = {
        f"{node.name}.{stmt.target.id}": stmt.target.id
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    assert fields
    read = set()
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py"), *TESTS.glob("*.py")]:
        if path != SRC / "__init__.py":
            read |= _attributes_read(path)
    unread = sorted(q for q, name in fields.items() if name not in read)
    assert not unread, f"dataclass fields that nothing reads: {unread}"


def _names_used():
    """Attribute names read, and keyword names passed, anywhere in stackstokes."""
    read, passed = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword):
                passed.add(node.arg)
    return read, passed


def _outside_config(cls, section):
    """The fields of ``cls`` that are no ``_FIELDS`` path of its config section."""
    from stackstokes.harness import _FIELDS

    return sorted(f.name for f in dataclasses.fields(cls) if f"{section}.{f.name}" not in _FIELDS)


@pytest.mark.parametrize("cls, section", [(SolverOptions, "solver"), (PenaltyConfig, "penalty")],
                         ids=["SolverOptions", "PenaltyConfig"])
def test_options_are_live(cls, section):
    # every option is read by the program, and every on/off option is set by
    # name somewhere in it (a config or a caller): a switch that only a test
    # turns on guards code that no run reaches; and every option is a field of
    # its config section, so that a run can set it
    read, passed = _names_used()
    fields = dataclasses.fields(cls)
    unread = sorted(f.name for f in fields if f.name not in read)
    assert not unread, f"{cls.__name__} fields never read in stackstokes: {unread}"
    never_on = sorted(f.name for f in fields if f.type == "bool" and f.name not in passed)
    assert not never_on, f"{cls.__name__} switches nothing in stackstokes sets: {never_on}"
    outside = _outside_config(cls, section)
    assert not outside, f"{cls.__name__} fields that no '{section}' config field sets: {outside}"


def test_config_guard_sees_a_planted_option():
    planted = dataclasses.make_dataclass("Planted", [("blowup_norm", float, 1e6)],
                                         bases=(SolverOptions,), frozen=True)
    assert _outside_config(planted, "solver") == ["blowup_norm"]
    assert _outside_config(SolverOptions, "penalty")


def test_face_layout_stays_in_grid():
    # fields, masks and trajectory rows share one packed layout; only grid
    # splits it into u and v arrays, so no other module may use face_views
    importers = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "grid":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and any(a.name == "face_views" for a in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "face_views"):
                importers.append(path.stem)
    assert not importers, f"face_views used outside grid by {importers}"


WEIGHT_EVALUATORS = {"log_weight_eval", "_signed_exponent"}
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def test_weights_are_evaluated_on_arrays():
    # the weight evaluators take arrays of times (and of eta values), so no
    # loop or comprehension calls them once per time level
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text())):
            if not isinstance(loop, _LOOPS):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in WEIGHT_EVALUATORS:
                        offenders.append(f"{path.stem}:{node.lineno}")
    assert not offenders, f"weight evaluators called inside loops at {sorted(set(offenders))}"


# the one fixed-point loop on the solver options, and the options' own check
PICARD_READERS = {"_picard", "SolverOptions.__post_init__"}


def _scoped_nodes(node, scope=()):
    """Every node below ``node``, with the names of the classes and functions around it."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _scoped_nodes(child, scope + (child.name,) if named else scope)


def test_one_loop_reads_the_picard_controls():
    # a function that reads picard_max or picard_tol runs a fixed-point loop
    # of its own; the solvers share the one in stokes._picard
    readers = sorted({
        f"{path.stem}.{'.'.join(scope)}"
        for path in SRC.glob("*.py")
        for scope, node in _scoped_nodes(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in ("picard_max", "picard_tol") and ".".join(scope) not in PICARD_READERS
    })
    assert not readers, f"Picard controls read outside the Picard driver by {readers}"


# numpy names that run numpy.linalg inside: least-squares polynomial fits
# (lstsq), companion-matrix roots (eigvals), the characteristic polynomial of
# a matrix (eigvals), the matrix class (its inverse) and the numpy.polynomial
# package (its fits and roots)
LINALG_CALLERS = {"linalg", "polyfit", "roots", "poly", "matrix", "polynomial"}


def _numpy_only_offenders(source, name="<source>"):
    """``file:line name`` of each scipy import and each import or read of
    numpy.linalg or of a numpy name that runs it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and node.attr in LINALG_CALLERS:
            names = [f"numpy.{node.attr}"]
        else:
            continue
        for n in names:
            root, _, rest = n.partition(".")
            if root == "scipy" or root == "numpy" and rest.split(".")[0] in LINALG_CALLERS:
                out.append(f"{name}:{node.lineno} {n}")
    return out


def test_package_needs_no_scipy_and_no_numpy_linalg():
    # the package runs on numpy alone (pyproject.toml) and calls no
    # np.linalg routine (the grid docstring says why), directly or through a
    # numpy function built on one: the transforms are cached matrices, H is
    # never diagonalized and slopes are fitted in closed form
    offenders = [o for path in sorted(SRC.glob("*.py"))
                 for o in _numpy_only_offenders(path.read_text(), path.name)]
    assert not offenders, f"scipy or numpy.linalg used in stackstokes at {offenders}"


@pytest.mark.parametrize("line", [
    "import scipy.fft", "from scipy import fft", "np.linalg.solve(a, b)",
    "from numpy.linalg import lstsq", "np.polyfit(x, y, 1)", "numpy.roots(c)",
    "from numpy import polyfit", "np.poly(a)", "np.matrix(a).I",
    "np.polynomial.polynomial.polyfit(x, y, 1)", "from numpy.polynomial import Polynomial",
    "import numpy.polynomial.chebyshev as C",
])
def test_numpy_only_guard_sees_linalg_callers(line):
    # each line reaches scipy or LAPACK, directly or through numpy
    assert _numpy_only_offenders(line)


def test_numpy_only_guard_passes_plain_numpy():
    assert not _numpy_only_offenders("import numpy as np\nlx @ ly / np.dot(lx, lx)\n"
                                     "np.polyval(c, x)\nnp.fft.rfft(a)\n")


# the numpy.random names that build a generator, read by harness.rng_stream alone
GENERATOR_BUILDERS = {"Generator", "Philox", "SeedSequence"}


def _hidden_seed_offenders(source, name="<source>"):
    """``file:line name`` of each import of numpy.random and each numpy.random name
    the source reads, except the Generator type outside a call (an annotation)
    and the generator builders inside ``harness.rng_stream``."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and node.value.attr == "random"
              and getattr(node.value.value, "id", None) in ("np", "numpy")):
            if (node.attr == "Generator" and id(node) not in called
                    or node.attr in GENERATOR_BUILDERS
                    and (name, *scope) == ("harness", "rng_stream")):
                continue
            names = [f"numpy.random.{node.attr}"]
        else:
            continue
        out += [f"{name}:{node.lineno} {n}" for n in names if n.startswith("numpy.random")]
    return out


def test_generators_are_built_only_by_rng_stream():
    # every random draw of a run comes from a named stream of its seed: no
    # function falls back to a seed of its own or draws from numpy's global
    # generator
    offenders = [o for path in sorted(SRC.glob("*.py"))
                 for o in _hidden_seed_offenders(path.read_text(), path.stem)]
    assert not offenders, f"random generators built outside harness.rng_stream at {offenders}"


@pytest.mark.parametrize("line", [
    "np.random.default_rng(0)", "rng = rng or numpy.random.default_rng()", "np.random.seed(1)",
    "np.random.RandomState(2)", "np.random.standard_normal(3)", "x = np.random.rand(4)",
    "np.random.Generator(np.random.PCG64(5))", "from numpy.random import default_rng",
    "from numpy import random", "import numpy.random",
    "def rng_stream(seed):\n    return np.random.default_rng(seed)",
])
def test_seed_guard_sees_hidden_generators(line):
    assert _hidden_seed_offenders(line, "harness")


def test_seed_guard_passes_annotations_and_rng_stream():
    stream = "def rng_stream(seed):\n    return np.random.Generator(np.random.Philox(seed))\n"
    assert not _hidden_seed_offenders(stream, "harness")
    assert len(_hidden_seed_offenders(stream, "saddle")) == 2
    assert not _hidden_seed_offenders("def f(rng: np.random.Generator) -> np.random.Generator:\n"
                                      "    return rng.standard_normal(3)\n")
