"""The public names other code relies on must keep resolving, each from one
import path, and the package holds nothing else.

Every name is imported from the module that defines it, as
``from w2ghz.protocol import run_protocol``; the package root binds none of
them, and no module of the package imports through the root.  The benchmark
under ``perfbench/`` imports the package directly, so a deletion that breaks
it fails here rather than only as failed benchmark ops.  Every definition in
``src/w2ghz`` is reached from a CLI command or from a name only the
benchmark runs; a definition only tests read lives with the tests.
"""

import ast
import importlib
import inspect
import subprocess
import sys
import types
from pathlib import Path

import pytest

import w2ghz
from w2ghz import hilbert, photonics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(w2ghz.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Names no CLI command reaches that the benchmark under perfbench/ runs.
# A name leaves this list once the benchmark stops using it, and its code
# leaves the package with it.
BENCHMARK_ONLY = frozenset({"cavity_interaction", "full_network", "enumerate_outcomes", "measure",
                            "sign_correction", "raman_mapping", "propagate_matrix", "IntegratorConfig",
                            "fidelity", "pd_sweep", "tol"})

# The definitions only BENCHMARK_ONLY reaches: the code that leaves the
# package once the benchmark stops running those names.
LEAF = frozenset({
    "analysis.CurvePoint", "analysis.pd_sweep",
    "detection._detect", "detection._infer_atom_basis", "detection.enumerate_outcomes", "detection.measure",
    "dynamics.IntegratorConfig", "dynamics._matrix_rate_scale", "dynamics._rk4_propagate",
    "dynamics.propagate_matrix",
    "hilbert._require_same_space", "hilbert.fidelity", "hilbert.tol",
    "photonics.JointAtomPhotonState", "photonics.JointAtomPhotonState.from_terms",
    "photonics._canonical_occupation", "photonics.full_network",
    "protocol.cavity_interaction", "protocol.raman_mapping", "protocol.sign_correction",
})


def resolve(module_name: str, name: str):
    """What ``from module_name import name`` binds, or None if nothing."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return None


def package_imports(path: Path):
    """(line, module, name, attributes used on name) for each ``from w2ghz... import``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    attributes: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attributes.setdefault(node.value.id, set()).add(node.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "w2ghz":
            for alias in node.names:
                bound = alias.asname or alias.name
                yield node.lineno, node.module, alias.name, attributes.get(bound, set())


def package_calls(path: Path):
    """(line, callee, positional count, keyword names) for each call of a
    name imported ``from w2ghz...``, or of an attribute of one.

    Starred positionals and ``**`` mappings are left out, so the counts and
    names are what the call passes for certain.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "w2ghz":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, attr = node.func, None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            func, attr = func.value, func.attr
        if not isinstance(func, ast.Name) or func.id not in bound:
            continue
        callee = resolve(*bound[func.id])
        if attr is not None:
            callee = getattr(callee, attr, None)
        positional = sum(not isinstance(arg, ast.Starred) for arg in node.args)
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        yield node.lineno, ast.unparse(node.func), callee, positional, keywords


def read_names(nodes) -> set:
    """The identifiers ``nodes`` read, each as (ast.Name, identifier) or
    (ast.Attribute, identifier) by how it is read; a store is no read.
    Annotations are left out: every module of the package defers them, so
    they never run."""
    skipped = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, FUNCTIONS):
                a = sub.args
                notes = [arg.annotation for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                         if arg is not None] + [sub.returns]
            elif isinstance(sub, ast.AnnAssign):
                notes = [sub.annotation]
            else:
                continue
            skipped.update(id(part) for note in notes if note is not None for part in ast.walk(note))
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if not isinstance(getattr(sub, "ctx", None), ast.Load) or id(sub) in skipped:
                continue
            if isinstance(sub, ast.Name):
                names.add((ast.Name, sub.id))
            elif isinstance(sub, ast.Attribute):
                names.add((ast.Attribute, sub.attr))
    return names


def runs_at_definition(function) -> list:
    """The parts of a def that run when it is defined: decorators and defaults."""
    return [*function.decorator_list, *function.args.defaults, *filter(None, function.args.kw_defaults)]


def package_definitions():
    """Each top-level function and class of the package, and each method but
    a dunder, as {qualified name: (how it is read, the nodes that run once
    it is reached)}, and the identifiers read on import.

    Modules of the package import names, not modules, so a top-level
    definition is read as (ast.Name, its name) and a method as
    (ast.Attribute, its name).  A class's dunder methods run with the class.
    Module-level statements, decorators, defaults, base classes and class
    bodies run on import."""
    definitions, on_import = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, FUNCTIONS):
                definitions[f"{path.stem}.{node.name}"] = ((ast.Name, node.name), node.body)
                on_import |= read_names(runs_at_definition(node))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, FUNCTIONS)]
                dunder = [m for m in methods if m.name.startswith("__") and m.name.endswith("__")]
                definitions[f"{path.stem}.{node.name}"] = ((ast.Name, node.name), dunder)
                definitions.update({f"{path.stem}.{node.name}.{m.name}": ((ast.Attribute, m.name), m.body)
                                    for m in methods if m not in dunder})
                on_import |= read_names([*node.decorator_list, *node.bases, *node.keywords,
                                         *(stmt for stmt in node.body if not isinstance(stmt, FUNCTIONS)),
                                         *(part for m in methods for part in runs_at_definition(m))])
            else:
                on_import |= read_names([node])
    return definitions, on_import


def reached(definitions, roots) -> set:
    """The qualified names of the definitions reached from the identifiers
    ``roots`` (as ``read_names`` gives them): a definition is reached when
    it is read, as a Name if it is top-level and as an Attribute if it is a
    method, by a root or by a reached definition.  Matching by identifier
    over-approximates, so a definition that is reached is never reported as
    not reached."""
    names, done = set(roots), set()
    while True:
        new = {qualified for qualified, (read, _) in definitions.items() if read in names} - done
        if not new:
            return done
        done |= new
        for qualified in new:
            names |= read_names(definitions[qualified][1])


def test_every_definition_is_reached():
    # The roots are what runs on import and the console entry point,
    # w2ghz.cli:main; the benchmark-only names add what only perfbench runs.
    assert 'w2ghz = "w2ghz.cli:main"' in (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    definitions, on_import = package_definitions()
    cli_roots = on_import | {(ast.Name, "main")}
    benchmark_roots = {(ast.Name, name) for name in BENCHMARK_ONLY}
    unreached = set(definitions) - reached(definitions, cli_roots | benchmark_roots)
    assert not unreached, f"no CLI command and no benchmark name reaches {sorted(unreached)}"
    from_cli = {definitions[qualified][0] for qualified in reached(definitions, cli_roots)}
    assert not benchmark_roots & from_cli, f"a CLI command reaches {sorted(benchmark_roots & from_cli)}"
    assert benchmark_roots <= {read for read, _ in definitions.values()}


def test_benchmark_only_names_reach_exactly_the_leaf():
    # A new edge from a CLI command into the leaf takes a name off this
    # difference, and a new benchmark-only definition adds one.
    definitions, on_import = package_definitions()
    cli_roots = on_import | {(ast.Name, "main")}
    benchmark_roots = {(ast.Name, name) for name in BENCHMARK_ONLY}
    leaf = reached(definitions, cli_roots | benchmark_roots) - reached(definitions, cli_roots)
    assert leaf == LEAF, f"gained {sorted(leaf - LEAF)}, lost {sorted(LEAF - leaf)}"


def test_benchmark_only_names_are_used_by_the_benchmark():
    paths = sorted(PERFBENCH.glob("*.py"))
    if not paths:
        pytest.skip("no perfbench/ in this checkout")
    used = {name for _, name in read_names([ast.parse(path.read_text(), filename=str(path)) for path in paths])}
    assert BENCHMARK_ONLY <= used, f"perfbench/ does not use {sorted(BENCHMARK_ONLY - used)}"


# The simulator's public names, each under the module that defines it.
PUBLIC_NAMES = {
    "w2ghz.analysis": ("CurvePoint", "FidelityEstimates", "SweepSpec", "fidelity_surface",
                       "master_equation_estimates", "pd_closed_form", "pd_sweep", "pd_sweep_table",
                       "reference_noise_params"),
    "w2ghz.atom_cavity": ("SystemParams", "collapse_operators", "full_hamiltonian"),
    "w2ghz.detection": ("ClickPattern", "DetectionReport", "OutcomeClass", "classify_pattern",
                        "enumerate_outcomes", "measure"),
    "w2ghz.dynamics": ("EvolutionCoefficients", "decay_coefficients"),
    "w2ghz.hilbert": ("DensityMatrix", "HilbertSpace", "Operator", "StateVector", "fidelity"),
    "w2ghz.photonics": ("DEFAULT_LAYOUT", "JointAtomPhotonState", "full_network"),
    "w2ghz.protocol": ("ProtocolResult", "ProtocolRun", "apply_hadamard_pulses", "cavity_interaction",
                       "ghz_target", "prepare_w_state", "raman_mapping", "run_protocol", "sign_correction"),
}


@pytest.mark.parametrize("module_name, name", [pytest.param(module_name, name, id=name)
                                               for module_name, names in PUBLIC_NAMES.items() for name in names])
def test_each_name_has_one_import_path(module_name, name):
    value = resolve(module_name, name)
    assert value is not None, f"{module_name}.{name} is gone"
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module_name
    assert not hasattr(w2ghz, name), f"w2ghz.{name} is a second import path"


def test_import_leaves_scipy_out():
    # scipy is a test dependency only: no module of the package imports it,
    # at the top or inside a function.
    code = "import sys, w2ghz.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(Path(w2ghz.__file__).parents[1])})
    assert out.stdout.strip() == "False"
    for path in sorted(Path(w2ghz.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), f"{path.name}:{node.lineno}"


def test_import_leaves_submodules_out():
    # The root binds only its version: importing it loads no submodule and
    # not numpy.
    code = ("import sys, w2ghz; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('w2ghz.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(Path(w2ghz.__file__).parents[1])})
    assert out.stdout.strip() == "[]"


def test_modules_do_not_import_through_the_root():
    package = Path(w2ghz.__file__).parent
    submodules = {path.stem for path in package.glob("*.py")}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            through_root = (node.level == 1 and node.module is None) or (node.level == 0 and node.module == "w2ghz")
            if through_root:
                names = {alias.name for alias in node.names}
                assert names <= submodules, f"{path.name}:{node.lineno} imports {sorted(names - submodules)}"


def test_one_network_is_compiled():
    # The pipeline runs the paper's one network: its compile steps take no
    # routing, and no module of the package but photonics names the routing
    # table, so no option to pick another can reach the pipeline.
    for compile_step in (photonics.network_map, photonics._mode_matrix):
        assert not inspect.signature(compile_step).parameters, compile_step.__name__
    package = Path(w2ghz.__file__).parent
    naming = [path.name for path in sorted(package.glob("*.py")) if "DEFAULT_LAYOUT" in path.read_text()]
    assert naming == ["photonics.py"]


def test_tolerances_are_unscaled():
    assert hilbert.tol(1.0) == 1.0


def oracle_reads(path: Path) -> set:
    """Every identifier the oracle module ``path`` names or can run in the
    package: each name it imports, from any module, each name and
    attribute it mentions, and what the package definitions that
    ``reached`` walks from its ``w2ghz`` imports and its attributes (a
    method is matched by its name alone) read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    direct = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    direct |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    direct |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    roots = {(ast.Name, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "w2ghz"
             for alias in node.names}
    roots |= {(kind, name) for kind, name in read_names([tree]) if kind is ast.Attribute}
    definitions, _ = package_definitions()
    return direct | {name for qualified in reached(definitions, roots)
                     for _, name in read_names(definitions[qualified][1])}


# What the test-side oracles must not reach: the compiled routes they check,
# the network's single-photon matrix they are compiled from, the detection
# table and classes those routes index, the hand-listed branch levels the
# exact unit route rests on, and the unit's builders.
COMPILED = frozenset({"full_network", "cavity_interaction", "network_map", "_configuration_amplitudes",
                      "_network_amplitudes", "network_state", "heralded_states", "decay_coefficients",
                      "transfer_coefficients", "compare_full_vs_effective", "master_equation_estimates",
                      "emitted_block", "_expm_minus_identity", "branch_levels", "detect_amplitudes",
                      "_corrected_fidelities", "_CLASSES", "_MINUS", "_weight_table", "_report",
                      "_PATTERN_SETS", "_ACCEPTED_INDICES", "_FLIP_SIGNS", "fidelities", "classify_pattern",
                      "full_hamiltonian", "collapse_operators", "_mode_matrix"})


def test_staged_reference_is_independent():
    # Neither directly nor through the package code the oracle calls.
    for name in ("staged_reference.py", "unit_reference.py"):
        reads = oracle_reads(Path(__file__).with_name(name))
        assert not reads & COMPILED, f"{name} reaches {sorted(reads & COMPILED)}"


@pytest.mark.parametrize("source, flagged", [
    # A name from a module outside the package, read bare.
    ("from elimination_view import compare_full_vs_effective\n\n"
     "def f(params, grid):\n    return compare_full_vs_effective(params, grid)\n",
     {"compare_full_vs_effective"}),
    # A name only the package code it calls reads.
    ("from w2ghz.protocol import run_protocol\n\n"
     "def f(params):\n    return run_protocol(params)\n",
     {"_weight_table", "_PATTERN_SETS", "fidelities", "network_map"}),
    # A compiled name stored, never read.
    ("def f():\n    network_map = None\n", {"network_map"}),
    # A builder of the unit the whole-space oracles propagate.
    ("from w2ghz.atom_cavity import collapse_operators, full_hamiltonian\n\n"
     "def f(params):\n    return full_hamiltonian(params), collapse_operators(params)\n",
     {"full_hamiltonian", "collapse_operators"}),
    # The network's single-photon matrix the compiled map is built from.
    ("from w2ghz.photonics import _mode_matrix\n\n"
     "def f():\n    return _mode_matrix()\n",
     {"_mode_matrix"}),
], ids=["foreign-import", "transitive", "bare-name", "unit-builder", "mode-matrix"])
def test_independence_guard_flags(tmp_path, source, flagged):
    path = tmp_path / "oracle.py"
    path.write_text(source)
    assert flagged <= oracle_reads(path) & COMPILED


def test_validate_reference_shares_no_code_with_the_route():
    # network-reference-state's analytic state is expanded by checks' own
    # code: no package definition the reference reaches is one the compiled
    # network reaches, so a fault in either cannot cancel in the comparison.
    definitions, _ = package_definitions()
    reference = reached(definitions, {(ast.Name, "_reference_terms")})
    route = reached(definitions, {(ast.Name, "network_map")})
    assert not reference & route, f"both reach {sorted(reference & route)}"
    assert "checks._expand_photons" in reference and "photonics._mode_matrix" in route


# One case per benchmark source, or one skipped case in a checkout without it.
BENCHMARK_SOURCES = ([pytest.param(path, id=path.name) for path in sorted(PERFBENCH.glob("*.py"))]
                     or [pytest.param(None, marks=pytest.mark.skip(reason="no perfbench/ in this checkout"))])


@pytest.mark.parametrize("path", BENCHMARK_SOURCES)
def test_benchmark_imports_resolve(path):
    # Each ``from w2ghz... import`` name, and each attribute the benchmark
    # reads on an imported module, such as the worker's ``hilbert.tol``.
    for line, module_name, name, attributes in package_imports(path):
        value = resolve(module_name, name)
        assert value is not None, f"{path.name}:{line}: {module_name}.{name} is gone"
        if isinstance(value, types.ModuleType):
            for attr in sorted(attributes):
                assert hasattr(value, attr), f"{path.name}:{line}: {module_name}.{name}.{attr} is gone"


@pytest.mark.parametrize("path", BENCHMARK_SOURCES)
def test_benchmark_calls_bind(path):
    # A parameter the benchmark passes must not be deleted or renamed.
    for line, text, callee, positional, keywords in package_calls(path):
        assert callable(callee), f"{path.name}:{line}: {text} is not callable"
        try:
            inspect.signature(callee).bind_partial(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"{path.name}:{line}: {text}: {exc}")
