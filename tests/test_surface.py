"""The public surface: each module's ``__all__``, the keyword options
left in the numerical layers, that every public function has a caller
outside the tests, what the benchmark in ``bench/`` reaches of them,
where the decisions at 1 are made, which function reaches scipy, and
what ``import greedycert`` loads."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import greedycert
from greedycert import basis_pursuit, certificates, dictionaries, experiments, greedy, linalg

PUBLIC = {
    greedycert: [
        "basis_pursuit", "certificates", "dictionaries", "experiments", "greedy", "linalg",
        "GreedycertError", "gaussian", "hybrid", "convolutive", "example1",
        "run_greedy", "construct_reaching_input", "build_failure_input",
        "f_omp", "f_ols", "erc_oxx_subset", "erc_oxx_cardinality", "brc_omp",
        "recursion_chain", "nsp_check", "brc_bp_check", "l1_recovers",
        "compute_spark", "ExperimentConfig", "ExperimentResult", "run_experiment",
    ],
    basis_pursuit: [
        "NspReport", "BrcBpReport", "nsp_check", "brc_bp_check", "l1_recovers",
    ],
    certificates: [
        "CertificateReport", "f_omp", "f_ols", "erc_oxx_subset", "erc_oxx_cardinality",
        "brc_omp", "recursion_chain",
    ],
    dictionaries: ["Dictionary", "gaussian", "hybrid", "convolutive", "example1"],
    experiments: [
        "ExperimentConfig", "ExperimentResult", "scatter_experiment", "phase_curve",
        "phase_diagram", "f_vs_q_curve", "brc_map", "brc_sigma_sweep", "run_experiment",
        "load_config", "default_filename", "sigma_threshold", "delta_frontier",
        "phase_trial_state",
    ],
    greedy: [
        "IterationRecord", "GreedyTrace", "select_omp", "select_ols", "run_greedy",
        "construct_reaching_input", "build_failure_input",
    ],
    linalg: [
        "ProjectionState", "factor_chain", "init_state", "state_for", "extend_state",
        "residual", "compute_spark",
    ],
}


@pytest.mark.parametrize("module", list(PUBLIC), ids=lambda m: m.__name__)
def test_all_is_pinned(module):
    assert module.__all__ == PUBLIC[module]
    assert all(hasattr(module, name) for name in module.__all__)


def test_one_keyword_option_in_numerical_layers():
    # the options left, pinned so that no test-only knob returns unseen:
    # `cert --brc` runs brc_omp checked while the brc-map and brc-sigma
    # sweeps read the kernel alone; the greedy subcommand and the failure
    # inputs give run_greedy a support oracle, the reaching inputs do not
    options = [
        f"{name}({param.name}=)"
        for module in (certificates, linalg, greedy, basis_pursuit)
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
        for param in inspect.signature(getattr(module, name)).parameters.values()
        if param.default is not inspect.Parameter.empty
    ]
    assert options == ["brc_omp(fast=)", "run_greedy(oracle=)"]


ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _loaded_names(paths):
    """Every name the files at ``paths`` load, bare or as an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller_outside_tests():
    # a call or a registry entry (such as _RUNNERS or _SELECT) in the
    # package, a demo or the benchmark counts; an import or an __all__
    # entry does not, so a function that only tests use fails here
    src = Path(greedycert.__file__).resolve().parent
    used = _loaded_names([*src.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                          *BENCH.glob("*.py")])
    unused = [f"{module.__name__}.{name}"
              for module in (basis_pursuit, certificates, dictionaries, experiments,
                             greedy, linalg)
              for name in module.__all__
              if inspect.isfunction(getattr(module, name)) and name not in used]
    assert not unused


def _api_chain(node):
    """``("x", "y")`` for the expression ``api.x.y``, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "api" and names:
        return tuple(reversed(names))
    return None


def _bench_uses():
    """Every ``api.<name>[.<attr>]`` the benchmark reaches, and the
    keywords it passes to each callable: directly, or through its
    ``Recorder.call(kind, units, fn, *args, expected=..., **kwargs)``."""
    chains, keywords = set(), []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            chain = _api_chain(node)
            if chain:
                chains.add(chain)
            if not isinstance(node, ast.Call):
                continue
            target = _api_chain(node.func)
            names = [kw.arg for kw in node.keywords if kw.arg]
            if (target is None and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "call" and len(node.args) >= 3):
                target = _api_chain(node.args[2])
                names = [name for name in names if name != "expected"]
            if target:
                keywords.extend((target, name) for name in names)
    return chains, keywords


def _resolve(chain):
    """``greedycert.<chain>``, or None when some name on it is gone."""
    obj = greedycert
    for name in chain:
        obj = getattr(obj, name, None)
    return obj


def test_benchmark_api_still_resolves():
    # bench/ is edited only with the benchmark itself: a src/ change that
    # removes or renames what it reaches must fail here first
    chains, keywords = _bench_uses()
    assert ("exceptions", "DimensionTooLargeError") in chains
    assert (("brc_omp",), "fast") in keywords
    missing = [".".join(chain) for chain in sorted(chains) if _resolve(chain) is None]
    assert not missing
    refused = [f"{'.'.join(chain)}({name}=)" for chain, name in keywords
               if name not in inspect.signature(_resolve(chain)).parameters]
    assert not refused


def _owners(path, hit):
    """The functions of the module at ``path`` holding a node for which
    ``hit`` is true, by name (``<module>`` outside them)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.add(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def _compares_with_one(node):
    """A comparison with the float constant 1.0."""
    return isinstance(node, ast.Compare) and any(
        isinstance(x, ast.Constant) and type(x.value) is float and x.value == 1.0
        for x in [node.left, *node.comparators])


def _imports_scipy(node):
    """``import scipy...`` or ``from scipy... import ...``."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module]
    else:
        return False
    return any(name == "scipy" or name.startswith("scipy.") for name in names)


def test_decisions_at_one_live_in_the_two_rules():
    # every greedy verdict is decided by certificates._erc_rule or
    # _brc_rule, so a band around 1 made there reaches every report,
    # experiment and failure input, and no new site can bypass it
    src = Path(greedycert.__file__).resolve().parent
    assert _owners(src / "experiments.py", _compares_with_one) == set()
    assert _owners(src / "greedy.py", _compares_with_one) == set()
    assert _owners(src / "certificates.py", _compares_with_one) == {"_erc_rule", "_brc_rule"}


def test_one_function_imports_scipy():
    # the LP helper is the package's one way into scipy: its binding
    # route and its milp fallback sit side by side, and numpy serves
    # every other layer
    src = Path(greedycert.__file__).resolve().parent
    importers = {f"{path.stem}.{owner}" for path in sorted(src.glob("*.py"))
                 for owner in _owners(path, _imports_scipy)}
    assert importers == {"basis_pursuit._solve_lp"}


def test_import_leaves_the_lp_solver_unloaded():
    # scipy loads only when an l1 check runs (its LP solver); numpy's
    # LAPACK serves everything else, so every other entry point starts
    # without scipy.linalg or any other part of scipy
    src = str(Path(greedycert.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, greedycert; print([m for m in "
            "('scipy', 'scipy.linalg', 'scipy.optimize', 'scipy.sparse') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
