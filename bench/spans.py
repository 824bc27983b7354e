"""In-memory spans around the public functions of each greedycert layer.

A :class:`Tracer` replaces every public function of the layer modules by
a timing wrapper, in every module namespace that holds it, so calls are
caught the way the modules call each other (``certificates`` calls the
``least_squares`` it imported from ``linalg``, ``run_greedy`` calls the
selection rules through ``greedy._SELECT``).  Nothing inside the package
is edited; uninstalling puts the original objects back.

Spans stay in memory and are written out once, at the end of a run.
Counts of work that the package does not expose are derived from call
arguments and results and are labelled as computed.
"""

import functools
import inspect
import json
from collections import defaultdict
from math import comb
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("dictionaries", "linalg", "certificates", "greedy", "basis_pursuit", "experiments")
CONSTRUCT = ("greedy.build_failure_input", "greedy.construct_reaching_input")
SELECT = ("greedy.select_omp", "greedy.select_ols")


def _cones(dim, rows):
    """Sign cones the exact null-space search enumerates for one sphere
    maximization over ``rows`` arrangement rows in dimension ``dim``;
    in three dimensions each row's boundary plane is searched again in
    two dimensions, where that row itself drops out."""
    if dim <= 0:
        return 0
    if dim == 1:
        return 2
    if dim == 2:
        return 2**rows
    return 2**rows + rows * 2 ** (rows - 1)


def _null_dim(a):
    a = np.asarray(getattr(a, "matrix", a))
    return a.shape[1] - int(np.linalg.matrix_rank(a))


def _count_extend(tracer, args, kwargs, result):
    m, n = result.atoms.shape
    # computed: the two outer products and the new projected matrix
    tracer.counts["linalg.extend_state.bytes_computed"] += 3 * 8 * m * n


def _count_subset(tracer, args, kwargs, result):
    tracer.counts["certificates.subsets"] += 1


def _count_cardinality(tracer, args, kwargs, result):
    k = len(args[1])
    tracer.counts["certificates.subsets"] += comb(k, result.details["cardinality"])


def _count_brc(tracer, args, kwargs, result):
    tracer.counts["certificates.subsets"] += len(result.per_atom)


def _count_chain(tracer, args, kwargs, result):
    tracer.counts["certificates.subsets"] += len(result)


def _count_greedy(tracer, args, kwargs, result):
    tracer.counts["greedy.steps"] += len(result.records)
    if tracer.inside(CONSTRUCT):
        tracer.counts["greedy.construct.reruns"] += 1


def _count_failure_input(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["greedy.construct.inputs"] += 1


def _count_nsp(tracer, args, kwargs, result):
    a = args[0]
    n = np.asarray(getattr(a, "matrix", a)).shape[1]
    tracer.counts["basis_pursuit.sign_patterns"] += _cones(_null_dim(a), n)


def _count_brc_bp(tracer, args, kwargs, result):
    a = args[0]
    n = np.asarray(getattr(a, "matrix", a)).shape[1]
    k = len(result.support)
    patterns = 2 ** max(k - 1, 0)
    tracer.counts["basis_pursuit.sign_patterns"] += patterns * _cones(_null_dim(a), n - k)


COUNTERS = {
    "linalg.extend_state": _count_extend,
    "certificates.erc_oxx_subset": _count_subset,
    "certificates.erc_oxx_cardinality": _count_cardinality,
    "certificates.brc_omp": _count_brc,
    "certificates.recursion_chain": _count_chain,
    "greedy.run_greedy": _count_greedy,
    "greedy.build_failure_input": _count_failure_input,
    "basis_pursuit.nsp_check": _count_nsp,
    "basis_pursuit.brc_bp_check": _count_brc_bp,
}


class Tracer:
    """Spans ``[name, start, end, parent, request]`` plus named counts.

    ``request`` is the round the span belongs to, so spans of one round
    share an identifier.  Use as a context manager around the traced
    calls; it installs on entry and restores the package on exit.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self._counts = defaultdict(lambda: defaultdict(int))
        self.request = 0
        self._patched = []

    # -- installation --------------------------------------------------

    def _modules(self):
        pkg = self.package
        mods = [pkg]
        for name in dir(pkg):
            obj = getattr(pkg, name)
            if inspect.ismodule(obj) and obj.__name__.startswith(pkg.__name__ + "."):
                mods.append(obj)
        return mods

    def install(self):
        modules = self._modules()
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{fname}"
                wrapped = self._wrap(name, fn, COUNTERS.get(name))
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, attr, fn))
                            setattr(holder, attr, wrapped)
                # greedy.run_greedy looks its selection rule up in a table
                table = self.package.greedy._SELECT
                for key, value in list(table.items()):
                    if value is fn:
                        self._patched.append((table, key, fn))
                        table[key] = wrapped

    def uninstall(self):
        for holder, attr, fn in reversed(self._patched):
            if isinstance(holder, dict):
                holder[attr] = fn
            else:
                setattr(holder, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    @property
    def counts(self):
        """Named counts of the current request."""
        return self._counts[self.request]

    def counts_for(self, requests):
        out = defaultdict(int)
        for request in requests:
            for name, value in self._counts.get(request, {}).items():
                out[name] += value
        return out

    def inside(self, names):
        """True when a span named in ``names`` is open."""
        return any(self.spans[i][0] in names for i in self.stack)

    # -- reduction -----------------------------------------------------

    def totals(self, requests):
        """Per span name: calls, inclusive seconds, self seconds, over
        the spans of the given requests."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _, request) in enumerate(self.spans):
            if request not in requests:
                continue
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - child[i]
        return calls, inclusive, own

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")
        return path


def _unit(name):
    if name.endswith(("self_s", "wall_s", "task_s", "overhead_s")):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("efficiency"):
        return "ratio"
    return "count"


PER_LAYER = (
    "dictionaries.calls", "dictionaries.self_s",
    "linalg.least_squares.calls", "linalg.least_squares.self_s", "linalg.mgs_qr.self_s",
    "linalg.extend_state.calls", "linalg.extend_state.self_s",
    "linalg.extend_state.bytes_computed",
    "linalg.state_for.calls", "linalg.state_for.self_s",
    "certificates.erc_oxx_subset.self_s", "certificates.erc_oxx_cardinality.self_s",
    "certificates.brc_omp.self_s", "certificates.subsets",
    "greedy.run_greedy.calls", "greedy.run_greedy.self_s", "greedy.select.self_s",
    "greedy.steps", "greedy.construct.self_s", "greedy.construct.reruns_per_input",
    "basis_pursuit.null_space_basis.self_s", "basis_pursuit.nsp_check.self_s",
    "basis_pursuit.brc_bp_check.self_s", "basis_pursuit.sign_patterns",
    "experiments.run_experiment.wall_s", "experiments.pool.serial_task_s",
    "experiments.pool.efficiency", "trace.overhead_s",
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER}


def layer_metrics(tracer, requests):
    """Per-request per-layer figures from the spans of ``requests``."""
    requests = set(requests)
    rounds = len(requests)
    calls, inclusive, own = tracer.totals(requests)
    counts = tracer.counts_for(requests)

    def self_s(*names):
        return sum(own.get(n, 0.0) for n in names) / rounds

    def ncalls(*names):
        return sum(calls.get(n, 0) for n in names) / rounds

    dictionaries = [n for n in calls if n.startswith("dictionaries.")]
    inputs = counts["greedy.construct.inputs"]
    return {
        "dictionaries.calls": ncalls(*dictionaries),
        "dictionaries.self_s": self_s(*dictionaries),
        "linalg.least_squares.calls": ncalls("linalg.least_squares"),
        "linalg.least_squares.self_s": self_s("linalg.least_squares"),
        "linalg.mgs_qr.self_s": self_s("linalg.mgs_qr"),
        "linalg.extend_state.calls": ncalls("linalg.extend_state"),
        "linalg.extend_state.self_s": self_s("linalg.extend_state"),
        "linalg.extend_state.bytes_computed": counts["linalg.extend_state.bytes_computed"] / rounds,
        "linalg.state_for.calls": ncalls("linalg.state_for"),
        "linalg.state_for.self_s": self_s("linalg.state_for"),
        "certificates.erc_oxx_subset.self_s": self_s("certificates.erc_oxx_subset"),
        "certificates.erc_oxx_cardinality.self_s": self_s("certificates.erc_oxx_cardinality"),
        "certificates.brc_omp.self_s": self_s("certificates.brc_omp"),
        "certificates.subsets": counts["certificates.subsets"] / rounds,
        "greedy.run_greedy.calls": ncalls("greedy.run_greedy"),
        "greedy.run_greedy.self_s": self_s("greedy.run_greedy"),
        "greedy.select.self_s": self_s(*SELECT),
        "greedy.steps": counts["greedy.steps"] / rounds,
        "greedy.construct.self_s": self_s(*CONSTRUCT),
        "greedy.construct.reruns_per_input":
            counts["greedy.construct.reruns"] / inputs if inputs else 0.0,
        "basis_pursuit.null_space_basis.self_s": self_s("basis_pursuit.null_space_basis"),
        "basis_pursuit.nsp_check.self_s": self_s("basis_pursuit.nsp_check"),
        "basis_pursuit.brc_bp_check.self_s": self_s("basis_pursuit.brc_bp_check"),
        "basis_pursuit.sign_patterns": counts["basis_pursuit.sign_patterns"] / rounds,
        "experiments.run_experiment.wall_s":
            inclusive.get("experiments.run_experiment", 0.0) / rounds,
    }
