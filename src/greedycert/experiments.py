"""Seeded Monte Carlo studies over the recovery certificates.

Every experiment is a pure function of its configuration: trial ``t``
derives its generator from ``base_seed + t`` (``base_seed + c * trials
+ t`` in cell ``c`` of a grid) and nothing else, so runs are
reproducible bit for bit regardless of how many worker processes
execute them.  Results serialize to CSV (17 significant digits, config
echoed as a ``#`` comment on the first line) and to JSON (config first).

Factor values come from the factor kernel alone
(:func:`linalg.factor_chain`, one QR per trial); the SVD route that
cross-checks it in the certificates' checked mode is not run here, and
every verdict is read by their rules, ``_erc_rule`` or ``_brc_rule``.
A task is one trial, except in brc-map: there a task is a chunk of one
grid cell, whose dictionaries are drawn in seed order straight into one
stack, normalized in one pass and certified by one kernel call on the
stack; its trials build no :class:`dictionaries.Dictionary` of their
own.

Tasks run in order in this process and are timed.  Once the tasks left,
at the mean task time so far, would take longer than
``_POOL_BREAK_EVEN_S`` (measured below), and the prefix has run long
enough to tell, the rest go to a process pool in contiguous chunks and
merge after the in-process prefix in task order.  ``workers`` is an
upper bound: the pool starts no more processes than the request, the
CPUs this process may use or the tasks left, and each worker runs its
BLAS with one thread.
"""

import ctypes
import dataclasses
import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import get_args

import numpy as np

from .certificates import _brc_rule, _chain_factors, _check_algorithm, _erc_rule, _wrong_atoms
from .dictionaries import _build, _rows, _stack, convolutive
from .linalg import _as_matrix, _openblas, factor_chain

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "scatter_experiment",
    "phase_curve",
    "phase_diagram",
    "f_vs_q_curve",
    "brc_map",
    "brc_sigma_sweep",
    "run_experiment",
    "load_config",
    "default_filename",
    "sigma_threshold",
    "delta_frontier",
    "phase_trial_state",
]

KINDS = ("scatter", "phase-curve", "phase-diagram", "f-vs-q", "brc-map", "brc-sigma")

# the values each annotated field type takes: an int is no bool, and a
# float may be given as an int
_TYPES = {str: (str,), int: (int, np.integer), float: (int, np.integer, float, np.floating)}


def _typed(value, kind):
    return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run.

    Every field must have its annotated type (``ValueError`` naming it).
    A kind's runner checks the values it consumes; the rest keep their
    defaults and ride along in the echo so a config always round-trips.
    """

    kind: str
    dictionary: str = "gaussian"
    m: int = 0
    n: int = 0
    k: int = 0
    trials: int = 1
    base_seed: int = 0
    algorithms: tuple[str, ...] = ("omp", "ols")
    placement: str = "random"
    q_values: tuple[int, ...] = ()
    n_grid: tuple[int, ...] = ()
    k_grid: tuple[int, ...] = ()
    m_grid: tuple[int, ...] = ()
    sigmas: tuple[float, ...] = ()
    deltas: tuple[int, ...] = ()
    t_max: float = 10.0
    sigma: float = 1.0
    downsample: int = 1

    def __post_init__(self):
        # each field takes its annotated type; a tuple[T, ...] field takes
        # a list or tuple of T
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            [kind] = get_args(field.type)[:1] or [field.type]
            scalar = kind is field.type
            items = [value] if scalar else value
            if not isinstance(items, (list, tuple)) or not all(_typed(v, kind) for v in items):
                want = kind.__name__ if scalar else f"a list of {kind.__name__}"
                raise ValueError(f"config field {field.name!r} must be {want}, got {value!r}")
            items = tuple(map(kind, items))
            object.__setattr__(self, field.name, items[0] if scalar else items)
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if not self.algorithms or len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"algorithms must be distinct, at least one: {self.algorithms}")
        for alg in self.algorithms:
            _check_algorithm(alg)

    def as_dict(self):
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            out[field.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data):
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"bad experiment config: {exc}") from None


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


@dataclass(frozen=True)
class ExperimentResult:
    """Tabular outcome plus the config that produced it.

    ``wall_clock`` is measured for reporting but deliberately left out
    of both serializations: the files must be identical across reruns
    and worker counts.
    """

    config: ExperimentConfig
    columns: tuple
    rows: tuple
    wall_clock: float

    def to_csv(self):
        lines = ["# " + json.dumps(self.config.as_dict())]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self):
        obj = {
            "config": self.config.as_dict(),
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }
        return json.dumps(obj, indent=2) + "\n"

    def save(self, path):
        path = str(path)
        if path.endswith(".csv"):
            text = self.to_csv()
        elif path.endswith(".json"):
            text = self.to_json()
        else:
            raise ValueError(f"unsupported output suffix: {path!r}")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)

    def column(self, name):
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def default_filename(config, fmt):
    """Canonical output name embedding the kind and base seed."""
    return f"{config.kind}-seed{config.base_seed}.{fmt}"


def load_config(path):
    """Recover a config from a result file (JSON object or CSV echo)."""
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if first.startswith("# "):
            data = json.loads(first[2:])
        else:
            handle.seek(0)
            obj = json.load(handle)
            data = obj["config"] if "config" in obj else obj
    return ExperimentConfig.from_dict(data)


def _support(placement, n, k, delta, rng):
    if not 1 <= k < n:
        raise ValueError(f"support size {k} must satisfy 1 <= k < n = {n}")
    if placement == "random":
        picked = rng.choice(n, size=k, replace=False)
        return tuple(sorted(int(i) for i in picked))
    if placement == "contiguous":
        return tuple(range(k))
    if placement == "spaced":
        last = (k - 1) * delta
        if delta < 1:
            raise ValueError(f"spacing {delta} is below 1")
        if last >= n:
            raise ValueError(f"spacing {delta} puts atom {last} outside n = {n}")
        return tuple(range(0, last + 1, delta))
    raise ValueError(f"unknown placement policy: {placement!r}")


def _factor_curves(atoms, qstar, order, q_values, algorithms):
    """Aggregate certificate values along a growth order, one pass.

    One factor-kernel call (:func:`linalg.factor_chain`) in growth order
    gives the coefficient table and the projected norms at every depth;
    each rule's table of factors (:func:`certificates._chain_factors`) is
    reduced by ``_erc_rule`` before the next one runs.  Returns
    ``{algorithm: (aggregates, verdicts)}``, two lists over ``q_values``.
    """
    a = _as_matrix(atoms)
    qstar = tuple(qstar)
    order = tuple(order)
    if sorted(order) != sorted(qstar):
        raise ValueError("growth order must be a permutation of the support")
    q_values = tuple(q_values)
    if not q_values or any(not 0 <= q < len(qstar) for q in q_values):
        raise ValueError("partial supports must be proper subsets of the support")
    chain = factor_chain(a, order, _wrong_atoms(a.shape[1], qstar))
    curves = {}
    for alg in algorithms:
        aggregates, verdicts = _erc_rule(_chain_factors(chain, q_values, alg))
        curves[alg] = (aggregates.tolist(), verdicts.tolist())
    return curves


def _worker_count(requested, tasks):
    """Processes worth starting: no more than the request, the CPUs this
    process may run on, or the task count, and at least one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus, tasks))


# Estimated serial seconds left in a job above which the rest of it goes
# to a process pool.  On 2 vCPUs (Linux, fork start, one BLAS thread per
# worker) an empty 2-worker pool starts and shuts down in 16 ms (median
# of 20), and the same pool running 20 to 200 brc-map or phase-curve
# trials took about 30 ms more than half their serial time.  So r
# seconds of work left take about 0.03 + r / 2 pooled, which wins once r
# passes twice that cost.  More workers only lower the break-even, so
# the two-worker figure serves every count.  The estimate counts only
# after a prefix of a quarter of it: right after a fork the parent's
# first task runs about 6x slower (copy-on-write faults, 1.6 ms against
# 0.25 ms for one brc-map trial run as a task of its own), and that one
# task timing the 179 left made every following short brc-map call start
# a pool of its own.  The rule counts tasks, so for brc-map it counts
# chunks of a cell, each a stack of trials.
_POOL_BREAK_EVEN_S = 0.06


def _one_blas_thread():
    """Pool initializer: one OpenBLAS thread in this worker process.

    numpy bundles an OpenBLAS (:func:`linalg._openblas`) that starts one
    thread per core, so every worker would compete for all cores.  It is
    the only BLAS a task calls: scipy, whose wheel bundles another, is
    loaded only by the l1 checks, which no experiment runs, and opening
    its library here would load it into every worker.  A library or
    setter that is not there is skipped.
    """
    setter = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _map_ordered(fn, tasks, workers):
    """``[fn(task) for task in tasks]``, the tail on a process pool when
    it is long enough to pay for one (see the module docstring).

    Every task is a pure function of its input and results merge in
    task order, so neither the worker count nor the timing-dependent
    split can change them.
    """
    cap = _worker_count(workers, len(tasks))
    results, start = [], perf_counter()
    for done, task in enumerate(tasks, 1):
        results.append(fn(task))
        left = len(tasks) - done
        count = min(cap, left)
        elapsed = perf_counter() - start
        if (count > 1 and elapsed >= _POOL_BREAK_EVEN_S / 4
                and elapsed / done * left > _POOL_BREAK_EVEN_S):
            from concurrent.futures import ProcessPoolExecutor  # loads with the first pool

            with ProcessPoolExecutor(max_workers=count, initializer=_one_blas_thread) as pool:
                results.extend(pool.map(fn, tasks[done:], chunksize=max(1, left // (count * 4))))
            break
    return results


def _require(condition, message):
    if not condition:
        raise ValueError(message)


# -- single wrong atom scatter ------------------------------------------

def _scatter_trial(task):
    config, t = task
    d = _build(config, config.m, config.n, config.base_seed + t)
    qstar = tuple(range(config.k))
    curves = _factor_curves(d, qstar, qstar, (0, 1), ("omp", "ols"))
    return (t, curves["omp"][0][0], curves["omp"][0][1], curves["ols"][0][1])


def scatter_experiment(config, workers=1):
    """Per-trial certificate triple with a single wrong atom.

    Each trial draws a fresh dictionary with n = k + 1 columns, takes
    the first k atoms as the support and reports the full-support value
    together with both partial values after the first atom is selected.
    """
    _require(config.n == config.k + 1, "scatter requires n = k + 1")
    _require(config.k >= 2, "scatter requires k >= 2")
    _require(config.m > config.k, "scatter requires m > k")
    start = perf_counter()
    tasks = [(config, t) for t in range(config.trials)]
    rows = tuple(_map_ordered(_scatter_trial, tasks, workers))
    return ExperimentResult(config, ("trial", "f_erc", "f_omp", "f_ols"),
                            rows, perf_counter() - start)


# -- phase transition over q --------------------------------------------

def _trial(config, n, k, seed, delta):
    """Dictionary, support and growth order of one trial of ``n`` atoms
    and support size ``k``, drawn from ``seed``."""
    d = _build(config, config.m, n, seed)
    # salted stream: keeps support draws independent of the matrix draws
    rng = np.random.default_rng((seed, 1))
    qstar = _support(config.placement, n, k, delta, rng)
    return d, qstar, tuple(int(i) for i in rng.permutation(list(qstar)))


def phase_trial_state(config, t):
    """Dictionary, support and growth order for trial ``t``, replayable."""
    delta = config.deltas[0] if config.deltas else 1
    return _trial(config, config.n, config.k, config.base_seed + t, delta)


def _phase_trial(task):
    config, t = task
    d, qstar, order = phase_trial_state(config, t)
    q_values = config.q_values or tuple(range(config.k))
    curves = _factor_curves(d, qstar, order, q_values, config.algorithms)
    return tuple(tuple(curves[alg][1]) for alg in config.algorithms)


def phase_curve(config, workers=1):
    """Rate of true certificate verdicts per partial-support size."""
    _require(1 <= config.k < config.n, "support size must satisfy 1 <= k < n")
    if config.dictionary != "convolutive":  # convolutive row count is derived
        _require(config.k < config.m, "support size must be below the row count")
    q_values = config.q_values or tuple(range(config.k))
    start = perf_counter()
    tasks = [(config, t) for t in range(config.trials)]
    verdicts = _map_ordered(_phase_trial, tasks, workers)
    rows = []
    for qi, q in enumerate(q_values):
        row = [q]
        for ai in range(len(config.algorithms)):
            row.append(sum(v[ai][qi] for v in verdicts) / config.trials)
        rows.append(tuple(row))
    columns = ("q",) + tuple(f"rate_{alg}" for alg in config.algorithms)
    return ExperimentResult(config, columns, tuple(rows), perf_counter() - start)


# -- phase diagram over (n, k) ------------------------------------------

def _diagram_trial(task):
    config, n, k, seed = task
    d, qstar, order = _trial(config, n, k, seed, 1)
    curves = _factor_curves(d, qstar, order, tuple(range(k)), config.algorithms)
    # never satisfied below k counts as k: the guarantee needs all atoms
    return tuple(curves[alg][1].index(True) if any(curves[alg][1]) else k
                 for alg in config.algorithms)


def phase_diagram(config, workers=1):
    """Mean earliest-certified iteration over an (n, k) grid, as q/k."""
    _require(config.n_grid and config.k_grid, "phase-diagram needs n and k grids")
    cells = [(n, k) for n in config.n_grid for k in config.k_grid]
    for n, k in cells:
        _require(1 <= k < n, f"cell (n={n}, k={k}) needs 1 <= k < n")
        if config.dictionary != "convolutive":
            _require(k < config.m, f"cell (n={n}, k={k}) needs k < m")
    start = perf_counter()
    tasks = []
    for ci, (n, k) in enumerate(cells):
        for t in range(config.trials):
            tasks.append((config, n, k, config.base_seed + ci * config.trials + t))
    outcomes = _map_ordered(_diagram_trial, tasks, workers)
    rows = []
    for ci, (n, k) in enumerate(cells):
        chunk = outcomes[ci * config.trials:(ci + 1) * config.trials]
        row = [n, k]
        for ai in range(len(config.algorithms)):
            row.append(sum(first[ai] for first in chunk) / (config.trials * k))
        rows.append(tuple(row))
    columns = ("n", "k") + tuple(f"ratio_{alg}" for alg in config.algorithms)
    return ExperimentResult(config, columns, tuple(rows), perf_counter() - start)


# -- deterministic convolutive curves -----------------------------------

def f_vs_q_curve(config, workers=1):
    """Aggregate certificate value against q for a convolutive dictionary.

    The support is the first k atoms and the partial support grows
    through them in index order, so there is nothing random here.
    """
    _require(config.dictionary == "convolutive", "f-vs-q expects a convolutive dictionary")
    _require(config.placement == "contiguous", "f-vs-q supports are contiguous")
    d = _build(config, config.m, config.n, config.base_seed)
    _require(config.k < min(d.matrix.shape), "support size must be below both dimensions")
    q_values = config.q_values or tuple(range(config.k))
    start = perf_counter()
    qstar = tuple(range(config.k))
    curves = _factor_curves(d, qstar, qstar, q_values, config.algorithms)
    rows = tuple((q,) + tuple(curves[alg][0][qi] for alg in config.algorithms)
                 for qi, q in enumerate(q_values))
    columns = ("q",) + tuple(f"f_{alg}" for alg in config.algorithms)
    return ExperimentResult(config, columns, rows, perf_counter() - start)


# -- unreachable-support maps and sweeps --------------------------------

# A brc-map task stacks trials of one cell, at most this many bytes of
# dictionaries, so memory stays bounded however many trials a cell has.
_STACK_BYTES = 2**22


def _brc_map_task(task):
    """Certified trials among one chunk of a brc-map cell: the chunk's
    dictionaries, drawn in seed order straight into one stack
    (:func:`dictionaries._stack`) and certified by one
    :func:`linalg.factor_chain` call."""
    config, m, n, seeds = task
    stack = _stack(config, m, n, seeds)
    coef = factor_chain(stack, (0, 1), np.arange(2, stack.shape[2]))[0]
    return int(np.count_nonzero(_brc_rule(coef)[2]))


def brc_map(config, workers=1):
    """Rate of certified unreachable two-atom supports over (m, n).

    Trial t of cell ci draws its dictionary from seed ``base_seed + ci *
    trials + t``.  A task is a chunk of consecutive trials of one cell
    whose stack fits ``_STACK_BYTES``, sized from the family's row count
    (a convolutive dictionary has more rows than m) without building a
    dictionary; the chunks depend on the config alone, never on the
    worker count.
    """
    _require(config.k == 2, "the map is defined for two-atom supports")
    _require(config.m_grid and config.n_grid, "brc-map needs m and n grids")
    cells = [(m, n) for m in config.m_grid for n in config.n_grid]
    for m, n in cells:
        _require(2 < min(m, n), f"cell (m={m}, n={n}) is too small")
    start = perf_counter()
    tasks, owners = [], []
    for ci, (m, n) in enumerate(cells):
        first = config.base_seed + ci * config.trials
        size = max(1, _STACK_BYTES // (8 * _rows(config, m, n) * n))
        for lo in range(0, config.trials, size):
            tasks.append((config, m, n, range(first + lo, first + min(lo + size, config.trials))))
            owners.append(ci)
    hits = [0] * len(cells)
    for ci, count in zip(owners, _map_ordered(_brc_map_task, tasks, workers)):
        hits[ci] += count
    rows = tuple((m, n, hits[ci] / config.trials) for ci, (m, n) in enumerate(cells))
    return ExperimentResult(config, ("m", "n", "rate"), rows, perf_counter() - start)


def _sigma_task(task):
    """A brc-sigma row, read by ``_brc_rule`` off one kernel call as in
    brc-map; ``_support`` keeps ``k = 2 < n``, so a wrong atom exists."""
    config, sigma, delta = task
    d = convolutive(config.n, sigma, config.downsample)
    n = d.matrix.shape[1]
    support = _support("spaced", n, 2, delta, None)
    _, aggregate, verdict = _brc_rule(factor_chain(d, support, _wrong_atoms(n, support))[0])
    return (sigma, delta, float(aggregate), bool(verdict))


def brc_sigma_sweep(config, workers=1):
    """Unreachability certificate across pulse widths and spacings.

    One row per (spacing, width) pair on a two-atom support; spacing 1
    is the contiguous case.  No randomness is involved.
    """
    _require(config.dictionary == "convolutive", "brc-sigma expects a convolutive dictionary")
    _require(config.sigmas, "brc-sigma needs a sigma grid")
    _require(config.k == 2, "the sweep is defined for two-atom supports")
    deltas = config.deltas or (1,)
    start = perf_counter()
    tasks = [(config, sigma, delta) for delta in deltas for sigma in config.sigmas]
    rows = tuple(_map_ordered(_sigma_task, tasks, workers))
    return ExperimentResult(config, ("sigma", "delta", "aggregate", "verdict"),
                            rows, perf_counter() - start)


def sigma_threshold(result, delta=1):
    """Smallest pulse width certified unreachable at the given spacing."""
    widths = [s for s, dl, _, v in result.rows if dl == delta and v]
    return min(widths) if widths else None


def delta_frontier(result):
    """Largest certified spacing per pulse width, ``None`` when none is."""
    out = []
    for sigma in sorted({row[0] for row in result.rows}):
        hit = [dl for s, dl, _, v in result.rows if s == sigma and v]
        out.append((sigma, max(hit) if hit else None))
    return out


_RUNNERS = {
    "scatter": scatter_experiment,
    "phase-curve": phase_curve,
    "phase-diagram": phase_diagram,
    "f-vs-q": f_vs_q_curve,
    "brc-map": brc_map,
    "brc-sigma": brc_sigma_sweep,
}


def run_experiment(config, workers=1):
    return _RUNNERS[config.kind](config, workers=workers)
