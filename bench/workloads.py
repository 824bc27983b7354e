"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs one *round* of
public greedycert calls through a :class:`Recorder` (the same operations
every round, so the failed share of attempted operations never depends
on the seed or the run length), and checks one round's outputs against
:mod:`oracle` or against properties the method must have.  Later rounds
must reproduce the first round's outputs exactly.

``tiny`` shrinks every workload to a size the tests can afford.
"""

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle

# Verdicts are compared with the oracle only away from the decision
# line: two correct evaluations may fall on either side of it.
MARGIN = 1e-6


def nproc():
    return len(os.sched_getaffinity(0))


def pool_workers():
    return min(2, nproc())


class Recorder:
    """Times the public calls of one round and counts its operations.

    ``units`` is how many operations one call stands for (a phase-curve
    call runs many trials).  Completed calls are kept in order as
    ``(kind, units, seconds)``.  Only the exception types passed as
    ``expected`` count as failed operations; anything else propagates.
    """

    def __init__(self):
        self.calls = []
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0

    def call(self, kind, units, fn, *args, expected=(), **kwargs):
        self.attempted += units
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except expected:
            self.failed += units
            return None
        self.calls.append((kind, units, perf_counter() - start))
        return out


def _close(got, want, tol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
    )


# -- phase-curve ----------------------------------------------------------

class PhaseCurve:
    name = "phase-curve"
    rates = {"trials_per_s": ("trial",)}

    def inputs(self, api, seed, tiny=False):
        # one trial per call, so each timed call is short (about 40 ms)
        # and repeats often enough for its fastest time to be steady; the
        # trials are those a ``trials``-trial run would draw
        m, n, k, trials = (20, 60, 6, 2) if tiny else (200, 600, 40, 2)
        common = dict(kind="phase-curve", m=m, n=n, k=k, trials=1,
                      q_values=tuple(range(k)), algorithms=("omp", "ols"))
        configs = []
        for t in range(trials):
            configs.append(api.ExperimentConfig(dictionary="gaussian",
                                                base_seed=1000 * seed + t, **common))
            configs.append(api.ExperimentConfig(dictionary="hybrid", t_max=10.0,
                                                base_seed=1000 * seed + 500 + t, **common))
        return configs

    def round(self, api, configs, rec):
        return [rec.call("trial", cfg.trials, api.run_experiment, cfg, workers=1)
                for cfg in configs]

    def summary(self, results):
        return [r.to_csv() for r in results]

    def check(self, api, configs, results, info):
        problems = []
        undecided = 0
        for cfg, res in zip(configs, results):
            k, trials = cfg.k, cfg.trials
            for alg in cfg.algorithms:
                rates = res.column(f"rate_{alg}")
                if any(b < a for a, b in zip(rates, rates[1:])):
                    problems.append(f"{cfg.dictionary}: rate_{alg} decreases in q")
            if res.column("rate_ols")[-1] != 1.0:
                problems.append(f"{cfg.dictionary}: rate_ols at q=k-1 is not 1")
            count = {alg: np.zeros(k) for alg in cfg.algorithms}
            near = {alg: np.zeros(k) for alg in cfg.algorithms}
            for t in range(trials):
                d, qstar, order = api.experiments.phase_trial_state(cfg, t)
                for alg in cfg.algorithms:
                    vals = oracle.chain_factors(d.matrix, qstar, order, alg)
                    count[alg] += vals < 1.0
                    near[alg] += np.abs(vals - 1.0) <= MARGIN
            for alg in cfg.algorithms:
                got = np.array(res.column(f"rate_{alg}")) * trials
                undecided += int(near[alg].sum())
                bad = np.abs(got - count[alg]) > near[alg] + 1e-9
                if bad.any():
                    q = int(np.flatnonzero(bad)[0])
                    problems.append(
                        f"{cfg.dictionary}: rate_{alg} at q={q} is {got[q] / trials}, "
                        f"oracle {count[alg][q] / trials}")
        info["undecided_verdicts"] = undecided
        return problems


# -- sweep-pool -----------------------------------------------------------

class SweepPool:
    name = "sweep-pool"
    rates = {"trials_per_s": ("trial",)}

    def inputs(self, api, seed, tiny=False):
        if tiny:
            brc = dict(m_grid=(6, 10), n_grid=(12, 20), trials=3)
            diag = dict(m=20, n_grid=(30,), k_grid=(2, 4), trials=2)
        else:
            brc = dict(m_grid=(10, 20, 40), n_grid=(20, 60, 120), trials=20)
            diag = dict(m=100, n_grid=(150, 300), k_grid=(5, 10, 20), trials=4)
        return [
            api.ExperimentConfig(kind="brc-map", dictionary="gaussian", k=2,
                                 base_seed=1000 * seed, **brc),
            api.ExperimentConfig(kind="phase-diagram", dictionary="gaussian",
                                 base_seed=1000 * seed + 500, **diag),
        ]

    @staticmethod
    def tasks(cfg):
        grid = cfg.m_grid if cfg.kind == "brc-map" else cfg.k_grid
        return len(cfg.n_grid) * len(grid) * cfg.trials

    def round(self, api, configs, rec):
        workers = pool_workers()
        return [rec.call("trial", self.tasks(cfg), api.run_experiment, cfg, workers=workers)
                for cfg in configs]

    def summary(self, results):
        return [r.to_csv() + r.to_json() for r in results]

    def serial_round(self, api, configs, rec):
        """The same experiments in this process, ``workers=1``."""
        return [rec.call("trial", self.tasks(cfg), api.run_experiment, cfg, workers=1)
                for cfg in configs]

    def check(self, api, configs, results, info):
        problems = []
        serial = self.serial_round(api, configs, Recorder())
        scratch = Path(__file__).resolve().parent.parent / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for cfg, res, ref in zip(configs, results, serial):
                for fmt in ("csv", "json"):
                    pooled = Path(tmp, f"pool.{fmt}")
                    single = Path(tmp, f"single.{fmt}")
                    res.save(pooled)
                    ref.save(single)
                    if pooled.read_bytes() != single.read_bytes():
                        problems.append(f"{cfg.kind}: {fmt} differs from the workers=1 run")

        brc, diag = configs
        undecided = 0
        rows = results[0].rows
        for ci, (m, n) in enumerate((m, n) for m in brc.m_grid for n in brc.n_grid):
            hits = near = 0
            for t in range(brc.trials):
                # brc-map draws cell ci, trial t from base_seed + ci * trials + t
                d = api.gaussian(m, n, brc.base_seed + ci * brc.trials + t)
                _, agg = oracle.leave_one_out(d.matrix, (0, 1))
                hits += agg >= 1.0
                near += abs(agg - 1.0) <= MARGIN
            undecided += near
            got = rows[ci][2] * brc.trials
            if rows[ci][:2] != (m, n) or abs(got - hits) > near + 1e-9:
                problems.append(f"brc-map cell (m={m}, n={n}): rate {rows[ci][2]}, "
                                f"oracle {hits / brc.trials}")
        for row in results[1].rows:
            ratio_omp, ratio_ols = row[2], row[3]
            if not (0.0 <= ratio_omp <= 1.0 and 0.0 <= ratio_ols < 1.0):
                problems.append(f"phase-diagram row {row[:2]}: ratio out of range")
        info["undecided_verdicts"] = undecided
        return problems


# -- single-support -------------------------------------------------------

@dataclass
class Case:
    label: str
    d: object
    qstar: tuple
    order: tuple
    probes: tuple
    recover: list = field(default_factory=list)  # on-support inputs
    greedy: list = field(default_factory=list)  # (support, y)


@dataclass
class SingleInputs:
    cases: list
    pulse: object
    pulse_supports: list
    pulse_inputs: list


def _random_support(rng, n, k):
    return tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))


def _on_support(rng, n, support):
    x = np.zeros(n)
    x[list(support)] = rng.choice((-1.0, 1.0), len(support)) * rng.uniform(0.5, 1.5, len(support))
    return x


class SingleSupport:
    name = "single-support"
    rates = {"reports_per_s": ("report",), "greedy_runs_per_s": ("greedy",)}

    def inputs(self, api, seed, tiny=False):
        m, n, k, kg, runs = (20, 40, 3, 4, 1) if tiny else (200, 600, 4, 20, 1)
        rng = np.random.default_rng((seed, 2))
        dicts = [("gaussian", api.gaussian(m, n, 1000 * seed)),
                 ("hybrid", api.hybrid(m, n, 10.0, 1000 * seed + 1))]
        cases = []
        for label, d in dicts:
            qstar = _random_support(rng, n, k)
            order = tuple(int(i) for i in rng.permutation(qstar))
            wrong = [j for j in range(n) if j not in qstar]
            probes = (int(rng.choice(wrong)),)
            case = Case(label, d, qstar, order, probes)
            for _ in range(2):
                case.recover.append(d.matrix @ _on_support(rng, n, qstar))
            for _ in range(runs):
                sup = _random_support(rng, n, kg)
                case.greedy.append((sup, d.matrix @ _on_support(rng, n, sup)))
            cases.append(case)
        width = 40 if tiny else 200
        sigma = float(rng.uniform(1.0, 3.0))
        pulse = api.convolutive(width, sigma)
        supports = []
        for delta in (1, 2, 3):
            start = int(rng.integers(10, width - 10 - delta))
            supports.append((start, start + delta))
        pulse_inputs = [pulse.matrix @ _on_support(rng, width, s) for s in supports]
        return SingleInputs(cases, pulse, supports, pulse_inputs)

    def round(self, api, inp, rec):
        out = {"cases": [], "pulse": []}
        for case in inp.cases:
            d, qstar, order = case.d, case.qstar, case.order
            got = {"subset": [], "failure": [], "card": [], "chain": [], "greedy": []}
            for p in range(len(qstar)):
                for alg in ("omp", "ols"):
                    rep = rec.call("report", 1, api.erc_oxx_subset, d, qstar, order[:p], alg)
                    got["subset"].append((order[:p], alg, rep))
                    # OMP cannot always be steered through a prescribed
                    # selection, so its failure inputs start from q = ()
                    if not rep.verdict and (alg == "ols" or p == 0):
                        y = rec.call("construct", 1, api.build_failure_input,
                                     d, qstar, order[:p], alg)
                        got["failure"].append((order[:p], alg, y))
            for card in (0, 1):
                for alg in ("omp", "ols"):
                    rep = rec.call("report", 1, api.erc_oxx_cardinality, d, qstar, card, alg)
                    got["card"].append((card, alg, rep))
            got["brc"] = rec.call("report", 1, api.brc_omp, d, qstar)
            for j in case.probes:
                for alg in ("omp", "ols"):
                    vals = rec.call("report", 1, api.recursion_chain, d, qstar, j, order[:-1], alg)
                    got["chain"].append((j, alg, vals))
            for sup, y in case.greedy:
                for alg in ("omp", "ols"):
                    trace = rec.call("greedy", 1, api.run_greedy, alg, d, y, len(sup), oracle=sup)
                    got["greedy"].append((sup, y, alg, trace))
            out["cases"].append(got)
        for support in inp.pulse_supports:
            out["pulse"].append(rec.call("report", 1, api.brc_omp, inp.pulse, support))
        return out

    def summary(self, out):
        parts = []
        for got in out["cases"]:
            parts += [rep.to_json() for *_, rep in got["subset"] + got["card"]]
            parts += [None if y is None else y.tobytes() for *_, y in got["failure"]]
            parts.append(got["brc"].to_json())
            parts += [vals for *_, vals in got["chain"]]
            parts += [trace.to_json() for *_, trace in got["greedy"]]
        parts += [rep.to_json() for rep in out["pulse"]]
        return parts

    def check(self, api, inp, out, info):
        problems = []
        undecided = 0
        for case, got in zip(inp.cases, out["cases"]):
            a, qstar, tag = case.d.matrix, case.qstar, case.label
            wrong = oracle.wrong_atoms(a.shape[1], qstar)
            for q, alg, rep in got["subset"]:
                want = oracle.factors(a, qstar, q, alg)
                if [j for j, _ in rep.per_atom] != wrong or not _close(
                        [v for _, v in rep.per_atom], want, 1e-8):
                    problems.append(f"{tag}: erc_oxx_subset {alg} q={q} factors differ")
                agg = float(want.max())
                if abs(agg - 1.0) > MARGIN and rep.verdict != (agg < 1.0):
                    problems.append(f"{tag}: erc_oxx_subset {alg} q={q} verdict flipped")
            for q, alg, y in got["failure"]:
                if y is None:
                    problems.append(f"{tag}: no failure input for failing {alg} q={q}")
                    continue
                sel, near = oracle.greedy(alg, a, y, len(q) + 1)
                if any(near):
                    undecided += 1
                elif tuple(sel[: len(q)]) != tuple(q) or oracle.first_wrong_step(sel, qstar) != len(q):
                    problems.append(f"{tag}: {alg} failure input for q={q} does not fail at step {len(q)}")
            for card, alg, rep in got["card"]:
                if alg == "omp":
                    per_atom, agg = oracle.omp_cardinality(a, qstar, card)
                else:
                    per_atom, agg = oracle.ols_cardinality(a, qstar, card)
                if not _close(rep.aggregate, agg, 1e-9) or not _close(
                        [v for _, v in rep.per_atom], per_atom, 1e-9):
                    problems.append(f"{tag}: erc_oxx_cardinality {alg} card={card} "
                                    f"aggregate {rep.aggregate}, closed form {agg}")
                if abs(agg - 1.0) > MARGIN and rep.verdict != (agg < 1.0):
                    problems.append(f"{tag}: erc_oxx_cardinality {alg} card={card} verdict flipped")
                if card == 0 and rep.verdict:
                    undecided += self._check_recovered(a, qstar, case.recover, alg, tag, problems)
            rowmax, agg = oracle.leave_one_out(a, qstar)
            brc = got["brc"]
            if not _close([v for _, v in brc.per_atom], rowmax, 1e-9):
                problems.append(f"{tag}: brc_omp leave-one-out values differ")
            if abs(agg - 1.0) > MARGIN and brc.verdict != (agg >= 1.0):
                problems.append(f"{tag}: brc_omp verdict flipped")
            for j, alg, vals in got["chain"]:
                want = [oracle.factors(a, qstar, case.order[:p], alg, js=[j])[0]
                        for p in range(len(qstar))]
                if not _close(vals, want, 1e-8):
                    problems.append(f"{tag}: recursion_chain {alg} j={j} differs")
            for sup, y, alg, trace in got["greedy"]:
                undecided += self._check_greedy(a, sup, y, alg, trace, tag, problems)
        pulse = inp.pulse.matrix
        for support, y, rep in zip(inp.pulse_supports, inp.pulse_inputs, out["pulse"]):
            _, agg = oracle.leave_one_out(pulse, support)
            if not _close(rep.aggregate, agg, 1e-9):
                problems.append(f"pulse {support}: brc_omp aggregate {rep.aggregate}, oracle {agg}")
            if abs(agg - 1.0) > MARGIN and rep.verdict != (agg >= 1.0):
                problems.append(f"pulse {support}: brc_omp verdict flipped")
            if rep.verdict:
                sel, near = oracle.greedy("omp", pulse, y, len(support))
                if any(near):
                    undecided += 1
                elif set(sel) == set(support):
                    problems.append(f"pulse {support}: certified unreachable support was recovered")
        info["undecided_verdicts"] = undecided
        return problems

    @staticmethod
    def _check_recovered(a, qstar, inputs, alg, tag, problems):
        """Inputs on a support certified at card 0 are recovered."""
        undecided = 0
        for y in inputs:
            sel, near = oracle.greedy(alg, a, y, len(qstar))
            if any(near):
                undecided += 1
            elif sorted(sel) != list(qstar):
                problems.append(f"{tag}: certified support not recovered by reference {alg}")
        return undecided

    @staticmethod
    def _check_greedy(a, sup, y, alg, trace, tag, problems):
        """Selections agree with the reference up to the first flagged tie."""
        sel, near = oracle.greedy(alg, a, y, len(sup))
        got = trace.selections()
        for p, (mine, ref) in enumerate(zip(got, sel)):
            if trace.records[p].tie or near[p]:
                return 1
            if mine != ref:
                problems.append(f"{tag}: {alg} selection {p} is {mine}, reference {ref}")
                return 0
        if trace.status == "success" and sorted(sel) != sorted(sup):
            problems.append(f"{tag}: {alg} run reports success, reference selects {sel}")
        return 0


# -- l1-search ------------------------------------------------------------

@dataclass
class L1Case:
    d: object
    support: tuple


class L1Search:
    name = "l1-search"
    rates = {"checks_per_s": ("check",)}
    # null-space dimension 4 is beyond the exact search; kept so the
    # fault stays visible as a failed operation every round
    FAILING = ((6, 10), (0, 1, 2))

    def inputs(self, api, seed, tiny=False):
        # (m, n, support size): the large shapes carry the search cost,
        # the short ones make l1 fail on some sign patterns
        if tiny:
            shapes = ((3, 4, 2), (4, 6, 2), (4, 6, 3))
        else:
            # calls of at most about 40 ms, so each one repeats often
            shapes = ((7, 8, 2), (3, 4, 3),  # null dim 1
                      (8, 10, 3), (4, 6, 3),  # null dim 2
                      (5, 8, 3), (6, 9, 2), (6, 9, 3))  # null dim 3
        rng = np.random.default_rng((seed, 3))
        cases = []
        for ci, (m, n, k) in enumerate(shapes):
            d = api.gaussian(m, n, 1000 * seed + ci)
            cases.append(L1Case(d, _random_support(rng, n, k)))
        (m, n), support = self.FAILING
        cases.append(L1Case(api.gaussian(m, n, 0), support))
        return cases

    def round(self, api, cases, rec):
        def pair(d, support):
            return api.nsp_check(d, support), api.brc_bp_check(d, support)

        return [rec.call("check", 1, pair, c.d, c.support, expected=(api.exceptions.DimensionTooLargeError,))
                for c in cases]

    def summary(self, out):
        return [None if r is None else (r[0].to_json(), r[1].to_json()) for r in out]

    def check(self, api, cases, out, info):
        problems = []
        indeterminate = boundary = 0
        rng = np.random.default_rng(7)
        for case, got in zip(cases, out):
            if got is None:
                continue
            nsp, brc = got
            a, support = case.d.matrix, case.support
            tag = f"{a.shape[0]}x{a.shape[1]} support {support}"
            sups = [sup for _, sup, _, _ in brc.patterns]
            if nsp.supremum is not None and not _close(nsp.supremum, max(sups), 1e-9):
                problems.append(f"{tag}: nsp supremum {nsp.supremum} is not the largest pattern value")
            if nsp.verdict and any(f is not False for _, _, f, _ in brc.patterns):
                problems.append(f"{tag}: nsp holds but a sign pattern is not excluded")
            for eps, sup, feasible, _ in brc.patterns:
                if feasible is None:
                    indeterminate += 1
                    continue
                value = oracle.pattern_value(a, support, eps)
                if abs(value - 1.0) <= 1e-3:
                    boundary += 1
                    continue
                if feasible != (value > 1.0):
                    problems.append(f"{tag}: pattern {eps} feasible={feasible}, LP value {value:.6g}")
                    continue
                for _ in range(2):
                    x = np.zeros(a.shape[1])
                    x[list(support)] = np.array(eps) * rng.uniform(0.5, 1.5, len(support))
                    sol = oracle.l1_solution(a, a @ x)
                    recovered = np.abs(sol - x).max() <= 1e-6 * np.abs(x).max()
                    if recovered == feasible:
                        problems.append(f"{tag}: pattern {eps} feasible={feasible} but "
                                        f"l1 {'recovers' if recovered else 'misses'} an input")
        info["indeterminate_patterns"] = indeterminate
        info["boundary_patterns"] = boundary
        return problems


WORKLOADS = {w.name: w for w in (PhaseCurve(), SweepPool(), SingleSupport(), L1Search())}
