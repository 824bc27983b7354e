"""Reference scaling sweep; not gated, figures go in bench/README.md.

    python3 bench/scaling.py

Prints markdown tables of per-layer self time (best of ``REPEATS``)
for one phase-curve trial against n and against k, and for one
nsp_check + brc_bp_check pair against the null-space dimension, then
the pool and BLAS-thread comparison of the acceptance-size phase curve
(each configuration in a fresh process, so the thread setting holds).
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

PHASE_LAYERS = ("dictionaries.self_s", "linalg.least_squares.self_s", "linalg.mgs_qr.self_s",
                "linalg.extend_state.self_s")
BP_LAYERS = ("basis_pursuit.null_space_basis.self_s", "basis_pursuit.nsp_check.self_s",
             "basis_pursuit.brc_bp_check.self_s")
REPEATS = 7


def best_traced(api, fn):
    """Wall time and per-layer figures of the fastest of ``REPEATS`` calls."""
    from spans import Tracer, layer_metrics

    best = None
    for _ in range(REPEATS):
        tracer = Tracer(api)
        start = perf_counter()
        with tracer:
            fn()
        wall = perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, layer_metrics(tracer, [0]))
    return best


def table(title, key, rows, layers, extra=()):
    head = [key, "wall_ms"] + [name.rsplit(".", 1)[0] for name in layers] + list(extra)
    print(f"\n{title}\n")
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for value, (wall, metrics) in rows:
        cells = [str(value), f"{1000 * wall:.1f}"]
        cells += [f"{1000 * metrics[name]:.1f}" for name in layers]
        cells += [f"{metrics[name]:.0f}" for name in extra]
        print("| " + " | ".join(cells) + " |")


def phase_sweep(api):
    def trial(m, n, k):
        cfg = api.ExperimentConfig(kind="phase-curve", m=m, n=n, k=k, trials=1, base_seed=0)
        return lambda: api.run_experiment(cfg, workers=1)

    rows = [(n, best_traced(api, trial(200, n, 40))) for n in (150, 300, 600, 1200)]
    table("One phase-curve trial against n (m=200, k=40, both rules), ms", "n", rows,
          PHASE_LAYERS, ("linalg.extend_state.calls",))
    rows = [(k, best_traced(api, trial(200, 600, k))) for k in (10, 20, 40, 80)]
    table("One phase-curve trial against k (m=200, n=600, both rules), ms", "k", rows,
          PHASE_LAYERS, ("linalg.extend_state.calls",))


def bp_sweep(api):
    rows = []
    for dim in (1, 2, 3):
        d = api.gaussian(12 - dim, 12, dim)
        support = (0, 1, 2)
        rows.append((dim, best_traced(
            api, lambda: (api.nsp_check(d, support), api.brc_bp_check(d, support)))))
    table("One nsp_check + brc_bp_check against null-space dimension (n=12, |Q*|=3), ms",
          "null dim", rows, BP_LAYERS, ("basis_pursuit.sign_patterns",))


POOL_RUN = """
import sys, time
sys.path.insert(0, {src!r})
import greedycert as api
cfg = api.ExperimentConfig(kind="phase-curve", m=200, n=600, k=40, trials=20, base_seed=0)
times = []
for _ in range({repeats}):
    start = time.perf_counter()
    api.run_experiment(cfg, workers={workers})
    times.append(time.perf_counter() - start)
print(min(times))
"""


def pool_sweep():
    print(f"\nphase-curve m=200 n=600 k=40, 20 trials, best of {REPEATS}, s\n")
    print("| BLAS threads | workers=1 | workers=2 |")
    print("|---|---|---|")
    for threads in (None, "1"):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        cells = []
        for workers in (1, 2):
            code = POOL_RUN.format(src=str(ROOT / "src"), workers=workers, repeats=REPEATS)
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=600, check=True)
            cells.append(f"{float(done.stdout):.2f}")
        print(f"| {threads or 'default'} | " + " | ".join(cells) + " |")


def checked_mode(api):
    print(f"\nChecked-mode and small l1 calls, best of {REPEATS}, ms\n")
    d = api.gaussian(200, 600, 0)
    support = tuple(range(0, 600, 15))  # k = 40
    cases = {
        "brc_omp k=40 checked": lambda: api.brc_omp(d, support),
        "brc_omp k=40 fast": lambda: api.brc_omp(d, support, fast=True),
    }
    for m, n in ((3, 5), (9, 12)):
        small = api.gaussian(m, n, 0)
        cases[f"nsp_check + brc_bp_check {m}x{n}"] = (
            lambda s=small: (api.nsp_check(s, (0, 1)), api.brc_bp_check(s, (0, 1))))
    print("| call | ms |")
    print("|---|---|")
    for name, fn in cases.items():
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            fn()
            times.append(perf_counter() - start)
        print(f"| {name} | {1000 * min(times):.1f} |")


def main():
    import greedycert as api

    from run import blas_threads

    print(json.dumps({"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads()}))
    phase_sweep(api)
    bp_sweep(api)
    checked_mode(api)
    pool_sweep()


if __name__ == "__main__":
    main()
