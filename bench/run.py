"""Benchmark for greedycert: one workload per call, or all of them.

    python3 bench/run.py --workload phase-curve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout that holds this
file and receives only the configs and inputs built from ``--seed``.
Each run repeats whole rounds of the same public calls for ``--seconds``
seconds, checks the first round against independent oracles and every
later round against the first, and prints a manifest, a readable report
and, as its last line, one JSON object::

    {"correct": true, "attempted": 160, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the rounds alternate untraced and traced and the metrics
are the per-layer figures from the spans, which are also written to
``.bench_build/trace/``.  See ``bench/README.md``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# bench modules import numpy, so they load only after the timed import
sys.path.insert(0, str(HERE))
NAMES = ("phase-curve", "sweep-pool", "single-support", "l1-search")
SETUP_PROBES = 5
# Every workload pins OpenBLAS to one thread.  Under the library default
# of one thread per core, a tenant busy on another core stalls every
# BLAS call: ten-seed runs of phase-curve spread by 35%, and on
# sweep-pool, where each pool worker would run its own BLAS threads,
# the fastest of seven repetitions of the same-size call ranged from 95
# to 208 ms over six seeds whose rounds were interleaved in one process.
# bench/scaling.py reports the default.
SERIAL_PASS = -1  # request id of the traced serial pass of pool workloads
SERIAL_REPEATS = 5  # untraced serial passes; the fastest of each call counts
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "call_p50_ms": "ms", "peak_rss_mb": "MB"}


def load_package():
    """Import greedycert from this checkout's sources, nowhere else."""
    src = ROOT / "src"
    if not (src / "greedycert" / "__init__.py").is_file():
        raise SystemExit(f"bench: greedycert sources not found under {src}")
    sys.path.insert(0, str(src))
    import greedycert

    if Path(greedycert.__file__).resolve().parent != src / "greedycert":
        raise SystemExit(f"bench: imported greedycert from {greedycert.__file__}")
    return greedycert


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def manifest(args, workloads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": workloads.nproc(),
        "workers": workloads.pool_workers(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def setup_probe(args):
    """Seconds to import the package and build the inputs, in this process."""
    start = perf_counter()
    api = load_package()
    imported = perf_counter() - start
    import workloads  # the benchmark's own import is not set-up

    start = perf_counter()
    workloads.WORKLOADS[args.workload].inputs(api, args.seed, args.tiny)
    return imported + perf_counter() - start


class SetupProbes:
    """:func:`setup_probe` in fresh processes, spread over the run.

    Set-up is mostly module import, whose time drifts with the page
    cache and other tenants over seconds; probes made one after another
    at the start all see the same moment, so they are made between
    rounds, one every ``seconds / SETUP_PROBES``, and their median is
    reported.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
        self.count = 1 if args.tiny else SETUP_PROBES
        self.every = args.seconds / self.count
        self.times = []

    def probe(self):
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def between_rounds(self, elapsed):
        if len(self.times) < self.count and elapsed >= len(self.times) * self.every:
            self.probe()

    def median(self):
        while len(self.times) < self.count:
            self.probe()
        return statistics.median(self.times)


def run_rounds(workload, api, inputs, seconds, recorder, tracer=None, between=None):
    """One warm-up round, then whole rounds until ``seconds`` have passed.

    With a tracer, untraced and traced rounds alternate.  ``between``,
    if given, is called after each round with the seconds elapsed.
    Returns the warm-up round's outputs, which the checks examine, the
    recorders of every round and how many rounds did not reproduce
    those outputs.
    """
    warm = recorder()
    first = workload.round(api, inputs, warm)
    reference = workload.summary(first)
    plain, traced, mismatches = [], [], 0
    begin = perf_counter()
    while True:
        for use_tracer in ((False, True) if tracer else (False,)):
            rec = recorder()
            start = perf_counter()
            if use_tracer:
                with tracer:
                    out = workload.round(api, inputs, rec)
                tracer.request += 1
            else:
                out = workload.round(api, inputs, rec)
            rec.wall = perf_counter() - start
            (traced if use_tracer else plain).append(rec)
            mismatches += workload.summary(out) != reference
        if between:
            between(perf_counter() - begin)
        if perf_counter() - begin >= seconds:
            return first, [warm], plain, traced, mismatches


def best_calls(recs):
    """``(kind, units, seconds)`` per call of a round, with each call's
    fastest time over the rounds.

    Every round makes the same calls in the same order.  On a machine
    shared with other tenants, round times swing by up to 1.8x for
    seconds at a time; the fastest repetition of each call is the
    figure that repeats from run to run.
    """
    per_call = zip(*(r.calls for r in recs))
    return [(reps[0][0], reps[0][1], min(t for _, _, t in reps)) for reps in per_call]


def rate(calls, kinds):
    """Operations of ``kinds`` per second of their calls' best times."""
    picked = [(u, t) for kind, u, t in calls if kind in kinds]
    return sum(u for u, _ in picked) / sum(t for _, t in picked)


def run_workload(args):
    api = load_package()
    import workloads
    from spans import PER_LAYER_UNITS, Tracer

    workload = workloads.WORKLOADS[args.workload]
    print("manifest " + json.dumps(manifest(args, workloads)), flush=True)
    inputs = workload.inputs(api, args.seed, args.tiny)

    tracer = Tracer(api) if args.trace else None
    probes = None if args.trace else SetupProbes(args)
    first, warm, plain, traced, mismatches = run_rounds(
        workload, api, inputs, args.seconds, workloads.Recorder, tracer,
        probes and probes.between_rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {}
    problems = workload.check(api, inputs, first, info)
    if mismatches:
        problems.append(f"{mismatches} rounds differ from the first round")

    recs = warm + plain + traced
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    completed = plain[0].attempted - plain[0].failed
    print(f"workload {args.workload} seed {args.seed}: {len(recs)} rounds, "
          f"{completed} operations completed per round")
    if args.trace:
        metrics = traced_metrics(args, workload, api, inputs, tracer, plain, traced,
                                 workloads.pool_workers())
    else:
        calls = best_calls(plain)
        metrics = {
            "setup_s": probes.median(),
            "ops_per_s": rate(calls, {kind for kind, _, _ in calls}),
            "call_p50_ms": 1000.0 * statistics.median(t for _, _, t in calls),
            "peak_rss_mb": peak_rss_mb,
        }
        for name, kinds in workload.rates.items():
            print(f"  {name:<22} {rate(calls, kinds):.6g} 1/s")
        print("  setup probes " + " ".join(f"{t:.4f}" for t in probes.times) + " s")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<22} {value:.6g} {units[name]}")
    print(f"  attempted {attempted} failed {failed}")
    for key, value in info.items():
        print(f"  {key} {value:.6g}" if isinstance(value, float) else f"  {key} {value}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def traced_metrics(args, workload, api, inputs, tracer, plain, traced, workers):
    from spans import layer_metrics
    from workloads import Recorder

    metrics = layer_metrics(tracer, range(len(traced)))
    # run_experiment's wall time comes from the untraced rounds: spans
    # would also slow the pool workers, which fork with the wrappers in
    experiment = [t for kind, _, t in best_calls(plain) if kind == "trial"]
    if experiment:
        metrics["experiments.run_experiment.wall_s"] = sum(experiment)
    serial = 0.0
    if hasattr(workload, "serial_round"):
        # pool tasks run in worker processes, whose spans are not
        # collected: their layers are traced on one serial pass instead
        tracer.request = SERIAL_PASS
        with tracer:
            workload.serial_round(api, inputs, Recorder())
        metrics.update((k, v) for k, v in layer_metrics(tracer, [SERIAL_PASS]).items()
                       if not k.startswith("experiments."))
        untraced = []
        for _ in range(SERIAL_REPEATS):
            untraced.append(Recorder())
            workload.serial_round(api, inputs, untraced[-1])
        serial = sum(t for _, _, t in best_calls(untraced))
    pool_wall = metrics["experiments.run_experiment.wall_s"]
    metrics["experiments.pool.serial_task_s"] = serial
    metrics["experiments.pool.efficiency"] = (
        serial / (workers * pool_wall) if serial and pool_wall else 0.0)
    metrics["trace.overhead_s"] = (sum(t for _, _, t in best_calls(traced))
                                   - sum(t for _, _, t in best_calls(plain)))
    path = tracer.write(ROOT / ".bench_build" / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
    print(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return metrics


def run_all(args):
    """Each workload in its own process, so peak memory stays its own."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "workloads": results,
    }))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the benchmark's own tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
    if args.setup_probe:
        print(f"{setup_probe(args):.9f}")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
