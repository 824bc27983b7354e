"""Command line front end.

One subcommand per certificate or experiment.  Exit codes: 0 success,
2 configuration error (diagnostic on stderr), 3 I/O error.  Every
output file opens with a config echo: JSON files carry it as the first
``config`` key, CSV files as a leading ``# `` comment line, and feeding
an echoed config back through ``--config`` reproduces the file byte for
byte.
"""

import argparse
import dataclasses
import json
import os
import sys
from functools import partial

import numpy as np

from .basis_pursuit import _l1_reports
from .certificates import _ALGORITHMS, brc_omp, erc_oxx_cardinality, erc_oxx_subset
from .dictionaries import _build
from .exceptions import GreedycertError
from .experiments import (
    KINDS,
    ExperimentConfig,
    _require,
    default_filename,
    load_config,
    run_experiment,
)
from .greedy import build_failure_input, construct_reaching_input, run_greedy
from .linalg import compute_spark

# seed used whenever --seed is omitted
DEFAULT_SEED = 0

_DICT_KINDS = ("gaussian", "hybrid", "convolutive", "example1")


def _parse_ints(text):
    text = text.strip()
    return tuple(int(v) for v in text.split(",")) if text else ()


def _parse_floats(text):
    text = text.strip()
    return tuple(float(v) for v in text.split(",")) if text else ()


def _parse_algs(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _dict_parent():
    """The flags of the single-shot subcommands: dictionary, seed and output."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed of the random draws (default: {DEFAULT_SEED})")
    p.add_argument("--output", help="write JSON here instead of stdout")
    g = p.add_argument_group("dictionary")
    g.add_argument("--dict", dest="dictionary", default="gaussian",
                   choices=_DICT_KINDS, help="dictionary family (default: gaussian)")
    g.add_argument("--m", type=int, default=0,
                   help="row count for gaussian/hybrid (default: 0)")
    g.add_argument("--n", type=int, default=0, help="atom count (default: 0)")
    g.add_argument("--t-max", type=float, default=10.0,
                   help="hybrid amplitude bound, hybrid only (default: 10)")
    g.add_argument("--sigma", type=float, default=1.0,
                   help="pulse width in samples, convolutive only (default: 1)")
    g.add_argument("--downsample", type=int, default=1,
                   help="decimation factor, convolutive only (default: 1)")
    g.add_argument("--theta1", type=float, default=np.pi / 6,
                   help="first pair angle in radians, example1 only (default: pi/6)")
    g.add_argument("--theta2", type=float, default=np.pi / 4,
                   help="second pair angle in radians, example1 only (default: pi/4)")
    return p


def _echo(subcommand, d, **extra):
    out = {"subcommand": subcommand, "dict": d.kind, "params": dict(d.params),
           "seed": d.seed}
    out.update(extra)
    return out


def _emit(obj, output):
    text = json.dumps(obj, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cert(args):
    d = _build(args, args.m, args.n, args.seed)
    _require(args.qstar, "--qstar must name at least one atom")
    if args.brc:
        _require(args.alg == "omp", "the unreachable-support certificate has no ols variant")
        report = brc_omp(d, args.qstar)
        mode = {"mode": "brc"}
    elif args.card is not None:
        report = erc_oxx_cardinality(d, args.qstar, args.card, args.alg)
        mode = {"mode": "cardinality", "card": args.card}
    else:
        q = args.q or ()
        report = erc_oxx_subset(d, args.qstar, q, args.alg)
        mode = {"mode": "subset", "q": list(q)}
    echo = _echo("cert", d, qstar=list(args.qstar), alg=args.alg, **mode)
    return _emit({"config": echo, "report": report.to_json()}, args.output)


def _cmd_greedy(args):
    _require(args.k >= 1, "--k must be at least 1")
    d = _build(args, args.m, args.n, args.seed)
    n = d.matrix.shape[1]
    _require(args.k <= n, "--k cannot exceed the atom count")
    # support and amplitudes come from a salted stream so they are
    # independent of the matrix draws under the same seed
    rng = np.random.default_rng((args.seed, 1))
    support = tuple(sorted(int(i) for i in rng.choice(n, size=args.k, replace=False)))
    amplitudes = rng.choice([-1.0, 1.0], args.k) * rng.uniform(0.5, 1.5, args.k)
    y = d.matrix[:, support] @ amplitudes
    iters = args.max_iters if args.max_iters is not None else args.k
    trace = run_greedy(args.alg, d, y, iters, oracle=support)
    echo = _echo("greedy", d, alg=args.alg, k=args.k, max_iters=iters, seed=args.seed)
    out = {"config": echo, "support": list(support),
           "amplitudes": [float(v) for v in amplitudes]}
    out.update(trace.to_json())
    return _emit(out, args.output)


def _cmd_construct(args):
    d = _build(args, args.m, args.n, args.seed)
    if args.goal == "reach":
        _require(args.order, "--order is required for --goal reach")
        alg = args.alg or "ols"
        # returned only once a rerun selected exactly `order`, with no tie
        y = construct_reaching_input(d, args.order, alg)
        echo = _echo("construct", d, goal="reach", order=list(args.order), alg=alg)
        out = {"config": echo, "input": [float(v) for v in y], "selections": list(args.order)}
        return _emit(out, args.output)
    _require(args.qstar, "--qstar is required for --goal failure")
    qstar, q = args.qstar, args.q
    alg = args.alg or "omp"
    echo = _echo("construct", d, goal="failure", qstar=list(qstar), q=list(q), alg=alg)
    y = build_failure_input(d, qstar, q, alg)
    if y is None:
        # the exactness certificate holds at q: no such input exists
        return _emit({"config": echo, "applicable": False, "input": None}, args.output)
    trace = run_greedy(alg, d, y, len(q) + 1, oracle=qstar)
    out = {"config": echo, "applicable": True, "input": [float(v) for v in y],
           "status": trace.status, "failure_iteration": trace.failure_iteration,
           "wrong_index": trace.wrong_index}
    return _emit(out, args.output)


def _cmd_bp_check(args):
    d = _build(args, args.m, args.n, args.seed)
    _require(args.qstar, "--qstar must name at least one atom")
    nsp, brc = _l1_reports(d, args.qstar)
    echo = _echo("bp-check", d, qstar=list(args.qstar))
    return _emit({"config": echo, "nsp": nsp.to_json(), "brc_bp": brc.to_json()},
                 args.output)


def _cmd_spark(args):
    d = _build(args, args.m, args.n, args.seed)
    bound = args.max_size if args.max_size is not None else d.matrix.shape[1]
    value = compute_spark(d, bound)
    echo = _echo("spark", d, max_size=bound)
    return _emit({"config": echo, "spark": value}, args.output)


_EXP_DEFAULTS = {
    "scatter": {"trials": 100, "placement": "contiguous"},
    "phase-curve": {"trials": 100},
    "phase-diagram": {"trials": 50},
    "f-vs-q": {"dictionary": "convolutive", "placement": "contiguous"},
    "brc-map": {"trials": 100, "k": 2},
    "brc-sigma": {"dictionary": "convolutive", "k": 2},
}


def _experiment_parent():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config",
                   help="result file whose echoed config to re-run; "
                        "excludes every other experiment setting")
    # each experiment flag stores into the ExperimentConfig field of its
    # dest, and only when given, so the given settings are the config
    # fields among the parsed attributes
    g = p.add_argument_group("experiment", argument_default=argparse.SUPPRESS)
    g.add_argument("--dict", dest="dictionary",
                   choices=("gaussian", "hybrid", "convolutive"),
                   help="dictionary family (default: per subcommand)")
    g.add_argument("--m", type=int, help="row count for gaussian/hybrid")
    g.add_argument("--n", type=int, help="atom count")
    g.add_argument("--t-max", type=float, help="hybrid amplitude bound (default: 10)")
    g.add_argument("--sigma", type=float, help="pulse width in samples (default: 1)")
    g.add_argument("--downsample", type=int, help="decimation factor (default: 1)")
    g.add_argument("--k", type=int, help="support size")
    g.add_argument("--trials", type=int, help="trial count (default: per subcommand)")
    g.add_argument("--seed", dest="base_seed", type=int,
                   help=f"base seed; trial t uses base + t (default: {DEFAULT_SEED})")
    g.add_argument("--placement", choices=("random", "contiguous", "spaced"),
                   help="support placement (default: per subcommand)")
    g.add_argument("--algorithms", type=_parse_algs,
                   help="comma list among omp,ols (default: omp,ols)")
    g.add_argument("--q-values", type=_parse_ints,
                   help="comma list of partial-support sizes (default: 0..k-1)")
    g.add_argument("--n-grid", type=_parse_ints, help="comma list of atom counts (grids)")
    g.add_argument("--k-grid", type=_parse_ints, help="comma list of support sizes (grids)")
    g.add_argument("--m-grid", type=_parse_ints, help="comma list of row counts (grids)")
    g.add_argument("--sigmas", type=_parse_floats, help="comma list of pulse widths")
    g.add_argument("--deltas", type=_parse_ints,
                   help="comma list of support spacings (default: 1)")
    o = p.add_argument_group("execution")
    o.add_argument("--workers", type=int, default=1,
                   help="most worker processes to use; a pool starts only when the "
                        "job is long enough to pay for it, and output is identical "
                        "for any count (default: 1)")
    o.add_argument("--outdir", default=".",
                   help="directory for default-named outputs (default: .)")
    o.add_argument("--output", action="append",
                   help="explicit output path ending .csv or .json; repeatable "
                        "(default: <kind>-seed<seed>.csv and .json in --outdir)")
    return p


def _resolve_experiment_config(kind, args):
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    provided = {name: value for name, value in vars(args).items() if name in fields}
    if args.config is not None:
        _require(not provided, "--config cannot be combined with other experiment settings")
        cfg = load_config(args.config)
        _require(cfg.kind == kind, f"config file describes {cfg.kind!r}, not {kind!r}")
        return cfg
    data = {"kind": kind, "base_seed": DEFAULT_SEED}
    data.update(_EXP_DEFAULTS.get(kind, {}))
    data.update(provided)
    return ExperimentConfig.from_dict(data)


def _cmd_experiment(kind, args):
    _require(args.workers >= 1, "--workers must be at least 1")
    config = _resolve_experiment_config(kind, args)
    result = run_experiment(config, workers=args.workers)
    if not args.output:
        os.makedirs(args.outdir, exist_ok=True)
    paths = args.output or [os.path.join(args.outdir, default_filename(config, fmt))
                            for fmt in ("csv", "json")]
    for path in paths:
        result.save(path)
        print(path)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="greedycert",
        description="Greedy sparse recovery certificates and experiments.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    dict_parent = _dict_parent()
    exp_parent = _experiment_parent()

    p = sub.add_parser("cert", parents=[dict_parent],
                       help="recovery certificates for one support")
    p.add_argument("--qstar", type=_parse_ints, required=True,
                   help="comma list of support atoms")
    mode = p.add_mutually_exclusive_group()
    # no default: an empty --q "" must still clash with --card and --brc
    mode.add_argument("--q", type=_parse_ints,
                      help="comma list of atoms already selected (default: empty)")
    mode.add_argument("--card", type=int,
                      help="evaluate every partial support of this size")
    mode.add_argument("--brc", action="store_true",
                      help="unreachable-support certificate instead")
    p.add_argument("--alg", choices=_ALGORITHMS, default="omp",
                   help="selection rule (default: omp)")
    p.set_defaults(func=_cmd_cert)

    p = sub.add_parser("greedy", parents=[dict_parent],
                       help="run a greedy selection on a random on-support input; "
                            "--seed also draws the support and the amplitudes, "
                            "uniform in +-[0.5, 1.5]")
    p.add_argument("--alg", choices=_ALGORITHMS, default="omp",
                   help="selection rule (default: omp)")
    p.add_argument("--k", type=int, required=True, help="support size")
    p.add_argument("--max-iters", type=int,
                   help="iteration budget (default: k)")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("construct", parents=[dict_parent],
                       help="build an input steering the algorithm to a goal")
    p.add_argument("--goal", choices=("failure", "reach"), default="failure",
                   help="failure: on-support input picking a wrong atom; "
                        "reach: input selecting --order exactly (default: failure)")
    p.add_argument("--qstar", type=_parse_ints, help="comma list, support for --goal failure")
    p.add_argument("--q", type=_parse_ints, default=(),
                   help="comma list steered through first (default: empty)")
    p.add_argument("--order", type=_parse_ints, help="comma list, selections for --goal reach")
    p.add_argument("--alg", choices=_ALGORITHMS,
                   help="selection rule (default: omp for failure, ols for reach)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bp-check", parents=[dict_parent],
                       help="null-space and sign-pattern failure certificates")
    p.add_argument("--qstar", type=_parse_ints, required=True,
                   help="comma list of support atoms")
    p.set_defaults(func=_cmd_bp_check)

    p = sub.add_parser("spark", parents=[dict_parent],
                       help="smallest dependent column count")
    p.add_argument("--max-size", type=int,
                   help="search bound (default: atom count); null means above it")
    p.set_defaults(func=_cmd_spark)

    helps = {
        "scatter": "per-trial certificate triples with a single wrong atom",
        "phase-curve": "certificate rate against partial-support size",
        "phase-diagram": "mean earliest-certified iteration over an (n, k) grid",
        "f-vs-q": "certificate value against q for a convolutive dictionary",
        "brc-map": "unreachable-support rate over an (m, n) grid",
        "brc-sigma": "unreachable-support sweep over pulse widths and spacings",
    }
    for kind in KINDS:
        p = sub.add_parser(kind, parents=[exp_parent], help=helps[kind])
        p.set_defaults(func=partial(_cmd_experiment, kind))
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already wrote the diagnostic
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, GreedycertError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
