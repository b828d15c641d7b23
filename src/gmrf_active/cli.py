"""Command-line interface.

Subcommands: ``gen`` (write synthetic graph files), ``build-graph``
(features CSV -> edge list), ``run`` (single-strategy experiment),
``compare`` (multi-strategy experiment), and ``check`` (numerical
validation suites). Exit codes: 0 success, 1 runtime error, 2 usage error.
Diagnostics go to stderr; result tables go to stdout and CSVs to files.

The environment variable ``GMRF_ACTIVE_OUTDIR`` sets the default output
directory when ``--out`` paths are omitted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import checks
from . import graph as graph_mod
from .bench import ExperimentConfig, emit_csv, emit_summary, run_experiment
from .strategies import KINDS, RETRAINING_KINDS, Strategy

OUTDIR_ENV = "GMRF_ACTIVE_OUTDIR"


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _confidence(text: str) -> str:
    try:
        Strategy("tv", confidence=text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _hybrid(text: str) -> float:
    if text == "none":
        return 0.0
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a hybrid scale or 'none'") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"hybrid scale must be finite and >= 0, got {value}")
    return value


def _strategy_list(text: str) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty strategy list")
    for name in names:
        if name not in KINDS:
            raise argparse.ArgumentTypeError(f"unknown strategy {name!r}; choose from {KINDS}")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError("duplicate strategies in list")
    return names


def _default_out(filename: str) -> str:
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), filename)


def _add_experiment_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--graph", required=True,
                    help="grid:RxC | community:S1,S2,..:pin=P:pout=Q | file:EDGES:LABELS")
    sp.add_argument("--T", required=True, type=_positive_int, help="query budget")
    sp.add_argument("--runs", type=_positive_int, default=50)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--delta", type=_positive_float, default=0.005)
    sp.add_argument("--confidence", type=_confidence, default="inv_sqrt",
                    help="inv_sqrt | const:<a> | none")
    sp.add_argument("--hybrid", type=_hybrid, default=0.0, metavar="SCALE",
                    help="uniform-exploration scale (pi_t = min(1, SCALE/sqrt(t))) or 'none'")
    sp.add_argument("--eval-on", choices=("remaining", "initial"), default="remaining")
    sp.add_argument("--out", default=None, help="output CSV path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmrf-active",
        description="Active node classification on graphs with Gaussian field models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic labeled graph and write it to files")
    gen.add_argument("--graph", required=True, help="grid:RxC | community:S1,S2,..:pin=P:pout=Q")
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out-edges", required=True)
    gen.add_argument("--out-labels", required=True)

    build = sub.add_parser("build-graph", help="build a similarity graph from a feature CSV")
    build.add_argument("--features", required=True, help="CSV, last column = integer class label")
    build.add_argument("--method", choices=("rbf", "pearson"), default="rbf")
    build.add_argument("--sigma", type=_positive_float, default=1.0)
    build.add_argument("--threshold", type=_finite_float, default=0.0)
    build.add_argument("--no-normalize", action="store_true",
                       help="skip scaling feature columns to [-1, 1]")
    build.add_argument("--out-edges", default=None)
    build.add_argument("--out-labels", default=None)

    run = sub.add_parser("run", help="run one strategy and write its accuracy curve")
    run.add_argument("--strategy", required=True, choices=KINDS)
    run.add_argument("--maxmin", action="store_true",
                     help="worst-case label aggregation (fl/kl only)")
    _add_experiment_args(run)

    cmp_ = sub.add_parser("compare", help="run several strategies under shared seeds")
    cmp_.add_argument("--strategies", required=True, type=_strategy_list,
                      help="comma-separated strategy names")
    _add_experiment_args(cmp_)

    chk = sub.add_parser("check", help="run the numerical validation suites")
    chk.add_argument("--seed", type=_seed, default=0)

    return parser


def _cmd_gen(args) -> int:
    lg = graph_mod.from_spec(args.graph, seed=args.seed)
    graph_mod.save_edge_list(lg.graph, args.out_edges)
    graph_mod.save_labels(lg.labels, args.out_labels)
    print(
        f"wrote {args.out_edges} ({lg.graph.n} nodes, {lg.graph.num_edges} edges) "
        f"and {args.out_labels} ({lg.num_classes} classes)",
        file=sys.stderr,
    )
    return 0


def _cmd_build_graph(args) -> int:
    features, labels = graph_mod.load_features(args.features)
    if not args.no_normalize:
        features = graph_mod.normalize_features(features)
    g = graph_mod.build_from_features(
        features, args.method, sigma=args.sigma, threshold=args.threshold
    )
    stem = os.path.splitext(os.path.basename(args.features))[0]
    out_edges = args.out_edges or _default_out(stem + ".edges")
    graph_mod.save_edge_list(g, out_edges)
    print(f"wrote {out_edges} ({g.n} nodes, {g.num_edges} edges)", file=sys.stderr)
    if args.out_labels:
        canon, num_classes = graph_mod.canonical_labels(
            {i: int(c) for i, c in enumerate(labels)}
        )
        graph_mod.save_labels(canon, args.out_labels)
        print(f"wrote {args.out_labels} ({num_classes} classes)", file=sys.stderr)
    return 0


def _make_strategies(args, names: list[str]) -> list[Strategy]:
    maxmin = getattr(args, "maxmin", False)
    return [
        Strategy(name, confidence=args.confidence, hybrid_scale=args.hybrid, maxmin=maxmin)
        for name in names
    ]


def _cmd_experiment(args, names: list[str]) -> int:
    cfg = ExperimentConfig(
        graph=args.graph,
        strategies=_make_strategies(args, names),
        budget=args.T,
        runs=args.runs,
        seed=args.seed,
        delta=args.delta,
        eval_on=args.eval_on,
    )
    out = args.out or _default_out("results.csv")
    results = run_experiment(cfg)
    emit_csv(results, out)
    print(emit_summary(results))
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    return _cmd_experiment(args, [args.strategy])


def _cmd_compare(args) -> int:
    return _cmd_experiment(args, args.strategies)


def _cmd_check(args) -> int:
    failures = 0
    for result in checks.run_all(seed=args.seed):
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        if not result.passed:
            failures += 1
    return 0 if failures == 0 else 1


_DISPATCH = {
    "gen": _cmd_gen,
    "build-graph": _cmd_build_graph,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "maxmin", False) and args.strategy not in RETRAINING_KINDS:
            parser.error(f"--maxmin applies only to {'/'.join(RETRAINING_KINDS)}, "
                         f"not --strategy {args.strategy}")
    except SystemExit as exc:  # argparse already printed the usage text
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
