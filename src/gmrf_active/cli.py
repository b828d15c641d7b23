"""Command-line interface.

Subcommands: ``gen`` (write synthetic graph files), ``build-graph``
(features CSV -> edge list), ``run`` (single-strategy experiment),
``compare`` (multi-strategy experiment), and ``check`` (numerical
validation suites). Exit codes: 0 success, 1 runtime error, 2 usage error.
Diagnostics go to stderr; result tables go to stdout and CSVs to files.

The experiment flags default to the fields of :class:`ExperimentConfig` and
:class:`Strategy` they fill, and ``--eval-on`` chooses from ``EVAL_MODES``;
only ``--confidence inv_sqrt`` is the command line's own default.

The environment variable ``GMRF_ACTIVE_OUTDIR`` sets the default output
directory when ``--out`` paths are omitted. Every output path is checked
before any compute: a missing parent directory, a path that is a directory,
or one file given as both the edge and the label output exits 1 with a
message that names the path.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checks
from . import graph as graph_mod
from .bench import EVAL_MODES, ExperimentConfig, emit_csv, emit_summary, run_experiment
from .graph import _as_real
from .strategies import KINDS, Strategy

OUTDIR_ENV = "GMRF_ACTIVE_OUTDIR"


def _finite_float(text: str, low: float | None = None, *, strict: bool = False) -> float:
    """``text`` as a float by the library's real-number rule; a usage error otherwise."""
    try:
        return _as_real(float(text), "value", low, strict=strict)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_float(text: str) -> float:
    return _finite_float(text, 0, strict=True)


def _int_flag(low: int):
    """Parser of an integer flag of at least ``low``; a usage error otherwise."""
    bound = "positive" if low == 1 else f">= {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _strategy(kind: str, **options) -> None:
    """Check ``Strategy(kind, **options)`` by the library's own rules; a usage
    error if it is rejected."""
    try:
        Strategy(kind, **options)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _confidence(text: str) -> str:
    _strategy("tv", confidence=text)
    return text


def _hybrid(text: str) -> float:
    return 0.0 if text == "none" else _finite_float(text, 0)


def _strategy_list(text: str) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty strategy list")
    for name in names:
        _strategy(name)
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError("duplicate strategies in list")
    return names


def _default_out(filename: str) -> str:
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), filename)


def _output_path(path: str) -> str:
    """``path`` if a file can be created there; raises before any compute."""
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"output path {path}: directory {parent} does not exist")
    return path


def _graph_outputs(edges: str, labels: str | None) -> None:
    """Check the edge output and any label output, and that they are two
    files; raises before any compute."""
    _output_path(edges)
    if labels:
        _output_path(labels)
        if os.path.realpath(edges) == os.path.realpath(labels):
            raise ValueError(f"--out-edges and --out-labels are the same file: {labels}")


def _add_experiment_args(sp: argparse.ArgumentParser) -> None:
    # a dataclass keeps each field's default as its class attribute
    sp.add_argument("--graph", required=True,
                    help="grid:RxC | community:S1,S2,..:pin=P:pout=Q | file:EDGES:LABELS")
    sp.add_argument("--T", required=True, type=_int_flag(1), help="query budget")
    sp.add_argument("--runs", type=_int_flag(1), default=ExperimentConfig.runs)
    sp.add_argument("--seed", type=_int_flag(0), default=ExperimentConfig.seed)
    sp.add_argument("--delta", type=_positive_float, default=ExperimentConfig.delta)
    sp.add_argument("--confidence", type=_confidence, default="inv_sqrt",
                    help="inv_sqrt | const:<a> | none")
    sp.add_argument("--hybrid", type=_hybrid, default=Strategy.hybrid_scale, metavar="SCALE",
                    help="uniform-exploration scale (pi_t = min(1, SCALE/sqrt(t))) or 'none'")
    sp.add_argument("--eval-on", choices=EVAL_MODES, default=ExperimentConfig.eval_on)
    sp.add_argument("--out", default=None, help="output CSV path")
    sp.set_defaults(func=_cmd_experiment)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmrf-active",
        description="Active node classification on graphs with Gaussian field models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic labeled graph and write it to files")
    gen.add_argument("--graph", required=True, help="grid:RxC | community:S1,S2,..:pin=P:pout=Q")
    gen.add_argument("--seed", type=_int_flag(0), default=0)
    gen.add_argument("--out-edges", required=True)
    gen.add_argument("--out-labels", required=True)
    gen.set_defaults(func=_cmd_gen)

    build = sub.add_parser("build-graph", help="build a similarity graph from a feature CSV")
    build.add_argument("--features", required=True, help="CSV, last column = integer class label")
    build.add_argument("--method", choices=("rbf", "pearson"), default="rbf")
    build.add_argument("--sigma", type=_positive_float, default=1.0)
    build.add_argument("--threshold", type=_finite_float, default=0.0)
    build.add_argument("--no-normalize", action="store_true",
                       help="skip scaling feature columns to [-1, 1]")
    build.add_argument("--out-edges", default=None)
    build.add_argument("--out-labels", default=None)
    build.set_defaults(func=_cmd_build_graph)

    run = sub.add_parser("run", help="run one strategy and write its accuracy curve")
    run.add_argument("--strategy", required=True, choices=KINDS)
    run.add_argument("--maxmin", action="store_true",
                     help="worst-case label aggregation (fl/kl only)")
    _add_experiment_args(run)
    # main checks --maxmin against --strategy and reports it as run's error
    run.set_defaults(parser=run)

    cmp_ = sub.add_parser("compare", help="run several strategies under shared seeds")
    cmp_.add_argument("--strategies", required=True, type=_strategy_list,
                      help="comma-separated strategy names")
    _add_experiment_args(cmp_)

    chk = sub.add_parser("check", help="run the numerical validation suites")
    chk.add_argument("--seed", type=_int_flag(0), default=0)
    chk.set_defaults(func=_cmd_check)

    return parser


def _cmd_gen(args) -> int:
    _graph_outputs(args.out_edges, args.out_labels)
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
    stem = os.path.splitext(os.path.basename(args.features))[0]
    out_edges = args.out_edges or _default_out(stem + ".edges")
    _graph_outputs(out_edges, args.out_labels)
    features, labels = graph_mod.load_features(args.features)
    if not args.no_normalize:
        features = graph_mod.normalize_features(features)
    g = graph_mod.build_from_features(
        features, args.method, sigma=args.sigma, threshold=args.threshold
    )
    graph_mod.save_edge_list(g, out_edges)
    print(f"wrote {out_edges} ({g.n} nodes, {g.num_edges} edges)", file=sys.stderr)
    if args.out_labels:
        canon, num_classes = graph_mod.canonical_labels(labels)
        graph_mod.save_labels(canon, args.out_labels)
        print(f"wrote {args.out_labels} ({num_classes} classes)", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    out = _output_path(args.out or _default_out("results.csv"))
    names = [args.strategy] if args.command == "run" else args.strategies
    strategies = [Strategy(name, confidence=args.confidence, hybrid_scale=args.hybrid,
                           maxmin=getattr(args, "maxmin", False)) for name in names]
    cfg = ExperimentConfig(graph=args.graph, strategies=strategies, budget=args.T,
                           runs=args.runs, seed=args.seed, delta=args.delta,
                           eval_on=args.eval_on)
    results = run_experiment(cfg)
    emit_csv(results, out)
    print(emit_summary(results))
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    failures = 0
    for result in checks.run_all(seed=args.seed):
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        if not result.passed:
            failures += 1
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "maxmin", False):
            try:
                _strategy(args.strategy, maxmin=True)
            except argparse.ArgumentTypeError as exc:
                args.parser.error(f"argument --maxmin: {exc}")
    except SystemExit as exc:  # argparse already printed the usage text
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
