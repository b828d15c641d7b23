"""Seeded Monte-Carlo harness for active-sampling experiments.

A run draws the graph (generator sources are re-sampled per run with seed
``base_seed + r``; file sources stay fixed), then lets every strategy play
the same budget of queries. The label oracle is the graph's label array
(``LabeledGraph.label_vector``): a query on node ``i`` reads entry ``i``.
All strategies in one config share the per-run seed, so their first random
query coincides and curve differences are strategy-driven. Accuracy after
each query is the fraction of correctly predicted nodes, evaluated on the
shrinking unlabeled set by default or on the full initial node set behind a
flag.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import graph as graph_mod
from .gmrf import GmrfModel, class_decision, spd_inverse
from .graph import LabeledGraph, regularized_laplacian
from .strategies import BINARY_ONLY_KINDS, Strategy, select

EVAL_MODES = ("remaining", "initial")


@dataclass
class AccuracyCurve:
    """Per-iteration accuracy of one strategy across Monte-Carlo runs."""

    strategy: str
    values: np.ndarray  # shape (runs, budget)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a (runs, budget) array")
        if self.values.size and (self.values.min() < 0 or self.values.max() > 1):
            raise ValueError("accuracy values must lie in [0, 1]")

    @property
    def runs(self) -> int:
        return self.values.shape[0]

    @property
    def budget(self) -> int:
        return self.values.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self.values.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        return self.values.std(axis=0)


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; see :func:`run_experiment`.

    ``graph`` is either a source spec string (``grid:RxC``,
    ``community:..``, ``file:EDGES:LABELS``) or a ready ``LabeledGraph``
    reused across runs.
    """

    graph: str | LabeledGraph
    strategies: list[Strategy]
    budget: int
    runs: int = 50
    seed: int = 0
    delta: float = 0.005
    eval_on: str = "remaining"

    def __post_init__(self):
        if not self.strategies:
            raise ValueError("need at least one strategy")
        labels = [s.label for s in self.strategies]
        if len(set(labels)) != len(labels):
            raise ValueError(f"strategy labels must be unique, got {labels}")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.eval_on not in EVAL_MODES:
            raise ValueError(f"eval_on must be one of {EVAL_MODES}")


def accuracy(model: GmrfModel, labels: np.ndarray, eval_on: str = "remaining") -> float:
    """Fraction of correctly predicted nodes.

    The model predicts by :func:`~gmrf_active.gmrf.class_decision`, the same
    rule as :meth:`GmrfModel.predict`. ``labels`` is the 1-D array of true
    class ids indexed by node id, as ``LabeledGraph.label_vector`` gives;
    any other input is rejected. With ``eval_on="remaining"`` the fraction
    is over the unlabeled nodes; with ``"initial"`` it is over all nodes, and
    the queried ones count as correct because they carry their disclosed
    label.
    """
    if eval_on not in EVAL_MODES:
        raise ValueError(f"eval_on must be one of {EVAL_MODES}")
    if not isinstance(labels, np.ndarray) or labels.ndim != 1:
        raise ValueError("labels must be a 1-D array of class ids indexed by node id")
    ids = model.unlabeled
    if ids.size == 0:
        raise ValueError("no unlabeled nodes left to evaluate")
    hits = int(np.count_nonzero(class_decision(model.means) == labels[ids]))
    if eval_on == "remaining":
        return hits / ids.size
    n = labels.size
    return (hits + (n - ids.size)) / n


def baseline_accuracy(labels) -> float:
    """Relative frequency of the most common class."""
    values = list(labels.values()) if isinstance(labels, Mapping) else list(labels)
    if not values:
        raise ValueError("empty label set")
    return Counter(values).most_common(1)[0][1] / len(values)


def _check_graph(cfg: ExperimentConfig, lg: LabeledGraph) -> None:
    """Reject a config the graph cannot run, before any inverse is built."""
    n = lg.graph.n
    if cfg.budget >= n:
        raise ValueError(f"budget {cfg.budget} must be smaller than the node count {n}")
    if lg.num_classes > 2:
        for strat in cfg.strategies:
            if strat.kind in BINARY_ONLY_KINDS:
                raise ValueError(
                    f"strategy {strat.label!r} ({strat.kind}) is defined for binary models only, "
                    f"but the graph has {lg.num_classes} classes"
                )


def _run_graph(cfg: ExperimentConfig, run_seed: int) -> LabeledGraph:
    if isinstance(cfg.graph, LabeledGraph):
        return cfg.graph
    return graph_mod.from_spec(cfg.graph, seed=run_seed)


def run_experiment(cfg: ExperimentConfig,
                   step_hook: Callable | None = None) -> dict[str, AccuracyCurve]:
    """Run the full Monte-Carlo experiment; returns one curve per strategy.

    ``step_hook``, when given, is called as
    ``step_hook(strategy=..., model=..., run=..., t=...)`` after every
    observation, which is handy for invariant tracking.
    """
    curves = {s.label: np.zeros((cfg.runs, cfg.budget)) for s in cfg.strategies}
    for r in range(cfg.runs):
        run_seed = cfg.seed + r
        lg = _run_graph(cfg, run_seed)
        _check_graph(cfg, lg)
        lap = regularized_laplacian(lg.graph, cfg.delta)
        inverse = spd_inverse(lap.matrix)
        truth = lg.label_vector()
        for strat in cfg.strategies:
            model = GmrfModel.from_inverse(inverse, cfg.delta, lg.num_classes)
            rng = np.random.default_rng(run_seed)
            for t in range(1, cfg.budget + 1):
                node = select(strat, model, t, rng)
                model.observe(node, truth[node])
                curves[strat.label][r, t - 1] = accuracy(model, truth, cfg.eval_on)
                if step_hook is not None:
                    step_hook(strategy=strat, model=model, run=r, t=t)
    return {s.label: AccuracyCurve(s.label, curves[s.label]) for s in cfg.strategies}


def emit_csv(results: dict[str, AccuracyCurve], path) -> None:
    """Write curves as ``strategy,t,mean_accuracy,std_accuracy,runs`` rows.

    Floats carry 6 decimals; lines end with LF. An empty result set is an
    error and no file is created.
    """
    if not results:
        raise ValueError("no results to write")
    lines = ["strategy,t,mean_accuracy,std_accuracy,runs"]
    for label, curve in results.items():
        mean, std = curve.mean, curve.std
        for t in range(curve.budget):
            lines.append(f"{label},{t + 1},{mean[t]:.6f},{std[t]:.6f},{curve.runs}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_summary(results: dict[str, AccuracyCurve]) -> str:
    """Plain-text mean +/- std table at t = 5, 10, 20 and the last iteration."""
    if not results:
        raise ValueError("no results to summarize")
    budget = min(curve.budget for curve in results.values())
    points = sorted({t for t in (5, 10, 20, budget) if 1 <= t <= budget})
    width = max(len(label) for label in results) + 2
    header = "strategy".ljust(width) + "".join(f"t={t}".rjust(16) for t in points)
    lines = [header]
    for label, curve in results.items():
        cells = "".join(
            f"{curve.mean[t - 1]:.3f}+/-{curve.std[t - 1]:.3f}".rjust(16) for t in points
        )
        lines.append(label.ljust(width) + cells)
    return "\n".join(lines)
