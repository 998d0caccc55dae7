"""Independent brute-force references for the test suite and the `verify`
command: a second tree evaluator, straight-from-definition gain
recomputation, the telescoping and shallow-split checkers, the exact size
expectation, and Monte-Carlo concentration experiments.

Nothing here shares code with the production scoring path beyond the core
point/tree types; these functions are written directly from the defining
formulas, in deliberately plain style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (LeafPath, Minibatch, Point, RandomnessTape, RunTrace,
                   draw_minibatch)
from .impurity import (ImpurityFunction, g_impurity, local_gain, true_local_gain,
                       true_purity_gain)
from .targets import TargetFunction, sample_dataset
from .trees import Tree, split_leaf

EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Second implementations
# ---------------------------------------------------------------------------


def evaluate_tree_reference(tree: Tree, x: Point) -> int:
    """Path-following evaluator over the point's signs, read one coordinate
    at a time; kept separate from the mask-walking production evaluator on
    purpose."""
    if x.d != tree.d:
        raise ValueError("dimension mismatch")
    label = tree.labels[leaf_of_reference(tree, x)]
    if label is None:
        raise ValueError("tree has unlabeled leaves")
    return label


def leaf_of_reference(tree: Tree, x: Point) -> LeafPath:
    path: LeafPath = ()
    while path in tree.splits:
        coord = tree.splits[path]
        path = path + ((coord, x.sign(coord)),)
    return path


def local_gain_reference(impurity: ImpurityFunction, batch: Minibatch, i: int) -> float:
    """Local gain recomputed with plain Python loops, straight from the
    definition."""
    ys = [int(y) for y in batch.labels]
    sides = [1 if (int(m) >> i) & 1 else -1 for m in batch.masks]
    if not ys:
        raise ValueError("empty batch")
    neg = [y for y, s in zip(ys, sides) if s == -1]
    pos = [y for y, s in zip(ys, sides) if s == 1]
    if not neg or not pos:
        return 0.0
    return impurity(sum(ys) / len(ys)) - 0.5 * impurity(sum(neg) / len(neg)) \
        - 0.5 * impurity(sum(pos) / len(pos))


# ---------------------------------------------------------------------------
# Identity checkers
# ---------------------------------------------------------------------------


def check_telescoping(impurity: ImpurityFunction, target: TargetFunction,
                      tree: Tree, split: tuple) -> bool:
    """Does potential(after split) == potential(before) - exact purity gain,
    to 1e-12?  split is (leaf path, coordinate)."""
    path, coord = split
    before = g_impurity(impurity, target, tree)
    gain = true_purity_gain(impurity, target, path, coord)
    after = g_impurity(impurity, target, split_leaf(tree, path, coord))
    return abs(after - (before - gain)) <= EXACT_TOL


def check_shallow_splits(trace: RunTrace) -> bool:
    """For every power-of-two prefix k of the trace, at most k/4 of the first
    k splits may be shallower than log2(j) - 2."""
    depths = [e.depth for e in trace]
    k = 1
    while k <= len(depths):
        shallow = sum(
            1 for j, dep in enumerate(depths[:k], start=1)
            if dep < math.log2(j) - 2.0
        )
        if shallow > k / 4.0:
            return False
        k *= 2
    return True


def exact_size_expectation(tree: Tree) -> float:
    """Mean of 2^{leaf depth} over the whole cube, by walking every point
    with the reference evaluator.  Equals the leaf count for any tree."""
    if tree.d > 16:
        raise ValueError("exact size expectation limited to d <= 16")
    total = 0
    for mask in range(1 << tree.d):
        total += 1 << len(leaf_of_reference(tree, Point(tree.d, mask)))
    return total / (1 << tree.d)


# ---------------------------------------------------------------------------
# Concentration experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationConfig:
    """One Monte-Carlo setup: draw a fresh dataset and a leaf minibatch per
    trial and test the event of interest at the given coordinate."""

    target: TargetFunction
    impurity: ImpurityFunction
    leaf_path: LeafPath
    coord: int
    b: int
    n: int                      # fresh dataset size per trial
    seed: int = 0
    gain_tolerance: Optional[float] = None  # required for gain accuracy


def _trial_batch(cfg: ConcentrationConfig, trial: int) -> Minibatch:
    tape = RandomnessTape(cfg.seed)
    ds = sample_dataset(cfg.target, cfg.n, tape, key=f"conc-{trial}")
    return draw_minibatch(ds, cfg.leaf_path, cfg.b, tape, domain=f"conc-batch-{trial}")


def _balance_failed(cfg: ConcentrationConfig, trial: int) -> int:
    batch = _trial_batch(cfg, trial)
    if batch.size == 0:
        return 1
    n_pos = int(((batch.masks >> cfg.coord) & 1).sum())
    return int(min(n_pos, batch.size - n_pos) < batch.size / 4.0)


def _gain_failed(cfg: ConcentrationConfig, truth: float, trial: int) -> int:
    # Production estimate vs enumerated truth: the pairing under test.
    batch = _trial_batch(cfg, trial)
    if batch.size == 0:
        return 1
    est = local_gain(cfg.impurity, batch, cfg.coord)
    return int(abs(est - truth) > cfg.gain_tolerance)


def empirical_concentration(kind: str, cfg: ConcentrationConfig, trials: int) -> float:
    """Monte-Carlo failure frequency of a per-batch event.

    kind 'balance': fewer than a quarter of the batch on either side of the
    coordinate.  kind 'gain-accuracy': the batch local gain misses the exact
    local gain by more than cfg.gain_tolerance.
    """
    if kind == "balance":
        fails = [_balance_failed(cfg, tr) for tr in range(trials)]
    elif kind == "gain-accuracy":
        if cfg.gain_tolerance is None:
            raise ValueError("gain-accuracy needs cfg.gain_tolerance")
        truth = true_local_gain(cfg.impurity, cfg.target, cfg.leaf_path, cfg.coord)
        fails = [_gain_failed(cfg, truth, tr) for tr in range(trials)]
    else:
        raise ValueError(f"unknown concentration kind {kind!r}")
    return sum(fails) / trials
