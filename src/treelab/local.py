"""Active local learner: computes the label the global size-estimate learner
would assign to a point, while materializing only the strands of the
would-be tree and labeling polylogarithmically many training points.

A prediction runs the global engine, GrowthState.grow, with the same depth
limit, strands and stopping rule, watching only leaves that a strand point
or the query point x reaches.  This is exact by construction: an unwatched
leaf never becomes watched (no strand point or x reaches its children), and
splitting it changes neither the size estimate e nor x's leaf, as it moves
no strand point; records are fixed by path, so the unwatched splits the
global run interleaves change no watched priority.  The local splits are
thus the global splits of watched leaves, in order, stopping at the same e.

Records are fetched lazily: a leaf's labels are revealed only once it is a
split candidate (watched, within the depth limit), and for x's final leaf.
Fetching at spawn would reveal labels of leaves that never become candidates.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from .core import (STRAND_DOMAIN, LabelOracle, LeafPath, Point, RandomnessTape,
                   UnlabeledDataset, draw_minibatch, path_constraint, point_reaches,
                   size_from_depths)
from .impurity import ImpurityFunction, depth_limit
from .learners import GrowthState, LeafRecord, completion_label, leaf_record
from .trees import Tree, leaf_depths


def estimate_size(tree: Tree, strand_points: Sequence) -> float:
    """Mean of 2^{leaf depth} over the sample points (duplicates counted);
    unbiased for the leaf count.  Accepts Points or packed masks."""
    if isinstance(strand_points, np.ndarray):
        masks = strand_points.astype(np.uint64)
    else:
        masks = np.array([p.mask if isinstance(p, Point) else int(p)
                          for p in strand_points], dtype=np.uint64)
    return size_from_depths(leaf_depths(tree, masks).tolist())


class LocalLearnerSession:
    """Shared-randomness local learner, reusable across many query points.

    Batches, scores, and revealed labels are cached per leaf path, so the
    strand forest is grown once: a later query point only extends its own
    strand and reads cached split decisions.
    """

    def __init__(self, t: int, b: int, dataset: UnlabeledDataset,
                 oracle: LabelOracle, impurity: ImpurityFunction,
                 tape: RandomnessTape):
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        self.t = max(int(t), 1)
        self.b = b
        self.dataset = dataset
        self.oracle = oracle
        self.impurity = impurity
        self.tape = tape
        self.depth_limit = depth_limit(self.t)
        self.strand_masks = tape.uniform_masks(dataset.d, b, STRAND_DOMAIN)
        self._records: dict = {}
        self.split_choices: dict = {}
        self.last_trace: List[tuple] = []

    def _record(self, path: LeafPath) -> LeafRecord:
        if path not in self._records:
            batch = self.oracle.reveal_batch(draw_minibatch(self.dataset, path, self.b, self.tape))
            self._records[path] = leaf_record(self.impurity, batch, self.dataset.d)
        return self._records[path]

    def predict(self, x: Union[Point, int]) -> int:
        """Label of the query point under the would-be global tree."""
        if isinstance(x, Point):
            if x.d != self.dataset.d:
                raise ValueError(f"point dimension {x.d} != dataset dimension "
                                 f"{self.dataset.d}")
            x_mask = x.mask
        else:
            x_mask = int(x)
        strands = self.strand_masks

        def watch(path: LeafPath) -> bool:
            m, v = path_constraint(path)
            return (x_mask & m) == v or bool(np.any((strands & np.uint64(m)) == np.uint64(v)))

        g = GrowthState(self.dataset.d, self._record, self.depth_limit, watch)
        g.grow(self.t, strands)
        self.split_choices.update(g.splits)
        self.last_trace = [(e.path, e.coord, e.size_estimate) for e in g.trace]
        x_leaf = next(p for p in g.leaves if point_reaches(x_mask, p))
        return completion_label(self._record(x_leaf).batch)


def local_learner(t: int, b: int, dataset: UnlabeledDataset, oracle: LabelOracle,
                  x: Union[Point, int], impurity: ImpurityFunction,
                  tape: RandomnessTape) -> int:
    """One-shot local prediction.  Under a shared tape this equals evaluating
    the tree built by the global size-estimate learner at x, for every x."""
    return LocalLearnerSession(t, b, dataset, oracle, impurity, tape).predict(x)
