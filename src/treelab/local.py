"""Active local learner: computes the label the global size-estimate learner
would assign to a point, while materializing only the strands of the
would-be tree and labeling polylogarithmically many training points.

A session runs the global engine, GrowthState.grow, once, with the same
depth limit, strands and stopping rule, watching only leaves a strand point
reaches: the strand forest.  It records each step's split, the priority of
the chosen record and the running size estimate e, and whether growth
stopped at e >= t or ran out of candidates.  Each query x then walks it:

- x follows the forest's splits from the root.  If it ends on a
  strand-reached leaf, that leaf is x's leaf in the global tree.
- Otherwise x's leaf L is off-strand, spawned at forest step k.  At each
  later step j, the global run splits L first when L is a candidate (within
  the depth limit, splittable) whose priority beats priority_j; x then moves
  to its child, which is checked against the same step.  If the forest ran
  out of candidates while e < t, x's leaf splits while it is a candidate.

This is exact.  The forest does not depend on x.  Splitting an off-strand
leaf moves no strand point, so e does not change and the run continues.
Records are fixed by path, so the unwatched splits of the global run change
no watched priority, and x's splits change no strand leaf.  The walk's
splits are thus the global splits of leaves x reaches, in order.

Records are fetched lazily: a leaf's labels are revealed only once it is a
split candidate (strand-reached or x's leaf, within the depth limit), and
for x's final leaf.  Fetching at spawn would reveal labels of leaves that
never become candidates.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Union

# draw_minibatch is unused here, but perfbench/tests/test_bench.py checks its rebinding.
from .core import (STRAND_DOMAIN, LabelOracle, Point, RandomnessTape,
                   StrandTracker, UnlabeledDataset, as_masks, draw_minibatch,
                   sign_bit)
from .impurity import ImpurityFunction, depth_limit
from .learners import GrowthState, completion_label, leaf_source
from .trees import Tree


def estimate_size(tree: Tree, strand_points: Sequence) -> float:
    """Mean of 2^{leaf depth} over the sample points (duplicates counted);
    unbiased for the leaf count.  Accepts Points or packed masks.  The
    tree's splits are replayed, parents first, through a StrandTracker."""
    tracker = StrandTracker(as_masks(tree.d, strand_points))
    for path, coord in tree.splits.items():
        tracker.advance(path, coord)
    return tracker.size_estimate()


class LocalLearnerSession:
    """Shared-randomness local learner, reusable across many query points.

    The first prediction grows the strand forest; every prediction, the
    first included, then walks it.  Records are cached per leaf path, so a
    later point only fetches the leaves of its own path off the strands.
    """

    def __init__(self, t: int, b: int, dataset: UnlabeledDataset,
                 oracle: LabelOracle, impurity: ImpurityFunction,
                 tape: RandomnessTape):
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        self.t = max(int(t), 1)
        self.dataset = dataset
        self.oracle = oracle
        self.depth_limit = depth_limit(self.t)
        self.strand_masks = tape.uniform_masks(dataset.d, b, STRAND_DOMAIN)
        self._record = functools.cache(leaf_source(dataset, impurity, b, tape, oracle))
        self._splits = None
        self.split_choices: dict = {}
        self.last_trace: List[tuple] = []

    def _grow_forest(self) -> None:
        # Built here, not by g, so that `watch` holds no reference to g.
        tracker = StrandTracker(self.strand_masks)
        g = GrowthState(self.dataset.d, self._record, self.depth_limit,
                        lambda path: path in tracker.members)
        self._exhausted = g.grow(self.t, tracker) < self.t
        # Keep only what the walk reads; g's leaf and frontier maps are dropped.
        self._splits = {e.path: (e.coord, e.j) for e in g.trace}
        self._steps = [(e.path, e.coord, e.size_estimate) for e in g.trace]
        self._priorities = [self._record(e.path).priority for e in g.trace]
        self._strand_leaves = set(tracker.members)
        self.split_choices.update(g.splits)

    def global_size(self) -> int:
        """Size t' of the global size-estimate learner's tree, grown from this
        session's records; leaves not yet fetched reveal labels to its oracle."""
        g = GrowthState(self.dataset.d, self._record, self.depth_limit)
        g.grow(self.t, StrandTracker(self.strand_masks))
        return g.size

    def predict(self, x: Union[Point, int]) -> int:
        """Label of the query point under the would-be global tree."""
        x_mask = int(as_masks(self.dataset.d, [x])[0])
        if self._splits is None:
            self._grow_forest()
        steps, leaf, j = self._steps, (), 0
        while leaf in self._splits:
            coord, j = self._splits[leaf]
            leaf += ((coord, sign_bit(x_mask, coord)),)
        # Forest steps 1..j are done; x's leaf splits before step j+1 when
        # it beats that step's priority, or once the forest is exhausted.  A
        # strand leaf is never a candidate then, or the forest would split it.
        if leaf in self._strand_leaves:
            j = len(steps)
        trace = steps[:j]
        while len(leaf) <= self.depth_limit and self._record(leaf).splittable:
            rec = self._record(leaf)
            while j < len(steps) and self._priorities[j] < rec.priority:
                trace.append(steps[j])
                j += 1
            if j == len(steps) and not self._exhausted:
                break
            trace.append((leaf, rec.best_coord, steps[j - 1][2]))
            self.split_choices[leaf] = rec.best_coord
            leaf += ((rec.best_coord, sign_bit(x_mask, rec.best_coord)),)
        self.last_trace = trace + steps[j:]
        return completion_label(self._record(leaf).batch)


def local_learner(t: int, b: int, dataset: UnlabeledDataset, oracle: LabelOracle,
                  x: Union[Point, int], impurity: ImpurityFunction,
                  tape: RandomnessTape) -> int:
    """One-shot local prediction.  Under a shared tape this equals evaluating
    the tree built by the global size-estimate learner at x, for every x."""
    return LocalLearnerSession(t, b, dataset, oracle, impurity, tape).predict(x)
