"""The three global learners: full-batch greedy growth, the depth-capped
minibatch learner, and the variant whose stopping rule is a strand-based
size estimate.  They and the local learner run one engine, GrowthState.grow,
differing only in leaf source, depth limit, stopping rule and watched leaves.

Determinism contract: every split decision is a pure function of the inputs
plus the randomness tape.  Each leaf's minibatch is drawn once, from the
substream keyed by the leaf's path, and reused for scoring and completion.
(A literal per-iteration redraw would make the local learner's view of the
randomness diverge from the global one, because their iteration counters
differ; path-keyed draws are what keeps every variant's batches identical.)
Ties in the split argmax are broken by lexicographically smaller leaf path,
then smaller coordinate index.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .core import (STRAND_DOMAIN, AnyDataset, LabeledDataset, LabelOracle,
                   LeafPath, LeafPools, Minibatch, RandomnessTape, StrandTracker,
                   TraceEntry, draw_minibatch, path_coords)
from .impurity import ImpurityFunction, batch_local_gains, depth_limit
from .trees import Tree, tree_from_splits


@dataclass
class LeafRecord:
    """Cached scoring state of one leaf, from its fixed minibatch: the
    batch's completion label, the best coordinate to split on, and that
    coordinate's estimated local gain.  best_coord is None when the leaf is
    unsplittable (empty or pure batch, or no unused coordinate)."""

    path: LeafPath
    label: int
    best_coord: Optional[int]
    best_local_gain: float

    @property
    def splittable(self) -> bool:
        return self.best_coord is not None

    @property
    def purity_gain(self) -> float:
        return math.ldexp(self.best_local_gain, -len(self.path))

    @property
    def priority(self) -> tuple:
        return (-self.purity_gain, self.path, self.best_coord)


def score_leaf(impurity: ImpurityFunction, batch: Minibatch, d: int) -> LeafRecord:
    """The record of a labeled batch's leaf, from one sum of its labels: the
    completion label round(mean label), with round(1/2) = 1 (0 when empty),
    and the best coordinate with its estimated local gain, or (None, 0.0)
    when the leaf is unsplittable.  Negative estimated gains are legal
    winners; ties go to the smaller coordinate."""
    path, ones = batch.leaf_path, int(batch.labels.sum())
    label = 1 if batch.size and 2 * ones >= batch.size else 0
    if 0 < ones < batch.size:
        used = path_coords(path)
        avail = np.array([i for i in range(d) if i not in used], dtype=np.int64)
        if len(avail):
            gains = batch_local_gains(impurity, batch.masks, batch.labels, d)[avail]
            k = int(np.argmax(gains))
            return LeafRecord(path, label, int(avail[k]), float(gains[k]))
    return LeafRecord(path, label, None, 0.0)


class GrowthState:
    """Greedy growth from a leaf source (see leaf_source): `record(path)`
    returns a leaf's scored record.  A leaf is a split candidate when it is
    within `depth_limit` (None: no cap) and `watch(path)` holds (None: every
    leaf).  `best` fetches each candidate's record once, after its spawn;
    leaves that are never candidates are never fetched.  `leaves` maps every
    current leaf to its record (None until fetched); `frontier` is a heap of
    (priority, record) over the splittable ones, whose priorities are
    distinct because each contains its path, so its top is the best.
    """

    def __init__(self, d: int, record: Callable[[LeafPath], LeafRecord],
                 depth_limit: Optional[int], watch: Optional[Callable] = None):
        self.d = d
        self.record = record
        self.depth_limit = depth_limit
        self.watch = watch
        self.splits: dict = {}
        self.leaves: dict = {(): None}
        self.frontier: list = []
        self.trace: List[TraceEntry] = []
        self._pending = [()]

    @property
    def size(self) -> int:
        return len(self.splits) + 1

    def best(self) -> Optional[LeafRecord]:
        """The candidate to split next (None if none is splittable)."""
        for path in self._pending:
            if ((self.depth_limit is None or len(path) <= self.depth_limit)
                    and (self.watch is None or self.watch(path))):
                rec = self.leaves[path] = self.record(path)
                if rec.splittable:
                    heapq.heappush(self.frontier, (rec.priority, rec))
        self._pending.clear()
        return self.frontier[0][1] if self.frontier else None

    def apply(self, rec: LeafRecord) -> None:
        """Split `rec`, which must be the candidate `best` returned."""
        if self._pending or not self.frontier or self.frontier[0][1] is not rec:
            raise ValueError("only the candidate best() returned can be split")
        heapq.heappop(self.frontier)
        coord = rec.best_coord
        del self.leaves[rec.path]
        self.splits[rec.path] = coord
        for sign in (-1, 1):
            child = rec.path + ((coord, sign),)
            self.leaves[child] = None
            self._pending.append(child)

    def grow(self, t: int, tracker: Optional[StrandTracker] = None) -> float:
        """Split best leaves while the size is below t and return the final
        size: the leaf count, or the estimate of a strand `tracker` (of cube
        points at the root), which follows the splits."""
        size = float(self.size) if tracker is None else tracker.size_estimate()
        while size < t:
            rec = self.best()
            if rec is None:
                break
            if tracker is not None:
                tracker.advance(rec.path, rec.best_coord)
            self.apply(rec)
            size = float(self.size) if tracker is None else tracker.size_estimate()
            self.trace.append(TraceEntry(rec.path, rec.best_coord, rec.purity_gain, size))
        return size

    def complete(self) -> Tree:
        """The grown tree, each leaf labeled by its record's batch majority."""
        labels = {p: (rec or self.record(p)).label for p, rec in self.leaves.items()}
        return tree_from_splits(self.d, self.splits, labels)


@dataclass
class TrainResult:
    tree: Tree
    trace: List[TraceEntry]
    size_estimate: Optional[float] = None


def leaf_source(dataset: AnyDataset, impurity: ImpurityFunction, b: int,
                tape: Optional[RandomnessTape], oracle: Optional[LabelOracle] = None):
    """record(path) scoring each leaf on its path-keyed minibatch of size b
    (every consistent point when at most b are), drawn from the leaf's pool,
    a segment of one row buffer (see LeafPools): labeled by the dataset's
    rows, or by an `oracle` at the rows' dataset indices, the buffer then
    over the dataset's unlabeled view.  A record keeps no batch."""
    if oracle is None and not isinstance(dataset, LabeledDataset):
        raise ValueError("learner needs a labeled dataset or a label oracle")
    if oracle is not None:
        if oracle.n != dataset.n:
            raise ValueError(f"label oracle over {oracle.n} points, dataset of {dataset.n}")
        if not (oracle.masks is dataset.masks or np.array_equal(oracle.masks, dataset.masks)):
            raise ValueError("label oracle over other points than the dataset's")
        if isinstance(dataset, LabeledDataset):
            dataset = dataset.unlabeled()
    pools = LeafPools(dataset)

    def record(path: LeafPath) -> LeafRecord:
        batch = draw_minibatch(dataset, path, b, tape, pool=pools(path))
        if oracle is not None:
            batch.labels = oracle.labels_for(batch.indices)
        return score_leaf(impurity, batch, dataset.d)

    return record


def top_down_full(t: int, dataset: LabeledDataset,
                  impurity: ImpurityFunction) -> TrainResult:
    """Reference greedy learner: gains from the whole dataset, no depth cap,
    grow until size t or no splittable leaf remains."""
    if t < 1:
        raise ValueError(f"tree size target must be >= 1, got {t}")
    if dataset.n == 0:
        raise ValueError("full-batch learner needs a non-empty dataset")
    g = GrowthState(dataset.d, leaf_source(dataset, impurity, dataset.n, None), None)
    g.grow(t)
    return TrainResult(g.complete(), g.trace)


def minibatch_top_down(t: int, b: int, dataset: LabeledDataset,
                       impurity: ImpurityFunction,
                       tape: RandomnessTape) -> TrainResult:
    """Minibatch learner: scores each leaf from its path-keyed minibatch,
    never splits below the depth cap, stops at exactly size t (or earlier if
    no splittable leaf of legal depth remains).  t < 2 degenerates to the
    size-1 completion; an empty dataset yields a single leaf labeled 0."""
    t = max(int(t), 1)
    g = GrowthState(dataset.d, leaf_source(dataset, impurity, b, tape), depth_limit(t))
    g.grow(t)
    return TrainResult(g.complete(), g.trace)


def top_down_size_estimate(t: int, b: int, dataset: LabeledDataset,
                           impurity: ImpurityFunction, tape: RandomnessTape) -> TrainResult:
    """Like minibatch_top_down, but the loop runs while a strand-based size
    estimate stays below t: b uniform cube points are drawn up front (tape
    key 'strands'), and after every split the estimate is the mean over them
    of 2^{leaf depth}.  The final exact size t' is len(trace) + 1."""
    t = max(int(t), 1)
    g = GrowthState(dataset.d, leaf_source(dataset, impurity, b, tape), depth_limit(t))
    e = g.grow(t, StrandTracker(tape.uniform_masks(dataset.d, b, STRAND_DOMAIN)))
    return TrainResult(g.complete(), g.trace, size_estimate=e)
