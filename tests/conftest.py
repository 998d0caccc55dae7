import numpy as np
import pytest

import treelab
from treelab.core import STRAND_DOMAIN, LabeledDataset, RandomnessTape, StrandTracker
from treelab.impurity import GINI, depth_limit
from treelab.learners import GrowthState, leaf_source
from treelab.targets import ReadOnceDNF, random_monotone_tree_target


@pytest.fixture
def tape():
    return RandomnessTape(12345)


@pytest.fixture
def three_term_dnf():
    """x1 or (x2 and x3) or (x4 and x5 and x6) over d=10."""
    return ReadOnceDNF(10, (frozenset({0}), frozenset({1, 2}),
                            frozenset({3, 4, 5})))


def full_truth_table_dataset(target) -> LabeledDataset:
    masks = np.arange(1 << target.d, dtype=np.uint64)
    return LabeledDataset(target.d, masks, target.eval_masks(masks))


def monotone_target(seed: int, d: int, n_leaves: int = 24, max_depth: int = 8):
    rng = np.random.default_rng(seed)
    return random_monotone_tree_target(rng, d=d, n_leaves=n_leaves,
                                       max_depth=max_depth)


def grown_state(kind: str, t: int, b: int, ds, tape):
    """(GrowthState, final size) of the learner `kind` ("full", "minibatch"
    or "size-estimate") under GINI, grown the way the learner grows it; the
    learners return only its tree and trace."""
    if kind == "full":
        g = GrowthState(ds.d, leaf_source(ds, GINI, ds.n, None), None)
        return g, g.grow(t)
    t = max(int(t), 1)
    g = GrowthState(ds.d, leaf_source(ds, GINI, b, tape), depth_limit(t))
    if kind == "minibatch":
        return g, g.grow(t)
    return g, g.grow(t, StrandTracker(tape.uniform_masks(ds.d, b, STRAND_DOMAIN)))


@pytest.fixture
def points_scanned(monkeypatch):
    """Running total of the points that consistent_indices scans, counted
    wherever a treelab module binds it."""
    total = [0]
    scan = treelab.core.consistent_indices

    def counted(masks, path):
        total[0] += len(masks)
        return scan(masks, path)

    for module in (treelab.core, treelab.learners, treelab.local):
        if hasattr(module, "consistent_indices"):
            monkeypatch.setattr(module, "consistent_indices", counted)
    return total
