import numpy as np
import pytest

from treelab.core import Minibatch, TraceEntry
from treelab.exhaustive import (ConcentrationConfig, check_shallow_splits,
                                check_telescoping, empirical_concentration,
                                evaluate_tree_reference, exact_size_expectation,
                                local_gain_reference)
from treelab.impurity import GINI, builtin_impurities
from treelab.targets import Dictator, random_truth_table
from treelab.trees import parse_tree, random_partial_tree, tree_from_splits


class TestTelescoping:
    def test_pure_leaf_split_changes_nothing(self):
        f = Dictator(4, 0)
        # Both leaves pure.
        tree = tree_from_splits(4, {(): 0}, {((0, -1),): None, ((0, 1),): None})
        assert check_telescoping(GINI, f, tree, (((0, 1),), 2))

    def test_dictator_root_split(self):
        f = Dictator(4, 0)
        assert check_telescoping(GINI, f, tree_from_splits(4, {}, {(): None}), ((), 0))

    def test_random_triples(self):
        rng = np.random.default_rng(1)
        for k in range(60):
            d = 8
            tree = random_partial_tree(rng, d, int(rng.integers(1, 10)))
            f = random_truth_table(rng, d)
            leaves = list(tree.labels)
            path = leaves[int(rng.integers(len(leaves)))]
            free = [i for i in range(d) if i not in {c for c, _ in path}]
            coord = int(rng.choice(free))
            g = builtin_impurities()[k % 3]
            assert check_telescoping(g, f, tree, (path, coord))


def _fake_trace(depths):
    return [TraceEntry(tuple((i, 1) for i in range(dep)), dep, 0.0, 0.0) for dep in depths]


class TestShallowSplits:
    def test_short_traces_vacuous(self):
        # log2(j) - 2 < 0 for j <= 4, so depth-0 splits are never shallow there.
        assert check_shallow_splits(_fake_trace([0, 0, 0, 0]))

    def test_balanced_growth_has_zero_count(self):
        depths = [0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]
        assert check_shallow_splits(_fake_trace(depths))

    def test_adversarial_trace_fails(self):
        # Eight splits all at the root depth: by j=8, log2(j)-2 = 1 and all
        # eight count as shallow, blowing the k/4 budget.
        assert not check_shallow_splits(_fake_trace([0] * 8))

    def test_boundary_is_strict(self):
        # depth exactly log2(j) - 2 does not count as shallow.
        depths = [0, 0, 0, 0, 1, 1, 1, 1]
        assert check_shallow_splits(_fake_trace(depths))


class TestSizeExpectation:
    def test_single_leaf(self):
        assert exact_size_expectation(parse_tree("(leaf 0)", 3)) == 1.0

    def test_three_leaves(self):
        tree = parse_tree("(split 1 (leaf 0) (split 2 (leaf 0) (leaf 1)))", 3)
        assert exact_size_expectation(tree) == 3.0

    def test_random_trees_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tree = random_partial_tree(rng, 10, int(rng.integers(1, 25)))
            assert exact_size_expectation(tree) == tree.size


class TestReferenceImplementations:
    def test_reference_evaluator_rejects_partial(self):
        from treelab.core import Point

        with pytest.raises(ValueError):
            evaluate_tree_reference(tree_from_splits(2, {}, {(): None}), Point(2, 0))

    def test_reference_gain_raises_on_empty(self):
        empty = Minibatch((), np.zeros(0, np.int64), np.zeros(0, np.uint64),
                          np.zeros(0, np.uint8))
        with pytest.raises(ValueError):
            local_gain_reference(GINI, empty, 0)


class TestConcentration:
    def _config(self, **kw):
        base = dict(target=Dictator(8, 0), impurity=GINI, leaf_path=(),
                    coord=0, b=256, n=512, seed=0, gain_tolerance=0.25)
        base.update(kw)
        return ConcentrationConfig(**base)

    def test_full_table_batches_are_exact(self):
        # Batch == the whole (tiny) dataset drawn from the full cube: the
        # estimate error stays inside any positive tolerance almost always.
        cfg = self._config(b=512, n=512, gain_tolerance=0.2)
        assert empirical_concentration("gain-accuracy", cfg, trials=50) <= 0.1

    def test_balance_failures_rare_at_recommended_size(self):
        cfg = self._config(leaf_path=((1, 1),), n=1200, b=300)
        assert empirical_concentration("balance", cfg, trials=200) <= 0.05

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            empirical_concentration("mystery", self._config(), 10)

    def test_gain_needs_tolerance(self):
        with pytest.raises(ValueError):
            empirical_concentration("gain-accuracy",
                                    self._config(gain_tolerance=None), 10)

