import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.core import Point
from treelab.exhaustive import evaluate_tree_reference, leaf_of_reference
from treelab.trees import (evaluate_masks, evaluate_tree, leaf_of,
                           parse_tree, random_partial_tree, relabel,
                           serialize_tree, split_leaf, tree_from_splits)


def random_labeled_tree(seed, d=6, n_leaves=8, max_depth=None):
    rng = np.random.default_rng(seed)
    skeleton = random_partial_tree(rng, d, n_leaves, max_depth)
    labels = rng.integers(0, 2, size=skeleton.size)
    it = iter(labels)
    return relabel(skeleton, lambda _: int(next(it)))


def text_order(text):
    """(split paths, leaf paths) of a serialized tree, in the order its text
    names them, read from the tokens alone."""
    splits, leaves, todo = [], [], [()]
    tokens = text.replace("(", " ").replace(")", " ").split()
    for kind, arg in zip(tokens[::2], tokens[1::2]):
        path = todo.pop()
        if kind == "split":
            c = int(arg) - 1
            splits.append(path)
            todo += [path + ((c, 1),), path + ((c, -1),)]
        else:
            leaves.append(path)
    return splits, leaves


tree_seeds = st.integers(0, 10 ** 6)


class TestEvaluate:
    def test_constant_tree(self):
        tree = parse_tree("(leaf 1)", 3)
        for mask in range(8):
            assert evaluate_tree(tree, Point(3, mask)) == 1

    def test_dictator_tree(self):
        tree = parse_tree("(split 1 (leaf 0) (leaf 1))", 2)
        assert evaluate_tree(tree, Point.from_signs([1, -1])) == 1
        assert evaluate_tree(tree, Point.from_signs([-1, 1])) == 0

    def test_dimension_mismatch(self):
        tree = parse_tree("(leaf 0)", 3)
        with pytest.raises(ValueError):
            evaluate_tree(tree, Point(4, 0))
        with pytest.raises(ValueError):
            leaf_of(tree, Point(2, 0))

    def test_unlabeled_leaf_rejected(self):
        tree = tree_from_splits(2, {(): 0}, {((0, -1),): None, ((0, 1),): 1})
        with pytest.raises(ValueError):
            evaluate_tree(tree, Point(2, 0))

    @given(tree_seeds)
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_reference_evaluator(self, seed):
        # Second, independently written path-follower as the oracle.
        tree = random_labeled_tree(seed, d=6, n_leaves=10, max_depth=4)
        for mask in range(64):
            x = Point(6, mask)
            assert evaluate_tree(tree, x) == evaluate_tree_reference(tree, x)

    @given(tree_seeds)
    @settings(max_examples=20, deadline=None)
    def test_vectorized_matches_pointwise(self, seed):
        tree = random_labeled_tree(seed, d=6)
        masks = np.arange(64, dtype=np.uint64)
        vec = evaluate_masks(tree, masks)
        assert all(vec[m] == evaluate_tree(tree, Point(6, m)) for m in range(64))


class TestLeafOf:
    def test_empty_tree_root_leaf(self):
        tree = tree_from_splits(4, {}, {(): None})
        assert leaf_of(tree, Point(4, 5)) == ()

    def test_two_level_path(self):
        # Root queries coordinate 2 (1-based), its +1 child queries 5.
        tree = tree_from_splits(6, {(): 1, ((1, 1),): 4},
                                {((1, -1),): None, ((1, 1), (4, -1)): None,
                                 ((1, 1), (4, 1)): None})
        x = Point.from_signs([-1, 1, -1, -1, -1, 1])
        assert leaf_of(tree, x) == ((1, 1), (4, -1))

    @given(tree_seeds)
    @settings(max_examples=30, deadline=None)
    def test_leaf_region_sizes(self, seed):
        # Enumerating all of {-1,1}^6: each leaf of depth k is reached by
        # exactly 2^(6-k) points, so the leaves partition the cube.
        tree = random_labeled_tree(seed, d=6, n_leaves=12)
        hits = {path: 0 for path in tree.labels}
        for mask in range(64):
            hits[leaf_of(tree, Point(6, mask))] += 1
        for path, count in hits.items():
            assert count == 1 << (6 - len(path))
        assert sum(hits.values()) == 64

    @given(tree_seeds)
    @settings(max_examples=30, deadline=None)
    def test_leaf_masses_sum_to_one_exactly(self, seed):
        tree = random_labeled_tree(seed, d=8, n_leaves=20)
        dmax = max(len(p) for p in tree.labels)
        total = sum(1 << (dmax - len(p)) for p in tree.labels)
        assert total == 1 << dmax

    @given(tree_seeds)
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_reference_walker(self, seed):
        tree = random_labeled_tree(seed, d=6)
        for mask in range(0, 64, 3):
            x = Point(6, mask)
            assert leaf_of(tree, x) == leaf_of_reference(tree, x)


class TestStructure:
    def test_size_is_internal_count_plus_one(self):
        tree = random_labeled_tree(3, d=8, n_leaves=13)
        internal = len(tree.splits)
        assert tree.size == internal + 1 == 13

    def test_repeat_coordinate_rejected(self):
        with pytest.raises(ValueError, match="repeats along a path"):
            tree_from_splits(3, {(): 0, ((0, 1),): 0},
                             {((0, -1),): 0, ((0, 1), (0, -1)): 0, ((0, 1), (0, 1)): 1})

    def test_coordinate_range_checked(self):
        with pytest.raises(ValueError, match="out of range for d=2"):
            tree_from_splits(2, {(): 5}, {((5, -1),): 0, ((5, 1),): 1})

    def test_split_leaf_extends_path(self):
        tree = parse_tree("(split 1 (leaf 0) (leaf 1))", 3)
        bigger = split_leaf(tree, ((0, 1),), 2)
        assert bigger.size == 3
        assert leaf_of(bigger, Point.from_signs([1, -1, 1])) == ((0, 1), (2, 1))

    def test_split_leaf_children_keep_the_leaf_label(self):
        tree = parse_tree("(split 1 (leaf 0) (leaf 1))", 3)
        assert split_leaf(tree, ((0, 1),), 2) == parse_tree(
            "(split 1 (leaf 0) (split 3 (leaf 1) (leaf 1)))", 3)

    @pytest.mark.parametrize("path", [(), ((0, 1),), ((2, 1),), ((0, -1), (1, 1)),
                                      ((0, 1), (1, 1), (2, 1))],
                             ids=["root", "internal", "off-tree", "below-leaf", "too-deep"])
    def test_split_leaf_rejects_a_path_not_ending_at_a_leaf(self, path):
        tree = parse_tree("(split 1 (leaf 0) (split 2 (leaf 1) (leaf 0)))", 4)
        with pytest.raises(ValueError, match="path does not"):
            split_leaf(tree, path, 3)

    def test_tree_from_splits(self):
        tree = tree_from_splits(3, {(): 1}, {((1, -1),): 0, ((1, 1),): 1})
        assert evaluate_tree(tree, Point.from_signs([-1, 1, -1])) == 1

    def test_leaf_without_label_rejected(self):
        with pytest.raises(ValueError, match=r"leaf \(\(0, 1\),\) has no label"):
            tree_from_splits(2, {(): 0}, {((0, -1),): 0})

    @pytest.mark.parametrize("label", [2, -1, 0.5, "1"], ids=["2", "-1", "0.5", "str"])
    def test_label_outside_none_0_1_rejected(self, label):
        with pytest.raises(ValueError, match="leaf label must be None, 0 or 1"):
            tree_from_splits(2, {(): 0}, {((0, -1),): 0, ((0, 1),): label})

    @given(tree_seeds, st.integers(1, 30), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_tree_from_splits_orders_tables_canonically(self, seed, n_leaves, shuffler):
        # The labeled tree has the partial tree's shape: same rng, same draws.
        partial = random_partial_tree(np.random.default_rng(seed), 8, n_leaves)
        labeled = random_labeled_tree(seed, d=8, n_leaves=n_leaves)
        text_splits, text_leaves = text_order(serialize_tree(labeled))
        for tree in (partial, labeled):
            splits, labels = list(tree.splits.items()), list(tree.labels.items())
            # Entries the root cannot reach: a label on a split node, and a
            # split below a leaf.
            if splits:
                labels.append((splits[0][0], 0))
            splits.append((labels[0][0] + ((99, 1),), 99))
            shuffler.shuffle(splits)
            shuffler.shuffle(labels)
            rebuilt = tree_from_splits(tree.d, dict(splits), dict(labels))
            assert rebuilt == tree
            assert len(rebuilt.splits) == rebuilt.size - 1
            assert list(rebuilt.splits) == text_splits
            assert list(rebuilt.labels) == text_leaves
            keys = list(rebuilt.splits)
            assert all(keys.index(path[:-1]) < k for k, path in enumerate(keys) if path)

    @given(tree_seeds, st.integers(2, 30), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_random_tree_respects_bounds(self, seed, n_leaves, max_depth):
        rng = np.random.default_rng(seed)
        tree = random_partial_tree(rng, 8, n_leaves, max_depth)
        assert tree.size <= n_leaves
        assert tree.depth <= max_depth


class TestTextFormat:
    def test_canonical_forms(self):
        tree = tree_from_splits(2, {(): 0}, {((0, -1),): 0, ((0, 1),): 1})
        assert serialize_tree(tree) == "(split 1 (leaf 0) (leaf 1))"
        assert serialize_tree(tree_from_splits(1, {}, {(): 0})) == "(leaf 0)"

    def test_parse_canonical_identity(self):
        text = "(split 2 (leaf 1) (split 1 (leaf 0) (leaf 1)))"
        assert serialize_tree(parse_tree(text, 3)) == text

    def test_parse_tolerates_whitespace(self):
        text = "(split 1\n  (leaf 0)\n  (leaf 1))"
        assert serialize_tree(parse_tree(text, 2)) == "(split 1 (leaf 0) (leaf 1))"

    @given(tree_seeds)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_identity(self, seed):
        tree = random_labeled_tree(seed, d=8, n_leaves=12)
        assert parse_tree(serialize_tree(tree), 8) == tree

    @pytest.mark.parametrize("bad", [
        "(leaf 2)", "(split 0 (leaf 0) (leaf 1))", "(node)", "(leaf 0",
        "(leaf 0) junk", "(split 1 (leaf 0))",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_tree(bad, 3)

    def test_nesting_deeper_than_d_rejected(self):
        chain = "(split 1 (split 2 (split 3 (leaf 0) (leaf 1)) (leaf 1)) (leaf 0))"
        assert parse_tree(chain, 3).depth == 3
        with pytest.raises(ValueError, match="deeper than d=2"):
            parse_tree(chain, 2)
        # Deep enough to exhaust the interpreter's recursion limit unchecked.
        deep = "(split 1 " * 1200 + "(leaf 0)" + " (leaf 1))" * 1200
        with pytest.raises(ValueError, match="deeper than d=3"):
            parse_tree(deep, 3)
        with pytest.raises(ValueError, match="dimension"):
            parse_tree(deep, 5000)

    def test_unlabeled_not_serializable(self):
        with pytest.raises(ValueError):
            serialize_tree(tree_from_splits(1, {}, {(): None}))
