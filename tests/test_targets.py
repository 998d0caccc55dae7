import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.core import Point, RandomnessTape, UnlabeledDataset, mask_dtype
from treelab.targets import (Dictator, ExplicitTree, Majority, ReadOnceDNF,
                             Tribes, TruthTable, Xor, exact_error,
                             is_monotone, monte_carlo_error, parse_target,
                             random_monotone_tree_target, random_truth_table,
                             sample_dataset, sample_product_masks)
from treelab.trees import evaluate_tree, parse_tree, serialize_tree


class TestEvaluation:
    def test_dictator(self):
        f = Dictator(4, 0)
        assert f(Point.from_signs([1, -1, -1, -1])) == 1
        assert f(Point.from_signs([-1, 1, 1, 1])) == 0

    def test_majority(self):
        f = Majority(3)
        assert f(Point.from_signs([1, 1, -1])) == 1
        assert f(Point.from_signs([1, -1, -1])) == 0

    def test_tribes(self):
        f = Tribes(4, 2)
        assert f(Point.from_signs([1, 1, -1, -1])) == 1
        assert f(Point.from_signs([1, -1, 1, -1])) == 0
        assert f(Point.from_signs([-1, -1, 1, 1])) == 1

    def test_read_once_dnf(self):
        f = ReadOnceDNF(6, (frozenset({0}), frozenset({1, 2})))
        assert f(Point.from_signs([-1, 1, 1, -1, -1, -1])) == 1
        assert f(Point.from_signs([-1, 1, -1, -1, -1, -1])) == 0

    def test_dnf_rejects_overlap(self):
        with pytest.raises(ValueError):
            ReadOnceDNF(4, (frozenset({0, 1}), frozenset({1, 2})))

    def test_xor(self):
        f = Xor(3, frozenset({0, 2}))
        assert f(Point.from_signs([1, 1, -1])) == 1
        assert f(Point.from_signs([1, 1, 1])) == 0

    def test_truth_table(self):
        f = TruthTable(2, np.array([0, 1, 1, 0], np.uint8))
        assert f(Point(2, 0b01)) == 1 and f(Point(2, 0b11)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Dictator(4, 0)(Point(5, 0))

    def test_explicit_tree_matches_tree_evaluator(self):
        # Cross-evaluator check over the whole cube at d=8.
        rng = np.random.default_rng(17)
        target = random_monotone_tree_target(rng, d=8)
        for mask in range(256):
            x = Point(8, mask)
            assert target(x) == evaluate_tree(target.tree, x)


class TestMonotonicity:
    def test_majority_is_monotone(self):
        assert is_monotone(Majority(5))

    def test_xor_is_not(self):
        assert not is_monotone(Xor(2, frozenset({0, 1})))

    def test_read_once_dnf_is_monotone(self):
        assert is_monotone(ReadOnceDNF(6, (frozenset({0}), frozenset({1, 2}))))

    def test_antitone_coordinate_still_counts(self):
        # Non-increasing in its single coordinate: monotone by definition.
        f = TruthTable(1, np.array([1, 0], np.uint8))
        assert is_monotone(f)

    def test_mixed_direction_same_coordinate_is_not(self):
        f = TruthTable(2, np.array([0, 1, 1, 0], np.uint8))
        assert not is_monotone(f)


class TestSampling:
    def test_empty_dataset(self, tape):
        ds = sample_dataset(Majority(5), 0, tape)
        assert ds.n == 0

    def test_constant_target_all_ones(self, tape):
        f = TruthTable(4, np.ones(16, np.uint8))
        ds = sample_dataset(f, 100, tape)
        assert int(ds.labels.sum()) == 100

    def test_reproducible_under_key(self):
        a = sample_dataset(Majority(9), 1000, RandomnessTape(4), key="k")
        b = sample_dataset(Majority(9), 1000, RandomnessTape(4), key="k")
        c = sample_dataset(Majority(9), 1000, RandomnessTape(4), key="other")
        assert np.array_equal(a.masks, b.masks)
        assert not np.array_equal(a.masks, c.masks)

    def test_majority_mean_label_near_half(self, tape):
        # Pr[majority = 1] is exactly 1/2 for odd d by symmetry.
        ds = sample_dataset(Majority(9), 10 ** 5, tape)
        assert abs(float(ds.labels.mean()) - 0.5) < 0.01

    def test_product_masks_follow_bias(self, tape):
        bias = np.array([0.1, 0.5, 0.9])
        masks = sample_product_masks(bias, 20000, tape)
        bits = ((masks[:, None] >> np.arange(3, dtype=np.uint64)) & np.uint64(1))
        freq = bits.mean(axis=0)
        assert np.all(np.abs(freq - bias) < 0.02)

    @pytest.mark.parametrize("d", [10, 32, 33])
    def test_product_masks_in_the_mask_dtype(self, d):
        bias = np.linspace(0.1, 0.9, d)
        masks = sample_product_masks(bias, 500, RandomnessTape(3), key="w")
        assert masks.dtype == mask_dtype(d)
        assert UnlabeledDataset(d, masks).masks is masks
        bits = RandomnessTape(3).substream("product-dist", "w").random((500, d)) < bias
        assert masks.tolist() == [sum(1 << i for i in range(d) if row[i]) for row in bits]


class TestExactError:
    def test_tree_against_itself(self):
        rng = np.random.default_rng(3)
        target = random_monotone_tree_target(rng, d=6)
        assert exact_error(target, target.tree) == 0.0

    def test_constant_tree_against_dictator(self):
        tree = parse_tree("(leaf 0)", 4)
        assert exact_error(Dictator(4, 2), tree) == 0.5

    def test_complement_identity(self):
        rng = np.random.default_rng(9)
        f = random_truth_table(rng, 6)
        not_f = TruthTable(6, 1 - f.table)
        tree = random_monotone_tree_target(rng, d=6).tree
        assert exact_error(f, tree) + exact_error(not_f, tree) == 1.0

    def test_monte_carlo_agrees_with_enumeration(self, tape):
        rng = np.random.default_rng(11)
        f = random_truth_table(rng, 10)
        tree = random_monotone_tree_target(rng, d=10, n_leaves=16, max_depth=6).tree
        exact = exact_error(f, tree)
        sampled = monte_carlo_error(f, tree, 10 ** 6, tape)
        assert abs(sampled - exact) < 0.005

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_error(Dictator(4, 0), parse_tree("(leaf 0)", 5))


class TestRandomTargets:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_generator_output_is_monotone_and_balanced(self, seed):
        rng = np.random.default_rng(seed)
        target = random_monotone_tree_target(rng, d=8, n_leaves=12, max_depth=5)
        assert is_monotone(target)
        mean = float(target.eval_masks(np.arange(256, dtype=np.uint64)).mean())
        assert 0.125 <= mean <= 0.875

    def test_generator_deterministic(self):
        a = random_monotone_tree_target(np.random.default_rng(5), d=8)
        b = random_monotone_tree_target(np.random.default_rng(5), d=8)
        assert serialize_tree(a.tree) == serialize_tree(b.tree)


class TestSpecGrammar:
    def test_all_kinds(self, tmp_path):
        assert isinstance(parse_target("dictator:3", 8), Dictator)
        assert parse_target("dictator:3", 8).i == 2
        assert isinstance(parse_target("majority", 5), Majority)
        assert parse_target("tribes:4", 8).w == 4
        dnf = parse_target("dnf:1|2&3|4&5&6", 10)
        assert dnf.terms == (frozenset({0}), frozenset({1, 2}),
                             frozenset({3, 4, 5}))
        assert parse_target("xor:1,2", 4).coords == frozenset({0, 1})
        tree_file = tmp_path / "t.tree"
        tree_file.write_text("(split 1 (leaf 0) (leaf 1))")
        t = parse_target(f"tree:{tree_file}", 3)
        assert isinstance(t, ExplicitTree) and t.tree.size == 2

    @pytest.mark.parametrize("bad", ["mystery", "majority:3", "dictator:0",
                                     "dnf:1|1&2", "xor:"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_target(bad, 6)
