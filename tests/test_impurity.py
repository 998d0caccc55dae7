import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab import impurity
from treelab.core import BLOCK_ROWS, MAX_DIM, Minibatch
from treelab.exhaustive import local_gain_reference
from treelab.impurity import (ENTROPY, GINI, HISTOGRAM_ROWS,
                              KEARNS_MANSOUR, TheoryParams,
                              batch_local_gains, builtin_impurities, depth_cap,
                              g_impurity, get_impurity, local_gain, purity_gain,
                              recommended_params, strand_count_for_accuracy,
                              true_local_gain, true_purity_gain)
from treelab.targets import Dictator, Majority, Xor, random_truth_table
from treelab.trees import tree_from_splits

GRID = np.linspace(0.0, 1.0, 1025)


class TestBuiltins:
    def test_lookup_by_name(self):
        assert [g.name for g in builtin_impurities()] == \
            ["gini", "entropy", "kearns-mansour"]
        assert get_impurity("entropy") is ENTROPY
        with pytest.raises(ValueError):
            get_impurity("twoing")

    def test_gini_values(self):
        assert GINI(0.5) == 1.0
        assert GINI(0.0) == 0.0 and GINI(1.0) == 0.0
        assert GINI.C == 4.0 and GINI.alpha == 1.0 and GINI.kappa == 8.0

    def test_entropy_quarter_point(self):
        # Closed form: 2 - (3/4) log2 3.
        assert ENTROPY(0.25) == pytest.approx(0.8112781244591329, abs=1e-12)
        assert ENTROPY(0.0) == 0.0 and ENTROPY(1.0) == 0.0

    def test_kearns_mansour_endpoints(self):
        assert KEARNS_MANSOUR(0.0) == 0.0
        assert KEARNS_MANSOUR(0.5) == 1.0

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            GINI(1.5)

    def test_gini_curvature_constant(self):
        # The recorded kappa=8 is the (constant) magnitude of the second
        # derivative; finite differences recover it exactly for a quadratic.
        h = 1.0 / 64
        for p in (0.25, 0.5, 0.625):
            second = (GINI(p + h) - 2 * GINI(p) + GINI(p - h)) / (h * h)
            assert second == pytest.approx(-8.0, abs=1e-9)

    @pytest.mark.parametrize("g,kappa", [(ENTROPY, ENTROPY.kappa),
                                         (KEARNS_MANSOUR, KEARNS_MANSOUR.kappa)])
    def test_midpoint_strong_concavity_on_grid(self, g, kappa):
        a, b = np.meshgrid(GRID[::8], GRID[::8])
        lhs = (np.asarray(g(a)) + np.asarray(g(b))) / 2.0
        rhs = np.asarray(g((a + b) / 2.0)) - (kappa / 2.0) * (b - a) ** 2
        assert float(np.max(lhs - rhs)) <= 1e-12


class TestAxiomGrid:
    """The four structural requirements, on the 1025-point grid."""

    @pytest.mark.parametrize("g", builtin_impurities(), ids=lambda g: g.name)
    def test_normalization(self, g):
        assert abs(float(g(0.0))) <= 1e-12
        assert abs(float(g(1.0))) <= 1e-12
        assert abs(float(g(0.5)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("g", builtin_impurities(), ids=lambda g: g.name)
    def test_symmetry(self, g):
        vals = np.asarray(g(GRID))
        assert float(np.max(np.abs(vals - vals[::-1]))) <= 1e-12

    @pytest.mark.parametrize("g", builtin_impurities(), ids=lambda g: g.name)
    def test_midpoint_concavity_all_pairs(self, g):
        a, b = np.meshgrid(GRID, GRID)
        gap = np.asarray(g((a + b) / 2.0)) - (np.asarray(g(a)) + np.asarray(g(b))) / 2.0
        assert float(gap.min()) >= -1e-12

    @pytest.mark.parametrize("g", builtin_impurities(), ids=lambda g: g.name)
    def test_hoelder_all_pairs(self, g):
        a, b = np.meshgrid(GRID, GRID)
        excess = np.abs(np.asarray(g(a)) - np.asarray(g(b))) \
            - g.C * np.abs(a - b) ** g.alpha
        assert float(excess.max()) <= 1e-9


def _full_table_batch(target):
    masks = np.arange(1 << target.d, dtype=np.uint64)
    return Minibatch((), np.arange(1 << target.d), masks, target.eval_masks(masks))


class TestLocalGain:
    def test_dictator_truth_table(self):
        batch = _full_table_batch(Dictator(2, 0))
        assert local_gain(GINI, batch, 0) == 1.0

    def test_xor_truth_table_zero_for_any_impurity(self):
        batch = _full_table_batch(Xor(2, frozenset({0, 1})))
        for g in builtin_impurities():
            assert local_gain(g, batch, 0) == 0.0

    def test_empty_batch_rejected(self):
        empty = Minibatch((), np.zeros(0, np.int64), np.zeros(0, np.uint64),
                          np.zeros(0, np.uint8))
        with pytest.raises(ValueError):
            local_gain(GINI, empty, 0)

    def test_one_sided_batch_returns_zero(self):
        batch = Minibatch((), np.arange(2), np.array([0b01, 0b01], np.uint64),
                          np.array([0, 1], np.uint8))
        assert local_gain(GINI, batch, 0) == 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_straight_from_definition_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        d = 6
        masks = rng.integers(0, 1 << d, size=64, dtype=np.uint64)
        labels = rng.integers(0, 2, size=64).astype(np.uint8)
        batch = Minibatch((), np.arange(64), masks, labels)
        for g in builtin_impurities():
            for i in range(d):
                assert local_gain(g, batch, i) == pytest.approx(
                    local_gain_reference(g, batch, i), abs=1e-12)

    def test_vectorized_gains_match_single(self):
        rng = np.random.default_rng(5)
        masks = rng.integers(0, 64, size=50, dtype=np.uint64)
        labels = rng.integers(0, 2, size=50).astype(np.uint8)
        batch = Minibatch((), np.arange(50), masks, labels)
        gains = batch_local_gains(GINI, masks, labels, 6)
        for i in range(6):
            assert gains[i] == local_gain(GINI, batch, i)


def _int64_gains(impurity, masks, labels, d):
    """The earlier counting: an n x d int64 bit matrix and its product with
    the labels, kept as the reference the packed-bit counting must match."""
    k = len(masks)
    bits = ((np.asarray(masks, np.uint64)[:, None] >> np.arange(d, dtype=np.uint64))
            & np.uint64(1)).astype(np.int64)
    y = np.asarray(labels, np.int64)
    n_pos = bits.sum(axis=0)
    n_neg = k - n_pos
    s_pos = (bits * y[:, None]).sum(axis=0)
    ones = int(y.sum())
    s_neg = ones - s_pos
    p_pos = np.divide(s_pos, n_pos, out=np.zeros(d), where=n_pos > 0)
    p_neg = np.divide(s_neg, n_neg, out=np.zeros(d), where=n_neg > 0)
    g = impurity.g
    gains = g(ones / k) - 0.5 * g(p_neg) - 0.5 * g(p_pos)
    gains[(n_pos == 0) | (n_neg == 0)] = 0.0
    return gains


class TestGainCounting:
    """batch_local_gains equals the int64 reference bit for bit (labels in
    {0, 1}), so split decisions do not move."""

    def test_every_dimension_batch_size_and_impurity(self):
        rng = np.random.default_rng(2024)
        for d in range(1, MAX_DIM + 1):
            for k in (1, 2, 7, 130):
                masks = rng.integers(0, 1 << d, size=k, dtype=np.uint64)
                # Constant columns: one coordinate always +1, one always -1.
                hi, lo = rng.integers(0, d, size=2)
                masks |= np.uint64(1 << int(hi))
                if lo != hi:
                    masks &= ~np.uint64(1 << int(lo))
                labels = rng.integers(0, 2, size=k).astype(np.uint8)
                for g in builtin_impurities():
                    got = batch_local_gains(g, masks, labels, d)
                    assert got.tobytes() == _int64_gains(g, masks, labels, d).tobytes(), (d, k)

    def test_bits_above_d_are_ignored(self):
        # local_gain evaluates coordinate i with d=i+1, so the masks carry
        # set bits above d.
        rng = np.random.default_rng(7)
        masks = rng.integers(0, 1 << MAX_DIM, size=90, dtype=np.uint64)
        labels = rng.integers(0, 2, size=90).astype(np.uint8)
        batch = Minibatch((), np.arange(90), masks, labels)
        for g in builtin_impurities():
            for i in range(MAX_DIM):
                want = _int64_gains(g, masks, labels, i + 1)
                assert batch_local_gains(g, masks, labels, i + 1).tobytes() == want.tobytes()
                assert local_gain(g, batch, i) == want[i]


    @pytest.mark.parametrize("k", [HISTOGRAM_ROWS - 1, HISTOGRAM_ROWS,
                                   3 * HISTOGRAM_ROWS + 5])
    def test_histogram_counts_equal_unpacked_counts(self, k, monkeypatch):
        # Batches of HISTOGRAM_ROWS rows or more are counted by byte
        # histograms; raising the threshold above k forces the unpacked
        # bit matrix on the same batch.
        rng = np.random.default_rng(k)
        for d in range(1, MAX_DIM + 1):
            # Full 64-bit masks: bits at and above d must be ignored.
            masks = rng.integers(0, 1 << 63, size=k, dtype=np.uint64) << np.uint64(1)
            masks |= rng.integers(0, 2, size=k, dtype=np.uint64)
            hi, lo = rng.integers(0, d, size=2)
            masks |= np.uint64(1 << int(hi))
            if lo != hi:
                masks &= ~np.uint64(1 << int(lo))
            for labels in (rng.integers(0, 2, size=k), np.zeros(k), np.ones(k)):
                labels = labels.astype(np.uint8)
                for g in builtin_impurities():
                    got = batch_local_gains(g, masks, labels, d)
                    with monkeypatch.context() as m:
                        m.setattr(impurity, "HISTOGRAM_ROWS", k + 1)
                        unpacked = batch_local_gains(g, masks, labels, d)
                    assert got.dtype == unpacked.dtype == np.float64
                    assert got.tobytes() == unpacked.tobytes(), (d, k)
                    assert got.tobytes() == _int64_gains(g, masks, labels, d).tobytes()

    @pytest.mark.parametrize("k", [1023, 1024, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
    def test_block_counts_equal_per_coordinate_counts(self, k):
        # Histograms are summed over blocks of BLOCK_ROWS rows; partial
        # and exact last blocks must count every row once.
        rng = np.random.default_rng(k)
        masks = rng.integers(0, 1 << 63, size=k, dtype=np.uint64) << np.uint64(1)
        labels = rng.integers(0, 2, size=k).astype(np.uint8)
        for d in (1, 8, 9, 20):
            for g in builtin_impurities():
                got = batch_local_gains(g, masks, labels, d)
                assert got.tobytes() == _int64_gains(g, masks, labels, d).tobytes(), (d, k)

    def test_counting_memory_does_not_grow_with_batch_size(self):
        rng = np.random.default_rng(11)
        k, d = 1 << 20, 20
        masks = rng.integers(0, 1 << d, size=k, dtype=np.uint64)
        labels = rng.integers(0, 2, size=k).astype(np.uint8)
        tracemalloc.start()
        try:
            batch_local_gains(GINI, masks, labels, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestPurityGain:
    def test_depth_zero_identity(self):
        batch = _full_table_batch(Dictator(2, 0))
        assert purity_gain(GINI, batch, 0, 0) == 1.0

    def test_depth_scaling_is_exact(self):
        batch = _full_table_batch(Dictator(2, 0))
        g1 = local_gain(GINI, batch, 1)
        assert purity_gain(GINI, batch, 3, 1) == math.ldexp(g1, -3)
        # 2^-3 * 0.5 = 0.0625 style arithmetic check on a synthetic value
        assert math.ldexp(0.5, -3) == 0.0625


class TestTrueGain:
    def test_dictator_root(self):
        f = Dictator(4, 0)
        assert true_local_gain(GINI, f, (), 0) == 1.0
        for g in builtin_impurities():
            for i in (1, 2, 3):
                assert true_local_gain(g, f, (), i) == 0.0

    def test_majority3_root(self):
        # Conditional means 1/4 and 3/4; Gini gives 1 - G(1/4) = 1/4.
        assert true_local_gain(GINI, Majority(3), (), 0) == pytest.approx(0.25, abs=1e-15)

    def test_coordinate_on_path_rejected(self):
        with pytest.raises(ValueError):
            true_local_gain(GINI, Dictator(4, 0), ((1, 1),), 1)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_exact_gain_nonnegative(self, seed):
        # Concavity: gains computed from exact conditional means can't be
        # negative, for any function.
        rng = np.random.default_rng(seed)
        f = random_truth_table(rng, 5)
        path = ((int(rng.integers(5)), 1),)
        free = [i for i in range(5) if i != path[0][0]]
        i = int(rng.choice(free))
        for g in builtin_impurities():
            assert true_local_gain(g, f, path, i) >= -1e-15


class TestGImpurity:
    def test_balanced_root(self):
        f = Xor(3, frozenset({0, 1}))  # mean exactly 1/2
        assert g_impurity(GINI, f, tree_from_splits(3, {}, {(): None})) == 1.0

    def test_pure_after_dictator_split(self):
        f = Dictator(3, 0)
        tree = tree_from_splits(3, {(): 0}, {((0, -1),): None, ((0, 1),): None})
        assert g_impurity(GINI, f, tree) == 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_split_telescopes_exactly(self, seed):
        from treelab.trees import random_partial_tree, split_leaf

        rng = np.random.default_rng(seed)
        d = 8
        tree = random_partial_tree(rng, d, n_leaves=int(rng.integers(1, 8)))
        f = random_truth_table(rng, d)
        leaves = list(tree.labels)
        path = leaves[int(rng.integers(len(leaves)))]
        free = [i for i in range(d) if i not in {c for c, _ in path}]
        coord = int(rng.choice(free))
        g = builtin_impurities()[seed % 3]
        before = g_impurity(g, f, tree)
        after = g_impurity(g, f, split_leaf(tree, path, coord))
        assert after == pytest.approx(before - true_purity_gain(g, f, path, coord),
                                      abs=1e-12)


class TestRecommendedParams:
    def _params(self, **kw):
        base = dict(s=8, t=32, eps=0.25, delta=0.1, eta=0.25, d=12)
        base.update(kw)
        return TheoryParams(**base)

    def test_depth_cap_power_of_two(self):
        assert depth_cap(16) == 6
        assert depth_cap(1024) == 13
        assert depth_cap(2) == 1

    def test_depth_cap_needs_t_at_least_two(self):
        with pytest.raises(ValueError):
            depth_cap(1)

    def test_strand_count_example(self):
        # reach 8, accuracy 1, failure 0.1: ceil(32 ln 20) = 96.
        assert strand_count_for_accuracy(3, 1.0, 0.1) == 96

    def test_delta_gain_formula(self):
        rec = recommended_params(self._params(s=4), GINI)
        assert rec.delta_gain == pytest.approx(8 / 320 * (0.25 / 2) ** 2, abs=1e-15)

    def test_b_local_formula(self):
        rec = recommended_params(self._params(), GINI)
        assert rec.b_local == math.ceil((math.log2(32) / 0.25) ** 2
                                        * math.log2(32 / 0.1))

    def test_b_min_floor(self):
        rec = recommended_params(self._params(), GINI)
        assert rec.b_min >= math.ceil(8 * math.log(9 * 32 * 12 / 0.1))

    def test_slack_scales_up(self):
        lo = recommended_params(self._params(), GINI)
        hi = recommended_params(self._params(slack_b=4.0, slack_n=2.0), GINI)
        assert hi.b > lo.b and hi.n > lo.n
        assert hi.D == lo.D

    def test_validation(self):
        with pytest.raises(ValueError):
            TheoryParams(s=1, t=32, eps=0.25, delta=0.1, eta=0.25, d=12)
        with pytest.raises(ValueError):
            self._params(eps=0.7)
        with pytest.raises(ValueError):
            self._params(t=1)
