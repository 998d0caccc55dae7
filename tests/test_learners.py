import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treelab
from conftest import full_truth_table_dataset, monotone_target
from treelab.core import (LabeledDataset, LeafPools, Minibatch, RandomnessTape,
                          UnlabeledDataset)
from treelab.exhaustive import check_shallow_splits
from treelab.impurity import (GINI, ImpurityFunction, depth_cap, depth_limit,
                              g_impurity)
from treelab.learners import (GrowthState, LeafRecord, leaf_source,
                              minibatch_top_down, score_leaf, top_down_full,
                              top_down_size_estimate)
from treelab.targets import (Dictator, ReadOnceDNF, random_truth_table,
                             sample_dataset)
from treelab.trees import serialize_tree


class TestTopDownFull:
    def test_size_one_is_rounded_mean(self):
        ds = LabeledDataset(3, np.array([0, 1, 2], np.uint64),
                            np.array([1, 1, 0], np.uint8))
        res = top_down_full(1, ds, GINI)
        assert res.tree.size == 1
        assert serialize_tree(res.tree) == "(leaf 1)"

    def test_round_half_up(self):
        ds = LabeledDataset(2, np.array([0, 1], np.uint64),
                            np.array([0, 1], np.uint8))
        assert serialize_tree(top_down_full(1, ds, GINI).tree) == "(leaf 1)"

    def test_dictator_truth_table_splits_its_coordinate(self):
        ds = full_truth_table_dataset(Dictator(4, 0))
        res = top_down_full(2, ds, GINI)
        assert serialize_tree(res.tree) == "(split 1 (leaf 0) (leaf 1))"
        assert res.trace.entries[0].gain == 1.0

    def test_complete_tree_memorizes_any_function(self):
        rng = np.random.default_rng(8)
        f = random_truth_table(rng, 5)
        ds = full_truth_table_dataset(f)
        res = top_down_full(1 << 5, ds, GINI)
        from treelab.targets import exact_error
        assert exact_error(f, res.tree) == 0.0

    def test_invalid_inputs(self):
        ds = full_truth_table_dataset(Dictator(3, 0))
        with pytest.raises(ValueError):
            top_down_full(0, ds, GINI)
        with pytest.raises(ValueError):
            top_down_full(2, LabeledDataset(3, np.zeros(0, np.uint64),
                                            np.zeros(0, np.uint8)), GINI)


class TestMiniBatchTopDown:
    def test_matches_full_when_batches_cover_everything(self):
        # b >= n makes every leaf's batch the whole consistent set, and
        # t = 64 puts the depth cap at d, so both runs see identical state.
        d, t = 8, 64
        assert depth_cap(t) >= d
        for tgt_seed in range(3):
            target = monotone_target(900 + tgt_seed, d=d, n_leaves=14, max_depth=5)
            ds = full_truth_table_dataset(target)
            full = top_down_full(t, ds, GINI)
            for seed in range(5):
                mb = minibatch_top_down(t, 1 << d, ds, GINI, RandomnessTape(seed))
                assert serialize_tree(mb.tree) == serialize_tree(full.tree)

    def test_dictator_root_split_survives_batch_noise(self):
        # Gain gap 1 vs 0 dominates estimation noise at b = 64.
        wins = 0
        target = Dictator(6, 0)
        for seed in range(50):
            tape = RandomnessTape(seed)
            ds = sample_dataset(target, 4096, tape)
            res = minibatch_top_down(2, 64, ds, GINI, tape)
            wins += int(res.trace.entries[0].coord == 0)
        assert wins >= 49

    def test_depth_cap_respected(self):
        target = monotone_target(1, d=10, n_leaves=30, max_depth=9)
        tape = RandomnessTape(0)
        ds = sample_dataset(target, 8192, tape)
        res = minibatch_top_down(16, 32, ds, GINI, tape)
        cap = depth_cap(16)
        assert all(e.depth <= cap for e in res.trace)
        assert res.tree.depth <= cap + 1
        res.trace.validate()

    def test_size_is_exactly_min_t_reachable(self):
        from treelab.targets import Majority

        tape = RandomnessTape(3)
        ds = sample_dataset(Majority(10), 8192, tape)
        small = minibatch_top_down(8, 64, ds, GINI, tape)
        assert small.tree.size == 8
        huge = minibatch_top_down(10 ** 6, 64, ds, GINI, tape)
        # Ran out of splittable leaves: every iteration still grew the tree.
        assert huge.tree.size == len(huge.trace) + 1 < 10 ** 6

    def test_degenerate_inputs(self):
        ds = LabeledDataset(3, np.zeros(0, np.uint64), np.zeros(0, np.uint8))
        res = minibatch_top_down(4, 8, ds, GINI, RandomnessTape(0))
        assert serialize_tree(res.tree) == "(leaf 0)"
        ds2 = full_truth_table_dataset(Dictator(3, 1))
        assert minibatch_top_down(0, 8, ds2, GINI, RandomnessTape(0)).tree.size == 1

    def test_deterministic_replay(self):
        target = monotone_target(4, d=10, n_leaves=20, max_depth=7)
        runs = []
        for _ in range(2):
            tape = RandomnessTape(11)
            ds = sample_dataset(target, 4096, tape)
            res = minibatch_top_down(32, 64, ds, GINI, tape)
            buf = []
            for e in res.trace:
                buf.append((e.j, e.path, e.coord, e.gain, e.size_estimate))
            runs.append((serialize_tree(res.tree), tuple(buf)))
        assert runs[0] == runs[1]

    def test_cached_scores_equal_fresh_recomputation(self):
        target = monotone_target(5, d=10, n_leaves=20, max_depth=7)
        tape = RandomnessTape(2)
        ds = sample_dataset(target, 4096, tape)
        res = minibatch_top_down(32, 64, ds, GINI, tape)
        for rec in res.growth.frontier.values():
            coord, gain = score_leaf(GINI, rec.batch, ds.d)
            assert (coord, gain) == (rec.best_coord, rec.best_local_gain)

    def test_trace_passes_shallow_split_bound(self):
        for seed in range(5):
            target = monotone_target(30 + seed, d=12, n_leaves=40, max_depth=10)
            tape = RandomnessTape(seed)
            ds = sample_dataset(target, 8192, tape)
            res = minibatch_top_down(64, 64, ds, GINI, tape)
            assert check_shallow_splits(res.trace)

    def test_potential_drops_by_recorded_gain_under_exact_scores(self):
        # With the full truth table as the dataset and b covering it, every
        # estimated gain is the exact gain, so the tree potential telescopes
        # along the trace and strictly decreases on positive-gain splits.
        target = monotone_target(6, d=8, n_leaves=12, max_depth=5)
        ds = full_truth_table_dataset(target)
        tape = RandomnessTape(0)
        res = minibatch_top_down(16, 1 << 8, ds, GINI, tape)
        from treelab.trees import split_leaf, tree_from_splits

        tree = tree_from_splits(8, {}, {(): None})
        pot = g_impurity(GINI, target, tree)
        for e in res.trace:
            tree = split_leaf(tree, e.path, e.coord)
            new_pot = g_impurity(GINI, target, tree)
            assert new_pot == pytest.approx(pot - e.gain, abs=1e-12)
            if e.gain > 0:
                assert new_pot < pot
            pot = new_pot


class TestArgmaxTieBreaking:
    def test_scaling_impurity_keeps_argmax(self):
        # Positive scaling of g scales every gain equally, so the argmax
        # (leaf, coordinate) pair is invariant, ties included.  Dyadic
        # scales keep the multiplication exact in binary floating point;
        # other scales could merge one-ulp-apart gains into ties.
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(100):
            d = 8
            records = []
            for _ in range(int(rng.integers(2, 6))):
                k = int(rng.integers(2, 40))
                depth = int(rng.integers(0, 5))
                path = tuple((int(c), 1) for c in rng.permutation(d)[:depth])
                masks = rng.integers(0, 1 << d, size=k, dtype=np.uint64)
                labels = rng.integers(0, 2, size=k).astype(np.uint8)
                records.append(Minibatch(path, np.arange(k), masks, labels))
            for scale in (0.25, 0.5, 2.0):
                scaled = ImpurityFunction("scaled", lambda p, s=scale: s * np.asarray(GINI(p)),
                                          C=4.0, alpha=1.0, kappa=8.0)
                picks = []
                for g in (GINI, scaled):
                    recs = []
                    for batch in records:
                        coord, gain = score_leaf(g, batch, d)
                        if coord is not None:
                            recs.append(LeafRecord(batch.leaf_path, batch, coord, gain))
                    if not recs:
                        picks.append(None)
                        continue
                    best = min(recs, key=lambda r: r.priority)
                    picks.append((best.path, best.best_coord))
                assert picks[0] == picks[1]
                checked += 1
        assert checked == 300

    def test_tie_breaks_prefer_smaller_path_then_coordinate(self):
        # Two leaves with identical positive gains: the lexicographically
        # smaller path wins; within a leaf, the smaller coordinate wins.
        masks = np.array([0b00, 0b01, 0b10, 0b11], np.uint64)
        labels = np.array([0, 1, 0, 1], np.uint8)  # dictator on coord 0
        left = Minibatch(((2, -1),), np.arange(4), masks, labels)
        right = Minibatch(((2, 1),), np.arange(4), masks, labels)
        recs = []
        for batch in (right, left):
            coord, gain = score_leaf(GINI, batch, 3)
            recs.append(LeafRecord(batch.leaf_path, batch, coord, gain))
        best = min(recs, key=lambda r: r.priority)
        assert best.path == ((2, -1),)
        assert best.best_coord == 0  # coords 0 and 1 tie... 0 is smaller


class TestLeafSource:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_full_batch_record_is_every_consistent_point(self, seed):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(1, 8)), int(rng.integers(1, 300))
        ds = LabeledDataset(d, rng.integers(0, 1 << d, n, dtype=np.uint64),
                            rng.integers(0, 2, n, dtype=np.uint8))
        res = top_down_full(int(rng.integers(1, 16)), ds, GINI)
        record = leaf_source(ds, GINI, ds.n, None)
        for path in [*res.growth.splits, *res.growth.leaves]:
            rec = record(path)
            # The earlier full-batch record, kept here as the reference.
            pool = LeafPools(ds, ds.n)(path).indices
            old = Minibatch(path, pool, ds.masks[pool], ds.labels[pool])
            assert rec.batch.leaf_path == rec.path == path
            for got, want in ((rec.batch.indices, old.indices),
                              (rec.batch.masks, old.masks),
                              (rec.batch.labels, old.labels)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (rec.best_coord, rec.best_local_gain) == score_leaf(GINI, old, d)

    def test_full_batch_root_batch_is_the_dataset(self, monkeypatch):
        rng = np.random.default_rng(3)
        ds = LabeledDataset(8, rng.integers(0, 256, 400, dtype=np.uint64),
                            rng.integers(0, 2, 400, dtype=np.uint8))
        batches, draw = {}, treelab.learners.draw_minibatch

        def kept(dataset, path, *args, **kwargs):
            batches[path] = draw(dataset, path, *args, **kwargs)
            return batches[path]

        monkeypatch.setattr(treelab.learners, "draw_minibatch", kept)
        top_down_full(8, ds, GINI)
        root = batches[()]
        assert np.shares_memory(root.masks, ds.masks)
        assert np.shares_memory(root.labels, ds.labels)
        assert root.indices.tolist() == list(range(ds.n))

    @pytest.mark.parametrize("learn", [
        lambda ds, tape: top_down_full(8, ds, GINI),
        lambda ds, tape: minibatch_top_down(8, 16, ds, GINI, tape),
        lambda ds, tape: top_down_size_estimate(8, 16, ds, GINI, tape),
    ], ids=["full", "minibatch", "size-estimate"])
    def test_unlabeled_dataset_without_oracle_rejected(self, learn):
        ds = UnlabeledDataset(6, np.arange(64))
        with pytest.raises(ValueError, match="labeled dataset or a label oracle"):
            learn(ds, RandomnessTape(1))


class TestFrontierHeap:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None, 0, 2, 4]),
           st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_best_equals_linear_min_over_frontier(self, seed, limit, watched, full):
        # A truth table over few coordinates gives many tied gains, so the
        # order often rests on the path tie-break.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 8))
        ds = full_truth_table_dataset(random_truth_table(rng, d))
        tape = RandomnessTape(seed)
        source = leaf_source(ds, GINI, ds.n if full else int(rng.integers(2, 32)), tape)
        skip = int(rng.integers(0, d))
        watch = (lambda path: (skip, -1) not in path) if watched else None
        g = GrowthState(d, source, limit, watch)
        order = []
        while True:
            rec = g.best()
            if rec is None:
                assert not g.frontier
                break
            # The earlier selection rule, kept here as the reference.
            assert rec is min(g.frontier.values(), key=lambda r: r.priority)
            order.append(rec.path)
            g.apply(rec)
        assert len(order) == len(g.splits) == len(set(order))


class TestTraceDepthCap:
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_capped_learner_traces_validate(self, seed, chain):
        # With full batches, the AND of all coordinates grows a chain whose
        # splits reach the cap.
        rng = np.random.default_rng(seed)
        d, t = int(rng.integers(2, 11)), int(rng.integers(2, 80))
        target = ReadOnceDNF(d, (range(d),)) if chain else random_truth_table(rng, d)
        ds = full_truth_table_dataset(target)
        b = ds.n if chain else int(rng.integers(1, 64))
        tape = RandomnessTape(seed)
        for res in (minibatch_top_down(t, b, ds, GINI, tape),
                    top_down_size_estimate(t, b, ds, GINI, tape)):
            assert res.trace.depth_cap == depth_limit(t)
            res.trace.validate()


class TestTopDownSizeEstimate:
    def test_t_one_stops_immediately(self):
        ds = full_truth_table_dataset(Dictator(4, 0))
        res = top_down_size_estimate(1, 8, ds, GINI, RandomnessTape(0))
        assert res.tree.size == 1 and len(res.trace) == 0
        assert res.size_estimate == 1.0

    def test_exact_strands_stop_at_exactly_t(self):
        # top_down_size_estimate's growth with the whole cube as the strand
        # multiset: the estimate equals the true size after every split, so
        # the loop stops at size t exactly.
        from treelab.core import StrandTracker
        from treelab.targets import Majority

        d, t = 8, 20
        ds = full_truth_table_dataset(Majority(d))
        g = GrowthState(d, leaf_source(ds, GINI, 64, RandomnessTape(1)), depth_limit(t))
        estimate = g.grow(t, StrandTracker(np.arange(1 << d, dtype=np.uint64)))
        assert g.complete().size == t
        assert estimate == float(t)

    def test_trace_estimate_matches_recomputation(self):
        from treelab.local import estimate_size

        target = monotone_target(8, d=10, n_leaves=30, max_depth=8)
        tape = RandomnessTape(5)
        ds = sample_dataset(target, 8192, tape)
        res = top_down_size_estimate(32, 64, ds, GINI, tape)
        strands = tape.uniform_masks(10, 64, "strands")
        final_partial_estimate = estimate_size(res.tree, strands)
        assert res.trace.entries[-1].size_estimate == final_partial_estimate
        assert res.size_estimate >= 32 or len(res.growth.frontier) == 0


class TestScanCost:
    """Each leaf's pool is filtered from its parent's, so a run scans at most
    2n points per level (each depth-1 leaf scans all n), not n per leaf."""

    @pytest.mark.parametrize("seed, t", [(0, 16), (1, 64), (2, 128)])
    def test_minibatch_scans_n_per_level(self, points_scanned, seed, t):
        tape = RandomnessTape(seed)
        ds = sample_dataset(random_truth_table(np.random.default_rng(seed), 12), 4096, tape)
        res = minibatch_top_down(t, 32, ds, GINI, tape)
        assert res.tree.size == t
        assert points_scanned[0] <= ds.n * (2 * depth_limit(t) + 3)

    @pytest.mark.parametrize("seed, t", [(0, 32), (1, 128)])
    def test_full_scans_n_per_level(self, points_scanned, seed, t):
        rng = np.random.default_rng(seed)
        ds = sample_dataset(random_truth_table(rng, 12), 4096, RandomnessTape(seed))
        res = top_down_full(t, ds, GINI)
        assert res.tree.size == t
        deepest = max(e.depth for e in res.trace)
        assert points_scanned[0] <= ds.n * (2 * deepest + 3)
