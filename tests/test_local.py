import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treelab.core
import treelab.learners
from conftest import monotone_target
from treelab.core import (LabeledDataset, LabelOracle, Point, RandomnessTape,
                          path_constraint)
from treelab.estimator import estimate_error
from treelab.exhaustive import exact_size_expectation
from treelab.impurity import GINI, depth_cap, depth_limit
from treelab.learners import (GrowthState, minibatch_top_down, top_down_full,
                              top_down_size_estimate)
from treelab.local import LocalLearnerSession, estimate_size, local_learner
from treelab.targets import Majority, random_truth_table, sample_dataset
from treelab.trees import evaluate_masks, leaf_of, parse_tree, random_partial_tree


class TestEstimateSize:
    def test_single_leaf_any_strands(self):
        tree = parse_tree("(leaf 0)", 4)
        assert estimate_size(tree, np.arange(16, dtype=np.uint64)) == 1.0
        assert estimate_size(tree, [Point(4, 3)]) == 1.0

    def test_full_cube_gives_exact_size(self):
        # Depth profile {1, 2, 2}: mean of 2^depth over the cube is 3.
        tree = parse_tree("(split 1 (leaf 0) (split 2 (leaf 0) (leaf 1)))", 2)
        assert estimate_size(tree, np.arange(4, dtype=np.uint64)) == 3.0

    def test_empty_strands_rejected(self):
        with pytest.raises(ValueError):
            estimate_size(parse_tree("(leaf 0)", 2), [])

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_brute_force_mean(self, seed, d, data):
        rng = np.random.default_rng(seed)
        tree = random_partial_tree(rng, d, int(rng.integers(1, 40)))
        masks = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=30))
        masks += masks[:len(masks) // 2]
        # The earlier formula, kept here as the reference.
        want = sum(1 << len(leaf_of(tree, Point(d, m))) for m in masks) / len(masks)
        assert estimate_size(tree, masks) == want
        assert estimate_size(tree, [Point(d, m) for m in masks]) == want
        assert estimate_size(tree, np.array(masks, np.uint64)) == want
        assert estimate_size(tree, np.array(masks, np.int64)) == want
        assert estimate_size(tree, [np.uint64(m) for m in masks]) == want

    @pytest.mark.parametrize("points", [
        [Point(6, 63), Point(6, 1)],
        [2 ** 40 + 3, 16],
        np.array([2 ** 40 + 3, 16], np.uint64),
        [16],
        [-1],
        np.array([3, -1]),
        [2.0],
        np.array([1.0, 3.0]),
        ["3"],
    ])
    def test_points_outside_the_cube_rejected(self, points):
        tree = parse_tree("(split 1 (leaf 0) (split 3 (leaf 0) (leaf 1)))", 4)
        with pytest.raises(ValueError):
            estimate_size(tree, points)

    def test_unbiased_over_full_cube_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tree = random_partial_tree(rng, 10, int(rng.integers(1, 30)))
            full = estimate_size(tree, np.arange(1 << 10, dtype=np.uint64))
            assert full == exact_size_expectation(tree) == tree.size

    def test_concentration_at_recommended_count(self):
        # Small-scale version of the +-Delta guarantee: failures stay under
        # twice the failure budget.
        from treelab.impurity import strand_count_for_accuracy

        rng = np.random.default_rng(1)
        failures = 0
        trials = 100
        for trial in range(trials):
            tree = random_partial_tree(rng, 12, int(rng.integers(2, 24)),
                                       max_depth=6)
            m = strand_count_for_accuracy(tree.depth, 2.0, 0.1)
            strands = RandomnessTape(trial).uniform_masks(12, m, "strand-test")
            failures += int(abs(estimate_size(tree, strands) - tree.size) > 2.0)
        assert failures <= 2 * 0.1 * trials


def _setup(seed, d=12, n=4096, t=32, b=64):
    target = monotone_target(seed, d=d)
    tape = RandomnessTape(seed)
    labeled = sample_dataset(target, n, tape)
    oracle = LabelOracle(target, labeled.unlabeled())
    return target, tape, labeled, oracle


class TestLocalLearner:
    def test_t_one_returns_root_batch_label(self):
        target, tape, labeled, oracle = _setup(0)
        got = local_learner(1, 64, labeled.unlabeled(), oracle, Point(12, 5), GINI, tape)
        glob = top_down_size_estimate(1, 64, labeled, GINI, tape)
        assert got == evaluate_masks(glob.tree, np.array([5], np.uint64))[0]

    def test_agrees_with_global_tree_everywhere(self):
        # t in {1, 2} stops at or right after the root; b <= 4 makes most
        # gain estimates tie, so the path and coordinate tie-breaks decide.
        cases = [(seed, 32, 64) for seed in range(3)] + [(3, 1, 64), (4, 2, 64),
                                                         (10, 32, 4), (11, 16, 2)]
        for seed, t, b in cases:
            target, tape, labeled, oracle = _setup(seed)
            glob = top_down_size_estimate(t, b, labeled, GINI, tape)
            session = LocalLearnerSession(t, b, labeled.unlabeled(), oracle,
                                          GINI, tape)
            xs = tape.uniform_masks(12, 100, "probe")
            want = evaluate_masks(glob.tree, xs)
            got = np.array([session.predict(int(m)) for m in xs])
            assert np.array_equal(got, want)

    def test_standalone_label_budget(self):
        # One fresh call stays within ((b+1) D + 1) b labels.
        t, b = 32, 64
        D = depth_cap(t)
        for seed in range(5):
            target, tape, labeled, oracle = _setup(seed)
            local_learner(t, b, labeled.unlabeled(), oracle, Point(12, seed), GINI, tape)
            assert oracle.query_count <= ((b + 1) * D + 1) * b

    def test_split_choices_match_global_run(self):
        target, tape, labeled, oracle = _setup(1)
        glob = top_down_size_estimate(32, 64, labeled, GINI, tape)
        session = LocalLearnerSession(32, 64, labeled.unlabeled(), oracle, GINI, tape)
        for m in tape.uniform_masks(12, 50, "probe"):
            session.predict(int(m))
        for path, coord in session.split_choices.items():
            assert glob.growth.splits[path] == coord

    def test_local_trace_is_strand_restriction_of_global(self):
        from treelab.core import point_reaches

        target, tape, labeled, oracle = _setup(2)
        glob = top_down_size_estimate(32, 64, labeled, GINI, tape)
        session = LocalLearnerSession(32, 64, labeled.unlabeled(), oracle, GINI, tape)
        x_mask = 123
        session.predict(x_mask)
        pool = list(session.strand_masks) + [x_mask]
        expected = [
            (e.path, e.coord) for e in glob.trace
            if any(point_reaches(int(m), e.path) for m in pool)
        ]
        got = [(path, coord) for path, coord, _ in session.last_trace]
        assert got == expected

    def test_each_leaf_is_fetched_once(self, monkeypatch):
        target, tape, labeled, oracle = _setup(6)
        drawn, draw = [], treelab.learners.draw_minibatch

        def counted(dataset, path, *args, **kwargs):
            drawn.append(path)
            return draw(dataset, path, *args, **kwargs)

        monkeypatch.setattr(treelab.learners, "draw_minibatch", counted)
        session = LocalLearnerSession(32, 64, labeled.unlabeled(), oracle, GINI, tape)
        for m in tape.uniform_masks(12, 50, "probe"):
            session.predict(int(m))
        assert 0 < len(drawn) == len(set(drawn)) == oracle.batches_drawn

    def test_repeat_predict_costs_no_labels(self):
        target, tape, labeled, oracle = _setup(3)
        session = LocalLearnerSession(32, 64, labeled.unlabeled(), oracle, GINI, tape)
        first = session.predict(77)
        before = oracle.query_count
        assert session.predict(77) == first
        assert oracle.query_count == before

    def test_new_point_costs_at_most_one_strand(self):
        target, tape, labeled, oracle = _setup(4)
        session = LocalLearnerSession(32, 64, labeled.unlabeled(), oracle, GINI, tape)
        session.predict(0)
        D = depth_cap(32)
        for m in (5, 99, 2048, 4000):
            before = oracle.query_count
            session.predict(m)
            assert oracle.query_count - before <= (D + 1) * 64

    def test_label_complexity_sublinear_in_dataset(self):
        target = monotone_target(5, d=12)
        tape = RandomnessTape(9)
        big = sample_dataset(target, 65536, tape).unlabeled()
        oracle = LabelOracle(target, big)
        local_learner(32, 64, big, oracle, Point(12, 11), GINI, tape)
        assert oracle.query_count < big.n / 4

    def test_empty_dataset_returns_zero(self):
        from treelab.core import UnlabeledDataset

        target = Majority(5)
        empty = UnlabeledDataset(5, np.zeros(0, np.uint64))
        oracle = LabelOracle(target, empty)
        got = local_learner(4, 8, empty, oracle, Point(5, 0), GINI, RandomnessTape(0))
        assert got == 0

    def test_dimension_mismatch_rejected(self):
        target, tape, labeled, oracle = _setup(6)
        session = LocalLearnerSession(32, 64, labeled.unlabeled(), oracle, GINI, tape)
        with pytest.raises(ValueError):
            session.predict(Point(5, 0))

    @pytest.mark.parametrize("x", [-1, 64, 10 ** 30])
    def test_out_of_range_packed_point_rejected(self, x):
        target, tape, labeled, oracle = _setup(3, d=6, n=512)
        session = LocalLearnerSession(8, 16, labeled.unlabeled(), oracle, GINI, tape)
        with pytest.raises(ValueError, match=f"mask {x} out of range for d=6"):
            session.predict(x)
        with pytest.raises(ValueError, match=f"mask {x} out of range for d=6"):
            Point(6, x)

    def test_in_range_packed_points_unchanged(self):
        target, tape, labeled, oracle = _setup(3, d=6, n=512)
        glob = top_down_size_estimate(8, 16, labeled, GINI, tape)
        session = LocalLearnerSession(8, 16, labeled.unlabeled(), oracle, GINI, tape)
        xs = np.arange(64, dtype=np.uint64)
        want = evaluate_masks(glob.tree, xs).tolist()
        assert [session.predict(int(x)) for x in xs] == want
        assert [session.predict(x) for x in xs] == want
        assert [session.predict(Point(6, int(x))) for x in xs] == want

    def test_deep_query_strand_freezes_but_terminates(self):
        # Majority keeps every leaf impure, so strands can hit the depth cap;
        # the loop must still terminate and agree with the global tree.
        target = Majority(12)
        tape = RandomnessTape(13)
        labeled = sample_dataset(target, 16384, tape)
        oracle = LabelOracle(target, labeled.unlabeled())
        glob = top_down_size_estimate(32, 64, labeled, GINI, tape)
        session = LocalLearnerSession(32, 64, labeled.unlabeled(), oracle, GINI, tape)
        xs = tape.uniform_masks(12, 50, "probe")
        got = np.array([session.predict(int(m)) for m in xs])
        assert np.array_equal(got, evaluate_masks(glob.tree, xs))


class TestForestWalk:
    @given(st.integers(0, 10 ** 6), st.integers(1, 64), st.integers(2, 64),
           st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_every_query_matches_global_tree_and_trace(self, seed, t, b, majority):
        # Each query walks the shared forest, so every one of them, not only
        # the first, must reproduce the global tree and its restricted trace.
        d = 10
        target = Majority(d) if majority else monotone_target(seed, d=d)
        tape = RandomnessTape(seed)
        labeled = sample_dataset(target, 2048, tape)
        oracle = LabelOracle(target, labeled.unlabeled())
        glob = top_down_size_estimate(t, b, labeled, GINI, tape)
        session = LocalLearnerSession(t, b, labeled.unlabeled(), oracle, GINI, tape)
        steps = [(e.path, e.coord, e.size_estimate) for e in glob.trace]
        masks = [path_constraint(path) for path, _, _ in steps]
        on_strand = [bool(np.any((session.strand_masks & np.uint64(m)) == np.uint64(v)))
                     for m, v in masks]
        xs = tape.uniform_masks(d, 20, "probe")
        reached = set()
        for x, want in zip(xs, evaluate_masks(glob.tree, xs)):
            x = int(x)
            assert session.predict(x) == want
            assert session.last_trace == [
                step for step, (m, v), strand in zip(steps, masks, on_strand)
                if strand or (x & m) == v]
            reached.update(path for path, _, _ in session.last_trace)
        assert session.split_choices == {p: glob.growth.splits[p] for p in reached}

    def test_forest_grows_once_per_session(self, monkeypatch):
        grown = []
        grow = GrowthState.grow

        def counting_grow(self, *args, **kwargs):
            grown.append(self)
            return grow(self, *args, **kwargs)

        monkeypatch.setattr(GrowthState, "grow", counting_grow)
        target, tape, labeled, oracle = _setup(7)
        session = LocalLearnerSession(32, 64, labeled.unlabeled(), oracle, GINI, tape)
        for m in tape.uniform_masks(12, 50, "probe"):
            session.predict(int(m))
        assert len(grown) == 1


class TestGlobalSize:
    @given(st.integers(0, 10 ** 6), st.integers(1, 64), st.integers(1, 64),
           st.sampled_from(["majority", "monotone", "table"]),
           st.sampled_from(["nothing", "some points", "estimate"]))
    @settings(max_examples=40, deadline=None)
    def test_equals_global_tree_size(self, seed, t, b, kind, before):
        d = 10
        target = {"majority": lambda: Majority(d),
                  "monotone": lambda: monotone_target(seed, d=d),
                  "table": lambda: random_truth_table(np.random.default_rng(seed), d),
                  }[kind]()
        tape = RandomnessTape(seed)
        labeled = sample_dataset(target, 2048, tape)
        oracle = LabelOracle(target, labeled.unlabeled())
        session = LocalLearnerSession(t, b, labeled.unlabeled(), oracle, GINI, tape)
        xs = tape.uniform_masks(d, 30, "probe")
        if before == "some points":
            for x in xs[:3]:
                session.predict(int(x))
        elif before == "estimate":
            estimate_error(session, LabeledDataset(d, xs, target.eval_masks(xs)))
        glob = top_down_size_estimate(t, b, labeled, GINI, tape)
        assert session.global_size() == glob.tree.size
        if before == "nothing":
            # Exactly the records the global run fetched.
            fetched = len(glob.growth.splits) + sum(
                rec is not None for rec in glob.growth.leaves.values())
            assert oracle.batches_drawn == fetched
        # Every record is memoized, so asking again reveals nothing.
        counts = (oracle.query_count, oracle.batches_drawn)
        assert session.global_size() == glob.tree.size
        assert (oracle.query_count, oracle.batches_drawn) == counts


@pytest.mark.parametrize("seed, t", [(0, 32), (1, 64), (2, 16)])
def test_session_scans_n_per_level(points_scanned, seed, t):
    # Leaf pools are filtered from parent pools, so the forest and all 50
    # queries together scan at most 2n points per level, not n per leaf.
    target = random_truth_table(np.random.default_rng(seed), 12)
    tape = RandomnessTape(seed)
    ds = sample_dataset(target, 4096, tape).unlabeled()
    session = LocalLearnerSession(t, 64, ds, LabelOracle(target, ds), GINI, tape)
    for x in tape.uniform_masks(12, 50, "probe"):
        session.predict(int(x))
    assert len(session.split_choices) > t // 2
    assert points_scanned[0] <= ds.n * (2 * depth_limit(t) + 3)


@pytest.mark.parametrize("run", ["full", "minibatch", "size-estimate", "session"])
def test_only_the_root_and_its_children_scan_the_dataset(monkeypatch, run):
    # Every deeper leaf's parent pool is still kept when the leaf is first
    # requested, so its pool filters the parent's, never the dataset's.
    target = random_truth_table(np.random.default_rng(5), 12)
    tape = RandomnessTape(5)
    labeled = sample_dataset(target, 4096, tape)
    ds = labeled.unlabeled() if run == "session" else labeled
    scan, from_dataset = treelab.core.consistent_indices, set()

    def watched(masks, path):
        if masks is ds.masks:
            from_dataset.add(path)
        return scan(masks, path)

    monkeypatch.setattr(treelab.core, "consistent_indices", watched)
    if run == "session":
        session = LocalLearnerSession(64, 32, ds, LabelOracle(target, ds), GINI, tape)
        for x in tape.uniform_masks(12, 20, "probe"):
            session.predict(int(x))
        assert session.global_size() > 32
    else:
        learn = {"full": lambda: top_down_full(64, ds, GINI),
                 "minibatch": lambda: minibatch_top_down(64, 32, ds, GINI, tape),
                 "size-estimate": lambda: top_down_size_estimate(64, 32, ds, GINI, tape),
                 }[run]
        assert learn().tree.size > 32
    assert () in from_dataset and all(len(path) <= 1 for path in from_dataset)
    assert any(len(path) == 1 for path in from_dataset)
