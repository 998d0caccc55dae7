import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treelab
import treelab.cli

from conftest import monotone_target
from treelab.core import LabeledDataset, LabelOracle, RandomnessTape, sample_points, write_dataset
from treelab.estimator import (BudgetError, estimate_error, estimate_learnability,
                               query_budget_report)
from treelab.impurity import GINI, depth_cap
from treelab.learners import top_down_size_estimate
from treelab.local import LocalLearnerSession, local_learner
from treelab.targets import (parse_target, random_monotone_tree_target, sample_dataset,
                             sample_product_masks)
from treelab.trees import evaluate_masks


def _setup(seed, d=12, n=4096):
    target = monotone_target(seed, d=d)
    tape = RandomnessTape(seed)
    labeled = sample_dataset(target, n, tape)
    oracle = LabelOracle(target, labeled.unlabeled())
    return target, tape, labeled, oracle


class TestEstimateLearnability:
    def test_self_consistent_test_set_scores_zero(self):
        target, tape, labeled, oracle = _setup(0)
        glob = top_down_size_estimate(32, 64, labeled, GINI, tape)
        xs = tape.uniform_masks(12, 150, "testset")
        test = LabeledDataset(12, xs, evaluate_masks(glob.tree, xs))
        rep = estimate_learnability(32, 64, labeled.unlabeled(), oracle, test,
                                    GINI, tape)
        assert rep.error == 0.0

    def test_flipped_labels_score_one(self):
        target, tape, labeled, oracle = _setup(1)
        glob = top_down_size_estimate(32, 64, labeled, GINI, tape)
        xs = tape.uniform_masks(12, 150, "testset")
        test = LabeledDataset(12, xs, 1 - evaluate_masks(glob.tree, xs))
        rep = estimate_learnability(32, 64, labeled.unlabeled(), oracle, test,
                                    GINI, tape)
        assert rep.error == 1.0

    def test_equals_direct_error_on_skewed_inconsistent_sets(self):
        # Non-uniform marginal, labels from a different function: the output
        # still equals the global tree's empirical test error exactly.
        for seed in range(4):
            target, tape, labeled, oracle = _setup(seed)
            rng = np.random.default_rng(700 + seed)
            other = random_monotone_tree_target(rng, d=12)
            bias = 0.2 + 0.6 * rng.random(12)
            xs = sample_product_masks(bias, 200, tape, key=f"skew{seed}")
            test = LabeledDataset(12, xs, other.eval_masks(xs))
            rep = estimate_learnability(32, 64, labeled.unlabeled(), oracle,
                                        test, GINI, tape)
            glob = top_down_size_estimate(32, 64, labeled, GINI, tape)
            direct = float(np.mean(evaluate_masks(glob.tree, xs) != test.labels))
            assert rep.error == direct

    def test_order_invariance_of_error_and_total_labels(self):
        target, tape, labeled, _ = _setup(2)
        xs = tape.uniform_masks(12, 120, "testset")
        ys = target.eval_masks(xs)
        perm = np.random.default_rng(0).permutation(120)
        runs = []
        for order in (np.arange(120), perm):
            oracle = LabelOracle(target, labeled.unlabeled())
            test = LabeledDataset(12, xs[order], ys[order])
            rep = estimate_learnability(32, 64, labeled.unlabeled(), oracle,
                                        test, GINI, tape)
            runs.append((rep.error, rep.unique_labels))
        assert runs[0] == runs[1]

    def test_duplicate_test_points_cost_nothing_extra(self):
        target, tape, labeled, oracle = _setup(3)
        xs = tape.uniform_masks(12, 40, "testset")
        test_once = LabeledDataset(12, xs, target.eval_masks(xs))
        rep_once = estimate_learnability(32, 64, labeled.unlabeled(), oracle,
                                         test_once, GINI, tape)
        oracle2 = LabelOracle(target, labeled.unlabeled())
        tripled = np.concatenate([xs, xs, xs])
        test_tripled = LabeledDataset(12, tripled, target.eval_masks(tripled))
        rep_tripled = estimate_learnability(32, 64, labeled.unlabeled(), oracle2,
                                            test_tripled, GINI, tape)
        assert rep_tripled.unique_labels == rep_once.unique_labels
        assert rep_tripled.error == pytest.approx(rep_once.error)

    def test_added_point_costs_at_most_one_strand(self):
        target, tape, labeled, _ = _setup(4)
        D = depth_cap(32)
        xs = tape.uniform_masks(12, 80, "testset")
        ys = target.eval_masks(xs)
        counts = []
        for n_test in (40, 80):
            oracle = LabelOracle(target, labeled.unlabeled())
            test = LabeledDataset(12, xs[:n_test], ys[:n_test])
            rep = estimate_learnability(32, 64, labeled.unlabeled(), oracle,
                                        test, GINI, tape)
            counts.append(rep.unique_labels)
        assert counts[1] - counts[0] <= 40 * (D + 1) * 64

    def test_phase_breakdown_present(self):
        target, tape, labeled, oracle = _setup(5)
        xs = tape.uniform_masks(12, 30, "testset")
        test = LabeledDataset(12, xs, target.eval_masks(xs))
        rep = estimate_learnability(32, 64, labeled.unlabeled(), oracle, test,
                                    GINI, tape)
        assert set(rep.phase_counts) <= {"strand-forest", "test-points"}
        assert sum(rep.phase_counts.values()) == rep.unique_labels

    def test_oracle_labels_by_index_given_a_labeled_dataset(self, three_term_dnf):
        # The dataset's own labels are flipped: the run must read the
        # oracle's, by dataset index, as it does on the unlabeled view.
        tape = RandomnessTape(3)
        sample = sample_dataset(three_term_dnf, 2048, tape)
        flipped = LabeledDataset(10, sample.masks, 1 - sample.labels)
        test = sample_dataset(three_term_dnf, 100, tape, key="test")
        reports = [estimate_learnability(16, 32, ds, LabelOracle(three_term_dnf, ds), test,
                                         GINI, tape)
                   for ds in (flipped, flipped.unlabeled())]
        assert reports[0] == reports[1]
        assert reports[0].unique_labels > 0 and reports[0].error < 0.5

    def test_oracle_over_another_dataset_rejected(self):
        # An oracle over a larger dataset would label this dataset's indices
        # with other points' labels.
        target, tape = parse_target("dnf:1&2|3", 6), RandomnessTape(3)
        small = sample_dataset(target, 400, tape).unlabeled()
        large = sample_dataset(target, 4000, tape, key="other").unlabeled()
        test = sample_dataset(target, 50, tape, key="test")
        assert estimate_learnability(8, 16, small, LabelOracle(target, small), test,
                                     GINI, tape).error == 0.0
        with pytest.raises(ValueError, match="oracle over 4000 points, dataset of 400"):
            estimate_learnability(8, 16, small, LabelOracle(target, large), test, GINI, tape)

    def test_input_validation(self):
        target, tape, labeled, oracle = _setup(6)
        empty = LabeledDataset(12, np.zeros(0, np.uint64), np.zeros(0, np.uint8))
        with pytest.raises(ValueError):
            estimate_learnability(32, 64, labeled.unlabeled(), oracle, empty,
                                  GINI, tape)
        wrong_d = LabeledDataset(5, np.zeros(1, np.uint64), np.zeros(1, np.uint8))
        with pytest.raises(ValueError):
            estimate_learnability(32, 64, labeled.unlabeled(), oracle, wrong_d,
                                  GINI, tape)


class CountingTarget:
    """A target that counts the points it is evaluated on."""

    def __init__(self, target):
        self.target, self.d, self.points = target, target.d, 0

    def eval_masks(self, masks):
        self.points += len(masks)
        return self.target.eval_masks(masks)


@given(st.integers(0, 2 ** 16), st.integers(5, 12), st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_target_evaluated_once_per_revealed_label(seed, log2_n, t):
    # The oracle is honest: it evaluates the target on the labels it reveals
    # and on nothing else, in the local learner, in the estimator followed by
    # t' over the same oracle, and in the CLI's estimate.
    d, b = 10, 16
    tape, target = RandomnessTape(seed), monotone_target(seed, d=d)
    points = sample_points(d, 1 << log2_n, tape)
    test = sample_dataset(target, 30, tape, key="test")

    counting = CountingTarget(target)
    oracle = LabelOracle(counting, points)
    local_learner(t, b, points, oracle, int(test.masks[0]), GINI, tape)
    assert counting.points == oracle.query_count > 0

    counting = CountingTarget(target)
    oracle = LabelOracle(counting, points)
    report = estimate_learnability(t, b, points, oracle, test, GINI, tape)
    assert counting.points == oracle.query_count == report.unique_labels
    LocalLearnerSession(t, b, points, oracle, GINI, tape).global_size()
    assert counting.points == oracle.query_count >= report.unique_labels

    counting, oracles = CountingTarget(target), []

    class Kept(LabelOracle):
        def __init__(self, *args):
            super().__init__(*args)
            oracles.append(self)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        files = {"--unlabeled": points, "--test": test}
        for flag, ds in files.items():
            with open(os.path.join(tmp, flag[2:]), "w", encoding="utf-8") as fh:
                write_dataset(ds, fh)
        patch.setattr(treelab.cli, "parse_target", lambda spec, dim: counting)
        patch.setattr(treelab.cli, "LabelOracle", Kept)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            argv = [arg for flag in files for arg in (flag, os.path.join(tmp, flag[2:]))]
            code = treelab.cli.main(["estimate", *argv, "--target", "counted", "--t", str(t),
                                     "--b", str(b), "--seed", str(seed)])
    (oracle,) = oracles
    assert code == 0 and counting.points == oracle.query_count
    assert f"unique_labels={report.unique_labels} " in out.getvalue()


class TestBudgetReport:
    def test_within_budget(self):
        target, tape, labeled, oracle = _setup(7)
        xs = tape.uniform_masks(12, 50, "testset")
        test = LabeledDataset(12, xs, target.eval_masks(xs))
        estimate_learnability(32, 64, labeled.unlabeled(), oracle, test, GINI, tape)
        report = query_budget_report(oracle, t=32, b=64, n_test=50)
        assert report.unique_labels <= report.bound
        D = depth_cap(32)
        assert report.bound == min(oracle.n, 64 * (2 ** (D + 2) - 1),
                                   (64 + 50) * (D + 1) * 64 + 64) == 4096

    @pytest.mark.parametrize("n, t, b, n_test, bound", [
        (4096, 32, 64, 50, 4096),
        (10 ** 9, 32, 64, 50, 64 * (2 ** 9 - 1)),
        (10 ** 9, 32, 8, 50, (8 + 50) * 8 * 8 + 8),
        (10 ** 9, 1024, 4, 3000, 4 * (2 ** 15 - 1)),
        (10 ** 9, 1024, 4, 3, (4 + 3) * 14 * 4 + 4),
    ])
    def test_bound_is_the_smallest_of_three(self, n, t, b, n_test, bound):
        # n, b(2^(D+2) - 1) (D = 7 at t = 32, 13 at t = 1024) and
        # (b + n_test)(D+1)b + b each bind somewhere.
        class QuietOracle:
            query_count = 0
            batches_drawn = 0
            phase_counts = {}

        QuietOracle.n = n
        assert query_budget_report(QuietOracle(), t=t, b=b, n_test=n_test).bound == bound
        QuietOracle.query_count = bound + 1
        with pytest.raises(BudgetError, match=f"exceed budget {bound}$"):
            query_budget_report(QuietOracle(), t=t, b=b, n_test=n_test)

    def test_violation_raises(self):
        class FakeOracle:
            n = 10 ** 9
            query_count = 10 ** 9
            batches_drawn = 0
            phase_counts = {}

        with pytest.raises(BudgetError):
            query_budget_report(FakeOracle(), t=32, b=64, n_test=10)

    def test_single_test_point_budget_equals_one_local_call(self):
        # (b + 1)(D+1) b + b is exactly the single-call bound ((b+1)(D+1)+1) b,
        # the smallest of the three at t = 32, b = 8 on a large dataset.
        t, b = 32, 8
        D = depth_cap(t)

        class QuietOracle:
            n = 10 ** 6
            query_count = 0
            batches_drawn = 0
            phase_counts = {}

        report = query_budget_report(QuietOracle(), t=t, b=b, n_test=1)
        assert report.bound == ((b + 1) * (D + 1) + 1) * b

    @given(st.integers(1, 8192), st.integers(1, 200), st.integers(1, 256),
           st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_labels_within_global_tree_nodes(self, n, t, b, seed):
        # Every record a session fetches, for the forest, a test point's walk
        # or global_size(), is a node of the one global tree; a tree of size
        # t' has 2t' - 1 nodes, and a node's record reveals at most b labels.
        target, tape, labeled, oracle = _setup(seed, n=n)
        session = LocalLearnerSession(t, b, labeled.unlabeled(), oracle, GINI, tape)
        xs = tape.uniform_masks(12, 50, "testset")
        estimate_error(session, LabeledDataset(12, xs, target.eval_masks(xs)))
        t_prime = session.global_size()
        assert oracle.query_count <= min(n, b * (2 * t_prime - 1))


FRESH_ESTIMATE = """
import sys
from treelab.core import LabelOracle, RandomnessTape
from treelab.estimator import estimate_learnability
from treelab.impurity import GINI
from treelab.targets import Majority, sample_dataset
tape = RandomnessTape(3)
labeled = sample_dataset(Majority(8), 2048, tape)
test = sample_dataset(Majority(8), 20, tape, key="test")
oracle = LabelOracle(Majority(8), labeled.unlabeled())
rep = estimate_learnability(16, 32, labeled.unlabeled(), oracle, test, GINI, tape)
assert rep.unique_labels > 0
print("numpy.ma" in sys.modules)
"""


def test_estimate_leaves_numpy_ma_unimported():
    # Importing numpy.ma costs about 15 ms, more than a small estimate.
    src = os.path.dirname(os.path.dirname(os.path.abspath(treelab.__file__)))
    proc = subprocess.run([sys.executable, "-c", FRESH_ESTIMATE], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
