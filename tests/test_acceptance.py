"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).

Criteria 2 and 3 stash their measured label counts; criterion 5 audits the
stash (and measures fresh runs when executed standalone).
"""

import math
import time

import numpy as np

from treelab.core import LabeledDataset, LabelOracle, Minibatch, RandomnessTape
from treelab.estimator import estimate_learnability, query_budget_report
from treelab.exhaustive import (ConcentrationConfig, check_shallow_splits,
                                check_telescoping, empirical_concentration,
                                exact_size_expectation)
from treelab.impurity import (ENTROPY, GINI, KEARNS_MANSOUR, ImpurityFunction,
                              builtin_impurities, depth_cap,
                              strand_count_for_accuracy)
from treelab.learners import (LeafRecord, minibatch_top_down, score_leaf,
                              top_down_full, top_down_size_estimate)
from treelab.local import LocalLearnerSession, estimate_size
from treelab.targets import (Dictator, Majority, ReadOnceDNF, exact_error,
                             random_monotone_tree_target, random_truth_table,
                             sample_dataset, sample_product_masks)
from treelab.trees import evaluate_masks, random_partial_tree, serialize_tree

MEASURED = {"local": [], "estimate": []}


def _report(num, name, ok, detail, elapsed, limit=None):
    stamp = f"{elapsed:.1f}s" + (f" (limit {limit:.0f}s)" if limit else "")
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} -- {detail}; {stamp}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_reduction_equivalence():
    start = time.time()
    d, t, b = 8, 16, 1 << 8
    masks = np.arange(1 << d, dtype=np.uint64)
    identical = runs = 0
    for tgt_seed in range(5):
        rng = np.random.default_rng(5000 + tgt_seed)
        target = random_monotone_tree_target(rng, d=d, n_leaves=12, max_depth=4)
        table = LabeledDataset(d, masks, target.eval_masks(masks))
        full = top_down_full(t, table, GINI)
        for seed in range(50):
            mb = minibatch_top_down(t, b, table, GINI, RandomnessTape(seed))
            identical += int(serialize_tree(mb.tree) == serialize_tree(full.tree))
            runs += 1
    _report(1, "reduction equivalence", identical == runs == 250,
            f"{identical}/{runs} byte-identical trees", time.time() - start, 10)


def test_criterion_2_local_global_equivalence():
    start = time.time()
    d, t, b = 12, 32, 64
    cap = depth_cap(t)
    call_bound = ((b + 1) * (cap + 1) + 1) * b
    agree = total = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        target = random_monotone_tree_target(rng, d=d, n_leaves=24, max_depth=8)
        tape = RandomnessTape(seed)
        labeled = sample_dataset(target, 4096, tape)
        glob = top_down_size_estimate(t, b, labeled, GINI, tape)
        oracle = LabelOracle(target, labeled.unlabeled())
        session = LocalLearnerSession(t, b, labeled.unlabeled(), oracle, GINI, tape)
        xs = tape.uniform_masks(d, 200, "criterion2-points")
        want = evaluate_masks(glob.tree, xs)
        for k, m in enumerate(xs):
            before = oracle.query_count
            got = session.predict(int(m))
            MEASURED["local"].append((oracle.query_count - before, call_bound))
            agree += int(got == want[k])
            total += 1
    _report(2, "local/global equivalence", agree == total == 4000,
            f"{agree}/{total} label agreements", time.time() - start, 60)


def test_criterion_3_estimator_exactness():
    start = time.time()
    d, t, b, n_test = 12, 32, 64, 200
    cap = depth_cap(t)
    est_bound = (b + n_test) * (cap + 1) * b + b
    exact = 0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        target = random_monotone_tree_target(rng, d=d, n_leaves=24, max_depth=8)
        tape = RandomnessTape(seed)
        labeled = sample_dataset(target, 4096, tape)
        if seed % 2 == 0:
            # Skewed product marginal, labels from an unrelated function.
            other = random_monotone_tree_target(rng, d=d)
            bias = 0.2 + 0.6 * rng.random(d)
            xs = sample_product_masks(bias, n_test, tape, key=f"skew{seed}")
            ys = other.eval_masks(xs)
        else:
            xs = tape.uniform_masks(d, n_test, "criterion3-test")
            ys = target.eval_masks(xs)
        test_set = LabeledDataset(d, xs, ys)
        oracle = LabelOracle(target, labeled.unlabeled())
        rep = estimate_learnability(t, b, labeled.unlabeled(), oracle, test_set,
                                    GINI, tape)
        glob = top_down_size_estimate(t, b, labeled, GINI, tape)
        direct = float(np.mean(evaluate_masks(glob.tree, xs) != ys))
        exact += int(rep.error == direct)
        MEASURED["estimate"].append((rep.unique_labels, est_bound))
        query_budget_report(oracle, t=t, b=b, n_test=n_test)  # raises if over
    _report(3, "estimator exactness", exact == 20,
            f"{exact}/20 exact equalities (skewed and uniform test sets)",
            time.time() - start, 60)


def test_criterion_4_size_estimator_guarantee():
    start = time.time()
    rng = np.random.default_rng(4)
    exact_ok = 0
    for _ in range(200):
        tree = random_partial_tree(rng, 12, int(rng.integers(1, 40)))
        exact_ok += int(exact_size_expectation(tree) == tree.size)
    violations = 0
    trials = 1000
    for trial in range(trials):
        tree = random_partial_tree(rng, 12, int(rng.integers(2, 30)), max_depth=8)
        m = strand_count_for_accuracy(tree.depth, 2.0, 0.1)
        strands = RandomnessTape(trial).uniform_masks(12, m, "criterion4")
        violations += int(abs(estimate_size(tree, strands) - tree.size) > 2.0)
    ok = exact_ok == 200 and violations <= 2 * 0.1 * trials
    _report(4, "size estimator guarantee", ok,
            f"expectation exact {exact_ok}/200; sampled violations "
            f"{violations}/{trials} (allowed {int(2 * 0.1 * trials)})",
            time.time() - start, 30)


def test_criterion_5_label_budgets():
    start = time.time()
    if not MEASURED["local"]:
        # Standalone invocation: measure a fresh single-seed slice.
        test_criterion_2_local_global_equivalence()
        test_criterion_3_estimator_exactness()
    local_bad = sum(1 for used, bound in MEASURED["local"] if used > bound)
    est_bad = sum(1 for used, bound in MEASURED["estimate"] if used > bound)
    ok = local_bad == 0 and est_bad == 0 and MEASURED["estimate"]
    _report(5, "label budgets", bool(ok),
            f"{len(MEASURED['local'])} local calls, "
            f"{len(MEASURED['estimate'])} estimate runs, 0 over budget"
            if ok else f"{local_bad} local / {est_bad} estimate over budget",
            time.time() - start)


def test_criterion_6_telescoping_and_shallow_splits():
    start = time.time()
    rng = np.random.default_rng(6)
    tele_ok = 0
    for k in range(500):
        d = 10
        tree = random_partial_tree(rng, d, int(rng.integers(1, 12)))
        target = random_truth_table(rng, d)
        leaves = list(tree.labels)
        path = leaves[int(rng.integers(len(leaves)))]
        free = [i for i in range(d) if i not in {c for c, _ in path}]
        coord = int(rng.choice(free))
        g = builtin_impurities()[k % 3]
        tele_ok += int(check_telescoping(g, target, tree, (path, coord)))
    shallow_ok = 0
    for seed in range(100):
        tape = RandomnessTape(seed)
        ds = sample_dataset(Majority(12), 16384, tape)
        run = minibatch_top_down(256, 64, ds, GINI, tape)
        shallow_ok += int(len(run.trace) == 255 and check_shallow_splits(run.trace))
    _report(6, "telescoping + shallow splits",
            tele_ok == 500 and shallow_ok == 100,
            f"telescoping {tele_ok}/500; shallow-split bound {shallow_ok}/100 "
            f"traces at t=256", time.time() - start)


def test_criterion_7_learning_guarantee_proxy():
    start = time.time()
    target = ReadOnceDNF(10, (frozenset({0}), frozenset({1, 2}),
                              frozenset({3, 4, 5})))
    details = []
    ok = True
    for impurity in (GINI, ENTROPY, KEARNS_MANSOUR):
        good = 0
        for seed in range(20):
            tape = RandomnessTape(seed)
            ds = sample_dataset(target, 8192, tape)
            res = minibatch_top_down(64, 256, ds, impurity, tape)
            good += int(exact_error(target, res.tree) <= 0.05)
        details.append(f"{impurity.name} {good}/20")
        ok = ok and good >= 18
    _report(7, "learning guarantee proxy", ok, ", ".join(details),
            time.time() - start, 120)


def test_criterion_8_size_stopping_concentration():
    start = time.time()
    t, eta, delta, d = 32, 0.25, 0.1, 12
    b = math.ceil((math.log2(t) / eta) ** 2 * math.log2(t / delta))
    inside = 0
    for seed in range(100):
        tape = RandomnessTape(seed)
        ds = sample_dataset(Majority(d), 16384, tape)
        res = top_down_size_estimate(t, b, ds, GINI, tape)
        inside += int(24 <= res.tree.size <= 40)
    _report(8, "t' concentration", inside >= 90,
            f"{inside}/100 runs with t' in [24, 40] at b={b}",
            time.time() - start, 60)


def test_criterion_9_concentration_bounds():
    start = time.time()
    t, d, delta = 32, 12, 0.1
    b_balance = math.ceil(4 * 8 * math.log(3 * t * d / delta))
    balance_cfg = ConcentrationConfig(
        target=Dictator(d, 0), impurity=GINI, leaf_path=((1, 1),), coord=0,
        b=b_balance, n=4 * b_balance, seed=9)
    balance_rate = empirical_concentration("balance", balance_cfg, trials=2000)
    tol = 0.5
    b_gain = math.ceil(max(8.0, 2 * (2 * GINI.C / tol) ** (2 / GINI.alpha))
                       * math.log(9 * t * d / delta))
    gain_cfg = ConcentrationConfig(
        target=Dictator(d, 0), impurity=GINI, leaf_path=(), coord=0,
        b=b_gain, n=8192, seed=9, gain_tolerance=tol)
    gain_rate = empirical_concentration("gain-accuracy", gain_cfg, trials=2000)
    ok = balance_rate <= 2 * delta and gain_rate <= 2 * delta
    _report(9, "concentration bounds", ok,
            f"balance failure {balance_rate:.4f} at b={b_balance}, gain failure "
            f"{gain_rate:.4f} at b={b_gain} (allowed {2 * delta})",
            time.time() - start)


def test_criterion_10_impurity_axioms_and_scaling():
    start = time.time()
    grid = np.linspace(0.0, 1.0, 1025)
    a, bv = np.meshgrid(grid, grid)
    axiom_ok = True
    for g in builtin_impurities():
        vals = np.asarray(g(grid))
        ga, gb = np.asarray(g(a)), np.asarray(g(bv))
        checks = [
            abs(float(g(0.0))) <= 1e-12 and abs(float(g(1.0))) <= 1e-12
            and abs(float(g(0.5)) - 1.0) <= 1e-12,
            float(np.max(np.abs(vals - vals[::-1]))) <= 1e-12,
            float(np.min(np.asarray(g((a + bv) / 2.0)) - (ga + gb) / 2.0)) >= -1e-12,
            float(np.max(np.abs(ga - gb) - g.C * np.abs(a - bv) ** g.alpha)) <= 1e-9,
        ]
        axiom_ok = axiom_ok and all(checks)

    rng = np.random.default_rng(10)
    scaling_ok = 0
    for _ in range(100):
        d = 8
        batches = []
        for _ in range(int(rng.integers(2, 6))):
            k = int(rng.integers(2, 40))
            depth = int(rng.integers(0, 5))
            path = tuple((int(c), 1) for c in rng.permutation(d)[:depth])
            masks = rng.integers(0, 1 << d, size=k, dtype=np.uint64)
            labels = rng.integers(0, 2, size=k).astype(np.uint8)
            batches.append(Minibatch(path, np.arange(k), masks, labels))
        # Dyadic scales keep the float multiplication exact; a non-dyadic
        # scale can merge two gains that differ by one ulp into a tie and
        # hand the decision to the tie-break, which is not an ordering bug.
        scale = float(rng.choice([0.25, 0.5, 2.0, 4.0]))
        scaled = ImpurityFunction("scaled", lambda p, s=scale: s * np.asarray(GINI(p)),
                                  C=4.0, alpha=1.0, kappa=8.0)
        picks = []
        for g in (GINI, scaled):
            recs = []
            for batch in batches:
                coord, gain = score_leaf(g, batch, d)
                if coord is not None:
                    recs.append(LeafRecord(batch.leaf_path, batch, coord, gain))
            picks.append(min(recs, key=lambda r: r.priority) if recs else None)
        same = (picks[0] is None and picks[1] is None) or (
            picks[0] is not None and picks[1] is not None
            and (picks[0].path, picks[0].best_coord)
            == (picks[1].path, picks[1].best_coord))
        scaling_ok += int(same)
    _report(10, "impurity axioms + argmax scaling",
            axiom_ok and scaling_ok == 100,
            f"grid axioms {'ok' if axiom_ok else 'VIOLATED'}; argmax invariance "
            f"{scaling_ok}/100", time.time() - start)
