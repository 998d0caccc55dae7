"""Learnability estimator: the error, against a labeled test set, of the
tree the global learner would build -- measured without ever building it,
by running the local learner per test point with one shared tape, one
caching label oracle, and one shared strand forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .core import LabeledDataset, LabelOracle, RandomnessTape, UnlabeledDataset
from .impurity import ImpurityFunction, depth_limit
from .local import LocalLearnerSession


class BudgetError(RuntimeError):
    """Measured label usage exceeded the proven budget."""


@dataclass(frozen=True)
class EstimateReport:
    error: float
    n_test: int
    unique_labels: int
    batches_drawn: int
    phase_counts: Dict[str, int]


@dataclass(frozen=True)
class BudgetReport:
    unique_labels: int
    batches_drawn: int
    bound: int
    phase_counts: Dict[str, int]


def estimate_learnability(t: int, b: int, dataset: UnlabeledDataset,
                          oracle: LabelOracle, test_set: LabeledDataset,
                          impurity: ImpurityFunction,
                          tape: RandomnessTape) -> EstimateReport:
    """estimate_error over a new local learner session."""
    return estimate_error(LocalLearnerSession(t, b, dataset, oracle, impurity, tape), test_set)


def estimate_error(session: LocalLearnerSession, test_set: LabeledDataset) -> EstimateReport:
    """Fraction of test points whose test label disagrees with the session's
    prediction, with its oracle's label counts.

    All per-point runs share the tape, the oracle's label cache, and the
    session's strand forest, so the result equals the error of the single
    global tree grown under the same tape.  The first point grows the shared
    forest; every point then only walks it, fetching the leaves of its own
    path off the strands.
    """
    if test_set.n == 0:
        raise ValueError("test set must be non-empty")
    if test_set.d != session.dataset.d:
        raise ValueError(f"test dimension {test_set.d} != training dimension "
                         f"{session.dataset.d}")
    oracle, wrong = session.oracle, 0
    for k in range(test_set.n):
        oracle.set_phase("strand-forest" if k == 0 else "test-points")
        pred = session.predict(int(test_set.masks[k]))
        wrong += int(pred != int(test_set.labels[k]))
    return EstimateReport(
        error=wrong / test_set.n,
        n_test=test_set.n,
        unique_labels=oracle.query_count,
        batches_drawn=oracle.batches_drawn,
        phase_counts=dict(oracle.phase_counts),
    )


def query_budget_report(oracle: LabelOracle, t: int, b: int, n_test: int) -> BudgetReport:
    """Measured label counts after an estimate run, checked against the
    smallest budget for unique labels: the oracle's n; b(2^(D+2) - 1), as
    every record fetched is a node of the one global tree at depth <= D+1;
    and (b + n_test)(D+1)b + b, for D+1 records per strand and test point."""
    D = depth_limit(t)
    bound = min(oracle.n, b * ((1 << (D + 2)) - 1), (b + n_test) * (D + 1) * b + b)
    if oracle.query_count > bound:
        raise BudgetError(f"unique labels {oracle.query_count} exceed budget {bound}")
    return BudgetReport(
        unique_labels=oracle.query_count,
        batches_drawn=oracle.batches_drawn,
        bound=bound,
        phase_counts=dict(oracle.phase_counts),
    )
