"""Minibatch top-down decision tree learning over the sign cube, an active
local learner that evaluates the would-be tree at a point with few labels,
and a learnability estimator that scores the would-be tree against a test
set -- all sharing deterministic keyed randomness so the local and global
algorithms agree exactly."""

from .core import (LabeledDataset, LabelOracle, Minibatch, Point, RandomnessTape,
                   TraceEntry, UnlabeledDataset, draw_minibatch, read_dataset,
                   write_dataset)
from .estimator import estimate_learnability, query_budget_report
from .impurity import (ImpurityFunction, TheoryParams, builtin_impurities,
                       depth_cap, get_impurity, local_gain, purity_gain,
                       recommended_params)
from .learners import minibatch_top_down, top_down_full, top_down_size_estimate
from .local import LocalLearnerSession, estimate_size, local_learner
from .targets import (TargetFunction, exact_error, is_monotone, parse_target,
                      sample_dataset)
from .trees import (Tree, evaluate_tree, leaf_of, parse_tree, serialize_tree)

__all__ = [
    "LabeledDataset", "LabelOracle", "Minibatch", "Point", "RandomnessTape",
    "TraceEntry", "UnlabeledDataset", "draw_minibatch", "read_dataset",
    "write_dataset", "estimate_learnability", "query_budget_report",
    "ImpurityFunction", "TheoryParams", "builtin_impurities", "depth_cap",
    "get_impurity", "local_gain", "purity_gain", "recommended_params",
    "minibatch_top_down", "top_down_full", "top_down_size_estimate",
    "LocalLearnerSession", "estimate_size", "local_learner", "TargetFunction",
    "exact_error", "is_monotone", "parse_target",
    "sample_dataset", "Tree", "evaluate_tree", "leaf_of", "parse_tree",
    "serialize_tree",
]
