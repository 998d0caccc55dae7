"""Outputs pinned byte for byte: tree and trace digests of the three global
learners, the estimator's report, and one-shot local label counts, on three
small seeded inputs.  The values were recorded from the implementation that
grew trees with four separate greedy loops; any change to growth order,
scoring, tie-breaking or label reveals shows up here."""

import hashlib
import io

import pytest

from treelab.core import LabelOracle, Point, RandomnessTape, write_trace
from treelab.estimator import estimate_learnability
from treelab.impurity import get_impurity
from treelab.learners import minibatch_top_down, top_down_full, top_down_size_estimate
from treelab.local import local_learner
from treelab.targets import parse_target, sample_dataset
from treelab.trees import serialize_tree

CASES = {
    "dnf-d12": dict(target="dnf:1|2&3|4&5&6", d=12, n=8192, seed=11, t=32, b=64,
                    impurity="gini"),
    "majority-d9": dict(target="majority", d=9, n=2048, seed=5, t=16, b=16,
                        impurity="entropy"),
    "tribes-d10": dict(target="tribes:2", d=10, n=4096, seed=23, t=24, b=32,
                       impurity="kearns-mansour"),
}
LOCAL_T = (1, 2, 32)
N_TEST = 60


def outputs(target, d, n, seed, t, b, impurity):
    f = parse_target(target, d)
    g = get_impurity(impurity)
    tape = RandomnessTape(seed)
    labeled = sample_dataset(f, n, tape)
    points = labeled.unlabeled()
    digests = {}
    for name, res in (
        ("full", top_down_full(t, labeled, g)),
        ("minibatch", minibatch_top_down(t, b, labeled, g, tape)),
        ("size-estimate", top_down_size_estimate(t, b, labeled, g, tape)),
    ):
        trace = io.StringIO()
        write_trace(res.trace, trace)
        text = serialize_tree(res.tree) + "\n" + trace.getvalue()
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    test = sample_dataset(f, N_TEST, tape, key="test")
    report = estimate_learnability(t, b, points, LabelOracle(f, points), test, g, tape)
    estimate = (report.error, report.unique_labels, report.batches_drawn,
                report.phase_counts)
    x = Point(d, int(tape.uniform_masks(d, 1, "pinned-query")[0]))
    local = {}
    for lt in LOCAL_T:
        oracle = LabelOracle(f, points)
        local[lt] = (local_learner(lt, b, points, oracle, x, g, tape), oracle.query_count)
    return {"digests": digests, "estimate": estimate, "local": local}


PINNED = {
    "dnf-d12": {
        "digests": {
            "full": "588029bafe5f48b9eeb512930258ab906ca8a25d3ffaea91b4f236ab519e3db2",
            "minibatch": "b62c6e42b025e6e9c83cdffa51c29a9b07001760d8669e8ceb022fd388ae26da",
            "size-estimate": "b8354c44850b63a976730ccb674e0db4acbb76ece64334214af7ad64b197f77d",
        },
        "estimate": (0.0, 1055, 19, {"strand-forest": 1055}),
        "local": {1: (1, 64), 2: (0, 128), 32: (1, 1055)},
    },
    "majority-d9": {
        "digests": {
            "full": "8926bcfb84e7a5ea398d3b0fc1e93e98d2ab8265a5221ffcec66a382a6bb8031",
            "minibatch": "337acecf0fd695713a47ccc52594077b1e70f198df2d815f43bcc90d61d13df8",
            "size-estimate": "ef5ae7f429d4fcb52091151b3882a760c86ea79ca894a813404844810e66d7e0",
        },
        "estimate": (0.3, 479, 33, {"strand-forest": 372, "test-points": 107}),
        "local": {1: (0, 16), 2: (0, 32), 32: (0, 521)},
    },
    "tribes-d10": {
        "digests": {
            "full": "524f701bf573b653c427f630727d5bb5c59ff68dd8d00f900667116d40bea0f1",
            "minibatch": "4c7292e230258be05ad093b0ed07799b9151d0c244680be544f58a52e1d905f5",
            "size-estimate": "fdf6a2f0aa3481278ba56b97faaba45d4420415c3572a6693585769b005e919a",
        },
        "estimate": (0.21666666666666667, 1137, 41, {"strand-forest": 1030, "test-points": 107}),
        "local": {1: (1, 32), 2: (1, 64), 32: (1, 1261)},
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_values(case):
    assert outputs(**CASES[case]) == PINNED[case]
