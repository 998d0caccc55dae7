"""One rule for packed points and labels, whichever entry point takes them.

A point is a Point of dimension d or an integer mask in [0, 2^d).  Every
entry point, datasets, trees and targets alike, either accepts a value with
the same mask or raises ValueError; none truncates, and none raises
OverflowError or TypeError.  A label is an integer or bool 0 or 1, whether a
dataset, a truth table or the label oracle's target supplies it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from treelab.core import (LabeledDataset, LabelOracle, Point, RandomnessTape,
                          UnlabeledDataset, as_masks, mask_dtype)
from treelab.impurity import GINI
from treelab.local import LocalLearnerSession, estimate_size
from treelab.targets import Dictator, Majority, TruthTable, Xor, sample_dataset
from treelab.trees import evaluate_masks, parse_tree

D = 4
# Leaf depths 1..4, so the size estimate of one point tells its leaf.
TREE = parse_tree("(split 1 (leaf 0) (split 2 (leaf 1) (split 3 (leaf 0)"
                  " (split 4 (leaf 1) (leaf 0)))))", D)

INT_TYPES = [np.int8, np.int16, np.int32, np.int64,
             np.uint8, np.uint16, np.uint32, np.uint64]
# Each of these is the mask 5.
ACCEPTED = [5, Point(D, 5)] + [t(5) for t in INT_TYPES]
REJECTED = [True, 2.0, 2.5, np.float64(3.0), "3", Point(D - 1, 5), Point(D + 1, 5),
            -1, np.int8(-1), 1 << D, np.uint64(1 << D), 10 ** 30, None]


@pytest.fixture(scope="module")
def session():
    tape = RandomnessTape(0)
    labeled = sample_dataset(Majority(D), 256, tape)
    oracle = LabelOracle(Majority(D), labeled.unlabeled())
    return LocalLearnerSession(8, 16, labeled.unlabeled(), oracle, GINI, tape)


# 1 on the mask 5 only.
TABLE = TruthTable(D, np.arange(1 << D) == 5)


def _entry_points(session):
    """Each entry point as value -> what it makes of the value.  Point(d, v)
    takes a mask, so a Point value skips it."""
    return {
        "Point": lambda v: Point(D, v).mask,
        "UnlabeledDataset": lambda v: int(UnlabeledDataset(D, [v]).masks[0]),
        "estimate_size": lambda v: estimate_size(TREE, [v]),
        "predict": session.predict,
        "evaluate_masks": lambda v: evaluate_masks(TREE, [v]).tolist(),
        "Majority.eval_masks": lambda v: Majority(D).eval_masks([v]).tolist(),
        "Xor.eval_masks": lambda v: Xor(D, {0, 3}).eval_masks([v]).tolist(),
        "Dictator.eval_masks": lambda v: Dictator(D, 2).eval_masks([v]).tolist(),
        "TruthTable.eval_masks": lambda v: TABLE.eval_masks([v]).tolist(),
        "Majority()": Majority(D),
    }


@pytest.mark.parametrize("value", ACCEPTED, ids=repr)
def test_accepted_values_give_the_same_mask(session, value):
    for name, entry in _entry_points(session).items():
        if name == "Point" and isinstance(value, Point):
            continue
        assert entry(value) == entry(5), name
    assert int(UnlabeledDataset(D, [value]).masks[0]) == 5


@pytest.mark.parametrize("value", REJECTED, ids=repr)
def test_rejected_values_raise_value_error_everywhere(session, value):
    for name, entry in _entry_points(session).items():
        if name == "Point" and isinstance(value, Point):
            continue
        with pytest.raises(ValueError):
            entry(value)


@pytest.mark.parametrize("masks", [np.array([3.9]), np.array([1.0, 3.0]), np.array([True]),
                                   np.array([3, -1]), np.array([2 ** 40], np.uint64),
                                   [Point(D, 1), 2.5], [[1, 2]], np.zeros((2, 2), np.uint64)])
def test_rejected_arrays_and_sequences(masks):
    with pytest.raises(ValueError):
        UnlabeledDataset(D, masks)
    with pytest.raises(ValueError):
        estimate_size(TREE, masks)


def test_messages_name_the_value():
    with pytest.raises(ValueError, match="mask 2.5 is not an integer"):
        UnlabeledDataset(D, [2.5])
    with pytest.raises(ValueError, match="mask -3 out of range for d=4"):
        UnlabeledDataset(D, np.array([1, -3, 40]))
    with pytest.raises(ValueError, match="mask 40 out of range for d=4"):
        estimate_size(TREE, np.array([1, 40], np.uint64))
    with pytest.raises(ValueError, match="point dimension 5 != 4"):
        UnlabeledDataset(D, [Point(5, 1)])


def test_integer_sequences_of_any_width_and_empty_inputs():
    mixed = [np.int64(3), np.uint64(5), 7, Point(D, 9)]
    assert as_masks(D, mixed).tolist() == [3, 5, 7, 9]
    assert as_masks(D, mixed).dtype == mask_dtype(D) == np.uint32
    # numpy reads int64 and uint64 together as float64.
    assert as_masks(D, mixed[:2]).tolist() == [3, 5]
    for empty in ([], np.zeros(0, np.int64), np.zeros(0)):
        assert UnlabeledDataset(D, empty).masks.dtype == mask_dtype(D)
    assert LabeledDataset(D, []).labels.dtype == np.uint8
    assert LabeledDataset(D, [], []).n == 0


def test_uint64_masks_are_not_copied():
    # Masks already in mask_dtype(d) are not copied: uint32 up to d = 32,
    # uint64 above.
    for d, dtype in ((D, np.uint32), (32, np.uint32), (33, np.uint64), (63, np.uint64)):
        masks = np.arange(16, dtype=dtype)
        assert mask_dtype(d) == dtype
        assert as_masks(d, masks) is masks
        assert UnlabeledDataset(d, masks).masks is masks


def test_uint64_masks_are_narrowed_with_equal_values():
    for d in (D, 32):
        masks = np.array([0, 5, (1 << d) - 1], np.uint64)
        got = as_masks(d, masks)
        assert got.dtype == np.uint32 and got.tolist() == masks.tolist()
        assert UnlabeledDataset(d, masks).masks.tolist() == masks.tolist()


@pytest.mark.parametrize("labels", [[0, 1], np.array([0, 1], np.uint8),
                                    [False, True], np.array([False, True]),
                                    np.array([0, 1], np.int64)], ids=repr)
def test_labels_accepted(labels):
    ds = LabeledDataset(D, [3, 5], labels)
    assert ds.labels.dtype == np.uint8 and ds.labels.tolist() == [0, 1]


@pytest.mark.parametrize("bad", [2, -1, 256, 0.5, "1"], ids=repr)
def test_labels_rejected(bad):
    for labels in ([bad, 1], np.array([bad, 1])):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            LabeledDataset(D, [3, 5], labels)


@pytest.mark.parametrize("labels", [1, [[0], [1]], [0, 1, 1]], ids=repr)
def test_labels_of_another_shape_rejected(labels):
    with pytest.raises(ValueError, match="labels and points must have equal length"):
        LabeledDataset(D, [3, 5], labels)


@pytest.mark.parametrize("bad", [2, -1, 256, 0.5, "1"], ids=repr)
def test_truth_table_entries_are_labels(bad):
    for table in ([bad] + [0] * 15, np.array([bad] + [0] * 15)):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            TruthTable(D, table)
    with pytest.raises(ValueError, match="table must have 2\\^4 entries"):
        TruthTable(D, [0] * 15)


@pytest.mark.parametrize("label", [2, 0.5], ids=repr)
def test_label_oracle_checks_its_targets_labels(label):
    target = SimpleNamespace(d=D, eval_masks=lambda masks: np.full(len(masks), label))
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        LabelOracle(target, UnlabeledDataset(D, [3, 5]))
