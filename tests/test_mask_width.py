"""Packed points are stored as uint32 up to d = 32 and as uint64 above.

At the boundary dimensions, with masks that set the top bit d - 1, every
consumer of masks must give on the narrow masks exactly what it gives on a
uint64 copy of them: the dataset text, bit unpacking, both gain-counting
paths, leaf pools, every target and tree evaluation.  TruthTable and
ExplicitTree hold 2^d entries, so they are not built at these dimensions.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.core import (LabeledDataset, LeafPools, UnlabeledDataset, consistent_indices,
                          mask_bits, mask_dtype, read_dataset, write_dataset)
from treelab.impurity import GINI, HISTOGRAM_ROWS, batch_local_gains
from treelab.targets import Dictator, Majority, ReadOnceDNF, Tribes, Xor
from treelab.trees import evaluate_masks, parse_tree

DIMS = [31, 32, 33, 63]


def _masks(d, k, seed):
    """k masks of dimension d: the top bit set on about half of them, and the
    extremes 0, 2^(d-1) and 2^d - 1 among them when k >= 3."""
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 1 << d, size=k, dtype=np.uint64)
    masks |= rng.integers(0, 2, size=k, dtype=np.uint64) << (d - 1)
    masks[:3] = [0, 1 << (d - 1), (1 << d) - 1][:k]
    return masks


def _wide(ds):
    """The dataset with its masks replaced by a uint64 copy."""
    ds.masks = ds.masks.astype(np.uint64)
    return ds


@pytest.mark.parametrize("d", DIMS)
def test_dtype_rule(d):
    want = np.uint32 if d <= 32 else np.uint64
    assert mask_dtype(d) == want
    assert UnlabeledDataset(d, _masks(d, 5, 0)).masks.dtype == want
    text = io.StringIO()
    write_dataset(UnlabeledDataset(d, _masks(d, 5, 0)), text)
    assert read_dataset(io.StringIO(text.getvalue())).masks.dtype == want


@given(st.sampled_from(DIMS), st.integers(0, 300), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_text_round_trip_and_bits(d, k, seed):
    masks = _masks(d, k, seed)
    labels = masks % 3 == 0
    for make in (lambda: LabeledDataset(d, masks, labels), lambda: UnlabeledDataset(d, masks)):
        narrow, wide = io.StringIO(), io.StringIO()
        write_dataset(make(), narrow)
        write_dataset(_wide(make()), wide)
        assert narrow.getvalue() == wide.getvalue()
        back = read_dataset(io.StringIO(narrow.getvalue()))
        assert back.masks.dtype == mask_dtype(d)
        assert back.masks.tolist() == masks.tolist()
    ds = UnlabeledDataset(d, masks)
    assert mask_bits(ds.masks, d).tobytes() == mask_bits(masks, d).tobytes()
    assert mask_bits(ds.masks, d)[:, d - 1].tolist() == (masks >> (d - 1)).tolist()


@pytest.mark.parametrize("k", [1, 7, HISTOGRAM_ROWS - 1, HISTOGRAM_ROWS, HISTOGRAM_ROWS + 37])
@pytest.mark.parametrize("d", DIMS)
def test_both_gain_paths_equal_the_uint64_gains(d, k):
    masks = _masks(d, k, k)
    labels = (masks >> (d - 1)).astype(np.uint8) ^ (masks & 1).astype(np.uint8)
    narrow = UnlabeledDataset(d, masks).masks
    for dd in (d, d - 1, 8):
        got = batch_local_gains(GINI, narrow, labels, dd)
        assert got.tobytes() == batch_local_gains(GINI, masks, labels, dd).tobytes()


@given(st.sampled_from(DIMS), st.integers(0, 400), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_leaf_pools_and_scans_equal_the_uint64_ones(d, k, seed):
    masks = _masks(d, k, seed)
    top, low = d - 1, 0
    paths = [((top, 1),), ((top, 1), (low, -1)), ((top, 1), (low, 1)), ((top, -1),),
             ((top, -1), (d - 2, 1)), ((low, 1),), ((low, 1), (top, 1))]
    labeled = LabeledDataset(d, masks, masks % 5 == 0)
    narrow = LeafPools(labeled)
    wide = LeafPools(_wide(LabeledDataset(d, masks, masks % 5 == 0)))
    # Pools over the unlabeled views hold indices and masks.
    narrow_view = LeafPools(UnlabeledDataset(d, masks))
    wide_view = LeafPools(_wide(UnlabeledDataset(d, masks)))
    for path in paths:
        assert (consistent_indices(narrow.masks, path).tolist()
                == consistent_indices(masks, path).tolist())
        a, c = narrow_view(path), wide_view(path)
        assert a.indices.tolist() == c.indices.tolist()
        assert (a.masks is None) == (c.masks is None)
        if a.masks is not None:
            assert a.masks.dtype == mask_dtype(d)
            assert a.masks.tolist() == c.masks.tolist()
        # Labeled pools are the rows at those indices, whatever their size.
        rows, wide_rows = narrow(path), wide(path)
        assert rows.indices is None and wide_rows.indices is None
        assert rows.masks.dtype == mask_dtype(d)
        assert rows.masks.tolist() == wide_rows.masks.tolist() == masks[a.indices].tolist()
        assert (rows.labels.tolist() == wide_rows.labels.tolist()
                == labeled.labels[a.indices].tolist())


@given(st.sampled_from(DIMS), st.integers(0, 300), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_targets_and_trees_equal_on_the_uint64_masks(d, k, seed):
    masks = _masks(d, k, seed)
    narrow = UnlabeledDataset(d, masks).masks
    top = d - 1
    targets = [Dictator(d, top), Dictator(d, 0), Majority(d), Tribes(d, 5), Tribes(d, d),
               ReadOnceDNF(d, ({top}, {0, 1}, {2, top - 1})), Xor(d, {0, top}),
               Xor(d, set(range(d)))]
    for target in targets:
        got = target.eval_masks(narrow)
        assert got.tobytes() == target.eval_masks(masks).tobytes(), target
    # Splits on top, then 0 and top - 1, then top - 2 (0-based); the text is 1-based.
    tree = parse_tree(f"(split {d} (split 1 (leaf 0) (leaf 1))"
                      f" (split {d - 1} (leaf 1) (split {d - 2} (leaf 0) (leaf 1))))", d)
    assert evaluate_masks(tree, narrow).tobytes() == evaluate_masks(tree, masks).tobytes()
    assert evaluate_masks(tree, narrow)[masks >> top == 0].tolist() == \
        (masks[masks >> top == 0] & 1).tolist()
