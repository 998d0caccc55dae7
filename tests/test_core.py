import hashlib
import io
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.core import (BLOCK_CHARS, BLOCK_ROWS, BLOCK_TOKENS, MAX_DIM, LabeledDataset,
                          LabelOracle, LeafPools, Point, RandomnessTape, StrandTracker,
                          TraceEntry, UnlabeledDataset, _parse_row, _partial_shuffle_take,
                          consistent_indices, draw_minibatch, encode_path, mask_dtype,
                          parse_path, path_constraint, point_reaches,
                          read_dataset, read_trace, sign_bit,
                          write_dataset, write_trace)
from treelab.targets import Dictator, Majority, ReadOnceDNF, sample_dataset


def paths(max_d=8):
    """Random leaf paths: distinct coordinates with signs."""

    @st.composite
    def build(draw):
        d = draw(st.integers(1, max_d))
        k = draw(st.integers(0, d))
        coords = draw(st.permutations(range(d)))[:k]
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
        return tuple(zip(coords, signs))

    return build()


class TestPoint:
    def test_signs_roundtrip(self):
        p = Point.from_signs([1, -1, -1, 1])
        assert p.signs == (1, -1, -1, 1)
        assert p.mask == 0b1001

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            Point.from_signs([1, 0, -1])

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            Point(d=2, mask=4)


class TestLeafPaths:
    def test_root_encoding(self):
        assert encode_path(()) == "."
        assert parse_path(".") == ()

    def test_encoding_is_one_based(self):
        assert encode_path(((2, 1), (4, -1))) == "3+5-"

    @given(paths())
    def test_encode_parse_roundtrip(self, path):
        assert parse_path(encode_path(path)) == path

    @pytest.mark.parametrize("bad", ["0+", "1+0-", "00-"])
    def test_coordinates_below_one_rejected(self, bad):
        with pytest.raises(ValueError, match="malformed path"):
            parse_path(bad)

    @pytest.mark.parametrize("bad", ["01+", "\u0662+", "3+01-"])
    def test_numbers_the_writer_never_spells_rejected(self, bad):
        with pytest.raises(ValueError, match="malformed path"):
            parse_path(bad)

    @pytest.mark.parametrize("bad", ["3", "3x", "+", "1+2"])
    def test_sign_missing_or_unknown_character_rejected(self, bad):
        with pytest.raises(ValueError, match="malformed path"):
            parse_path(bad)

    def test_constraint_matches_membership(self):
        path = ((0, 1), (3, -1))
        m, v = path_constraint(path)
        assert m == 0b1001 and v == 0b0001
        assert point_reaches(0b0001, path)
        assert not point_reaches(0b1001, path)


class TestTape:
    def test_same_key_same_stream(self):
        a = RandomnessTape(7).uniform_masks(10, 50, "x", "k")
        b = RandomnessTape(7).uniform_masks(10, 50, "x", "k")
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        tape = RandomnessTape(7)
        a = tape.uniform_masks(10, 50, "x", "k1")
        b = tape.uniform_masks(10, 50, "x", "k2")
        c = tape.uniform_masks(10, 50, "y", "k1")
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draw_order_irrelevant(self):
        tape = RandomnessTape(3)
        first = tape.uniform_masks(8, 10, "a")
        tape.uniform_masks(8, 1000, "b")  # interleaved traffic on another key
        again = tape.uniform_masks(8, 10, "a")
        assert np.array_equal(first, again)

    def test_masks_in_range(self):
        masks = RandomnessTape(0).uniform_masks(5, 1000, "r")
        assert masks.max() < 32

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_draws_equal_the_uint64_stream_narrowed(self, seed):
        # Points are drawn in mask_dtype(d).  Every dataset, tree and trace is
        # pinned to the uint64 draw narrowed after, so a numpy whose uint32
        # draw leaves that stream must fail here, not change the data.
        for d in [*range(1, 33), 33, 40, 63]:
            for n in (0, 1, 2, 7, 1000, 4097, (1 << 17) + 3):
                wide = RandomnessTape(seed).substream("p", "k").integers(
                    0, 1 << d, size=n, dtype=np.uint64)
                masks = RandomnessTape(seed).uniform_masks(d, n, "p", "k")
                assert masks.dtype == mask_dtype(d)
                assert np.array_equal(masks, wide), (d, n)

    def test_seed_outside_64_bits_rejected(self):
        # Seeds are hashed as 8 bytes; wider ones would alias a seed in range.
        for bad in (-1, 2 ** 64, 5 + 2 ** 64):
            with pytest.raises(ValueError):
                RandomnessTape(bad)
        top = RandomnessTape(2 ** 64 - 1).uniform_masks(8, 10, "r")
        assert not np.array_equal(top, RandomnessTape(0).uniform_masks(8, 10, "r"))


def _dataset(seed=0, d=6, n=100):
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 1 << d, size=n, dtype=np.uint64)
    labels = rng.integers(0, 2, size=n).astype(np.uint8)
    return LabeledDataset(d, masks, labels)


def _pinned_to_indices(batch, ds, indices):
    """A labeled pool or batch is the rows ds.masks[indices], ds.labels[indices]."""
    assert batch.indices is None and batch.size == len(indices)
    assert batch.masks.dtype == ds.masks.dtype and batch.labels.dtype == np.uint8
    assert batch.masks.tobytes() == ds.masks[indices].tobytes()
    assert batch.labels.tobytes() == ds.labels[indices].tobytes()


class TestMinibatch:
    def test_whole_dataset_when_b_exceeds_n(self, tape):
        ds = _dataset(n=20)
        indices = draw_minibatch(ds.unlabeled(), (), 50, tape).indices
        assert np.array_equal(indices, np.arange(20))
        _pinned_to_indices(draw_minibatch(ds, (), 50, tape), ds, indices)

    def test_empty_when_nothing_consistent(self, tape):
        ds = LabeledDataset(3, np.array([0b000, 0b010], dtype=np.uint64),
                            np.array([0, 1], dtype=np.uint8))
        batch = draw_minibatch(ds, ((0, 1),), 4, tape)
        assert batch.size == 0

    def test_repeated_draws_identical(self, tape):
        ds = _dataset(n=500)
        for source in (ds, ds.unlabeled()):
            a = draw_minibatch(source, ((1, -1),), 16, tape)
            b = draw_minibatch(source, ((1, -1),), 16, tape)
            for got, want in ((a.indices, b.indices), (a.masks, b.masks), (a.labels, b.labels)):
                assert (got is None) == (want is None) and np.array_equal(got, want)

    def test_rejects_nonpositive_b(self, tape):
        with pytest.raises(ValueError):
            draw_minibatch(_dataset(), (), 0, tape)

    @given(st.integers(0, 2 ** 31), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_without_replacement_and_consistent(self, seed, b):
        ds = _dataset(seed=seed % 1000, n=200)
        path = ((2, 1), (5, -1))
        batch = draw_minibatch(ds.unlabeled(), path, b, RandomnessTape(seed))
        assert len(set(batch.indices.tolist())) == batch.size
        assert batch.size <= b and batch.labels is None
        assert batch.masks.tobytes() == ds.masks[batch.indices].tobytes()
        for m in batch.masks:
            assert point_reaches(int(m), path)
        _pinned_to_indices(draw_minibatch(ds, path, b, RandomnessTape(seed)), ds, batch.indices)

    def test_inclusion_frequency_uniform(self):
        # Monte-Carlo: each consistent index should appear with frequency
        # b/m, within 5 standard deviations over 1000 independent draws.
        ds = _dataset(seed=42, d=6, n=60)
        path = ((0, 1),)
        pool = consistent_indices(ds.masks, path)
        m, b, trials = len(pool), 5, 1000
        counts = {int(i): 0 for i in pool}
        for trial in range(trials):
            tape, domain = RandomnessTape(trial), f"mc{trial}"
            batch = draw_minibatch(ds.unlabeled(), path, b, tape, domain=domain)
            assert batch.size == b
            for i in batch.indices:
                counts[int(i)] += 1
            _pinned_to_indices(draw_minibatch(ds, path, b, tape, domain=domain), ds, batch.indices)
        p = b / m
        sd = (trials * p * (1 - p)) ** 0.5
        for i, c in counts.items():
            assert abs(c - trials * p) <= 5 * sd, (i, c)


def _swap_loop_take(rng, pool, k):
    """The earlier partial Fisher-Yates, swapping pool entries in a copy;
    kept as the reference the position replay must match."""
    pool = pool.copy()
    swaps = rng.integers(np.arange(k), len(pool))
    for i in range(k):
        j = swaps[i]
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


class TestPartialShuffle:
    @given(st.integers(1, 5000), st.floats(0, 1), st.sampled_from([np.int32, np.int64]),
           st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_swap_loop(self, m, frac, dtype, seed):
        k = max(1, round(frac * m))
        # The positions taken are those the swap loop leaves in front, and
        # they take from a pool the entries the swap loop takes from it.
        pool = np.sort(np.random.default_rng(seed).choice(4 * m, m, replace=False)).astype(dtype)
        take = _partial_shuffle_take(np.random.default_rng(seed), m, k)
        front = _swap_loop_take(np.random.default_rng(seed), np.arange(m), k)
        assert take.dtype == np.intp and take.tolist() == front.tolist()
        want = _swap_loop_take(np.random.default_rng(seed), pool, k)
        assert pool[take].dtype == want.dtype == dtype
        assert pool[take].tolist() == want.tolist()


@st.composite
def pool_requests(draw):
    """Masks plus the nodes of a random tree over them, requested in a random
    order: some leaves are never split, some are requested again, and some
    are requested before, or without, their parent."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = rng.integers(0, 1 << d, size=n, dtype=np.uint64)
    nodes, leaves = [()], [()]
    for _ in range(draw(st.integers(0, 12))):
        if not leaves:
            break
        path = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        free = [i for i in range(d) if i not in {c for c, _ in path}]
        if free:
            coord = draw(st.sampled_from(free))
            children = [path + ((coord, s),) for s in (-1, 1)]
            nodes += children
            leaves += children
    requests = draw(st.lists(st.sampled_from(nodes), max_size=3 * len(nodes)))
    return masks, requests


class TestLeafPools:
    @given(pool_requests(), st.integers(1, 90))
    @settings(max_examples=300, deadline=None)
    def test_pools_equal_a_full_scan(self, case, b):
        # Pools over the unlabeled view hold the scan's indices and their
        # masks; pools over the labeled dataset, served the same requests,
        # hold those rows.
        masks, requests = case
        ds = LabeledDataset(6, masks, masks % np.uint64(3) == 0)
        view = ds.unlabeled()
        index_pools, row_pools = LeafPools(view), LeafPools(ds)
        for path in requests:
            pool, rows = index_pools(path), row_pools(path)
            assert pool.indices.tolist() == consistent_indices(masks, path).tolist()
            assert np.all(np.diff(pool.indices) > 0)
            assert pool.indices.dtype == np.int32
            assert pool.masks.dtype == view.masks.dtype == np.uint32
            assert pool.masks.tolist() == masks[pool.indices].tolist()
            assert pool.labels is None
            _pinned_to_indices(rows, ds, pool.indices)
            # The root's pool is the dataset's own masks (and labels); any
            # other pool of either dataset views its row buffer or is its own
            # scan, never the dataset's arrays, which the pools do not write.
            if not path:
                assert pool.masks is view.masks
                assert rows.masks is ds.masks and rows.labels is ds.labels
            else:
                for pools, got in ((index_pools, (pool.masks, pool.indices)),
                                   (row_pools, (rows.masks, rows.labels))):
                    for column, kept in zip(got, pools._rows or (None, None)):
                        assert column.base is None or column.base is kept
                        assert not np.shares_memory(column, ds.masks)
                        assert not np.shares_memory(column, ds.labels)
            if len(pool.indices) > b:
                continue
            # A pool of at most b points is the batch.
            for source, own in ((view, pool), (ds, rows)):
                batch = draw_minibatch(source, path, b, RandomnessTape(0), pool=own)
                for got, kept in ((batch.indices, own.indices), (batch.masks, own.masks),
                                  (batch.labels, own.labels)):
                    assert got is kept
                    assert kept is None or kept.size == 0 or np.shares_memory(got, kept)
                # An oracle sets the batch's labels; the pool keeps its own.
                own_labels = own.labels
                batch.labels = np.ones(batch.size, np.uint8)
                assert batch is not own and own.labels is own_labels

    def test_empty_dataset_and_unreached_leaves(self):
        pools = LeafPools(UnlabeledDataset(3, np.zeros(0, np.uint64)))
        assert (pools(()).indices.size == pools(((0, 1),)).indices.size
                == pools(((0, 1), (2, -1))).indices.size == 0)
        masks = np.array([0b00, 0b01, 0b11], np.uint64)
        pools = LeafPools(UnlabeledDataset(2, masks))
        assert pools(((0, 1),)).indices.tolist() == [1, 2]
        assert pools(((0, 1), (1, -1))).indices.tolist() == [1]
        assert pools(((0, -1), (1, 1))).indices.size == 0
        assert pools(((0, 1), (1, 1))).indices.dtype == np.int32

    def test_parent_segment_partitioned_once_for_both_children(self):
        # Over either dataset, a parent's segment is partitioned once, in
        # place, for both children, with no scan; the children are its two
        # halves, and the parent's pool is not kept.
        ds = _dataset(n=500)
        parent_path, b = ((1, -1),), 8
        scanned, splits, split = [], [], LeafPools._split

        def counted(masks, path):
            scanned.append(masks)
            return consistent_indices(masks, path)

        def partitioned(pools, path, coord):
            splits.append((path, coord))
            return split(pools, path, coord)

        for source in (ds.unlabeled(), ds):
            pools = LeafPools(source)
            pools(())
            parent = pools(parent_path)
            reach = consistent_indices(ds.masks, parent_path)
            assert parent.masks.tobytes() == ds.masks[reach].tobytes()
            segment, dropped = parent.masks, weakref.ref(parent)
            del parent
            scanned.clear()
            splits.clear()
            with (mock.patch("treelab.core.consistent_indices", counted),
                  mock.patch.object(LeafPools, "_split", partitioned)):
                minus = pools(parent_path + ((3, -1),))
                plus = pools(parent_path + ((3, 1),))
            assert not scanned and splits == [(parent_path, 3)]
            assert dropped() is None
            assert minus.size + plus.size == len(segment) > b
            for half, at in ((minus, 0), (plus, minus.size)):
                reach = consistent_indices(ds.masks, half.leaf_path)
                if source is ds:
                    _pinned_to_indices(half, ds, reach)
                    rest = half.labels
                else:
                    assert half.indices.tolist() == reach.tolist() and half.labels is None
                    assert half.masks.tobytes() == ds.masks[reach].tobytes()
                    rest = half.indices
                assert half.masks.base is segment.base is pools._rows[0]
                assert rest.base is pools._rows[1]
                start = segment[at:].__array_interface__["data"]
                assert half.masks.__array_interface__["data"] == start

    def test_first_split_holds_no_rows_aside(self):
        # The root's split writes each row straight to its place in the new
        # buffer, so serving the root's first child allocates the buffer and
        # at most 1 MiB more, over either dataset.
        n, d = 1 << 20, 20
        masks = RandomnessTape(3).uniform_masks(d, n, "first-split")
        ds = LabeledDataset(d, masks, masks % 3 == 0)
        for source, rest in ((ds, np.uint8), (ds.unlabeled(), np.int32)):
            pools = LeafPools(source)
            pools(())
            tracemalloc.start()
            try:
                child = pools(((d // 2, -1),))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            buffer = sum(column.nbytes for column in pools._rows)
            assert buffer == n * (np.dtype(np.uint32).itemsize + np.dtype(rest).itemsize)
            assert child.masks.base is pools._rows[0]
            assert peak <= buffer + 2 ** 20

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
    def test_blocked_scan_equals_brute_force(self, n):
        masks = np.random.default_rng(n).integers(0, 1 << 6, size=n, dtype=np.uint64)
        points = masks.tolist()
        for path in (((0, 1),), ((2, -1), (5, 1)), ((1, -1), (3, 1), (4, -1))):
            want = [i for i, x in enumerate(points)
                    if all((x >> c) & 1 == (s == 1) for c, s in path)]
            assert consistent_indices(masks, path).tolist() == want

    def test_root_pool_is_an_arange_not_copied(self):
        ds = _dataset(n=300)
        scans = []

        def counted(masks, path):
            scans.append(path)
            return consistent_indices(masks, path)

        with mock.patch("treelab.core.consistent_indices", counted):
            pool = LeafPools(ds.unlabeled())(())
            rows = LeafPools(ds)(())
        assert not scans
        assert pool.indices.dtype == np.int32 and pool.indices.tolist() == list(range(300))
        assert pool.masks is ds.masks and pool.labels is None
        # The labeled root pool is the dataset's own rows.
        assert rows.indices is None and rows.masks is ds.masks and rows.labels is ds.labels

    @pytest.mark.parametrize("d, coord", [(20, 20), (20, 25), (20, 40), (20, -1),
                                          (40, 40), (40, 63), (40, -1)])
    def test_path_coordinate_outside_d_rejected(self, d, coord, tape):
        # d = 20 stores uint32 masks, d = 40 uint64 ones.
        ds = UnlabeledDataset(d, np.arange(64))
        pools = LeafPools(ds)
        pools(((0, -1),))
        for path in (((coord, 1),), ((0, -1), (coord, 1))):
            with pytest.raises(ValueError, match=rf"outside \[0, {d}\)"):
                draw_minibatch(ds, path, 8, tape)
            with pytest.raises(ValueError, match=rf"outside \[0, {d}\)"):
                pools(path)
        assert draw_minibatch(ds, ((d - 1, -1),), 8, tape).size == 8

    @pytest.mark.parametrize("path", [((0, 1), (0, -1)), ((1, -1), (0, 1), (1, -1)),
                                      ((0, 0),), ((2, 1), (0, 5))])
    def test_path_no_point_can_reach_rejected(self, path):
        # No point reaches these leaves, so each request is an error, not a
        # pool of the points that satisfy part of the path.
        tape = RandomnessTape(1)
        ds = sample_dataset(ReadOnceDNF(4, (frozenset({0}), frozenset({1, 2}))), 64, tape)
        for view in (ds, ds.unlabeled()):
            pools = LeafPools(view)
            pools(((0, 1),))
            for request in (lambda: draw_minibatch(view, path, 8, tape), lambda: pools(path)):
                with pytest.raises(ValueError, match="repeats a coordinate or has a sign"):
                    request()

    def test_draw_from_pool_equals_draw_from_scan(self, tape):
        ds = _dataset(n=500)
        path = ((1, -1), (3, 1))
        for b in (1, 16, 500):
            view = ds.unlabeled()
            a = draw_minibatch(view, path, b, tape)
            c = draw_minibatch(view, path, b, tape, pool=LeafPools(view)(path))
            assert a.indices.tolist() == c.indices.tolist()
            assert a.labels is None and c.labels is None
            assert a.masks.tobytes() == c.masks.tobytes()
            _pinned_to_indices(draw_minibatch(ds, path, b, tape), ds, a.indices)
            _pinned_to_indices(draw_minibatch(ds, path, b, tape, pool=LeafPools(ds)(path)),
                               ds, a.indices)

    @given(pool_requests(), st.integers(1, 90), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_draw_indices_equal_with_and_without_pool(self, case, b, seed):
        # Every draw's indices have the pools' dtype, and a draw given no
        # pool scans the dataset once, except at the root of either dataset,
        # whose pool is the dataset's rows.  The indices are those of the
        # draws on the unlabeled view, and a labeled draw takes those rows.
        masks, requests = case
        ds = LabeledDataset(6, masks, masks % np.uint64(3) == 0)
        view, tape = ds.unlabeled(), RandomnessTape(seed)
        sources = [(view, LeafPools(view)), (ds, LeafPools(ds))]
        scans = []

        def counted(masks, path):
            scans.append(path)
            return consistent_indices(masks, path)

        for path in requests:
            draws = []
            for source, pools in sources:
                pool = pools(path)
                with mock.patch("treelab.core.consistent_indices", counted):
                    draws.append(draw_minibatch(source, path, b, tape))
                    once = [path] if path else []
                    assert scans == once
                    draws.append(draw_minibatch(source, path, b, tape, pool=pool))
                    assert scans == once
                scans.clear()
            scanned, pooled, rows_scanned, rows_pooled = draws
            assert scanned.indices.dtype == pooled.indices.dtype == np.int32
            assert scanned.indices.tobytes() == pooled.indices.tobytes()
            _pinned_to_indices(rows_scanned, ds, scanned.indices)
            _pinned_to_indices(rows_pooled, ds, scanned.indices)


@st.composite
def draw_cases(draw):
    """A labeled dataset of random d and n, a leaf path over its d
    coordinates, a batch size, a seed and whether the draw gets a pool."""
    d, n = draw(st.integers(1, 12)), draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ds = LabeledDataset(d, rng.integers(0, 1 << d, n, dtype=np.uint64),
                        rng.integers(0, 2, n, dtype=np.uint8))
    coords = draw(st.permutations(range(d)))[:draw(st.integers(0, min(d, 4)))]
    path = tuple((c, draw(st.sampled_from([-1, 1]))) for c in coords)
    return ds, path, draw(st.integers(1, 64)), draw(st.integers(0, 2 ** 64 - 1)), draw(st.booleans())


class TestLabeledDraw:
    @given(draw_cases())
    @settings(max_examples=300, deadline=None)
    def test_labeled_draw_is_the_rows_of_the_unlabeled_draw(self, case):
        ds, path, b, seed, pooled = case
        view = ds.unlabeled()
        pools = LeafPools(view), LeafPools(ds)
        # The pools of the path's ancestors are requested first, so the
        # leaf's pools are partitioned from their parents' segments.
        for k in range(len(path) + 1):
            kept = [p(path[:k]) for p in pools]
            assert kept[1].indices is None
        index_pool, row_pool = kept if pooled else (None, None)
        indices = draw_minibatch(view, path, b, RandomnessTape(seed), pool=index_pool).indices
        reach = consistent_indices(ds.masks, path).tolist()
        assert len(set(indices.tolist())) == len(indices) == min(b, len(reach))
        assert set(indices.tolist()) <= set(reach)
        batch = draw_minibatch(ds, path, b, RandomnessTape(seed), pool=row_pool)
        _pinned_to_indices(batch, ds, indices)


@st.composite
def request_orders(draw):
    """A labeled dataset of random d and n, a batch size, and leaf requests
    mixing the learners' order (a child of a requested leaf) with re-requests
    of split parents, deep paths asked first and second root coordinates."""
    d, n = draw(st.integers(1, 6)), draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ds = LabeledDataset(d, rng.integers(0, 1 << d, n, dtype=np.uint64),
                        rng.integers(0, 2, n, dtype=np.uint8))
    requests = [()] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["child", "child", "child", "again", "any"]))
        base = draw(st.sampled_from(requests or [()])) if kind != "any" else ()
        free = [c for c in range(d) if c not in {c for c, _ in base}]
        if kind == "again" or not free:
            requests.append(base)
        elif kind == "child":
            sign = draw(st.sampled_from([-1, 1]))
            requests.append(base + ((draw(st.sampled_from(free)), sign),))
        else:
            coords = draw(st.permutations(range(d)))[:draw(st.integers(1, min(d, 3)))]
            requests.append(tuple((c, draw(st.sampled_from([-1, 1]))) for c in coords))
    return ds, draw(st.integers(1, 64)), requests


class TestRowBuffer:
    @given(request_orders(), st.sampled_from([1, 3, 7, BLOCK_ROWS]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_labeled_pools_are_the_scanned_rows_in_any_request_order(self, case, block, seed):
        # Each pool is the rows at the indices a scan of the unlabeled view
        # finds, and keeps them until a child of its leaf is requested; the
        # rows are copied into one buffer at most, and the dataset is never
        # written.  Every draw from a pool equals the draw without one.
        ds, b, requests = case
        view, tape = ds.unlabeled(), RandomnessTape(seed)
        before = ds.masks.copy(), ds.labels.copy()
        pools, live, buffer = LeafPools(ds), [], None
        with mock.patch("treelab.core.BLOCK_ROWS", block):
            for path in requests:
                live = [kept for kept in live if kept[0] != path[:-1]]
                pool = pools(path)
                live.append((path, pool, consistent_indices(view.masks, path)))
                for _, kept, indices in live:
                    _pinned_to_indices(kept, ds, indices)
                buffer = buffer or pools._rows
                assert pools._rows is buffer
                unpooled = draw_minibatch(ds, path, b, tape)
                pooled = draw_minibatch(ds, path, b, tape, pool=pool)
                assert pooled.masks.tobytes() == unpooled.masks.tobytes()
                assert pooled.labels.tobytes() == unpooled.labels.tobytes()
                _pinned_to_indices(unpooled, ds, draw_minibatch(view, path, b, tape).indices)
        assert ds.masks.tobytes() == before[0].tobytes()
        assert ds.labels.tobytes() == before[1].tobytes()


def _rows16(k, labeled=True):
    """k canonical rows at d = 16; row i encodes mask 40503*i mod 2^16."""
    out = []
    for i in range(k):
        m = (i * 40503) % (1 << 16)
        signs = " ".join("1" if (m >> j) & 1 else "-1" for j in range(16))
        out.append(signs + (f" {m & 1}" if labeled else "") + "\n")
    return "".join(out)


ROW16 = " ".join(["1"] * 16)

# Odd and malformed dataset texts for `read_dataset`, by case name.
READER_CORPUS = {
    # Entries and labels are read with int(), so these are accepted.
    "plus-one": "2 1\n+1 -1 0\n",
    "zero-padded": "2 2\n01 -1 1\n-01 1 0\n",
    "label-minus-zero": "2 1\n1 1 -0\n",
    "label-plus-one": "2 1\n-1 1 +1\n",
    "arabic-indic-one": "2 1\n\u0661 -1 \u0661\n",
    "fullwidth-one": "2 1\n-\uff11 \uff11 0\n",
    "math-bold-one": "2 1\n\U0001d7cf -1 0\n",
    "underscore-label": "2 1\n1 1 0_1\n",
    "multiblock-odd-tokens": "16 3000\n" + "".join(
        r.replace("-1 ", "-01 ", 1) if i % 7 == 0 else r
        for i, r in enumerate(_rows16(3000).splitlines(keepends=True))),
    "unlabeled": "3 2\n1 -1 1\n-1 -1 -1\n",
    "d63-all-plus": ("63 2\n" + " ".join(["1"] * 63) + " 1\n"
                     + " ".join(["-1"] * 62 + ["1"]) + " 0\n"),
    # Values out of range or not integers.
    "entry-two": "2 1\n1 2 0\n",
    "entry-zero": "2 1\n0 1\n",
    "entry-x": "2 1\n1 x 0\n",
    "entry-float": "2 1\n1.0 1 0\n",
    "entry-unicode-minus": "2 1\n\u2212" "1 1 0\n",
    "entry-nul": "2 1\n1\x00 1 0\n",
    "entry-lone-surrogate": "2 1\n1 \ud800 0\n",
    "entry-underscore": "2 1\n1_0 1 0\n",
    "label-two": "2 1\n1 1 2\n",
    "label-minus-one": "2 1\n1 1 -1\n",
    "label-x": "2 1\n1 1 y\n",
    "entry-before-label": "2 1\n1 3 7\n",
    "value-before-later-parse": "2 1\n3 x 0\n",
    "parse-before-later-value": "2 1\nx 3 0\n",
    "earliest-row-wins": "2 3\n1 1 0\n1 1 5\n1 9 0\n",
    # Separators: whatever str.split() accepts.
    "tabs": "2 2\n1\t-1\t0\n-1\t\t1 1\n",
    "carriage-returns": "2 2\r\n1 -1 0\r\n-1\r1\r1\r\n",
    "vertical-tab-form-feed": "2 1\n1\x0b-1\x0c0\n",
    "file-separators": "2 1\n1\x1c-1\x1d0\x1e\x1f\n",
    "nbsp": "2 1\n1\xa0-1\xa00\n",
    "unicode-spaces": "2 2\n1\u3000-1\u20030\u2028\n-1\u0085\u16801\u202f\u205f1\u2029\n",
    "leading-trailing-space": "2 1\n   1 -1 0   \n",
    "zero-width-space-not-a-separator": "2 1\n1\u200b-1 0\n",
    # Row structure.
    "blank-row-first": "2 1\n\n1 1 0\n",
    "blank-row-between": "2 2\n1 1 0\n\n-1 1 1\n",
    "no-final-newline": "2 2\n1 1 0\n-1 -1 1",
    "no-final-newline-unlabeled": "2 2\n1 1\n-1 -1",
    "n-beyond-rows": "2 3\n1 1 0\n-1 1 1\n",
    "n-beyond-rows-unlabeled": "2 3\n1 1\n-1 1\n",
    "fields-row0-too-many": "2 1\n1 1 1 1\n",
    "fields-row0-too-few": "2 1\n1\n",
    "fields-row1-unlabeled-after-labeled": "2 2\n1 1 0\n1 1\n",
    "fields-row1-labeled-after-unlabeled": "2 2\n1 1\n1 1 0\n",
    "fields-row5000": "16 6000\n" + _rows16(5000) + ROW16 + "\n" + _rows16(999),
    "entry-row5000": "16 6000\n" + _rows16(5000) + "1 3" + " 1" * 14 + " 0\n" + _rows16(999),
    "label-row5000-unlabeled-rows": "16 5001\n" + _rows16(5000, False) + ROW16 + " 1\n",
    "missing-row5000": "16 5001\n" + _rows16(5000),
    "header-tabs": "2\t1\n1 1 0\n",
    "header-plus": "+2 01\n1 1 0\n",
}


# Outcomes of `read_dataset` on the corpus, recorded from the row-at-a-time
# reader: (class, d, n, digest of masks and labels) or (exception, message).
READER_OUTCOMES = {
    "plus-one": ("LabeledDataset", 2, 1, "a536aa3cede6ea3c"),
    "zero-padded": ("LabeledDataset", 2, 2, "f978342be750b8e6"),
    "label-minus-zero": ("LabeledDataset", 2, 1, "dc4c8669df128318"),
    "label-plus-one": ("LabeledDataset", 2, 1, "f83f60940c1ec44c"),
    "arabic-indic-one": ("LabeledDataset", 2, 1, "f52f3a746c254565"),
    "fullwidth-one": ("LabeledDataset", 2, 1, "4322fd2bc0a137d1"),
    "math-bold-one": ("LabeledDataset", 2, 1, "a536aa3cede6ea3c"),
    "underscore-label": ("LabeledDataset", 2, 1, "3f446a7c4145b1f0"),
    "multiblock-odd-tokens": ("LabeledDataset", 16, 3000, "d7e47b628a79850f"),
    "unlabeled": ("UnlabeledDataset", 3, 2, "966a28d35016032e"),
    "d63-all-plus": ("LabeledDataset", 63, 2, "5c6e81175d76a254"),
    "entry-two": ("ValueError", "row 0: entry 2 not in {-1,1}"),
    "entry-zero": ("ValueError", "row 0: entry 0 not in {-1,1}"),
    "entry-x": ("ValueError", "invalid literal for int() with base 10: 'x'"),
    "entry-float": ("ValueError", "invalid literal for int() with base 10: '1.0'"),
    "entry-unicode-minus": ("ValueError", "invalid literal for int() with base 10: '\u22121'"),
    "entry-nul": ("ValueError", "invalid literal for int() with base 10: '1\\x00'"),
    "entry-lone-surrogate": ("ValueError", "invalid literal for int() with base 10: '\\ud800'"),
    "entry-underscore": ("ValueError", "row 0: entry 1_0 not in {-1,1}"),
    "label-two": ("ValueError", "row 0: label 2 not in {0,1}"),
    "label-minus-one": ("ValueError", "row 0: label -1 not in {0,1}"),
    "label-x": ("ValueError", "invalid literal for int() with base 10: 'y'"),
    "entry-before-label": ("ValueError", "row 0: entry 3 not in {-1,1}"),
    "value-before-later-parse": ("ValueError", "row 0: entry 3 not in {-1,1}"),
    "parse-before-later-value": ("ValueError", "invalid literal for int() with base 10: 'x'"),
    "earliest-row-wins": ("ValueError", "row 1: label 5 not in {0,1}"),
    "tabs": ("LabeledDataset", 2, 2, "ab87fdae8c0a6fa2"),
    "carriage-returns": ("LabeledDataset", 2, 2, "ab87fdae8c0a6fa2"),
    "vertical-tab-form-feed": ("LabeledDataset", 2, 1, "a536aa3cede6ea3c"),
    "file-separators": ("LabeledDataset", 2, 1, "a536aa3cede6ea3c"),
    "nbsp": ("LabeledDataset", 2, 1, "a536aa3cede6ea3c"),
    "unicode-spaces": ("LabeledDataset", 2, 2, "ab87fdae8c0a6fa2"),
    "leading-trailing-space": ("LabeledDataset", 2, 1, "a536aa3cede6ea3c"),
    "zero-width-space-not-a-separator": (
        "ValueError", "invalid literal for int() with base 10: '1\\u200b-1'"),
    "blank-row-first": ("ValueError", "row 0: expected 2 or 3 fields"),
    "blank-row-between": ("ValueError", "row 1: inconsistent field count"),
    "no-final-newline": ("LabeledDataset", 2, 2, "960ac6808a8c0d1b"),
    "no-final-newline-unlabeled": ("UnlabeledDataset", 2, 2, "59d5966c96af7eca"),
    "n-beyond-rows": ("ValueError", "row 2: inconsistent field count"),
    "n-beyond-rows-unlabeled": ("ValueError", "row 2: inconsistent field count"),
    "fields-row0-too-many": ("ValueError", "row 0: expected 2 or 3 fields"),
    "fields-row0-too-few": ("ValueError", "row 0: expected 2 or 3 fields"),
    "fields-row1-unlabeled-after-labeled": ("ValueError", "row 1: inconsistent field count"),
    "fields-row1-labeled-after-unlabeled": ("ValueError", "row 1: inconsistent field count"),
    "fields-row5000": ("ValueError", "row 5000: inconsistent field count"),
    "entry-row5000": ("ValueError", "row 5000: entry 3 not in {-1,1}"),
    "label-row5000-unlabeled-rows": ("ValueError", "row 5000: inconsistent field count"),
    "missing-row5000": ("ValueError", "row 5000: inconsistent field count"),
    "header-tabs": ("LabeledDataset", 2, 1, "dc4c8669df128318"),
    "header-plus": ("LabeledDataset", 2, 1, "dc4c8669df128318"),
}


class TestDatasetIO:
    def test_labeled_roundtrip(self):
        ds = _dataset(n=17)
        buf = io.StringIO()
        write_dataset(ds, buf)
        buf.seek(0)
        back = read_dataset(buf)
        assert isinstance(back, LabeledDataset)
        assert np.array_equal(back.masks, ds.masks)
        assert np.array_equal(back.labels, ds.labels)

    def test_unlabeled_roundtrip(self):
        ds = _dataset(n=9).unlabeled()
        buf = io.StringIO()
        write_dataset(ds, buf)
        buf.seek(0)
        back = read_dataset(buf)
        assert isinstance(back, UnlabeledDataset)
        assert not isinstance(back, LabeledDataset)
        assert np.array_equal(back.masks, ds.masks)

    def test_header_format(self):
        ds = _dataset(n=3, d=4)
        buf = io.StringIO()
        write_dataset(ds, buf)
        assert buf.getvalue().splitlines()[0] == "4 3"

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            read_dataset(io.StringIO("2 1\n1 2 0\n"))
        with pytest.raises(ValueError):
            read_dataset(io.StringIO("2 1\n1 -1 7\n"))
        with pytest.raises(ValueError):
            read_dataset(io.StringIO("oops\n"))

    @pytest.mark.parametrize("tail", ["GARBAGE\n", "1 1 0\n", "\n1 1 0", "  x"])
    def test_rejects_content_after_declared_rows(self, tail):
        with pytest.raises(ValueError, match="after the 2 rows"):
            read_dataset(io.StringIO("2 2\n1 -1 1\n-1 1 0\n" + tail))

    def test_trailing_blank_lines_accepted(self):
        back = read_dataset(io.StringIO("2 2\n1 -1 1\n-1 1 0\n\n  \n\t\n"))
        assert back.n == 2 and list(back.labels) == [1, 0]

    @pytest.mark.parametrize("text, match", [
        ("65 1\n" + " 1" * 65 + "\n", "dimension"),
        ("0 0\n", "dimension"),
        # The header's n is not allocated up front: one row, then the error.
        ("20 100000000000000\n" + " 1" * 20 + "\n", "row 1"),
        ("2 -1\n", "dataset size"),
    ], ids=["d-65", "d-0", "huge-n", "negative-n"])
    def test_rejects_malformed_headers(self, text, match):
        with pytest.raises(ValueError, match=match):
            read_dataset(io.StringIO(text))

    def test_empty_dataset(self):
        back = read_dataset(io.StringIO("3 0\n"))
        assert isinstance(back, UnlabeledDataset) and back.n == 0 and back.d == 3

    @pytest.mark.parametrize("case", list(READER_CORPUS))
    def test_reader_corpus(self, case):
        try:
            ds = read_dataset(io.StringIO(READER_CORPUS[case]))
        except ValueError as e:
            outcome = (type(e).__name__, str(e))
        else:
            # Hashed as uint64, so READER_OUTCOMES holds whatever the stored dtype.
            assert ds.masks.dtype == mask_dtype(ds.d)
            h = hashlib.sha256(ds.masks.astype(np.uint64).tobytes())
            if isinstance(ds, LabeledDataset):
                h.update(ds.labels.tobytes())
            outcome = (type(ds).__name__, ds.d, ds.n, h.hexdigest()[:16])
        assert outcome == READER_OUTCOMES[case]


def _reference_text(ds):
    """The dataset text written one row at a time from each point's signs."""
    labeled = isinstance(ds, LabeledDataset)
    out = [f"{ds.d} {ds.n}\n"]
    for i in range(ds.n):
        row = " ".join(str(s) for s in ds.point(i).signs)
        if labeled:
            row += f" {int(ds.labels[i])}"
        out.append(row + "\n")
    return "".join(out)


@st.composite
def io_datasets(draw):
    """Datasets at any d, from empty to a little over two I/O blocks."""
    d = draw(st.integers(1, MAX_DIM))
    rows = BLOCK_TOKENS // (d + 1)
    n = draw(st.one_of(st.sampled_from([0, 1, rows - 1, rows, rows + 1, 2 * rows + 1]),
                       st.integers(0, 2 * rows + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = rng.integers(0, 1 << d, size=n, dtype=np.uint64)
    masks[:1] = (1 << d) - 1
    if draw(st.booleans()):
        return LabeledDataset(d, masks, rng.integers(0, 2, size=n).astype(np.uint8))
    return UnlabeledDataset(d, masks)


class TestBlockedDatasetIO:
    @given(io_datasets())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_reference_text(self, ds):
        buf = io.StringIO()
        write_dataset(ds, buf)
        assert buf.getvalue() == _reference_text(ds)
        buf.seek(0)
        back = read_dataset(buf)
        # Without rows the text cannot tell a labeled dataset from an unlabeled one.
        assert type(back) is (type(ds) if ds.n else UnlabeledDataset) and back.d == ds.d
        assert back.masks.tolist() == ds.masks.tolist()
        if isinstance(back, LabeledDataset):
            assert back.labels.tolist() == ds.labels.tolist()

    def test_every_split_separator_is_read(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        text = "".join(f"1{c}-1{c}0\n" for c in spaces if c != "\n")
        back = read_dataset(io.StringIO(f"2 {len(spaces) - 1}\n" + text))
        assert back.masks.tolist() == [1] * (len(spaces) - 1)
        for joiner in ["\u200b", "\u180e", "\ufeff", "\x00"]:
            with pytest.raises(ValueError, match="invalid literal"):
                read_dataset(io.StringIO(f"2 1\n1{joiner}-1 0\n"))

    def test_reads_in_bounded_memory(self):
        # About 5 MB of text: reading it whole would allocate more than the
        # bound before converting a single row.
        rng = np.random.default_rng(5)
        n = 1 << 15
        ds = LabeledDataset(63, rng.integers(0, 1 << 63, size=n, dtype=np.uint64),
                            rng.integers(0, 2, size=n).astype(np.uint8))
        buf = io.StringIO()
        write_dataset(ds, buf)
        buf = io.StringIO(buf.getvalue())
        assert len(buf.getvalue()) > 5_000_000
        tracemalloc.start()
        try:
            back = read_dataset(buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.masks.tolist() == ds.masks.tolist()
        assert peak < 3 * 2 ** 20

    def test_writes_in_bounded_memory(self):
        # About 5 MB of text, written to a sink that keeps only its digest.
        rng = np.random.default_rng(5)
        n = 1 << 15
        ds = LabeledDataset(63, rng.integers(0, 1 << 63, size=n, dtype=np.uint64),
                            rng.integers(0, 2, size=n).astype(np.uint8))
        want = _reference_text(ds)
        assert len(want) > 5_000_000
        sink = _DigestSink()
        tracemalloc.start()
        try:
            write_dataset(ds, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.digest.hexdigest() == hashlib.sha256(want.encode()).hexdigest()
        assert peak < 3 * 2 ** 20

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_file_row_ends_read_as_newlines(self, tmp_path, newline):
        # A file opened by path in the default newline mode, as the CLI opens
        # it, ends its rows at '\n' after translation, also across read blocks.
        rng = np.random.default_rng(11)
        n = 3 * BLOCK_CHARS // 20
        ds = LabeledDataset(10, rng.integers(0, 1 << 10, size=n, dtype=np.uint64),
                            rng.integers(0, 2, size=n).astype(np.uint8))
        text = _reference_text(ds)
        (tmp_path / "rows.txt").write_bytes(text.replace("\n", newline).encode())
        with open(tmp_path / "rows.txt", "r", encoding="utf-8") as fh:
            back = read_dataset(fh)
        want = read_dataset(io.StringIO(text))
        assert back.masks.tolist() == want.masks.tolist() == ds.masks.tolist()
        assert back.labels.tolist() == want.labels.tolist() == ds.labels.tolist()

    @given(st.integers(1, MAX_DIM), st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.booleans(), st.integers(0, 3), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_reads_like_each_row_parsed(self, d, seed, labeled, crlf, odd_rows, corrupt):
        # Whitespace runs, CRLF row ends, other spellings of a value and at
        # most one corrupted row: the blocked reader gives what `_parse_row`
        # gives line by line, dataset or error.
        rng = np.random.default_rng(seed)
        text = _rendered_rows(rng, d, labeled, "\r\n" if crlf else "\n", odd_rows, corrupt)
        assert _read_outcome(text) == _read_row_by_row(text)

    @pytest.mark.parametrize("rows", [
        ["--1 1 1 0"],  # a '-' before a '-'
        ["11 1 0"],  # a digit before a digit, one token fewer
        ["1-1 1 0"],  # a digit before a '-', one token fewer
        ["1 1 1 1 1", "1 1 0"],  # a digit moved from one row to the next
        ["1 1 1 -1"],  # a signed label
        ["-0 1 1 1"],  # a signed zero entry
        ["1 1 1 -0"],  # a signed zero label, read as 0
    ], ids=["minus-minus", "digit-digit", "digit-minus", "moved-digit",
            "signed-label", "minus-zero-entry", "minus-zero-label"])
    def test_rows_with_the_writers_digit_count(self, rows):
        # Rows whose digits still add up to three a row, in the middle of a
        # block of writer-form rows, read as each row alone reads.
        lines = ["1 -1 1 0\n", "-1 -1 -1 1\n"] * (BLOCK_CHARS // 20)
        lines[len(lines) // 2:len(lines) // 2 + len(rows)] = [r + "\n" for r in rows]
        text = f"3 {len(lines)}\n" + "".join(lines)
        assert _read_outcome(text) == _read_row_by_row(text)


class _DigestSink(io.TextIOBase):
    """A text stream that keeps the SHA-256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, s):
        self.digest.update(s.encode())
        return len(s)


# ASCII characters str.split() separates on, '\n' aside.
ASCII_SPACES = list("\t\r\x0b\x0c\x1c\x1d\x1e\x1f ")
# Other int() spellings of an entry -1/+1 and of a label 0/1, and corruptions.
SPELLINGS = {"-1": ["-01", "-001"], "1": ["+1", "01"], "0": ["-0", "00", "+0"]}
CORRUPTIONS = ["2", "0", "x", "-", "--1", "1-1", "1.0", "1 1", "\u22121", "\xa0", ""]


def _rendered_rows(rng, d, labeled, newline, odd_rows, corrupt):
    """Dataset text of a random dataset spanning one to three read blocks:
    cells split, led and trailed by random whitespace runs, `odd_rows` cells
    spelled otherwise and, if `corrupt`, one cell corrupted."""
    runs = np.array(["".join(rng.choice(ASCII_SPACES, size=k))
                     for k in rng.integers(1, 4, size=64)], object)
    width = d + labeled
    # A cell and the run after it take about four characters.
    n = int(rng.integers(BLOCK_CHARS // 2, 3 * BLOCK_CHARS)) // (4 * width)
    cells = np.where(rng.integers(0, 2, size=(n, width)) == 1, "1", "-1").astype(object)
    if labeled:
        cells[:, d] = rng.integers(0, 2, size=n).astype(str)
    seps = runs[rng.integers(0, 64, size=(n, width + 1))]
    seps[rng.integers(0, 2, size=n) == 0, 0] = ""
    seps[rng.integers(0, 2, size=n) == 0, -1] = ""
    for r, i in zip(rng.integers(0, n, size=odd_rows), rng.integers(0, width, size=odd_rows)):
        cells[r, i] = str(rng.choice(SPELLINGS.get(cells[r, i], [cells[r, i]])))
    if corrupt:
        cells[rng.integers(0, n), rng.integers(0, width)] = str(rng.choice(CORRUPTIONS))
    lines = seps[:, 0] + (cells + seps[:, 1:]).sum(axis=1) + newline
    return f"{d} {n}{newline}" + "".join(lines)


def _read_outcome(text):
    """read_dataset's dataset on `text`, as (class, masks, labels), or its error."""
    try:
        ds = read_dataset(io.StringIO(text))
    except ValueError as e:
        return str(e)
    return type(ds).__name__, ds.masks.tolist(), getattr(ds, "labels", np.zeros(0)).tolist()


def _read_row_by_row(text):
    """What read_dataset gives on `text`, all of whose rows end in '\\n':
    each line read by `_parse_row`, or the error message."""
    header, *lines = text.split("\n")
    d, n = map(int, header.split())
    width = len(lines[0].split())
    labeled = width == d + 1
    try:
        if width not in (d, d + 1):
            raise ValueError(f"row 0: expected {d} or {d + 1} fields")
        rows = [_parse_row(lines[i], i, d, labeled) for i in range(n)]
    except ValueError as e:
        return str(e)
    return ("LabeledDataset" if labeled else "UnlabeledDataset",
            [m for m, _ in rows], [y for _, y in rows] if labeled else [])


class TestLabelOracle:
    def test_count_equals_distinct_revealed(self):
        ds = _dataset(d=6, n=50).unlabeled()
        oracle = LabelOracle(Dictator(6, 0), ds)
        oracle.labels_for(np.array([0, 1, 2, 2]))
        assert oracle.query_count == 3
        oracle.labels_for(np.array([1, 2, 3]))
        assert oracle.query_count == 4
        assert oracle.batches_drawn == 2

    @pytest.mark.parametrize("dtype", [None, np.int32, np.uint64])
    def test_duplicates_in_a_request_count_once(self, dtype):
        ds = _dataset(d=6, n=50).unlabeled()
        oracle = LabelOracle(Dictator(6, 0), ds)
        oracle.labels_for(np.array([3, 3, 5], dtype))
        assert oracle.query_count == 2
        oracle.labels_for(np.array([5, 7, 7], dtype))
        assert oracle.query_count == 3

    def test_target_evaluated_on_first_reveal_only(self):
        # Building the oracle evaluates nothing; a request evaluates each of
        # its indices not revealed before, once, in ascending order, and a
        # repeat evaluates none.
        n = BLOCK_ROWS + 3
        ds = UnlabeledDataset(20, np.random.default_rng(5).integers(0, 1 << 20, n, np.uint64))
        target = ReadOnceDNF(20, (frozenset({0, 1}), frozenset({2, 3, 4})))
        evaluated = []

        class Counted:
            d = 20

            def eval_masks(self, masks):
                evaluated.append(masks.copy())
                return target.eval_masks(masks)

        oracle = LabelOracle(Counted(), ds)
        assert evaluated == []
        want = target.eval_masks(ds.masks)
        got = oracle.labels_for(np.array([n - 1, 7, n - 1]))
        assert got.tobytes() == want[[n - 1, 7, n - 1]].tobytes()
        assert [m.tobytes() for m in evaluated] == [ds.masks[[7, n - 1]].tobytes()]
        evaluated.clear()
        got = oracle.labels_for(np.arange(n))
        assert got.tobytes() == want.tobytes()
        assert len(evaluated) == 1 and len(evaluated[0]) == n - 2 == oracle.query_count - 2
        evaluated.clear()
        assert oracle.labels_for(np.arange(n)).tobytes() == want.tobytes()
        assert evaluated == [] and oracle.query_count == n and oracle.batches_drawn == 3

    def test_target_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="target dimension 8 != dataset dimension 4"):
            LabelOracle(Majority(8), UnlabeledDataset(4, np.arange(16)))

    def test_labels_match_target(self):
        ds = _dataset(d=6, n=50).unlabeled()
        target = Dictator(6, 2)
        oracle = LabelOracle(target, ds)
        got = oracle.labels_for(np.arange(50))
        assert np.array_equal(got, target.eval_masks(ds.masks))

    def test_phase_breakdown(self):
        ds = _dataset(d=6, n=50).unlabeled()
        oracle = LabelOracle(Dictator(6, 0), ds)
        oracle.set_phase("a")
        oracle.labels_for(np.array([0, 1]))
        oracle.set_phase("b")
        oracle.labels_for(np.array([1, 2]))
        assert oracle.phase_counts == {"a": 2, "b": 1}

    @pytest.mark.parametrize("bad", [[-1], [50], [0, 50], [3, -2]])
    def test_out_of_range_indices_rejected_and_not_counted(self, bad):
        ds = _dataset(d=6, n=50).unlabeled()
        oracle = LabelOracle(Dictator(6, 0), ds)
        with pytest.raises(ValueError):
            oracle.labels_for(bad)
        assert (oracle.query_count, oracle.batches_drawn, oracle.phase_counts) == (0, 0, {})

    @pytest.mark.parametrize("bad", [[1.7], np.array([2.9]), [True], [0, 1.0]])
    def test_non_integer_indices_rejected_and_not_counted(self, bad):
        ds = _dataset(d=6, n=50).unlabeled()
        oracle = LabelOracle(Dictator(6, 0), ds)
        with pytest.raises(ValueError, match="integers"):
            oracle.labels_for(bad)
        assert (oracle.query_count, oracle.batches_drawn, oracle.phase_counts) == (0, 0, {})

    def test_no_indices_reveal_nothing(self):
        ds = _dataset(d=6, n=50).unlabeled()
        oracle = LabelOracle(Dictator(6, 0), ds)
        got = oracle.labels_for([])
        assert got.size == 0 and got.dtype == np.uint8
        assert (oracle.query_count, oracle.phase_counts) == (0, {})


class TestRunTrace:
    def _trace(self):
        return [TraceEntry((), 3, 0.5, 2.0), TraceEntry(((3, -1),), 1, 0.25, 3.0)]

    def test_roundtrip(self):
        tr = self._trace()
        buf = io.StringIO()
        write_trace(tr, buf)
        assert buf.getvalue() == "1 . 0 4 0.5 2.0\n2 4- 1 2 0.25 3.0\n"
        buf.seek(0)
        back = read_trace(buf)
        assert back == tr and [e.depth for e in back] == [0, 1]

    @pytest.mark.parametrize("line", ["1 . 0 0 0.5 2.0\n", "1 . 0 -3 0.5 2.0\n",
                                      "1 0+ 1 2 0.5 2.0\n"])
    def test_coordinates_below_one_rejected(self, line):
        with pytest.raises(ValueError):
            read_trace(io.StringIO(line))

    def test_blank_lines_skipped(self):
        buf = io.StringIO()
        write_trace(self._trace(), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        back = read_trace(io.StringIO("\n" + lines[0] + "  \n\n" + lines[1] + "\n"))
        assert back == self._trace()

    @pytest.mark.parametrize("line, match", [
        ("1 . 0 1 0.5\n", "malformed trace line"),
        ("1 . 0 1 0.5 2.0 7\n", "malformed trace line"),
        ("1 3+ 0 1 0.5 2.0\n", "depth field disagrees"),
        ("1 . 1 1 0.5 2.0\n", "depth field disagrees"),
    ])
    def test_wrong_field_count_or_depth_rejected(self, line, match):
        with pytest.raises(ValueError, match=match):
            read_trace(io.StringIO(line))

    @pytest.mark.parametrize("line", [
        "01 . 0 1 0.5 2.0\n", "1 . 0 +1 0.5 2.0\n", "1 . 0 1_0 0.5 2.0\n",
        "1 . 00 1 0.5 2.0\n", "\u0661 . 0 1 0.5 2.0\n",
    ])
    def test_numbers_the_writer_never_spells_rejected(self, line):
        with pytest.raises(ValueError, match="malformed integer"):
            read_trace(io.StringIO(line))

    @pytest.mark.parametrize("text", ["0_5", "+0.5", ".5", "0.50", "\u0662.0", "x", "None"])
    @pytest.mark.parametrize("field", [4, 5])
    def test_floats_the_writer_never_spells_rejected(self, text, field):
        # write_trace spells gain and e with repr().  float() takes the first
        # five spellings too, reading 0_5 as 5.0.
        parts = "1 . 0 1 0.5 2.0".split()
        parts[field] = text
        line = " ".join(parts) + "\n"
        with pytest.raises(ValueError, match="malformed float in trace line") as err:
            read_trace(io.StringIO(line))
        assert repr(line) in str(err.value)

    @pytest.mark.parametrize("text", ["0.5", "-0.25", "1e-05", "2.0", "-0.0", "nan", "inf"])
    def test_repr_floats_read_back(self, text):
        back = read_trace(io.StringIO(f"1 . 0 1 {text} {text}\n"))
        buf = io.StringIO()
        write_trace(back, buf)
        assert buf.getvalue() == f"1 . 0 1 {text} {text}\n"

    @pytest.mark.parametrize("line", ["1 1+1- 2 1 0.5 2.0\n", "1 1+ 1 1 0.5 2.0\n"],
                             ids=["path", "split"])
    def test_repeated_coordinates_rejected(self, line):
        # No run splits a leaf on a coordinate its path already fixes.
        with pytest.raises(ValueError, match="repeats a coordinate") as err:
            read_trace(io.StringIO(line))
        assert repr(line) in str(err.value)

    @pytest.mark.parametrize("text", ["2 . 0 1 0.5 2.0\n",
                                      "1 . 0 1 0.5 2.0\n1 . 0 1 0.5 2.0\n"])
    def test_iteration_indices_out_of_sequence_rejected(self, text):
        with pytest.raises(ValueError, match="iteration indices"):
            read_trace(io.StringIO(text))


@st.composite
def strand_growth(draw):
    """Strand masks, duplicates likely, and a sequence of splits of a growing
    tree; some split leaves hold no strand."""
    d = draw(st.integers(1, 7))
    masks = draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=40))
    leaves, splits = [()], []
    for _ in range(draw(st.integers(0, 30))):
        path = leaves[draw(st.integers(0, len(leaves) - 1))]
        free = [i for i in range(d) if i not in {c for c, _ in path}]
        if free:
            coord = draw(st.sampled_from(free))
            leaves.remove(path)
            leaves += [path + ((coord, -1),), path + ((coord, 1),)]
            splits.append((path, coord))
    return np.array(masks, np.uint64), splits


class TestStrandTracker:
    @given(strand_growth())
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force_leaves(self, case):
        masks, splits = case
        tracker = StrandTracker(masks)
        tree = {}
        for path, coord in [(None, None)] + splits:
            if path is not None:
                tracker.advance(path, coord)
                tree[path] = coord
            # Each strand's leaf, walked from the root through the splits.
            leaves = []
            for m in masks.tolist():
                leaf = ()
                while leaf in tree:
                    leaf += ((tree[leaf], sign_bit(m, tree[leaf])),)
                leaves.append(leaf)
            members = {}
            for i, leaf in enumerate(leaves):
                members.setdefault(leaf, []).append(i)
            assert {p: idx.tolist() for p, idx in tracker.members.items()} == members
            assert tracker.distinct_paths() == set(leaves)
            # The mean of 2^depth, summed exactly in integers.
            assert tracker.size_estimate() == sum(1 << len(p) for p in leaves) / len(leaves)

    def test_empty_strand_set_rejected(self):
        tracker = StrandTracker(np.zeros(0, np.uint64))
        tracker.advance((), 0)
        with pytest.raises(ValueError, match="empty strand set"):
            tracker.size_estimate()

    def test_advance_and_estimate(self):
        tracker = StrandTracker(np.array([0b00, 0b01, 0b11], dtype=np.uint64))
        assert tracker.size_estimate() == 1.0
        tracker.advance((), 0)
        # depths now all 1 -> mean 2^1 = 2
        assert tracker.size_estimate() == 2.0
        assert tracker.distinct_paths() == {((0, -1),), ((0, 1),)}
        tracker.advance(((0, 1),), 1)
        # two points at depth 2, one at depth 1 -> (4 + 4 + 2) / 3
        assert tracker.size_estimate() == pytest.approx(10 / 3)
