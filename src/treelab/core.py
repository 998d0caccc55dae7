"""Shared domain types: sign-cube points, datasets, deterministic randomness
substreams, leaf-conditioned minibatches, the metered label oracle, and run
traces.

Points over {-1,+1}^d are stored as packed bit masks (bit i set means
coordinate i is +1) so that exhaustive enumeration at d <= 20 stays cheap.
Coordinates are 0-based in memory; all text formats are 1-based.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import IO, List, Optional, Sequence, Union

import numpy as np

MAX_DIM = 63

# A leaf is identified by its root-to-leaf path: ordered (coordinate, sign)
# pairs with sign in {-1,+1}.  This tuple is the canonical encoding; its
# lexicographic order is the tie-break order, and its string form is the
# randomness-tape key for the leaf's minibatch.
LeafPath = tuple

BATCH_DOMAIN = "leaf-batch"
STRAND_DOMAIN = "strands"
DATA_DOMAIN = "dataset"


def _check_dim(d: int) -> None:
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {d}")


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """A point of {-1,+1}^d, packed as a bit mask (bit i set <=> x_i = +1)."""

    d: int
    mask: int

    def __post_init__(self):
        _check_dim(self.d)
        if not isinstance(self.mask, (int, np.integer)) or isinstance(self.mask, bool):
            raise ValueError(f"mask {self.mask!r} is not an integer")
        if not 0 <= self.mask < (1 << self.d):
            raise ValueError(f"mask {self.mask} out of range for d={self.d}")

    @classmethod
    def from_signs(cls, signs: Sequence[int]) -> "Point":
        mask = 0
        for i, s in enumerate(signs):
            if s == 1:
                mask |= 1 << i
            elif s != -1:
                raise ValueError(f"coordinate {i} is {s}, expected -1 or +1")
        return cls(d=len(signs), mask=mask)

    @property
    def signs(self) -> tuple:
        return tuple(self.sign(i) for i in range(self.d))

    def sign(self, i: int) -> int:
        return 1 if (self.mask >> i) & 1 else -1


def mask_dtype(d: int) -> type:
    """The dtype of packed points of dimension d: uint32 up to d = 32, else uint64."""
    return np.uint32 if d <= 32 else np.uint64


def as_masks(d: int, points) -> np.ndarray:
    """The mask_dtype(d) masks of a sequence of Points of dimension d or of
    integer masks in [0, 2^d) (Python or numpy integers, or an integer array,
    not copied if in mask_dtype(d)).  Any other value raises ValueError."""
    masks = np.asarray(points)
    if masks.ndim != 1:
        raise ValueError("masks must be one-dimensional")
    if masks.dtype.kind not in "iu":
        # Points, integers wider than 64 bits, or a value to reject: checked
        # one at a time by Point.
        points = [p if isinstance(p, Point) else Point(d, p) for p in points]
        for p in points:
            if p.d != d:
                raise ValueError(f"point dimension {p.d} != {d}")
        return np.array([p.mask for p in points], mask_dtype(d))
    if len(masks):
        low = int(masks.min()) if masks.dtype.kind == "i" else 0
        high = int(masks.max())
        if low < 0 or high >= 1 << d:
            raise ValueError(f"mask {low if low < 0 else high} out of range for d={d}")
    return masks.astype(mask_dtype(d), copy=False)


def as_labels(labels, n: int) -> np.ndarray:
    """The uint8 form of n labels, each an integer or bool 0 or 1 (a uint8
    array is not copied).  Any other value or length raises ValueError."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("labels and points must have equal length")
    if n and (labels.dtype.kind not in "biu" or labels.min() < 0 or labels.max() > 1):
        raise ValueError("labels must be 0 or 1")
    return labels.astype(np.uint8, copy=False)


def sign_bit(mask: int, coord: int) -> int:
    """Sign of one coordinate of a packed point: +1 or -1."""
    return 1 if (int(mask) >> coord) & 1 else -1


# ---------------------------------------------------------------------------
# Leaf paths
# ---------------------------------------------------------------------------


def path_coords(path: LeafPath) -> frozenset:
    return frozenset(i for i, _ in path)


def path_constraint(path: LeafPath) -> tuple:
    """(mask, value) ints such that x reaches the leaf iff x & mask == value."""
    m = v = 0
    for i, s in path:
        m |= 1 << i
        if s == 1:
            v |= 1 << i
    return m, v


def point_reaches(mask: int, path: LeafPath) -> bool:
    m, v = path_constraint(path)
    return (int(mask) & m) == v


def encode_path(path: LeafPath) -> str:
    """Compact text form: '.' for the root, else e.g. '3+5-' (1-based)."""
    if not path:
        return "."
    return "".join(f"{i + 1}{'+' if s == 1 else '-'}" for i, s in path)


def parse_natural(text: str) -> int:
    """An integer spelled as the program writes it: ASCII `0` or `[1-9][0-9]*`,
    so a sign, `_`, leading zero or non-ASCII digit that int() takes is a ValueError."""
    if not (text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")):
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


def parse_path(text: str) -> LeafPath:
    if text == ".":
        return ()
    try:
        *nums, tail = re.split("[+-]", text)
        coords = [parse_natural(num) - 1 for num in nums]
        if tail or min(coords, default=0) < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed path {text!r}") from None
    return tuple(zip(coords, (1 if ch == "+" else -1 for ch in text if ch in "+-")))


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class UnlabeledDataset:
    """Point set over {-1,+1}^d, stored as packed masks in mask_dtype(d)."""

    d: int
    masks: np.ndarray

    def __post_init__(self):
        _check_dim(self.d)
        self.masks = as_masks(self.d, self.masks)

    @property
    def n(self) -> int:
        return len(self.masks)

    def point(self, i: int) -> Point:
        return Point(self.d, int(self.masks[i]))


@dataclass
class LabeledDataset(UnlabeledDataset):
    """Points plus {0,1} labels, aligned by index."""

    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))

    def __post_init__(self):
        super().__post_init__()
        self.labels = as_labels(self.labels, self.n)

    def unlabeled(self) -> UnlabeledDataset:
        return UnlabeledDataset(self.d, self.masks)


AnyDataset = Union[LabeledDataset, UnlabeledDataset]


def mask_bytes(masks: np.ndarray) -> np.ndarray:
    """k x itemsize uint8 matrix of the masks' bytes, least significant first."""
    masks = np.ascontiguousarray(masks, masks.dtype.newbyteorder("<"))
    return masks.view(np.uint8).reshape(-1, masks.dtype.itemsize)


def mask_bits(masks: np.ndarray, d: int) -> np.ndarray:
    """k x d uint8 matrix whose entry [j, i] is bit i of masks[j]."""
    low = mask_bytes(masks)[:, :(d + 7) // 8]
    return np.unpackbits(low, axis=1, count=d, bitorder="little")


# Dataset text is written in blocks of rows holding about this many cells, and
# read in blocks of BLOCK_CHARS characters, so the working memory stays
# bounded whatever n is.
BLOCK_TOKENS = 1 << 14
BLOCK_CHARS = 1 << 16
# Array scans and counts take blocks of this many rows, so no temporary is n-sized.
BLOCK_ROWS = 1 << 16
# Byte classes of read text: 1 for an ASCII byte str.split() separates on,
# 2 for '-', 3 for a digit '0'/'1', 0 for any other byte.
_KIND = np.zeros(256, np.uint8)
_KIND[[c for c in range(128) if chr(c).isspace()]] = 1
_KIND[[ord("-"), ord("0"), ord("1")]] = 2, 3, 3


def write_dataset(ds: AnyDataset, fp: IO[str]) -> None:
    """Text format: first line 'd n', then one point per line as d signs in
    {-1,1}, followed by the label for labeled datasets."""
    fp.write(f"{ds.d} {ds.n}\n")
    step = max(1, BLOCK_TOKENS // (ds.d + 1))
    labeled = isinstance(ds, LabeledDataset)
    for lo in range(0, ds.n, step):
        # Each cell is '1' or '-1' (an entry) or '0'/'1' (a label), then a
        # space or, at a row's end, '\n': written at its end offset.
        masks = ds.masks[lo:lo + step]
        widths = np.full((len(masks), ds.d + labeled), 2, np.uint8)
        widths[:, :ds.d] += 1 - mask_bits(masks, ds.d)
        ends = np.cumsum(widths, dtype=np.int64).reshape(widths.shape)
        text = np.full(ends[-1, -1], ord(" "), np.uint8)
        text[ends - 2] = ord("1")
        text[np.extract(widths == 3, ends) - 3] = ord("-")
        text[ends[:, -1] - 1] = ord("\n")
        if labeled:
            text[ends[:, -1] - 2] = ds.labels[lo:lo + step] + ord("0")
        fp.write(text.tobytes().decode("ascii"))


def read_dataset(fp: IO[str]) -> AnyDataset:
    header = fp.readline().split()
    if len(header) != 2:
        raise ValueError("dataset header must be 'd n'")
    d, n = int(header[0]), int(header[1])
    _check_dim(d)
    if n < 0:
        raise ValueError(f"dataset size must be >= 0, got {n}")
    # Grown as rows arrive, so the header's n alone allocates nothing.
    dtype = np.dtype(mask_dtype(d)).newbyteorder("<")
    masks, labels, rows, labeled, rest = bytearray(), bytearray(), 0, None, ""
    while rows < n:
        chunk = fp.read(BLOCK_CHARS)
        # Whole rows only; at the end of the stream the last row need not end
        # in '\n', and each missing row reads as an empty one.
        text = rest + chunk if chunk else rest + "\n"
        cut = text.rfind("\n") + 1
        text, rest = text[:cut], text[cut:]
        if not text:
            continue
        if len(text) > n - rows and text.count("\n") > n - rows:
            *_, tail = text.split("\n", n - rows)
            text, rest = text[:len(text) - len(tail)], tail + rest
        if labeled is None:
            width = len(text[:text.find("\n")].split())
            if width not in (d, d + 1):
                raise ValueError(f"row 0: expected {d} or {d + 1} fields")
            labeled = width == d + 1
        block_masks, block_labels = _read_block(text, rows, d, labeled, dtype)
        masks += block_masks.tobytes()
        labels += block_labels.tobytes()
        rows += len(block_masks)
    if (rest + fp.read()).strip():
        raise ValueError(f"content after the {n} rows the header declares")
    masks = np.frombuffer(masks, dtype=dtype)
    if labeled:
        return LabeledDataset(d, masks, np.frombuffer(labels, dtype=np.uint8))
    return UnlabeledDataset(d, masks)


def _read_block(text: str, row: int, d: int, labeled: bool, dtype: np.dtype) -> tuple:
    """Masks and labels of the rows of `text`, each ending in '\\n', the first
    being row `row`.  A block of ASCII rows of d entries '1'/'-1' (and a label
    '0'/'1') split by whitespace is converted on its bytes at once; any other
    block row by row by `_parse_row`, so the first bad row raises its error."""
    width = d + labeled
    if text.isascii():
        b = np.frombuffer(text.encode("ascii"), np.uint8)
        kind = np.take(_KIND, b)
        digits, ends = np.flatnonzero(kind == 3), np.flatnonzero(b == ord("\n"))
        # Exactly `width` digits between consecutive newlines, each followed
        # by whitespace, and every '-' right before one of them.
        if (kind.all() and len(digits) == width * len(ends)
                and (digits[width - 1::width] < ends).all()
                and (ends[:-1] < digits[width::width]).all()
                and (kind[digits + 1] == 1).all()):
            minus = (b[digits - 1] == ord("-")).reshape(-1, width)
            value = b[digits].reshape(-1, width)
            if (np.count_nonzero(kind == 2) == np.count_nonzero(minus)
                    and (value[:, :d] == ord("1")).all() and not minus[:, d:].any()):
                plus = np.zeros((len(value), 8 * dtype.itemsize), bool)
                np.logical_not(minus[:, :d], out=plus[:, :d])
                labels = value[:, d:].ravel() - ord("0")
                return np.packbits(plus, bitorder="little").view(dtype), labels
    rows = [_parse_row(line, row + i, d, labeled) for i, line in enumerate(text.split("\n")[:-1])]
    return (np.array([m for m, _ in rows], dtype),
            np.array([y for _, y in rows if labeled], np.uint8))


def _parse_row(line: str, row: int, d: int, labeled: bool) -> tuple:
    """(mask, label) of one row, each field read with int(); label 0 if unlabeled."""
    parts = line.split()
    if len(parts) != d + labeled:
        raise ValueError(f"row {row}: inconsistent field count")
    mask = 0
    for i in range(d):
        s = int(parts[i])
        if s not in (-1, 1):
            raise ValueError(f"row {row}: entry {parts[i]} not in {{-1,1}}")
        mask |= (s == 1) << i
    y = int(parts[d]) if labeled else 0
    if y not in (0, 1):
        raise ValueError(f"row {row}: label {y} not in {{0,1}}")
    return mask, y


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomnessTape:
    """Seed-keyed source of independent deterministic substreams.

    Every (master_seed, domain, key) triple maps to its own PCG64 stream via
    a blake2b hash, so draws never depend on call order and distinct keys
    share no state.  All learner variants draw the minibatch of a leaf from
    the substream keyed by that leaf's path, which is what makes the global
    and local algorithms see identical randomness.
    """

    master_seed: int

    def __post_init__(self):
        # The seed is hashed as 8 bytes; a wider one would alias another seed.
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.master_seed}")

    def substream(self, domain: str, key: str = "") -> np.random.Generator:
        h = hashlib.blake2b(digest_size=16)
        h.update(self.master_seed.to_bytes(8, "little"))
        h.update(domain.encode())
        h.update(b"\x00")
        h.update(key.encode())
        return np.random.default_rng(int.from_bytes(h.digest(), "little"))

    def uniform_masks(self, d: int, count: int, domain: str, key: str = "") -> np.ndarray:
        """count i.i.d. uniform points of {-1,+1}^d, drawn in mask_dtype(d): the same
        values as a uint64 draw, so they do not depend on the dtype (test_core pins it)."""
        _check_dim(d)
        return self.substream(domain, key).integers(0, 1 << d, size=count, dtype=mask_dtype(d))


def sample_points(d: int, n: int, tape: RandomnessTape, key: str = "train") -> UnlabeledDataset:
    """The n uniform points that targets.sample_dataset labels under this key."""
    return UnlabeledDataset(d, tape.uniform_masks(d, n, DATA_DOMAIN, key))


# ---------------------------------------------------------------------------
# Minibatches
# ---------------------------------------------------------------------------


@dataclass
class Minibatch:
    """Up to b points consistent with a leaf, drawn without replacement, as
    columns of rows: their masks, with their labels from a labeled dataset
    (indices None) or their dataset indices from an unlabeled one (labels
    None); see LeafPools for pools and their validity."""

    leaf_path: LeafPath
    indices: Optional[np.ndarray]
    masks: np.ndarray
    labels: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.masks)


def consistent_indices(masks: np.ndarray, path: LeafPath) -> np.ndarray:
    """Ascending positions in `masks` of the points consistent with the leaf
    path, in one blocked scan."""
    m, v = path_constraint(path)
    hit = np.empty(len(masks), bool)
    for lo in range(0, len(masks), BLOCK_ROWS):
        np.equal(masks[lo:lo + BLOCK_ROWS] & m, v, out=hit[lo:lo + BLOCK_ROWS])
    return np.flatnonzero(hit)


class LeafPools:
    """Leaf pools: per requested leaf, the Minibatch of every point reaching
    it in ascending dataset order, as rows (mask, label) of a labeled dataset
    or (mask, dataset index) of an unlabeled one, the index int32 when
    n < 2^31.  The root's pool is the dataset's own rows (its indices an
    arange).  A child of an intact (never split) segment is served by
    partitioning that segment stably, minus rows first, a block at a time,
    and views its [lo, hi) part of one row buffer: the root's split writes
    each row straight to its place in it, a later split partitions in
    place.  Other requests scan.  So a pool is valid until one of its
    children is requested; the dataset is never written."""

    def __init__(self, dataset: AnyDataset):
        self.masks, self.labels = dataset.masks, getattr(dataset, "labels", None)
        self.d, self._rows, self._segments = dataset.d, None, {}
        self._dtype = np.int32 if dataset.n < 1 << 31 else np.int64

    def __call__(self, path: LeafPath) -> Minibatch:
        if not all(0 <= c < self.d for c, _ in path):
            raise ValueError(f"path {path} has a coordinate outside [0, {self.d})")
        if len({c for c, _ in path}) < len(path) or not all(s in (-1, 1) for _, s in path):
            raise ValueError(f"path {path} repeats a coordinate or has a sign outside {{-1, 1}}")
        if not path:
            self._segments.setdefault((), (0, len(self.masks)))
            masks = self.masks
            rest = np.arange(len(masks), dtype=self._dtype) if self.labels is None else self.labels
        else:
            if self._segments.get(path[:-1]):
                self._split(path[:-1], path[-1][0])
            segment = self._segments.get(path)
            if segment:
                masks, rest = (a[slice(*segment)] for a in self._rows)
            else:
                at = consistent_indices(self.masks, path)
                masks = self.masks[at]
                rest = at.astype(self._dtype) if self.labels is None else self.labels[at]
        indices, labels = (rest, None) if self.labels is None else (None, rest)
        return Minibatch(path, indices, masks, labels)

    def _split(self, path: LeafPath, coord: int) -> None:
        (lo, hi), self._segments[path] = self._segments[path], None
        rows, bit, at = self._rows, 1 << coord, lo
        if rows is None:
            # The root's split, always the first: the minus rows are counted
            # first, so each row is written straight to its place, one side of
            # a block at a time, and no rows are held aside.
            masks, labels = self.masks, self.labels
            at = hi - sum(np.count_nonzero(masks[i:i + BLOCK_ROWS] & bit)
                          for i in range(0, hi, BLOCK_ROWS))
            self._rows = rows = (np.empty_like(masks),
                                 np.empty(hi, self._dtype if labels is None else labels.dtype))
            ends = [0, at]
            for start in range(0, hi, BLOCK_ROWS):
                up = (masks[start:start + BLOCK_ROWS] & bit) != 0
                for side in (0, 1):
                    take = np.flatnonzero(up if side else ~up)
                    to = slice(ends[side], ends[side] + len(take))
                    np.take(masks[start:], take, out=rows[0][to])
                    if labels is None:
                        np.add(take, start, out=rows[1][to], casting="unsafe")
                    else:
                        np.take(labels[start:], take, out=rows[1][to])
                    ends[side], take = to.stop, None  # one side's positions at a time
        else:
            plus = [[a[:0]] for a in rows]
            for start in range(lo, hi, BLOCK_ROWS):
                stop = min(start + BLOCK_ROWS, hi)
                up = (rows[0][start:stop] & bit) != 0
                down, up = np.flatnonzero(~up), np.flatnonzero(up)
                for a, kept in zip(rows, plus):
                    kept.append(a[start:stop].take(up))
                    a[at:at + len(down)] = a[start:stop].take(down)
                at += len(down)
            for a, kept in zip(rows, plus):
                np.concatenate(kept, out=a[at:hi])
        self._segments.update({path + ((coord, -1),): (lo, at), path + ((coord, 1),): (at, hi)})


def _partial_shuffle_take(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """The first k positions of a Fisher-Yates shuffle of positions 0..m-1."""
    # The swaps are replayed on positions: `moved` maps each displaced
    # position to the one it now holds, so no m-long permutation is built.
    swaps = rng.integers(np.arange(k), m)
    take, moved = [], {}
    for i, j in enumerate(swaps.tolist()):
        take.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(take, np.intp)


def draw_minibatch(
    dataset: AnyDataset,
    leaf_path: LeafPath,
    b: int,
    tape: RandomnessTape,
    domain: str = BATCH_DOMAIN,
    pool: Optional[Minibatch] = None,
) -> Minibatch:
    """Uniform without-replacement draw of b consistent points: the leaf's
    whole `pool` (see LeafPools; if not given, one scan with no row buffer,
    none at the root), sharing its arrays and so their validity, when it has
    at most b, else the rows at the first b positions of a Fisher-Yates
    shuffle of it from the leaf's substream, taken from each column.  A pure
    function of (dataset points, leaf_path, b, tape.master_seed, domain), so
    a labeled dataset and its unlabeled view draw alike."""
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    pool = LeafPools(dataset)(leaf_path) if pool is None else pool
    if pool.size <= b:
        return Minibatch(leaf_path, pool.indices, pool.masks, pool.labels)
    take = _partial_shuffle_take(tape.substream(domain, encode_path(leaf_path)), pool.size, b)
    return Minibatch(leaf_path, *(None if a is None else a[take]
                                  for a in (pool.indices, pool.masks, pool.labels)))


# ---------------------------------------------------------------------------
# Label oracle
# ---------------------------------------------------------------------------


class LabelOracle:
    """Meters label queries against an unlabeled dataset of n points.

    Labels are evaluated on first reveal and cached per dataset index, so
    query_count, the distinct indices revealed, is also the number of points
    `target.eval_masks` evaluated.  A request that raises counts nothing.
    """

    def __init__(self, target, dataset: UnlabeledDataset):
        if target.d != dataset.d:
            raise ValueError(f"target dimension {target.d} != dataset dimension {dataset.d}")
        self.target, self.masks, self.n = target, dataset.masks, dataset.n
        self._labels = np.full(dataset.n, 2, np.uint8)  # 2: not revealed yet
        self.query_count = self.batches_drawn = 0
        self.phase, self.phase_counts = "default", {}

    def set_phase(self, name: str) -> None:
        self.phase = name

    def labels_for(self, indices: np.ndarray) -> np.ndarray:
        """Reveal (and count) labels for dataset indices, integers in [0, n)."""
        indices, n = np.asarray(indices), self.n
        if len(indices) and (indices.dtype.kind not in "iu"
                             or not 0 <= indices.min() <= indices.max() < n):
            raise ValueError(f"label indices must be integers in [0, {n})")
        indices = indices.astype(np.int64, copy=False)
        new = np.sort(indices[self._labels[indices] == 2])
        if len(new):
            new = new[np.concatenate(([True], new[1:] != new[:-1]))]  # distinct
            self._labels[new] = as_labels(self.target.eval_masks(self.masks[new]), len(new))
            self.query_count += len(new)
            self.phase_counts[self.phase] = self.phase_counts.get(self.phase, 0) + len(new)
        self.batches_drawn += 1
        return self._labels[indices]


# ---------------------------------------------------------------------------
# Run traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEntry:
    """One split of a run; a trace is the run's list of them, entry j at position j - 1."""

    path: LeafPath         # the leaf that was split
    coord: int             # 0-based split coordinate
    gain: float            # estimated purity gain of the chosen split
    size_estimate: float   # running size estimate (exact size for capped/full runs)

    @property
    def depth(self) -> int:
        return len(self.path)


def write_trace(trace: List[TraceEntry], fp: IO[str]) -> None:
    """Line format: 'j leaf_path depth coord gain e' (coord 1-based)."""
    for j, e in enumerate(trace, start=1):
        fp.write(f"{j} {encode_path(e.path)} {e.depth} {e.coord + 1} "
                 f"{e.gain!r} {e.size_estimate!r}\n")


def read_trace(fp: IO[str]) -> List[TraceEntry]:
    """What write_trace wrote, each number read only in the spelling it writes."""
    trace = []
    for line in fp:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ValueError(f"malformed trace line: {line!r}")
        j, depth, coord = (parse_natural(parts[k]) for k in (0, 2, 3))
        path = parse_path(parts[1])
        try:
            gain, e = (float(text) for text in parts[4:])
            if [repr(gain), repr(e)] != parts[4:]:
                raise ValueError
        except ValueError:
            raise ValueError(f"malformed float in trace line: {line!r}") from None
        if depth != len(path):
            raise ValueError(f"trace line {j}: depth field disagrees with path")
        if coord < 1:
            raise ValueError(f"trace line {j}: coordinate {coord} is below 1")
        if len(path_coords(path) | {coord - 1}) != depth + 1:
            raise ValueError(f"trace line {j} repeats a coordinate of its path: {line!r}")
        if j != len(trace) + 1:
            raise ValueError(f"iteration indices must be 1..n, got {j} at {len(trace) + 1}")
        trace.append(TraceEntry(path, coord - 1, gain, e))
    return trace


# ---------------------------------------------------------------------------
# Strand bookkeeping
# ---------------------------------------------------------------------------


class StrandTracker:
    """Tracks the current leaf of a fixed multiset of cube points while a
    partial tree grows, and the tree-size estimate they induce (mean of
    2^depth, duplicates counted).  `members` maps each leaf some point
    reaches to the ascending indices of the points there; `total` is the
    exact integer sum of 2^depth over the points."""

    def __init__(self, masks: np.ndarray):
        self.masks = np.asarray(masks)
        self.members = {(): np.arange(len(self.masks))} if len(self.masks) else {}
        self.total = len(self.masks)

    def advance(self, split_path: LeafPath, coord: int) -> None:
        """Move every point sitting at split_path into its child."""
        idx = self.members.pop(split_path, None)
        if idx is None:
            return
        plus = ((self.masks[idx] >> coord) & 1) == 1
        for sign, part in ((-1, idx[~plus]), (1, idx[plus])):
            if len(part):
                self.members[split_path + ((coord, sign),)] = part
        # Each point's 2^depth doubles.
        self.total += len(idx) << len(split_path)

    def distinct_paths(self) -> set:
        return set(self.members)

    def size_estimate(self) -> float:
        """Mean of 2^depth over the points: the exact integer total / count."""
        if not len(self.masks):
            raise ValueError("size estimate over an empty strand set")
        return self.total / len(self.masks)

