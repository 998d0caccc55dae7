"""Shared domain types: sign-cube points, datasets, deterministic randomness
substreams, leaf-conditioned minibatches, the metered label oracle, and run
traces.

Points over {-1,+1}^d are stored as packed bit masks (bit i set means
coordinate i is +1) so that exhaustive enumeration at d <= 20 stays cheap.
Coordinates are 0-based in memory; all text formats are 1-based.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import IO, Iterator, Optional, Sequence, Union

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


def parse_path(text: str) -> LeafPath:
    if text == ".":
        return ()
    out = []
    num = ""
    for ch in text:
        if ch.isdigit():
            num += ch
        elif ch in "+-":
            if not num or int(num) < 1:
                raise ValueError(f"malformed path {text!r}")
            out.append((int(num) - 1, 1 if ch == "+" else -1))
            num = ""
        else:
            raise ValueError(f"malformed path {text!r}")
    if num:
        raise ValueError(f"malformed path {text!r}")
    return tuple(out)


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
        """count i.i.d. uniform points of {-1,+1}^d in mask_dtype(d), drawn as
        uint64 and narrowed after, so the points do not depend on the dtype."""
        _check_dim(d)
        masks = self.substream(domain, key).integers(0, 1 << d, size=count, dtype=np.uint64)
        return masks.astype(mask_dtype(d), copy=False)


def sample_points(d: int, n: int, tape: RandomnessTape, key: str = "train") -> UnlabeledDataset:
    """The n uniform points that targets.sample_dataset labels under this key."""
    return UnlabeledDataset(d, tape.uniform_masks(d, n, DATA_DOMAIN, key))


# ---------------------------------------------------------------------------
# Minibatches
# ---------------------------------------------------------------------------


@dataclass
class Minibatch:
    """Up to b dataset entries consistent with a leaf, drawn without
    replacement (labels None from an unlabeled dataset).  A LeafPools pool
    of over b points has labels None, and masks only once it is a parent."""

    leaf_path: LeafPath
    indices: np.ndarray
    masks: Optional[np.ndarray]
    labels: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.indices)


def consistent_indices(masks: np.ndarray, path: LeafPath) -> np.ndarray:
    """Ascending positions in `masks` of the points consistent with the leaf
    path (an arange in the pools' dtype at the root), in one blocked scan."""
    m, v = path_constraint(path)
    if not path:
        return np.arange(len(masks), dtype=np.int32 if len(masks) < 1 << 31 else np.int64)
    hit = np.empty(len(masks), bool)
    for lo in range(0, len(masks), BLOCK_ROWS):
        np.equal(masks[lo:lo + BLOCK_ROWS] & m, v, out=hit[lo:lo + BLOCK_ROWS])
    return np.flatnonzero(hit)


class LeafPools:
    """Leaf pools: per requested leaf, the Minibatch of every point reaching
    it, indices ascending (int32 when n < 2^31, else int64).  A pool of at
    most b points carries masks and labels and is the leaf's whole batch; a
    larger one has indices only until its first child's request gathers its
    masks (never labels), once for every child.  A pool filters its parent's
    masks while the parent's pool is kept, else scans the dataset, so a tree
    costs O(n*depth) scanned points, not O(n*leaves).  A pool of all its
    source's points shares the source's arrays.  The root's pool is never
    kept; a parent's is dropped once both children have theirs, and a leaf
    is kept only when first served."""

    def __init__(self, dataset: AnyDataset, b: int):
        self.masks, self.labels, self.b = dataset.masks, getattr(dataset, "labels", None), b
        self.d = dataset.d
        self._dtype = np.int32 if dataset.n < 1 << 31 else np.int64
        self._pools: dict = {}
        self._served: set = set()

    def __call__(self, path: LeafPath) -> Minibatch:
        if not all(0 <= c < self.d for c, _ in path):
            raise ValueError(f"path {path} has a coordinate outside [0, {self.d})")
        parent = self._pools.get(path[:-1])
        if parent is None:
            at = pos = consistent_indices(self.masks, path)
            idx, masks, labels = at.astype(self._dtype, copy=False), self.masks, self.labels
        else:
            if parent.masks is None:
                parent.masks = self.masks.take(parent.indices)
            at = consistent_indices(parent.masks, path)
            idx, masks = parent.indices[at], parent.masks
            labels, pos = (self.labels, idx) if parent.labels is None else (parent.labels, at)
        if len(idx) > self.b:
            pool = Minibatch(path, idx, None)
        elif len(at) == len(masks):
            pool = Minibatch(path, idx, masks, labels)
        else:
            pool = Minibatch(path, idx, masks[at], None if labels is None else labels[pos])
        if path and path not in self._served:
            self._served.add(path)
            self._pools[path] = pool
            (coord, sign), parent_path = path[-1], path[:-1]
            if parent_path + ((coord, -sign),) in self._served:
                self._pools.pop(parent_path, None)
        return pool


def _partial_shuffle_take(rng: np.random.Generator, pool: np.ndarray, k: int) -> np.ndarray:
    # Fisher-Yates, stopped after the first k positions, replayed on
    # positions: `moved` maps each displaced position to the one whose entry
    # it now holds, and one gather takes the k chosen entries.
    swaps = rng.integers(np.arange(k), len(pool))
    take, moved = [], {}
    for i, j in enumerate(swaps.tolist()):
        take.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return pool[take]


def draw_minibatch(
    dataset: AnyDataset,
    leaf_path: LeafPath,
    b: int,
    tape: RandomnessTape,
    domain: str = BATCH_DOMAIN,
    pool: Optional[Minibatch] = None,
) -> Minibatch:
    """Uniform without-replacement draw of b consistent entries.

    If fewer than b entries are consistent with the leaf, all of them are
    returned (in ascending dataset order).  The draw is a pure function of
    (dataset, leaf_path, b, tape.master_seed, domain).  `pool` is the leaf's
    pool (see LeafPools), built by one dataset scan if not given.  The batch
    of a pool of at most b points shares its arrays.
    """
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    pool = LeafPools(dataset, b)(leaf_path) if pool is None else pool
    idx = pool.indices
    if len(idx) > b:
        rng = tape.substream(domain, encode_path(leaf_path))
        idx = _partial_shuffle_take(rng, idx, b)
    elif pool.masks is not None:
        return Minibatch(leaf_path, idx, pool.masks, pool.labels)
    masks = dataset.masks[idx]
    labels = dataset.labels[idx] if isinstance(dataset, LabeledDataset) else None
    return Minibatch(leaf_path, idx, masks, labels)


# ---------------------------------------------------------------------------
# Label oracle
# ---------------------------------------------------------------------------


class LabelOracle:
    """Meters label queries against an unlabeled dataset.

    Labels are produced by `target.eval_masks` and cached per dataset index:
    repeated queries for an index are free, so query_count equals the number
    of distinct revealed indices and never decreases.
    """

    def __init__(self, target, dataset: UnlabeledDataset):
        if target.d != dataset.d:
            raise ValueError(f"target dimension {target.d} != dataset dimension {dataset.d}")
        self._labels = np.empty(dataset.n, np.uint8)
        for lo in range(0, dataset.n, BLOCK_ROWS):
            block = dataset.masks[lo:lo + BLOCK_ROWS]
            self._labels[lo:lo + BLOCK_ROWS] = as_labels(target.eval_masks(block), len(block))
        self._revealed = np.zeros(dataset.n, dtype=bool)
        self.query_count = 0
        self.batches_drawn = 0
        self.phase = "default"
        self.phase_counts: dict = {}

    def set_phase(self, name: str) -> None:
        self.phase = name

    def labels_for(self, indices: np.ndarray) -> np.ndarray:
        """Reveal (and count) labels for dataset indices, integers in [0, n)."""
        indices, n = np.asarray(indices), len(self._labels)
        if len(indices) and (indices.dtype.kind not in "iu"
                             or not 0 <= indices.min() <= indices.max() < n):
            raise ValueError(f"label indices must be integers in [0, {n})")
        indices = indices.astype(np.int64, copy=False)
        self.batches_drawn += 1
        new = np.sort(indices[~self._revealed[indices]])
        fresh = int(np.count_nonzero(np.diff(new, prepend=-1)))
        if fresh:
            self._revealed[indices] = True
            self.query_count += fresh
            self.phase_counts[self.phase] = self.phase_counts.get(self.phase, 0) + fresh
        return self._labels[indices]


# ---------------------------------------------------------------------------
# Run traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEntry:
    j: int                 # 1-based iteration index
    path: LeafPath         # the leaf that was split
    depth: int             # len(path)
    coord: int             # 0-based split coordinate
    gain: float            # estimated purity gain of the chosen split
    size_estimate: float   # running size estimate (exact size for capped/full runs)


@dataclass
class RunTrace:
    """Ordered record of every split a learner performed."""

    entries: list = field(default_factory=list)
    depth_cap: Optional[int] = None

    def append(self, path: LeafPath, coord: int, gain: float, size_estimate: float) -> None:
        self.entries.append(
            TraceEntry(len(self.entries) + 1, path, len(path), coord, gain, size_estimate)
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def validate(self) -> None:
        for k, e in enumerate(self.entries, start=1):
            if e.j != k:
                raise ValueError(f"iteration indices must be 1..n, got {e.j} at {k}")
            if e.depth != len(e.path):
                raise ValueError(f"entry {k}: depth {e.depth} != path length")
            if self.depth_cap is not None and e.depth > self.depth_cap:
                raise ValueError(f"entry {k}: split depth {e.depth} exceeds cap {self.depth_cap}")


def write_trace(trace: RunTrace, fp: IO[str]) -> None:
    """Line format: 'j leaf_path depth coord gain e' (coord 1-based)."""
    for e in trace:
        fp.write(f"{e.j} {encode_path(e.path)} {e.depth} {e.coord + 1} "
                 f"{e.gain!r} {e.size_estimate!r}\n")


def read_trace(fp: IO[str]) -> RunTrace:
    trace = RunTrace()
    for line in fp:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ValueError(f"malformed trace line: {line!r}")
        j, path, depth, coord = int(parts[0]), parse_path(parts[1]), int(parts[2]), int(parts[3])
        entry = TraceEntry(j, path, depth, coord - 1, float(parts[4]), float(parts[5]))
        if entry.depth != len(path):
            raise ValueError(f"trace line {j}: depth field disagrees with path")
        if coord < 1:
            raise ValueError(f"trace line {j}: coordinate {coord} is below 1")
        trace.entries.append(entry)
    trace.validate()
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

