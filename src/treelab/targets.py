"""Synthetic target functions over the sign cube, dataset generation, and
exact error computation by enumeration.

Target spec mini-grammar (1-based coordinates, used by the CLI):
`dictator:3`, `majority`, `tribes:4`, `dnf:1|2&3|4&5&6`, `tree:<file>`,
`xor:1,2`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

import numpy as np

from .core import LabeledDataset, RandomnessTape, as_labels, as_masks, mask_dtype, sample_points
from .impurity import _check_exhaustive
from .trees import Tree, evaluate_masks, parse_tree, random_partial_tree, relabel


class TargetFunction:
    """Boolean function {-1,+1}^d -> {0,1} of a Point or packed mask; each
    subclass's eval_masks takes its masks through `as_masks`."""

    d: int

    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x) -> int:
        return int(self.eval_masks([x])[0])


@dataclass
class Dictator(TargetFunction):
    """f(x) = 1 iff x_i = +1."""

    d: int
    i: int

    def __post_init__(self):
        if not 0 <= self.i < self.d:
            raise ValueError(f"dictator coordinate {self.i} out of range")

    def eval_masks(self, masks):
        return ((as_masks(self.d, masks) >> self.i) & 1).astype(np.uint8)


@dataclass
class Majority(TargetFunction):
    """f(x) = 1 iff strictly more than d/2 coordinates are +1."""

    d: int

    def eval_masks(self, masks):
        return (np.bitwise_count(as_masks(self.d, masks)) * 2 > self.d).astype(np.uint8)


@dataclass
class ReadOnceDNF(TargetFunction):
    """Monotone read-once DNF: OR of ANDs over disjoint coordinate sets."""

    d: int
    terms: Tuple[FrozenSet[int], ...]

    def __post_init__(self):
        self.terms = tuple(frozenset(t) for t in self.terms)
        seen: set = set()
        for t in self.terms:
            if not t:
                raise ValueError("empty DNF term")
            if any(not 0 <= i < self.d for i in t):
                raise ValueError("DNF coordinate out of range")
            if seen & t:
                raise ValueError("read-once DNF terms must be disjoint")
            seen |= t
        self._term_masks = [sum(1 << i for i in t) for t in self.terms]

    def eval_masks(self, masks):
        masks = as_masks(self.d, masks)
        hit = np.zeros(len(masks), dtype=bool)
        for tm in self._term_masks:
            hit |= (masks & tm) == tm
        return hit.astype(np.uint8)


class Tribes(ReadOnceDNF):
    """The read-once DNF whose terms are the consecutive blocks of width w
    (the last block may be short)."""

    def __init__(self, d: int, w: int):
        if not 1 <= w <= d:
            raise ValueError(f"tribe width {w} out of range")
        self.w = w
        super().__init__(d, tuple(frozenset(range(start, min(start + w, d)))
                                  for start in range(0, d, w)))


@dataclass
class Xor(TargetFunction):
    """Parity: f(x) = 1 iff an odd number of the selected coordinates are +1.
    Deliberately non-monotone."""

    d: int
    coords: FrozenSet[int]

    def __post_init__(self):
        self.coords = frozenset(self.coords)
        if not self.coords or any(not 0 <= i < self.d for i in self.coords):
            raise ValueError("xor needs a non-empty in-range coordinate set")
        self._sel = sum(1 << i for i in self.coords)

    def eval_masks(self, masks):
        return (np.bitwise_count(as_masks(self.d, masks) & self._sel) & 1).astype(np.uint8)


@dataclass
class ExplicitTree(TargetFunction):
    """A complete decision tree used as the target itself."""

    tree: Tree

    def __post_init__(self):
        if not self.tree.is_complete():
            raise ValueError("explicit-tree target needs labeled leaves")
        self.d = self.tree.d

    def eval_masks(self, masks):
        return evaluate_masks(self.tree, masks)


@dataclass
class TruthTable(TargetFunction):
    """Arbitrary function given by its 2^d-entry value table (mask-indexed)."""

    d: int
    table: np.ndarray

    def __post_init__(self):
        if len(self.table) != (1 << self.d):
            raise ValueError(f"table must have 2^{self.d} entries")
        self.table = as_labels(self.table, 1 << self.d)

    def eval_masks(self, masks):
        return self.table[as_masks(self.d, masks)]


# ---------------------------------------------------------------------------
# Monotonicity and error, by enumeration
# ---------------------------------------------------------------------------


def is_monotone(target: TargetFunction) -> bool:
    """True iff every coordinate is non-decreasing or non-increasing, checked
    over all 2^{d-1} neighbor pairs per coordinate."""
    _check_exhaustive(target.d)
    d = target.d
    idx = np.arange(1 << d, dtype=mask_dtype(d))
    f = target.eval_masks(idx).astype(np.int8)
    for i in range(d):
        low = idx[(idx >> i) & 1 == 0]
        diff = f[low + (1 << i)] - f[low]
        if np.any(diff > 0) and np.any(diff < 0):
            return False
    return True


def exact_error(target: TargetFunction, tree: Tree) -> float:
    """Exact disagreement probability under the uniform distribution."""
    if tree.d != target.d:
        raise ValueError(f"tree dimension {tree.d} != target dimension {target.d}")
    _check_exhaustive(target.d)
    masks = np.arange(1 << target.d, dtype=mask_dtype(target.d))
    return float(np.mean(target.eval_masks(masks) != evaluate_masks(tree, masks)))


def monte_carlo_error(target: TargetFunction, tree: Tree, samples: int,
                      tape: RandomnessTape, key: str = "mc-error") -> float:
    """Sampled disagreement frequency; companion to exact_error for d > 20."""
    if tree.d != target.d:
        raise ValueError(f"tree dimension {tree.d} != target dimension {target.d}")
    masks = tape.uniform_masks(target.d, samples, "monte-carlo", key)
    return float(np.mean(target.eval_masks(masks) != evaluate_masks(tree, masks)))


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------


def sample_dataset(target: TargetFunction, n: int, tape: RandomnessTape,
                   key: str = "train") -> LabeledDataset:
    """The n points sample_points draws under the tape key, labeled by the target."""
    masks = sample_points(target.d, n, tape, key).masks
    return LabeledDataset(target.d, masks, target.eval_masks(masks))


def sample_product_masks(bias: np.ndarray, n: int, tape: RandomnessTape,
                         key: str = "biased") -> np.ndarray:
    """n packed points, in mask_dtype(d), with independent coordinates,
    P[x_i = +1] = bias[i].  Used to build non-uniform test sets."""
    bias = np.asarray(bias, dtype=np.float64)
    d = len(bias)
    rng = tape.substream("product-dist", key)
    dtype = mask_dtype(d)
    bits = (rng.random((n, d)) < bias).astype(dtype)
    return (bits << np.arange(d, dtype=dtype)).sum(axis=1, dtype=dtype)


# ---------------------------------------------------------------------------
# Random targets
# ---------------------------------------------------------------------------


def random_monotone_tree_target(rng: np.random.Generator, d: int,
                                n_leaves: int = 8, max_depth: int = 4,
                                min_balance: float = 0.125,
                                max_tries: int = 200) -> ExplicitTree:
    """Random explicit-tree target that is monotone by construction rule and
    verified exhaustively.

    Leaves are labeled 1 iff the path fixes at least `theta` coordinates to
    +1, for a per-tree random threshold theta.  That rule can still produce a
    non-monotone function on lopsided shapes, so candidates failing the
    exhaustive monotonicity check are rejected and regrown.  Candidates with
    mean value within min_balance of constant are rejected too, so learner
    tests do not degenerate into single-leaf runs.
    """
    _check_exhaustive(d)
    masks = np.arange(1 << d, dtype=mask_dtype(d))
    for _ in range(max_tries):
        skeleton = random_partial_tree(rng, d, n_leaves, max_depth)
        theta = int(rng.integers(1, max_depth + 1))
        labeled = relabel(
            skeleton,
            lambda path: 1 if sum(1 for _, s in path if s == 1) >= theta else 0,
        )
        candidate = ExplicitTree(labeled)
        mean = float(candidate.eval_masks(masks).mean())
        if min(mean, 1.0 - mean) < min_balance:
            continue
        if is_monotone(candidate):
            return candidate
    raise RuntimeError(f"no monotone tree target found in {max_tries} tries")


def random_truth_table(rng: np.random.Generator, d: int) -> TruthTable:
    _check_exhaustive(d)
    return TruthTable(d, rng.integers(0, 2, size=1 << d).astype(np.uint8))


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------


def parse_target(spec: str, d: int) -> TargetFunction:
    """Build a target from its grammar string."""
    kind, _, arg = spec.partition(":")
    if kind == "dictator":
        return Dictator(d, int(arg) - 1)
    if kind == "majority":
        if arg:
            raise ValueError("majority takes no argument")
        return Majority(d)
    if kind == "tribes":
        return Tribes(d, int(arg))
    if kind == "dnf":
        terms = []
        for term in arg.split("|"):
            coords = frozenset(int(c) - 1 for c in term.split("&"))
            terms.append(coords)
        return ReadOnceDNF(d, tuple(terms))
    if kind == "tree":
        with open(arg, "r", encoding="utf-8") as fh:
            return ExplicitTree(parse_tree(fh.read(), d))
    if kind == "xor":
        return Xor(d, frozenset(int(c) - 1 for c in arg.split(",")))
    raise ValueError(f"unknown target spec {spec!r}")
