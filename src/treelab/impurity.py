"""Impurity functions, purity gains from minibatches, the exact-gain and
tree-potential counterparts computed by enumeration, and the calculator that
turns accuracy/confidence targets into recommended run parameters.

The smoothness metadata (C, alpha, kappa) attached to each builtin impurity
feeds only the parameter calculator; the learners themselves never read it.
Values are implementer-derived; see each builtin's comment for the
convention used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Union

import numpy as np

from .core import (BLOCK_ROWS, LeafPath, Minibatch, mask_bits, mask_bytes, mask_dtype,
                   path_constraint, path_coords)

ArrayLike = Union[float, np.ndarray]

EXHAUSTIVE_DIM_LIMIT = 20

# Batches of at least this many rows are counted by per-byte histograms,
# smaller ones on an unpacked bit matrix, which is faster there.
HISTOGRAM_ROWS = 1024
# _BYTE_BITS[v, i] is bit i of the byte value v.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little").astype(np.int64)


# The formulas take a float or a float array in [0, 1]; ImpurityFunction
# checks its argument before calling them.
def gini(p: ArrayLike) -> ArrayLike:
    return 4.0 * p * (1.0 - p)


def binary_entropy(p: ArrayLike) -> ArrayLike:
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
        q = 1.0 - p
        t1 = np.where(q > 0.0, q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0)
    return -(t0 + t1)


def kearns_mansour(p: ArrayLike) -> ArrayLike:
    return 2.0 * np.sqrt(p * (1.0 - p))


@dataclass(frozen=True)
class ImpurityFunction:
    """A concave splitting criterion g: [0,1] -> [0,1] with g(0)=g(1)=0,
    g(1/2)=1, symmetry about 1/2, plus smoothness metadata."""

    name: str
    g: Callable[[ArrayLike], ArrayLike]
    C: float        # Hoelder constant
    alpha: float    # Hoelder exponent in (0, 1]
    kappa: float    # strong-concavity constant

    def __call__(self, p: ArrayLike) -> ArrayLike:
        """g(p), after checking that p lies in [0, 1]; a float for a scalar p."""
        arr = np.asarray(p, dtype=np.float64)
        if np.any((arr < 0) | (arr > 1)):
            raise ValueError("impurity argument must lie in [0, 1]")
        value = self.g(arr)
        return value if isinstance(p, np.ndarray) else float(value)


GINI = ImpurityFunction("gini", gini, C=4.0, alpha=1.0, kappa=8.0)
# Entropy is not Lipschitz at the endpoints; (C=2, alpha=1/2) is a documented
# safe envelope.  kappa = 1/ln 2 is the |g''|>=4/ln2 curvature floor scaled by
# the 1/4 midpoint factor, grid-verified in the test suite.
ENTROPY = ImpurityFunction("entropy", binary_entropy, C=2.0, alpha=0.5,
                           kappa=1.0 / math.log(2.0))
KEARNS_MANSOUR = ImpurityFunction("kearns-mansour", kearns_mansour, C=2.0,
                                  alpha=0.5, kappa=1.0)


def builtin_impurities() -> List[ImpurityFunction]:
    return [GINI, ENTROPY, KEARNS_MANSOUR]


def get_impurity(name: str) -> ImpurityFunction:
    for g in builtin_impurities():
        if g.name == name:
            return g
    raise ValueError(f"unknown impurity {name!r}; choose from "
                     f"{[g.name for g in builtin_impurities()]}")


# ---------------------------------------------------------------------------
# Gains from minibatches
# ---------------------------------------------------------------------------


def batch_local_gains(impurity: ImpurityFunction, masks: np.ndarray,
                      labels: np.ndarray, d: int) -> np.ndarray:
    """Estimated local gain of splitting on every coordinate at once.

    For coordinate i this is g(mean y) - (g(mean y | x_i=-1) +
    g(mean y | x_i=+1)) / 2 with means over the batch.  A coordinate that is
    constant over the batch gets gain 0 (its true gain over the leaf is 0).

    Labels are in {0, 1}.  Counting is pure integer arithmetic (no BLAS
    reductions), so the means and hence the split decisions are
    bit-identical across platforms: on a k x d uint8 bit matrix unpacked
    from the masks' low ceil(d/8) bytes, or for k >= HISTOGRAM_ROWS from
    (byte value, label) histograms per low byte, summed over blocks of
    BLOCK_ROWS rows, mapped to bit counts.  Both give the same counts.
    Mask bits at or above d are ignored.
    """
    k = len(masks)
    if k == 0:
        raise ValueError("local gain of an empty batch")
    y = np.asarray(labels)
    if k < HISTOGRAM_ROWS:
        bits = mask_bits(masks, d)
        n_pos = bits.sum(axis=0, dtype=np.int64)
        s_pos = bits[y == 1].sum(axis=0, dtype=np.int64)
    else:
        low = mask_bytes(masks)
        counts = np.zeros(((d + 7) // 8, 2, 256), np.int64)
        for lo in range(0, k, BLOCK_ROWS):
            label_bins = y[lo:lo + BLOCK_ROWS].astype(np.int64) << 8
            for c, h in enumerate(counts):
                h += np.bincount(low[lo:lo + BLOCK_ROWS, c] + label_bins,
                                 minlength=512).reshape(2, 256)
        n_pos = np.concatenate([h.sum(axis=0) @ _BYTE_BITS for h in counts])[:d]
        s_pos = np.concatenate([h[1] @ _BYTE_BITS for h in counts])[:d]
    n_neg = k - n_pos
    ones = int(y.sum(dtype=np.int64))
    s_neg = ones - s_pos
    p_pos = np.divide(s_pos, n_pos, out=np.zeros(d), where=n_pos > 0)
    p_neg = np.divide(s_neg, n_neg, out=np.zeros(d), where=n_neg > 0)
    g = impurity.g
    gains = g(ones / k) - 0.5 * g(p_neg) - 0.5 * g(p_pos)
    gains[(n_pos == 0) | (n_neg == 0)] = 0.0
    return gains


def local_gain(impurity: ImpurityFunction, batch: Minibatch, i: int) -> float:
    """Estimated local gain of splitting the batch's leaf on coordinate i."""
    if batch.labels is None:
        raise ValueError("batch has no labels")
    # d=i+1 evaluates the shared vectorized formula up to coordinate i only.
    return float(batch_local_gains(impurity, batch.masks, batch.labels, i + 1)[i])


def purity_gain(impurity: ImpurityFunction, batch: Minibatch, leaf_depth: int,
                i: int) -> float:
    """Local gain scaled by the leaf's cube mass 2^{-depth} (exact scaling)."""
    return math.ldexp(local_gain(impurity, batch, i), -leaf_depth)


# ---------------------------------------------------------------------------
# Exact gains and tree potential (enumeration, d <= 20)
# ---------------------------------------------------------------------------


def _check_exhaustive(d: int) -> None:
    if d > EXHAUSTIVE_DIM_LIMIT:
        raise ValueError(f"exhaustive computation limited to d <= {EXHAUSTIVE_DIM_LIMIT}")


def _leaf_masks(d: int, path: LeafPath) -> np.ndarray:
    all_masks = np.arange(1 << d, dtype=mask_dtype(d))
    m, v = path_constraint(path)
    return all_masks[(all_masks & m) == v]


def true_local_gain(impurity: ImpurityFunction, target, path: LeafPath, i: int) -> float:
    """Exact local gain at a leaf, by enumerating all points that reach it."""
    d = target.d
    _check_exhaustive(d)
    if i in path_coords(path):
        raise ValueError(f"coordinate {i} already fixed on the leaf path")
    masks = _leaf_masks(d, path)
    y = np.asarray(target.eval_masks(masks), np.float64)
    bit = ((masks >> i) & 1).astype(bool)
    g = impurity.g
    return float(g(float(y.mean()))
                 - 0.5 * g(float(y[~bit].mean()))
                 - 0.5 * g(float(y[bit].mean())))


def true_purity_gain(impurity: ImpurityFunction, target, path: LeafPath, i: int) -> float:
    return math.ldexp(true_local_gain(impurity, target, path, i), -len(path))


def g_impurity(impurity: ImpurityFunction, target, tree) -> float:
    """Potential of a partial tree: sum over leaves of 2^{-depth} * g(mean
    target value over the leaf's subcube).  Exact, by enumeration."""
    _check_exhaustive(target.d)
    total = 0.0
    for path in tree.labels:
        masks = _leaf_masks(target.d, path)
        p = float(np.asarray(target.eval_masks(masks), np.float64).mean())
        total += math.ldexp(float(impurity.g(p)), -len(path))
    return total


# ---------------------------------------------------------------------------
# Parameter calculator
# ---------------------------------------------------------------------------


def depth_cap(t: int) -> int:
    """Split-depth cap floor(log2 t + log2 log2 t) used by the capped learners."""
    if t < 2:
        raise ValueError(f"depth cap needs t >= 2, got {t}")
    return int(math.floor(math.log2(t) + math.log2(math.log2(t))))


def depth_limit(t: int) -> int:
    """Deepest leaf a size-t capped run may split: depth_cap(t), or 0 when
    t < 2 (a size-1 run never splits)."""
    return depth_cap(t) if t >= 2 else 0


def strand_count_for_accuracy(max_leaf_depth: int, accuracy: float,
                              failure_prob: float) -> int:
    """Sample points needed so the 2^depth size estimator of a tree whose
    deepest leaf has the given depth lands within +-accuracy, except with the
    given failure probability."""
    if accuracy <= 0 or not 0 < failure_prob < 1:
        raise ValueError("accuracy must be positive and failure_prob in (0,1)")
    reach = float(1 << max_leaf_depth)
    return math.ceil(reach * reach / (2.0 * accuracy * accuracy)
                     * math.log(2.0 / failure_prob))


@dataclass(frozen=True)
class TheoryParams:
    """Inputs to the sample-size formulas, plus one slack multiplier per
    hidden big-Omega constant (all default 1)."""

    s: int
    t: int
    eps: float
    delta: float
    eta: float
    d: int
    slack_b: float = 1.0
    slack_n: float = 1.0
    slack_b_local: float = 1.0

    def __post_init__(self):
        if self.s < 2 or self.t < 2 or self.d < 1:
            raise ValueError("need s >= 2, t >= 2, d >= 1")
        for name in ("eps", "delta", "eta"):
            v = getattr(self, name)
            if not 0.0 < v < 0.5:
                raise ValueError(f"{name} must lie in (0, 1/2), got {v}")


@dataclass(frozen=True)
class RecommendedParams:
    b: int            # minibatch size for the capped learner
    b_min: int        # guaranteed-per-leaf batch floor
    b_local: int      # strand/batch count for the size-estimate stopping rule
    n: int            # training set size
    D: int            # split-depth cap
    m: int            # strand count for a +-eta*t size estimate at depth D
    delta_gain: float  # the internal local-gain accuracy target


def recommended_params(params: TheoryParams, impurity: ImpurityFunction) -> RecommendedParams:
    """Evaluate the formula suite at the given knobs.

    Logs are base 2 except the explicit natural logs inside b_min and m.
    """
    s, t, eps, delta, eta, d = (params.s, params.t, params.eps, params.delta,
                                params.eta, params.d)
    C, alpha, kappa = impurity.C, impurity.alpha, impurity.kappa
    log_s = math.log2(s)
    log_t = math.log2(t)
    D = depth_cap(t)

    delta_gain = (kappa / 320.0) * (eps / log_s) ** 2

    core = (C * C * log_s ** 4 / (kappa * kappa * eps ** 4)) ** (1.0 / alpha)
    b = math.ceil(params.slack_b * core * math.log2(t * d / delta))
    n = math.ceil(params.slack_n * t * core * math.log2(t * d / delta) * log_t)

    b_min = math.ceil(max(8.0, 2.0 * (2.0 * C / delta_gain) ** (2.0 / alpha))
                      * math.log(9.0 * t * d / delta))

    b_local = math.ceil(params.slack_b_local * (log_t / eta) ** 2
                        * math.log2(t / delta))

    m = strand_count_for_accuracy(D, eta * t, delta)

    return RecommendedParams(b=b, b_min=b_min, b_local=b_local, n=n, D=D,
                             m=m, delta_gain=delta_gain)
