"""Binary decision trees over the sign cube.

A tree queries one coordinate per internal node (no repeats along a path)
and carries {0,1} labels at the leaves; a partial tree is the same shape
with unlabeled (None) leaves.  A tree is two tables keyed by path (the
(coordinate, sign) steps from the root): `splits` maps each internal node
to its coordinate and `labels` each leaf to its label.  Both iterate in one
canonical order, depth-first with the negative child first, so each split
comes after its parent and the leaves run left to right.  Text form is
s-expression style: `(leaf 0)`, `(split 3 NEG POS)` with 1-based coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .core import (LeafPath, Point, StrandTracker, _check_dim, as_masks, parse_natural,
                   path_coords, sign_bit)


@dataclass(frozen=True)
class Tree:
    """A (possibly partial) decision tree over {-1,+1}^d.

    Built from any {path: coord} and {path: label} tables: the entries the
    root reaches are kept, in canonical order, and the rest dropped.  A
    coordinate must lie in [0, d) and repeat nowhere along its path, and
    every leaf needs a label None, 0 or 1.  The tables are the tree's own
    copies: edit a tree through split_leaf and relabel, not in place.
    """

    d: int
    splits: dict
    labels: dict

    def __post_init__(self):
        _check_dim(self.d)
        splits: dict = {}
        labels: dict = {}

        def rec(path: LeafPath) -> None:
            if path in self.splits:
                c = splits[path] = self.splits[path]
                if not 0 <= c < self.d:
                    raise ValueError(f"split coordinate {c} out of range for d={self.d}")
                if c in path_coords(path):
                    raise ValueError(f"coordinate {c} repeats along a path")
                rec(path + ((c, -1),))
                rec(path + ((c, 1),))
            elif path not in self.labels:
                raise ValueError(f"leaf {path} has no label")
            elif self.labels[path] not in (None, 0, 1):
                raise ValueError(f"leaf label must be None, 0 or 1, got {self.labels[path]}")
            else:
                labels[path] = self.labels[path]

        rec(())
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def depth(self) -> int:
        return max(map(len, self.labels))

    def is_complete(self) -> bool:
        return None not in self.labels.values()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def leaf_of(tree: Tree, x: Point) -> LeafPath:
    """Path of the unique leaf that x reaches."""
    if x.d != tree.d:
        raise ValueError(f"point dimension {x.d} != tree dimension {tree.d}")
    path: LeafPath = ()
    while path in tree.splits:
        c = tree.splits[path]
        path += ((c, sign_bit(x.mask, c)),)
    return path


def evaluate_tree(tree: Tree, x: Point) -> int:
    """Label of the leaf x reaches, which must be labeled."""
    label = tree.labels[leaf_of(tree, x)]
    if label is None:
        raise ValueError("tree has unlabeled leaves")
    return label


def route(tree: Tree, masks: np.ndarray) -> StrandTracker:
    """A StrandTracker over packed points (taken through `as_masks`) that has
    followed the tree's splits, parents first; `members` maps each reached leaf to its points."""
    tracker = StrandTracker(as_masks(tree.d, masks))
    for path, coord in tree.splits.items():
        tracker.advance(path, coord)
    return tracker


def evaluate_masks(tree: Tree, masks: np.ndarray) -> np.ndarray:
    """Vectorized evaluate_tree over packed points (see route); the tree must be complete."""
    tracker = route(tree, masks)
    if not tree.is_complete():
        raise ValueError("tree has unlabeled leaves")
    out = np.zeros(len(tracker.masks), dtype=np.uint8)
    for leaf, idx in tracker.members.items():
        out[idx] = tree.labels[leaf]
    return out


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def tree_from_splits(d: int, splits: dict, labels: dict) -> Tree:
    """The tree of {path: coord} internal nodes and {path: label} leaves (see
    Tree): every path the splits reach and do not split needs a label.
    Every builder goes through it: perfbench/tracing.py times them by its name."""
    return Tree(d, splits, labels)


def split_leaf(tree: Tree, path: LeafPath, coord: int) -> Tree:
    """New tree with the leaf at `path` split on `coord`, both children
    keeping the leaf's label."""
    if path not in tree.labels:
        raise ValueError("path does not end at a leaf")
    children = {path + ((coord, sign),): tree.labels[path] for sign in (-1, 1)}
    return tree_from_splits(tree.d, {**tree.splits, path: coord}, {**tree.labels, **children})


def relabel(tree: Tree, labeler: Callable[[LeafPath], int]) -> Tree:
    """Complete (or relabel) every leaf via labeler(path)."""
    return tree_from_splits(tree.d, tree.splits,
                            {path: int(labeler(path)) for path in tree.labels})


def random_partial_tree(rng: np.random.Generator, d: int, n_leaves: int,
                        max_depth: Optional[int] = None) -> Tree:
    """Grow a random partial tree by repeatedly splitting a random eligible
    leaf on a random unused coordinate.  May stop short of n_leaves when no
    eligible leaf remains."""
    splits: dict = {}
    frontier: List[LeafPath] = [()]
    while len(frontier) < n_leaves:
        eligible = [
            (k, p) for k, p in enumerate(frontier)
            if len(p) < d and (max_depth is None or len(p) < max_depth)
        ]
        if not eligible:
            break
        k, path = eligible[int(rng.integers(len(eligible)))]
        free = [i for i in range(d) if i not in path_coords(path)]
        coord = int(free[int(rng.integers(len(free)))])
        splits[path] = coord
        frontier.pop(k)
        frontier.extend([path + ((coord, -1),), path + ((coord, 1),)])
    labels = {p: None for p in frontier}
    return tree_from_splits(d, splits, labels)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def serialize_tree(tree: Tree) -> str:
    """Canonical one-line s-expression, 1-based coordinates."""
    if not tree.is_complete():
        raise ValueError("cannot serialize unlabeled leaves")

    def rec(path: LeafPath) -> str:
        if path not in tree.splits:
            return f"(leaf {tree.labels[path]})"
        c = tree.splits[path]
        return f"(split {c + 1} {rec(path + ((c, -1),))} {rec(path + ((c, 1),))})"

    return rec(())


def parse_tree(text: str, d: int) -> Tree:
    _check_dim(d)
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    splits: dict = {}
    labels: dict = {}

    def expect(tok: str):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            got = tokens[pos] if pos < len(tokens) else "<end>"
            raise ValueError(f"expected {tok!r}, got {got!r}")
        pos += 1

    def atom() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree text")
        t = tokens[pos]
        pos += 1
        return t

    def node(path: LeafPath) -> None:
        expect("(")
        head = atom()
        if head == "leaf":
            lbl = parse_natural(atom())
            if lbl not in (0, 1):
                raise ValueError(f"leaf label must be 0 or 1, got {lbl}")
            labels[path] = lbl
        elif head == "split":
            # A path repeats no coordinate, so no valid split sits at depth d.
            if len(path) >= d:
                raise ValueError(f"tree nested deeper than d={d}")
            coord = splits[path] = parse_natural(atom()) - 1
            node(path + ((coord, -1),))
            node(path + ((coord, 1),))
        else:
            raise ValueError(f"unknown node kind {head!r}")
        expect(")")

    node(())
    if pos != len(tokens):
        raise ValueError("trailing tokens after tree")
    return tree_from_splits(d, splits, labels)
