"""Binary decision trees over the sign cube.

A tree queries one coordinate per internal node (no repeats along a path)
and carries {0,1} labels at the leaves; a partial tree is the same shape
with unlabeled (None) leaves.  Text form is s-expression style:
`(leaf 0)`, `(split 3 NEG POS)` with 1-based coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from .core import LeafPath, Point, _check_dim, as_masks, path_coords, sign_bit


@dataclass(frozen=True)
class Leaf:
    label: Optional[int] = None


@dataclass(frozen=True)
class Split:
    coord: int
    neg: "Node"
    pos: "Node"


Node = Union[Leaf, Split]


@dataclass(frozen=True)
class Tree:
    """A (possibly partial) decision tree over {-1,+1}^d."""

    d: int
    root: Node

    def __post_init__(self):
        _validate(self.root, self.d, frozenset())

    @property
    def size(self) -> int:
        return count_leaves(self.root)

    @property
    def depth(self) -> int:
        return max(len(path) for path, _ in leaf_paths(self))

    def is_complete(self) -> bool:
        return all(lbl is not None for _, lbl in leaf_paths(self))


def _validate(node: Node, d: int, used: frozenset) -> None:
    if isinstance(node, Leaf):
        if node.label not in (None, 0, 1):
            raise ValueError(f"leaf label must be None, 0 or 1, got {node.label}")
        return
    if not 0 <= node.coord < d:
        raise ValueError(f"split coordinate {node.coord} out of range for d={d}")
    if node.coord in used:
        raise ValueError(f"coordinate {node.coord} repeats along a path")
    _validate(node.neg, d, used | {node.coord})
    _validate(node.pos, d, used | {node.coord})


def count_leaves(node: Node) -> int:
    if isinstance(node, Leaf):
        return 1
    return count_leaves(node.neg) + count_leaves(node.pos)


def leaf_paths(tree: Tree) -> List[tuple]:
    """(path, label) for every leaf, in left-to-right (neg-first) order."""
    out: List[tuple] = []

    def rec(node: Node, path: LeafPath):
        if isinstance(node, Leaf):
            out.append((path, node.label))
            return
        rec(node.neg, path + ((node.coord, -1),))
        rec(node.pos, path + ((node.coord, 1),))

    rec(tree.root, ())
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def leaf_of(tree: Tree, x: Point) -> LeafPath:
    """Path of the unique leaf that x reaches."""
    if x.d != tree.d:
        raise ValueError(f"point dimension {x.d} != tree dimension {tree.d}")
    node = tree.root
    path: LeafPath = ()
    while isinstance(node, Split):
        s = sign_bit(x.mask, node.coord)
        path = path + ((node.coord, s),)
        node = node.pos if s == 1 else node.neg
    return path


def evaluate_tree(tree: Tree, x: Point) -> int:
    """Label of the leaf x reaches.  The tree must be complete."""
    if x.d != tree.d:
        raise ValueError(f"point dimension {x.d} != tree dimension {tree.d}")
    node = tree.root
    while isinstance(node, Split):
        node = node.pos if sign_bit(x.mask, node.coord) == 1 else node.neg
    if node.label is None:
        raise ValueError("tree has unlabeled leaves")
    return node.label


def evaluate_masks(tree: Tree, masks: np.ndarray) -> np.ndarray:
    """Vectorized evaluate_tree over packed points, taken through `as_masks`."""
    masks = as_masks(tree.d, masks)
    out = np.zeros(len(masks), dtype=np.uint8)

    def rec(node: Node, idx: np.ndarray):
        if isinstance(node, Leaf):
            if node.label is None:
                raise ValueError("tree has unlabeled leaves")
            out[idx] = node.label
            return
        bit = (masks[idx] >> node.coord) & 1
        rec(node.neg, idx[bit == 0])
        rec(node.pos, idx[bit == 1])

    rec(tree.root, np.arange(len(masks)))
    return out


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def tree_from_splits(d: int, splits: dict, labels: dict) -> Tree:
    """Materialize a tree from {path: coord} internal nodes and {path: label}
    leaves.  Every path not in `splits` must appear in `labels`."""

    def rec(path: LeafPath) -> Node:
        if path in splits:
            c = splits[path]
            return Split(c, rec(path + ((c, -1),)), rec(path + ((c, 1),)))
        return Leaf(labels[path])

    return Tree(d, rec(()))


def tree_splits(tree: Tree) -> dict:
    """{path: coord} of every internal node, each listed after its parent:
    the inverse of tree_from_splits."""
    # Each split is inserted with the first leaf under it, after its parent.
    return {path[:k]: path[k][0] for path, _ in leaf_paths(tree)
            for k in range(len(path))}


def split_leaf(tree: Tree, path: LeafPath, coord: int) -> Tree:
    """New tree with the leaf at `path` split on `coord`, both children
    keeping the leaf's label."""
    labels = dict(leaf_paths(tree))
    if path not in labels:
        raise ValueError("path does not end at a leaf")
    labels.update({path + ((coord, sign),): labels[path] for sign in (-1, 1)})
    return tree_from_splits(tree.d, {**tree_splits(tree), path: coord}, labels)


def relabel(tree: Tree, labeler: Callable[[LeafPath], int]) -> Tree:
    """Complete (or relabel) every leaf via labeler(path)."""
    return tree_from_splits(tree.d, tree_splits(tree),
                            {path: int(labeler(path)) for path, _ in leaf_paths(tree)})


def random_partial_tree(rng: np.random.Generator, d: int, n_leaves: int,
                        max_depth: Optional[int] = None) -> Tree:
    """Grow a random partial tree by repeatedly splitting a random eligible
    leaf on a random unused coordinate.  May stop short of n_leaves when no
    eligible leaf remains."""
    splits: dict = {}
    frontier: List[LeafPath] = [()]
    leaves = 1
    while leaves < n_leaves:
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
        leaves += 1
    labels = {p: None for p in frontier}
    return tree_from_splits(d, splits, labels)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def serialize_tree(tree: Tree) -> str:
    """Canonical one-line s-expression, 1-based coordinates."""

    def rec(node: Node) -> str:
        if isinstance(node, Leaf):
            if node.label is None:
                raise ValueError("cannot serialize unlabeled leaves")
            return f"(leaf {node.label})"
        return f"(split {node.coord + 1} {rec(node.neg)} {rec(node.pos)})"

    return rec(tree.root)


def parse_tree(text: str, d: int) -> Tree:
    _check_dim(d)
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

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

    def node(depth: int) -> Node:
        expect("(")
        head = atom()
        if head == "leaf":
            lbl = int(atom())
            if lbl not in (0, 1):
                raise ValueError(f"leaf label must be 0 or 1, got {lbl}")
            expect(")")
            return Leaf(lbl)
        if head == "split":
            # A path repeats no coordinate, so no valid split sits at depth d.
            if depth >= d:
                raise ValueError(f"tree nested deeper than d={d}")
            coord = int(atom()) - 1
            neg = node(depth + 1)
            pos_child = node(depth + 1)
            expect(")")
            return Split(coord, neg, pos_child)
        raise ValueError(f"unknown node kind {head!r}")

    root = node(0)
    if pos != len(tokens):
        raise ValueError("trailing tokens after tree")
    return Tree(d, root)
