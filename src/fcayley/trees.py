"""Rooted binary trees (the trees of marked forests) and their encoding.

A leaf is encoded "." and a caret "(" + left + right + ")"; vertex keys of
forests and tree pairs use this encoding.  A leaf has height 0, a caret
max(children) + 1.
"""

from __future__ import annotations

from functools import lru_cache


class Tree:
    """Immutable rooted binary tree. Construct leaves via LEAF, carets via caret()."""

    __slots__ = ("left", "right", "leaves", "height", "enc")

    def __init__(self, left: "Tree | None" = None, right: "Tree | None" = None):
        if (left is None) != (right is None):
            raise ValueError("a caret needs both subtrees")
        self.left = left
        self.right = right
        if left is None:
            self.leaves = 1
            self.height = 0
            self.enc = "."
        else:
            self.leaves = left.leaves + right.leaves
            self.height = max(left.height, right.height) + 1
            self.enc = "(" + left.enc + right.enc + ")"

    def is_leaf(self) -> bool:
        return self.left is None

    def __eq__(self, other):
        return isinstance(other, Tree) and self.enc == other.enc

    def __hash__(self):
        return hash(self.enc)

    def __repr__(self):
        return f"Tree({self.enc!r})"


LEAF = Tree()


def caret(left: Tree, right: Tree) -> Tree:
    return Tree(left, right)


def parse_tree(s: str) -> Tree:
    """Parse the balanced-parentheses encoding. Inverse of Tree.enc."""
    pos = 0

    def go() -> Tree:
        nonlocal pos
        if pos >= len(s):
            raise ValueError(f"truncated tree encoding: {s!r}")
        c = s[pos]
        if c == ".":
            pos += 1
            return LEAF
        if c == "(":
            pos += 1
            left = go()
            right = go()
            if pos >= len(s) or s[pos] != ")":
                raise ValueError(f"unbalanced tree encoding: {s!r}")
            pos += 1
            return caret(left, right)
        raise ValueError(f"bad character {c!r} in tree encoding: {s!r}")

    t = go()
    if pos != len(s):
        raise ValueError(f"trailing junk in tree encoding: {s!r}")
    return t


@lru_cache(maxsize=None)
def enumerate_trees(leaves: int, max_height: int) -> tuple[Tree, ...]:
    """All trees with the given leaf count and height <= max_height."""
    if leaves < 1:
        raise ValueError("a tree has at least one leaf")
    if leaves == 1:
        return (LEAF,)
    if max_height < 1 or leaves > 2 ** max_height:
        return ()
    out = []
    for nl in range(1, leaves):
        for lt in enumerate_trees(nl, max_height - 1):
            for rt in enumerate_trees(leaves - nl, max_height - 1):
                out.append(caret(lt, rt))
    return tuple(out)
