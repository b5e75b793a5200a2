"""Reference trees and tree-pair arithmetic on `Tree` objects, for the tests only.

`Tree`, `parse_tree` and `enumerate_trees` are the object form of the
binary trees that `fcayley` keeps as leaf-depth sequences (`fgroup`) and
as table numbers (`forests.TreeTable`).  The rest is the textbook
construction (Cannon, Floyd & Parry 1996) that `fcayley.fgroup` replaced
with a sweep over leaf depths: the product of (D_a, R_a) and (D_b, R_b) is
read off the least common extension of R_b and D_a, and a pair is reduced
by collapsing one common sibling caret at a time.  `fcayley.fgroup.multiply`
must give the same reduced keys.
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


Pair = tuple[Tree, Tree]


def sibling_leaf_pairs(t: Tree) -> set[int]:
    """Indices i such that leaves i and i+1 are the two children of one caret."""
    out: set[int] = set()

    def go(node: Tree, offset: int) -> None:
        if node.is_leaf():
            return
        if node.left.is_leaf() and node.right.is_leaf():
            out.add(offset)
            return
        go(node.left, offset)
        go(node.right, offset + node.left.leaves)

    go(t, 0)
    return out


def collapse_sibling(t: Tree, i: int) -> Tree:
    """Replace the caret whose children are leaves i, i+1 by a single leaf."""
    if t.is_leaf():
        raise ValueError("no caret to collapse in a leaf")
    if t.leaves == 2:
        if i != 0:
            raise ValueError(f"index {i} out of range")
        return LEAF
    nl = t.left.leaves
    if i <= nl - 2:
        return caret(collapse_sibling(t.left, i), t.right)
    if i >= nl:
        return caret(t.left, collapse_sibling(t.right, i - nl))
    raise ValueError(f"leaves {i},{i + 1} are not siblings")


def merge(a: Tree, b: Tree) -> Tree:
    """Least common extension of two trees (union of their caret sets)."""
    if a.is_leaf():
        return b
    if b.is_leaf():
        return a
    return caret(merge(a.left, b.left), merge(a.right, b.right))


def align(t: Tree, e: Tree) -> list[Tree]:
    """Subtrees of e sitting under the leaves of t, left to right.

    Requires e to be an extension of t.
    """
    if t.is_leaf():
        return [e]
    if e.is_leaf():
        raise ValueError("tree does not extend the pattern")
    return align(t.left, e.left) + align(t.right, e.right)


def graft(t: Tree, subs: list[Tree]) -> Tree:
    """Replace the leaves of t, left to right, by the given subtrees."""
    if len(subs) != t.leaves:
        raise ValueError(f"need {t.leaves} subtrees, got {len(subs)}")
    it = iter(subs)

    def go(node: Tree) -> Tree:
        if node.is_leaf():
            return next(it)
        return caret(go(node.left), go(node.right))

    return go(t)


def reduce_pair(domain: Tree, range_: Tree) -> Pair:
    """Collapse common sibling carets, leftmost first, until none is left."""
    if domain.leaves != range_.leaves:
        raise ValueError("domain and range trees must have equal leaf counts")
    while True:
        common = sibling_leaf_pairs(domain) & sibling_leaf_pairs(range_)
        if not common:
            return domain, range_
        i = min(common)
        domain = collapse_sibling(domain, i)
        range_ = collapse_sibling(range_, i)


def multiply(a: Pair, b: Pair) -> Pair:
    """Reduced product a*b (apply a first, then b) of two (domain, range) pairs."""
    mid = merge(b[1], a[0])
    dom = graft(b[0], align(b[1], mid))
    rng = graft(a[1], align(a[0], mid))
    return reduce_pair(dom, rng)


def key(pair: Pair) -> str:
    return pair[0].enc + "|" + pair[1].enc
