"""Reference tree-pair arithmetic on `Tree` objects, kept for the tests only.

This is the textbook construction (Cannon, Floyd & Parry 1996) that
`fcayley.fgroup` replaced with a sweep over leaf depths: the product of
(D_a, R_a) and (D_b, R_b) is read off the least common extension of R_b and
D_a, and a pair is reduced by collapsing one common sibling caret at a time.
`fcayley.fgroup.multiply` must give the same reduced keys.
"""

from __future__ import annotations

from fcayley.trees import LEAF, Tree, caret

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
