"""Marked forests as Tree objects and their generator action, for tests.

`fcayley.forests` runs the generator actions on forests stored as tuples of
tree numbers.  This module keeps the forests and the action as first
written, on tuples of `Tree` objects, with its own enumeration, so the
integer core can be checked against code that shares none of its tables.
It also keeps the Y0 set and the counting diagnostics built on it (xi
stabilization, the trimmed density, the trimming constants), which no
subcommand runs.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from cayley_ref import base_symbol, letter_symbol
from fcayley.cayley import INV
from fcayley.counting import density_report, table
from tree_pairs import caret, enumerate_trees, parse_tree


class MarkedForest:
    """Nonempty ordered tuple of trees with one marked index."""

    __slots__ = ("trees", "mark", "enc")

    def __init__(self, trees, mark: int):
        trees = tuple(trees)
        if not trees:
            raise ValueError("a forest has at least one tree")
        if not 0 <= mark < len(trees):
            raise ValueError(f"mark {mark} out of range for {len(trees)} trees")
        self.trees = trees
        self.mark = mark
        encs = [t.enc for t in trees]
        encs[mark] += "*"
        self.enc = ";".join(encs)

    @property
    def leaves(self) -> int:
        return sum(t.leaves for t in self.trees)

    def max_height(self) -> int:
        return max(t.height for t in self.trees)

    def __eq__(self, other):
        return isinstance(other, MarkedForest) and self.enc == other.enc

    def __hash__(self):
        return hash(self.enc)

    def __repr__(self):
        return f"MarkedForest({self.enc!r})"


def parse_forest(s: str) -> MarkedForest:
    parts = s.split(";")
    trees = []
    mark = None
    for i, part in enumerate(parts):
        if part.endswith("*"):
            if mark is not None:
                raise ValueError(f"two marks in forest key {s!r}")
            mark = i
            part = part[:-1]
        trees.append(parse_tree(part))
    if mark is None:
        raise ValueError(f"no mark in forest key {s!r}")
    return MarkedForest(trees, mark)


def enumerate_bb(n: int, k: int) -> list[MarkedForest]:
    """All marked forests with n leaves and tree heights <= k, sorted by key."""

    def forests(leaves: int):
        if leaves == 0:
            yield ()
            return
        for first in range(1, leaves + 1):
            for t in enumerate_trees(first, k):
                for rest in forests(leaves - first):
                    yield (t,) + rest

    out = [MarkedForest(trees, i) for trees in forests(n) for i in range(len(trees))]
    return sorted(out, key=lambda f: f.enc)


def move(f: MarkedForest, k: int, step: int) -> MarkedForest | None:
    j = f.mark + step
    return MarkedForest(f.trees, j) if 0 <= j < len(f.trees) else None


def split(f: MarkedForest, k: int, right: int) -> MarkedForest | None:
    trees, i = f.trees, f.mark
    t = trees[i]
    if t.is_leaf():
        return None
    return MarkedForest(trees[:i] + (t.left, t.right) + trees[i + 1:], i + right)


def merge(f: MarkedForest, k: int, left: int) -> MarkedForest | None:
    trees, j = f.trees, f.mark - left
    if j < 0 or j + 1 >= len(trees) or trees[j].height >= k or trees[j + 1].height >= k:
        return None
    return MarkedForest(trees[:j] + (caret(trees[j], trees[j + 1]),) + trees[j + 2:], j)


STEPS = {("x0", 1): (move, -1), ("x0", -1): (move, 1),
         ("x1", 1): (split, 0), ("xb1", 1): (split, 1),
         ("x1", -1): (merge, 0), ("xb1", -1): (merge, 1)}


def act(letter: str, f: MarkedForest, k: int) -> MarkedForest | None:
    """One letter of {x0, x1, xb1, x2}^{+-1}; x2 = x0^-1 * x1 * x0."""
    if k < 0:
        raise ValueError("height cap must be nonnegative")
    sign = -1 if letter.endswith(INV) else 1
    sym = base_symbol(letter_symbol(letter))
    if (sym, sign) not in STEPS and sym != "x2":
        raise ValueError(f"symbol {sym!r} has no forest action")
    steps = ([STEPS["x0", -1], STEPS["x1", sign], STEPS["x0", 1]] if sym == "x2"
             else [STEPS[sym, sign]])
    for step, arg in steps:
        f = step(f, k, arg)
        if f is None:
            return None
    return f


def bb_rows(n: int, k: int, letters) -> dict[str, dict[str, str | None]]:
    """Rows letter -> target key or None of every vertex of BB(n, k)."""
    rows = {}
    for f in enumerate_bb(n, k):
        images = (act(a, f, k) for a in letters)
        rows[f.enc] = {a: None if g is None else g.enc for a, g in zip(letters, images)}
    return rows


def find_y0(n: int, k: int) -> list[MarkedForest]:
    """Members of BB(n, k) whose marked tree is trivial with both neighbour
    trees present and of height exactly k: the isolated vertices of the
    {x1, xb1} graph.  Empty for k = 0."""
    if k < 1:
        return []
    return [f for f in enumerate_bb(n, k) if is_y0_member(f, k)]


def is_y0_member(f: MarkedForest, k: int) -> bool:
    i = f.mark
    return (k >= 1 and f.trees[i].is_leaf() and 0 < i < len(f.trees) - 1
            and f.trees[i - 1].height == k and f.trees[i + 1].height == k)


def xi_diagnostics(k: int, n: int) -> dict:
    """Stabilization report: the last two successive ratios
    |BB(m-1, k)| / |BB(m, k)|, m = n and n - 1, and their gap."""
    t = table(k, n)
    last, prev = (Fraction(t.marked(m - 1), t.marked(m)) for m in (n, n - 1))
    return {"k": k, "n": n, "xi": last, "xi_prev": prev, "gap": abs(last - prev)}


# Density of BB(n, k) over {x0, x1, xb1} after removing the isolated set;
# iota_star_bound is 2m - trimmed_density, m = 3.
TrimmedReport = namedtuple("TrimmedReport",
                           "n k density p trimmed_density iota_star_bound")


def trimmed_density(n: int, k: int) -> TrimmedReport:
    """(delta - 4p) / (1 - p) for the {x0, x1, xb1} graph.

    Removing the Y0 vertices deletes exactly their two accepted slots and the
    two inverse slots pointing at them, i.e. 4 directed edges per vertex; no
    two Y0 vertices are adjacent, so there is no double counting.
    """
    rec = density_report(table(k, n), n, ("x0", "x1", "xb1"))
    p = rec.p
    if p == 1:
        raise ValueError("cannot trim: every vertex is isolated")
    trimmed = (rec.density - 4 * p) / (1 - p)
    return TrimmedReport(n=n, k=k, density=rec.density, p=p,
                         trimmed_density=trimmed,
                         iota_star_bound=6 - trimmed)


def trimming_constants(p0: Fraction = Fraction(1, 260),
                       eps: Fraction | None = None) -> dict:
    """Symbolic form of the trimming bound: with p > p0 and any eps in (0, p0),
    the isoperimetric constant is below 1 - (p0 - eps)/(1 - p0); the choice
    eps = p0/2 gives 517/518 for p0 = 1/260."""
    eps = p0 / 2 if eps is None else eps
    bound = 1 - (p0 - eps) / (1 - p0)
    return {"p0": p0, "eps": eps, "iota_bound": bound}
