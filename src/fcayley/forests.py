"""Marked binary forests, the partial generator actions, and Brown-Belk sets.

BB(n, k) is the set of marked forests with n leaves whose trees all have
height at most k.  Generators act partially on the right:

  x0    move the marker one tree to the left (undefined at the left end),
  x1    split the marked caret (T1^T2) into T1, T2 and mark T1,
  xb1   same split, mark T2,
  x1^-1 merge the marked tree with its right neighbour (both heights < k),
  xb1^-1 merge with the left neighbour, and
  x2    the composite x0^-1 * x1 * x0 (split the tree right of the marker).

Undefined moves return None; they are values, not errors.
"""

from __future__ import annotations

from .cayley import Automaton, GenAlphabet, INV, base_symbol, letter_symbol
from .trees import caret, enumerate_trees, parse_tree


class BudgetExceeded(RuntimeError):
    """Enumeration would produce more forests than the configured budget."""


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
        self.enc = ";".join(
            t.enc + ("*" if i == mark else "") for i, t in enumerate(trees)
        )

    @property
    def leaves(self) -> int:
        return sum(t.leaves for t in self.trees)

    def max_height(self) -> int:
        return max(t.height for t in self.trees)

    def __eq__(self, other):
        return isinstance(other, MarkedForest) and self.enc == other.enc

    def __ne__(self, other):
        return not self.__eq__(other)

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


def _replace(trees: tuple, i: int, replacement: tuple) -> tuple:
    return trees[:i] + replacement + trees[i + 1 :]


def _act_primitive(sym: str, sign: int, f: MarkedForest, k: int) -> MarkedForest | None:
    trees, i = f.trees, f.mark
    if sym == "x0":
        if sign == 1:
            return None if i == 0 else MarkedForest(trees, i - 1)
        return None if i == len(trees) - 1 else MarkedForest(trees, i + 1)
    if sym in ("x1", "xb1"):
        if sign == 1:
            t = trees[i]
            if t.is_leaf():
                return None
            new_trees = _replace(trees, i, (t.left, t.right))
            return MarkedForest(new_trees, i if sym == "x1" else i + 1)
        if sym == "x1":
            # merge marked tree with its right neighbour
            if i == len(trees) - 1:
                return None
            t, tr = trees[i], trees[i + 1]
            if t.height >= k or tr.height >= k:
                return None
            merged = caret(t, tr)
            return MarkedForest(trees[:i] + (merged,) + trees[i + 2 :], i)
        # xb1^-1: merge left neighbour with marked tree
        if i == 0:
            return None
        tl, t = trees[i - 1], trees[i]
        if tl.height >= k or t.height >= k:
            return None
        merged = caret(tl, t)
        return MarkedForest(trees[: i - 1] + (merged,) + trees[i + 1 :], i - 1)
    raise ValueError(f"unknown primitive generator {sym!r}")


def act(letter: str, f: MarkedForest, k: int) -> MarkedForest | None:
    """Apply one letter of {x0, x1, xb1, x2}^{+-1} inside BB(n, k), or None.

    x2 is applied strictly as the composite x0^-1 * x1 * x0 (and its inverse
    as x0^-1 * x1^-1 * x0), going undefined as soon as any step is.
    """
    if k < 0:
        raise ValueError("height cap must be nonnegative")
    sign = -1 if letter.endswith(INV) else 1
    sym = base_symbol(letter_symbol(letter))
    if sym in ("x0", "x1", "xb1"):
        return _act_primitive(sym, sign, f, k)
    if sym == "x2":
        steps = [("x0", -1), ("x1", sign), ("x0", 1)]
        out: MarkedForest | None = f
        for s, sg in steps:
            out = _act_primitive(s, sg, out, k)
            if out is None:
                return None
        return out
    raise ValueError(f"unknown generator {sym!r}")


# ---------------------------------------------------------------------------
# Enumeration

DEFAULT_BUDGET = 10_000_000


def enumerate_bb(n: int, k: int, budget: int = DEFAULT_BUDGET) -> list[MarkedForest]:
    """All marked forests with n leaves and tree heights <= k, sorted by key."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    from . import counting

    total = counting.bb_count(n, k)
    if total > budget:
        raise BudgetExceeded(f"|BB({n},{k})| = {total} exceeds budget {budget}")
    out: list[MarkedForest] = []

    def forests(leaves: int):
        """Yield tuples of trees with the given total leaf count."""
        if leaves == 0:
            yield ()
            return
        for first_leaves in range(1, leaves + 1):
            for t in enumerate_trees(first_leaves, k):
                for rest in forests(leaves - first_leaves):
                    yield (t,) + rest

    for trees in forests(n):
        for mark in range(len(trees)):
            out.append(MarkedForest(trees, mark))
    if len(out) != total:
        raise AssertionError(f"enumerated {len(out)} forests, DP counts {total}")
    out.sort(key=lambda f: f.enc)
    return out


def bb_automaton(n: int, k: int, alphabet: GenAlphabet,
                 budget: int = DEFAULT_BUDGET) -> Automaton:
    """BB(n, k) as an automaton over the given alphabet of forest generators."""
    for s in alphabet.symbols:
        if base_symbol(s) not in ("x0", "x1", "xb1", "x2"):
            raise ValueError(f"symbol {s!r} has no forest action")
    members = enumerate_bb(n, k, budget=budget)
    index = {f.enc: f for f in members}
    slots: dict[str, dict[str, str | None]] = {}
    for f in members:
        row: dict[str, str | None] = {}
        for a in alphabet.letters():
            g = act(a, f, k)
            if g is None:
                row[a] = None
            elif g.enc not in index:
                raise AssertionError(f"action {a!r} left BB({n},{k})")
            else:
                row[a] = g.enc
        slots[f.enc] = row
    return Automaton(alphabet, slots, outer=None)


def find_y0(n: int, k: int) -> list[MarkedForest]:
    """Members of BB(n, k) whose marked tree is trivial with both neighbour
    trees present and of height exactly k.

    These are the isolated vertices of the {x1, xb1} graph.  Empty for k = 0
    (the construction needs height-k neighbours distinct from the marked leaf).
    """
    if k < 1:
        return []
    return [f for f in enumerate_bb(n, k) if is_y0_member(f, k)]


def is_y0_member(f: MarkedForest, k: int) -> bool:
    if k < 1:
        return False
    i = f.mark
    if not f.trees[i].is_leaf():
        return False
    if i == 0 or i == len(f.trees) - 1:
        return False
    return f.trees[i - 1].height == k and f.trees[i + 1].height == k
