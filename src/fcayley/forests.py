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


def _move(f: MarkedForest, k: int, step: int) -> MarkedForest | None:
    """x0 (step -1) and x0^-1 (step +1): move the marker one tree."""
    j = f.mark + step
    return MarkedForest(f.trees, j) if 0 <= j < len(f.trees) else None


def _split(f: MarkedForest, k: int, right: int) -> MarkedForest | None:
    """x1 (right 0) and xb1 (right 1): split the marked caret, mark one child."""
    trees, i = f.trees, f.mark
    t = trees[i]
    if t.is_leaf():
        return None
    return MarkedForest(trees[:i] + (t.left, t.right) + trees[i + 1:], i + right)


def _merge(f: MarkedForest, k: int, left: int) -> MarkedForest | None:
    """x1^-1 (left 0) merges the marked tree with its right neighbour, xb1^-1
    (left 1) with its left one; both trees need height < k."""
    trees, j = f.trees, f.mark - left
    if j < 0 or j + 1 >= len(trees) or trees[j].height >= k or trees[j + 1].height >= k:
        return None
    return MarkedForest(trees[:j] + (caret(trees[j], trees[j + 1]),) + trees[j + 2:], j)


PRIMITIVES = {("x0", 1): (_move, -1), ("x0", -1): (_move, 1),
              ("x1", 1): (_split, 0), ("xb1", 1): (_split, 1),
              ("x1", -1): (_merge, 0), ("xb1", -1): (_merge, 1)}


def letter_steps(letter: str) -> tuple:
    """The primitive steps, as (function, argument) pairs, one letter applies.

    x2 is applied strictly as the composite x0^-1 * x1 * x0 (and its inverse
    as x0^-1 * x1^-1 * x0).
    """
    sign = -1 if letter.endswith(INV) else 1
    sym = base_symbol(letter_symbol(letter))
    if sym == "x2":
        return (PRIMITIVES["x0", -1], PRIMITIVES["x1", sign], PRIMITIVES["x0", 1])
    if (sym, sign) not in PRIMITIVES:
        raise ValueError(f"symbol {sym!r} has no forest action")
    return (PRIMITIVES[sym, sign],)


def _act_steps(steps, f: MarkedForest, k: int) -> MarkedForest | None:
    for step, arg in steps:
        f = step(f, k, arg)
        if f is None:
            return None
    return f


def act(letter: str, f: MarkedForest, k: int) -> MarkedForest | None:
    """Apply one letter of {x0, x1, xb1, x2}^{+-1} inside BB(n, k), or None,
    going undefined as soon as any of its `letter_steps` is."""
    if k < 0:
        raise ValueError("height cap must be nonnegative")
    return _act_steps(letter_steps(letter), f, k)


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
    letters = [(a, letter_steps(a)) for a in alphabet.letters()]
    members = enumerate_bb(n, k, budget=budget)
    index = {f.enc: f for f in members}
    slots: dict[str, dict[str, str | None]] = {}
    for f in members:
        row: dict[str, str | None] = {}
        for a, steps in letters:
            g = _act_steps(steps, f, k)
            if g is not None and g.enc not in index:
                raise AssertionError(f"action {a!r} left BB({n},{k})")
            row[a] = None if g is None else g.enc
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
    i = f.mark
    return (k >= 1 and f.trees[i].is_leaf() and 0 < i < len(f.trees) - 1
            and f.trees[i - 1].height == k and f.trees[i + 1].height == k)
