"""Brown-Belk sets BB(n, k) of marked forests and the partial generator actions.

BB(n, k) is the set of marked forests with n leaves whose trees all have
height at most k.  Generators act partially on the right:

  x0    move the marker one tree to the left (undefined at the left end),
  x1    split the marked caret (T1^T2) into T1, T2 and mark T1,
  xb1   same split, mark T2,
  x1^-1 merge the marked tree with its right neighbour (both heights < k),
  xb1^-1 merge with the left neighbour, and
  x2    the composite x0^-1 * x1 * x0 (split the tree right of the marker).

Undefined moves return None; they are values, not errors.

Vertex core.  A `TreeTable` builds and numbers the trees of height <= k
with at most n leaves by leaf count, each caret a join of two smaller trees
of height < k; a forest shape is a tuple of tree numbers, and vertex (s, i),
shape s marked at tree i, is numbered base[s] + i.  x0 is then i -+ 1, and
a split or a merge is one table lookup.  Keys ("(..)*;." with "*" after
the marked tree) are rendered once per vertex, and the automaton sorts them.
"""

from __future__ import annotations

from array import array

from .cayley import DEFAULT_BUDGET, INV, Automaton, GenAlphabet, base_symbol, letter_symbol


class BudgetExceeded(ValueError):
    """Enumeration would produce more forests than the configured budget."""


class TreeTable:
    """The trees of height <= k with at most n leaves, numbered by leaf count.

    enc[t] and size[t] are the key ("." for a leaf, "(" + left + right + ")"
    for a caret) and leaf count of tree t; split[t] is the pair (left, right)
    of a caret, or None for the leaf; join inverts split, so it holds exactly
    the pairs of trees of height < k whose caret fits.
    """

    def __init__(self, k: int, n: int):
        self.enc, self.size, self.split, self.join = ["."], [1], [None], {}
        height = [0]
        self.by_size: list[list[int]] = [[], [0]]
        low = [[], [0] if k > 0 else []]  # trees of height < k, by leaf count
        for size in range(2, n + 1):
            new = []
            for nl in range(1, size):
                for left in low[nl]:
                    for right in low[size - nl]:
                        t = len(self.enc)
                        self.enc.append("(" + self.enc[left] + self.enc[right] + ")")
                        self.size.append(size)
                        self.split.append((left, right))
                        self.join[left, right] = t
                        height.append(max(height[left], height[right]) + 1)
                        new.append(t)
            self.by_size.append(new)
            low.append([t for t in new if height[t] < k])

    def shapes(self, n: int) -> list[tuple[int, ...]]:
        """Every tuple of tree numbers with n leaves in all."""
        out: list[list[tuple[int, ...]]] = [[()]]
        for total in range(1, n + 1):
            out.append([(t,) + rest for size in range(1, total + 1)
                        for t in self.by_size[size] for rest in out[total - size]])
        return out[n]


def _move(tt: TreeTable, s: tuple, i: int, step: int):
    """x0 (step -1) and x0^-1 (step +1): move the marker one tree."""
    j = i + step
    return (s, j) if 0 <= j < len(s) else None


def _split(tt: TreeTable, s: tuple, i: int, right: int):
    """x1 (right 0) and xb1 (right 1): split the marked caret, mark one child."""
    pair = tt.split[s[i]]
    return None if pair is None else (s[:i] + pair + s[i + 1:], i + right)


def _merge(tt: TreeTable, s: tuple, i: int, left: int):
    """x1^-1 (left 0) merges the marked tree with its right neighbour, xb1^-1
    (left 1) with its left one; both trees need height < k."""
    j = i - left
    t = tt.join.get(s[j:j + 2]) if j >= 0 else None
    return None if t is None else (s[:j] + (t,) + s[j + 2:], j)


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


def bb_automaton(n: int, k: int, alphabet: GenAlphabet,
                 budget: int = DEFAULT_BUDGET) -> Automaton:
    """BB(n, k) as an automaton over the given alphabet of forest generators."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    from . import counting

    # a letter's first step and the rest of its composite (x2 only): a
    # one-step letter calls its primitive directly, without the step loop
    letters = []
    for a in alphabet.letters():
        (step, arg), *rest = letter_steps(a)
        letters.append((a, step, arg, rest))
    total = counting.bb_count(n, k)
    if total > budget:
        raise BudgetExceeded(f"|BB({n},{k})| = {total} exceeds budget {budget}")
    tt = TreeTable(min(k, n), n)  # a tree with n leaves has height below n
    shapes = tt.shapes(n)
    base: dict[tuple[int, ...], int] = {}
    keys: list[str] = []
    for s in shapes:
        base[s] = len(keys)
        encs = [tt.enc[t] for t in s]
        for i, e in enumerate(encs):
            encs[i] = e + "*"
            keys.append(";".join(encs))
            encs[i] = e
    if len(keys) != total:
        raise AssertionError(f"enumerated {len(keys)} forests, DP counts {total}")
    tgt = array("i")
    for s in shapes:
        for i in range(len(s)):
            for a, step, arg, rest in letters:
                r = step(tt, s, i, arg)
                if rest:
                    for step, arg in rest:
                        if r is None:
                            break
                        r = step(tt, *r, arg)
                if r is None:
                    tgt.append(-1)
                    continue
                v = base.get(r[0])
                if v is None:
                    raise AssertionError(f"action {a!r} left BB({n},{k})")
                tgt.append(v + r[1])
    return Automaton.from_targets(alphabet, keys, tgt)
