"""Brown-Belk sets BB(n, k) of marked forests and the partial generator actions.

BB(n, k) is the set of marked forests with n leaves whose trees all have
height at most k.  F acts partially on the right by the primitive moves

  x0    move the marker one tree to the left (undefined at the left end),
  x1    split the marked caret (T1^T2) into T1, T2 and mark T1,
  x1^-1 merge the marked tree with its right neighbour (both heights < k),

and every other letter as its word in x0 and x1 (`cayley.WORDS`), step by
step: xb1 = x1 x0^-1 marks T2 after the split.  Undefined moves return None.

Vertex core.  A `TreeTable` builds and numbers the trees of height <= k
with at most n leaves by leaf count, each caret a join of two smaller trees
of height < k; a forest shape is a tuple of tree numbers, and vertex (s, i),
shape s marked at tree i, is numbered base[s] + i.  The action is one
target column per primitive step: x0 is a range v -+ 1, a split or a merge
one table lookup per vertex, and a word indexes the columns of its steps.
Keys ("(..)*;." with "*" after the marked tree) are rendered once per vertex
and kept in this shape order; only the file writer sorts them.
"""

from __future__ import annotations

from array import array

from .cayley import (DEFAULT_BUDGET, INV, WORDS, Automaton, BudgetExceeded, GenAlphabet,
                     base_symbol, exact_str, letter_symbol)

MAX_KEY_MIB = 1024  # the key text of one BB(n, k) automaton, refused past this


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
        """Every tuple of tree numbers with n leaves in all.  No tree has more
        than `top` leaves, so total t reads the totals t - top .. t - 1 only."""
        top = max(size for size, trees in enumerate(self.by_size) if trees)
        out = {0: [()]}
        for total in range(1, n + 1):
            out[total] = [(t,) + rest for size in range(1, min(total, top) + 1)
                          for t in self.by_size[size] for rest in out[total - size]]
            out.pop(total - top, None)
        return out[n]


def _split(tt: TreeTable, s: tuple, i: int):
    """x1: split the marked caret and mark its left child."""
    pair = tt.split[s[i]]
    return None if pair is None else (s[:i] + pair + s[i + 1:], i)


def _merge(tt: TreeTable, s: tuple, i: int):
    """x1^-1: merge the marked tree with its right neighbour, both of height < k."""
    t = tt.join.get(s[i:i + 2])
    return None if t is None else (s[:i] + (t,) + s[i + 2:], i)


# a step is a marker shift, which bb_automaton builds as a range column, or a
# function of (tree table, shape, marked tree) for a split or a merge
PRIMITIVES = {("x0", 1): -1, ("x0", -1): 1, ("x1", 1): _split, ("x1", -1): _merge}


def letter_steps(letter: str) -> tuple:
    """The primitive steps one letter applies, in order: the word of its token
    in `cayley.WORDS`, reversed with negated exponents for an inverse letter."""
    word = WORDS.get(base_symbol(letter_symbol(letter)))
    if word is None:
        raise ValueError(f"letter {letter!r} has no forest action")
    if letter.endswith(INV):
        word = [(g, -e) for g, e in reversed(word)]
    return tuple(PRIMITIVES[step] for step in word)


def bb_automaton(n: int, k: int, alphabet: GenAlphabet,
                 budget: int = DEFAULT_BUDGET) -> Automaton:
    """BB(n, k) as an automaton over the given alphabet of forest generators."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    from . import counting

    letters = alphabet.letters()
    steps = [letter_steps(a) for a in letters]
    # |BB(n, k)| >= n, and |BB(m, k)| <= |BB(n, k)| for m <= n (appending a
    # trivial tree is injective): counts at m = 1, 2, 4, ... refuse a budget
    # before the count table grows to n
    m, total = 0, n
    while total <= budget and m < n:
        m = min(2 * m, n) or 1
        total = counting.bb_count(m, k)
    if total > budget:
        raise BudgetExceeded(f"|BB({n},{k})| >= {exact_str(total)} exceeds budget {budget}")
    # a key has 3n - t characters for t trees, and a str about 50 bytes more
    if total * (3 * n + 49) > MAX_KEY_MIB << 20:
        raise BudgetExceeded(f"|BB({n},{k})| = {total:,} keys of up to {3 * n - 1:,} "
                             f"characters pass the bound of {MAX_KEY_MIB:,} MiB of key text")
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

    # one target column per primitive step, shared by multiset copies
    columns: dict = {}
    for a, seq in zip(letters, steps):
        for step in seq:
            if step in columns:
                continue
            if isinstance(step, int):  # x0 moves: v + step inside each shape
                col = array("i", range(step, total + step))
                for s, v in base.items():
                    col[v if step < 0 else v + len(s) - 1] = -1
            else:
                col = array("i")
                for s in shapes:
                    for i in range(len(s)):
                        r = step(tt, s, i)
                        v = base.get(r[0]) if r else -1
                        if v is None:
                            raise AssertionError(f"action {a!r} left BB({n},{k})")
                        col.append(v + r[1] if r else -1)
            columns[step] = col
    d = len(letters)
    tgt = array("i", [-1]) * (d * total)
    for j, seq in enumerate(steps):
        col = columns[seq[0]]
        for step in seq[1:]:  # index the next column, -1 appended for index -1
            col = array("i", map((columns[step] + array("i", [-1])).__getitem__, col))
        tgt[j::d] = col
    del columns, col  # the Serre check copies columns of tgt
    return Automaton(alphabet, keys, tgt)
