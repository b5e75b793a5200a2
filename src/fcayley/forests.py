"""Brown-Belk sets BB(n, k) of marked forests and the partial generator actions.

BB(n, k) is the set of marked forests with n leaves whose trees all have
height at most k.  F acts partially on the right by two moves

  x0    move the marker one tree to the left (undefined at the left end),
  x1    split the marked caret (T1^T2) into T1, T2 and mark T1,

and every other letter as its word in x0 and x1 (`cayley.WORDS`), step by
step: xb1 = x1 x0^-1 marks T2 after the split.  An edge v -a-> w of the
Cayley graph is the edge w -a^-1-> v, so inside BB(n, k) the letter a^-1
acts as the inverse partial map of a: x1^-1 merges the marked tree with its
right neighbour where both have height < k.

Vertex core.  A `TreeTable` builds and numbers the trees of height <= k
with at most n leaves by leaf count, each caret a join of two smaller trees
of height < k; a forest shape is a tuple of tree numbers, and vertex (s, i),
shape s marked at tree i, is numbered base[s] + i.  The action is one
target column per letter, -1 where undefined: x0 is the range v - 1, x1 one
table lookup per vertex, a token's column indexes the columns of its word's
steps, and a^-1 is a's column inverted by `cayley.inverse_column`, each
column at most once per build; multiset copies share columns.
Keys ("(..)*;." with "*" after the marked tree) are rendered once per vertex
and kept in this shape order; only the file writer sorts them.  A build past
`cayley.DEFAULT_BUDGET` forests or `cayley.MAX_MIB` of keys is refused first.
"""

from __future__ import annotations

from array import array

from . import cayley


class TreeTable:
    """The trees of height <= k with at most n leaves, numbered by leaf count.

    enc[t] is the key of tree t ("." for the leaf, "(" + left + right + ")"
    for a caret), split[t] the pair (left, right) of a caret or None for the
    leaf, and by_size[s] the trees with s leaves.
    """

    def __init__(self, k: int, n: int):
        self.enc, self.split = ["."], [None]
        height = [0]
        self.by_size: list[list[int]] = [[], [0]]
        low = [[], [0] if k > 0 else []]  # trees of height < k, by leaf count
        for size in range(2, n + 1):
            new = []
            for nl in range(1, size):
                for left in low[nl]:
                    for right in low[size - nl]:
                        new.append(len(self.enc))
                        self.enc.append("(" + self.enc[left] + self.enc[right] + ")")
                        self.split.append((left, right))
                        height.append(max(height[left], height[right]) + 1)
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


def bb_automaton(n: int, k: int, alphabet: cayley.GenAlphabet) -> cayley.Automaton:
    """BB(n, k) as an automaton over the given alphabet of forest generators."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    from . import counting

    words = {tok: cayley.WORDS.get(tok) for tok in alphabet.tokens}
    for tok, word in words.items():
        if word is None:
            raise ValueError(f"token {tok!r} has no forest action")
    # |BB(n, k)| >= n, and |BB(m, k)| <= |BB(n, k)| for m <= n (appending a
    # trivial tree is injective): counts at m = 1, 2, 4, ... refuse a budget
    # before the count table grows to n
    budget, m, total = cayley.DEFAULT_BUDGET, 0, n
    while total <= budget and m < n:
        m = min(2 * m, n) or 1
        total = counting.bb_count(m, k)
    if total > budget:
        raise cayley.refusal(f"BB({n},{k}) has at least", total, "forests", budget)
    # a key has 3n - t characters for t trees, and a str about 50 bytes more
    text = total * (3 * n + 49)
    if text > cayley.MAX_MIB << 20:
        raise cayley.refusal(f"the keys of BB({n},{k}) take up to", -(-text >> 20), "MiB",
                             cayley.MAX_MIB)
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

    # x0 shifts the marker left inside each shape, x1 splits the marked tree
    x0 = array("i", range(-1, total - 1))
    for v in base.values():
        x0[v] = -1
    x1 = array("i")
    for s in shapes:
        for i in range(len(s)):
            r = _split(tt, s, i)
            v = base.get(r[0]) if r else -1
            if v is None:
                raise AssertionError(f"x1 left BB({n},{k})")
            x1.append(v + r[1] if r else -1)
    moves = {("x0", 1): x0, ("x1", 1): x1}

    def move(g: str, e: int) -> array:
        if (g, e) not in moves:  # x0^-1 inverts x0, once per build
            moves[g, e] = cayley.inverse_column(moves[g, -e])
        return moves[g, e]

    # a token's column indexes the columns of its word's steps (-1 appended
    # for index -1); slot a^-1 inverts slot a, the opposite move for a word
    # of one step, and multiset copies share both
    columns = {}
    for tok, word in words.items():
        (g, e), rest = word[0], word[1:]
        col = move(g, e)
        for step in rest:
            col = array("i", map((move(*step) + array("i", [-1])).__getitem__, col))
        columns[tok] = col, cayley.inverse_column(col) if rest else move(g, -e)
    m = alphabet.m
    tgt = array("i", [-1]) * (2 * m * total)
    for j, tok in enumerate(alphabet.tokens):
        tgt[j::2 * m], tgt[j + m::2 * m] = columns[tok]
    del x0, x1, moves, columns, col  # the Serre check copies columns of tgt
    return cayley.Automaton(alphabet, keys, tgt)
