"""Exact big-integer counting for Brown-Belk sets and their boundary data.

Per height cap k a table keeps two series up to x^n_max, both built from
f_(k-1) through T = f_(k-1) F (f = x + f_(k-1)^2 counts trees of height <= k):

  F      forests, F = 1/(1-f) = 1 + x F + f_(k-1) T
  G      forests whose last tree has height exactly k, G = (f - f_(k-1)) F = F - 1 - T

Every count is an O(n) sum read off F or G, with S = F^2 (pairs of forests;
M = S - F = f S counts marked forests) and h = f - x = f_(k-1)^2 (two
adjacent trees of height < k):

  quantity                 value
  |BB(n, k)|               M[n] = S[n] - F[n],  S[m] = sum F[i] F[m-i]
  nu(x0), nu(x0^-1)        F[n]
  nu(x1), nu(xb1)          S[n-1]
  nu(x1^-1), nu(xb1^-1)    M[n] - [x^n] h S = S[n-1]
  nu(x2)                   F[n] + M[n-1]
  nu(x2^-1)                M[n] - [x^n] h M = F[n] + S[n-1] - F[n-1]
  |Y0(n, k)|               [x^(n-1)] G^2 = sum G[i] G[n-1-i]
  xi_k(n)                  M[n-1] / M[n]

As h = f - x, [x^n] h S = M[n] - S[n-1] and [x^n] h F = F[n] - F[n-1]:
nu(a) = nu(a^-1) on DP rows is an identity of the DP, not a check of it;
the tests check the counts against enumeration and full-array reference
series.  The request that reads a table builds it once, up to the largest
n it reads, and passes it to every record it reads off it; `table` refuses
a build that would pass `cayley.MAX_MIB`, read at call time.  `sweep` is
the one runner of a (k, n, alphabet) grid: it refuses a grid past
`cayley.MAX_RECORDS` records or `cayley.MAX_MIB` of records, checks every
cap before it builds a table, and holds one table at a time.  A table with
2^k <= n_max^2/128, the measured crossover, runs the squaring circuit of
f_j S = x S + f_(j-1) (f_(j-1) S), f_0 = x: a binary tree of 2^k delays,
each fed its parent's input or its left sibling's output, and 2^k - 1
big-integer additions per coefficient; its registers live only while the
table is built.  Above that cap it convolves with f_(k-1) (at most 2^(k-1)
leaves), O(n min(n, 2^k)) products in all.  A count costs O(n); ratios are
exact Fractions, and decimals appear only in rendered output.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add, mul

from . import cayley


def _coef(P: list[int], series: list[int], n: int) -> int:
    """[x^n] P(x) * series(x): the sum of P[l] * series[n-l] over the l
    where both entries exist."""
    lo = max(0, n - len(series) + 1)
    hi = min(n, len(P) - 1)
    return sum(map(mul, P[lo:hi + 1], reversed(series[n - hi:n - lo + 1])))


def _square_coef(P: list[int], m: int) -> int:
    """[x^m] P(x)^2, each cross term P[i] P[m-i] (i < m-i) summed once."""
    lo = max(0, m - len(P) + 1)
    half = (m - 1) // 2
    mid = P[m // 2] ** 2 if m % 2 == 0 and m // 2 < len(P) else 0
    return 2 * sum(map(mul, P[lo:half + 1], reversed(P[m - half:m - lo + 1]))) + mid


def tree_counts(k: int, max_leaves: int) -> list[int]:
    """f[0..max_leaves]: trees with the given leaf count and height <= k."""
    if k < 0 or max_leaves < 0:
        raise ValueError("k and max_leaves must be nonnegative")
    if k >= max_leaves - 1:
        # a tree with l leaves has height at most l - 1: the cap cannot bind
        return [0] + [catalan(l - 1) for l in range(1, max_leaves + 1)]
    f = [0, 1][:max_leaves + 1]
    for h in range(1, k + 1):
        f = [0, 1] + [_square_coef(f, l) for l in range(2, min(max_leaves, 2 ** h) + 1)]
    return f + [0] * (max_leaves + 1 - len(f))


class CountTable:
    """The series F and G of one height cap up to n_max leaves."""

    def __init__(self, k: int, n_max: int):
        self.k, self.F, self.G = k, [1], [0]
        F, G = self.F, self.G
        if _circuit(k, n_max):
            R = [1] + [0] * ((1 << k) - 1)  # circuit registers, the inputs of the delays
            for _ in range(len(F), n_max + 1):
                nxt, out, h = [0] * len(R), R, len(R)
                while h > 1:  # out_j = R[:h] + out_(j-1)[h:] entry by entry, h = 2^(k-j)
                    h >>= 1
                    nxt[h:2 * h] = out[:h]  # the next registers hold first halves
                    out = list(map(add, R[:h], out[h:]))
                nxt[0] = out[0]  # f_k F; T = f_(k-1) F is out_(k-1)[0] = nxt[1]
                F.append(out[0])
                G.append(out[0] - nxt[1] if k else out[0])
                R = nxt
        else:
            # f_(k-1) (f_(-1) = 0) up to its degree 2^(k-1); caps above n_max cannot bind
            k = min(k, n_max + 1)
            lower = tree_counts(k - 1, min(n_max, 2 ** (k - 1))) if k else [0]
            T = [0]  # T = f_(k-1) F
            for n in range(len(F), n_max + 1):
                T.append(_coef(lower, F, n))
                F.append(F[n - 1] + _coef(lower, T, n))
                G.append(F[n] - T[n])
        self.n_max = len(F) - 1

    def S(self, m: int) -> int:
        """S[m] = [x^m] F^2: ordered pairs of forests with m leaves in all."""
        return _square_coef(self.F, m)

    def marked(self, n: int) -> int:
        """M[n] = S[n] - F[n] = |BB(n, k)|."""
        return self.S(n) - self.F[n]

    def y0(self, n: int) -> int:
        """|Y0(n, k)| = [x^(n-1)] G^2: a marked trivial tree between two trees
        of height exactly k (none for k = 0)."""
        return _square_coef(self.G, n - 1) if self.k else 0


def _circuit(k: int, n_max: int) -> bool:
    """The squaring circuit builds a table while 2^k <= n_max^2/128, the
    measured crossover; convolution with f_(k-1) above it."""
    return 0 <= k < (n_max * n_max >> 7).bit_length()


def _build_bits(k: int, n: int) -> int:
    """Bits a table up to n leaves holds while built: F and G, and either T
    and f_(k-1) or the circuit's registers and their successors, 2^(k+1)
    entries.  Every entry counts at most 4^i forests, 2i <= 2n bits, and
    costs about 320 bits more as an object."""
    series = 2 * n * (n + 320)  # F and G
    if _circuit(k, n):
        return series + (2 << k) * (2 * n + 320)
    return 2 * series


def _check_table(k: int, n: int) -> None:
    """Refuse a count table for a height cap k < 0, up to n < 1 leaves, or
    whose build would pass cayley.MAX_MIB."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    bits = _build_bits(k, n)
    if bits > cayley.MAX_MIB << 23:
        raise cayley.refusal(f"building the count table for k = {k} up to n = {n} leaves "
                             "takes up to", -(-bits >> 23), "MiB", cayley.MAX_MIB)


def table(k: int, n: int) -> CountTable:
    """A new count table for a height cap up to n >= 1 leaves, refused before
    it is built when its build would pass cayley.MAX_MIB."""
    _check_table(k, n)
    return CountTable(k, n)


def bb_count(n: int, k: int) -> int:
    """|BB(n, k)| as an exact integer, off a table built for it."""
    return table(k, n).marked(n)


def nu_counts(n: int, k: int, symbols) -> dict[str, int]:
    """Exact per-letter counts of vertices of BB(n, k) not accepting the
    letter, off a table built for them."""
    return density_report(table(k, n), n, symbols).nu


class DensityRecord(namedtuple("DensityRecord", "n k alphabet size nu density iota p xi")):
    """Exact density data of BB(n, k) over one alphabet (xi is None at n = 1)."""

    __slots__ = ()

    def as_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "alphabet": self.alphabet,
            "size": cayley.exact_str(self.size),
            "nu": {a: cayley.exact_str(v) for a, v in self.nu.items()},
            **cayley.rational_fields(delta=self.density, iota=self.iota, p=self.p, xi=self.xi),
        }


def density_report(t: CountTable, n: int, symbols) -> DensityRecord:
    """Density, isoperimetric quotient, per-letter boundary counts, p =
    |Y0| / |BB(n, k)| and xi_k(n) of BB(n, k), k = t.k, off a table built up
    to at least n leaves."""
    if not 1 <= n <= t.n_max:
        raise ValueError(f"n = {n} is outside the table's 1..{t.n_max} leaves")
    al = cayley.GenAlphabet(symbols)
    F, size, s1 = t.F, t.marked(n), t.S(n - 1)
    by_token = {  # a letter's count; its inverse's agrees by the identities above
        "x0": F[n],  # marker leftmost / rightmost
        "x1": s1,  # marked tree trivial / no right neighbour to merge with
        "xb1": s1,  # the same, with the left neighbour
        "x2": F[n] + s1 - F[n - 1],  # no or a trivial right neighbour / no two to merge
    }
    m = al.m
    nu: dict[str, int] = {}
    for sym, tok, inv in zip(al.symbols, al.tokens, al.letters[m:]):
        if tok not in by_token:
            raise ValueError(f"unsupported letter {sym!r}")
        nu[sym] = nu[inv] = by_token[tok]
    cheeger = sum(nu.values())
    density = Fraction(2 * m * size - cheeger, size)
    iota = Fraction(cheeger, size)
    return DensityRecord(
        n=n, k=t.k,
        alphabet=al.spec(),
        size=size, nu=nu, density=density, iota=iota,
        p=Fraction(t.y0(n), size),
        xi=Fraction(s1 - F[n - 1], size) if n >= 2 else None,
    )


def sweep(k_ranges, n_ranges, specs) -> list[DensityRecord]:
    """The records of a (k, n, alphabet spec) grid, ordered as nested loops.
    The grid is counted and sized from the range ends before any list is
    built, and every cap is checked before the first table is built."""
    ks = sum(r.stop - r.start for r in k_ranges)  # len(range) overflows past 2^63
    grid = ks * len(specs) * sum(r.stop - r.start for r in n_ranges)
    if grid > cayley.MAX_RECORDS:
        raise cayley.refusal("the sweep grid has", grid, "records", cayley.MAX_RECORDS)
    symbols = [cayley.make_alphabet(spec).symbols for spec in specs]
    # a record over m letters holds 2m + 9 exact numbers, and one of n leaves takes
    # up to 2n bytes (2n bits, 0.6n digits in a string and in the output text),
    # 320 more as objects: sum (2n + 320) over lo..hi is (lo + hi + 320)(hi - lo + 1)
    size = ks * sum(2 * len(syms) + 9 for syms in symbols) * sum(
        (r.start + r.stop - 1 + 320) * (r.stop - r.start) for r in n_ranges)
    if size > cayley.MAX_MIB << 20:
        raise cayley.refusal("the records of the sweep grid take about", -(-size >> 20),
                             "MiB", cayley.MAX_MIB)
    k_values = [k for r in k_ranges for k in r]
    n_values = [n for r in n_ranges for n in r]
    if min(n_values) < 1:
        raise ValueError("n must be positive")
    n_max = max(n_values)
    for k in k_values:
        _check_table(k, n_max)
    records = []
    for k in k_values:
        t = table(k, n_max)  # built for the largest n
        records += [density_report(t, n, syms) for n in n_values for syms in symbols]
        del t  # freed before the next cap's table is built
    return records


def catalan(n: int) -> int:
    """c_n = (2n)! / (n! (n+1)!), the forest count without a height cap."""
    import math

    return math.comb(2 * n, n) // (n + 1)
