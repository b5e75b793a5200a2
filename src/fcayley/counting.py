"""Exact big-integer counting for Brown-Belk sets and their boundary data.

Per height cap k a table keeps two series up to x^n_max, both built from
f_(k-1) through T = f_(k-1) F (f = x + f_(k-1)^2 counts trees of height <= k):

  F      forests, F = 1/(1-f) = 1 + x F + f_(k-1) T
  G      forests whose last tree has height exactly k, G = (f - f_(k-1)) F = F - 1 - T

Every count is an O(n) sum read off F or G, with S = F^2 (pairs of forests;
M = S - F = f S counts marked forests) and h = f - x = f_(k-1)^2 (two
adjacent trees of height < k), so h F = F - 1 - x F:

  quantity                 value
  |BB(n, k)|               M[n] = S[n] - F[n],  S[m] = sum F[i] F[m-i]
  nu(x0), nu(x0^-1)        F[n]
  nu(x1), nu(xb1)          S[n-1]
  nu(x1^-1), nu(xb1^-1)    M[n] - [x^n] h S,    [x^n] h S = sum (hF)[i] F[n-i]
  nu(x2)                   F[n] + M[n-1]
  nu(x2^-1)                M[n] - [x^n] h M,    [x^n] h M = [x^n] h S - (hF)[n]
  |Y0(n, k)|               [x^(n-1)] G^2 = sum G[i] G[n-1-i]
  xi_k(n)                  M[n-1] / M[n]

As h = f - x, [x^n] h S = M[n] - S[n-1]: nu(a) = nu(a^-1) on DP rows is an
identity of the DP, not a check of it; the tests check the counts against
enumeration and full-array reference series.  A table is built once, up to
its n_max; the shared cache rebuilds it, never grows it, when n outgrows it.
A table with 2^k <= n_max^2/128, the measured crossover, runs the squaring
circuit of f_j S = x S + f_(j-1) (f_(j-1) S), f_0 = x: a binary tree of 2^k
delays, each fed its parent's input or its left sibling's output, and
2^k - 1 big-integer additions per coefficient; its registers live only while
the table is built.  Above that cap it convolves with f_(k-1) (at most
2^(k-1) leaves), O(n min(n, 2^k)) products in all.  A count costs O(n);
ratios are exact Fractions, and decimals appear only in rendered output.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add, mul, sub

from .cayley import INV, base_symbol, decimal_str


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
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.k, self.F, self.G = k, [1], [0]
        self._S: dict[int, int] = {}  # S[m] read so far
        F, G = self.F, self.G
        if k < (n_max * n_max >> 7).bit_length():  # 2^k <= n_max^2/128
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
        if m not in self._S:
            self._S[m] = _square_coef(self.F, m)
        return self._S[m]

    def marked(self, n: int) -> int:
        """M[n] = S[n] - F[n] = |BB(n, k)|."""
        return self.S(n) - self.F[n]


TABLES_KEPT = 16  # height caps whose tables stay cached
_tables: dict[int, CountTable] = {}  # least recently used first


def table(k: int, n: int) -> CountTable:
    """Shared table for a height cap and n >= 1 leaves, rebuilt at
    max(n, 2 n_max) when n outgrows it."""
    if n < 1:
        raise ValueError("n must be positive")
    t = _tables.pop(k, None)
    if t is None or t.n_max < n:
        t = CountTable(k, max(n, 2 * t.n_max) if t else n)
    _tables[k] = t
    if len(_tables) > TABLES_KEPT:
        del _tables[next(iter(_tables))]
    return t


def bb_count(n: int, k: int) -> int:
    """|BB(n, k)| as an exact integer."""
    return table(k, n).marked(n)


def y0_count(n: int, k: int) -> int:
    """|Y0(n, k)|: a marked trivial tree between two trees of height exactly k."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 1:
        return 0
    return _square_coef(table(k, n).G, n - 1)


def p_fraction(n: int, k: int) -> Fraction:
    """p = |Y0| / |BB(n, k)|."""
    return Fraction(y0_count(n, k), bb_count(n, k))


def nu_counts(n: int, k: int, symbols) -> dict[str, int]:
    """Exact per-letter counts of vertices of BB(n, k) not accepting the letter.

    Each count follows the acceptance rule of its own letter; as h = f - x,
    the counts of a and a^-1 agree by an identity of the DP.
    """
    t = table(k, n)
    F, S1, M = t.F, t.S(n - 1), t.marked(n)
    hF = list(map(sub, F[1:n + 1], F[:n]))  # (hF)[1..n], h F = F - 1 - x F
    hS = sum(map(mul, hF, reversed(F[:n])))
    by_base = {
        # marker leftmost / rightmost
        "x0": (F[n], F[n]),
        # marked tree trivial / no right neighbour to merge with
        "x1": (S1, M - hS),
        # no or a trivial right neighbour / no two right neighbours to merge
        "x2": (F[n] + S1 - F[n - 1], M - hS + hF[-1]),
    }
    by_base["xb1"] = by_base["x1"]
    out: dict[str, int] = {}
    for sym in symbols:
        base = base_symbol(sym)
        if base not in by_base:
            raise ValueError(f"unsupported letter {sym!r}")
        out[sym], out[sym + INV] = by_base[base]
    return out


def exact_str(x) -> str:
    """str(x) of a nonnegative int or Fraction of any size: str() refuses
    more digits than a limit (4300 by default, 640 at least), so integers
    past 600 digits are rendered in halves."""
    if not isinstance(x, int):
        return exact_str(x.numerator) + ("" if x.denominator == 1
                                         else "/" + exact_str(x.denominator))
    if x < 10 ** 600:
        return str(x)
    half = x.bit_length() * 3 // 20  # about half the digits, as log10(2) > 0.3
    high, low = divmod(x, 10 ** half)
    return exact_str(high) + exact_str(low).zfill(half)


class DensityRecord(namedtuple("DensityRecord", "n k alphabet size nu density iota p xi")):
    """Exact density data of BB(n, k) over one alphabet (xi is None at n = 1)."""

    __slots__ = ()

    def as_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "alphabet": self.alphabet,
            "size": exact_str(self.size),
            "nu": {a: exact_str(v) for a, v in self.nu.items()},
            "delta": exact_str(self.density),
            "delta_decimal": decimal_str(self.density),
            "iota": exact_str(self.iota),
            "iota_decimal": decimal_str(self.iota),
            "p": exact_str(self.p),
            "p_decimal": decimal_str(self.p) if self.p else "0",
            "xi": exact_str(self.xi) if self.xi is not None else None,
            "xi_decimal": decimal_str(self.xi) if self.xi else None,
        }


def density_report(n: int, k: int, symbols) -> DensityRecord:
    """Density, isoperimetric quotient and per-letter boundary counts via DP."""
    symbols = tuple(symbols)
    m = len(symbols)
    size = bb_count(n, k)
    nu = nu_counts(n, k, symbols)
    cheeger = sum(nu.values())
    density = Fraction(2 * m * size - cheeger, size)
    iota = Fraction(cheeger, size)
    if density + iota != 2 * m:
        raise AssertionError(f"delta + iota = {density + iota} != 2m = {2 * m}")
    return DensityRecord(
        n=n, k=k,
        alphabet=",".join(base_symbol(s) for s in symbols),
        size=size, nu=nu, density=density, iota=iota,
        p=p_fraction(n, k),
        xi=xi_estimate(k, n) if n >= 2 else None,
    )


def xi_estimate(k: int, n: int) -> Fraction:
    """|BB(n-1, k)| / |BB(n, k)|, the non-acceptance ratio for x1."""
    if n < 2:
        raise ValueError("need n >= 2")
    t = table(k, n)
    return Fraction(t.marked(n - 1), t.marked(n))


def xi_diagnostics(k: int, n: int) -> dict:
    """Stabilization report: the last two successive ratios and their gap."""
    last = xi_estimate(k, n)
    prev = xi_estimate(k, n - 1)
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
    rec = density_report(n, k, ("x0", "x1", "xb1"))
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


def catalan(n: int) -> int:
    """c_n = (2n)! / (n! (n+1)!), the forest count without a height cap."""
    import math

    return math.comb(2 * n, n) // (n + 1)
