"""Exact big-integer counting for Brown-Belk sets and their boundary data.

Per height cap k there are two series and three short polynomials:

  f      trees with height <= k by leaves    f = x + f_(k-1)^2, degree <= 2^k
  F      forests, F = 1/(1-f)                F[n] = [x^n] F, F[0] = 1
  S      pairs of forests, S = 1/(1-f)^2     M = S - F = f S: marked forests
  h      f_(k-1)^2: two adjacent trees of height < k
  gg     g^2, g = f - f_(k-1): two trees of height exactly k

Every count is a coefficient [x^m] P(x)/(1-f(x))^j, read off by one
routine, `_coef(P, series, m)` = sum of P[l] * series[m-l]:

  quantity                 value                  P     j
  |BB(n, k)|               M[n] = S[n] - F[n]     1     2, 1
  nu(x0), nu(x0^-1)        F[n]                   1     1
  nu(x1), nu(xb1)          S[n-1]                 1     2
  nu(x1^-1), nu(xb1^-1)    M[n] - [x^n] h S       h     2
  nu(x2)                   F[n] + M[n-1]          1     1, 2
  nu(x2^-1)                M[n] - [x^n] h M       h     2, 1
  |Y0(n, k)|               [x^(n-1)] gg S         gg    2
  xi_k(n)                  M[n-1] / M[n]          1     2, 1

A tree of height k has at most 2^k leaves, so F and S cost O(n min(n, 2^k))
big-integer operations and each count O(min(n, 2^k)): n in the thousands,
far past enumeration.  Ratios are exact Fractions; decimals appear only in
rendered output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from operator import mul

from .cayley import INV, base_symbol


def _coef(P: list[int], series: list[int], n: int) -> int:
    """[x^n] P(x) * series(x): the sum of P[l] * series[n-l] over the l
    where both entries exist."""
    lo = max(0, n - len(series) + 1)
    hi = min(n, len(P) - 1)
    return sum(map(mul, P[lo:hi + 1], reversed(series[n - hi:n - lo + 1])))


def _square(P: list[int], cap: int) -> list[int]:
    """P(x)^2 truncated after x^cap."""
    return [_coef(P, P, l) for l in range(min(2 * len(P) - 1, cap + 1))]


def tree_counts(k: int, max_leaves: int) -> list[int]:
    """f[0..max_leaves]: trees with the given leaf count and height <= k."""
    if k < 0 or max_leaves < 0:
        raise ValueError("k and max_leaves must be nonnegative")
    f = [0, 1][:max_leaves + 1]
    # a tree with l leaves has height at most l - 1, so higher caps cannot bind
    for h in range(1, min(k, max_leaves - 1) + 1):
        f = [0, 1] + [_coef(f, f, l) for l in range(2, min(max_leaves, 2 ** h) + 1)]
    return f + [0] * (max_leaves + 1 - len(f))


class CountTable:
    """The series F and S of one height cap up to n_max leaves, and the
    short polynomials f, h and gg that the counts multiply them by."""

    def __init__(self, k: int, n_max: int):
        self.k = k
        self.n_max = n_max
        self.f = tree_counts(k, min(n_max, 2 ** k))
        # the merge moves take their children from trees of height <= k-1
        lower = tree_counts(k - 1, min(n_max, 2 ** (k - 1))) if k >= 1 else [0]
        self.h = _square(lower, n_max)
        g = [a - b for a, b in zip_longest(self.f, lower, fillvalue=0)]
        self.gg = _square(g, n_max)
        self.F = [1]
        for n in range(1, n_max + 1):
            self.F.append(_coef(self.f, self.F, n))
        self.S = [1]
        for n in range(1, n_max + 1):
            self.S.append(self.F[n] + _coef(self.f, self.S, n))

    def marked(self, n: int) -> int:
        """M[n] = S[n] - F[n] = |BB(n, k)|."""
        return self.S[n] - self.F[n]


TABLES_KEPT = 16  # height caps whose tables stay cached
_tables: dict[int, CountTable] = {}  # least recently used first


def table(k: int, n: int) -> CountTable:
    """Shared table for a height cap, rebuilt with at least twice the leaf
    budget when n outgrows it."""
    t = _tables.pop(k, None)
    if t is None or t.n_max < n:
        t = CountTable(k, max(n, 2 * t.n_max if t else n))
    _tables[k] = t
    if len(_tables) > TABLES_KEPT:
        del _tables[next(iter(_tables))]
    return t


def bb_count(n: int, k: int) -> int:
    """|BB(n, k)| as an exact integer."""
    if n < 1:
        raise ValueError("n must be positive")
    return table(k, n).marked(n)


def y0_count(n: int, k: int) -> int:
    """|Y0(n, k)|: a marked trivial tree between two trees of height exactly k."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 1:
        return 0
    t = table(k, n)
    return _coef(t.gg, t.S, n - 1)


def p_fraction(n: int, k: int) -> Fraction:
    """p = |Y0| / |BB(n, k)|."""
    return Fraction(y0_count(n, k), bb_count(n, k))


def nu_counts(n: int, k: int, symbols) -> dict[str, int]:
    """Exact per-letter counts of vertices of BB(n, k) not accepting the letter.

    Each count follows the acceptance rule of its own letter; the symmetric
    property nu(a) = nu(a^-1) is a theorem about Cayley subgraphs, so it
    comes out of these independent formulas as a cross-check rather than
    being assumed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    t = table(k, n)
    F, S, M = t.F, t.S, t.marked
    hS = _coef(t.h, S, n)
    hM = hS - _coef(t.h, F, n)
    by_base = {
        # marker leftmost / rightmost
        "x0": (F[n], F[n]),
        # marked tree trivial / no right neighbour to merge with
        "x1": (S[n - 1], M(n) - hS),
        # no or a trivial right neighbour / no two right neighbours to merge
        "x2": (F[n] + M(n - 1), M(n) - hM),
    }
    by_base["xb1"] = by_base["x1"]
    out: dict[str, int] = {}
    for sym in symbols:
        base = base_symbol(sym)
        if base not in by_base:
            raise ValueError(f"unsupported letter {sym!r}")
        out[sym], out[sym + INV] = by_base[base]
    return out


@dataclass(frozen=True)
class DensityRecord:
    """Exact density data of BB(n, k) over one alphabet."""

    n: int
    k: int
    alphabet: str
    size: int
    nu: dict[str, int]
    density: Fraction
    iota: Fraction
    p: Fraction
    xi: Fraction | None

    def as_obj(self) -> dict:
        from .cayley import decimal_str

        return {
            "n": self.n,
            "k": self.k,
            "alphabet": self.alphabet,
            "size": str(self.size),
            "nu": {a: str(v) for a, v in self.nu.items()},
            "delta": str(self.density),
            "delta_decimal": decimal_str(self.density),
            "iota": str(self.iota),
            "iota_decimal": decimal_str(self.iota),
            "p": str(self.p),
            "p_decimal": decimal_str(self.p) if self.p else "0",
            "xi": str(self.xi) if self.xi is not None else None,
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


@dataclass(frozen=True)
class TrimmedReport:
    """Density of BB(n, k) over {x0, x1, xb1} after removing the isolated set."""

    n: int
    k: int
    density: Fraction
    p: Fraction
    trimmed_density: Fraction
    iota_star_bound: Fraction  # 2m - trimmed density, m = 3


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
    if eps is None:
        eps = p0 / 2
    bound = 1 - (p0 - eps) / (1 - p0)
    return {"p0": p0, "eps": eps, "iota_bound": bound}


def catalan(n: int) -> int:
    """c_n = (2n)! / (n! (n+1)!), the forest count without a height cap."""
    import math

    return math.comb(2 * n, n) // (n + 1)
