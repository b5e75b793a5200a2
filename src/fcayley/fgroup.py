"""Exact arithmetic in Thompson's group F on reduced tree-pair diagrams.

An element is a pair (domain, range) of binary trees with equal leaf counts
(Cannon, Floyd & Parry 1996), reduced so that no two adjacent leaves are
siblings in both trees.  Read as the dyadic PL map that carries the range
subdivision onto the domain subdivision, a*b applies a first and b second,
so words multiply left to right as in right Cayley graphs (edge a goes from
g to g*a), and the relations x_j x_i = x_i x_{j+1} (i < j) hold for the base
pairs below.

A tree is stored as its leaf depths, left to right: leaf i is the dyadic
interval of length 2^-d_i that starts where leaf i-1 ends, so at a scale 2^T
(T >= every depth) its breakpoints are integers.  An element is the pair
of reduced sequences `dd` (domain) and `rd` (range): reduced pairs are
unique, so equal pairs are equal elements.

Product.  Dyadic intervals are nested or disjoint, so the union of the
breakpoints of b.range and a.domain cuts [0, 1] into the leaves of their
least common extension (the union of both caret sets).  `product` sweeps
that union once: a middle leaf of depth md inside b.range leaf i and
a.domain leaf j has depth md - b.rd[i] + b.dd[i] in the product's domain
and md - a.dd[j] + a.rd[j] in its range (the middle tree grafted onto
b.domain and onto a.range).

Reduction.  Leaves i, i+1 of a tree are the children of one caret exactly
when both have depth d and leaf i starts on a multiple of 2^(T-d+1).  The
sweep pushes each product leaf onto a stack, whose width is where the leaf
starts at the scale u = t + max(b.dd, a.rd) that bounds every product
depth, and collapses the top two while they are such a pair in both trees;
a collapse can only pair with a neighbour, and the right one is checked
when it is pushed.  Reduced pairs are unique, so the collapse order does
not matter, and a parsed pair is reduced as its product with 1.

Keys are "domain|range", a tree written "." for a leaf and "(" + left +
right + ")" for a caret.  `_enc` writes leaf i after one "(" per caret it is
the leftmost leaf of and before one ")" per caret it is the rightmost leaf
of: the trailing ones of its index among the intervals of its depth.
`_parse` inverts it in one pass: a leaf's depth is the number of carets
open around it.

Base generators (pinned by the relation tests in the suite):

    x0 = (.(..))     -> ((..).)
    x1 = (.(.(..)))  -> (.((..).))

and x_n = x0^-(n-1) * x1 * x0^(n-1) for n >= 2.
"""

from __future__ import annotations

from collections import namedtuple

Depths = tuple[int, ...]


class FElement(namedtuple("FElement", "dd rd")):
    """Reduced tree-pair representative of an element of Thompson's group F:
    an already reduced pair of depth sequences, equal to and hashed as the
    plain pair `product` returns, its key rendered when read."""

    __slots__ = ()

    @property
    def key(self) -> str:
        return _enc(self.dd) + "|" + _enc(self.rd)

    def is_identity(self) -> bool:
        return len(self.dd) == 1

    def __repr__(self):
        return f"FElement({self.key!r})"


def _enc(depths: Depths) -> str:
    """Balanced-parentheses encoding of the tree with these leaf depths."""
    t = max(depths)
    out = ""
    p = cur = 0  # start of the next leaf at scale 2^t; carets open before it
    for d in depths:
        i = p >> (t - d)
        p += 1 << (t - d)
        closes = (i ^ (i + 1)).bit_length() - 1
        out += "(" * (d - cur) + "." + ")" * closes
        cur = d - closes
    return out


def _parse(enc: str) -> Depths:
    """Leaf depths of the tree with this encoding; the inverse of `_enc`."""
    depths = []
    due = [1]  # subtrees still due: the root, then two per open caret
    for c in enc:
        if c == ")" and len(due) > 1 and not due[-1]:
            due.pop()
        elif c in "(.":
            due[-1] -= 1
            if c == "(":
                due.append(2)
            else:
                depths.append(len(due) - 1)
        else:
            raise ValueError(f"bad tree encoding: {enc!r}")
    if due != [0]:
        raise ValueError(f"bad tree encoding: {enc!r}")
    return tuple(depths)


IDENTITY = FElement((0,), (0,))


def element_from_key(key: str) -> FElement:
    """Decode a "domain|range" pair key into its reduced element."""
    parts = key.split("|")
    if len(parts) != 2:
        raise ValueError(f"bad element key: {key!r}")
    dd, rd = _parse(parts[0]), _parse(parts[1])
    if len(dd) != len(rd):
        raise ValueError(f"domain and range of {key!r} have different leaf counts")
    return FElement(*product(IDENTITY, (dd, rd)))


def multiply(a: FElement, b: FElement) -> FElement:
    """Product a*b, i.e. apply a first, then b."""
    return FElement(*product(a, b))


def product(a: tuple[Depths, Depths], b: tuple[Depths, Depths]) -> tuple[Depths, Depths]:
    """Reduced depth pair of a*b from the depth pairs (dd, rd) of a and b:
    one sweep over the breakpoints of b.range and a.domain that collapses
    each leaf as it is pushed (see the module docstring)."""
    (ys, ar), (bd, xs) = a, b
    t = max(max(xs), max(ys))
    u = t + max(max(bd), max(ar))
    dd, rd = [], []  # the stack of product leaves
    i = j = p = s = q = 0  # middle position at scale 2^t; stack widths at 2^u
    n = len(xs)
    end_x, end_y = 1 << (t - xs[0]), 1 << (t - ys[0])
    while True:
        x, y = xs[i], ys[j]
        md = x if x > y else y
        d, r = md - x + bd[i], md - y + ar[j]
        wd, wr = 1 << (u - d), 1 << (u - r)
        # a top of equal depths ending on an odd multiple of its width is a left child
        while dd and dd[-1] == d and rd[-1] == r and s & wd and q & wr:
            dd.pop()
            rd.pop()
            s, q, wd, wr = s - wd, q - wr, wd << 1, wr << 1
            d, r = d - 1, r - 1
        dd.append(d)
        rd.append(r)
        s, q, p = s + wd, q + wr, p + (1 << (t - md))
        if p == end_x:
            i += 1
            if i == n:
                break
            end_x += 1 << (t - xs[i])
        if p == end_y:
            j += 1
            end_y += 1 << (t - ys[j])
    return tuple(dd), tuple(rd)


def pair_keys(pairs) -> list[str]:
    """Keys of reduced depth pairs, each distinct tree rendered once."""
    enc = {tree: _enc(tree) for tree in {tree for pair in pairs for tree in pair}}
    return [enc[dd] + "|" + enc[rd] for dd, rd in pairs]


def invert(a: FElement) -> FElement:
    return FElement(a.rd, a.dd)


def power(a: FElement, n: int) -> FElement:
    if n < 0:
        return power(invert(a), -n)
    out = IDENTITY
    for _ in range(n):
        out = multiply(out, a)
    return out


def conjugate(g: FElement, by: FElement) -> FElement:
    """g^by = by^-1 g by."""
    return multiply(multiply(invert(by), g), by)


X0 = element_from_key("(.(..))|((..).)")
X1 = element_from_key("(.(.(..)))|(.((..).))")


def generator_x(n: int) -> FElement:
    """The generator x_n: base pairs for n = 0, 1, conjugates for n >= 2."""
    if n < 0:
        raise ValueError("generator index must be nonnegative")
    if n == 0:
        return X0
    if n == 1:
        return X1
    return conjugate(X1, power(X0, n - 1))
