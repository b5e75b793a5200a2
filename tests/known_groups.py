"""Known groups for tests: facts about F that need no code under `src/`, and
balls of groups whose boundary counts are theorems.

The order-2 automorphism x0 -> x0^-1, x1 -> x1 x0^-1 of F permutes the
paper's generating set {x0, x1, xb1}; `automorphism`, `presentation2_relators`
and `check_automorphism` state it on the images (a, b) of (x0, x1), with the
relators of the two-generator presentation (Cannon, Floyd & Parry 1996).

`cayley_ball` builds the ball of any group from its multiply function and
the values of the letters of an alphabet such as `GenAlphabet(("a", "b"))`,
which binds no F values, and `induced` the induced subgraph on any finite
set of elements, both through `cayley_ref.automaton_from_rows`.  The free
group F2, Z^2 and the lamplighter group are built here: in F2 the ball B_r
has 2*3^r - 1 elements and 4*3^r boundary edges, in the l1 ball of Z^2 there
are 2r^2 + 2r + 1 elements and 8r + 4 boundary edges, and the lamplighter
box Y_n (lamps and lamplighter within {0..n}) has (n+1)*2^(n+1) elements
and 2^(n+2) boundary edges, the t-edges that leave it at each end.
"""

from __future__ import annotations

from itertools import compress, product

from cayley_ref import automaton_from_rows
from fcayley.cayley import Automaton, GenAlphabet
from fcayley.fgroup import X0, X1, FElement, conjugate, invert, multiply, power

# ---------------------------------------------------------------------------
# The order-2 automorphism, written on the images (a, b) of (x0, x1)


def automorphism(a: FElement, b: FElement) -> tuple[FElement, FElement]:
    """The map x0 -> x0^-1, x1 -> x1 x0^-1 on the images (a, b) of (x0, x1)
    under a homomorphism phi: (phi(x0^-1), phi(x1 x0^-1)) = (a^-1, b a^-1).
    At (X0, X1) it gives the images of the generators."""
    return invert(a), multiply(b, invert(a))


def presentation2_relators(a: FElement, b: FElement) -> list[FElement]:
    """The relators x1^(x0^k) (x1^(x0^(k-1) x1))^-1, k = 2, 3, of the
    two-generator presentation at x0 = a, x1 = b: all are the identity
    exactly when x0 -> a, x1 -> b extends to an endomorphism of F."""
    return [multiply(conjugate(b, power(a, k)),
                     invert(conjugate(b, multiply(power(a, k - 1), b))))
            for k in (2, 3)]


def check_automorphism() -> dict[str, bool]:
    """Verify that the map is an order-2 automorphism of F.

    Checks: both relators vanish at the images of x0 and x1, applying the
    map to its own images gives back x0 and x1, and the images do not
    commute, so the image of [x0, x1] is nontrivial (the endomorphism is
    not a collapse onto an abelian quotient).
    """
    a, b = automorphism(X0, X1)
    report = {
        "relators_preserved": all(r.is_identity() for r in presentation2_relators(a, b)),
        "involutive_on_generators": automorphism(a, b) == (X0, X1),
        "commutator_image_nontrivial": multiply(a, b) != multiply(b, a),
    }
    report["ok"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# Balls of known groups


def cayley_ball(r: int, alphabet: GenAlphabet, mul, identity, values) -> Automaton:
    """Ball of radius r around `identity` in the right Cayley graph
    g -a-> mul(g, a) of the group with the product `mul`, where `values`
    holds the value of each of `alphabet.letters` (the symbols, then their
    inverses).  Vertex keys are `str` of the elements, in found order; the
    products outside are outer."""
    ball, sphere = [identity], [identity]
    found = {identity}
    for _ in range(r):
        new = []
        for g in sphere:
            for v in values:
                h = mul(g, v)
                if h not in found:
                    found.add(h)
                    new.append(h)
        ball += new
        sphere = new
    return induced(alphabet, mul, ball, values)


def induced(alphabet: GenAlphabet, mul, elements, values) -> Automaton:
    """The induced subgraph of the right Cayley graph on the distinct
    `elements`, in the order given, with `values` as in `cayley_ball`;
    vertex keys are `str` of the elements, and the products outside are
    outer."""
    found = set(elements)
    rows, outer = {}, set()
    for g in elements:
        row = {a: mul(g, v) for a, v in zip(alphabet.letters, values)}
        outer.update(str(h) for h in row.values() if h not in found)
        rows[str(g)] = {a: str(h) if h in found else None for a, h in row.items()}
    return automaton_from_rows(alphabet, rows, frozenset(outer))


def free_multiply(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Product of reduced words in F2, letter i > 0 the i-th generator and -i
    its inverse: v's letters cancel against u's tail."""
    u, i = list(u), 0
    while i < len(v) and u and u[-1] == -v[i]:
        u.pop()
        i += 1
    return tuple(u) + v[i:]


def z2_multiply(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    return u[0] + v[0], u[1] + v[1]


def free_ball(r: int, alphabet: GenAlphabet) -> Automaton:
    """Ball of radius r in F2 on the two symbols of the alphabet."""
    return cayley_ball(r, alphabet, free_multiply, (), ((1,), (2,), (-1,), (-2,)))


def z2_ball(r: int, alphabet: GenAlphabet) -> Automaton:
    """l1 ball of radius r in Z^2 on the two symbols of the alphabet."""
    return cayley_ball(r, alphabet, z2_multiply, (0, 0), ((1, 0), (0, 1), (-1, 0), (0, -1)))


def lamp_multiply(x: tuple[frozenset, int], y: tuple[frozenset, int]) -> tuple[frozenset, int]:
    """Product in the lamplighter group Z/2 wr Z of (lit lamps, position)
    pairs: y's lamps, shifted by x's position, toggle x's."""
    (f, p), (g, q) = x, y
    return f ^ frozenset(i + p for i in g), p + q


def lamp_box(n: int, alphabet: GenAlphabet) -> Automaton:
    """The box Y_n = {(f, p) : f a subset of {0..n}, 0 <= p <= n} of the
    lamplighter group, with t = (no lamps, 1) on the first symbol of the
    alphabet and s = ({0}, 0), its own inverse, on the second: s toggles the
    lamp at p."""
    t, s = (frozenset(), 1), (frozenset({0}), 0)
    elements = [(frozenset(compress(range(n + 1), bits)), p)
                for bits in product((0, 1), repeat=n + 1) for p in range(n + 1)]
    return induced(alphabet, lamp_multiply, elements, (t, s, (frozenset(), -1), s))
