"""Exact arithmetic in Thompson's group F via reduced tree-pair diagrams.

An element is a pair (domain_tree, range_tree) with equal leaf counts, reduced
so that no pair of adjacent leaves is a sibling pair in both trees at once.
Reading an element as the dyadic PL map that carries the range-tree
subdivision onto the domain-tree subdivision, the product a*b applies a
first and b second.  Words therefore multiply left to right, matching right
Cayley graphs (edge labelled a goes from g to g*a); under this convention
the defining relations x_j x_i = x_i x_{j+1} (i < j) hold for the base
pairs below, which the test suite pins down.

Base generators (pinned by the relation tests in the suite):

    x0 = (.(..))     -> ((..).)
    x1 = (.(.(..)))  -> (.((..).))

and x_n = x0^-(n-1) * x1 * x0^(n-1) for n >= 2, xbar1 = x1 * x0^-1.
"""

from __future__ import annotations

from .trees import (
    LEAF,
    Tree,
    align,
    collapse_sibling,
    graft,
    merge,
    parse_tree,
    sibling_leaf_pairs,
)

# A group word is a sequence of (symbol, sign) letters, sign in {+1, -1}.
Letter = tuple[str, int]
Word = tuple[Letter, ...]


class FElement:
    """Reduced tree-pair representative of an element of Thompson's group F."""

    __slots__ = ("domain", "range", "key")

    def __init__(self, domain: Tree, range_: Tree):
        if domain.leaves != range_.leaves:
            raise ValueError("domain and range trees must have equal leaf counts")
        while True:
            common = sibling_leaf_pairs(domain) & sibling_leaf_pairs(range_)
            if not common:
                break
            i = min(common)
            domain = collapse_sibling(domain, i)
            range_ = collapse_sibling(range_, i)
        self.domain = domain
        self.range = range_
        self.key = domain.enc + "|" + range_.enc

    def is_identity(self) -> bool:
        # equal leaf counts: a one-leaf domain forces a one-leaf range
        return self.domain.is_leaf()

    def __eq__(self, other):
        return isinstance(other, FElement) and self.key == other.key

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FElement({self.key!r})"

    def __mul__(self, other: "FElement") -> "FElement":
        return multiply(self, other)

    def __invert__(self) -> "FElement":
        return invert(self)


IDENTITY = FElement(LEAF, LEAF)


def element_from_key(key: str) -> FElement:
    """Decode a "domain|range" pair key back into a (reduced) element."""
    parts = key.split("|")
    if len(parts) != 2:
        raise ValueError(f"bad element key: {key!r}")
    return FElement(parse_tree(parts[0]), parse_tree(parts[1]))


def multiply(a: FElement, b: FElement) -> FElement:
    """Product a*b, i.e. apply a first, then b.

    a maps its range pattern to its domain pattern; the common refinement of
    a.domain and b.range is the middle pattern of the composite.
    """
    mid = merge(b.range, a.domain)
    dom = graft(b.domain, align(b.range, mid))
    rng = graft(a.range, align(a.domain, mid))
    return FElement(dom, rng)


def invert(a: FElement) -> FElement:
    return FElement(a.range, a.domain)


def power(a: FElement, n: int) -> FElement:
    if n < 0:
        return power(invert(a), -n)
    out = IDENTITY
    for _ in range(n):
        out = multiply(out, a)
    return out


X0 = FElement(parse_tree("(.(..))"), parse_tree("((..).)"))
X1 = FElement(parse_tree("(.(.(..)))"), parse_tree("(.((..).))"))


def generator_x(n: int) -> FElement:
    """The generator x_n: base pairs for n = 0, 1, conjugates for n >= 2."""
    if n < 0:
        raise ValueError("generator index must be nonnegative")
    if n == 0:
        return X0
    if n == 1:
        return X1
    xp = power(X0, n - 1)
    return multiply(multiply(invert(xp), X1), xp)


def generator_xbar1() -> FElement:
    """xbar1 = x1 * x0^-1, the mirror partner of x1."""
    return multiply(X1, invert(X0))


# ---------------------------------------------------------------------------
# Group words


def word_inverse(w: Word) -> Word:
    return tuple((sym, -sign) for sym, sign in reversed(w))


def word_conjugate(w: Word, by: Word) -> Word:
    """w^by = by^-1 * w * by."""
    return word_inverse(by) + w + by


def word_commutator(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 * b^-1 * a * b."""
    return word_inverse(a) + word_inverse(b) + a + b


def evaluate_word(w: Word, assignment: dict[str, FElement]) -> FElement:
    """Left-to-right product of the assigned values; the empty word is the identity."""
    out = IDENTITY
    for sym, sign in w:
        if sym not in assignment:
            raise ValueError(f"no value assigned to symbol {sym!r}")
        val = assignment[sym]
        out = multiply(out, val if sign == 1 else invert(val))
    return out


STANDARD_ASSIGNMENT = {"x0": X0, "x1": X1}


def evaluate(w: Word) -> FElement:
    return evaluate_word(w, STANDARD_ASSIGNMENT)


# ---------------------------------------------------------------------------
# Presentations and the order-2 automorphism

W_X0: Word = (("x0", 1),)
W_X1: Word = (("x1", 1),)


def presentation2_relators() -> list[Word]:
    """Relators of the two-generator presentation: x1^(x0^2) = x1^(x0 x1)
    and x1^(x0^3) = x1^(x0^2 x1), as words that must evaluate to the identity."""
    out = []
    for k in (2, 3):
        xp = W_X0 * k
        lhs = word_conjugate(W_X1, xp)
        rhs = word_conjugate(W_X1, xp[: k - 1] + W_X1)
        out.append(lhs + word_inverse(rhs))
    return out


def presentation3_relators() -> list[Word]:
    """Relators of the symmetric presentation in alpha = x1^-1, beta = x0 x1^-1:
    [alpha^beta, beta^alpha] and [alpha^beta, beta^(alpha^2)]."""
    alpha: Word = (("x1", -1),)
    beta: Word = (("x0", 1), ("x1", -1))
    a_b = word_conjugate(alpha, beta)
    b_a = word_conjugate(beta, alpha)
    b_a2 = word_conjugate(beta, alpha * 2)
    return [word_commutator(a_b, b_a), word_commutator(a_b, b_a2)]


AUTO_IMAGES: dict[Letter, Word] = {
    ("x0", 1): (("x0", -1),),
    ("x0", -1): (("x0", 1),),
    ("x1", 1): (("x1", 1), ("x0", -1)),
    ("x1", -1): (("x0", 1), ("x1", -1)),
}


def apply_auto(w: Word) -> Word:
    """Letter substitution x0 -> x0^-1, x1 -> x1*x0^-1 (inverses to inverse images)."""
    out: list[Letter] = []
    for letter in w:
        if letter not in AUTO_IMAGES:
            raise ValueError(f"letter {letter!r} is not over {{x0, x1}}")
        out.extend(AUTO_IMAGES[letter])
    return tuple(out)


def check_automorphism() -> dict[str, bool]:
    """Verify the substitution is an order-2 automorphism of F.

    Checks: both relators of the two-generator presentation map to the
    identity, the square of the substitution fixes x0 and x1, and the image
    of the commutator [x0, x1] is nontrivial (so the endomorphism is not
    a collapse onto an abelian quotient).
    """
    relators_ok = all(
        evaluate(apply_auto(r)).is_identity() for r in presentation2_relators()
    )
    involutive = all(
        evaluate(apply_auto(apply_auto(w))) == evaluate(w) for w in (W_X0, W_X1)
    )
    comm_image = evaluate(apply_auto(word_commutator(W_X0, W_X1)))
    report = {
        "relators_preserved": relators_ok,
        "involutive_on_generators": involutive,
        "commutator_image_nontrivial": not comm_image.is_identity(),
    }
    report["ok"] = all(report.values())
    return report
