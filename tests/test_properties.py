"""Property tests: group axioms of tree-pair arithmetic, reversibility of
the forest action, the inverse of a target column and the 12-digit
rendering of rationals.  Deterministic (derandomized) and bounded in size."""

from array import array
from fractions import Fraction
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cayley_ref import fraction_decimal_str, letter_inverse  # noqa: E402
from fcayley.cayley import decimal_str, inverse_column, make_alphabet  # noqa: E402
from fcayley.fgroup import (  # noqa: E402
    IDENTITY,
    X0,
    X1,
    generator_x,
    invert,
    multiply,
)
from fcayley.forests import bb_automaton  # noqa: E402
from forest_ref import parse_forest  # noqa: E402

BOUNDED = settings(derandomize=True, database=None, max_examples=100, deadline=None)

GENERATORS = [X0, X1, multiply(X1, invert(X0)), generator_x(2)]
GENERATORS += [invert(g) for g in GENERATORS]
LETTERS = [s + sfx for s in ("x0", "x1", "xb1", "x2") for sfx in ("", "^-1")]

words = st.lists(st.sampled_from(range(len(GENERATORS))), max_size=24)


def value(word):
    out = IDENTITY
    for i in word:
        out = multiply(out, GENERATORS[i])
    return out


@BOUNDED
@given(words, words, words)
def test_associativity(u, v, w):
    a, b, c = value(u), value(v), value(w)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@BOUNDED
@given(words)
def test_identity_and_inverse(u):
    a = value(u)
    assert multiply(a, IDENTITY) == a == multiply(IDENTITY, a)
    assert multiply(a, invert(a)).is_identity()
    assert multiply(invert(a), a).is_identity()
    assert invert(invert(a)) == a


@BOUNDED
@given(words, words)
def test_inverse_of_product(u, v):
    a, b = value(u), value(v)
    assert invert(multiply(a, b)) == multiply(invert(b), invert(a))


@lru_cache(maxsize=None)
def slots(n, k):
    return bb_automaton(n, k, make_alphabet("x0,x1,xb1,x2")).slots


@BOUNDED
@given(st.integers(1, 8), st.integers(0, 3), st.integers(0, 10**6),
       st.lists(st.sampled_from(LETTERS), min_size=1, max_size=12))
def test_forest_action_is_reversible(n, k, pick, word):
    rows = slots(n, k)
    path = [sorted(rows)[pick % len(rows)]]
    for a in word:
        g = rows[path[-1]][a]
        if g is None:
            continue
        assert parse_forest(g).leaves == n and parse_forest(g).max_height() <= k
        assert rows[g][letter_inverse(a)] == path[-1]
        path.append(g)


# columns of V targets in -1..V-1, two vertices often mapping to one
columns = st.integers(0, 12).flatmap(
    lambda size: st.lists(st.integers(-1, size - 1), min_size=size, max_size=size))


@BOUNDED
@given(columns)
def test_inverse_column_matches_the_dict_reference(col):
    inv = inverse_column(array("i", col))
    ref = {w: v for v, w in enumerate(col) if w >= 0}  # the later source wins
    assert len(inv) == len(col)
    assert list(inv) == [ref.get(w, -1) for w in range(len(col))]


signs = st.sampled_from((1, -1))
powers_of_ten = st.integers(-30, 30).map(lambda e: Fraction(10) ** e)
# numerators and denominators of 1 to 3,000 bits
wide = st.integers(1, 3000).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))
# 13 digits ending in 5: a tie at the 12th digit; 12 nines and a 5 carry into a new digit
ties = st.integers(10 ** 11, 10 ** 12 - 1).map(lambda head: Fraction(10 * head + 5, 10 ** 12))
carry = st.just(Fraction(10 ** 13 - 5, 10 ** 12))
small = st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
rationals = st.one_of(
    st.builds(lambda n, d, sign: sign * Fraction(n, d), wide, wide, signs),
    st.builds(lambda x, scale, sign: sign * x * scale, st.one_of(ties, carry, small),
              powers_of_ten, signs))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(rationals)
def test_decimal_str_matches_the_fraction_reference(x):
    assert decimal_str(x) == fraction_decimal_str(x)


def test_decimal_str_rounds_ties_up_and_carries():
    assert decimal_str(Fraction(10 ** 13 - 5, 10 ** 12)) == "10"
    assert decimal_str(Fraction(-(10 ** 13 - 5), 10 ** 17)) == "-0.0001"
    assert decimal_str(Fraction(-(10 ** 13 - 5), 10 ** 18)) == "-1e-5"
    assert decimal_str(Fraction(1234567890125, 10 ** 30)) == "1.23456789013e-18"
    assert decimal_str(Fraction(10 ** 15 - 1)) == "1e+15"
    assert decimal_str(Fraction(10 ** 14 + 1)) == "100000000000000"
