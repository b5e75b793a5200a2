"""Property tests: group axioms of tree-pair arithmetic and reversibility of
the forest action.  Deterministic (derandomized) and bounded in size."""

from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cayley_ref import letter_inverse  # noqa: E402
from fcayley.cayley import make_alphabet  # noqa: E402
from fcayley.fgroup import (  # noqa: E402
    IDENTITY,
    X0,
    X1,
    generator_x,
    generator_xbar1,
    invert,
    multiply,
)
from fcayley.forests import bb_automaton  # noqa: E402
from forest_ref import parse_forest  # noqa: E402

BOUNDED = settings(derandomize=True, database=None, max_examples=100, deadline=None)

GENERATORS = [X0, X1, generator_xbar1(), generator_x(2)]
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
