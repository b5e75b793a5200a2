import random
from functools import reduce

import pytest

import tree_pairs
from fcayley.fgroup import (
    IDENTITY,
    X0,
    X1,
    conjugate,
    element_from_key,
    generator_x,
    invert,
    multiply,
    power,
)
from fcayley.cayley import BASE_VALUES
from known_groups import automorphism, check_automorphism, presentation2_relators
from tree_pairs import LEAF, caret, parse_tree


def test_element_is_its_depth_pair():
    from fcayley.fgroup import product as pair_product

    assert IDENTITY == ((0,), (0,)) and hash(IDENTITY) == hash(((0,), (0,)))
    assert IDENTITY.key == ".|."
    for g in (X0, X1, multiply(X1, invert(X0)), power(X0, -3)):
        pair = pair_product(IDENTITY, g)
        assert type(pair) is tuple and pair == g and hash(pair) == hash(g)
        assert {pair: 1}[g] == 1 and g.key == element_from_key(g.key).key


def product(*elements):
    """Left-to-right product; the empty product is the identity."""
    return reduce(multiply, elements, IDENTITY)


def commutator(a, b):
    """[a, b] = a^-1 b^-1 a b."""
    return product(invert(a), invert(b), a, b)


def random_element(rng, length):
    gens = [X0, X1, invert(X0), invert(X1)]
    out = IDENTITY
    for _ in range(length):
        out = multiply(out, rng.choice(gens))
    return out


def test_identity_cases():
    assert multiply(IDENTITY, X1) == X1
    assert multiply(X1, IDENTITY) == X1
    assert multiply(X0, invert(X0)).is_identity()
    assert multiply(invert(X1), X1).is_identity()


def test_invert_involution_and_antihomomorphism():
    rng = random.Random(1)
    assert invert(IDENTITY) == IDENTITY
    assert invert(invert(X1)) == X1
    for _ in range(25):
        a = random_element(rng, rng.randint(0, 8))
        b = random_element(rng, rng.randint(0, 8))
        assert invert(multiply(a, b)) == multiply(invert(b), invert(a))


def test_associativity_randomized():
    rng = random.Random(2)
    for _ in range(40):
        a = random_element(rng, rng.randint(0, 10))
        b = random_element(rng, rng.randint(0, 10))
        c = random_element(rng, rng.randint(0, 10))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_defining_relations_full_range():
    for i in range(0, 7):
        for j in range(i + 1, 7):
            lhs = multiply(generator_x(j), generator_x(i))
            rhs = multiply(generator_x(i), generator_x(j + 1))
            assert lhs == rhs, (i, j)


def test_reduction_is_canonical():
    # products differing by a defining relation (x2 x1 = x1 x3) reach one
    # reduced pair through different intermediate pairs
    x = [generator_x(n) for n in range(4)]
    lhs = product(x[0], x[2], x[1], invert(x[0]))
    rhs = product(x[0], x[1], x[3], invert(x[0]))
    assert multiply(x[0], x[2]) != multiply(x[0], x[1])
    assert lhs.key == rhs.key


def test_unreduced_input_is_normalized():
    # the pair (caret, caret) is an unreduced identity
    assert element_from_key("(..)|(..)").is_identity()


def test_key_halves_need_equal_leaf_counts():
    with pytest.raises(ValueError):
        element_from_key("(..)|.")


def test_conjugation_formula_for_xn():
    assert product(invert(X0), X1, X0) == conjugate(X1, X0) == generator_x(2)
    # x_n = x0^-(n-1) x1 x0^(n-1)
    for n in range(2, 6):
        conj = multiply(multiply(invert(power(X0, n - 1)), X1), power(X0, n - 1))
        assert conj == generator_x(n)


def test_generator_index_is_nonnegative():
    with pytest.raises(ValueError, match="generator index must be nonnegative"):
        generator_x(-1)


def test_xbar1_value():
    assert BASE_VALUES["xb1"] == multiply(X1, invert(X0))
    assert not BASE_VALUES["xb1"].is_identity()


def test_presentation2_relators_trivial():
    assert all(r.is_identity() for r in presentation2_relators(X0, X1))


def test_presentation3_relators_trivial():
    # the symmetric presentation in alpha = x1^-1, beta = x0 x1^-1:
    # [alpha^beta, beta^alpha] and [alpha^beta, beta^(alpha^2)]
    alpha, beta = invert(X1), multiply(X0, invert(X1))
    a_b = conjugate(alpha, beta)
    assert commutator(a_b, conjugate(beta, alpha)).is_identity()
    assert commutator(a_b, conjugate(beta, power(alpha, 2))).is_identity()


def test_automorphism_report():
    report = check_automorphism()
    assert report["ok"]
    assert report["relators_preserved"]
    assert report["involutive_on_generators"]
    assert report["commutator_image_nontrivial"]


def test_automorphism_checks_are_not_vacuous():
    # the generators go to x0^-1 and xb1, so {x0, x1, xb1} is mapped onto itself
    assert automorphism(X0, X1) == (invert(X0), multiply(X1, invert(X0)))
    # one application does not fix the generators; only the second does
    assert automorphism(X0, X1) != (X0, X1)
    assert automorphism(*automorphism(X0, X1)) == (X0, X1)
    # the relators detect a pair that is no homomorphic image of (x0, x1)
    assert not all(r.is_identity() for r in presentation2_relators(X1, X0))


def test_commutator_image_nontrivial():
    assert not commutator(*automorphism(X0, X1)).is_identity()


def test_conjugation_identities_as_products():
    x2 = generator_x(2)
    xb1 = BASE_VALUES["xb1"]
    assert multiply(multiply(invert(X0), X1), X0) == x2
    assert multiply(multiply(X0, X1), invert(X0)) == multiply(X0, xb1)


def test_key_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        g = random_element(rng, rng.randint(0, 12))
        assert element_from_key(g.key) == g


def test_word_inverse():
    w = product(X0, invert(X1), X0)
    assert product(w, invert(X0), X1, invert(X0)).is_identity()
    assert invert(w) == product(invert(X0), X1, invert(X0))


# x0, x1, xb1, x2 and their inverses: the letters of every supported alphabet
GENERATORS = [X0, X1, multiply(X1, invert(X0)), generator_x(2)]
GENERATORS += [invert(g) for g in GENERATORS]


def tree_pair(g):
    """The reference (domain, range) trees of an element, parsed from its key."""
    return tuple(parse_tree(half) for half in g.key.split("|"))


def random_tree(rng, leaves):
    if leaves == 1:
        return LEAF
    left = rng.randint(1, leaves - 1)
    return caret(random_tree(rng, left), random_tree(rng, leaves - left))


def test_multiply_matches_tree_reference_on_words():
    rng = random.Random(11)
    for _ in range(300):
        g = IDENTITY
        ref = tree_pair(g)
        for _ in range(rng.randint(0, 60)):
            h = rng.choice(GENERATORS)
            g = multiply(g, h)
            ref = tree_pairs.multiply(ref, tree_pair(h))
            assert g.key == tree_pairs.key(ref)


def test_multiply_matches_tree_reference_on_unreduced_pairs():
    rng = random.Random(12)
    for _ in range(300):
        leaves = rng.randint(1, 14)
        d, r = random_tree(rng, leaves), random_tree(rng, leaves)
        if rng.random() < 0.5:  # graft equal subtrees to force common carets
            sub = random_tree(rng, rng.randint(1, 4))
            i = rng.randrange(leaves)
            subs = lambda: [sub if j == i else LEAF for j in range(leaves)]
            d, r = tree_pairs.graft(d, subs()), tree_pairs.graft(r, subs())
        a = element_from_key(tree_pairs.key((d, r)))
        assert a.key == tree_pairs.key(tree_pairs.reduce_pair(d, r))
        assert tree_pairs.key(tree_pair(a)) == a.key
        h = rng.choice(GENERATORS)
        for x, y in ((a, h), (h, a), (a, a)):
            ref = tree_pairs.multiply(tree_pair(x), tree_pair(y))
            assert multiply(x, y).key == tree_pairs.key(ref)
