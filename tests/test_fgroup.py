import random

import pytest

import tree_pairs
from fcayley import fgroup
from fcayley.fgroup import (
    IDENTITY,
    X0,
    X1,
    apply_auto,
    check_automorphism,
    element_from_key,
    evaluate,
    evaluate_word,
    generator_x,
    generator_xbar1,
    invert,
    multiply,
    power,
    presentation2_relators,
    presentation3_relators,
    word_commutator,
    word_inverse,
)
from tree_pairs import LEAF, caret, parse_tree


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
    # two words differing by a defining relation give identical reduced pairs
    w1 = ((("x2", 1), ("x1", 1)), (("x1", 1), ("x3", 1)))
    assignment = {f"x{n}": generator_x(n) for n in range(5)}
    lhs = evaluate_word(w1[0], assignment)
    rhs = evaluate_word(w1[1], assignment)
    assert lhs.key == rhs.key


def test_unreduced_input_is_normalized():
    # the pair (caret, caret) is an unreduced identity
    assert element_from_key("(..)|(..)").is_identity()


def test_key_halves_need_equal_leaf_counts():
    with pytest.raises(ValueError):
        element_from_key("(..)|.")


def test_conjugation_formula_for_xn():
    w = (("x0", -1), ("x1", 1), ("x0", 1))
    assert evaluate(w) == generator_x(2)
    # x_n = x0^-(n-1) x1 x0^(n-1)
    for n in range(2, 6):
        conj = multiply(multiply(invert(power(X0, n - 1)), X1), power(X0, n - 1))
        assert conj == generator_x(n)


def test_xbar1_value():
    assert generator_xbar1() == multiply(X1, invert(X0))
    assert not generator_xbar1().is_identity()


def test_evaluate_word_empty_and_missing():
    assert evaluate_word((), {}) == IDENTITY
    with pytest.raises(ValueError):
        evaluate_word((("y", 1),), {"x0": X0})


def test_presentation2_relators_trivial():
    for r in presentation2_relators():
        assert evaluate(r).is_identity()


def test_presentation3_relators_trivial():
    for r in presentation3_relators():
        assert evaluate(r).is_identity()


def test_automorphism_report():
    report = check_automorphism()
    assert report["ok"]
    assert report["relators_preserved"]
    assert report["involutive_on_generators"]
    assert report["commutator_image_nontrivial"]


def test_automorphism_letter_images():
    assert apply_auto((("x0", 1),)) == (("x0", -1),)
    assert apply_auto((("x1", 1),)) == (("x1", 1), ("x0", -1))
    # double application fixes the generators as group elements
    for w in ((("x0", 1),), (("x1", 1),)):
        assert evaluate(apply_auto(apply_auto(w))) == evaluate(w)
    with pytest.raises(ValueError):
        apply_auto((("x2", 1),))


def test_commutator_image_nontrivial():
    img = evaluate(apply_auto(word_commutator((("x0", 1),), (("x1", 1),))))
    assert not img.is_identity()


def test_conjugation_identities_as_products():
    x2 = generator_x(2)
    xb1 = generator_xbar1()
    assert multiply(multiply(invert(X0), X1), X0) == x2
    assert multiply(multiply(X0, X1), invert(X0)) == multiply(X0, xb1)


def test_key_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        g = random_element(rng, rng.randint(0, 12))
        assert element_from_key(g.key) == g


def test_word_inverse():
    w = (("x0", 1), ("x1", -1), ("x0", 1))
    assert evaluate(w + word_inverse(w)).is_identity()


# x0, x1, xb1, x2 and their inverses: the letters of every supported alphabet
GENERATORS = [X0, X1, generator_xbar1(), generator_x(2)]
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
