import pytest

from fcayley.fgroup import _enc, _parse, element_from_key
from tree_pairs import (
    LEAF,
    align,
    caret,
    collapse_sibling,
    enumerate_trees,
    graft,
    merge,
    parse_tree,
    sibling_leaf_pairs,
)


def test_leaf_basics():
    assert LEAF.leaves == 1
    assert LEAF.height == 0
    assert LEAF.enc == "."


def test_caret_counts():
    t = caret(caret(LEAF, LEAF), LEAF)
    assert t.leaves == 3
    assert t.height == 2
    assert t.enc == "((..).)"


@pytest.mark.parametrize("enc", [".", "(..)", "((..).)", "(.(..))", "((..)(.(..)))"])
def test_parse_roundtrip(enc):
    assert parse_tree(enc).enc == enc


GARBAGE = ["", "(", "(.)", "(...)", "(..))", "..", "x"]


@pytest.mark.parametrize("bad", GARBAGE)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_tree(bad)


@pytest.mark.parametrize("half", ["domain", "range"])
@pytest.mark.parametrize("bad", GARBAGE + [".)."])
def test_key_parser_rejects_garbage(bad, half):
    key = bad + "|." if half == "domain" else ".|" + bad
    with pytest.raises(ValueError):
        element_from_key(key)


def _reference_depths(t, d=0):
    if t.is_leaf():
        return [d]
    return _reference_depths(t.left, d + 1) + _reference_depths(t.right, d + 1)


def test_key_parser_inverts_the_encoder():
    for n in range(1, 9):
        for t in enumerate_trees(n, n):
            assert _parse(t.enc) == tuple(_reference_depths(t))
            assert _enc(_parse(t.enc)) == t.enc


def test_deep_keys_parse_without_recursion():
    deep = "(." * 1200 + "." + ")" * 1200
    assert _parse(deep) == tuple(range(1, 1201)) + (1200,)
    assert element_from_key(deep + "|" + deep).is_identity()


def test_sibling_pairs():
    # leaves 0,1 siblings in "((..).)"; leaves 1,2 siblings in "(.(..))"
    assert sibling_leaf_pairs(parse_tree("((..).)")) == {0}
    assert sibling_leaf_pairs(parse_tree("(.(..))")) == {1}
    assert sibling_leaf_pairs(parse_tree("((..)(..))")) == {0, 2}


def test_collapse_sibling():
    assert collapse_sibling(parse_tree("((..).)"), 0).enc == "(..)"
    assert collapse_sibling(parse_tree("((..)(..))"), 2).enc == "((..).)"
    with pytest.raises(ValueError):
        collapse_sibling(parse_tree("((..).)"), 1)


def test_merge_and_align():
    a = parse_tree("(.(..))")
    b = parse_tree("((..).)")
    e = merge(a, b)
    assert e.enc == "((..)(..))"
    subs = align(a, e)
    assert [s.enc for s in subs] == ["(..)", ".", "."]
    assert graft(a, subs).enc == e.enc


def test_align_requires_extension():
    with pytest.raises(ValueError):
        align(parse_tree("((..).)"), parse_tree("(.(..))"))


def test_enumerate_trees_counts():
    # both 3-leaf shapes have height 2; the only 4-leaf shape of height 2 is complete
    assert len(enumerate_trees(3, 2)) == 2
    assert [t.enc for t in enumerate_trees(4, 2)] == ["((..)(..))"]
    assert enumerate_trees(5, 2) == ()
    # unbounded height: Catalan numbers 1, 1, 2, 5, 14
    for n, c in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14)]:
        assert len(enumerate_trees(n, n)) == c


def test_enumerate_trees_heights_respected():
    for t in enumerate_trees(6, 3):
        assert t.leaves == 6
        assert t.height <= 3
