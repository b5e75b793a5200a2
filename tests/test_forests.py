import itertools

import pytest

import forest_ref
from cayley_ref import accepts, induced_subgraph, letter_inverse, letter_symbol, letter_value
from fcayley import cayley, counting, fgroup, forests
from fcayley.cayley import (
    BudgetExceeded,
    GenAlphabet,
    SerreViolation,
    ball,
    boundary_report,
    make_alphabet,
)
from fcayley.forests import bb_automaton
from forest_ref import MarkedForest, enumerate_bb, find_y0, is_y0_member, parse_forest
from tree_pairs import LEAF, caret, enumerate_trees

ALL = make_alphabet("x0,x1,xb1,x2")


def forest(s):
    return parse_forest(s)


def step(letter, key, k):
    """Target key of one letter at a forest key, read off the BB automaton."""
    alphabet = GenAlphabet((letter_symbol(letter),))
    return bb_automaton(forest(key).leaves, k, alphabet).slots[key][letter]


def test_forest_key_roundtrip():
    f = forest("(..);.*;(..)")
    assert f.enc == "(..);.*;(..)"
    assert f.mark == 1
    assert f.leaves == 5


def test_forest_key_errors():
    with pytest.raises(ValueError):
        parse_forest("(..);.")  # no mark
    with pytest.raises(ValueError):
        parse_forest(".*;.*")  # two marks


def test_x0_moves_marker():
    assert step("x0", ".;.*", 0) == ".*;."
    assert step("x0^-1", ".;.*", 0) is None
    assert step("x0", ".*;.", 0) is None


def test_x1_splits_marked_caret():
    assert step("x1", "(.(..))*", 2) == ".*;(..)"
    assert step("xb1", "(.(..))*", 2) == ".;(..)*"


def test_x1_undefined_on_trivial_marked_tree():
    assert step("x1", ".*;.", 1) is None
    assert step("xb1", ".*;.", 1) is None


def test_merges_respect_height_cap():
    assert step("x1^-1", ".*;.", 1) == "(..)*"
    assert step("x1^-1", ".*;.", 0) is None  # merged tree would have height 1
    assert step("xb1^-1", "(..);.*", 1) is None  # left neighbour already at the cap
    assert step("xb1^-1", "(..);.*", 2) == "((..).)*"


def test_act_inverse_cancels():
    slots = bb_automaton(5, 2, ALL).slots
    for v, row in slots.items():
        for a, w in row.items():
            if w is not None:
                assert slots[w][letter_inverse(a)] == v, (v, a)


def test_act_preserves_leaves_and_cap():
    for row in bb_automaton(6, 2, ALL).slots.values():
        for w in filter(None, row.values()):
            assert forest(w).leaves == 6
            assert forest(w).max_height() <= 2


def test_xb1_equals_x1_then_marker_right():
    slots = bb_automaton(6, 2, ALL).slots
    for row in slots.values():
        composed = row["x1"] and slots[row["x1"]]["x0^-1"]
        assert row["xb1"] == composed


def test_x2_is_the_conjugated_composition():
    # accepted exactly when the tree right of the marker exists and is nontrivial
    for v, row in bb_automaton(6, 2, ALL).slots.items():
        f = forest(v)
        has_nontrivial_right = (
            f.mark + 1 < len(f.trees) and not f.trees[f.mark + 1].is_leaf()
        )
        assert (row["x2"] is not None) == has_nontrivial_right


def test_each_token_is_inverted_once(monkeypatch):
    calls, inverse = [], cayley.inverse_column
    monkeypatch.setattr(cayley, "inverse_column", lambda col: calls.append(col) or inverse(col))
    # the moves x0^-1 and x1^-1 are the inverse letters of x0 and x1; xb1 and
    # x2 have words of more than one step and are inverted once each; the
    # Serre check then inverts each of the m letter columns
    for spec in ("x0,x1,xb1", "x0,xb1,xb1,x2,x2"):
        calls.clear()
        aut = bb_automaton(8, 3, make_alphabet(spec))
        m = aut.alphabet.m
        assert len(calls) == 3 + m, spec
    for a, b in ((1, 2), (3, 4)):  # copies in x0,xb1,xb1,x2,x2 share columns, both ways
        assert aut.tgt[a::2 * m] == aut.tgt[b::2 * m]
        assert aut.tgt[a + m::2 * m] == aut.tgt[b + m::2 * m]


def test_a_token_added_to_the_words_acts_as_its_word(monkeypatch):
    from fcayley import cayley

    x3 = (("x0", -1), ("x0", -1), ("x1", 1), ("x0", 1), ("x0", 1))  # x0^-2 x1 x0^2
    monkeypatch.setitem(cayley.WORDS, "x3", x3)
    aut = bb_automaton(7, 3, GenAlphabet(("x0", "x1", "x3")))
    for v, row in aut.slots.items():
        for letter, word in (("x3", x3), ("x3^-1", [(g, -e) for g, e in reversed(x3)])):
            w = v
            for g, e in word:
                w = w and aut.slots[w][g if e > 0 else g + "^-1"]
            assert row[letter] == w, (v, letter)
    assert any(row["x3"] for row in aut.slots.values())


def test_enumerate_bb_small_counts():
    assert len(bb_automaton(2, 1, ALL)) == 3
    for n in range(1, 7):
        assert len(bb_automaton(n, 0, ALL)) == n


def test_enumerate_bb_matches_dp():
    for n, k in itertools.product(range(1, 9), range(0, 4)):
        assert len(bb_automaton(n, k, ALL)) == counting.bb_count(n, k), (n, k)
        assert len(enumerate_bb(n, k)) == counting.bb_count(n, k), (n, k)


def test_enumerate_budget_guard(monkeypatch):
    # |BB(8, 3)| = 1,688 forests, inside the default budget of 10^7
    assert len(bb_automaton(8, 3, ALL)) == counting.bb_count(8, 3)
    with pytest.raises(BudgetExceeded, match=r"^BB\(40,3\) has at least 8,444,322,344,553 "
                                             "forests, past the bound of 10,000,000 forests$"):
        bb_automaton(40, 3, ALL)
    monkeypatch.setattr(cayley, "DEFAULT_BUDGET", 10)
    # the doubling counts stop at m = 4, |BB(4,3)| = 28 the first past 10
    with pytest.raises(BudgetExceeded, match=r"^BB\(8,3\) has at least 28 forests, past the "
                                             "bound of 10 forests$"):
        bb_automaton(8, 3, ALL)


def test_one_budget_binds_ball_and_bb(monkeypatch):
    # ball and bb_automaton both read cayley.DEFAULT_BUDGET when called
    monkeypatch.setattr(cayley, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetExceeded, match="past the bound of 10 leaves$"):
        ball(2, make_alphabet("x0,x1"))
    with pytest.raises(BudgetExceeded, match="past the bound of 10 forests$"):
        bb_automaton(8, 3, make_alphabet("x0,x1"))


def test_budget_refused_before_the_table_grows_to_n(monkeypatch):
    grown, table = [], counting.table  # leaf counts the count tables are asked for
    monkeypatch.setattr(counting, "table", lambda k, n: grown.append(n) or table(k, n))
    # |BB(n, 0)| = n, so n > budget refuses without a count
    with pytest.raises(BudgetExceeded, match=r"^BB\(10000001,0\) has at least 10,000,001 "
                                             "forests, past the bound of 10,000,000 forests$"):
        bb_automaton(10_000_001, 0, ALL)
    assert grown == []
    # a count at a small m already exceeds the budget
    with pytest.raises(BudgetExceeded):
        bb_automaton(30000, 3, ALL)
    assert grown and max(grown) <= 64


def test_key_text_refused_before_the_tree_table(monkeypatch):
    class Built(Exception):
        pass

    def tree_table(k, n):
        raise Built

    monkeypatch.setattr(forests, "TreeTable", tree_table)
    # BB(60000, 0): 60,000 keys of 120,000 characters, inside the forest budget
    with pytest.raises(BudgetExceeded, match=r"^the keys of BB\(60000,0\) take up to 10,303 "
                                             "MiB, past the bound of 1,024 MiB$"):
        bb_automaton(60000, 0, make_alphabet("x0,x1"))
    # about 130 MB of keys each: admitted
    for n, k in ((15, 3), (14, 4)):
        with pytest.raises(Built):
            bb_automaton(n, k, make_alphabet("x0,x1,xb1"))
    # a lowered bound is read at call time
    monkeypatch.setattr(cayley, "MAX_MIB", 1)
    with pytest.raises(BudgetExceeded, match=r"^the keys of BB\(14,4\) take up to 125 MiB, "
                                             "past the bound of 1 MiB$"):
        bb_automaton(14, 4, make_alphabet("x0,x1,xb1"))


def test_budget_message_renders_any_count(monkeypatch):
    monkeypatch.setattr(counting, "bb_count", lambda n, k: 10 ** 5000)
    # 5,001 digits: past the 4,300 that str() and f"{x:,}" write
    with pytest.raises(BudgetExceeded, match=r"^BB\(5,2\) has at least 100(,000){1666} forests, "
                                             "past the bound of 10,000,000 forests$"):
        bb_automaton(5, 2, ALL)


def test_catalan_limit_when_cap_not_binding():
    # forests with n leaves, unbounded height: the nth Catalan number
    for n in range(1, 8):
        keys = bb_automaton(n, n - 1, ALL).keys
        distinct_forests = {v.replace("*", "") for v in keys}
        assert len(distinct_forests) == counting.catalan(n)
        assert len(keys) == sum(f.count(";") + 1 for f in distinct_forests)


def test_bb21_automaton_slots():
    aut = bb_automaton(2, 1, make_alphabet("x1,xb1"))
    caret_marked = "(..)*"
    assert accepts(aut, caret_marked, "x1")
    assert accepts(aut, caret_marked, "xb1")
    for dots in (".*;.", ".;.*"):
        assert not accepts(aut, dots, "x1")
        assert not accepts(aut, dots, "xb1")
    # merges where the height cap permits
    assert accepts(aut, ".*;.", "x1^-1")
    assert accepts(aut, ".;.*", "xb1^-1")


def test_bb_automaton_nu_x1_counts_trivial_marked():
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        aut = bb_automaton(n, k, make_alphabet("x0,x1"))
        rep = boundary_report(aut)
        trivial_marked = sum(
            1 for f in enumerate_bb(n, k) if f.trees[f.mark].is_leaf()
        )
        assert rep.nu["x1"] == trivial_marked


def test_bb_automaton_symmetric_property():
    for spec in ("x0,x1", "x1,xb1", "x0,x1,xb1", "x0,x1,x2"):
        aut = bb_automaton(5, 2, make_alphabet(spec))
        rep = boundary_report(aut)
        for s in aut.alphabet.symbols:
            assert rep.nu[s] == rep.nu[s + "^-1"], (spec, s)


def test_find_y0_example():
    y0 = find_y0(5, 1)
    assert [f.enc for f in y0] == ["(..);.*;(..)"]
    assert find_y0(3, 0) == []


def test_y0_members_are_isolated():
    for n, k in [(5, 1), (6, 1), (7, 2)]:
        y0 = {f.enc for f in find_y0(n, k)}
        if not y0:
            continue
        aut2 = bb_automaton(n, k, make_alphabet("x1,xb1"))
        aut3 = bb_automaton(n, k, make_alphabet("x0,x1,xb1"))
        for key in y0:
            assert all(t is None for t in aut2.slots[key].values())
            accepted = [a for a, t in aut3.slots[key].items() if t is not None]
            assert sorted(accepted) == ["x0", "x0^-1"]


def test_y0_subset_of_bb():
    members = set(bb_automaton(6, 2, ALL).keys)
    for f in find_y0(6, 2):
        assert f.enc in members
        assert is_y0_member(f, 2)


def test_marked_forest_validation():
    with pytest.raises(ValueError):
        MarkedForest((), 0)
    with pytest.raises(ValueError):
        MarkedForest((LEAF,), 1)
    f = MarkedForest((caret(LEAF, LEAF), LEAF), 0)
    assert f.enc == "(..)*;."


def test_act_rejects_unknown_letter():
    with pytest.raises(ValueError):
        bb_automaton(1, 1, GenAlphabet(("x9",)))


@pytest.mark.parametrize("spec", ["x0,x1,xb1,x2", "x1,xb1,x0,x0", "x2,x0"])
def test_integer_core_matches_reference_action(spec):
    al = make_alphabet(spec)
    for n, k in itertools.product(range(1, 9), range(0, 4)):
        aut = bb_automaton(n, k, al)
        ref = forest_ref.bb_rows(n, k, al.letters)
        assert sorted(aut.keys) == sorted(ref), (n, k)
        assert dict(aut.slots) == ref, (n, k)
        assert [f.enc for f in enumerate_bb(n, k)] == list(ref)


@pytest.mark.parametrize("spec", ["x0,x1,xb1,x2", "x1,xb1,x0,x0"])
def test_bb_10_4_matches_reference_action(spec):
    # inverse letters are inverted columns; the reference merges directly
    al = make_alphabet(spec)
    assert dict(bb_automaton(10, 4, al).slots) == forest_ref.bb_rows(10, 4, al.letters)


@pytest.mark.parametrize("spec", ["x0,x1", "x0,x1,xb1,x2", "x1,xb1,x0,x0"])
def test_bb_is_induced_by_its_group_values(spec):
    # label vertex 0 with the identity and each w reached by v -a-> w with
    # g(v)*a: every edge agrees with the labels, no two vertices share one, and
    # BB(8, 3) is the subgraph of the Cayley graph of F induced on them
    al = make_alphabet(spec)
    aut = bb_automaton(8, 3, al)
    d = len(al.letters)
    values = [letter_value(al, a) for a in al.letters]
    labels = [fgroup.IDENTITY] + [None] * (len(aut) - 1)
    queue = [0]
    for v in queue:  # breadth first: the loop reads what it appends
        for j, w in enumerate(aut.tgt[v * d:v * d + d]):
            if w < 0:
                continue
            g = fgroup.multiply(labels[v], values[j])
            if labels[w] is None:
                labels[w] = g
                queue.append(w)
            assert labels[w] == g, (aut.keys[v], al.letters[j])
    assert None not in labels and len(set(labels)) == len(labels)
    assert induced_subgraph([g.key for g in labels], al).tgt == aut.tgt


def test_action_leaving_bb_is_an_error(monkeypatch):
    # a split that doubles the forest cannot land on a vertex of BB(n, k)
    monkeypatch.setattr(forests, "_split", lambda tt, s, i: (s + s, i))
    with pytest.raises(AssertionError, match="x1 left BB"):
        bb_automaton(4, 2, make_alphabet("x0,x1"))


def test_wrong_target_breaks_the_serre_pairing(monkeypatch):
    # x1 splitting the first tree wherever the marker is sends several forests
    # to one, so no inverse column pairs with it
    split = forests._split
    monkeypatch.setattr(forests, "_split", lambda tt, s, i: split(tt, s, 0))
    with pytest.raises(SerreViolation):
        bb_automaton(4, 2, make_alphabet("x0,x1"))


def test_enumeration_is_checked_against_the_dp_count(monkeypatch):
    count = counting.bb_count
    monkeypatch.setattr(counting, "bb_count", lambda n, k: count(n, k) + 1)
    with pytest.raises(AssertionError, match="enumerated 24 forests, DP counts 25"):
        bb_automaton(4, 2, make_alphabet("x0,x1"))


def test_shapes_keep_only_the_totals_they_read():
    import tracemalloc

    def every_total(tt, n):  # every total's shapes kept to the end
        out = [[()]]
        for total in range(1, n + 1):
            out.append([(t,) + rest for size in range(1, total + 1)
                        for t in tt.by_size[size] for rest in out[total - size]])
        return out[n]

    for k, n in itertools.product(range(0, 4), range(1, 10)):
        tt = forests.TreeTable(k, n)
        assert tt.shapes(n) == every_total(tt, n), (k, n)
    tt = forests.TreeTable(0, 3000)
    tracemalloc.start()
    try:
        shapes = tt.shapes(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes == [(0,) * 3000]
    assert peak < 1 << 20, peak  # every total kept: about 35 MiB


def test_tree_table_matches_reference_trees():
    for k, n in itertools.product(range(0, 6), range(1, 11)):
        tt = forests.TreeTable(k, n)
        height = {}
        for size in range(1, n + 1):
            ref = enumerate_trees(size, k)
            assert [tt.enc[t] for t in tt.by_size[size]] == [r.enc for r in ref], (k, n)
            height.update((r.enc, r.height) for r in ref)
        leaves = {t: size for size, trees in enumerate(tt.by_size) for t in trees}
        assert sorted(leaves) == list(range(len(tt.enc))), (k, n)
        assert all(tt.enc[t].count(".") == size for t, size in leaves.items()), (k, n)
        low = [t for t, e in enumerate(tt.enc) if height[e] < k]
        carets = []
        for t, pair in enumerate(tt.split):
            if pair is not None:
                assert tt.enc[t] == "(" + tt.enc[pair[0]] + tt.enc[pair[1]] + ")"
                carets.append(pair)
        assert sorted(carets) == sorted((a, b) for a in low for b in low
                                        if leaves[a] + leaves[b] <= n), (k, n)
