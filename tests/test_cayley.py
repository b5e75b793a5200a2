import io
import itertools
import json
import random
import re
import time
from array import array

import pytest

from fcayley import cayley, fgroup
from fcayley.cayley import (
    Automaton,
    AutomatonFormatError,
    BudgetExceeded,
    GenAlphabet,
    SerreViolation,
    automaton_from_obj,
    ball,
    boundary_report,
    decimal_str,
    load_automaton,
    make_alphabet,
    save_automaton,
)
from fractions import Fraction

import tree_pairs
from cayley_ref import (
    automaton_from_rows,
    automaton_to_obj,
    geometric_edges,
    induced_subgraph,
    letter_inverse,
    letter_value,
    restrict,
)
from fcayley.evac import blocked_chain_automaton
from fcayley.forests import bb_automaton
from known_groups import free_ball, lamp_box, z2_ball


def test_letter_inverse():
    assert letter_inverse("x0") == "x0^-1"
    assert letter_inverse("x0^-1") == "x0"


def test_make_alphabet_multiset():
    al = make_alphabet("x1,xb1,x0,x0")
    assert al.symbols == ("x1", "xb1", "x0", "x0@2")
    assert al.m == 4
    assert al.tokens == ("x1", "xb1", "x0", "x0")
    assert al.letters == ("x1", "xb1", "x0", "x0@2",
                          "x1^-1", "xb1^-1", "x0^-1", "x0@2^-1")
    assert letter_value(al, "x0") == letter_value(al, "x0@2") == fgroup.X0
    assert letter_value(al, "x0@2^-1") == fgroup.invert(fgroup.X0)
    assert al.spec() == "x1,xb1,x0,x0"
    # a file alphabet names its copies the same way
    al = GenAlphabet(("a", "a@2"))
    assert (al.tokens, al.letters) == (("a", "a"), ("a", "a@2", "a^-1", "a@2^-1"))
    assert al.spec() == "a,a"


def test_make_alphabet_rejects_unknown():
    with pytest.raises(ValueError):
        make_alphabet("x0,zz")


def test_base_values_are_the_products_of_their_words():
    assert list(cayley.BASE_VALUES) == list(cayley.WORDS) == ["x0", "x1", "xb1", "x2"]
    assert cayley.BASE_VALUES["x0"] == fgroup.X0 and cayley.BASE_VALUES["x1"] == fgroup.X1
    assert cayley.BASE_VALUES["xb1"].key == "((..)(..))|(.((..).))"
    assert cayley.BASE_VALUES["x2"].key == "(.(.(.(..))))|(.(.((..).)))"


def test_abstract_alphabets_have_no_values():
    al = GenAlphabet(("a",))
    assert al.values is None and GenAlphabet(("a",), {}).values is None
    with pytest.raises(ValueError, match="ball construction needs an alphabet with group values"):
        ball(1, al)


def test_ball_zero_is_singleton():
    aut = ball(0, make_alphabet("x0,x1"))
    assert len(aut) == 1
    rep = boundary_report(aut)
    assert rep.density == 0
    assert rep.iota == 4
    assert rep.cheeger == 4


def test_ball_one_standard():
    aut = ball(1, make_alphabet("x0,x1"))
    assert len(aut) == 5
    rep = boundary_report(aut)
    assert rep.density + rep.iota == 4
    assert rep.inner_boundary == 4
    assert rep.cheeger == 12
    assert rep.density == Fraction(8, 5)


def test_ball_one_multiset():
    aut = ball(1, make_alphabet("x1,xb1,x0,x0"))
    assert len(aut) == 7


def ball_leaves(aut) -> int:
    """Leaves of every element the ball found, vertices and outer ones."""
    return sum(len(fgroup.element_from_key(key).dd) for key in (*aut.keys, *aut.outer))


@pytest.mark.parametrize("r,spec", [(12, "x0"), (3, "x0,x1"), (2, "x1,xb1,x0,x0")])
def test_ball_budget_charges_each_element_its_leaves(monkeypatch, r, spec):
    al = make_alphabet(spec)
    size = len(ball(r, al))
    total = ball_leaves(ball(r, al))
    monkeypatch.setattr(cayley, "DEFAULT_BUDGET", total)
    assert len(ball(r, al)) == size
    monkeypatch.setattr(cayley, "DEFAULT_BUDGET", total - 1)
    # refused at the last element found, which brings the leaves to the total
    with pytest.raises(BudgetExceeded, match=f"^the ball of radius {r} has at least {total:,} "
                                             f"leaves, past the bound of {total - 1:,} leaves$"):
        ball(r, al)


def test_ball_budget_refuses_a_radius_past_it_at_once(monkeypatch):
    # over {x0} the ball is a path, so a radius of 10^8 would grow for hours
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="^the ball of radius 100000000 has at least "
                                             "200,000,001 leaves, past the bound of 10,000,000 "
                                             "leaves$"):
        ball(10 ** 8, make_alphabet("x0"))
    assert time.perf_counter() - start < 1.0
    # powers of the identity are not distinct: its ball is one leaf at every radius
    monkeypatch.setattr(cayley, "DEFAULT_BUDGET", 10)
    assert len(ball(20, GenAlphabet(["e"], {"e": fgroup.IDENTITY}))) == 1


@pytest.mark.parametrize("amount", [0, 7, 999, 1000, 123456, 10 ** 9, 2 ** 64 - 1])
def test_refusal_groups_digits_as_the_format_spec_does(amount):
    assert str(cayley.refusal("a request takes", amount, "units", 10 ** 6)) == (
        f"a request takes {amount:,} units, past the bound of 1,000,000 units")


def test_ball_seven_fits_the_default_budget():
    aut = ball(7, make_alphabet("x0,x1"))
    assert (len(aut), len(aut.outer)) == (3957, 7280)
    assert ball_leaves(aut) < 100_000


def test_ball_nesting_and_inversion_symmetry():
    al = make_alphabet("x0,x1")
    b1 = ball(1, al)
    b2 = ball(2, al)
    assert set(b1.keys) <= set(b2.keys)
    # symmetric generating set: the ball is closed under inversion
    for key in b2.keys:
        assert fgroup.invert(fgroup.element_from_key(key)).key in b2.keys


def test_symmetric_property_on_balls():
    for spec in ("x0,x1", "x1,xb1", "x0,x1,xb1"):
        aut = ball(2, make_alphabet(spec))
        rep = boundary_report(aut)
        for s in aut.alphabet.symbols:
            assert rep.nu[s] == rep.nu[s + "^-1"], (spec, s)


def test_outer_boundary_inequalities():
    aut = ball(2, make_alphabet("x0,x1"))
    rep = boundary_report(aut)
    m = aut.alphabet.m
    assert rep.inner_boundary <= rep.cheeger <= 2 * m * rep.inner_boundary
    assert rep.outer_boundary is not None
    assert rep.outer_boundary <= rep.cheeger <= 2 * m * rep.outer_boundary


def test_induced_subgraph_idempotent_on_ball():
    al = make_alphabet("x0,x1")
    b1 = ball(1, al)
    again = induced_subgraph(b1.keys, al)
    assert again.keys == b1.keys
    assert again.slots == b1.slots
    assert again.outer == b1.outer


def test_induced_subgraph_single_edge():
    al = make_alphabet("x0,x1")
    aut = induced_subgraph([fgroup.IDENTITY.key, fgroup.X0.key], al)
    assert len(geometric_edges(aut)) == 1
    assert len(aut.directed_edges()) == 2


def test_induced_subgraph_singleton():
    al = make_alphabet("x0,x1")
    aut = induced_subgraph([fgroup.IDENTITY.key], al)
    assert all(t is None for t in aut.slots[fgroup.IDENTITY.key].values())


def test_induced_subgraph_rejects_bad_key():
    with pytest.raises(ValueError):
        induced_subgraph(["not a key"], make_alphabet("x0,x1"))


def test_save_load_roundtrip(tmp_path):
    aut = ball(1, make_alphabet("x0,x1"))
    path = tmp_path / "ball1.json"
    save_automaton(aut, path)
    again = load_automaton(path)
    assert again.keys == tuple(sorted(aut.keys))  # files list vertices in key order
    assert again.slots == aut.slots
    assert again.alphabet.symbols == aut.alphabet.symbols
    assert again.outer == aut.outer


def test_three_vertex_path_automaton():
    al = GenAlphabet(("a",))
    obj = {
        "alphabet": ["a"],
        "values": None,
        "vertices": ["p", "q", "r"],
        "edges": [["p", "a", "q"], ["q", "a", "r"]],
    }
    aut = automaton_from_obj(obj)
    assert len(geometric_edges(aut)) == 2
    rep = boundary_report(aut)
    assert rep.inner_boundary == 2  # p misses a^-1, r misses a
    assert rep.nu["a"] == 1 and rep.nu["a^-1"] == 1


def test_duplicate_slot_rejected():
    base = {"alphabet": ["a"], "values": None, "vertices": ["p", "q", "r"]}
    # a listed slot and the Serre partner of a listed edge, each claimed twice
    for edges, message in (
            ([["p", "a", "q"], ["p", "a", "r"]],
             "duplicate slot ('p', 'a') targets both 'q' and 'r'"),
            ([["p", "a", "r"], ["q", "a", "r"]],
             "duplicate slot ('r', 'a^-1') targets both 'p' and 'q'")):
        with pytest.raises(AutomatonFormatError) as exc:
            automaton_from_obj({**base, "edges": edges})
        assert str(exc.value) == message, edges


def test_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(AutomatonFormatError):
        load_automaton(path)


def test_restrict_consistency():
    aut = ball(1, make_alphabet("x0,x1"))
    sub = restrict(aut, [fgroup.IDENTITY.key, fgroup.X0.key])
    assert len(sub) == 2
    assert len(geometric_edges(sub)) == 1
    assert sub.outer is None


def reference_restrict(aut, keep):
    """restrict() as dict rows read from `slots`."""
    rows = {v: {a: (w if w in keep else None) for a, w in aut.slots[v].items()} for v in keep}
    return automaton_from_rows(aut.alphabet, rows)


@pytest.mark.parametrize("build", [lambda: ball(3, make_alphabet("x1,xb1,x0,x0")),
                                   lambda: bb_automaton(6, 2, make_alphabet("x0,x1,xb1"))],
                         ids=["ball", "bb"])
def test_restrict_matches_dict_rows(build):
    aut = build()
    rng = random.Random(5)
    for frac in (0.05, 0.3, 0.7, 1.0):
        keep = set(rng.sample(aut.keys, max(1, int(frac * len(aut)))))
        sub = restrict(aut, iter(sorted(keep)))  # any iterable, read once
        ref = reference_restrict(aut, keep)
        assert (sorted(sub.keys), sub.outer) == (sorted(ref.keys), None)
        assert sub.slots == ref.slots
    with pytest.raises(ValueError, match="not in automaton"):
        restrict(aut, [aut.keys[0], "nope"])


def test_exact_str_renders_signed_values():
    for x in (0, 7, -7, Fraction(-1, 3), Fraction(5), Fraction(-10 ** 500, 3)):
        assert cayley.exact_str(x) == str(x), x
    big = 10 ** 5000 + 1  # past the str() digit limit
    for x in (big, Fraction(big, 3), Fraction(7, big)):
        assert cayley.exact_str(-x) == "-" + cayley.exact_str(x)


def test_decimal_str():
    assert decimal_str(Fraction(1, 2)) == "0.5"
    assert decimal_str(Fraction(0)) == "0"
    assert decimal_str(Fraction(7, 2)) == "3.5"
    assert decimal_str(Fraction(1, 3)) == "0.333333333333"
    assert decimal_str(Fraction(1688)) == "1688"
    assert decimal_str(Fraction(-1, 4)) == "-0.25"
    assert decimal_str(Fraction(1, 10 ** 9)) == "1e-9"


def test_obj_roundtrip_preserves_multiset():
    aut = ball(1, make_alphabet("x1,xb1,x0,x0"))
    again = automaton_from_obj(automaton_to_obj(aut))
    assert again.slots == aut.slots
    assert json.dumps(automaton_to_obj(again), sort_keys=True) == json.dumps(
        automaton_to_obj(aut), sort_keys=True)


def test_malformed_automaton_objects():
    base = {"alphabet": ["a"], "vertices": ["u"], "edges": []}
    for bad in ({"edges": [5]}, {"values": ["x"]}, {"values": {"a": 5}},
                {"values": {"a": "bogus"}}, {"vertices": [["u"]]}, {"outer": 5},
                {"outer": [1]}, {"alphabet": [1]}, {"values": {"a": ".|.", "b": ".|."}},
                {"alphabet": "a", "vertices": "uv"}, {"vertices": {"u": 1}},
                {"alphabet": {"a": 1}}, {"edges": "uau"}):
        with pytest.raises(AutomatonFormatError):
            automaton_from_obj({**base, **bad})


def test_serre_check_on_targets():
    al = GenAlphabet(("a",))
    # slots per vertex: a, a^-1; each case names the edge without an inverse
    for tgt, edge in (([1, -1, -1, -1], "('p', 'a', 'q')"),    # no q -a^-1-> p
                      ([-1, 1, -1, -1], "('p', 'a^-1', 'q')"),  # no q -a-> p
                      ([1, -1, 1, 0], "('q', 'a', 'q')"),       # two a-edges into q
                      # two a-edges into q, the later one paired: the a column
                      # inverted is the a^-1 column, with one -1 fewer
                      ([1, -1, 1, 1], "('p', 'a', 'q')")):
        with pytest.raises(SerreViolation, match=re.escape(f"edge {edge} has no inverse")):
            Automaton(al, ["p", "q"], array("i", tgt))
    aut = Automaton(al, ["q", "p"], array("i", [-1, 1, 0, -1]))
    assert aut.slots == {"p": {"a": "q", "a^-1": None}, "q": {"a": None, "a^-1": "p"}}


def test_constructor_keeps_the_given_order():
    al = GenAlphabet(("a",))
    aut = Automaton(al, ["q", "p"], array("i", [-1, 1, 0, -1]))
    assert aut.keys == ("q", "p") and aut.index == {"q": 0, "p": 1}
    assert list(aut.tgt) == [-1, 1, 0, -1]


def renumbered(aut, rng):
    """A copy of the automaton with its vertices numbered in shuffled order."""
    order = list(range(len(aut)))
    rng.shuffle(order)
    new = [0] * (len(aut) + 1)  # new number of each old one; new[-1] = -1
    for r, i in enumerate(order):
        new[i] = r
    new[-1] = -1
    d = 2 * aut.alphabet.m
    tgt = array("i", [new[w] for i in order for w in aut.tgt[i * d:i * d + d]])
    return Automaton(aut.alphabet, [aut.keys[i] for i in order], tgt, aut.outer)


@pytest.mark.parametrize("build", [lambda: bb_automaton(7, 3, make_alphabet("x1,xb1,x0,x0")),
                                   lambda: ball(4, make_alphabet("x0,x2,xb1"))],
                         ids=["bb73", "ball4"])
def test_save_writes_key_order_from_any_numbering(tmp_path, build):
    aut = build()
    want = io.StringIO()
    json.dump(automaton_to_obj(aut), want, indent=1, sort_keys=True)
    want = (want.getvalue() + "\n").encode()
    rng = random.Random(3)
    for copy in (aut, renumbered(aut, rng), renumbered(aut, rng)):
        assert sorted(copy.keys) == sorted(aut.keys) and copy.slots == aut.slots
        save_automaton(copy, tmp_path / "aut.json")
        assert (tmp_path / "aut.json").read_bytes() == want


def test_ball_makes_one_product_per_inverse_slot_pair(monkeypatch):
    calls, product = [], fgroup.product
    monkeypatch.setattr(fgroup, "product", lambda a, b: calls.append(1) or product(a, b))
    for spec, r in (("x0,x1", 4), ("x1,xb1,x0,x0", 3), ("x0,x2", 3)):
        calls.clear()
        aut = ball(r, make_alphabet(spec))
        slots, b = len(aut.tgt), aut.tgt.count(-1)  # 2m |B| slots, b on the boundary
        assert len(calls) == (slots - b) // 2 + b < slots, spec


KEY_CHARS = 'ab"\\\n\t\x01\x1f\x7f/ é☃\U0001d11e'


def _random_automaton(rng, n_vertices, n_edges, values, outer, shuffled=False):
    symbols = rng.sample(["a", "b\"c", "é", "x0", "d\\"], rng.randint(1, 3))
    al = GenAlphabet(symbols, {s: fgroup.X0 for s in symbols} if values else None)
    keys = set()
    while len(keys) < n_vertices:
        keys.add("".join(rng.choice(KEY_CHARS) for _ in range(rng.randint(0, 6))))
    keys = sorted(keys)
    if shuffled:
        rng.shuffle(keys)
    slots = {v: {a: None for a in al.letters} for v in keys}
    for _ in range(n_edges):
        u, w, a = rng.choice(keys), rng.choice(keys), rng.choice(symbols)
        if slots[u][a] is None and slots[w][a + "^-1"] is None:
            slots[u][a] = w
            slots[w][a + "^-1"] = u
    if outer == "present":  # outer keys are not vertex keys: "o" is not in KEY_CHARS
        outer = frozenset("o" + rng.choice(KEY_CHARS) * rng.randint(1, 3) for _ in range(5))
    return automaton_from_rows(al, slots, outer=frozenset() if outer == "empty" else outer)


@pytest.mark.parametrize("values", [False, True])
@pytest.mark.parametrize("outer", [None, "empty", "present"])
def test_save_matches_json_dump(tmp_path, values, outer):
    rng = random.Random(f"{values}:{outer}")
    # sizes include no edges and more rows than one write chunk; keys are
    # numbered in key order and in shuffled order
    for (n_vertices, n_edges), shuffled in itertools.product(
            ((1, 0), (7, 0), (30, 40), (5000, 9000)), (False, True)):
        aut = _random_automaton(rng, n_vertices, n_edges, values, outer, shuffled)
        obj = {
            "format": "fcayley-automaton",
            "alphabet": list(aut.alphabet.symbols),
            "vertices": sorted(aut.keys),
            "edges": [list(e) for e in sorted(geometric_edges(aut))],
            "values": {s: fgroup.X0.key for s in aut.alphabet.symbols} if values else None,
        }
        if outer is not None:
            obj["outer"] = sorted(aut.outer)
        assert automaton_to_obj(aut) == obj
        path = tmp_path / "aut.json"
        save_automaton(aut, path)
        want = io.StringIO()
        json.dump(obj, want, indent=1, sort_keys=True)
        assert path.read_bytes() == (want.getvalue() + "\n").encode()
        again = load_automaton(path)
        assert again.slots == aut.slots and again.outer == aut.outer


def naive_ball(r, alphabet):
    """Rows and outer keys of the ball by breadth-first search on the
    textbook tree-pair product, one reference key per product."""
    one = tree_pairs.LEAF
    letters = alphabet.letters
    values = {a: tuple(map(tree_pairs.parse_tree, letter_value(alphabet, a).key.split("|")))
              for a in letters}
    found = {tree_pairs.key((one, one)): (one, one)}
    frontier = list(found.values())
    for _ in range(r):
        new = []
        for g in frontier:
            for a in letters:
                h = tree_pairs.multiply(g, values[a])
                if tree_pairs.key(h) not in found:
                    found[tree_pairs.key(h)] = h
                    new.append(h)
        frontier = new
    rows, outer = {}, set()
    for v, g in found.items():
        row = {a: tree_pairs.key(tree_pairs.multiply(g, values[a])) for a in letters}
        outer.update(w for w in row.values() if w not in found)
        rows[v] = {a: w if w in found else None for a, w in row.items()}
    return rows, outer


@pytest.mark.parametrize("spec", ["x0,x1", "x1,xb1,x0,x0", "x0,x2"])
def test_ball_matches_naive_build(spec):
    al = make_alphabet(spec)
    for r in range(5):
        aut = ball(r, al)
        rows, outer = naive_ball(r, al)
        assert sorted(aut.keys) == sorted(rows), (spec, r)
        assert dict(aut.slots) == rows, (spec, r)
        assert aut.outer == outer, (spec, r)


CODEC_CORPUS = {
    "blocked chain": blocked_chain_automaton,
    "BB(6,3) x0,x1,xb1": lambda: bb_automaton(6, 3, make_alphabet("x0,x1,xb1")),
    "ball(3) x0,x0,x1": lambda: ball(3, make_alphabet("x0,x0,x1")),
    "F2 ball(3)": lambda: free_ball(3, GenAlphabet(("a", "b"))),
    "Z2 ball(3)": lambda: z2_ball(3, GenAlphabet(("a", "b"))),
    "lamplighter box Y_3": lambda: lamp_box(3, GenAlphabet(("a", "b"))),
}


@pytest.mark.parametrize("build", CODEC_CORPUS.values(), ids=CODEC_CORPUS)
def test_arc_codec_round_trips(build):
    aut = build()
    accepted = [e for e, w in enumerate(aut.tgt) if w >= 0]
    for e in accepted:
        v, a, w = aut.edge(e)
        assert aut.arc(v, a, w) == e
        assert aut.inverse(aut.inverse(e)) == e
        assert aut.edge(aut.inverse(e)) == (w, letter_inverse(a), v)
    # inverse permutes the accepted arcs, so edge never reads a boundary slot
    assert sorted(map(aut.inverse, accepted)) == accepted
    # each miss: an unknown vertex, an unknown letter, a wrong target, and
    # every boundary slot whatever the target
    v, a, w = aut.edge(accepted[0])
    other = next(x for x in aut.keys if x != w)
    assert aut.arc("no such vertex", a, w) == aut.arc(v, "no such letter", w) == -1
    assert aut.arc(v, a, "no such vertex") == aut.arc(v, a, other) == -1
    letters = aut.alphabet.letters
    for e in (e for e, w in enumerate(aut.tgt) if w < 0):
        u = aut.keys[e // len(letters)]
        assert all(aut.arc(u, letters[e % len(letters)], x) == -1 for x in aut.keys[:8])
