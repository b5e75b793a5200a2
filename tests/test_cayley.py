import json

import pytest

from fcayley import fgroup
from fcayley.cayley import (
    Automaton,
    AutomatonFormatError,
    GenAlphabet,
    SerreViolation,
    automaton_from_obj,
    automaton_to_obj,
    ball,
    boundary_report,
    decimal_str,
    induced_subgraph,
    letter_inverse,
    load_automaton,
    make_alphabet,
    save_automaton,
)
from fractions import Fraction


def test_letter_inverse():
    assert letter_inverse("x0") == "x0^-1"
    assert letter_inverse("x0^-1") == "x0"


def test_make_alphabet_multiset():
    al = make_alphabet("x1,xb1,x0,x0")
    assert al.symbols == ("x1", "xb1", "x0", "x0@2")
    assert al.m == 4
    assert al.value("x0") == al.value("x0@2")
    assert al.value("x0^-1") == fgroup.invert(fgroup.X0)
    assert al.spec() == "x1,xb1,x0,x0"


def test_make_alphabet_rejects_unknown():
    with pytest.raises(ValueError):
        make_alphabet("x0,zz")


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


def test_induced_subgraph_single_edge():
    al = make_alphabet("x0,x1")
    aut = induced_subgraph([fgroup.IDENTITY.key, fgroup.X0.key], al)
    assert len(aut.geometric_edges()) == 1
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
    assert again.keys == aut.keys
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
    assert len(aut.geometric_edges()) == 2
    rep = boundary_report(aut)
    assert rep.inner_boundary == 2  # p misses a^-1, r misses a
    assert rep.nu["a"] == 1 and rep.nu["a^-1"] == 1


def test_duplicate_slot_rejected():
    obj = {
        "alphabet": ["a"],
        "values": None,
        "vertices": ["p", "q", "r"],
        "edges": [["p", "a", "q"], ["p", "a", "r"]],
    }
    with pytest.raises(AutomatonFormatError):
        automaton_from_obj(obj)


def test_serre_violation_in_directed_listing():
    obj = {
        "alphabet": ["a"],
        "values": None,
        "directed": True,
        "vertices": ["p", "q"],
        "edges": [["p", "a", "q"]],  # inverse edge missing
    }
    with pytest.raises(SerreViolation):
        automaton_from_obj(obj)
    obj["edges"].append(["q", "a^-1", "p"])
    aut = automaton_from_obj(obj)
    assert aut.slots["q"]["a^-1"] == "p"


def test_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(AutomatonFormatError):
        load_automaton(path)


def test_restrict_consistency():
    aut = ball(1, make_alphabet("x0,x1"))
    sub = aut.restrict([fgroup.IDENTITY.key, fgroup.X0.key])
    assert len(sub) == 2
    assert len(sub.geometric_edges()) == 1
    assert sub.outer is None


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
                {"outer": [1]}, {"alphabet": [1]}, {"values": {"a": ".|.", "b": ".|."}}):
        with pytest.raises(AutomatonFormatError):
            automaton_from_obj({**base, **bad})
