import random
from fractions import Fraction

import json

import pytest

from evac_ref import (
    conjugate_relabel,
    edge_usage,
    hall_oracle,
    label_use_counts,
    relation_to_scheme,
    scheme_to_relation,
    validate_relabelled,
)
from fcayley import evac, fgroup
from fcayley.cayley import (
    Automaton,
    AutomatonFormatError,
    GenAlphabet,
    ball,
    load_json,
    make_alphabet,
)
from fcayley.evac import (
    EvacScheme,
    NoEvacuationTarget,
    SchemeValidationError,
    blocked_chain_automaton,
    certificate_from_obj,
    cheeger_out,
    scheme_from_obj,
    solve_with_constant,
    validate_scheme,
    verify_flow_certificate,
)
from fcayley.forests import bb_automaton


def abstract(slot_map, symbols=("a",)):
    return Automaton(GenAlphabet(symbols), slot_map)


def path_automaton(n_vertices):
    """Simple a-labelled path v0 - v1 - ... - v_{n-1}."""
    verts = [f"v{i}" for i in range(n_vertices)]
    slots = {v: {"a": None, "a^-1": None} for v in verts}
    for u, w in zip(verts, verts[1:]):
        slots[u]["a"] = w
        slots[w]["a^-1"] = u
    return abstract(slots)


def random_serre_automaton(rng, n_vertices, m, keep=0.7):
    al = GenAlphabet(tuple("abcd"[:m]))
    verts = [f"v{i:02d}" for i in range(n_vertices)]
    slots = {v: {a: None for a in al.letters()} for v in verts}
    for sym in al.symbols:
        doms = [v for v in verts if rng.random() < keep]
        imgs = rng.sample(verts, len(doms))
        for u, w in zip(doms, imgs):
            slots[u][sym] = w
            slots[w][sym + "^-1"] = u
    return Automaton(al, slots)


# ---------------------------------------------------------------------------
# solve_with_constant


def test_singleton_scheme():
    aut = abstract({"e": {"a": None, "a^-1": None}})
    res = solve_with_constant(aut, 1)
    assert res.exists
    assert res.scheme.paths == {"e": ()}
    validate_scheme(aut, res.scheme)


def test_ball1_scheme():
    aut = ball(1, make_alphabet("x0,x1"))
    res = solve_with_constant(aut, 1)
    assert res.exists
    validate_scheme(aut, res.scheme)
    empty = [v for v, p in res.scheme.paths.items() if not p]
    assert len(empty) == 4
    assert len(res.scheme.paths[fgroup.IDENTITY.key]) == 1


def test_chain_counterexample():
    aut = blocked_chain_automaton()
    res = solve_with_constant(aut, 1)
    assert not res.exists
    assert set(res.witness.Z) == {"u1", "u2", "u3"}
    assert res.witness.cheeger == 2
    assert res.witness.cheeger < len(res.witness.Z)
    assert cheeger_out(aut, set(res.witness.Z)) == res.witness.cheeger


def test_chain_solvable_at_two():
    aut = blocked_chain_automaton()
    res = solve_with_constant(aut, 2)
    assert res.exists
    validate_scheme(aut, res.scheme)
    assert hall_oracle(aut, K=2) is None


def test_monotone_in_K():
    aut = blocked_chain_automaton()
    for K in (2, 3, 5):
        assert solve_with_constant(aut, K).exists


def test_pure_scheme_valid_at_higher_K():
    aut = ball(1, make_alphabet("x0,x1"))
    scheme = solve_with_constant(aut, 1).scheme
    relaxed = EvacScheme(K=2, paths=scheme.paths)
    validate_scheme(aut, relaxed)


def test_no_boundary_raises():
    # two vertices saturated by a-loops and b-double edges: no boundary slots
    slots = {
        "p": {"a": "p", "a^-1": "p", "b": "q", "b^-1": "q"},
        "q": {"b": "p", "b^-1": "p", "a": "q", "a^-1": "q"},
    }
    aut = abstract(slots, symbols=("a", "b"))
    with pytest.raises(NoEvacuationTarget):
        solve_with_constant(aut, 1)
    with pytest.raises(NoEvacuationTarget):
        hall_oracle(aut)


def test_disconnected_internal_component_blocks():
    # component {p,q} fully saturated, plus a separate boundary vertex z
    slots = {
        "p": {"a": "p", "a^-1": "p", "b": "q", "b^-1": "q"},
        "q": {"b": "p", "b^-1": "p", "a": "q", "a^-1": "q"},
        "z": {"a": None, "a^-1": None, "b": None, "b^-1": None},
    }
    aut = abstract(slots, symbols=("a", "b"))
    res = solve_with_constant(aut, 1)
    assert not res.exists
    assert set(res.witness.Z) == {"p", "q"}
    assert res.witness.cheeger == 0
    # no capacity helps a disconnected component
    assert not solve_with_constant(aut, 10).exists


def test_hall_oracle_vacuous_when_all_boundary():
    aut = path_automaton(3)
    assert set(aut.inner_boundary()) == {"v0", "v2"}
    sub = abstract({"p": {"a": "q", "a^-1": None}, "q": {"a": None, "a^-1": "p"}})
    assert hall_oracle(sub) is None  # no internal vertices at all


def test_hall_oracle_guard():
    aut = path_automaton(40)
    with pytest.raises(ValueError):
        hall_oracle(aut, guard=10)


def test_solver_oracle_agreement_randomized():
    rng = random.Random(2024)
    checked = 0
    for _ in range(250):
        aut = random_serre_automaton(rng, rng.randint(1, 9), rng.randint(1, 2))
        if not aut.inner_boundary():
            continue
        internal = set(aut.keys) - set(aut.inner_boundary())
        if len(internal) > 14:
            continue
        res = solve_with_constant(aut, 1)
        wit = hall_oracle(aut)
        assert res.exists == (wit is None)
        if res.exists:
            validate_scheme(aut, res.scheme)
        else:
            assert res.witness.cheeger < len(res.witness.Z)
            zset = set(res.witness.Z)
            assert zset <= internal
            assert cheeger_out(aut, zset) == res.witness.cheeger
        checked += 1
    assert checked > 150


# ---------------------------------------------------------------------------
# differential check against networkx max flow, far past the oracle guard


@pytest.fixture
def networkx():
    return pytest.importorskip("networkx")


def networkx_verdicts(nx, aut):
    """Verdicts of solve_with_constant for K = 1, 2, each checked against a
    networkx max flow: source -> internal vertex (capacity 1), each directed
    edge (capacity K, parallel edges merged, loops dropped), boundary
    vertex -> sink (unbounded).  A scheme exists iff the flow value is the
    number of internal vertices."""
    boundary = set(aut.inner_boundary())
    internal = [v for v in aut.keys if v not in boundary]
    source, sink = 0, 1  # vertex keys are strings
    verdicts = set()
    for K in (1, 2):
        g = nx.DiGraph()
        g.add_nodes_from((source, sink))
        g.add_edges_from((source, v, {"capacity": 1}) for v in internal)
        g.add_edges_from((v, sink) for v in boundary)
        for u, a, w in aut.directed_edges():
            if u != w:
                cap = g.edges[u, w]["capacity"] if g.has_edge(u, w) else 0
                g.add_edge(u, w, capacity=cap + K)
        exists = nx.maximum_flow_value(g, source, sink) == len(internal)
        res = solve_with_constant(aut, K)
        assert res.exists == exists, (len(aut), K)
        if not exists:
            zset = set(res.witness.Z)
            assert zset <= set(internal)
            assert K * cheeger_out(aut, zset) < len(zset)
        verdicts.add(exists)
    return verdicts


def test_networkx_agrees_on_bb_sets(networkx):
    for spec in ("x0,x1", "x1,xb1,x0,x0"):
        for n in range(1, 10):
            networkx_verdicts(networkx, bb_automaton(n, 3, make_alphabet(spec)))


def test_networkx_agrees_on_balls(networkx):
    for spec in ("x0,x1", "x1,xb1,x0,x0"):
        for r in range(6):
            networkx_verdicts(networkx, ball(r, make_alphabet(spec)))


def test_networkx_agrees_on_random_serre_graphs(networkx):
    rng = random.Random(7)
    for m in (1, 2):
        seen = set()
        for _ in range(8):
            aut = random_serre_automaton(rng, rng.randint(200, 2000), m,
                                         keep=rng.uniform(0.05, 1.0))
            if aut.inner_boundary():
                seen |= networkx_verdicts(networkx, aut)
        assert seen == {True, False}, m


# ---------------------------------------------------------------------------
# psi relations


def test_scheme_to_relation_empty():
    aut = abstract({"e": {"a": None, "a^-1": None}})
    scheme = solve_with_constant(aut, 1).scheme
    rel = scheme_to_relation(scheme)
    assert rel.pairs == ()
    assert rel.index == {"e": 0}


def test_scheme_to_relation_ball1():
    aut = ball(1, make_alphabet("x0,x1"))
    scheme = solve_with_constant(aut, 1).scheme
    rel = scheme_to_relation(scheme)
    assert len(rel.pairs) == 1
    head, tail = rel.pairs[0]
    assert tail == fgroup.IDENTITY.key
    assert sum(rel.index.values()) == 0
    assert rel.index[fgroup.IDENTITY.key] == 1
    assert rel.index[head] == -1
    # every pair spans an edge of the automaton
    assert any(aut.slots[tail][a] == head for a in aut.alphabet.letters())


def test_relation_to_scheme_single_edge():
    aut = path_automaton(2)  # v0 - v1, both boundary
    scheme = relation_to_scheme(aut, [("v1", "v0")], sinks={"v1"})
    assert scheme.paths["v0"] == (("v0", "a", "v1"),)
    assert scheme.paths["v1"] == ()


def test_relation_to_scheme_nested_chain():
    aut = path_automaton(4)  # v0 v1 v2 v3, evacuate into v3
    pairs = [("v1", "v0"), ("v2", "v1"), ("v2", "v1"),
             ("v3", "v2"), ("v3", "v2"), ("v3", "v2")]
    scheme = relation_to_scheme(aut, pairs, sinks={"v3"})
    usage = edge_usage(scheme)
    assert usage[("v0", "a", "v1")] == 1
    assert usage[("v1", "a", "v2")] == 2
    assert usage[("v2", "a", "v3")] == 3
    assert scheme.K == 3
    # round trip: the extracted relation has the same pair multiset
    rel = scheme_to_relation(scheme)
    assert sorted(rel.pairs) == sorted(pairs)


def test_relation_to_scheme_index_violation():
    aut = path_automaton(3)
    # v1 is internal-ish here: declare only v2 a sink; v0 has no preimages
    with pytest.raises(ValueError) as err:
        relation_to_scheme(aut, [("v2", "v1")], sinks={"v2"})
    assert "v0" in str(err.value)


def test_relation_to_scheme_rejects_non_edge_pairs():
    aut = path_automaton(3)
    with pytest.raises(ValueError):
        relation_to_scheme(aut, [("v2", "v0")], sinks={"v2"})


def test_relation_to_scheme_rejects_unknown_sink():
    aut = path_automaton(3)
    with pytest.raises(ValueError, match="'w9'"):
        relation_to_scheme(aut, [("v1", "v0"), ("v2", "v1"), ("v2", "v1")],
                           sinks={"v2", "w9"})


def assert_relation_round_trip(aut, K):
    """A solver scheme, turned into its relation and peeled again, is a valid
    scheme whose K is the largest edge usage of the original."""
    res = solve_with_constant(aut, K)
    if not res.exists:
        return False
    back = relation_to_scheme(aut, scheme_to_relation(res.scheme).pairs)
    validate_scheme(aut, back)
    assert back.K == max(edge_usage(res.scheme).values(), default=1)
    assert back.paths.keys() == res.scheme.paths.keys()
    return True


@pytest.mark.parametrize("build", [
    lambda: ball(3, make_alphabet("x0,x1")),
    lambda: ball(2, make_alphabet("x1,xb1,x0,x0")),
    lambda: bb_automaton(7, 3, make_alphabet("x0,x1")),
    lambda: bb_automaton(6, 2, make_alphabet("x0,x1,xb1")),
], ids=["ball3", "ball2-doubled-x0", "bb73", "bb62"])
@pytest.mark.parametrize("K", [1, 2])
def test_relation_round_trip(build, K):
    assert assert_relation_round_trip(build(), K)


def test_relation_round_trip_random_serre_graphs():
    rng = random.Random(23)
    solved = 0
    for _ in range(200):
        aut = random_serre_automaton(rng, rng.randint(2, 12), rng.randint(1, 3))
        if any(aut.boundary_flags()):
            solved += sum(assert_relation_round_trip(aut, K) for K in (1, 2))
    assert solved > 100


# ---------------------------------------------------------------------------
# flow certificates


def five_path_certificate():
    aut = path_automaton(5)
    obj = {
        "C": "3",
        "eps": "1",
        "flow": [
            ["v0", "a", "v1", "2"],
            ["v1", "a", "v2", "1"],
            ["v2", "a", "v3", "0"],
            ["v3", "a", "v4", "-1"],
        ],
        "boundary_inflows": {"v0": "3", "v4": "2"},
    }
    return aut, certificate_from_obj(aut, obj)


def test_valid_certificate_accepted():
    aut, cert = five_path_certificate()
    verdict = verify_flow_certificate(aut, cert)
    assert verdict.accepted, verdict.failures
    assert verdict.bound == Fraction(1, 3)
    assert verdict.inequality_holds  # 1 * 5 <= 3 * 2


def test_zero_flow_rejected():
    aut = path_automaton(5)
    cert = certificate_from_obj(aut, {"C": "3", "eps": "1", "flow": [],
                                      "boundary_inflows": {}})
    verdict = verify_flow_certificate(aut, cert)
    assert not verdict.accepted
    assert any("inflow" in f for f in verdict.failures)


def test_certificate_antisymmetry_violation():
    aut = path_automaton(3)
    obj = {"C": "2", "eps": "1",
           "flow": [["v0", "a", "v1", "1"], ["v1", "a^-1", "v0", "1"]],
           "boundary_inflows": {}}
    with pytest.raises(ValueError):
        certificate_from_obj(aut, obj)


def test_certificate_bound_violation():
    aut = path_automaton(3)
    cert = certificate_from_obj(aut, {
        "C": "1", "eps": "1",
        "flow": [["v0", "a", "v1", "5"], ["v1", "a", "v2", "4"]],
        "boundary_inflows": {"v0": "6", "v2": "0"},
    })
    verdict = verify_flow_certificate(aut, cert)
    assert not verdict.accepted
    # each offending edge once, in the direction the file lists it
    assert [f for f in verdict.failures if "> C" in f] == [
        "|f| = 5 > C on edge ('v0', 'a', 'v1')", "|f| = 4 > C on edge ('v1', 'a', 'v2')"]


def test_certificate_flow_on_non_edge():
    aut = path_automaton(3)
    with pytest.raises(ValueError):
        certificate_from_obj(aut, {"C": "1", "eps": "1",
                                   "flow": [["v0", "a", "v2", "1"]],
                                   "boundary_inflows": {}})


def test_certificate_boundary_inflow_on_internal_vertex():
    aut = path_automaton(3)
    cert = certificate_from_obj(aut, {"C": "1", "eps": "1", "flow": [],
                                      "boundary_inflows": {"v1": "1"}})
    verdict = verify_flow_certificate(aut, cert)
    assert not verdict.accepted
    assert any("internal" in f for f in verdict.failures)


def test_accepted_certificate_implies_inequality():
    aut, cert = five_path_certificate()
    verdict = verify_flow_certificate(aut, cert)
    from fcayley.cayley import boundary_report

    rep = boundary_report(aut)
    assert verdict.accepted
    assert cert.eps * rep.size <= cert.C * rep.cheeger


# ---------------------------------------------------------------------------
# conjugation relabelling


def test_relabel_single_x2_edge():
    al = make_alphabet("x0,x1,x2", with_values=False)
    slots = {
        "p": {a: None for a in al.letters()},
        "q": {a: None for a in al.letters()},
    }
    slots["p"]["x2"] = "q"
    slots["q"]["x2^-1"] = "p"
    aut = Automaton(al, slots)
    scheme = EvacScheme(K=1, paths={"p": (("p", "x2", "q"),), "q": ()})
    validate_scheme(aut, scheme)
    out = conjugate_relabel(scheme, aut)
    assert out.paths["p"] == (("p", "x1", "q"),)
    validate_relabelled(out)


def test_relabel_single_x1_edge():
    al = make_alphabet("x0,x1,x2", with_values=False)
    slots = {
        "p": {a: None for a in al.letters()},
        "q": {a: None for a in al.letters()},
    }
    slots["p"]["x1"] = "q"
    slots["q"]["x1^-1"] = "p"
    aut = Automaton(al, slots)
    scheme = EvacScheme(K=1, paths={"p": (("p", "x1", "q"),), "q": ()})
    out = conjugate_relabel(scheme, aut)
    assert [e[1] for e in out.paths["p"]] == ["x0", "xb1"]
    mid = out.paths["p"][0][2]
    assert mid == "p#x0"  # p has no x0 neighbour, so the midpoint is synthetic
    validate_relabelled(out)


def test_relabel_conservation_counts():
    aut = bb_automaton(5, 2, make_alphabet("x0,x1,x2"))
    res = solve_with_constant(aut, 1)
    assert res.exists
    before = label_use_counts(res.scheme)
    out = conjugate_relabel(res.scheme, aut)
    validate_relabelled(out)
    after = label_use_counts(out)
    for sign in ("", "^-1"):
        assert after.get("x0" + sign, 0) == before.get("x0" + sign, 0) + before.get("x1" + sign, 0)
        assert after.get("xb1" + sign, 0) == before.get("x1" + sign, 0)
        assert after.get("x1" + sign, 0) == before.get("x2" + sign, 0)


def test_relabel_requires_pure():
    aut = blocked_chain_automaton()
    res = solve_with_constant(aut, 2)
    with pytest.raises(ValueError):
        conjugate_relabel(res.scheme, aut)


def test_relabel_group_identities():
    # x0 * xb1 = x0 * x1 * x0^-1 and x0^-1 * x1 * x0 = x2 as tree pairs
    x0, x1 = fgroup.X0, fgroup.X1
    xb1 = fgroup.generator_xbar1()
    lhs = fgroup.multiply(x0, xb1)
    rhs = fgroup.multiply(fgroup.multiply(x0, x1), fgroup.invert(x0))
    assert lhs == rhs
    assert fgroup.multiply(fgroup.multiply(fgroup.invert(x0), x1), x0) == fgroup.generator_x(2)


# ---------------------------------------------------------------------------
# scheme validation and serialization


def test_validate_scheme_rejects_bad_paths():
    aut = path_automaton(3)
    with pytest.raises(SchemeValidationError):
        validate_scheme(aut, EvacScheme(K=1, paths={"v0": (), "v1": (), "v2": ()}))
    with pytest.raises(SchemeValidationError):
        # v1's path must start at v1
        validate_scheme(aut, EvacScheme(K=1, paths={
            "v0": (), "v2": (),
            "v1": (("v0", "a", "v1"),),
        }))


def test_validate_scheme_edge_overuse():
    aut = path_automaton(3)
    paths = {
        "v0": (("v0", "a", "v1"), ("v1", "a", "v2")),
        "v1": (("v1", "a", "v2"),),
        "v2": (),
    }
    with pytest.raises(SchemeValidationError):
        validate_scheme(aut, EvacScheme(K=1, paths=paths))
    validate_scheme(aut, EvacScheme(K=2, paths=paths))


def test_validate_scheme_inverse_exclusion():
    aut = path_automaton(4)
    paths = {
        "v0": (("v0", "a", "v1"), ("v1", "a", "v2"), ("v2", "a", "v3")),
        "v1": (("v1", "a^-1", "v0"),),
        "v2": (("v2", "a", "v3"),),
        "v3": (),
    }
    with pytest.raises(SchemeValidationError):
        validate_scheme(aut, EvacScheme(K=1, paths=paths))


def test_scheme_obj_roundtrip():
    aut = ball(1, make_alphabet("x0,x1"))
    scheme = solve_with_constant(aut, 1).scheme
    again = scheme_from_obj(scheme.as_obj())
    assert again == scheme
    assert scheme_from_obj(json.loads(json.dumps(scheme.as_obj()))) == scheme


def test_malformed_scheme_files():
    for text in ('{"K": 1, "paths": [1]}',
                 '{"K": 1, "paths": {"u": [5]}}',
                 # K is a JSON integer >= 1, not a float, bool or string
                 '{"K": 1.9, "paths": {"u": []}}',
                 '{"K": true, "paths": {"u": []}}',
                 '{"K": "1", "paths": {"u": []}}',
                 '{"K": 0, "paths": {"u": []}}'):
        with pytest.raises(AutomatonFormatError):
            scheme_from_obj(json.loads(text))


def test_truncated_json_file(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"K": 1, "paths":')
    with pytest.raises(AutomatonFormatError, match="^not valid JSON: "):
        load_json(path)


def test_certificate_rationals_refuse_exponent_notation():
    read = [evac._fraction(x) for x in ("1/3", "0.5", "-2", 7)]
    assert read == [Fraction(1, 3), Fraction(1, 2), -2, 7]
    for bad in ("1e5", "2E-3", "1/1e9", 0.5, True, "x"):
        with pytest.raises(AutomatonFormatError, match="^bad rational value "):
            evac._fraction(bad)


def test_solver_checks_its_witness(monkeypatch):
    # a set emitting |Z| edges fails K * cheeger < |Z| at K = 1
    monkeypatch.setattr(evac, "cheeger_out", lambda aut, zset: len(zset))
    with pytest.raises(AssertionError, match="Hall inequality"):
        solve_with_constant(blocked_chain_automaton(), 1)
