"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The corpora are deliberately small enough for exact arithmetic everywhere:
balls of radius <= 3, Brown-Belk sets with n <= 8 and k <= 3 for the
enumeration/DP cross-checks, and a big-integer DP sweep up to n = 3000,
k = 10 for the density and xi trends.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import cayley_ref
import evac_ref
import forest_ref
import known_groups
from fcayley import counting, evac, fgroup, forests
from fcayley.cayley import (
    BASE_VALUES,
    GenAlphabet,
    ball,
    boundary_report,
    make_alphabet,
)

ALPHABET_SPECS = ("x0,x1", "x1,xb1", "x0,x1,xb1", "x0,x1,x2")
BB_GRID = [(n, k) for n in range(1, 9) for k in range(0, 4)]

SWEEP_KS = (2, 4, 6, 8, 10)
SWEEP_N = 3000


def _criterion(number, text, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {text}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {text}")


@pytest.fixture(scope="module")
def bb_corpus():
    """All BB automata of the small grid, per alphabet spec."""
    corpus = {}
    for spec in ALPHABET_SPECS:
        al = make_alphabet(spec)
        for n, k in BB_GRID:
            corpus[(spec, n, k)] = forests.bb_automaton(n, k, al)
    return corpus


@pytest.fixture(scope="module")
def ball_corpus():
    al = make_alphabet("x0,x1")
    return {r: ball(r, al) for r in range(0, 4)}


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    """Run cmd_sweep over the density/xi grid and parse its CSV back."""
    import csv as csv_mod

    from fcayley.cli import EXIT_OK, main

    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    code = main(["sweep", "--k", ",".join(str(k) for k in SWEEP_KS),
                 "--n", str(SWEEP_N), "--alphabets", "x0,x1",
                 "--format", "csv", "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    with open(out) as fh:
        return list(csv_mod.DictReader(fh))


def test_criterion_1_density_identity(ball_corpus, bb_corpus):
    def check():
        def invariants(aut, tag):
            rep = boundary_report(aut)
            m = aut.alphabet.m
            assert rep.density + rep.iota == 2 * m, tag
            assert rep.inner_boundary <= rep.cheeger <= 2 * m * rep.inner_boundary, tag
            if rep.outer_boundary is not None:
                assert rep.outer_boundary <= rep.cheeger <= 2 * m * rep.outer_boundary, tag

        for r, aut in ball_corpus.items():
            invariants(aut, f"ball r={r}")
        for (spec, n, k), aut in bb_corpus.items():
            invariants(aut, (spec, n, k))

    _criterion(1, "delta + iota = 2m exactly on the whole corpus", check)


def test_criterion_2_symmetric_property(ball_corpus, bb_corpus):
    def check():
        for aut in ball_corpus.values():
            rep = boundary_report(aut)
            for s in aut.alphabet.symbols:
                assert rep.nu[s] == rep.nu[s + "^-1"]
        for (spec, n, k), aut in bb_corpus.items():
            rep = boundary_report(aut)
            dp = counting.nu_counts(n, k, aut.alphabet.symbols)
            for s in aut.alphabet.symbols:
                assert rep.nu[s] == rep.nu[s + "^-1"], (spec, n, k, s)
                assert dp[s] == dp[s + "^-1"], (spec, n, k, s)

    _criterion(2, "nu(a) = nu(a^-1) via enumeration and via DP", check)


def test_criterion_3_dp_enumeration_equivalence(bb_corpus):
    def check():
        t0 = time.monotonic()
        symbols = ("x0", "x1", "xb1", "x2")
        for n, k in BB_GRID:
            members = forest_ref.enumerate_bb(n, k)
            assert counting.bb_count(n, k) == len(members), (n, k)
            assert counting.table(k, n).y0(n) == len(forest_ref.find_y0(n, k)), (n, k)
            dp = counting.nu_counts(n, k, symbols)
            for letter, count in dp.items():
                rejected = sum(
                    1 for f in members if forest_ref.act(letter, f, k) is None)
                assert count == rejected, (n, k, letter)
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"oracle equivalence took {elapsed:.1f}s"

    _criterion(3, "bb_count / nu_counts / |Y0| match enumeration, n<=8 k<=3", check)


def test_criterion_4_density_trend(sweep_rows):
    def check():
        deltas = {}
        for row in sweep_rows:
            assert row["alphabet"] == "x0,x1"
            deltas[int(row["k"])] = Fraction(row["delta"])
        ks = sorted(deltas)
        assert ks == sorted(SWEEP_KS)
        for a, b in zip(ks, ks[1:]):
            assert deltas[a] < deltas[b], f"density not increasing at k={b}"
        assert all(d < Fraction(7, 2) for d in deltas.values())
        best = deltas[ks[-1]]
        assert best > Fraction(17, 5), f"max density {float(best):.4f} <= 3.4"

    _criterion(4, f"delta(BB({SWEEP_N}, k)) climbs past 3.4 toward 3.5", check)


def test_criterion_5_xi_stabilization(sweep_rows):
    def check():
        tol = Fraction(1, 10 ** 6)
        quarter = Fraction(1, 4)
        values = []
        for k in SWEEP_KS:
            diag = forest_ref.xi_diagnostics(k, SWEEP_N)
            assert diag["gap"] < tol, f"xi gap {float(diag['gap']):.2e} at k={k}"
            assert diag["xi"] > quarter
            values.append(diag["xi"])
            # the sweep reports the same exact ratio
            row = next(r for r in sweep_rows if int(r["k"]) == k)
            assert Fraction(row["xi"]) == diag["xi"]
        for a, b in zip(values, values[1:]):
            assert b < a, "xi values must decrease in k"

    _criterion(5, "xi stabilizes (gap < 1e-6), decreases in k, stays above 1/4", check)


def test_criterion_6_trimming_pipeline(bb_corpus):
    def check():
        for n, k in BB_GRID:
            if k == 0:
                continue
            tr = forest_ref.trimmed_density(n, k)
            aut = bb_corpus[("x0,x1,xb1", n, k)]
            y0 = {f.enc for f in forest_ref.find_y0(n, k)}
            keep = [v for v in aut.keys if v not in y0]
            if not keep:
                continue
            sub = cayley_ref.restrict(aut, keep)
            assert boundary_report(sub).density == tr.trimmed_density, (n, k)
        consts = forest_ref.trimming_constants()
        assert consts["p0"] == Fraction(1, 260)
        assert consts["iota_bound"] == Fraction(517, 518)
        # p is reported exactly, never asserted against 1/260
        p = counting.density_report(counting.table(4, 60), 60, ("x0",)).p
        print(f"    p(60, 4) = {p} = {float(p):.3e} (no inequality asserted)")

    _criterion(6, "(delta-4p)/(1-p) equals the trimmed automaton exactly; 517/518", check)


# ---------------------------------------------------------------------------
# Criterion 7 corpus builders


def partial_injections(n):
    """All partial injections on range(n), as dicts."""
    verts = list(range(n))

    def rec(i, used, cur):
        if i == n:
            yield dict(cur)
            return
        yield from rec(i + 1, used, cur)
        for w in verts:
            if w not in used:
                cur[verts[i]] = w
                used.add(w)
                yield from rec(i + 1, used, cur)
                del cur[verts[i]]
                used.discard(w)

    yield from rec(0, set(), {})


def injections_to_automaton(n, injections, symbols):
    names = [f"v{i}" for i in range(n)]
    al = GenAlphabet(symbols)
    slots = {v: {a: None for a in al.letters} for v in names}
    for sym, inj in zip(symbols, injections):
        for u, w in inj.items():
            slots[names[u]][sym] = names[w]
            slots[names[w]][sym + "^-1"] = names[u]
    return cayley_ref.automaton_from_rows(al, slots)


def random_injection(rng, n, keep):
    doms = [v for v in range(n) if rng.random() < keep]
    imgs = rng.sample(range(n), len(doms))
    return dict(zip(doms, imgs))


def _agreement(aut):
    """Solver/oracle agreement plus re-validation; returns True if checked."""
    internal = set(aut.keys) - set(aut.inner_boundary())
    if len(internal) > 12:
        return False
    res = evac.solve_with_constant(aut, 1)
    wit = evac_ref.hall_oracle(aut)
    assert res.exists == (wit is None)
    if res.exists:
        evac.validate_scheme(aut, res.scheme)
    else:
        zset = set(res.witness.Z)
        assert zset and zset <= internal
        assert evac.cheeger_out(aut, zset) == res.witness.cheeger
        assert res.witness.cheeger < len(zset)
    return True


def test_criterion_7_solver_vs_oracle():
    def check():
        # exhaustive: every Serre graph over one symbol (a 2-letter group
        # alphabet) with at most 5 vertices
        checked = 0
        for n in range(1, 6):
            for inj in partial_injections(n):
                aut = injections_to_automaton(n, [inj], ("a",))
                checked += _agreement(aut)
        assert checked == 1798, checked  # every partial injection, permutations too

        # canonical deterministic sample up to 10 vertices, one and two symbols
        rng = random.Random(0)
        sampled = 0
        while sampled < 300:
            n = rng.randint(6, 10)
            m = rng.randint(1, 2)
            injections = [random_injection(rng, n, 0.6) for _ in range(m)]
            aut = injections_to_automaton(n, injections, tuple("ab"[:m]))
            sampled += _agreement(aut)

        # 1000 random instances up to 20 vertices
        rng = random.Random(1)
        done = 0
        while done < 1000:
            n = rng.randint(1, 20)
            m = rng.randint(1, 2)
            keep = rng.uniform(0.3, 0.7)
            injections = [random_injection(rng, n, keep) for _ in range(m)]
            aut = injections_to_automaton(n, injections, tuple("ab"[:m]))
            done += _agreement(aut)

    _criterion(7, "solve_with_constant(K=1) == hall_oracle on exhaustive + 1300 sampled automata", check)


def test_criterion_8_ball_and_chain():
    def check():
        b1 = ball(1, make_alphabet("x0,x1"))
        res = evac.solve_with_constant(b1, 1)
        assert res.exists
        evac.validate_scheme(b1, res.scheme)
        chain = evac.blocked_chain_automaton()
        r1 = evac.solve_with_constant(chain, 1)
        assert not r1.exists
        assert r1.witness.cheeger < len(r1.witness.Z)
        r2 = evac.solve_with_constant(chain, 2)
        assert r2.exists
        evac.validate_scheme(chain, r2.scheme)

    _criterion(8, "ball(1) pure scheme; chain blocked at K=1, solvable at K=2", check)


def test_criterion_9_flow_certificates():
    def check():
        verts = [f"v{i}" for i in range(5)]
        slots = {v: {"a": None, "a^-1": None} for v in verts}
        for u, w in zip(verts, verts[1:]):
            slots[u]["a"] = w
            slots[w]["a^-1"] = u
        aut = cayley_ref.automaton_from_rows(GenAlphabet(("a",)), slots)
        cert = evac.certificate_from_obj(aut, {
            "C": "3", "eps": "1",
            "flow": [["v0", "a", "v1", "2"], ["v1", "a", "v2", "1"],
                     ["v2", "a", "v3", "0"], ["v3", "a", "v4", "-1"]],
            "boundary_inflows": {"v0": "3", "v4": "2"},
        })
        verdict = evac.verify_flow_certificate(aut, cert)
        assert verdict.accepted, verdict.failures
        assert verdict.bound == Fraction(1, 3)
        rep = boundary_report(aut)
        assert cert.eps * rep.size <= cert.C * rep.cheeger
        assert verdict.inequality_holds

        zero = evac.certificate_from_obj(
            aut, {"C": "3", "eps": "1", "flow": [], "boundary_inflows": {}})
        assert not evac.verify_flow_certificate(aut, zero).accepted

    _criterion(9, "valid certificate accepted with bound eps/C; zero flow rejected", check)


def test_criterion_10_group_arithmetic():
    def check():
        for i in range(0, 7):
            for j in range(i + 1, 7):
                lhs = fgroup.multiply(fgroup.generator_x(j), fgroup.generator_x(i))
                rhs = fgroup.multiply(fgroup.generator_x(i), fgroup.generator_x(j + 1))
                assert lhs == rhs, (i, j)
        x0, x1 = fgroup.X0, fgroup.X1
        for r in known_groups.presentation2_relators(x0, x1):
            assert r.is_identity()
        # the symmetric presentation in alpha = x1^-1, beta = x0 x1^-1
        alpha, beta = fgroup.invert(x1), fgroup.multiply(x0, fgroup.invert(x1))
        a_b = fgroup.conjugate(alpha, beta)
        for g in (fgroup.conjugate(beta, alpha),
                  fgroup.conjugate(beta, fgroup.power(alpha, 2))):
            assert fgroup.multiply(a_b, g) == fgroup.multiply(g, a_b)  # [a_b, g] = 1
        assert known_groups.check_automorphism()["ok"]
        x2 = fgroup.generator_x(2)
        xb1 = BASE_VALUES["xb1"]
        assert fgroup.multiply(fgroup.multiply(fgroup.invert(x0), x1), x0) == x2
        assert fgroup.multiply(fgroup.multiply(x0, x1), fgroup.invert(x0)) == \
            fgroup.multiply(x0, xb1)

    _criterion(10, "relations for i<j<=6, both presentations, automorphism, conjugates", check)


def test_criterion_11_relabelling_corpus():
    def check():
        al = make_alphabet("x0,x1,x2")
        relabelled = 0
        for n, k in itertools.product(range(1, 7), range(0, 3)):
            aut = forests.bb_automaton(n, k, al)
            res = evac.solve_with_constant(aut, 1)
            if not res.exists:
                continue
            out = evac_ref.conjugate_relabel(res.scheme, aut)
            evac_ref.validate_relabelled(out)
            before = evac_ref.label_use_counts(res.scheme)
            after = evac_ref.label_use_counts(out)
            for sign in ("", "^-1"):
                assert after.get("x0" + sign, 0) == (
                    before.get("x0" + sign, 0) + before.get("x1" + sign, 0))
                assert after.get("xb1" + sign, 0) == before.get("x1" + sign, 0)
                assert after.get("x1" + sign, 0) == before.get("x2" + sign, 0)
            relabelled += 1
        assert relabelled >= 5, f"only {relabelled} schemes to relabel"

    _criterion(11, "relabelled schemes satisfy the {x1,xb1,x0,x0} capacities", check)
