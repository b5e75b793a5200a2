import itertools
from fractions import Fraction

import pytest

import forest_ref
from fcayley import cayley, counting, forests
from fcayley.cayley import boundary_report, make_alphabet
from fcayley.counting import (
    CountTable,
    bb_count,
    catalan,
    density_report,
    nu_counts,
    table,
    tree_counts,
)
from forest_ref import trimmed_density, trimming_constants, xi_diagnostics
from cayley_ref import restrict


def test_tree_counts_examples():
    f2 = tree_counts(2, 4)
    assert f2[1] == 1
    assert f2[3] == 2
    assert f2[4] == 1
    for k in range(0, 6):
        assert tree_counts(k, 3)[1] == 1


def test_tree_counts_refuse_negative_arguments():
    for k, n in ((-1, 3), (2, -1)):
        with pytest.raises(ValueError, match="k and max_leaves must be nonnegative"):
            tree_counts(k, n)


def test_tree_counts_support_bound():
    f3 = tree_counts(3, 12)
    assert all(f3[l] == 0 for l in range(9, 13))  # 2^3 = 8 leaves max
    assert f3[8] == 1


def test_tree_counts_vs_enumeration():
    from tree_pairs import enumerate_trees

    for k in range(0, 4):
        f = tree_counts(k, 9)
        for l in range(1, 10):
            assert f[l] == len(enumerate_trees(l, k)), (k, l)


def test_unbinding_cap_takes_the_catalan_numbers():
    # the level loop over every height, as tree_counts ran it for all caps;
    # f[l] does not depend on the leaf budget, so one loop serves every n
    top = 60
    ref = [0, 1]
    for h in range(1, top):
        ref = [0, 1] + [sum(ref[i] * ref[l - i] for i in range(max(1, l - len(ref) + 1),
                                                                min(l, len(ref))))
                        for l in range(2, min(top, 2 ** h) + 1)]
    for n in range(0, top + 1):
        for k in (max(n - 1, 0), n, 2 * n + 3):
            assert tree_counts(k, n) == ref[:n + 1], (k, n)
    assert ref[1:] == [catalan(l) for l in range(top)]


def test_density_report_squares_each_value_once(monkeypatch):
    t = table(3, 40)
    squares = []
    square = counting._square_coef
    monkeypatch.setattr(counting, "_square_coef",
                        lambda P, m: squares.append((P is t.F, m)) or square(P, m))
    for symbols in (("x0", "x1", "xb1", "x2"), ("x0", "x1")):
        squares.clear()
        density_report(t, 40, symbols)
        # S[40], S[39] and [x^39] G^2 (|Y0|) once each
        assert sorted(squares) == [(False, 39), (True, 39), (True, 40)], symbols


def test_tree_counts_monotone_in_k():
    for l in range(1, 12):
        prev = 0
        for k in range(0, 6):
            cur = tree_counts(k, 12)[l]
            assert cur >= prev
            prev = cur


def test_bb_count_examples():
    assert bb_count(2, 1) == 3
    for n in range(1, 10):
        assert bb_count(n, 0) == n
    with pytest.raises(ValueError):
        bb_count(3, -1)


def test_bb_count_monotone_and_stable_when_cap_free():
    for n in range(1, 9):
        prev = 0
        for k in range(0, n + 2):
            cur = bb_count(n, k)
            assert cur >= prev
            prev = cur
        # cap k >= n-1 cannot bind: any tree with <= n leaves fits
        assert bb_count(n, max(1, n - 1)) == bb_count(n, n + 5)


def test_catalan_cross_checks():
    assert catalan(3) == 5
    # with a non-binding cap F = 1 + x F^2 is the Catalan series, so F[n]
    # counts unmarked forests and S[n] = (F^2)[n] = c_(n+1)
    for n in range(1, 9):
        t = CountTable(max(1, n - 1), n)
        assert t.F[n] == catalan(n)
        assert t.S(n) == catalan(n + 1)


def _conv(a, b, N):
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(N + 1)]


def _reference_trees(k, N):
    """f_k = x + f_(k-1)^2 with f_(-1) = 0, up to x^N."""
    if k < 0:
        return [0] * (N + 1)
    lower = _reference_trees(k - 1, N)
    f = _conv(lower, lower, N)
    f[1] += 1
    return f


def _reference(k, N):
    """Full arrays up to N: F = 1 + f F, S = F^2, M = S - F, and the series
    of forests accepting x1^-1 (h S), x2^-1 (f h S) and the Y0 series gg S."""
    f, lower = _reference_trees(k, N), _reference_trees(k - 1, N)
    F = [1] + [0] * N
    for n in range(1, N + 1):
        F[n] = sum(f[l] * F[n - l] for l in range(1, n + 1))
    S = _conv(F, F, N)
    M = [s - t for s, t in zip(S, F)]
    ax1 = _conv(_conv(lower, lower, N), S, N)
    ax2 = _conv(f, ax1, N)
    g = [a - b for a, b in zip(f, lower)]
    y0 = _conv(_conv(g, g, N), S, N) if k >= 1 else [0] * (N + 1)
    return F, S, M, ax1, ax2, y0


def _reference_F_G(k, N):
    """F and G = (f_k - f_(k-1)) F from the full-array reference, up to x^N."""
    F = _reference(k, N)[0]
    g = [a - b for a, b in zip(_reference_trees(k, N), _reference_trees(k - 1, N))]
    return F, _conv(g, F, N)


def test_tables_of_both_regimes_match_full_array_reference():
    # up to N = 160 the squaring circuit runs for k <= 9 and the convolution above
    for k in range(0, 13):
        F, G = _reference_F_G(k, 160)
        for N in (1, 2, 12, 40, 90, 159, 160):
            t = CountTable(k, N)
            assert (t.F, t.G) == (F[:N + 1], G[:N + 1]), (k, N)


def test_regime_rule_is_the_measured_crossover(monkeypatch):
    import tracemalloc

    convolved = []  # caps whose table convolved with the trees of lower height
    trees = counting.tree_counts
    monkeypatch.setattr(counting, "tree_counts",
                        lambda k, n: convolved.append(k + 1) or trees(k, n))
    # 2^10 <= 363^2 / 128 = 1029.4, but 2^10 > 362^2 / 128 = 1023.8 and 300^2 / 128
    for k, n_max in ((10, 363), (10, 362), (10, 300), (9, 300), (1, 16), (1, 15)):
        CountTable(k, n_max)
    assert convolved == [10, 10, 1]
    tracemalloc.start()
    try:
        CountTable(10 ** 9, 60)  # the cap cannot bind; 2^k would take 125 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20 and convolved[-1] == 61


@pytest.mark.parametrize("k,n,mib", [
    (1, 99999999999, "2,384,185,798,692,704"),  # the series alone
    (25, 65536, "1,052,165"),  # the circuit's 2^26 registers: 2^25 <= 65536^2 / 128
    (40, 46182, "1,025"),  # the convolution's four series
])
def test_table_past_the_memory_bound_is_refused_before_any_build(monkeypatch, k, n, mib):
    built = []
    monkeypatch.setattr(counting, "CountTable", lambda k, n: built.append((k, n)))
    with pytest.raises(ValueError, match=f"^building the count table for k = {k} up to "
                                         f"n = {n} leaves takes up to {mib} MiB, past the "
                                         "bound of 1,024 MiB$"):
        counting.table(k, n)
    assert built == []
    counting.table(40, 46181)  # the largest convolved table that fits
    assert built == [(40, 46181)]


@pytest.mark.parametrize("k,n,mib", [
    (3, 2100, 2),  # F and G alone, 2 n (n + 320) bits
    (12, 1000, 3),  # the circuit's 2^13 registers
])
def test_table_past_a_lowered_bound_is_refused(monkeypatch, k, n, mib):
    monkeypatch.setattr(cayley, "MAX_MIB", 1)  # 8,388,608 bits
    with pytest.raises(ValueError, match=f"^building the count table for k = {k} up to "
                                         f"n = {n} leaves takes up to {mib} MiB, past the "
                                         "bound of 1 MiB$"):
        table(k, n)
    assert table(k, n // 2).n_max == n // 2


def test_tables_hold_only_their_series():
    for k in (10, 11, 12):  # all three run the circuit at 900 leaves
        t = table(k, 900)
        assert vars(t).keys() == {"k", "F", "G", "n_max"}, k
        assert len(t.F) == len(t.G) == t.n_max + 1 == 901, k


def test_counts_match_full_array_reference():
    N = 120
    for k in range(0, 9):
        F, S, M, ax1, ax2, y0 = _reference(k, N)
        t = table(k, N)  # every n reads the one table
        for n in range(1, N + 1):
            rec = density_report(t, n, ("x0", "x1", "xb1", "x2"))
            assert rec.size == t.marked(n) == M[n], (n, k)
            assert t.y0(n) == y0[n - 1], (n, k)
            assert rec.p == Fraction(y0[n - 1], M[n]), (n, k)
            assert rec.nu == {
                "x0": F[n], "x0^-1": F[n],
                "x1": S[n - 1], "x1^-1": M[n] - ax1[n],
                "xb1": S[n - 1], "xb1^-1": M[n] - ax1[n],
                "x2": F[n] + M[n - 1], "x2^-1": M[n] - ax2[n],
            }, (n, k)
            assert rec.xi == (Fraction(M[n - 1], M[n]) if n >= 2 else None), (n, k)


@pytest.mark.parametrize("k,n_max,n", [
    (9, 300, 100),  # 2^9 <= 300^2 / 128: the circuit; above 100^2 / 128: convolution
    (9, 300, 1),  # xi is None at n = 1
    (0, 40, 1),
    (3, 90, 57),
])
def test_record_off_a_larger_table_equals_the_record_at_n(k, n_max, n):
    symbols = ("x0", "x1", "xb1", "x2")
    big, own = table(k, n_max), table(k, n)
    assert big.n_max == n_max and own.n_max == n
    rec = density_report(big, n, symbols)
    assert rec == density_report(own, n, symbols)
    assert (rec.xi is None) == (n == 1)
    for m in (0, n_max + 1):
        with pytest.raises(ValueError, match=f"n = {m} is outside the table's 1..{n_max} leaves"):
            density_report(big, m, symbols)


def test_dp_equals_enumeration_full_grid():
    symbols = ("x0", "x1", "xb1", "x2")
    for n, k in itertools.product(range(1, 9), range(0, 4)):
        members = forest_ref.enumerate_bb(n, k)
        assert bb_count(n, k) == len(members)
        assert table(k, n).y0(n) == len(forest_ref.find_y0(n, k))
        dp = nu_counts(n, k, symbols)
        for letter, count in dp.items():
            rejected = sum(1 for f in members if forest_ref.act(letter, f, k) is None)
            assert count == rejected, (n, k, letter)


def test_nu_examples():
    nu = nu_counts(2, 1, ("x0", "x1"))
    assert nu["x0"] == 2
    assert nu["x1"] == 2
    assert nu["x1^-1"] == 2


def test_nu_symmetric_property_dp():
    for n, k in itertools.product((4, 6, 8, 12, 30), (0, 1, 2, 3, 5)):
        nu = nu_counts(n, k, ("x0", "x1", "xb1", "x2"))
        for s in ("x0", "x1", "xb1", "x2"):
            assert nu[s] == nu[s + "^-1"], (n, k, s)


def test_nu_multiset_symbols():
    nu = nu_counts(4, 2, ("x1", "xb1", "x0", "x0@2"))
    assert nu["x0"] == nu["x0@2"]
    assert nu["x0^-1"] == nu["x0@2^-1"]


def test_nu_rejects_unknown():
    with pytest.raises(ValueError):
        nu_counts(3, 1, ("x7",))


def test_y0_examples():
    assert table(1, 5).y0(5) == 1
    assert table(1, 4).y0(4) == 0  # needs two height-1 neighbours plus the marked dot
    t = table(0, 8)
    for n in range(1, 9):
        assert t.y0(n) == 0


def test_density_report_identity_and_fields():
    t = table(2, 6)
    rec = density_report(t, 6, ("x0", "x1", "xb1"))
    assert rec.density + rec.iota == 6
    assert rec.size == bb_count(6, 2) == t.marked(6)
    assert rec.p == Fraction(t.y0(6), t.marked(6))
    assert rec.xi == Fraction(t.marked(5), t.marked(6))
    obj = rec.as_obj()
    assert obj["delta"] == str(rec.density)
    assert Fraction(obj["iota"]) == rec.iota


def test_density_report_refuses_symbols_that_are_not_an_alphabet():
    # two copies of one symbol would count one letter's boundary for both
    with pytest.raises(ValueError, match="alphabet symbols must be distinct"):
        density_report(table(2, 6), 6, ("x0", "x0"))


def test_xi_k0_is_harmonic():
    t = table(0, 11)
    for n in range(2, 12):
        assert density_report(t, n, ("x0",)).xi == Fraction(n - 1, n)


def test_xi_diagnostics_shrink():
    d_small = xi_diagnostics(2, 60)
    d_large = xi_diagnostics(2, 240)
    assert d_large["gap"] < d_small["gap"]
    assert d_large["xi"] > Fraction(1, 4)


def test_xi_decreasing_in_k():
    values = [density_report(table(k, 400), 400, ("x0",)).xi for k in range(2, 7)]
    for a, b in zip(values, values[1:]):
        assert b < a
    assert all(v > Fraction(1, 4) for v in values)


def test_trimmed_density_matches_explicit_removal():
    for n, k in itertools.product(range(1, 9), range(1, 4)):
        aut = forests.bb_automaton(n, k, make_alphabet("x0,x1,xb1"))
        y0 = {f.enc for f in forest_ref.find_y0(n, k)}
        tr = trimmed_density(n, k)
        if y0 == set(aut.keys):
            continue  # nothing left after trimming
        sub = restrict(aut, [v for v in aut.keys if v not in y0])
        assert boundary_report(sub).density == tr.trimmed_density, (n, k)


def test_trimmed_density_reduces_to_delta_without_y0():
    tr = trimmed_density(4, 1)  # |Y0(4, 1)| = 0
    assert tr.p == 0
    assert tr.trimmed_density == tr.density
    assert tr.iota_star_bound == 6 - tr.density


def test_trimming_constants():
    consts = trimming_constants()
    assert consts["p0"] == Fraction(1, 260)
    assert consts["eps"] == Fraction(1, 520)
    assert consts["iota_bound"] == Fraction(517, 518)
    # generic symbolic form
    other = trimming_constants(p0=Fraction(1, 10), eps=Fraction(1, 20))
    assert other["iota_bound"] == 1 - Fraction(1, 20) / Fraction(9, 10)


def test_rebuilt_table_equals_fresh_table():
    for k in (0, 1, 3, 6, 8, 10, 50):
        old = table(k, 1)
        for n_max in (2, 5, 37, 100, 100):  # every call builds a new table
            t = table(k, n_max)
            fresh = CountTable(k, n_max)
            assert t is not old and t.n_max == fresh.n_max == n_max
            assert (t.F, t.G) == (fresh.F, fresh.G), (k, n_max)
            old = t
