"""Balls of groups whose boundary counts are theorems, through the same
`Automaton`, `boundary_report` and evacuation solver as F."""

import pytest

from fcayley import evac
from fcayley.cayley import GenAlphabet, boundary_report
from known_groups import free_ball, lamp_box, z2_ball

AB = GenAlphabet(("a", "b"))


@pytest.mark.parametrize("r", range(1, 6))
def test_free_group_ball(r):
    # B_r of F2 is a tree: 4*3^(r-1) elements at distance r, each with three
    # edges out, so h = 2 + 2/|B_r| > 2 and K = 1 evacuates it
    aut = free_ball(r, AB)
    rep = boundary_report(aut)
    assert (rep.size, rep.cheeger, rep.outer_boundary) == (2 * 3**r - 1, 4 * 3**r, 4 * 3**r)
    res = evac.solve_with_constant(aut, 1)
    assert res.exists
    evac.validate_scheme(aut, res.scheme)


@pytest.mark.parametrize("r", range(1, 6))
def test_z2_ball(r):
    # the l1 ball of Z^2: 4j elements at distance j >= 1, and 8r + 4 edges out
    # of the diamond; no evac verdict is pinned: the free model answers
    # "exists" at K = 1 on r = 3, which a capped search refutes
    rep = boundary_report(z2_ball(r, AB))
    assert (rep.size, rep.cheeger, rep.outer_boundary) == (2 * r * r + 2 * r + 1, 8 * r + 4,
                                                           4 * (r + 1))


@pytest.mark.parametrize("n", range(6))
def test_lamplighter_box(n):
    # 2^(n+1) lamp sets times n + 1 positions; only t leaves the box, at
    # p = n, and t^-1, at p = 0, to 2^(n+2) distinct elements; no evac
    # verdict is pinned: the free model answers "exists" at K = 1 for
    # n <= 3, but for n = 2, 3 the capped criterion needs K >= ceil((n + 1) / 2) = 2
    rep = boundary_report(lamp_box(n, AB))
    assert (rep.size, rep.cheeger, rep.outer_boundary) == ((n + 1) * 2 ** (n + 1), 2 ** (n + 2),
                                                           2 ** (n + 2))
