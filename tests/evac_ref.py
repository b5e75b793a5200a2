"""Evacuation helpers that no subcommand runs, for tests.

`fcayley.evac` keeps the solver, the scheme format and validator and the
certificate checker.  This module keeps what the tests check them with:

- the brute-force subset oracle for the Hall condition, which shares no
  code with the flow solver;
- psi relations (a scheme's used edges, reversed), which are a flow by
  another name: `relation_to_scheme` peels one with the solver's own path
  walker, so a round trip tests that walker;
- the conjugation relabelling {x0, x1, x2} -> multiset {x1, xb1, x0, x0}
  and its capacity check.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from cayley_ref import base_symbol, letter_inverse, letter_symbol
from fcayley.cayley import INV, Automaton
from fcayley.evac import (
    Edge,
    EvacScheme,
    SchemeValidationError,
    Witness,
    _paths,
)


def edge_usage(scheme: EvacScheme) -> Counter[Edge]:
    return Counter(e for path in scheme.paths.values() for e in path)


# ---------------------------------------------------------------------------
# Brute-force Hall oracle


def hall_oracle(aut: Automaton, K: int = 1, guard: int = 20) -> Witness | None:
    """Exhaustive subset check of the Hall condition; None means a scheme exists.

    Enumerates every nonempty subset of internal vertices, so it is deliberately
    independent of the flow solver.  Guarded exponential: at most `guard`
    internal vertices.
    """
    boundary, tgt, d = aut.boundary_flags(), aut.tgt, 2 * aut.alphabet.m
    internal = [v for v, b in enumerate(boundary) if not b]
    if len(internal) > guard:
        raise ValueError(f"{len(internal)} internal vertices exceed the oracle guard {guard}")
    # per internal vertex, its targets among internal vertices and the number
    # of its (all accepted) slots that target boundary vertices of Y
    pos = {v: i for i, v in enumerate(internal)}
    targets = [[pos[w] for w in tgt[v * d:v * d + d] if w in pos] for v in internal]
    fixed_out = [d - len(tl) for tl in targets]
    for mask in range(1, 1 << len(internal)):
        members = [i for i in range(len(internal)) if mask >> i & 1]
        out = 0
        for i in members:
            out += fixed_out[i] + sum(not mask >> j & 1 for j in targets[i])
        if K * out < len(members):
            return Witness(Z=tuple(aut.keys[internal[i]] for i in members), cheeger=out)
    return None


# ---------------------------------------------------------------------------
# Psi relations (reversed-arrow multi-valued partial functions)


# Ordered pairs <head, tail> of used edges; index = #preimages - #images
PsiRelation = namedtuple("PsiRelation", "pairs index")


def scheme_to_relation(scheme: EvacScheme) -> PsiRelation:
    """Reverse every used edge: pair (head, tail) maps head back to tail.

    index(v) = edges leaving v in paths minus edges entering v; the indexes
    sum to zero on a finite automaton.
    """
    pairs = []
    index: dict[str, int] = {v: 0 for v in scheme.paths}
    for path in scheme.paths.values():
        for (u, a, w) in path:
            pairs.append((w, u))
            index[u] = index.get(u, 0) + 1   # u gains a preimage entry
            index[w] = index.get(w, 0) - 1   # w gains an image entry
    return PsiRelation(pairs=tuple(sorted(pairs)), index=index)


def relation_to_scheme(aut: Automaton, pairs, sinks=None) -> EvacScheme:
    """Peel a psi relation into a path from every vertex to a sink.

    A pair (head, tail) is one unit of flow on the first slot of tail that
    targets head.  Every non-sink vertex needs index >= 1 (preimages minus
    images); sinks default to the inner boundary.  The solver's walker peels
    the flow: a vertex with several usable arcs takes the first in slot order,
    and a chain that meets itself has the loop cut out.  K is the largest
    pair multiplicity, which bounds edge usage.
    """
    index, tgt, d = aut.index, aut.tgt, 2 * aut.alphabet.m
    sink = aut.boundary_flags() if sinks is None else [False] * len(aut.keys)
    for v in sinks or ():
        if v not in index:
            raise ValueError(f"sink {v!r} is not a vertex")
        sink[index[v]] = True
    f = [0] * len(tgt)
    excess = [0] * len(aut.keys)  # the index of each vertex
    for head, tail in pairs:
        if head not in index or tail not in index:
            raise ValueError(f"pair ({head!r}, {tail!r}) mentions unknown vertices")
        h, t = index[head], index[tail]
        row = tgt[t * d:t * d + d]
        if h not in row:
            raise ValueError(f"pair ({head!r}, {tail!r}) spans no edge {tail!r} -> {head!r}")
        f[t * d + row.index(h)] += 1
        excess[t] += 1
        excess[h] -= 1
    for v, x, is_sink in zip(aut.keys, excess, sink):
        if x < 1 and not is_sink:
            raise ValueError(f"vertex {v!r} has index {x} < 1 and is not a sink")
    return EvacScheme(K=max(1, max(f)), paths=_paths(aut, f, sink))


# ---------------------------------------------------------------------------
# Conjugation relabelling {x0, x1, x2} -> multiset {x1, xb1, x0, x0}


def conjugate_relabel(scheme: EvacScheme, aut: Automaton) -> EvacScheme:
    """Push a pure {x0, x1, x2} scheme through conjugation by x0^-1.

    Labels map x0 -> x0, x1 -> (x0 then xb1), x2 -> x1, with inverses
    mirrored.  Conjugated vertices keep their old keys; the x0-leg of an x1
    image ends at the old x0-neighbour when that vertex exists, otherwise at
    a synthetic midpoint key.  The images of a vertex's x0-edge and x1-edge
    share one new x0 geometric edge, which is why the doubled symbol is
    needed: each such edge is traversed at most twice and the two traversals
    get the two formal x0 copies.
    """
    if scheme.K != 1:
        raise ValueError("relabelling is defined for pure schemes")
    if set(base_symbol(s) for s in aut.alphabet.symbols) != {"x0", "x1", "x2"}:
        raise ValueError("scheme must live over the alphabet {x0, x1, x2}")

    index, tgt, d = aut.index, aut.tgt, 2 * aut.alphabet.m
    x0 = aut.alphabet.symbols.index("x0")

    def after_x0(u: str) -> str:
        w = tgt[index[u] * d + x0]
        return aut.keys[w] if w >= 0 else u + "#x0"

    # assign formal x0 copies per new geometric x0-edge, identified by the
    # old vertex u owning the edge {u, after_x0(u)}
    copy_counter: dict[str, int] = {}

    def x0_letter(u: str, forward: bool) -> str:
        n = copy_counter[u] = copy_counter.get(u, 0) + 1
        if n > 2:
            raise SchemeValidationError(f"new x0 edge at {u!r} would be used {n} > 2 times")
        sym = "x0" if n == 1 else "x0@2"
        return sym if forward else sym + INV

    new_paths: dict[str, tuple[Edge, ...]] = {}
    for v in sorted(scheme.paths):
        new_path: list[Edge] = []
        for (u, a, w) in scheme.paths[v]:
            sign = -1 if a.endswith(INV) else 1
            sym = base_symbol(letter_symbol(a))
            if sym == "x0":
                new_path.append((u, x0_letter(u if sign == 1 else w, sign == 1), w))
            elif sym == "x2":
                new_path.append((u, "x1" if sign == 1 else "x1" + INV, w))
            elif sym == "x1" and sign == 1:
                mid = after_x0(u)
                new_path += [(u, x0_letter(u, True), mid), (mid, "xb1", w)]
            elif sym == "x1":
                mid = after_x0(w)
                new_path += [(u, "xb1" + INV, mid), (mid, x0_letter(w, False), w)]
            else:
                raise ValueError(f"letter {a!r} outside the {{x0, x1, x2}} alphabet")
        new_paths[v] = tuple(new_path)
    return EvacScheme(K=1, paths=new_paths)


def validate_relabelled(scheme: EvacScheme) -> None:
    """Multiset capacity check: every x1/xb1 directed edge used at most once,
    both formal x0 copies used at most once each, no edge together with its
    inverse."""
    usage = edge_usage(scheme)
    for e, count in usage.items():
        if count > 1:
            raise SchemeValidationError(f"edge {e!r} used {count} times in a pure scheme")
        u, a, w = e
        if (w, letter_inverse(a), u) in usage:
            raise SchemeValidationError(f"edge {e!r} used together with its inverse")
        if base_symbol(letter_symbol(a)) not in ("x0", "x1", "xb1"):
            raise SchemeValidationError(f"letter {a!r} outside the multiset alphabet")
    # geometric x0 pairs: at most two traversals across both copies
    geo: Counter[frozenset] = Counter()
    for (u, a, w), count in usage.items():
        if base_symbol(letter_symbol(a)) == "x0":
            geo[frozenset((u, w))] += count  # {u} for a loop
    for key, count in geo.items():
        if count > 2:
            raise SchemeValidationError(
                f"x0 geometric edge {set(key)} traversed {count} > 2 times")


def label_use_counts(scheme: EvacScheme) -> dict[str, int]:
    """Signed per-label usage totals, multiset copies folded together."""
    return dict(Counter(base_symbol(letter_symbol(a)) + (INV if a.endswith(INV) else "")
                        for path in scheme.paths.values() for (u, a, w) in path))
