"""Evacuation schemes on finite automata.

A scheme with constant K assigns every vertex a path inside the automaton
ending on the inner boundary, with every directed edge used at most K times
over all paths.  K = 1 is the pure case; there each used edge excludes its
inverse and paths are simple.

Existence is equivalent to a Hall-type condition: every nonempty set Z of
internal vertices must emit at least |Z|/K directed edges.  The solver
routes one unit per internal vertex along augmenting paths of a capacity-K
flow on the Serre graph itself, and decomposes the flow into paths.  When
the residual search from a vertex v meets no boundary vertex, the set R it
reached is the witness: R holds only internal vertices, every arc out of R
is saturated and no arc into R carries flow, so K * |edges out of R| is the
number of units already routed out of R, at most |R| - 1 because v's unit
is not among them.  Every helper reads the integer core (`keys`, `index`,
`tgt`), never the `slots` rows.

The brute-force subset oracle, psi relations and the conjugation
relabelling, which no subcommand runs, are the test-only `tests/evac_ref.py`.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import compress

from .cayley import Automaton, AutomatonFormatError, GenAlphabet, is_edge_entry, letter_inverse

Edge = tuple[str, str, str]  # (source, letter, target)


class NoEvacuationTarget(ValueError):
    """Automaton with no boundary slots: nowhere to evacuate to."""


class SchemeValidationError(ValueError):
    pass


class EvacScheme(namedtuple("EvacScheme", "K paths")):
    """Per-vertex evacuation paths (vertex -> tuple of edges) with edge usage
    bounded by K."""

    __slots__ = ()

    def as_obj(self) -> dict:
        return {
            "K": self.K,
            "paths": {v: [list(e) for e in path]
                      for v, path in sorted(self.paths.items())},
        }


def scheme_from_obj(obj: dict) -> EvacScheme:
    try:
        K, raw = obj["K"], obj["paths"]
    except (KeyError, TypeError) as exc:
        raise AutomatonFormatError(f"bad scheme object: {exc}") from None
    if type(K) is not int or K < 1:  # a JSON integer; bools are not
        raise AutomatonFormatError(f"scheme K must be an integer >= 1, not {K!r}")
    if not (isinstance(raw, dict) and all(
            isinstance(path, (list, tuple)) and all(map(is_edge_entry, path))
            for path in raw.values())):
        raise AutomatonFormatError("scheme paths must map vertices to [u, letter, v] lists")
    paths = {v: tuple(tuple(e) for e in path) for v, path in raw.items()}
    return EvacScheme(K=K, paths=paths)


class Witness(namedtuple("Witness", "Z cheeger")):
    """Internal vertex set Z violating the Hall condition, and the number of
    directed edges leaving it."""

    __slots__ = ()

    def as_obj(self) -> dict:
        return {"Z": list(self.Z), "cheeger": self.cheeger}


SolveResult = namedtuple("SolveResult", "exists scheme witness")  # scheme or witness is None


def validate_scheme(aut: Automaton, scheme: EvacScheme) -> None:
    """Raise SchemeValidationError unless the scheme is a valid evacuation
    scheme on the automaton (purity conditions included when K = 1)."""
    keys, letters, index, tgt = aut.keys, aut.alphabet.letters(), aut.index, aut.tgt
    d, arc = len(letters), _arc_finder(aut)
    boundary = aut.boundary_flags()
    if set(scheme.paths) != set(keys):
        raise SchemeValidationError("scheme must assign a path to every vertex")
    usage = [0] * len(tgt)  # per arc number
    for v, path in scheme.paths.items():
        if not path:
            if not boundary[index[v]]:
                raise SchemeValidationError(
                    f"empty path at {v!r}, which is not a boundary vertex")
            continue
        cur, seen = v, {v}
        for (u, a, w) in path:
            if u != cur:
                raise SchemeValidationError(f"path of {v!r} breaks at {u!r}")
            e = arc(u, a, w)
            if e < 0:
                raise SchemeValidationError(
                    f"path of {v!r} uses a non-edge ({u!r}, {a!r}, {w!r})")
            if scheme.K == 1 and w in seen:
                raise SchemeValidationError(f"path of {v!r} revisits {w!r}")
            seen.add(w)
            usage[e] += 1
            cur = w
        if not boundary[index[cur]]:
            raise SchemeValidationError(
                f"path of {v!r} ends at {cur!r}, not on the inner boundary")
    for e in compress(range(len(usage)), usage):  # the arcs in use
        u, a, w = keys[e // d], letters[e % d], tgt[e]
        if usage[e] > scheme.K:
            raise SchemeValidationError(
                f"edge {(u, a, keys[w])!r} used {usage[e]} > K = {scheme.K} times")
        if scheme.K == 1 and usage[w * d + (e + d // 2) % d]:
            raise SchemeValidationError(f"pure scheme uses both ({u!r}, {a!r}) and its inverse")


def _arc_finder(aut: Automaton):
    """(u, a, w) -> arc number of that edge, or -1 for a non-edge or an
    unknown u, a or w: tgt[index[u] * 2m + slot[a]] == index[w]."""
    index, tgt = aut.index, aut.tgt
    slot = {a: j for j, a in enumerate(aut.alphabet.letters())}

    def arc(u, a, w) -> int:
        e = index[u] * len(slot) + slot[a] if u in index and a in slot else -1
        return e if e >= 0 and tgt[e] == index.get(w) else -1
    return arc


# ---------------------------------------------------------------------------
# Solver: unit augmenting paths on the Serre graph


def solve_with_constant(aut: Automaton, K: int) -> SolveResult:
    """Evacuation scheme with edge capacity K, or a Hall witness when none exists.

    Arc e = v * 2m + j is slot j of vertex v and aut.tgt[e] its target (-1
    for a boundary slot); the Serre pairing makes (tgt[e], (j + m) mod 2m)
    its inverse.  One antisymmetric flow f[e] = -f[inv e] carries the units, so
    an arc has residual capacity K - f[e] and never shares flow with its
    inverse.  Internal vertices, in key order, route their unit along a
    shortest residual path to the boundary.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    keys, tgt, d = aut.keys, aut.tgt, 2 * aut.alphabet.m
    is_boundary = aut.boundary_flags()
    if not any(is_boundary):
        raise NoEvacuationTarget("automaton has no boundary slots")
    f = [0] * len(tgt)
    for s in range(len(keys)):
        if is_boundary[s]:
            continue
        reached, end = _search(tgt, f, K, d, is_boundary, s)
        if end < 0:
            Z = tuple(keys[u] for u in sorted(reached))
            witness = Witness(Z=Z, cheeger=cheeger_out(aut, set(Z)))
            if not K * witness.cheeger < len(Z):
                raise AssertionError("witness fails the Hall inequality: "
                                     f"{K} * {witness.cheeger} >= {len(Z)}")
            return SolveResult(False, None, witness)
        while end != s:  # one unit along the path, back from its end
            e = reached[end]
            end = e // d
            f[e] += 1
            f[tgt[e] * d + (e + d // 2) % d] -= 1
    scheme = EvacScheme(K=K, paths=_paths(aut, f, is_boundary))
    validate_scheme(aut, scheme)
    return SolveResult(True, scheme, None)


def _search(tgt, f, K, d, is_boundary, s) -> tuple[dict[int, int], int]:
    """Breadth-first search from s through arcs with f[e] < K.

    Returns the reached vertices, each mapped to the arc it was first
    reached by, and the first boundary vertex met, or -1 when there is none.
    """
    reached = {s: -1}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for e in range(u * d, u * d + d):
            w = tgt[e]
            if w >= 0 and f[e] < K and w not in reached:
                reached[w] = e
                if is_boundary[w]:
                    return reached, w
                queue.append(w)
    return reached, -1


def _paths(aut: Automaton, f, sink) -> dict[str, tuple[Edge, ...]]:
    """Every vertex's path, as edge triples, along the flow f (consumed) to
    the vertices flagged in `sink`; a sink's own path is empty."""
    keys, letters, tgt, d = aut.keys, aut.alphabet.letters(), aut.tgt, 2 * aut.alphabet.m
    return {keys[s]: tuple((keys[e // d], letters[e % d], keys[tgt[e]])
                           for e in _walk(tgt, f, d, sink, s))
            for s in range(len(keys))}


def _walk(tgt, f, d, sink, s) -> list[int]:
    """Arcs of one unit's path from s to a sink, consuming the flow.

    A vertex that is no sink sends out at least one unit more than it
    receives, until its own walk, so a walk can only stop on a sink (for the
    solver, the boundary).  Loops met along a walk are excised (dropping that
    circulation only lowers edge usage), so every path comes out simple.
    """
    path: list[int] = []
    depth = {s: 0}
    u = s
    while not sink[u]:
        e = next((e for e in range(u * d, u * d + d) if f[e] > 0), None)
        if e is None:
            raise AssertionError("flow decomposition stuck; conservation broken")
        f[e] -= 1
        u = tgt[e]
        if u in depth:
            del path[depth[u]:]
            depth = {x: i for x, i in depth.items() if i <= depth[u]}
        else:
            path.append(e)
            depth[u] = len(path)
    return path


# ---------------------------------------------------------------------------
# Hall witnesses


def cheeger_out(aut: Automaton, zset: set[str]) -> int:
    """Directed edges from zset to its complement (inside or outside Y)."""
    d, index, tgt = 2 * aut.alphabet.m, aut.index, aut.tgt
    z = {index[v] for v in zset}
    return sum(w not in z for i in z for w in tgt[i * d:i * d + d])


# ---------------------------------------------------------------------------
# Flow certificates (non-amenability lower bounds)


# Constants C and eps, the flow on internal directed edges (each listed edge,
# then its inverse) and the inflow per boundary vertex, summed over its slots
FlowCertificate = namedtuple("FlowCertificate", "C eps flow boundary_inflow")


# bound is eps / C and inequality_holds is eps |Y| <= C |cheeger boundary|,
# both None unless accepted
CertificateVerdict = namedtuple("CertificateVerdict",
                                "accepted failures bound inequality_holds")


def _fraction(x) -> Fraction:
    """A rational from a JSON string ("1/3", "0.5") or integer, never a float
    and never exponent notation, as "1e100000000" would expand to 10^100000000."""
    from fractions import Fraction

    # a bool is not an int here
    if type(x) is int or (type(x) is str and "e" not in x.lower()):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise AutomatonFormatError(f"bad rational value {x!r}")


def certificate_from_obj(aut: Automaton, obj: dict) -> FlowCertificate:
    if not (isinstance(obj, dict) and "C" in obj and "eps" in obj):
        raise AutomatonFormatError("certificate must be an object with C and eps")
    entries = obj.get("flow", [])
    binflow = obj.get("boundary_inflows", {})
    if not (isinstance(entries, list) and isinstance(binflow, dict)):
        raise AutomatonFormatError(
            "certificate flow must be a list and boundary_inflows an object")
    flow: dict[Edge, Fraction] = {}
    arc = _arc_finder(aut)
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4 and is_edge_entry(entry[:3])):
            raise AutomatonFormatError(f"bad flow entry {entry!r}")
        u, a, w, val = entry
        val = _fraction(val)
        if arc(u, a, w) < 0:
            raise AutomatonFormatError(f"flow on non-edge ({u!r}, {a!r}, {w!r})")
        einv = (w, letter_inverse(a), u)
        for key, v in (((u, a, w), val), (einv, -val)):
            if key in flow and flow[key] != v:
                raise AutomatonFormatError(
                    f"antisymmetry violation on edge {key!r}: {flow[key]} vs {v}")
            flow[key] = v
    return FlowCertificate(C=_fraction(obj["C"]), eps=_fraction(obj["eps"]), flow=flow,
                           boundary_inflow={v: _fraction(x) for v, x in binflow.items()})


def verify_flow_certificate(aut: Automaton, cert: FlowCertificate) -> CertificateVerdict:
    """Check a flow certificate; on acceptance report the bound eps/C.

    Every directed-edge flow (and, summed per vertex, every boundary slot)
    must respect |f| <= C, and every vertex must take inflow at least eps.
    An accepted certificate forces eps |Y| <= C |cheeger(Y)|, which is also
    verified exactly.
    """
    keys, letters, tgt = aut.keys, aut.alphabet.letters(), aut.tgt
    d = len(letters)
    failures: list[str] = []
    if cert.C <= 0 or cert.eps <= 0:
        failures.append("constants C and eps must be positive")
    boundary_slots = {v: tgt[i * d:i * d + d].count(-1) for i, v in enumerate(keys)}
    for v in cert.boundary_inflow:
        if v not in boundary_slots:
            failures.append(f"boundary inflow for unknown vertex {v!r}")
        elif boundary_slots[v] == 0:
            failures.append(f"boundary inflow for internal vertex {v!r}")
    over: set[Edge] = set()  # each edge once, in the direction listed first
    for (u, a, w), val in cert.flow.items():
        if abs(val) > cert.C and (w, letter_inverse(a), u) not in over:
            over.add((u, a, w))
            failures.append(f"|f| = {abs(val)} > C on edge ({u!r}, {a!r}, {w!r})")
    for v, val in cert.boundary_inflow.items():
        if v in boundary_slots and boundary_slots[v] > 0 and abs(val) > cert.C * boundary_slots[v]:
            failures.append(
                f"boundary inflow {val} at {v!r} exceeds C * {boundary_slots[v]} slots")
    if not failures:
        for i, v in enumerate(keys):
            inflow = cert.boundary_inflow.get(v, 0)
            for j, w in enumerate(tgt[i * d:i * d + d]):
                if w >= 0:
                    # edge arriving at v is the inverse of v's own slot edge
                    inflow += cert.flow.get((keys[w], letters[(j + d // 2) % d], v), 0)
            if inflow < cert.eps:
                failures.append(f"inflow {inflow} < eps at vertex {v!r}")
    if failures:
        return CertificateVerdict(accepted=False, failures=tuple(failures),
                                  bound=None, inequality_holds=None)
    from .cayley import boundary_report

    rep = boundary_report(aut)
    ineq = cert.eps * rep.size <= cert.C * rep.cheeger
    return CertificateVerdict(accepted=True, failures=(),
                              bound=cert.eps / cert.C, inequality_holds=ineq)


# ---------------------------------------------------------------------------
# Canonical test instances


def blocked_chain_automaton() -> Automaton:
    """Three internal vertices chained behind one doubled geometric edge.

    Z = {u1, u2, u3} emits only the two b-labelled edges from u3 to the
    boundary vertex z, so 2 < 3 blocks a pure scheme; capacity 2 suffices.
    (Serre pairing makes the count of edges leaving an internal set even, so
    this is the smallest shape of counterexample.)
    """
    al = GenAlphabet(("a", "b"))
    slots = {
        "u1": {"a": "u1", "a^-1": "u1", "b": "u2", "b^-1": "u2"},
        "u2": {"b": "u1", "b^-1": "u1", "a": "u3", "a^-1": "u3"},
        "u3": {"a": "u2", "a^-1": "u2", "b": "z", "b^-1": "z"},
        "z": {"b": "u3", "b^-1": "u3", "a": None, "a^-1": None},
    }
    return Automaton(al, slots)
