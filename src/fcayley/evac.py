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
is not among them.  The brute-force subset oracle checks the condition
independently of the flow route.
"""

from __future__ import annotations

import json
from collections import deque, namedtuple
from fractions import Fraction

from .cayley import (
    INV,
    Automaton,
    AutomatonFormatError,
    GenAlphabet,
    base_symbol,
    is_edge_entry,
    letter_inverse,
    letter_symbol,
)

Edge = tuple[str, str, str]  # (source, letter, target)


class NoEvacuationTarget(ValueError):
    """Automaton with no boundary slots: nowhere to evacuate to."""


class SchemeValidationError(ValueError):
    pass


class EvacScheme(namedtuple("EvacScheme", "K paths")):
    """Per-vertex evacuation paths (vertex -> tuple of edges) with edge usage
    bounded by K."""

    __slots__ = ()

    def edge_usage(self) -> dict[Edge, int]:
        usage: dict[Edge, int] = {}
        for path in self.paths.values():
            for e in path:
                usage[e] = usage.get(e, 0) + 1
        return usage

    def as_obj(self) -> dict:
        return {
            "K": self.K,
            "paths": {v: [list(e) for e in path]
                      for v, path in sorted(self.paths.items())},
        }


def scheme_from_obj(obj: dict) -> EvacScheme:
    try:
        K = int(obj["K"])
        raw = obj["paths"]
    except (KeyError, TypeError, ValueError) as exc:
        raise AutomatonFormatError(f"bad scheme object: {exc}") from None
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
    index, tgt, d = aut.index, aut.tgt, 2 * aut.alphabet.m
    slot = {a: j for j, a in enumerate(aut.alphabet.letters())}
    boundary = aut.boundary_flags()
    if set(scheme.paths) != set(aut.keys):
        raise SchemeValidationError("scheme must assign a path to every vertex")
    for v, path in scheme.paths.items():
        if not path:
            if not boundary[index[v]]:
                raise SchemeValidationError(
                    f"empty path at {v!r}, which is not a boundary vertex")
            continue
        cur = v
        seen = {v}
        for (u, a, w) in path:
            if u != cur:
                raise SchemeValidationError(f"path of {v!r} breaks at {u!r}")
            if a not in slot or w not in index or tgt[index[u] * d + slot[a]] != index[w]:
                raise SchemeValidationError(
                    f"path of {v!r} uses a non-edge ({u!r}, {a!r}, {w!r})")
            if scheme.K == 1 and w in seen:
                raise SchemeValidationError(f"path of {v!r} revisits {w!r}")
            seen.add(w)
            cur = w
        if not boundary[index[cur]]:
            raise SchemeValidationError(
                f"path of {v!r} ends at {cur!r}, not on the inner boundary")
    usage = scheme.edge_usage()
    for e, count in usage.items():
        if count > scheme.K:
            raise SchemeValidationError(f"edge {e!r} used {count} > K = {scheme.K} times")
    if scheme.K == 1:
        for (u, a, w) in usage:
            if (w, letter_inverse(a), u) in usage:
                raise SchemeValidationError(
                    f"pure scheme uses both ({u!r}, {a!r}) and its inverse")


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
    keys, letters, tgt = aut.keys, aut.alphabet.letters(), aut.tgt
    d = len(letters)
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
    paths = {keys[s]: tuple((keys[e // d], letters[e % d], keys[tgt[e]])
                            for e in _walk(tgt, f, d, is_boundary, s))
             for s in range(len(keys))}
    scheme = EvacScheme(K=K, paths=paths)
    validate_scheme(aut, scheme)
    return SolveResult(True, scheme, None)


def solve_pure(aut: Automaton) -> SolveResult:
    """Pure (K = 1) evacuation scheme or a witness Z with |edges out of Z| < |Z|."""
    return solve_with_constant(aut, 1)


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


def _walk(tgt, f, d, is_boundary, s) -> list[int]:
    """Arcs of one unit's path from s to the boundary, consuming the flow.

    An internal vertex sends out one unit more than it receives and a
    boundary vertex sends out none, so a walk can only stop on the boundary.
    Loops met along a walk are excised (dropping that circulation only lowers
    edge usage), so every path comes out simple.
    """
    path: list[int] = []
    depth = {s: 0}
    u = s
    while not is_boundary[u]:
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
# Brute-force Hall oracle


def cheeger_out(aut: Automaton, zset: set[str]) -> int:
    """Directed edges from zset to its complement (inside or outside Y)."""
    d, index, tgt = 2 * aut.alphabet.m, aut.index, aut.tgt
    z = {index[v] for v in zset}
    return sum(w not in z for i in z for w in tgt[i * d:i * d + d])


def hall_oracle(aut: Automaton, K: int = 1, guard: int = 20) -> Witness | None:
    """Exhaustive subset check of the Hall condition; None means a scheme exists.

    Enumerates every nonempty subset of internal vertices, so it is deliberately
    independent of the flow solver.  Guarded exponential: at most `guard`
    internal vertices.
    """
    boundary = set(aut.inner_boundary())
    if not boundary:
        raise NoEvacuationTarget("automaton has no boundary slots")
    internal = [v for v in aut.keys if v not in boundary]
    if len(internal) > guard:
        raise ValueError(f"{len(internal)} internal vertices exceed the oracle guard {guard}")
    # precompute, per internal vertex, targets among internal vertices and
    # the number of slots pointing elsewhere (all slots of an internal vertex
    # are accepted, so "elsewhere" means boundary vertices of Y)
    pos = {v: i for i, v in enumerate(internal)}
    targets: list[list[int]] = []
    fixed_out: list[int] = []
    for v in internal:
        tl = []
        fo = 0
        for a, w in aut.slots[v].items():
            if w in pos:
                tl.append(pos[w])
            else:
                fo += 1
        targets.append(tl)
        fixed_out.append(fo)
    for mask in range(1, 1 << len(internal)):
        members = [i for i in range(len(internal)) if mask >> i & 1]
        out = 0
        for i in members:
            out += fixed_out[i]
            for j in targets[i]:
                if not mask >> j & 1:
                    out += 1
        if K * out < len(members):
            return Witness(Z=tuple(internal[i] for i in members), cheeger=out)
    return None


# ---------------------------------------------------------------------------
# Psi relations (reversed-arrow multi-valued partial functions)


class PsiRelation(namedtuple("PsiRelation", "pairs index")):
    """Ordered pairs <head, tail> of used edges; index = #preimages - #images."""

    __slots__ = ()

    def as_obj(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs],
                "index": dict(sorted(self.index.items()))}


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
    """Peel chains off a psi relation to assign every vertex a path to a sink.

    pairs are (head, tail) entries spanning directed edges tail -> head.
    Every non-sink vertex needs index >= 1 (preimages minus images); sinks
    default to the inner boundary and may have any index.  Walking a chain
    consumes one pair per step, so edge usage is bounded by pair multiplicity.
    """
    if sinks is None:
        sinks = set(aut.inner_boundary())
    else:
        sinks = set(sinks)
    if not sinks:
        raise NoEvacuationTarget("no sinks to evacuate to")
    # preimage pools: pre[v] holds multiset of pairs (x, v), i.e. edges v -> x
    pre: dict[str, list[str]] = {v: [] for v in aut.keys}
    n_img: dict[str, int] = {v: 0 for v in aut.keys}
    for head, tail in pairs:
        if head not in aut.slots or tail not in aut.slots:
            raise ValueError(f"pair ({head!r}, {tail!r}) mentions unknown vertices")
        if head not in aut.slots[tail].values():
            raise ValueError(f"pair ({head!r}, {tail!r}) spans no edge {tail!r} -> {head!r}")
        pre[tail].append(head)
        n_img[head] += 1
    for v in aut.keys:
        if v not in sinks and len(pre[v]) - n_img[v] < 1:
            raise ValueError(
                f"vertex {v!r} has index {len(pre[v]) - n_img[v]} < 1 and is not a sink")
    for pool in pre.values():
        pool.sort(reverse=True)  # pop() takes the lexicographically least head
    paths: dict[str, tuple] = {}
    for v in aut.keys:
        if v in sinks:
            paths[v] = ()
            continue
        path = []
        cur = v
        while cur not in sinks:
            if not pre[cur]:
                raise AssertionError(f"chain stuck at non-sink {cur!r}")
            nxt = pre[cur].pop()
            n_img[nxt] -= 1
            letter = next(a for a, w in aut.slots[cur].items() if w == nxt)
            path.append((cur, letter, nxt))
            cur = nxt
        paths[v] = tuple(path)
    max_mult = 0
    counts: dict[tuple[str, str], int] = {}
    for head, tail in pairs:
        counts[(head, tail)] = counts.get((head, tail), 0) + 1
        max_mult = max(max_mult, counts[(head, tail)])
    return EvacScheme(K=max(1, max_mult), paths=paths)


# ---------------------------------------------------------------------------
# Flow certificates (non-amenability lower bounds)


class FlowCertificate(namedtuple("FlowCertificate", "C eps flow boundary_inflow")):
    """Constants C and eps, the flow on internal directed edges (both
    directions) and the inflow per boundary vertex, summed over its slots."""

    __slots__ = ()

    def as_obj(self) -> dict:
        listed = sorted((u, a, w) for (u, a, w) in self.flow if not a.endswith(INV))
        return {
            "C": str(self.C),
            "eps": str(self.eps),
            "flow": [[u, a, w, str(self.flow[(u, a, w)])] for u, a, w in listed],
            "boundary_inflows": {v: str(x) for v, x in sorted(self.boundary_inflow.items())},
        }


# bound is eps / C and inequality_holds is eps |Y| <= C |cheeger boundary|,
# both None unless accepted
CertificateVerdict = namedtuple("CertificateVerdict",
                                "accepted failures bound inequality_holds")


def _fraction(x) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise AutomatonFormatError(f"bad rational value {x!r}") from None


def certificate_from_obj(aut: Automaton, obj: dict) -> FlowCertificate:
    if not (isinstance(obj, dict) and "C" in obj and "eps" in obj):
        raise AutomatonFormatError("certificate must be an object with C and eps")
    entries = obj.get("flow", [])
    binflow = obj.get("boundary_inflows", {})
    if not (isinstance(entries, list) and isinstance(binflow, dict)):
        raise AutomatonFormatError(
            "certificate flow must be a list and boundary_inflows an object")
    flow: dict[Edge, Fraction] = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4 and is_edge_entry(entry[:3])):
            raise AutomatonFormatError(f"bad flow entry {entry!r}")
        u, a, w, val = entry
        val = _fraction(val)
        if aut.slots.get(u, {}).get(a) != w:
            raise AutomatonFormatError(f"flow on non-edge ({u!r}, {a!r}, {w!r})")
        einv = (w, letter_inverse(a), u)
        for key, v in (((u, a, w), val), (einv, -val)):
            if key in flow and flow[key] != v:
                raise AutomatonFormatError(
                    f"antisymmetry violation on edge {key!r}: {flow[key]} vs {v}")
            flow[key] = v
    boundary_inflow = {v: _fraction(x) for v, x in binflow.items()}
    return FlowCertificate(C=_fraction(obj["C"]), eps=_fraction(obj["eps"]),
                           flow=flow, boundary_inflow=boundary_inflow)


def verify_flow_certificate(aut: Automaton, cert: FlowCertificate) -> CertificateVerdict:
    """Check a flow certificate; on acceptance report the bound eps/C.

    Every directed-edge flow (and, summed per vertex, every boundary slot)
    must respect |f| <= C, and every vertex must take inflow at least eps.
    An accepted certificate forces eps |Y| <= C |cheeger(Y)|, which is also
    verified exactly.
    """
    failures: list[str] = []
    if cert.C <= 0 or cert.eps <= 0:
        failures.append("constants C and eps must be positive")
    boundary_slots: dict[str, int] = {}
    for v in aut.keys:
        boundary_slots[v] = sum(1 for w in aut.slots[v].values() if w is None)
    for v in cert.boundary_inflow:
        if v not in aut.slots:
            failures.append(f"boundary inflow for unknown vertex {v!r}")
        elif boundary_slots[v] == 0:
            failures.append(f"boundary inflow for internal vertex {v!r}")
    for (u, a, w), val in cert.flow.items():
        if abs(val) > cert.C:
            failures.append(f"|f| = {abs(val)} > C on edge ({u!r}, {a!r}, {w!r})")
    for v, val in cert.boundary_inflow.items():
        if v in boundary_slots and boundary_slots[v] > 0 and abs(val) > cert.C * boundary_slots[v]:
            failures.append(
                f"boundary inflow {val} at {v!r} exceeds C * {boundary_slots[v]} slots")
    if not failures:
        for v in aut.keys:
            inflow = cert.boundary_inflow.get(v, Fraction(0))
            for a, w in aut.slots[v].items():
                if w is not None:
                    # edge arriving at v is the inverse of v's own slot edge
                    inflow += cert.flow.get((w, letter_inverse(a), v), Fraction(0))
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
    allowed = {"x0", "x1", "x2"}
    if set(base_symbol(s) for s in aut.alphabet.symbols) != allowed:
        raise ValueError("scheme must live over the alphabet {x0, x1, x2}")

    def after_x0(u: str) -> str:
        w = aut.slots[u].get("x0")
        return w if w is not None else u + "#x0"

    # assign formal x0 copies per new geometric x0-edge, identified by the
    # old vertex u owning the edge {u, after_x0(u)}
    copy_counter: dict[str, int] = {}

    def x0_letter(u: str, forward: bool) -> str:
        n = copy_counter.get(u, 0)
        copy_counter[u] = n + 1
        if n >= 2:
            raise SchemeValidationError(
                f"new x0 edge at {u!r} would be used {n + 1} > 2 times")
        sym = "x0" if n == 0 else "x0@2"
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
            elif sym == "x1":
                if sign == 1:
                    mid = after_x0(u)
                    new_path.append((u, x0_letter(u, True), mid))
                    new_path.append((mid, "xb1", w))
                else:
                    mid = after_x0(w)
                    new_path.append((u, "xb1" + INV, mid))
                    new_path.append((mid, x0_letter(w, False), w))
            else:
                raise ValueError(f"letter {a!r} outside the {{x0, x1, x2}} alphabet")
        new_paths[v] = tuple(new_path)
    return EvacScheme(K=1, paths=new_paths)


def validate_relabelled(scheme: EvacScheme) -> None:
    """Multiset capacity check: every x1/xb1 directed edge used at most once,
    both formal x0 copies used at most once each, no edge together with its
    inverse."""
    usage = scheme.edge_usage()
    for e, count in usage.items():
        if count > 1:
            raise SchemeValidationError(f"edge {e!r} used {count} times in a pure scheme")
        u, a, w = e
        if (w, letter_inverse(a), u) in usage:
            raise SchemeValidationError(f"edge {e!r} used together with its inverse")
        if base_symbol(letter_symbol(a)) not in ("x0", "x1", "xb1"):
            raise SchemeValidationError(f"letter {a!r} outside the multiset alphabet")
    # geometric x0 pairs: at most two traversals across both copies
    geo: dict[frozenset, int] = {}
    for (u, a, w), count in usage.items():
        if base_symbol(letter_symbol(a)) == "x0":
            key = frozenset((u, w)) if u != w else frozenset((u,))
            geo[key] = geo.get(key, 0) + count
    for key, count in geo.items():
        if count > 2:
            raise SchemeValidationError(
                f"x0 geometric edge {set(key)} traversed {count} > 2 times")


def label_use_counts(scheme: EvacScheme) -> dict[str, int]:
    """Signed per-label usage totals, multiset copies folded together."""
    out: dict[str, int] = {}
    for path in scheme.paths.values():
        for (u, a, w) in path:
            sign = INV if a.endswith(INV) else ""
            key = base_symbol(letter_symbol(a)) + sign
            out[key] = out.get(key, 0) + 1
    return out


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


def save_scheme(scheme: EvacScheme, path) -> None:
    with open(path, "w") as fh:
        json.dump(scheme.as_obj(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_scheme(path) -> EvacScheme:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AutomatonFormatError(f"not valid JSON: {exc}") from None
    return scheme_from_obj(obj)
