"""Evacuation schemes on finite automata.

A scheme with constant K assigns every vertex a path inside the automaton
ending on the inner boundary, with every directed edge used at most K times
over all paths.  K = 1 is the pure case; there each used edge excludes its
inverse and paths are simple.

The solver runs a unit-capacity flow (super-source feeding one unit into
every vertex, inner-boundary vertices draining into a super-sink) and
decomposes the integral max flow into paths.  Existence is equivalent to a
Hall-type condition: every nonempty set Z of internal vertices must emit at
least |Z|/K directed edges; the brute-force subset oracle checks exactly
that, independently of the flow route.  When no scheme exists the witness Z
is read off the residual min cut and satisfies K * |edges leaving Z| < |Z|.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
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


@dataclass(frozen=True)
class EvacScheme:
    """Per-vertex evacuation paths with edge usage bounded by K."""

    K: int
    paths: dict[str, tuple[Edge, ...]]

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


@dataclass(frozen=True)
class Witness:
    """Internal vertex set violating the Hall condition."""

    Z: tuple[str, ...]
    cheeger: int  # directed edges leaving Z

    def as_obj(self) -> dict:
        return {"Z": list(self.Z), "cheeger": self.cheeger}


@dataclass(frozen=True)
class SolveResult:
    exists: bool
    scheme: EvacScheme | None
    witness: Witness | None


def validate_scheme(aut: Automaton, scheme: EvacScheme) -> None:
    """Raise SchemeValidationError unless the scheme is a valid evacuation
    scheme on the automaton (purity conditions included when K = 1)."""
    boundary = set(aut.inner_boundary())
    if set(scheme.paths) != set(aut.keys):
        raise SchemeValidationError("scheme must assign a path to every vertex")
    for v, path in scheme.paths.items():
        if not path:
            if v not in boundary:
                raise SchemeValidationError(
                    f"empty path at {v!r}, which is not a boundary vertex")
            continue
        cur = v
        seen = {v}
        for (u, a, w) in path:
            if u != cur:
                raise SchemeValidationError(f"path of {v!r} breaks at {u!r}")
            if aut.slots[u].get(a) != w:
                raise SchemeValidationError(
                    f"path of {v!r} uses a non-edge ({u!r}, {a!r}, {w!r})")
            if scheme.K == 1 and w in seen:
                raise SchemeValidationError(f"path of {v!r} revisits {w!r}")
            seen.add(w)
            cur = w
        if cur not in boundary:
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
# Max-flow solver (Edmonds-Karp on the evacuation network)


class _FlowNet:
    """Arc-list residual network with deterministic BFS augmentation."""

    def __init__(self, n_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap: int) -> int:
        i = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(i)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(i + 1)
        return i

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            parent_arc = [-1] * len(self.adj)
            parent_arc[s] = -2
            queue = deque([s])
            while queue:
                u = queue.popleft()
                if u == t:
                    break
                for i in self.adj[u]:
                    v = self.to[i]
                    if self.cap[i] > 0 and parent_arc[v] == -1:
                        parent_arc[v] = i
                        queue.append(v)
            if parent_arc[t] == -1:
                return total
            # trace back, find bottleneck, apply
            path = []
            v = t
            while v != s:
                i = parent_arc[v]
                path.append(i)
                v = self.to[i ^ 1]
            aug = min(self.cap[i] for i in path)
            for i in path:
                self.cap[i] -= aug
                self.cap[i ^ 1] += aug
            total += aug

    def flow_on(self, arc: int) -> int:
        return self.cap[arc ^ 1]


def solve_with_constant(aut: Automaton, K: int) -> SolveResult:
    """Evacuation scheme with edge capacity K, or a Hall witness when none exists."""
    if K < 1:
        raise ValueError("K must be at least 1")
    boundary = aut.inner_boundary()
    if not boundary:
        raise NoEvacuationTarget("automaton has no boundary slots")
    keys = list(aut.keys)  # sorted
    index = {v: i for i, v in enumerate(keys)}
    n = len(keys)
    source, sink = n, n + 1
    net = _FlowNet(n + 2)
    source_arcs = {}
    for v in keys:
        source_arcs[v] = net.add_arc(source, index[v], 1)
    edge_arcs: dict[Edge, int] = {}
    for v in keys:
        for a in aut.alphabet.letters():
            w = aut.slots[v][a]
            if w is not None:
                edge_arcs[(v, a, w)] = net.add_arc(index[v], index[w], K)
    boundary_set = set(boundary)
    for v in boundary:
        net.add_arc(index[v], sink, n + 1)
    value = net.max_flow(source, sink)
    if value < n:
        witness = _extract_witness(aut, net, edge_arcs, index)
        if not K * witness.cheeger < len(witness.Z):
            raise AssertionError("witness fails the Hall inequality: "
                                 f"{K} * {witness.cheeger} >= {len(witness.Z)}")
        return SolveResult(False, None, witness)
    flows = _net_flows(net, edge_arcs)
    scheme = _decompose(aut, K, flows, boundary_set)
    return SolveResult(True, scheme, None)


def solve_pure(aut: Automaton) -> SolveResult:
    """Pure (K = 1) evacuation scheme or a witness Z with |edges out of Z| < |Z|."""
    return solve_with_constant(aut, 1)


def _net_flows(net: _FlowNet, edge_arcs: dict[Edge, int]) -> dict[Edge, int]:
    """Per-edge flows with antiparallel circulation cancelled, so a directed
    edge and its inverse never both carry flow (Remark-style exclusion)."""
    flows = {e: net.flow_on(arc) for e, arc in edge_arcs.items()}
    for e, fe in list(flows.items()):
        u, a, w = e
        einv = (w, letter_inverse(a), u)
        if fe > 0 and einv in flows and flows[einv] > 0:
            c = min(fe, flows[einv])
            flows[e] -= c
            flows[einv] -= c
    return flows


def _decompose(aut, K, flows, boundary_set) -> EvacScheme:
    """Walk each vertex's unit through the flow, in lexicographic vertex order.

    Loops met along a walk are excised (dropping that circulation only lowers
    edge usage), so every path comes out simple.
    """
    out_edges: dict[str, list[Edge]] = {v: [] for v in aut.keys}
    # units drained at each boundary vertex = inflow + own unit - outflow
    drain: dict[str, int] = {v: 1 for v in aut.keys}
    for (v, a, w), fe in sorted(flows.items()):
        if fe > 0:
            out_edges[v].append((v, a, w))
            drain[v] -= fe
            drain[w] += fe
    paths: dict[str, tuple[Edge, ...]] = {}
    remaining = dict(flows)
    for v in aut.keys:
        path: list[Edge] = []
        visited = {v: 0}
        cur = v
        while True:
            if cur in boundary_set and drain[cur] > 0:
                drain[cur] -= 1
                break
            step = None
            for e in out_edges[cur]:
                if remaining[e] > 0:
                    step = e
                    break
            if step is None:
                raise AssertionError("flow decomposition stuck; conservation broken")
            remaining[step] -= 1
            cur = step[2]
            if cur in visited:
                # excise the loop; its flow is dropped as unnecessary circulation
                path = path[: visited[cur]]
                visited = {u: i for u, i in visited.items() if i <= visited[cur]}
            else:
                path.append(step)
                visited[cur] = len(path)
        paths[v] = tuple(path)
    scheme = EvacScheme(K=K, paths=paths)
    validate_scheme(aut, scheme)
    return scheme


def _extract_witness(aut, net, edge_arcs, index) -> Witness:
    """Min-cut side: vertices residual-reachable from the source.  They are
    all internal (a reachable boundary vertex would leave an unsaturated
    infinite sink arc) and emit fewer than |Z|/K directed edges."""
    n = len(aut.keys)
    seen = [False] * (n + 2)
    seen[n] = True
    queue = deque([n])
    while queue:
        u = queue.popleft()
        for i in net.adj[u]:
            v = net.to[i]
            if net.cap[i] > 0 and not seen[v]:
                seen[v] = True
                queue.append(v)
    Z = tuple(v for v in aut.keys if seen[index[v]])
    if not Z:
        raise AssertionError("max flow below |Y| must leave some source arc unsaturated")
    zset = set(Z)
    leaving = sum(1 for (u, a, w) in edge_arcs if u in zset and w not in zset)
    return Witness(Z=Z, cheeger=leaving)


# ---------------------------------------------------------------------------
# Brute-force Hall oracle


def cheeger_out(aut: Automaton, zset: set[str]) -> int:
    """Directed edges from zset to its complement (inside or outside Y)."""
    count = 0
    for v in zset:
        for a, w in aut.slots[v].items():
            if w is None or w not in zset:
                count += 1
    return count


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


@dataclass(frozen=True)
class PsiRelation:
    """Ordered pairs <head, tail> of used edges; index = #preimages - #images."""

    pairs: tuple[tuple[str, str], ...]
    index: dict[str, int]

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
        if not any(aut.slots[tail][a] == head for a in aut.alphabet.letters()):
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
            letter = next(a for a in aut.alphabet.letters() if aut.slots[cur][a] == nxt)
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


@dataclass(frozen=True)
class FlowCertificate:
    C: Fraction
    eps: Fraction
    flow: dict[Edge, Fraction]            # internal directed edges, both directions
    boundary_inflow: dict[str, Fraction]  # per boundary vertex, summed over its slots

    def as_obj(self) -> dict:
        listed = sorted((u, a, w) for (u, a, w) in self.flow if not a.endswith(INV))
        return {
            "C": str(self.C),
            "eps": str(self.eps),
            "flow": [[u, a, w, str(self.flow[(u, a, w)])] for u, a, w in listed],
            "boundary_inflows": {v: str(x) for v, x in sorted(self.boundary_inflow.items())},
        }


@dataclass(frozen=True)
class CertificateVerdict:
    accepted: bool
    failures: tuple[str, ...]
    bound: Fraction | None           # eps / C when accepted
    inequality_holds: bool | None    # eps |Y| <= C |cheeger boundary|


def certificate_from_obj(aut: Automaton, obj: dict) -> FlowCertificate:
    try:
        C = Fraction(obj["C"])
        eps = Fraction(obj["eps"])
        entries = obj.get("flow", [])
        binflow = obj.get("boundary_inflows", {})
    except (KeyError, ValueError, TypeError) as exc:
        raise AutomatonFormatError(f"bad certificate object: {exc}") from None
    flow: dict[Edge, Fraction] = {}
    for entry in entries:
        if len(entry) != 4:
            raise AutomatonFormatError(f"bad flow entry {entry!r}")
        u, a, w, val = entry
        val = Fraction(val)
        if aut.slots.get(u, {}).get(a) != w:
            raise AutomatonFormatError(f"flow on non-edge ({u!r}, {a!r}, {w!r})")
        einv = (w, letter_inverse(a), u)
        for key, v in (((u, a, w), val), (einv, -val)):
            if key in flow and flow[key] != v:
                raise AutomatonFormatError(
                    f"antisymmetry violation on edge {key!r}: {flow[key]} vs {v}")
            flow[key] = v
    boundary_inflow = {v: Fraction(x) for v, x in binflow.items()}
    return FlowCertificate(C=C, eps=eps, flow=flow, boundary_inflow=boundary_inflow)


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
            for a in aut.alphabet.letters():
                w = aut.slots[v][a]
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
