"""Finite subgraphs (automata) of right Cayley graphs, with exact boundary reports.

An automaton is a finite vertex set where every vertex carries exactly 2m
directed-edge slots, one per letter of the group alphabet A^{+-1}.  A slot
either targets another vertex inside ("accepted") or is a boundary slot.
Mutually inverse slots must pair up (Serre condition).

Letters are strings: a positive letter is its symbol name, the inverse
carries the suffix "^-1".  A multiset alphabet uses distinct symbol names
bound to equal group values (e.g. "x0" and "x0@2").  `GenAlphabet` is the
one reader and writer of these names.

Vertex core.  An automaton is the tuple `keys` (vertex i is keys[i]), in
the order its builder or file gives, and one flat array `tgt`:
tgt[i * 2m + j] is the vertex that slot j of vertex i targets, or -1 for a
boundary slot, slots in `letters` order, so slot (j + m) mod 2m is the
inverse of slot j.  Arc e = i * 2m + j is slot j of vertex i: `edge`,
`arc` and `inverse` of `Automaton` are the one codec of arcs and (source,
letter, target) triples, and `GenAlphabet.slot` (letter -> j) is built
with `letters`.  `inverse_column` is the one inverse of a target column:
the Serre check compares each inverse column with its letter column
inverted, and `forests` builds inverse letters with it.  Builders, the
Serre check, reports, the evacuation helpers and the file writer work on
these integers; key strings are rendered once per vertex, and `slots` rows
only for tests and tools.  Only the file writer orders vertices by key.
"""

from __future__ import annotations

import json
from array import array
from collections import namedtuple
from functools import cached_property, reduce
from itertools import compress, islice
from types import MappingProxyType

from . import fgroup
from .fgroup import FElement, element_from_key

INV = "^-1"

# Bounds of requests, read from this module at call time; no option sets them
DEFAULT_BUDGET = 10_000_000  # forests of one BB(n, k), leaves of one ball's elements
MAX_MIB = 1024  # a count table while it is built, a sweep's records, the keys of BB(n, k)
MAX_RECORDS = 100_000  # records of one sweep; MAX_MIB bounds their size


class SerreViolation(ValueError):
    """Directed edges do not pair up into mutually inverse slots."""


class AutomatonFormatError(ValueError):
    """Malformed automaton file or duplicate slot assignment."""


class BudgetExceeded(ValueError):
    """A request would pass one of the bounds above."""


def refusal(subject: str, amount: int, unit: str, bound: int) -> BudgetExceeded:
    """The one refusal message, integers of any size grouped by three digits."""
    amount, bound = (",".join(s[i:i + 3] for i in range(0, len(s), 3))[::-1]
                     for s in (exact_str(amount)[::-1], exact_str(bound)[::-1]))
    return BudgetExceeded(f"{subject} {amount} {unit}, past the bound of {bound} {unit}")


# each alphabet token as a word of (generator, exponent +-1) steps in x0 and x1:
# its group value is their product, and `forests` applies them one by one
WORDS = {
    "x0": (("x0", 1),),
    "x1": (("x1", 1),),
    "xb1": (("x1", 1), ("x0", -1)),
    "x2": (("x0", -1), ("x1", 1), ("x0", 1)),
}


def _word_value(word) -> FElement:
    gens = {"x0": fgroup.X0, "x1": fgroup.X1}
    return reduce(fgroup.multiply, [fgroup.power(gens[g], e) for g, e in word], fgroup.IDENTITY)


BASE_VALUES = {tok: _word_value(word) for tok, word in WORDS.items()}


class GenAlphabet:
    """Ordered multiset of generator symbols, optionally bound to F elements.

    tokens[j] is symbol j without its copy suffix ("x0@2" -> "x0"), and
    `letters` the symbols, then each symbol + "^-1": slot j + m is the
    inverse of slot j, and `slot` the slot number of each letter.
    """

    def __init__(self, symbols: list[str] | tuple[str, ...],
                 values: dict[str, FElement] | None = None):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct (use @2, @3 suffixes)")
        for s in symbols:
            if s.endswith(INV) or ";" in s or "|" in s:
                raise ValueError(f"bad symbol name {s!r}")
        self.symbols = symbols
        self.tokens = tuple(s.split("@", 1)[0] for s in symbols)
        self.letters = symbols + tuple(s + INV for s in symbols)
        self.slot = {a: j for j, a in enumerate(self.letters)}
        self.values = dict(values) if values else None
        if self.values is not None:
            missing = [s for s in symbols if s not in self.values]
            if missing:
                raise ValueError(f"symbols without values: {missing}")

    @property
    def m(self) -> int:
        return len(self.symbols)

    def spec(self) -> str:
        return ",".join(self.tokens)

    def __repr__(self):
        return f"GenAlphabet({self.spec()!r})"


def make_alphabet(spec: str) -> GenAlphabet:
    """Parse a comma-separated alphabet spec, e.g. "x1,xb1,x0,x0".

    Repeated tokens become distinct symbols with @2, @3, ... suffixes, all
    bound to the same group value.
    """
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ValueError(f"empty alphabet spec {spec!r}")
    symbols: list[str] = []
    seen: dict[str, int] = {}
    values: dict[str, FElement] = {}
    for tok in tokens:
        if tok not in BASE_VALUES:
            raise ValueError(f"unknown generator token {tok!r} "
                             f"(expected one of {sorted(BASE_VALUES)})")
        seen[tok] = seen.get(tok, 0) + 1
        sym = tok if seen[tok] == 1 else f"{tok}@{seen[tok]}"
        symbols.append(sym)
        values[sym] = BASE_VALUES[tok]
    return GenAlphabet(symbols, values)


def inverse_column(col: array) -> array:
    """The partial map that undoes the target column col (-1 where undefined);
    where two vertices map to one, the later one wins."""
    inv = array("i", [-1]) * (len(col) + 1)
    for v, w in enumerate(col):
        inv[w] = v  # w = -1 writes the spare last entry
    inv.pop()
    return inv


class Automaton:
    """Immutable labelled Serre graph on the vertex core `keys`, `tgt`."""

    def __init__(self, alphabet: GenAlphabet, keys: list[str], tgt: array,
                 outer: frozenset[str] | None = None):
        """Automaton from distinct keys, numbered in the order given, and their
        target rows (`tgt` as in the module docstring)."""
        if not keys:
            raise ValueError("automaton must be nonempty")
        self.alphabet, self.keys, self.tgt, self.outer = alphabet, tuple(keys), tgt, outer
        self._check_serre()

    def _check_serre(self) -> None:
        """Every slot j of v targeting w is matched by slot j + m of w targeting v:
        each inverse column is its letter column inverted, with as many -1s."""
        m = self.alphabet.m
        tgt, d = self.tgt, 2 * m
        for j in range(m):
            fwd, back = tgt[j::d], tgt[j + m::d]
            # a letter column mapping two vertices to one has fewer -1s than
            # its inverse, though the later vertex may be paired
            if inverse_column(fwd) != back or fwd.count(-1) != back.count(-1):
                break
        else:
            return
        for e, w in enumerate(tgt):
            if w >= 0 and tgt[self.inverse(e)] != e // d:
                v, _, w = edge = self.edge(e)
                b = self.alphabet.letters[(e + m) % d]
                raise SerreViolation(f"edge {edge!r} has no inverse edge {(w, b, v)!r}")

    @cached_property
    def index(self) -> dict[str, int]:
        """Vertex number of each key."""
        return {v: i for i, v in enumerate(self.keys)}

    @cached_property
    def slots(self) -> MappingProxyType:
        """Read-only rows letter -> target key or None, built on first use."""
        keys, letters, d = self.keys, self.alphabet.letters, 2 * self.alphabet.m
        return MappingProxyType({v: {a: keys[w] if w >= 0 else None
                                     for a, w in zip(letters, self.tgt[i * d:i * d + d])}
                                 for i, v in enumerate(keys)})

    def __len__(self):
        return len(self.keys)

    def edge(self, e: int) -> tuple[str, str, str]:
        """The (source, letter, target) triple of the accepted arc e."""
        d = 2 * self.alphabet.m
        return self.keys[e // d], self.alphabet.letters[e % d], self.keys[self.tgt[e]]

    def arc(self, u: str, a: str, w: str) -> int:
        """The arc number of the edge (u, a, w), or -1 for a non-edge or an
        unknown u, a or w: tgt[index[u] * 2m + slot[a]] == index[w]."""
        index, slot = self.index, self.alphabet.slot
        e = index[u] * len(slot) + slot[a] if u in index and a in slot else -1
        return e if e >= 0 and self.tgt[e] == index.get(w) else -1

    def inverse(self, e: int) -> int:
        """The arc paired with the accepted arc e: slot (j + m) mod 2m of its target."""
        d = 2 * self.alphabet.m
        return self.tgt[e] * d + (e + d // 2) % d

    def boundary_flags(self) -> list[bool]:
        """Per vertex number, whether it has a boundary slot."""
        tgt, d = self.tgt, 2 * self.alphabet.m
        return list(map((-1).__eq__, map(min, *(tgt[j::d] for j in range(d)))))

    def inner_boundary(self) -> tuple[str, ...]:
        """Vertices with at least one boundary slot."""
        return tuple(compress(self.keys, self.boundary_flags()))

    def directed_edges(self) -> list[tuple[str, str, str]]:
        """All accepted directed edges as (source, letter, target) triples."""
        return [self.edge(e) for e, w in enumerate(self.tgt) if w >= 0]


class BoundaryReport(namedtuple("BoundaryReport", "size nu inner_boundary outer_boundary "
                                                  "cheeger density iota")):
    """Exact boundary and density data of one automaton: vertex count, nu
    (letter -> boundary slots), inner boundary, outer boundary (None without
    ambient data), cheeger (all boundary slots), density and iota (Fractions)."""

    __slots__ = ()

    def as_obj(self) -> dict:
        return {
            "size": self.size,
            "nu": dict(self.nu),
            "inner_boundary": self.inner_boundary,
            "outer_boundary": self.outer_boundary,
            "cheeger": self.cheeger,
            **rational_fields(delta=self.density, iota=self.iota),
        }


def exact_str(x) -> str:
    """str(x) of an int or Fraction of any size: str() refuses more digits
    than a limit (4300 by default, 640 at least), so integers past 600
    digits are rendered in halves."""
    if not isinstance(x, int):
        return exact_str(x.numerator) + ("" if x.denominator == 1
                                         else "/" + exact_str(x.denominator))
    if x < 0:
        return "-" + exact_str(-x)
    if x < 10 ** 600:
        return str(x)
    half = x.bit_length() * 3 // 20  # about half the digits, as log10(2) > 0.3
    high, low = divmod(x, 10 ** half)
    return exact_str(high) + exact_str(low).zfill(half)


def decimal_str(x) -> str:
    """A rational to 12 significant digits, rounded half up, trailing zeros
    dropped: positional while the leading digit's exponent e has -5 < e < 15,
    else as mantissa and exponent ("1e-9")."""
    from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal

    ctx = Context(prec=12, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)
    q = ctx.divide(Decimal(x.numerator), Decimal(x.denominator)).normalize(ctx)
    return format(q, "f" if -5 < q.adjusted() < 15 else "e")


def rational_fields(**fields) -> dict:
    """Each rational field as name: exact "p/q" and name_decimal: 12 digits,
    both None for a None value."""
    out = {}
    for name, x in fields.items():
        out[name] = None if x is None else exact_str(x)
        out[name + "_decimal"] = None if x is None else decimal_str(x)
    return out


def boundary_report(aut: Automaton) -> BoundaryReport:
    from fractions import Fraction

    m = aut.alphabet.m
    nu = {a: aut.tgt[j::2 * m].count(-1) for j, a in enumerate(aut.alphabet.letters)}
    inner = sum(aut.boundary_flags())
    cheeger = sum(nu.values())
    size = len(aut)
    density = Fraction(2 * m * size - cheeger, size)
    iota = Fraction(cheeger, size)
    outer = len(aut.outer) if aut.outer is not None else None
    return BoundaryReport(size=size, nu=nu, inner_boundary=inner,
                          outer_boundary=outer, cheeger=cheeger,
                          density=density, iota=iota)


# ---------------------------------------------------------------------------
# Cayley-graph constructions


def ball(r: int, alphabet: GenAlphabet) -> Automaton:
    """Ball of radius r around the identity, as an automaton with ambient data.

    Slots g -> g*a: each of r + 1 rounds expands the elements the round
    before found (the first, the identity).  Expanded elements are the
    vertices, the last round's new products are outer; elements are kept as
    reduced depth pairs, numbered as found, and their keys rendered at the end.
    A product g*a = w with w numbered after g also fills slot a^-1 of w with
    g (the Serre pairing), so each inverse pair of slots costs one product.
    Each element found is charged its leaf count against DEFAULT_BUDGET.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if alphabet.values is None:
        raise ValueError("ball construction needs an alphabet with group values")
    values = [alphabet.values[s] for s in alphabet.symbols]
    values += [fgroup.invert(v) for v in values]  # slot j + m inverts slot j
    subject = f"the ball of radius {r} has at least"
    # F is torsion-free: a letter a != 1 makes 2r + 1 elements a^-r .. a^r
    if 2 * r + 1 > DEFAULT_BUDGET and any(len(dd) > 1 for dd, _ in values):
        raise refusal(subject, 2 * r + 1, "leaves", DEFAULT_BUDGET)
    d = len(values)
    pairs = [fgroup.IDENTITY]
    number = {fgroup.IDENTITY: 0}
    rows: list[int] = []
    paired: dict[int, int] = {}  # slot number -> target, filled from its inverse
    size, leaves = 0, 1  # leaves of the elements found, the identity's first
    for _ in range(r + 1):
        start, size = size, len(pairs)
        for g in range(start, size):
            for j, v in enumerate(values):
                w = paired.pop(len(rows), None)
                if w is None:
                    pair = fgroup.product(pairs[g], v)
                    w = number.setdefault(pair, len(pairs))
                    if w == len(pairs):
                        pairs.append(pair)
                        leaves += len(pair[0])
                        if leaves > DEFAULT_BUDGET:
                            raise refusal(subject, leaves, "leaves", DEFAULT_BUDGET)
                    if w > g:
                        paired[w * d + (j + d // 2) % d] = g
                rows.append(w)
    keys = fgroup.pair_keys(pairs)
    tgt = array("i", [w if w < size else -1 for w in rows])
    return Automaton(alphabet, keys[:size], tgt, frozenset(keys[size:]))


# ---------------------------------------------------------------------------
# Serialization

FORMAT_NAME = "fcayley-automaton"


def _values_obj(alphabet: GenAlphabet) -> dict | None:
    if alphabet.values is None:
        return None
    return {s: alphabet.values[s].key for s in alphabet.symbols}


def is_edge_entry(entry) -> bool:
    """A `[source, letter, target]` triple of strings, as files list edges."""
    return (isinstance(entry, (list, tuple)) and len(entry) == 3
            and all(isinstance(x, str) for x in entry))


def automaton_from_obj(obj: dict) -> Automaton:
    extra = sorted(set(obj) - {"alphabet", "edges", "format", "outer", "values", "vertices"})
    if extra:
        raise AutomatonFormatError(f"unknown automaton fields: {extra}")
    if obj.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise AutomatonFormatError(f"format must be {FORMAT_NAME!r}, not {obj['format']!r}")
    try:
        symbols, vertices, edges = obj["alphabet"], obj["vertices"], obj["edges"]
    except KeyError as exc:
        raise AutomatonFormatError(f"missing automaton field: {exc}") from None
    if not all(isinstance(x, list) for x in (symbols, vertices, edges)):
        raise AutomatonFormatError("alphabet, vertices and edges must be lists")
    if not all(isinstance(s, str) for s in symbols):
        raise AutomatonFormatError("alphabet symbols must be strings")
    if not all(isinstance(v, str) for v in vertices):
        raise AutomatonFormatError("vertex keys must be strings")
    outer = obj.get("outer")
    if outer is not None and not (isinstance(outer, list)
                                  and all(isinstance(v, str) for v in outer)):
        raise AutomatonFormatError("outer must be a list of vertex keys")
    values_obj = obj.get("values")
    if values_obj is None:
        values_obj = {}  # null, like {}, binds no values
    if not (isinstance(values_obj, dict)
            and all(isinstance(k, str) for k in values_obj.values())):
        raise AutomatonFormatError("values must map symbols to 'domain|range' keys")
    unknown = sorted(set(values_obj) - set(symbols))
    if unknown:
        raise AutomatonFormatError(f"values for symbols outside the alphabet: {unknown}")
    try:
        values = {s: element_from_key(k) for s, k in values_obj.items()}
    except ValueError as exc:
        raise AutomatonFormatError(str(exc)) from None
    alphabet = GenAlphabet(symbols, values)
    letters, slot = alphabet.letters, alphabet.slot
    d = len(letters)
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise AutomatonFormatError("duplicate vertex keys")
    if outer is not None:
        outer, listed = frozenset(outer), len(outer)
        if len(outer) != listed or not outer.isdisjoint(index):
            raise AutomatonFormatError("outer keys must be distinct and not vertex keys")
    # each listed edge fills its slot and its inverse slot: a file may list
    # an edge from one end or from both
    tgt = array("i", [-1]) * (d * len(vertices))
    for entry in edges:
        if not is_edge_entry(entry):
            raise AutomatonFormatError(f"bad edge entry {entry!r}")
        u, a, w = entry
        if a not in slot:
            raise AutomatonFormatError(f"edge with unknown letter {a!r}")
        if u not in index or w not in index:
            raise AutomatonFormatError(f"edge {entry!r} references unknown vertex")
        j, p, q = slot[a], index[u], index[w]
        for i, v in ((p * d + j, q), (q * d + (j + d // 2) % d, p)):
            cur = tgt[i]
            if cur >= 0 and cur != v:
                raise AutomatonFormatError(f"duplicate slot ({vertices[i // d]!r}, "
                                           f"{letters[i % d]!r}) targets both "
                                           f"{vertices[cur]!r} and {vertices[v]!r}")
            tgt[i] = v
    return Automaton(alphabet, vertices, tgt, outer)


def save_automaton(aut: Automaton, path) -> None:
    """Write the bytes `json.dump(obj, fh, indent=1, sort_keys=True)` and a
    newline would for the file object of the automaton (vertices in key
    order, one edge per inverse pair, positive letter, in key order; outer
    sorted, when known), with the C string encoder, in chunks.  The one
    place that orders vertices: vertices sorted by key, then positive
    letters by symbol, list the edges in key-triple order."""
    enc = json.encoder.encode_basestring_ascii
    keys = [enc(v) for v in aut.keys]
    order = sorted(range(len(keys)), key=aut.keys.__getitem__)
    symbols, tgt, d = aut.alphabet.symbols, aut.tgt, 2 * aut.alphabet.m
    cols = sorted(range(len(symbols)), key=symbols.__getitem__)
    letters = [enc(a) for a in symbols]
    values = json.dumps(_values_obj(aut.alphabet), indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write('{\n "alphabet": ')
        _write_list(fh, letters)
        fh.write(',\n "edges": ')
        _write_list(fh, (f"[\n   {keys[v]},\n   {letters[j]},\n   {keys[w]}\n  ]"
                         for v in order for j in cols if (w := tgt[v * d + j]) >= 0))
        fh.write(',\n "format": ' + enc(FORMAT_NAME))
        if aut.outer is not None:
            fh.write(',\n "outer": ')
            _write_list(fh, map(enc, sorted(aut.outer)))
        fh.write(',\n "values": ' + values.replace("\n", "\n "))
        fh.write(',\n "vertices": ')
        _write_list(fh, map(keys.__getitem__, order))
        fh.write("\n}\n")


def _write_list(fh, items) -> None:
    """Encoded items as an indent-1 JSON list one level deep, 4096 per write."""
    items, sep = iter(items), "[\n  "
    while part := ",\n  ".join(islice(items, 4096)):
        fh.write(sep + part)
        sep = ",\n  "
    fh.write("[]" if sep[0] == "[" else "\n ]")


def load_json(path):
    """The JSON value in the file at `path`, the one reader of input files."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise AutomatonFormatError(f"not valid JSON: {exc}") from None


def load_automaton(path) -> Automaton:
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise AutomatonFormatError("automaton file must hold a JSON object")
    return automaton_from_obj(obj)
