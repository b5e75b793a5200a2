"""Finite subgraphs (automata) of right Cayley graphs, with exact boundary reports.

An automaton is a finite vertex set where every vertex carries exactly 2m
directed-edge slots, one per letter of the group alphabet A^{+-1}.  A slot
either targets another vertex inside ("accepted") or is a boundary slot.
Mutually inverse slots must pair up (Serre condition).

Letters are strings: a positive letter is its symbol name, the inverse
carries the suffix "^-1".  A multiset alphabet uses distinct symbol names
bound to equal group values (e.g. "x0" and "x0@2").

Vertex core.  An automaton is the sorted tuple `keys` (vertex i is keys[i])
and one flat array `tgt`: tgt[i * 2m + j] is the vertex that slot j of
vertex i targets, or -1 for a boundary slot, slots in `letters()` order, so
slot (j + m) mod 2m is the inverse of slot j.  Builders, the Serre check,
reports, the evacuation helpers and the file writer work on these integers;
key strings are rendered once per vertex, and `slots` rows only for tests and tools.
"""

from __future__ import annotations

import json
from array import array
from collections import namedtuple
from functools import cached_property
from itertools import compress, islice
from operator import ge, ne
from types import MappingProxyType

from . import fgroup
from .fgroup import FElement, element_from_key

INV = "^-1"

# Default vertex budget of `forests.bb_automaton`, kept here so that the
# command-line parser can show it without importing forests.
DEFAULT_BUDGET = 10_000_000


def letter_inverse(letter: str) -> str:
    return letter[: -len(INV)] if letter.endswith(INV) else letter + INV


def letter_symbol(letter: str) -> str:
    return letter[: -len(INV)] if letter.endswith(INV) else letter


def base_symbol(symbol: str) -> str:
    """Strip the multiset disambiguation suffix: "x0@2" -> "x0"."""
    return symbol.split("@", 1)[0]


class SerreViolation(ValueError):
    """Directed edges do not pair up into mutually inverse slots."""


class AutomatonFormatError(ValueError):
    """Malformed automaton file or duplicate slot assignment."""


BASE_VALUES = {
    "x0": fgroup.X0,
    "x1": fgroup.X1,
    "xb1": fgroup.generator_xbar1(),
    "x2": fgroup.generator_x(2),
}


class GenAlphabet:
    """Ordered multiset of generator symbols, optionally bound to F elements."""

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
        self.values = dict(values) if values else None
        if self.values is not None:
            missing = [s for s in symbols if s not in self.values]
            if missing:
                raise ValueError(f"symbols without values: {missing}")

    @property
    def m(self) -> int:
        return len(self.symbols)

    def letters(self) -> list[str]:
        return [s for s in self.symbols] + [s + INV for s in self.symbols]

    def has_values(self) -> bool:
        return self.values is not None

    def value(self, letter: str) -> FElement:
        if self.values is None:
            raise ValueError("abstract alphabet has no group values")
        v = self.values[letter_symbol(letter)]
        return fgroup.invert(v) if letter.endswith(INV) else v

    def spec(self) -> str:
        return ",".join(base_symbol(s) for s in self.symbols)

    def __eq__(self, other):
        return isinstance(other, GenAlphabet) and self.symbols == other.symbols

    def __repr__(self):
        return f"GenAlphabet({self.spec()!r})"


def make_alphabet(spec: str, with_values: bool = True) -> GenAlphabet:
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
    return GenAlphabet(symbols, values if with_values else None)


class Automaton:
    """Immutable labelled Serre graph on the vertex core `keys`, `tgt`."""

    def __init__(self, alphabet: GenAlphabet,
                 slots: dict[str, dict[str, str | None]],
                 outer: frozenset[str] | None = None):
        """Automaton from rows letter -> target key or None, one per vertex."""
        letters = alphabet.letters()
        index = {v: i for i, v in enumerate(slots)}
        for v, row in slots.items():
            if row.keys() != set(letters):
                raise AutomatonFormatError(f"vertex {v!r} does not carry one slot per letter")
            for a, w in row.items():
                if w is not None and w not in index:
                    raise AutomatonFormatError(f"edge ({v!r}, {a!r}) targets unknown vertex {w!r}")
        tgt = array("i", [index.get(row[a], -1) for row in slots.values() for a in letters])
        self._set_core(alphabet, list(slots), tgt, outer)

    @classmethod
    def from_targets(cls, alphabet: GenAlphabet, keys: list[str], tgt: array,
                     outer: frozenset[str] | None = None) -> "Automaton":
        """Automaton from distinct keys in any order and their target rows
        (`tgt` as in the module docstring, indexed by position in `keys`)."""
        aut = cls.__new__(cls)
        aut._set_core(alphabet, keys, tgt, outer)
        return aut

    def _set_core(self, alphabet, keys, tgt, outer) -> None:
        if not keys:
            raise ValueError("automaton must be nonempty")
        d = 2 * alphabet.m
        if any(map(ge, keys, keys[1:])):  # sort, and renumber the targets
            order = sorted(range(len(keys)), key=keys.__getitem__)
            rank = [0] * (len(keys) + 1)  # rank[-1] = -1 keeps boundary slots
            for r, i in enumerate(order):
                rank[i] = r
            rank[-1] = -1
            keys = [keys[i] for i in order]
            old, tgt = tgt, array("i", bytes(4 * len(tgt)))
            for j in range(d):
                col = old[j::d]
                tgt[j::d] = array("i", map(rank.__getitem__, map(col.__getitem__, order)))
        self.alphabet, self.keys, self.tgt, self.outer = alphabet, tuple(keys), tgt, outer
        self._check_serre()

    def _check_serre(self) -> None:
        """Every slot j of v targeting w is matched by slot j + m of w targeting v."""
        m = self.alphabet.m
        tgt, d = self.tgt, 2 * m
        for j in range(m):
            fwd, back = tgt[j::d], tgt[j + m::d]
            # back[fwd[v]] == v wherever fwd[v] >= 0, and -1 != v elsewhere;
            # one way, with as many slots each way, makes a bijection
            back.append(-1)
            misses = sum(map(ne, map(back.__getitem__, fwd), range(len(fwd))))
            if not misses == fwd.count(-1) == back.count(-1) - 1:
                break
        else:
            return
        keys, letters = self.keys, self.alphabet.letters()
        for e, w in enumerate(tgt):
            a, b = e % d, (e + m) % d
            if w >= 0 and tgt[w * d + b] != e // d:
                v, w = keys[e // d], keys[w]
                raise SerreViolation(f"edge ({v!r}, {letters[a]!r}, {w!r}) has no inverse "
                                     f"edge ({w!r}, {letters[b]!r}, {v!r})")

    @cached_property
    def index(self) -> dict[str, int]:
        """Vertex number of each key."""
        return {v: i for i, v in enumerate(self.keys)}

    @cached_property
    def slots(self) -> MappingProxyType:
        """Read-only rows letter -> target key or None, built on first use."""
        keys, letters, d = self.keys, self.alphabet.letters(), 2 * self.alphabet.m
        return MappingProxyType({v: {a: keys[w] if w >= 0 else None
                                     for a, w in zip(letters, self.tgt[i * d:i * d + d])}
                                 for i, v in enumerate(keys)})

    def __len__(self):
        return len(self.keys)

    def accepts(self, v: str, letter: str) -> bool:
        letters = self.alphabet.letters()
        return self.tgt[self.index[v] * len(letters) + letters.index(letter)] >= 0

    def boundary_flags(self) -> list[bool]:
        """Per vertex number, whether it has a boundary slot."""
        tgt, d = self.tgt, 2 * self.alphabet.m
        return list(map((-1).__eq__, map(min, *(tgt[j::d] for j in range(d)))))

    def inner_boundary(self) -> tuple[str, ...]:
        """Vertices with at least one boundary slot."""
        return tuple(compress(self.keys, self.boundary_flags()))

    def directed_edges(self) -> list[tuple[str, str, str]]:
        """All accepted directed edges as (source, letter, target) triples."""
        keys, letters, d = self.keys, self.alphabet.letters(), 2 * self.alphabet.m
        return [(keys[e // d], letters[e % d], keys[w]) for e, w in enumerate(self.tgt) if w >= 0]

    def geometric_edges(self) -> list[tuple[str, str, str]]:
        """One triple per inverse pair, with a positive letter."""
        return [(v, a, w) for v, a, w in self.directed_edges() if not a.endswith(INV)]

    def sorted_edges(self):
        """Geometric edges as (source, letter, target) numbers, ordered as
        their key triples: keys are sorted and a slot has one target."""
        symbols, d, tgt = self.alphabet.symbols, 2 * self.alphabet.m, self.tgt
        cols = sorted(range(len(symbols)), key=symbols.__getitem__)
        for v in range(len(self.keys)):
            for j in cols:
                w = tgt[v * d + j]
                if w >= 0:
                    yield v, j, w

    def restrict(self, keys) -> "Automaton":
        """Induced sub-automaton on a subset of vertices (ambient info dropped)."""
        index, d, keep = self.index, 2 * self.alphabet.m, set(keys)
        if unknown := sorted(keep - index.keys()):
            raise ValueError(f"keys not in automaton: {unknown[:3]}")
        rows = sorted(map(index.__getitem__, keep))  # kept vertices, in key order
        new = [-1] * (len(self.keys) + 1)  # new number of each old one; new[-1] = -1
        for r, i in enumerate(rows):
            new[i] = r
        tgt = array("i", [new[w] for i in rows for w in self.tgt[i * d:i * d + d]])
        return Automaton.from_targets(self.alphabet, [self.keys[i] for i in rows], tgt)


class BoundaryReport(namedtuple("BoundaryReport", "size nu inner_boundary outer_boundary "
                                                  "cheeger density iota")):
    """Exact boundary and density data of one automaton: vertex count, nu
    (letter -> boundary slots), inner boundary, outer boundary (None without
    ambient data), cheeger (all boundary slots), density and iota (Fractions)."""

    __slots__ = ()

    def as_obj(self) -> dict:
        obj = {
            "size": self.size,
            "nu": dict(self.nu),
            "inner_boundary": self.inner_boundary,
            "outer_boundary": self.outer_boundary,
            "cheeger": self.cheeger,
            "delta": str(self.density),
            "iota": str(self.iota),
            "delta_decimal": decimal_str(self.density),
            "iota_decimal": decimal_str(self.iota),
        }
        return obj


def decimal_str(x: Fraction, digits: int = 12) -> str:
    """Decimal rendering to the given number of significant digits."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    x = abs(x)
    exp = 0
    while x >= 10:
        x /= 10
        exp += 1
    while x < 1:
        x *= 10
        exp -= 1
    scaled = x * 10 ** (digits - 1)
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled - n) >= 1:
        n += 1
    s = str(n)
    if len(s) > digits:  # rounding overflow, e.g. 9.99... -> 10.0
        s = s[:digits]
        exp += 1
    if -5 < exp < digits + 3:  # positional form for moderate magnitudes
        if exp >= 0:
            intpart = s[: exp + 1].ljust(exp + 1, "0")
            frac = s[exp + 1 :].rstrip("0")
            return sign + intpart + ("." + frac if frac else "")
        body = ("0." + "0" * (-exp - 1) + s).rstrip("0").rstrip(".")
        return sign + body
    mantissa = (s[0] + "." + s[1:]).rstrip("0").rstrip(".")
    return f"{sign}{mantissa}e{exp:+d}"


def boundary_report(aut: Automaton) -> BoundaryReport:
    from fractions import Fraction

    m = aut.alphabet.m
    nu = {a: aut.tgt[j::2 * m].count(-1) for j, a in enumerate(aut.alphabet.letters())}
    inner = sum(aut.boundary_flags())
    cheeger = sum(nu.values())
    size = len(aut)
    density = Fraction(2 * m * size - cheeger, size)
    iota = Fraction(cheeger, size)
    if density + iota != 2 * m:
        raise AssertionError(f"delta + iota = {density + iota} != 2m = {2 * m}")
    outer = len(aut.outer) if aut.outer is not None else None
    return BoundaryReport(size=size, nu=nu, inner_boundary=inner,
                          outer_boundary=outer, cheeger=cheeger,
                          density=density, iota=iota)


# ---------------------------------------------------------------------------
# Cayley-graph constructions


def ball(r: int, alphabet: GenAlphabet) -> Automaton:
    """Ball of radius r around the identity, as an automaton with ambient data."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if not alphabet.has_values():
        raise ValueError("ball construction needs an alphabet with group values")
    return _cayley_automaton([fgroup.IDENTITY], alphabet, r + 1)


def induced_subgraph(keys, alphabet: GenAlphabet) -> Automaton:
    """Automaton induced by explicit element keys (decoded as reduced pairs)."""
    if not alphabet.has_values():
        raise ValueError("induced subgraph needs an alphabet with group values")
    elements = {}
    for key in keys:
        g = element_from_key(key)
        if g.key != key:
            raise ValueError(f"key {key!r} is not a reduced pair (canonical: {g.key!r})")
        elements[key] = g
    if not elements:
        raise ValueError("empty vertex set")
    return _cayley_automaton(list(elements.values()), alphabet, 1)


def _cayley_automaton(elements: list[FElement], alphabet: GenAlphabet,
                      rounds: int) -> Automaton:
    """Slots g -> g*a: each round multiplies the elements the round before
    found (the first, the given ones).  Multiplied elements are the vertices,
    the last round's new products are outer; elements are kept as reduced
    depth pairs, numbered as found, and their keys rendered at the end."""
    values = [(v.dd, v.rd) for v in map(alphabet.value, alphabet.letters())]
    pairs = [(g.dd, g.rd) for g in elements]
    number = {pair: i for i, pair in enumerate(pairs)}
    rows: list[int] = []
    size = 0
    for _ in range(rounds):
        start, size = size, len(pairs)
        for g in pairs[start:size]:
            for v in values:
                pair = fgroup.product(g, v)
                w = number.setdefault(pair, len(pairs))
                if w == len(pairs):
                    pairs.append(pair)
                rows.append(w)
    keys = fgroup.pair_keys(pairs)
    tgt = array("i", [w if w < size else -1 for w in rows])
    return Automaton.from_targets(alphabet, keys[:size], tgt, frozenset(keys[size:]))


# ---------------------------------------------------------------------------
# Serialization

FORMAT_NAME = "fcayley-automaton"


def automaton_to_obj(aut: Automaton) -> dict:
    keys, letters = aut.keys, aut.alphabet.letters()
    obj: dict = {
        "format": FORMAT_NAME,
        "alphabet": list(aut.alphabet.symbols),
        "vertices": list(keys),
        "edges": [[keys[v], letters[j], keys[w]] for v, j, w in aut.sorted_edges()],
        "values": _values_obj(aut.alphabet),
    }
    if aut.outer is not None:
        obj["outer"] = sorted(aut.outer)
    return obj


def _values_obj(alphabet: GenAlphabet) -> dict | None:
    if not alphabet.has_values():
        return None
    return {s: alphabet.values[s].key for s in alphabet.symbols}


def is_edge_entry(entry) -> bool:
    """A `[source, letter, target]` triple of strings, as files list edges."""
    return (isinstance(entry, (list, tuple)) and len(entry) == 3
            and all(isinstance(x, str) for x in entry))


def automaton_from_obj(obj: dict) -> Automaton:
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
    values = None
    if values_obj:
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
    letters = alphabet.letters()
    d = len(letters)
    slot = {a: j for j, a in enumerate(letters)}
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise AutomatonFormatError("duplicate vertex keys")
    tgt = array("i", [-1]) * (d * len(vertices))
    # Default format lists one directed edge per inverse pair and the loader
    # fills both slots.  With "directed": true every directed edge must be
    # listed explicitly, and `Automaton` rejects a missing inverse.
    directed = obj.get("directed", False)
    if not isinstance(directed, bool):
        raise AutomatonFormatError(f"directed must be true or false, not {directed!r}")

    def set_slot(u: int, j: int, w: int) -> None:
        cur = tgt[u * d + j]
        if cur >= 0 and cur != w:
            raise AutomatonFormatError(
                f"duplicate slot ({vertices[u]!r}, {letters[j]!r}) targets both "
                f"{vertices[cur]!r} and {vertices[w]!r}")
        tgt[u * d + j] = w

    for entry in edges:
        if not is_edge_entry(entry):
            raise AutomatonFormatError(f"bad edge entry {entry!r}")
        u, a, w = entry
        if a not in slot:
            raise AutomatonFormatError(f"edge with unknown letter {a!r}")
        if u not in index or w not in index:
            raise AutomatonFormatError(f"edge {entry!r} references unknown vertex")
        set_slot(index[u], slot[a], index[w])
        if not directed:
            set_slot(index[w], (slot[a] + d // 2) % d, index[u])
    return Automaton.from_targets(alphabet, vertices, tgt,
                                  outer=frozenset(outer) if outer is not None else None)


def save_automaton(aut: Automaton, path) -> None:
    """Write the bytes `json.dump(automaton_to_obj(aut), fh, indent=1,
    sort_keys=True)` and a newline would, with the C string encoder and the
    edges taken in order from the core, in chunks of rows."""
    enc = json.encoder.encode_basestring_ascii
    keys = [enc(v) for v in aut.keys]
    letters = [enc(a) for a in aut.alphabet.letters()]
    values = json.dumps(_values_obj(aut.alphabet), indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write('{\n "alphabet": ')
        _write_list(fh, map(enc, aut.alphabet.symbols))
        fh.write(',\n "edges": ')
        _write_list(fh, (f"[\n   {keys[v]},\n   {letters[j]},\n   {keys[w]}\n  ]"
                         for v, j, w in aut.sorted_edges()))
        fh.write(',\n "format": ' + enc(FORMAT_NAME))
        if aut.outer is not None:
            fh.write(',\n "outer": ')
            _write_list(fh, map(enc, sorted(aut.outer)))
        fh.write(',\n "values": ' + values.replace("\n", "\n "))
        fh.write(',\n "vertices": ')
        _write_list(fh, keys)
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


def report_csv_rows(report: BoundaryReport) -> list[tuple[str, str]]:
    return [("letter", "nu")] + [(a, str(n)) for a, n in report.nu.items()]
