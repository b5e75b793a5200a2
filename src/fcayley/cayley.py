"""Finite subgraphs (automata) of right Cayley graphs, with exact boundary reports.

An automaton is a finite vertex set where every vertex carries exactly 2m
directed-edge slots, one per letter of the group alphabet A^{+-1}.  A slot
either targets another vertex inside ("accepted") or is a boundary slot.
Mutually inverse slots must pair up (Serre condition).

Letters are strings: a positive letter is its symbol name, the inverse
carries the suffix "^-1".  A multiset alphabet uses distinct symbol names
bound to equal group values (e.g. "x0" and "x0@2").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import fgroup
from .fgroup import FElement, element_from_key

INV = "^-1"


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
    """Immutable labelled Serre graph with per-vertex acceptance slots."""

    def __init__(self, alphabet: GenAlphabet,
                 slots: dict[str, dict[str, str | None]],
                 outer: frozenset[str] | None = None):
        self.alphabet = alphabet
        letters = alphabet.letters()
        inverse = {a: letter_inverse(a) for a in letters}
        keys = tuple(sorted(slots))
        if not keys:
            raise ValueError("automaton must be nonempty")
        # rows in letter order are kept: a copy would hold every row twice
        norm: dict[str, dict[str, str | None]] = {}
        for v in keys:
            row = slots[v]
            if list(row) != letters:
                if row.keys() != set(letters):
                    raise AutomatonFormatError(f"vertex {v!r} does not carry one slot per letter")
                row = {a: row[a] for a in letters}
            norm[v] = row
        for v in keys:
            for a, w in norm[v].items():
                if w is None:
                    continue
                if w not in norm:
                    raise AutomatonFormatError(f"edge ({v!r}, {a!r}) targets unknown vertex {w!r}")
                if norm[w][inverse[a]] != v:
                    raise SerreViolation(
                        f"edge ({v!r}, {a!r}, {w!r}) has no inverse edge "
                        f"({w!r}, {inverse[a]!r}, {v!r})")
        self.keys = keys
        self.slots = norm
        self.outer = outer

    def __len__(self):
        return len(self.keys)

    def __contains__(self, key: str):
        return key in self.slots

    def accepts(self, v: str, letter: str) -> bool:
        return self.slots[v][letter] is not None

    def inner_boundary(self) -> tuple[str, ...]:
        """Vertices with at least one boundary slot."""
        return tuple(v for v in self.keys
                     if any(t is None for t in self.slots[v].values()))

    def directed_edges(self) -> list[tuple[str, str, str]]:
        """All accepted directed edges as (source, letter, target) triples."""
        return [(v, a, w) for v in self.keys
                for a, w in self.slots[v].items() if w is not None]

    def geometric_edges(self) -> list[tuple[str, str, str]]:
        """One triple per inverse pair, with a positive letter."""
        return [(v, a, w) for v, a, w in self.directed_edges() if not a.endswith(INV)]

    def restrict(self, keys) -> "Automaton":
        """Induced sub-automaton on a subset of vertices (ambient info dropped)."""
        keep = set(keys)
        unknown = keep - set(self.keys)
        if unknown:
            raise ValueError(f"keys not in automaton: {sorted(unknown)[:3]}")
        slots = {
            v: {a: (w if w in keep else None) for a, w in self.slots[v].items()}
            for v in keep
        }
        return Automaton(self.alphabet, slots, outer=None)


@dataclass(frozen=True)
class BoundaryReport:
    """Exact boundary and density data of one automaton."""

    size: int
    nu: dict[str, int]
    inner_boundary: int
    outer_boundary: int | None
    cheeger: int
    density: Fraction
    iota: Fraction

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
    scaled = x * Fraction(10) ** (digits - 1)
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
    m = aut.alphabet.m
    nu = {a: 0 for a in aut.alphabet.letters()}
    inner = 0
    for v in aut.keys:
        row = aut.slots[v]
        missing = [a for a, t in row.items() if t is None]
        if missing:
            inner += 1
            for a in missing:
                nu[a] += 1
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
    """Ball of radius r around the identity, as an automaton with ambient data.

    The products that grow B(r) from B(r-1) are kept as the slot rows of
    B(r-1), so only the sphere is multiplied again.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if not alphabet.has_values():
        raise ValueError("ball construction needs an alphabet with group values")
    values = [alphabet.value(a) for a in alphabet.letters()]
    elements = {fgroup.IDENTITY.key: fgroup.IDENTITY}
    products: dict[str, list[FElement]] = {}
    frontier = [fgroup.IDENTITY]
    for _ in range(r):
        nxt = []
        for g in frontier:
            row = products[g.key] = [fgroup.multiply(g, v) for v in values]
            for h in row:
                if h.key not in elements:
                    elements[h.key] = h
                    nxt.append(h)
        frontier = nxt
    return _cayley_automaton(elements, alphabet, values, products)


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
    values = [alphabet.value(a) for a in alphabet.letters()]
    return _cayley_automaton(elements, alphabet, values, {})


def _cayley_automaton(elements: dict[str, FElement], alphabet: GenAlphabet,
                      values: list[FElement],
                      products: dict[str, list[FElement]]) -> Automaton:
    """Slots g -> g*a for every element; `products` holds rows already computed."""
    letters = alphabet.letters()
    slots: dict[str, dict[str, str | None]] = {}
    outer: set[str] = set()
    for key, g in elements.items():
        row = [h.key for h in products.get(key) or [fgroup.multiply(g, v) for v in values]]
        slots[key] = {a: h if h in elements else None for a, h in zip(letters, row)}
        outer.update(h for h in row if h not in elements)
    return Automaton(alphabet, slots, outer=frozenset(outer))


# ---------------------------------------------------------------------------
# Serialization

FORMAT_NAME = "fcayley-automaton"


def automaton_to_obj(aut: Automaton) -> dict:
    obj: dict = {
        "format": FORMAT_NAME,
        "alphabet": list(aut.alphabet.symbols),
        "vertices": list(aut.keys),
        "edges": sorted(aut.geometric_edges()),
    }
    if aut.alphabet.has_values():
        obj["values"] = {s: aut.alphabet.values[s].key for s in aut.alphabet.symbols}
    else:
        obj["values"] = None
    if aut.outer is not None:
        obj["outer"] = sorted(aut.outer)
    return obj


def is_edge_entry(entry) -> bool:
    """A `[source, letter, target]` triple of strings, as files list edges."""
    return (isinstance(entry, (list, tuple)) and len(entry) == 3
            and all(isinstance(x, str) for x in entry))


def automaton_from_obj(obj: dict) -> Automaton:
    try:
        symbols = list(obj["alphabet"])
        vertices = list(obj["vertices"])
        edges = list(obj["edges"])
    except (KeyError, TypeError) as exc:
        raise AutomatonFormatError(f"missing automaton field: {exc}") from None
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
    letters = set(alphabet.letters())
    if len(set(vertices)) != len(vertices):
        raise AutomatonFormatError("duplicate vertex keys")
    slots: dict[str, dict[str, str | None]] = {
        v: {a: None for a in alphabet.letters()} for v in vertices
    }
    # Default format lists one directed edge per inverse pair and the loader
    # fills both slots.  With "directed": true every directed edge must be
    # listed explicitly, and `Automaton` rejects a missing inverse.
    directed = bool(obj.get("directed", False))

    def set_slot(src: str, lab: str, dst: str) -> None:
        cur = slots[src][lab]
        if cur is not None and cur != dst:
            raise AutomatonFormatError(
                f"duplicate slot ({src!r}, {lab!r}) targets both {cur!r} and {dst!r}")
        slots[src][lab] = dst

    for entry in edges:
        if not is_edge_entry(entry):
            raise AutomatonFormatError(f"bad edge entry {entry!r}")
        u, a, w = entry
        if a not in letters:
            raise AutomatonFormatError(f"edge with unknown letter {a!r}")
        if u not in slots or w not in slots:
            raise AutomatonFormatError(f"edge {entry!r} references unknown vertex")
        set_slot(u, a, w)
        if not directed:
            set_slot(w, letter_inverse(a), u)
    return Automaton(alphabet, slots, outer=frozenset(outer) if outer is not None else None)


def save_automaton(aut: Automaton, path) -> None:
    with open(path, "w") as fh:
        json.dump(automaton_to_obj(aut), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_automaton(path) -> Automaton:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AutomatonFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise AutomatonFormatError("automaton file must hold a JSON object")
    return automaton_from_obj(obj)


def report_csv_rows(report: BoundaryReport) -> list[tuple[str, str]]:
    return [("letter", "nu")] + [(a, str(n)) for a, n in report.nu.items()]
