"""Automata as dict rows, induced subgraphs and the file object, for tests.

`fcayley.cayley` builds automata on the integer core (keys in builder or
file order and a flat target array) and writes files straight from it.  This module keeps
what only tests run: its own parsers of letter names (a letter's inverse,
symbol, copy-free token and group value), the builder from rows letter ->
target key or None, slot and edge queries on keys, induced sub-automata
built on `fgroup.multiply`, the JSON object of a file, whose `json.dump`
bytes are the reference for `save_automaton`, and the rounding of a
Fraction to 12 digits by exact arithmetic, the reference for `decimal_str`.
"""

from __future__ import annotations

from array import array
from fractions import Fraction

from fcayley.cayley import INV, FORMAT_NAME, Automaton, AutomatonFormatError, GenAlphabet
from fcayley.fgroup import FElement, element_from_key, invert, multiply


def letter_inverse(letter: str) -> str:
    return letter[: -len(INV)] if letter.endswith(INV) else letter + INV


def letter_symbol(letter: str) -> str:
    """The symbol of a letter: "x0@2^-1" -> "x0@2"."""
    return letter[: -len(INV)] if letter.endswith(INV) else letter


def base_symbol(symbol: str) -> str:
    """A symbol without its copy suffix: "x0@2" -> "x0"."""
    return symbol.split("@", 1)[0]


def letter_value(alphabet: GenAlphabet, letter: str) -> FElement:
    """The group value of a letter of an alphabet with values."""
    v = alphabet.values[letter_symbol(letter)]
    return invert(v) if letter.endswith(INV) else v


def automaton_from_rows(alphabet: GenAlphabet, slots: dict[str, dict[str, str | None]],
                        outer: frozenset[str] | None = None) -> Automaton:
    """Automaton from rows letter -> target key or None, one per vertex."""
    letters = alphabet.letters
    index = {v: i for i, v in enumerate(slots)}
    for v, row in slots.items():
        if row.keys() != set(letters):
            raise AutomatonFormatError(f"vertex {v!r} does not carry one slot per letter")
        for a, w in row.items():
            if w is not None and w not in index:
                raise AutomatonFormatError(f"edge ({v!r}, {a!r}) targets unknown vertex {w!r}")
    tgt = array("i", [index.get(row[a], -1) for row in slots.values() for a in letters])
    return Automaton(alphabet, list(slots), tgt, outer)


def accepts(aut: Automaton, v: str, letter: str) -> bool:
    letters = aut.alphabet.letters
    return aut.tgt[aut.index[v] * len(letters) + letters.index(letter)] >= 0


def geometric_edges(aut: Automaton) -> list[tuple[str, str, str]]:
    """One triple per inverse pair, with a positive letter."""
    return [(v, a, w) for v, a, w in aut.directed_edges() if not a.endswith(INV)]


def restrict(aut: Automaton, keys) -> Automaton:
    """Induced sub-automaton on a subset of vertices (ambient info dropped)."""
    index, d, keep = aut.index, 2 * aut.alphabet.m, set(keys)
    if unknown := sorted(keep - index.keys()):
        raise ValueError(f"keys not in automaton: {unknown[:3]}")
    rows = sorted(map(index.__getitem__, keep))  # kept vertices, in vertex order
    new = [-1] * (len(aut.keys) + 1)  # new number of each old one; new[-1] = -1
    for r, i in enumerate(rows):
        new[i] = r
    tgt = array("i", [new[w] for i in rows for w in aut.tgt[i * d:i * d + d]])
    return Automaton(aut.alphabet, [aut.keys[i] for i in rows], tgt)


def induced_subgraph(keys, alphabet: GenAlphabet) -> Automaton:
    """Automaton induced by explicit element keys (decoded as reduced pairs),
    with the products that leave the set as its outer boundary."""
    if alphabet.values is None:
        raise ValueError("induced subgraph needs an alphabet with group values")
    elements = {}
    for key in keys:
        g = element_from_key(key)
        if g.key != key:
            raise ValueError(f"key {key!r} is not a reduced pair (canonical: {g.key!r})")
        elements[key] = g
    if not elements:
        raise ValueError("empty vertex set")
    rows, outer = {}, set()
    for v, g in elements.items():
        row = {a: multiply(g, letter_value(alphabet, a)).key for a in alphabet.letters}
        outer.update(w for w in row.values() if w not in elements)
        rows[v] = {a: w if w in elements else None for a, w in row.items()}
    return automaton_from_rows(alphabet, rows, frozenset(outer))


def automaton_to_obj(aut: Automaton) -> dict:
    """The file object of an automaton: `save_automaton` writes the bytes of
    `json.dump(obj, fh, indent=1, sort_keys=True)` and a newline."""
    al = aut.alphabet
    obj: dict = {
        "format": FORMAT_NAME,
        "alphabet": list(al.symbols),
        "vertices": sorted(aut.keys),
        "edges": [list(e) for e in sorted(geometric_edges(aut))],
        "values": {s: al.values[s].key for s in al.symbols} if al.values else None,
    }
    if aut.outer is not None:
        obj["outer"] = sorted(aut.outer)
    return obj


def fraction_decimal_str(x: Fraction, digits: int = 12) -> str:
    """Decimal rendering to the given number of significant digits, rounded
    half up with Fraction arithmetic."""
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
