"""Command-line front end: batch experiments and reproducible report files.

Subcommands: ball, bb, sweep, evac, certify, selftest.  Exit codes: 0 for a
completed analysis (including "no scheme exists" results, which carry their
witness), 2 for validation or usage errors, 3 for a rejected certificate.
"""

from __future__ import annotations

import argparse
import json
import sys

# counting, evac, forests, csv and datetime are imported where they are used:
# a job loads only what its subcommand runs
from .cayley import (
    BASE_VALUES,
    ball,
    boundary_report,
    exact_str,
    load_automaton,
    load_json,
    make_alphabet,
    save_automaton,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_REJECTED = 3

# the first letter columns of a sweep CSV, each letter beside its inverse; other
# letters follow in order of appearance
_CSV_ALPHABET = make_alphabet("x0,x1,xb1,x2,x0")
NU_COLUMNS = [a for j in range(_CSV_ALPHABET.m) for a in _CSV_ALPHABET.letters[j::_CSV_ALPHABET.m]]


def _write_json(obj: dict, path: str | None, no_timestamp: bool) -> None:
    if not no_timestamp:
        import datetime

        obj = dict(obj)
        obj["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_automaton(aut, request: dict, args) -> int:
    """Save aut to --out, then write the request and its boundary report (--report or stdout)."""
    if args.out:
        save_automaton(aut, args.out)
    _write_json({**request, "alphabet": aut.alphabet.spec(), "out": args.out,
                 "report": boundary_report(aut).as_obj()}, args.report, args.no_timestamp)
    return EXIT_OK


def cmd_ball(args) -> int:
    aut = ball(args.r, make_alphabet(args.alphabet))
    return _write_automaton(aut, {"command": "ball", "r": args.r}, args)


def cmd_bb(args) -> int:
    alphabet = make_alphabet(args.alphabet)
    if args.mode == "count":
        if args.report is not None:
            raise ValueError("--report needs --mode enumerate")
        from . import counting

        rec = counting.density_report(counting.table(args.k, args.n), args.n,
                                      alphabet.symbols)
        _write_json({"command": "bb", "mode": "count", "record": rec.as_obj()},
                    args.out, args.no_timestamp)
        return EXIT_OK
    from . import forests

    aut = forests.bb_automaton(args.n, args.k, alphabet)
    return _write_automaton(aut, {"command": "bb", "mode": "enumerate", "n": args.n,
                                  "k": args.k}, args)


def _parse_int_list(text: str, option: str) -> list[range]:
    """The items of a comma list of integers and lo:hi ranges, unexpanded."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        ends = part.split(":")
        if len(ends) > 2:
            raise ValueError(f"{option}: range {part!r} has more than two ends")
        try:
            lo, hi = int(ends[0]), int(ends[-1])
        except ValueError:
            raise ValueError(f"{option}: {part!r} is not an integer or a range lo:hi") from None
        if lo > hi:
            raise ValueError(f"{option}: range {part!r} runs backwards")
        out.append(range(lo, hi + 1))
    if not out:
        raise ValueError(f"{option}: empty integer list {text!r}")
    return out


def _sweep_csv(records, path) -> None:
    import csv

    letters = dict.fromkeys(NU_COLUMNS + [a for rec in records for a in rec.nu])
    fields = (["n", "k", "alphabet", "size"]
              + [f"nu_{a}" for a in letters]
              + ["delta", "delta_decimal", "iota", "iota_decimal",
                 "p", "p_decimal", "xi", "xi_decimal"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in records:  # the fields of the JSON record, "" for null
            obj = rec.as_obj()
            obj.update((f"nu_{a}", v) for a, v in obj["nu"].items())
            writer.writerow(["" if obj.get(f) is None else obj[f] for f in fields])


def cmd_sweep(args) -> int:
    from . import counting

    k_ranges = _parse_int_list(args.k, "--k")
    n_ranges = _parse_int_list(args.n, "--n")
    specs = [s.strip() for s in args.alphabets.split(";") if s.strip()]
    if not specs:
        raise ValueError("no alphabets given")
    if args.format == "csv" and not args.out:
        raise ValueError("--format csv needs --out")
    records = counting.sweep(k_ranges, n_ranges, specs)
    if args.format == "csv":
        _sweep_csv(records, args.out)
    else:
        _write_json({"command": "sweep",
                     "records": [rec.as_obj() for rec in records]},
                    args.out, args.no_timestamp)
    return EXIT_OK


def cmd_evac(args) -> int:
    from . import evac

    aut = load_automaton(args.automaton)
    result = evac.solve_with_constant(aut, args.K)
    obj: dict = {"command": "evac", "automaton": args.automaton, "K": args.K,
                 "exists": result.exists}
    if result.exists:
        obj["scheme"] = result.scheme.as_obj()
    else:
        obj["witness"] = result.witness.as_obj()
    _write_json(obj, args.out, args.no_timestamp)
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import evac

    aut = load_automaton(args.automaton)
    cert = evac.certificate_from_obj(aut, load_json(args.cert))
    verdict = evac.verify_flow_certificate(aut, cert)
    obj = {"command": "certify", "automaton": args.automaton,
           "cert": args.cert, "accepted": verdict.accepted,
           "failures": list(verdict.failures),
           "bound": exact_str(verdict.bound) if verdict.bound is not None else None,
           "inequality_holds": verdict.inequality_holds}
    _write_json(obj, args.out, args.no_timestamp)
    return EXIT_OK if verdict.accepted else EXIT_REJECTED


def cmd_selftest(args) -> int:
    from fractions import Fraction

    from . import counting, evac, fgroup, forests

    checks: list[tuple[str, bool]] = []
    rel_ok = all(
        fgroup.multiply(fgroup.generator_x(j), fgroup.generator_x(i))
        == fgroup.multiply(fgroup.generator_x(i), fgroup.generator_x(j + 1))
        for i in range(3) for j in range(i + 1, 4)
    )
    checks.append(("relation x_j x_i = x_i x_{j+1}", rel_ok))
    # x0 -> x0^-1, x1 -> xb1 on the alphabet's values: the relators
    # x1^(x0^k) = x1^(x0^(k-1) x1), k = 2, 3, of the two-generator presentation
    # hold at the images (a, b), the map sends (a, b) back to (x0, x1), and
    # a, b do not commute
    a, b = fgroup.invert(fgroup.X0), BASE_VALUES["xb1"]
    a_inv = fgroup.invert(a)
    checks.append(("order-2 automorphism", all(
        fgroup.conjugate(b, fgroup.power(a, k))
        == fgroup.conjugate(b, fgroup.multiply(fgroup.power(a, k - 1), b)) for k in (2, 3))
        and (a_inv, fgroup.multiply(b, a_inv)) == (fgroup.X0, fgroup.X1)
        and fgroup.multiply(a, b) != fgroup.multiply(b, a)))
    b1 = ball(1, make_alphabet("x0,x1"))
    checks.append(("ball(1, {x0,x1}) has 5 vertices", len(b1) == 5))
    rep = boundary_report(b1)
    # 3 boundary slots per letter, so delta = (4 * 5 - 12) / 5
    checks.append(("ball(1, {x0,x1}) boundary: cheeger 12, delta 8/5",
                   (rep.cheeger, rep.density) == (12, Fraction(8, 5))))
    checks.append(("BB(2,1) count", counting.bb_count(2, 1) == 3
                   and len(forests.bb_automaton(2, 1, make_alphabet("x0,x1"))) == 3))
    checks.append(("ball(1) pure scheme", evac.solve_with_constant(b1, 1).exists))
    chain = evac.blocked_chain_automaton()
    checks.append(("chain blocked at K=1", not evac.solve_with_constant(chain, 1).exists))
    checks.append(("chain solvable at K=2",
                   evac.solve_with_constant(chain, 2).exists))
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return EXIT_OK if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcayley",
        description="Cayley-graph boundary analysis and evacuation schemes "
                    "for Thompson's group F")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, what: str) -> None:
        p.add_argument("--out", help=what)
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field for byte-identical output")

    p = sub.add_parser("ball", help="Cayley ball around the identity")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alphabet", default="x0,x1",
                   help="comma-separated tokens from {x0, x1, xb1, x2}")
    p.add_argument("--report", help="write the boundary report to this path")
    output(p, "write the automaton to this path")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("bb", help="Brown-Belk set BB(n, k) as automaton or DP record")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alphabet", default="x0,x1")
    p.add_argument("--mode", choices=("enumerate", "count"), default="count")
    p.add_argument("--report", help="write the boundary report to this path")
    output(p, "write the automaton (enumerate) or the record (count) to this path")
    p.set_defaults(func=cmd_bb)

    p = sub.add_parser("sweep", help="density / xi / p sweep over a (k, n, alphabet) grid")
    p.add_argument("--k", required=True, help="comma list or lo:hi ranges, e.g. 2,4,6:8")
    p.add_argument("--n", required=True, help="comma list or lo:hi ranges")
    p.add_argument("--alphabets", default="x0,x1",
                   help="semicolon-separated alphabet specs")
    output(p, "write the records to this path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evac", help="solve for an evacuation scheme on a saved automaton")
    p.add_argument("--automaton", required=True)
    p.add_argument("--K", type=int, default=1)
    output(p, "write the scheme or witness to this path (default: stdout)")
    p.set_defaults(func=cmd_evac)

    p = sub.add_parser("certify", help="verify a flow certificate against a saved automaton")
    p.add_argument("--automaton", required=True)
    p.add_argument("--cert", required=True)
    output(p, "write the verdict to this path (default: stdout)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("selftest", help="run the built-in sanity battery")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
