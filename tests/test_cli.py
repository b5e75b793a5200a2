import csv
import hashlib
import json
import os
import time

import pytest

from fcayley import evac
from fcayley.cayley import load_automaton, save_automaton
from fcayley.cli import EXIT_OK, EXIT_REJECTED, EXIT_VALIDATION, NU_COLUMNS, build_parser, main


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_ball_command(tmp_path):
    out = tmp_path / "ball1.json"
    report = tmp_path / "report.json"
    code = run(["ball", "--r", "1", "--alphabet", "x0,x1",
                "--out", str(out), "--report", str(report), "--no-timestamp"])
    assert code == EXIT_OK
    aut = load_automaton(out)
    assert len(aut) == 5
    rep = read_json(report)
    assert rep["report"]["size"] == 5
    assert rep["report"]["delta"] == "8/5"
    assert "timestamp" not in rep


def test_ball_r0(tmp_path):
    out = tmp_path / "b0.json"
    code = run(["ball", "--r", "0", "--out", str(out),
                "--report", str(tmp_path / "r.json"), "--no-timestamp"])
    assert code == EXIT_OK
    assert len(load_automaton(out)) == 1


def test_bad_alphabet_token_is_usage_error(tmp_path):
    code = run(["ball", "--r", "1", "--alphabet", "x0,bogus",
                "--out", str(tmp_path / "x.json")])
    assert code == EXIT_VALIDATION


def test_bb_count_mode(tmp_path):
    out = tmp_path / "bb.json"
    code = run(["bb", "--n", "2", "--k", "1", "--mode", "count",
                "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    obj = read_json(out)
    assert obj["record"]["size"] == "3"


def test_bb_enumerate_mode(tmp_path):
    out = tmp_path / "bb52.json"
    code = run(["bb", "--n", "5", "--k", "2", "--alphabet", "x0,x1,xb1",
                "--mode", "enumerate", "--out", str(out),
                "--report", str(tmp_path / "rep.json"), "--no-timestamp"])
    assert code == EXIT_OK
    aut = load_automaton(out)
    assert len(aut) == 60
    rep = read_json(tmp_path / "rep.json")
    assert rep["report"]["size"] == 60


def test_bb_budget_guard(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run(["bb", "--n", "40", "--k", "3", "--mode", "enumerate", "--out", str(out)])
    assert code == EXIT_VALIDATION and not out.exists()
    assert capsys.readouterr().err == (
        "error: BB(40,3) has at least 8,444,322,344,553 forests, past the bound of "
        "10,000,000 forests\n")


def test_sweep_csv_and_reparse(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--k", "1,2", "--n", "4:6",
                "--alphabets", "x0,x1;x0,x1,xb1",
                "--format", "csv", "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    from fractions import Fraction

    for row in rows:
        m = len(row["alphabet"].split(","))
        assert Fraction(row["delta"]) + Fraction(row["iota"]) == 2 * m


def test_sweep_json(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(["sweep", "--k", "0", "--n", "3,4", "--alphabets", "x0,x1",
                "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    obj = read_json(out)
    assert [r["size"] for r in obj["records"]] == ["3", "4"]


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["sweep", "--k", "1,2", "--n", "5", "--alphabets", "x0,x1",
            "--no-timestamp"]
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_evac_command_scheme(tmp_path):
    from fcayley.cayley import ball, make_alphabet

    aut_path = tmp_path / "ball1.json"
    save_automaton(ball(1, make_alphabet("x0,x1")), aut_path)
    out = tmp_path / "evac.json"
    code = run(["evac", "--automaton", str(aut_path), "--K", "1",
                "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    obj = read_json(out)
    assert obj["exists"] is True
    assert len(obj["scheme"]["paths"]) == 5


def test_evac_command_witness(tmp_path):
    aut_path = tmp_path / "chain.json"
    save_automaton(evac.blocked_chain_automaton(), aut_path)
    out = tmp_path / "evac.json"
    code = run(["evac", "--automaton", str(aut_path), "--K", "1",
                "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK  # "none" is a successful analysis
    obj = read_json(out)
    assert obj["exists"] is False
    assert sorted(obj["witness"]["Z"]) == ["u1", "u2", "u3"]
    assert obj["witness"]["cheeger"] == 2
    # and K=2 solves it
    out2 = tmp_path / "evac2.json"
    code = run(["evac", "--automaton", str(aut_path), "--K", "2",
                "--out", str(out2), "--no-timestamp"])
    assert code == EXIT_OK
    assert read_json(out2)["exists"] is True


def test_certify_command(tmp_path):
    from cayley_ref import automaton_from_rows
    from fcayley.cayley import GenAlphabet

    verts = [f"v{i}" for i in range(5)]
    slots = {v: {"a": None, "a^-1": None} for v in verts}
    for u, w in zip(verts, verts[1:]):
        slots[u]["a"] = w
        slots[w]["a^-1"] = u
    aut = automaton_from_rows(GenAlphabet(("a",)), slots)
    aut_path = tmp_path / "path5.json"
    save_automaton(aut, aut_path)

    good = {"C": "3", "eps": "1",
            "flow": [["v0", "a", "v1", "2"], ["v1", "a", "v2", "1"],
                     ["v2", "a", "v3", "0"], ["v3", "a", "v4", "-1"]],
            "boundary_inflows": {"v0": "3", "v4": "2"}}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(good))
    out = tmp_path / "verdict.json"
    code = run(["certify", "--automaton", str(aut_path), "--cert", str(cert_path),
                "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    obj = read_json(out)
    assert obj["accepted"] is True
    assert obj["bound"] == "1/3"
    assert obj["inequality_holds"] is True

    bad = {"C": "3", "eps": "1", "flow": [], "boundary_inflows": {}}
    cert_path.write_text(json.dumps(bad))
    code = run(["certify", "--automaton", str(aut_path), "--cert", str(cert_path),
                "--out", str(out), "--no-timestamp"])
    assert code == EXIT_REJECTED


def test_certificate_numbers_are_strings_or_integers(tmp_path, capsys):
    aut_path = tmp_path / "path3.json"
    aut_path.write_text(json.dumps({"alphabet": ["a"], "vertices": ["v0", "v1", "v2"],
                                    "edges": [["v0", "a", "v1"], ["v1", "a", "v2"]]}))
    cert = {"C": 0.3, "eps": 0.1, "flow": [["v0", "a", "v1", 0.2], ["v1", "a", "v2", 0.1]],
            "boundary_inflows": {"v0": 0.3, "v2": 0}}
    cert_path, out = tmp_path / "cert.json", tmp_path / "verdict.json"
    args = ["certify", "--automaton", str(aut_path), "--cert", str(cert_path),
            "--out", str(out), "--no-timestamp"]
    # floats (0.3 - 0.2 < 0.1 in binary) and bools are refused
    for bad in (cert, dict(cert, C=True)):
        cert_path.write_text(json.dumps(bad))
        assert run(args) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: bad rational value ")
    as_strings = {"C": "0.3", "eps": "1/10",
                  "flow": [["v0", "a", "v1", "0.2"], ["v1", "a", "v2", "0.1"]],
                  "boundary_inflows": {"v0": "0.3", "v2": 0}}
    cert_path.write_text(json.dumps(as_strings))
    assert run(args) == EXIT_OK
    assert read_json(out)["bound"] == "1/3"


def test_an_edge_listed_from_both_ends_loads_as_listed_once(tmp_path, capsys):
    path = tmp_path / "aut.json"
    assert run(["ball", "--r", "2", "--out", str(path), "--report", os.devnull]) == EXIT_OK
    obj = read_json(path)
    one_way = load_automaton(path)
    assert run(["evac", "--automaton", str(path), "--no-timestamp"]) == EXIT_OK
    expected = capsys.readouterr().out
    both = [e for u, a, w in obj["edges"] for e in ([w, a + "^-1", u], [u, a, w])]
    path.write_text(json.dumps({**obj, "edges": both}))
    aut = load_automaton(path)
    assert (aut.keys, aut.tgt) == (one_way.keys, one_way.tgt)
    assert run(["evac", "--automaton", str(path), "--no-timestamp"]) == EXIT_OK
    assert capsys.readouterr().out == expected
    # "directed" is no automaton field, whatever its value
    for value in (True, "yes"):
        path.write_text(json.dumps({**obj, "directed": value, "edges": both}))
        assert run(["evac", "--automaton", str(path)]) == EXIT_VALIDATION, value
        assert capsys.readouterr().err == "error: unknown automaton fields: ['directed']\n"
    # a listed inverse that names another target is refused
    u, a, w = obj["edges"][0]
    other = next(v for v in obj["vertices"] if v not in (u, w))
    path.write_text(json.dumps({**obj, "edges": obj["edges"] + [[w, a + "^-1", other]]}))
    assert run(["evac", "--automaton", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: duplicate slot ")


def test_negative_height_cap_in_count_mode(capsys):
    for args in (["bb", "--n", "5", "--k", "-1"], ["sweep", "--k", "-1", "--n", "5"]):
        assert run(args) == EXIT_VALIDATION, args
        assert capsys.readouterr().err == "error: k must be nonnegative\n", args


def test_bad_integer_lists_are_usage_errors(capsys):
    for k, n, message in (
            ("1:2:3", "5", "error: --k: range '1:2:3' has more than two ends\n"),
            ("2,5:1", "5", "error: --k: range '5:1' runs backwards\n"),
            (",", "5", "error: --k: empty integer list ','\n"),
            ("x", "5", "error: --k: 'x' is not an integer or a range lo:hi\n"),
            ("2", "1,3:", "error: --n: '3:' is not an integer or a range lo:hi\n"),
            (":5", "5", "error: --k: ':5' is not an integer or a range lo:hi\n")):
        assert run(["sweep", "--k", k, "--n", n]) == EXIT_VALIDATION, k
        assert capsys.readouterr().err == message, k


def test_empty_list_items_are_skipped(tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for k, out in zip(("2,,3", "2,3"), outs):
        assert run(["sweep", "--k", k, "--n", "4", "--out", str(out), "--no-timestamp"]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("args,message", [
    (["ball", "--r", "-1"], "radius must be nonnegative"),
    (["ball", "--r", "1", "--alphabet", ","], "empty alphabet spec ','"),
    (["sweep", "--k", "2", "--n", "5", "--alphabets", ";"], "no alphabets given"),
    (["bb", "--mode", "enumerate", "--n", "3", "--k", "-1"], "k must be nonnegative"),
    (["sweep", "--k", "2", "--n", "1:1000000000"],
     "the sweep grid has 1,000,000,000 records, past the bound of 100,000 records"),
    (["sweep", "--k", "0:9", "--n", "55537:65536"],
     "the records of the sweep grid take about 150,501 MiB, past the bound of 1,024 MiB"),
], ids=["ball-radius", "ball-alphabet", "sweep-alphabets", "bb-k", "sweep-grid",
        "sweep-record-size"])
def test_refused_arguments_name_their_fault(args, message, capsys):
    assert run(args) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


def test_evac_refuses_a_constant_below_one(tmp_path, capsys):
    path = tmp_path / "chain.json"
    save_automaton(evac.blocked_chain_automaton(), path)
    assert run(["evac", "--automaton", str(path), "--K", "0"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: K must be at least 1\n"


def test_n_below_one_is_usage_error(capsys):
    for args in (["sweep", "--k", "3", "--n", "0"], ["sweep", "--k", "3", "--n=-3"],
                 ["sweep", "--k", "3", "--n", "0,5"],
                 ["bb", "--mode", "count", "--n", "0", "--k", "3"],
                 ["bb", "--mode", "enumerate", "--n", "0", "--k", "1"]):
        assert run(args) == EXIT_VALIDATION, args
        assert capsys.readouterr().err == "error: n must be positive\n", args


def test_csv_usage_errors_come_before_any_work(monkeypatch, capsys):
    from fcayley import counting

    tables = []
    monkeypatch.setattr(counting, "table", lambda k, n: tables.append((k, n)))
    assert run(["sweep", "--k", "2", "--n", "5", "--format", "csv"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: --format csv needs --out\n"
    assert tables == []


def test_sweep_builds_one_table_per_cap(monkeypatch):
    from fcayley import counting

    built = []  # (k, n_max) of each table the sweep constructs

    class Spy(counting.CountTable):
        def __init__(self, k, n_max):
            built.append((k, n_max))
            super().__init__(k, n_max)

    monkeypatch.setattr(counting, "CountTable", Spy)
    assert run(["sweep", "--k", "0:6", "--n", "1:40,300",
                "--out", os.devnull]) == EXIT_OK
    assert built == [(k, 300) for k in range(7)]


def test_sweep_holds_one_table_at_a_time(monkeypatch):
    import weakref

    from fcayley import counting

    alive = weakref.WeakSet()
    held = []  # how many tables are alive as each one is constructed

    class Tracked(counting.CountTable):
        def __init__(self, k, n_max):
            alive.add(self)
            held.append(len(alive))
            super().__init__(k, n_max)

    monkeypatch.setattr(counting, "CountTable", Tracked)
    assert run(["sweep", "--k", "0:6", "--n", "1:40,300",
                "--out", os.devnull]) == EXIT_OK
    assert held == [1] * 7


def test_missing_file_is_validation_error(tmp_path):
    code = run(["evac", "--automaton", str(tmp_path / "nope.json")])
    assert code == EXIT_VALIDATION


def test_selftest(capsys):
    assert run(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_selftest_fails_on_a_wrong_boundary_count(monkeypatch, capsys):
    from fcayley import cli

    report = cli.boundary_report
    monkeypatch.setattr(cli, "boundary_report",
                        lambda aut: (rep := report(aut))._replace(cheeger=rep.cheeger + 7))
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  ball(1, {x0,x1}) boundary: cheeger 12, delta 8/5\n" in out
    assert out.count("FAIL") == 1


def test_evac_deterministic_bytes(tmp_path):
    aut_path = tmp_path / "chain.json"
    save_automaton(evac.blocked_chain_automaton(), aut_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["evac", "--automaton", str(aut_path), "--K", "2", "--no-timestamp"]
    assert run(base + ["--out", str(a)]) == EXIT_OK
    assert run(base + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_flags_of_other_subcommands_are_usage_errors(tmp_path):
    for args in (["evac", "--automaton", str(tmp_path / "a.json"), "--format", "csv"],
                 ["ball", "--r", "1", "--threads", "2"],
                 ["ball", "--r", "1", "--format", "csv"],
                 ["bb", "--n", "2", "--k", "1", "--format", "json"],
                 ["bb", "--mode", "enumerate", "--n", "2", "--k", "1", "--budget", "5"],
                 ["sweep", "--k", "1", "--n", "4", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == EXIT_VALIDATION, args


def test_refused_serial_sweep_builds_no_table(monkeypatch):
    from fcayley import cayley, counting

    monkeypatch.setattr(cayley, "MAX_MIB", 2)
    # a table of 2,100 leaves takes 2 MiB to build, within the bound
    assert len(counting.sweep([range(2, 4)], [range(2100, 2101)], ["x0"])) == 2
    built = []
    monkeypatch.setattr(counting, "CountTable", lambda k, n_max: built.append(k) or 1 / 0)
    # k = 2 up to 1,000 leaves fits in 2 MiB, k = 12 needs 3 MiB of circuit registers
    with pytest.raises(ValueError, match="k = 12 up to n = 1000 leaves takes up to 3 MiB, "
                                         "past the bound of 2 MiB$"):
        counting.sweep([range(2, 3), range(12, 13)], [range(1000, 1001)], ["x0"])
    assert built == []


def test_evac_and_certify_read_unsorted_files(tmp_path):
    import random

    from fcayley.cayley import ball, make_alphabet

    def unsorted(name, obj):
        obj = dict(obj, vertices=list(obj["vertices"]))
        random.Random(name).shuffle(obj["vertices"])
        (tmp_path / name).write_text(json.dumps(obj))
        return str(tmp_path / name)

    save_automaton(ball(3, make_alphabet("x0,x1")), tmp_path / "ball3.json")
    save_automaton(evac.blocked_chain_automaton(), tmp_path / "chain.json")
    (tmp_path / "neck.json").write_text(json.dumps(BOTTLENECK))
    out = tmp_path / "out.json"
    for name, K in (("ball3.json", 1), ("chain.json", 1), ("chain.json", 2), ("neck.json", 1)):
        path = unsorted("unsorted-" + name, read_json(tmp_path / name))
        aut = load_automaton(path)
        assert list(aut.keys) == read_json(path)["vertices"] != sorted(aut.keys)
        assert run(["evac", "--automaton", path, "--K", str(K), "--out", str(out)]) == EXIT_OK
        result = read_json(out)
        if result["exists"]:
            evac.validate_scheme(aut, evac.scheme_from_obj(result["scheme"]))
        else:
            Z = set(result["witness"]["Z"])
            assert K * evac.cheeger_out(aut, Z) == K * result["witness"]["cheeger"] < len(Z)
    # the same verdict as on the file in key order, failures in any order
    (tmp_path / "cert.json").write_text(json.dumps(BOTTLENECK_CERT))
    verdicts = []
    for path in (str(tmp_path / "neck.json"), unsorted("neck-a.json", BOTTLENECK),
                 unsorted("neck-b.json", BOTTLENECK)):
        assert run(["certify", "--automaton", path, "--cert", str(tmp_path / "cert.json"),
                    "--out", str(out), "--no-timestamp"]) == EXIT_REJECTED
        verdict = read_json(out)
        verdicts.append((sorted(verdict.pop("failures")), dict(verdict, automaton=None)))
    assert verdicts[0][0] and verdicts[0] == verdicts[1] == verdicts[2]


def test_malformed_automaton_files_exit_2(tmp_path, capsys):
    base = {"alphabet": ["a"], "vertices": ["u"], "edges": []}
    for name, obj in (("edge.json", {**base, "edges": [5]}),
                      ("values.json", {**base, "values": ["x"]}),
                      ("outer.json", {**base, "outer": 5}),
                      ("symbol.json", {**base, "alphabet": [1]}),
                      ("unknown.json", {**base, "values": {"a": ".|.", "b": ".|."}}),
                      ("alphabet_str.json", {**base, "alphabet": "a", "vertices": "uv"}),
                      ("vertices_obj.json", {**base, "vertices": {"u": 1}}),
                      ("edges_str.json", {**base, "edges": "uau"})):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        assert run(["evac", "--automaton", str(path)]) == EXIT_VALIDATION, name
        assert capsys.readouterr().err.startswith("error: "), name
    # a misspelled field or a foreign format loses no data without a word
    saved = tmp_path / "ball.json"
    assert run(["ball", "--r", "1", "--out", str(saved), "--report", os.devnull]) == EXIT_OK
    obj = read_json(saved)
    outers = {k: v for k, v in obj.items() if k != "outer"} | {"outers": obj["outer"]}
    for fields, message in ((outers, "unknown automaton fields: ['outers']"),
                            ({**obj, "format": "bogus"},
                             "format must be 'fcayley-automaton', not 'bogus'")):
        saved.write_text(json.dumps(fields))
        assert run(["evac", "--automaton", str(saved)]) == EXIT_VALIDATION, message
        assert capsys.readouterr().err == f"error: {message}\n"


AUTOMATON = {"alphabet": ["a"], "vertices": ["u", "v"], "edges": [["u", "a", "v"]]}


@pytest.mark.parametrize("obj,message", [
    ({"alphabet": ["a"], "vertices": ["u"]}, "missing automaton field: 'edges'"),
    ({**AUTOMATON, "vertices": ["u", "v", "u"]}, "duplicate vertex keys"),
    ({**AUTOMATON, "edges": [["u", "b", "v"]]}, "edge with unknown letter 'b'"),
    ({**AUTOMATON, "edges": [["u", "a", "w"]]},
     "edge ['u', 'a', 'w'] references unknown vertex"),
    ([AUTOMATON], "automaton file must hold a JSON object"),
    ({**AUTOMATON, "vertices": [], "edges": []}, "automaton must be nonempty"),
    ({**AUTOMATON, "alphabet": [], "edges": []}, "alphabet needs at least one symbol"),
    ({**AUTOMATON, "alphabet": ["a", "a"]},
     "alphabet symbols must be distinct (use @2, @3 suffixes)"),
    ({**AUTOMATON, "alphabet": ["a^-1"], "edges": []}, "bad symbol name 'a^-1'"),
    ({**AUTOMATON, "alphabet": ["a;b"], "edges": []}, "bad symbol name 'a;b'"),
    ({**AUTOMATON, "alphabet": ["a|b"], "edges": []}, "bad symbol name 'a|b'"),
    ({**AUTOMATON, "alphabet": ["a", "b"], "values": {"a": ".|."}},
     "symbols without values: ['b']"),
    ({**AUTOMATON, "values": []}, "values must map symbols to 'domain|range' keys"),
    ({**AUTOMATON, "values": False}, "values must map symbols to 'domain|range' keys"),
    # both loaded before: a vertex was counted as outer, a repeated key once
    ({**AUTOMATON, "outer": ["w", "v"]}, "outer keys must be distinct and not vertex keys"),
    ({**AUTOMATON, "outer": ["w", "x", "w"]}, "outer keys must be distinct and not vertex keys"),
], ids=["missing-field", "duplicate-vertex", "unknown-letter", "unknown-vertex", "list",
        "no-vertices", "no-symbols", "repeated-symbol", "inverse-symbol", "semicolon-symbol",
        "bar-symbol", "missing-values", "values-list", "values-false", "outer-vertex",
        "outer-repeated"])
def test_automaton_file_refusals_name_their_fault(tmp_path, capsys, obj, message):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(obj))
    assert run(["evac", "--automaton", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cert,code,message", [
    ([1], EXIT_VALIDATION, "certificate must be an object with C and eps"),
    ({"C": "0", "eps": "1"}, EXIT_REJECTED, "constants C and eps must be positive"),
    ({"C": "1", "eps": "-1/2"}, EXIT_REJECTED, "constants C and eps must be positive"),
    ({"C": "1", "eps": "1", "boundary_inflows": {"zz": "1"}}, EXIT_REJECTED,
     "boundary inflow for unknown vertex 'zz'"),
], ids=["list", "C", "eps", "unknown-vertex"])
def test_certificate_refusals_name_their_fault(tmp_path, capsys, cert, code, message):
    aut, path, out = tmp_path / "chain.json", tmp_path / "cert.json", tmp_path / "out.json"
    save_automaton(evac.blocked_chain_automaton(), aut)
    path.write_text(json.dumps(cert))
    assert run(["certify", "--automaton", str(aut), "--cert", str(path),
                "--out", str(out)]) == code
    if code == EXIT_REJECTED:
        assert message in read_json(out)["failures"]
    else:
        assert capsys.readouterr().err == f"error: {message}\n"


def test_deep_value_keys_load(tmp_path, capsys):
    # 1,200 nested carets: deeper than the interpreter's recursion limit
    deep = "(." * 1200 + "." + ")" * 1200
    obj = {"alphabet": ["a"], "vertices": ["u", "v"], "edges": [["u", "a", "v"]],
           "values": {"a": deep + "|" + deep}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(obj))
    assert load_automaton(path).alphabet.values["a"].is_identity()
    assert run(["evac", "--automaton", str(path), "--out", str(tmp_path / "e.json")]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_malformed_certificate_files_exit_2(tmp_path, capsys):
    aut_path = tmp_path / "chain.json"
    save_automaton(evac.blocked_chain_automaton(), aut_path)
    for name, obj in (("entry.json", {"C": "1", "eps": "1", "flow": [5]}),
                      ("flow.json", {"C": "1", "eps": "1", "flow": 5}),
                      ("inflows.json", {"C": "1", "eps": "1", "boundary_inflows": ["z"]}),
                      ("vertex.json", {"C": "1", "eps": "1",
                                       "flow": [[["u1"], "b", "u2", "1"]]})):
        cert_path = tmp_path / name
        cert_path.write_text(json.dumps(obj))
        code = run(["certify", "--automaton", str(aut_path), "--cert", str(cert_path)])
        assert code == EXIT_VALIDATION, name
        assert capsys.readouterr().err.startswith("error: "), name
    # exponent notation is refused before Fraction expands 10^100000000
    cert_path = tmp_path / "exponent.json"
    cert_path.write_text('{"C":"1","eps":"1e100000000","flow":[],"boundary_inflows":{}}')
    start = time.perf_counter()
    code = run(["certify", "--automaton", str(aut_path), "--cert", str(cert_path)])
    assert code == EXIT_VALIDATION and time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: bad rational value '1e100000000'\n"
    # a file that is not JSON at all reads as an automaton file would
    cert_path = tmp_path / "nope.json"
    cert_path.write_text("{ nope")
    code = run(["certify", "--automaton", str(aut_path), "--cert", str(cert_path)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def test_deeply_nested_json_is_not_valid_json(tmp_path, capsys):
    aut_path, deep = tmp_path / "chain.json", tmp_path / "deep.json"
    save_automaton(evac.blocked_chain_automaton(), aut_path)
    deep.write_text("[" * 100000 + "]" * 100000)
    for args in (["evac", "--automaton", str(deep)],
                 ["certify", "--automaton", str(aut_path), "--cert", str(deep)]):
        assert run(args) == EXIT_VALIDATION, args[0]
        assert capsys.readouterr().err.startswith("error: not valid JSON: "), args[0]


def test_bb_count_mode_with_unbinding_height_cap(tmp_path):
    import tracemalloc

    records = []
    for k in ("4", "5", "1200", "100000000"):
        out = tmp_path / f"bb_{k}.json"
        tracemalloc.start()
        try:
            assert run(["bb", "--n", "5", "--k", k, "--mode", "count",
                        "--out", str(out), "--no-timestamp"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # caps above n - 1 cannot bind, so no 2^k-sized integer is ever made
        assert peak < 4 * 2 ** 20, (k, peak)
        record = read_json(out)["record"]
        assert record.pop("k") == int(k)
        records.append(record)
    assert records[0]["size"] == "90"
    assert all(rec == records[0] for rec in records)


def test_bb_count_mode_above_the_circuit_cap_makes_no_register_list(tmp_path):
    import tracemalloc

    tracemalloc.start()
    try:
        assert run(["bb", "--n", "900", "--k", "20", "--mode", "count",
                    "--out", str(tmp_path / "rec.json"), "--no-timestamp"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2^20 > 900^2 / 128, so the table convolves; 2^20 registers would take 8 MiB
    assert peak < 4 * 2 ** 20, peak


def test_bb_count_mode_with_unbinding_cap_is_fast(tmp_path):
    import time

    from fcayley import counting

    start = time.perf_counter()
    assert run(["bb", "--n", "400", "--k", "1000", "--mode", "count",
                "--out", str(tmp_path / "rec.json"), "--no-timestamp"]) == EXIT_OK
    # the trees are the Catalan numbers; walking 400 height levels took seconds
    assert time.perf_counter() - start < 1.0
    assert read_json(tmp_path / "rec.json")["record"]["size"] == str(counting.catalan(401)
                                                                     - counting.catalan(400))


def digits_value(text: str) -> int:
    """The integer a decimal string spells, read 1000 digits at a time, as
    int() refuses strings past the interpreter's digit limit too."""
    value = 0
    for i in range(0, len(text), 1000):
        value = value * 10 ** len(text[i:i + 1000]) + int(text[i:i + 1000])
    return value


def test_counts_past_the_str_limit_render(tmp_path):
    from fractions import Fraction

    from fcayley.cli import _sweep_csv
    from fcayley.counting import DensityRecord

    size = 7 * 10 ** 4999 + 3 ** 1000  # 5,000 digits with a run of zeros inside
    rec = DensityRecord(n=9, k=3, alphabet="x0", size=size,
                        nu={"x0": size - 1, "x0^-1": 10 ** 4500},
                        density=Fraction(2 * size - 1, size), iota=Fraction(2 * size + 1, size),
                        p=Fraction(size - 2, size), xi=Fraction(size, size + 1))
    obj = rec.as_obj()
    assert len(obj["size"]) == 5000 and digits_value(obj["size"]) == size
    assert [digits_value(obj["nu"][a]) for a in ("x0", "x0^-1")] == [size - 1, 10 ** 4500]
    for field in ("delta", "iota", "p", "xi"):
        num, den = obj[field].split("/")
        assert Fraction(digits_value(num), digits_value(den)) == getattr(
            rec, "density" if field == "delta" else field), field
    _sweep_csv([rec], tmp_path / "sweep.csv")
    with open(tmp_path / "sweep.csv", newline="") as fh:
        header, row = list(csv.reader(fh))
    row = dict(zip(header, row))
    assert row["size"] == obj["size"] and row["nu_x0"] == obj["nu"]["x0"]
    assert [row[f] for f in ("delta", "iota", "p", "xi")] == [
        obj[f] for f in ("delta", "iota", "p", "xi")]


def test_bb_count_mode_past_the_str_limit(tmp_path):
    from fcayley import counting

    out = tmp_path / "rec.json"
    assert run(["bb", "--n", "12000", "--k", "3", "--mode", "count",
                "--out", str(out), "--no-timestamp"]) == EXIT_OK
    size = read_json(out)["record"]["size"]
    assert len(size) > 4300
    assert digits_value(size) == counting.bb_count(12000, 3)


def rational_value(text: str):
    """The Fraction a rendered "[-]p[/q]" spells, read by digits_value."""
    from fractions import Fraction

    num, _, den = text.lstrip("-").partition("/")
    return Fraction((-1 if text.startswith("-") else 1) * digits_value(num),
                    digits_value(den or "1"))


def test_certify_accepts_with_numbers_past_the_str_limit(tmp_path):
    from fractions import Fraction

    A = 10 ** 4000
    aut_path, cert_path, out = (tmp_path / name for name in ("one.json", "cert.json", "v.json"))
    aut_path.write_text(json.dumps({"alphabet": ["a"], "vertices": ["v"], "edges": []}))
    cert_path.write_text(json.dumps({"C": str(A + 7), "eps": f"1/{A + 3}",
                                     "boundary_inflows": {"v": 1}}))
    assert run(["certify", "--automaton", str(aut_path), "--cert", str(cert_path),
                "--out", str(out), "--no-timestamp"]) == EXIT_OK
    obj = read_json(out)
    assert obj["accepted"] is True and obj["inequality_holds"] is True
    assert rational_value(obj["bound"]) == Fraction(1, (A + 3) * (A + 7))


def test_certify_rejects_with_numbers_past_the_str_limit(tmp_path, capsys):
    from fractions import Fraction

    B = 10 ** 3000
    aut_path, cert_path, out = (tmp_path / name for name in ("uv.json", "cert.json", "v.json"))
    aut_path.write_text(json.dumps({"alphabet": ["a"], "vertices": ["u", "v"],
                                    "edges": [["u", "a", "v"]]}))
    args = ["certify", "--automaton", str(aut_path), "--cert", str(cert_path),
            "--out", str(out), "--no-timestamp"]
    f, b = Fraction(-1, B + 1), Fraction(1, B + 3)
    cert = {"C": 1, "eps": 1, "flow": [["u", "a", "v", str(f)]], "boundary_inflows": {"u": str(b)}}
    cert_path.write_text(json.dumps(cert))
    assert run(args) == EXIT_REJECTED
    words = [text.split() for text in read_json(out)["failures"]]
    # u takes b - f, below eps; v takes f
    assert [(w[0], rational_value(w[1]), w[-1]) for w in words] == [
        ("inflow", b - f, "'u'"), ("inflow", f, "'v'")]
    cert_path.write_text(json.dumps(dict(cert, C=f"1/{B + 5}")))
    assert run(args) == EXIT_REJECTED
    words = [text.split() for text in read_json(out)["failures"]]
    # |f| and the inflow at u's one boundary slot both exceed C
    assert [(w[:2], rational_value(w[2])) for w in words] == [
        (["|f|", "="], -f), (["boundary", "inflow"], b)]
    cert_path.write_text(json.dumps(dict(cert, flow=cert["flow"] + [["v", "a^-1", "u", str(f)]])))
    assert run(args) == EXIT_VALIDATION
    words = capsys.readouterr().err.split()
    assert words[:4] == ["error:", "antisymmetry", "violation", "on"]
    assert [rational_value(words[-3]), words[-2], rational_value(words[-1])] == [-f, "vs", f]


def test_sweep_csv_has_a_column_for_every_letter(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--k", "2,3", "--n", "5,9", "--alphabets", "x1,x1,x0,x0,x0;x0,x1",
                "--format", "csv", "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    letters = [f[3:] for f in rows[0] if f.startswith("nu_")]
    assert letters == NU_COLUMNS + ["x1@2", "x1@2^-1", "x0@3", "x0@3^-1"]
    from fractions import Fraction

    sums = [sum(int(v) for f, v in row.items() if f.startswith("nu_") and v) for row in rows]
    for row, nu in zip(rows, sums):  # every boundary slot is in a column
        assert nu == Fraction(row["iota"]) * int(row["size"]), row
    assert (rows[0]["size"], sums[0]) == ("60", 256)  # k = 2, n = 5, five letters


def run_bounded(args):
    """`python -m fcayley ARGS` in a child held to 1 GiB of address space and
    10 s, so that an unbounded build fails the test instead of exhausting
    the machine's memory; the exit code, stderr and seconds taken."""
    import resource
    import subprocess
    import sys

    import fcayley

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(fcayley.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fcayley", *args],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=10, preexec_fn=limit_memory)
    return proc.returncode, proc.stderr, time.perf_counter() - start


@pytest.mark.parametrize("args,message", [
    (["bb", "--n", "99999999999", "--k", "1"],
     "building the count table for k = 1 up to n = 99999999999 leaves takes up to "
     "2,384,185,798,692,704 MiB, past the bound of 1,024 MiB"),
    (["bb", "--n", "65536", "--k", "25"],  # 2^26 circuit registers of up to 2^17 bits
     "building the count table for k = 25 up to n = 65536 leaves takes up to 1,052,165 MiB, "
     "past the bound of 1,024 MiB"),
    (["sweep", "--k", "25", "--n", "65536"],
     "building the count table for k = 25 up to n = 65536 leaves takes up to 1,052,165 MiB, "
     "past the bound of 1,024 MiB"),
    (["sweep", "--k", "2", "--n", "1:1000000000"],
     "the sweep grid has 1,000,000,000 records, past the bound of 100,000 records"),
    (["sweep", "--k", "2", "--n", "1:100000000000000000000"],  # past 2^63: no len(range)
     "the sweep grid has 100,000,000,000,000,000,000 records, past the bound of 100,000 records"),
    (["sweep", "--k", "0:9", "--n", "1:10000", "--alphabets", "x0;x1", "--out", os.devnull],
     "the sweep grid has 200,000 records, past the bound of 100,000 records"),
    (["sweep", "--k", "0:9", "--n", "55537:65536"],  # 100,000 records of up to 2^17 bits
     "the records of the sweep grid take about 150,501 MiB, past the bound of 1,024 MiB"),
    (["sweep", "--k", "2,23", "--n", "40000"],  # k = 2 alone is admitted at 40,000 leaves
     "building the count table for k = 23 up to n = 40000 leaves takes up to 161,025 MiB, "
     "past the bound of 1,024 MiB"),
    (["sweep", "--k", "12,-1", "--n", "20000"],  # k = 12 alone is admitted
     "k must be nonnegative"),
    (["sweep", "--k", "12", "--n", "0,20000"], "n must be positive"),
    (["ball", "--r", "100000000", "--alphabet", "x0"],  # a^-r .. a^r, a leaf each at least
     "the ball of radius 100000000 has at least 200,000,001 leaves, past the bound of "
     "10,000,000 leaves"),
    (["bb", "--mode", "enumerate", "--n", "40", "--k", "3"],
     "BB(40,3) has at least 8,444,322,344,553 forests, past the bound of 10,000,000 forests"),
    (["bb", "--mode", "enumerate", "--n", "60000", "--k", "0"],  # 60,000 forests
     "the keys of BB(60000,0) take up to 10,303 MiB, past the bound of 1,024 MiB"),
], ids=["bb", "bb-circuit", "sweep-n", "sweep-grid", "sweep-grid-huge", "sweep-grid-alphabets",
        "sweep-grid-leaves", "sweep-caps", "sweep-k-negative", "sweep-n-zero", "ball",
        "bb-forests", "bb-keys"])
def test_unbounded_requests_are_refused_at_once(args, message):
    code, err, seconds = run_bounded(args)
    assert code == EXIT_VALIDATION and err == f"error: {message}\n", err
    assert seconds < 2.0


def test_readme_lists_the_options_of_each_subcommand():
    import argparse
    import pathlib
    import re

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | options besides its required inputs |\n")[1]
    listed = {}
    for line in table.split("\n\n")[0].splitlines()[1:]:  # past the | --- | row
        name, options = line.strip("|").split("|")
        listed[name.strip(" `")] = set(re.findall(r"`(--[\w-]+)", options))
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    optional = {name: {a.option_strings[0] for a in p._actions
                       if a.option_strings and not a.required and a.dest != "help"}
                for name, p in sub.choices.items()}
    assert listed == optional


def test_bb_count_mode_rejects_enumeration_flags(tmp_path, capsys):
    code = run(["bb", "--n", "3", "--k", "1", "--mode", "count",
                "--report", str(tmp_path / "rep.json"), "--out", str(tmp_path / "rec.json")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: --report needs --mode enumerate\n"
    assert not (tmp_path / "rep.json").exists() and not (tmp_path / "rec.json").exists()


# sha256 of (automaton, report) for builds whose bytes must not change; the
# report records the --out path, so the commands run with relative paths.
PINNED_BUILDS = (
    (["ball", "--r", "5", "--alphabet", "x0,x1", "--out", "ball5.json"],
     "f440ff6dc227f7624132ac1fd257e61a956bae56dff13095f501c4b320f4f8cd",
     "3bb4cd207d1a1b47462c1ed47443dcacd062fc38ffa7e50e21ce6212056c89a6"),
    (["ball", "--r", "4", "--alphabet", "x0,x2,xb1", "--out", "ball4.json"],
     "bb3eaaf758083962b96536431a52eb6775808b8862cc45a3b117c2beeac62064",
     "f428b4cc1d818c58c57057379fecf2efe0f1a157f8528f45cee392774f492af5"),
    (["bb", "--mode", "enumerate", "--n", "7", "--k", "3", "--alphabet", "x1,xb1,x0,x0",
      "--out", "bb73.json"],
     "4d850ae1815e2ea68dc936f7cdcaf95e122feb1432489aabf7d6c0b8bd6e6116",
     "07ea022ce9adb79bdd57ad7ff73568634781504ed3aa2245d149cbc83ae1e7e3"),
)


@pytest.mark.parametrize("args,out_sha,report_sha", PINNED_BUILDS,
                         ids=["ball5", "ball4", "bb73"])
def test_build_bytes_are_pinned(tmp_path, monkeypatch, args, out_sha, report_sha):
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--report", "report.json", "--no-timestamp"]) == EXIT_OK
    out = args[args.index("--out") + 1]
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest(out) == out_sha
    assert digest("report.json") == report_sha


# an abstract automaton with one bottleneck: the internal vertices v00..v11
# (an a-cycle, b an affine permutation mod 13) reach the boundary vertex z
# by two b-edges only
NECK = [f"v{i:02d}" for i in range(12)] + ["z"]
BOTTLENECK = {"format": "fcayley-automaton", "alphabet": ["a", "b"], "values": None,
              "vertices": NECK,
              "edges": [[NECK[i], "a", NECK[(i + 1) % 12]] for i in range(12)]
              + [[NECK[i], "b", NECK[(5 * i + 3) % 13]] for i in range(13)]}
BOTTLENECK_CERT = {"C": "1", "eps": "1/2",
                   "flow": [["v00", "a", "v01", "1/3"], ["v03", "b", "v05", "-1"],
                            ["v07", "a", "v08", "1/2"]],
                   "boundary_inflows": {"z": "3/2"}}


def test_evac_and_certify_bytes_are_pinned(tmp_path, monkeypatch):
    # sha256 of an evac scheme, an evac witness and a rejected certify
    # verdict; the outputs record the input paths, so they run in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "neck.json").write_text(json.dumps(BOTTLENECK))
    (tmp_path / "cert.json").write_text(json.dumps(BOTTLENECK_CERT))
    assert run(["ball", "--r", "3", "--out", "ball3.json", "--no-timestamp",
                "--report", "report.json"]) == EXIT_OK
    tail = ["--no-timestamp", "--out"]
    assert run(["evac", "--automaton", "ball3.json"] + tail + ["scheme.json"]) == EXIT_OK
    assert run(["evac", "--automaton", "neck.json"] + tail + ["witness.json"]) == EXIT_OK
    assert run(["certify", "--automaton", "neck.json", "--cert", "cert.json"]
               + tail + ["verdict.json"]) == EXIT_REJECTED
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest("scheme.json") == (
        "53068950eca96c56d886ccf4e7153fd4404ea3a092b3b45b9e7044dc618dbef7")
    assert digest("witness.json") == (
        "b3c1ecb2af0147372d86cfde25e3fb79c268d166dee5921372e30987c5aaaa12")
    assert digest("verdict.json") == (
        "8ea94ef88276183b409d0e2ad7e95d8b62243483e4c23371e190373d9825b0dc")


def test_sweep_csv_bytes_are_pinned(tmp_path):
    # sha256 of a sweep over every small height cap, records read off a table built
    # for a larger n (n = 1..40 off the table for n = 300)
    # and a multiset alphabet with all four letters; the bytes must not change
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--k", "0:6", "--n", "1:40,300",
                "--alphabets", "x0,x1;x1,xb1,x0,x0,x2",
                "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4957b4096e6c055459f3da8e64ce5c586b61288975f1c4ac1d63159fe8e8e570")


def test_sweep_csv_bytes_at_bench_sizes_are_pinned(tmp_path):
    # sha256 of a sweep across the regimes of the count tables: each cap builds one
    # table of 900 leaves, by the squaring circuit for caps 7-12 and by convolution
    # for cap 13
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--k", "7:13", "--n", "300,900",
                "--alphabets", "x0,x1;x1,xb1,x0,x0,x2",
                "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9b28df149835ed85c8d97e155db6ef1ae8d6412ea2949124282370b4681aa41e")
