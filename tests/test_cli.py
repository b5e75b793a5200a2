import csv
import hashlib
import json
import os
import time

import pytest

from fcayley import evac
from fcayley.cayley import load_automaton, save_automaton
from fcayley.cli import EXIT_OK, EXIT_REJECTED, EXIT_VALIDATION, main, sweep_records


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


def test_ball_report_csv(tmp_path):
    report = tmp_path / "nu.csv"
    code = run(["ball", "--r", "1", "--format", "csv",
                "--report", str(report), "--no-timestamp"])
    assert code == EXIT_OK
    with report.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["letter", "nu"]
    assert ["x0", "3"] in rows and ["x1^-1", "3"] in rows


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


def test_bb_budget_guard(tmp_path):
    code = run(["bb", "--n", "8", "--k", "3", "--mode", "enumerate",
                "--budget", "10", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_VALIDATION


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
    from fcayley.cayley import GenAlphabet, Automaton

    verts = [f"v{i}" for i in range(5)]
    slots = {v: {"a": None, "a^-1": None} for v in verts}
    for u, w in zip(verts, verts[1:]):
        slots[u]["a"] = w
        slots[w]["a^-1"] = u
    aut = Automaton(GenAlphabet(("a",)), slots)
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


def test_directed_flag_must_be_a_json_boolean(tmp_path, capsys):
    obj = {"alphabet": ["a"], "vertices": ["u", "v"], "edges": [["u", "a", "v"]]}
    path, out = tmp_path / "aut.json", tmp_path / "evac.json"
    for flag in ("false", 0, None):
        path.write_text(json.dumps(dict(obj, directed=flag)))
        assert run(["evac", "--automaton", str(path)]) == EXIT_VALIDATION, flag
        assert capsys.readouterr().err.startswith("error: directed must be true or false")
    path.write_text(json.dumps(dict(obj, directed=False)))
    assert run(["evac", "--automaton", str(path), "--out", str(out)]) == EXIT_OK


def test_negative_height_cap_in_count_mode(capsys):
    for args in (["bb", "--n", "5", "--k", "-1"], ["sweep", "--k", "-1", "--n", "5"]):
        assert run(args) == EXIT_VALIDATION, args
        assert capsys.readouterr().err == "error: k must be nonnegative\n", args


def test_bad_integer_lists_are_usage_errors(capsys):
    for k, n, message in (
            ("1:2:3", "5", "error: range '1:2:3' has more than two ends\n"),
            ("2,5:1", "5", "error: range '5:1' runs backwards\n"),
            ("x", "5", "error: --k: 'x' is not an integer or a range lo:hi\n"),
            ("2", "1,3:", "error: --n: '3:' is not an integer or a range lo:hi\n"),
            (":5", "5", "error: --k: ':5' is not an integer or a range lo:hi\n")):
        assert run(["sweep", "--k", k, "--n", n]) == EXIT_VALIDATION, k
        assert capsys.readouterr().err == message, k


def test_n_below_one_is_usage_error(capsys):
    for args in (["sweep", "--k", "3", "--n", "0"], ["sweep", "--k", "3", "--n=-3"],
                 ["bb", "--mode", "count", "--n", "0", "--k", "3"]):
        assert run(args) == EXIT_VALIDATION, args
        assert capsys.readouterr().err == "error: n must be positive\n", args


def test_csv_usage_errors_come_before_any_work(tmp_path, monkeypatch, capsys):
    from fcayley import counting

    tables = []
    monkeypatch.setattr(counting, "table", lambda k, n: tables.append((k, n)))
    out = tmp_path / "a.json"
    for args, message in (
            (["ball", "--r", "2", "--out", str(out)], "--format csv needs --report"),
            (["bb", "--mode", "enumerate", "--n", "4", "--k", "2", "--out", str(out)],
             "--format csv needs --report"),
            (["sweep", "--k", "2", "--n", "5"], "--format csv needs --out")):
        assert run(args + ["--format", "csv"]) == EXIT_VALIDATION, args[0]
        assert capsys.readouterr().err == f"error: {message}\n", args[0]
        assert not out.exists() and tables == [], args[0]


def test_sweep_builds_one_table_per_cap(monkeypatch):
    from fcayley import counting

    built = []  # (k, n_max) of each table the sweep constructs

    class Spy(counting.CountTable):
        def __init__(self, k, n_max):
            built.append((k, n_max))
            super().__init__(k, n_max)

    monkeypatch.setattr(counting, "_tables", {})
    monkeypatch.setattr(counting, "CountTable", Spy)
    assert run(["sweep", "--k", "0:6", "--n", "1:40,300",
                "--out", os.devnull]) == EXIT_OK
    assert built == [(k, 300) for k in range(7)]


def test_missing_file_is_validation_error(tmp_path):
    code = run(["evac", "--automaton", str(tmp_path / "nope.json")])
    assert code == EXIT_VALIDATION


def test_selftest(capsys):
    assert run(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_evac_deterministic_bytes(tmp_path):
    aut_path = tmp_path / "chain.json"
    save_automaton(evac.blocked_chain_automaton(), aut_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["evac", "--automaton", str(aut_path), "--K", "2", "--no-timestamp"]
    assert run(base + ["--out", str(a)]) == EXIT_OK
    assert run(base + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_threads_match_serial(tmp_path):
    a, b = tmp_path / "serial.json", tmp_path / "pool.json"
    base = ["sweep", "--k", "1,2,3", "--n", "6,8", "--alphabets", "x0,x1;x1,x0,x2",
            "--no-timestamp"]
    assert run(base + ["--out", str(a)]) == EXIT_OK
    assert run(base + ["--threads", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_flags_of_other_subcommands_are_usage_errors(tmp_path):
    for args in (["evac", "--automaton", str(tmp_path / "a.json"), "--format", "csv"],
                 ["ball", "--r", "1", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == EXIT_VALIDATION, args


def test_bb_count_mode_rejects_csv(tmp_path):
    code = run(["bb", "--n", "2", "--k", "1", "--format", "csv",
                "--out", str(tmp_path / "bb.csv")])
    assert code == EXIT_VALIDATION


def test_sweep_threads_below_one_is_usage_error(tmp_path, capsys):
    code = run(["sweep", "--k", "1", "--n", "4", "--threads", "-1",
                "--out", str(tmp_path / "s.json")])
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_sweep_workers_clamped(monkeypatch):
    import concurrent.futures
    import os

    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    records = sweep_records([0, 1, 2, 3, 4, 5], [4, 5], ["x0,x1"], threads=10000)
    assert started == [4] and len(records) == 12  # no more workers than CPUs
    sweep_records([1, 2], [4, 5, 6], ["x0,x1", "x1,x0"], threads=10000)
    assert started == [4, 2]  # no more workers than height caps
    sweep_records([1], [4, 5, 6], ["x0,x1", "x1,x0"], threads=10000)
    assert started == [4, 2]  # one height cap runs in this process


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


def test_bb_count_mode_above_the_circuit_cap_makes_no_register_list(tmp_path, monkeypatch):
    import tracemalloc

    from fcayley import counting

    monkeypatch.setattr(counting, "_tables", {})
    tracemalloc.start()
    try:
        assert run(["bb", "--n", "900", "--k", "20", "--mode", "count",
                    "--out", str(tmp_path / "rec.json"), "--no-timestamp"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2^20 > 900^2 / 128, so the table convolves; 2^20 registers would take 8 MiB
    assert peak < 4 * 2 ** 20, peak


def test_bb_count_mode_with_unbinding_cap_is_fast(tmp_path, monkeypatch):
    import time

    from fcayley import counting

    monkeypatch.setattr(counting, "_tables", {})
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


def test_bb_count_mode_past_the_str_limit(tmp_path, monkeypatch):
    from fcayley import counting

    monkeypatch.setattr(counting, "_tables", {})
    out = tmp_path / "rec.json"
    assert run(["bb", "--n", "12000", "--k", "3", "--mode", "count",
                "--out", str(out), "--no-timestamp"]) == EXIT_OK
    size = read_json(out)["record"]["size"]
    assert len(size) > 4300
    assert digits_value(size) == counting.bb_count(12000, 3)


def test_bb_count_mode_rejects_enumeration_flags(tmp_path, capsys):
    for flag, value in (("--report", str(tmp_path / "rep.json")), ("--budget", "5")):
        code = run(["bb", "--n", "3", "--k", "1", "--mode", "count", flag, value,
                    "--out", str(tmp_path / "rec.json")])
        assert code == EXIT_VALIDATION, flag
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


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
    # sha256 of a sweep over every small height cap, a regrown table (n = 300)
    # and a multiset alphabet with all four letters; the bytes must not change
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--k", "0:6", "--n", "1:40,300",
                "--alphabets", "x0,x1;x1,xb1,x0,x0,x2",
                "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4957b4096e6c055459f3da8e64ce5c586b61288975f1c4ac1d63159fe8e8e570")


def test_sweep_csv_bytes_at_bench_sizes_are_pinned(tmp_path):
    # sha256 of a sweep across the regimes of the count tables: caps 7-10 run the
    # squaring circuit from n = 300, 11 and 12 switch to it at 900, 13 convolves
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--k", "7:13", "--n", "300,900",
                "--alphabets", "x0,x1;x1,xb1,x0,x0,x2",
                "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9b28df149835ed85c8d97e155db6ef1ae8d6412ea2949124282370b4681aa41e")
