"""Seeded job lists, set-up inputs and output checks for the three workloads.

A job is one `fcayley` command line, run from an empty pass directory.  All
inputs come from the workload seed: job arguments directly, and for
`evac-solve` automaton files written once in set-up.  The seed only changes
which equivalent inputs a job gets (alphabet orderings, n within a narrow
band, the random Serre graphs); the size of the work is fixed per workload,
so runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("dp-sweep", "automaton-build", "evac-solve")

# Two-letter alphabets whose balls have equal size (1381 vertices at r = 6),
# so a seeded choice among them leaves the work unchanged.
BALL_X1_FAMILY = ("x0,x1", "x1,x0", "x0,xb1", "xb1,x0")
BALL_X2_FAMILY = ("x0,x2", "x2,x0", "x1,x2", "x2,x1")

SERRE_VERTICES = 2000


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `fcayley <argv>`, writing `outputs` in its pass directory."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    def opt(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _shuffled(rng: random.Random, tokens) -> str:
    tokens = list(tokens)
    rng.shuffle(tokens)
    return ",".join(tokens)


def dp_sweep_jobs(seed: int) -> list[Job]:
    rng = _rng("dp-sweep", seed)
    n1 = rng.randint(298, 302)
    n2 = rng.randint(898, 902)  # > 2 * n1, so every table regrows for n2
    multiset = _shuffled(rng, ("x0", "x0", "x1", "xb1", "x2"))
    return [Job(("sweep", "--k", "2,4,6,8,10", "--n", f"{n1},{n2}",
                 "--alphabets", f"x0,x1;{multiset}", "--format", "csv",
                 "--no-timestamp", "--out", "sweep.csv"), ("sweep.csv",))]


def _build_job(kind: str, name: str, size_args: tuple[str, ...], alphabet: str) -> Job:
    out, report = f"{name}.json", f"{name}.report.json"
    head = ("bb", "--mode", "enumerate") if kind == "bb" else ("ball",)
    return Job(head + size_args + ("--alphabet", alphabet, "--out", out,
                                   "--report", report, "--no-timestamp"),
               (out, report))


def automaton_build_jobs(seed: int) -> list[Job]:
    rng = _rng("automaton-build", seed)
    return [
        _build_job("bb", "bb_11_3", ("--n", "11", "--k", "3"), rng.choice(BALL_X1_FAMILY)),
        _build_job("bb", "bb_9_4", ("--n", "9", "--k", "4"),
                   _shuffled(rng, ("x0", "x0", "x1", "xb1"))),
        _build_job("ball", "ball_7", ("--r", "7"), rng.choice(BALL_X1_FAMILY)),
        _build_job("ball", "ball_6", ("--r", "6"), rng.choice(BALL_X2_FAMILY)),
    ]


# evac-solve: (input file, K); set-up writes the input files
EVAC_INPUTS = (("bb_8_3.json", 1), ("ball_6.json", 2), ("ball_5.json", 1),
               ("serre_1.json", 1), ("serre_2.json", 2))


def evac_solve_jobs(seed: int) -> list[Job]:
    jobs = []
    for name, K in EVAC_INPUTS:
        out = f"evac_{name[:-5]}_K{K}.json"
        jobs.append(Job(("evac", "--automaton", os.path.join("..", "inputs", name),
                         "--K", str(K), "--out", out, "--no-timestamp"), (out,)))
    return jobs


def evac_setup_commands(seed: int) -> list[tuple[str, ...]]:
    """CLI commands that write the BB and ball inputs of `evac-solve`."""
    rng = _rng("evac-solve", seed)
    return [
        ("bb", "--mode", "enumerate", "--n", "8", "--k", "3",
         "--alphabet", rng.choice(("x0,x1", "x1,x0")), "--out", "bb_8_3.json"),
        ("ball", "--r", "6", "--alphabet", rng.choice(BALL_X1_FAMILY), "--out", "ball_6.json"),
        ("ball", "--r", "5", "--alphabet", rng.choice(BALL_X1_FAMILY), "--out", "ball_5.json"),
    ]


def serre_graph(rng: random.Random, n: int, symbols: str, keep: float) -> dict:
    """Abstract Serre graph in automaton-file form: one random partial
    injection of range(n) per symbol, defined on round(keep * n) points.

    With one symbol every vertex has two slots and the injection's cycles are
    internal sets with no edge out, so no scheme exists; with two symbols and
    keep = 0.6 most vertices lie on the boundary and a scheme exists.
    """
    names = [f"v{i:04d}" for i in range(n)]
    edges = []
    for sym in symbols:
        dom = rng.sample(range(n), round(keep * n))
        img = rng.sample(range(n), len(dom))
        edges += [[names[u], sym, names[w]] for u, w in zip(dom, img)]
    return {"format": "fcayley-automaton", "alphabet": list(symbols),
            "values": None, "vertices": names, "edges": sorted(edges)}


def write_serre_inputs(seed: int, inputs_dir: str) -> None:
    rng = _rng("evac-solve-serre", seed)
    for name, symbols, keep in (("serre_1.json", "a", 0.9), ("serre_2.json", "ab", 0.6)):
        with open(os.path.join(inputs_dir, name), "w") as fh:
            json.dump(serre_graph(rng, SERRE_VERTICES, symbols, keep), fh, indent=1)
            fh.write("\n")


JOB_LISTS = {"dp-sweep": dp_sweep_jobs, "automaton-build": automaton_build_jobs,
             "evac-solve": evac_solve_jobs}


# ---------------------------------------------------------------------------
# Output checks: any seed.  Each returns a list of problems, empty when fine.


def check_job(job: Job, pass_dir: str) -> list[str]:
    """Seed-independent correctness checks of one job's outputs."""
    missing = [f for f in job.outputs if not os.path.exists(os.path.join(pass_dir, f))]
    if missing:
        return [f"missing output {missing}"]
    check = {"sweep": _check_sweep, "bb": _check_build, "ball": _check_build,
             "evac": _check_evac}[job.command]
    try:
        return check(job, pass_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_sweep(job: Job, pass_dir: str) -> list[str]:
    with open(os.path.join(pass_dir, job.opt("--out")), newline="") as fh:
        rows = list(csv.DictReader(fh))
    specs = job.opt("--alphabets").split(";")
    want = len(job.opt("--k").split(",")) * len(job.opt("--n").split(",")) * len(specs)
    problems = [] if len(rows) == want else [f"{len(rows)} sweep rows, expected {want}"]
    for row in rows:
        where = f"row n={row['n']} k={row['k']} alphabet={row['alphabet']}"
        m = len(row["alphabet"].split(","))
        if Fraction(row["delta"]) + Fraction(row["iota"]) != 2 * m:
            problems.append(f"{where}: delta + iota != 2m")
        for col in row:
            if col.startswith("nu_") and not col.endswith("^-1"):
                if row[col] != row[col + "^-1"]:
                    problems.append(f"{where}: {col} != {col}^-1")
    return problems


def _check_build(job: Job, pass_dir: str) -> list[str]:
    from fcayley import counting
    from fcayley.cayley import boundary_report, load_automaton

    aut = load_automaton(os.path.join(pass_dir, job.opt("--out")))
    with open(os.path.join(pass_dir, job.opt("--report"))) as fh:
        rep = json.load(fh)["report"]
    problems = []
    if boundary_report(aut).as_obj() != rep:
        problems.append("report differs from the report of the reloaded automaton")
    if Fraction(rep["delta"]) + Fraction(rep["iota"]) != 2 * aut.alphabet.m:
        problems.append("delta + iota != 2m")
    if job.command == "bb":
        # the paper's cross-check: enumeration against the big-integer DP
        n, k = int(job.opt("--n")), int(job.opt("--k"))
        if rep["size"] != counting.bb_count(n, k):
            problems.append(f"|BB({n},{k})| = {rep['size']} != DP count")
        if rep["nu"] != counting.nu_counts(n, k, aut.alphabet.symbols):
            problems.append(f"BB({n},{k}) boundary counts != DP nu_counts")
    return problems


def _check_evac(job: Job, pass_dir: str) -> list[str]:
    from fcayley import evac
    from fcayley.cayley import load_automaton

    aut = load_automaton(os.path.join(pass_dir, job.opt("--automaton")))
    K = int(job.opt("--K"))
    with open(os.path.join(pass_dir, job.opt("--out"))) as fh:
        obj = json.load(fh)
    if obj["exists"]:
        scheme = evac.scheme_from_obj(obj["scheme"])
        if scheme.K != K:
            return [f"scheme has K = {scheme.K}, asked for {K}"]
        try:
            evac.validate_scheme(aut, scheme)
        except evac.SchemeValidationError as exc:
            return [f"invalid scheme: {exc}"]
        return []
    Z = set(obj["witness"]["Z"])
    if not Z:
        return ["empty witness"]
    if not Z <= set(aut.keys) - set(aut.inner_boundary()):
        return ["witness holds vertices that are not internal"]
    out = evac.cheeger_out(aut, Z)
    if not K * out < len(Z):
        return [f"witness fails the Hall inequality: {K} * {out} >= {len(Z)}"]
    return []


def verdicts(jobs: list[Job], pass_dir: str) -> dict[str, bool]:
    """The `exists` field of every evac job's output, keyed by output file."""
    out = {}
    for job in jobs:
        with open(os.path.join(pass_dir, job.opt("--out"))) as fh:
            out[job.opt("--out")] = json.load(fh)["exists"]
    return out
