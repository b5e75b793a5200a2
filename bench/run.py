"""fcayley benchmark: closed-loop CLI workloads, end-to-end and per layer.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is `src/fcayley`, run
with `python3 -m fcayley` as a user runs it.  One client runs one job
process at a time (closed loop), so every job starts with cold caches.

A run sets up at least SETUP_REPEATS times and for at least SETUP_MIN_S
seconds (the median is `setup_s`), and then repeats the workload's fixed job list ("a pass") until the
next pass would end after S seconds, and reports, over the passes:

  wall_s        median pass wall time
  cpu_s         median user + sys CPU of a pass's job processes
  peak_rss_mib  highest peak RSS of any job process in the run
  setup_s       median set-up time

With `--trace 1` the run alternates plain and traced passes and ends with
one tracemalloc pass (see tracejob.py); it reports the per-layer metrics
listed in BENCHMARK.json instead, and leaves the spans of every traced job
in .bench_work/trace-WORKLOAD-SEED.json.  Outputs are checked after the timed
section: every pass must reproduce the first pass byte for byte, the last
pass's outputs must pass the seed-independent checks in jobs.py, and for
seeds listed in golden.json they must match the recorded digests and
verdicts.  A job that exits nonzero or fails a check counts in `failed`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the exit code is 1 when any check
failed and 2 when the program is missing.  Without `--workload` every
workload runs in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import jobs as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
TRACEJOB = BENCH / "tracejob.py"

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
RUN_BUDGET_S = 170.0  # a job still running this long after its workload started is killed
MIB = 1 << 20

REQUIRED_SPANS = {
    "sweep": ("counting.report",),
    "bb": ("forests.bb_automaton", "cayley.boundary_report", "cayley.save"),
    "ball": ("cayley.ball", "cayley.boundary_report", "cayley.save"),
    "evac": ("cayley.load", "evac.solve"),
}
SELF_TIME_METRICS = {
    "counting.table_s": "counting.table",
    "counting.report_s": "counting.report",
    "forests.bb_automaton_s": "forests.bb_automaton",
    "cayley.ball_s": "cayley.ball",
    "cayley.boundary_report_s": "cayley.boundary_report",
    "cayley.save_s": "cayley.save",
    "cayley.load_s": "cayley.load",
    "evac.solve_s": "evac.solve",
    "evac.validate_s": "evac.validate",
    "cli.startup_s": "cli.startup",
    "cli.self_s": "cli.self",
}
PEAK_METRICS = {
    "counting.table_peak_mib": "counting.table",
    "forests.bb_automaton_peak_mib": "forests.bb_automaton",
    "evac.solve_peak_mib": "evac.solve",
}
COUNT_METRICS = ("counting.max_bits", "counting.records", "forests.vertices",
                 "forests.actions", "fgroup.multiplies", "evac.vertices", "evac.arcs",
                 "evac.blocked", "evac.witness_vertices", "evac.path_edges")
MAX_COUNTS = ("counting.max_bits",)  # combined over jobs by max, the rest by sum


@dataclass
class JobRun:
    start: float
    end: float
    rc: int
    cpu_s: float
    rss_mib: float
    trace: dict | None = None  # tracejob.py output, for traced passes

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    mode: str  # "plain", "time" (spans) or "memory" (tracemalloc)
    runs: list[JobRun]
    digests: list[dict[str, str]]  # per job: output file -> sha256

    @property
    def wall(self) -> float:
        return self.runs[-1].end - self.runs[0].start

    @property
    def cpu(self) -> float:
        return sum(r.cpu_s for r in self.runs)


def _job_env() -> dict:
    """The caller's environment with the checkout's `src` first on PYTHONPATH."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


@dataclass
class Runner:
    workload: str
    seed: int
    work: Path  # scratch directory of this run, removed afterwards
    deadline: float
    env: dict = field(default_factory=_job_env)

    def spawn(self, argv: list[str], cwd: Path, err_path: Path) -> JobRun:
        """Run one process to completion and read its own rusage."""
        with open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(1.0, self.deadline - start), proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return JobRun(start, end, proc.returncode, ru.ru_utime + ru.ru_stime,
                      ru.ru_maxrss / 1024)

    def fcayley(self, args, cwd: Path, err_path: Path) -> JobRun:
        return self.spawn([sys.executable, "-m", "fcayley", *args], cwd, err_path)

    # -- set-up ---------------------------------------------------------------

    def setup_once(self, inputs: Path) -> list[str]:
        """Start the program once (`fcayley --help`: interpreter start and
        imports; it also leaves bytecode and file cache warm for the passes),
        then write the seeded inputs under `inputs`: the job list (jobs.json)
        and, for evac-solve, the automaton files.  Return the problems met."""
        inputs.mkdir(parents=True)
        start = self.fcayley(["--help"], inputs.parent, inputs.parent / "start.err")
        problems = [] if start.rc == 0 else [f"fcayley --help exited {start.rc}"]
        jobs = wl.JOB_LISTS[self.workload](self.seed)
        (inputs / "jobs.json").write_text(
            json.dumps([[list(j.argv), list(j.outputs)] for j in jobs]) + "\n")
        if self.workload == "evac-solve":
            for i, cmd in enumerate(wl.evac_setup_commands(self.seed)):
                run = self.fcayley([*cmd, "--no-timestamp"], inputs, inputs.parent / f"setup{i}.err")
                if run.rc != 0:
                    problems.append(f"set-up command {' '.join(cmd)} exited {run.rc}")
            wl.write_serre_inputs(self.seed, str(inputs))
        return problems

    def setup(self) -> tuple[list[float], list[str], list[wl.Job]]:
        """Set up repeatedly; keep the first set of inputs in work/inputs and
        return the set-up times, the problems met and the job list read back
        from jobs.json."""
        inputs = self.work / "inputs"
        times, problems, first, differs = [], [], None, False
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            base = inputs if first is None else self.work / "again" / "inputs"
            t0 = time.monotonic()
            problems += self.setup_once(base)
            times.append(time.monotonic() - t0)
            contents = {p.name: p.read_bytes() for p in sorted(base.iterdir())}
            if first is None:
                first = contents
            else:
                differs = differs or contents != first
                shutil.rmtree(base.parent)
        if differs:
            problems.append("set-up with one seed wrote different input files")
        jobs = [wl.Job(tuple(argv), tuple(outputs))
                for argv, outputs in json.loads((inputs / "jobs.json").read_text())]
        return times, problems, jobs

    # -- passes ---------------------------------------------------------------

    def run_pass(self, jobs: list[wl.Job], mode: str) -> Pass:
        pass_dir, logs = self.work / "pass", self.work / "logs"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir()
        logs.mkdir(exist_ok=True)
        runs = []
        for i, job in enumerate(jobs):
            err = logs / f"job{i}.err"
            if mode == "plain":
                runs.append(self.fcayley(job.argv, pass_dir, err))
                continue
            spans = logs / f"job{i}.spans.json"
            spans.unlink(missing_ok=True)
            run = self.spawn([sys.executable, str(TRACEJOB), str(spans), mode, *job.argv],
                             pass_dir, err)
            if spans.exists():
                run.trace = json.loads(spans.read_text())
            runs.append(run)
        digests = [{out: _sha256(pass_dir / out) for out in job.outputs
                    if (pass_dir / out).exists()} for job in jobs]
        return Pass(mode, runs, digests)

    def measure(self, jobs: list[wl.Job], seconds: float, traced: bool) -> list[Pass]:
        """Closed loop: repeat the job list (plain, or plain then traced) and
        stop before the next round would end after `seconds`."""
        passes: list[Pass] = []
        rounds: list[float] = []
        t0 = time.monotonic()
        while True:
            r0 = time.monotonic()
            passes.append(self.run_pass(jobs, "plain"))
            if traced:
                passes.append(self.run_pass(jobs, "time"))
            rounds.append(time.monotonic() - r0)
            elapsed = time.monotonic() - t0
            if (elapsed + statistics.median(rounds) > seconds
                    or time.monotonic() + 2 * max(rounds) > self.deadline):
                break
        if traced:
            passes.append(self.run_pass(jobs, "memory"))
        return passes


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def check(runner: Runner, jobs: list[wl.Job], passes: list[Pass]) -> tuple[int, int, list[str]]:
    """Count failed job runs; return (attempted, failed, problems)."""
    pass_dir = runner.work / "pass"
    bad_jobs: dict[int, str] = {}
    for i, job in enumerate(jobs):
        if passes[-1].runs[i].rc != 0:
            continue  # counted below as a failed run
        for problem in wl.check_job(job, str(pass_dir)):
            bad_jobs.setdefault(i, problem)
    golden = _golden().get(runner.workload, {}).get(str(runner.seed))
    complete = all(len(d) == len(job.outputs) for d, job in zip(passes[-1].digests, jobs))
    if golden is not None and complete:
        observed = (wl.verdicts(jobs, str(pass_dir)) if runner.workload == "evac-solve"
                    else {out: digest for d in passes[-1].digests for out, digest in d.items()})
        for i, job in enumerate(jobs):
            for out in job.outputs:
                if out in golden and observed.get(out) != golden[out]:
                    bad_jobs.setdefault(i, f"{out} differs from the golden record")
    problems = [f"job {i} ({' '.join(jobs[i].argv[:3])} ...): {p}" for i, p in bad_jobs.items()]
    attempted = failed = 0
    first = passes[0].digests
    for p in passes:
        for i, run in enumerate(p.runs):
            attempted += 1
            if run.rc != 0:
                failed += 1
                err = (runner.work / "logs" / f"job{i}.err")
                tail = err.read_text(errors="replace").strip().splitlines()[-1:] if err.exists() else []
                problems.append(f"job {i} exited {run.rc} in a {p.mode} pass {tail}")
            elif i in bad_jobs or p.digests[i] != first[i]:
                failed += 1
                if i not in bad_jobs:
                    problems.append(f"job {i}: {p.mode} pass output differs from the first pass")
    return attempted, failed, problems


# -- metrics --------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(passes: list[Pass], setup_times: list[float]) -> tuple[dict, list[str]]:
    plain = [p for p in passes if p.mode == "plain"]
    walls = [p.wall for p in plain]
    cpus = [p.cpu for p in plain]
    rss = max(r.rss_mib for p in plain for r in p.runs)
    lines = []
    for name, values, unit in (("wall_s", walls, "s"), ("cpu_s", cpus, "s"),
                               ("setup_s", setup_times, "s")):
        q1, _, q3 = _quartiles(values)
        lines.append(f"{name:<14} {statistics.median(values):12.6f} {unit:<4} "
                     f"median; q1 {q1:.6f}, q3 {q3:.6f}, n = {len(values)}")
    lines.append(f"{'peak_rss_mib':<14} {rss:12.6f} MiB  max over {sum(len(p.runs) for p in plain)} job processes")
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    return metrics, lines


def self_times(run: JobRun) -> dict[str, float]:
    """Per span name, duration minus the time its child spans cover.  The
    job span runs from spawn to exit; `cli.startup` from spawn to the end of
    `import fcayley.cli`; the rest come from tracejob.py.  One thread runs
    the spans, so siblings never overlap and the self times of one job add
    up to its wall time."""
    spans = run.trace["spans"]
    child_time: dict[int | None, float] = {}
    for s in spans:
        child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    startup = run.trace["imported"] - run.start
    out = {"cli.startup": startup,
           "cli.self": run.wall - startup - child_time.get(None, 0.0)}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def per_layer(jobs: list[wl.Job], passes: list[Pass]) -> tuple[dict, list[str], list[str]]:
    problems = []
    plain = [p for p in passes if p.mode == "plain"]
    timed = [p for p in passes if p.mode == "time"]
    memory = [p for p in passes if p.mode == "memory"]
    for p in timed + memory:
        for i, (job, run) in enumerate(zip(jobs, p.runs)):
            if run.trace is None:
                problems.append(f"job {i}: {p.mode} pass wrote no spans")
                continue
            names = {s["name"] for s in run.trace["spans"]}
            missing = [n for n in REQUIRED_SPANS[job.command] if n not in names]
            if missing:
                problems.append(f"job {i}: no {missing} span; the wrap points in "
                                f"tracejob.py no longer match the CLI")
    if problems:
        return {}, [], problems

    def counts(p: Pass) -> dict[str, int]:
        out: dict[str, int] = {}
        for run in p.runs:
            for name, n in run.trace["counts"].items():
                out[name] = max(out.get(name, 0), n) if name in MAX_COUNTS else out.get(name, 0) + n
        return out

    first = counts(timed[0])
    if any(counts(p) != first for p in timed[1:] + memory):
        problems.append("count metrics differ between traced passes")
    selfs = []
    for p in timed:
        total: dict[str, float] = {}
        for run in p.runs:
            for name, t in self_times(run).items():
                total[name] = total.get(name, 0.0) + t
        selfs.append(total)
    peaks: dict[str, int] = {}
    for run in memory[0].runs:
        for name, b in run.trace["peaks"].items():
            peaks[name] = max(peaks.get(name, 0), b)

    def med(name: str) -> float:
        return statistics.median(s.get(name, 0.0) for s in selfs)

    m: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIME_METRICS.items():
        m[metric] = (med(span), "s")
    for metric, span in PEAK_METRICS.items():
        m[metric] = (peaks.get(span, 0) / MIB, "MiB")
    for name in COUNT_METRICS:
        m[name] = (first.get(name, 0), "bits" if name == "counting.max_bits" else "count")
    m["cayley.save_mib"] = (first.get("cayley.save_bytes", 0) / MIB, "MiB")
    m["cayley.load_mib"] = (first.get("cayley.load_bytes", 0) / MIB, "MiB")
    mult = first.get("fgroup.multiplies", 0)
    m["fgroup.multiply_us"] = (1e6 * m["cayley.ball_s"][0] / mult if mult else 0.0, "us")
    traced_wall = statistics.median(p.wall for p in timed)
    plain_wall = statistics.median(p.wall for p in plain)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    job_wall = statistics.median(sum(r.wall for r in p.runs) for p in timed)
    lines = [f"{name:<30} {value:14.6f} {unit}" for name, (value, unit) in sorted(m.items())]
    lines.append(f"cli.self_s, the time no layer span covers, is {100 * m['cli.self_s'][0] / job_wall:.2f}% "
                 f"of the traced job wall time; the jobs take {100 * job_wall / traced_wall:.2f}% "
                 f"of trace.wall_s (the rest is the runner's gap between jobs); "
                 f"{len(timed)} traced passes, {len(plain)} plain")
    top = sorted(((t, n) for n, t in selfs[0].items()), reverse=True)[:4]
    lines.append("largest self times (first traced pass): "
                 + ", ".join(f"{n} {100 * t / sum(selfs[0].values()):.1f}%" for t, n in top))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    return metrics, lines, problems


# -- entry point ----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    runner = Runner(workload, seed, WORK / workload, time.monotonic() + RUN_BUDGET_S)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    try:
        setup_times, problems, jobs = runner.setup()
        passes = runner.measure(jobs, seconds, traced)
        attempted, failed, check_problems = check(runner, jobs, passes)
        problems += check_problems
        if traced:
            metrics, lines, trace_problems = per_layer(jobs, passes)
            problems += trace_problems
            lines.append(f"spans written to {_write_spans(passes, workload, seed)}")
        else:
            metrics, lines = end_to_end(passes, setup_times)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when it holds no other run and no span file
    rounds = sum(p.mode == "plain" for p in passes)
    header = (f"workload {workload}, seed {seed}: {rounds} passes of {len(jobs)} jobs"
              f"{' (traced)' if traced else ''}; failed_ratio {failed}/{attempted} = "
              f"{failed / attempted:.4f}")
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, [header] + lines + [f"CHECK FAILED: {p}" for p in problems]


def _write_spans(passes: list[Pass], workload: str, seed: int) -> Path:
    """Keep the traced passes' spans, one record per job run, after the run."""
    path = WORK / f"trace-{workload}-{seed}.json"
    records = [{"pass": n, "mode": p.mode, "job": i, "start": run.start, "end": run.end, **run.trace}
               for n, p in enumerate(passes) if p.mode != "plain"
               for i, run in enumerate(p.runs) if run.trace is not None]
    path.write_text(json.dumps(records) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS,
                    help="workload to run (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="length of the measured closed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from traced passes")
    args = ap.parse_args(argv)
    if not (SRC / "fcayley" / "cli.py").is_file():
        print(f"error: {SRC / 'fcayley'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ok = True
    for workload in [args.workload] if args.workload else wl.WORKLOADS:
        result, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
