"""Run one `fcayley` command with spans around the calls into each layer.

    python3 bench/tracejob.py SPANS_JSON {time|memory} CLI_ARGS...

The job runs `fcayley.cli.main(CLI_ARGS)`, exactly as `python -m fcayley`
does, after the public functions the CLI calls have been wrapped from here;
nothing inside `src/` is traced.  Wrapping the module attribute also catches
calls from inside the package (`counting.table` under `density_report` and
under the enumeration budget check of `bb_automaton`), which become child
spans.  Spans are kept in memory and written to SPANS_JSON when the job
ends, together with the counts taken at the same boundaries.

In `memory` mode tracemalloc runs and the file holds, per layer, the
largest allocation peak of one call above the memory held when it started;
its timings are not used.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

import fcayley.cli as cli

IMPORTED = time.monotonic()

from fcayley import counting, evac, fgroup, forests  # noqa: E402  (already loaded by cli)

PEAK_LAYERS = ("counting.table", "forests.bb_automaton", "evac.solve")


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None}
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            for outer in self.stack:
                outer["peak"] = max(outer["peak"], peak)
            tracemalloc.reset_peak()
            span["base"] = span["peak"] = current
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = time.monotonic()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self.stack.pop()
        if self.memory:
            span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
            for outer in self.stack:
                outer["peak"] = max(outer["peak"], span["peak"])
            if span["name"] in PEAK_LAYERS:
                extra = span["peak"] - span.pop("base")
                self.peaks[span["name"]] = max(self.peaks.get(span["name"], 0), extra)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace module.attr by a spanned call; `after(args, result)` takes
        the counts in a `trace.hook` span so it is not charged to a layer."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                hook = self.open("trace.hook")
                try:
                    after(*args, result=result)
                finally:
                    self.close(hook)
            return result

        setattr(module, attr, traced)


def _ball_multiplies(aut, r: int) -> int:
    """2m (|B(r-1)| + |B(r)|): ball() multiplies every element of B(r-1) by
    each letter to grow the ball, then every element of B(r) to find its
    slots.  |B(r-1)| is a BFS from the identity inside the ball, which is
    exact because geodesics to B(r) stay in B(r)."""
    seen = {fgroup.IDENTITY.key}
    frontier = [fgroup.IDENTITY.key]
    for _ in range(r - 1):
        nxt = []
        for v in frontier:
            for w in aut.slots[v].values():
                if w is not None and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    inner = len(seen) if r >= 1 else 0
    return 2 * aut.alphabet.m * (inner + len(aut))


def install(tr: Tracer) -> None:
    def after_report(*args, result):
        tr.count("counting.records", 1)
        tr.counts["counting.max_bits"] = max(tr.counts.get("counting.max_bits", 0),
                                             result.size.bit_length())

    def after_bb(*args, result):
        tr.count("forests.vertices", len(result))
        tr.count("forests.actions", len(result) * 2 * result.alphabet.m)

    def after_ball(r, alphabet, result):
        tr.count("fgroup.multiplies", _ball_multiplies(result, r))

    def after_save(aut, path, result):
        tr.count("cayley.save_bytes", os.path.getsize(path))

    def after_load(path, result):
        tr.count("cayley.load_bytes", os.path.getsize(path))

    def after_solve(aut, K, result):
        tr.count("evac.vertices", len(aut))
        tr.count("evac.arcs", len(aut.directed_edges()))
        if result.exists:
            tr.count("evac.path_edges", sum(map(len, result.scheme.paths.values())))
            span = tr.open("evac.validate")
            try:
                evac.validate_scheme(aut, result.scheme)
            finally:
                tr.close(span)
        else:
            tr.count("evac.blocked", 1)
            tr.count("evac.witness_vertices", len(result.witness.Z))

    tr.wrap(counting, "table", "counting.table")
    tr.wrap(counting, "density_report", "counting.report", after_report)
    tr.wrap(forests, "bb_automaton", "forests.bb_automaton", after_bb)
    tr.wrap(cli, "ball", "cayley.ball", after_ball)
    tr.wrap(cli, "boundary_report", "cayley.boundary_report")
    tr.wrap(cli, "save_automaton", "cayley.save", after_save)
    tr.wrap(cli, "load_automaton", "cayley.load", after_load)
    tr.wrap(evac, "solve_with_constant", "evac.solve", after_solve)


def main() -> int:
    spans_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tr = Tracer(memory=mode == "memory")
    install(tr)
    if tr.memory:
        tracemalloc.start()
    rc = cli.main(argv)
    for span in tr.spans:
        span.pop("peak", None)
        span.pop("base", None)
    with open(spans_path, "w") as fh:
        json.dump({"imported": IMPORTED, "spans": tr.spans, "counts": tr.counts,
                   "peaks": tr.peaks}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
