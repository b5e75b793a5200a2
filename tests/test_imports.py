"""Each `fcayley` subcommand imports only the modules it runs.

The commands run as `python -X importtime -m fcayley ...` in a fresh
process, whose import log names every module loaded after start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcayley

SRC = str(Path(fcayley.__file__).resolve().parent.parent)

# a path u - v - w over one letter: v is internal
TINY_AUTOMATON = {"format": "fcayley-automaton", "alphabet": ["a"], "values": None,
                  "vertices": ["u", "v", "w"], "edges": [["u", "a", "v"], ["v", "a", "w"]]}

# (arguments, modules that must load, modules that must not)
COMMANDS = {
    "help": (["--help"], {"fcayley.cli"},
             {"fcayley.counting", "fcayley.evac", "fcayley.forests"}),
    "evac": (["evac", "--automaton", "tiny.json", "--no-timestamp"], {"fcayley.evac"},
             {"fcayley.counting", "fcayley.forests"}),
    "ball": (["ball", "--r", "1", "--no-timestamp"], {"fcayley.cayley"},
             {"fcayley.evac", "fcayley.counting"}),
    "sweep": (["sweep", "--k", "2", "--n", "3", "--no-timestamp"], {"fcayley.counting"},
              {"fcayley.evac", "fcayley.forests"}),
}


def imported_modules(args, cwd) -> set[str]:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "fcayley", *args],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("name", COMMANDS)
def test_subcommand_imports_only_what_it_runs(tmp_path, name):
    (tmp_path / "tiny.json").write_text(json.dumps(TINY_AUTOMATON))
    args, needed, excluded = COMMANDS[name]
    modules = imported_modules(args, tmp_path)
    assert needed <= modules
    # record classes are namedtuples; dataclasses would pull in inspect
    loaded = (excluded | {"dataclasses"}) & modules
    assert not loaded, f"fcayley {args[0]} loads {sorted(loaded)}"
