"""Exact Cayley-graph boundary analysis and evacuation schemes for Thompson's group F.

Modules:
  fgroup    reduced tree pairs as leaf-depth sequences, key parser and encoder,
            generators
  cayley    alphabet tokens as words in x0 and x1, finite Cayley subgraphs
            (automata), balls, boundary/density reports, exact numbers, files
  forests   Brown-Belk sets BB(n, k), acted on by two moves, x0 and x1, and the
            words composed from them; an inverse letter inverts its letter
  counting  big-integer DP for |BB|, per-letter boundary counts, Y0, p and xi
  evac      evacuation-scheme solver, Hall witnesses, flow certificates
  cli       batch command-line front end

Importing the package loads none of them: import a submodule by name
(`from fcayley import counting`), and each `fcayley` subcommand imports
only the modules it runs.
"""

__version__ = "0.1.0"
