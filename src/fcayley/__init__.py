"""Exact Cayley-graph boundary analysis and evacuation schemes for Thompson's group F.

Modules:
  fgroup    reduced tree pairs as leaf-depth sequences, key parser and encoder,
            presentations, automorphism checks
  cayley    finite Cayley subgraphs (automata), boundary/density reports, files
  forests   Brown-Belk sets BB(n, k) and the partial generator actions on them
  counting  big-integer DP for |BB|, per-letter boundary counts, xi and trimming
  evac      evacuation-scheme solver, Hall oracle, flow certificates, relabelling
  cli       batch command-line front end

Importing the package loads none of them: import a submodule by name
(`from fcayley import counting`), and each `fcayley` subcommand imports
only the modules it runs.
"""

__version__ = "0.1.0"
