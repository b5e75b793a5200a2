"""Exact Cayley-graph boundary analysis and evacuation schemes for Thompson's group F.

Modules:
  fgroup    reduced tree pairs as leaf-depth sequences, key parser and encoder,
            presentations, automorphism checks
  cayley    finite Cayley subgraphs (automata), boundary/density reports, files
  forests   Brown-Belk sets BB(n, k) and the partial generator actions on them
  counting  big-integer DP for |BB|, per-letter boundary counts, xi and trimming
  evac      evacuation-scheme solver, Hall oracle, flow certificates, relabelling
  cli       batch command-line front end
"""

from .fgroup import FElement, IDENTITY, X0, X1, generator_x, generator_xbar1
from .cayley import (
    Automaton,
    BoundaryReport,
    GenAlphabet,
    ball,
    boundary_report,
    induced_subgraph,
    load_automaton,
    make_alphabet,
    save_automaton,
)
from .forests import bb_automaton
from .counting import bb_count, density_report, nu_counts, trimmed_density, xi_estimate, y0_count
from .evac import (
    EvacScheme,
    conjugate_relabel,
    hall_oracle,
    solve_pure,
    solve_with_constant,
    verify_flow_certificate,
)

__version__ = "0.1.0"
