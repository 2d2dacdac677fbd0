"""Verification-grade toolkit for flat-spacetime geometry.

Subpackages and modules:

- `core`: vectors, events, causal classification, affine machinery
- `isometry`: form-preserving maps, reflections and their composition,
  dilations, conformal-factor extraction, relation harnesses
- `kinematics`: the one-parameter boost family, velocity composition,
  rapidity, branch classification, spatial boosts
- `projective`: projective maps and the deformed boosts with an invariant
  length scale
- `simultaneity`: light-cone intersections, radar simultaneity, the
  mutual-simultaneity solver
- `lattice`: exact integer-grid complements/completions from per-slice
  light-cone distances, and the lattice law suites
- `rigid`: Born-rigidity kinematics by finite differences
- `cli`: `minklab` command line front end
"""

__version__ = "0.1.0"

from . import core, isometry, kinematics, lattice, projective, rigid, simultaneity

__all__ = [
    "core",
    "isometry",
    "kinematics",
    "lattice",
    "projective",
    "rigid",
    "simultaneity",
    "__version__",
]
