"""Exact integer-grid realisation of the two causal-separation lattices.

Regions are bitsets over a finite integer grid; complements, completions,
meets and joins are computed with exact integer interval arithmetic.  A
complement is read off per-slice light-cone distances: the exact squared
spatial distance to each occupied time slice's nearest member, compared
with the squared time difference.  `oracle.complement_mask_bruteforce`,
the relation's definition applied member by member, is the reference it is
tested against.
"""

from .engine import (complement, completion, de_morgan_check, diamond,
                     galilei_chron_complement, is_complete, join, meet,
                     orthomodularity_check)
from .grid import CAUSAL, CHRONOLOGICAL, GALILEI, MODES, IntegerGrid, Region
from .io import region_from_json, region_to_json, region_to_pbm
from .laws import (covering_counterexample, fig2_counterexample,
                   lattice_property_suite, law_sweep, random_region)

__all__ = [
    "CAUSAL",
    "CHRONOLOGICAL",
    "GALILEI",
    "MODES",
    "IntegerGrid",
    "Region",
    "complement",
    "completion",
    "is_complete",
    "meet",
    "join",
    "diamond",
    "de_morgan_check",
    "orthomodularity_check",
    "galilei_chron_complement",
    "region_to_json",
    "region_from_json",
    "region_to_pbm",
    "fig2_counterexample",
    "covering_counterexample",
    "lattice_property_suite",
    "law_sweep",
    "random_region",
]
