"""Brute-force oracle for the grid-lattice engine.

`complement_mask_bruteforce` applies the relation's definition directly:
a cell is in S' iff no member of S relates to it.  It takes the members one
at a time, in mask order, and tests each against the cells that no earlier
member relates, with exact int64 differences (`IntegerGrid` refuses any
grid whose squared interval would overflow int64).  It shares no code with
`engine`, and is the reference that `engine.complement` is tested against.
"""

from __future__ import annotations

import numpy as np


def complement_mask_bruteforce(coords: np.ndarray, mask: np.ndarray, mode: int) -> np.ndarray:
    """Cells that no member relates to; mode 0 causal, 1 chronological, 2 galilei."""
    coords = np.asarray(coords, dtype=np.int64)
    sign = np.full(coords.shape[1], -1, dtype=np.int64)
    sign[0] = 1  # (d * d) @ sign is the squared interval dt^2 - |dx|^2
    left = np.arange(len(coords))
    for m in np.flatnonzero(mask):
        d = coords[left] - coords[m]
        if mode == 0:
            related = (d * d) @ sign >= 0
        elif mode == 1:
            related = ((d * d) @ sign > 0) | (left == m)
        else:
            related = (d[:, 0] != 0) | (left == m)
        left = left[~related]
        if not len(left):
            break
    out = np.zeros(len(coords), dtype=bool)
    out[left] = True
    return out
