"""Brute-force oracle for the grid-lattice engine.

`complement_mask_bruteforce` is the plain double loop over (cell, member)
pairs with exact Python integers.  It is far too slow for production sweeps
and is kept as the reference that `engine.complement` is tested against.
"""

from __future__ import annotations

import numpy as np


def complement_mask_bruteforce(coords: np.ndarray, mask: np.ndarray, mode: int) -> np.ndarray:
    """Unoptimised oracle: literal O(grid * set) double loop with exact ints."""
    pts = [tuple(int(c) for c in row) for row in coords]
    sel = [p for p, inside in zip(pts, mask) if inside]
    out = np.zeros(len(pts), dtype=bool)
    for i, p in enumerate(pts):
        ok = True
        for s in sel:
            d0 = p[0] - s[0]
            sp2 = 0
            for a in range(1, len(p)):
                d = p[a] - s[a]
                sp2 += d * d
            interval = d0 * d0 - sp2
            same = p == s
            if mode == 0:
                related = interval >= 0
            elif mode == 1:
                related = interval > 0 or same
            else:
                related = d0 != 0 or same
            if related:
                ok = False
                break
        out[i] = ok
    return out
