"""Region serialisation: run-length-encoded rows in JSON, PBM bitmaps.

JSON schema (stable, versioned):

    {
      "schema_version": 1,
      "dim": 2,
      "extents": [[t_lo, t_hi], [x_lo, x_hi], ...],
      "rows": [[row_key, [start, length], ...], ...]
    }

Rows run along the last axis; `row_key` lists the leading coordinates of
the row and is present only for non-empty rows.  `start` is the coordinate
value on the last axis where a run of member cells begins.  The PBM export
(n = 2 only) writes plain P1 with one image row per time value, smallest
time first, and x increasing left to right.
"""

from __future__ import annotations

import json

import numpy as np

from .grid import IntegerGrid, Region, _integer

__all__ = ["region_to_json", "region_from_json", "region_to_pbm"]

SCHEMA_VERSION = 1


def region_to_json(region: Region) -> str:
    grid = region.grid
    # each row padded with a non-member on both ends; a run boundary is a
    # cell whose membership differs from the cell before, so boundaries come
    # row by row, each run as a (start, end) pair
    padded = np.zeros((grid.size // grid.shape[-1], grid.shape[-1] + 2), dtype=bool)
    padded[:, 1:-1] = region.mask.reshape(len(padded), -1)
    row, col = np.nonzero(padded[:, 1:] != padded[:, :-1])
    row, start, end = row[0::2], col[0::2], col[1::2]
    lead = np.column_stack(np.unravel_index(row, grid.shape[:-1]))
    lead += [lo for lo, _ in grid.extents[:-1]]
    runs = np.column_stack((start + grid.extents[-1][0], end - start))
    rows = []
    last_row = -1
    for r, key, run in zip(row.tolist(), lead.tolist(), runs.tolist()):
        if r != last_row:
            rows.append([key])
            last_row = r
        rows[-1].append(run)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dim": grid.dim,
        "extents": [list(e) for e in grid.extents],
        "rows": rows,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _pair(value, what: str) -> list[int]:
    # a JSON number decodes to an int, a float or a bool: only an int counts
    if not (type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is int):
        raise ValueError(f"{what} {value!r} is not a pair of integers")
    return value


def region_from_json(text: str) -> Region:
    """The region of a JSON document.  ValueError unless it is an object
    whose `extents` are integer pairs, whose integer `dim` matches them,
    whose row keys are integer coordinates in the grid, and whose runs are
    integer pairs of positive length that lie in their row."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a region document is a JSON object, got {type(doc).__name__}")
    if type(doc.get("schema_version")) is not int or doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if not (isinstance(doc.get("extents"), list) and isinstance(doc.get("rows"), list)):
        raise ValueError("a region document needs the lists 'extents' and 'rows'")
    grid = IntegerGrid([_pair(e, "extent") for e in doc["extents"]])
    if type(doc.get("dim")) is not int or doc["dim"] != grid.dim:
        raise ValueError(f"dim {doc.get('dim')!r} does not match {grid.dim} extents")
    nd = np.zeros(grid.shape, dtype=bool)
    lead_extents = grid.extents[:-1]
    last_lo, last_hi = grid.extents[-1]
    for row in doc["rows"]:
        if not (isinstance(row, list) and row and isinstance(row[0], list)):
            raise ValueError(f"row {row!r} is not [row_key, [start, length], ...]")
        lead = [_integer(c, "a row key coordinate") for c in row[0]]
        if len(lead) != len(lead_extents) or not all(
                lo <= c <= hi for c, (lo, hi) in zip(lead, lead_extents)):
            raise ValueError(f"row key {lead!r} outside the grid")
        idx = tuple(c - lo for c, (lo, _) in zip(lead, lead_extents))
        for run in row[1:]:
            start, length = _pair(run, "run")
            if not (length > 0 and last_lo <= start and start + length - 1 <= last_hi):
                raise ValueError(f"run {[start, length]!r} in row {lead!r} outside the grid")
            nd[idx][start - last_lo:start - last_lo + length] = True
    return Region(grid, nd.reshape(-1))


def region_to_pbm(region: Region) -> str:
    """Plain PBM (P1) bitmap of a 2-d region for visual inspection."""
    grid = region.grid
    if grid.dim != 2:
        raise ValueError("PBM export is for 2-d grids only")
    height, width = grid.shape
    # one row of "b b ... b\n": bits at even columns, spaces between
    text = np.full((height, 2 * width), ord(" "), dtype=np.uint8)
    text[:, 0::2] = region.mask.reshape(grid.shape) + ord("0")
    text[:, -1] = ord("\n")
    return f"P1\n{width} {height}\n" + text.tobytes().decode("ascii")
