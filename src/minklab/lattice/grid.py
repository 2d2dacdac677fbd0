"""Integer event grids and bitset regions.

A grid has a time axis and one or more spatial axes (1+1, 2+1, 3+1, ...).
Squared intervals between grid events are computed in exact integer
arithmetic, so every lattice law in this package is checked bit-exactly:
there is no tolerance anywhere.  Grids whose cell count or largest squared
interval would not fit in int64 are rejected.  Region membership is a flat
boolean mask over the grid cells in lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CAUSAL",
    "CHRONOLOGICAL",
    "GALILEI",
    "MODES",
    "IntegerGrid",
    "Region",
]

CAUSAL = "causal"
CHRONOLOGICAL = "chronological"
GALILEI = "galilei"
MODES = (CAUSAL, CHRONOLOGICAL, GALILEI)

_MODE_CODE = {CAUSAL: 0, CHRONOLOGICAL: 1, GALILEI: 2}
_INT64_MAX = int(np.iinfo(np.int64).max)


def _integer(value, what: str) -> int:
    """A Python or numpy integer as an int; ValueError for anything else,
    a bool, a float or a string included, rather than a truncation."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def mode_code(mode: str) -> int:
    if mode not in _MODE_CODE:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return _MODE_CODE[mode]


@dataclass(frozen=True, eq=False)
class IntegerGrid:
    """Finite box of integer events, time axis first."""

    extents: tuple[tuple[int, int], ...]

    def __init__(self, extents: Sequence[Sequence[int]]):
        ext = tuple((_integer(lo, "an axis end"), _integer(hi, "an axis end"))
                    for lo, hi in extents)
        if len(ext) < 2:
            raise ValueError("a grid needs a time axis and at least one spatial axis")
        for lo, hi in ext:
            if hi < lo:
                raise ValueError("empty axis range")
        shape = tuple(hi - lo + 1 for lo, hi in ext)
        size = math.prod(shape)
        if size > _INT64_MAX or sum((s - 1) ** 2 for s in shape) > _INT64_MAX:
            raise ValueError(f"grid {shape} overflows int64 cell indices or intervals")
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_size", size)

    @classmethod
    def centered(cls, *sizes: int) -> "IntegerGrid":
        """Grid of the given per-axis cell counts, centred on the origin."""
        return cls([(-(s // 2), s - 1 - s // 2) for s in sizes])

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return self._size

    @cached_property
    def coords(self) -> np.ndarray:
        """(size, dim) int64 array of cell coordinates, lexicographic order."""
        axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in self.extents]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.ascontiguousarray(
            np.stack([m.reshape(-1) for m in mesh], axis=1))

    def index_of(self, point: Sequence[int]) -> int:
        p = tuple(_integer(c, "a point coordinate") for c in point)
        if len(p) != self.dim or not all(lo <= c <= hi for c, (lo, hi) in zip(p, self.extents)):
            raise ValueError(f"point {p} outside grid")
        idx = 0
        for c, (lo, hi) in zip(p, self.extents):
            idx = idx * (hi - lo + 1) + (c - lo)
        return idx

    def __repr__(self) -> str:
        return f"IntegerGrid({list(self.extents)})"


@dataclass(frozen=True, eq=False)
class Region:
    """Subset of a grid as a flat boolean mask."""

    grid: IntegerGrid
    mask: np.ndarray

    def __init__(self, grid: IntegerGrid, mask: np.ndarray):
        m = np.asarray(mask, dtype=bool).reshape(-1)
        if m.size != grid.size:
            raise ValueError("mask length must equal the grid cell count")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "mask", m)

    @classmethod
    def _adopt(cls, grid: IntegerGrid, mask: np.ndarray) -> "Region":
        """Region that takes over `mask`, a flat bool array of grid.size
        cells that the package has just computed and that nothing else
        holds: it is frozen in place, not copied."""
        mask.setflags(write=False)
        region = object.__new__(cls)
        object.__setattr__(region, "grid", grid)
        object.__setattr__(region, "mask", mask)
        return region

    # constructors -------------------------------------------------------
    @classmethod
    def empty(cls, grid: IntegerGrid) -> "Region":
        return cls._adopt(grid, np.zeros(grid.size, dtype=bool))

    @classmethod
    def full(cls, grid: IntegerGrid) -> "Region":
        return cls._adopt(grid, np.ones(grid.size, dtype=bool))

    @classmethod
    def from_points(cls, grid: IntegerGrid, points: Iterable[Sequence[int]]) -> "Region":
        m = np.zeros(grid.size, dtype=bool)
        for p in points:
            m[grid.index_of(p)] = True
        return cls._adopt(grid, m)

    # set algebra (exact) --------------------------------------------------
    def _check_same_grid(self, other: "Region") -> None:
        if self.grid is not other.grid and self.grid.extents != other.grid.extents:
            raise ValueError("regions live on different grids")

    def __and__(self, other: "Region") -> "Region":
        self._check_same_grid(other)
        return Region._adopt(self.grid, self.mask & other.mask)

    def __or__(self, other: "Region") -> "Region":
        self._check_same_grid(other)
        return Region._adopt(self.grid, self.mask | other.mask)

    def __sub__(self, other: "Region") -> "Region":
        self._check_same_grid(other)
        return Region._adopt(self.grid, self.mask & ~other.mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        self._check_same_grid(other)
        return bool(np.array_equal(self.mask, other.mask))

    def __le__(self, other: "Region") -> bool:
        self._check_same_grid(other)
        return bool(np.all(~self.mask | other.mask))

    def __hash__(self):
        return hash((self.grid.extents, self.mask.tobytes()))

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    @property
    def is_empty(self) -> bool:
        return np.count_nonzero(self.mask) == 0

    def points(self) -> list[tuple[int, ...]]:
        return [tuple(int(x) for x in row) for row in self.grid.coords[self.mask]]

    def __repr__(self) -> str:
        return f"Region(count={self.count}, grid={self.grid!r})"
