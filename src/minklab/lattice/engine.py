"""Complement, completion, meet and join on grid regions.

Every lattice operation reduces to complements, and a complement is
computed from light-cone distances per occupied time slice.  For each time
slice t_s that holds members of the set, a separable pass, the same for
every grid dimension, gives the exact squared spatial distance d2 from
every spatial cell to the slice's nearest member.  A cell x at time t is
related to that slice iff d2 <= (t - t_s)^2 (causal) or d2 < (t - t_s)^2
(chronological, where a member is also related to itself), i.e. iff
|t - t_s| reaches an integer radius r(x) read off d2; with one spatial
axis the pass's scan gives the distance itself, the gap g, and r is g
(causal) or g + 1 (chronological) with no square root.  So the cells at x
that no slice relates form the open time interval
(max_s t_s - r_s(x), min_s t_s + r_s(x)).  All arithmetic is exact int64.
For a set spanning k of the T slices the cost is
O(k |spatial| (1 + L) + T |spatial|), with L the summed length of the
spatial axes before the last, and the temporary memory is O(k |spatial|)
plus one block of an axis step (see `_sq_distance`): there is no pairwise
table.  A set on more than 4 slices is first bounded by its first and last
slices alone: when they leave no interval open, the complement is empty at
a cost of O(|spatial| (1 + L)), before the middle slices and the
T |spatial| output build.  Otherwise the middle slices fold into the same
min and max, which gives the same bits in any order.  `completion`, `join`
and the orthomodularity check skip that try for their outer complement
when it contains a non-empty input and so cannot come out empty.  The
finite-speed (galilei) relation has a closed form.  Result masks are
computed fresh and adopted by their regions (`Region._adopt`), not copied.
`oracle.complement_mask_bruteforce`, the relation's definition applied
member by member, is the reference the tests compare this against.
"""

from __future__ import annotations

import numpy as np

from .grid import GALILEI, IntegerGrid, Region, mode_code

__all__ = [
    "complement",
    "completion",
    "is_complete",
    "meet",
    "join",
    "diamond",
    "de_morgan_check",
    "orthomodularity_check",
    "galilei_chron_complement",
]


# int64 cells a block of an axis step may hold: the (x', x, ...) sum stays
# cache-sized.  Where one x alone needs more, a block is one x, whose sum
# holds as many cells as the lines it reads.
_STEP_CELLS = 1 << 14


def _line_gap(members: np.ndarray) -> np.ndarray:
    """Distance along the last axis from each cell to the nearest member on
    its line, as int64 of `members`' shape; a line without a member reads
    more than the summed spatial extent."""
    n = members.shape[-1]
    idx = np.arange(n)
    far = n + sum(members.shape[1:])  # a memberless line loses every min below
    left = np.maximum.accumulate(np.where(members, idx, -far), axis=-1)
    right = np.minimum.accumulate(np.where(members, idx, far)[..., ::-1], axis=-1)[..., ::-1]
    return np.minimum(idx - left, right - idx)


def _sq_distance(members: np.ndarray) -> np.ndarray:
    """Squared distance from each spatial cell to its slice's nearest member.

    `members` is (k, *spatial) bool with a member in every slice; the
    result is int64 of the same shape.  The last axis is scanned both ways
    for the nearest member on the same line (`_line_gap`); every other
    spatial axis then takes the exact 1-D step
    g(x) <- min over x' of (x - x')^2 + g(x'), a block of x at a time over
    whole arrays of lines: one broadcast (x', x, ...) sum, reduced over x'.
    """
    d2 = _line_gap(members)
    d2 *= d2
    for axis in range(1, members.ndim - 1):
        # x' leads, so the min reduces over the outermost, contiguous axis
        g = np.ascontiguousarray(d2.swapaxes(0, axis))
        pos = np.arange(len(g))
        shift = ((pos[:, None] - pos) ** 2).reshape(pos.shape * 2 + (1,) * (g.ndim - 1))
        block = _STEP_CELLS // g.size
        if block >= len(g):  # the whole sum fits in one block
            out = np.minimum.reduce(g[:, None] + shift, axis=0)
        else:
            block = max(1, block)
            out = np.empty_like(g)
            for lo in range(0, len(g), block):
                np.minimum.reduce(g[:, None] + shift[:, lo:lo + block], axis=0,
                                  out=out[lo:lo + block])
        d2 = out.swapaxes(0, axis)
    return d2


# a set on this many occupied slices or fewer takes one distance pass: there,
# a second pass for the middle slices costs more than stopping early saves
_ONE_PASS_SLICES = 4


def _slice_bounds(members: np.ndarray, times: np.ndarray,
                  code: int) -> tuple[np.ndarray, np.ndarray]:
    """Per spatial cell, the earliest future time (`future`) and the latest
    past time (`past`) that the occupied slices `members`, at the time
    indices `times`, relate."""
    if members.ndim == 2:
        # one spatial axis: the gap is the distance itself, so the smallest
        # |t - t_s| reaching it is the gap (causal) or one more (chronological)
        reach = _line_gap(members)
        if code == 1:
            reach += 1
    else:
        d2 = _sq_distance(members).reshape(times.size, -1)
        # smallest |t - t_s| with (t - t_s)^2 >= d2 (causal) or > d2 (chronological);
        # root is floor(sqrt(d2)) or one more where the float sqrt rounded up
        root = np.sqrt(d2).astype(np.int64)
        sq = root * root
        reach = root + (sq < d2 if code == 0 else sq <= d2)
    times = times[:, None]
    return np.minimum.reduce(times + reach, axis=0), np.maximum.reduce(times - reach, axis=0)


def _complement_mask(region: Region, code: int, *, ends_first: bool = True) -> np.ndarray:
    """Flat mask of the cells related (per mode code) to no cell of the region.

    With `ends_first`, a set on more than _ONE_PASS_SLICES slices is
    first bounded by its first and last slices alone, and the complement is
    returned empty when they already leave no cell unrelated.  A caller
    that knows the complement is not empty passes False to skip that try.
    """
    grid = region.grid
    cells = region.mask.reshape(grid.shape[0], -1)
    occupied = np.logical_or.reduce(cells, axis=1).nonzero()[0]
    if occupied.size == 0:
        return np.ones(grid.size, dtype=bool)
    if code == 2:  # every time difference relates: only one slice can be left
        out = np.zeros_like(cells)
        if occupied.size == 1:
            out[occupied[0]] = ~cells[occupied[0]]
        return out.reshape(-1)
    cube = region.mask.reshape(grid.shape)
    if ends_first and occupied.size > _ONE_PASS_SLICES:
        first, last = occupied[0], occupied[-1]
        # basic slices: views of the two extreme slices and their times
        future, past = _slice_bounds(cube[first:last + 1:last - first],
                                     occupied[::occupied.size - 1], code)
        if np.maximum.reduce(future - past) <= 1:  # no time lies strictly between
            return np.zeros(grid.size, dtype=bool)
        # min and max are associative, so the middle slices fold in bit-exactly
        middle = occupied[1:-1]
        mid_future, mid_past = _slice_bounds(cube[middle], middle, code)
        np.minimum(future, mid_future, out=future)
        np.maximum(past, mid_past, out=past)
    else:
        future, past = _slice_bounds(cube[occupied], occupied, code)
    t = np.arange(grid.shape[0])[:, None]
    out = (t > past) & (t < future)
    if code == 1:
        out &= ~cells
    return out.reshape(-1)


def complement(region: Region, mode: str) -> Region:
    """Largest region separated (per mode) from every cell of the input.

    The result is grid-relative: true complements are unbounded, so regions
    near the grid boundary see a truncated one.
    """
    return Region._adopt(region.grid, _complement_mask(region, mode_code(mode)))


def _outer_complement(region: Region, mode: str, inside_empty: bool) -> Region:
    """Complement of a region whose complement contains a known set (the
    complement of a complement contains the original set).  The
    extreme-slice try runs only when `inside_empty` says that set is empty:
    otherwise the result cannot be empty and the try would be waste.  The
    bits are the same either way."""
    return Region._adopt(region.grid,
                          _complement_mask(region, mode_code(mode), ends_first=inside_empty))


def _completion_pair(region: Region, mode: str) -> tuple[Region, Region]:
    """The region's complement and its completion, the complement's complement."""
    once = complement(region, mode)
    return once, _outer_complement(once, mode, region.is_empty)


def completion(region: Region, mode: str) -> Region:
    """Double complement: the smallest complete superset of the region."""
    return _completion_pair(region, mode)[1]


def is_complete(region: Region, mode: str) -> bool:
    return completion(region, mode) == region


def meet(s1: Region, s2: Region, mode: str) -> Region:
    """Greatest lower bound; equals the intersection for complete inputs."""
    del mode  # the intersection of complete regions is complete in every mode
    return s1 & s2


def join(s1: Region, s2: Region, mode: str) -> Region:
    """Least upper bound of complete regions: (s1' intersect s2')'."""
    return _outer_complement(complement(s1, mode) & complement(s2, mode), mode,
                             s1.is_empty and s2.is_empty)


def _cone_offsets(grid: IntegerGrid, p) -> tuple[np.ndarray, np.ndarray]:
    """Time offset x_t - p_t and exact int64 interval (x - p).(x - p) of
    every grid cell x from the event p."""
    d = grid.coords - np.asarray(p, dtype=np.int64)[None, :]
    return d[:, 0], d[:, 0] ** 2 - (d[:, 1:] ** 2).sum(axis=1)


def diamond(grid: IntegerGrid, p, q, closed: bool = True) -> Region:
    """Double-cone intersection region spanned by events p and q.

    Closed uses non-strict interval inequalities, open strict ones; for
    p = q the closed variant is the single point and the open one is empty.
    The two cone orderings are both tried, so the argument order of p and q
    does not matter.
    """
    tp, ip = _cone_offsets(grid, p)
    tq, iq = _cone_offsets(grid, q)
    if closed:  # in the future cone of one endpoint and the past cone of the other
        between = ((tp >= 0) & (tq <= 0)) | ((tq >= 0) & (tp <= 0))
        return Region._adopt(grid, (ip >= 0) & (iq >= 0) & between)
    between = ((tp > 0) & (tq < 0)) | ((tq > 0) & (tp < 0))
    return Region._adopt(grid, (ip > 0) & (iq > 0) & between)


def de_morgan_check(pairs, mode: str) -> list[tuple[int, str]]:
    """Dual-law violations over (complete, complete) region pairs.

    For each pair checks (a meet b)' = a' join b' and (a join b)' = a' meet
    b', with joins computed as completions of unions so the identity is not
    circular.  Returns (pair index, law tag) entries; empty means all hold.
    """
    violations = []
    for idx, (a, b) in enumerate(pairs):
        ac, bc = complement(a, mode), complement(b, mode)
        lhs1 = complement(a & b, mode)
        rhs1 = completion(ac | bc, mode)
        if lhs1 != rhs1:
            violations.append((idx, "meet-complement"))
        lhs2 = complement(completion(a | b, mode), mode)
        rhs2 = ac & bc
        if lhs2 != rhs2:
            violations.append((idx, "join-complement"))
    return violations


def _complement_of_complete(region: Region, mode: str) -> Region:
    """The region's complement, once its completion has shown it complete."""
    once, twice = _completion_pair(region, mode)
    if twice != region:
        raise ValueError("orthomodularity check needs complete inputs")
    return once


def _orthomodular(a: Region, a_complement: Region, b: Region, mode: str) -> dict:
    """The law for complete a <= b, given a's complement.

    With b complete, a join b' = (a' meet b'')' = (a' meet b)', whose outer
    complement contains a and so skips the try for an empty one unless a
    is empty.
    """
    joined = _outer_complement(a_complement & b, mode, a.is_empty)
    rhs = meet(b, joined, mode)
    return {"holds": rhs == a, "witness": rhs - a, "join": joined}


def orthomodularity_check(a: Region, b: Region, mode: str) -> dict:
    """Test a = b meet (a join b') for complete a <= b.

    Returns holds, the witness region b meet (a join b') minus a, which is
    nonempty exactly when the law fails, and the join a join b'.
    """
    if not a <= b:
        raise ValueError("orthomodularity check needs a <= b")
    a_complement = _complement_of_complete(a, mode)
    _complement_of_complete(b, mode)
    return _orthomodular(a, a_complement, b, mode)


def galilei_chron_complement(region: Region) -> Region:
    """Finite-speed analogue of the chronological complement.

    With a finite-speed reachability relation, two distinct events are
    unrelated exactly when they are simultaneous; the complement of a set
    spanning more than one time slice is therefore empty, and the complete
    sets are the proper subsets of single slices (plus the empty and full
    regions).
    """
    return complement(region, GALILEI)
