"""Line-cone intersections, radar simultaneity and the mutual-simultaneity
solver for pairs of inertial observers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (PREDICATE_TOL, Event, Hyperplane, MinkVector, PreconditionError, _inner_rows,
                   inner)

__all__ = [
    "WorldLine",
    "line_cone_intersect",
    "radar_simultaneous_event",
    "radar_echo_points",
    "mutual_simultaneity",
    "simultaneity_hyperplane",
]


@dataclass(frozen=True, eq=False)
class WorldLine:
    """Straight line base + lambda * direction.

    Stored in canonical form, so that equal point sets get equal `base` and
    `direction` arrays (`==` itself is identity): the direction is
    future-normalised to direction^2 = c^2 (timelike) or unit Euclidean norm
    with positive time component (lightlike), and the base is the point of
    smallest Euclidean norm on the line.  A base or direction with a NaN or
    infinite entry is refused.
    """

    base: Event
    direction: MinkVector
    c: float = 1.0

    def __init__(self, base: Event, direction: MinkVector, c: float = 1.0):
        b = base.a if isinstance(base, Event) else np.asarray(base, dtype=float)
        v = direction.a if isinstance(direction, MinkVector) else np.asarray(direction, dtype=float)
        b, v, timelike = _canonical_lines(b, v, c)
        object.__setattr__(self, "base", Event(b))
        object.__setattr__(self, "direction", MinkVector(v))
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "_timelike", bool(timelike))

    @property
    def timelike(self) -> bool:
        """Whether the canonical form normalised the direction as timelike."""
        return self._timelike

    def point(self, lam: float) -> Event:
        return self.base + float(lam) * self.direction

    def contains(self, p: Event) -> bool:
        return bool(_contains_rows(self.base.a, self.direction.a, p.a))


# The private helpers below act row by row on stacks of lines (bases r,
# directions v along the last axis) and events p; the public functions are
# their single-row case.  Each row equals the single-row result bit for bit.

def _canonical_lines(b: np.ndarray, v: np.ndarray,
                     c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (base, direction) of the lines b + lambda v (see WorldLine),
    and whether each direction is timelike: v.v above 1e-12 times its
    Euclidean norm squared.

    Raises PreconditionError if any row is non-finite, or has a zero or
    spacelike direction.
    """
    if not (np.isfinite(b).all() and np.isfinite(v).all()):
        raise PreconditionError("base and direction must be finite")
    q = _inner_rows(v, v)
    eucl2 = np.vecdot(v, v)
    if (eucl2 == 0.0).any():
        raise PreconditionError("direction must be nonzero")
    if (q < -1e-12 * eucl2).any():
        raise PreconditionError("direction must be non-spacelike")
    timelike = q > 1e-12 * eucl2
    root = np.sqrt(np.where(timelike, q, eucl2))[..., None]
    v = np.where(timelike[..., None], v * (c / root), v / root)
    v = np.where(v[..., :1] < 0, -v, v)
    # minimal Euclidean-norm representative of the base point
    b = b - (np.vecdot(b, v) / np.vecdot(v, v))[..., None] * v
    return b, v, timelike


def _contains_rows(r: np.ndarray, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Whether p lies on the line r + lambda v, up to PREDICATE_TOL."""
    d = p - r
    resid = d - (np.vecdot(d, v) / np.vecdot(v, v))[..., None] * v
    scale = np.maximum(1.0, np.abs(d).max(axis=-1))
    return np.abs(resid).max(axis=-1) <= PREDICATE_TOL * scale


def _echo_points(r: np.ndarray, v: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Past and future intersections of timelike lines with the cones at p.

    The roots of (r + lambda v - p)^2 = 0; the discriminant is positive by
    the strict inverted Cauchy-Schwarz inequality, and v.v > 0 orders them.
    """
    d = r - p
    dd, vv, vd = _inner_rows(d, d), _inner_rows(v, v), _inner_rows(v, d)
    root = np.sqrt(vd * vd - vv * dd)
    lo, hi = (-vd - root) / vv, (-vd + root) / vv
    return r + lo[..., None] * v, r + hi[..., None] * v


def _radar_events(q_minus: np.ndarray, q_plus: np.ndarray) -> np.ndarray:
    """Midpoints of the echo chords: the radar-simultaneous events."""
    return 0.5 * (q_minus + q_plus)


def _parallel_rows(v: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """Whether directions v and vp are linearly dependent."""
    return np.linalg.matrix_rank(np.stack([v, vp], axis=-2), tol=1e-12) < 2


def _mutual_points(r: np.ndarray, v: np.ndarray,
                   rp: np.ndarray, vp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mutually simultaneous points (q, q') of non-parallel timelike lines.

    Solves (q - q').v = (q - q').v' = 0 for the line parameters.
    """
    vvp = _inner_rows(v, vp)
    mat = np.empty(vvp.shape + (2, 2))
    mat[..., 0, 0] = _inner_rows(v, v)
    mat[..., 0, 1] = -vvp
    mat[..., 1, 0] = vvp
    mat[..., 1, 1] = -_inner_rows(vp, vp)
    rhs = np.empty(vvp.shape + (2, 1))
    rhs[..., 0, 0] = _inner_rows(rp - r, v)
    rhs[..., 1, 0] = _inner_rows(rp - r, vp)
    lam = np.linalg.solve(mat, rhs)
    return r + lam[..., 0, :] * v, rp + lam[..., 1, :] * vp


def line_cone_intersect(line: WorldLine, p: Event) -> list[Event]:
    """Intersection of a causal line with the light double-cone at p.

    Timelike direction: exactly two points, ordered past to future (the
    quadratic's discriminant is positive by the strict inverted
    Cauchy-Schwarz inequality).  Lightlike direction: one point unless
    p - base is g-orthogonal to the direction, in which case the
    intersection is empty.  p on the line itself is rejected: there the
    intersection degenerates (a double point, or the whole lightlike line).
    """
    if line.contains(p):
        raise PreconditionError("p must not lie on the line")
    v = line.direction.a
    r = line.base.a
    if line.timelike:
        return [Event(q) for q in _echo_points(r, v, p.a)]
    d = r - p.a
    vd = inner(v, d)
    if abs(vd) <= 1e-12 * max(1.0, float(np.abs(v).max()) * float(np.abs(d).max())):
        return []
    return [line.point(-inner(d, d) / (2.0 * vd))]


def radar_echo_points(line: WorldLine, p: Event) -> tuple[Event, Event]:
    """The two cone intersections (q_minus, q_plus) for a timelike line."""
    if not line.timelike:
        raise PreconditionError("radar construction needs a timelike line")
    pts = line_cone_intersect(line, p)
    return pts[0], pts[1]


def radar_simultaneous_event(line: WorldLine, p: Event) -> Event:
    """Event on the line radar-simultaneous with p: the midpoint of the
    segment the double cone at p cuts on the line; equivalently the point q
    with (q - p) g-orthogonal to the line."""
    q_minus, q_plus = radar_echo_points(line, p)
    return Event(_radar_events(q_minus.a, q_plus.a))


def mutual_simultaneity(line1: WorldLine, line2: WorldLine) -> tuple[Event, Event]:
    """The unique pair (q, q') with q' simultaneous for line1's observer and
    q simultaneous for line2's observer.

    Solves the 2x2 system from (q - q').v = (q - q').v' = 0; its determinant
    (v.v')^2 - v^2 v'^2 is positive for independent timelike directions, so
    the pair exists and is unique.  Intersecting lines give q = q' at the
    intersection point.
    """
    if not (line1.timelike and line2.timelike):
        raise PreconditionError("both lines must be timelike")
    v, vp = line1.direction.a, line2.direction.a
    if _parallel_rows(v, vp):
        raise PreconditionError("lines must not be parallel")
    q, qp = _mutual_points(line1.base.a, v, line2.base.a, vp)
    return Event(q), Event(qp)


def simultaneity_hyperplane(line: WorldLine, q: Event) -> Hyperplane:
    """The simultaneity class of q for the line's observer: the spacelike
    hyperplane through q with the line's direction as normal."""
    if not line.timelike:
        raise PreconditionError("needs a timelike line")
    if not line.contains(q):
        raise PreconditionError("q must lie on the line")
    return Hyperplane(normal=line.direction, base=q)
