"""Line-cone intersections, radar simultaneity and the mutual-simultaneity
solver for pairs of inertial observers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PREDICATE_TOL, Event, Hyperplane, MinkVector, PreconditionError, inner

__all__ = [
    "WorldLine",
    "line_cone_intersect",
    "radar_simultaneous_event",
    "radar_echo_points",
    "mutual_simultaneity",
    "simultaneity_hyperplane",
]


@dataclass(frozen=True)
class WorldLine:
    """Straight line base + lambda * direction.

    Stored in canonical form so that equal point sets compare equal: the
    direction is future-normalised to direction^2 = c^2 (timelike) or unit
    Euclidean norm with positive time component (lightlike), and the base is
    the point of smallest Euclidean norm on the line.
    """

    base: Event
    direction: MinkVector
    c: float = 1.0

    def __init__(self, base: Event, direction: MinkVector, c: float = 1.0):
        b = base.a if isinstance(base, Event) else np.asarray(base, dtype=float)
        v = direction.a if isinstance(direction, MinkVector) else np.asarray(direction, dtype=float)
        q = inner(v, v)
        eucl2 = float(v @ v)
        if eucl2 == 0.0:
            raise PreconditionError("direction must be nonzero")
        if q < -1e-12 * eucl2:
            raise PreconditionError("direction must be non-spacelike")
        if q > 1e-12 * eucl2:
            v = v * (c / np.sqrt(q))
        else:
            v = v / np.sqrt(eucl2)
        if v[0] < 0:
            v = -v
        # minimal Euclidean-norm representative of the base point
        b = b - (float(b @ v) / float(v @ v)) * v
        object.__setattr__(self, "base", Event(b))
        object.__setattr__(self, "direction", MinkVector(v))
        object.__setattr__(self, "c", float(c))

    @property
    def timelike(self) -> bool:
        return inner(self.direction, self.direction) > 0

    def point(self, lam: float) -> Event:
        return self.base + float(lam) * self.direction

    def contains(self, p: Event) -> bool:
        d = (p - self.base).a
        v = self.direction.a
        resid = d - (float(d @ v) / float(v @ v)) * v
        scale = max(1.0, float(np.abs(d).max()))
        return float(np.abs(resid).max()) <= PREDICATE_TOL * scale


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
    d = r - p.a
    dd = inner(d, d)
    vv = inner(v, v)
    vd = inner(v, d)
    if vv > 1e-12 * float(v @ v):
        discr = vd * vd - vv * dd
        root = np.sqrt(discr)
        lams = sorted([(-vd - root) / vv, (-vd + root) / vv])
        return [line.point(l) for l in lams]
    if abs(vd) <= 1e-12 * max(1.0, float(np.abs(v).max()) * float(np.abs(d).max())):
        return []
    return [line.point(-dd / (2.0 * vd))]


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
    if line.contains(p):
        raise PreconditionError("p must not lie on the line")
    q_minus, q_plus = radar_echo_points(line, p)
    return Event(0.5 * (q_minus.a + q_plus.a))


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
    r, rp = line1.base.a, line2.base.a
    if np.linalg.matrix_rank(np.vstack([v, vp]), tol=1e-12) < 2:
        raise PreconditionError("lines must not be parallel")
    mat = np.array([[inner(v, v), -inner(v, vp)],
                    [inner(v, vp), -inner(vp, vp)]])
    rhs = np.array([inner(rp - r, v), inner(rp - r, vp)])
    lam, lamp = np.linalg.solve(mat, rhs)
    return line1.point(lam), line2.point(lamp)


def simultaneity_hyperplane(line: WorldLine, q: Event) -> Hyperplane:
    """The simultaneity class of q for the line's observer: the spacelike
    hyperplane through q with the line's direction as normal."""
    if not line.timelike:
        raise PreconditionError("needs a timelike line")
    if not line.contains(q):
        raise PreconditionError("q must lie on the line")
    return Hyperplane(normal=line.direction, base=q)
