"""Named verification suites behind the command line front end.

Each suite returns a list of checks (name, residual, tolerance, note);
reports are deterministic for a fixed (suite, seed, config).  There is one
verdict rule: a check passes iff its residual is below its tolerance, so a
NaN residual fails.  A check of a yes/no property reports the number of its
conditions that failed, against tolerance 1.0.  Residuals are reported even
on pass so regressions stay visible across runs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import core, isometry, kinematics, projective, rigid, simultaneity
from . import lattice as lat
from .lattice.oracle import complement_mask_bruteforce

__all__ = ["Check", "Config", "SUITES", "run_suite"]


@dataclass(frozen=True)
class Check:
    """A named residual against its tolerance; passes iff residual < tolerance."""

    name: str
    residual: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "residual": self.residual,
                "tolerance": self.tolerance, "note": self.note}


# finite-difference steps with margin inside those at which every rigid check
# passes: from 1.5e-3 up the curvature identity's truncation error fails it,
# and at 2e-6 roundoff fails the constant-acceleration Killing test
FD_STEP_RANGE = (1e-5, 1e-3)


@dataclass(frozen=True)
class Config:
    """Runtime knobs, parsed from key=value lines and CLI flags."""

    grid: tuple[int, ...] = (41, 41)
    fd_step: float = 1e-3
    samples: int = 200
    regions: int = 60

    @classmethod
    def from_mapping(cls, mapping: dict) -> "Config":
        """Parse key=value strings; unknown keys, non-positive values, fewer
        than 4 samples or 2 regions and an fd_step outside FD_STEP_RANGE are
        errors."""
        unknown = sorted(set(mapping) - {"grid", "fd_step", "samples", "regions"})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        kwargs = {}
        if "grid" in mapping:
            kwargs["grid"] = parse_grid(mapping["grid"])
        for key, kind in (("fd_step", float), ("samples", int), ("regions", int)):
            if key in mapping:
                value = kind(mapping[key])
                if not value > 0:
                    raise ValueError(f"{key} must be positive, got {mapping[key]!r}")
                kwargs[key] = value
        # the simultaneity sweeps take samples // 4 samples, and De Morgan's
        # laws are checked on pairs of regions: neither may be left empty
        for key, least in (("samples", 4), ("regions", 2)):
            if kwargs.get(key, least) < least:
                raise ValueError(f"{key} must be at least {least}, got {mapping[key]!r}")
        lo, hi = FD_STEP_RANGE
        if not lo <= kwargs.get("fd_step", lo) <= hi:
            raise ValueError(f"fd_step must lie in [{lo:g}, {hi:g}], where every rigid "
                             f"identity passes, got {mapping['fd_step']!r}")
        return cls(**kwargs)

    def as_dict(self) -> dict:
        return {
            "grid": "x".join(str(s) for s in self.grid),
            "fd_step": self.fd_step,
            "samples": self.samples,
            "regions": self.regions,
        }


def parse_grid(text: str) -> tuple[int, ...]:
    """Cells per axis, time first; each axis needs 5 for the lattice
    suite's covering pair (see `laws.lattice_property_suite`)."""
    parts = tuple(int(p) for p in str(text).lower().split("x"))
    if len(parts) < 2 or any(p < 5 for p in parts):
        raise ValueError(f"bad grid spec {text!r}: a time axis and spatial axes "
                         "of at least 5 cells each")
    lat.IntegerGrid.centered(*parts)  # raises ValueError on int64 overflow
    return parts


def _chk(name: str, residual: float, tolerance: float, note: str = "") -> Check:
    return Check(name, float(residual), float(tolerance), note)


# Every sampled check draws from its own stream, _stream(seed, name), named
# by the check or by the prefix of the checks that read the same draws, so
# its inputs depend on no other check's draws.  A sweep draws whole arrays
# and takes all samples at once as stacks.  A residual folds with one
# np.max, so a NaN in any sample fails its check, and a sweep that kept no
# sample reports NaN, so it fails too.

def _stream(seed: int, name: str) -> np.random.Generator:
    """The generator of the sampled check or checks `name` at `seed`."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _worst(residuals) -> float:
    a = np.abs(residuals)
    return np.max(a) if a.size else math.nan


def _future_timelike(v: np.ndarray, margin: float) -> np.ndarray:
    """Sets each row's time component to |v0| + |v_space| + margin, in place,
    which makes the rows future timelike; returns v."""
    v[..., 0] = np.abs(v[..., 0]) + np.sqrt(np.vecdot(v[..., 1:], v[..., 1:])) + margin
    return v


# ---------------------------------------------------------------------- core

def _orientation_sweep(rng: np.random.Generator, samples: int) -> int:
    """Random future-timelike triples u, v, w with u.v > 0 and v.w > 0 but
    not u.w > 0.  A triple counts unless a comparison shows the implication
    holds, so a NaN product counts."""
    u, v, w = _future_timelike(rng.standard_normal((samples, 3, 4)), 0.1).transpose(1, 0, 2)
    uv, vw, uw = core._inner_rows(u, v), core._inner_rows(v, w), core._inner_rows(u, w)
    return np.count_nonzero(~((uv <= 0) | (vw <= 0) | (uw > 0)))


def suite_core(seed: int, config: Config) -> list[Check]:
    checks = []
    n = 4
    e = np.eye(n)
    m = core.Metric(n)

    checks.append(_chk("inner.signature", abs(core.inner(e[0], e[0]) - 1)
                       + abs(core.inner(e[1], e[1]) + 1)
                       + abs(core.inner(e[0] + e[1], e[0] + e[1])), 1e-15,
                       "diagonal form on the standard basis"))
    cls = core.classify(core.MinkVector([0.5, 1, 0, 0]), m)
    checks.append(_chk("classify.spacelike", cls.label != "spacelike", 1.0,
                       "interval 0.25-1 < 0"))
    cs = core.cauchy_schwarz_case(e[0], e[1])
    checks.append(_chk("cauchy_schwarz.timelike_span",
                       (cs["case"] != "<=") + (not cs["lhs"] <= cs["rhs"]), 1.0,
                       "product inequality flips on timelike planes"))
    ts = core.strict_inverted_cs_holds(core.MinkVector([1, 0.2, 0.1, 0]), 500,
                                       _stream(seed, "strict_ics.timelike"))
    sp = core.strict_inverted_cs_holds(core.MinkVector([0.2, 1, 0, 0]), 500,
                                       _stream(seed, "strict_ics.spacelike_witness"))
    checks.append(_chk("strict_ics.timelike", not ts["holds"], 1.0,
                       "holds for every sample"))
    checks.append(_chk("strict_ics.spacelike_witness", sp["holds"], 1.0,
                       "witness constructed"))
    rt = core.reversed_triangle_check(core.MinkVector([2, 1, 0, 0]),
                                      core.MinkVector([2, -1, 0, 0]))
    expected_slack = 4 - 2 * math.sqrt(3)
    checks.append(_chk("reversed_triangle.slack", abs(rt["slack"] - expected_slack),
                       1e-12, "slack 4 - 2 sqrt(3)"))
    # distance-function axiom violations
    p, q = core.Event([0, 0, 0, 0]), core.Event([1, 1, 0, 0])
    w = core.Event([1, 0.999, 0, 0])
    q2 = core.Event([2, 0, 0, 0])
    d_null = core.minkowski_distance(p, q)
    tri = (core.minkowski_distance(p, w) + core.minkowski_distance(w, q2)
           - core.minkowski_distance(p, q2))
    checks.append(_chk("distance.null_pair", d_null, 1e-12,
                       "distinct pair at distance zero"))
    checks.append(_chk("distance.triangle_violated", not tri < 0, 1.0,
                       "chain strictly shorter than the straight segment"))
    # time-orientation transitivity on random future-timelike triples
    bad = _orientation_sweep(_stream(seed, "orientation.transitive"), config.samples)
    checks.append(_chk("orientation.transitive", float(bad), 1.0,
                       f"{config.samples} random future triples"))
    # affine identities
    pts = [core.Event(row) for row in
           _stream(seed, "affine").integers(-5, 5, (3, n)).astype(float)]
    lhs = pts[0] + (pts[1] - pts[2])
    rhs = pts[1] + (pts[0] - pts[2])
    checks.append(_chk("affine.exchange_identity",
                       float(np.abs(lhs.a - rhs.a).max()), 1e-15,
                       "exact on integer coordinates"))
    comb = core.affine_combination(pts[:2], [2.0, -1.0])
    expect = pts[0] + (pts[0] - pts[1])
    checks.append(_chk("affine.combination", float(np.abs(comb.a - expect.a).max()),
                       1e-12, "both expansion bases agree"))
    rng = _stream(seed, "frame.round_trip")
    origin = core.Event(rng.integers(-5, 5, n).astype(float))
    frame = core.AffineFrame(origin, tuple(core.MinkVector(row)
                                           for row in rng.standard_normal((n, n))
                                           + 2 * np.eye(n)))
    x = rng.standard_normal(n)
    round_trip = core.frame_coords(frame, core.frame_point(frame, x))
    checks.append(_chk("frame.round_trip", float(np.abs(round_trip - x).max()),
                       1e-12, "chart and inverse chart"))
    return checks


# ------------------------------------------------------------------ isometry

def _cartan_dieudonne_sweep(rng: np.random.Generator, trials: int) -> float:
    """Worst entry of the composed reflection factors minus the matrix over
    `trials` random Lorentz matrices, improper and non-orthochronous ones
    included, in each of dimensions 2, 3 and 4."""
    worst = []
    for dim in (2, 3, 4):
        L = isometry.random_lorentz(dim, rng, trials, orthochronous=False, proper=False)
        _, factors, _ = isometry._reflection_sweep(L)  # raises past 2 dim - 1 factors
        worst.append(_worst(isometry.compose_reflections(factors, dim) - L))
    return _worst(worst)


def suite_isometry(seed: int, config: Config) -> list[Check]:
    checks = []
    n = 4
    checks.append(_chk("is_lorentz.identity", isometry.is_lorentz(np.eye(n))[1], 1e-12, ""))
    checks.append(_chk("is_lorentz.rejects_scaling",
                       isometry.is_lorentz(np.diag([2.0, 1, 1, 1]))[0], 1.0, ""))

    v = np.array([1.0, 0.0])
    refl = isometry.reflect(v, np.array([2.0, 3.0]))
    checks.append(_chk("reflect.worked", float(np.abs(refl - [-2.0, 3.0]).max()),
                       1e-14, "time axis flip"))
    trials = max(20, config.samples // 4)
    worst = _cartan_dieudonne_sweep(_stream(seed, "cartan_dieudonne.reconstruction"), trials)
    checks.append(_chk("cartan_dieudonne.reconstruction", worst, 1e-9,
                       f"{3 * trials} random matrices, dims 2-4"))
    d = isometry.Dilation(2.0, core.Event([0, 0, 0, 0]))
    pt = core.Event([1, 1, 0, 0])
    img = isometry.dilation_apply(d, pt)
    checks.append(_chk("dilation.worked", float(np.abs(img.a - [2, 2, 0, 0]).max()),
                       1e-14, "doubles displacements from the centre"))
    rng = _stream(seed, "conformal")
    lam = float(rng.uniform(0.5, 2.0))
    f = lam * isometry.random_lorentz(n, rng)
    cf = isometry.conformal_factor(f)
    checks.append(_chk("conformal.alpha", abs(cf["alpha"] - lam * lam), 1e-9,
                       "scaled isometry pulls back to alpha g"))
    checks.append(_chk("conformal.residual", cf["residual"], 1e-9, ""))

    # every harness residual is a violation count, so the last bits of the
    # row maps' matmuls do not reach the report
    rng = _stream(seed, "relations")
    events = rng.uniform(-5, 5, (40, n))
    L = isometry.random_lorentz(n, rng)
    shift = rng.uniform(-1, 1, size=n)
    dil = float(rng.uniform(0.5, 2.0))

    def poinc_dil(P: np.ndarray) -> np.ndarray:
        return dil * (L @ P[..., None])[..., 0] + shift

    rep = isometry.relation_preservation_harness(events, poinc_dil, "gt")
    checks.append(_chk("relations.poincare_dilation", float(len(rep)), 1.0,
                       "empty violation report"))

    trev = lambda P: P * [-1.0, 1.0, 1.0, 1.0]
    rep_t = isometry.relation_preservation_harness(events, trev, "gt")
    rep_sign = isometry.relation_preservation_harness(events, trev, "interval-sign")
    checks.append(_chk("relations.time_reflection", (not rep_t) + bool(rep_sign), 1.0,
                       "breaks the oriented relation, keeps interval signs"))

    rng = _stream(seed, "unit_distance")
    pts = rng.uniform(-3, 3, (25, 3))
    dirs = rng.standard_normal((8, 3))
    Q = isometry.random_rotation(4, rng)[1:, 1:]
    move = lambda Y: (Q @ Y[..., None])[..., 0] + np.array([0.3, -0.5, 1.0])
    rep_u = isometry.unit_distance_harness(move, 1.0, pts, dirs)
    rep_s = isometry.unit_distance_harness(lambda Y: 2 * Y, 1.0, pts, dirs)
    checks.append(_chk("unit_distance.motion", float(len(rep_u)), 1.0,
                       "rigid motion keeps the sampled distance"))
    checks.append(_chk("unit_distance.scaling_caught", not rep_s, 1.0, ""))

    rng = _stream(seed, "group.closure")
    A = isometry.AffineIsometry(isometry.random_lorentz(n, rng), rng.uniform(-1, 1, n))
    B = isometry.AffineIsometry(isometry.random_lorentz(n, rng), rng.uniform(-1, 1, n))
    comp = A @ B
    checks.append(_chk("group.closure", isometry.lorentz_residual(comp.linear), 1e-9,
                       "composite stays an isometry"))
    return checks


# ---------------------------------------------------------------- kinematics

def _rapidity_sweep(rng: np.random.Generator, samples: int) -> float:
    """Worst failure of rapidity additivity over random velocity pairs."""
    v, vp = rng.uniform(-0.9, 0.9, (samples, 2)).T
    rapidity = kinematics.rapidity
    return _worst(rapidity(kinematics.compose_velocities(-1.0, v, vp))
                  - (rapidity(v) + rapidity(vp)))


def _hyperbolic_form_sweep(rng: np.random.Generator, samples: int) -> float:
    """Worst entry of S A S^-1 minus the hyperbolic boost, S = diag(c, 1),
    over random invariant speeds c and velocities below 0.9 c."""
    c = rng.uniform(0.5, 3.0, samples)
    v = rng.uniform(-0.9 * c, 0.9 * c)
    A = kinematics.boost_matrix_1d(-1.0 / (c * c), v)
    beta = v / c
    gam = 1.0 / np.sqrt(1 - beta * beta)
    S, hyper = np.zeros((2, samples, 2, 2))
    S[:, 0, 0], S[:, 1, 1] = c, 1.0
    hyper[:, 0, 0] = hyper[:, 1, 1] = gam
    hyper[:, 0, 1] = hyper[:, 1, 0] = -beta * gam
    return _worst(S @ A @ np.linalg.inv(S) - hyper)


def _reciprocity_sweep(rng: np.random.Generator, samples: int) -> float:
    """Worst entry of A(v) A(-v) minus the identity over random branches k."""
    k = rng.uniform(-2.0, 2.0, samples)
    vmax = np.full(samples, 2.0)
    hyperbolic = k < 0
    vmax[hyperbolic] = 0.9 / np.sqrt(-k[hyperbolic])
    v = rng.uniform(-vmax, vmax)
    A = kinematics.boost_matrix_1d(k, v)
    A_rev = kinematics.boost_matrix_1d(k, -v)
    return _worst(A @ A_rev - np.eye(2))


def _associativity_sweep(rng: np.random.Generator, samples: int) -> float:
    """Worst failure of associativity of Einstein composition."""
    compose = kinematics.compose_velocities
    v1, v2, v3 = rng.uniform(-0.9, 0.9, (samples, 3)).T
    return _worst(compose(-1.0, compose(-1.0, v1, v2), v3)
                  - compose(-1.0, v1, compose(-1.0, v2, v3)))


def _boost3d_sweep(rng: np.random.Generator) -> tuple[float, float]:
    """Worst Lorentz residual of boost_3d and worst entry of
    R B(v) R^T - B(D v), R the rotation D on space and the identity on time,
    over the random velocities below 0.95 c among 50, each with a random
    rotation."""
    V = rng.uniform(-0.6, 0.6, (50, 3))
    V = V[np.sqrt(np.vecdot(V, V)) < 0.95]
    R = isometry._rotations(rng.standard_normal((len(V), 3, 3)))
    B = kinematics._boost_3d_rows(V, 1.0)
    rhs = kinematics._boost_3d_rows((R[:, 1:, 1:] @ V[:, :, None])[:, :, 0], 1.0)
    return (_worst(isometry._lorentz_residuals(B, core.metric_matrix(4))),
            _worst(R @ B @ np.swapaxes(R, 1, 2) - rhs))


def suite_kinematics(seed: int, config: Config) -> list[Check]:
    checks = []
    samples = config.samples
    checks.append(_chk("a_of_v.gamma", abs(kinematics.a_of_v(-1.0, 0.6) - 1.25),
                       1e-15, "1/sqrt(1 - 0.36)"))
    checks.append(_chk("compose.einstein", abs(
        kinematics.compose_velocities(-1.0, 0.5, 0.5) - 0.8), 1e-15,
        "matches rapidity addition"))
    checks.append(_chk("compose.galilei", abs(
        kinematics.compose_velocities(0.0, 0.3, 0.4) - 0.7), 1e-15, ""))
    pole = kinematics.compose_velocities(1.0, 0.5, 2.0)
    neg = kinematics.compose_velocities(1.0, 2.0, 3.0)
    checks.append(_chk("compose.rotation_pathologies",
                       abs(neg + 1.0) + (not math.isinf(pole)), 1e-15,
                       "pole and sign flip past the pole"))
    checks.append(_chk("rapidity.additive",
                       _rapidity_sweep(_stream(seed, "rapidity.additive"), samples), 1e-12,
                       f"{samples} random pairs"))
    checks.append(_chk("boost1d.hyperbolic_form", _hyperbolic_form_sweep(
        _stream(seed, "boost1d.hyperbolic_form"), samples), 1e-12, "entrywise in rescaled time"))
    checks.append(_chk("boost1d.reciprocity", _reciprocity_sweep(
        _stream(seed, "boost1d.reciprocity"), samples), 1e-12,
        "opposite velocity inverts the matrix"))
    worst_lor, worst_eq = _boost3d_sweep(_stream(seed, "boost3d"))
    checks.append(_chk("boost3d.isometry", worst_lor, 1e-10, ""))
    checks.append(_chk("boost3d.equivariance", worst_eq, 1e-12,
                       "conjugation by rotations rotates the velocity"))
    br = kinematics.classify_branch(-4.0)
    checks.append(_chk("branch.invariant_speed", abs(br.invariant_speed - 0.5)
                       + (br.branch != "lorentz"), 1e-15, ""))
    checks.append(_chk("compose.associative", _associativity_sweep(
        _stream(seed, "compose.associative"), samples), 1e-12, ""))
    return checks


# ---------------------------------------------------------------- projective

_SEGMENTS = 25


def _lines_sweep(rng: np.random.Generator) -> tuple[float, int, int]:
    """Worst collinearity residual of the images of five points on each of
    _SEGMENTS random segments and one fixed segment under random proper
    projective maps, and the numbers of segments kept and skipped.  A
    segment with any point within EPS_SINGULAR of its map's singular
    hyperplane is skipped whole, and so the fixed one always is: its map
    has p = (-4, 0, 0), and its middle point (0.5, 0, 0) has p.x + 2 = 0."""
    k = _SEGMENTS + 1
    A = rng.standard_normal((k, 3, 3)) + 2 * np.eye(3)
    a = rng.standard_normal((k, 3))
    p = np.vstack([0.2 * rng.standard_normal((_SEGMENTS, 3)), [-4.0, 0.0, 0.0]])
    base = np.vstack([rng.uniform(-0.5, 0.5, (_SEGMENTS, 3)), [0.5, 0.0, 0.0]])
    direction = np.vstack([rng.standard_normal((_SEGMENTS, 3)), [1.0, 0.0, 0.0]])
    s = np.linspace(-0.2, 0.2, 5)[:, None]
    img, den = projective._proj_rows(A[:, None], a[:, None], p[:, None], 2.0,
                                     base[:, None] + s * direction[:, None])
    kept = img[projective._regular(den).all(axis=1)]
    return (_worst([projective.collinearity_residual(pts) for pts in kept]),
            len(kept), k - len(kept))


def _fl_samples(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Events with t uniform in [0.5, 9] and x in [-3, 3]^3."""
    tx = rng.uniform([0.5, -3, -3, -3], [9, 3, 3, 3], (samples, 4))
    return tx[:, 0], tx[:, 1:]


def _fl_sweep(rows, b: projective.FLBoost, rng: np.random.Generator,
              samples: int) -> tuple[float, int, int]:
    """Worst of the per-event residuals `rows(b, t, x)` returns with its
    mask of events kept, over `samples` random events and then the fixed
    event t = R / (c (gamma - 1)), x = 0, where b's denominator is zero, so
    that it is skipped; and the numbers of events kept and skipped."""
    t, x = _fl_samples(rng, samples)
    t = np.append(t, b.R / (b.c * (b.gamma - 1.0)))
    x = np.vstack([x, np.zeros(3)])
    res, keep = rows(b, t, x)
    used = int(np.count_nonzero(keep))
    return _worst(res[keep]), used, t.size - used


def _inverse_rows(b: projective.FLBoost, t: np.ndarray,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per event, the sup-norm round-trip error of the deformed boost
    followed by its inverse, and the mask of events at which both legs are
    regular."""
    binv = projective.FLBoost(-b.velocity, b.c, b.R)
    t1, x1, d1 = projective._fl_rows(b, t, x)
    t2, x2, d2 = projective._fl_rows(binv, t1, x1)
    return (np.maximum(np.abs(t2 - t), np.abs(x2 - x).max(axis=1)),
            projective._regular(d1) & projective._regular(d2))


def _large_scale_sweep(t: np.ndarray, x: np.ndarray) -> float:
    """Worst sup-norm deviation of the deformed boost at invariant length
    R = 1e6 from the ordinary boost, over its bound 10 (|x| + c|t|)/R."""
    R = 1e6
    b = projective.FLBoost(np.array([0.5, 0, 0]), c=1.0, R=R)
    t1, x1, den = projective._fl_rows(b, t, x)
    projective._refuse_singular(den)
    t2, x2 = projective.lorentz_boost_event(b.velocity, t, x, 1.0)
    bound = 10.0 * (np.sqrt(np.vecdot(x, x)) + np.abs(t)) / R
    return _worst(np.maximum(np.abs(t1 - t2), np.abs(x1 - x2).max(axis=1)) / bound)


def _slab_sweep(rng: np.random.Generator, samples: int) -> tuple[int, int, int]:
    """Number of instants t whose squash image at R = 5, c = 1 is outside
    the tabulated image of their slab, over `samples` instants uniform in
    [-20, 20] and then the horizon t = R/c; and the numbers of instants
    kept, those more than 1e-9 from the horizons and regular under the
    squash, and skipped."""
    R, c = 5.0, 1.0
    t = np.append(rng.uniform(-20, 20, samples), R / c)
    kept, tp = projective._slab_table(t, R, c, 1e-9)
    outside = np.choose(projective._slab_rows(kept, R, c),
                        [~(tp >= 0), ~(tp < -R / c), ~((-R / c < tp) & (tp <= 0))])
    return int(np.count_nonzero(outside)), len(kept), t.size - len(kept)


def suite_projective(seed: int, config: Config) -> list[Check]:
    checks = []
    worked = projective.ProjectiveMap.worked_example(2)
    img = projective.proj_apply(worked, np.array([0.25, 0.5]))
    checks.append(_chk("proj.worked_map", float(np.abs(img - np.array([0.25, 0.5]) / 0.75).max()),
                       1e-14, "scales by 1/(1 - first coordinate)"))
    worst, used, skipped = _lines_sweep(_stream(seed, "proj.lines_to_lines"))
    checks.append(_chk("proj.lines_to_lines", worst, 1e-10,
                       f"sampled segments stay collinear; {used} samples, {skipped} skipped"))
    demo = projective.parallelism_breaking_demo([0.0, 1.0, 2.0])
    ang = demo["pairwise_angles"]
    checks.append(_chk("proj.parallelism_broken",
                       sum(not a > 1e-6 for a in ang.values()), 1.0,
                       "image directions depend on the line offset"))
    b = projective.FLBoost(np.array([0.5, 0, 0]), c=1.0, R=10.0)
    worst, used, skipped = _fl_sweep(projective._conjugation_rows, b,
                                     _stream(seed, "fl.conjugation"), config.samples)
    checks.append(_chk("fl.conjugation", worst, 1e-10, f"{used} samples, {skipped} skipped"))
    n = min(100, config.samples)
    worst, used, skipped = _fl_sweep(_inverse_rows, b, _stream(seed, "fl.inverse"), n)
    checks.append(_chk("fl.inverse", worst, 1e-10, f"{used} samples, {skipped} skipped"))
    t, x = _fl_samples(_stream(seed, "fl.large_scale_limit"), n)
    checks.append(_chk("fl.large_scale_limit", _large_scale_sweep(t, x), 1.0,
                       "deviation over its bound 10 (|x| + c|t|)/R"))
    bad, used, skipped = _slab_sweep(_stream(seed, "fl.slab_table"), config.samples)
    checks.append(_chk("fl.slab_table", float(bad), 1.0,
                       f"squash maps the three slabs as tabulated; {used} samples, "
                       f"{skipped} skipped"))
    return checks


# -------------------------------------------------------------- simultaneity

def _radar_sweep(rng: np.random.Generator, lines: int) -> tuple[float, float]:
    """Worst g-orthogonality of the radar event and worst echo-product
    identity -(q - p)^2 = |q_plus - q| |q - q_minus| at ten chord points,
    over random timelike 3+1 lines and events off them."""
    V = rng.standard_normal((lines, 4))
    B, P = rng.uniform(-2, 2, (2, lines, 4))
    r, v, _ = simultaneity._canonical_lines(B, _future_timelike(V, 0.2), 1.0)
    off = ~simultaneity._contains_rows(r, v, P)
    r, v, P = r[off], v[off], P[off]
    qm, qp = simultaneity._echo_points(r, v, P)
    q = simultaneity._radar_events(qm, qp)
    s = np.linspace(0.05, 0.95, 10)[:, None]
    qq = (1 - s) * qm[:, None] + s * qp[:, None]
    lhs = core._inner_rows(qq - P[:, None], qq - P[:, None])
    rhs = core._norm_g_rows(qp[:, None] - qq) * core._norm_g_rows(qq - qm[:, None])
    return _worst(core._inner_rows(q - P, v)), _worst(-lhs - rhs)


def _mutual_sweep(rng: np.random.Generator, pairs: int) -> float:
    """Worst g-orthogonality of q - q' to both lines over random pairs of
    timelike 2+1 lines; parallel pairs are skipped."""
    V = rng.standard_normal((pairs, 2, 3))
    B = rng.uniform(-2, 2, (pairs, 2, 3))
    r, v, _ = simultaneity._canonical_lines(B, _future_timelike(V, 0.2), 1.0)
    skew = ~simultaneity._parallel_rows(v[:, 0], v[:, 1])
    r, v = r[skew], v[skew]
    q, qp = simultaneity._mutual_points(r[:, 0], v[:, 0], r[:, 1], v[:, 1])
    return _worst([core._inner_rows(q - qp, v[:, 0]), core._inner_rows(q - qp, v[:, 1])])


def suite_simultaneity(seed: int, config: Config) -> list[Check]:
    checks = []
    line = simultaneity.WorldLine(core.Event([0.0, 2.0]), core.MinkVector([1.0, 0.0]))
    pts = simultaneity.line_cone_intersect(line, core.Event([0.0, 0.0]))
    got = sorted(tuple(p.a) for p in pts)
    checks.append(_chk("cone.two_points", float(np.abs(
        np.asarray(got) - [(-2.0, 2.0), (2.0, 2.0)]).max()), 1e-12,
        "timelike line meets the cone twice"))
    worst_mid, worst_prod = _radar_sweep(_stream(seed, "radar"), config.samples // 4)
    checks.append(_chk("radar.orthogonal", worst_mid, 1e-10,
                       "midpoint is the orthogonal foot"))
    checks.append(_chk("radar.product_identity", worst_prod, 1e-10,
                       "holds at every interior point of the chord"))
    l1 = simultaneity.WorldLine(core.Event([0.0, 0.0]), core.MinkVector([1.0, 0.0]))
    l2 = simultaneity.WorldLine(core.Event([0.0, 1.0]), core.MinkVector([1.0, 0.5]))
    q, qp = simultaneity.mutual_simultaneity(l1, l2)
    checks.append(_chk("mutual.intersection_case",
                       _worst(np.array([q.a, qp.a]) - [-2.0, 0.0]), 1e-10,
                       "intersecting observers agree at the crossing"))
    worst = _mutual_sweep(_stream(seed, "mutual.orthogonality"), config.samples // 4)
    checks.append(_chk("mutual.orthogonality", worst, 1e-10, "skew pairs"))
    plane = simultaneity.simultaneity_hyperplane(l1, core.Event([0.0, 0.0]))
    checks.append(_chk("hyperplane.time_slice",
                       (not plane.contains(core.Event([0.0, 5.0])))
                       + plane.contains(core.Event([1.0, 5.0])), 1.0, ""))
    return checks


# -------------------------------------------------------------------- lattice

# oracle grid cells per axis by axis count, about 170 cells in 1+1 and
# 600-750 in 2+1 and 3+1; the sides fix the suite's draws and so what
# kernel.bit_identical compares
_ORACLE_SIDE = {2: 13, 3: 9, 4: 5}


def suite_lattice(seed: int, config: Config) -> list[Check]:
    checks = []
    grid = lat.IntegerGrid.centered(*config.grid)
    # production complement path against the brute-force oracle, on a grid
    # with as many axes as the suite's
    small = lat.IntegerGrid.centered(*[_ORACLE_SIDE.get(grid.dim, 3)] * grid.dim)
    rng = _stream(seed, "kernel.bit_identical")
    density = rng.uniform(0.05, 0.4, (15, 1))
    mismatches = 0
    for mask in rng.random((15, small.size)) < density:
        region = lat.Region(small, mask)
        for mode in (lat.CAUSAL, lat.CHRONOLOGICAL, lat.GALILEI):
            brute = complement_mask_bruteforce(small.coords, mask, lat.grid.mode_code(mode))
            mismatches += not np.array_equal(brute, lat.complement(region, mode).mask)
    checks.append(_chk("kernel.bit_identical", mismatches, 1.0,
                       "light-cone distances vs brute force"))
    # law sweep
    rng = _stream(seed, "laws")
    regions = [lat.random_region(grid, rng) for _ in range(config.regions)]
    sweeps = {mode: lat.law_sweep(regions, mode) for mode in (lat.CAUSAL, lat.CHRONOLOGICAL)}
    bad = sum(len(v) for sweep in sweeps.values() for v in sweep["violations"].values())
    checks.append(_chk("laws.complement_completion", float(bad), 1.0,
                       f"{config.regions} random regions, both modes"))
    comps = sweeps[lat.CAUSAL]["completions"]
    pairs = list(zip(comps, comps[1:]))[: config.regions // 2]
    dm = lat.de_morgan_check(pairs, lat.CAUSAL)
    checks.append(_chk("laws.de_morgan", float(len(dm)), 1.0,
                       f"{len(pairs)} complete pairs"))
    rep = lat.lattice_property_suite(grid, lat.CAUSAL, _stream(seed, "laws.orthocomplement"),
                                     n_regions=20)
    checks.append(_chk("laws.orthocomplement", float(len(rep["failures"])), 1.0,
                       "involution, bounds, complement meets/joins"))
    cov = rep["covering"]
    checks.append(_chk("laws.covering_fails",
                       (cov["intermediate"] is None) + (not cov["join_is_expected_diamond"]),
                       1.0, "intermediate element below the two-point join"))
    checks.append(_chk("laws.not_modular", rep["modularity"] is None, 1.0, ""))
    checks.append(_chk("laws.not_distributive", rep["distributivity"] is None, 1.0, ""))
    fig_grid = (grid if grid.dim == 2 and min(config.grid) >= 41
                else lat.IntegerGrid.centered(41, 41))
    try:
        fig = lat.fig2_counterexample(fig_grid)
    except (RuntimeError, ValueError) as exc:  # a wrong complement can break the construction
        for name in ("fig2.witness_nonempty", "fig2.chron_analogue"):
            checks.append(_chk(name, 1.0, 1.0, str(exc)))
    else:
        checks.append(_chk("fig2.witness_nonempty",
                           fig["holds"] + (fig["witness"].count == 0), 1.0,
                           f"witness has {fig['witness'].count} cells"))
        checks.append(_chk("fig2.chron_analogue", fig["chron_analogue_holds"] is not True,
                           1.0, "curated closed shapes keep the law"))
    # galilei relation
    p0 = lat.Region.from_points(grid, [(0,) * grid.dim])
    slice0 = lat.Region(grid, grid.coords[:, 0] == 0)
    gal = lat.galilei_chron_complement(p0)
    checks.append(_chk("galilei.point_complement", gal != (slice0 - p0), 1.0,
                       "time slice minus the point"))
    return checks


# ---------------------------------------------------------------------- rigid

def suite_rigid(seed: int, config: Config) -> list[Check]:
    del seed  # the rigid checks draw nothing
    checks = []
    step = config.fd_step
    bf = rigid.boost_killing_field()
    probes = np.array([[0.0, x0, 0.0, 0.0] for x0 in (0.5, 1.0, 2.0)])
    rep = rigid.reparameterization_invariance_check(
        bf, lambda x: 1.0 + 0.1 * np.sin(x[..., 1]), probes, step)
    checks.append(_chk("boost.rigid", rep["base"]["max_theta"], 1e-5, ""))
    accel_flat = rigid.decomp._split_rows(bf, probes, 2e-4)[3]
    worst = _worst(core._norm_g_rows(accel_flat) - 1.0 / probes[:, 1])
    checks.append(_chk("boost.acceleration", worst, 1e-6, "modulus c^2 over the orbit label"))
    rot_probes = [np.array([0.0, 0.3, 0.1, 0.0]), np.array([0.1, 0.2, -0.4, 0.2])]
    rchk = rigid.rotation_killing_checks(1.0, 1.0, rot_probes, step)
    checks.append(_chk("rotation.rigid", rchk["max_theta"], 1e-5, ""))
    checks.append(_chk("rotation.vorticity", not rchk["min_omega"] > 1e-3, 1.0, ""))
    checks.append(_chk("rotation.vorticity_transport", rchk["max_lie_omega"], 1e-5, ""))
    checks.append(_chk("rotation.comoving_split", rchk["max_h_split_residual"], 1e-10,
                       "projected metric matches the comoving closed form"))
    lam, tau, x0 = rigid.rindler_from_event(0.5, 2.0)
    orbit = rigid.boost_killing_flow(x0, tau)
    checks.append(_chk("wedge.round_trip", float(np.abs(orbit - [0.5, 2.0]).max()),
                       1e-10, "chart inversion"))
    gmat = rigid.wedge_chart_metric(x0, lam)
    checks.append(_chk("wedge.chart_metric", float(np.abs(
        gmat - np.diag([x0 * x0, -1.0])).max()), 1e-8,
        "squared label times flow angle, minus radial"))
    hw = rigid.hyperbolic_worldline(1.0)
    hf = rigid.herglotz_field(hw, (-1.5, 1.5))
    p = np.array([0.1, 1.2, 0.3, -0.2])
    kt = rigid.killing_test(hf, [p], step)  # its "velocity" is hf(p), from the same solve
    checks.append(_chk("worldline.reproduces_boost", float(np.abs(kt["velocity"][0] - bf(p)).max()),
                       1e-12, "constant-acceleration curve"))
    checks.append(_chk("worldline.constant_accel_killing",
                       _worst([kt["max_theta"], kt["closedness_residual"]]), 1e-5, ""))
    wig = rigid.wiggly_worldline(0.5)
    wf = rigid.herglotz_field(wig, (-0.5, 1.5))
    pw = wig.z(0.8)  # on the curve, so sigma(pw) = 0.8
    lie_fd = rigid.lie_accel(wf, pw, step)
    lie_closed = rigid.worldline._lie_accel_at(wig, pw, 0.8)
    checks.append(_chk("worldline.jerk_formula", float(np.abs(lie_fd - lie_closed).max()),
                       1e-4, "variable acceleration transports the pull"))
    curv = rigid.projected_curvature_check(1.0, 1.0, [
        np.array([0.0, rho, 0.0, 0.0]) for rho in (0.1, 0.4, 0.7)], step)
    checks.append(_chk("curvature.identity", curv["max_residual"], 1e-4,
                       "comoving curvature balances the squared vorticity"))
    checks.append(_chk("rigid.reparam_invariant", not rep["verdict_unchanged"], 1.0, ""))
    return checks


SUITES = {
    "core": suite_core,
    "isometry": suite_isometry,
    "kinematics": suite_kinematics,
    "projective": suite_projective,
    "simultaneity": suite_simultaneity,
    "lattice": suite_lattice,
    "rigid": suite_rigid,
}


def run_suite(name: str, seed: int, config: Config) -> dict:
    """Execute a suite (or 'all') and assemble the canonical report."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(name)
    checks: list[Check] = []
    for n in names:
        checks.extend(SUITES[n](seed, config))
    return {
        "schema_version": 2,
        "suite": name,
        "seed": seed,
        "config": config.as_dict(),
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
        "counts": {"total": len(checks), "failed": sum(not c.passed for c in checks)},
    }
