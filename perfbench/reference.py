"""The benchmark's own reference computations and output checkers.

Everything here is written from the definitions, independently of minklab:
an exact-integer complement that tests every set cell against every grid
cell, the reflection formula, closed-form accelerations and boosts, and a decoder for
the run-length JSON and plain PBM exports.  A checker raises `Mismatch`
when a program output disagrees with the reference or breaks a property
the method must have.
"""

from __future__ import annotations

import json
import math

import numpy as np

CAUSAL, CHRONOLOGICAL, GALILEI = "causal", "chronological", "galilei"
MODES = (CAUSAL, CHRONOLOGICAL, GALILEI)


class Mismatch(AssertionError):
    """A program output disagrees with the reference."""


def require(ok, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ------------------------------------------------------------------ lattice

def grid_coords(extents) -> np.ndarray:
    """(N, d) int64 cell coordinates in lexicographic order, time axis first."""
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in extents]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def related(coords: np.ndarray, cells: np.ndarray, mode: str) -> np.ndarray:
    """(len(cells), N) table: is grid cell j related to cells[i]?  Causal:
    dt^2 >= |dx|^2; chronological: dt^2 > |dx|^2 or the same cell; galilei:
    dt != 0 or the same cell."""
    dt = coords[None, :, 0] - cells[:, None, 0]
    dx2 = np.zeros_like(dt)
    for axis in range(1, coords.shape[1]):
        d = coords[None, :, axis] - cells[:, None, axis]
        dx2 += d * d
    same = (dt == 0) & (dx2 == 0)
    if mode == CAUSAL:
        return dt * dt >= dx2
    if mode == CHRONOLOGICAL:
        return (dt * dt > dx2) | same
    if mode == GALILEI:
        return (dt != 0) | same
    raise ValueError(f"unknown mode {mode!r}")


def complement_ref(coords: np.ndarray, mask: np.ndarray, mode: str,
                   chunk: int = 64) -> np.ndarray:
    """Cells related to no member of the set, a few set cells at a time."""
    free = np.ones(coords.shape[0], dtype=bool)
    cells = coords[np.asarray(mask, dtype=bool)]
    for start in range(0, cells.shape[0], chunk):
        free &= ~related(coords, cells[start:start + chunk], mode).any(axis=0)
    return free


def join_ref(coords, a, b, mode) -> np.ndarray:
    return complement_ref(coords, complement_ref(coords, a, mode)
                          & complement_ref(coords, b, mode), mode)


def closed_diamond_ref(coords: np.ndarray, p, q) -> np.ndarray:
    """Cells x with p <= x <= q in the causal order (p before q)."""
    p = np.asarray(p, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64)
    if p[0] > q[0]:
        p, q = q, p

    def after(lo, x):
        d = x - lo[None, :]
        return (d[:, 0] >= 0) & (d[:, 0] ** 2 >= (d[:, 1:] ** 2).sum(axis=1))

    d2 = q[None, :] - coords
    before_q = (d2[:, 0] >= 0) & (d2[:, 0] ** 2 >= (d2[:, 1:] ** 2).sum(axis=1))
    return after(p, coords) & before_q


def check_complement(coords, mask, mode, out) -> None:
    """The program's complement mask equals the reference, bit for bit."""
    ref = complement_ref(coords, mask, mode)
    out = np.asarray(out, dtype=bool)
    require(out.shape == ref.shape, f"{mode} complement has shape {out.shape}")
    bad = int((ref != out).sum())
    require(bad == 0, f"{mode} complement differs from the reference in {bad} cells")


def check_complement_laws(s, s1, s2, s3) -> None:
    """S' is disjoint from S, S is inside S'', and S''' = S'."""
    require(not (s & s1).any(), "complement meets its set")
    require(not (s & ~s2).any(), "set not inside its completion")
    require(np.array_equal(s3, s1), "triple complement differs from the complement")


def check_antitone(small, big, small_c, big_c) -> None:
    """small <= big implies big' <= small'."""
    require(not (small & ~big).any(), "antitone inputs are not nested")
    require(not (big_c & ~small_c).any(), "complement is not antitone")


# -------------------------------------------------------- lattice file I/O

def decode_region_json(text: str):
    """(extents, flat mask) from the run-length JSON region format."""
    doc = json.loads(text)
    require(doc["schema_version"] == 1, "unexpected region schema_version")
    extents = [tuple(e) for e in doc["extents"]]
    require(doc["dim"] == len(extents), "dim does not match extents")
    shape = tuple(hi - lo + 1 for lo, hi in extents)
    nd = np.zeros(shape, dtype=bool)
    last_lo = extents[-1][0]
    for row in doc["rows"]:
        lead, runs = row[0], row[1:]
        idx = tuple(c - lo for c, (lo, _) in zip(lead, extents[:-1]))
        for start, length in runs:
            require(length > 0, "empty run in region file")
            nd[idx + (slice(start - last_lo, start - last_lo + length),)] = True
    return extents, nd.reshape(-1)


def decode_pbm(text: str) -> np.ndarray:
    """(height, width) bool bitmap from a plain P1 PBM."""
    tokens = text.split()
    require(tokens[0] == "P1", "not a plain PBM")
    width, height = int(tokens[1]), int(tokens[2])
    bits = tokens[3:]
    require(len(bits) == width * height, "PBM pixel count mismatch")
    return np.array([b == "1" for b in bits], dtype=bool).reshape(height, width)


# ------------------------------------------------------------------ geometry

def metric(n: int) -> np.ndarray:
    return np.diag([1.0] + [-1.0] * (n - 1))


def mink(v, w) -> float:
    return float(v[0] * w[0] - np.dot(v[1:], w[1:]))


def reflection_ref(axis) -> np.ndarray:
    """x -> x - 2 v (v.x)/(v.v) as a matrix."""
    v = np.asarray(axis, dtype=float)
    return np.eye(v.size) - (2.0 / mink(v, v)) * np.outer(v, metric(v.size) @ v)


def random_lorentz_ref(n: int, rng: np.random.Generator) -> np.ndarray:
    """Rotation . boost . rotation, with random parity and time reversal."""
    def rotation():
        q, r = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
        q = q @ np.diag(np.sign(np.diag(r)))
        out = np.eye(n)
        out[1:, 1:] = q
        return out

    rho = float(rng.uniform(-2.0, 2.0))
    boost = np.eye(n)
    boost[0, 0] = boost[1, 1] = math.cosh(rho)
    boost[0, 1] = boost[1, 0] = -math.sinh(rho)
    flips = np.ones(n)
    if rng.random() < 0.5:
        flips[0] = -1.0
    if rng.random() < 0.5:
        flips[-1] = -1.0
    return rotation() @ boost @ rotation() @ np.diag(flips)


def check_reflections(L: np.ndarray, axes) -> None:
    """At most 2n-1 factors whose product, in order, rebuilds L."""
    n = L.shape[0]
    require(len(axes) <= 2 * n - 1, f"{len(axes)} reflections for n = {n}")
    prod = np.eye(n)
    for a in axes:
        prod = prod @ reflection_ref(a)
    err = float(np.abs(prod - L).max())
    require(err < 1e-9, f"reflections rebuild the matrix only to {err:.3e}")


def boost_accel_ref(event) -> np.ndarray:
    """Acceleration vector of the boost flow, (t, x)/(x^2 - t^2), c = 1;
    its modulus is c^2/sqrt(x^2 - t^2)."""
    t, x = float(event[0]), float(event[1])
    out = np.zeros(len(event))
    out[0], out[1] = t, x
    return out / (x * x - t * t)


def rotation_accel_ref(event, kappa: float, c: float = 1.0) -> np.ndarray:
    """Centripetal acceleration -kappa^2 gamma^2 (0, x, y, 0) of rigid rotation."""
    x, y = float(event[1]), float(event[2])
    g2 = c * c / (c * c - kappa * kappa * (x * x + y * y))
    return np.array([0.0, -kappa * kappa * g2 * x, -kappa * kappa * g2 * y, 0.0])


def check_accel(accel, expected, tol: float, what: str) -> None:
    err = float(np.abs(np.asarray(accel) - expected).max())
    require(err < tol, f"{what} acceleration off by {err:.3e} (tol {tol:.0e})")


def check_fd_order(err_h: float, err_half: float, what: str) -> None:
    """Central differences: halving the step divides the error by about 4."""
    require(err_half > 0, f"{what}: zero error at half step")
    ratio = err_h / err_half
    require(3.6 < ratio < 4.4, f"{what}: error ratio {ratio:.3f} on halving the step")


def boost3d_ref(v) -> np.ndarray:
    """Pure boost on (t, x) with c = 1 in closed form."""
    v = np.asarray(v, dtype=float)
    b2 = float(v @ v)
    g = 1.0 / math.sqrt(1.0 - b2)
    out = np.eye(4)
    out[0, 0] = g
    out[0, 1:] = out[1:, 0] = -g * v
    out[1:, 1:] += (g - 1.0) * np.outer(v, v) / b2
    return out


def radar_foot_ref(base, direction, p) -> np.ndarray:
    """Point of the line base + s v whose separation from p is orthogonal to v."""
    base, v, p = (np.asarray(a, dtype=float) for a in (base, direction, p))
    return base + v * (mink(p - base, v) / mink(v, v))


def classify_ref(v) -> str:
    q = mink(v, v)
    if not np.any(v):
        return "zero"
    if abs(q) <= 1e-10 * float(np.dot(v, v)):
        return "lightlike"
    return "timelike" if q > 0 else "spacelike"


# ------------------------------------------------------------------- report

def check_report(doc: dict) -> tuple[int, int]:
    """Check a suite report; returns (checks, checks that failed).

    Every check's verdict must be residual < tolerance.  A check that
    passes with residual 0 against tolerance 0 breaks that in the same way
    on every seed (`fl.large_scale_limit` clips its residual at 0), so it
    is counted as a failed check rather than an incorrect report; any
    other disagreement raises."""
    checks = doc["checks"]
    require(checks, "report has no checks")
    failed = 0
    for c in checks:
        if c["passed"] == (c["residual"] < c["tolerance"]):
            continue
        if c["passed"] and c["residual"] == 0.0 == c["tolerance"]:
            failed += 1
            continue
        raise Mismatch(f"check {c['name']} passed={c['passed']} with residual "
                       f"{c['residual']!r} and tolerance {c['tolerance']!r}")
    require(doc["passed"] is True, "report verdict is not a pass")
    require(doc["counts"]["total"] == len(checks), "report count mismatch")
    require(doc["counts"]["failed"] == 0, "report counts failed checks")
    return len(checks), failed
