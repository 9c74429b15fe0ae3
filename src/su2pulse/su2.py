"""SU(2) gate representations and conversions.

A gate is stored as a unit quaternion (x1, x2, x3, x4) over the basis
(1, i*sigma_z, i*sigma_y, i*sigma_x), so the 2x2 matrix view is

    [[x1 + i x2,  x3 + i x4],
     [-x3 + i x4, x1 - i x2]].

Note the component ordering: x2 pairs with the z axis, x3 with y, x4
with x. The quaternion is the only chart without coordinate
singularities, so it is the canonical internal form; matrix, Hopf and
zyz Euler forms are views derived from it, and axis-angle is an input form.

Angle domains: Euler psi in [-2pi, 2pi), theta in [0, pi], phi in
[-pi, pi); Hopf theta1 in [0, pi/2]. Pure z-rotations are canonicalized
to (lambda, 0, 0); theta = pi gates to (psi - phi, pi, 0).
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonUnitary, NonUnitDeterminant

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# below this sin(theta1) (or cos(theta1)) the conjugate Hopf angle is a gauge
GAUGE_TOL = 5e-9
# the one polar band: gates with theta (or pi - theta) below this are treated
# as polar, i.e. as pure z-rotations (or theta = pi gates)
POLAR_THETA_TOL = 2.0 * GAUGE_TOL


def wrap_pi(x: float) -> float:
    """Reduce an angle into [-pi, pi)."""
    return (x + math.pi) % TWO_PI - math.pi


def wrap_4pi(x: float) -> float:
    """Reduce a spinor angle into [-2pi, 2pi)."""
    return (x + TWO_PI) % FOUR_PI - TWO_PI


@dataclass(frozen=True)
class UnitGate:
    """An SU(2) element as a unit quaternion; renormalized on construction."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for name, v in zip(("x1", "x2", "x3", "x4"), _unit_quat(self.quat)):
            object.__setattr__(self, name, v)

    @property
    def quat(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)


@dataclass(frozen=True)
class HopfCoords:
    """Hopf angles (theta1, theta2, theta3).

    At theta1 = 0 the angle theta3 is a free gauge (canonicalized to 0);
    at theta1 = pi/2 the same holds for theta2. `gauge` flags either case.
    """

    theta1: float
    theta2: float
    theta3: float
    gauge: bool = False


@dataclass(frozen=True)
class EulerTarget:
    """zyz Euler triple: U = exp(i psi sz/2) exp(i theta sy/2) exp(i phi sz/2)."""

    psi: float
    theta: float
    phi: float


# tuple kernels, the one copy of each formula below: the gate classes and
# functions wrap them, and sweeps call them without building objects
def _unit_quat(q: tuple) -> tuple:
    """q rescaled to unit norm (unchanged within 1e-15 of it)."""
    n = math.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + q[3] ** 2)
    if not (n > 0.0) or not math.isfinite(n):
        raise DomainError("quaternion has zero or non-finite norm")
    return q if abs(n - 1.0) <= 1e-15 else tuple(x / n for x in q)


def _axis_angle_quats(alphas, n) -> list:
    """Quaternions of the rotations by each alpha about the axis n, whose
    norm is checked once."""
    nx, ny, nz = float(n[0]), float(n[1]), float(n[2])
    nn = math.sqrt(nx * nx + ny * ny + nz * nz)
    if abs(nn - 1.0) > 1e-9:
        raise DomainError(f"axis norm {nn:.12g} != 1")
    out = []
    for alpha in alphas:
        c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
        out.append((c, s * nz / nn, s * ny / nn, s * nx / nn))
    return out


def _hopf_quat(q: tuple) -> tuple:
    """(theta1, theta2, theta3, gauge) of a unit quaternion."""
    m12, m34 = math.hypot(q[0], q[1]), math.hypot(q[2], q[3])
    theta1 = math.atan2(m34, m12)
    if m34 < GAUGE_TOL:
        return theta1, math.atan2(q[1], q[0]), 0.0, True
    if m12 < GAUGE_TOL:
        return theta1, 0.0, math.atan2(q[3], q[2]), True
    return theta1, math.atan2(q[1], q[0]), math.atan2(q[3], q[2]), False


def _euler_quat(q: tuple) -> tuple[float, float, float]:
    """Canonical (psi, theta, phi) of a unit quaternion, as euler_from_gate."""
    theta1, theta2, theta3, _ = _hopf_quat(q)
    psi, theta, phi = theta2 + theta3, 2.0 * theta1, theta2 - theta3
    if phi >= math.pi:
        phi, psi = phi - TWO_PI, psi - TWO_PI
    elif phi < -math.pi:
        phi, psi = phi + TWO_PI, psi + TWO_PI
    if theta < POLAR_THETA_TOL:
        return wrap_4pi(psi + phi), 0.0, 0.0
    if theta > math.pi - POLAR_THETA_TOL:
        return wrap_4pi(psi - phi), math.pi, 0.0
    return wrap_4pi(psi), theta, phi


identity_gate = UnitGate(1.0, 0.0, 0.0, 0.0)


def matrix_from_gate(g: UnitGate) -> np.ndarray:
    return np.array(
        [
            [g.x1 + 1j * g.x2, g.x3 + 1j * g.x4],
            [-g.x3 + 1j * g.x4, g.x1 - 1j * g.x2],
        ],
        dtype=complex,
    )


def gate_from_matrix(m) -> UnitGate:
    """Convert a 2x2 SU(2) matrix to a UnitGate.

    Raises NonUnitary if m is not unitary within 1e-9, and
    NonUnitDeterminant if det(m) differs from 1 by more than 1e-9
    (a U(2)-but-not-SU(2) input; the caller must strip the global
    phase explicitly).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
    herm = m.conj().T @ m - np.eye(2)
    if np.linalg.norm(herm) > 1e-9:
        raise NonUnitary(f"matrix is not unitary (||m^H m - I|| = {np.linalg.norm(herm):.3e})")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise NonUnitDeterminant(f"det(m) = {det:.12g}, not 1; not an SU(2) element")
    g = UnitGate(
        0.5 * (m[0, 0] + m[1, 1]).real,
        0.5 * (m[0, 0] - m[1, 1]).imag,
        0.5 * (m[0, 1] - m[1, 0]).real,
        0.5 * (m[0, 1] + m[1, 0]).imag,
    )
    if np.abs(matrix_from_gate(g) - m).max() > 1e-10:
        raise NonUnitary("matrix does not reduce to the quaternion form")
    return g


def gate_from_axis_angle(alpha: float, n) -> UnitGate:
    """Gate for a rotation of alpha in [0, 4pi) about unit axis n."""
    return UnitGate(*_axis_angle_quats((alpha,), n)[0])


def hopf_from_gate(g: UnitGate) -> HopfCoords:
    return HopfCoords(*_hopf_quat(g.quat))


def gate_from_hopf(h: HopfCoords | tuple[float, float, float]) -> UnitGate:
    t1, t2, t3 = (h.theta1, h.theta2, h.theta3) if isinstance(h, HopfCoords) else h
    c1, s1 = math.cos(t1), math.sin(t1)
    return UnitGate(c1 * math.cos(t2), c1 * math.sin(t2), s1 * math.cos(t3), s1 * math.sin(t3))


def gate_from_euler(psi: float, theta: float, phi: float) -> UnitGate:
    """U = exp(i psi sz/2) exp(i theta sy/2) exp(i phi sz/2) as a quaternion."""
    return gate_from_hopf((theta / 2.0, (psi + phi) / 2.0, (psi - phi) / 2.0))


def euler_from_gate(g: UnitGate) -> EulerTarget:
    """Canonical Euler triple: psi in [-2pi, 2pi), theta in [0, pi], phi in [-pi, pi).

    theta = 0 gates come out as (lambda, 0, 0) and theta = pi gates as
    (psi - phi, pi, 0); both polar forms fix the azimuthal gauge.
    """
    return EulerTarget(*_euler_quat(g.quat))


def canonical_euler(target: EulerTarget | UnitGate) -> EulerTarget:
    """Canonical Euler triple of a gate, or of a possibly non-canonical triple."""
    gate = target if isinstance(target, UnitGate) else \
        gate_from_euler(target.psi, target.theta, target.phi)
    return euler_from_gate(gate)


def euler_target(psi: float, theta: float, phi: float) -> EulerTarget:
    """Canonicalized EulerTarget; DomainError if theta is outside [0, pi]."""
    if not (-1e-12 <= theta <= math.pi + 1e-12):
        raise DomainError(f"theta = {theta:.12g} outside [0, pi]")
    return euler_from_gate(gate_from_euler(psi, min(max(theta, 0.0), math.pi), phi))


def negate_gate(g: UnitGate) -> UnitGate:
    """The opposite SU(2) element -U (same SO(3) rotation)."""
    return UnitGate(-g.x1, -g.x2, -g.x3, -g.x4)


def negated_psi(psi_star: float) -> float:
    """Spin label of -U for the same (theta*, phi*): psi* in [-2pi, 2pi)
    shifted by 2pi within that window, by one subtraction, exact for
    |psi*| >= pi (a sum that rounds up to 2pi is the window's -2pi).

    The canonical Euler triple of -U is U's with this psi, and the same
    theta* and phi*; deriving it so canonicalizes the rotation once."""
    v = psi_star - TWO_PI if psi_star >= 0.0 else psi_star + TWO_PI
    return -TWO_PI if v == TWO_PI else v


def gate_distance(a: UnitGate, b: UnitGate) -> float:
    """Frobenius norm of the matrix difference (phase-sensitive on purpose)."""
    d2 = (a.x1 - b.x1) ** 2 + (a.x2 - b.x2) ** 2 + (a.x3 - b.x3) ** 2 + (a.x4 - b.x4) ** 2
    return math.sqrt(2.0 * d2)


def random_gate(rng: np.random.Generator) -> UnitGate:
    """Haar-random SU(2) element (normalized 4d Gaussian)."""
    v = rng.normal(size=4)
    return UnitGate(v[0], v[1], v[2], v[3])


def zrot_gate(lam: float) -> UnitGate:
    """exp(i lam sigma_z / 2) for lam in [-2pi, 2pi]."""
    if abs(lam) > TWO_PI + 1e-12:
        raise DomainError(f"|lambda| = {abs(lam):.12g} exceeds 2pi")
    return UnitGate(math.cos(lam / 2.0), math.sin(lam / 2.0), 0.0, 0.0)


def xyrot_gate(a: float, b: float) -> UnitGate:
    """exp(-i a sz/2) exp(i b sy/2) exp(i a sz/2): rotation of b about the
    transverse axis at azimuth a. b in [0, 2pi) is the rotation magnitude;
    b > pi folds into the canonical Euler domain via the quaternion."""
    return gate_from_hopf((b / 2.0, 0.0, -a))


# ---------------------------------------------------------------------------
# CLI target grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedTarget:
    """A parsed `--target` string.

    kind is one of 'matrix', 'quat', 'euler', 'axis', 'zrot', 'xyrot'; the
    zrot/xyrot payloads keep the raw closed-form parameters so synthesis can
    use them directly.
    """

    kind: str
    gate: UnitGate
    zrot: float | None = None
    xyrot: tuple[float, float] | None = None


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) != n:
        raise DomainError(f"{what}: expected {n} comma-separated values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise DomainError(f"{what}: {exc}") from exc


def parse_target(spec: str) -> ParsedTarget:
    """Parse a gate spec string.

    Grammar: `matrix:[[re+imj,...],...]` (row-major), `quat:x1,x2,x3,x4`,
    `euler:psi,theta,phi`, `axis:alpha@nx,ny,nz`, `zrot:lambda`,
    `xyrot:a,b`. All angles in radians.
    """
    spec = spec.strip()
    kind, sep, body = spec.partition(":")
    if not sep:
        raise DomainError(f"target spec {spec!r} has no 'kind:' prefix")
    kind = kind.strip().lower()
    body = body.strip()
    if kind == "quat":
        vals = _parse_floats(body, 4, "quat")
        return ParsedTarget("quat", UnitGate(*vals))
    if kind == "euler":
        psi, theta, phi = _parse_floats(body, 3, "euler")
        if not (0.0 <= theta <= math.pi):
            raise DomainError(f"euler: theta = {theta:.12g} outside [0, pi]")
        return ParsedTarget("euler", gate_from_euler(psi, theta, phi))
    if kind == "zrot":
        (lam,) = _parse_floats(body, 1, "zrot")
        return ParsedTarget("zrot", zrot_gate(lam), zrot=lam)
    if kind == "xyrot":
        a, b = _parse_floats(body, 2, "xyrot")
        if not (-math.pi <= a <= math.pi):
            raise DomainError(f"xyrot: a = {a:.12g} outside [-pi, pi]")
        if not (0.0 <= b < TWO_PI):
            raise DomainError(f"xyrot: b = {b:.12g} outside [0, 2pi)")
        return ParsedTarget("xyrot", xyrot_gate(a, b), xyrot=(a, b))
    if kind == "axis":
        head, sep2, tail = body.partition("@")
        if not sep2:
            raise DomainError("axis: expected 'alpha@nx,ny,nz'")
        try:
            alpha = float(head)
        except ValueError as exc:
            raise DomainError(f"axis: bad angle {head!r}") from exc
        if not (0.0 <= alpha < FOUR_PI):
            raise DomainError(f"axis: alpha = {alpha:.12g} outside [0, 4pi)")
        n = _parse_floats(tail, 3, "axis")
        return ParsedTarget("axis", gate_from_axis_angle(alpha, n))
    if kind == "matrix":
        return ParsedTarget("matrix", gate_from_matrix(_parse_matrix(body)))
    raise DomainError(f"unknown target kind {kind!r}")


def _parse_matrix(body: str) -> np.ndarray:
    """Parse `[[a,b],[c,d]]` with complex entries like `0.5-0.5j`."""
    cleaned = re.sub(r"\s+", "", body)
    if not (cleaned.startswith("[[") and cleaned.endswith("]]")):
        raise DomainError("matrix: expected [[...],[...]]")
    rows = cleaned[2:-2].split("],[")
    if len(rows) != 2:
        raise DomainError(f"matrix: expected 2 rows, got {len(rows)}")
    out = np.zeros((2, 2), dtype=complex)
    for i, row in enumerate(rows):
        entries = row.split(",")
        if len(entries) != 2:
            raise DomainError(f"matrix: row {i} has {len(entries)} entries, expected 2")
        for j, ent in enumerate(entries):
            ent = ent.strip().strip('"').strip("'")
            try:
                out[i, j] = complex(ent.replace("i", "j"))
            except ValueError as exc:
                raise DomainError(f"matrix: bad entry {ent!r}") from exc
    return out


def target_to_json(e: EulerTarget) -> dict:
    return {"psi": e.psi, "theta": e.theta, "phi": e.phi}


def target_from_json(d: dict) -> EulerTarget:
    try:
        return euler_target(float(d["psi"]), float(d["theta"]), float(d["phi"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad target record: {json.dumps(d)[:80]}") from exc
