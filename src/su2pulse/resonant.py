"""Time-optimal synthesis at zero detuning.

Closed forms for z-axis and transverse-plane targets, and a 1-d solve for
everything else.

The solve exploits the circle geometry: fixing the initial azimuth phi0
pins p2 = sin(phi* - phi0) / tan(theta*/2) so the projected circle passes
through (theta*, phi*); the arrival time follows analytically from the
circle; the one remaining scalar equation matches the accumulated psi to
psi* mod 4pi and is monotone in phi0, so a bracketing sweep plus bisection
finds the unique root. The bisection (`_bisect`) and the mod-4pi root scan
(`_roots_mod_4pi`) defined here are the only root finders of the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# propagate_law is not called here but stays importable as
# resonant.propagate_law: perfbench/tracer.py wraps that binding
from .dynamics import (  # noqa: F401
    ExtremalLaw,
    _circle_azimuth_offset,
    propagate_law,
    propagate_law_exact,
)
from .errors import DomainError, NoConvergence
from .su2 import (
    FOUR_PI,
    POLAR_THETA_TOL,
    TWO_PI,
    EulerTarget,
    UnitGate,
    canonical_euler,
    euler_from_gate,
    gate_distance,
    gate_from_euler,
    wrap_4pi,
    wrap_pi,
    xyrot_gate,
)

_PSI_SOLVE_TOL = 1e-10
_MAX_BISECT = 200


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized law, its target, the propagation residual (Frobenius
    distance between the law's exact endpoint, from propagate_law_exact,
    and the target matrix), and the circle angle swept at arrival."""

    law: ExtremalLaw
    target: EulerTarget
    residual: float
    eta_final: float


def target_gate(e: EulerTarget) -> UnitGate:
    return gate_from_euler(e.psi, e.theta, e.phi)


def _verify(law: ExtremalLaw, e: EulerTarget, verify: bool) -> float:
    if not verify:
        return math.nan
    return gate_distance(propagate_law_exact(law), target_gate(e))


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

def z_rotation_parameters(lambda_star: float) -> tuple[float, float]:
    """(p2, tf) generating exp(i lambda sz / 2), |lambda| <= 2pi.

    p2 = sgn(lambda) * cot(acos(1 - |lambda|/2pi)); the projected trajectory
    is one full circle through the North Pole and tf = half its length,
    tf = sqrt(4 pi |lambda| - lambda^2) / 2.
    """
    if abs(lambda_star) > TWO_PI + 1e-12:
        raise DomainError(f"|lambda*| = {abs(lambda_star):.12g} exceeds 2pi")
    lam = abs(lambda_star)
    if lam == 0.0:
        return 0.0, 0.0
    tf = 0.5 * math.sqrt(4.0 * math.pi * lam - lam * lam)
    cos_bar = 1.0 - lam / TWO_PI
    sin_bar = math.sqrt(max(0.0, 1.0 - cos_bar * cos_bar))
    p2 = math.copysign(cos_bar / sin_bar, lambda_star) if sin_bar > 0.0 else 0.0
    return p2, tf


def synthesize_z_rotation(lambda_star: float, phi0: float = 0.0,
                          verify: bool = True) -> SynthesisResult:
    """Optimal law for exp(i lambda* sz/2); phi0 is free and does not affect
    the gate or the duration."""
    p2, tf = z_rotation_parameters(lambda_star)
    law = ExtremalLaw(phi0=wrap_pi(phi0), p2=p2, delta=0.0, tf=tf)
    e = EulerTarget(wrap_4pi(lambda_star), 0.0, 0.0)
    eta = math.copysign(TWO_PI, lambda_star) if tf > 0.0 else 0.0
    return SynthesisResult(law, e, _verify(law, e, verify), eta)


def synthesize_xy_rotation(a: float, b: float, verify: bool = True) -> SynthesisResult:
    """Optimal law for a rotation of b about the transverse axis at azimuth a:
    p2 = 0, phi0 = a, tf = b/2 (a great-circle arc)."""
    if not (-math.pi <= a <= math.pi):
        raise DomainError(f"a = {a:.12g} outside [-pi, pi]")
    if not (0.0 < b < TWO_PI):
        raise DomainError(f"b = {b:.12g} outside (0, 2pi)")
    law = ExtremalLaw(phi0=wrap_pi(a), p2=0.0, delta=0.0, tf=b / 2.0)
    # canonical Euler form of the target (b > pi folds through the quaternion)
    e = euler_from_gate(xyrot_gate(a, b))
    return SynthesisResult(law, e, _verify(law, e, verify), b)


# ---------------------------------------------------------------------------
# general targets: label map and 1-d solve
# ---------------------------------------------------------------------------

def label_for_phi0(phi0: float, theta_star: float, phi_star: float
                   ) -> tuple[float, float, float, float]:
    """(label, tf, p2, eta_f) for the circle from azimuth phi0 through
    (theta*, phi*), arriving the first time the azimuth matches.

    The label is the accumulated psi at arrival; as phi0 runs over
    [phi* - pi, phi* + pi] it sweeps [-phi* + 2pi, -phi* - 2pi]
    monotonically, covering every SU(2) element over (theta*, phi*) once.
    """
    if theta_star >= math.pi - POLAR_THETA_TOL:
        # South Pole targets: every meridian great circle arrives at eta = pi
        # in time pi/2; the azimuth there is a gauge and the label reduces to
        # psi - phi = -2 phi0.
        return -2.0 * phi0 + phi_star, math.pi / 2.0, 0.0, math.pi
    s = math.sin(phi_star - phi0)
    p2 = s / math.tan(theta_star / 2.0)
    tb = math.atan2(1.0, p2)
    sb, cb = math.sin(tb), math.cos(tb)
    # cancellation-free form of 1 - (1 - cos theta*)/sin^2(theta_bar):
    # exactly -1 at tangency (|s| = 1)
    arg = math.cos(theta_star) - 2.0 * s * s * math.cos(theta_star / 2.0) ** 2
    ea = math.acos(min(1.0, max(-1.0, arg)))
    d_a = abs(wrap_pi(phi0 + math.pi / 2.0 + _circle_azimuth_offset(ea, cb) - phi_star))
    d_b = abs(wrap_pi(phi0 + math.pi / 2.0 + _circle_azimuth_offset(TWO_PI - ea, cb) - phi_star))
    if min(d_a, d_b) < 1e-6 or min(d_a, d_b) < 0.25 * max(d_a, d_b):
        best_eta = ea if d_a <= d_b else TWO_PI - ea
    elif abs(ea - math.pi) < 0.05:
        # tangency: the crossing branches coincide and the azimuth test
        # loses meaning; either branch is the grazing point
        best_eta = ea
    else:
        raise NoConvergence(
            f"no circle branch arrives at phi* (miss {min(d_a, d_b):.3e}); "
            f"phi0 = {phi0:.6g}, theta* = {theta_star:.6g}"
        )
    tf = best_eta * sb / 2.0
    label = -2.0 * phi0 + phi_star - 2.0 * p2 * tf
    return label, tf, p2, best_eta


def _bisect(g, a: float, b: float, ga: float, gb: float, tol: float,
            slack: float = 0.0) -> float:
    """Root of g on [a, b] by bisection on the sign of g.

    ga = g(a) and gb = g(b) are passed in because callers often know them.
    An end with |g| <= tol is returned as it is; otherwise g must change
    sign over [a, b] (each end may miss by up to `slack`), else
    NoConvergence. The loop stops at |g(mid)| <= tol or a bracket narrower
    than 1e-15.
    """
    if abs(ga) <= tol:
        return a
    if abs(gb) <= tol:
        return b
    if min(ga, gb) > slack or max(ga, gb) < -slack:
        raise NoConvergence(f"no sign change on [{a:.9g}, {b:.9g}]: "
                            f"g = {ga:.3e}, {gb:.3e}")
    lo, hi = (a, b) if ga < gb else (b, a)     # g < 0 at lo, g > 0 at hi
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) < 1e-15:
            return mid
        gm = g(mid)
        if gm > tol:
            hi = mid
        elif gm < -tol:
            lo = mid
        else:
            return mid
    raise NoConvergence(f"bisection did not reach {tol:g} in {_MAX_BISECT} steps")


def _roots_mod_4pi(f, xs, fs, target: float, tol: float) -> list[float]:
    """Every x in [xs[0], xs[-1]] where f(x) = target mod 4pi.

    fs holds f on the grid xs. Grid points where the wrapped mismatch is
    exactly zero are roots as they are; a sign change across a grid step
    is refined by `_bisect`, unless the step is pi or more: that is a
    mod-4pi wrap jump, not a root.
    """
    m = (np.asarray(fs, dtype=float) - target + TWO_PI) % FOUR_PI - TWO_PI
    ma, mb = m[:-1], m[1:]
    hits = np.flatnonzero((ma == 0.0) | ((ma * mb < 0.0) & (np.abs(ma - mb) < math.pi)))

    def g(x):
        return wrap_4pi(f(x) - target)

    return [float(xs[i]) if ma[i] == 0.0 else
            _bisect(g, float(xs[i]), float(xs[i + 1]), float(ma[i]), float(mb[i]), tol)
            for i in hits]


def _solve_label(target_label: float, theta_star: float, phi_star: float,
                 tol: float = _PSI_SOLVE_TOL) -> float:
    """phi0 with label(phi0) = target_label; the label map falls from
    -phi* + 2pi at phi0 = phi* - pi to -phi* - 2pi at phi0 = phi* + pi."""
    def g(phi0):
        return label_for_phi0(phi0, theta_star, phi_star)[0] - target_label

    return _bisect(g, phi_star - math.pi, phi_star + math.pi,
                   -phi_star + TWO_PI - target_label, -phi_star - TWO_PI - target_label, tol)


def synthesize_general(target: EulerTarget | UnitGate, verify: bool = True) -> SynthesisResult:
    """Time-optimal law for an arbitrary SU(2) target.

    Pure z-rotations delegate to the closed form. Otherwise the unique
    phi0 in [-pi, pi) is found such that the law's accumulated psi matches
    psi* mod 4pi (the SU(2) double cover), refined to 1e-10.
    """
    e = canonical_euler(target)
    if e.theta < POLAR_THETA_TOL:
        return synthesize_z_rotation(e.psi, verify=verify)
    # shift psi* by the unique multiple of 4pi into the reachable label window
    v = e.psi + FOUR_PI * round((-e.phi - e.psi) / FOUR_PI)
    phi0 = _solve_label(v, e.theta, e.phi)
    label, tf, p2, eta = label_for_phi0(phi0, e.theta, e.phi)
    law = ExtremalLaw(phi0=wrap_pi(phi0), p2=p2, delta=0.0, tf=tf)
    return SynthesisResult(law, e, _verify(law, e, verify), eta)


def synthesize(target, delta: float = 0.0, verify: bool = True) -> SynthesisResult:
    """Dispatch on a ParsedTarget / UnitGate / EulerTarget; delta != 0 routes
    to the detuned solver."""
    from .su2 import ParsedTarget

    if delta != 0.0:
        from .detuned import synthesize_detuned

        if isinstance(target, ParsedTarget):
            target = target.gate
        return synthesize_detuned(target, delta, verify=verify)
    if isinstance(target, ParsedTarget):
        if target.kind == "zrot":
            return synthesize_z_rotation(target.zrot, verify=verify)
        if target.kind == "xyrot":
            a, b = target.xyrot
            if b == 0.0:
                return synthesize_z_rotation(0.0, verify=verify)
            return synthesize_xy_rotation(a, b, verify=verify)
        target = target.gate
    return synthesize_general(target, verify=verify)
