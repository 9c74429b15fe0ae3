"""Time-optimal synthesis at zero detuning.

Closed forms for z-axis and transverse-plane targets, and a 1-d solve for
everything else.

The solve exploits the circle geometry: fixing the initial azimuth phi0
pins p2 = sin(phi* - phi0) / tan(theta*/2) so the projected circle passes
through (theta*, phi*); the arrival time follows analytically from the
circle. The circle crosses latitude theta* at eta = ea and 2pi - ea, and
the two crossings are mirror images about the circle's axis meridian
phi0 + pi/2, so the first one (eta = ea <= pi) is the one on phi0's side
of it: the arrival is at ea if cos(phi* - phi0) >= 0, else at 2pi - ea.
At tangency (|sin(phi* - phi0)| = 1) ea = pi and the two coincide.
The one remaining scalar equation matches the accumulated psi to
psi* mod 4pi and is monotone in phi0, so a bracketing sweep plus bisection
finds the unique root. `_bisect` and its array form `_bisect_many` here
are the package's only root finders.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# propagate_law is not called here but stays importable as
# resonant.propagate_law: perfbench/tracer.py wraps that binding
from .dynamics import (  # noqa: F401
    ExtremalLaw,
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
_HALF_PI, _THREE_HALF_PI = math.pi / 2.0, 1.5 * math.pi
_MAX_BISECT = 200
# bound on |f| from the array label map against label_for_phi0, per unit
# of 1 + 2|delta|; the largest seen over the 1e5 seeded draws of
# tests/test_rootfind.py (|delta| <= 50) is 2.3e-15, and the test holds it
# to half of 1e-14, which few midpoints fall inside
_ARRAY_ROUNDOFF = 1e-14
# a law is certified when its verified residual, and the change in it that
# one ulp of tf makes at this detuning (2|delta| ulp(tf)), stay within this
_OK_TOL = 1e-6


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized law, its target, the propagation residual (Frobenius
    distance between the law's exact endpoint, from propagate_law_exact,
    and the target matrix), and the circle angle swept at arrival."""

    law: ExtremalLaw
    target: EulerTarget
    residual: float
    eta_final: float

    @property
    def ok(self) -> bool:
        """Whether the law is certified: verified (residual not nan) within
        1e-6 of the target, with tf fine enough that one ulp of it moves the
        endpoint by at most 1e-6, which fails above about |delta| = 1e9."""
        return (self.residual <= _OK_TOL and
                2.0 * abs(self.law.delta) * math.ulp(self.law.tf) <= _OK_TOL)


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
    tf = sqrt(4 pi |lambda| - lambda^2) / 2. sin(theta_bar) = sqrt(x (2 - x))
    with x = |lambda|/2pi, where sqrt(1 - cos^2) would cancel at small x.
    """
    if abs(lambda_star) > TWO_PI + 1e-12:
        raise DomainError(f"|lambda*| = {abs(lambda_star):.12g} exceeds 2pi")
    lam = abs(lambda_star)
    if lam == 0.0:
        return 0.0, 0.0
    tf = 0.5 * math.sqrt(4.0 * math.pi * lam - lam * lam)
    x = lam / TWO_PI
    sin_bar = math.sqrt(max(0.0, x * (2.0 - x)))
    p2 = math.copysign((1.0 - x) / sin_bar, lambda_star) if sin_bar > 0.0 else 0.0
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

def _theta_factors(theta_star):
    """(tan(theta*/2), cos theta*, cos^2(theta*/2)), the label map's factors
    that depend on theta* alone: numpy's for an ndarray, else math's, which
    label_for_phi0 computes when not given them."""
    m = np if isinstance(theta_star, np.ndarray) else math
    return m.tan(theta_star / 2.0), m.cos(theta_star), m.cos(theta_star / 2.0) ** 2


def label_for_phi0(phi0: float, theta_star: float, phi_star: float, k=None
                   ) -> tuple[float, float, float, float]:
    """(label, tf, p2, eta_f) for the circle from azimuth phi0 through
    (theta*, phi*), arriving the first time the azimuth matches; k is
    _theta_factors(theta*), which a caller mapping many phi0 passes once.

    The label is the accumulated psi at arrival; as phi0 runs over
    [phi* - pi, phi* + pi] it sweeps [-phi* + 2pi, -phi* - 2pi]
    monotonically, covering every SU(2) element over (theta*, phi*) once.
    tf = eta sin(theta_bar)/2 with cot(theta_bar) = p2, formed as
    eta / (2 sqrt(1 + p2^2)) by correctly rounded operations only: no atan2,
    whose last bit sin(atan2(1, p2)) magnifies by about |p2| for p2 << -1.
    """
    if theta_star >= math.pi - POLAR_THETA_TOL:
        # South Pole targets: every meridian great circle arrives at eta = pi
        # in time pi/2; the azimuth there is a gauge and the label reduces to
        # psi - phi = -2 phi0.
        return -2.0 * phi0 + phi_star, math.pi / 2.0, 0.0, math.pi
    tan_half, cos_t, cos2_half = k or _theta_factors(theta_star)
    d = phi_star - phi0
    s = math.sin(d)
    p2 = s / tan_half
    # cancellation-free form of 1 - (1 - cos theta*)/sin^2(theta_bar):
    # exactly -1 at tangency (|s| = 1), and never above cos theta*
    arg = cos_t - 2.0 * s * s * cos2_half
    ea = math.acos(arg) if arg > -1.0 else math.pi
    # the circle crosses latitude theta* at eta = ea and 2pi - ea, mirror
    # images about its axis meridian phi0 + pi/2, and the first (ea <= pi)
    # lies on phi0's side of it: phi* is that crossing when
    # cos(phi* - phi0) >= 0. At tangency (|s| = 1) cos = 0 and ea = pi, so
    # the two crossings coincide
    eta = ea if math.cos(d) >= 0.0 else TWO_PI - ea
    tf = eta / (2.0 * math.sqrt(1.0 + p2 * p2))
    label = -2.0 * phi0 + phi_star - 2.0 * p2 * tf
    return label, tf, p2, eta


def _labels_for_phi0(phi0, theta_star, phi_star, k=None):
    """Array form of label_for_phi0 over the 1-d phi0, with theta* and phi*
    scalars or of phi0's shape (theta* outside the North polar band), k as
    there: label_for_phi0's operations in its order, on in-place
    temporaries. numpy's sin, tan and arccos differ from math's in the
    last bit, so it agrees with the scalar map to roundoff: the grid solves
    steer brackets with it and report label_for_phi0's values."""
    tan_half, cos_t, cos2_half = k or _theta_factors(theta_star)
    d = phi_star - phi0
    s = np.sin(d)
    p2 = s / tan_half
    eta = np.multiply(s, 2.0)
    eta *= s
    eta *= cos2_half
    np.subtract(cos_t, eta, out=eta)
    np.maximum(eta, -1.0, out=eta)
    np.arccos(eta, out=eta)
    # the first crossing, as in label_for_phi0, without a cos: for
    # |d| < 5pi/2, cos d < 0 exactly when pi/2 < |d| < 3pi/2, and
    # _HALF_PI and _THREE_HALF_PI round below pi/2 and 3pi/2
    np.abs(d, out=d)
    eta = np.where((d > _HALF_PI) & (d <= _THREE_HALF_PI), TWO_PI - eta, eta)
    south = theta_star >= math.pi - POLAR_THETA_TOL
    if np.count_nonzero(south):
        # South Pole: the label reduces to -2 phi0 + phi*
        np.copyto(eta, math.pi, where=south)
        np.copyto(p2, 0.0, where=south)
    tf = np.multiply(p2, p2)
    tf += 1.0
    np.sqrt(tf, out=tf)
    tf *= 2.0
    np.divide(eta, tf, out=tf)          # exactly pi/2 at the South Pole
    label = np.multiply(phi0, -2.0)
    label += phi_star
    np.multiply(p2, 2.0, out=d)
    d *= tf
    label -= d
    return label, tf, p2, eta


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


def _bisect_many(g, a, b, ga, gb, tol: float, slack=0.0) -> np.ndarray:
    """Array form of `_bisect`, one bracket per element of the broadcast
    1-d a, b, ga, gb (and slack, if an array): _bisect's end tests,
    midpoints, sign ordering and stop rules, so each element gets _bisect's
    float for the same g values.

    g(i) binds the still open brackets i and returns the evaluator of g at
    their midpoints. Each step evaluates it once and moves lo and hi in
    place; only in a step where a bracket closes (|g| <= tol, or narrower
    than 1e-15 before it is evaluated) are the open set and its evaluator
    rebuilt."""
    a, b, ga, gb = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b, ga, gb))
    out = np.where(np.abs(ga) <= tol, a, b)
    todo = (np.abs(ga) > tol) & (np.abs(gb) > tol)
    flat = todo & ((np.minimum(ga, gb) > slack) | (np.maximum(ga, gb) < -slack))
    if flat.any():
        k = int(np.argmax(flat))
        raise NoConvergence(f"no sign change on [{a[k]:.9g}, {b[k]:.9g}]: "
                            f"g = {ga[k]:.3e}, {gb[k]:.3e}")
    i = np.flatnonzero(todo)
    rising = ga[i] < gb[i]
    lo = np.where(rising, a[i], b[i])     # g < 0 at lo, g > 0 at hi
    hi = np.where(rising, b[i], a[i])
    ev = None
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        shut = np.abs(hi - lo) < 1e-15    # stops at its midpoint, unevaluated
        if np.count_nonzero(shut):
            out[i[shut]] = mid[shut]
            keep = ~shut
            i, lo, hi, mid, ev = i[keep], lo[keep], hi[keep], mid[keep], None
        if i.size == 0:
            return out
        if ev is None:
            ev = g(i)
        gm = ev(mid)
        up, down = gm > tol, gm < -tol
        np.putmask(hi, up, mid)
        np.putmask(lo, down, mid)
        if np.count_nonzero(up) + np.count_nonzero(down) < i.size:
            shut = ~(up | down)
            out[i[shut]] = mid[shut]
            keep = ~shut
            i, lo, hi, ev = i[keep], lo[keep], hi[keep], None
    if i.size:
        raise NoConvergence(f"bisection did not reach {tol:g} in {_MAX_BISECT} steps")
    return out


def _solve_label(target_label: float, theta_star: float, phi_star: float,
                 tol: float = _PSI_SOLVE_TOL) -> float:
    """phi0 with label(phi0) = target_label; the label map falls from
    -phi* + 2pi at phi0 = phi* - pi to -phi* - 2pi at phi0 = phi* + pi."""
    k = _theta_factors(theta_star)

    def g(phi0):
        return label_for_phi0(phi0, theta_star, phi_star, k)[0] - target_label

    return _bisect(g, phi_star - math.pi, phi_star + math.pi,
                   -phi_star + TWO_PI - target_label, -phi_star - TWO_PI - target_label, tol)


def _f_gaps(theta_star, phi_star, delta, target, tol: float):
    """g(i) for `_bisect_many`: label - 2 delta tf - target from the array
    label map, at delta = 0 the label mismatch, over broadcast 1-d
    arguments. Each open set i binds its brackets' theta*-factors, phi*,
    delta, target and roundoff band once; a scalar argument (one theta* for
    a family or a T_diff grid, delta = 0) stays scalar. A value within
    roundoff of +-tol, where the map's last bits could flip _bisect's
    decision, is recomputed by label_for_phi0."""
    th, ph, d, t = (np.asarray(v, dtype=float) for v in (theta_star, phi_star, delta, target))
    fac = _theta_factors(th)
    twice_d = 2.0 * d
    band = _ARRAY_ROUNDOFF * (1.0 + 2.0 * np.abs(d))
    full = np.broadcast_arrays(th, ph, d, t)     # views, for the scalar recompute

    def g(i):
        th_i, ph_i, d2_i, t_i, band_i, *fac_i = (v if v.ndim == 0 else v[i]
                                                for v in (th, ph, twice_d, t, band, *fac))

        def ev(x):
            gm, tf, _, _ = _labels_for_phi0(x, th_i, ph_i, fac_i)
            tf *= d2_i
            gm -= tf
            gm -= t_i
            near = np.abs(np.abs(gm) - tol) <= band_i
            if not np.count_nonzero(near):
                return gm
            for k, j in zip(np.flatnonzero(near).tolist(), i[near].tolist()):
                th_j, ph_j, d_j, t_j = (float(v[j]) for v in full)
                label, tf, _, _ = label_for_phi0(float(x[k]), th_j, ph_j)
                gm[k] = label - 2.0 * d_j * tf - t_j
            return gm

        return ev

    return g


def _solve_labels(target_label, theta_star, phi_star, tol: float = _PSI_SOLVE_TOL) -> np.ndarray:
    """Array form of `_solve_label` over broadcast 1-d arguments: the same
    brackets and end values, solved together by `_bisect_many`."""
    v, ph = np.asarray(target_label, dtype=float), np.asarray(phi_star, dtype=float)
    return _bisect_many(_f_gaps(theta_star, ph, 0.0, v, tol), ph - math.pi, ph + math.pi,
                        -ph + TWO_PI - v, -ph - TWO_PI - v, tol)


def _window_label(psi, phi):
    """psi* shifted by the unique multiple of 4pi into the label window:
    numpy's for ndarrays, else Python's round; both round half to even."""
    r = np.round if isinstance(psi, np.ndarray) else round
    return psi + FOUR_PI * r((-phi - psi) / FOUR_PI)


def _resonant_durations(psi, theta, phi) -> list[float]:
    """_synthesize_canonical's durations for the canonical targets (psi[j],
    theta[j], phi[j]), bit for bit: the tilted ones by one array solve,
    finished by label_for_phi0 with the theta*-factors bound once per run
    of equal theta*, such as a U/-U pair."""
    psi, th, ph = (np.array(v, dtype=float) for v in (psi, theta, phi))
    tilted = th >= POLAR_THETA_TOL
    psi_t, th_t, ph_t = psi[tilted], th[tilted], ph[tilted]
    phi0 = _solve_labels(_window_label(psi_t, ph_t), th_t, ph_t)
    tf, last, k = [], None, None
    for x, t, f in zip(phi0.tolist(), th_t.tolist(), ph_t.tolist()):
        if t != last:
            last, k = t, _theta_factors(t)
        tf.append(label_for_phi0(x, t, f, k)[1])
    tilted_tf = iter(tf)
    return [next(tilted_tf) if t else z_rotation_parameters(p)[1]
            for p, t in zip(psi.tolist(), tilted.tolist())]


def synthesize_general(target: EulerTarget | UnitGate, verify: bool = True) -> SynthesisResult:
    """Time-optimal law for an arbitrary SU(2) target.

    Pure z-rotations delegate to the closed form. Otherwise the unique
    phi0 in [-pi, pi) is found such that the law's accumulated psi matches
    psi* mod 4pi (the SU(2) double cover), refined to 1e-10.
    """
    return _synthesize_canonical(canonical_euler(target), verify)


def _synthesize_canonical(e: EulerTarget, verify: bool = True) -> SynthesisResult:
    """synthesize_general for a canonical Euler triple, solved as it is:
    canonical_euler would take it through a gate and back, which can move
    its last bits."""
    if e.theta < POLAR_THETA_TOL:
        return synthesize_z_rotation(e.psi, verify=verify)
    phi0 = _solve_label(_window_label(e.psi, e.phi), e.theta, e.phi)
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
