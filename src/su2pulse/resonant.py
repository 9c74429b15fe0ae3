"""Time-optimal synthesis: the closed forms at zero detuning, and the one
canonical solve behind every target at every detuning.

`_synthesize_canonical` turns a canonical Euler triple into its law at
any detuning delta, 0 included: a z target takes `_z_law` (at delta = 0
the label lambda* itself), a tilted one a 1-d solve on its optimal arc.

The solve exploits the circle geometry: fixing the initial azimuth phi0
pins p2 = sin(phi* - phi0) / tan(theta*/2) so the projected circle passes
through (theta*, phi*); the arrival time follows analytically from the
circle. The circle crosses latitude theta* at eta = ea and 2pi - ea, and
the two crossings are mirror images about the circle's axis meridian
phi0 + pi/2, so the first one (eta = ea <= pi) is the one on phi0's side
of it: the arrival is at ea if cos(phi* - phi0) >= 0, else at 2pi - ea.
At tangency (|sin(phi* - phi0)| = 1) ea = pi and the two coincide.
Under a detuning delta the control ends at f_delta = label - 2 delta tf,
the label being its accumulated psi. An optimal arc (`_domain_arc`) is a
phi0 bracket on which f_delta is monotone, and psi* lifted into its f-range
of width 4pi (`_f_target`) is the root's f_delta. At delta = 0 the arc is
the full label window and f_delta the label: the resonant solve. `_solve_f`
and its array form `_solve_arcs` solve every tilted target, by `_bisect`
and `_bisect_many`, the package's only root finders. The tables of
detuned.py (the label family and the optimal domains' far ends) take
their Newton steps instead (`_newton`, `_newton_many`): the same
brackets, ends and stops, with the closed-form slope of f_delta
(`_f_slope`), each solve from a first trial point beside its root
(`_newton_seed`): a far end from f_delta's quadratic model at the far
stationary label, a family label from the secant of a 33-node label
table. That takes about 3.6 evaluations per family label and 4.8 per
far end, against 7.4 and 7.3 from the midpoint. Laws stay on
bisection, so a sweep's durations are synthesize's bit for bit. Every
value a solve returns comes from the exact map, label_for_phi0 or its
array form `_labels_for_phi0` (math's sin and acos): the map's values at
the evaluation that closed the solve, or a call at a root it did not
evaluate. Only the grid bisection's steering step (`_f_gaps`) takes
numpy's sin and arccos, rechecking by label_for_phi0 each value close
enough to a decision that their last bits could flip it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# propagate_law is not called here but stays importable as
# resonant.propagate_law: perfbench/tracer.py wraps that binding
from .dynamics import ExtremalLaw, propagate_law, propagate_law_exact  # noqa: F401
from .errors import DomainError, NoConvergence, NoStationaryPoint, TargetUnreached
from .su2 import (
    FOUR_PI,
    POLAR_THETA_TOL,
    TWO_PI,
    EulerTarget,
    ParsedTarget,
    UnitGate,
    _mapped,
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
    p2, tf, eta = _z_law(lambda_star, 0.0)
    law = ExtremalLaw(phi0=wrap_pi(phi0), p2=p2, delta=0.0, tf=tf)
    e = EulerTarget(wrap_4pi(lambda_star), 0.0, 0.0)
    return SynthesisResult(law, e, _verify(law, e, verify), eta)


# past this |delta| a z law's label c^2/(4 pi delta^2) falls below 1e-298,
# towards the subnormals where it loses its digits; _z_law forms the law
# from f_delta = c alone there
_Z_FAR_DETUNING = 1e150


def _z_law(lam: float, delta: float) -> tuple[float, float, float]:
    """(p2, tf, eta) of the fastest z-family law whose f_delta is lam mod 4pi:
    the label lam at delta = 0, _z_label's up to |delta| = _Z_FAR_DETUNING.

    Past it the label u enters f_delta = s u - 2 delta T = c only through
    the label's share u / |c| <= |c| / (4 pi delta^2) < 1e-298, so tf =
    -c / (2 delta), on the lift c of lam of sign -sgn(delta) nearest 0
    (within _z_label's roundoff), and p2 = sgn(c) pi (1 - u/2pi) / tf =
    sgn(c) pi / tf, both exact to rounding. The label's sign is sgn(c),
    whose root is the smaller of the two. Where 2 p2 would overflow (tf
    below about 3.5e-308) the law is the identity."""
    if abs(delta) <= _Z_FAR_DETUNING:
        label = _z_label(lam, delta) if delta else lam
        p2, tf = z_rotation_parameters(label)
        return p2, tf, math.copysign(TWO_PI, label) if tf > 0.0 else 0.0
    sd = math.copysign(1.0, delta)
    c = lam if sd * lam <= 4e-15 * (abs(lam) + TWO_PI) else lam - math.copysign(FOUR_PI, lam)
    tf = max(-sd * c, 0.0) / (2.0 * abs(delta))
    p2 = -sd * math.pi / tf if tf > 0.0 else math.inf
    if not math.isfinite(2.0 * p2):
        # no such law is representable: the identity, which verification
        # certifies only for a target within 1e-6 of it
        return 0.0, 0.0, 0.0
    return p2, tf, -sd * TWO_PI


def _z_label(lam: float, delta: float) -> float:
    """The fastest z-family label whose f_delta is lam mod 4pi (delta != 0).

    With u = |label|, s = sgn(label), squaring s u - c = 2 delta T(u) for
    c = lam + 4 pi n gives (1 + delta^2) u^2 - 2 (s c + 2 pi delta^2) u + c^2
    = 0; a root counts when 0 <= u <= 2pi and delta (s u - c) >= 0. T rises
    with u, and f_delta leaves u = 0 towards -sgn(delta) on both branches,
    so the fastest root lies on one of the two c nearest 0. Dividing by
    max(1, |delta|)^2 and taking roots q/a and c^2/q, nothing overflows or
    cancels."""
    t = min(abs(delta), 1.0)                  # |delta| / max(1, |delta|)
    r2, t2 = (1.0 / max(abs(delta), 1.0)) ** 2, t * t
    a, sd = r2 + t2, math.copysign(1.0, delta)
    best, sign = math.inf, 1.0
    for c in (lam, lam - math.copysign(FOUR_PI, lam)):
        # a sign within roundoff of the squared-away one still counts
        tol = 4e-15 * (abs(c) + TWO_PI)
        cr2 = c * c * r2
        for s in (1.0, -1.0):
            w = FOUR_PI * math.pi * t2 + FOUR_PI * s * c * r2 - cr2
            if w < 0.0:
                continue
            b = s * c * r2 + TWO_PI * t2
            q = b + math.copysign(t * math.sqrt(w), b)
            for u in (q / a, cr2 / q if q else 0.0):
                if u < best and u <= TWO_PI + tol and sd * (s * u - c) >= -tol:
                    best, sign = u, s
    if best == math.inf:
        raise TargetUnreached(f"no z-family root reaches lambda* = {lam!r} at delta = {delta!r}")
    return sign * min(best, TWO_PI)


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
    that depend on theta* alone, formed once per optimal arc (`_Arc.k`), by
    math: for an ndarray element by element, the square by C pow as `** 2`
    (numpy's x*x can differ in the last bit), each element a float's bits."""
    if isinstance(theta_star, np.ndarray):
        half = theta_star / 2.0
        return (_mapped(math.tan, half), _mapped(math.cos, theta_star),
                _mapped(math.pow, _mapped(math.cos, half), 2.0))
    return math.tan(theta_star / 2.0), math.cos(theta_star), math.cos(theta_star / 2.0) ** 2


def label_for_phi0(phi0: float, theta_star: float, phi_star: float, k=None
                   ) -> tuple[float, float, float, float]:
    """(label, tf, p2, eta_f) for the circle from azimuth phi0 through
    (theta*, phi*), arriving the first time the azimuth matches; k is
    _theta_factors(theta*): an arc's, at every phi0 of its solve, or formed here.
    |phi* - phi0| must stay below 5pi/2; every solver bracket keeps it
    within 3pi/2.

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
    # lies on phi0's side of it: phi* is that crossing when cos d >= 0, for
    # |d| < 5pi/2 unless pi/2 < |d| < 3pi/2 (_HALF_PI and _THREE_HALF_PI
    # round below both). At tangency (|s| = 1) ea = pi: the two coincide
    eta = TWO_PI - ea if _HALF_PI < abs(d) <= _THREE_HALF_PI else ea
    tf = eta / (2.0 * math.sqrt(1.0 + p2 * p2))
    label = -2.0 * phi0 + phi_star - 2.0 * p2 * tf
    return label, tf, p2, eta


def _labels_for_phi0(phi0, theta_star, phi_star, k=None):
    """Array form of label_for_phi0 over the 1-d phi0, with theta* and phi*
    scalars or of phi0's shape (theta* outside the North polar band), k as
    there: label_for_phi0's operations in its order, on in-place
    temporaries, with math's sin and acos element by element, so each value
    is label_for_phi0's bit for bit. The grid bisection steers by its own
    step instead (`_f_gaps`). Like label_for_phi0 it needs |phi* - phi0| <
    5pi/2."""
    tan_half, cos_t, cos2_half = k or _theta_factors(theta_star)
    d = phi_star - phi0
    s = _mapped(math.sin, d)
    p2 = s / tan_half
    eta = np.multiply(s, 2.0)
    eta *= s
    eta *= cos2_half
    np.subtract(cos_t, eta, out=eta)
    np.maximum(eta, -1.0, out=eta)      # acos(-1) = pi, label_for_phi0's value there
    eta = _mapped(math.acos, eta)
    # the first crossing, by label_for_phi0's comparison
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
            slack: float = 0.0, newton: bool = False, seed: float | None = None) -> float:
    """Root of g on [a, b] by bisection on the sign of g.

    ga = g(a) and gb = g(b) are passed in because callers often know them.
    An end with |g| <= tol is returned as it is; otherwise g must change
    sign over [a, b] (each end may miss by up to `slack`), else
    NoConvergence. The loop stops at |g(mid)| <= tol or a bracket narrower
    than 1e-15. With newton, g returns g and its slope, and the steps are
    `_newton`'s, from its first trial point seed: Newton points where they
    are safe, else midpoints (rtsafe, Numerical Recipes 9.4), with the same
    ends, stops and step cap.
    """
    if abs(ga) <= tol:
        return a
    if abs(gb) <= tol:
        return b
    if min(ga, gb) > slack or max(ga, gb) < -slack:
        raise NoConvergence(f"no sign change on [{a:.9g}, {b:.9g}]: "
                            f"g = {ga:.3e}, {gb:.3e}")
    lo, hi = (a, b) if ga < gb else (b, a)     # g < 0 at lo, g > 0 at hi
    if newton:
        return _newton(g, lo, hi, tol, seed)
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


def _newton(g, lo: float, hi: float, tol: float, seed: float | None = None) -> float:
    """_bisect's loop with its Newton steps, from the ordered bracket (g < 0
    at lo, g > 0 at hi); g returns g and its slope. The Newton point of the
    last evaluation is taken when it lies strictly inside the bracket and
    its step is at most half the step before the last one (rtsafe's test,
    so the steps at least halve every second step where the slope is off,
    as it is where roundoff steps the map); else the midpoint, whose step
    is half the bracket. A zero slope takes the midpoint.

    The first trial point is seed when it lies strictly inside the bracket
    (it counts as a midpoint step: half the bracket), else the midpoint,
    as for no seed or a nan one. The tables seed every solve beside its
    root (`_newton_seed`), which about halves their evaluations."""
    x, step = seed, 0.5 * abs(hi - lo)
    last = older = abs(hi - lo)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) < 1e-15:
            return mid
        if x is None or not (lo < x < hi or hi < x < lo) or 2.0 * step > older:
            x, step = mid, 0.5 * abs(hi - lo)
        older, last = last, step
        gx, slope = g(x)
        if gx > tol:
            hi = x
        elif gx < -tol:
            lo = x
        else:
            return x
        if slope:
            q = gx / slope
            x, step = x - q, abs(q)
        else:
            x = None
    raise NoConvergence(f"bisection did not reach {tol:g} in {_MAX_BISECT} steps")


def _open_brackets(a, b, ga, gb, tol: float, slack):
    """_bisect's end tests over broadcast 1-d a, b, ga, gb (and slack, if an
    array): (out, i, lo, hi), out holding the ends already returned and
    (lo, hi) the ordered brackets still open, at the indices i."""
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
    return out, i, lo, hi


def _bisect_many(g, a, b, ga, gb, tol: float, slack=0.0) -> np.ndarray:
    """Array form of `_bisect`, one bracket per element of the broadcast
    1-d a, b, ga, gb (and slack, if an array): _bisect's end tests,
    midpoints, sign ordering and stop rules, so each element gets _bisect's
    float for the same g values.

    g(i) binds the still open brackets i and returns the evaluator of g at
    their midpoints. Each step evaluates it once and moves lo and hi in
    place; only in a step where a bracket closes (|g| <= tol, or narrower
    than 1e-15 before it is evaluated) are the open set and its evaluator
    rebuilt. The width test runs only once some bracket can be that narrow."""
    out, i, lo, hi = _open_brackets(a, b, ga, gb, tol, slack)
    # floor bounds every open width from below, so the width test waits
    # until it can close one: a step halves a width to within 1.5 spacings
    # of the largest |end| (the midpoint's rounding, then the width's), and
    # floor drops by two, at least those of 1 (a margin for its own rounding)
    drop = 2.0 * float(np.spacing(max(np.abs(lo).max(initial=1.0), np.abs(hi).max(initial=1.0))))
    floor = float(np.abs(hi - lo).min(initial=math.inf)) - drop
    ev = None
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if not floor >= 1e-15:
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
        floor = 0.5 * floor - drop
        if np.count_nonzero(up) + np.count_nonzero(down) < i.size:
            shut = ~(up | down)
            out[i[shut]] = mid[shut]
            keep = ~shut
            i, lo, hi, ev = i[keep], lo[keep], hi[keep], None
    if i.size:
        raise NoConvergence(f"bisection did not reach {tol:g} in {_MAX_BISECT} steps")
    return out


def _newton_many(g, a, b, ga, gb, tol: float, slack=0.0, seed=None) -> np.ndarray:
    """Array form of `_bisect` with newton: its end tests, trial points and
    stop rules per element, so each element gets _bisect's float for the
    same g values, slopes and seeds. g(i) binds the open brackets i, as for
    `_bisect_many`, and its evaluator returns g and the slope. seed, if
    given, broadcasts with a and holds each bracket's first trial point
    (nan for none), taken as `_newton` takes it."""
    out, i, lo, hi = _open_brackets(a, b, ga, gb, tol, slack)
    # the first trial points: a seed strictly inside counts as a midpoint step
    x = (np.full(i.size, math.nan) if seed is None
         else np.broadcast_to(np.asarray(seed, dtype=float), out.shape)[i])
    last = older = np.abs(hi - lo)
    step = 0.5 * last
    ev = None
    # a slope that overflows or vanishes gives a Newton point of inf or nan,
    # which lies outside the bracket, as the scalar step's None does
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            width = np.abs(hi - lo)
            shut = width < 1e-15    # stops at its midpoint, unevaluated
            if np.count_nonzero(shut):
                out[i[shut]] = mid[shut]
                keep = ~shut
                i, lo, hi, mid, width, x, step, last, older, ev = (
                    i[keep], lo[keep], hi[keep], mid[keep], width[keep], x[keep], step[keep],
                    last[keep], older[keep], None)
            if i.size == 0:
                return out
            take = (np.minimum(lo, hi) < x) & (x < np.maximum(lo, hi)) & (2.0 * step <= older)
            x = np.where(take, x, mid)
            step = np.where(take, step, 0.5 * width)
            older, last = last, step
            if ev is None:
                ev = g(i)
            gx, slope = ev(x)
            up, down = gx > tol, gx < -tol
            np.putmask(hi, up, x)
            np.putmask(lo, down, x)
            if np.count_nonzero(up) + np.count_nonzero(down) < i.size:
                shut = ~(up | down)
                out[i[shut]] = x[shut]
                keep = ~shut
                i, lo, hi, x, gx, slope, last, older, ev = (
                    i[keep], lo[keep], hi[keep], x[keep], gx[keep], slope[keep], last[keep],
                    older[keep], None)
            q = gx / slope
            x = x - q
            step = np.abs(q)
    if i.size:
        raise NoConvergence(f"bisection did not reach {tol:g} in {_MAX_BISECT} steps")
    return out


def _f_gaps(theta_star, phi_star, delta, target, tol: float, k=None):
    """g(i) for `_bisect_many`: label - 2 delta tf - target, at delta = 0
    the label mismatch, over broadcast 1-d arguments, on the theta*-factors
    k (an arc's, else formed here). Its steering step takes
    `_labels_for_phi0`'s operations in their order, but numpy's sin and
    arccos for math's, which differ in the last bit: its values lie within
    _ARRAY_ROUNDOFF (1 + 2|delta|) of label_for_phi0's, not on them. Each
    open set i binds its brackets' factors, phi*, 2 delta, target,
    South-Pole rows and roundoff band once; a scalar argument (one theta*
    for a family or a T_diff grid, delta = 0) stays scalar, and a scalar
    delta = 0 drops the 2 delta tf term, which is +0. A value within that
    band of +-tol, where numpy's last bits could flip _bisect's decision,
    is recomputed by label_for_phi0 on the same factors."""
    th, ph, d, t, *fac = (np.asarray(v, dtype=float) for v in (
        theta_star, phi_star, delta, target, *(k or _theta_factors(theta_star))))
    twice_d = 2.0 * d
    detuned = twice_d.ndim or twice_d != 0.0
    band = _ARRAY_ROUNDOFF * (1.0 + 2.0 * np.abs(d))
    south = th >= math.pi - POLAR_THETA_TOL
    if not np.count_nonzero(south):
        south = np.False_               # no South-Pole row to gather per open set
    full = np.broadcast_arrays(th, ph, d, t, *fac)     # views, for the scalar recompute

    def g(i):
        ph_i, d2_i, t_i, band_i, tan_half, cos_t, cos2_half, south_i = (
            v if v.ndim == 0 else v[i] for v in (ph, twice_d, t, band, *fac, south))
        # the South-Pole rows: label -2 phi0 + phi*, p2 = 0 and eta = pi
        poles = (np.flatnonzero(south_i) if south_i.ndim else
                 np.arange(i.size if south_i else 0))

        def ev(x):
            # _labels_for_phi0's operations in its order, then the gap's
            d = np.subtract(ph_i, x)
            s = np.sin(d)
            p2 = s / tan_half
            eta = np.multiply(s, 2.0)
            eta *= s
            eta *= cos2_half
            np.subtract(cos_t, eta, out=eta)
            np.maximum(eta, -1.0, out=eta)
            np.arccos(eta, out=eta)
            np.abs(d, out=d)
            far = d > _HALF_PI
            far &= d <= _THREE_HALF_PI
            np.putmask(eta, far, TWO_PI - eta)
            if poles.size:
                eta[poles] = math.pi
                p2[poles] = 0.0
            tf = np.multiply(p2, p2, out=s)
            tf += 1.0
            np.sqrt(tf, out=tf)
            tf *= 2.0
            np.divide(eta, tf, out=tf)
            gm = np.multiply(x, -2.0, out=d)
            gm += ph_i
            p2 *= 2.0
            p2 *= tf
            gm -= p2
            if detuned:                 # else 2 delta tf = +0 (tf >= 0): gm - 0 is gm
                tf *= d2_i
                gm -= tf
            gm -= t_i
            # |(|gm| - tol)| <= band_i: the roundoff recheck
            np.abs(gm, out=eta)
            eta -= tol
            np.abs(eta, out=eta)
            near = eta <= band_i
            if not np.count_nonzero(near):
                return gm
            for n, j in zip(np.flatnonzero(near).tolist(), i[near].tolist()):
                th_j, ph_j, d_j, t_j, *k_j = (float(v[j]) for v in full)
                label, tf, _, _ = label_for_phi0(float(x[n]), th_j, ph_j, k_j)
                gm[n] = label - 2.0 * d_j * tf - t_j
            return gm

        return ev

    return g


# ---------------------------------------------------------------------------
# optimal arcs: one solve for every tilted target at every detuning
# ---------------------------------------------------------------------------

# _bisect's slack on an arc: _f_target's 1e-9 band on a full one; per unit of
# 1 + 2|delta| on a stationary end, a tangency control near the threshold, where
# acos(-1 + x) in label_for_phi0 turns 8 ulps of x into sqrt(16 eps) of f_delta
_STATIONARY_SLACK = 4.0 * math.sqrt(np.finfo(float).eps)
_FULL_SLACK = 1e-9
# a full window's tf_p2_c: it has no stationary label
_NO_STATIONARY = (math.nan, math.nan)


class _Arc(NamedTuple):
    """An optimal domain as one phi0 bracket (lo, hi, f_delta at lo, at hi)
    on which f_delta = label - 2 delta tf is monotone, its f-range, and k,
    the map's theta*-factors, read by every solve on it. A strict arc's
    bracket runs from its stationary end psi_b to the next stationary label,
    past a window end, where label(phi0 + 2pi) = label(phi0) - 4pi lifts the
    labels of a wrapped arc by itself. Its far end is the root of f_delta =
    `far`; psi_b and far are None for the full window, which at delta = 0 is
    the resonant label solve. tf_p2_c is the map's (tf, p2) at the far
    stationary label hi, where the far end's Newton seed is formed (nan on
    the full window). Fields may be columns: per delta, or per theta*."""

    theta_star: float
    phi_star: float
    delta: float
    bracket: tuple[float, float, float, float]
    f_min: float
    f_max: float
    psi_b: float | None
    far: float | None
    wrapped: bool
    slack: float
    k: tuple[float, float, float]
    tf_p2_c: tuple[float, float]

    def rows(self, i) -> _Arc:
        """The arc at the rows i of its columns; scalar fields stay."""
        def pick(v):
            return v[i] if isinstance(v, np.ndarray) else v
        return _Arc(*(tuple(map(pick, v)) if isinstance(v, tuple) else pick(v) for v in self))


def _full_arc(theta_star, phi_star, delta):
    """The full window's bracket (phi* - pi, phi* + pi, f_delta at each), in
    closed form: scalars or ndarrays, as _theta_factors. Both ends are the
    long great-circle arc, of labels -phi* +- 2pi and duration pi - theta*/2,
    or pi/2 on label_for_phi0's South-Pole branch."""
    south = math.pi - POLAR_THETA_TOL
    if isinstance(theta_star, np.ndarray):
        t_end = np.where(theta_star >= south, _HALF_PI, math.pi - theta_star / 2.0)
    else:
        t_end = _HALF_PI if theta_star >= south else math.pi - theta_star / 2.0
    shift = 2.0 * delta * t_end
    return (phi_star - math.pi, phi_star + math.pi,
            (-phi_star + TWO_PI) - shift, (-phi_star - TWO_PI) - shift)


def _domain_arc(theta_star, phi_star, delta: float) -> _Arc:
    """The _Arc of the optimal domain at delta, of either sign, 0 included;
    at delta = 0 theta* and phi* may be ndarrays, for the full windows as
    columns."""
    full = _full_arc(theta_star, phi_star, delta)
    k = _theta_factors(theta_star)
    tan_half = k[0]
    if delta == 0.0 or abs(delta) <= abs(tan_half):
        return _Arc(theta_star, phi_star, delta, full, full[3], full[2], None, None, False,
                    _FULL_SLACK, k, _NO_STATIONARY)
    s = math.copysign(1.0, delta)
    # below 1: here 0 < tan(theta*/2) < |delta|, and a/b rounds below 1 for 0 < a < b
    ratio = tan_half / abs(delta)
    # stationary label closest to -phi*, where p2 = 1/delta: f_delta falls
    # as s phi0 rises from it to the next stationary label
    phi0_b = phi_star - s * math.asin(ratio)
    psi_b, tf_b, p2_b, _ = label_for_phi0(phi0_b, theta_star, phi_star, k)
    f_b = psi_b - 2.0 * delta * tf_b
    if abs(p2_b - 1.0 / delta) > 1e-8:
        raise NoStationaryPoint(
            f"stationary solve inconsistent: p2 = {p2_b:.9g} vs 1/delta = {1.0 / delta:.9g}"
        )
    phi0_c = phi_star + s * (math.pi + math.asin(ratio))
    label_c, tf_c, p2_c, _ = label_for_phi0(phi0_c, theta_star, phi_star, k)
    far = f_b - s * FOUR_PI
    f_min, f_max = sorted((f_b, far))
    # the arc wraps when its far end lies past the window end phi* + s pi
    wrapped = s * far < s * full[3 if s > 0.0 else 2] - 1e-12
    return _Arc(theta_star, phi_star, delta, (phi0_b, phi0_c, f_b, label_c - 2.0 * delta * tf_c),
                f_min, f_max, psi_b, far, wrapped, _STATIONARY_SLACK * (1.0 + 2.0 * abs(delta)), k,
                (tf_c, p2_c))


def _domain_arcs(theta_star: float, phi_star: float, delta: np.ndarray) -> _Arc:
    """_domain_arc at every delta of the 1-d array, as one _Arc of columns
    (theta*, phi* and k stay scalars): its operations in its order, numpy's
    for the correctly rounded ones and math's asin, sin, acos and cos
    element by element, so every column is _domain_arc's bit for bit.
    psi_b and far are nan on the full points."""
    full = _full_arc(theta_star, phi_star, delta)
    lo, hi, f_lo, f_hi = (np.array(np.broadcast_to(v, delta.shape)) for v in full)
    f_min, f_max = f_hi.copy(), f_lo.copy()
    psi_b, far = np.full(delta.shape, math.nan), np.full(delta.shape, math.nan)
    tf_c, p2_c = np.full(delta.shape, math.nan), np.full(delta.shape, math.nan)
    wrapped = np.zeros(delta.shape, dtype=bool)
    slack = np.full(delta.shape, _FULL_SLACK)
    k = _theta_factors(theta_star)
    tan_half = k[0]
    i = np.flatnonzero((delta != 0.0) & (np.abs(delta) > abs(tan_half)))
    if i.size:
        d = delta[i]
        s = np.copysign(1.0, d)
        asin_r = _mapped(math.asin, tan_half / np.abs(d))
        phi0_b = phi_star - s * asin_r
        label_b, tf_b, p2_b, _ = _labels_for_phi0(phi0_b, theta_star, phi_star, k)
        f_b = label_b - 2.0 * d * tf_b
        off = np.abs(p2_b - 1.0 / d) > 1e-8
        if np.count_nonzero(off):
            j = int(np.argmax(off))
            raise NoStationaryPoint(f"stationary solve inconsistent: p2 = {p2_b[j]:.9g} "
                                    f"vs 1/delta = {1.0 / d[j]:.9g}")
        phi0_c = phi_star + s * (math.pi + asin_r)
        label_c, tf_c[i], p2_c[i], _ = _labels_for_phi0(phi0_c, theta_star, phi_star, k)
        f_far = f_b - s * FOUR_PI
        lo[i], hi[i], f_lo[i], f_hi[i] = phi0_b, phi0_c, f_b, label_c - 2.0 * d * tf_c[i]
        f_min[i], f_max[i] = np.minimum(f_b, f_far), np.maximum(f_b, f_far)
        psi_b[i], far[i] = label_b, f_far
        wrapped[i] = s * f_far < s * np.where(s > 0.0, full[3][i], full[2][i]) - 1e-12
        slack[i] = _STATIONARY_SLACK * (1.0 + 2.0 * np.abs(d))
    return _Arc(theta_star, phi_star, delta, (lo, hi, f_lo, f_hi), f_min, f_max, psi_b, far,
                wrapped, slack, k, (tf_c, p2_c))


def _f_target(psi, f_min, f_max):
    """The unique 4pi lift of psi* into an arc's f-range [f_min, f_max]
    (width 4pi): the f_delta value the target's label reaches. Scalars, or
    ndarrays when f_max is one. The range's ends are known to
    max(1e-9, 4 ulp) of the larger |end|, max(-f_min, f_max) as f_min <=
    f_max; 4 ulps exceed 1e-9 from 2**21 on."""
    many = isinstance(f_max, np.ndarray)
    if many:
        band = np.maximum(1e-9, 4.0 * np.spacing(np.maximum(-f_min, f_max)))
    else:
        end = f_max if f_max > -f_min else -f_min
        band = 4.0 * math.ulp(end) if end >= 2097152.0 else 1e-9
    v = psi + FOUR_PI * (np if many else math).floor((f_max - psi) / FOUR_PI)
    v = v + FOUR_PI * (v < f_min - band)
    fits = (f_min - band <= v) & (v <= f_max + band)
    if not (fits.all() if many else fits):
        raise NoConvergence("no 4pi lift of psi* fits the optimal arc's f-range")
    return v


def _f_slope(delta, tf, p2, eta, tan_half):
    """d f_delta / d phi0 at label_for_phi0's (tf, p2, eta): -(1 - delta
    p2) dPsi/dd, with d = phi* - phi0 and dPsi/dd = 2 (1 - tf cos d /
    tan(theta*/2)) / (1 + p2^2). |cos d| is sqrt(1 - s^2) for s = p2
    tan(theta*/2), sin d to an ulp (0 on the South-Pole branch, where the
    label is linear in phi0), and cos d < 0 where the arrival is past
    eta = pi, at the second crossing (at eta = pi, tangency, cos d is 0 to
    first order). Correctly rounded operations only, so an array's slopes
    are the scalar ones bit for bit."""
    s = p2 * tan_half
    c = (1.0 - s) * (1.0 + s)                 # below 0 by roundoff where |s| rounds above 1
    if isinstance(c, np.ndarray):
        np.sqrt(np.maximum(c, 0.0, out=c), out=c)
        np.negative(c, out=c, where=eta > math.pi)
    else:
        c = math.sqrt(max(c, 0.0))
        if eta > math.pi:
            c = -c
    return (delta * p2 - 1.0) * (2.0 * (1.0 - tf * c / tan_half) / (1.0 + p2 * p2))


def _f_gaps_and_slopes(theta_star, phi_star, delta, target, k, tol: float, closing):
    """g(i) for `_newton_many`: label - 2 delta tf - target and its slope in
    phi0, over broadcast 1-d arguments and the arc's theta*-factors k as for
    `_f_gaps`, by the exact array map, so each value is _solve_f's newton g
    bit for bit. A value within tol closes its bracket at that phi0, so the
    evaluator writes its row's (label, tf, p2, eta) into the columns of the
    (4, n) array closing there, for `_solve_arcs` to return."""
    args = [np.asarray(v, dtype=float) for v in (theta_star, phi_star, delta, target, *k)]

    def g(i):
        th, ph, d, t, *k_i = (v if v.ndim == 0 else v[i] for v in args)
        twice_d = 2.0 * d

        def ev(x):
            label, tf, p2, eta = vals = _labels_for_phi0(x, th, ph, k_i)
            gx = label - twice_d * tf - t
            shut = np.abs(gx) <= tol
            if np.count_nonzero(shut):
                closing[:, i[shut]] = [v[shut] for v in vals]
            return gx, _f_slope(d, tf, p2, eta, k_i[0])

        return ev

    return g


# cells of the f_delta table that seeds a full window's Newton solves, a
# power of two: its cell search halves them
_SEED_CELLS = 32


def _newton_seed(arc: _Arc, f):
    """The first Newton trial point of f_delta = f on the arc, for a scalar
    f or the 1-d f of its columns (nan where there is none), formed from
    the arc alone by correctly rounded operations and the exact map, so a
    solve's seed is the same float in either form.

    A strict arc's far end lies beside its far stationary label c =
    bracket[1], where f_delta' = 0 and Newton steps only halve the error.
    The seed is the root of f_delta's quadratic model at c, c + sgn(b - c)
    sqrt(2 (f - f_c) / f''(c)), with b = bracket[0] and f''(c) = -delta
    (cos d_c / t) 2 (1 - tf_c cos d_c / t) / (1 + p2_c^2): delta p2_c = 1
    there, t = tan(theta*/2) and cos d_c = -sqrt((1 - r)(1 + r)) for r = t /
    |delta|; none where the radicand is not positive and finite.

    On the full window (theta* a scalar), where f_delta falls as phi0
    rises, the seed is the secant in the cell holding f of an f_delta table
    at _SEED_CELLS + 1 uniform phi0, the bracket's closed-form ends at its
    ends. The cell is found by halving the table's index range on the
    sign of table - f, so a scalar f evaluates only the 5 nodes its search
    visits, and takes the array form's cell whether or not roundoff keeps
    the table monotone."""
    many = isinstance(f, np.ndarray)
    if arc.far is None:
        lo, hi, f_lo, f_hi = arc.bracket
        step, twice_d = (hi - lo) / _SEED_CELLS, 2.0 * arc.delta
        if many:
            x = lo + np.arange(_SEED_CELLS + 1) * step
            x[-1] = hi
            label, tf, _, _ = _labels_for_phi0(x[1:-1], arc.theta_star, arc.phi_star, arc.k)
            table = np.concatenate(([f_lo], label - twice_d * tf, [f_hi]))
            j, w = np.zeros(f.shape, dtype=int), _SEED_CELLS
            while w > 1:
                w //= 2
                j += np.where(table[j + w] > f, w, 0)
            x0, x1, f0, f1 = x[j], x[j + 1], table[j], table[j + 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                return x0 + (f - f0) * (x1 - x0) / (f1 - f0)
        j, w, f0, f1 = 0, _SEED_CELLS, f_lo, f_hi
        while w > 1:
            w //= 2
            label, tf, _, _ = label_for_phi0(lo + (j + w) * step, arc.theta_star, arc.phi_star,
                                             arc.k)
            fm = label - twice_d * tf
            if fm > f:
                j, f0 = j + w, fm
            else:
                f1 = fm
        x0, x1 = lo + j * step, hi if j + 1 == _SEED_CELLS else lo + (j + 1) * step
        return x0 + (f - f0) * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan
    b, c, _, f_c = arc.bracket
    tf_c, p2_c = arc.tf_p2_c
    t, delta = arc.k[0], arc.delta
    r = t / abs(delta)
    cos_c = -(np if many else math).sqrt((1.0 - r) * (1.0 + r))
    curv = -delta * (cos_c / t) * (2.0 * (1.0 - tf_c * cos_c / t) / (1.0 + p2_c * p2_c))
    if not many:
        rad = 2.0 * (f - f_c) / curv if curv else math.nan
        return c + math.copysign(math.sqrt(rad), b - c) if 0.0 < rad < math.inf else math.nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rad = 2.0 * (f - f_c) / curv
        rad[~((rad > 0.0) & (rad < math.inf))] = math.nan
        return c + np.copysign(np.sqrt(rad), b - c)


def _solve_f(arc: _Arc, f: float, tol: float = _PSI_SOLVE_TOL, newton: bool = False):
    """(label, tf, p2, eta, phi0): label_for_phi0 at the phi0 in the arc's
    bracket where f_delta = f, and that phi0, by `_bisect`, with newton by
    its Newton steps from `_newton_seed`'s point. An evaluation within tol
    closes the solve at its phi0, so when the last one is within tol its
    values are returned; the map is called again only at a root the solve
    did not evaluate (an end, or the midpoint of a bracket narrower than
    1e-15)."""
    th, ph, d, k = arc.theta_star, arc.phi_star, arc.delta, arc.k
    vals = None         # label_for_phi0's values at the last evaluation
    if newton:
        def g(phi0):
            nonlocal vals
            label, tf, p2, eta = vals = label_for_phi0(phi0, th, ph, k)
            return label - 2.0 * d * tf - f, _f_slope(d, tf, p2, eta, k[0])
    else:
        def g(phi0):
            nonlocal vals
            label, tf, _, _ = vals = label_for_phi0(phi0, th, ph, k)
            return label - 2.0 * d * tf - f

    lo, hi, f_lo, f_hi = arc.bracket
    phi0 = _bisect(g, lo, hi, f_lo - f, f_hi - f, tol, arc.slack, newton,
                   _newton_seed(arc, f) if newton else None)
    if vals is None or not abs(vals[0] - 2.0 * d * vals[1] - f) <= tol:
        vals = label_for_phi0(phi0, th, ph, k)
    return (*vals, phi0)


def _solve_target(e: EulerTarget, delta: float):
    """_solve_f's (label, tf, p2, eta, phi0) for the canonical target
    (theta* outside the polar band) under delta, of either sign, 0
    included. A strict arc's stationary end fixes its f-range, so its far
    end (psi_min for delta > 0, psi_max for delta < 0) is left unsolved."""
    arc = _domain_arc(e.theta, e.phi, delta)
    return _solve_f(arc, _f_target(e.psi, arc.f_min, arc.f_max))


def _solve_arcs(arc: _Arc, f, tol: float = _PSI_SOLVE_TOL, newton: bool = False):
    """Array form of `_solve_f` on an _Arc of columns and the 1-d f:
    _solve_f's values bit for bit, as arrays (label, tf, p2, eta, phi0),
    from one `_bisect_many` solve, whose roots the exact array map
    finishes on the arc's theta*-factors, or with newton one `_newton_many`
    solve from `_newton_seed`'s points, which returns the values of the
    evaluations that closed it and finishes the other roots so."""
    args, (lo, hi, f_lo, f_hi) = (arc.theta_star, arc.phi_star, arc.delta, f), arc.bracket
    if not newton:
        phi0 = _bisect_many(_f_gaps(*args, tol, arc.k), lo, hi, f_lo - f, f_hi - f, tol,
                            arc.slack)
        return (*_labels_for_phi0(phi0, arc.theta_star, arc.phi_star, arc.k), phi0)
    closing = np.full((4, f.size), math.nan)
    phi0 = _newton_many(_f_gaps_and_slopes(*args, arc.k, tol, closing), lo, hi, f_lo - f,
                        f_hi - f, tol, arc.slack, _newton_seed(arc, f))
    rest = np.flatnonzero(np.isnan(closing[0]))
    if rest.size:
        a = arc.rows(rest)
        closing[:, rest] = _labels_for_phi0(phi0[rest], a.theta_star, a.phi_star, a.k)
    return (*closing, phi0)


def _resonant_durations(psi, theta, phi) -> np.ndarray:
    """_synthesize_canonical's durations for the canonical targets (psi[j,
    c], theta[j], phi[j]), each column of the (n, m) psi sharing its row's
    theta* and phi* (the angle sweep's U and -U), bit for bit: the tilted
    ones on their full arcs at delta = 0, by one array solve, the arc and
    its theta*-factors formed once per row."""
    tilted = theta >= POLAR_THETA_TOL
    arc = _domain_arc(theta[tilted], phi[tilted], 0.0)
    arc = arc.rows(np.repeat(np.arange(arc.theta_star.size), psi.shape[1]))
    tf = np.empty(psi.shape)
    tf[tilted] = _solve_arcs(arc, _f_target(psi[tilted].ravel(), arc.f_min,
                                            arc.f_max))[1].reshape(-1, psi.shape[1])
    z = psi[~tilted]
    tf[~tilted] = np.reshape([z_rotation_parameters(p)[1] for p in z.ravel().tolist()], z.shape)
    return tf


def synthesize_general(target: EulerTarget | UnitGate, verify: bool = True) -> SynthesisResult:
    """Time-optimal law for an arbitrary SU(2) target.

    Pure z-rotations delegate to the closed form. Otherwise the unique
    phi0 in [-pi, pi) is found such that the law's accumulated psi matches
    psi* mod 4pi (the SU(2) double cover), refined to 1e-10.
    """
    return _synthesize_canonical(canonical_euler(target), verify=verify)


def _synthesize_canonical(e: EulerTarget, delta: float = 0.0,
                          verify: bool = True) -> SynthesisResult:
    """The law for a canonical Euler triple under delta, 0 included: _z_law's
    for a z target, else the f_delta root on its optimal arc. The triple is
    solved as it is; canonical_euler could move its last bits."""
    if e.theta < POLAR_THETA_TOL:
        p2, tf, eta = _z_law(e.psi, delta)
        phi0 = 0.0
    else:
        _, tf, p2, eta, phi0 = _solve_target(e, delta)
    law = ExtremalLaw(phi0=wrap_pi(phi0), p2=p2, delta=delta, tf=tf)
    return SynthesisResult(law, e, _verify(law, e, verify), eta)


def synthesize(target, delta: float = 0.0, verify: bool = True) -> SynthesisResult:
    """Dispatch on a ParsedTarget / UnitGate / EulerTarget; delta != 0 routes
    to the detuned solver."""
    if delta != 0.0:
        from .detuned import synthesize_detuned

        if isinstance(target, ParsedTarget):
            target = target.gate
        return synthesize_detuned(target, delta, verify=verify)
    if isinstance(target, ParsedTarget):
        if target.kind == "zrot":
            return synthesize_z_rotation(target.zrot, verify=verify)
        if target.kind == "xyrot" and target.xyrot[1] != 0.0:
            # a zero angle is the identity, which synthesize_general solves as a z target
            return synthesize_xy_rotation(*target.xyrot, verify=verify)
        target = target.gate
    return synthesize_general(target, verify=verify)
