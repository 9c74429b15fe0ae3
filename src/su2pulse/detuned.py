"""Time-optimal synthesis with a constant detuning term.

Fix the target inclination/azimuth (theta*, phi*). Every resonant optimal
control toward that point is labeled by the accumulated spin angle Psi it
reaches at zero detuning; the labels fill [-phi* - 2pi, -phi* + 2pi], with
the two ends being the same control (the long great-circle arc), so the
family is a circle. Under detuning delta the same control arrives at

    f_delta(Psi) = Psi - 2 delta T(Psi)

with T the resonant duration, because only the spin angle psi feels the
detuning. Synthesis inverts f_delta over the sub-arc of labels that stay
time optimal:

  * |delta| <= |tan(theta*/2)|: f' = 1 - delta p2 never goes negative and
    the whole label circle is the optimal domain.
  * otherwise the domain is the widest arc on which f_delta is monotone
    increasing with one end at the stationary label closest to -phi*
    (where p2 = 1/delta): psi_max for delta > 0, psi_min for delta < 0.
    Its f-range is exactly 4pi wide. The arc may wrap through the
    identified ends of the label window; bounds are then reported lifted
    by 4pi so psi_min < psi_max always holds.

Both signs of delta are solved as they are. The label map continues past
the window by label(phi0 + 2pi) = label(phi0) - 4pi, so each domain is one
monotone phi0 bracket, from the stationary end to the next stationary
label, and a wrapped arc's labels come out lifted. Reflecting azimuths
about phi* maps (delta, psi*) to (-delta, -2 phi* - psi*) and labels to
-2 phi* - Psi; the domains and laws at -delta are those reflections.

Pure z-rotation targets (theta* = 0) keep phi* = 0 by convention. Their
duration curve T = sqrt(4 pi |Psi| - Psi^2)/2 has a cusp at the identity,
the monotone-arc construction above does not apply, and synthesis takes
the smallest valid root of the quadratic that f_delta = psi* squares to.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# propagate_law and euler_from_gate are not called here but stay importable
# as detuned.<name>: perfbench/tracer.py wraps those bindings
from .dynamics import ExtremalLaw, propagate_law, write_csv  # noqa: F401
from .errors import DomainError, NoConvergence, NoStationaryPoint, TargetUnreached
from .resonant import (
    _PSI_SOLVE_TOL,
    SynthesisResult,
    _bisect,
    _bisect_many,
    _f_gaps,
    _solve_label,
    _solve_labels,
    _theta_factors,
    _verify,
    label_for_phi0,
    synthesize_general,
    z_rotation_parameters,
)
from .su2 import (
    FOUR_PI,
    POLAR_THETA_TOL,
    TWO_PI,
    EulerTarget,
    UnitGate,
    canonical_euler,
    euler_from_gate,  # noqa: F401
    negated_psi,
    wrap_4pi,
    wrap_pi,
)

# _bisect's slack, per unit of 1 + 2|delta|, on brackets with a stationary
# end: near the threshold that end is a tangency control, where acos(-1 + x)
# in label_for_phi0 turns 8 ulps of x into sqrt(16 eps) of f_delta
_STATIONARY_SLACK = 4.0 * math.sqrt(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# tabulated family of resonant controls toward a fixed (theta*, phi*)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiFamily:
    """Tabulated resonant controls u_Psi toward fixed (theta*, phi*).

    Parallel arrays over the label window psi in [-phi*-2pi, -phi*+2pi]:
    the initial azimuth phi0, the constant adjoint p2, and the resonant
    duration. The two window ends are the same control.

    The duration is symmetric about -phi*, where it takes its minimum
    theta*/2 (the great-circle transverse rotation); its maximum
    pi - theta*/2 sits at the window ends. Its slope is p2/2, and
    |p2| <= cot(theta*/2), with equality at the tangency labels of the
    controls phi0 = phi* -+ pi/2, whose circle grazes the target latitude.
    So the duration is convex between the two tangency labels and concave
    outside them.
    """

    theta_star: float
    phi_star: float
    psi: np.ndarray
    phi0: np.ndarray
    p2: np.ndarray
    duration: np.ndarray

    def solve(self, psi_label: float) -> tuple[float, float, float]:
        """(phi0, p2, duration) for one label, refined (not interpolated)."""
        return _control_at_label(self.theta_star, self.phi_star, psi_label)


def _control_at_label(theta_star: float, phi_star: float,
                      psi_label: float) -> tuple[float, float, float]:
    lo, hi = -phi_star - TWO_PI, -phi_star + TWO_PI
    if not (lo - 1e-9 <= psi_label <= hi + 1e-9):
        raise DomainError(f"label {psi_label:.12g} outside [{lo:.12g}, {hi:.12g}]")
    if theta_star < POLAR_THETA_TOL:
        return (0.0, *z_rotation_parameters(psi_label))
    phi0 = _solve_label(min(max(psi_label, lo), hi), theta_star, phi_star, 1e-12)
    _, tf, p2, _ = label_for_phi0(phi0, theta_star, phi_star)
    return phi0, p2, tf


def build_psi_family(theta_star: float, phi_star: float,
                     resolution: int = 1024) -> PsiFamily:
    """Tabulate (phi0, p2, duration) on a uniform label grid; theta* must
    lie in [0, pi] and phi* be finite."""
    if resolution < 256:
        raise DomainError("resolution must be at least 256")
    if not (0.0 <= theta_star <= math.pi and math.isfinite(phi_star)):
        raise DomainError(f"theta* = {theta_star!r} must lie in [0, pi] and "
                          f"phi* = {phi_star!r} be finite")
    if theta_star < POLAR_THETA_TOL and phi_star != 0.0:
        raise DomainError("z-rotation families use the phi* = 0 convention")
    labels = np.linspace(-phi_star - TWO_PI, -phi_star + TWO_PI, resolution)
    if theta_star < POLAR_THETA_TOL:
        rows = [(0.0, *z_rotation_parameters(lab)) for lab in labels.tolist()]
    else:
        # _control_at_label at every label: one array solve, then label_for_phi0
        rows, k = [], _theta_factors(theta_star)
        for x in _solve_labels(labels, theta_star, phi_star, 1e-12).tolist():
            _, tf, p2, _ = label_for_phi0(x, theta_star, phi_star, k)
            rows.append((x, p2, tf))
    phi0, p2, dur = np.array(rows).T
    return PsiFamily(theta_star, phi_star, labels, phi0, p2, dur)


# ---------------------------------------------------------------------------
# optimal domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimalDomain:
    """Arc [psi_min, psi_max] of labels that stay time optimal at this
    detuning, with psi_bullet the stationary end when the arc is strict.

    When the arc wraps through the identified window ends, the outer bound
    is lifted by 4pi (labels are circle coordinates mod 4pi), so psi_min may
    sit below the window or psi_max above it; `wrapped` records this.
    f_min/f_max give the end-point map's range over the arc (width 4pi for
    a strict sub-arc, up to roundoff).
    """

    psi_min: float
    psi_max: float
    psi_bullet: float | None
    theta_star: float
    phi_star: float
    delta: float
    wrapped: bool
    f_min: float
    f_max: float

    def contains(self, psi_label: float, tol: float = 1e-9) -> bool:
        lo, hi = -self.phi_star - TWO_PI, -self.phi_star + TWO_PI
        x = psi_label
        if x < lo - tol or x > hi + tol:
            x = -self.phi_star + wrap_4pi(x + self.phi_star)
        if self.psi_min - tol <= x <= self.psi_max + tol:
            return True
        if self.wrapped:
            return (self.psi_min - tol <= x + FOUR_PI <= self.psi_max + tol or
                    self.psi_min - tol <= x - FOUR_PI <= self.psi_max + tol)
        return False


@functools.lru_cache(maxsize=2)
def _window_end(phi0: float, theta_star: float, phi_star: float) -> tuple[float, float]:
    """(label, tf) at a window end, phi0 = phi* +- pi, kept for the next domain."""
    return label_for_phi0(phi0, theta_star, phi_star)[:2]


class _Arc(NamedTuple):
    """An optimal domain as one phi0 bracket (lo, hi, f_delta at lo, at hi)
    on which f_delta is monotone, with the arc's f-range. A strict arc's
    bracket runs from its stationary end psi_b to the next stationary
    label, past a window end, where label(phi0 + 2pi) = label(phi0) - 4pi
    lifts the labels of a wrapped arc by itself. Its far end is the root of
    f_delta = `far`; psi_b and far are None for the full window."""

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


def _domain_arc(theta_star: float, phi_star: float, delta: float) -> _Arc:
    """The _Arc of optimal_domain at delta, of either sign."""
    lo, hi = phi_star - math.pi, phi_star + math.pi

    def f_at(phi0, label_map=_window_end):
        label, tf = label_map(phi0, theta_star, phi_star)[:2]
        return label - 2.0 * delta * tf

    if delta == 0.0 or abs(delta) <= abs(math.tan(theta_star / 2.0)):
        f_min, f_max = f_at(hi), f_at(lo)
        return _Arc(theta_star, phi_star, delta, (lo, hi, f_max, f_min), f_min, f_max,
                    None, None, False, 1e-9)
    s = math.copysign(1.0, delta)
    ratio = math.tan(theta_star / 2.0) / abs(delta)
    if ratio >= 1.0:
        raise NoStationaryPoint("stationary label requires |delta| > tan(theta*/2)")
    # stationary label closest to -phi*, where p2 = 1/delta: f_delta falls
    # as s phi0 rises from it to the next stationary label
    phi0_b = phi_star - s * math.asin(ratio)
    psi_b, tf_b, p2_b, _ = label_for_phi0(phi0_b, theta_star, phi_star)
    f_b = psi_b - 2.0 * delta * tf_b
    if abs(p2_b - 1.0 / delta) > 1e-8:
        raise NoStationaryPoint(
            f"stationary solve inconsistent: p2 = {p2_b:.9g} vs 1/delta = {1.0 / delta:.9g}"
        )
    phi0_c = phi_star + s * (math.pi + math.asin(ratio))
    far = f_b - s * FOUR_PI
    f_min, f_max = sorted((f_b, far))
    # the arc wraps when its far end lies past the window end phi* + s pi
    wrapped = s * far < s * f_at(hi if s > 0.0 else lo) - 1e-12
    return _Arc(theta_star, phi_star, delta, (phi0_b, phi0_c, f_b, f_at(phi0_c, label_for_phi0)),
                f_min, f_max, psi_b, far, wrapped, _STATIONARY_SLACK * (1.0 + 2.0 * abs(delta)))


def _domain(arc: _Arc, psi_far: float | None = None) -> OptimalDomain:
    """The arc's OptimalDomain; a strict one's far end is psi_far, psi_min
    for delta > 0, else psi_max."""
    th, ph, d = arc.theta_star, arc.phi_star, arc.delta
    if arc.psi_b is None:
        return OptimalDomain(-ph - TWO_PI, -ph + TWO_PI, None, th, ph, d, False,
                             arc.f_min, arc.f_max)
    lo, hi = (psi_far, arc.psi_b) if d > 0.0 else (arc.psi_b, psi_far)
    return OptimalDomain(lo, hi, arc.psi_b, th, ph, d, arc.wrapped, arc.f_min, arc.f_max)


def _solve_f(arc: _Arc, f: float) -> tuple[float, float, float]:
    """(label, tf, phi0) at the phi0 in the arc's bracket where f_delta = f."""
    th, ph, d = arc.theta_star, arc.phi_star, arc.delta
    k = _theta_factors(th)

    def g(phi0):
        label, tf, _, _ = label_for_phi0(phi0, th, ph, k)
        return label - 2.0 * d * tf - f

    lo, hi, f_lo, f_hi = arc.bracket
    phi0 = _bisect(g, lo, hi, f_lo - f, f_hi - f, _PSI_SOLVE_TOL, arc.slack)
    label, tf, _, _ = label_for_phi0(phi0, th, ph, k)
    return label, tf, phi0


def _solve_arcs(theta_star: float, phi_star: float, arcs: list[_Arc],
                targets: list[tuple[_Arc, float]]):
    """Each arc's OptimalDomain, and (label, tf) arrays for the (arc, f
    value) pairs: _solve_f's values, from one _bisect_many solve."""
    rows = [(a, a.far) for a in arcs if a.far is not None] + targets
    d, slack, f, lo, hi, f_lo, f_hi = np.array(
        [(a.delta, a.slack, v, *a.bracket) for a, v in rows]).reshape(-1, 7).T
    phi0 = _bisect_many(_f_gaps(theta_star, phi_star, d, f, _PSI_SOLVE_TOL), lo, hi,
                        f_lo - f, f_hi - f, _PSI_SOLVE_TOL, slack)
    fac = _theta_factors(theta_star)
    label, tf = np.array([label_for_phi0(x, theta_star, phi_star, fac)[:2]
                          for x in phi0.tolist()]).reshape(-1, 2).T
    ends = iter(label.tolist())
    k = len(rows) - len(targets)
    doms = [_domain(a, None if a.far is None else next(ends)) for a in arcs]
    return doms, label[k:], tf[k:]


def optimal_domain(theta_star: float, phi_star: float, delta: float) -> OptimalDomain:
    """Optimal label arc for fixed (theta*, phi*) and detuning delta.

    theta* must lie in (0, pi], phi* be finite and 2 pi |delta| finite;
    z-rotation targets have a cusp in the duration curve and are solved in
    closed form by synthesize_detuned. A strict arc's far end (psi_min for
    delta > 0, psi_max for delta < 0) is solved here alone: synthesis needs
    only the stationary end, which fixes the arc's f-range.
    """
    if not (POLAR_THETA_TOL <= theta_star <= math.pi + 1e-12):
        raise DomainError("theta* must lie in (0, pi]")
    if not math.isfinite(phi_star):
        raise DomainError(f"phi* = {phi_star!r} must be finite")
    if not math.isfinite(2.0 * math.pi * abs(delta)):
        raise DomainError(f"detuning delta = {delta!r}: 2 pi |delta| must be finite")
    arc = _domain_arc(theta_star, phi_star, delta)
    return _domain(arc) if arc.far is None else _domain(arc, _solve_f(arc, arc.far)[0])


# ---------------------------------------------------------------------------
# detuned synthesis
# ---------------------------------------------------------------------------

def _solve_detuned(e: EulerTarget, delta: float) -> tuple[float, float, float]:
    """(optimal label, duration, initial azimuth phi0) for the canonical
    target (theta* outside the polar band) under delta, of either sign.

    Only the arc's stationary end is needed: it fixes the f-range, so the
    strict arc's far end (psi_min for delta > 0, psi_max for delta < 0) is
    never solved here (optimal_domain does)."""
    arc = _domain_arc(e.theta, e.phi, delta)
    return _solve_f(arc, _f_target(e, arc))


def _f_target(e: EulerTarget, arc: _Arc) -> float:
    """The unique 4pi lift of psi* into the arc's f-range (width 4pi): the
    f_delta value the target's label reaches."""
    n = math.floor((arc.f_max - e.psi) / FOUR_PI)
    v = e.psi + FOUR_PI * n
    if v < arc.f_min - 1e-9:
        v += FOUR_PI
    if not (arc.f_min - 1e-9 <= v <= arc.f_max + 1e-9):
        raise NoConvergence(f"no 4pi lift of psi* fits the domain range "
                            f"[{arc.f_min:.6g}, {arc.f_max:.6g}]")
    return v


def synthesize_detuned(target: EulerTarget | UnitGate, delta: float,
                       verify: bool = True) -> SynthesisResult:
    """Time-optimal law reaching the target under constant detuning delta.

    The law reuses the resonant control of the selected label (its drive
    phase picks up the extra 2*delta*t slope), so only psi is shifted at
    arrival, by -2*delta*tf. A delta with 2 pi |delta| not finite raises
    DomainError.
    """
    if not math.isfinite(2.0 * math.pi * delta):
        raise DomainError(f"detuning delta = {delta!r}: 2 pi |delta| must be finite")
    e = canonical_euler(target)
    if delta == 0.0:
        return synthesize_general(e, verify=verify)
    if e.theta < POLAR_THETA_TOL:
        p2, tf, eta = _z_law(e.psi, delta)
        phi0 = 0.0
    else:
        # the f_delta root is the control itself: no second solve for its label
        phi0 = _solve_detuned(e, delta)[2]
        _, tf, p2, eta = label_for_phi0(phi0, e.theta, e.phi)
    law = ExtremalLaw(phi0=wrap_pi(phi0), p2=p2, delta=delta, tf=tf)
    return SynthesisResult(law, e, _verify(law, e, verify), eta)


# past this |delta| a z law's label c^2/(4 pi delta^2) falls below 1e-298,
# towards the subnormals where it loses its digits; _z_law forms the law
# from f_delta = c alone there
_Z_FAR_DETUNING = 1e150


def _z_law(lam: float, delta: float) -> tuple[float, float, float]:
    """(p2, tf, eta) of the fastest z-family law whose f_delta is lam mod 4pi
    (delta != 0): _z_label's law up to |delta| = _Z_FAR_DETUNING.

    Past it the label u enters f_delta = s u - 2 delta T = c only through
    the label's share u / |c| <= |c| / (4 pi delta^2) < 1e-298, so tf =
    -c / (2 delta), on the lift c of lam of sign -sgn(delta) nearest 0
    (within _z_label's roundoff), and p2 = sgn(c) pi (1 - u/2pi) / tf =
    sgn(c) pi / tf, both exact to rounding. The label's sign is sgn(c),
    whose root is the smaller of the two. Where 2 p2 would overflow (tf
    below about 3.5e-308) the law is the identity."""
    if abs(delta) <= _Z_FAR_DETUNING:
        label = _z_label(lam, delta)
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


# ---------------------------------------------------------------------------
# T_diff analysis over a detuning grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TdiffReport:
    """Durations for U and -U across a detuning grid, where their difference
    changes sign, and the interval X of detunings on which both symmetric
    labels -phi* +- pi stay inside the optimal domain."""

    delta_grid: np.ndarray
    t_U: np.ndarray
    t_negU: np.ndarray
    in_X: np.ndarray
    events: list[tuple[float, str]]          # (delta at change, kind)
    predicted_zero_crossings: list[float]
    psi_opt_U: np.ndarray
    psi_opt_negU: np.ndarray
    domain_bounds: np.ndarray                # (n, 2) lifted [psi_min, psi_max]

    def rows(self):
        for i, d in enumerate(self.delta_grid):
            yield (float(d), float(self.t_U[i]), float(self.t_negU[i]),
                   float(self.t_U[i] - self.t_negU[i]), bool(self.in_X[i]))


def tdiff_analysis(target: EulerTarget | UnitGate, delta_grid) -> TdiffReport:
    """Compare optimal durations for U and -U across a sorted detuning grid.

    Sign changes of t_U - t_negU inside X are genuine zero crossings at
    delta = -(phi* + psi* +- pi + 4 pi n) / (2 T(-phi* +- pi)); outside X
    they are jumps where one optimal label hits a domain boundary.
    """
    e = canonical_euler(target)
    if e.theta < POLAR_THETA_TOL:
        raise DomainError("tdiff analysis needs theta* > 0")
    grid = np.asarray(delta_grid, dtype=float)
    if (grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid))
            or np.any(np.diff(grid) <= 0.0)):
        raise DomainError("delta grid must be non-empty, finite, sorted and 1-d")
    big = [d for d in grid.tolist() if not math.isfinite(2.0 * math.pi * d)]
    if big:
        raise DomainError(f"detuning delta = {big[0]!r}: 2 pi |delta| must be finite")
    e_neg = EulerTarget(negated_psi(e.psi), e.theta, e.phi)
    n = grid.size
    psi_plus, psi_minus = -e.phi + math.pi, -e.phi - math.pi
    # at every delta, 0 included, the domain's strict end and _solve_detuned's
    # inversions of f_delta for U and -U, in one array solve
    arcs = [_domain_arc(e.theta, e.phi, d) for d in grid.tolist()]
    doms, psi, tf = _solve_arcs(e.theta, e.phi, arcs,
                                [(a, _f_target(ek, a)) for a in arcs for ek in (e, e_neg)])
    psi_u, psi_n = psi.reshape(-1, 2).T          # U and -U alternate
    t_u, t_n = tf.reshape(-1, 2).T
    bounds = np.array([(dom.psi_min, dom.psi_max) for dom in doms]).reshape(-1, 2)
    in_x = np.array([dom.contains(psi_plus) and dom.contains(psi_minus) for dom in doms],
                    dtype=bool)
    # duration of the symmetric pair (equal by symmetry)
    _, _, t_pair = _control_at_label(e.theta, e.phi, psi_plus)
    predicted = []
    for sign in (+1.0, -1.0):
        c = e.phi + e.psi + sign * math.pi
        # -(c + 4 pi n) / (2 t_pair) within the grid range
        n_lo = math.ceil((-2.0 * t_pair * float(grid[-1]) - c) / FOUR_PI - 1e-9)
        n_hi = math.floor((-2.0 * t_pair * float(grid[0]) - c) / FOUR_PI + 1e-9)
        for nn in range(n_lo, n_hi + 1):
            predicted.append(-(c + FOUR_PI * nn) / (2.0 * t_pair))
    predicted = sorted(set(round(p, 12) for p in predicted))
    events = []
    diff = t_u - t_n
    for i in range(n - 1):
        a, b = diff[i], diff[i + 1]
        if a == 0.0 or a * b >= 0.0:
            continue
        mid = 0.5 * (grid[i] + grid[i + 1])
        kind = "zero_cross" if (in_x[i] and in_x[i + 1]) else "boundary_jump"
        events.append((float(mid), kind))
    return TdiffReport(grid, t_u, t_n, in_x, events, predicted, psi_u, psi_n, bounds)


def write_tdiff_csv(report: TdiffReport, path) -> None:
    """delta,t_U,t_negU,tdiff,in_X,event; the event marks the first grid row
    after each sign change."""
    marks = {}
    for d, kind in report.events:
        idx = int(np.searchsorted(report.delta_grid, d))
        marks[idx] = kind
    values = [v for i, row in enumerate(report.rows()) for v in (*row, marks.get(i, "none"))]
    write_csv(path, "delta,t_U,t_negU,tdiff,in_X,event", "%.17g,%.17g,%.17g,%.17g,%d,%s",
              len(report.delta_grid), values)
