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
    increasing, ending at the stationary label closest to -phi* (where
    p2 = 1/delta). Its f-range is exactly 4pi wide. The arc may wrap
    through the identified ends of the label window; bounds are then
    reported lifted by 4pi so psi_min < psi_max always holds.

Negative detuning is handled by reflecting azimuths about phi*, which maps
(delta, psi*) to (-delta, -2 phi* - psi*) and labels to -2 phi* - Psi.

Pure z-rotation targets (theta* = 0) keep phi* = 0 by convention. Their
duration-vs-label curve has a cusp at the identity, the monotone-arc
construction above does not apply, and synthesis falls back to scanning
all f_delta roots and taking the fastest.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# propagate_law and euler_from_gate are not called here but stay importable
# as detuned.<name>: perfbench/tracer.py wraps those bindings
from .dynamics import ExtremalLaw, propagate_law, write_csv  # noqa: F401
from .errors import DomainError, NoConvergence, NoStationaryPoint, TargetUnreached
from .resonant import (
    SynthesisResult,
    _bisect,
    _bisect_many,
    _f_gaps,
    _roots_mod_4pi,
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
    wrap_4pi,
    wrap_pi,
)

_F_SOLVE_TOL = 1e-10
# _bisect's slack, per unit of 1 + 2 delta, on brackets with a stationary
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


def _z_label_params(psi_label: float) -> tuple[float, float, float]:
    p2, tf = z_rotation_parameters(psi_label)
    return 0.0, p2, tf


def _control_at_label(theta_star: float, phi_star: float,
                      psi_label: float) -> tuple[float, float, float]:
    lo, hi = -phi_star - TWO_PI, -phi_star + TWO_PI
    if not (lo - 1e-9 <= psi_label <= hi + 1e-9):
        raise DomainError(f"label {psi_label:.12g} outside [{lo:.12g}, {hi:.12g}]")
    if theta_star < POLAR_THETA_TOL:
        return _z_label_params(psi_label)
    phi0 = _solve_label(min(max(psi_label, lo), hi), theta_star, phi_star, 1e-12)
    _, tf, p2, _ = label_for_phi0(phi0, theta_star, phi_star)
    return phi0, p2, tf


def build_psi_family(theta_star: float, phi_star: float,
                     resolution: int = 1024) -> PsiFamily:
    """Tabulate (phi0, p2, duration) on a uniform label grid."""
    if resolution < 256:
        raise DomainError("resolution must be at least 256")
    if theta_star < POLAR_THETA_TOL and phi_star != 0.0:
        raise DomainError("z-rotation families use the phi* = 0 convention")
    labels = np.linspace(-phi_star - TWO_PI, -phi_star + TWO_PI, resolution)
    if theta_star < POLAR_THETA_TOL:
        rows = [_z_label_params(lab) for lab in labels.tolist()]
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
    """An optimal domain as phi0 brackets (lo, hi, f_delta at lo, at hi) on
    which f_delta falls: `top` runs from the highest label to phi* + pi, and
    `low` is the wrapped part, past the second stationary label and lifted
    by 4pi. A strict arc's psi_min (nan in dom until solved) is the root of
    `end`: (f value, bracket, lift)."""

    dom: OptimalDomain
    top: tuple[float, float, float, float]
    low: tuple[float, float, float, float] | None
    end: tuple[float, ...] | None
    slack: float


def _domain_arc(theta_star: float, phi_star: float, delta: float) -> _Arc:
    """The _Arc of optimal_domain: the full window at delta, or the strict
    arc at |delta|, which optimal_domain mirrors for delta < 0."""
    lo, hi = phi_star - math.pi, phi_star + math.pi

    def f_at(phi0, d, label_map=_window_end):
        label, tf = label_map(phi0, theta_star, phi_star)[:2]
        return label - 2.0 * d * tf

    if delta == 0.0 or abs(delta) <= abs(math.tan(theta_star / 2.0)):
        f_min, f_max = f_at(hi, delta), f_at(lo, delta)
        return _Arc(OptimalDomain(-phi_star - TWO_PI, -phi_star + TWO_PI, None, theta_star,
                                  phi_star, delta, wrapped=False, f_min=f_min, f_max=f_max),
                    (lo, hi, f_max, f_min), None, None, 1e-9)
    delta = abs(delta)
    ratio = math.tan(theta_star / 2.0) / delta
    if ratio >= 1.0:
        raise NoStationaryPoint("stationary label requires |delta| > tan(theta*/2)")
    # stationary label closest to -phi*: p2 = 1/delta on the rising branch
    phi0_b = phi_star - math.asin(ratio)
    psi_b, tf_b, p2_b, _ = label_for_phi0(phi0_b, theta_star, phi_star)
    f_b = psi_b - 2.0 * delta * tf_b
    if abs(p2_b - 1.0 / delta) > 1e-8:
        raise NoStationaryPoint(
            f"stationary solve inconsistent: p2 = {p2_b:.9g} vs 1/delta = {1.0 / delta:.9g}"
        )
    top = (phi0_b, hi, f_b, f_at(hi, delta))
    dom = OptimalDomain(math.nan, psi_b, psi_b, theta_star, phi_star, delta,
                        wrapped=f_b - FOUR_PI < top[3] - 1e-12, f_min=f_b - FOUR_PI, f_max=f_b)
    slack = _STATIONARY_SLACK * (1.0 + 2.0 * delta)
    if not dom.wrapped:
        # [f^-1(f_b - 4pi), psi_bullet] inside the window
        return _Arc(dom, top, None, (dom.f_min, *top, 0.0), slack)
    # the arc wraps through the identified ends: its lower part lives on the
    # rightmost increasing piece, beyond the second stationary label
    phi0_b2 = lo + math.asin(ratio)
    low = (lo, phi0_b2, f_at(lo, delta), f_at(phi0_b2, delta, label_for_phi0))
    return _Arc(dom, top, low, (f_b, *low, FOUR_PI), slack)


def _solve_f(arc: _Arc, f: float, lo: float, hi: float, f_lo: float, f_hi: float,
             lift: float) -> tuple[float, float]:
    """(label - lift, tf) at the phi0 in [lo, hi] where f_delta = f."""
    th, ph, d = arc.dom.theta_star, arc.dom.phi_star, arc.dom.delta
    k = _theta_factors(th)

    def g(phi0):
        label, tf, _, _ = label_for_phi0(phi0, th, ph, k)
        return label - 2.0 * d * tf - f

    phi0 = _bisect(g, lo, hi, f_lo - f, f_hi - f, _F_SOLVE_TOL, arc.slack)
    label, tf, _, _ = label_for_phi0(phi0, th, ph, k)
    return label - lift, tf


def _solve_arcs(theta_star: float, phi_star: float, arcs: list[_Arc],
                brackets: list[tuple[_Arc, tuple[float, ...]]]):
    """Each arc's OptimalDomain, and (label - lift, tf) arrays for the (arc,
    _f_bracket) pairs: _solve_f's values, from one _bisect_many solve."""
    rows = [(a, a.end) for a in arcs if a.end] + brackets
    d, slack, f, lo, hi, f_lo, f_hi, lift = np.array(
        [(a.dom.delta, a.slack, *b) for a, b in rows]).reshape(-1, 8).T
    phi0 = _bisect_many(_f_gaps(theta_star, phi_star, d, f, _F_SOLVE_TOL), lo, hi,
                        f_lo - f, f_hi - f, _F_SOLVE_TOL, slack)
    fac = _theta_factors(theta_star)
    label, tf = np.array([label_for_phi0(x, theta_star, phi_star, fac)[:2]
                          for x in phi0.tolist()]).reshape(-1, 2).T
    psi = label - lift
    ends = iter(psi.tolist())
    k = len(rows) - len(brackets)
    return [replace(a.dom, psi_min=next(ends)) if a.end else a.dom for a in arcs], psi[k:], tf[k:]


def _scalar_domain(arc: _Arc) -> OptimalDomain:
    return replace(arc.dom, psi_min=_solve_f(arc, *arc.end)[0]) if arc.end else arc.dom


def optimal_domain(theta_star: float, phi_star: float, delta: float) -> OptimalDomain:
    """Optimal label arc for fixed (theta*, phi*) and detuning delta.

    theta* must lie in (0, pi]; z-rotation targets have a cusp in the
    duration curve and are handled by root scanning in synthesize_detuned.
    """
    if not (POLAR_THETA_TOL <= theta_star <= math.pi + 1e-12):
        raise DomainError("theta* must lie in (0, pi]")
    arc = _domain_arc(theta_star, phi_star, delta)
    dom = _scalar_domain(arc)
    return _mirrored(dom) if delta < 0.0 and arc.end else dom


def _mirrored(m: OptimalDomain) -> OptimalDomain:
    """The domain at -delta: reflecting azimuths about phi* maps labels to
    -2 phi* - psi within the same family and flips the detuning sign."""
    c = 2.0 * m.phi_star
    return OptimalDomain(
        psi_min=-m.psi_max - c,
        psi_max=-m.psi_min - c,
        psi_bullet=None if m.psi_bullet is None else -m.psi_bullet - c,
        theta_star=m.theta_star, phi_star=m.phi_star, delta=-m.delta,
        wrapped=m.wrapped,
        f_min=-m.f_max - c,
        f_max=-m.f_min - c,
    )


# ---------------------------------------------------------------------------
# detuned synthesis
# ---------------------------------------------------------------------------

def _law_for_label(theta_star: float, phi_star: float, psi_label: float,
                   delta: float) -> tuple[ExtremalLaw, float]:
    if theta_star < POLAR_THETA_TOL:
        _, p2, tf = _z_label_params(psi_label)
        return ExtremalLaw(phi0=0.0, p2=p2, delta=delta, tf=tf), \
            math.copysign(TWO_PI, psi_label) if tf > 0.0 else 0.0
    phi0, p2, tf = _control_at_label(theta_star, phi_star, psi_label)
    eta = label_for_phi0(phi0, theta_star, phi_star)[3]
    return ExtremalLaw(phi0=wrap_pi(phi0), p2=p2, delta=delta, tf=tf), eta


def _solve_detuned(e: EulerTarget, delta: float) -> tuple[float, float, OptimalDomain | None]:
    """(optimal label, duration) for the canonical target under delta."""
    if e.theta < POLAR_THETA_TOL:
        psi, tf = _scan_z_roots(e.psi, delta)
        return psi, tf, None
    if delta < 0.0:
        # mirror about the phi* meridian: labels and spin targets negate
        # (up to the -2 phi* shift), detuning flips sign
        psi_m, tf, dom_m = _solve_detuned(
            EulerTarget(wrap_4pi(-2.0 * e.phi - e.psi), e.theta, e.phi), -delta)
        return -psi_m - 2.0 * e.phi, tf, _mirrored(dom_m)
    arc = _domain_arc(e.theta, e.phi, delta)
    dom = _scalar_domain(arc)
    psi, tf = _solve_f(arc, *_f_bracket(e, arc))
    return psi, tf, dom


def _f_bracket(e: EulerTarget, arc: _Arc) -> tuple[float, ...]:
    """(f value, phi0 bracket, f_delta at its ends, lift) for the canonical
    target on the arc (delta > 0): the label is the root of f_delta = f
    value in the bracket, minus lift."""
    # unique lift of psi* into the arc's f-range (width 4pi)
    n = math.floor((arc.dom.f_max - e.psi) / FOUR_PI)
    v = e.psi + FOUR_PI * n
    if v < arc.dom.f_min - 1e-9:
        v += FOUR_PI
    if not (arc.dom.f_min - 1e-9 <= v <= arc.dom.f_max + 1e-9):
        raise NoConvergence(f"no 4pi lift of psi* fits the domain range "
                            f"[{arc.dom.f_min:.6g}, {arc.dom.f_max:.6g}]")
    if arc.low is not None and v < arc.top[3] - 1e-12:
        # lower wrapped piece: invert at the raw (unlifted) f value
        return (v + FOUR_PI, *arc.low, FOUR_PI)
    return (v, *arc.top, 0.0)


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
    psi_label, tf, _ = _solve_detuned(e, delta)
    base = psi_label if e.theta < POLAR_THETA_TOL else \
        -e.phi + wrap_4pi(psi_label + e.phi)
    law, eta = _law_for_label(e.theta, e.phi, base, delta)
    return SynthesisResult(law, e, _verify(law, e, verify), eta)


def _scan_z_roots(lam: float, delta: float, grid: int = 4096) -> tuple[float, float]:
    """All labels with f_delta = lam mod 4pi over the z family; fastest wins."""
    labels = np.linspace(-TWO_PI, TWO_PI, grid)
    absl = np.abs(labels)
    tf = 0.5 * np.sqrt(np.maximum(0.0, 4.0 * math.pi * absl - absl * absl))

    def f(label):
        return label - 2.0 * delta * z_rotation_parameters(label)[1]

    roots = _roots_mod_4pi(f, labels, labels - 2.0 * delta * tf, lam, 0.0)
    if not roots:
        raise TargetUnreached("no z-family control reaches the target")
    root = min(roots, key=lambda r: z_rotation_parameters(r)[1])
    return root, z_rotation_parameters(root)[1]


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


def negated_psi(psi_star: float) -> float:
    """Spin label of -U for the same (theta*, phi*): psi* shifted by 2pi."""
    return wrap_4pi(psi_star + TWO_PI)


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
    if grid.ndim != 1 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0.0):
        raise DomainError("delta grid must be finite, sorted and 1-d")
    big = [d for d in grid.tolist() if not math.isfinite(2.0 * math.pi * d)]
    if big:
        raise DomainError(f"detuning delta = {big[0]!r}: 2 pi |delta| must be finite")
    e_neg = EulerTarget(negated_psi(e.psi), e.theta, e.phi)
    n = grid.size
    t_u, t_n, psi_u, psi_n = np.empty((4, n))
    in_x = np.ones(n, dtype=bool)
    bounds = np.tile((-e.phi - TWO_PI, -e.phi + TWO_PI), (n, 1))     # the full window at 0
    psi_plus, psi_minus = -e.phi + math.pi, -e.phi - math.pi
    for i in np.flatnonzero(grid == 0.0).tolist():
        psi_u[i], t_u[i], _ = _resonant_entry(e)
        psi_n[i], t_n[i], _ = _resonant_entry(e_neg)
    # _solve_detuned for U and -U at every nonzero delta: the domains' strict
    # ends and the inversions of f_delta in one array solve
    nz = np.flatnonzero(grid != 0.0)
    ds = grid[nz].tolist()
    arcs = [_domain_arc(e.theta, e.phi, abs(d)) for d in ds]
    # negative detuning: mirror the targets about the phi* meridian
    mirror = [EulerTarget(wrap_4pi(-2.0 * e.phi - ek.psi), e.theta, e.phi) for ek in (e, e_neg)]
    doms, psi, tf = _solve_arcs(e.theta, e.phi, arcs, [
        (a, _f_bracket(ek, a)) for d, a in zip(ds, arcs) for ek in ((e, e_neg) if d > 0.0 else mirror)])
    psi = np.where(np.repeat(grid[nz], 2) > 0.0, psi, -psi - 2.0 * e.phi)
    psi_u[nz], psi_n[nz] = psi.reshape(-1, 2).T          # U and -U alternate
    t_u[nz], t_n[nz] = tf.reshape(-1, 2).T
    for i, d, dom in zip(nz.tolist(), ds, doms):
        dom_u = dom if d > 0.0 else _mirrored(dom)
        bounds[i] = (dom_u.psi_min, dom_u.psi_max)
        in_x[i] = dom_u.contains(psi_plus) and dom_u.contains(psi_minus)
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


def _resonant_entry(e: EulerTarget) -> tuple[float, float, None]:
    r = synthesize_general(e, verify=False)
    # at zero detuning the optimal label is psi* itself, lifted into the window
    base = -e.phi + wrap_4pi(e.psi + e.phi)
    return base, r.law.tf, None


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
