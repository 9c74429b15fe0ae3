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

import math
from dataclasses import dataclass

import numpy as np

# propagate_law and euler_from_gate are not called here but stay importable
# as detuned.<name>: perfbench/tracer.py wraps those bindings
from .dynamics import ExtremalLaw, propagate_law  # noqa: F401
from .errors import DomainError, NoConvergence, NoStationaryPoint, TargetUnreached
from .resonant import (
    SynthesisResult,
    _bisect,
    _roots_mod_4pi,
    _solve_label,
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

    @property
    def window(self) -> tuple[float, float]:
        return (-self.phi_star - TWO_PI, -self.phi_star + TWO_PI)

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
    phi0 = np.empty(resolution)
    p2 = np.empty(resolution)
    dur = np.empty(resolution)
    for i, lab in enumerate(labels):
        phi0[i], p2[i], dur[i] = _control_at_label(theta_star, phi_star, float(lab))
    return PsiFamily(theta_star, phi_star, labels, phi0, p2, dur)


def endpoint_map(family: PsiFamily, delta: float, psi=None):
    """f_delta over the family table (or at one label): Psi - 2 delta T."""
    if psi is None:
        return family.psi - 2.0 * delta * family.duration
    _, _, tf = family.solve(float(psi))
    return float(psi) - 2.0 * delta * tf


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


def _f_of_phi0(phi0: float, theta_star: float, phi_star: float, delta: float
               ) -> tuple[float, float, float, float]:
    """(f, label, tf, p2) at one initial azimuth."""
    label, tf, p2, _ = label_for_phi0(phi0, theta_star, phi_star)
    return label - 2.0 * delta * tf, label, tf, p2


def _bisect_f(target_f: float, lo: float, hi: float, theta_star: float,
              phi_star: float, delta: float) -> float:
    """phi0 in [lo, hi] with f(phi0) = target_f; f decreasing in phi0 on
    any monotone-increasing label arc."""
    def g(phi0):
        label, tf, _, _ = label_for_phi0(phi0, theta_star, phi_star)
        return label - 2.0 * delta * tf - target_f

    return _bisect(g, lo, hi, g(lo), g(hi), _F_SOLVE_TOL, slack=1e-9)


def optimal_domain(theta_star: float, phi_star: float, delta: float) -> OptimalDomain:
    """Optimal label arc for fixed (theta*, phi*) and detuning delta.

    theta* must lie in (0, pi]; z-rotation targets have a cusp in the
    duration curve and are handled by root scanning in synthesize_detuned.
    """
    if not (POLAR_THETA_TOL <= theta_star <= math.pi + 1e-12):
        raise DomainError("theta* must lie in (0, pi]")
    if delta == 0.0 or abs(delta) <= abs(math.tan(theta_star / 2.0)):
        f_lo = _f_of_phi0(phi_star + math.pi, theta_star, phi_star, delta)[0]
        f_hi = _f_of_phi0(phi_star - math.pi, theta_star, phi_star, delta)[0]
        return OptimalDomain(-phi_star - TWO_PI, -phi_star + TWO_PI, None,
                             theta_star, phi_star, delta,
                             wrapped=False, f_min=f_lo, f_max=f_hi)
    if delta > 0.0:
        return _strict_domain_positive(theta_star, phi_star, delta)
    return _mirrored(_strict_domain_positive(theta_star, phi_star, -delta))


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


def _strict_domain_positive(theta_star: float, phi_star: float,
                            delta: float) -> OptimalDomain:
    """Strict sub-arc for delta > |tan(theta*/2)|, ending at psi_bullet."""
    thr = math.tan(theta_star / 2.0)
    ratio = thr / delta
    if ratio >= 1.0:
        raise NoStationaryPoint("stationary label requires |delta| > tan(theta*/2)")
    # stationary label closest to -phi*: p2 = 1/delta on the rising branch
    phi0_b = phi_star - math.asin(ratio)
    f_b, psi_b, t_b, p2_b = _f_of_phi0(phi0_b, theta_star, phi_star, delta)
    if abs(p2_b - 1.0 / delta) > 1e-8:
        raise NoStationaryPoint(
            f"stationary solve inconsistent: p2 = {p2_b:.9g} vs 1/delta = {1.0 / delta:.9g}"
        )
    lo = -phi_star - TWO_PI
    f_lo = _f_of_phi0(phi_star + math.pi, theta_star, phi_star, delta)[0]
    if f_b - FOUR_PI >= f_lo - 1e-12:
        # arc stays inside the window: [f^-1(f_b - 4pi), psi_bullet]
        phi0_min = _bisect_f(f_b - FOUR_PI, phi0_b, phi_star + math.pi,
                             theta_star, phi_star, delta)
        psi_min = label_for_phi0(phi0_min, theta_star, phi_star)[0]
        return OptimalDomain(psi_min, psi_b, psi_b, theta_star, phi_star, delta,
                             wrapped=False, f_min=f_b - FOUR_PI, f_max=f_b)
    # arc wraps through the identified ends: the lower part lives on the
    # rightmost increasing piece, beyond the second stationary label
    phi0_b2 = phi_star - math.pi + math.asin(ratio)
    phi0_min = _bisect_f(f_b, phi_star - math.pi, phi0_b2,
                         theta_star, phi_star, delta)
    psi_min = label_for_phi0(phi0_min, theta_star, phi_star)[0] - FOUR_PI
    return OptimalDomain(psi_min, psi_b, psi_b, theta_star, phi_star, delta,
                         wrapped=True, f_min=f_b - FOUR_PI, f_max=f_b)


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
    dom = optimal_domain(e.theta, e.phi, delta)
    # unique lift of psi* into the arc's f-range (width 4pi)
    n = math.floor((dom.f_max - e.psi) / FOUR_PI)
    v = e.psi + FOUR_PI * n
    if v < dom.f_min - 1e-9:
        v += FOUR_PI
    if not (dom.f_min - 1e-9 <= v <= dom.f_max + 1e-9):
        raise NoConvergence(f"no 4pi lift of psi* fits the domain range "
                            f"[{dom.f_min:.6g}, {dom.f_max:.6g}]")
    if dom.wrapped and v < _f_of_phi0(e.phi + math.pi, e.theta, e.phi, delta)[0] - 1e-12:
        # lower wrapped piece: invert at the raw (unlifted) f value
        phi0_b2 = e.phi - math.pi + math.asin(math.tan(e.theta / 2.0) / delta)
        phi0 = _bisect_f(v + FOUR_PI, e.phi - math.pi, phi0_b2, e.theta, e.phi, delta)
        lift = FOUR_PI
    else:
        lo_phi0 = e.phi - math.pi if dom.psi_bullet is None else \
            e.phi - math.asin(math.tan(e.theta / 2.0) / delta)
        phi0 = _bisect_f(v, lo_phi0, e.phi + math.pi, e.theta, e.phi, delta)
        lift = 0.0
    label, tf, _, _ = label_for_phi0(phi0, e.theta, e.phi)
    return label - lift, tf, dom


def synthesize_detuned(target: EulerTarget | UnitGate, delta: float,
                       verify: bool = True) -> SynthesisResult:
    """Time-optimal law reaching the target under constant detuning delta.

    The law reuses the resonant control of the selected label (its drive
    phase picks up the extra 2*delta*t slope), so only psi is shifted at
    arrival, by -2*delta*tf. A non-finite delta raises DomainError.
    """
    if not math.isfinite(delta):
        raise DomainError(f"detuning delta = {delta!r} must be finite")
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
    e_neg = EulerTarget(negated_psi(e.psi), e.theta, e.phi)
    n = grid.size
    t_u = np.empty(n)
    t_n = np.empty(n)
    in_x = np.zeros(n, dtype=bool)
    psi_u = np.empty(n)
    psi_n = np.empty(n)
    bounds = np.empty((n, 2))
    psi_plus = -e.phi + math.pi
    psi_minus = -e.phi - math.pi
    for i, d in enumerate(grid):
        d = float(d)
        pu, tu, dom_u = _solve_detuned(e, d) if d != 0.0 else _resonant_entry(e)
        pn, tn, _ = _solve_detuned(e_neg, d) if d != 0.0 else _resonant_entry(e_neg)
        t_u[i], t_n[i] = tu, tn
        psi_u[i], psi_n[i] = pu, pn
        if dom_u is None:
            lo, hi = -e.phi - TWO_PI, -e.phi + TWO_PI
            in_x[i] = True
        else:
            lo, hi = dom_u.psi_min, dom_u.psi_max
            in_x[i] = dom_u.contains(psi_plus) and dom_u.contains(psi_minus)
        bounds[i] = (lo, hi)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("delta,t_U,t_negU,tdiff,in_X,event\n")
        for i, (d, tu, tn, td, inx) in enumerate(report.rows()):
            ev = marks.get(i, "none")
            fh.write(f"{d:.17g},{tu:.17g},{tn:.17g},{td:.17g},{int(inx)},{ev}\n")
