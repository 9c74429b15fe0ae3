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

At delta = 0 the domain is the full window and inverting f_delta is the
resonant label solve, so the arcs, their solves and the one synthesis of
a canonical triple at every delta live in resonant.py: synthesize_detuned
(g, 0.0) is synthesize_general(g) bit for bit. This module builds the
family, the domains and the T_diff report on them. The family and the
domains' far ends are tables, solved by Newton steps on f_delta's
closed-form slope; the T_diff report's U and -U solves are laws, by
bisection as synthesis's.

Pure z-rotation targets (theta* = 0) keep phi* = 0 by convention. Their
duration curve T = sqrt(4 pi |Psi| - Psi^2)/2 has a cusp at the identity,
the monotone-arc construction above does not apply, and synthesis takes
the smallest valid root of the quadratic that f_delta = psi* squares to
(resonant._z_law), or at delta = 0 the label lambda* itself.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# propagate_law, euler_from_gate, label_for_phi0 and synthesize_general are not
# called here but stay importable as detuned.<name>: perfbench/tracer.py wraps them
from .dynamics import propagate_law, write_csv  # noqa: F401
from .errors import DomainError
from .resonant import (
    SynthesisResult,
    _domain_arc,
    _domain_arcs,
    _f_target,
    _full_arc,
    _is_full_window,
    _solve_arcs,
    _solve_f,
    _synthesize_canonical,
    label_for_phi0,  # noqa: F401
    synthesize_general,  # noqa: F401
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
)

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

    Each entry (and `solve`'s) is solved to 1e-12 in the label by Newton
    steps on the label's closed-form slope in phi0: within that tolerance
    of the resonant bisection of the same label, not on its float. Each
    solve starts at the inverse cubic Hermite interpolant, in the cell
    holding its label, of a label table at 65 uniform phi0 over the window
    and the label's closed-form slopes there (exact map values, the
    window's closed-form ends at its ends), or at the cell's secant where
    the cubic leaves the cell, and closes in 2.0 map evaluations on the
    paper's target (7.4 from the bracket's midpoint). `solve` takes the
    same seed from the 6 table nodes its cell search visits, so its
    result is the entry's bit for bit at a tabulated label.
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
    arc = _domain_arc(theta_star, phi_star, 0.0)
    _, tf, p2, _, phi0 = _solve_f(arc, min(max(psi_label, lo), hi), 1e-12, True)
    return phi0, p2, tf


def build_psi_family(theta_star: float, phi_star: float,
                     resolution: int = 1024) -> PsiFamily:
    """Tabulate (phi0, p2, duration) on a uniform label grid of resolution
    points, an integer (Python's or numpy's) of at least 256; theta* must
    lie in [0, pi] and phi* be finite."""
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise DomainError(f"resolution = {resolution!r} must be an integer") from None
    if resolution < 256:
        raise DomainError("resolution must be at least 256")
    if not (0.0 <= theta_star <= math.pi and math.isfinite(phi_star)):
        raise DomainError(f"theta* = {theta_star!r} must lie in [0, pi] and "
                          f"phi* = {phi_star!r} be finite")
    if theta_star < POLAR_THETA_TOL and phi_star != 0.0:
        raise DomainError("z-rotation families use the phi* = 0 convention")
    labels = np.linspace(-phi_star - TWO_PI, -phi_star + TWO_PI, resolution)
    if theta_star < POLAR_THETA_TOL:
        phi0, p2, dur = np.array([(0.0, *z_rotation_parameters(lab))
                                  for lab in labels.tolist()]).T
    else:
        # _control_at_label at every label, by one array solve
        _, dur, p2, _, phi0 = _solve_arcs(_domain_arc(theta_star, phi_star, 0.0), labels,
                                          1e-12, True)
    return PsiFamily(theta_star, phi_star, labels, phi0, p2, dur)


# ---------------------------------------------------------------------------
# optimal domain
# ---------------------------------------------------------------------------

def _check_detunings(*deltas) -> None:
    """DomainError naming the first delta whose 2 pi |delta| is not finite."""
    for d in deltas:
        if not math.isfinite(2.0 * math.pi * d):
            raise DomainError(f"detuning delta = {d!r}: 2 pi |delta| must be finite")


class OptimalDomain(NamedTuple):
    """Arc [psi_min, psi_max] of labels that stay time optimal at this
    detuning, with psi_bullet the stationary end when the arc is strict.
    A NamedTuple, as the tables build one per detuning: immutable, equal
    field by field.

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
        return bool(_in_domain(psi_label, self.psi_min, self.psi_max, self.wrapped,
                               self.phi_star, tol))


def _in_domain(psi_label: float, psi_min, psi_max, wrapped, phi_star: float,
               tol: float = 1e-9):
    """OptimalDomain.contains for one label, on one domain's bounds and
    wrapped flag or on arrays of them at one phi*: a label outside the
    window is first mapped into it mod 4pi, and a wrapped arc also holds
    the label's 4pi shifts."""
    x = psi_label
    if x < -phi_star - TWO_PI - tol or x > -phi_star + TWO_PI + tol:
        x = -phi_star + wrap_4pi(x + phi_star)
    lo, hi = psi_min - tol, psi_max + tol
    return (((lo <= x) & (x <= hi)) |
            (wrapped & (((lo <= x + FOUR_PI) & (x + FOUR_PI <= hi)) |
                        ((lo <= x - FOUR_PI) & (x - FOUR_PI <= hi)))))


def _grid_domains(theta_star: float, phi_star: float, grid: np.ndarray, psis=()):
    """The optimal domain at every delta of the grid, and _solve_f's roots
    of every psi* in psis on it: the strict arcs' far ends by one Newton
    array solve, as optimal_domain's, and the lifted targets by one
    bisection array solve, as synthesis's. It returns the arcs as
    _domain_arcs' columns, their (n, 2) lifted bounds [psi_min, psi_max],
    and (label, tf) arrays of shape (len(psis), n)."""
    arc = _domain_arcs(theta_star, phi_star, grid)
    n = grid.size
    strict = np.flatnonzero(~np.isnan(arc.far))
    far = _solve_arcs(arc.rows(strict), arc.far[strict], newton=True)[0]
    rows = np.tile(np.arange(n), len(psis))
    f = _f_target(np.repeat(np.asarray(psis, dtype=float), n), arc.f_min[rows], arc.f_max[rows])
    label, tf, *_ = _solve_arcs(arc.rows(rows), f)
    # a strict arc's far end is psi_min for delta > 0, else psi_max
    bounds = np.empty((n, 2))
    bounds[:] = (-phi_star - TWO_PI, -phi_star + TWO_PI)
    psi_b, up = arc.psi_b[strict], grid[strict] > 0.0
    bounds[strict, 0] = np.where(up, far, psi_b)
    bounds[strict, 1] = np.where(up, psi_b, far)
    return arc, bounds, *(v.reshape(-1, n) for v in (label, tf))


def optimal_domain(theta_star: float, phi_star: float, delta: float) -> OptimalDomain:
    """Optimal label arc for fixed (theta*, phi*) and detuning delta.

    theta* must lie in (0, pi], phi* be finite and 2 pi |delta| finite;
    z-rotation targets have a cusp in the duration curve and are solved in
    closed form by synthesize_detuned. A full window (delta = 0 or |delta|
    <= tan(theta*/2)) comes in closed form, its bounds and f-range from
    the window ends' long great-circle arc: no arc object, no solve, no map
    call. A strict arc's far end (psi_min for delta > 0, psi_max for
    delta < 0) is solved here alone, by one scalar Newton pass (`_solve_f`:
    each step one label_for_phi0 call, the slope formed beside it) to 1e-10
    in f_delta from the root of f_delta's quadratic model at the next
    stationary label, beside which it lies: synthesis needs only the
    stationary end, which fixes the arc's f-range.
    """
    if not (POLAR_THETA_TOL <= theta_star <= math.pi + 1e-12):
        raise DomainError("theta* must lie in (0, pi]")
    if not math.isfinite(phi_star):
        raise DomainError(f"phi* = {phi_star!r} must be finite")
    _check_detunings(delta)
    if _is_full_window(delta, math.tan(theta_star / 2.0)):
        _, _, f_max, f_min = _full_arc(theta_star, phi_star, delta)
        return OptimalDomain(-phi_star - TWO_PI, -phi_star + TWO_PI, None, theta_star, phi_star,
                             delta, False, f_min, f_max)
    arc = _domain_arc(theta_star, phi_star, delta)
    far = _solve_f(arc, arc.far, newton=True)[0]
    lo, hi = (far, arc.psi_b) if delta > 0.0 else (arc.psi_b, far)
    return OptimalDomain(lo, hi, arc.psi_b, theta_star, phi_star, delta, arc.wrapped,
                         arc.f_min, arc.f_max)


# ---------------------------------------------------------------------------
# detuned synthesis
# ---------------------------------------------------------------------------

def synthesize_detuned(target: EulerTarget | UnitGate, delta: float,
                       verify: bool = True) -> SynthesisResult:
    """Time-optimal law reaching the target under constant detuning delta.

    The law reuses the resonant control of the selected label (its drive
    phase picks up the extra 2*delta*t slope), so only psi is shifted at
    arrival, by -2*delta*tf. At delta = 0 it is synthesize_general's law.
    A delta with 2 pi |delta| not finite raises DomainError.
    """
    _check_detunings(delta)
    return _synthesize_canonical(canonical_euler(target), delta, verify)


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


# the most predicted zero crossings a T_diff report lists, about t_pair span / pi
_MAX_CROSSINGS = 2 ** 20


def tdiff_analysis(target: EulerTarget | UnitGate, delta_grid) -> TdiffReport:
    """Compare optimal durations for U and -U across a sorted detuning grid.

    Sign changes of t_U - t_negU inside X are genuine zero crossings at
    delta = -(phi* + psi* +- pi + 4 pi n) / (2 T(-phi* +- pi)); outside X
    they are jumps where one optimal label hits a domain boundary; one
    across exact zeros sits at the zero (a run's middle), and a zero
    touched from one side, or at a grid end, is none. A grid whose span
    holds more than 2**20 zero crossings raises DomainError.
    """
    e = canonical_euler(target)
    if e.theta < POLAR_THETA_TOL:
        raise DomainError("tdiff analysis needs theta* > 0")
    grid = np.asarray(delta_grid, dtype=float)
    if (grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid))
            or np.any(np.diff(grid) <= 0.0)):
        raise DomainError("delta grid must be non-empty, finite, sorted and 1-d")
    # _check_detunings' rule over the whole grid at once
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(2.0 * math.pi * grid))
    if bad.size:
        _check_detunings(float(grid[bad[0]]))
    e_neg = EulerTarget(negated_psi(e.psi), e.theta, e.phi)
    psi_plus, psi_minus = -e.phi + math.pi, -e.phi - math.pi
    # at every delta, 0 included, the domain's strict end (one Newton array
    # solve) and _solve_target's inversions of f_delta for U and -U (one
    # bisection array solve)
    arc, bounds, (psi_u, psi_n), (t_u, t_n) = _grid_domains(e.theta, e.phi, grid,
                                                            (e.psi, e_neg.psi))
    in_x = (_in_domain(psi_plus, *bounds.T, arc.wrapped, e.phi) &
            _in_domain(psi_minus, *bounds.T, arc.wrapped, e.phi))
    # duration of the symmetric pair (equal by symmetry)
    _, _, t_pair = _control_at_label(e.theta, e.phi, psi_plus)
    ranges = []
    for sign in (+1.0, -1.0):
        c = e.phi + e.psi + sign * math.pi
        # -(c + 4 pi n) / (2 t_pair) within the grid range
        n_lo = math.ceil((-2.0 * t_pair * float(grid[-1]) - c) / FOUR_PI - 1e-9)
        n_hi = math.floor((-2.0 * t_pair * float(grid[0]) - c) / FOUR_PI + 1e-9)
        ranges.append((c, n_lo, n_hi))
    count = sum(max(0, n_hi - n_lo + 1) for _, n_lo, n_hi in ranges)
    if count > _MAX_CROSSINGS:
        raise DomainError(f"delta grid [{grid[0]:.6g}, {grid[-1]:.6g}] holds {count} predicted "
                          f"zero crossings, more than {_MAX_CROSSINGS}")
    # + 0.0 turns a -0.0 into 0.0
    predicted = sorted(set(round(-(c + FOUR_PI * nn) / (2.0 * t_pair), 12) + 0.0
                           for c, n_lo, n_hi in ranges for nn in range(n_lo, n_hi + 1)))
    events = []
    diff = t_u - t_n
    # sign changes between rows of nonzero difference, across any exact zeros
    nonzero = np.flatnonzero(diff != 0.0).tolist()
    for i, j in zip(nonzero, nonzero[1:]):
        if diff[i] * diff[j] >= 0.0:
            continue
        mid = 0.5 * (grid[i] + grid[i + 1]) if j == i + 1 else 0.5 * (grid[i + 1] + grid[j - 1])
        kind = "zero_cross" if (in_x[i] and in_x[j]) else "boundary_jump"
        events.append((float(mid), kind))
    return TdiffReport(grid, t_u, t_n, in_x, events, predicted, psi_u, psi_n, bounds)


def write_tdiff_csv(report: TdiffReport, path) -> None:
    """delta,t_U,t_negU,tdiff,in_X,event; the event marks the first grid row
    at or after each sign change: the zero row of one across an exact zero."""
    marks = {}
    for d, kind in report.events:
        idx = int(np.searchsorted(report.delta_grid, d))
        marks[idx] = kind
    table = np.column_stack([report.delta_grid, report.t_U, report.t_negU,
                             report.t_U - report.t_negU])
    write_csv(path, "delta,t_U,t_negU,tdiff,in_X,event", table,
              [f"{in_x:d},{marks.get(i, 'none')}" for i, in_x in enumerate(report.in_X.tolist())])
