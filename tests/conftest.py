"""Shared fixtures and independent numerical oracles for the test suite.

The brute-force minimum-time oracles live here: `brute_force_min_time`
(zero detuning) and `scan_family_min_time` (any detuning). Both scan a
whole control family on a grid for arrivals at the target with the
mod-4pi root scan `_roots_mod_4pi`, and take the fastest; neither uses
the solvers' 4pi bookkeeping, the optimal-domain construction or the
closed form of the detuned z family. `_roots_mod_4pi` and the z-family
scan `_scan_z_roots` are the package's former solver for detuned
z-rotations; it refines its roots by its own sign bisection
(`_sign_bisect`), so these oracles share no root finder with the
solvers. `first_z_crossing` bounds that closed form's label from above by
scanning f_delta on a grid geometric in |label|.

`crossing_eta_oracle` is the label map's former arrival test, which
compared the circle's azimuth at both latitude crossings with phi*.
`steering_gaps_oracle` is the array label map's former numpy mode, with
the f_delta gap formed from its values: the grid bisection's steering
step must reproduce it bit for bit.

The sweep oracles are the package's former per-point sweep loops; the
array sweeps must match them bit for bit. `select_faster_oracle` is the
former U/-U selection, which canonicalized -U from the negated gate
instead of deriving its Euler triple from U's.

The CSV oracles are the package's former per-row file code: a scalar
closed-form trajectory point, f-string writers for the pulse, trajectory
and sweep files, and the line-by-line pulse reader. The block writers and
the one-conversion reader must match them byte for byte and error for
error.

The Hopf-chart, adjoint and gate-view oracles are former package code
that only tests called: `propagate_hopf` (RK4 in the Hopf chart, with
`hopf_rates` and `PoleEncountered`), the PMP checks `adjoint_at` and
`hamiltonian_residual`, the closed-form views `trajectory_point`,
`gate_at`, `control_at` and `circle_geometry`, and the conversions
`axis_angle_from_gate`, `hopf_from_euler`, `euler_from_hopf` and
`endpoint_map`.
"""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from su2pulse import (
    DomainError,
    ExtremalLaw,
    PulseSchedule,
    TargetUnreached,
    gate_distance,
    hopf_from_gate,
    negate_gate,
    propagate_law,
    synthesize_general,
)
from su2pulse.dynamics import (DEFAULT_STEPS, _quat_mul, _segment_factors, _trajectory_rows,
                                control_phase)
from su2pulse.detuned import (
    PsiFamily,
    TdiffReport,
    _control_at_label,
    negated_psi,
    optimal_domain,
)
from su2pulse.errors import NoConvergence, Su2PulseError
from su2pulse.resonant import (_HALF_PI, _THREE_HALF_PI, _solve_target, _theta_factors,
                               label_for_phi0, target_gate, z_rotation_parameters)
from su2pulse.so3 import So3Decision, _faster, select_faster
from su2pulse.su2 import (FOUR_PI, GAUGE_TOL, POLAR_THETA_TOL, TWO_PI, EulerTarget, HopfCoords,
                          UnitGate, canonical_euler, euler_from_gate, gate_from_axis_angle,
                          gate_from_hopf, wrap_4pi, wrap_pi)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def expm2(m: np.ndarray, terms: int = 40) -> np.ndarray:
    """Series matrix exponential with scaling and squaring (2x2 oracle)."""
    m = np.asarray(m, dtype=complex)
    k = max(0, int(math.ceil(math.log2(max(1e-30, np.abs(m).max())))) + 2)
    a = m / (2 ** k)
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, terms):
        term = term @ a / n
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def euler_ode_oracle(phi0: float, p2: float, delta: float, t_end: float,
                     dt: float = 1e-5):
    """RK4 on the reduced Hamilton system in (theta1, p1, psi, phi).

    Independent of the closed form; rates: theta1' = p1,
    p1' = -p2^2 tan(theta1) sec^2(theta1), psi' = p2 (tan^2 - 1) - 2 delta,
    phi' = p2 sec^2(theta1). Starts at the pole with p1 = 1.
    """
    def rhs(s):
        t1, p1 = s[0], s[1]
        tn = math.tan(t1)
        sec2 = 1.0 + tn * tn
        return np.array([
            p1,
            -p2 * p2 * tn * sec2,
            p2 * (tn * tn - 1.0) - 2.0 * delta,
            p2 * sec2,
        ])

    n = max(1, int(round(t_end / dt)))
    h = t_end / n
    s = np.array([0.0, 1.0, -phi0, phi0])
    for _ in range(n):
        k1 = rhs(s)
        k2 = rhs(s + h / 2 * k1)
        k3 = rhs(s + h / 2 * k2)
        k4 = rhs(s + h * k3)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return {"theta1": s[0], "p1": s[1], "psi": s[2], "phi": s[3]}


def random_law(rng, delta_range=(0.0, 0.0), p2_range=(-3.0, 3.0)) -> ExtremalLaw:
    """Random extremal with duration inside one revolution of its circle."""
    p2 = float(rng.uniform(*p2_range))
    delta = float(rng.uniform(*delta_range))
    phi0 = float(rng.uniform(-math.pi, math.pi))
    sin_bar = math.sin(math.atan2(1.0, p2))
    tf = float(rng.uniform(0.1, 0.95)) * math.pi * sin_bar
    return ExtremalLaw(phi0=phi0, p2=p2, delta=delta, tf=tf)


def gamma_points(law: ExtremalLaw, t: np.ndarray) -> np.ndarray:
    """Vectorized sphere points of the projected trajectory (test-local
    reimplementation, kept independent of the package internals)."""
    tb = math.atan2(1.0, law.p2)
    sb, cb = math.sin(tb), math.cos(tb)
    eta = 2.0 * t / sb
    theta = 2.0 * np.arcsin(np.clip(sb * np.abs(np.sin(eta / 2.0)), 0.0, 1.0))
    raw = np.arctan2(-np.sin(eta % (2 * math.pi)),
                     cb * (1.0 - np.cos(eta % (2 * math.pi))))
    if abs(cb) < 1e-15:
        raw = np.where(eta % (2 * math.pi) <= math.pi, -math.pi / 2, math.pi / 2)
    elif cb < 0.0:
        raw = np.where(raw > 0.0, raw - 2 * math.pi, raw)
    phi = law.phi0 + math.pi / 2.0 + raw
    phi = np.where(eta % (2 * math.pi) < 1e-14, law.phi0, phi)
    return np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=1)


def crossing_eta_oracle(phi0: float, theta_star: float, phi_star: float) -> float:
    """The label map's former arrival test, for theta* outside both polar
    bands: the circle's azimuth at both crossings of latitude theta*
    (eta = ea and 2pi - ea), the closer one to phi* taken when its miss is
    under 1e-6 or a quarter of the other's, ea itself near tangency, and
    NoConvergence ("no circle branch arrives") otherwise."""
    s = math.sin(phi_star - phi0)
    cb = math.cos(math.atan2(1.0, s / math.tan(theta_star / 2.0)))
    arg = math.cos(theta_star) - 2.0 * s * s * math.cos(theta_star / 2.0) ** 2
    ea = math.acos(min(1.0, max(-1.0, arg)))
    d_a = abs(wrap_pi(phi0 + math.pi / 2.0 + circle_azimuth_offset(ea, cb) - phi_star))
    d_b = abs(wrap_pi(phi0 + math.pi / 2.0 + circle_azimuth_offset(TWO_PI - ea, cb) - phi_star))
    if min(d_a, d_b) < 1e-6 or min(d_a, d_b) < 0.25 * max(d_a, d_b):
        return ea if d_a <= d_b else TWO_PI - ea
    if abs(ea - math.pi) < 0.05:
        return ea
    raise NoConvergence(f"no circle branch arrives at phi* (miss {min(d_a, d_b):.3e}); "
                        f"phi0 = {phi0:.6g}, theta* = {theta_star:.6g}")


def _sign_bisect(g, a: float, b: float, ga: float, gb: float, tol: float) -> float:
    """Root of g on [a, b], over which g changes sign (ga = g(a), gb = g(b)),
    by bisection on the sign of g, with the solvers' stop rule but none of
    their code: an end with |g| <= tol is returned as it is, and the loop
    stops at |g(mid)| <= tol or a bracket narrower than 1e-15, within 200
    steps."""
    if abs(ga) <= tol:
        return a
    if abs(gb) <= tol:
        return b
    lo, hi = (a, b) if ga < gb else (b, a)     # g < 0 at lo, g > 0 at hi
    for _ in range(200):
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
    raise NoConvergence(f"bisection did not reach {tol:g} in 200 steps")


def _roots_mod_4pi(f, xs, fs, target: float, tol: float) -> list[float]:
    """Every x in [xs[0], xs[-1]] where f(x) = target mod 4pi.

    fs holds f on the grid xs. Grid points where the wrapped mismatch is
    exactly zero are roots as they are; a sign change across a grid step
    is refined by `_sign_bisect`, unless the step is pi or more: that is a
    mod-4pi wrap jump, not a root.
    """
    m = (np.asarray(fs, dtype=float) - target + TWO_PI) % FOUR_PI - TWO_PI
    ma, mb = m[:-1], m[1:]
    hits = np.flatnonzero((ma == 0.0) | ((ma * mb < 0.0) & (np.abs(ma - mb) < math.pi)))

    def g(x):
        return wrap_4pi(f(x) - target)

    return [float(xs[i]) if ma[i] == 0.0 else
            _sign_bisect(g, float(xs[i]), float(xs[i + 1]), float(ma[i]), float(mb[i]), tol)
            for i in hits]


def steering_gaps_oracle(phi0, theta_star, phi_star, delta, target, k=None):
    """label - 2 delta tf - target from the array label map's former numpy
    mode: label_for_phi0's operations in its order on the theta*-factors k,
    with numpy's sin and arccos, over the 1-d phi0 and broadcast theta*,
    phi*, delta and target."""
    tan_half, cos_t, cos2_half = k or _theta_factors(theta_star)
    d = phi_star - phi0
    s = np.sin(d)
    p2 = s / tan_half
    eta = np.multiply(s, 2.0)
    eta *= s
    eta *= cos2_half
    np.subtract(cos_t, eta, out=eta)
    np.maximum(eta, -1.0, out=eta)
    eta = np.arccos(eta, out=eta)
    np.abs(d, out=d)
    eta = np.where((d > _HALF_PI) & (d <= _THREE_HALF_PI), TWO_PI - eta, eta)
    south = theta_star >= math.pi - POLAR_THETA_TOL
    if np.count_nonzero(south):
        np.copyto(eta, math.pi, where=south)
        np.copyto(p2, 0.0, where=south)
    tf = np.multiply(p2, p2)
    tf += 1.0
    np.sqrt(tf, out=tf)
    tf *= 2.0
    np.divide(eta, tf, out=tf)
    label = np.multiply(phi0, -2.0)
    label += phi_star
    np.multiply(p2, 2.0, out=d)
    d *= tf
    label -= d
    tf *= 2.0 * np.asarray(delta, dtype=float)
    label -= tf
    label -= target
    return label


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


def first_z_crossing(lam: float, delta: float, grid: int = 4001) -> float:
    """An upper bound on the smallest |label| of the z family with
    f_delta = lam mod 4pi: the far end of the first grid step, on either
    branch, over which the wrapped mismatch reaches zero or changes sign
    (a step of pi or more is a wrap jump, as in `_roots_mod_4pi`), or 2pi
    if the grid resolves none. The grid is 0 and |label| geometric from
    1e-16 to 2pi."""
    if wrap_4pi(-lam) == 0.0:
        return 0.0
    u = np.concatenate(([0.0], np.geomspace(1e-16, TWO_PI, grid)))
    tf = 0.5 * np.sqrt(np.maximum(0.0, 4.0 * math.pi * u - u * u))
    ends = []
    for s in (1.0, -1.0):
        m = (s * u - 2.0 * delta * tf - lam + TWO_PI) % FOUR_PI - TWO_PI
        ma, mb = m[:-1], m[1:]
        hit = np.flatnonzero((mb == 0.0) | ((ma * mb < 0.0) & (np.abs(ma - mb) < math.pi)))
        ends += u[hit[:1] + 1].tolist()
    return min(ends, default=TWO_PI)


def brute_force_min_time(target, grid: int = 4096) -> float:
    """Minimum arrival time over a phi0 grid scan at zero detuning.

    Every grid law is built from the circle geometry; sign changes of the
    label mismatch are refined, and the fastest refined law is replayed
    through the RK4 propagator. TargetUnreached when the scan finds none.
    """
    if grid < 512:
        raise DomainError("grid must be at least 512")
    e = canonical_euler(target)
    if e.theta < POLAR_THETA_TOL:
        return _brute_force_z(e.psi, grid)

    def label(phi0):
        return label_for_phi0(phi0, e.theta, e.phi)[0]

    phis = np.linspace(e.phi - math.pi, e.phi + math.pi, grid)
    roots = _roots_mod_4pi(label, phis, [label(float(x)) for x in phis], e.psi, 1e-10)
    if not roots:
        raise TargetUnreached("no grid law reaches the target; increase the grid")
    phi0 = min(roots, key=lambda x: label_for_phi0(x, e.theta, e.phi)[1])
    _, tf, p2, _ = label_for_phi0(phi0, e.theta, e.phi)
    law = ExtremalLaw(phi0=wrap_pi(phi0), p2=p2, delta=0.0, tf=tf)
    if gate_distance(propagate_law(law, n_steps=4000), target_gate(e)) > 1e-3:
        raise TargetUnreached("refined candidate fails propagation replay")
    return tf


def _brute_force_z(lambda_star: float, grid: int) -> float:
    """Scan full-circle laws by axis inclination; their z-angle is
    2pi (1 - cos(tilt)) and their duration pi sin(tilt)."""
    lam = wrap_4pi(lambda_star)
    if lam == 0.0:
        return 0.0
    tilts = np.linspace(1e-6, math.pi - 1e-6, grid)
    roots = _roots_mod_4pi(lambda t: 2.0 * math.pi * (1.0 - math.cos(t)), tilts,
                           2.0 * math.pi * (1.0 - np.cos(tilts)), lam, 0.0)
    if not roots:
        raise TargetUnreached("z-rotation scan found no candidate")
    return min(math.pi * math.sin(t) for t in roots)


def scan_family_min_time(target, delta: float, grid: int = 4096) -> float:
    """Scan every control of the label family for arrivals at the target
    under delta and return the fastest duration; independent of the
    optimal-domain construction."""
    e = canonical_euler(target)
    if e.theta < POLAR_THETA_TOL:
        return _scan_z_roots(e.psi, delta, grid)[1]

    def f(phi0):
        label, tf, _, _ = label_for_phi0(phi0, e.theta, e.phi)
        return label - 2.0 * delta * tf

    phis = np.linspace(e.phi - math.pi, e.phi + math.pi, grid)
    roots = _roots_mod_4pi(f, phis, [f(float(x)) for x in phis], e.psi, 0.0)
    if not roots:
        raise TargetUnreached("family scan found no arrival")
    return min(label_for_phi0(x, e.theta, e.phi)[1] for x in roots)


# ---------------------------------------------------------------------------
# CSV oracles: the former scalar trajectory and per-row file code
# ---------------------------------------------------------------------------

def circle_azimuth_offset(eta: float, cos_bar: float) -> float:
    """Azimuth of the projected point relative to phi0 + pi/2, the former
    scalar form of the trajectory's array pass.

    Continuous over each revolution of eta with limit -pi/2 as eta -> 0+;
    on a great circle (cos_bar = 0) it is the exact +-pi/2 meridian pair.
    """
    er = eta % TWO_PI
    if er < 1e-14:
        return -math.pi / 2.0
    if abs(cos_bar) < 1e-15:
        return -math.pi / 2.0 if er <= math.pi else math.pi / 2.0
    raw = math.atan2(-math.sin(er), cos_bar * (1.0 - math.cos(er)))
    if cos_bar < 0.0 and raw > 0.0:
        raw -= TWO_PI
    return raw


def trajectory_point_oracle(law: ExtremalLaw, t: float):
    """Scalar closed-form state at time t: ((psi, theta, phi), (theta1,
    theta2, theta3), mu, eta), all through the math module."""
    tb = math.atan2(1.0, law.p2)
    sb, cb = math.sin(tb), math.cos(tb)
    eta = 2.0 * t / sb
    theta = 2.0 * math.asin(min(1.0, sb * abs(math.sin(eta / 2.0))))
    if eta % TWO_PI < 1e-14:
        phi = law.phi0 if eta < 1e-14 else law.phi0 + math.copysign(math.pi, law.p2)
    else:
        phi = law.phi0 + math.pi / 2.0 + circle_azimuth_offset(eta, cb)
    psi = -2.0 * law.phi0 + phi - 2.0 * (law.p2 + law.delta) * t
    mu = control_phase(law, t)
    return (psi, theta, phi), (theta / 2.0, (psi + phi) / 2.0, (psi - phi) / 2.0), mu, eta


def write_trajectory_csv_oracle(law: ExtremalLaw, path, n_samples: int) -> None:
    n = max(2, n_samples)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,theta,phi,psi,theta1,theta2,theta3,vx,vy,eta\n")
        if law.tf == 0.0:
            return
        for t in np.linspace(0.0, law.tf, n):
            (psi, theta, phi), (t1, t2, t3), mu, eta = trajectory_point_oracle(law, float(t))
            fh.write(
                f"{t:.17g},{theta:.17g},{phi:.17g},{psi:.17g},"
                f"{t1:.17g},{t2:.17g},{t3:.17g},"
                f"{math.cos(mu):.17g},{math.sin(mu):.17g},{eta:.17g}\n"
            )


def write_pulse_csv_oracle(schedule: PulseSchedule, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,vx,vy\n")
        for t, vx, vy in schedule.samples:
            fh.write(f"{t:.17g},{vx:.17g},{vy:.17g}\n")


def read_pulse_csv_oracle(path) -> PulseSchedule:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,vx,vy":
            raise DomainError(f"bad pulse CSV header {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DomainError(f"line {ln}: expected 3 columns")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise DomainError(f"line {ln}: {exc}") from exc
    return PulseSchedule(np.array(rows).reshape(-1, 3), delta=0.0)


def write_sweep_csv_oracle(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("alpha,tf_U,tf_negU,chosen\n")
        for alpha, tu, tn, chosen in rows:
            fh.write(f"{alpha:.17g},{tu:.17g},{tn:.17g},{chosen}\n")


def write_tdiff_csv_oracle(report, path) -> None:
    marks = {}
    for d, kind in report.events:
        marks[int(np.searchsorted(report.delta_grid, d))] = kind
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("delta,t_U,t_negU,tdiff,in_X,event\n")
        for i, (d, tu, tn, td, inx) in enumerate(report.rows()):
            ev = marks.get(i, "none")
            fh.write(f"{d:.17g},{tu:.17g},{tn:.17g},{td:.17g},{int(inx)},{ev}\n")


# ---------------------------------------------------------------------------
# sweep oracles: the former per-point loops of the family, angle and T_diff
# sweeps, each point solved on its own by the scalar path. The array
# sweeps must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def build_psi_family_oracle(theta_star: float, phi_star: float,
                            resolution: int = 1024) -> PsiFamily:
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


def sweep_rotation_angle_oracle(axis, alphas):
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,) or abs(float(np.linalg.norm(ax)) - 1.0) > 1e-9:
        raise DomainError("axis must be a unit 3-vector")
    rows = []
    for alpha in np.atleast_1d(np.asarray(alphas, dtype=float)):
        a = float(alpha)
        if not (0.0 <= a <= 4.0 * math.pi + 1e-12):
            raise DomainError(f"alpha = {a:.12g} outside [0, 4pi]")
        dec = select_faster(gate_from_axis_angle(min(a, 4.0 * math.pi - 1e-15), ax))
        rows.append((a, dec.tf_plus, dec.tf_minus, dec.chosen))
    return rows


def select_faster_oracle(g: UnitGate) -> So3Decision:
    tp = synthesize_general(g, verify=False).law.tf
    tm = synthesize_general(negate_gate(g), verify=False).law.tf
    chosen, tie = _faster(tp, tm)
    return So3Decision(chosen, tp, tm, tie, hopf_from_gate(g).theta2)


def tdiff_analysis_oracle(target, delta_grid) -> TdiffReport:
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
        pu, tu, *_ = _solve_target(e, d)
        pn, tn, *_ = _solve_target(e_neg, d)
        t_u[i], t_n[i] = tu, tn
        psi_u[i], psi_n[i] = pu, pn
        # the domain at the signed delta, the full window at 0
        dom_u = optimal_domain(e.theta, e.phi, d)
        in_x[i] = dom_u.contains(psi_plus) and dom_u.contains(psi_minus)
        bounds[i] = (dom_u.psi_min, dom_u.psi_max)
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
    predicted = sorted(set(round(p, 12) + 0.0 for p in predicted))
    events = []
    diff = t_u - t_n
    last = None            # the last row with a nonzero difference
    for j in range(n):
        if diff[j] == 0.0:
            continue
        i, last = last, j
        if i is None or diff[i] * diff[j] >= 0.0:
            continue
        # across a run of exact zeros, at its middle
        lo, hi = (i, j) if j == i + 1 else (i + 1, j - 1)
        mid = 0.5 * (grid[lo] + grid[hi])
        kind = "zero_cross" if (in_x[i] and in_x[j]) else "boundary_jump"
        events.append((float(mid), kind))
    return TdiffReport(grid, t_u, t_n, in_x, events, predicted, psi_u, psi_n, bounds)


# ---------------------------------------------------------------------------
# Hopf-chart, adjoint and gate-view oracles: former package code that only
# tests called
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisAngle:
    """Rotation angle alpha about unit axis n = (nx, ny, nz).

    `gauge` marks +-identity, where the axis is arbitrary (set to z).
    """

    alpha: float
    n: tuple[float, float, float]
    gauge: bool = False


def axis_angle_from_gate(g: UnitGate) -> AxisAngle:
    """Rotation angle/axis view; alpha in [0, 2pi], axis gauge at +-identity."""
    s = math.sqrt(g.x2 ** 2 + g.x3 ** 2 + g.x4 ** 2)
    alpha = 2.0 * math.atan2(s, g.x1)
    if s < GAUGE_TOL:
        return AxisAngle(alpha, (0.0, 0.0, 1.0), gauge=True)
    # component pairing: x2 <-> nz, x3 <-> ny, x4 <-> nx
    return AxisAngle(alpha, (g.x4 / s, g.x3 / s, g.x2 / s))


def hopf_from_euler(psi: float, theta: float, phi: float) -> HopfCoords:
    """Hopf view (theta1, theta2, theta3) = (theta/2, (psi+phi)/2, (psi-phi)/2)."""
    if not (-1e-12 <= theta <= math.pi + 1e-12):
        raise DomainError(f"theta = {theta:.12g} outside [0, pi]")
    psi = wrap_4pi(psi)
    phi = wrap_pi(phi)
    t1 = min(max(theta, 0.0), math.pi) / 2.0
    if t1 < GAUGE_TOL:
        return HopfCoords(t1, (psi + phi) / 2.0, 0.0, gauge=True)
    if t1 > math.pi / 2.0 - GAUGE_TOL:
        return HopfCoords(t1, 0.0, (psi - phi) / 2.0, gauge=True)
    return HopfCoords(t1, (psi + phi) / 2.0, (psi - phi) / 2.0)


def euler_from_hopf(h: HopfCoords) -> EulerTarget:
    if not (-1e-12 <= h.theta1 <= math.pi / 2.0 + 1e-12):
        raise DomainError(f"theta1 = {h.theta1:.12g} outside [0, pi/2]")
    return euler_from_gate(gate_from_hopf(h))


def endpoint_map(family: PsiFamily, delta: float, psi=None):
    """f_delta over the family table (or at one label): Psi - 2 delta T."""
    if psi is None:
        return family.psi - 2.0 * delta * family.duration
    _, _, tf = family.solve(float(psi))
    return float(psi) - 2.0 * delta * tf


@dataclass(frozen=True)
class AdjointState:
    """Adjoint variables at one instant; p1..p3 are N-normalized, N carries
    the overall scale fixed by the zero-Hamiltonian condition."""

    p1: float
    p2: float
    p3: float
    p0: float
    N: float


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    euler: tuple[float, float, float]      # (psi, theta, phi), running values
    hopf: tuple[float, float, float]       # (theta1, theta2, theta3)
    controls: tuple[float, float, float, float, float]  # (u1, u2, mu, beta, v0)
    eta: float


@dataclass(frozen=True)
class CircleGeometry:
    """Axis of the projected circle: inclination theta_bar = atan2(1, p2) in
    (0, pi), azimuth phi_bar = phi0 + pi/2, unit vector n_bar."""

    theta_bar: float
    phi_bar: float
    n_bar: tuple[float, float, float]


def circle_geometry(law: ExtremalLaw) -> CircleGeometry:
    tb = math.atan2(1.0, law.p2)
    pb = law.phi0 + math.pi / 2.0
    sb = math.sin(tb)
    return CircleGeometry(tb, pb, (sb * math.cos(pb), sb * math.sin(pb), math.cos(tb)))


def control_at(law: ExtremalLaw, t: float) -> tuple[float, float]:
    """Physical controls (vx, vy) = (cos mu, sin mu) at time t."""
    if not (0.0 <= t <= law.tf + 1e-12):
        raise DomainError(f"t = {t:.12g} outside [0, tf = {law.tf:.12g}]")
    mu = control_phase(law, t)
    return math.cos(mu), math.sin(mu)


def trajectory_point(law: ExtremalLaw, t: float) -> TrajectoryPoint:
    """Closed-form state at time t: the one-row view of the array closed
    form `_trajectory_rows`, plus the rotated controls u1 = -sin(beta),
    u2 = -cos(beta) at beta = mu + psi."""
    _, theta, phi, psi, theta1, theta2, theta3, _, _, eta = _trajectory_rows(law, [t])[0].tolist()
    mu = control_phase(law, t)
    beta = mu + psi
    return TrajectoryPoint(
        t=t,
        euler=(psi, theta, phi),
        hopf=(theta1, theta2, theta3),
        controls=(-math.sin(beta), -math.cos(beta), mu, beta, 1.0),
        eta=eta,
    )


def gate_at(law: ExtremalLaw, t: float) -> UnitGate:
    """Closed-form gate at time t."""
    tp = trajectory_point(law, t)
    return gate_from_hopf(tp.hopf)


def adjoint_at(law: ExtremalLaw, t: float, p2: float | None = None) -> AdjointState:
    """Adjoint state along the trajectory; p1 is read off the closed form
    (p1 = u1), p3 vanishes identically, and N is the unnormalized scale
    1 / (1 - p2 * delta) times the normalized magnitude."""
    p2c = law.p2 if p2 is None else p2
    tp = trajectory_point(law, t)
    theta1 = tp.hopf[0]
    p1 = tp.controls[0]
    tan1 = math.tan(theta1)
    norm = math.hypot(p1, p2c * tan1) if p2c != 0.0 else abs(p1)
    scale = 1.0 / (1.0 - p2c * law.delta)
    return AdjointState(p1=p1, p2=p2c, p3=0.0, p0=-1.0, N=scale * norm)


def hamiltonian_residual(law: ExtremalLaw, t: float, p2: float | None = None) -> float:
    """|maximized Pontryagin Hamiltonian| at time t with p0 = -1.

    The unnormalized value is scale*(norm - p2*delta) - 1, where norm is the
    normalized adjoint magnitude (identically 1 on a consistent extremal) and
    scale = 1/(1 - p2*delta) fixes the adjoint ray. Zero along the law;
    passing an inconsistent p2 override exposes the gap.
    """
    p2c = law.p2 if p2 is None else p2
    tp = trajectory_point(law, t)
    p1 = tp.controls[0]
    norm = math.hypot(p1, p2c * math.tan(tp.hopf[0])) if p2c != 0.0 else abs(p1)
    scale = 1.0 / (1.0 - p2c * law.delta)
    return abs(scale * (norm - p2c * law.delta) - 1.0)


class PoleEncountered(Su2PulseError):
    """Hopf-chart integration hit a coordinate pole mid-trajectory."""


def hopf_rates(state, u1: float, u2: float, delta: float):
    """Right-hand side of the Hopf-chart ODE for rotated controls (u1, u2)."""
    theta1 = state[0]
    return (u1, -math.tan(theta1) * u2 - delta, 1.0 / math.tan(theta1) * u2 - delta)


def _exact_step_hopf(state, vx, vy, delta, h):
    """Advance the gate by exp(-i h H) for constant H, in the Hopf chart.

    Used to bootstrap the integration off the theta1 = 0 pole at t = 0,
    where cot(theta1) is singular. Exact for constant controls.
    """
    if vx == 0.0 and vy == 0.0 and delta == 0.0:
        return state
    step = _segment_factors([math.hypot(vx, vy)], [math.atan2(vy, vx)], [0.0], [h], delta)
    g2 = UnitGate(*(float(c) for c in _quat_mul(step[:, 0], gate_from_hopf(state).quat)))
    m12 = math.hypot(g2.x1, g2.x2)
    m34 = math.hypot(g2.x3, g2.x4)
    return (math.atan2(m34, m12), math.atan2(g2.x2, g2.x1), math.atan2(g2.x4, g2.x3))


def propagate_hopf(law: ExtremalLaw, n_steps: int = DEFAULT_STEPS,
                   control_fn=None) -> HopfCoords:
    """Integrate the Hopf-chart ODE driven by physical controls: the
    (theta1, theta2, theta3) chart with tan/cot poles at theta1 in
    {0, pi/2}, whose agreement with the quaternion chart is the executable
    form of the coordinate-change derivation.

    Independent of the closed form: the rotated controls are recomputed from
    (vx, vy) and the running theta2 + theta3 at every stage. The first step
    leaves the theta1 = 0 pole with an exact constant-field step. A rate
    blow-up at a tan/cot pole mid-trajectory (which a normal extremal never
    produces) raises PoleEncountered. control_fn overrides the law's
    analytic controls with an arbitrary t -> (vx, vy) map.
    """
    if law.tf == 0.0:
        return HopfCoords(0.0, 0.0, 0.0, gauge=True)
    mu0 = law.phi0 - math.pi / 2.0
    slope = 2.0 * law.p2 + 2.0 * law.delta
    delta = law.delta

    if control_fn is None:
        def vxy(t):
            m = mu0 + slope * t
            return math.cos(m), math.sin(m)
    else:
        vxy = control_fn

    def rotated_controls(t, st):
        vx, vy = vxy(t)
        ps = st[1] + st[2]
        cps, sps = math.cos(ps), math.sin(ps)
        return -vx * sps - vy * cps, -vx * cps + vy * sps

    def rhs(t, st):
        return hopf_rates(st, *rotated_controls(t, st), delta)

    h = law.tf / n_steps
    vx0, vy0 = vxy(h / 2.0)
    state = _exact_step_hopf((0.0, 0.0, math.atan2(-vxy(0.0)[0], -vxy(0.0)[1])),
                             vx0, vy0, delta, h)
    t = h
    for _ in range(n_steps - 1):
        k1 = rhs(t, state)
        s2 = tuple(state[i] + h / 2.0 * k1[i] for i in range(3))
        k2 = rhs(t + h / 2.0, s2)
        s3 = tuple(state[i] + h / 2.0 * k2[i] for i in range(3))
        k3 = rhs(t + h / 2.0, s3)
        s4 = tuple(state[i] + h * k3[i] for i in range(3))
        k4 = rhs(t + h, s4)
        new = tuple(
            state[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(3)
        )
        t += h
        # crossing a tan/cot pole (theta1 = k pi/2) with the rotated u2
        # switched on blows the chart up; a normal extremal has u2 -> 0 at
        # its poles, so its angles stay slow there. A macroscopic single-step
        # jump in theta2/theta3 on a crossing step is the breakdown signature.
        crossed = (math.sin(2.0 * new[0]) * math.sin(2.0 * state[0]) < 0.0 and
                   abs(new[0] - state[0]) < 0.5)
        if crossed and max(abs(new[1] - state[1]), abs(new[2] - state[2])) > 0.3:
            raise PoleEncountered(
                f"theta1 pole crossed near t = {t:.6g} with residual drive on it"
            )
        if not all(math.isfinite(c) for c in new):
            raise PoleEncountered(f"chart state diverged near t = {t:.6g}")
        state = new
    return HopfCoords(state[0], state[1], state[2])
