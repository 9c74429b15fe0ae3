"""Acceptance gate: one test per criterion, printing a PASS line with the
measured figures when the criterion holds at its stated tolerance."""
import math
import time

import numpy as np
import pytest

from su2pulse import (
    build_psi_family,
    crossing_angles,
    gate_distance,
    gate_from_euler,
    gate_from_hopf,
    propagate_law,
    propagate_schrodinger,
    random_gate,
    schedule_from_law,
    select_faster,
    sweep_rotation_angle,
    synthesize_detuned,
    synthesize_general,
    synthesize_xy_rotation,
    synthesize_z_rotation,
    tdiff_analysis,
    xyrot_gate,
    zrot_gate,
)
from su2pulse.detuned import _control_at_label, optimal_domain
from su2pulse.resonant import label_for_phi0

from conftest import (brute_force_min_time, circle_geometry, gamma_points, gate_at,
                      propagate_hopf, random_law, scan_family_min_time, trajectory_point)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
BENCH_THETA, BENCH_PHI = 2.2689, 0.0


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. z-rotation closed form
# ---------------------------------------------------------------------------

def test_criterion_01_z_rotation_closed_form():
    worst = 0.0
    for lam in (math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2, TWO_PI):
        start = time.perf_counter()
        r = synthesize_z_rotation(lam)
        formula = 0.5 * math.sqrt(4.0 * math.pi * abs(lam) - lam * lam)
        assert r.law.tf == formula, (r.law.tf, formula)
        schedule = schedule_from_law(r.law)
        resid = gate_distance(propagate_schrodinger(schedule), zrot_gate(lam))
        assert resid < 1e-6, (lam, resid)
        worst = max(worst, resid)
        # projected trajectory closes through the North Pole
        assert trajectory_point(r.law, 0.0).euler[1] == 0.0
        assert abs(trajectory_point(r.law, r.law.tf).euler[1]) < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, (lam, elapsed)
    _report(1, f"5 z-rotations, tf exact, worst pulse residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. transverse-plane closed form
# ---------------------------------------------------------------------------

def test_criterion_02_xy_rotation_closed_form():
    worst = 0.0
    for b in (math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        for a in (-3.0, -math.pi / 2, 0.0, 0.8, 2.9):
            r = synthesize_xy_rotation(a, b)
            assert r.law.tf == b / 2.0
            schedule = schedule_from_law(r.law)
            resid = gate_distance(propagate_schrodinger(schedule), xyrot_gate(a, b))
            assert resid < 1e-6, (a, b, resid)
            worst = max(worst, resid)
    _report(2, f"20 transverse rotations, tf = b/2 exact, worst residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. circle geometry properties
# ---------------------------------------------------------------------------

def test_criterion_03_circle_geometry():
    rng = np.random.default_rng(3)
    h = 1e-5
    worst_dot, worst_speed, worst_len = 0.0, 0.0, 0.0
    for _ in range(100):
        law = random_law(rng, p2_range=(-3.0, 3.0))
        geom = circle_geometry(law)
        ts = np.linspace(0.0, law.tf, 100)
        dots = gamma_points(law, ts) @ np.array(geom.n_bar)
        worst_dot = max(worst_dot, float(np.abs(dots - math.cos(geom.theta_bar)).max()))
        for t in np.linspace(h, law.tf - h, 100):
            pts = gamma_points(law, np.array([t - h, t + h]))
            speed = float(np.linalg.norm(pts[1] - pts[0])) / (2.0 * h)
            worst_speed = max(worst_speed, abs(speed - 2.0))
        t1 = np.linspace(0.0, law.tf, 2049)
        t2 = np.linspace(0.0, law.tf, 4097)
        l1 = np.linalg.norm(np.diff(gamma_points(law, t1), axis=0), axis=1).sum()
        l2 = np.linalg.norm(np.diff(gamma_points(law, t2), axis=0), axis=1).sum()
        worst_len = max(worst_len, abs((4.0 * l2 - l1) / 3.0 / 2.0 - law.tf))
    assert worst_dot < 1e-9, worst_dot
    assert worst_speed < 1e-7, worst_speed
    assert worst_len < 1e-6, worst_len
    _report(3, f"100 laws: axis dot {worst_dot:.2e}, speed {worst_speed:.2e}, "
               f"arc-length {worst_len:.2e}")


# ---------------------------------------------------------------------------
# 4. general synthesis vs brute force
# ---------------------------------------------------------------------------

def test_criterion_04_general_vs_brute_force():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst_gap, worst_resid = 0.0, 0.0
    for _ in range(50):
        g = random_gate(rng)
        r = synthesize_general(g)
        assert r.residual < 1e-6, r.residual
        bf = brute_force_min_time(g, grid=4096)
        gap = abs(r.law.tf - bf)
        assert gap < 1e-4, gap
        worst_gap = max(worst_gap, gap)
        worst_resid = max(worst_resid, r.residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, elapsed
    _report(4, f"50 Haar targets in {elapsed:.1f}s: max |tf - brute| "
               f"{worst_gap:.2e}, max residual {worst_resid:.2e}")


# ---------------------------------------------------------------------------
# 5. SO(3) crossing structure
# ---------------------------------------------------------------------------

def test_criterion_05_so3_crossings_and_decision_tables():
    axes = {
        "y": (0.0, 1.0, 0.0),
        "yz": (0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
        "z": (0.0, 0.0, 1.0),
    }
    alphas = np.linspace(0.0, FOUR_PI, 721)
    worst_off = 0.0
    for name, axis in axes.items():
        rows = sweep_rotation_angle(axis, alphas)
        cross = crossing_angles(rows)
        assert len(cross) == 2, (name, cross)
        off = max(abs(cross[0] - math.pi), abs(cross[1] - 3.0 * math.pi))
        assert off < 0.01, (name, cross)
        worst_off = max(worst_off, off)
    # z-axis decision table: U wins exactly when |lambda| < pi
    for lam in np.linspace(-1.95 * math.pi, 1.95 * math.pi, 40):
        lam = float(lam)
        if abs(abs(lam) - math.pi) < 1e-6:
            continue
        assert select_faster(zrot_gate(lam)).chosen == \
            ("U" if abs(lam) < math.pi else "-U"), lam
    # transverse decision table: U wins exactly when b < pi
    for b in np.linspace(0.1, TWO_PI - 0.1, 40):
        b = float(b)
        if abs(b - math.pi) < 1e-6:
            continue
        assert select_faster(xyrot_gate(-0.9, b)).chosen == \
            ("U" if b < math.pi else "-U"), b
    _report(5, f"3 sweeps tie only at pi and 3pi (max offset {worst_off:.4f} rad); "
               f"decision tables exact on 80 grid points")


# ---------------------------------------------------------------------------
# 6. duration-family claims for the benchmark target
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_family():
    return build_psi_family(BENCH_THETA, BENCH_PHI, 2048)


def test_criterion_06a_family_symmetry(bench_family):
    fam = bench_family
    asym = float(np.abs(fam.duration - fam.duration[::-1]).max())
    assert asym < 1e-6, asym
    _report("6a", f"duration family symmetric about -phi*: max asymmetry {asym:.2e}")


def test_criterion_06b_family_concavity(bench_family):
    # |p2| = 2|T'| peaks at cot(theta*/2) on the tangency labels, the controls
    # phi0 = phi* -+ pi/2 whose circle grazes the target latitude: T is
    # convex between them (minimum theta*/2 at -phi*) and concave outside
    # them (maxima pi - theta*/2 at the window ends)
    fam = bench_family
    second = np.diff(fam.duration, 2)
    centres = fam.psi[1:-1]
    h = float(fam.psi[1] - fam.psi[0])
    tangency = sorted(
        label_for_phi0(BENCH_PHI + s * math.pi / 2.0, BENCH_THETA, BENCH_PHI)[0]
        for s in (1.0, -1.0)
    )
    outer = (centres < tangency[0]) | (centres > tangency[1])
    worst_outer = float(second[outer].max())
    worst_central = float(second[~outer].min())
    assert worst_outer <= 1e-8, (
        f"max second difference {worst_outer:.3e} > 1e-8 outside the "
        f"tangency labels {tangency}: the family is not concave there"
    )
    assert worst_central >= -1e-8, (
        f"min second difference {worst_central:.3e} < -1e-8 between the "
        f"tangency labels {tangency}: the family is not convex there"
    )
    flips = np.nonzero(np.diff(second > 0.0))[0]
    inflections = 0.5 * (centres[flips] + centres[flips + 1])
    assert len(inflections) == 2, inflections
    off = float(np.abs(inflections - tangency).max())
    assert off <= 2.0 * h, (inflections, tangency, h)
    _report("6b", f"duration family concave outside and convex between the "
                  f"tangency labels ({tangency[0]:.6f}, {tangency[1]:.6f}): "
                  f"outer max second difference {worst_outer:.2e}, central "
                  f"min {worst_central:.2e}; inflections at "
                  f"({inflections[0]:.6f}, {inflections[1]:.6f}), within "
                  f"{off:.2e} (grid step {h:.2e})")


def test_criterion_06c_family_slope_claim(bench_family):
    fam = bench_family
    h = fam.psi[1] - fam.psi[0]
    slope = (fam.duration[2:] - fam.duration[:-2]) / (2.0 * h)
    worst = float(np.abs(slope - fam.p2[1:-1] / 2.0).max())
    assert worst < 1e-5, worst
    _report("6c", f"dT/dPsi matches p2/2: max central-difference gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. optimal-domain threshold for the benchmark target
# ---------------------------------------------------------------------------

def _assert_domain_bijective(dom):
    assert abs((dom.f_max - dom.f_min) - FOUR_PI) < 1e-6
    labels = np.linspace(dom.psi_min + 1e-9, dom.psi_max - 1e-9, 64)
    vals = []
    for lab in labels:
        lift = 0.0
        base = lab
        if base < -dom.phi_star - TWO_PI:
            base += FOUR_PI
            lift = -FOUR_PI
        elif base > -dom.phi_star + TWO_PI:
            base -= FOUR_PI
            lift = FOUR_PI
        _, _, tf = _control_at_label(dom.theta_star, dom.phi_star, base)
        vals.append(base - 2.0 * dom.delta * tf + lift)
    assert np.all(np.diff(vals) > -1e-9)


def test_criterion_07a_domain_full_at_half():
    dom = optimal_domain(BENCH_THETA, BENCH_PHI, 0.5)
    assert dom.psi_min == -BENCH_PHI - TWO_PI
    assert dom.psi_max == -BENCH_PHI + TWO_PI
    assert dom.psi_bullet is None
    _assert_domain_bijective(dom)
    _report("7a", "delta = 1/2: optimal domain is the full 4pi window, "
                  "end-point map bijective with range width 4pi")


def test_criterion_07b_domain_strict_at_three_halves():
    # f' = 1 - delta p2 with |p2| <= cot(theta*/2), so the domain stays the
    # full window for |delta| <= tan(theta*/2) = 2.144428 and turns strict
    # just above that threshold
    dom = optimal_domain(BENCH_THETA, BENCH_PHI, 1.5)
    _assert_domain_bijective(dom)
    assert dom.psi_min == -BENCH_PHI - TWO_PI
    assert dom.psi_max == -BENCH_PHI + TWO_PI
    assert dom.psi_bullet is None
    full = dom.psi_max - dom.psi_min
    threshold = math.tan(BENCH_THETA / 2.0)
    widths = []
    for sign in (1.0, -1.0):
        delta = sign * threshold * (1.0 + 1e-6)
        dom = optimal_domain(BENCH_THETA, BENCH_PHI, delta)
        _assert_domain_bijective(dom)
        width = dom.psi_max - dom.psi_min
        assert width < FOUR_PI - 1e-9, (delta, width)
        assert dom.psi_bullet is not None
        _, p2, _ = _control_at_label(BENCH_THETA, BENCH_PHI, dom.psi_bullet)
        assert abs(p2 - 1.0 / delta) < 1e-8, (delta, p2)
        widths.append(width)
    _report("7b", f"delta = 3/2: full window of width {full:.6f}; "
                  f"|delta| = tan(theta*/2)(1 + 1e-6), tan(theta*/2) = "
                  f"{threshold:.6f}: "
                  f"strict subwindows of width {widths[0]:.6f}, "
                  f"{widths[1]:.6f} (4pi = {FOUR_PI:.6f})")


# ---------------------------------------------------------------------------
# 8. detuned synthesis oracle
# ---------------------------------------------------------------------------

def test_criterion_08_detuned_oracle():
    rng = np.random.default_rng(8)
    worst_resid, worst_gap = 0.0, -math.inf
    for _ in range(20):
        g = random_gate(rng)
        delta = float(rng.uniform(-3.0, 3.0))
        r = synthesize_detuned(g, delta)
        assert r.residual < 1e-6, (delta, r.residual)
        scan = scan_family_min_time(g, delta)
        assert scan > r.law.tf - 1e-4, (delta, scan, r.law.tf)
        worst_resid = max(worst_resid, r.residual)
        worst_gap = max(worst_gap, r.law.tf - scan)
    _report(8, f"20 detuned pairs: max residual {worst_resid:.2e}, "
               f"max (tf - scan minimum) {worst_gap:.2e}")


# ---------------------------------------------------------------------------
# 9. T_diff structure for the benchmark target
# ---------------------------------------------------------------------------

def test_criterion_09_tdiff_structure():
    grid = np.linspace(-3.0, 3.0, 241)
    step = float(grid[1] - grid[0])
    rep = tdiff_analysis(gate_from_euler(0.0, BENCH_THETA, BENCH_PHI), grid)
    zero = [d for d, k in rep.events if k == "zero_cross"]
    jump = [d for d, k in rep.events if k == "boundary_jump"]
    assert zero and jump
    for d in zero:
        i = int(np.searchsorted(rep.delta_grid, d))
        assert rep.in_X[i - 1] and rep.in_X[i]
        assert min(abs(d - p) for p in rep.predicted_zero_crossings) <= step
    for d in jump:
        i = int(np.searchsorted(rep.delta_grid, d))
        assert not (rep.in_X[i - 1] and rep.in_X[i])
        edge = min(
            min(abs(lbl[j] - rep.domain_bounds[j][k]) for k in (0, 1)
                for j in (i - 1, i))
            for lbl in (rep.psi_opt_U, rep.psi_opt_negU)
        )
        assert edge < 0.2, (d, edge)
    _report(9, f"zero crossings at {['%.3f' % d for d in zero]} match the "
               f"closed formula within {step:.3f}; boundary jumps at "
               f"{['%.3f' % d for d in jump]} sit on domain edges")


# ---------------------------------------------------------------------------
# 10. cross-chart equivalence
# ---------------------------------------------------------------------------

def test_criterion_10_cross_chart_equivalence():
    rng = np.random.default_rng(10)
    worst = 0.0
    for i in range(50):
        law = random_law(rng, delta_range=(-2.0, 2.0) if i % 2 else (0.0, 0.0),
                         p2_range=(-2.5, 2.5))
        ga = propagate_law(law)
        gb = gate_from_hopf(propagate_hopf(law))
        gc = gate_at(law, law.tf)
        d = max(gate_distance(ga, gb), gate_distance(ga, gc), gate_distance(gb, gc))
        assert d < 1e-6, (law, d)
        worst = max(worst, d)
    _report(10, f"50 laws: max pairwise chart disagreement {worst:.2e}")
