import math
import time

import numpy as np
import pytest

from su2pulse import (
    DomainError,
    EulerTarget,
    build_psi_family,
    euler_from_gate,
    gate_distance,
    gate_from_axis_angle,
    gate_from_euler,
    negate_gate,
    optimal_domain,
    propagate_law,
    propagate_law_exact,
    random_gate,
    synthesize,
    synthesize_detuned,
    synthesize_general,
    tdiff_analysis,
    wrap_4pi,
    wrap_pi,
    zrot_gate,
)
from su2pulse import resonant
from su2pulse.detuned import _control_at_label, negated_psi
from su2pulse.resonant import label_for_phi0
from su2pulse.su2 import POLAR_THETA_TOL

from conftest import endpoint_map, scan_family_min_time

TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi

# the running example target: inclination 2.2689, azimuth 0
TS, PS = 2.2689, 0.0


@pytest.fixture(scope="module")
def family():
    return build_psi_family(TS, PS, 512)


# ---------------------------------------------------------------------------
# duration family
# ---------------------------------------------------------------------------

def test_family_window_and_extremes(family):
    assert family.psi[0] == -PS - TWO_PI and family.psi[-1] == -PS + TWO_PI
    # minimum duration theta*/2 at the center label, maxima at the ends
    imin = np.argmin(family.duration)
    assert abs(family.psi[imin] - (-PS)) < 0.05
    assert abs(family.duration.min() - TS / 2.0) < 1e-4
    assert abs(family.duration[0] - (TWO_PI - TS) / 2.0) < 1e-12
    assert abs(family.duration[-1] - family.duration[0]) < 1e-12


def test_family_symmetric_about_center(family):
    assert np.abs(family.duration - family.duration[::-1]).max() < 1e-9


def test_family_slope_is_half_p2(family):
    h = family.psi[1] - family.psi[0]
    slope = (family.duration[2:] - family.duration[:-2]) / (2 * h)
    assert np.abs(slope - family.p2[1:-1] / 2.0).max() < 5e-4


def test_family_center_control_is_great_circle(family):
    _, p2, tf = family.solve(-PS)
    assert abs(p2) < 1e-9
    assert abs(tf - TS / 2.0) < 1e-9


def test_family_resolution_floor():
    with pytest.raises(DomainError):
        build_psi_family(TS, PS, 100)


def test_family_z_closed_form():
    fam = build_psi_family(0.0, 0.0, 256)
    lam = fam.psi
    want = 0.5 * np.sqrt(np.maximum(0.0, 4 * math.pi * np.abs(lam) - lam * lam))
    assert np.abs(fam.duration - want).max() < 1e-12


# ---------------------------------------------------------------------------
# end-point map
# ---------------------------------------------------------------------------

def test_endpoint_map_identity_at_zero_detuning(family):
    assert np.abs(endpoint_map(family, 0.0) - family.psi).max() == 0.0


def test_endpoint_map_at_symmetric_point(family):
    t_min = family.solve(-PS)[2]
    assert abs(endpoint_map(family, 0.8, psi=-PS) - (-PS - 1.6 * t_min)) < 1e-9


def test_endpoint_map_derivative(family):
    h = family.psi[1] - family.psi[0]
    for delta in (0.4, -1.1):
        f = endpoint_map(family, delta)
        fp = (f[2:] - f[:-2]) / (2 * h)
        assert np.abs(fp - (1.0 - delta * family.p2[1:-1])).max() < 1e-3


# ---------------------------------------------------------------------------
# optimal domain
# ---------------------------------------------------------------------------

def test_domain_threshold_structure():
    thr = math.tan(TS / 2.0)
    below = optimal_domain(TS, PS, thr * 0.98)
    assert below.psi_bullet is None
    assert below.psi_min == -PS - TWO_PI and below.psi_max == -PS + TWO_PI
    above = optimal_domain(TS, PS, thr * 1.02)
    assert above.psi_bullet is not None
    assert above.psi_max < -PS + TWO_PI or above.wrapped


def test_domain_zero_detuning_full():
    dom = optimal_domain(TS, PS, 0.0)
    assert dom.psi_bullet is None
    assert abs((dom.f_max - dom.f_min) - FOUR_PI) < 1e-12


def test_domain_stationary_point_has_reciprocal_p2():
    for delta in (2.5, 3.0, -2.5):
        dom = optimal_domain(TS, PS, delta)
        assert dom.psi_bullet is not None
        _, p2, _ = _control_at_label(TS, PS, dom.psi_bullet)
        assert abs(p2 - 1.0 / delta) < 1e-8


def test_domain_range_width_is_4pi():
    for delta in (0.5, 2.0, 2.5, 3.0, -2.8):
        dom = optimal_domain(TS, PS, delta)
        assert abs((dom.f_max - dom.f_min) - FOUR_PI) < 1e-6


def test_domain_monotone_on_arc():
    # f is nondecreasing along the lifted arc
    for delta in (2.5, -2.5):
        dom = optimal_domain(TS, PS, delta)
        labels = np.linspace(dom.psi_min + 1e-6, dom.psi_max - 1e-6, 80)
        vals = []
        for lab in labels:
            base = lab if -PS - TWO_PI <= lab <= -PS + TWO_PI else \
                lab + FOUR_PI * (1 if lab < -PS - TWO_PI else -1)
            _, _, tf = _control_at_label(TS, PS, base)
            lift = 0.0 if base == lab else (lab - base)
            vals.append(base - 2.0 * delta * tf + lift)
        assert np.all(np.diff(vals) > -1e-9)


def test_domain_mirror_symmetry():
    # each sign of delta is solved as it is; reflecting azimuths about phi*
    # maps the domain and law at delta to those at -delta: labels and f
    # values to -2 phi* - Psi, phi0 to 2 phi* - phi0
    cases = [(e, delta) for _, e, delta, _ in DETUNED_CASES]
    for e, delta in cases + [(EulerTarget(1.0, TS, PS), 2.5)]:
        c = 2.0 * e.phi
        dp = optimal_domain(e.theta, e.phi, delta)
        dm = optimal_domain(e.theta, e.phi, -delta)
        pairs = [(dm.psi_min, dp.psi_max), (dm.psi_max, dp.psi_min),
                 (dm.f_min, dp.f_max), (dm.f_max, dp.f_min)]
        assert (dm.psi_bullet is None) == (dp.psi_bullet is None), (e, delta)
        if dp.psi_bullet is not None:
            pairs.append((dm.psi_bullet, dp.psi_bullet))
        for got, want in pairs:
            assert abs(got - (-want - c)) < 1e-9, (e, delta)
        assert dm.wrapped == dp.wrapped, (e, delta)
        mirror = EulerTarget(wrap_4pi(-c - e.psi), e.theta, e.phi)
        rp = synthesize_detuned(e, delta, verify=False).law
        rm = synthesize_detuned(mirror, -delta, verify=False).law
        assert abs(rm.tf - rp.tf) < 1e-10, (e, delta)
        assert abs(wrap_pi(rm.phi0 - (c - rp.phi0))) < 1e-9, (e, delta)


def test_full_arc_ends_are_the_closed_form():
    # both ends of the full window are the long great-circle arc, of labels
    # -phi* -+ 2pi and duration pi - theta*/2, or pi/2 on the label map's
    # South-Pole branch; near the pole label_for_phi0 at phi* +- pi misses
    # that label by up to 7e-7
    rng = np.random.default_rng(1731)
    cases = []
    for theta in np.geomspace(1e-8, math.pi, 400).tolist():
        thr = math.tan(theta / 2.0)
        for delta in (0.0, thr, -thr, float(rng.uniform(-thr, thr))):
            cases.append((theta, float(rng.uniform(-math.pi, math.pi)), delta))
    south = math.pi - 0.5 * POLAR_THETA_TOL
    cases += [(south, float(rng.uniform(-math.pi, math.pi)), d)
              for d in (1e3, -1e3, 4.5e4, -2.5e6, 1e8)]
    for theta, phi, delta in cases:
        dom = optimal_domain(theta, phi, delta)
        assert dom.psi_bullet is None, (theta, delta)
        t_end = math.pi - theta / 2.0
        if theta == south:
            t_end = math.pi / 2.0
        assert dom.f_min == (-phi - TWO_PI) - 2.0 * delta * t_end, (theta, phi, delta)
        assert dom.f_max == (-phi + TWO_PI) - 2.0 * delta * t_end, (theta, phi, delta)


def test_domain_rejects_z_targets():
    with pytest.raises(DomainError):
        optimal_domain(0.0, 0.0, 1.0)


def test_domain_nonzero_phi_star():
    # same structure off the phi* = 0 slice
    dom = optimal_domain(1.2, -0.8, 2.6)
    assert dom.psi_bullet is not None
    _, p2, _ = _control_at_label(1.2, -0.8, dom.psi_bullet)
    assert abs(p2 - 1.0 / 2.6) < 1e-8
    assert abs((dom.f_max - dom.f_min) - FOUR_PI) < 1e-6


# ---------------------------------------------------------------------------
# detuned synthesis
# ---------------------------------------------------------------------------

def test_detuned_reduces_to_resonant_at_zero():
    # one canonical solve at every delta: at delta = 0 the detuned result is
    # the resonant one bit for bit, on Haar, near-pole and z-rotation gates
    rng = np.random.default_rng(1)
    gates = [random_gate(rng) for _ in range(200)]
    for theta in np.logspace(-12, -3, 20).tolist():
        for t in (theta, math.pi - theta):
            gates.append(gate_from_euler(rng.uniform(-6.0, 6.0), t, rng.uniform(-3.0, 3.0)))
    lams = np.concatenate([np.linspace(-TWO_PI, TWO_PI, 21), TWO_PI - np.logspace(-15, -2, 10),
                           np.logspace(-15, -2, 10)])
    gates += [zrot_gate(s * lam) for lam in lams.tolist() for s in (1.0, -1.0)]
    for g in gates:
        assert synthesize_detuned(g, 0.0) == synthesize_general(g)


def test_detuned_z_quadruple_distinct_and_verified():
    laws = []
    for delta in (0.0, 0.5, 1.5, 2.5):
        r = synthesize_detuned(zrot_gate(math.pi / 2.0), delta)
        assert r.residual < 1e-6
        laws.append((round(r.law.p2, 9), round(r.law.tf, 9)))
    assert len(set(laws)) == 4


def test_detuned_y_rotation():
    g = gate_from_axis_angle(math.pi / 4.0, (0.0, 1.0, 0.0))
    r = synthesize_detuned(g, 0.5)
    assert r.residual < 1e-6


def test_detuned_random_pairs_verified_and_minimal(rng):
    for _ in range(8):
        g = random_gate(rng)
        delta = float(rng.uniform(-3.0, 3.0))
        r = synthesize_detuned(g, delta)
        assert r.residual < 1e-6
        scan = scan_family_min_time(g, delta)
        assert scan > r.law.tf - 1e-4


def test_detuned_law_embeds_delta(rng):
    g = random_gate(rng)
    r = synthesize_detuned(g, 1.3, verify=False)
    assert r.law.delta == 1.3


def test_detuned_label_in_domain():
    # the selected label lies in the optimal arc
    g = gate_from_euler(1.0, TS, PS)
    for delta in (0.7, 2.5, -2.5):
        r = synthesize_detuned(g, delta, verify=False)
        dom = optimal_domain(TS, PS, delta)
        e = euler_from_gate(g)
        # recover the label from the arrival: psi* = label - 2 delta tf mod 4pi
        lab = -e.phi + (e.psi + 2.0 * delta * r.law.tf + e.phi + TWO_PI) % FOUR_PI - TWO_PI
        assert dom.contains(lab, tol=1e-6)


def test_scan_matches_solver_for_moderate_detuning(rng):
    for _ in range(5):
        g = random_gate(rng)
        delta = float(rng.uniform(-1.5, 1.5))
        r = synthesize_detuned(g, delta, verify=False)
        scan = scan_family_min_time(g, delta)
        assert abs(scan - r.law.tf) < 1e-6


# ---------------------------------------------------------------------------
# T_diff analysis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tdiff_report():
    g = gate_from_euler(0.0, TS, PS)
    return tdiff_analysis(g, np.linspace(-3.0, 3.0, 241))


def test_tdiff_resonant_sign(tdiff_report):
    rep = tdiff_report
    i0 = int(np.argmin(np.abs(rep.delta_grid)))
    # psi* = 0 has |theta2*| = 0 < pi/2: U strictly faster on resonance
    assert rep.t_U[i0] - rep.t_negU[i0] < 0.0


def test_tdiff_symmetric_pair_durations():
    tp = _control_at_label(TS, PS, -PS + math.pi)[2]
    tm = _control_at_label(TS, PS, -PS - math.pi)[2]
    assert abs(tp - tm) < 1e-9


def test_tdiff_zero_crossings_match_formula(tdiff_report):
    rep = tdiff_report
    step = rep.delta_grid[1] - rep.delta_grid[0]
    zero_events = [d for d, kind in rep.events if kind == "zero_cross"]
    assert zero_events, "expected zero crossings inside X"
    for d in zero_events:
        assert min(abs(d - p) for p in rep.predicted_zero_crossings) < step
    # and the crossing is a genuine zero, not a jump
    for d in zero_events:
        i = int(np.searchsorted(rep.delta_grid, d))
        assert min(abs(rep.t_U[j] - rep.t_negU[j]) for j in (i - 1, i)) < 0.05


def test_tdiff_boundary_jumps_outside_X(tdiff_report):
    rep = tdiff_report
    jumps = [d for d, kind in rep.events if kind == "boundary_jump"]
    assert jumps, "expected boundary jumps outside X"
    for d in jumps:
        i = int(np.searchsorted(rep.delta_grid, d))
        assert not (rep.in_X[i - 1] and rep.in_X[i])
        # one optimal label sits at a domain edge across the jump
        edge = min(
            min(abs(rep.psi_opt_U[j] - rep.domain_bounds[j][k])
                for k in (0, 1) for j in (i - 1, i)),
            min(abs(rep.psi_opt_negU[j] - rep.domain_bounds[j][k])
                for k in (0, 1) for j in (i - 1, i)),
        )
        assert edge < 0.2


def test_tdiff_x_interval_is_centered(tdiff_report):
    rep = tdiff_report
    inside = rep.delta_grid[rep.in_X]
    assert inside.min() < -2.0 and inside.max() > 2.0
    assert not rep.in_X[0] and not rep.in_X[-1]


def test_tdiff_rejects_z_targets():
    with pytest.raises(DomainError):
        tdiff_analysis(zrot_gate(1.0), np.linspace(-1, 1, 5))


def test_negated_psi_convention():
    assert negated_psi(0.0) == -TWO_PI
    assert abs(negated_psi(math.pi) - (-math.pi)) < 1e-12
    assert abs(negated_psi(-math.pi / 2) - (3 * math.pi / 2)) < 1e-12
    # labels at or just below 0 land on the window's -2pi, not on 2pi
    for psi in (-0.0, -5e-324, -1e-17):
        assert negated_psi(psi) == -TWO_PI, psi
    assert negated_psi(-TWO_PI) == 0.0
    # one subtraction, exact: no rounding through 4pi
    below = math.nextafter(TWO_PI, 0.0)
    assert negated_psi(below) == below - TWO_PI == -math.ulp(below)


def test_negation_consistency_with_gates(rng):
    # the label shift by 2pi is exactly the quaternion negation
    for _ in range(20):
        g = random_gate(rng)
        e = euler_from_gate(g)
        if e.theta < 1e-6 or e.theta > math.pi - 1e-6:
            continue
        en = euler_from_gate(negate_gate(g))
        assert abs(en.theta - e.theta) < 1e-9
        assert abs(en.phi - e.phi) < 1e-9
        assert abs(negated_psi(e.psi) - en.psi) < 1e-9


def test_tdiff_csv(tmp_path, tdiff_report):
    from su2pulse.detuned import write_tdiff_csv
    path = tmp_path / "tdiff.csv"
    write_tdiff_csv(tdiff_report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "delta,t_U,t_negU,tdiff,in_X,event"
    assert len(lines) == 242
    events = [ln.split(",")[5] for ln in lines[1:]]
    assert "zero_cross" in events and "boundary_jump" in events


# ---------------------------------------------------------------------------
# polar band and non-finite input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.0, 0.7, -2.0])
def test_near_polar_target_reaches_callers_gate(delta):
    # theta* = 5e-9 sits inside the polar band: the law must reach the gate
    # the caller asked for, not the gate with phi* dropped (distance 0.77)
    g = gate_from_euler(0.4, 5e-9, 1.1)
    r = synthesize(g, delta=delta)
    assert r.residual < 1e-6
    assert gate_distance(propagate_law(r.law), g) < 1e-6


def test_tdiff_empty_grid_is_a_domain_error():
    # was a bare IndexError from grid[-1] in the predicted-crossing loop
    with pytest.raises(DomainError, match="non-empty"):
        tdiff_analysis(gate_from_euler(0.4, 2.2, 0.3), [])


def test_tdiff_predicted_crossings_are_capped():
    # a grid to +-1e12 asked for over 1e11 predicted crossings, built as a
    # Python list; it now raises before any list is built
    g = gate_from_euler(0.4, 2.2689, 0.3)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"\[-1e\+12, 1e\+12\] holds \d+ predicted zero"):
        tdiff_analysis(g, np.linspace(-1e12, 1e12, 241))
    assert time.perf_counter() - start < 0.5
    # a span below the cap still lists every crossing, about t_pair span / pi
    rep = tdiff_analysis(g, np.linspace(-1e4, 1e4, 241))
    e = euler_from_gate(g)
    t_pair = _control_at_label(e.theta, e.phi, -e.phi + math.pi)[2]
    assert abs(len(rep.predicted_zero_crossings) - t_pair * 2e4 / math.pi) <= 2


# 2 pi |delta| overflows at 1e308: that was an OverflowError
@pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan, 1e308, -1e308])
def test_non_finite_detuning_rejected(delta):
    g = gate_from_euler(0.4, 1.0, 0.2)
    with pytest.raises(DomainError):
        synthesize(g, delta=delta)
    with pytest.raises(DomainError):
        synthesize_detuned(g, delta)
    with pytest.raises(DomainError):
        tdiff_analysis(g, [-1.0, 0.5, delta] if delta > 0 else [delta, 0.5, 1.0])


# ---------------------------------------------------------------------------
# the law is built from the f_delta root itself
# ---------------------------------------------------------------------------

def _domain_kind(theta, phi, delta):
    dom = optimal_domain(theta, phi, delta)
    return "full" if dom.psi_bullet is None else ("wrapped" if dom.wrapped else "strict")


def _detuned_cases(n, seed):
    """Seeded Haar targets, each at one detuning below tan(theta*/2) and two
    above it, with both signs: (gate, canonical target, delta, domain kind)."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        gate = random_gate(rng)
        e = euler_from_gate(gate)
        thr = math.tan(e.theta / 2.0)
        for mag in (thr * rng.uniform(0.05, 1.0), thr * (1.0 + rng.uniform(1e-3, 0.5)),
                    thr + rng.uniform(0.5, 5.0)):
            for delta in (mag, -mag):
                cases.append((gate, e, delta, _domain_kind(e.theta, e.phi, delta)))
    return cases


DETUNED_CASES = _detuned_cases(80, 1111)


def test_detuned_cases_cover_every_domain_kind():
    kinds = {(delta > 0.0, kind) for *_, delta, kind in DETUNED_CASES}
    assert kinds == {(s, k) for s in (True, False) for k in ("full", "strict", "wrapped")}


def test_detuned_law_reaches_callers_gate_and_matches_its_label():
    # the law is the control the f_delta solve found: it reaches the gate,
    # and a separate solve of its own label gives back the same phi0
    worst_gate = worst_phi0 = 0.0
    for gate, e, delta, _ in DETUNED_CASES:
        law = synthesize_detuned(gate, delta, verify=False).law
        worst_gate = max(worst_gate, gate_distance(propagate_law_exact(law), gate))
        label = label_for_phi0(law.phi0, e.theta, e.phi)[0]
        phi0 = _control_at_label(e.theta, e.phi, -e.phi + wrap_4pi(label + e.phi))[0]
        worst_phi0 = max(worst_phi0, abs(wrap_pi(phi0 - law.phi0)))
    assert worst_gate < 1e-9
    assert worst_phi0 < 1e-9


def test_detuned_synthesis_solves_one_root(monkeypatch):
    # a strict arc's f-range is fixed by its stationary end, so synthesis
    # inverts f_delta once and leaves the arc's far end psi_min, which
    # optimal_domain still solves, unsolved; at delta = 0 the same solve on
    # the full arc is the resonant one
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return bisect(*args, **kwargs)

    bisect = resonant._bisect
    monkeypatch.setattr(resonant, "_bisect", counted)
    for gate, e, delta, kind in DETUNED_CASES:
        calls.clear()
        synthesize_detuned(gate, delta, verify=False)
        assert len(calls) == 1, (e, delta, kind)
        if kind != "full":
            assert math.isfinite(optimal_domain(e.theta, e.phi, delta).psi_min)
    for gate, e, _, _ in DETUNED_CASES[::6]:          # each target once
        for solve in (synthesize_general, lambda g, **kw: synthesize_detuned(g, 0.0, **kw)):
            calls.clear()
            solve(gate, verify=False)
            assert len(calls) == 1, e
