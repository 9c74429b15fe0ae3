import dataclasses
import decimal
import math

import numpy as np
import pytest

from su2pulse import (
    DomainError,
    ExtremalLaw,
    euler_from_gate,
    gate_distance,
    gate_from_euler,
    propagate_law,
    random_gate,
    synthesize,
    synthesize_general,
    synthesize_xy_rotation,
    synthesize_z_rotation,
    xyrot_gate,
    zrot_gate,
    z_rotation_parameters,
    parse_target,
    propagate_law_exact,
)

from su2pulse.errors import NoConvergence
from su2pulse.resonant import (_HALF_PI, _THREE_HALF_PI, _labels_for_phi0, _theta_factors,
                               label_for_phi0)

from conftest import brute_force_min_time, crossing_eta_oracle, gate_at, trajectory_point

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# z-axis closed form
# ---------------------------------------------------------------------------

def test_z_identity():
    r = synthesize_z_rotation(0.0)
    assert r.law.tf == 0.0 and r.residual == 0.0


def test_z_full_turn():
    r = synthesize_z_rotation(TWO_PI)
    assert r.law.p2 == 0.0
    assert abs(r.law.tf - math.pi) < 1e-15
    # reaches -identity
    assert gate_distance(propagate_law(r.law), zrot_gate(TWO_PI)) < 1e-6
    got = propagate_law(r.law)
    assert abs(got.x1 + 1.0) < 1e-9


def test_z_half_turn_values():
    r = synthesize_z_rotation(math.pi)
    assert abs(r.law.p2 - 1.0 / math.sqrt(3.0)) < 1e-15
    assert abs(r.law.tf - math.sqrt(3.0) * math.pi / 2.0) < 1e-14
    assert r.residual < 1e-6


@pytest.mark.parametrize("lam", [-1.9 * math.pi, -math.pi / 3, 0.7, math.pi, 5.1])
def test_z_rotation_propagates(lam):
    r = synthesize_z_rotation(lam if abs(lam) <= TWO_PI else lam - 2 * TWO_PI)
    assert r.residual < 1e-6


def test_z_rejects_out_of_range():
    with pytest.raises(DomainError):
        synthesize_z_rotation(2.1 * math.pi)


def test_z_phi0_degeneracy():
    # the z law's phi0 is free: rotating it moves neither the gate nor the
    # duration, so synthesis takes phi0 = 0
    r = synthesize_z_rotation(1.1)
    assert r.law.phi0 == 0.0 and math.copysign(1.0, r.law.phi0) == 1.0
    gate = propagate_law_exact(r.law)
    assert gate_distance(gate, zrot_gate(1.1)) < 1e-9
    for phi0 in (2.2, -3.0, math.pi / 2.0):
        other = dataclasses.replace(r.law, phi0=phi0)
        assert other.tf == r.law.tf
        assert gate_distance(propagate_law_exact(other), gate) < 1e-9


@pytest.mark.parametrize("delta", [1e3, 1e4, -1e4, 1e6])
def test_large_detuning_verifies(delta):
    # a fixed-step RK4 verifier cannot resolve a phase slope of 2 delta
    r = synthesize(gate_from_euler(0.4, 1.2, 1.1), delta, verify=True)
    assert r.residual < 1e-6


def test_z_trajectory_closes_at_pole():
    r = synthesize_z_rotation(1.7)
    assert trajectory_point(r.law, 0.0).euler[1] == 0.0
    assert abs(trajectory_point(r.law, r.law.tf).euler[1]) < 1e-8


def test_z_tf_monotone_in_lambda():
    lams = np.linspace(0.0, TWO_PI, 60)
    tfs = [z_rotation_parameters(l)[1] for l in lams]
    assert all(b > a - 1e-15 for a, b in zip(tfs, tfs[1:]))


def test_z_p2_keeps_relative_precision_at_small_labels():
    # cos(theta_bar) = 1 - x with x = |lambda|/2pi, so theta_bar =
    # 2 asin(sqrt(x/2)); sqrt(1 - cos^2) lost 1.8% of p2 at |lambda| = 1e-13
    for lam in np.geomspace(1e-14, TWO_PI, 200).tolist():
        want = 1.0 / math.tan(2.0 * math.asin(math.sqrt(lam / TWO_PI / 2.0)))
        for sign in (1.0, -1.0):
            p2 = z_rotation_parameters(sign * lam)[0]
            assert abs(p2 - sign * want) <= 1e-14 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# transverse-plane closed form
# ---------------------------------------------------------------------------

def test_xy_refocusing_pulse():
    r = synthesize_xy_rotation(0.0, math.pi)
    assert r.law.tf == math.pi / 2.0
    assert r.residual < 1e-6


def test_xy_quarter_turn():
    r = synthesize_xy_rotation(0.0, math.pi / 2.0)
    assert r.law.tf == math.pi / 4.0
    assert r.residual < 1e-6


def test_xy_continuity_at_identity():
    r = synthesize_xy_rotation(0.3, 1e-9)
    assert r.law.tf == 5e-10


def test_xy_domain_errors():
    with pytest.raises(DomainError):
        synthesize_xy_rotation(3.5, 1.0)
    with pytest.raises(DomainError):
        synthesize_xy_rotation(0.0, 0.0)
    with pytest.raises(DomainError):
        synthesize_xy_rotation(0.0, TWO_PI)


def test_xy_great_circle_trajectory(rng):
    r = synthesize_xy_rotation(1.1, 2.0, verify=False)
    # theta2 of the running chart stays zero before the fold
    for t in np.linspace(0.0, r.law.tf, 20):
        tp = trajectory_point(r.law, float(t))
        assert abs(tp.hopf[1]) < 1e-12


# ---------------------------------------------------------------------------
# general solve
# ---------------------------------------------------------------------------

def test_general_reproduces_xy_law():
    a, b = 0.7, 2.1
    rx = synthesize_xy_rotation(a, b, verify=False)
    rg = synthesize_general(xyrot_gate(a, b), verify=False)
    assert abs(rg.law.phi0 - rx.law.phi0) < 1e-9
    assert abs(rg.law.p2 - rx.law.p2) < 1e-9
    assert abs(rg.law.tf - rx.law.tf) < 1e-9


def test_general_reproduces_long_way_xy_law():
    # b > pi folds to a different canonical Euler triple but keeps tf = b/2
    a, b = -0.4, 4.9
    rg = synthesize_general(xyrot_gate(a, b), verify=False)
    assert abs(rg.law.tf - b / 2.0) < 1e-9


def test_general_delegates_z_targets():
    rg = synthesize_general(zrot_gate(1.3))
    assert abs(rg.law.tf - z_rotation_parameters(1.3)[1]) < 1e-14


def test_general_z_limit_continuity():
    # theta* -> 0 durations approach the z closed form
    tf_z = z_rotation_parameters(math.pi)[1]
    errs = []
    for th in (1e-2, 1e-3, 1e-4):
        g = gate_from_euler(math.pi - 0.3, th, 0.3)
        r = synthesize_general(g, verify=False)
        errs.append(abs(r.law.tf - tf_z))
    assert errs[0] < 1e-2 and errs[1] < 1e-3 and errs[2] < 1e-4


def test_general_random_targets(rng):
    for _ in range(30):
        g = random_gate(rng)
        r = synthesize_general(g)
        assert r.residual < 1e-6
        assert abs(r.eta_final) <= TWO_PI + 1e-12


def test_general_vs_brute_force(rng):
    for _ in range(8):
        g = random_gate(rng)
        r = synthesize_general(g, verify=False)
        bf = brute_force_min_time(g, grid=1024)
        assert abs(r.law.tf - bf) < 1e-4


def test_eta_bound_strict_off_z_axis(rng):
    for _ in range(20):
        g = random_gate(rng)
        e = euler_from_gate(g)
        if e.theta < 1e-6:
            continue
        r = synthesize_general(g, verify=False)
        assert abs(r.eta_final) < TWO_PI


def test_theta2_monotone_along_optimal(rng):
    # strictly increasing, strictly decreasing, or identically zero
    for _ in range(15):
        g = random_gate(rng)
        r = synthesize_general(g, verify=False)
        t2 = [trajectory_point(r.law, float(t)).hopf[1]
              for t in np.linspace(1e-9, r.law.tf, 1000)]
        d = np.diff(t2)
        assert (np.all(d > -1e-12) or np.all(d < 1e-12)
                or np.abs(t2).max() < 1e-9)


def test_south_pole_target():
    g = gate_from_euler(0.8, math.pi, 0.0)
    r = synthesize_general(g)
    assert abs(r.law.tf - math.pi / 2.0) < 1e-12
    assert r.residual < 1e-6


def test_brute_force_z_target():
    want = 0.5 * math.sqrt(4.0 * math.pi * (math.pi / 2.0) - (math.pi / 2.0) ** 2)
    got = brute_force_min_time(zrot_gate(math.pi / 2.0), grid=1024)
    assert abs(got - want) < 1e-3


def test_brute_force_xy_target():
    got = brute_force_min_time(xyrot_gate(0.0, math.pi), grid=1024)
    assert abs(got - math.pi / 2.0) < 1e-3


def test_brute_force_identity():
    assert brute_force_min_time(zrot_gate(0.0), grid=512) == 0.0


def test_brute_force_grid_floor():
    with pytest.raises(DomainError):
        brute_force_min_time(zrot_gate(1.0), grid=100)


def test_z_full_turn_no_faster_partial_arc():
    # 2d scan over (circle tilt, time): no normal extremal reaches -I
    # meaningfully faster than the full great circle at tf = pi
    from su2pulse import ExtremalLaw
    minus_i = zrot_gate(TWO_PI)
    best = math.inf
    for p2 in np.tan(np.pi / 2 - np.linspace(0.05, math.pi - 0.05, 150)):
        sb = math.sin(math.atan2(1.0, p2))
        law = ExtremalLaw(phi0=0.0, p2=float(p2), delta=0.0, tf=math.pi * sb)
        for t in np.linspace(0.02, law.tf, 150):
            if gate_distance(gate_at(law, float(t)), minus_i) < 0.05:
                best = min(best, float(t))
                break
    assert math.pi - 0.1 <= best <= math.pi + 1e-9


def test_synthesize_dispatcher():
    r = synthesize(parse_target("zrot:1.0"))
    assert abs(r.law.tf - z_rotation_parameters(1.0)[1]) < 1e-15
    r = synthesize(parse_target("xyrot:0.0,1.0"))
    assert r.law.tf == 0.5
    # a rotation by 0 about a transverse axis is the identity law
    r = synthesize(parse_target("xyrot:0.3,0"))
    assert r.law == ExtremalLaw(phi0=0.0, p2=0.0, delta=0.0, tf=0.0)
    assert (r.target, r.residual, r.eta_final) == (euler_from_gate(zrot_gate(0.0)), 0.0, 0.0)
    r = synthesize(parse_target("euler:0.5,1.0,-0.5"))
    assert r.residual < 1e-6


# ---------------------------------------------------------------------------
# the array label map against the scalar one
# ---------------------------------------------------------------------------

def test_array_label_map_matches_scalar_map():
    # theta* on a log grid from 1e-8 to pi; phi0 at the tangency controls
    # phi* -+ pi/2, at and next to the window ends phi* -+ pi, and seeded
    # draws between. Neither map raises anywhere on the grid; were the
    # scalar map to raise, the array map would have to raise there too
    rng = np.random.default_rng(606)
    for theta in np.geomspace(1e-8, math.pi, 80).tolist():
        phi = float(rng.uniform(-math.pi, math.pi))
        offsets = [-math.pi, -math.pi * (1 - 1e-9), -math.pi / 2.0, 0.0, math.pi / 2.0,
                   math.pi * (1 - 1e-9), math.pi]
        phi0 = phi + np.concatenate([offsets, rng.uniform(-math.pi, math.pi, 40)])
        want, fails = [], []
        for x in phi0.tolist():
            try:
                want.append(label_for_phi0(x, theta, phi))
            except NoConvergence:
                fails.append(x)
                want.append(None)
        assert not fails, (theta, fails)
        for x in fails:
            with pytest.raises(NoConvergence):
                _labels_for_phi0(np.array([x]), theta, phi, _theta_factors(theta))
        ok = np.array([w is not None for w in want])
        column = np.full(ok.sum(), theta)
        got = np.column_stack(_labels_for_phi0(phi0[ok], column, phi, _theta_factors(column)))
        want = np.array([w for w in want if w is not None])
        assert np.all(np.abs(got[:, 0] - want[:, 0]) <= 1e-12), theta     # label
        assert np.all(np.abs(got[:, [1, 3]] - want[:, [1, 3]]) <= 1e-12), theta  # tf, eta
        assert np.allclose(got[:, 2], want[:, 2], rtol=1e-12, atol=0.0), theta  # p2
    # draws at which numpy's arctan2(1, p2) and math's differ in the last
    # bit while p2 < -1, which sin(atan2(1, p2)) magnified to labels 2e-12
    # and 4e-12 apart; both maps now form tf without atan2
    for phi0, theta, phi in [(-1.5612578411123716, 0.0004415446204372173, -2.704657950002144),
                             (4.715637648196324, 0.0015400155731124293, 2.25445054712693)]:
        got = _labels_for_phi0(np.array([phi0]), theta, phi, _theta_factors(theta))[0][0]
        assert abs(got - label_for_phi0(phi0, theta, phi)[0]) <= 1e-12


def test_array_first_crossing_is_the_sign_of_cos():
    # the array map takes the far crossing where pi/2 < |d| <= 3pi/2 by
    # comparison; label_for_phi0 where cos(d) < 0. They agree on the
    # doubles around pi/2 and 3pi/2 and on seeded d with |d| < 5pi/2, and
    # so do the two maps' arrival angles
    edges = [math.pi / 2.0, math.pi, 1.5 * math.pi]
    d = [x for e in edges for x in np.nextafter(e, [-np.inf, np.inf]).tolist() + [e]]
    d += np.random.default_rng(607).uniform(-2.5 * math.pi, 2.5 * math.pi, 4000).tolist()
    d = np.array(d + [-x for x in d])
    assert np.array_equal((np.abs(d) > _HALF_PI) & (np.abs(d) <= _THREE_HALF_PI),
                          np.array([math.cos(x) < 0.0 for x in d.tolist()]))
    theta, phi = 1.3, 0.0
    eta = _labels_for_phi0(phi - d, theta, phi, _theta_factors(theta))[3]
    want = [label_for_phi0(phi - x, theta, phi)[3] for x in d.tolist()]
    assert np.all(np.abs(eta - want) <= 1e-12)


# ---------------------------------------------------------------------------
# the arrival crossing against the former azimuth test
# ---------------------------------------------------------------------------

def test_arrival_crossing_matches_azimuth_test_away_from_poles():
    # 2e5 draws with theta* at least 1e-5 from both poles, half uniform in
    # theta*, half log-uniform up to 1: the side-of-meridian rule picks the
    # crossing the azimuth test picked, bit for bit
    rng = np.random.default_rng(808)
    n = 100_000
    theta = np.concatenate([rng.uniform(1e-5, math.pi - 1e-5, n),
                            np.exp(rng.uniform(math.log(1e-5), 0.0, n))])
    phi = rng.uniform(-math.pi, math.pi, 2 * n)
    phi0 = phi + rng.uniform(-math.pi, math.pi, 2 * n)
    for x, th, ph in zip(phi0.tolist(), theta.tolist(), phi.tolist()):
        assert label_for_phi0(x, th, ph)[3] == crossing_eta_oracle(x, th, ph), (x, th, ph)


def test_arrival_crossing_near_poles_lands_no_farther_than_azimuth_test():
    # theta* within 1e-5 of either pole (outside the polar bands): where
    # the two rules pick different crossings, the law from the map's pick
    # ends no farther from its label's gate than the azimuth test's law
    rng = np.random.default_rng(809)
    n = 60_000
    small = np.exp(rng.uniform(math.log(1e-8), math.log(1e-5), 2 * n))
    theta = np.concatenate([small[:n], math.pi - small[n:]])
    phi = rng.uniform(-math.pi, math.pi, 2 * n)
    phi0 = phi + rng.uniform(-math.pi, math.pi, 2 * n)
    split = 0
    for x, th, ph in zip(phi0.tolist(), theta.tolist(), phi.tolist()):
        if th >= math.pi - 1e-8:
            continue
        label, tf, p2, eta = label_for_phi0(x, th, ph)
        eta_old = crossing_eta_oracle(x, th, ph)
        if eta == eta_old:
            continue
        split += 1
        assert abs(eta - eta_old) < 1e-7
        tf_old = eta_old * math.sin(math.atan2(1.0, p2)) / 2.0
        label_old = -2.0 * x + ph - 2.0 * p2 * tf_old
        new = gate_distance(propagate_law_exact(ExtremalLaw(x, p2, 0.0, tf)),
                            gate_from_euler(label, th, ph))
        old = gate_distance(propagate_law_exact(ExtremalLaw(x, p2, 0.0, tf_old)),
                            gate_from_euler(label_old, th, ph))
        assert new <= old, (x, th, ph, new, old)
    assert split > 0


# ---------------------------------------------------------------------------
# the theta*-only factors and tf = eta / (2 sqrt(1 + p2^2))
# ---------------------------------------------------------------------------

def test_passed_theta_factors_keep_the_scalar_maps_bits():
    # floats, ints and np.float64 all take math's factors, so a solve that
    # passes them once gets label_for_phi0's own bits at every phi0
    rng = np.random.default_rng(810)
    thetas = np.geomspace(1e-8, math.pi, 60).tolist() + rng.uniform(0.0, math.pi, 60).tolist()
    for theta in thetas + [1, 2, np.float64(0.3), math.pi - 1e-9]:
        phi = float(rng.uniform(-math.pi, math.pi))
        k = _theta_factors(theta)
        assert all(type(v) is float for v in k)
        for x in (phi + rng.uniform(-math.pi, math.pi, 20)).tolist():
            assert label_for_phi0(x, theta, phi, k) == label_for_phi0(x, theta, phi)


def test_tf_is_within_a_few_ulps_for_steep_p2():
    # tf = eta sin(theta_bar) / 2 with cot(theta_bar) = p2, at the map's own
    # eta and p2, against a 50-digit decimal evaluation, for p2 in
    # +-[1, 1e8]. theta* = 2 atan(|sin(phi* - phi0)| / |p2|) with
    # |sin(phi* - phi0)| >= 1/2 stays above the polar band
    rng = np.random.default_rng(811)
    eps = np.finfo(float).eps
    worst, worst_old = 0.0, 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for _ in range(4000):
            mag = 10.0 ** float(rng.uniform(0.0, 8.0))
            d = float(rng.choice([-1.0, 1.0]) * rng.uniform(math.pi / 6.0, 5.0 * math.pi / 6.0))
            phi = float(rng.uniform(-math.pi, math.pi))
            theta = 2.0 * math.atan(abs(math.sin(d)) / mag)
            _, tf, p2, eta = label_for_phi0(phi - d, theta, phi)
            exact = decimal.Decimal(eta) / (2 * (1 + decimal.Decimal(p2) ** 2).sqrt())
            worst = max(worst, float(abs(decimal.Decimal(tf) - exact) / exact))
            if p2 < -1e4:
                old = eta * math.sin(math.atan2(1.0, p2)) / 2.0
                worst_old = max(worst_old, float(abs(decimal.Decimal(old) - exact) / exact))
    assert worst <= 4.0 * eps
    # the former sin(atan2(1, p2)) form magnifies atan2's last bit by |p2|
    assert worst_old > 1e3 * eps
