"""Seeded sweeps over the hard regions of the detuned solve.

Just above the detuning threshold |delta| = tan(theta*/2) the two
stationary labels of f_delta meet at a tangency control, where f_delta is
known only to about sqrt(eps) (1 + 2|delta|). Every solve there must still
reach the gate the caller asked for, checked by the exact propagator.

Just above the polar band theta* = 1e-8 the label map's former azimuth
test found no arriving crossing at some window ends and raised
NoConvergence; no solve there may raise it now, and no law it returns may
miss the caller's gate.

Detuned z-rotations were solved by a 4096-label scan that could not
resolve roots near |label| = c^2 / (4 pi delta^2), and returned laws far
from the shortest. Their closed form must reach the caller's gate at every
detuning up to |delta| = 1e10, at no label beyond the first lattice
crossing of f_delta and never slower than the scan. Past |delta| = 1e150,
where that label runs into the subnormals, the law formed from f_delta
alone must be certified up to 1e300.
"""
import dataclasses
import math

import numpy as np
import pytest

from su2pulse import (
    DomainError,
    build_psi_family,
    gate_distance,
    gate_from_euler,
    identity_gate,
    optimal_domain,
    propagate_law_exact,
    synthesize,
    tdiff_analysis,
    zrot_gate,
)
from su2pulse.errors import NoConvergence, NoStationaryPoint, Su2PulseError
from su2pulse.resonant import z_rotation_parameters
from su2pulse.su2 import canonical_euler

from conftest import first_z_crossing, scan_family_min_time


def _haar_targets(n, seed):
    rng = np.random.default_rng(seed)
    gates = [gate_from_euler(float(rng.uniform(-2 * math.pi, 2 * math.pi)),
                             math.acos(float(rng.uniform(-1.0, 1.0))),
                             float(rng.uniform(-math.pi, math.pi))) for _ in range(n)]
    return [(g, canonical_euler(g).theta) for g in gates]


# and a target that raised NoConvergence ("no sign change") at both signs
THRESHOLD_TARGETS = _haar_targets(400, 7101) + [(gate_from_euler(-2.0489, 2.816, 1.6828), 2.816)]


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
def test_detuning_just_above_threshold_reaches_callers_gate(eps):
    worst = 0.0
    for gate, theta in THRESHOLD_TARGETS:
        for sign in (1.0, -1.0):
            r = synthesize(gate, sign * math.tan(theta / 2.0) * (1.0 + eps))
            worst = max(worst, gate_distance(propagate_law_exact(r.law), gate))
    assert worst < 1e-6


def test_tdiff_grid_through_the_threshold():
    for gate, theta in THRESHOLD_TARGETS[:40]:
        thr = math.tan(theta / 2.0)
        grid = np.unique([s * thr * (1.0 + eps) for s in (1.0, -1.0)
                          for eps in (0.0, 1e-12, 1e-9, 1e-6)] + [-3.0, 0.0, 3.0])
        rep = tdiff_analysis(gate, grid)
        assert np.all(np.isfinite(rep.t_U)) and np.all(np.isfinite(rep.t_negU))


@pytest.mark.parametrize("theta", [1e-8, 1.0000001e-8, 3e-8])
@pytest.mark.parametrize("delta", [0.0, 0.7])
def test_just_above_polar_band_reaches_callers_gate(theta, delta):
    # 1.0000001e-8 at delta = 0.7 raised NoConvergence ("no circle branch
    # arrives at phi*"); the strict solve at 1e-8, delta = 0.7 still
    # raises NoStationaryPoint, an open fault (ROADMAP item 1)
    gate = gate_from_euler(0.4, theta, 1.1)
    if (theta, delta) == (1e-8, 0.7):
        with pytest.raises(NoStationaryPoint):
            synthesize(gate, delta)
        return
    r = synthesize(gate, delta)
    assert gate_distance(propagate_law_exact(r.law), gate) < 1e-6


def test_near_pole_grid_raises_no_noconvergence():
    # theta* on a log grid from 1e-8 to 1e-3, four seeded (psi*, phi*)
    # draws each, four detunings: 1488 solves, none may end in
    # NoConvergence or an untyped exception, and every law returned must
    # reach the caller's gate within 1e-6 (the law at delta = 50, theta* =
    # 2.2e-4 missed it by 2.1e-6 while tf took sin(atan2(1, p2))). Still
    # open (ROADMAP item 1): 36 NoStationaryPoint from the strict solve
    rng = np.random.default_rng(8101)
    raised, missed = [], []
    for theta in np.geomspace(1e-8, 1e-3, 93).tolist():
        for _ in range(4):
            gate = gate_from_euler(float(rng.uniform(-2 * math.pi, 2 * math.pi)), theta,
                                   float(rng.uniform(-math.pi, math.pi)))
            for delta in (0.0, 0.7, -2.0, 50.0):
                try:
                    r = synthesize(gate, delta)
                except Su2PulseError as exc:
                    raised.append(exc)
                    continue
                residual = gate_distance(propagate_law_exact(r.law), gate)
                if residual >= 1e-6:
                    missed.append((theta, delta, residual))
    assert not [e for e in raised if isinstance(e, NoConvergence)]
    assert not missed


def test_near_pole_large_detuning_reaches_callers_gate():
    # p2 = -7458 here: sin(atan2(1, p2)) magnified atan2's last bit by
    # |p2|, and the law missed the caller's gate by 2.1e-6
    gate = gate_from_euler(-2.860456781163321, 0.00022275429519995563, 2.831480940112918)
    r = synthesize(gate, 50.0)
    assert gate_distance(propagate_law_exact(r.law), gate) < 1e-6


@pytest.mark.parametrize("delta", [50.0, -50.0, 1e3, -1e3])
def test_near_pole_strict_solve_reaches_callers_gate(delta):
    # a strict solve at theta* = 3.2e-7 returned p2 = -6.3e6 with residual
    # 8.16e-3 at delta = 50 and 7.8e-3 at 1e3; now 1.4e-11 to 4.7e-10
    gate = gate_from_euler(-0.40338655, 3.16227766e-7, 0.39182483)
    r = synthesize(gate, delta)
    assert r.ok and gate_distance(propagate_law_exact(r.law), gate) < 1e-9


@pytest.mark.parametrize("delta, ok", [(1e6, True), (1e9, True), (-1e9, True), (1e10, False),
                                       (-1e10, False), (1e12, False)])
def test_ok_flags_detunings_past_double_precision(delta, ok):
    # one ulp of tf moves the endpoint by about 2|delta| ulp(tf): 2.2e-7
    # at |delta| = 1e9 and 2.2e-6 at 1e10, so no law there is certified
    r = synthesize(gate_from_euler(0.4, 1.2, 1.1), delta)
    assert r.ok is ok


def test_ok_needs_a_verified_residual_within_bound():
    r = synthesize(gate_from_euler(0.4, 1.2, 1.1), 3.0)
    assert r.ok
    assert not synthesize(gate_from_euler(0.4, 1.2, 1.1), 3.0, verify=False).ok
    assert not dataclasses.replace(r, residual=2e-6).ok


@pytest.mark.parametrize("delta", [0.5, -2.0, 4.5, 50.0])
def test_detuned_identity_takes_no_time(delta):
    # the scan returned tf = 2.513 at delta = 2
    assert synthesize(identity_gate, delta).law.tf == 0.0


def test_detuned_small_z_rotation_is_short():
    # f_delta reaches -0.01 at tf = 0.01 / (2 delta); the scan returned 2.515
    r = synthesize(zrot_gate(-0.01), 2.0)
    assert r.law.tf < 0.003 and r.ok


def test_detuned_z_rotation_at_large_detuning_is_certified():
    # the scan's law missed the gate by 2.8
    r = synthesize(zrot_gate(0.5), 1e6)
    assert r.ok and r.law.tf < 1e-5


Z_DELTAS = [s * d for d in (1e-300, 1e-12, 0.3, 2.0, 5.0, 50.0, 1e3, 1e6, 1e10)
            for s in (1.0, -1.0)]


@pytest.mark.parametrize("delta", Z_DELTAS)
def test_detuned_z_rotation_sweep_is_minimal_and_certified(delta):
    # lambda* uniform in (-2pi, 2pi); seeded per detuning
    rng = np.random.default_rng([8401, Z_DELTAS.index(delta)])
    for lam in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 70).tolist():
        gate = zrot_gate(lam)
        r = synthesize(gate, delta)
        assert r.ok and gate_distance(propagate_law_exact(r.law), gate) < 1e-6
        psi = canonical_euler(gate).psi
        # no lattice crossing of f_delta lies below the law's label
        assert r.law.tf <= z_rotation_parameters(first_z_crossing(psi, delta))[1] * (1.0 + 1e-12)
        if abs(delta) <= 5.0:
            assert r.law.tf <= scan_family_min_time(gate, delta) + 1e-9


@pytest.mark.parametrize("delta", [1e160, -1e200, 1e307])
def test_detuned_z_rotation_past_1e158_is_certified(delta):
    # |label| ~ c^2 / (4 pi delta^2) is subnormal or zero here: the label's
    # closed form missed the gate by 2.6e-5 at 1e160 and took tf = 0 at
    # -1e200; tf = |c| / (2 |delta|) and p2 = pi / tf are representable
    gate = zrot_gate(0.5)
    r = synthesize(gate, delta)
    assert r.ok and gate_distance(propagate_law_exact(r.law), gate) <= 1e-6
    assert r.law.tf > 0.0


FAR_Z_DELTAS = [s * d for d in (1e150, 1.5e150, 1e154, 1e156, 1e158, 1e159, 1e160, 1e200, 1e250,
                                1e300) for s in (1.0, -1.0)]


@pytest.mark.parametrize("delta", FAR_Z_DELTAS)
def test_detuned_z_rotation_sweep_past_1e150_is_certified(delta):
    # lambda* uniform in (-2pi, 2pi); seeded per detuning
    rng = np.random.default_rng([8402, FAR_Z_DELTAS.index(delta)])
    for lam in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 70).tolist():
        gate = zrot_gate(lam)
        r = synthesize(gate, delta)
        assert r.ok and gate_distance(propagate_law_exact(r.law), gate) <= 1e-6
        # f_delta = c at tf = |c| / (2 |delta|), c the lift of lambda* of
        # sign -sgn(delta)
        c = lam if lam * delta < 0.0 else lam - math.copysign(4.0 * math.pi, lam)
        assert r.law.tf == pytest.approx(abs(c) / (2.0 * abs(delta)), rel=1e-15)


@pytest.mark.parametrize("lam, delta", [(-0.5, 1e307), (0.5, -1e307), (-1e-3, 2.8e307)])
def test_detuned_z_rotation_past_double_precision_is_flagged(lam, delta):
    # tf = |c| / (2 |delta|) is below 3.5e-308, so 2 p2 = 2 pi / tf
    # overflows: the identity law is returned, and not certified
    r = synthesize(zrot_gate(lam), delta)
    assert r.law.tf == 0.0 and math.isfinite(r.residual) and not r.ok


@pytest.mark.parametrize("delta", [1e160, -1e300, 2.8e307])
def test_detuned_near_identity_z_rotation_past_double_precision_is_the_identity(delta):
    # within 1e-6 of the identity the identity law is certified
    gate = zrot_gate(1e-20)
    r = synthesize(gate, delta)
    assert r.ok and gate_distance(propagate_law_exact(r.law), gate) <= 1e-6


# each returned an all-nan domain or table, a domain with f_min = f_max =
# -inf, or a South-Pole or z-family table for a theta* outside [0, pi]
@pytest.mark.parametrize("theta, phi, delta", [
    (1.0, 0.2, math.nan), (1.0, 0.2, math.inf), (1.0, 0.2, -math.inf), (1.0, 0.2, 1e308),
    (1.0, 0.2, -1e308), (1.0, math.nan, 3.0), (1.0, math.inf, 0.5), (math.nan, 0.2, 1.0)])
def test_optimal_domain_rejects_non_finite_input(theta, phi, delta):
    with pytest.raises(DomainError):
        optimal_domain(theta, phi, delta)


@pytest.mark.parametrize("theta, phi", [
    (math.nan, 0.2), (1.0, math.nan), (1.0, math.inf), (math.inf, 0.0), (3.5, 0.2),
    (-0.5, 0.0), (-1e-300, 0.0), (math.pi + 1e-12, 0.0)])
def test_psi_family_rejects_theta_outside_zero_pi_and_non_finite_phi(theta, phi):
    with pytest.raises(DomainError):
        build_psi_family(theta, phi)
