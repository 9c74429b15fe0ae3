import math
import re

import numpy as np
import pytest

from su2pulse import (
    DomainError,
    ExtremalLaw,
    PulseSchedule,
    StepTooLarge,
    gate_distance,
    gate_from_hopf,
    identity_gate,
    propagate_law,
    propagate_law_exact,
    propagate_pulse,
    propagate_schrodinger,
    read_pulse_csv,
    schedule_from_law,
    write_pulse_csv,
    zrot_gate,
)
from su2pulse.resonant import z_rotation_parameters

from conftest import (PoleEncountered, adjoint_at, axis_angle_from_gate, circle_geometry,
                      control_at, euler_ode_oracle, expm2, gamma_points, gate_at,
                      hamiltonian_residual, hopf_rates, propagate_hopf, random_law,
                      trajectory_point)

SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# closed-form trajectory
# ---------------------------------------------------------------------------

def test_great_circle_quarter_turn_matches_hamilton_ode():
    # oracle: RK4 on the reduced Hamilton system, dt = 1e-5
    law = ExtremalLaw(phi0=0.7, p2=0.0, delta=0.0, tf=math.pi / 4)
    ref = euler_ode_oracle(law.phi0, law.p2, law.delta, law.tf)
    tp = trajectory_point(law, law.tf)
    assert abs(tp.euler[1] - math.pi / 2) < 1e-9
    assert abs(tp.euler[2] - law.phi0) < 1e-9
    assert abs(2.0 * ref["theta1"] - tp.euler[1]) < 1e-8
    assert abs(ref["phi"] - tp.euler[2]) < 1e-8
    assert abs(ref["psi"] - tp.euler[0]) < 1e-8


def test_generic_law_matches_hamilton_ode():
    law = ExtremalLaw(phi0=-0.4, p2=1.1, delta=0.0, tf=1.3)
    ref = euler_ode_oracle(law.phi0, law.p2, law.delta, law.tf)
    tp = trajectory_point(law, law.tf)
    assert abs(2.0 * ref["theta1"] - tp.euler[1]) < 1e-8
    assert abs(ref["phi"] - tp.euler[2]) < 1e-8
    assert abs(ref["psi"] - tp.euler[0]) < 1e-8


def test_trajectory_start_point():
    law = ExtremalLaw(phi0=1.2, p2=0.5, delta=0.3, tf=1.0)
    tp = trajectory_point(law, 0.0)
    assert tp.eta == 0.0
    assert tp.euler[1] == 0.0
    assert abs(tp.euler[0] - (-law.phi0)) < 1e-14     # psi(0) = -phi0
    assert abs(tp.controls[3] - (-math.pi / 2)) < 1e-14  # beta(0) = -pi/2


def test_full_circle_returns_to_pole():
    p2, tf = z_rotation_parameters(2 * math.pi)
    law = ExtremalLaw(phi0=0.0, p2=p2, delta=0.0, tf=tf)
    tp = trajectory_point(law, law.tf)
    assert abs(tp.euler[1]) < 1e-9
    assert gate_distance(gate_at(law, tf), zrot_gate(2 * math.pi)) < 1e-12


def test_rotated_control_identity(rng):
    # u2 = -p2 tan(theta1) along any law
    for _ in range(20):
        law = random_law(rng, delta_range=(-1.0, 1.0))
        for t in np.linspace(1e-3, law.tf, 7):
            tp = trajectory_point(law, float(t))
            u2 = tp.controls[1]
            assert abs(u2 + law.p2 * math.tan(tp.hopf[0])) < 1e-9
            # unit drive amplitude
            u1 = tp.controls[0]
            assert abs(u1 * u1 + u2 * u2 - 1.0) < 1e-12


def test_control_at_great_circle():
    law = ExtremalLaw(phi0=0.0, p2=0.0, delta=0.0, tf=1.0)
    for t in (0.0, 0.3, 1.0):
        vx, vy = control_at(law, t)
        assert abs(vx) < 1e-15 and abs(vy + 1.0) < 1e-15


def test_control_at_phase_and_slope():
    vx, vy = control_at(ExtremalLaw(math.pi / 2, 0.0, 0.0, 1.0), 0.0)
    assert abs(vx - 1.0) < 1e-15 and abs(vy) < 1e-15
    # slope of mu recovered by finite differences of the closed form
    law = ExtremalLaw(phi0=0.0, p2=1 / math.sqrt(3), delta=0.0, tf=1.0)
    h = 1e-6
    mu1 = trajectory_point(law, 0.5 - h).controls[2]
    mu2 = trajectory_point(law, 0.5 + h).controls[2]
    assert abs((mu2 - mu1) / (2 * h) - 2 / math.sqrt(3)) < 1e-8


def test_control_at_rejects_out_of_range():
    with pytest.raises(DomainError):
        control_at(ExtremalLaw(0.0, 0.0, 0.0, 1.0), 2.0)


def test_detuning_shifts_psi_only(rng):
    for _ in range(20):
        law0 = random_law(rng)
        delta = float(rng.uniform(-2, 2))
        law1 = ExtremalLaw(law0.phi0, law0.p2, delta, law0.tf)
        for t in np.linspace(0.0, law0.tf, 9):
            a = trajectory_point(law0, float(t))
            b = trajectory_point(law1, float(t))
            assert abs(a.euler[1] - b.euler[1]) < 1e-15
            assert abs(a.euler[2] - b.euler[2]) < 1e-15
            assert abs((a.euler[0] - b.euler[0]) - 2.0 * delta * t) < 1e-9


# ---------------------------------------------------------------------------
# circle geometry invariants
# ---------------------------------------------------------------------------

def test_circle_invariant(rng):
    for _ in range(50):
        law = random_law(rng, delta_range=(-1.5, 1.5))
        geom = circle_geometry(law)
        pts = gamma_points(law, np.linspace(0.0, law.tf, 100))
        dots = pts @ np.array(geom.n_bar)
        assert np.abs(dots - math.cos(geom.theta_bar)).max() < 1e-9


def test_constant_speed(rng):
    h = 1e-5
    for _ in range(20):
        law = random_law(rng)
        for t in np.linspace(2 * h, law.tf - 2 * h, 11):
            a = gamma_points(law, np.array([t - h, t + h]))
            speed = np.linalg.norm(a[1] - a[0]) / (2 * h)
            assert abs(speed - 2.0) < 1e-7


def test_arc_length_is_twice_tf(rng):
    for _ in range(10):
        law = random_law(rng)
        t1 = np.linspace(0.0, law.tf, 2049)
        t2 = np.linspace(0.0, law.tf, 4097)
        l1 = np.linalg.norm(np.diff(gamma_points(law, t1), axis=0), axis=1).sum()
        l2 = np.linalg.norm(np.diff(gamma_points(law, t2), axis=0), axis=1).sum()
        length = (4.0 * l2 - l1) / 3.0      # Richardson on the chordal sum
        assert abs(length / 2.0 - law.tf) < 1e-6


# ---------------------------------------------------------------------------
# adjoint and Hamiltonian diagnostics
# ---------------------------------------------------------------------------

def test_hamiltonian_residual_zero_on_extremals(rng):
    for _ in range(10):
        law = random_law(rng, delta_range=(-0.5, 0.5), p2_range=(-1.5, 1.5))
        for t in rng.uniform(0.0, law.tf, 10):
            assert hamiltonian_residual(law, float(t)) < 1e-9


def test_hamiltonian_residual_detects_perturbation():
    law = ExtremalLaw(phi0=0.2, p2=0.8, delta=0.0, tf=1.2)
    assert hamiltonian_residual(law, 0.7, p2=law.p2 + 0.1) > 1e-3


def test_hamiltonian_residual_great_circle():
    law = ExtremalLaw(phi0=0.0, p2=0.0, delta=0.0, tf=1.0)
    for t in np.linspace(0.0, 1.0, 5):
        assert hamiltonian_residual(law, float(t)) < 1e-12


def test_adjoint_state_invariants(rng):
    for _ in range(10):
        law = random_law(rng, delta_range=(-0.4, 0.4), p2_range=(-1.5, 1.5))
        for t in np.linspace(1e-3, law.tf, 5):
            adj = adjoint_at(law, float(t))
            assert adj.p3 == 0.0 and adj.p0 == -1.0
            n = math.hypot(adj.p1, adj.p2 * math.tan(trajectory_point(law, float(t)).hopf[0]))
            assert abs(n - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------

def test_propagate_empty_schedule_is_identity():
    sched = PulseSchedule(np.zeros((0, 3)), delta=0.0)
    assert propagate_schrodinger(sched).quat == identity_gate.quat
    assert propagate_pulse(sched).quat == identity_gate.quat
    law = ExtremalLaw(phi0=0.3, p2=0.7, delta=1.5, tf=0.0)
    assert propagate_law_exact(law).quat == identity_gate.quat


def test_propagate_constant_drive_vs_exact_exponential():
    # vy = -1 for pi/2 gives exp(i sy pi/2) = i sy, a pi rotation about y
    t = np.linspace(0.0, math.pi / 2, 64)
    sched = PulseSchedule(np.column_stack([t, 0 * t, -np.ones_like(t)]), delta=0.0)
    want = expm2(-1j * (math.pi / 2) * (-SY))
    from su2pulse import gate_from_matrix
    want_g = gate_from_matrix(want)
    for got in (propagate_schrodinger(sched), propagate_pulse(sched)):
        assert gate_distance(got, want_g) < 1e-10
        aa = axis_angle_from_gate(got)
        assert abs(aa.alpha - math.pi) < 1e-9
        assert abs(aa.n[2]) < 1e-9          # axis in the transverse plane


def test_propagate_pulse_matches_rk4_on_law_schedules(rng):
    for _ in range(4):
        law = random_law(rng, delta_range=(-2.0, 2.0), p2_range=(-2.0, 2.0))
        sched = schedule_from_law(law)
        got = propagate_pulse(sched)
        assert gate_distance(got, propagate_schrodinger(sched)) < 1e-9
        assert gate_distance(got, propagate_law_exact(law)) < 1e-9


def test_propagate_pulse_amplitude_ramp_uses_rk4():
    # only RK4 models an amplitude that varies linearly between samples
    t = np.linspace(0.0, 1.2, 64)
    amp, mu = np.linspace(0.5, 1.0, 64), 0.3 + 0.8 * t
    sched = PulseSchedule(np.column_stack([t, amp * np.cos(mu), amp * np.sin(mu)]), delta=0.4)
    assert propagate_pulse(sched).quat == propagate_schrodinger(sched).quat


def test_propagate_z_law_schedule():
    p2, tf = z_rotation_parameters(math.pi)
    law = ExtremalLaw(phi0=0.0, p2=p2, delta=0.0, tf=tf)
    sched = schedule_from_law(law)
    assert gate_distance(propagate_schrodinger(sched), zrot_gate(math.pi)) < 1e-6


def test_step_too_large():
    p2, tf = z_rotation_parameters(math.pi)
    law = ExtremalLaw(phi0=0.0, p2=p2, delta=0.0, tf=tf)
    with pytest.raises(StepTooLarge):
        propagate_law(law, n_steps=10)


def test_chart_agreement_random_laws(rng):
    for _ in range(20):
        law = random_law(rng, delta_range=(-2.0, 2.0), p2_range=(-2.0, 2.0))
        ga = propagate_law(law)
        gb = gate_from_hopf(propagate_hopf(law))
        gc = gate_at(law, law.tf)
        gd = propagate_law_exact(law)
        assert gate_distance(ga, gb) < 1e-6
        assert gate_distance(ga, gc) < 1e-6
        assert gate_distance(gd, ga) < 1e-9
        assert gate_distance(gd, gc) < 1e-9


def test_hopf_chart_z_law_endpoint():
    p2, tf = z_rotation_parameters(math.pi / 2)
    law = ExtremalLaw(phi0=0.0, p2=p2, delta=0.0, tf=tf)
    got = gate_from_hopf(propagate_hopf(law))
    assert gate_distance(got, gate_at(law, tf)) < 1e-6


def test_hopf_rates_pure_drift():
    rates = hopf_rates((0.7, 0.1, -0.2), 0.0, 0.0, 0.9)
    assert rates[0] == 0.0
    assert abs(rates[1] + 0.9) < 1e-15
    assert abs(rates[2] + 0.9) < 1e-15


def test_hopf_theta2_stays_zero_on_transverse_rotations():
    # theta2 is identically zero along a transverse-plane law, even past the
    # equator pole of the chart
    for t_end in (0.6, 1.2, 1.9, 2.5):
        law = ExtremalLaw(phi0=0.4, p2=0.0, delta=0.0, tf=t_end)
        h = propagate_hopf(law)
        assert abs(h.theta2) < 1e-6
        assert abs(h.theta1 - t_end) < 1e-6


def test_pole_encountered():
    # jump the drive phase by pi/2 exactly at the chart equator: the rotated
    # control u2 turns on where tan(theta1) diverges
    law = ExtremalLaw(phi0=0.0, p2=0.0, delta=0.0, tf=2.0)
    t_jump = math.pi / 2 - 1e-9

    def control(t):
        return (0.0, -1.0) if t < t_jump else (-1.0, 0.0)

    with pytest.raises(PoleEncountered):
        propagate_hopf(law, n_steps=4000, control_fn=control)


# ---------------------------------------------------------------------------
# schedules and files
# ---------------------------------------------------------------------------

def test_schedule_invariants(rng):
    law = random_law(rng)
    sched = schedule_from_law(law, 512)
    t = sched.samples[:, 0]
    assert t[0] == 0.0 and abs(t[-1] - law.tf) < 1e-15
    assert np.all(np.diff(t) > 0)
    amp = sched.samples[:, 1] ** 2 + sched.samples[:, 2] ** 2
    assert np.abs(amp - 1.0).max() < 1e-12


def test_schedule_rejects_phase_aliasing():
    # three samples of a law with phase slope 2 delta: the step is delta
    with pytest.raises(DomainError, match="--samples"):
        schedule_from_law(ExtremalLaw(phi0=0.0, p2=0.0, delta=math.pi, tf=1.0), 3)
    sched = schedule_from_law(ExtremalLaw(phi0=0.0, p2=0.0, delta=3.1, tf=1.0), 3)
    assert sched.samples.shape == (3, 3)


def test_schedule_validation():
    with pytest.raises(DomainError):
        PulseSchedule(np.array([[0.0, 2.0, 0.0]]), delta=0.0)
    with pytest.raises(DomainError):
        PulseSchedule(np.array([[0.5, 1.0, 0.0], [0.2, 1.0, 0.0]]), delta=0.0)


def test_pulse_csv_round_trip(tmp_path, rng):
    law = random_law(rng, delta_range=(-1.0, 1.0))
    sched = schedule_from_law(law, 128)
    path = tmp_path / "pulse.csv"
    write_pulse_csv(sched, path)
    back = read_pulse_csv(path, delta=law.delta)
    assert np.allclose(back.samples, sched.samples, atol=0, rtol=0)


@pytest.mark.parametrize("bad", ["nan,1.0,0.0", "0.5,nan,0.0", "0.5,1.0,inf"])
def test_pulse_csv_non_finite_row_rejected(tmp_path, bad):
    # NaN compares False everywhere, so only an explicit finiteness check
    # stops it before propagation
    path = tmp_path / "pulse.csv"
    path.write_text(f"t,vx,vy\n0.0,1.0,0.0\n{bad}\n1.0,1.0,0.0\n")
    with pytest.raises(DomainError):
        read_pulse_csv(path)


def test_trajectory_csv_columns(tmp_path):
    from su2pulse import write_trajectory_csv
    law = ExtremalLaw(phi0=0.1, p2=0.4, delta=0.0, tf=1.0)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(law, path, 32)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,theta,phi,psi,theta1,theta2,theta3,vx,vy,eta"
    assert len(lines) == 33


def test_aliasing_hint_quotes_the_least_count_that_passes_its_check():
    # the check is turn / (n_samples - 1) < 1; the quoted count must pass it
    # and one fewer must fail it. From 2**53 - 2 on, that count is not
    # resolved by floats and the error names delta instead. Only failing
    # counts are tried, so no schedule is ever built
    rng = np.random.default_rng(814)
    turns = (10.0 ** rng.uniform(0.0, 18.0, 300)).tolist()
    turns += [2.0 ** 52 - 0.5, 2.0 ** 52, 2.0 ** 53 - 4.0, 2.0 ** 53 - 2.0, 2.0 ** 53, 1e307]
    quoted = 0
    for turn in turns:
        law = ExtremalLaw(0.0, 0.0, turn * math.pi / 2.0, 1.0)
        t = abs(2.0 * law.p2 + 2.0 * law.delta) * law.tf / math.pi
        with pytest.raises(DomainError) as exc:
            schedule_from_law(law, 2)
        hint = re.search(r"--samples (\d+) or more", str(exc.value))
        assert (hint is not None) == (t < 2.0 ** 53 - 2.0), (t, str(exc.value))
        if hint is None:
            assert f"delta = {law.delta!r} is out of range" in str(exc.value)
            continue
        quoted += 1
        n = int(hint.group(1))
        assert t / (n - 1) < 1.0 and not t / (n - 2) < 1.0, (t, n)
        with pytest.raises(DomainError, match="would alias"):
            schedule_from_law(law, n - 1)
    assert quoted > 200 and len(turns) - quoted > 20
