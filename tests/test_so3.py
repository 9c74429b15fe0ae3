import math

import numpy as np
import pytest

from su2pulse import (
    DomainError,
    random_gate,
    crossing_angles,
    gate_from_axis_angle,
    hopf_from_gate,
    select_faster,
    sweep_rotation_angle,
    xyrot_gate,
    zrot_gate,
)
from su2pulse.so3 import write_sweep_csv

from conftest import select_faster_oracle

TWO_PI = 2 * math.pi
Y_AXIS = (0.0, 1.0, 0.0)
DIAG_AXIS = (0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
Z_AXIS = (0.0, 0.0, 1.0)


def test_z_rotation_small_angle_prefers_U():
    d = select_faster(zrot_gate(math.pi / 4))
    assert d.chosen == "U" and not d.tie
    assert d.tf_plus < d.tf_minus


@pytest.mark.parametrize("lam", np.linspace(-1.9 * math.pi, 1.9 * math.pi, 21))
def test_z_rotation_decision_table(lam):
    lam = float(lam)
    if abs(abs(lam) - math.pi) < 1e-9:
        return
    d = select_faster(zrot_gate(lam))
    assert d.chosen == ("U" if abs(lam) < math.pi else "-U")


@pytest.mark.parametrize("b", np.linspace(0.15, TWO_PI - 0.15, 17))
def test_xy_rotation_decision_table(b):
    b = float(b)
    if abs(b - math.pi) < 1e-9:
        return
    d = select_faster(xyrot_gate(0.4, b))
    assert d.chosen == ("U" if b < math.pi else "-U")
    # closed form durations: b/2 and (2pi - b)/2
    assert abs(d.tf_plus - b / 2.0) < 1e-9
    assert abs(d.tf_minus - (TWO_PI - b) / 2.0) < 1e-9


def test_refocusing_pulse_tie():
    d = select_faster(xyrot_gate(0.0, math.pi))
    assert d.tie
    assert abs(d.tf_plus - math.pi / 2.0) < 1e-12
    assert abs(d.tf_minus - math.pi / 2.0) < 1e-12


def test_hadamard_tie():
    d = select_faster(gate_from_axis_angle(math.pi, DIAG_AXIS))
    assert d.tie
    assert abs(abs(d.theta2) - math.pi / 2.0) < 1e-12


def _polar_gauge_gates():
    # z-rotations, identity and -identity included (theta = 0), and
    # pi-rotations about transverse axes (X, Y and others; theta = pi),
    # whose canonical triples fix the azimuth gauge, and two transverse
    # rotations short of and past pi
    lams = [0.0, -0.0, TWO_PI, -TWO_PI, math.pi, -math.pi, 0.3, -5.0, 6.0]
    gates = [zrot_gate(lam) for lam in lams]
    gates += [xyrot_gate(a, math.pi) for a in (0.0, math.pi / 2.0, -math.pi, math.pi, 0.4, -2.2)]
    return gates + [xyrot_gate(0.4, b) for b in (0.5, 6.0)]


def test_negated_triple_matches_negated_gate():
    # -U's triple is derived from U's (psi + 2pi), not canonicalized from
    # the negated gate; the solve of either lands within 1e-12
    rng = np.random.default_rng(6065)
    gates = [random_gate(rng) for _ in range(400)] + _polar_gauge_gates()
    for g in gates:
        got, want = select_faster(g), select_faster_oracle(g)
        assert got.tf_plus == want.tf_plus
        assert abs(got.tf_minus - want.tf_minus) <= 1e-12
        assert (got.chosen, got.tie, got.theta2) == (want.chosen, want.tie, want.theta2)


@pytest.mark.parametrize("a", [0.0, math.pi / 2.0, -math.pi, 0.4])
def test_transverse_pi_rotations_tie(a):
    # X (a = 0), Y (a = pi/2) and any xyrot(a, pi): -U is U rotated by
    # 2pi, of the same duration
    d = select_faster(xyrot_gate(a, math.pi))
    assert d.tie and d.chosen == "U"
    assert abs(d.tf_plus - math.pi / 2.0) < 1e-12


def test_decision_matches_theta2_criterion(rng):
    from su2pulse import random_gate
    for _ in range(25):
        g = random_gate(rng)
        t2 = abs(hopf_from_gate(g).theta2)
        if abs(t2 - math.pi / 2.0) < 1e-3:
            continue
        d = select_faster(g)
        assert d.chosen == ("U" if t2 < math.pi / 2.0 else "-U")
        assert (d.tf_plus < d.tf_minus) == (t2 < math.pi / 2.0)


def test_tie_iff_theta2_half_pi(rng):
    from su2pulse import random_gate
    for _ in range(15):
        g = random_gate(rng)
        d = select_faster(g)
        t2_at_tie = abs(abs(d.theta2) - math.pi / 2.0)
        if d.tie:
            assert t2_at_tie < 1e-6
        elif t2_at_tie > 1e-6:
            assert abs(d.tf_plus - d.tf_minus) >= 1e-8


def test_sweep_z_axis_special_points():
    alphas = np.linspace(0.0, 4.0 * math.pi, 721)
    rows = sweep_rotation_angle(Z_AXIS, alphas)
    assert rows[0][1] == 0.0                      # identity at alpha = 0
    i2pi = 360
    assert abs(rows[i2pi][0] - TWO_PI) < 1e-12
    assert abs(rows[i2pi][1] - math.pi) < 1e-9    # tf_U at alpha = 2pi
    assert rows[i2pi][2] < 1e-9                   # -U is the identity there


@pytest.mark.parametrize("axis", [Y_AXIS, DIAG_AXIS, Z_AXIS])
def test_sweep_crossings_at_pi_and_3pi(axis):
    alphas = np.linspace(0.0, 4.0 * math.pi, 181)
    rows = sweep_rotation_angle(axis, alphas)
    cross = crossing_angles(rows)
    assert len(cross) == 2
    assert abs(cross[0] - math.pi) < 0.05
    assert abs(cross[1] - 3.0 * math.pi) < 0.05


def test_sweep_piecewise_monotone_y_axis():
    alphas = np.linspace(0.0, 4.0 * math.pi, 181)
    rows = sweep_rotation_angle(Y_AXIS, alphas)
    tf = np.array([r[1] for r in rows])
    half = 90  # alpha = 2pi
    assert np.all(np.diff(tf[:half + 1]) > -1e-9)
    assert np.all(np.diff(tf[half:]) < 1e-9)


def test_sweep_rejects_bad_axis():
    with pytest.raises(DomainError):
        sweep_rotation_angle((0.0, 2.0, 0.0), [0.1])


def test_sweep_single_point_and_csv(tmp_path):
    rows = sweep_rotation_angle(Y_AXIS, [math.pi / 2.0])
    assert len(rows) == 1
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "alpha,tf_U,tf_negU,chosen"
    assert len(lines) == 2
