import math
from dataclasses import astuple

import numpy as np
import pytest

from su2pulse import (
    DomainError,
    NonUnitary,
    NonUnitDeterminant,
    UnitGate,
    euler_from_gate,
    gate_distance,
    gate_from_axis_angle,
    gate_from_euler,
    gate_from_hopf,
    gate_from_matrix,
    hopf_from_gate,
    identity_gate,
    matrix_from_gate,
    negate_gate,
    parse_target,
    random_gate,
    xyrot_gate,
    zrot_gate,
)

from su2pulse.su2 import _axis_angle_stack, _euler_quat, _hopf_quat, _unit_quat, canonical_euler

from conftest import axis_angle_from_gate, euler_from_hopf, expm2, hopf_from_euler

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_gate_from_matrix_identity():
    g = gate_from_matrix(np.eye(2))
    assert g.quat == (1.0, 0.0, 0.0, 0.0)


def test_gate_from_matrix_i_sigma_z():
    g = gate_from_matrix(1j * SZ)
    assert np.allclose(g.quat, (0.0, 1.0, 0.0, 0.0), atol=1e-14)


def test_gate_from_matrix_y_rotation_vs_series_exponential():
    # oracle: series matrix exponential of (i pi/4) sigma_y
    m = expm2(1j * math.pi / 4 * SY)
    g = gate_from_matrix(m)
    assert np.allclose(g.quat, (math.cos(math.pi / 4), 0.0, math.sin(math.pi / 4), 0.0),
                       atol=1e-12)
    assert np.abs(matrix_from_gate(g) - m).max() < 1e-10


def test_gate_from_matrix_rejects_nonunitary():
    with pytest.raises(NonUnitary):
        gate_from_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_gate_from_matrix_rejects_global_phase():
    m = np.exp(1j * 0.3) * np.eye(2)
    with pytest.raises(NonUnitDeterminant):
        gate_from_matrix(m)


def test_matrix_round_trip_random(rng):
    for _ in range(200):
        g = random_gate(rng)
        g2 = gate_from_matrix(matrix_from_gate(g))
        assert gate_distance(g, g2) < 1e-12


def test_axis_angle_identity_gauge():
    aa = axis_angle_from_gate(identity_gate)
    assert aa.alpha == 0.0 and aa.gauge and aa.n == (0.0, 0.0, 1.0)


def test_axis_angle_pi_about_z():
    aa = axis_angle_from_gate(UnitGate(0.0, 1.0, 0.0, 0.0))
    assert abs(aa.alpha - math.pi) < 1e-14
    assert np.allclose(aa.n, (0.0, 0.0, 1.0))


def test_axis_angle_y_quarter_turn():
    g = UnitGate(math.cos(math.pi / 4), 0.0, math.sin(math.pi / 4), 0.0)
    aa = axis_angle_from_gate(g)
    assert abs(aa.alpha - math.pi / 2) < 1e-14
    assert np.allclose(aa.n, (0.0, 1.0, 0.0))
    # reconstruction closes the loop
    assert gate_distance(gate_from_axis_angle(aa.alpha, aa.n), g) < 1e-12


def test_axis_angle_round_trip_random(rng):
    for _ in range(200):
        g = random_gate(rng)
        aa = axis_angle_from_gate(g)
        if not aa.gauge:
            assert gate_distance(gate_from_axis_angle(aa.alpha, aa.n), g) < 1e-12


def test_axis_angle_requires_unit_axis():
    with pytest.raises(DomainError):
        gate_from_axis_angle(1.0, (1.0, 1.0, 0.0))


def test_hopf_euler_linear_map():
    h = hopf_from_euler(math.pi / 2, math.pi / 2, math.pi / 2)
    assert np.allclose((h.theta1, h.theta2, h.theta3),
                       (math.pi / 4, math.pi / 2, 0.0), atol=1e-14)


def test_hopf_euler_identity_gauge():
    h = hopf_from_euler(0.0, 0.0, 0.0)
    assert h.theta1 == 0.0 and h.theta3 == 0.0 and h.gauge


def test_hopf_euler_solved_linear_system():
    # (psi, theta, phi) = (-a, b, a): theta2 = (psi+phi)/2, theta3 = (psi-phi)/2
    a, b = math.pi / 3, math.pi / 2
    h = hopf_from_euler(-a, b, a)
    assert abs(h.theta1 - math.pi / 4) < 1e-14
    assert abs(h.theta2 - 0.0) < 1e-14
    assert abs(h.theta3 - (-math.pi / 3)) < 1e-14


def test_hopf_from_euler_affine(rng):
    # superposition: the map is affine (here linear) in (psi, theta, phi)
    for _ in range(50):
        p1, t1, f1 = rng.uniform(-1.0, 1.0, 3)
        p2, t2, f2 = rng.uniform(-1.0, 1.0, 3)
        t1, t2 = abs(t1), abs(t2)
        ha = hopf_from_euler(p1, t1, f1)
        hb = hopf_from_euler(p2, t2, f2)
        hs = hopf_from_euler(p1 + p2, t1 + t2, f1 + f2)
        assert abs(hs.theta1 - (ha.theta1 + hb.theta1)) < 1e-12
        assert abs(hs.theta2 - (ha.theta2 + hb.theta2)) < 1e-12


def test_hopf_domain_errors():
    with pytest.raises(DomainError):
        hopf_from_euler(0.0, -0.5, 0.0)
    with pytest.raises(DomainError):
        from su2pulse import HopfCoords
        euler_from_hopf(HopfCoords(2.0, 0.0, 0.0))


def test_euler_round_trip_off_gauge(rng):
    for _ in range(500):
        g = random_gate(rng)
        e = euler_from_gate(g)
        assert -2 * math.pi <= e.psi < 2 * math.pi
        assert 0.0 <= e.theta <= math.pi
        assert -math.pi <= e.phi < math.pi
        assert gate_distance(gate_from_euler(e.psi, e.theta, e.phi), g) < 1e-12


def test_conversion_commutativity(rng):
    # matrix -> quaternion -> euler equals matrix -> hopf -> euler
    worst = 0.0
    for _ in range(10_000):
        g = random_gate(rng)
        e = euler_from_gate(g)
        h = hopf_from_gate(g)
        e2 = euler_from_hopf(h)
        d = gate_distance(gate_from_euler(e.psi, e.theta, e.phi),
                          gate_from_euler(e2.psi, e2.theta, e2.phi))
        worst = max(worst, d)
    assert worst < 1e-10


def test_z_rotation_canonical_form():
    e = euler_from_gate(zrot_gate(1.3))
    assert e.theta == 0.0 and e.phi == 0.0 and abs(e.psi - 1.3) < 1e-12


def test_negate_gate_quaternion():
    g = negate_gate(identity_gate)
    assert g.quat == (-1.0, 0.0, 0.0, 0.0)


def test_negate_involution_exact(rng):
    for _ in range(100):
        g = random_gate(rng)
        assert negate_gate(negate_gate(g)).quat == g.quat


def test_negate_z_rotation_parameter():
    # lambda = pi/2 -> lambda_tilde = pi/2 - 2pi = -3pi/2
    e = euler_from_gate(negate_gate(zrot_gate(math.pi / 2)))
    assert e.theta == 0.0
    assert abs(e.psi - (math.pi / 2 - 2 * math.pi)) < 1e-12


def test_negate_xy_rotation_parameters():
    # (a, b) = (0, pi/5) -> (a~, b~) = (pi, 9pi/5)
    got = negate_gate(xyrot_gate(0.0, math.pi / 5))
    want = xyrot_gate(math.pi, 9 * math.pi / 5)
    assert gate_distance(got, want) < 1e-14


def test_negate_hopf_relation(rng):
    # theta1 unchanged; theta2 shifts by -sgn(theta2) pi
    for _ in range(100):
        g = random_gate(rng)
        h = hopf_from_gate(g)
        hn = hopf_from_gate(negate_gate(g))
        if h.gauge or hn.gauge:
            continue
        assert abs(hn.theta1 - h.theta1) < 1e-12
        shift = h.theta2 - math.copysign(math.pi, h.theta2)
        assert abs((hn.theta2 - shift + math.pi) % (2 * math.pi) - math.pi) < 1e-12


def test_quaternion_norm_preserved_by_conversions(rng):
    for _ in range(200):
        g = random_gate(rng)
        for g2 in (gate_from_hopf(hopf_from_gate(g)),
                   gate_from_matrix(matrix_from_gate(g)),
                   negate_gate(g)):
            n = sum(c * c for c in g2.quat)
            assert abs(n - 1.0) < 1e-12


@pytest.mark.parametrize("q", [(1e200, 0.0, 0.0, 0.0), (1e308, 1e308, 0.0, 0.0),
                               (1e-200, 0.0, 0.0, 0.0), (3e-162, 0.0, 0.0, 0.0)])
def test_unit_gate_normalizes_quaternions_outside_the_float_range(q):
    # the sum of squares overflows (an OverflowError), underflows to 0 (a
    # "zero norm" DomainError) or is subnormal (a non-unit gate) unless q
    # is scaled first
    norm = math.hypot(*q)
    got = UnitGate(*q).quat
    assert np.allclose(got, [x / norm for x in q], rtol=0.0, atol=2e-16)
    assert abs(math.fsum(x * x for x in got) - 1.0) <= 1e-15


def test_parse_target_grammar():
    assert parse_target("quat:1,0,0,0").gate.quat == (1.0, 0.0, 0.0, 0.0)
    assert parse_target("zrot:1.5").zrot == 1.5
    assert parse_target("xyrot:0.2,1.0").xyrot == (0.2, 1.0)
    g = parse_target("euler:0.1,0.2,0.3").gate
    assert gate_distance(g, gate_from_euler(0.1, 0.2, 0.3)) < 1e-14
    g = parse_target("axis:1.0@0,0,1").gate
    assert gate_distance(g, zrot_gate(1.0)) < 1e-14
    g = parse_target('matrix:[[0.7071067811865476+0j,0.7071067811865476j],'
                     '[0.7071067811865476j,0.7071067811865476+0j]]').gate
    assert abs(g.x1 - math.cos(math.pi / 4)) < 1e-12
    # spaces around a value are allowed
    assert parse_target(" euler: 0.1 , 0.2 ,0.3 ").gate == parse_target("euler:0.1,0.2,0.3").gate
    assert parse_target("quat: 1, 0,0 ,0").gate.quat == (1.0, 0.0, 0.0, 0.0)
    assert parse_target("axis:1.0@ 0 ,0, 1").gate == parse_target("axis:1.0@0,0,1").gate


@pytest.mark.parametrize("bad", [
    "zrot:7.0", "xyrot:4.0,1.0", "xyrot:0,6.3", "axis:1.0@1,1,1",
    "euler:0,4.0,0", "nonsense", "quat:1,2,3", "matrix:[[1,0],[0]]",
])
def test_parse_target_rejects(bad):
    with pytest.raises(DomainError):
        parse_target(bad)


@pytest.mark.parametrize("bad", [
    "euler:1,,2,3", "euler:0.1,0.2,0.3,", "euler:,0.1,0.2,0.3", "euler:0.1, ,0.3",
    "quat:1,0,0,0,", "axis:1@1,0,,0", "axis:1@,0,0,1", "xyrot:0.2,1.0,", "zrot:", "zrot:,",
])
def test_empty_fields_are_rejected_naming_the_spec(bad):
    # an empty or blank field, a trailing comma's too, is not skipped:
    # "euler:1,,2,3" is not "euler:1,2,3"
    kind, _, body = bad.partition(":")
    with pytest.raises(DomainError, match=f"^{kind}: empty field in ") as err:
        parse_target(bad)
    assert repr(body.partition("@")[2] or body) in str(err.value)


@pytest.mark.parametrize("bad, kind", [
    ("quat:1,0,0_0,0", "quat"), ("euler:0,1_0e-1,0", "euler"), ("zrot:0_1", "zrot"),
    ("xyrot:0.2,1_0", "xyrot"), ("axis:0_1@0,0,1", "axis"), ("axis:1.0@0,0,1_0", "axis"),
    ("matrix:[[1,0],[0,1_0]]", "matrix"),
])
def test_digit_group_underscores_are_rejected_naming_the_spec(bad, kind):
    # Python's float() and complex() read "0_1" as 1 and "1_0e-1" as 1.0,
    # where a typo for "0.1" is as likely; no number of a spec takes them
    with pytest.raises(DomainError, match=f"^{kind}: ") as err:
        parse_target(bad)
    assert "_" in str(err.value)


# ---------------------------------------------------------------------------
# tuple kernels: the sweeps' object-free path against the gate objects
# ---------------------------------------------------------------------------

def test_tuple_kernels_match_the_gate_objects_bit_for_bit():
    # seeded quaternions, plus quaternions with |(x3, x4)| or |(x1, x2)|
    # on a log grid around GAUGE_TOL (both gauges, both polar bands), each
    # also scaled off unit norm; U and -U
    rng = np.random.default_rng(812)
    quats = [tuple(v) for v in rng.normal(size=(2000, 4)).tolist()]
    for small in np.geomspace(1e-11, 1e-6, 41).tolist():
        a, b = rng.uniform(-math.pi, math.pi, 2).tolist()
        big, tiny = (math.cos(a), math.sin(a)), (small * math.cos(b), small * math.sin(b))
        quats += [big + tiny, tiny + big]
    scales = [0.5, 3.0, 1.0 + 1e-15, 1.0 + 3e-15]
    quats += [tuple(s * x for x in q) for i, q in enumerate(quats) for s in [scales[i % 4]]]
    gauges = set()
    for q in quats:
        g = UnitGate(*q)
        u = _unit_quat(q)
        assert u == g.quat
        assert _hopf_quat(u) == astuple(hopf_from_gate(g))
        assert _euler_quat(u) == astuple(canonical_euler(g))
        assert _euler_quat(_unit_quat(tuple(-x for x in u))) == astuple(canonical_euler(negate_gate(g)))
        h = hopf_from_gate(g)
        gauges.add((h.gauge, h.theta1 < math.pi / 4.0))
    assert gauges == {(False, True), (False, False), (True, True), (True, False)}


def test_axis_angle_kernel_matches_gate_from_axis_angle():
    rng = np.random.default_rng(813)
    for n in rng.normal(size=(50, 3)):
        n = n / np.linalg.norm(n)
        alphas = rng.uniform(0.0, 4.0 * math.pi, 20).tolist()
        for alpha, q in zip(alphas, zip(*_axis_angle_stack(alphas, n.tolist()).tolist())):
            assert _unit_quat(q) == gate_from_axis_angle(alpha, n).quat
