"""The package exports README's Library entry points, and the test oracles
that live in conftest are no longer package attributes."""
import importlib

import su2pulse

ENTRY_POINTS = """synthesize_z_rotation synthesize_xy_rotation synthesize_general
    synthesize_detuned select_faster sweep_rotation_angle tdiff_analysis build_psi_family
    optimal_domain propagate_law_exact propagate_pulse propagate_law propagate_schrodinger
    schedule_from_law gate_from_axis_angle gate_distance""".split()
TEST_ORACLES = """PoleEncountered AxisAngle axis_angle_from_gate hopf_from_euler euler_from_hopf
    AdjointState CircleGeometry TrajectoryPoint adjoint_at circle_geometry control_at gate_at
    hamiltonian_residual propagate_hopf trajectory_point endpoint_map hopf_rates
    _exact_step_hopf""".split()


def test_public_surface():
    assert len(ENTRY_POINTS) == 16 and len(TEST_ORACLES) == 18
    assert [n for n in ENTRY_POINTS if not callable(getattr(su2pulse, n, None))] == []
    for name in ("su2pulse", "su2pulse.dynamics", "su2pulse.su2", "su2pulse.detuned",
                 "su2pulse.errors"):
        module = importlib.import_module(name)
        assert [n for n in TEST_ORACLES if hasattr(module, n)] == [], name
