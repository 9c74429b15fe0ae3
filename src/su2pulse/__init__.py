"""Time-optimal bounded control pulses for single-qubit SU(2) gates.

Synthesis of minimum-duration two-axis drives realizing arbitrary SU(2)
targets, on and off resonance, verified by independent Schrodinger
propagation. All times are normalized ((omega_max / 2) * t_physical) and
all angles are radians.
"""

from .errors import (
    DomainError,
    NoConvergence,
    NonUnitary,
    NonUnitDeterminant,
    NoStationaryPoint,
    StepTooLarge,
    Su2PulseError,
    TargetUnreached,
)
from .su2 import (
    EulerTarget,
    HopfCoords,
    ParsedTarget,
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
    wrap_4pi,
    wrap_pi,
    xyrot_gate,
    zrot_gate,
)
from .dynamics import (
    ExtremalLaw,
    PulseSchedule,
    propagate_law,
    propagate_law_exact,
    propagate_pulse,
    propagate_schrodinger,
    read_pulse_csv,
    schedule_from_law,
    write_pulse_csv,
    write_trajectory_csv,
)
from .resonant import (
    SynthesisResult,
    synthesize,
    synthesize_general,
    synthesize_xy_rotation,
    synthesize_z_rotation,
    z_rotation_parameters,
)
from .so3 import So3Decision, crossing_angles, select_faster, sweep_rotation_angle
from .detuned import (
    OptimalDomain,
    PsiFamily,
    TdiffReport,
    build_psi_family,
    optimal_domain,
    synthesize_detuned,
    tdiff_analysis,
)

__version__ = "0.1.0"
