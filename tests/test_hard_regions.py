"""Seeded sweeps over the hard regions of the detuned solve.

Just above the detuning threshold |delta| = tan(theta*/2) the two
stationary labels of f_delta meet at a tangency control, where f_delta is
known only to about sqrt(eps) (1 + 2|delta|). Every solve there must still
reach the gate the caller asked for, checked by the exact propagator.
"""
import math

import numpy as np
import pytest

from su2pulse import (
    gate_distance,
    gate_from_euler,
    propagate_law_exact,
    synthesize,
    tdiff_analysis,
)
from su2pulse.su2 import canonical_euler


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
