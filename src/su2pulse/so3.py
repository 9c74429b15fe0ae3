"""SO(3)-level selection: is U or -U faster to generate?

Both SU(2) representatives of a rotation are synthesized and their
durations compared. The decision reduces to the Hopf angle theta2 of the
gate: U wins iff |theta2| < pi/2, a tie (|theta2| = pi/2) happens exactly
for pi-rotations about any axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import write_csv
from .errors import DomainError
from .resonant import _resonant_durations, _synthesize_canonical, synthesize_general
from .su2 import (EulerTarget, UnitGate, _axis_angle_stack, _euler_quat_stack,
                  _unit_quat_stack, euler_from_gate, hopf_from_gate, negate_gate, negated_psi)

TIE_TOL = 1e-8


@dataclass(frozen=True)
class So3Decision:
    chosen: str                 # "U" or "-U"; ties report "U"
    tf_plus: float              # duration for U
    tf_minus: float             # duration for -U
    tie: bool
    theta2: float               # Hopf theta2 of U, the decision angle


def _faster(tp: float, tm: float) -> tuple[str, bool]:
    """(chosen, tie) for durations tp of U and tm of -U; ties report "U"."""
    tie = abs(tp - tm) < TIE_TOL
    return ("U" if (tie or tp < tm) else "-U"), tie


def select_faster(g: UnitGate) -> So3Decision:
    """Synthesize U and -U at zero detuning and pick the faster one.

    -U's canonical Euler triple is U's with psi + 2pi (negated_psi) and
    the same theta and phi; that triple is solved as it is. A z-rotation's
    -U takes its label from the negated quaternion instead: near -U = the
    identity tf ~ sqrt(lambda) would magnify the ulp(2pi) rounding of U's psi."""
    e = euler_from_gate(g)
    tp = synthesize_general(g, verify=False).law.tf
    e_neg = (euler_from_gate(negate_gate(g)) if e.theta == 0.0 else
             EulerTarget(negated_psi(e.psi), e.theta, e.phi))
    tm = _synthesize_canonical(e_neg, verify=False).law.tf
    chosen, tie = _faster(tp, tm)
    return So3Decision(chosen, tp, tm, tie, hopf_from_gate(g).theta2)


def sweep_rotation_angle(axis, alphas) -> list[tuple[float, float, float, str]]:
    """Durations for rotations of each angle alpha in [0, 4pi] about a fixed
    axis, for both SU(2) representatives.

    Returns rows (alpha, tf_U, tf_negU, chosen) as select_faster gives
    them, all angles in one array solve. The rotations are canonicalized
    in one array pass, for U; -U's triple is U's with psi + 2pi, or for a
    z-rotation the negated quaternion's, as there. The curves cross only
    at alpha = pi + 2 pi k.
    """
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,) or abs(float(np.linalg.norm(ax)) - 1.0) > 1e-9:
        raise DomainError("axis must be a unit 3-vector")
    angles = np.atleast_1d(np.asarray(alphas, dtype=float))
    bad = ~((0.0 <= angles) & (angles <= 4.0 * math.pi + 1e-12))
    if bad.any():
        raise DomainError(f"alpha = {angles[bad][0]:.12g} outside [0, 4pi]")
    q = _unit_quat_stack(_axis_angle_stack(np.minimum(angles, 4.0 * math.pi - 1e-15),
                                           ax.tolist()))
    psi, theta, phi = _euler_quat_stack(q)
    psi_neg = negated_psi(psi)
    z = theta == 0.0
    if z.any():
        psi_neg[z] = _euler_quat_stack(-q[:, z])[0]
    # U and -U of each angle side by side
    tf = _resonant_durations(np.column_stack([psi, psi_neg]).ravel(),
                             np.repeat(theta, 2), np.repeat(phi, 2)).tolist()
    return [(a, tp, tm, _faster(tp, tm)[0])
            for a, tp, tm in zip(angles.tolist(), tf[::2], tf[1::2])]


def write_sweep_csv(rows, path) -> None:
    table = np.array([row[:3] for row in rows]).reshape(-1, 3)
    write_csv(path, "alpha,tf_U,tf_negU,chosen", table, [row[3] for row in rows])


def crossing_angles(rows) -> list[float]:
    """Angles where tf_U - tf_negU changes sign or ties within TIE_TOL, at
    the midpoint of the bracketing grid interval (or the tie grid point)."""
    out = []
    diffs = [r[1] - r[2] for r in rows]
    for i in range(len(rows) - 1):
        a, b = diffs[i], diffs[i + 1]
        if abs(a) < TIE_TOL:
            out.append(rows[i][0])
        elif a * b < 0.0:
            out.append(0.5 * (rows[i][0] + rows[i + 1][0]))
    if diffs and abs(diffs[-1]) < TIE_TOL:
        out.append(rows[-1][0])
    # merge near-duplicates from a tie grid point flanked by sign changes
    merged = []
    for x in out:
        if not merged or x - merged[-1] > 0.1:
            merged.append(x)
    return merged
