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
from .resonant import synthesize_general
from .su2 import UnitGate, gate_from_axis_angle, hopf_from_gate, negate_gate

TIE_TOL = 1e-8


@dataclass(frozen=True)
class So3Decision:
    chosen: str                 # "U" or "-U"; ties report "U"
    tf_plus: float              # duration for U
    tf_minus: float             # duration for -U
    tie: bool
    theta2: float               # Hopf theta2 of U, the decision angle


def select_faster(g: UnitGate) -> So3Decision:
    """Synthesize U and -U at zero detuning and pick the faster one."""
    r_plus = synthesize_general(g, verify=False)
    r_minus = synthesize_general(negate_gate(g), verify=False)
    tp, tm = r_plus.law.tf, r_minus.law.tf
    tie = abs(tp - tm) < TIE_TOL
    chosen = "U" if (tie or tp < tm) else "-U"
    return So3Decision(chosen, tp, tm, tie, hopf_from_gate(g).theta2)


def sweep_rotation_angle(axis, alphas) -> list[tuple[float, float, float, str]]:
    """Durations for rotations of each angle alpha in [0, 4pi] about a fixed
    axis, for both SU(2) representatives.

    Returns rows (alpha, tf_U, tf_negU, chosen). The two curves cross only
    at alpha = pi + 2 pi k.
    """
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,) or abs(float(np.linalg.norm(ax)) - 1.0) > 1e-9:
        raise DomainError("axis must be a unit 3-vector")
    rows = []
    for alpha in np.atleast_1d(np.asarray(alphas, dtype=float)):
        a = float(alpha)
        if not (0.0 <= a <= 4.0 * math.pi + 1e-12):
            raise DomainError(f"alpha = {a:.12g} outside [0, 4pi]")
        dec = select_faster(gate_from_axis_angle(min(a, 4.0 * math.pi - 1e-15), ax))
        rows.append((a, dec.tf_plus, dec.tf_minus, dec.chosen))
    return rows


def write_sweep_csv(rows, path) -> None:
    write_csv(path, "alpha,tf_U,tf_negU,chosen", "%.17g,%.17g,%.17g,%s", len(rows),
              [v for row in rows for v in row])


def crossing_angles(rows, tol: float = TIE_TOL) -> list[float]:
    """Angles where tf_U - tf_negU changes sign or ties, located at the
    midpoint of the bracketing grid interval (or the tie grid point)."""
    out = []
    diffs = [r[1] - r[2] for r in rows]
    for i in range(len(rows) - 1):
        a, b = diffs[i], diffs[i + 1]
        if abs(a) < tol:
            out.append(rows[i][0])
        elif a * b < 0.0:
            out.append(0.5 * (rows[i][0] + rows[i + 1][0]))
    if diffs and abs(diffs[-1]) < tol:
        out.append(rows[-1][0])
    # merge near-duplicates from a tie grid point flanked by sign changes
    merged = []
    for x in out:
        if not merged or x - merged[-1] > 0.1:
            merged.append(x)
    return merged
