"""Shared fixtures and independent numerical oracles for the test suite.

The brute-force minimum-time oracles live here: `brute_force_min_time`
(zero detuning) and `scan_family_min_time` (any detuning). Both scan a
whole control family on a grid for arrivals at the target, with the
package's shared mod-4pi root scan, and take the fastest; neither uses
the solvers' 4pi bookkeeping or the optimal-domain construction.
"""
import math

import numpy as np
import pytest

from su2pulse import DomainError, ExtremalLaw, TargetUnreached, gate_distance, propagate_law
from su2pulse.detuned import _scan_z_roots
from su2pulse.resonant import _roots_mod_4pi, label_for_phi0, target_gate
from su2pulse.su2 import POLAR_THETA_TOL, canonical_euler, wrap_4pi, wrap_pi


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def expm2(m: np.ndarray, terms: int = 40) -> np.ndarray:
    """Series matrix exponential with scaling and squaring (2x2 oracle)."""
    m = np.asarray(m, dtype=complex)
    k = max(0, int(math.ceil(math.log2(max(1e-30, np.abs(m).max())))) + 2)
    a = m / (2 ** k)
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, terms):
        term = term @ a / n
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def euler_ode_oracle(phi0: float, p2: float, delta: float, t_end: float,
                     dt: float = 1e-5):
    """RK4 on the reduced Hamilton system in (theta1, p1, psi, phi).

    Independent of the closed form; rates: theta1' = p1,
    p1' = -p2^2 tan(theta1) sec^2(theta1), psi' = p2 (tan^2 - 1) - 2 delta,
    phi' = p2 sec^2(theta1). Starts at the pole with p1 = 1.
    """
    def rhs(s):
        t1, p1 = s[0], s[1]
        tn = math.tan(t1)
        sec2 = 1.0 + tn * tn
        return np.array([
            p1,
            -p2 * p2 * tn * sec2,
            p2 * (tn * tn - 1.0) - 2.0 * delta,
            p2 * sec2,
        ])

    n = max(1, int(round(t_end / dt)))
    h = t_end / n
    s = np.array([0.0, 1.0, -phi0, phi0])
    for _ in range(n):
        k1 = rhs(s)
        k2 = rhs(s + h / 2 * k1)
        k3 = rhs(s + h / 2 * k2)
        k4 = rhs(s + h * k3)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return {"theta1": s[0], "p1": s[1], "psi": s[2], "phi": s[3]}


def random_law(rng, delta_range=(0.0, 0.0), p2_range=(-3.0, 3.0)) -> ExtremalLaw:
    """Random extremal with duration inside one revolution of its circle."""
    p2 = float(rng.uniform(*p2_range))
    delta = float(rng.uniform(*delta_range))
    phi0 = float(rng.uniform(-math.pi, math.pi))
    sin_bar = math.sin(math.atan2(1.0, p2))
    tf = float(rng.uniform(0.1, 0.95)) * math.pi * sin_bar
    return ExtremalLaw(phi0=phi0, p2=p2, delta=delta, tf=tf)


def gamma_points(law: ExtremalLaw, t: np.ndarray) -> np.ndarray:
    """Vectorized sphere points of the projected trajectory (test-local
    reimplementation, kept independent of the package internals)."""
    tb = math.atan2(1.0, law.p2)
    sb, cb = math.sin(tb), math.cos(tb)
    eta = 2.0 * t / sb
    theta = 2.0 * np.arcsin(np.clip(sb * np.abs(np.sin(eta / 2.0)), 0.0, 1.0))
    raw = np.arctan2(-np.sin(eta % (2 * math.pi)),
                     cb * (1.0 - np.cos(eta % (2 * math.pi))))
    if abs(cb) < 1e-15:
        raw = np.where(eta % (2 * math.pi) <= math.pi, -math.pi / 2, math.pi / 2)
    elif cb < 0.0:
        raw = np.where(raw > 0.0, raw - 2 * math.pi, raw)
    phi = law.phi0 + math.pi / 2.0 + raw
    phi = np.where(eta % (2 * math.pi) < 1e-14, law.phi0, phi)
    return np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=1)


def brute_force_min_time(target, grid: int = 4096) -> float:
    """Minimum arrival time over a phi0 grid scan at zero detuning.

    Every grid law is built from the circle geometry; sign changes of the
    label mismatch are refined, and the fastest refined law is replayed
    through the RK4 propagator. TargetUnreached when the scan finds none.
    """
    if grid < 512:
        raise DomainError("grid must be at least 512")
    e = canonical_euler(target)
    if e.theta < POLAR_THETA_TOL:
        return _brute_force_z(e.psi, grid)

    def label(phi0):
        return label_for_phi0(phi0, e.theta, e.phi)[0]

    phis = np.linspace(e.phi - math.pi, e.phi + math.pi, grid)
    roots = _roots_mod_4pi(label, phis, [label(float(x)) for x in phis], e.psi, 1e-10)
    if not roots:
        raise TargetUnreached("no grid law reaches the target; increase the grid")
    phi0 = min(roots, key=lambda x: label_for_phi0(x, e.theta, e.phi)[1])
    _, tf, p2, _ = label_for_phi0(phi0, e.theta, e.phi)
    law = ExtremalLaw(phi0=wrap_pi(phi0), p2=p2, delta=0.0, tf=tf)
    if gate_distance(propagate_law(law, n_steps=4000), target_gate(e)) > 1e-3:
        raise TargetUnreached("refined candidate fails propagation replay")
    return tf


def _brute_force_z(lambda_star: float, grid: int) -> float:
    """Scan full-circle laws by axis inclination; their z-angle is
    2pi (1 - cos(tilt)) and their duration pi sin(tilt)."""
    lam = wrap_4pi(lambda_star)
    if lam == 0.0:
        return 0.0
    tilts = np.linspace(1e-6, math.pi - 1e-6, grid)
    roots = _roots_mod_4pi(lambda t: 2.0 * math.pi * (1.0 - math.cos(t)), tilts,
                           2.0 * math.pi * (1.0 - np.cos(tilts)), lam, 0.0)
    if not roots:
        raise TargetUnreached("z-rotation scan found no candidate")
    return min(math.pi * math.sin(t) for t in roots)


def scan_family_min_time(target, delta: float, grid: int = 4096) -> float:
    """Scan every control of the label family for arrivals at the target
    under delta and return the fastest duration; independent of the
    optimal-domain construction."""
    e = canonical_euler(target)
    if e.theta < POLAR_THETA_TOL:
        return _scan_z_roots(e.psi, delta, grid)[1]

    def f(phi0):
        label, tf, _, _ = label_for_phi0(phi0, e.theta, e.phi)
        return label - 2.0 * delta * tf

    phis = np.linspace(e.phi - math.pi, e.phi + math.pi, grid)
    roots = _roots_mod_4pi(f, phis, [f(float(x)) for x in phis], e.psi, 0.0)
    if not roots:
        raise TargetUnreached("family scan found no arrival")
    return min(label_for_phi0(x, e.theta, e.phi)[1] for x in roots)
