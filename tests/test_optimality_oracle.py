"""An optimality oracle that shares no code with the label map.

The paper's normal extremals have unit amplitude and drive phase
mu(t) = phi0 - pi/2 + (2 p2 + 2 delta) t. In the frame rotating at
s/2 = p2 + delta about z such a drive is constant, so the endpoint is

    U(phi0, p2, t) = exp(-i s t sz/2) exp(-i t (cos mu0 sx + sin mu0 sy - p2 sz)),

written here with 2x2 matrices. The oracle solves U(phi0, p2, t) = W, W
built from the Euler triple by this module's own matrices, by damped
Gauss-Newton from a grid of starts: phi0 over its circle, the circle's
inclination atan2(1, p2) over |p2| <= 4 cot(theta*/2) + 4 (the circle
geometry bounds it by cot(theta*/2)), and the arrival angle eta over one
revolution, t = eta sin(theta_bar) / 2. The least t of the converged
roots bounds the library's duration from below with no label map, arc,
4pi lift or solver of the package.
"""
import math

import numpy as np
import pytest

from su2pulse import gate_from_euler, synthesize
from su2pulse.su2 import EulerTarget, canonical_euler

_ROOT_TOL = 1e-10           # |U - W| in quaternion coordinates at a root


def _euler_matrix(psi: float, theta: float, phi: float) -> np.ndarray:
    """exp(i psi sz/2) exp(i theta sy/2) exp(i phi sz/2)."""
    def rz(a):
        return np.diag([np.exp(0.5j * a), np.exp(-0.5j * a)])
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return rz(psi) @ np.array([[c, s], [-s, c]], dtype=complex) @ rz(phi)


def _coords(m: np.ndarray) -> np.ndarray:
    """The four real coordinates of SU(2) matrices [[a, b], [-b*, a*]]."""
    return np.stack([m[..., 0, 0].real, m[..., 0, 0].imag, m[..., 0, 1].real,
                     m[..., 0, 1].imag], axis=-1)


def _extremal(phi0, p2, t, delta: float) -> np.ndarray:
    """(n, 2, 2) endpoints of the unit-amplitude extremals (phi0, p2) at t."""
    mu0, s, w = phi0 - math.pi / 2.0, 2.0 * p2 + 2.0 * delta, np.sqrt(1.0 + p2 * p2)
    c, sn = np.cos(w * t), np.sin(w * t) / w
    frame = np.exp(-0.5j * s * t)
    out = np.empty(np.shape(t) + (2, 2), dtype=complex)
    out[..., 0, 0] = frame * (c + 1j * sn * p2)
    out[..., 0, 1] = frame * (-1j * sn * np.exp(-1j * mu0))
    out[..., 1, 0] = np.conj(frame) * (-1j * sn * np.exp(1j * mu0))
    out[..., 1, 1] = np.conj(frame) * (c - 1j * sn * p2)
    return out


def oracle_min_time(w: np.ndarray, delta: float, theta_star: float,
                    starts=(16, 16, 8), steps: int = 60) -> tuple[float, int]:
    """(least t, number of converged starts) of U(phi0, p2, t) = w, nan if
    no start converged."""
    p_max = 4.0 / math.tan(theta_star / 2.0) + 4.0
    b_min = math.atan2(1.0, p_max)
    phi0, bar, eta = np.meshgrid(
        np.linspace(-math.pi, math.pi, starts[0], endpoint=False),
        np.linspace(b_min, math.pi - b_min, starts[1]),
        np.linspace(2.0 * math.pi / starts[2], 2.0 * math.pi, starts[2]), indexing="ij")
    x = np.stack([phi0.ravel(), 1.0 / np.tan(bar.ravel()),
                  (0.5 * eta * np.sin(bar)).ravel()], axis=1)
    want = _coords(w)

    def residual(x):
        return _coords(_extremal(x[:, 0], x[:, 1], x[:, 2], delta)) - want

    r = residual(x)
    damping = np.full(len(x), 1e-3)
    h = 1e-7
    for _ in range(steps):
        jac = np.empty((len(x), 4, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            jac[:, :, j] = (residual(x + step) - residual(x - step)) / (2.0 * h)
        normal = np.einsum("nki,nkj->nij", jac, jac) + damping[:, None, None] * np.eye(3)
        dx = -np.linalg.solve(normal, np.einsum("nki,nk->ni", jac, r)[..., None])[..., 0]
        trial = x + dx
        r_trial = residual(trial)
        better = (r_trial * r_trial).sum(axis=1) < (r * r).sum(axis=1)
        x[better], r[better] = trial[better], r_trial[better]
        damping = np.clip(np.where(better, 0.3 * damping, 10.0 * damping), 1e-12, 1e6)
    root = ((np.sqrt((r * r).sum(axis=1)) < _ROOT_TOL) & (x[:, 2] >= 0.0)
            & (np.abs(x[:, 1]) <= p_max))
    return (float(x[root, 2].min()) if root.any() else math.nan), int(root.sum())


def _cases():
    """Seeded targets with theta* >= 0.1, each at the resonant point, a
    full window, a strict arc, both threshold sides +-tan(theta*/2)(1 +
    1e-6), delta = 50 and delta = -1e3."""
    rng = np.random.default_rng(3003)
    cases = []
    for theta in (0.1, float(rng.uniform(0.4, 1.6)), float(rng.uniform(1.6, math.pi - 0.1))):
        e = canonical_euler(EulerTarget(float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi)), theta,
                                        float(rng.uniform(-math.pi, math.pi))))
        tan_half = math.tan(e.theta / 2.0)
        strict = float(rng.choice([-1.0, 1.0])) * (1.5 * tan_half + 0.2)
        for delta in (0.0, 0.5 * tan_half, strict, tan_half * (1.0 + 1e-6),
                      -tan_half * (1.0 + 1e-6), 50.0, -1e3):
            cases.append(pytest.param(e, delta, id=f"theta{e.theta:.3g}-delta{delta:+.6g}"))
    return cases


@pytest.mark.parametrize("e, delta", _cases())
def test_no_extremal_reaches_the_target_faster(e, delta):
    w = _euler_matrix(e.psi, e.theta, e.phi)
    law = synthesize(gate_from_euler(e.psi, e.theta, e.phi), delta, verify=False).law
    # the library's law is an extremal of this model that reaches w
    reached = _coords(_extremal(np.array([law.phi0]), np.array([law.p2]),
                                np.array([law.tf]), delta))[0]
    assert np.abs(reached - _coords(w)).max() < 1e-8
    best, roots = oracle_min_time(w, delta, e.theta)
    assert roots > 0 and math.isfinite(best)
    assert law.tf <= best + 1e-8, (law.tf, best)
