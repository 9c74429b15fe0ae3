"""Benchmark-local reference gates and exact propagators.

These share no code with su2pulse: the checks in the benchmark compare the
package's outputs against the gate the benchmark itself generated, with
2x2 complex matrices built here from the target-grammar formulas in the
README. Convention: i dU/dt = (vx sx + vy sy + delta sz) U, U(0) = I.

A law's control has unit amplitude and the linear phase
mu(t) = mu0 + s t with mu0 = phi0 - pi/2 and s = 2 p2 + 2 delta. In the
frame rotating at s/2 about z its Hamiltonian is constant, so

    U(tf) = exp(-i s tf sz/2) . exp(-i tf H0),
    H0 = cos(mu0) sx + sin(mu0) sy + (delta - s/2) sz.

A sampled pulse whose phase is linear between samples is the ordered
product of one such factor per segment.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

I2 = ((1 + 0j, 0j), (0j, 1 + 0j))


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def frobenius(a, b) -> float:
    return math.sqrt(sum(abs(a[i][j] - b[i][j]) ** 2 for i in range(2) for j in range(2)))


def neg(a):
    return ((-a[0][0], -a[0][1]), (-a[1][0], -a[1][1]))


def expm_field(ax: float, ay: float, az: float, t: float):
    """exp(-i t (ax sx + ay sy + az sz))."""
    w = math.sqrt(ax * ax + ay * ay + az * az)
    if w == 0.0:
        return I2
    c, s = math.cos(w * t), math.sin(w * t) / w
    return ((c - 1j * s * az, -1j * s * (ax - 1j * ay)),
            (-1j * s * (ax + 1j * ay), c + 1j * s * az))


def law_gate(phi0: float, p2: float, delta: float, tf: float):
    """Exact endpoint of an extremal law (phi0, p2, delta, tf)."""
    mu0 = phi0 - math.pi / 2.0
    s = 2.0 * p2 + 2.0 * delta
    return mat_mul(expm_field(0.0, 0.0, s / 2.0, tf),
                   expm_field(math.cos(mu0), math.sin(mu0), delta - s / 2.0, tf))


def samples_gate(samples: np.ndarray, delta: float) -> np.ndarray:
    """Exact endpoint of a sampled unit-amplitude pulse (t, vx, vy) whose
    phase varies linearly between samples, as a 2x2 complex array.

    One rotating-frame factor per segment, multiplied by a pairwise tree
    reduction in time order.
    """
    if samples.shape[0] < 2:
        return np.eye(2, dtype=complex)
    t = samples[:, 0]
    mu = np.unwrap(np.arctan2(samples[:, 2], samples[:, 1]))
    dt = np.diff(t)
    s = np.diff(mu) / dt
    m0 = mu[:-1]
    frame = _expm_batch(np.zeros_like(s), np.zeros_like(s), s / 2.0, dt)
    body = _expm_batch(np.cos(m0), np.sin(m0), delta - s / 2.0, dt)
    mats = frame @ body
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            mats = np.concatenate([mats, np.eye(2, dtype=complex)[None]])
        mats = mats[1::2] @ mats[0::2]
    return mats[0]


def _expm_batch(ax, ay, az, t) -> np.ndarray:
    w = np.sqrt(ax * ax + ay * ay + az * az)
    c = np.cos(w * t)
    s = np.where(w > 0.0, np.sin(w * t) / np.where(w > 0.0, w, 1.0), t)
    out = np.empty(w.shape + (2, 2), dtype=complex)
    out[:, 0, 0] = c - 1j * s * az
    out[:, 0, 1] = -1j * s * (ax - 1j * ay)
    out[:, 1, 0] = -1j * s * (ax + 1j * ay)
    out[:, 1, 1] = c + 1j * s * az
    return out


# ---------------------------------------------------------------------------
# reference gates for the target grammar
# ---------------------------------------------------------------------------

def quat_matrix(x1: float, x2: float, x3: float, x4: float):
    """Matrix of the quaternion over (1, i sz, i sy, i sx)."""
    return ((complex(x1, x2), complex(x3, x4)), (complex(-x3, x4), complex(x1, -x2)))


def zrot_matrix(lam: float):
    """exp(i lam sz / 2)."""
    return ((cmath.exp(0.5j * lam), 0j), (0j, cmath.exp(-0.5j * lam)))


def yrot_matrix(theta: float):
    """exp(i theta sy / 2)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return ((c + 0j, s + 0j), (-s + 0j, c + 0j))


def euler_matrix(psi: float, theta: float, phi: float):
    """exp(i psi sz/2) exp(i theta sy/2) exp(i phi sz/2)."""
    return mat_mul(mat_mul(zrot_matrix(psi), yrot_matrix(theta)), zrot_matrix(phi))


def axis_matrix(alpha: float, n):
    """exp(i alpha/2 n.sigma) for a unit axis n."""
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    nx, ny, nz = n
    return ((complex(c, s * nz), complex(s * ny, s * nx)),
            (complex(-s * ny, s * nx), complex(c, -s * nz)))


def xyrot_matrix(a: float, b: float):
    """exp(-i a sz/2) exp(i b sy/2) exp(i a sz/2)."""
    return mat_mul(mat_mul(zrot_matrix(-a), yrot_matrix(b)), zrot_matrix(a))


def polar_theta(m) -> float:
    """Euler inclination theta in [0, pi] of a gate matrix."""
    return 2.0 * math.atan2(abs(m[0][1]), abs(m[0][0]))
