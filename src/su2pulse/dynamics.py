"""Extremal trajectories in closed form, an exact propagator, and an
independent ODE cross-check.

The controlled Schrodinger equation i dU/dt = (vx sx + vy sy + delta sz) U
is solved in three ways:

  * closed form: the projected trajectory (theta(t), phi(t)) is a circle
    around the axis (theta_bar, phi_bar) traversed at speed 2, and psi(t)
    follows from the circle azimuth; only psi feels the detuning, picking
    up an extra -2*delta*t.
  * exact rotating-frame product, the verifier: a drive of amplitude a and
    linear phase mu0 + s t is constant in the frame rotating at s/2 about
    z, so over a length h it gives
    exp(-i s h sz/2) exp(-i h (a cos mu0 sx + a sin mu0 sy + (delta - s/2) sz)).
    A law is one such segment; a sampled pulse is one per sample interval,
    multiplied in time order by a pairwise tree reduction. It uses only
    the controls, not the circle geometry.
  * quaternion RK4: the linear 4d ODE xdot = L x, a cross-check of the
    exact product and the one model of a linear amplitude ramp.

An extremal is pinned by (phi0, p2, delta, tf). Time is normalized:
t here is (omega_max/2) * t_physical, and the drive amplitude is 1 for
every normal extremal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepTooLarge
from .su2 import TWO_PI, UnitGate, _mapped, _unit_quat, identity_gate

DEFAULT_STEPS = 10_000          # RK4 steps per propagation, step = tf / this
DEFAULT_SAMPLES = 2048          # samples per exported pulse schedule
_TRUNC_CHECK_EVERY = 64         # Richardson check cadence inside RK4
_TRUNC_LIMIT = 1e-8
_RAMP_TOL = 1e-12               # end-amplitude gap beyond which a segment is a ramp


@dataclass(frozen=True)
class ExtremalLaw:
    """One normal extremal: initial azimuth phi0, constant adjoint p2,
    normalized detuning delta, and duration tf. Controls and the full
    trajectory are closed-form functions of these four numbers."""

    phi0: float
    p2: float
    delta: float
    tf: float

    def __post_init__(self):
        if self.tf < 0.0 or not math.isfinite(self.tf):
            raise DomainError(f"tf = {self.tf!r} must be finite and >= 0")
        if not math.isfinite(self.p2):
            raise DomainError("p2 must be finite")


@dataclass(frozen=True)
class PulseSchedule:
    """Time-sampled physical controls (t, vx, vy) plus normalization metadata.

    samples is an (n, 3) float array with strictly increasing times from 0
    to tf and controls of amplitude at most 1, in normalized units.
    """

    samples: np.ndarray
    delta: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.size == 0:
            s = s.reshape(0, 3)
        if s.ndim != 2 or s.shape[1] != 3:
            raise DomainError("samples must be an (n, 3) array of (t, vx, vy)")
        object.__setattr__(self, "samples", s)
        _check_samples(s[:, 0], s[:, 1], s[:, 2])

    @property
    def tf(self) -> float:
        return float(self.samples[-1, 0]) if self.samples.shape[0] else 0.0


def _check_samples(t, vx, vy) -> None:
    """DomainError unless the sample columns are finite, the times start at
    0 and increase strictly, and the controls stay within the unit bound:
    the checks of every schedule's samples and of every written pulse."""
    if not (np.isfinite(t).all() and np.isfinite(vx).all() and np.isfinite(vy).all()):
        raise DomainError("samples must be finite")
    if t.size:
        if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise DomainError("sample times must start at 0 and increase strictly")
        if np.any(vx ** 2 + vy ** 2 > 1.0 + 1e-12):
            raise DomainError("control amplitude exceeds the unit bound")


# ---------------------------------------------------------------------------
# closed-form trajectory
# ---------------------------------------------------------------------------

def _drive_phase(law: ExtremalLaw) -> tuple[float, float]:
    """(phi0 - pi/2, 2 p2 + 2 delta): (mu0, slope) of mu(t) = mu0 + slope t."""
    return law.phi0 - math.pi / 2.0, 2.0 * law.p2 + 2.0 * law.delta


def _trajectory_rows(law: ExtremalLaw, t) -> np.ndarray:
    """Closed-form trajectory at the times t, as (n, 10) rows
    (t, theta, phi, psi, theta1, theta2, theta3, vx, vy, eta).

    theta(t) = acos(1 - sin^2(theta_bar) (1 - cos eta)) with
    eta = 2 t / sin(theta_bar); phi follows the circle azimuth; psi is the
    resonant value minus 2*delta*t (detuning shifts psi only); (vx, vy) is
    the drive (cos mu, sin mu). The p2 = 0 limit degenerates to a great
    circle with phi(t) = phi0. The 17-digit CSV shows the last bit, so
    every transcendental function here is math's, through _mapped.
    """
    t = np.asarray(t, dtype=float)
    tb = math.atan2(1.0, law.p2)
    sb, cb = math.sin(tb), math.cos(tb)
    eta = 2.0 * t / sb
    # stable form of acos(1 - sin^2(tb) (1 - cos eta)) near the poles
    theta = 2.0 * _mapped(math.asin, np.minimum(1.0, sb * np.abs(_mapped(math.sin, eta / 2.0))))
    # the circle azimuth relative to phi0 + pi/2: continuous over each
    # revolution of eta with limit -pi/2 as eta -> 0+, and on a great circle
    # (cb = 0) the exact +-pi/2 meridian pair
    er = eta % TWO_PI
    pole = er < 1e-14
    if abs(cb) < 1e-15:
        offset = np.where(er <= math.pi, -math.pi / 2.0, math.pi / 2.0)
    else:
        offset = _mapped(math.atan2, -_mapped(math.sin, er), cb * (1.0 - _mapped(math.cos, er)))
        if cb < 0.0:
            offset = np.where(offset > 0.0, offset - TWO_PI, offset)
    phi = law.phi0 + math.pi / 2.0 + np.where(pole, -math.pi / 2.0, offset)
    # on the pole itself the azimuth is a gauge; take phi0 at t = 0 and the
    # from-below limit phi0 +- pi after whole revolutions, so that psi + phi
    # remains the correct accumulated z-angle
    if pole.any():
        phi[pole] = np.where(eta[pole] < 1e-14, law.phi0,
                             law.phi0 + math.copysign(math.pi, law.p2))
    psi = -2.0 * law.phi0 + phi - 2.0 * (law.p2 + law.delta) * t
    mu0, slope = _drive_phase(law)
    mu = mu0 + slope * t
    return np.column_stack([t, theta, phi, psi, theta / 2.0, (psi + phi) / 2.0,
                            (psi - phi) / 2.0, _mapped(math.cos, mu), _mapped(math.sin, mu), eta])


# ---------------------------------------------------------------------------
# exact rotating-frame propagation (the verifier)
# ---------------------------------------------------------------------------

def _quat_mul(p, q):
    """Hamilton product p q over (1, i sz, i sy, i sx), the gate product of
    the matrix views; p and q may be stacks of shape (4, n)."""
    p1, p2, p3, p4 = p
    q1, q2, q3, q4 = q
    return np.array([
        p1 * q1 - p2 * q2 - p3 * q3 - p4 * q4,
        p1 * q2 + p2 * q1 + p3 * q4 - p4 * q3,
        p1 * q3 - p2 * q4 + p3 * q1 + p4 * q2,
        p1 * q4 + p2 * q3 - p3 * q2 + p4 * q1,
    ])


def _segment_factors(amp, mu0, slope, h, delta: float) -> np.ndarray:
    """(4, n) quaternions of the segments' propagators: amplitude amp, start
    phase mu0, phase slope and length h per segment, detuning delta."""
    amp, mu0, slope, h = (np.asarray(v, dtype=float) for v in (amp, mu0, slope, h))
    az = delta - slope / 2.0
    with np.errstate(over="ignore"):
        w = np.sqrt(amp * amp + az * az)
    # past |az| = 1e154 the square overflows; hypot there, the same bits elsewhere
    w = np.where(np.isinf(w), np.hypot(amp, az), w)
    c = np.cos(w * h)
    s = np.divide(np.sin(w * h), w, out=h.copy(), where=w > 0.0)   # sin(w h) / w
    half = slope * h / 2.0
    f1, f2 = np.cos(half), -np.sin(half)
    # frame exp(-i s h sz/2) = (f1, f2, 0, 0) times the body
    # exp(-i h H0) = (c, -s az, -s ay, -s ax)
    b2, b3, b4 = -s * az, -s * amp * np.sin(mu0), -s * amp * np.cos(mu0)
    return np.array([f1 * c - f2 * b2, f1 * b2 + f2 * c, f1 * b3 - f2 * b4, f1 * b4 + f2 * b3])


def _segments_gate(amp, mu0, slope, h, delta: float) -> UnitGate:
    """Exact propagator of a run of constant-amplitude, linear-phase
    segments, their factors multiplied in time order (later on the left) by
    a pairwise tree reduction."""
    q = _segment_factors(amp, mu0, slope, h, delta)
    while q.shape[1] > 1:
        if q.shape[1] % 2:
            q = np.concatenate([q, np.array([[1.0], [0.0], [0.0], [0.0]])], axis=1)
        q = _quat_mul(q[:, 1::2], q[:, 0::2])
    return UnitGate(*(float(c) for c in q[:, 0]))


def propagate_law_exact(law: ExtremalLaw) -> UnitGate:
    """Exact endpoint of the law's analytic controls: one segment of unit
    amplitude, start phase phi0 - pi/2 and slope 2 p2 + 2 delta."""
    if law.tf == 0.0:
        return identity_gate
    mu0, slope = _drive_phase(law)
    return _segments_gate([1.0], [mu0], [slope], [law.tf], law.delta)


def propagate_pulse(schedule: PulseSchedule) -> UnitGate:
    """Replay a sampled pulse; the verifier of written schedules.

    The samples are read in polar form, as propagate_schrodinger reads
    them: amplitude and unwrapped phase vary linearly between samples. With
    constant amplitude over every sample interval, each interval is one
    exact rotating-frame segment. A schedule with an amplitude ramp (end
    amplitudes of a segment more than 1e-12 apart) is integrated by
    propagate_schrodinger, the one model of a ramp.
    """
    s = schedule.samples
    if s.shape[0] < 2:
        return identity_gate
    amp = np.hypot(s[:, 1], s[:, 2])
    if np.any(np.abs(np.diff(amp)) > _RAMP_TOL):
        return propagate_schrodinger(schedule)
    phase = np.unwrap(np.arctan2(s[:, 2], s[:, 1]))
    h = np.diff(s[:, 0])
    return _segments_gate(amp[:-1], phase[:-1], np.diff(phase) / h, h, schedule.delta)


# ---------------------------------------------------------------------------
# quaternion-chart RK4 propagation (cross-check)
# ---------------------------------------------------------------------------

def _quat_rhs(x, vx, vy, d):
    x1, x2, x3, x4 = x
    return (
        d * x2 + vy * x3 + vx * x4,
        -d * x1 + vx * x3 - vy * x4,
        -vy * x1 - vx * x2 + d * x4,
        -vx * x1 + vy * x2 - d * x3,
    )


def _rk4_quat(control, delta: float, tf: float, n_steps: int) -> UnitGate:
    """Classical RK4 on xdot = L(t) x with per-step renormalization."""
    if tf == 0.0 or n_steps == 0:
        return identity_gate
    h = tf / n_steps
    x = (1.0, 0.0, 0.0, 0.0)
    for i in range(n_steps):
        t = i * h
        x_new = _rk4_quat_step(x, t, h, control, delta)
        if i % _TRUNC_CHECK_EVERY == 0:
            xa = _rk4_quat_step(x, t, h / 2.0, control, delta)
            xb = _rk4_quat_step(xa, t + h / 2.0, h / 2.0, control, delta)
            err = math.sqrt(sum((x_new[k] - xb[k]) ** 2 for k in range(4))) / 15.0
            if err > _TRUNC_LIMIT:
                raise StepTooLarge(
                    f"local truncation estimate {err:.3e} > {_TRUNC_LIMIT:g} at t = {t:.6g}; "
                    f"reduce the step (h = {h:.3e})"
                )
        x = _unit_quat(x_new)
    return UnitGate(*x)


def _rk4_quat_step(x, t, h, control, delta):
    vx1, vy1 = control(t)
    k1 = _quat_rhs(x, vx1, vy1, delta)
    vxm, vym = control(t + h / 2.0)
    xm = (x[0] + h / 2.0 * k1[0], x[1] + h / 2.0 * k1[1],
          x[2] + h / 2.0 * k1[2], x[3] + h / 2.0 * k1[3])
    k2 = _quat_rhs(xm, vxm, vym, delta)
    xm = (x[0] + h / 2.0 * k2[0], x[1] + h / 2.0 * k2[1],
          x[2] + h / 2.0 * k2[2], x[3] + h / 2.0 * k2[3])
    k3 = _quat_rhs(xm, vxm, vym, delta)
    vxe, vye = control(t + h)
    xe = (x[0] + h * k3[0], x[1] + h * k3[1], x[2] + h * k3[2], x[3] + h * k3[3])
    k4 = _quat_rhs(xe, vxe, vye, delta)
    return (
        x[0] + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        x[1] + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        x[2] + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        x[3] + h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )


def propagate_law(law: ExtremalLaw, n_steps: int = DEFAULT_STEPS) -> UnitGate:
    """RK4-propagate the law's analytic controls through the quaternion ODE;
    the cross-check of propagate_law_exact."""
    mu0, slope = _drive_phase(law)

    def control(t):
        m = mu0 + slope * t
        return math.cos(m), math.sin(m)

    return _rk4_quat(control, law.delta, law.tf, n_steps)


def propagate_schrodinger(schedule: PulseSchedule) -> UnitGate:
    """RK4-propagate a sampled pulse; the cross-check of propagate_pulse.

    The sampled (vx, vy) pairs are interpolated in polar form (amplitude and
    unwrapped phase vary linearly between samples), which represents constant
    amplitude, linear-phase pulses exactly. Raises StepTooLarge when the
    periodic local-truncation estimate exceeds 1e-8.
    """
    s = schedule.samples
    if s.shape[0] == 0:
        return identity_gate
    tf = schedule.tf
    if tf == 0.0:
        return identity_gate
    times = s[:, 0]
    amp = np.hypot(s[:, 1], s[:, 2])
    phase = np.unwrap(np.arctan2(s[:, 2], s[:, 1]))

    def control(t):
        a = float(np.interp(t, times, amp))
        m = float(np.interp(t, times, phase))
        return a * math.cos(m), a * math.sin(m)

    return _rk4_quat(control, schedule.delta, tf, DEFAULT_STEPS)


# ---------------------------------------------------------------------------
# pulse schedules and file formats
# ---------------------------------------------------------------------------

def _sample_times(law: ExtremalLaw, n_samples: int) -> np.ndarray:
    """n_samples uniform times over [0, tf]; none for tf = 0.

    Raises DomainError when the drive phase advances by pi or more per
    sample: the unwrapped phase that replays the pulse could not tell the
    sampled law from an aliased one. The error quotes the least count that
    avoids it, or names the detuning when that count is 2**53 or more, past
    the integers a float resolves.
    """
    if law.tf == 0.0:
        return np.zeros(0)
    if n_samples < 2:
        raise DomainError("need at least 2 samples")
    turn = abs(_drive_phase(law)[1]) * law.tf / math.pi
    if not turn / (n_samples - 1) < 1.0:
        need = int(turn) + 2 if turn < 2.0 ** 53 else 2 ** 53
        if need >= 2 ** 53 or not turn / (need - 1) < 1.0:
            raise DomainError(
                f"detuning delta = {law.delta!r} is out of range: the drive phase turns "
                f"{math.pi * turn:.3g} rad over the pulse, more samples than a schedule can hold"
            )
        raise DomainError(
            f"the drive phase advances {math.pi * turn / (n_samples - 1):.3g} rad per "
            f"sample (pi or more) and would alias; use --samples {need} or more"
        )
    return np.linspace(0.0, law.tf, n_samples)


def schedule_from_law(law: ExtremalLaw, n_samples: int = DEFAULT_SAMPLES) -> PulseSchedule:
    """Sample the law's controls on a uniform grid (_sample_times, which
    raises on a grid that would alias); empty for tf = 0. The controls are
    math's cos and sin of the drive phase, the bits of _trajectory_rows'
    vx and vy."""
    t = _sample_times(law, n_samples)
    mu0, slope = _drive_phase(law)
    mu = mu0 + slope * t
    return PulseSchedule(np.column_stack([t, _mapped(math.cos, mu), _mapped(math.sin, mu)]),
                         delta=law.delta)


def _pulse_rows(law: ExtremalLaw, n_samples: int) -> np.ndarray:
    """The closed-form trajectory rows at the pulse's sample times, their
    (t, vx, vy) checked as a schedule's samples are: the rows of both
    files _write_pulse_files writes."""
    rows = _trajectory_rows(law, _sample_times(law, n_samples))
    _check_samples(rows[:, 0], rows[:, 7], rows[:, 8])
    return rows


# ---------------------------------------------------------------------------
# CSV fields: Python's '%.17g' text of a whole float table
# ---------------------------------------------------------------------------
#
# For 1e-4 <= |x| < 1e17 and for +-0 that text is fixed-point: the integer
# N = round(|x| 10**k), k = 16 - e10, e10 = floor(log10 |x|), holds its 17
# significant digits, and the point, the leading "0.000" and the trimmed
# trailing zeros follow from (e10, significant digits, sign). N is exact:
# Dekker's two-product (T. J. Dekker, Numer. Math. 18, 1971) writes
# |x| 10**k as hi + lo with no rounding error, and hi >= 1e16 > 2**53 is an
# even integer, so hi + rint(lo) rounds half to even as Python does. Every
# other value goes through Python's formatter.

_CSV_BLOCK = 4096               # fields formatted and written at a time
_SPLIT = 134217729.0            # 2**27 + 1, Veltkamp's splitter


def _split(a):
    """(hi, lo) with a = hi + lo exactly and 26 significant bits in hi."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** k) for k in range(21)])    # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)
# [:, g]: the four digits of g = 0..9999
_GROUP_DIGITS = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1)
# [i, g]: the digits of N through the last nonzero one of g, the (i + 1)-th
# 4-digit group after N's first digit; 0 where g = 0
_GROUP_SIG = (np.arange(1, 5, dtype=np.uint8)[:, None] * (_GROUP_DIGITS != 0)).max(axis=0)
_GROUP_SIG = (_GROUP_SIG + 4 * np.arange(4, dtype=np.uint8)[:, None]) * (_GROUP_SIG > 0)
# the 8-byte words a template row is ANDed with: word 10_000 + d holds the
# first digit d in byte 6, word g the digits of group g in its even bytes;
# every other byte is 0xff
_DIGIT_WORDS = np.full((10_010, 8), 0xFF, np.uint8)
_DIGIT_WORDS[:10_000, ::2] = (_GROUP_DIGITS + ord("0")).T
_DIGIT_WORDS[10_000:, 6] = np.arange(10) + ord("0")
_DIGIT_WORDS = _DIGIT_WORDS.view(np.uint64).ravel()


def _templates() -> np.ndarray:
    """One 40-byte row per code ((e10 + 4) * 18 + significant digits) * 2
    + sign, and a last row for the fields Python formats. The columns are
    a sign, "0.000", digit 0, then a point slot before each of digits 1-16,
    then the separator; a dropped column is 0 and a kept digit 0xff, which
    the digit is ANDed into."""
    col = np.arange(40)
    e10 = np.arange(-4, 17)[:, None, None]
    sig = np.arange(18)[:, None]
    i = (col - 6) // 2                   # the digit in a slot, or before a point slot
    keep = (((col >= 1) & (col <= 2) & (e10 < 0))                 # "0."
            | ((col >= 3) & (col <= 5) & (col - 2 < -e10))         # zeros after it
            | ((col >= 6) & (col % 2 == 0) & ((i < sig) | (i <= e10)))
            | ((col >= 7) & (col % 2 == 1) & (i == e10) & (e10 < sig - 1))   # the point
            | (col == 39))
    keep = np.stack([keep, keep | (col == 0)], axis=2).reshape(-1, col.size)
    keep = np.concatenate([keep, [col == 39]])
    return keep * np.frombuffer(b"-0.000" + b"\xff." * 16 + b"\xff,", np.uint8)


_TEMPLATE = _templates().view(np.uint64)           # five words a row
_TEMPLATE_LEN = np.count_nonzero(_TEMPLATE.view(np.uint8), axis=1)
_PYTHON_FORMATTED = len(_TEMPLATE) - 1


def _scaled(a, k):
    """(hi, lo) with a 10**k = hi + lo exactly, hi the rounded product."""
    hi = a * _POW10.take(k)
    ah, al = _split(a)
    ph, pl = _POW10_HI.take(k), _POW10_LO.take(k)
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _csv_cells(x) -> tuple[np.ndarray, np.ndarray]:
    """(cells, codes) of the values of the 1-d array x: each value's
    40-byte cell of Python's '%.17g' text padded with zero bytes, as five
    words, its last byte the separator slot, and its template code; the
    cell of a field Python formats holds the separator slot alone."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    zero = a == 0.0
    a = np.where(fixed, a, 1.0)
    e10 = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 16)
    hi, lo = _scaled(a, 16 - e10)
    # numpy's log10 may be one off next to a power of ten: then N falls
    # outside [1e16, 1e17), by the sign of hi + lo against the bound
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    redo = np.flatnonzero(low | high)
    if redo.size:
        e10[redo] += high[redo].astype(np.intp) - low[redo]
        hi[redo], lo[redo] = _scaled(a[redo], 16 - e10[redo])
    # N < 1e17 - 8: below every power of ten 10**(e10 + 1) here, the next
    # double is at least 8.3e-17 of it away, so N never rounds up to 1e17
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # the words of N's digits: its first digit (0 at +-0, where N = 1e16),
    # then four 4-digit groups
    words = np.empty((len(x), 5), np.intp)
    first = n // 10 ** 16
    words[:, 0] = first + 10_000 - zero
    rest = n - first * 10 ** 16
    upper = rest // 10 ** 8
    for col, half in ((1, upper), (3, rest - upper * 10 ** 8)):
        group = half // 10 ** 4
        words[:, col] = group
        words[:, col + 1] = half - group * 10 ** 4
    sig = np.maximum(np.maximum(_GROUP_SIG[0].take(words[:, 1]), _GROUP_SIG[1].take(words[:, 2])),
                     np.maximum(_GROUP_SIG[2].take(words[:, 3]), _GROUP_SIG[3].take(words[:, 4])))
    code = ((e10 + 4) * 18 + sig + 1) * 2 + np.signbit(x)
    code[~(fixed | zero)] = _PYTHON_FORMATTED
    cells = _TEMPLATE.take(code, axis=0)
    cells &= _DIGIT_WORDS.take(words)
    return cells, code


def _csv_text(cells, code, x, sep, tails=None) -> str:
    """The text of _csv_cells' (cells, code) of the values x, each field
    followed by its separator byte from sep, which is written into the
    cells; with tails, tails[i] and a newline follow the separator of row
    i's last field, a row being len(x) // len(tails) fields."""
    text = cells.view(np.uint8)
    text[:, -1] = sep
    out = text.tobytes().translate(None, b"\0").decode("ascii")
    python = np.flatnonzero(code == _PYTHON_FORMATTED)
    if not python.size and tails is None:
        return out
    # splice in Python's text before each such field's separator, and the tails
    ends = np.cumsum(_TEMPLATE_LEN.take(code)).tolist()
    cuts = [(ends[j] - 1, j, "%.17g" % v) for j, v in zip(python.tolist(), x[python].tolist())]
    if tails is not None:
        last = range(len(x) // len(tails) - 1, len(x), len(x) // len(tails))
        cuts += [(ends[j], j, tail + "\n") for j, tail in zip(last, tails)]
    cuts.sort()
    pieces, start = [], 0
    for end, _, piece in cuts:
        pieces += (out[start:end], piece)
        start = end
    pieces.append(out[start:])
    return "".join(pieces)


def _separators(n_rows: int, n_cols: int, tails: bool = False) -> np.ndarray:
    """The separator bytes of n_rows rows of n_cols fields, flat: commas,
    and a newline after each row's last field unless a tail follows it."""
    sep = np.full((n_rows, n_cols), ord(","), np.uint8)
    if not tails:
        sep[:, -1] = ord("\n")
    return sep.ravel()


def write_csv(path, header: str, table, tails=None) -> None:
    """Write the header line, then each row of the float table as the
    '%.17g' text of its values joined by commas; with tails, ',' and
    tails[i] end row i. The rows are formatted and written _CSV_BLOCK
    fields at a time."""
    table = np.asarray(table, dtype=float)
    n_rows, n_cols = table.shape
    step = max(1, _CSV_BLOCK // n_cols)
    sep = _separators(step, n_cols, tails is not None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, n_rows, step):
            x = table[i:i + step].ravel()
            fh.write(_csv_text(*_csv_cells(x), x, sep[:x.size],
                               None if tails is None else tails[i:i + step]))


_PULSE_HEADER = "t,vx,vy"
_TRAJECTORY_HEADER = "t,theta,phi,psi,theta1,theta2,theta3,vx,vy,eta"
_PULSE_COLUMNS = [0, 7, 8]      # t, vx and vy among the trajectory's columns


def write_pulse_csv(schedule: PulseSchedule, path) -> None:
    write_csv(path, _PULSE_HEADER, schedule.samples)


def _parse_pulse_lines(lines) -> list[list[float]]:
    """Rows of a pulse CSV split into lines, checked line by line; the one
    source of the reader's error messages."""
    header = lines[0].strip()
    if header != _PULSE_HEADER:
        raise DomainError(f"bad pulse CSV header {header!r}")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DomainError(f"line {ln}: expected 3 columns")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise DomainError(f"line {ln}: {exc}") from exc
    return rows


# the separator bytes of each line of a pulse body: two commas, a newline
_PULSE_LINE_SEPARATORS = np.frombuffer(b",,\n", np.uint8)


def _pulse_fields(text: str) -> list[str] | None:
    """The fields of a pulse CSV text that is ASCII, starts with the line
    t,vx,vy and holds exactly two commas on every later line, a blank line
    being none, checked in one pass over its bytes; None for any other
    text."""
    head = _PULSE_HEADER + "\n"
    if not (text.isascii() and text.startswith(head)):
        return None
    body = text[len(head):] if text.endswith("\n") else text[len(head):] + "\n"
    b = np.frombuffer(body.encode("ascii"), np.uint8)
    seps = b[(b == ord(",")) | (b == ord("\n"))]
    if seps.size % 3 or not (seps.reshape(-1, 3) == _PULSE_LINE_SEPARATORS).all():
        return None
    return body.replace("\n", ",").split(",")[:-1]


def read_pulse_csv(path, delta: float = 0.0) -> PulseSchedule:
    """Read a pulse CSV (header t,vx,vy). A file of the shape synthesize
    writes (_pulse_fields) is converted in one numpy call; any other file,
    or one holding a field that is no number, goes through the line
    parser, which names the faulty line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read pulse CSV {path}: {exc}") from exc
    fields = _pulse_fields(text)
    samples = None
    if fields is not None:
        try:
            samples = np.array(fields, dtype=float)
        except ValueError:
            pass
    if samples is None:
        samples = np.array(_parse_pulse_lines(text.split("\n")))
    return PulseSchedule(samples.reshape(-1, 3), delta=delta)


def write_trajectory_csv(law: ExtremalLaw, path, n_samples: int = DEFAULT_SAMPLES) -> None:
    """Sampled closed-form trajectory: t,theta,phi,psi,theta1,theta2,theta3,vx,vy,eta.

    The rows are `_trajectory_rows` at max(2, n_samples) uniform times over
    [0, tf], the one array closed form; a tf = 0 law writes the header only.
    """
    rows = np.zeros((0, 10)) if law.tf == 0.0 else _trajectory_rows(
        law, np.linspace(0.0, law.tf, max(2, n_samples)))
    write_csv(path, _TRAJECTORY_HEADER, rows)


def _write_pulse_files(rows, pulse_path, trajectory_path) -> None:
    """Write the pulse CSV of the _pulse_rows' t, vx and vy and the
    trajectory CSV of all their columns from one formatting pass: each
    block of rows is formatted once, and the pulse's fields are the
    trajectory's cells of those columns. The bytes are write_pulse_csv's
    of schedule_from_law and write_trajectory_csv's."""
    step = _CSV_BLOCK // 10
    pulse_sep, trajectory_sep = _separators(step, 3), _separators(step, 10)
    # the pulse's fields among a block's, row by row
    pick = (10 * np.arange(step)[:, None] + _PULSE_COLUMNS).ravel()
    with (open(pulse_path, "w", encoding="utf-8") as pulse,
          open(trajectory_path, "w", encoding="utf-8") as trajectory):
        pulse.write(_PULSE_HEADER + "\n")
        trajectory.write(_TRAJECTORY_HEADER + "\n")
        for i in range(0, len(rows), step):
            x = rows[i:i + step].ravel()
            cells, code = _csv_cells(x)
            # gathered before _csv_text writes the trajectory's separators
            # into the shared cells
            p = pick[:3 * (x.size // 10)]
            pulse.write(_csv_text(cells.take(p, axis=0), code.take(p), x.take(p),
                                  pulse_sep[:p.size]))
            trajectory.write(_csv_text(cells, code, x, trajectory_sep[:x.size]))
