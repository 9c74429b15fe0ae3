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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepTooLarge
from .su2 import TWO_PI, UnitGate, _unit_quat, identity_gate

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
    to tf; omega_max (rad/s), when set, converts back to physical units via
    t_phys = 2 t / omega_max, omega_i = v_i * omega_max.
    """

    samples: np.ndarray
    delta: float
    omega_max: float | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.size == 0:
            s = s.reshape(0, 3)
        if s.ndim != 2 or s.shape[1] != 3:
            raise DomainError("samples must be an (n, 3) array of (t, vx, vy)")
        object.__setattr__(self, "samples", s)
        if not np.all(np.isfinite(s)):
            raise DomainError("samples must be finite")
        if s.shape[0]:
            if s[0, 0] != 0.0 or np.any(np.diff(s[:, 0]) <= 0.0):
                raise DomainError("sample times must start at 0 and increase strictly")
            amp2 = s[:, 1] ** 2 + s[:, 2] ** 2
            if np.any(amp2 > 1.0 + 1e-12):
                raise DomainError("control amplitude exceeds the unit bound")

    @property
    def tf(self) -> float:
        return float(self.samples[-1, 0]) if self.samples.shape[0] else 0.0


# ---------------------------------------------------------------------------
# closed-form trajectory
# ---------------------------------------------------------------------------

def _circle_azimuth_offset(eta: float, cos_bar: float) -> float:
    """Azimuth of the projected point relative to phi0 + pi/2.

    Continuous over each revolution of eta with limit -pi/2 as eta -> 0+;
    on a great circle (cos_bar = 0) it is the exact +-pi/2 meridian pair.
    """
    er = eta % TWO_PI
    if er < 1e-14:
        return -math.pi / 2.0
    if abs(cos_bar) < 1e-15:
        return -math.pi / 2.0 if er <= math.pi else math.pi / 2.0
    raw = math.atan2(-math.sin(er), cos_bar * (1.0 - math.cos(er)))
    if cos_bar < 0.0 and raw > 0.0:
        raw -= TWO_PI
    return raw


def control_phase(law: ExtremalLaw, t: float) -> float:
    """mu(t) = phi0 - pi/2 + (2 p2 + 2 delta) t, the drive phase; t may be
    an array of times."""
    return law.phi0 - math.pi / 2.0 + (2.0 * law.p2 + 2.0 * law.delta) * t


def _mapped(f, a: np.ndarray, *args) -> np.ndarray:
    """f(x, *args) from the math module over the array a. numpy's arcsin
    and arctan2 differ from libm's in the last bit on some hosts, and the
    17-digit CSV shows that bit, so every transcendental function of the
    trajectory goes through math."""
    return np.fromiter(map(f, a.tolist(), *map(itertools.repeat, args)), float, a.size)


def _trajectory_rows(law: ExtremalLaw, t) -> np.ndarray:
    """Closed-form trajectory at the times t, as (n, 10) rows
    (t, theta, phi, psi, theta1, theta2, theta3, vx, vy, eta).

    theta(t) = acos(1 - sin^2(theta_bar) (1 - cos eta)) with
    eta = 2 t / sin(theta_bar); phi follows the circle azimuth; psi is the
    resonant value minus 2*delta*t (detuning shifts psi only); (vx, vy) is
    the drive (cos mu, sin mu). The p2 = 0 limit degenerates to a great
    circle with phi(t) = phi0.
    """
    t = np.asarray(t, dtype=float)
    tb = math.atan2(1.0, law.p2)
    sb, cb = math.sin(tb), math.cos(tb)
    eta = 2.0 * t / sb
    # stable form of acos(1 - sin^2(tb) (1 - cos eta)) near the poles
    theta = 2.0 * _mapped(math.asin, np.minimum(1.0, sb * np.abs(_mapped(math.sin, eta / 2.0))))
    phi = law.phi0 + math.pi / 2.0 + _mapped(_circle_azimuth_offset, eta, cb)
    # on the pole itself the azimuth is a gauge; take phi0 at t = 0 and the
    # from-below limit phi0 +- pi after whole revolutions, so that psi + phi
    # remains the correct accumulated z-angle
    pole = eta % TWO_PI < 1e-14
    if pole.any():
        phi[pole] = np.where(eta[pole] < 1e-14, law.phi0,
                             law.phi0 + math.copysign(math.pi, law.p2))
    psi = -2.0 * law.phi0 + phi - 2.0 * (law.p2 + law.delta) * t
    mu = control_phase(law, t)
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
    return _segments_gate([1.0], [law.phi0 - math.pi / 2.0], [2.0 * law.p2 + 2.0 * law.delta],
                          [law.tf], law.delta)


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
    mu0 = law.phi0 - math.pi / 2.0
    slope = 2.0 * law.p2 + 2.0 * law.delta

    def control(t):
        m = mu0 + slope * t
        return math.cos(m), math.sin(m)

    return _rk4_quat(control, law.delta, law.tf, n_steps)


def propagate_schrodinger(schedule: PulseSchedule, dt: float | None = None) -> UnitGate:
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
    if dt is None:
        n_steps = DEFAULT_STEPS
    else:
        if dt <= 0.0:
            raise DomainError("dt must be positive")
        n_steps = max(1, int(math.ceil(tf / dt)))
    times = s[:, 0]
    amp = np.hypot(s[:, 1], s[:, 2])
    phase = np.unwrap(np.arctan2(s[:, 2], s[:, 1]))

    def control(t):
        a = float(np.interp(t, times, amp))
        m = float(np.interp(t, times, phase))
        return a * math.cos(m), a * math.sin(m)

    return _rk4_quat(control, schedule.delta, tf, n_steps)


# ---------------------------------------------------------------------------
# pulse schedules and file formats
# ---------------------------------------------------------------------------

def schedule_from_law(law: ExtremalLaw, n_samples: int = DEFAULT_SAMPLES,
                      omega_max: float | None = None) -> PulseSchedule:
    """Sample the law's controls on a uniform grid; empty for tf = 0.

    Raises DomainError when the drive phase advances by pi or more per
    sample: the unwrapped phase that replays the pulse could not tell the
    sampled law from an aliased one. The error quotes the least count that
    avoids it, or names the detuning when that count is 2**53 or more, past
    the integers a float resolves.
    """
    if law.tf == 0.0:
        return PulseSchedule(np.zeros((0, 3)), delta=law.delta, omega_max=omega_max)
    if n_samples < 2:
        raise DomainError("need at least 2 samples")
    slope = 2.0 * law.p2 + 2.0 * law.delta
    turn = abs(slope) * law.tf / math.pi
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
    t = np.linspace(0.0, law.tf, n_samples)
    mu = law.phi0 - math.pi / 2.0 + slope * t
    return PulseSchedule(
        np.column_stack([t, np.cos(mu), np.sin(mu)]),
        delta=law.delta,
        omega_max=omega_max,
    )


def write_csv(path, header: str, row_format: str, n_rows: int, values) -> None:
    """Write the header line, then n_rows rows as one block: the %-format
    of one row, repeated n_rows times, applied once to the flat values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write((row_format + "\n") * n_rows % tuple(values))


def write_pulse_csv(schedule: PulseSchedule, path) -> None:
    s = schedule.samples
    write_csv(path, "t,vx,vy", "%.17g,%.17g,%.17g", len(s), s.ravel().tolist())


def _parse_pulse_lines(lines) -> list[list[float]]:
    """Rows of a pulse CSV split into lines, checked line by line; the one
    source of the reader's error messages."""
    header = lines[0].strip()
    if header != "t,vx,vy":
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


def read_pulse_csv(path, delta: float = 0.0,
                   omega_max: float | None = None) -> PulseSchedule:
    """Read a pulse CSV (header t,vx,vy). A body of three values on every
    non-blank line is parsed in one numpy conversion; any other file goes
    through the line parser, which names the faulty line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read pulse CSV {path}: {exc}") from exc
    body = [line for line in lines[1:] if line.strip()]
    samples = None
    if lines[0].strip() == "t,vx,vy" and all(line.count(",") == 2 for line in body):
        try:
            samples = np.array(",".join(body).split(","), dtype=float)
        except ValueError:
            pass
    if samples is None:
        samples = np.array(_parse_pulse_lines(lines))
    return PulseSchedule(samples.reshape(-1, 3), delta=delta, omega_max=omega_max)


def write_trajectory_csv(law: ExtremalLaw, path, n_samples: int = DEFAULT_SAMPLES) -> None:
    """Sampled closed-form trajectory: t,theta,phi,psi,theta1,theta2,theta3,vx,vy,eta.

    The rows are `_trajectory_rows` at max(2, n_samples) uniform times over
    [0, tf], the one array closed form; a tf = 0 law writes the header only.
    """
    rows = np.zeros((0, 10)) if law.tf == 0.0 else _trajectory_rows(
        law, np.linspace(0.0, law.tf, max(2, n_samples)))
    write_csv(path, "t,theta,phi,psi,theta1,theta2,theta3,vx,vy,eta",
              ",".join(["%.17g"] * 10), len(rows), rows.ravel().tolist())
