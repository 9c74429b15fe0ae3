"""The three workloads: seeded inputs, the timed op, and its correctness check.

Each workload builds its inputs one pass at a time from the seed and the
pass index, before timing starts; a pass has a fixed op count and a fixed
mix of input classes, so runs differ only in the drawn values. The
program receives only the generated target strings, gates and detunings.
Checks run outside the timed op and compare against the gate the
benchmark generated, never against the program's own rewritten target.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import exact

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
RESIDUAL_TOL = 1e-6
Z_THETA = 1e-8          # below this inclination a target is a z-rotation
TF_TOL = 1e-6           # agreement of a sweep's duration with a re-solve

NAMED = {
    "X": (math.pi, (1.0, 0.0, 0.0)),
    "Y": (math.pi, (0.0, 1.0, 0.0)),
    "Z": (math.pi, (0.0, 0.0, 1.0)),
    "H": (math.pi, (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))),
    "S": (math.pi / 2.0, (0.0, 0.0, 1.0)),
    "T": (math.pi / 4.0, (0.0, 0.0, 1.0)),
    "SX": (math.pi / 2.0, (1.0, 0.0, 0.0)),
    "I": (0.0, (0.0, 0.0, 1.0)),
}


@dataclass
class Op:
    cls: str                       # input class; keys per-class metrics
    args: tuple                    # exactly what the program receives
    want: tuple | None = None      # the caller's gate, 2x2 nested tuples
    tags: dict = field(default_factory=dict)
    check_seed: tuple = ()


@dataclass
class Check:
    ok: bool
    residuals: list
    note: str = ""


def solve_class(theta: float, delta: float) -> str:
    """res/full/strict for generic targets, zres/z for z-rotations."""
    if theta < Z_THETA:
        return "zres" if delta == 0.0 else "z"
    if delta == 0.0:
        return "res"
    return "full" if abs(delta) <= math.tan(theta / 2.0) else "strict"


def wrap_4pi(x: float) -> float:
    return (x + TWO_PI) % FOUR_PI - TWO_PI


def _unit(v) -> tuple:
    v = np.asarray(v, dtype=float)
    return tuple(float(c) for c in v / np.linalg.norm(v))


def _thirds(n: int, rng) -> list:
    """0/1/2 with equal counts (up to one), in seeded order."""
    return list(rng.permutation([i % 3 for i in range(n)]))


def _detuning(kind: int, theta: float, rng) -> float:
    """kind 0: delta = 0; 1: 0 < |delta| <= tan(theta/2) (full domain);
    2: tan(theta/2) < |delta| <= 5 (strict or wrapped domain). Both signs,
    |delta| <= 5; a target with tan(theta/2) >= 5 stays full-domain."""
    if kind == 0:
        return 0.0
    thr = math.tan(theta / 2.0) if theta < math.pi else math.inf
    if kind == 1 and thr > 0.0:
        lo, hi = 0.0, min(thr, 5.0)
    elif thr < 5.0:
        lo, hi = thr, 5.0           # a z-rotation (thr = 0) has only this range
    else:
        lo, hi = 0.0, 5.0
    mag = hi - (hi - lo) * rng.uniform()        # in (lo, hi]
    return float(mag if rng.uniform() < 0.5 else -mag)


class Workload:
    name = ""
    stream_id = 0        # keeps the workloads' random streams apart
    pass_size = 0

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.tally = Counter()       # (census group, value) -> ops

    def rng(self, *stream):
        """Generator for one purpose: (0, k) pass k, (1,) warm-up, (2,) pools,
        (3, k, i) the check of op i in pass k."""
        return np.random.default_rng([self.seed, self.stream_id, *stream])

    def make_pass(self, k: int, n: int | None = None, rng=None) -> list:
        """Inputs of pass k (n ops, default pass_size), in seeded order;
        rng replaces the pass's own generator."""
        raise NotImplementedError

    def warmup(self) -> list:
        """A few ops from their own stream, run untimed before measuring."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> Check:
        raise NotImplementedError

    def points(self, op: Op) -> int:
        """Grid points an op sweeps; 0 for single solves."""
        return 0

    def count(self, ops: list) -> None:
        """Add a pass's ops to the input-class census."""
        for op in ops:
            for key in self.census_keys(op):
                self.tally[key] += 1

    def census_keys(self, op: Op):
        yield "class", op.cls

    def census(self) -> dict:
        out = {}
        for (group, value), n in sorted(self.tally.items()):
            out.setdefault(group, {})[value] = n
        return out


# ---------------------------------------------------------------------------
# cli_roundtrip
# ---------------------------------------------------------------------------

KINDS = ("euler", "quat", "axis", "matrix", "zrot", "xyrot")


def _fmt(x: float) -> str:
    return repr(float(x))


def _haar_quat(rng) -> tuple:
    v = rng.normal(size=4)
    return tuple(float(c) for c in v / np.linalg.norm(v))


def make_target(kind: str, rng) -> tuple:
    """(target spec string, caller's gate matrix) for one grammar kind."""
    if kind == "euler":
        psi, th, ph = rng.uniform(-TWO_PI, TWO_PI), math.acos(rng.uniform(-1, 1)), \
            rng.uniform(-math.pi, math.pi)
        return f"euler:{_fmt(psi)},{_fmt(th)},{_fmt(ph)}", exact.euler_matrix(psi, th, ph)
    if kind == "quat":
        q = _haar_quat(rng)
        return "quat:" + ",".join(map(_fmt, q)), exact.quat_matrix(*q)
    if kind == "axis":
        alpha, n = rng.uniform(0.0, FOUR_PI), _unit(rng.normal(size=3))
        return f"axis:{_fmt(alpha)}@" + ",".join(map(_fmt, n)), exact.axis_matrix(alpha, n)
    if kind == "matrix":
        m = exact.quat_matrix(*_haar_quat(rng))
        rows = ",".join("[" + ",".join(f"{e.real!r}{e.imag:+.17g}j" for e in row) + "]"
                        for row in m)
        return f"matrix:[{rows}]", m
    if kind == "zrot":
        lam = rng.uniform(-TWO_PI, TWO_PI)
        return f"zrot:{_fmt(lam)}", exact.zrot_matrix(lam)
    if kind == "xyrot":
        a, b = rng.uniform(-math.pi, math.pi), rng.uniform(0.05, TWO_PI - 0.05)
        return f"xyrot:{_fmt(a)},{_fmt(b)}", exact.xyrot_matrix(a, b)
    raise ValueError(kind)


def _read_bytes(directory: str, fname: str) -> bytes:
    with open(os.path.join(directory, fname), "rb") as fh:
        return fh.read()


class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    stream_id = 0
    pass_size = 100
    probe_share = 0.05

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.out_a = os.path.join(workdir, "a")
        self.out_b = os.path.join(workdir, "b")

    def make_pass(self, k, n=None, rng=None):
        rng = rng or self.rng(0, k)
        n = n or self.pass_size
        # in kind-major order, alternating delta = 0 and delta in [-3, 3]
        # makes half of every kind's ops resonant, and exactly half overall
        kinds = sorted((KINDS[i % len(KINDS)] for i in range(n)), key=KINDS.index)
        probes = set(rng.choice(n, size=max(1, round(self.probe_share * n)), replace=False))
        ops = []
        for i, kind in enumerate(kinds):
            spec, want = make_target(kind, rng)
            delta = 0.0 if i % 2 == 0 else float(rng.uniform(-3.0, 3.0))
            ops.append(Op(solve_class(exact.polar_theta(want), delta), (spec, delta), want,
                          {"kind": kind, "probe": i in probes}))
        return [ops[j] for j in rng.permutation(n)]

    def warmup(self):
        return self.make_pass(0, n=2, rng=self.rng(1))

    def _synthesize(self, op, out_dir):
        spec, delta = op.args
        return self.pkg.cli.main(["synthesize", "--target", spec,
                                  f"--delta={_fmt(delta)}", "--out", out_dir])

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code_s = self._synthesize(op, self.out_a)
            code_v = self.pkg.cli.main(["verify", os.path.join(self.out_a, "pulse.csv")])
        return code_s, code_v

    def check(self, op, out):
        if out != (0, 0):
            return Check(False, [], f"exit codes {out}")
        with open(os.path.join(self.out_a, "pulse.json"), encoding="utf-8") as fh:
            header = json.load(fh)
        samples = np.loadtxt(os.path.join(self.out_a, "pulse.csv"), delimiter=",",
                             skiprows=1, ndmin=2).reshape(-1, 3)
        if header["delta"] != op.args[1]:
            return Check(False, [], f"header delta {header['delta']!r}")
        if samples.size and np.abs(np.hypot(samples[:, 1], samples[:, 2]) - 1.0).max() > 1e-9:
            return Check(False, [], "pulse amplitude is not 1")
        got = exact.samples_gate(samples, float(header["delta"]))
        residual = exact.frobenius(got, op.want)
        if residual >= RESIDUAL_TOL:
            return Check(False, [residual], f"residual {residual:.3e}")
        if op.tags["probe"]:
            # the README promises byte-identical outputs for the same inputs
            with contextlib.redirect_stdout(io.StringIO()):
                code = self._synthesize(op, self.out_b)
            if code != 0:
                return Check(False, [residual], f"second synthesis exit code {code}")
            for fname in ("pulse.csv", "pulse.json", "trajectory.csv"):
                if _read_bytes(self.out_a, fname) != _read_bytes(self.out_b, fname):
                    return Check(False, [residual], f"{fname} differs between two runs")
        return Check(True, [residual])

    def census_keys(self, op):
        yield from super().census_keys(op)
        yield "kind", op.tags["kind"]
        yield "delta", "zero" if op.args[1] == 0.0 else "nonzero"
        yield "determinism_probe", op.tags["probe"]


# ---------------------------------------------------------------------------
# haar_solve
# ---------------------------------------------------------------------------

class HaarSolve(Workload):
    name = "haar_solve"
    stream_id = 1
    pass_size = 4000
    named_share = 0.2

    def make_pass(self, k, n=None, rng=None):
        rng = rng or self.rng(0, k)
        n = n or self.pass_size
        n_named = round(self.named_share * n)
        per_name = n_named // len(NAMED)
        ops = []
        for name, (alpha, axis) in NAMED.items():
            gate = self.pkg.su2.gate_from_axis_angle(alpha, axis)
            want = exact.axis_matrix(alpha, axis)
            theta = exact.polar_theta(want)
            for kind in _thirds(per_name, rng):
                delta = _detuning(kind, theta, rng)
                ops.append(Op(solve_class(theta, delta), (gate, delta), want,
                              {"source": name}))
        for kind in _thirds(n - per_name * len(NAMED), rng):
            while True:
                gate = self.pkg.su2.random_gate(rng)
                want = exact.quat_matrix(*gate.quat)
                theta = exact.polar_theta(want)
                # a strict draw needs a detuning range tan(theta/2) < |delta| <= 5
                if kind != 2 or math.tan(theta / 2.0) < 5.0:
                    break
            delta = _detuning(kind, theta, rng)
            ops.append(Op(solve_class(theta, delta), (gate, delta), want, {"source": "haar"}))
        return [ops[j] for j in rng.permutation(len(ops))]

    def warmup(self):
        return self.make_pass(0, n=48, rng=self.rng(1))

    def run(self, op):
        gate, delta = op.args
        return self.pkg.resonant.synthesize(gate, delta, verify=False).law

    def check(self, op, law):
        if law.delta != op.args[1]:
            return Check(False, [], f"law delta {law.delta!r}")
        residual = exact.frobenius(exact.law_gate(law.phi0, law.p2, law.delta, law.tf), op.want)
        return Check(residual < RESIDUAL_TOL, [residual], f"residual {residual:.3e}")

    def census_keys(self, op):
        yield from super().census_keys(op)
        yield "source", op.tags["source"]
        yield "named_vs_haar", "haar" if op.tags["source"] == "haar" else "named"


# ---------------------------------------------------------------------------
# figure_sweeps
# ---------------------------------------------------------------------------

def _axis(height: float, azimuth: float) -> tuple:
    r = math.sqrt(max(0.0, 1.0 - height * height))
    return _unit((r * math.cos(azimuth), r * math.sin(azimuth), height))


def _euler_draw(rng, theta: float) -> tuple:
    return (float(rng.uniform(-TWO_PI, TWO_PI)), theta, float(rng.uniform(-math.pi, math.pi)))


PAPER_TARGET = (0.0, 2.2689, 0.0)          # (psi*, theta*, phi*) of the paper's figures
SWEEP_KINDS = ("angle", "tdiff", "family")


class FigureSweeps(Workload):
    name = "figure_sweeps"
    stream_id = 2
    pass_size = 45
    pool_size = 15
    alphas = np.linspace(0.0, FOUR_PI, 721)
    deltas = np.linspace(-3.0, 3.0, 241)
    resolution = 1024

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        rng = self.rng(2)
        p = self.pool_size
        # A sweep's cost is set by the axis height and a target's by theta*,
        # so these sit at stratum midpoints and the seed draws the azimuths,
        # psi* and phi*: pools of different seeds then cost alike. The
        # paper's target is always in the pool.
        heights = -1.0 + 2.0 * (np.arange(p) + 0.5) / p
        self.axes = [_axis(z, a) for z, a in zip(heights, rng.uniform(-math.pi, math.pi, p))]
        thetas = 0.4 + 2.5 * (np.arange(p - 1) + 0.5) / (p - 1)
        self.targets = [PAPER_TARGET] + [_euler_draw(rng, float(t)) for t in thetas]
        self.seen = set()

    def _op(self, kind, axis, target, tags, check_seed):
        if kind == "angle":
            return Op(kind, (axis, self.alphas), None, tags, check_seed)
        psi, th, ph = target
        args = ((self.pkg.su2.gate_from_euler(psi, th, ph), self.deltas) if kind == "tdiff"
                else (th, ph, self.resolution, self.deltas))
        return Op(kind, args, exact.euler_matrix(psi, th, ph), tags, check_seed)

    def make_pass(self, k, n=None, rng=None):
        rng = rng or self.rng(0, k)
        n = n or self.pass_size
        kinds = [SWEEP_KINDS[i % 3] for i in range(n)]
        # each pool member serves the same number of ops of each kind
        members = {kind: list(rng.permutation([i % self.pool_size
                                               for i in range(kinds.count(kind))]))
                   for kind in SWEEP_KINDS}
        ops = []
        for i, kind in enumerate(kinds):
            j = int(members[kind].pop())
            ops.append(self._op(kind, self.axes[j], self.targets[j], {"member": (kind, j)},
                                (k, i)))
        return [ops[j] for j in rng.permutation(n)]

    def warmup(self):
        """One op per kind on an axis and a target outside the pool."""
        rng = self.rng(1)
        axis = _axis(rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
        target = _euler_draw(rng, float(rng.uniform(0.4, 2.9)))
        return [self._op(kind, axis, target, {}, (0, 10 ** 6 + i))
                for i, kind in enumerate(SWEEP_KINDS)]

    def points(self, op):
        if op.cls == "family":
            return self.resolution + len(self.deltas)
        return len(op.args[1])

    def run(self, op):
        if op.cls == "angle":
            return self.pkg.so3.sweep_rotation_angle(*op.args)
        if op.cls == "tdiff":
            return self.pkg.detuned.tdiff_analysis(*op.args)
        th, ph, res, grid = op.args
        fam = self.pkg.detuned.build_psi_family(th, ph, res)
        return fam, [self.pkg.detuned.optimal_domain(th, ph, float(d)) for d in grid]

    def check(self, op, out):
        rng = self.rng(3, *op.check_seed)
        return getattr(self, f"_check_{op.cls}")(op, out, rng)

    def _resolve(self, gate, delta, want, tf_expected):
        """Re-solve one grid point and propagate it exactly."""
        law = self.pkg.resonant.synthesize(gate, delta, verify=False).law
        residual = exact.frobenius(exact.law_gate(law.phi0, law.p2, delta, law.tf), want)
        return residual, abs(law.tf - tf_expected)

    def _check_angle(self, op, rows, rng):
        axis, alphas = op.args
        diff = np.array([r[1] - r[2] for r in rows])
        found = []
        for i in range(len(rows) - 1):
            if abs(diff[i]) < 1e-8:
                x = alphas[i]
            elif diff[i] * diff[i + 1] < 0.0:
                x = 0.5 * (alphas[i] + alphas[i + 1])
            else:
                continue
            if not found or x - found[-1] > 0.1:
                found.append(float(x))
        step = alphas[1] - alphas[0]
        if len(found) != 2 or any(abs(x - c) > step for x, c in zip(found, (math.pi, 3 * math.pi))):
            return Check(False, [], f"crossings at {found}, expected pi and 3pi")
        residuals = []
        for i in rng.choice(len(rows), size=2, replace=False):
            alpha = float(alphas[i])
            gate = self.pkg.su2.gate_from_axis_angle(min(alpha, FOUR_PI - 1e-15), axis)
            want = exact.axis_matrix(alpha, axis)
            for g, w, tf in ((gate, want, rows[i][1]),
                             (self.pkg.su2.negate_gate(gate), exact.neg(want), rows[i][2])):
                residual, dtf = self._resolve(g, 0.0, w, tf)
                residuals.append(residual)
                if residual >= RESIDUAL_TOL or dtf > TF_TOL:
                    return Check(False, residuals, f"alpha {alpha:.6g}: residual "
                                 f"{residual:.3e}, tf off by {dtf:.3e}")
        return Check(True, residuals)

    def _check_tdiff(self, op, report, rng):
        gate, grid = op.args
        residuals = []
        for i in rng.choice(len(grid), size=2, replace=False):
            d = float(grid[i])
            for g, w, tf in ((gate, op.want, report.t_U[i]),
                             (self.pkg.su2.negate_gate(gate), exact.neg(op.want), report.t_negU[i])):
                residual, dtf = self._resolve(g, d, w, tf)
                residuals.append(residual)
                if residual >= RESIDUAL_TOL or dtf > TF_TOL:
                    return Check(False, residuals, f"delta {d:.6g}: residual "
                                 f"{residual:.3e}, tf off by {dtf:.3e}")
        return Check(True, residuals)

    def _check_family(self, op, out, rng):
        th, ph, _, grid = op.args
        fam, doms = out
        residuals = []
        for i in rng.choice(np.arange(1, len(fam.psi) - 1), size=3, replace=False):
            got = exact.law_gate(fam.phi0[i], fam.p2[i], 0.0, fam.duration[i])
            residuals.append(exact.frobenius(got, exact.euler_matrix(fam.psi[i], th, ph)))
        if max(residuals) >= RESIDUAL_TOL:
            return Check(False, residuals, f"family residual {max(residuals):.3e}")
        lo, hi = -ph - TWO_PI, -ph + TWO_PI
        for j in rng.choice(len(grid), size=2, replace=False):
            d, dom = float(grid[j]), doms[j]
            if abs(d) <= math.tan(th / 2.0):
                shape_ok = (dom.psi_bullet is None and abs(dom.psi_min - lo) < 1e-9
                            and abs(dom.psi_max - hi) < 1e-9)
            else:
                shape_ok = (dom.psi_min < dom.psi_max
                            and abs(dom.f_max - dom.f_min - FOUR_PI) < 1e-6)
            if not shape_ok:
                return Check(False, residuals, f"delta {d:.6g}: domain {dom}")
            # every family control arrives at psi = label - 2 delta T(label)
            label = -ph + wrap_4pi(0.5 * (dom.psi_min + dom.psi_max) + ph)
            phi0, p2, tf = fam.solve(label)
            got = exact.law_gate(phi0, p2, d, tf)
            residual = exact.frobenius(got, exact.euler_matrix(label - 2.0 * d * tf, th, ph))
            residuals.append(residual)
            if residual >= RESIDUAL_TOL:
                return Check(False, residuals, f"delta {d:.6g}: endpoint residual {residual:.3e}")
        return Check(True, residuals)

    def census_keys(self, op):
        """Also whether the op's (kind, pool member) came up earlier in the run."""
        yield from super().census_keys(op)
        yield "repeat", op.tags["member"] in self.seen
        self.seen.add(op.tags["member"])

    def census(self):
        c = super().census()
        c["repeat_share"] = c["repeat"].get(True, 0) / sum(c["repeat"].values())
        c["pool"] = {"axes": [[round(x, 4) for x in a] for a in self.axes],
                     "targets": [[round(x, 4) for x in t] for t in self.targets]}
        return c


WORKLOADS = {w.name: w for w in (CliRoundtrip, HaarSolve, FigureSweeps)}
