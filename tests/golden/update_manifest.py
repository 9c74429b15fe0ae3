"""Rebuild tests/golden/manifest.json, the SHA-256 digests of seeded
artifact sets that tests/test_golden.py recomputes.

Each set is written as canonical text (every float as its hex, so a
last-bit change moves the digest) and hashed:

- laws: (phi0, p2, delta, tf), the canonical target and the arrival angle
  of seeded Haar gates and of z, xy, matrix, X and Y targets at delta in
  {0, 0.7, -0.7, -2, 4, 50};
- sweeps: sweep_rotation_angle rows and crossing angles on 4 axes, the
  transverse y axis among them;
- tdiff: every field of tdiff_analysis reports on 3 targets;
- families: build_psi_family tables and optimal_domain results;
- cli: exit codes, stdout (output paths masked) and every file of about
  30 CLI runs (synthesize, verify and propagate of 8 targets, the sweeps
  and so3-select).

The CLI fields computed by numpy's propagation kernels (pulse.json's
`residual`, synthesize's and verify's printed residual, the achieved
Euler angles verify prints, the quaternion and Euler angles propagate
prints) go to the separate `cli_numpy` digest, under `numpy_dependent`:
numpy's sin, cos and hypot may differ in the last bit between builds, and
the CI job on the oldest numpy tells whether that digest is shared.

A change that moves bits on purpose reruns this script and says in
CHANGES.md which digests moved, why, and the bound that held.

    PYTHONPATH=src python tests/golden/update_manifest.py
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import platform
import re
import tempfile
from pathlib import Path

import numpy as np

from su2pulse import (build_psi_family, crossing_angles, gate_from_axis_angle, gate_from_euler,
                      matrix_from_gate, optimal_domain, parse_target, random_gate,
                      sweep_rotation_angle, synthesize, tdiff_analysis)
from su2pulse import cli

MANIFEST = Path(__file__).resolve().parent / "manifest.json"
DELTAS = (0.0, 0.7, -0.7, -2.0, 4.0, 50.0)
NUMPY_LINES = ("residual =", "achieved euler =", "quaternion =", "euler =")


def canonical(v) -> str:
    """Text of v that changes with any bit of any float in it."""
    if isinstance(v, (bool, np.bool_)):
        return "T" if v else "F"
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None or isinstance(v, str):
        return repr(v)
    if isinstance(v, np.ndarray):
        return f"{v.dtype.kind}{v.shape}" + canonical(v.ravel().tolist())
    if dataclasses.is_dataclass(v):
        v = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
    elif hasattr(v, "_asdict"):
        v = v._asdict()
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}:{canonical(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "(" + ",".join(map(canonical, v)) + ")"
    raise TypeError(f"no canonical text for {type(v).__name__}")


def _matrix_spec(gate) -> str:
    rows = ",".join("[" + ",".join(f"{float(e.real)!r}{e.imag:+.17g}j" for e in row) + "]"
                    for row in matrix_from_gate(gate))
    return f"matrix:[{rows}]"


def laws():
    rng = np.random.default_rng(1501)
    targets = [random_gate(rng) for _ in range(300)]
    targets += [gate_from_axis_angle(math.pi, (1.0, 0.0, 0.0)),
                gate_from_axis_angle(math.pi, (0.0, 1.0, 0.0))]
    targets += [parse_target(s) for s in (
        "zrot:1.3", "zrot:-4.0", "zrot:6.283185307179586", "xyrot:0.3,1.2", "xyrot:-2.5,5.0",
        _matrix_spec(random_gate(rng)))]
    out = []
    for delta in DELTAS:
        for target in targets:
            r = synthesize(target, delta, verify=False)
            out.append((r.law.phi0, r.law.p2, r.law.delta, r.law.tf, r.target, r.eta_final))
    return out


def sweeps():
    alphas = np.linspace(0.0, 4.0 * math.pi, 721)
    axes = [(0.0, 1.0, 0.0), cli._AXES["yz"], (0.6, 0.0, 0.8), (-0.48, 0.36, -0.8)]
    out = []
    for axis in axes:
        rows = sweep_rotation_angle(axis, alphas)
        out.append((rows, crossing_angles(rows)))
    return out


def tdiff():
    return [tdiff_analysis(gate_from_euler(0.0, 2.2689, 0.0), np.linspace(-3.0, 3.0, 241)),
            tdiff_analysis(gate_from_euler(1.0, 0.7, -2.0), np.linspace(-10.0, 7.0, 301)),
            tdiff_analysis(gate_from_axis_angle(math.pi, (0.0, 1.0, 0.0)),
                           np.linspace(-3.0, 3.0, 241))]


def families():
    out = []
    for theta, phi, n in ((2.2689, 0.0, 1024), (0.7, -2.5, 300), (math.pi, 1.1, 256)):
        fam = build_psi_family(theta, phi, n)
        out.append((fam, fam.solve(-phi + 1.0),
                    [optimal_domain(theta, phi, d) for d in np.linspace(-5.0, 5.0, 241).tolist()]))
    return out


CLI_TARGETS = (
    ["--target", "euler:0.4,1.1,0.2"],
    ["--target", "euler:0,2.2689,0", "--delta", "0.7"],
    ["--target", "zrot:1.5"],
    ["--target", "xyrot:0.3,1.2", "--omega-max", "1e6"],
    ["--target", "quat:0.1,0.2,0.3,0.4", "--delta", "-2"],
    ["--target", "axis:2.0@0.6,0,0.8", "--delta", "50"],
    ["--target", "matrix:[[0.6+0.0j,0.0+0.8j],[0.0+0.8j,0.6-0.0j]]", "--delta", "0.5"],
    ["--target", "euler:5,3.1415926535,2", "--samples", "300"],
)
CLI_SWEEPS = (
    ["sweep-angle", "--axis", "y"],
    ["sweep-angle", "--axis", "yz"],
    ["sweep-angle", "--axis", "0.3,-0.4,0.866"],
    ["sweep-detuning", "--target", "euler:0,2.2689,0"],
    ["sweep-detuning", "--target", "euler:1,0.7,-2", "--delta-min", "-10", "--delta-max", "7",
     "--delta-steps", "301"],
    ["so3-select", "--target", "euler:0.4,1.1,0.2"],
    ["so3-select", "--target", "axis:3.141592653589793@0,1,0"],
)


def _run(argv, out: Path, host: list, numpy: list) -> None:
    """Run one CLI command; its exit code, stdout (paths masked) and new
    files go to host, the numpy-computed lines and fields to numpy."""
    before = {p for p in out.rglob("*") if p.is_file()}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    host.append(([a.replace(str(out), "<out>") for a in argv], code))
    for line in buf.getvalue().replace(str(out), "<out>").splitlines():
        (numpy if line.startswith(NUMPY_LINES) else host).append(line)
    for path in sorted({p for p in out.rglob("*") if p.is_file()} - before):
        text = path.read_bytes()
        if path.name == "pulse.json":
            numpy.extend(re.findall(rb'"residual": ([^,\n]+)', text))
            text = re.sub(rb'("residual": )[^,\n]+', rb"\1<residual>", text)
        host.append((path.relative_to(out).as_posix(), text.decode()))


def cli_runs():
    host, numpy = [], []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for i, target in enumerate(CLI_TARGETS):
            run = out / f"run{i}"
            _run(["synthesize", *target, "--out", str(run)], out, host, numpy)
            for command in ("verify", "propagate"):
                _run([command, str(run / "pulse.csv")], out, host, numpy)
        for i, argv in enumerate(CLI_SWEEPS):
            out_flag = ["--out", str(out / f"sweep{i}")] if argv[0] != "so3-select" else []
            _run([*argv, *out_flag], out, host, numpy)
    return host, [v.decode() if isinstance(v, bytes) else v for v in numpy]


def _sha(v) -> str:
    return hashlib.sha256(canonical(v).encode()).hexdigest()


def digests() -> tuple[dict, dict]:
    """(host-independent digests, numpy-dependent digests) by set name."""
    host, numpy = cli_runs()
    found = {name: _sha(make()) for name, make in (
        ("laws", laws), ("sweeps", sweeps), ("tdiff", tdiff), ("families", families))}
    found["cli"] = _sha(host)
    return found, {"cli_numpy": _sha(numpy)}


def main() -> None:
    found, numpy = digests()
    MANIFEST.write_text(json.dumps({
        "generated_with": {"python": platform.python_version(), "numpy": np.__version__},
        "digests": found,
        "numpy_dependent": numpy,
    }, indent=2) + "\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    main()
