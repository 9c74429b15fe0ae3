"""su2pulse benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload haar_solve --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ./src). One
caller thread runs each workload's ops in a closed loop: the next op starts
when the previous one returns. Inputs are generated from --seed one pass at
a time before timing; a pass has a fixed op count and a fixed input-class
mix. A run measures whole passes until --seconds of op time have passed
and at least MIN_OPS ops are done, so a pass longer than --seconds (the
100-op cli_roundtrip pass) is measured whole. Timings are reported in
reference time: each op's latency is divided by the host's slowdown
around it, measured with the fixed loop in calibrate.py.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: the first passes that hold MIN_OPS ops, with calls into su2pulse
wrapped from outside the package (spans are written to .perfbench_out/),
then the same ops again untraced, as many as fit in OVERHEAD_SECONDS, to
measure the tracing overhead on identical inputs. `--workload all` runs
every workload in its own process. The last line of standard output is
one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import exact
from tracer import Tracer
from workloads import RESIDUAL_TOL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_OPS = 100            # latency_p90_ms needs >= 10 samples beyond it
SETUP_REPEATS = 4        # fresh imports timed before and again after the passes
IMPORT_REPEATS = 5
OVERHEAD_SECONDS = 10.0  # untraced re-run of the traced ops, for trace.overhead_pct
MODULES = ("cli", "su2", "resonant", "detuned", "so3", "dynamics")


def load_package():
    """Import su2pulse from this checkout's src/, or exit with an error."""
    if not (SRC / "su2pulse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no su2pulse package under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("su2pulse")
    if Path(pkg.__file__).resolve().parent != SRC / "su2pulse":
        sys.exit(f"perfbench: imported su2pulse from {pkg.__file__}, not from {SRC}")
    for name in MODULES:
        setattr(pkg, name, importlib.import_module(f"su2pulse.{name}"))
    return pkg


def _wall(argv: list) -> tuple:
    """(wall seconds, stderr) of a child interpreter that imports from src/."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return time.perf_counter() - t0, proc.stderr


def time_setup() -> list:
    """Wall times of fresh interpreters each running `import su2pulse.cli`."""
    return [_wall([sys.executable, "-c", "import su2pulse.cli"])[0]
            for _ in range(SETUP_REPEATS)]


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def measure_imports() -> dict:
    """Split `import su2pulse.cli` with -X importtime: numpy's cumulative time,
    su2pulse's own modules (self time), the whole import, and the bare
    interpreter start-up as wall time of `python -c pass`."""
    rows = {"import.numpy_ms": [], "import.su2pulse_ms": [], "import.total_ms": []}
    for _ in range(IMPORT_REPEATS):
        _, err = _wall([sys.executable, "-X", "importtime", "-c", "import su2pulse.cli"])
        numpy_us = own_us = total_us = 0
        for self_us, cum_us, indent, name in _IMPORTTIME.findall(err):
            if name == "numpy":
                numpy_us = int(cum_us)
            if name.startswith("su2pulse"):
                own_us += int(self_us)
                if len(indent) == 1:
                    total_us += int(cum_us)
        rows["import.numpy_ms"].append(numpy_us / 1e3)
        rows["import.su2pulse_ms"].append(own_us / 1e3)
        rows["import.total_ms"].append(total_us / 1e3)
    out = {k: statistics.median(v) for k, v in rows.items()}
    out["import.interpreter_ms"] = 1e3 * statistics.median(
        _wall([sys.executable, "-c", "pass"])[0] for _ in range(IMPORT_REPEATS))
    return out


def cross_check(pkg, seed: int) -> float:
    """The exact propagators against su2pulse's RK4 propagate_law on seeded
    laws; returns the worst disagreement."""
    rng = np.random.default_rng([seed, 99])
    worst = 0.0
    for _ in range(2):
        law = pkg.dynamics.ExtremalLaw(float(rng.uniform(-3, 3)), float(rng.normal()),
                                       float(rng.uniform(-3, 3)), float(rng.uniform(0.1, 4)))
        ref = pkg.su2.matrix_from_gate(pkg.dynamics.propagate_law(law))
        ref = tuple(tuple(row) for row in ref)
        sched = pkg.dynamics.schedule_from_law(law)
        worst = max(worst,
                    exact.frobenius(exact.law_gate(law.phi0, law.p2, law.delta, law.tf), ref),
                    exact.frobenius(exact.samples_gate(sched.samples, law.delta), ref))
    return worst


class Results:
    """Per-op latencies, failures and check residuals, over one or more passes."""

    def __init__(self):
        self.latencies_ns = []
        self.failed = 0
        self.checked = 0
        self.residual_max = 0.0
        self.notes = []
        self.clock = calibrate.Clock()

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def p(self, q) -> float:
        """Latency percentile in ms, as measured."""
        return float(np.percentile(np.array(self.latencies_ns) / 1e6, q))

    def throughput(self) -> float:
        """Ops per second of op time, as measured."""
        return self.attempted / (sum(self.latencies_ns) / 1e9)

    def ref_ms(self) -> np.ndarray:
        """Op latencies in reference ms: each divided by the host's slowdown
        around it (see calibrate.py)."""
        slow = self.clock.slowdowns()[:self.attempted]
        return np.array(self.latencies_ns) / 1e6 / slow


def run_ops(wl, ops, res: Results, tracer=None) -> None:
    """Closed loop over ops; each op is timed alone and checked after."""
    for op in ops:
        if tracer is not None:
            tracer.begin_op(res.attempted, op.cls)
        t0 = time.perf_counter_ns()
        try:
            out = wl.run(op)
            err = None
        except Exception as exc:          # a raising op is a failed op
            out, err = None, exc
        dt = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.end_op(dt)
        res.latencies_ns.append(dt)
        res.clock.after_op(dt)
        if err is None:
            try:
                chk = wl.check(op, out)
            except Exception as exc:      # malformed output fails the op
                chk = None
                err = exc
        if err is not None:
            res.failed += 1
            res.notes.append(f"{op.cls} {op.args[:2]!r:.120}: {type(err).__name__}: {err}")
            continue
        if chk.residuals:
            res.checked += 1
            res.residual_max = max(res.residual_max, *chk.residuals)
        if not chk.ok:
            res.failed += 1
            res.notes.append(f"{op.cls} {op.args[:2]!r:.120}: {chk.note}")


def provenance(args, passes: int, ops: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "su2pulse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops": ops,
    }


def run_workload(args, pkg) -> dict:
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](pkg, args.seed, str(workdir))
    try:
        return _measure(args, pkg, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, pkg, wl) -> dict:
    metrics = {}
    if args.trace:
        metrics.update(measure_imports())
    else:
        setup_times = time_setup()
    disagreement = cross_check(pkg, args.seed)
    calibrate.warm_up()
    run_ops(wl, wl.warmup(), Results())

    res = Results()
    if args.trace:
        # a fixed number of passes, so that counts repeat exactly for a seed
        passes = math.ceil(MIN_OPS / wl.pass_size)
        traced_ops = [op for k in range(passes) for op in wl.make_pass(k)]
        tracer = Tracer({m: getattr(pkg, m) for m in MODULES})
        tracer.install()
        try:
            run_ops(wl, traced_ops, res, tracer)
        finally:
            tracer.uninstall()
        # the same ops again, untraced, for up to OVERHEAD_SECONDS of op time
        base = Results()
        for op in traced_ops:
            run_ops(wl, [op], base)
            if sum(base.latencies_ns) > OVERHEAD_SECONDS * 1e9:
                break
        paired = Results()
        paired.latencies_ns = res.latencies_ns[:base.attempted]
        paired.clock = res.clock
        wl.count(traced_ops)
        metrics.update(tracer.metrics())
        metrics["sweep.points"] = sum(wl.points(op) for op in traced_ops)
        metrics["trace.overhead_pct"] = 100.0 * (np.percentile(paired.ref_ms(), 50)
                                                 / np.percentile(base.ref_ms(), 50) - 1.0)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        passes = 0
        while sum(res.latencies_ns) < args.seconds * 1e9 or res.attempted < MIN_OPS:
            ops = wl.make_pass(passes)
            run_ops(wl, ops, res)
            wl.count(ops)
            passes += 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # sampled at both ends of the run, so one slow moment of a shared
        # host weighs less in the median
        setup_times += time_setup()
        ref_ms = res.ref_ms()
        metrics.update({
            "throughput_ops_s": 1e3 * len(ref_ms) / ref_ms.sum(),
            "latency_p50_ms": float(np.percentile(ref_ms, 50)),
            "latency_p90_ms": float(np.percentile(ref_ms, 90)),
            "ok_share": (res.attempted - res.failed) / res.attempted,
            "peak_rss_mb": rss_mb,
            # scaled by the run's host slowdown, as the op timings are
            "setup_s": statistics.median(setup_times) * calibrate.REFERENCE_MS / res.clock.loop_ms,
        })
        print(f"setup: {statistics.median(setup_times):.4f} s as measured, median of "
              f"{len(setup_times)} fresh imports")

    if args.trace:
        metrics["check.residual_max"] = res.residual_max
        metrics["check.checked_share"] = res.checked / res.attempted
    print(f"census: {json.dumps(wl.census())}")
    print(f"host: calibration loop {res.clock.loop_ms:.4f} ms, median of "
          f"{len(res.clock.samples_ns)} samples (reference {calibrate.REFERENCE_MS:g} ms); "
          f"as measured: {res.throughput():.6g} ops/s, p50 {res.p(50):.6g} ms, "
          f"p90 {res.p(90):.6g} ms")
    print(f"checks: {res.checked} of {res.attempted} ops checked against the caller's gate, "
          f"worst residual {res.residual_max:.3e} (limit {RESIDUAL_TOL:g}); exact propagator vs "
          f"propagate_law: {disagreement:.3e}")
    for note in res.notes[:10]:
        print(f"failed: {note}", file=sys.stderr)
    print(f"fail_share: {res.failed / res.attempted:.6g} ({res.failed} of {res.attempted} ops)")
    print(f"provenance: {json.dumps(provenance(args, passes, res.attempted))}")
    correct = res.failed == 0 and disagreement < 1e-9 and res.checked == res.attempted
    return {"correct": correct, "attempted": res.attempted, "failed": res.failed,
            "metrics": metrics}


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(result: dict, units: dict) -> None:
    values = result["metrics"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run_all(args) -> int:
    """Every workload in its own process; a combined summary line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    pkg = load_package()
    if args.workload == "all":
        return run_all(args)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace}")
    report(run_workload(args, pkg), declared_units(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
