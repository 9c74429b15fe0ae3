"""The array sweeps against the former per-point loops (conftest oracles).

The family, the U/-U angle sweep and the T_diff analysis solve all grid
points together, but each point must come out bit for bit as the scalar
path's solve of that point alone.
"""
import math

import numpy as np
import pytest

from su2pulse import (build_psi_family, detuned, gate_from_euler, random_gate, resonant,
                      sweep_rotation_angle, synthesize_general, tdiff_analysis)
from su2pulse.detuned import OptimalDomain, _grid_domains, optimal_domain
from su2pulse.resonant import _domain_arc, _domain_arcs
from su2pulse.su2 import (POLAR_THETA_TOL, _euler_quat, _euler_quat_stack, _hopf_quat,
                          _unit_quat, _unit_quat_stack, canonical_euler, gate_from_axis_angle,
                          hopf_from_gate, negated_psi, wrap_4pi)

from conftest import build_psi_family_oracle, sweep_rotation_angle_oracle, tdiff_analysis_oracle


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:       # the error type is part of the outcome
        return type(exc)


# near both poles, where the Newton inversion's slope is steep, flat or
# off from roundoff; and at each, detunings from 0.7 to 1e6 and about the
# threshold tan(theta*/2)
HARD_THETAS = [3e-8, 1e-6, 1e-3, math.pi - 1e-6, math.pi - 2e-8, math.pi]


def _hard_grid(theta):
    thr = math.tan(theta / 2.0)
    mags = [0.7, 50.0, 1e3, 1e6, thr * (1.0 + 1e-6), thr * (1.0 - 1e-6), thr * (1.0 + 1e-12)]
    return np.unique([s * m for m in mags for s in (1.0, -1.0)])


def _family_cases():
    rng = np.random.default_rng(6061)
    thetas = np.exp(rng.uniform(math.log(1e-3), math.log(math.pi), 20)).tolist()
    cases = [(t, float(rng.uniform(-math.pi, math.pi))) for t in thetas]
    cases += [(t, float(rng.uniform(-math.pi, math.pi))) for t in (3e-8, math.pi - 2e-8, math.pi)]
    # the paper's target; and a family chosen when it was bisected on the
    # numpy map, whose value at one midpoint sat within roundoff of the
    # 1e-12 stop (the family now takes Newton steps on the exact map, whose
    # values are label_for_phi0's)
    cases += [(2.2689, 0.0), (0.023566653797669614, -0.32330695007011734)]
    # and the rest of the Newton inversion's hard inclinations
    return cases + [(t, float(rng.uniform(-math.pi, math.pi))) for t in HARD_THETAS[1:4]]


@pytest.mark.parametrize("theta, phi", _family_cases())
def test_family_matches_per_label_solves(theta, phi):
    want = _outcome(build_psi_family_oracle, theta, phi, 1024)
    got = _outcome(build_psi_family, theta, phi, 1024)
    if isinstance(want, type):
        assert got is want
        return
    for name in ("psi", "phi0", "p2", "duration"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


AXES = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
        (0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
        (0.3, -0.4, 0.866025403784438)]


@pytest.mark.parametrize("axis", AXES + [
    tuple(v / np.linalg.norm(v)) for v in np.random.default_rng(6062).normal(size=(4, 3))])
def test_angle_sweep_matches_per_angle_selection(axis):
    alphas = np.linspace(0.0, 4.0 * math.pi, 721)
    assert sweep_rotation_angle(axis, alphas) == sweep_rotation_angle_oracle(axis, alphas)


def _domain_kinds(theta, phi, grid):
    kinds = set()
    for d in grid.tolist():
        if d == 0.0:
            continue
        dom = optimal_domain(theta, phi, d)
        kind = "full" if dom.psi_bullet is None else ("wrapped" if dom.wrapped else "strict")
        kinds.add((d > 0.0, kind))
    return kinds


TDIFF_CASES = [
    ((0.0, 2.2689, 0.0), np.linspace(-3.0, 3.0, 241)),
    ((0.4, 2.2689, 0.3), np.linspace(-3.0, 3.0, 241)),
    ((-2.1, 0.7, 2.5), np.linspace(-4.0, 4.0, 161)),
    ((5.3, 1.4, -1.9), np.linspace(-6.0, 5.0, 121)),
    ((1.2, 3.0, -0.4), np.linspace(-40.0, 40.0, 101)),
    ((-4.4, 0.05, 0.8), np.linspace(-2.0, 2.0, 81)),
]


def test_tdiff_grids_cross_every_domain_kind():
    kinds = set()
    for (psi, theta, phi), grid in TDIFF_CASES:
        kinds |= _domain_kinds(theta, phi, grid)
    assert kinds == {(s, k) for s in (True, False) for k in ("full", "strict", "wrapped")}


@pytest.mark.parametrize("target, grid", TDIFF_CASES, ids=[str(t) for t, _ in TDIFF_CASES])
def test_tdiff_matches_per_delta_solves(target, grid):
    gate = gate_from_euler(*target)
    got, want = tdiff_analysis(gate, grid), tdiff_analysis_oracle(gate, grid)
    for name in ("t_U", "t_negU", "in_X", "domain_bounds", "psi_opt_U", "psi_opt_negU"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.events == want.events
    assert got.predicted_zero_crossings == want.predicted_zero_crossings


def _domain_cases():
    rng = np.random.default_rng(6063)
    wide = np.linspace(-3.0, 3.0, 241)
    cases = [(math.acos(float(rng.uniform(-1.0, 1.0))), float(rng.uniform(-math.pi, math.pi)), wide)
             for _ in range(12)]
    cases += [(float(t), float(rng.uniform(-math.pi, math.pi)), wide) for t in (2e-8, 1e-3, 2.49)]
    for target, grid in TDIFF_CASES:
        e = canonical_euler(gate_from_euler(*target))
        cases.append((e.theta, e.phi, grid))
    cases += [(t, float(rng.uniform(-math.pi, math.pi)), _hard_grid(t)) for t in HARD_THETAS]
    # and every grid through the threshold: at it, and above it by 1e-12
    out = []
    for theta, phi, grid in cases:
        thr = math.tan(theta / 2.0)
        extra = [s * thr * (1.0 + eps) for s in (1.0, -1.0) for eps in (0.0, 1e-12)]
        out.append((theta, phi, np.unique(np.concatenate([grid, extra]))))
    return out


@pytest.mark.parametrize("theta, phi, grid", _domain_cases())
def test_grid_domains_match_scalar_domains(theta, phi, grid):
    # T_diff builds each domain at the signed delta, 0 included, from the
    # array arcs and their far ends solved in one array solve
    deltas = grid.tolist()

    def grid_domains():
        arc, bounds, _, _ = _grid_domains(theta, phi, grid)
        return [OptimalDomain(lo, hi, None if math.isnan(b) else b, theta, phi, d, w, f0, f1)
                for (lo, hi), b, d, w, f0, f1 in zip(
                    bounds.tolist(), arc.psi_b.tolist(), deltas, arc.wrapped.tolist(),
                    arc.f_min.tolist(), arc.f_max.tolist())]

    want = [_outcome(optimal_domain, theta, phi, d) for d in deltas]
    got = _outcome(grid_domains)
    if isinstance(got, type):
        assert got in want
    else:
        assert got == want


@pytest.mark.parametrize("theta, phi, grid", _domain_cases())
def test_array_arcs_match_scalar_arcs(theta, phi, grid):
    # every column of the array arcs is _domain_arc's bit for bit, and a
    # grid raises where a scalar arc does, with its type
    want = [_outcome(_domain_arc, theta, phi, d) for d in grid.tolist()]
    got = _outcome(_domain_arcs, theta, phi, grid)
    if isinstance(got, type):
        assert got in want
        return
    nan = float("nan")
    cols = [*got.bracket, got.f_min, got.f_max, got.psi_b, got.far, got.wrapped, got.slack]
    for i, arc in enumerate(want):
        assert not isinstance(arc, type), (i, arc)
        row = [*arc.bracket, arc.f_min, arc.f_max, arc.psi_b, arc.far, arc.wrapped, arc.slack]
        row = [nan if v is None else v for v in row]
        assert np.array_equal([c[i] for c in cols], row, equal_nan=True), (i, arc.delta)


def test_tdiff_is_one_array_solve(monkeypatch):
    # per report one bisection array solve (U and -U) and one Newton array
    # solve (the strict domain ends); the one scalar solve is the Newton
    # solve of the symmetric pair's duration at delta = 0, and none bisects:
    # every scalar solve is a pass of the f_delta loop, _solve_f, with its
    # newton flag
    calls, newton, scalar = [], [], []
    bisect_many, newton_many = resonant._bisect_many, resonant._newton_many
    loop = resonant._solve_f
    monkeypatch.setattr(resonant, "_bisect_many", lambda *a: calls.append(1) or bisect_many(*a))
    monkeypatch.setattr(resonant, "_newton_many", lambda *a: newton.append(1) or newton_many(*a))

    def counted(arc, f, tol=resonant._PSI_SOLVE_TOL, newton=False):
        scalar.append("newton" if newton else "bisect")
        return loop(arc, f, tol, newton)

    # detuned imports the loop by name: both bindings are counted
    for mod in (resonant, detuned):
        monkeypatch.setattr(mod, "_solve_f", counted)
    # and the delta = 0 points too: no resonant solve on the side
    general = detuned.synthesize_general
    monkeypatch.setattr(detuned, "synthesize_general", None)
    zeros = 0
    for target, grid in TDIFF_CASES:
        gate = gate_from_euler(*target)
        scalar.clear()
        report = tdiff_analysis(gate, grid)
        assert scalar == ["newton"]
        for i in np.flatnonzero(grid == 0.0).tolist():
            assert report.t_U[i] == general(gate, verify=False).law.tf
            zeros += 1
    assert len(calls) == len(newton) == len(TDIFF_CASES)
    assert zeros


# the grid solves' map work at the CLI grid sizes, as measured when it was
# pinned: (elements the steering step evaluates, elements the exact array
# map takes, scalar label_for_phi0 calls through both bindings)
GRID_WORK = {"angle": (53532, 1436, 0), "tdiff": (17418, 970, 8), "family": (0, 2109, 0)}


def test_grid_solves_take_no_more_map_work_than_pinned(monkeypatch):
    # the tracer counts neither the array map nor the steering step, so a
    # change that adds grid solve steps shows nowhere else: each count may
    # fall, none may rise. The yz angle sweep over 721 angles, the paper
    # target's T_diff report over 241 detunings and its 1024-label family
    work = {}
    f_gaps, labels = resonant._f_gaps, resonant._labels_for_phi0

    def counted_gaps(*args):
        g = f_gaps(*args)

        def bound(i):
            ev = g(i)

            def counted_ev(x):
                work["steer"] += x.size
                return ev(x)
            return counted_ev
        return bound

    def counted_labels(phi0, *args):
        work["exact"] += phi0.size
        return labels(phi0, *args)

    monkeypatch.setattr(resonant, "_f_gaps", counted_gaps)
    monkeypatch.setattr(resonant, "_labels_for_phi0", counted_labels)
    for mod in (resonant, detuned):
        def counted(*args, _fn=mod.label_for_phi0):
            work["scalar"] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, "label_for_phi0", counted)
    runs = {
        "angle": lambda: sweep_rotation_angle(AXES[3], np.linspace(0.0, 4.0 * math.pi, 721)),
        "tdiff": lambda: tdiff_analysis(gate_from_euler(0.0, 2.2689, 0.0),
                                        np.linspace(-3.0, 3.0, 241)),
        "family": lambda: build_psi_family(2.2689, 0.0, 1024),
    }
    for name, run in runs.items():
        work.update(steer=0, exact=0, scalar=0)
        run()
        got = (work["steer"], work["exact"], work["scalar"])
        assert all(g <= pinned for g, pinned in zip(got, GRID_WORK[name])), (name, got)
        assert sum(got) > 0, name


def test_theta_factors_are_formed_once_per_arc(monkeypatch):
    # every solve reads its arc's factors: one call per synthesis, angle
    # sweep and family, and two per T_diff report (its grid arcs and the
    # symmetric pair's arc). The strict synthesis formed them twice and a
    # T_diff report nine times before the arcs carried them
    calls = []
    factors = resonant._theta_factors
    monkeypatch.setattr(resonant, "_theta_factors", lambda t: calls.append(1) or factors(t))

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    g = gate_from_euler(0.4, 2.2689, 0.3)
    assert [count(resonant.synthesize, g, d, False) for d in (3.0, -0.5, 0.0)] == [1, 1, 1]
    for axis in AXES:
        assert count(sweep_rotation_angle, axis, np.linspace(0.0, 4.0 * math.pi, 721)) == 1
    for theta, phi in _family_cases():
        assert count(build_psi_family, theta, phi, 1024) == (theta >= POLAR_THETA_TOL)
    for target, grid in TDIFF_CASES:
        assert count(tdiff_analysis, gate_from_euler(*target), grid) == 2


def test_angle_sweep_forms_theta_factors_once_per_tilted_rotation(monkeypatch):
    # U and -U of a rotation share its theta* and phi*, so the sweep forms
    # one arc, and math's theta*-factors, per tilted rotation, not per row
    sizes = []
    factors = resonant._theta_factors
    monkeypatch.setattr(resonant, "_theta_factors",
                        lambda t: sizes.append(np.size(t)) or factors(t))
    alphas = np.linspace(0.0, 4.0 * math.pi, 721)
    for axis in AXES + _near_pole_axes():
        sizes.clear()
        sweep_rotation_angle(axis, alphas)
        gates = [gate_from_axis_angle(min(a, 4.0 * math.pi - 1e-15), axis) for a in alphas]
        tilted = sum(canonical_euler(g).theta >= POLAR_THETA_TOL for g in gates)
        assert sizes == [tilted], axis


def test_tdiff_at_zero_detuning_is_the_resonant_duration():
    # the arc solve at delta = 0 takes synthesize_general's brackets and
    # midpoints, so t_U there is its tf bit for bit
    rng = np.random.default_rng(6064)
    for _ in range(300):
        gate = random_gate(rng)
        if canonical_euler(gate).theta < POLAR_THETA_TOL:
            continue
        report = tdiff_analysis(gate, [-1.0, 0.0, 1.0])
        assert report.t_U[1] == synthesize_general(gate, verify=False).law.tf


# the angle sweep canonicalizes every rotation in one array pass; these
# cases reach each branch of the tuple kernels it follows
GAUGE_ALPHAS = [0.0, 1e-15, 1e-12, 1e-9, 9.9e-9, 1e-8, 2e-8, 2.0 * math.pi - 1e-9, 2.0 * math.pi,
                2.0 * math.pi + 1e-9, 4.0 * math.pi - 1e-8, 4.0 * math.pi - 1e-15, 4.0 * math.pi]
HALF_TURN_ALPHAS = [math.pi - 1e-9, math.pi, math.pi + 1e-9, 3.0 * math.pi - 1e-9, 3.0 * math.pi,
                    3.0 * math.pi + 1e-9]


def _near_pole_axes():
    # transverse parts of 1e-9 (inside the gauge band at every angle) and
    # 8e-9 (crossing it as the angle runs), about +z and -z
    axes = []
    for t, sign, az in ((1e-9, 1.0, 0.3), (8e-9, 1.0, -2.0), (3e-9, -1.0, 1.1), (8e-9, -1.0, 2.9)):
        v = np.array([t * math.cos(az), t * math.sin(az), sign])
        axes.append(tuple((v / np.linalg.norm(v)).tolist()))
    return axes


def _branches(axis, alphas):
    """The _hopf_quat branch and whether -U takes the negated quaternion,
    over the sweep's rotations."""
    out = set()
    for a in alphas:
        g = gate_from_axis_angle(min(a, 4.0 * math.pi - 1e-15), axis)
        h = hopf_from_gate(g)
        out.add(("north" if h.gauge and h.theta1 < math.pi / 4.0 else
                 "south" if h.gauge else "tilted", canonical_euler(g).theta == 0.0))
    return out


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                                  (0.6, 0.0, 0.8), (0.3, -0.4, 0.866025403784438)])
def test_angle_sweep_in_the_north_gauge_band(axis):
    # m34 < GAUGE_TOL: the identity, -identity and their neighbours, and
    # every z-rotation; at theta = 0, -U's label is the negated quaternion's
    assert ("north", True) in _branches(axis, GAUGE_ALPHAS)
    assert sweep_rotation_angle(axis, GAUGE_ALPHAS) == sweep_rotation_angle_oracle(axis,
                                                                                  GAUGE_ALPHAS)


@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, -0.8, 0.0)])
def test_angle_sweep_in_the_south_gauge_band(axis):
    # m12 < GAUGE_TOL: half turns about a transverse axis
    assert ("south", False) in _branches(axis, HALF_TURN_ALPHAS)
    assert (sweep_rotation_angle(axis, HALF_TURN_ALPHAS)
            == sweep_rotation_angle_oracle(axis, HALF_TURN_ALPHAS))


@pytest.mark.parametrize("axis", _near_pole_axes())
def test_angle_sweep_about_an_axis_near_the_pole(axis):
    alphas = sorted(set(np.linspace(0.0, 4.0 * math.pi, 721).tolist() + GAUGE_ALPHAS))
    kinds = _branches(axis, alphas)
    assert ("north", True) in kinds
    assert sweep_rotation_angle(axis, alphas) == sweep_rotation_angle_oracle(axis, alphas)


def test_near_pole_axes_cross_the_gauge_band():
    # the 8e-9 axes reach both sides of the band within one sweep
    alphas = np.linspace(0.0, 4.0 * math.pi, 721).tolist()
    kinds = set().union(*(_branches(axis, alphas) for axis in _near_pole_axes()))
    assert {k for k, _ in kinds} == {"north", "tilted"}


def _kernel_quats():
    # Haar draws, quaternions within 1e-11..1e-6 of either gauge circle,
    # and scaled copies, some by 1 + 1e-15 and 1 + 3e-15 around the
    # rescale threshold, which no sweep reaches (its norms stay within an
    # ulp of 1)
    rng = np.random.default_rng(6065)
    quats = rng.normal(size=(400, 4)).tolist()
    for small in np.geomspace(1e-11, 1e-6, 41).tolist():
        a, b = rng.uniform(-math.pi, math.pi, 2).tolist()
        big, tiny = [math.cos(a), math.sin(a)], [small * math.cos(b), small * math.sin(b)]
        quats += [big + tiny, tiny + big]
    # signed zeros, where a fold by adding 0.0 would turn a -0.0 angle into +0.0
    quats += [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
              [-0.0, 0.0, -1.0, 0.0], [0.0, -0.0, 0.0, -1.0], [0.6, -0.0, 0.8, 0.0],
              [0.8, -0.0, 0.0, 0.6], [0.6, 0.0, -0.8, -0.0], [-0.6, -0.0, 0.8, 0.0]]
    scales = [0.5, 3.0, 1.0 + 1e-15, 1.0 + 3e-15]
    quats += [[s * x for x in q] for i, q in enumerate(quats) for s in [scales[i % 4]]]
    # rescaled draws, whose norm's last bit sets the rescaled components:
    # numpy's squares and sums must be the tuple kernel's
    return quats + (rng.normal(size=(4000, 4)) * rng.uniform(0.5, 2.0, (4000, 1))).tolist()


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def test_stack_kernels_match_tuple_kernels_bit_for_bit():
    quats = _kernel_quats()
    units = _unit_quat_stack(np.array(quats).T)
    want_units = [_unit_quat(tuple(q)) for q in quats]
    assert _bits(units.T) == _bits(want_units)
    assert sum(tuple(q) != u for q, u in zip(quats, want_units)) > len(quats) // 4
    for q in (units, -units):
        got = _euler_quat_stack(q)
        want = [_euler_quat(tuple(c)) for c in q.T.tolist()]
        assert _bits(np.array(got).T) == _bits(want)
    kinds = {_hopf_quat(u)[3:] + (_hopf_quat(u)[0] < math.pi / 4.0,) for u in want_units}
    assert kinds == {(False, True), (False, False), (True, True), (True, False)}


def test_array_wrap_4pi_and_negated_psi_match_the_scalar_ones():
    # numpy's float % is Python's: fmod, then the divisor's sign, and +0
    # for a zero remainder; signed zeros are compared by their bits
    rng = np.random.default_rng(6066)
    xs = []
    for x in (0.0, -0.0, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi, -4.0 * math.pi):
        lo = hi = x
        xs.append(x)
        for _ in range(3):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            xs += [lo, hi]
    xs += rng.uniform(-30.0, 30.0, 2000).tolist() + rng.normal(size=200).tolist()
    assert _bits(wrap_4pi(np.array(xs))) == _bits([wrap_4pi(x) for x in xs])
    psis = [wrap_4pi(x) for x in xs] + [-2.0 * math.pi, math.pi, -math.pi]
    assert _bits(negated_psi(np.array(psis))) == _bits([negated_psi(p) for p in psis])


def test_exact_theta_factors_are_the_scalar_ones():
    # every arc's solves steer and finish on these; cos^2(theta*/2) is C
    # pow's square, as label_for_phi0's ** 2, which differs from numpy's
    # x * x in about 1 of 1000 draws
    rng = np.random.default_rng(6067)
    thetas = np.concatenate([rng.uniform(0.0, math.pi, 20000), [POLAR_THETA_TOL, 1e-3, math.pi,
                                                                 math.pi - POLAR_THETA_TOL]])
    got = resonant._theta_factors(thetas)
    want = [resonant._theta_factors(t) for t in thetas.tolist()]
    assert _bits(np.array(got).T) == _bits(want)
