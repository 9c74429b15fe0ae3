"""The array sweeps against the former per-point loops (conftest oracles).

The family, the U/-U angle sweep and the T_diff analysis solve all grid
points together, but each point must come out bit for bit as the scalar
path's solve of that point alone.
"""
import math

import numpy as np
import pytest

from su2pulse import (build_psi_family, detuned, gate_from_euler, random_gate,
                      sweep_rotation_angle, synthesize_general, tdiff_analysis)
from su2pulse.detuned import _domain_arc, _solve_arcs, optimal_domain
from su2pulse.su2 import POLAR_THETA_TOL, canonical_euler

from conftest import build_psi_family_oracle, sweep_rotation_angle_oracle, tdiff_analysis_oracle


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:       # the error type is part of the outcome
        return type(exc)


def _family_cases():
    rng = np.random.default_rng(6061)
    thetas = np.exp(rng.uniform(math.log(1e-3), math.log(math.pi), 20)).tolist()
    cases = [(t, float(rng.uniform(-math.pi, math.pi))) for t in thetas]
    cases += [(t, float(rng.uniform(-math.pi, math.pi))) for t in (3e-8, math.pi - 2e-8, math.pi)]
    # the paper's target; and a family in which the array map's value at one
    # bisection midpoint sits within roundoff of the 1e-12 stop, where only
    # label_for_phi0 decides as the scalar solve does
    return cases + [(2.2689, 0.0), (0.023566653797669614, -0.32330695007011734)]


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
    # and every grid through the threshold: at it, and above it by 1e-12
    out = []
    for theta, phi, grid in cases:
        thr = math.tan(theta / 2.0)
        extra = [s * thr * (1.0 + eps) for s in (1.0, -1.0) for eps in (0.0, 1e-12)]
        out.append((theta, phi, np.unique(np.concatenate([grid, extra]))))
    return out


@pytest.mark.parametrize("theta, phi, grid", _domain_cases())
def test_grid_domains_match_scalar_domains(theta, phi, grid):
    # T_diff builds each domain at the signed delta, 0 included
    deltas = grid.tolist()

    def grid_domains():
        return _solve_arcs(theta, phi, [_domain_arc(theta, phi, d) for d in deltas], [])[0]

    want = [_outcome(optimal_domain, theta, phi, d) for d in deltas]
    got = _outcome(grid_domains)
    if isinstance(got, type):
        assert got in want
    else:
        assert got == want


def test_tdiff_is_one_array_solve(monkeypatch):
    # the strict domain ends too: no scalar f_delta bisection
    calls = []
    bisect_many = detuned._bisect_many
    monkeypatch.setattr(detuned, "_bisect_many", lambda *a: calls.append(1) or bisect_many(*a))
    monkeypatch.setattr(detuned, "_bisect", None)
    # and the delta = 0 points too: no resonant solve on the side
    general = detuned.synthesize_general
    monkeypatch.setattr(detuned, "synthesize_general", None)
    zeros = 0
    for target, grid in TDIFF_CASES:
        gate = gate_from_euler(*target)
        report = tdiff_analysis(gate, grid)
        for i in np.flatnonzero(grid == 0.0).tolist():
            assert report.t_U[i] == general(gate, verify=False).law.tf
            zeros += 1
    assert len(calls) == len(TDIFF_CASES)
    assert zeros


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
