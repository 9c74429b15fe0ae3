"""The shared root finders: the scalar f_delta loop (bisection for laws,
Newton steps for the tables), the array bisection with the bound
evaluator of the f_delta gaps, checked against the former scalar
bisection kept in conftest.py, the array Newton loop, and the mod-4pi
root scan of the test oracles."""
import math

import numpy as np
import pytest

from su2pulse import NoConvergence, build_psi_family, detuned, optimal_domain, resonant
from su2pulse.detuned import _domain_arc
from su2pulse.resonant import (_ARRAY_ROUNDOFF, _PSI_SOLVE_TOL, _bisect_many, _domain_arcs,
                               _f_gaps, _f_target, _newton_many, _newton_seed, _solve_f,
                               _theta_factors, label_for_phi0)
from su2pulse.su2 import POLAR_THETA_TOL

from conftest import _bisect, _roots_mod_4pi, steering_gaps_oracle

FOUR_PI = 4.0 * math.pi


def _bisect_both(g, a, b, ga, gb, tol, **kw):
    """_bisect's root, once `_bisect_many` on a one-bracket batch, with g
    evaluated per element, has returned the same float bit for bit, or
    raised NoConvergence where _bisect raises it."""
    def gv(i):
        assert i.tolist() == [0]
        return lambda x: np.array([g(v) for v in x.tolist()])

    def many():
        return float(_bisect_many(gv, [a], [b], [ga], [gb], tol, **kw)[0])

    try:
        x = _bisect(g, a, b, ga, gb, tol, **kw)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            many()
        raise
    assert many() == x
    return x


def _newton_both(monkeypatch, g, a, b, tol, seed=None):
    """`_solve_f`'s Newton root from the first trial point seed, on an arc
    whose label map and slope are g's (gap g(x)[0] at delta = 0 and f = 0,
    slope g(x)[1]) and whose seed is seed, through the module bindings
    `_solve_f` calls, once `_newton_many` on a one-bracket batch, with g
    and its slope evaluated per element, has returned the same float bit
    for bit."""
    def gv(i):
        assert i.tolist() == [0]
        return lambda x: tuple(np.array(v) for v in zip(*(g(u) for u in x.tolist())))

    ga, gb = g(a)[0], g(b)[0]
    arc = _domain_arc(1.0, 0.0, 0.0)._replace(bracket=(a, b, ga, gb), slack=0.0)

    def label_map(x, *_):
        # the label is the gap (2 delta tf = 0), p2 the slope
        gx, slope = g(x)
        return gx, 0.0, slope, 0.0

    with monkeypatch.context() as m:
        m.setattr(resonant, "label_for_phi0", label_map)
        m.setattr(resonant, "_f_slope", lambda d, tf, p2, eta, t: p2)
        m.setattr(resonant, "_newton_seed", lambda arc, f: seed)
        x = resonant._solve_f(arc, 0.0, tol, True)[4]
    # the array form's seed for none is nan
    seeds = [math.nan if seed is None else seed]
    assert float(_newton_many(gv, [a], [b], [ga], [gb], tol, 0.0, seeds)[0]) == x
    return x


@pytest.mark.parametrize("slope, most", [
    (lambda x: 2.0 * x, 8),          # the true slope: Newton steps
    (lambda x: 0.0, 60),             # none: bisection, without a warning
    (lambda x: math.inf, 60),        # overflowed: bisection
    # about half of it: the Newton points overshoot and land on alternate
    # sides of the root, each about 4% nearer, strictly inside the bracket,
    # so only the step test (steps halving every second step) cuts them short
    (lambda x: 1.02 * x, 60),
])
def test_newton_steps_reach_the_root(monkeypatch, slope, most):
    # a Newton point is taken only strictly inside the bracket and while the
    # steps halve every second step, else the midpoint, so a wrong slope
    # costs evaluations, never the root. Each slope runs with no seed, a
    # seed beside the root, one outside the bracket and a nan one: a seed
    # is the first trial point when it lies strictly inside the bracket,
    # else the midpoint is
    for seed in (None, 1.4, 5.0, math.nan):
        calls = []

        def g(x):
            calls.append(x)
            return x * x - 2.0, slope(x)

        x = _newton_both(monkeypatch, g, 0.0, 3.0, 1e-12, seed)
        assert abs(x - math.sqrt(2.0)) < 1e-11, seed
        assert len(calls) <= 2 + 2 * most, seed     # both ends, then each solve's steps
        assert calls[2] == (seed if seed == 1.4 else 1.5), seed     # the first trial point


def test_seeded_tables_take_few_newton_steps(monkeypatch):
    # the tables' solves start beside their roots: the family at the
    # inverse cubic Hermite interpolant of a label table with its slopes,
    # the strict far ends at the root of f_delta's quadratic model at the
    # far stationary label. From the midpoints the paper's family took 8
    # array steps (7.4 evaluations per label), from a 33-node secant seed
    # 3.3, and the far ends below 7.3 evaluations each on average
    steps, far, inside = [], [], []
    newton, newton_many = resonant._solve_f, resonant._newton_many
    label_map = resonant.label_for_phi0

    def counted(*args, **kwargs):
        inside.append(1)
        try:
            return newton(*args, **kwargs)
        finally:
            inside.pop()

    def mapped(*args):
        if inside:
            far.append(args[0])
        return label_map(*args)

    def counted_many(g, *args):
        def g_counted(i):
            ev = g(i)
            return lambda x: steps.append(x.size) or ev(x)
        return newton_many(g_counted, *args)

    monkeypatch.setattr(resonant, "_newton_many", counted_many)
    build_psi_family(2.2689, 0.0, 1024)
    assert len(steps) <= 5 and sum(steps) <= 2.1 * 1024
    # detuned imports the loop by name: optimal_domain calls its binding
    for mod in (resonant, detuned):
        monkeypatch.setattr(mod, "_solve_f", counted)
    monkeypatch.setattr(resonant, "label_for_phi0", mapped)
    rng = np.random.default_rng(6076)
    pool = [(2.2689, 0.0)] + [(0.4 + 2.5 * (j + 0.5) / 14, float(rng.uniform(-math.pi, math.pi)))
                              for j in range(14)]
    solves = 0
    for theta, phi in pool:
        for delta in np.linspace(-3.0, 3.0, 241).tolist():
            solves += optimal_domain(theta, phi, delta).psi_bullet is not None
    assert solves > 1000 and len(far) <= 5 * solves


def test_scalar_slope_is_the_array_slope_bit_for_bit():
    # _solve_f forms f_delta's slope by the scalar _f_slope beside each map
    # call, the array solves and the window seed's table by _f_slopes: the
    # same operations in the same order, so a scalar solve and its array
    # form step alike. Checked on the map's (tf, p2, eta) at seeded phi0
    # (arrivals at the first and at the second crossing, eta > pi), at
    # p2 = 1/delta (a zero slope), where |p2 tan(theta*/2)| rounds above 1
    # (the clamp of cos d to 0), at p2 = 0 on the South-Pole branch and at
    # d = 0, each at delta = 0 and at seeded detunings
    rng = np.random.default_rng(6077)
    rows = []
    for _ in range(400):
        theta, phi = math.acos(float(rng.uniform(-1.0, 1.0))), float(rng.uniform(-3.0, 3.0))
        k = resonant._theta_factors(theta)
        for phi0 in (phi + float(rng.uniform(-1.5, 1.5) * math.pi), phi):
            _, tf, p2, eta = label_for_phi0(phi0, theta, phi, k)
            for delta in (0.0, float(rng.uniform(-5.0, 5.0)), 1.0 / p2 if p2 else 1.0):
                rows.append((delta, tf, p2, eta, k[0]))
    # |p2 t| a few ulps above 1, at both crossings
    for t in np.exp(rng.uniform(-5.0, 5.0, 40)).tolist():
        p2 = (1.0 + 2.0 ** -52 * int(rng.integers(2, 6))) / t
        rows += [(d, float(rng.uniform(0.0, 3.0)), s * p2, eta, t)
                 for s in (1.0, -1.0) for eta in (math.pi, 4.0) for d in (0.0, 0.7)]
    theta = math.pi - 0.5 * POLAR_THETA_TOL
    t_south = resonant._theta_factors(theta)[0]
    south = label_for_phi0(0.3, theta, 1.1)[1:]
    rows += [(d, *south, t_south) for d in (0.0, 2.5, -1e9)]
    delta, tf, p2, eta, t = (np.array(v) for v in zip(*rows))
    got = resonant._f_slopes(delta, tf, p2, eta, t)
    want = np.array([resonant._f_slope(*r) for r in rows])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    s = p2 * t
    assert np.count_nonzero(eta > math.pi) > 100 and np.count_nonzero(eta < math.pi) > 100
    assert np.count_nonzero((1.0 - s) * (1.0 + s) < 0.0) >= 300
    assert np.count_nonzero(want == 0.0) > 100 and np.count_nonzero(delta == 0.0) > 400
    assert np.count_nonzero((p2 == 0.0) & (eta == math.pi)) >= 3


def test_seeds_are_the_same_float_in_either_form(monkeypatch):
    # the scalar solves (PsiFamily.solve, optimal_domain) and the array ones
    # (the family, the T_diff far ends) start from the same trial points, so
    # their tables agree bit for bit: the window's Hermite seeds, or their
    # secants, at every family label and inside the table's end cells, near
    # both poles too (theta* = pi - 1e-9 on the South-Pole branch, where the
    # label is linear), and the far ends' quadratic seeds (nan where the
    # model has no root) over a detuning grid
    hermite, fallback = resonant._hermite_seed, {}
    for theta, phi in _contract_targets() + [(math.pi - 1e-9, 0.9)]:
        window = _domain_arc(theta, phi, 0.0)
        ends = [-phi + s * (2.0 * math.pi - h) for s in (1.0, -1.0) for h in (1e-9, 1e-3, 0.1)]
        labels = np.concatenate([np.linspace(-phi - 2.0 * math.pi, -phi + 2.0 * math.pi, 257),
                                 ends])
        got = _newton_seed(window, labels)
        want = [_newton_seed(window, v) for v in labels.tolist()]
        assert np.array_equal(got, want, equal_nan=True), theta
        assert not np.isnan(got).any(), theta
        # the secants alone, where no cubic lies in its cell
        monkeypatch.setattr(resonant, "_hermite_seed", lambda *args: math.nan * args[-1])
        secant = _newton_seed(window, labels)
        assert np.array_equal(secant, [_newton_seed(window, v) for v in labels.tolist()])
        monkeypatch.setattr(resonant, "_hermite_seed", hermite)
        fallback[theta] = np.count_nonzero(got == secant) / labels.size
        grid = np.linspace(-6.0, 6.0, 61)
        arcs = _domain_arcs(theta, phi, grid)
        strict = np.flatnonzero(~np.isnan(arcs.far))
        got = _newton_seed(arcs.rows(strict), arcs.far[strict])
        want = []
        for delta in grid[strict].tolist():
            arc = _domain_arc(theta, phi, delta)
            want.append(_newton_seed(arc, arc.far))
        assert np.array_equal(got, want, equal_nan=True), theta
    # at theta* = 1e-3 the label rises almost as a step, node slopes reach
    # 1e4, and nearly every cubic leaves its cell; at 2.2689 the cubics are
    # taken, save at the nodes, where both are the node's phi0
    assert fallback[1e-3] > 0.9 and fallback[2.2689] < 0.05


def _meets_contract(arc, target, tol, phi0):
    """_bisect's contract at its root phi0 of f_delta = target on the arc's
    bracket, checked by label_for_phi0 alone: |f_delta - target| <= tol at
    phi0, or phi0 is the midpoint of a bracket narrower than 1e-15 across
    which f_delta passes the target. So 1e-15 away on either side, outside
    that bracket, the gaps lie beyond +-tol, or, at an end of the arc's
    bracket, within its slack."""
    def gap(x):
        label, tf, _, _ = label_for_phi0(x, arc.theta_star, arc.phi_star)
        return label - 2.0 * arc.delta * tf - target

    if abs(gap(phi0)) <= tol:
        return True
    band = -arc.slack if min(abs(phi0 - end) for end in arc.bracket[:2]) < 1e-15 else tol
    below, above = sorted(gap(phi0 + h) for h in (-1e-15, 1e-15))
    return below < -band and above > band


def _contract_targets():
    rng = np.random.default_rng(6075)
    out = [(math.acos(float(rng.uniform(-1.0, 1.0))), float(rng.uniform(-math.pi, math.pi)))
           for _ in range(6)]
    return out + [(t, float(rng.uniform(-math.pi, math.pi)))
                  for t in (3e-8, 1e-6, 1e-3, 2.2689, math.pi - 1e-6, math.pi - 2e-8, math.pi)]


@pytest.mark.parametrize("theta, phi", _contract_targets())
def test_tables_meet_the_solve_contract(theta, phi):
    # checked by label_for_phi0 alone: each family entry at its label, at
    # delta = 0 and tol 1e-12, and each strict far end of a seeded detuning
    # grid with its thresholds, at tol 1e-10, the far end being
    # optimal_domain's bound
    fam, window = build_psi_family(theta, phi, 256), _domain_arc(theta, phi, 0.0)
    for label, phi0 in zip(fam.psi.tolist(), fam.phi0.tolist()):
        assert _meets_contract(window, label, 1e-12, phi0), (label, phi0)
    thr = math.tan(theta / 2.0)
    grid = np.linspace(-6.0, 6.0, 61).tolist() + [s * thr * (1.0 + e) for s in (1.0, -1.0)
                                                  for e in (1e-12, 1e-6, 1e-3, 1.0)]
    strict = 0
    for delta in grid:
        arc = _domain_arc(theta, phi, delta)
        if arc.far is None:
            continue
        label, _, _, _, phi0 = _solve_f(arc, arc.far, _PSI_SOLVE_TOL, True)
        dom = optimal_domain(theta, phi, delta)
        assert label == (dom.psi_min if delta > 0.0 else dom.psi_max)
        assert _meets_contract(arc, arc.far, _PSI_SOLVE_TOL, phi0), (delta, phi0)
        strict += 1
    assert strict


def _former_law_solve(arc, f, tol):
    """The laws' former solve of f_delta = f on the arc: `_bisect` over a
    closure that keeps the values of its last resonant.label_for_phi0 call,
    the map called again at the root unless that call closed it within
    tol."""
    th, ph, d, k = arc.theta_star, arc.phi_star, arc.delta, arc.k
    twice_d = 2.0 * d
    vals = None

    def g(phi0):
        nonlocal vals
        label, tf, _, _ = vals = resonant.label_for_phi0(phi0, th, ph, k)
        return label - twice_d * tf - f

    lo, hi, f_lo, f_hi = arc.bracket
    phi0 = _bisect(g, lo, hi, f_lo - f, f_hi - f, tol, arc.slack)
    if vals is None or not abs(vals[0] - twice_d * vals[1] - f) <= tol:
        vals = resonant.label_for_phi0(phi0, th, ph, k)
    return (*vals, phi0)


def test_law_loop_is_the_former_bisection_bit_for_bit(monkeypatch):
    # _solve_f's law path, the scalar loop without Newton steps, returns the
    # five floats of the former closure over _bisect, from as many map
    # calls: on seeded full and strict arcs of both detuning signs and at
    # delta = 0, on the South-Pole branch, at a bracket end within tol, and
    # at tol = 0, where the bisection stops at a bracket narrower than 1e-15
    calls = []
    label_map = resonant.label_for_phi0
    monkeypatch.setattr(resonant, "label_for_phi0", lambda *a: calls.append(1) or label_map(*a))

    def both(arc, f, tol):
        out = []
        for solve in (_former_law_solve, _solve_f):
            calls.clear()
            out.append(([v.hex() for v in solve(arc, f, tol)], len(calls)))
        assert out[0] == out[1], (arc.theta_star, arc.phi_star, arc.delta, f, tol)
        return out[0][0]

    rng = np.random.default_rng(6078)
    south = [math.pi, math.pi - 0.5 * POLAR_THETA_TOL]
    thetas = [math.acos(float(rng.uniform(-1.0, 1.0))) for _ in range(40)] + south
    kinds, width_stops = set(), 0
    for theta in thetas:
        phi = float(rng.uniform(-math.pi, math.pi))
        for delta in (0.0, float(rng.uniform(0.0, 5.0)), float(rng.uniform(-5.0, 0.0))):
            arc = _domain_arc(theta, phi, delta)
            kinds.add((arc.far is not None, math.copysign(1.0, delta) if delta else 0.0))
            for psi in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 3).tolist():
                both(arc, _f_target(psi, arc.f_min, arc.f_max), _PSI_SOLVE_TOL)
            # each end of the bracket, whose gap there is 0
            for end, f_end in zip(arc.bracket[:2], arc.bracket[2:]):
                assert float.fromhex(both(arc, f_end, _PSI_SOLVE_TOL)[4]) == end
            f_mid = 0.5 * (arc.f_min + arc.f_max)
            label, tf = map(float.fromhex, both(arc, f_mid, 0.0)[:2])
            width_stops += label - 2.0 * delta * tf != f_mid
    # strict arcs at both signs, full ones at both and at delta = 0
    assert kinds == {(True, 1.0), (True, -1.0), (False, 1.0), (False, -1.0), (False, 0.0)}
    assert width_stops > 20


def _call(g, a, b, tol, **kw):
    return _bisect_both(g, a, b, g(a), g(b), tol, **kw)


@pytest.mark.parametrize("g", [lambda x: x * x - 2.0, lambda x: 2.0 - x * x],
                         ids=["increasing", "decreasing"])
def test_bisect_interior_root(g):
    x = _call(g, 0.0, 3.0, 1e-12)
    assert abs(x - math.sqrt(2.0)) < 1e-11


@pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0)])
def test_bisect_root_at_an_end(a, b):
    calls = []

    def g(x):
        calls.append(x)
        return x - 1.0

    assert _bisect_both(g, a, b, a - 1.0, b - 1.0, 1e-12) == 1.0
    assert calls == []          # an end that meets tol is returned unevaluated


def test_bisect_unbracketed_raises():
    with pytest.raises(NoConvergence):
        _call(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)
    with pytest.raises(NoConvergence):
        _call(lambda x: 5.0 - x, 0.0, 4.0, 1e-12)


def test_bisect_slack_admits_a_near_miss():
    # the bracket misses the root by 5e-10 at its left end
    g = lambda x: -x - 5e-10
    with pytest.raises(NoConvergence):
        _call(g, 0.0, 1.0, 1e-12)
    assert abs(_call(g, 0.0, 1.0, 1e-12, slack=1e-9)) < 1e-14


def test_bisect_zero_tolerance_reaches_float_resolution():
    x = _call(lambda t: math.cos(t), 1.0, 2.0, 0.0)
    assert abs(x - math.pi / 2.0) < 1e-15


def test_bisect_many_solves_each_bracket_as_bisect_does():
    # one batch whose brackets rise and fall and stop at an end, at
    # |g| <= tol and at float resolution: each gets _bisect's float
    shifts = [1.0, -2.0, 0.3, 1.7, 2.0]
    a, b = [1.0, -3.0, 0.0, 3.0, 1.5], [1.5, -1.0, 1.0, 1.0, 2.5]

    def g(x, c):
        return math.sin(x) * (x - c)

    ga = [g(x, c) for x, c in zip(a, shifts)]
    gb = [g(x, c) for x, c in zip(b, shifts)]

    def gv(i):
        return lambda x: np.array([g(v, shifts[k]) for v, k in zip(x.tolist(), i.tolist())])

    for tol in (1e-12, 0.0):
        want = [_bisect(lambda x, c=c: g(x, c), *ends, tol)
                for c, *ends in zip(shifts, a, b, ga, gb)]
        assert _bisect_many(gv, a, b, ga, gb, tol).tolist() == want


def test_bisect_many_keeps_the_width_stop_of_bisect():
    # the width test waits until some bracket can be narrower than 1e-15:
    # batches of brackets alike in width, from 4e-16 to 8 wide, centred from
    # 1e-3 to 1.9 off zero (so their ends stay below 6, where floats are
    # closer than 1e-15), over a step that never meets the tolerance: every
    # bracket stops at float resolution, on _bisect's step
    rng = np.random.default_rng(6079)
    n = 20
    for level in np.geomspace(4e-16, 4.0, 24).tolist():
        centre = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, math.log10(1.9), n)
        width = level * rng.uniform(1.0, 2.0, n)
        a, b = centre - 0.5 * width, centre + 0.5 * width
        step = a + rng.uniform(0.0, 1.0, n) * (b - a)
        ones = np.ones(n)
        want = [_bisect(lambda x, c=c: 1.0 if x > c else -1.0, lo, hi, -1.0, 1.0, 0.5)
                for c, lo, hi in zip(step.tolist(), a.tolist(), b.tolist())]
        got = _bisect_many(lambda i: lambda x: np.where(x > step[i], 1.0, -1.0), a, b, -ones,
                           ones, 0.5)
        assert got.tolist() == want, level


def test_bisect_many_binds_each_open_set_once():
    # brackets that close at different steps: an end root, |g| <= tol after
    # a few steps and after many, a jump that narrows below 1e-15 before
    # |g| <= tol, and a near miss at one end that only its own slack admits
    tol = 1e-12
    fs = [lambda x: x - 1.0,
          lambda x: x - 0.375,
          lambda x: 2.0 - x * x,
          lambda x: 1.0 if x > 0.3 else -1.0,
          lambda x: -x - 5e-10,
          lambda x: math.cos(x)]
    a = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    b = [3.0, 1.0, 3.0, 1.0, 1.0, 2.0]
    slack = [0.0, 0.0, 0.0, 0.0, 1e-9, 0.0]
    ga = [f(x) for f, x in zip(fs, a)]
    gb = [f(x) for f, x in zip(fs, b)]
    binds, steps = [], []       # steps: (bind, {row: (x, g)}) per evaluation

    def gv(i):
        binds.append(i.tolist())

        def ev(x):
            gm = [fs[k](v) for v, k in zip(x.tolist(), i.tolist())]
            steps.append((len(binds) - 1, dict(zip(i.tolist(), zip(x.tolist(), gm)))))
            return np.array(gm)

        return ev

    got = _bisect_many(gv, a, b, ga, gb, tol, np.array(slack)).tolist()
    assert got == [_bisect(*args, tol, sl) for *args, sl in zip(fs, a, b, ga, gb, slack)]
    assert got[0] == 1.0 and abs(got[3] - 0.3) < 1e-15
    # each bind a strict subset of the one before; the brackets closed at
    # |g| <= tol leave only after a step that closes at least half of the
    # open set, and until then stay in it, closed
    assert binds[0] == [1, 2, 3, 4, 5] and len(binds) >= 2
    assert all(set(new) < set(old) for old, new in zip(binds, binds[1:]))
    assert [k for k, _ in steps] == sorted(k for k, _ in steps)
    for k, (old, new) in enumerate(zip(binds, binds[1:])):
        last = [row for bind, row in steps if bind == k][-1]
        closed = {j for j, (_, gm) in last.items() if abs(gm) <= tol}
        if 2 * len(closed) >= len(old):
            assert not closed & set(new), k
        else:
            assert closed <= set(new), k    # a width stop rebinds the rest
    # a closed bracket re-evaluated at its same midpoint, and its g there,
    # while others stay open: bracket 1 closes at 0.375 on its third step
    rows = [row[1] for bind, row in steps if 1 in row]
    first = next(n for n, (_, gm) in enumerate(rows) if abs(gm) <= tol)
    assert rows[first] == (0.375, 0.0) and rows[first + 1:] and set(rows[first:]) == {rows[first]}
    assert got[1] == 0.375
    with pytest.raises(NoConvergence):
        _bisect_many(gv, a, b, ga, gb, tol)        # the near miss needs its slack


def _scalar_gap(theta, phi, delta, f):
    def g(x):
        label, tf, _, _ = label_for_phi0(x, theta, phi)
        return label - 2.0 * delta * tf - f
    return g


def _solve_both(theta, phi, delta, frac, tol=1e-10):
    """Solve f_delta = f on each (theta*, phi*, delta)'s optimal-domain
    bracket, f at `frac` of the way through the arc's f-range, by one
    `_bisect_many` call over `_f_gaps` and by `_bisect` per element with
    label_for_phi0; theta*, phi* and delta may be scalars."""
    th, ph, d = np.broadcast_arrays(theta, phi, delta)
    rows = []
    for t, p, dd, q in zip(th.tolist(), ph.tolist(), d.tolist(), frac):
        arc = _domain_arc(t, p, dd)
        rows.append((*arc.bracket, arc.slack,
                     arc.f_min + q * (arc.f_max - arc.f_min)))
    lo, hi, f_lo, f_hi, slack, f = np.array(rows).T
    g = _f_gaps(theta, phi, delta, f, tol, _theta_factors(theta))
    got = _bisect_many(g, lo, hi, f_lo - f, f_hi - f, tol, slack)
    want = [_bisect(_scalar_gap(t, p, dd, v), a, b, ga - v, gb - v, tol, sl)
            for t, p, dd, a, b, ga, gb, sl, v in zip(th.tolist(), ph.tolist(), d.tolist(),
                                                      lo, hi, f_lo, f_hi, slack, f)]
    return got.tolist(), want


def test_f_gaps_with_south_pole_and_tilted_rows_match_bisect():
    # South Pole rows (label -2 phi0 + phi*, tf = pi/2) among tilted ones,
    # at delta = 0, on full windows and on strict arcs
    rng = np.random.default_rng(6071)
    south = [math.pi, math.pi - 0.5 * POLAR_THETA_TOL]
    theta = np.array(south * 4 + rng.uniform(0.05, 3.0, 24).tolist())
    rng.shuffle(theta)
    phi = rng.uniform(-math.pi, math.pi, theta.size)
    frac = rng.uniform(0.0, 1.0, theta.size)
    assert 0 < np.count_nonzero(theta >= math.pi - POLAR_THETA_TOL) < theta.size
    for delta in (0.0, rng.uniform(-6.0, 6.0, theta.size)):
        got, want = _solve_both(theta, phi, delta, frac)
        assert got == want


def test_f_gaps_with_one_theta_at_nonzero_detuning_match_bisect():
    # one scalar theta* and phi* over a detuning grid that holds full,
    # strict and wrapped arcs of both signs, as a T_diff solve does
    rng = np.random.default_rng(6072)
    for theta, phi in [(2.2689, 0.3), (0.7, -2.5), (math.pi, 1.1)]:
        delta = np.concatenate([np.linspace(-5.0, -0.05, 40), np.linspace(0.05, 5.0, 40)])
        got, want = _solve_both(theta, phi, delta, rng.uniform(0.0, 1.0, delta.size))
        assert got == want


def _gap_ratio(theta, phi, delta, target, x):
    """max |array gap - label_for_phi0's gap| over the roundoff band
    _ARRAY_ROUNDOFF (1 + 2|delta|), from the bound evaluator with tol = inf,
    which leaves every array value unreplaced."""
    g = _f_gaps(theta, phi, delta, target, math.inf, _theta_factors(theta))
    got = g(np.arange(x.size))(x)
    th, ph, d, t = (v.tolist() for v in np.broadcast_arrays(theta, phi, delta, target))
    want = np.array([_scalar_gap(*args)(v) for *args, v in zip(th, ph, d, t, x.tolist())])
    return float(np.max(np.abs(got - want) / (_ARRAY_ROUNDOFF * (1.0 + 2.0 * np.abs(d)))))


def _gap_draws():
    """(theta*, phi*, delta, target, phi0) batches: 1e5 seeded draws, |delta|
    <= 50, phi0 past the window too (strict brackets run there); half with
    one array of theta*, half with one scalar theta* per batch of 500."""
    rng = np.random.default_rng(6073)

    def thetas(n):
        return np.concatenate([rng.uniform(POLAR_THETA_TOL, math.pi, n // 2),
                               np.exp(rng.uniform(math.log(POLAR_THETA_TOL), 0.0, n // 2))])

    def draw(phi, n):
        x = phi + rng.uniform(-1.5 * math.pi, 1.5 * math.pi, n)
        return rng.uniform(-50.0, 50.0, n), rng.uniform(-15.0, 15.0, n), x

    n = 50_000
    phi = rng.uniform(-math.pi, math.pi, n)
    yield (thetas(n), phi, *draw(phi, n))
    for theta in thetas(100).tolist():
        phi = float(rng.uniform(-math.pi, math.pi))
        yield (theta, phi, *draw(phi, 500))


def test_array_gap_stays_within_half_the_roundoff_band():
    # sweep parity rests on this margin: a value outside the band around
    # +-tol is within half the band of label_for_phi0's, so it decides as
    # the scalar map does
    ratios = [_gap_ratio(*draws) for draws in _gap_draws()]
    assert max(ratios) <= 0.5, ratios


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_steering_step_is_the_former_numpy_map_bit_for_bit():
    # every steering value, so every bisection decision and roundoff
    # recheck, is the gap of the array map's former numpy mode: over the
    # roundoff-band draws, South-band rows among tilted ones, and a scalar
    # delta = 0 over a theta* column, as the angle sweep binds it; each on
    # every row and on a seeded open subset of them
    rng = np.random.default_rng(6077)
    cases = list(_gap_draws())
    n = 2000
    theta = rng.uniform(POLAR_THETA_TOL, math.pi, n)
    south = rng.uniform(size=n) < 0.25
    theta[south] = rng.uniform(math.pi - POLAR_THETA_TOL, math.pi, south.sum())
    theta[:4] = math.pi
    phi = rng.uniform(-math.pi, math.pi, n)
    x = phi + rng.uniform(-1.5 * math.pi, 1.5 * math.pi, n)
    cases += [(theta, phi, rng.uniform(-50.0, 50.0, n), rng.uniform(-15.0, 15.0, n), x),
              (theta, phi, 0.0, rng.uniform(-15.0, 15.0, n), x),
              (math.pi - 0.5 * POLAR_THETA_TOL, 0.3, rng.uniform(-5.0, 5.0, 500),
               rng.uniform(-15.0, 15.0, 500), 0.3 + rng.uniform(-1.5 * math.pi, 1.5 * math.pi, 500))]
    assert any(np.count_nonzero(np.asarray(c[0]) >= math.pi - POLAR_THETA_TOL) for c in cases)
    for theta, phi, delta, target, x in cases:
        g = _f_gaps(theta, phi, delta, target, math.inf, _theta_factors(theta))
        want = steering_gaps_oracle(x, theta, phi, delta, target)
        assert _bits(g(np.arange(x.size))(x)) == _bits(want)
        i = np.flatnonzero(rng.uniform(size=x.size) < 0.5)
        rows = [v if np.ndim(v) == 0 else v[i] for v in (theta, phi, delta, target)]
        assert _bits(g(i)(x[i])) == _bits(steering_gaps_oracle(x[i], *rows))


def test_gap_near_tol_is_label_for_phi0s():
    # where the array and scalar gaps differ, a tol halfway between their
    # magnitudes puts them on opposite sides of it: only label_for_phi0's
    # value decides as _bisect does, so the evaluator must return it
    rng = np.random.default_rng(6074)
    n = 4000
    theta, phi = rng.uniform(0.01, 3.0, n), rng.uniform(-math.pi, math.pi, n)
    delta, target = rng.uniform(-5.0, 5.0, n), rng.uniform(-15.0, 15.0, n)
    x = phi + rng.uniform(-1.5 * math.pi, 1.5 * math.pi, n)
    array = _f_gaps(theta, phi, delta, target, math.inf, _theta_factors(theta))(np.arange(n))(x)
    scalar = np.array([_scalar_gap(*args)(v) for *args, v in
                       zip(theta.tolist(), phi.tolist(), delta.tolist(), target.tolist(),
                           x.tolist())])
    differ = np.flatnonzero(array != scalar)[:50]
    assert differ.size == 50
    for k in differ.tolist():
        tol = 0.5 * (abs(array[k]) + abs(scalar[k]))
        one = slice(k, k + 1)
        got = _f_gaps(theta[one], phi[one], delta[one], target[one], tol,
                      _theta_factors(theta[one]))(np.arange(1))(x[one])
        assert got[0] == scalar[k]


def test_scan_finds_every_root_mod_4pi():
    # f(x) = 3x passes psi = 1 + 4 pi k at x = (1 + 4 pi k) / 3
    f = lambda x: 3.0 * x
    xs = np.linspace(-5.0, 5.0, 801)
    roots = _roots_mod_4pi(f, xs, 3.0 * xs, 1.0, 1e-13)
    want = [(1.0 + FOUR_PI * k) / 3.0 for k in (-1, 0, 1)]
    assert np.allclose(roots, want, atol=1e-12)


def test_scan_skips_wrap_jumps():
    # the wrapped mismatch of f(x) = 3x - 1 jumps from +2pi to -2pi at
    # x = (1 + 2 pi) / 3; a jump is no root, only the zeros at (1 + 4 pi k) / 3
    xs = np.linspace(0.0, 4.0, 400)
    roots = _roots_mod_4pi(lambda x: 3.0 * x, xs, 3.0 * xs, 1.0, 1e-13)
    assert len(roots) == 1 and abs(roots[0] - 1.0 / 3.0) < 1e-12
    assert xs[0] < (1.0 + 2.0 * math.pi) / 3.0 < xs[-1]    # the jump is on the grid


def test_scan_returns_an_exact_grid_zero():
    xs = np.linspace(-1.0, 1.0, 5)                    # contains 0.5 exactly
    calls = []

    def f(x):
        calls.append(x)
        return x

    assert _roots_mod_4pi(f, xs, xs, 0.5, 1e-12) == [0.5]
    assert calls == []
