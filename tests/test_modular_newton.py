"""The Modular evaluator under the Newton solve, at the extremes.

Every result is compared, in log space, with an independent oracle: the
closed forms for constant exponents, or scipy's brentq on a log-sum-exp of
the modular.  Every result is also checked on its feasible side with the
natural-power evaluator ``_kernels.plain_modular``.
"""

import collections
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import logsumexp

from varbesov import _kernels, _solve, lebesgue, mixed
from varbesov.exponents import (ExponentField, constant_exponent,
                                cos_bump_exponent, log_smooth_exponent)
from varbesov.grid import Field, Grid, default_grid
from varbesov.lebesgue import Modular, luxemburg_norm
from varbesov.mixed import (FieldSequence, _LevelSolver, inner_lambda,
                            mixed_norm, sequence_from_values)
from varbesov.random_fields import band_limited_sequence

GRID = Grid(1, 256, 8.0)
LOG_CELL = math.log(GRID.cell)
REL_TOL = 1e-9

# |f| = scale * shape, shape in (0, 1]: a smooth positive bump with a zero
# tail, so zero samples are part of every field
_X = GRID.axis_coordinates()


def _shape(seed):
    rng = np.random.default_rng(seed)
    bump = np.exp(-((_X - rng.uniform(-2.0, 2.0)) / rng.uniform(0.5, 3.0)) ** 2)
    bump *= 1.0 + 0.3 * np.cos(rng.uniform(0.5, 2.0) * _X)
    bump[np.abs(_X) > 6.0] = 0.0
    return bump / bump.max()


def _field(log10_scale, seed):
    return Field(GRID, 10.0 ** log10_scale * _shape(seed))


def _log_abs(f):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(f.values))


def _log_lp(f, p0):
    """log of the constant-exponent norm (sum |f|^p0 cell)^(1/p0)."""
    return logsumexp(p0 * _log_abs(f) + math.log(f.grid.cell)) / p0


def _plain(t, p, cell=GRID.cell):
    return _kernels.plain_modular(t, np.broadcast_to(p, t.shape), cell)


def _assert_bracket(modular_at, x, power=1.0):
    """modular_at(x) <= 1 < modular_at(x / (1 + rel_tol)^power) with the
    independent evaluator; ``power`` turns x into the norm scale x^{1/power}."""
    assert modular_at(x) <= 1.0
    assert modular_at(x / (1.0 + REL_TOL) ** power) > 1.0


magnitudes = st.floats(-150.0, 150.0)
seeds = st.integers(0, 10_000)


@settings(max_examples=40, deadline=None)
@given(magnitudes, seeds, st.sampled_from([1.0001, 1.01, 2.0, 7.5]))
def test_luxemburg_constant_exponent_extremes(log10_scale, seed, p0):
    f = _field(log10_scale, seed)
    nrm = luxemburg_norm(f, constant_exponent(GRID, p0))
    assert math.log(nrm) == pytest.approx(_log_lp(f, p0), abs=2e-9)
    # rescale before the natural-power check so 1e+-150 stays in range
    unit = np.abs(f.values) / 10.0 ** log10_scale
    _assert_bracket(lambda x: _plain(unit / (x / 10.0 ** log10_scale), p0), nrm)


@settings(max_examples=25, deadline=None)
@given(magnitudes, seeds, st.floats(1.0001, 1.2), st.floats(0.5, 3.0))
def test_luxemburg_variable_exponent_against_brentq(log10_scale, seed, a, b):
    # p = a + b / log(e + |x|) reaches down to p = 1.0001
    f = _field(log10_scale, seed)
    p = log_smooth_exponent(GRID, a, b)
    pv = p.values
    la = _log_abs(f)

    def log_rho(u):
        return logsumexp(pv * (la - u) + LOG_CELL)

    guess = _log_lp(f, float(pv.min()))
    u_star = brentq(log_rho, guess - 50.0, guess + 50.0, xtol=1e-14, rtol=1e-15)
    nrm = luxemburg_norm(f, p)
    assert math.log(nrm) == pytest.approx(u_star, abs=2e-9)
    unit = np.abs(f.values) / 10.0 ** log10_scale
    _assert_bracket(lambda x: _plain(unit / (x / 10.0 ** log10_scale), pv), nrm)


@settings(max_examples=20, deadline=None)
@given(st.floats(-150.0, 150.0), seeds, st.sampled_from([1.0001, 1.5, 3.0]),
       st.sampled_from([400.0, 1000.0]))
def test_mixed_norm_large_q(log10_scale, seed, p0, q0):
    # three levels two decades apart: with q >= 400 the top level carries the
    # norm and the others' lam_j underflow on the way
    fs = FieldSequence(tuple(
        _field(log10_scale - k, seed + k) for k in (0, 2, 1)))
    nrm = mixed_norm(fs, constant_exponent(GRID, p0), constant_exponent(GRID, q0))
    log_norms = np.array([_log_lp(f, p0) for f in fs])
    expected = logsumexp(q0 * log_norms) / q0
    assert math.log(nrm) == pytest.approx(expected, abs=2e-9)
    # feasible side of the sequence modular sum_j rho_p(f_j / mu)^{q/p}, on
    # samples rescaled by the same power of ten as mu
    units = [np.abs(f.values) / 10.0 ** log10_scale for f in fs]
    _assert_bracket(
        lambda x: sum(_plain(u / (x / 10.0 ** log10_scale), p0) ** (q0 / p0)
                      for u in units),
        nrm)


# norms from near the smallest normal float to next to the largest one;
# the solver searches up to exp(log(max float)), and the evaluator's
# rounding bound keeps its feasible side a few 1e-12 below that
EXTREME_LOG10_NORMS = [-307.0, -300.0, 300.0, 306.5, 308.0,
                       math.log10(sys.float_info.max) - 1e-8]
GRID2 = Grid(2, 64, 8.0)


def _wide_bump(grid, p0):
    """A positive bump with a zero tail whose constant-exponent norm is
    above 1, so that scaling it to any extreme norm keeps its samples
    finite; returns the samples and the log of that norm."""
    mesh = grid.coordinate_mesh()
    r = np.sqrt(sum((m - 0.7) ** 2 for m in mesh))
    bump = np.exp(-(r / 3.5) ** 2) * (1.0 + 0.3 * np.cos(1.3 * mesh[0]))
    bump[r > 6.0] = 0.0
    bump /= bump.max()
    log_norm = _log_lp(Field(grid, bump), p0)
    assert log_norm > 0.0
    return bump, log_norm


@pytest.mark.parametrize("grid", [GRID, GRID2], ids=["1d", "2d"])
@pytest.mark.parametrize("log10_norm", EXTREME_LOG10_NORMS)
@pytest.mark.parametrize("p0", [1.0001, 2.0, 7.5])
def test_luxemburg_norms_at_the_ends_of_the_float_range(grid, log10_norm, p0):
    bump, log_bump = _wide_bump(grid, p0)
    scale = math.exp(log10_norm * math.log(10.0) - log_bump)
    f = Field(grid, scale * bump)
    nrm = luxemburg_norm(f, constant_exponent(grid, p0))
    assert math.log(nrm) == pytest.approx(_log_lp(f, p0), abs=2e-9)
    unit = np.abs(f.values) / scale
    _assert_bracket(lambda x: _plain(unit / (x / scale), p0, grid.cell), nrm)


@pytest.mark.parametrize("grid", [GRID, GRID2], ids=["1d", "2d"])
@pytest.mark.parametrize("log10_norm", EXTREME_LOG10_NORMS)
@pytest.mark.parametrize("p0, q0", [(1.0001, 1.5), (2.0, 400.0)])
def test_mixed_norms_at_the_ends_of_the_float_range(grid, log10_norm, p0, q0):
    # three levels: the bump at 1, 1e-2 and 1e-1 of a common scale, which
    # is set so that the closed form (sum_j |f_j|_p^q)^(1/q) hits the target
    bump, log_bump = _wide_bump(grid, p0)
    rel = np.log(10.0) * np.array([0.0, -2.0, -1.0])
    log_scale = log10_norm * math.log(10.0) - logsumexp(q0 * (rel + log_bump)) / q0
    scale = math.exp(log_scale)
    fs = FieldSequence(tuple(Field(grid, scale * math.exp(r) * bump) for r in rel))
    nrm = mixed_norm(fs, constant_exponent(grid, p0), constant_exponent(grid, q0))
    expected = logsumexp(q0 * np.array([_log_lp(f, p0) for f in fs])) / q0
    assert math.log(nrm) == pytest.approx(expected, abs=2e-9)
    units = [np.abs(f.values) / scale for f in fs]
    _assert_bracket(
        lambda x: sum(_plain(u / (x / scale), p0, grid.cell) ** (q0 / p0)
                      for u in units),
        nrm)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), seeds, st.sampled_from([1.0001, 2.0]),
       st.sampled_from([1.5, 400.0]))
def test_all_zero_levels(n_zero, seed, p0, q0):
    zero = Field(GRID, np.zeros(GRID.shape))
    f = _field(0.0, seed)
    entries = [zero] * n_zero
    entries.insert(seed % (n_zero + 1), f)
    p, q = constant_exponent(GRID, p0), constant_exponent(GRID, q0)
    nrm = mixed_norm(FieldSequence(tuple(entries)), p, q)
    assert math.log(nrm) == pytest.approx(_log_lp(f, p0), abs=2e-9)
    assert mixed_norm(FieldSequence((zero,) * n_zero), p, q) == 0.0
    assert inner_lambda(zero, p, q) == 0.0


@settings(max_examples=30, deadline=None)
@given(seeds, st.floats(0.05, 0.999) | st.floats(1.001, 3.0),
       st.floats(-1.5, 1.5), st.sampled_from([1.0001, 2.0]),
       st.sampled_from([1.5, 400.0]))
def test_q_infinity_mass_on_both_sides_of_one(seed, mass, log_target, p0, q0):
    # q = inf on the left half: there the modular does not depend on lam
    # and carries ``mass``; the closed form is
    # lam = (S_dep / (1 - mass))^{q/p} when mass < 1, and inf otherwise.
    # Compared on the norm scale lam^{p/q} (set to exp(log_target) below):
    # d log rho / d log lam is -(p/q)(1 - mass) there, so log lam is only
    # defined to q/p times the rounding of log rho.
    shape = _shape(seed)
    left = _X < 0.0
    ind = shape * left
    dep = shape * ~left
    if not (np.any(ind > 0.0) and np.any(dep > 0.0)):
        return
    s_ind = float(np.sum(ind ** p0)) * GRID.cell
    s_dep = float(np.sum(dep ** p0)) * GRID.cell
    log_dep = 0.0
    if mass < 1.0:
        log_dep = (log_target + math.log1p(-mass) - math.log(s_dep)) / p0
    vals = ind * (mass / s_ind) ** (1.0 / p0) + dep * math.exp(log_dep)
    f = Field(GRID, vals)
    q = ExponentField(GRID, np.where(left, np.inf, q0))
    p = constant_exponent(GRID, p0)
    lam = inner_lambda(f, p, q)
    if mass > 1.0:
        assert lam == math.inf
        return
    assert p0 / q0 * math.log(lam) == pytest.approx(log_target, abs=1e-10)
    rq = np.where(left, 0.0, 1.0 / q0)
    _assert_bracket(lambda x: _plain(np.abs(vals) / x ** rq, p0), lam, q0 / p0)


@pytest.mark.parametrize("p0", [1.0, 2.0])
def test_flat_tangent_above_the_crossing_returns_inf(p0, monkeypatch):
    # a q = inf sample of 1e300 beside a 1e-300 sample: the q = inf term
    # alone exceeds 1 and the term that moves with lam underflows beside
    # it, so the pass reads a slope of exactly 0; that flat tangent above
    # the crossing ends the solve at the top of the range
    grid = Grid(1, 256, 16.0)
    vals = np.zeros(grid.shape)
    vals[0], vals[1] = 1e300, 1e-300
    q = ExponentField(grid, np.where(np.arange(grid.node_count) == 0, np.inf, 2.0))
    passes = _count_passes(monkeypatch)
    lam = inner_lambda(Field(grid, vals), constant_exponent(grid, p0), q)
    assert lam == math.inf
    assert passes[0] <= 3


@settings(max_examples=30, deadline=None)
@given(seeds, st.floats(-1.5, 1.5), st.sampled_from([1.0001, 2.0, 5.0]),
       st.sampled_from([1.0, 2.0, 400.0]))
def test_p_infinity_floor_nodes(seed, log_sup, p0, q0):
    # p = inf on the outer band: lam is the larger of the band's floor
    # sup |f|^q and the finite band's closed form S^{q/p}
    shape = _shape(seed)
    band = np.abs(_X) > 3.0
    if not np.any(shape[band] > 0.0):
        shape = shape + 0.2 * band
    vals = np.where(band, shape / shape[band].max() * math.exp(log_sup), shape)
    f = Field(GRID, vals)
    pv = np.where(band, np.inf, p0)
    p = ExponentField(GRID, pv)
    q = constant_exponent(GRID, q0)
    # on the norm scale lam^{1/q}: the sup of the band, or the finite
    # band's constant-exponent norm
    expected = max(log_sup, logsumexp(p0 * _log_abs(f)[~band] + LOG_CELL) / p0)
    assume(abs(q0 * expected) < 700.0)  # lam is a float
    lam = inner_lambda(f, p, q)
    assert math.log(lam) / q0 == pytest.approx(expected, abs=1e-10)
    # a floor-bound lam sits a few ulps above sup |f|^q, so the bracket
    # below it is infeasible through the p = inf nodes
    _assert_bracket(lambda x: _plain(np.abs(vals) / x ** (1.0 / q0), pv), lam, q0)
    if q0 == 1.0:
        # the Luxemburg norm on the same nodes
        nrm = luxemburg_norm(f, p)
        assert math.log(nrm) == pytest.approx(expected, abs=2e-9)
        _assert_bracket(lambda x: _plain(np.abs(vals) / x, pv), nrm)


def test_certified_norm_is_the_feasible_end():
    # the certificate's level points at mu_hi bound the lam_j there and sum
    # to at most 1 by evaluation, and mu_hi is the returned norm
    grid = Grid(1, 512, 16.0)
    fs = band_limited_sequence(grid, 4, 40, 5)
    p = log_smooth_exponent(grid, 2.0, 1.0)
    q = cos_bump_exponent(grid, 1.5, 1.0)
    _, (mu_hi, points) = _certify(fs, p, q)[2]
    assert mu_hi == mixed_norm(fs, p, q)
    assert sum(math.exp(u) for _, u in points) <= 1.0


def _counting(solve, counts):
    """``solve`` with the evaluations of each solve appended to ``counts``."""

    def counted(fn, hint, *args, **kwargs):
        calls = [0]

        def wrapped(x):
            calls[0] += 1
            return fn(x)

        try:
            return solve(wrapped, hint, *args, **kwargs)
        finally:
            counts.append(calls[0])

    return counted


def _count_passes(monkeypatch):
    """Count every ``_kernels.log_modular`` pass (``Modular`` reaches the
    kernel through ``_kernels`` at call time)."""
    passes = [0]
    log_modular = _kernels.log_modular

    def counted(*args, **kwargs):
        passes[0] += 1
        return log_modular(*args, **kwargs)

    monkeypatch.setattr(_kernels, "log_modular", counted)
    return passes


def _count_certificate_passes(monkeypatch, passes):
    """The passes of ``passes`` (``_count_passes``) that each
    ``_LevelSolver._certify`` call takes, one entry per call."""
    counts = []
    certify = _LevelSolver._certify

    def counted(self, *args):
        before = passes[0]
        try:
            return certify(self, *args)
        finally:
            counts.append(passes[0] - before)

    monkeypatch.setattr(_LevelSolver, "_certify", counted)
    return counts


def _count_passes_by_nodes(monkeypatch):
    """Count the ``_kernels.log_modular`` passes by the number of nodes
    they sweep, one entry per size."""
    passes = collections.Counter()
    log_modular = _kernels.log_modular

    def counted(base, *args):
        passes[base.size] += 1
        return log_modular(base, *args)

    monkeypatch.setattr(_kernels, "log_modular", counted)
    return passes


@pytest.mark.parametrize("outer_q_inf", [False, True], ids=["q", "q_inf_outside"])
@pytest.mark.parametrize("grid, levels, band, subsample", [
    (default_grid(1), 9, 64, 512), (Grid(2, 256, 16.0), 7, 20, 128 ** 2)],
    ids=["4096x9", "256^2x7"])
def test_mixed_norms_certify_without_threshold_solves(grid, levels, band,
                                                     subsample, outer_q_inf,
                                                     monkeypatch):
    # desk and plane scale, log-smooth p, cos-bump q, also with q = inf on
    # |x| >= 0.4 L: the certificate brackets the norm from the predictor's
    # lines and decides every level point at both ends from the level's
    # last every-node pass, so it takes no pass and no threshold solve
    # runs.  The predictor's far-field passes sweep the strided subsample
    # (every 8th node of the line, every 2nd per axis of the plane), and
    # it takes at most two every-node passes per level
    fs = band_limited_sequence(grid, levels, band, 3)
    p = log_smooth_exponent(grid, 2.0, 1.5)
    q = cos_bump_exponent(grid, 1.5, 1.0)
    if outer_q_inf:
        outer = grid.min_image_radius() >= 0.4 * grid.half_width
        q = ExponentField(grid, np.where(outer, math.inf, q.values))
    solves = []
    monkeypatch.setattr(lebesgue, "solve_threshold",
                        _counting(_solve.solve_threshold, solves))
    monkeypatch.setattr(mixed, "solve_threshold",
                        _counting(_solve.solve_threshold, solves))
    by_nodes = _count_passes_by_nodes(monkeypatch)
    passes = _count_passes(monkeypatch)
    in_certificate = _count_certificate_passes(monkeypatch, passes)
    mixed_norm(fs, p, q)
    assert solves == []
    assert in_certificate == [0]
    assert set(by_nodes) == {grid.node_count, subsample}
    assert by_nodes[grid.node_count] <= 2 * fs.levels


def test_subsample_without_a_plane_takes_every_node_passes(monkeypatch):
    # the subsample is a set of zero-copy views of the evaluator's arrays;
    # a level whose nonzero samples all sit off it reads log rho = -inf
    # there, takes an every-node pass in its place, and the norm certifies
    grid = default_grid(1)
    fs = band_limited_sequence(grid, 3, 64, 3)
    off = np.arange(grid.node_count) % 8 != 0
    fs = FieldSequence((fs[0], Field(grid, np.where(off, fs[1].values, 0.0)),
                        fs[2]))
    p = log_smooth_exponent(grid, 2.0, 1.5)
    q = cos_bump_exponent(grid, 1.5, 1.0)
    solver = _LevelSolver(fs, p, q)
    ev, sub = solver.evaluator, mixed._Subsample(solver.evaluator, grid.shape)
    for view, array in [(sub.p, ev.p), (sub.c, ev.c)] + list(zip(sub.rows, ev.rows)):
        assert np.shares_memory(view, array)
    with np.errstate(over="ignore"):
        assert sub.partials(1, 0.0, 0.0)[0] == -math.inf
    by_nodes = _count_passes_by_nodes(monkeypatch)
    _, crossing, bracket = _certify(fs, p, q)
    assert bracket is not None
    # level 1 takes an every-node pass beside each subsample pass of the
    # others, on top of the at most two per level near the crossing
    assert by_nodes[512] > 0
    assert by_nodes[grid.node_count] > 2 * fs.levels
    nested = _solve.solve_threshold(
        lambda mu: _LevelSolver(fs, p, q).modular(math.log(mu)),
        math.exp(crossing))
    assert math.log(mixed_norm(fs, p, q)) == pytest.approx(math.log(nested),
                                                         abs=1e-8)


def _smooth_sequence(grid, log10_scale, seed, levels, zero_levels):
    """Smooth bumps with zero tails, within two decades below
    10**log10_scale; the levels in ``zero_levels`` are zero."""
    rng = np.random.default_rng(seed)
    mesh = grid.coordinate_mesh()
    entries = []
    for j in range(levels):
        centre = rng.uniform(-2.0, 2.0, grid.dim)
        r = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, centre)))
        bump = np.exp(-(r / rng.uniform(2.5, 4.0)) ** 2)
        bump *= 1.0 + 0.3 * np.cos(rng.uniform(0.5, 2.0) * mesh[0])
        bump[r > 6.0] = 0.0
        scale = 10.0 ** (log10_scale - rng.uniform(0.0, 2.0))
        entries.append(Field(grid, 0.0 * bump if j in zero_levels
                             else scale / bump.max() * bump))
    return FieldSequence(tuple(entries))


def _q_inf_on(grid, nodes, family, *params):
    """``family(grid, *params)`` with q = inf on the nodes ``nodes(grid)``."""
    q = family(grid, *params)
    return ExponentField(grid, np.where(nodes(grid), math.inf, q.values))


def _outer_band(grid):
    return grid.min_image_radius() >= 0.6 * grid.half_width


def _scattered(grid):
    return np.arange(grid.node_count).reshape(grid.shape) % 7 == 3


# (family, parameters): constant and variable, down to p = 1.0001 and up to
# q = 400, and q = inf on a band or on scattered nodes
_P_FAMILIES = [(constant_exponent, (1.0001,)), (constant_exponent, (2.0,)),
               (log_smooth_exponent, (1.0001, 1.0))]
_Q_FAMILIES = [(constant_exponent, (1.5,)), (constant_exponent, (400.0,)),
               (cos_bump_exponent, (1.5, 1.0)), (cos_bump_exponent, (1.5, 398.5)),
               (_q_inf_on, (_outer_band, cos_bump_exponent, 1.5, 1.0)),
               (_q_inf_on, (_scattered, constant_exponent, 2.0))]


_SEQUENCE_CASES = st.tuples(
    st.sampled_from([GRID, GRID2]),
    st.sampled_from([-300.0, 300.0]) | st.floats(-300.0, 300.0), seeds,
    st.integers(1, 4), st.sets(st.integers(0, 3), max_size=2),
    st.sampled_from(_P_FAMILIES), st.sampled_from(_Q_FAMILIES))


def _sequence_case(grid, log10_scale, seed, levels, zero_levels, p_family,
                   q_family):
    """(fs, p, q, zero levels) for one draw of ``_SEQUENCE_CASES``: 1-D
    and 2-D, p down to 1.0001, q up to 400, magnitudes 1e+-300, zero levels."""
    zero_levels = zero_levels & set(range(levels - 1))  # the last is nonzero
    fs = _smooth_sequence(grid, log10_scale, seed, levels, zero_levels)
    return (fs, p_family[0](grid, *p_family[1]), q_family[0](grid, *q_family[1]),
            zero_levels)


def _certify(fs, p, q):
    """(solver, crossing, bracket): the predictor and the certificate run as
    ``mixed_norm`` runs them; the bracket is None where it declines."""
    solver = _LevelSolver(fs, p, q)
    log_hint = math.log(lebesgue._norm_hint(fs.grid, fs.max_abs(), fs.levels))
    crossing = solver._predict(log_hint)
    assert crossing < log_hint
    return solver, crossing, solver._certify(crossing)


def _assert_fallback(solver, crossing, fs, p, q):
    """The norm is the threshold solve from the predictor's crossing and
    seeds, bit for bit."""
    want = _solve.solve_threshold(lambda mu: solver.modular(math.log(mu)),
                                  math.exp(crossing))
    assert _bits(mixed_norm(fs, p, q)) == _bits(want)


@settings(max_examples=40, deadline=None)
@given(_SEQUENCE_CASES)
def test_predictor_stays_below_the_certified_solve(case):
    fs, p, q, zero_levels = _sequence_case(*case)
    solver = _LevelSolver(fs, p, q)
    assert solver.evaluator.plain
    log_mu = solver._predict(
        math.log(lebesgue._norm_hint(fs.grid, fs.max_abs(), fs.levels)))
    assert log_mu is not None
    assert log_mu <= math.log(mixed_norm(fs, p, q))
    # each seeded line lies below the certified log lam_j, at the predicted
    # mu and away from it (where a later solve, such as a duality beta,
    # starts from it); a certified 0.0 means log lam_j is below the
    # smallest normal float
    ev = Modular(fs, p, q)
    for j, tangent in enumerate(solver._tangents):
        if j in zero_levels:
            assert tangent is None
            continue
        at, log_lam, slope = tangent
        assert at == log_mu
        for step in (0.0, -0.5, 0.5):
            lam = ev.solve(j, log_mu + step)
            certified = math.log(lam) if lam > 0.0 else _solve._LOG_TINY
            assert log_lam + slope * step <= certified + 1e-9


@settings(max_examples=40, deadline=None)
@given(_SEQUENCE_CASES)
def test_certificate_brackets_the_norm(case):
    # every level point is checked with the natural-power evaluator: at
    # mu_hi each is feasible, so lam_j(mu_hi) is at most it, and the points
    # sum to at most 1; at mu_lo each is infeasible and they sum above 1
    fs, p, q, zero_levels = _sequence_case(*case)
    _, _, bracket = _certify(fs, p, q)
    (mu_lo, lo), (mu_hi, hi) = bracket
    assert mu_hi / mu_lo - 1.0 <= mixed.NORM_REL_TOL
    assert _bits(mixed_norm(fs, p, q)) == _bits(mu_hi)
    live = [j for j in range(fs.levels) if j not in zero_levels]
    assert [j for j, _ in lo] == [j for j, _ in hi] == live
    assert sum(math.exp(u) for _, u in lo) > 1.0 >= sum(math.exp(u) for _, u in hi)
    rq = 1.0 / q.values
    for mu, points, feasible in ((mu_lo, lo, False), (mu_hi, hi, True)):
        for j, u in points:
            # |f_j| / (mu lam^{1/q}) in logs: 1e+-300 samples stay in range
            t = np.exp(_log_abs(fs[j]) - math.log(mu) - u * rq)
            assert (_plain(t, p.values, fs.grid.cell) <= 1.0) == feasible, (j, mu)


def _brentq_root(h):
    """The root of a decreasing h by scipy brentq, after doubling [-1, 1]
    until it brackets a sign change."""
    lo, hi = -1.0, 1.0
    while h(lo) < 0.0:
        lo *= 2.0
    while h(hi) > 0.0:
        hi *= 2.0
    return brentq(h, lo, hi, xtol=1e-13, rtol=1e-15)


def _brentq_log_norm(fs, p, q):
    """log of the mixed norm at finite p and q by scipy brentq nesting on
    log-sum-exps in (log lam, log mu): no code shared with the solver."""
    pv = p.values.ravel()
    c = pv / q.values.ravel()
    log_cell = math.log(fs.grid.cell)

    def log_lam(log_f, u):
        x = pv * (log_f - u) + log_cell  # -inf at zero samples
        if not np.any(x > -math.inf):
            return -math.inf
        return _brentq_root(lambda v: logsumexp(x - c * v))

    logs = [_log_abs(f).ravel() for f in fs]
    return _brentq_root(lambda u: logsumexp([log_lam(la, u) for la in logs]))


@settings(max_examples=20, deadline=None)
@given(st.tuples(
    st.sampled_from([GRID, GRID2]),
    st.sampled_from([-300.0, 300.0]) | st.floats(-300.0, 300.0), seeds,
    st.integers(2, 4), st.sets(st.integers(0, 3), max_size=2),
    st.sampled_from(_P_FAMILIES), st.just((cos_bump_exponent, (1.5, 398.5)))))
def test_wide_q_norms_certify_against_brentq(case):
    # q across 1.5..400 leaves levels e^-17..e^-366 of the sum beside the
    # top one; each takes every-node passes until its point stops moving,
    # so the certificate brackets the norm, and brentq nesting agrees
    fs, p, q, _ = _sequence_case(*case)
    _, _, bracket = _certify(fs, p, q)
    assert bracket is not None
    assert math.log(mixed_norm(fs, p, q)) == pytest.approx(
        _brentq_log_norm(fs, p, q), abs=1e-8)


def test_certificate_declines_after_an_unconverged_predictor(monkeypatch):
    # one predictor pass leaves the crossing well below the norm: the
    # bound from that pass cannot decide the feasible end's first point,
    # which takes the evaluated pass, reads infeasible and ends the
    # certificate; the norm is the threshold solve from that crossing
    monkeypatch.setattr(mixed, "_PREDICTOR_PASSES", 1)
    fs = band_limited_sequence(default_grid(1), 9, 64, 3)
    p, q = _exponents(fs.grid, "finite")
    in_certificate = _count_certificate_passes(monkeypatch,
                                               _count_passes(monkeypatch))
    solver, crossing, bracket = _certify(fs, p, q)
    assert bracket is None
    assert in_certificate == [1]
    _assert_fallback(solver, crossing, fs, p, q)


def _end_points(solver, crossing):
    """(log mu, points) at each end of the certificate's bracket that is in
    the float range, from ``solver``'s lines around ``crossing``."""
    offset = 0.0625 * math.log1p(mixed.NORM_REL_TOL)
    ends = [solver._end(crossing + offset), solver._end(crossing - offset)]
    return [end[1:] for end in ends if end is not None]


@settings(max_examples=40, deadline=None)
@given(_SEQUENCE_CASES)
def test_certificate_bounds_agree_with_evaluated_passes(case):
    # at both ends, and at points moved off them in log lam, the raised
    # log rho_j that a pass reads lies in the bound's [lo, hi]: a point the
    # bound decides (hi <= 0 feasible, lo > 0 infeasible) never disagrees
    # with the evaluated pass
    fs, p, q, _ = _sequence_case(*case)
    solver, crossing, _ = _certify(fs, p, q)
    ev, widths = solver.evaluator, solver._widths()
    decided = 0
    with np.errstate(over="ignore"):
        for v, points in _end_points(solver, crossing):
            for (j, u), last in zip(points, solver._last):
                for du in (0.0, -1e-9, 1e-9, 0.5):
                    lo, hi = solver._bounds(j, last, u + du, v, widths)
                    raised = ev.raised_log_rho(j, u + du, v)
                    assert lo <= raised <= hi, (j, du)
                    if hi <= 0.0:
                        assert raised <= 0.0
                    if lo > 0.0:
                        assert raised > 0.0
                    decided += hi <= 0.0 or lo > 0.0
    assert decided > 0


@settings(max_examples=40, deadline=None)
@given(_SEQUENCE_CASES)
def test_certificate_decides_as_its_passes_would(case):
    # with every bound made undecided, each level point takes its raised
    # pass, as the certificate did before it read the predictor's last
    # passes: the bracket is the same, bit for bit, or None both ways
    fs, p, q, _ = _sequence_case(*case)
    solver, crossing, bracket = _certify(fs, p, q)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_LevelSolver, "_bounds",
                  lambda self, *args: (-math.inf, math.inf))
        passes = _count_passes(m)
        evaluated = solver._certify(crossing)
    if bracket is None:
        assert evaluated is None
        return
    assert passes[0] == 2 * len(solver.live)
    for (mu, points), (mu_e, points_e) in zip(bracket, evaluated):
        assert _bits(mu) == _bits(mu_e)
        assert points == points_e


@pytest.mark.parametrize("du, dv", [(-1e-3, 1e-3), (1e-3, 1e-3), (0.0, -1e-3),
                                    (0.4, -0.3), (-2.0, 1.0)])
def test_certificate_bounds_on_two_terms(du, dv):
    # two nodes whose terms are 1/2 each at (log lam, log mu) = (0, 0):
    # there log rho = log((e^X1 + e^X2) / 2), X_i = -c_i du - p_i dv, is
    # the mean of the X_i plus log cosh((X1 - X2) / 2).  Jensen's bound is
    # that mean and Hoeffding's adds W^2 / 8, W = |c1 - c2| |du| +
    # |p1 - p2| |dv| >= |X1 - X2|: both are the closed forms up to the
    # rounding bounds, and they hold the exact value between them
    grid = Grid(1, 2, 1.0)  # two nodes, cell 1
    pv, qv = np.array([2.0, 3.0]), np.array([1.5, 4.0])
    fs = FieldSequence((Field(grid, 0.5 ** (1.0 / pv)),))
    solver = _LevelSolver(fs, ExponentField(grid, pv), ExponentField(grid, qv))
    ev = solver.evaluator
    last = (0.0, 0.0, *ev.partials(0, 0.0, 0.0))
    lo, hi = solver._bounds(0, last, du, dv, solver._widths())
    x = -pv / qv * du - pv * dv
    mean = 0.5 * (x[0] + x[1])
    exact = mean + math.log(math.cosh(0.5 * (x[0] - x[1])))
    width = abs(pv[0] / qv[0] - pv[1] / qv[1]) * abs(du) + abs(pv[0] - pv[1]) * abs(dv)
    assert lo <= exact <= hi - 2.0 * ev.raised(0, 0.0, du, dv)
    assert lo == pytest.approx(mean, abs=1e-12)
    assert hi == pytest.approx(mean + width ** 2 / 8.0, abs=1e-12)


def test_certificate_survives_a_huge_exponent_spread():
    # at p = 1e200 and 1e300 the width W of the terms' exponents overflows
    # when squared; the bound then decides nothing, each point takes its
    # raised pass, and the norm is the one found at p = 1e100
    grid = Grid(1, 1024, 16.0)
    fs = band_limited_sequence(grid, 7, 32, 3)
    q = cos_bump_exponent(grid, 1.5, 1.0)
    # (p = 1e150 certifies a point of its own, within the solve's tolerance)
    norms = [mixed_norm(fs, constant_exponent(grid, p0), q)
             for p0 in (1e100, 1e150, 1e200, 1e300)]
    assert 0.0 < norms[0] < math.inf
    assert norms[2:] == [norms[0]] * 2
    assert norms[1] == pytest.approx(norms[0], rel=mixed.NORM_REL_TOL)


# ---------------------------------------------------------------------------
# the evaluator against a reference copy of its every-node form
# ---------------------------------------------------------------------------

def _reference_dot(a, b):
    """a . b as the sum, in order, of the dots of 8192-node pieces."""
    total = 0.0
    for i in range(0, a.size, 8192):
        total += float(np.dot(a[i:i + 8192], b[i:i + 8192]))
    return total


def _reference_log_modular(base, c, log_lam, buf):
    """The evaluator pass: (log rho, d log rho / d log lam)."""
    np.multiply(c, -log_lam, out=buf)
    buf += base
    np.exp(buf, out=buf)
    s = float(buf.sum())
    shift = 0.0
    if not 1e-290 < s < math.inf:
        np.multiply(c, -log_lam, out=buf)
        buf += base
        shift = float(buf.max()) if buf.size else -math.inf
        if shift == -math.inf:
            return -math.inf, 0.0
        buf -= shift
        np.exp(buf, out=buf)
        s = float(buf.sum())
    log_rho = shift + math.log(s)
    scale = math.exp(shift - log_rho)
    return log_rho, -_reference_dot(c, buf) * scale


class _ReferenceModular(Modular):
    """``Modular`` built over every node by ``np.where`` (a p = inf node is
    a term with p = c = 0 and a = -inf), its p = inf floors and caps taken
    through boolean masks, and solved with its own copy of the evaluator
    pass."""

    def __init__(self, levels, p, q=None):
        pv = p.values.ravel()
        if q is None:
            rq = np.ones_like(pv)
        else:
            qv = q.values.ravel()
            rq = np.where(np.isinf(qv), 0.0, 1.0 / qv)
        fin = np.isfinite(pv)
        floor = ~fin & (rq > 0.0)
        cap = ~fin & (rq == 0.0)
        log_cell = math.log(p.grid.cell)
        self.plain = bool(fin.all())
        self.p = np.where(fin, pv, 0.0)
        self.c = self.p * rq
        self._floor_q = 1.0 / rq[floor]
        self.rows, self._floor_log, self._cap_log = [], [], []
        self._live, self._lam_dependent, self._row_size = [], [], []
        for f in levels:
            with np.errstate(divide="ignore", invalid="ignore"):
                la = np.log(np.abs(f.values, dtype=np.float64)).ravel()
                row = np.where(fin, pv * la + log_cell, -math.inf)
            self.rows.append(row)
            if not self.plain:
                self._floor_log.append(la[floor])
                self._cap_log.append(float(np.max(la[cap], initial=-math.inf)))
            live = row > -math.inf
            self._live.append(bool(np.any(live)))
            self._lam_dependent.append(bool(np.any(live & (self.c > 0.0))))
            self._row_size.append(float(np.max(np.abs(row[live]), initial=0.0)))
        self._c_max = float(np.max(self.c, initial=0.0))
        self._p_max = float(np.max(self.p, initial=0.0))
        self._sum_size = math.log2(pv.size)
        self._base = np.empty_like(self.p)
        self._buf = np.empty_like(self.p)

    @np.errstate(over="ignore")
    def solve(self, j, log_mu=0.0, hint=1.0, rel_tol=REL_TOL):
        if not self.plain and self._cap_log[j] > log_mu:
            return math.inf
        floor = -math.inf
        floor_log = self._floor_log[j] if not self.plain else np.empty(0)
        if floor_log.size:
            lf = (floor_log - log_mu) * self._floor_q
            k = int(np.argmax(lf))
            if lf[k] > -math.inf:
                qk = float(self._floor_q[k])
                floor = float(lf[k]) + 4.0 * lebesgue._ROUND * qk * (
                    1.0 + abs(float(floor_log[k])) + abs(log_mu))
        base = self.rows[j]
        if log_mu != 0.0:
            base = np.multiply(self.p, -log_mu, out=self._base)
            base += self.rows[j]
        c, buf = self.c, self._buf
        if not self._lam_dependent[j]:
            if self._live[j] and _reference_log_modular(base, c, 0.0, buf)[0] > 0.0:
                return math.inf
            return lebesgue._exp(floor) if floor > -math.inf else 0.0
        slack = lebesgue._ROUND * (
            self._row_size[j] + self._p_max * abs(log_mu) + self._sum_size)
        c_slack = lebesgue._ROUND * self._c_max
        if floor > -math.inf:
            log_rho = _reference_log_modular(base, c, floor, buf)[0]
            if log_rho + slack + c_slack * abs(floor) <= 0.0:
                return lebesgue._exp(floor)
            hint = max(hint, lebesgue._exp(floor))

        def fn(lam):
            log_lam = math.log(lam)
            log_rho, d_lam = _reference_log_modular(base, c, log_lam, buf)
            return lebesgue._exp(log_rho + slack + c_slack * abs(log_lam)), d_lam

        return _solve.solve_threshold(fn, hint, rel_tol=rel_tol)


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


_BUILD_ATTRS = ("plain", "p", "c", "_c_max", "_p_max", "_sum_size")
_ROW_ATTRS = ("rows", "_floor_log", "_cap_log", "_live", "_lam_dependent",
              "_row_size")


def _assert_same_build(ev, ref, levels):
    """The evaluator's arrays equal the reference's bit for bit, and every
    one of them spans every node."""
    nodes = ref.p.size
    assert ev.p.size == ev.c.size == nodes
    for name in _BUILD_ATTRS + (() if ref.plain else ("_floor_q",)):
        assert _bits(getattr(ev, name)) == _bits(getattr(ref, name)), name
    for name in _ROW_ATTRS:
        got, want = getattr(ev, name), getattr(ref, name)
        assert len(got) == len(want), name
        for j, (a, b) in enumerate(zip(got, want)):
            assert _bits(a) == _bits(b), (name, j)
    assert len(ev.rows) == levels
    assert all(row.size == nodes for row in ev.rows)


def _line_sequence(scale=1.0):
    """Desk scale: 4096 nodes, 9 levels, with zero samples on one level."""
    grid = default_grid(1)
    fs = band_limited_sequence(grid, 9, 64, 3)
    vals = [scale * f.values for f in fs]
    vals[4] = np.where(np.abs(grid.axis_coordinates()) > 12.0, 0.0, vals[4])
    return sequence_from_values(grid, vals)


def _plane_blocks(scale=1.0):
    """Littlewood-Paley blocks of a 64^2 field as strided ``.real`` views of
    complex copies of the irfftn outputs (``block_sequence`` returns the same
    values in contiguous arrays), so the evaluator is also fed
    non-contiguous levels."""
    from varbesov.littlewood_paley import build_resolution
    from varbesov.random_fields import band_limited_field

    grid = Grid(2, 64, 8.0)
    axes = (0, 1)
    f = band_limited_field(grid, 12, 3, envelope=False)
    spec = np.fft.rfftn(scale * f.values, axes=axes)
    blocks = sequence_from_values(grid, [
        np.fft.irfftn(mult * spec, s=grid.shape, axes=axes)
        .astype(np.complex128).real
        for mult in build_resolution(grid, 4).multipliers])
    assert not blocks[1].values.flags["C_CONTIGUOUS"]
    return blocks


def _exponents(grid, kind):
    """(p, q) with every exponent finite, or with p = inf and/or q = inf
    on parts of the box; ``cap`` makes p = q = inf on the outer band."""
    p = log_smooth_exponent(grid, 2.0, 1.5)
    q = cos_bump_exponent(grid, 1.5, 1.0)
    r = grid.min_image_radius()
    if kind == "cap":
        band = r > 0.75 * grid.half_width
        return (ExponentField(grid, np.where(band, math.inf, p.values)),
                ExponentField(grid, np.where(band, math.inf, q.values)))
    if kind in ("p_inf", "both_inf"):
        p = ExponentField(grid, np.where(r > 0.75 * grid.half_width, math.inf, p.values))
    if kind in ("q_inf", "both_inf"):
        q = ExponentField(grid, np.where(r < 0.4 * grid.half_width, math.inf, q.values))
    return p, q


def _solve_all(ev, ref, levels, log_mus, hints):
    """Compare every solve bitwise, from each hint and from the returned
    lam itself (a solve from there mostly ends on an infeasible probe)."""
    for j in range(levels):
        for log_mu in log_mus:
            for hint in hints:
                got = ev.solve(j, log_mu, hint)
                want = ref.solve(j, log_mu, hint)
                assert _bits(got) == _bits(want), (j, log_mu, hint, got, want)
                if 0.0 < got < math.inf:
                    again = ev.solve(j, log_mu, got)
                    assert _bits(again) == _bits(ref.solve(j, log_mu, got))


def _record_last_evaluations(monkeypatch):
    """Patch the evaluator's solver to record, per solve, whether its last
    evaluation was feasible."""
    last = []
    solve = lebesgue.solve_threshold

    def recorded(fn, hint, **kwargs):
        seen = [None]

        def wrapped(x):
            out = fn(x)
            seen[0] = out[0] <= 1.0
            return out

        try:
            return solve(wrapped, hint, **kwargs)
        finally:
            last.append(seen[0])

    monkeypatch.setattr(lebesgue, "solve_threshold", recorded)
    return last


@pytest.mark.parametrize("kind", ["finite", "p_inf", "q_inf", "both_inf"])
@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
@pytest.mark.parametrize("make", [_line_sequence, _plane_blocks])
def test_modular_matches_masked_reference_bitwise(make, scale, kind, monkeypatch):
    fs = make(scale)
    vals = [f.values for f in fs]
    vals[2] = np.zeros(fs.grid.shape)  # an all-zero level
    fs = sequence_from_values(fs.grid, vals)
    p, q = _exponents(fs.grid, kind)
    ev, ref = Modular(fs, p, q), _ReferenceModular(fs, p, q)
    _assert_same_build(ev, ref, fs.levels)
    last = _record_last_evaluations(monkeypatch)
    top = math.log(scale)
    _solve_all(ev, ref, fs.levels, [0.0, top - 0.7, top + 1.3],
               [1.0, scale * 1e-3, scale * 1e6])
    # solves ended on both sides of the bracket
    assert False in last and True in last


@pytest.mark.parametrize("kind", ["finite", "p_inf"])
def test_luxemburg_modular_matches_masked_reference_bitwise(kind, monkeypatch):
    # q omitted: the single-field Luxemburg evaluator
    f = _line_sequence()[4]
    p, _ = _exponents(f.grid, kind)
    ev, ref = Modular((f,), p), _ReferenceModular((f,), p)
    _assert_same_build(ev, ref, 1)
    # q omitted is q = 1: c is p itself
    assert ev.c is ev.p
    _record_last_evaluations(monkeypatch)
    _solve_all(ev, ref, 1, [0.0, -0.7, 1.3], [1.0, 1e-3, 1e6])


@pytest.mark.parametrize("kind", ["p_inf", "cap"])
@pytest.mark.parametrize("scale", [1.0, 1e300])
@pytest.mark.parametrize("make", [_line_sequence, _plane_blocks])
def test_declined_inputs_start_from_the_crude_hint(make, scale, kind):
    # p = inf floors and p = q = inf caps are not affine in
    # (log lam, log mu): the predictor declines and the solve is the
    # threshold solve from the crude hint, bit for bit
    fs = make(scale)
    p, q = _exponents(fs.grid, kind)
    solver = _LevelSolver(fs, p, q)
    assert not solver.evaluator.plain
    hint = lebesgue._norm_hint(fs.grid, fs.max_abs(), fs.levels)
    want = _solve.solve_threshold(lambda mu: solver.modular(math.log(mu)), hint)
    assert _bits(mixed_norm(fs, p, q)) == _bits(want)


@pytest.mark.parametrize("scale", [1.0, 1e300])
@pytest.mark.parametrize("make", [_line_sequence, _plane_blocks])
def test_q_infinity_inputs_run_the_predictor(make, scale):
    # a q = inf node is a term with c = 0, affine in (log lam, log mu), so
    # the evaluator is plain and the predictor runs.  Both inputs certify,
    # the line too, where levels far below the others take every-node
    # passes until their points stop moving; the certified norm agrees
    # with the plain nested threshold solve from the predictor's crossing
    fs = make(scale)
    p, q = _exponents(fs.grid, "q_inf")
    solver, crossing, bracket = _certify(fs, p, q)
    assert solver.evaluator.plain
    assert bracket is not None
    got = mixed_norm(fs, p, q)
    assert _bits(got) == _bits(bracket[1][0])
    nested = _solve.solve_threshold(lambda mu: solver.modular(math.log(mu)),
                                    math.exp(crossing))
    assert math.log(got) == pytest.approx(math.log(nested), abs=1e-8)
