import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov import _kernels, lebesgue, mixed
from varbesov.duality import _level_weights
from varbesov.exponents import (ExponentField, conjugate, constant_exponent,
                                cos_bump_exponent, log_smooth_exponent,
                                two_level_exponent)
from varbesov.grid import Field, Grid
from varbesov.lebesgue import _log_abs, luxemburg_norm
from varbesov.mixed import (FieldSequence, check_holder, check_monotone_limit,
                            classical_mixed_norm, inner_lambda, mixed_modular,
                            mixed_norm)
from varbesov.random_fields import band_limited_field, band_limited_sequence


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 1024, 16.0)


@pytest.fixture(scope="module")
def seq(grid):
    return band_limited_sequence(grid, 7, 40, 2024)


class TestInnerLambda:
    def test_zero_field(self, grid):
        p = constant_exponent(grid, 2.0)
        q = constant_exponent(grid, 3.0)
        assert inner_lambda(Field(grid, np.zeros(grid.shape)), p, q) == 0.0

    def test_constant_exponents_power_of_norm(self, grid):
        f = band_limited_field(grid, 40, 5)
        p = constant_exponent(grid, 2.5)
        q = constant_exponent(grid, 1.8)
        lam = inner_lambda(f, p, q)
        assert lam == pytest.approx(luxemburg_norm(f, p) ** 1.8, rel=1e-7)

    def test_q_infinity_is_modular_indicator(self, grid):
        # lambda-independent: 0 when the plain modular fits the budget,
        # inf when it cannot
        f = band_limited_field(grid, 40, 6)
        p = constant_exponent(grid, 2.0)
        qi = constant_exponent(grid, math.inf)
        small = Field(grid, 0.1 * f.values / f.max_abs())
        assert inner_lambda(small, p, qi) == 0.0
        nrm = luxemburg_norm(f, p)
        big = Field(grid, 3.0 * f.values / nrm)
        assert inner_lambda(big, p, qi) == math.inf

    @staticmethod
    def _q_infinity_node(mass, beside=0.0):
        # p = 1, and q = inf at one node valued mass / cell: that node's
        # term is mass; ``beside`` puts a sample at a finite-q node next to it
        g = Grid(1, 256, 16.0)
        assert g.cell == 0.125
        vals = np.zeros(g.shape)
        vals[100] = mass / g.cell
        vals[101] = beside
        qv = np.full(g.shape, 2.0)
        qv[100] = math.inf
        return Field(g, vals), constant_exponent(g, 1.0), ExponentField(g, qv)

    @pytest.mark.parametrize("mass, lam", [
        (0.5, 0.0), (1.0, 0.0), (1.0 + 2.0 ** -40, math.inf), (3.0, math.inf)])
    def test_terms_at_q_infinity_alone(self, mass, lam):
        # every nonzero sample sits at a q = inf node: lam is 0.0 when their
        # modular is at most 1, inf above; a mass of exactly 1.0 is feasible
        f, p, q = self._q_infinity_node(mass)
        assert inner_lambda(f, p, q) == lam

    def test_unit_mass_beside_a_lam_dependent_sample(self):
        # a sample that moves with lam adds to a q = inf mass of exactly 1.0
        # at every lam: no lam is feasible
        f, p, q = self._q_infinity_node(1.0, beside=1e-3)
        assert inner_lambda(f, p, q) == math.inf


class TestMixedModular:
    def test_all_zero(self, grid):
        p = constant_exponent(grid, 2.0)
        q = constant_exponent(grid, 2.0)
        fs = FieldSequence(tuple(Field(grid, np.zeros(grid.shape)) for _ in range(3)))
        assert mixed_modular(fs, p, q) == 0.0

    def test_single_entry_constant_exponents(self, grid):
        f = band_limited_field(grid, 40, 7)
        p = constant_exponent(grid, 2.0)
        q = constant_exponent(grid, 3.0)
        val = mixed_modular(FieldSequence((f,)), p, q)
        assert val == pytest.approx(luxemburg_norm(f, p) ** 3.0, rel=1e-7)

    def test_p_infinity_esssup_formula(self, grid):
        f = band_limited_field(grid, 40, 8)
        half = Field(grid, 0.5 * f.values / f.max_abs())
        val = mixed_modular(FieldSequence((half,)),
                            constant_exponent(grid, math.inf),
                            constant_exponent(grid, 2.0))
        assert val == pytest.approx(0.25, rel=1e-12)


class TestMixedNorm:
    def test_constant_reduction(self, grid, seq):
        for p0, q0 in ((2.0, 2.0), (2.5, 1.7), (4.0, 3.0)):
            nrm = mixed_norm(seq, constant_exponent(grid, p0),
                             constant_exponent(grid, q0))
            assert nrm == pytest.approx(classical_mixed_norm(seq, p0, q0),
                                        rel=1e-7)

    @pytest.mark.parametrize("p0", [2.0, math.inf])
    def test_one_max_abs_pass_per_norm(self, grid, seq, p0, monkeypatch):
        # the zero check and the solve's hint share one pass over the levels
        calls = []
        max_abs = FieldSequence.max_abs

        def counted(fs):
            calls.append(1)
            return max_abs(fs)

        monkeypatch.setattr(FieldSequence, "max_abs", counted)
        mixed_norm(seq, constant_exponent(grid, p0), cos_bump_exponent(grid, 1.5, 1.0))
        assert len(calls) == 1

    def test_single_entry_collapses_to_luxemburg(self, grid):
        f = band_limited_field(grid, 40, 9)
        p = log_smooth_exponent(grid, 1.8, 1.2)
        q = constant_exponent(grid, 2.4)
        nrm = mixed_norm(FieldSequence((f,)), p, q)
        assert nrm == pytest.approx(luxemburg_norm(f, p), rel=1e-7)

    def test_q_infinity_shortcut_exact(self, grid, seq):
        p = log_smooth_exponent(grid, 1.8, 1.2)
        qi = constant_exponent(grid, math.inf)
        assert mixed_norm(seq, p, qi) == max(luxemburg_norm(f, p) for f in seq)

    def test_homogeneity(self, grid, seq):
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        n1 = mixed_norm(seq, p, q)
        n2 = mixed_norm(seq.scaled(3.7), p, q)
        assert n2 == pytest.approx(3.7 * n1, rel=1e-8)

    def test_monotone_in_absolute_value(self, grid, seq):
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        bigger = FieldSequence(
            tuple(Field(grid, np.abs(f.values) * 1.1) for f in seq)
        )
        assert mixed_norm(seq, p, q) <= mixed_norm(bigger, p, q) * (1 + 1e-8)

    def test_unit_ball_equivalence(self, grid, seq):
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        nrm = mixed_norm(seq, p, q)
        assert lebesgue.unit_ball_violations(
            lambda s: mixed_modular(seq.scaled(s / nrm), p, q)) == 0

    def test_modular_scale_continuity_under_refinement(self, grid, seq):
        # with finite upper bounds the scale map has no jumps: refining the
        # sampling grid of mu must shrink the largest step
        p = constant_exponent(grid, 2.5)
        q = constant_exponent(grid, 1.7)
        nrm = mixed_norm(seq, p, q)

        def max_jump(ratio, count):
            mus = nrm * ratio ** np.arange(-count, count + 1)
            vals = [mixed_modular(seq.scaled(1.0 / mu), p, q) for mu in mus]
            return max(abs(a - b) for a, b in zip(vals, vals[1:]))

        coarse = max_jump(1.04, 8)
        fine = max_jump(1.02, 16)
        assert fine <= 0.75 * coarse + 1e-9


# ---------------------------------------------------------------------------
# p = inf everywhere against the essential-supremum referee
# ---------------------------------------------------------------------------

_INF_GRIDS = (Grid(1, 256, 8.0), Grid(2, 32, 4.0))
_INF_LEVELS = 3


def _esssup_sum(fs, q, log_mu):
    """sum_j sup_x (|f_j(x)| / mu)^{q(x)}, with the t^inf step convention:
    the p = inf modular by ``_kernels.esssup_modular``, which no package
    code calls."""
    return sum(_kernels.esssup_modular(_log_abs(f.values), q.values, log_mu)
               for f in fs)


def _floor_gap(fs, q, log_mu):
    """Relative gap allowed between ``Modular``'s p = inf level infimum and
    the referee's sup: 1e-12, plus the largest raise of its floor in log lam
    (``lebesgue._floor_slack``), which keeps the floor on its feasible side
    and reaches 1e-11 at magnitudes near 1e+-300."""
    logs = np.concatenate([_log_abs(f.values).ravel() for f in fs])
    size = float(np.max(np.abs(logs[np.isfinite(logs)])))
    q_top = float(np.max(q.values[np.isfinite(q.values)], initial=1.0))
    return 1e-12 + lebesgue._floor_slack(q_top, size, log_mu)


def _close_above(got, want, gap):
    """want <= got <= want (1 + gap), up to one subnormal step per level."""
    if math.isinf(want):
        return got == want
    return want <= got <= want * (1.0 + gap) + _INF_LEVELS * math.ulp(0.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_INF_GRIDS), st.integers(0, 10_000),
       st.sampled_from([-300.0, 0.0, 300.0]) | st.floats(-300.0, 300.0),
       st.sampled_from(["two_level", "cos_bump", "one"]),
       st.integers(0, _INF_LEVELS))
def test_p_infinity_route_against_the_esssup_referee(g, seed, log10_scale,
                                                     q_kind, zero_level):
    # |f_j| = 10^scale * u with u uniform in [0, 1) and a quarter of the
    # nodes zero; level ``zero_level`` (when < levels) is zero throughout
    rng = np.random.default_rng(seed)
    values = []
    for j in range(_INF_LEVELS):
        u = rng.uniform(0.0, 1.0, g.shape)
        u[rng.uniform(size=g.shape) < 0.25] = 0.0
        values.append(np.zeros(g.shape) if j == zero_level else 10.0 ** log10_scale * u)
    fs = FieldSequence(tuple(Field(g, v) for v in values))
    q = {"two_level": two_level_exponent(g, 2.0, math.inf, 0.4 * g.half_width),
         "cos_bump": cos_bump_exponent(g, 1.5, 1.0),
         "one": constant_exponent(g, 1.0)}[q_kind]
    pi = constant_exponent(g, math.inf)

    # the modular at mu = 1 is at or above the referee's, within the gap
    assert _close_above(mixed_modular(fs, pi, q), _esssup_sum(fs, q, 0.0),
                        _floor_gap(fs, q, 0.0))

    # the norm is feasible for the referee, and 2e-9 below it is not
    nrm = mixed_norm(fs, pi, q)
    assert _esssup_sum(fs, q, math.log(nrm)) <= 1.0
    assert _esssup_sum(fs, q, math.log(nrm * (1.0 - 2e-9))) > 1.0

    # the level weights beta_j of ``infinity_witness`` are the referee's
    # sups at mu = K, and K is the norm
    k_norm, betas = _level_weights(fs, pi, q, fs.max_abs())
    assert k_norm == nrm
    log_k = math.log(k_norm)
    gap = _floor_gap(fs, q, log_k)
    for f, beta in zip(fs, betas):
        assert _close_above(beta, _esssup_sum((f,), q, log_k), gap)


class TestIndependentOracle:
    def test_variable_exponent_norm_against_brentq_nesting(self):
        # independent route: both infima resolved by scipy brentq on plain
        # numpy modulars, no shared code with the package solver
        from scipy.optimize import brentq

        g = Grid(1, 256, 8.0)
        x = g.axis_coordinates()
        p_vals = 1.5 + 0.8 / np.log(math.e + np.abs(x))
        q_vals = 1.3 + 0.9 * (1.0 + np.cos(np.pi * x / g.half_width)) / 2.0
        rng = np.random.default_rng(1313)
        entries = []
        for _ in range(3):
            spec = np.zeros(g.shape, dtype=complex)
            spec[:12] = rng.normal(size=12) + 1j * rng.normal(size=12)
            entries.append(Field(g, np.fft.ifft(spec).real))
        fs = FieldSequence(tuple(entries))

        def inner_oracle(f_abs, mu):
            def rho_minus_one(lam):
                t = f_abs / (mu * lam ** (1.0 / q_vals))
                return float(np.sum(t ** p_vals)) * g.cell - 1.0

            return brentq(rho_minus_one, 1e-12, 1e12, xtol=1e-15, rtol=1e-14)

        def modular_oracle(mu):
            return sum(inner_oracle(np.abs(f.values), mu) for f in fs)

        oracle = brentq(lambda mu: modular_oracle(mu) - 1.0, 1e-6, 1e6,
                        xtol=1e-12, rtol=1e-13)

        from varbesov.exponents import ExponentField

        got = mixed_norm(fs, ExponentField(g, p_vals), ExponentField(g, q_vals))
        assert got == pytest.approx(oracle, rel=1e-7)

    @pytest.mark.parametrize("case", ["q_inf_terms_only", "p_inf_band"])
    def test_fallback_against_brentq_nesting(self, case):
        # inputs where the norm is not certified: a p = inf band is not
        # affine in (log lam, log mu), and a level whose terms all sit at
        # q = inf nodes has lam_j 0 or inf, so the predictor declines; each
        # norm is the plain nested threshold solve
        fs, p, q = _oracle_case(case)
        solver = mixed._LevelSolver(fs, p, q)
        if case == "p_inf_band":
            assert not solver.evaluator.plain
        else:
            log_hint = math.log(
                lebesgue._norm_hint(fs.grid, fs.max_abs(), fs.levels))
            assert solver._predict(log_hint) is None
        got = mixed_norm(fs, p, q)
        assert math.log(got) == pytest.approx(
            _brentq_log_mixed_norm(fs, p.values, q.values), abs=1e-8)

    @pytest.mark.parametrize("case", ["q_inf_band", "wide_q"])
    def test_certified_against_brentq_nesting(self, case):
        # a q = inf band, and q across 1.5..400, where a level far below
        # the others takes every-node passes until its point stops moving:
        # the certificate brackets the norm, and its feasible end is the
        # norm
        fs, p, q = _oracle_case(case)
        solver = mixed._LevelSolver(fs, p, q)
        crossing = solver._predict(math.log(
            lebesgue._norm_hint(fs.grid, fs.max_abs(), fs.levels)))
        bracket = solver._certify(crossing)
        assert bracket is not None
        got = mixed_norm(fs, p, q)
        assert got == bracket[1][0]
        assert math.log(got) == pytest.approx(
            _brentq_log_mixed_norm(fs, p.values, q.values), abs=1e-8)


def _oracle_case(case):
    """(fs, p, q) on 256 nodes: log-smooth p, cos-bump q, three
    band-limited levels, changed per case (see the oracle tests)."""
    from varbesov.exponents import ExponentField

    g = Grid(1, 256, 8.0)
    r = g.min_image_radius()
    p = log_smooth_exponent(g, 2.0, 1.0)
    q = cos_bump_exponent(g, 1.5, 1.0)
    fs = band_limited_sequence(g, 3, 40, 1313)
    if case == "q_inf_band":
        q = ExponentField(g, np.where(r < 0.4 * g.half_width, np.inf, q.values))
    elif case == "q_inf_terms_only":
        band = r >= 0.4 * g.half_width
        q = ExponentField(g, np.where(band, np.inf, q.values))
        # level 1 is a plateau on the band only: the scale where its
        # q = inf terms reach the unit ball sets the norm
        fs = FieldSequence((fs[0], Field(g, 1.2 * band), fs[2]))
    elif case == "p_inf_band":
        band = r > 0.75 * g.half_width
        p = ExponentField(g, np.where(band, np.inf, p.values))
        # a plateau on the band, whose floor sets lam_0 at the norm
        fs = FieldSequence((Field(g, fs[0].values + 0.9 * band),) + fs.entries[1:])
    else:
        fs = band_limited_sequence(g, 2, 40, 0)
        q = cos_bump_exponent(g, 1.5, 398.5)
    return fs, p, q


def _log_sum_exp(x):
    top = np.max(x)
    if top == -np.inf:
        return -np.inf
    return float(top + np.log(np.sum(np.exp(x - top))))


def _bracketed_root(h, lo=-1.0, hi=1.0):
    """The root of a decreasing h by brentq, after doubling [lo, hi] until
    it brackets a sign change."""
    from scipy.optimize import brentq

    while h(lo) < 0.0:
        lo *= 2.0
    while h(hi) > 0.0:
        hi *= 2.0
    return brentq(h, lo, hi, xtol=1e-13, rtol=1e-15)


def _brentq_log_mixed_norm(fs, pv, qv):
    """log of the mixed norm by scipy brentq nesting on plain numpy
    modulars, in (log lam, log mu): no code shared with the package solver.

    Level j at u = log mu: q = inf nodes (finite p) carry the lam-free mass
    sum (|f_j| e^-u)^p h^n, and p = inf nodes (finite q) the floor
    log lam_j >= q (log|f_j| - u) in closed form; the finite nodes solve
    log sum (|f_j| e^-u lam^{-1/q})^p h^n = log(1 - mass) in log lam.
    """
    pinf, qinf = np.isinf(pv), np.isinf(qv)
    assert not np.any(pinf & qinf)
    dep, ind = ~pinf & ~qinf, ~pinf & qinf
    log_cell = math.log(fs.grid.cell)
    with np.errstate(divide="ignore"):
        logs = [np.log(np.abs(f.values)) for f in fs]

    def log_lam(la, u):
        mass = 0.0
        if ind.any():
            mass = math.exp(_log_sum_exp(pv[ind] * (la[ind] - u) + log_cell))
        if mass >= 1.0:
            return math.inf
        floor = float(np.max(qv[pinf] * (la[pinf] - u), initial=-np.inf))
        x = pv[dep] * (la[dep] - u) + log_cell
        if not np.any(x > -np.inf):
            return floor
        c = pv[dep] / qv[dep]
        v = _bracketed_root(lambda v: _log_sum_exp(x - c * v) - math.log1p(-mass))
        return max(v, floor)

    def log_modular(u):
        log_lams = np.array([log_lam(la, u) for la in logs])
        # an infeasible level reads as a large finite value: brentq keeps a
        # sign-change bracket all the same
        return 1e3 if np.any(log_lams == np.inf) else _log_sum_exp(log_lams)

    return _bracketed_root(log_modular)


class TestMonotoneLimit:
    def test_full_masks_trivially_equal(self, grid, seq):
        p = constant_exponent(grid, 2.0)
        q = constant_exponent(grid, 2.0)
        full = [np.ones(grid.shape, dtype=bool)] * 3
        rep = check_monotone_limit(seq, full, p, q)
        assert rep.passed
        assert rep.measured <= 1e-12

    def test_nested_boxes(self, grid, seq):
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = constant_exponent(grid, 2.0)
        radius = grid.min_image_radius()
        masks = [radius <= grid.half_width * f for f in (0.25, 0.5, 0.75)]
        masks.append(np.ones(grid.shape, dtype=bool))
        rep = check_monotone_limit(seq, masks, p, q)
        assert rep.status == "pass"
        assert rep.details["drop"] == 0.0

    def test_drop_gate_fails_alone(self, grid, seq, monkeypatch):
        # the largest truncated norm is the full one (gap 0), but the
        # second falls below the first by a tenth of it: the record shows
        # the drop gate
        norms = iter([1.0, 0.5, 0.4])
        monkeypatch.setattr(mixed, "mixed_norm", lambda *args: next(norms))
        radius = grid.min_image_radius()
        masks = [radius <= 4.0, radius <= 8.0, np.ones(grid.shape, dtype=bool)]
        rep = check_monotone_limit(seq, masks, constant_exponent(grid, 2.0),
                                   constant_exponent(grid, 2.0))
        assert rep.details["norms"] == [0.5, 0.4, 1.0]
        assert (rep.status, rep.bound, rep.tolerance) == ("fail", 0.0, 1e-8)
        assert rep.measured == pytest.approx(0.1, rel=1e-12)

    def test_covering_mask_reuses_the_full_norm(self, grid, seq, monkeypatch):
        # masking by every node leaves the values bitwise as they are, so
        # the covering mask takes the full norm instead of a second solve
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        radius = grid.min_image_radius()
        masks = [radius <= grid.half_width * 0.5, np.ones(grid.shape, dtype=bool)]
        assert mixed_norm(seq.masked(masks[1]), p, q) == mixed_norm(seq, p, q)
        calls = []
        solve = mixed.mixed_norm
        monkeypatch.setattr(mixed, "mixed_norm",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        rep = check_monotone_limit(seq, masks, p, q)
        assert len(calls) == 2
        assert rep.details["norms"][1] == rep.details["full_norm"]

    def test_zero_sequence(self, grid):
        p = constant_exponent(grid, 2.0)
        q = constant_exponent(grid, 2.0)
        zeros = FieldSequence(tuple(Field(grid, np.zeros(grid.shape)) for _ in range(2)))
        masks = [grid.min_image_radius() <= 8.0, np.ones(grid.shape, dtype=bool)]
        rep = check_monotone_limit(zeros, masks, p, q)
        assert rep.passed
        assert rep.details["norms"] == [0.0, 0.0]

    def test_rejects_non_nested(self, grid, seq):
        p = constant_exponent(grid, 2.0)
        q = constant_exponent(grid, 2.0)
        x = grid.axis_coordinates()
        masks = [x < 0, x > 0]
        with pytest.raises(ValueError, match="nested"):
            check_monotone_limit(seq, masks, p, q)

    def test_rejects_partial_union(self, grid, seq):
        p = constant_exponent(grid, 2.0)
        q = constant_exponent(grid, 2.0)
        masks = [grid.min_image_radius() <= 4.0, grid.min_image_radius() <= 8.0]
        with pytest.raises(ValueError, match="union"):
            check_monotone_limit(seq, masks, p, q)


class TestHolder:
    def test_multiplication_by_one(self, grid, seq):
        # g = 1 with both second exponents infinite: the product inequality
        # becomes an identity up to solver tolerance
        ones = FieldSequence(
            tuple(Field(grid, np.ones(grid.shape)) for _ in range(seq.levels))
        )
        p1 = log_smooth_exponent(grid, 2.0, 1.0)
        q1 = constant_exponent(grid, 2.0)
        pinf = constant_exponent(grid, math.inf)
        rep = check_holder(seq, ones, p1, pinf, q1, pinf)
        assert rep.passed
        assert rep.details["ratios"]["split"] <= 1.0 + 1e-6

    def test_disjoint_supports(self, grid):
        x = grid.axis_coordinates()
        left = Field(grid, np.where(x < 0, np.exp(-((x + 6.0) ** 2)), 0.0))
        right = Field(grid, np.where(x > 0, np.exp(-((x - 6.0) ** 2)), 0.0))
        fs = FieldSequence((left,))
        gs = FieldSequence((right,))
        p = constant_exponent(grid, 4.0)
        q = constant_exponent(grid, 4.0)
        rep = check_holder(fs, gs, p, p, q, q)
        assert rep.passed
        assert rep.details["lhs_sequence"] == 0.0

    def test_cauchy_schwarz_case(self, grid, seq):
        gs = band_limited_sequence(grid, seq.levels, 40, 777)
        two = constant_exponent(grid, 2.0)
        rep = check_holder(seq, gs, two, two, two, two)
        assert rep.passed
        assert rep.details["ratios"]["split"] <= 1.0 + 1e-6

    def test_caller_norm_gives_the_same_report(self, grid, seq):
        gs = band_limited_sequence(grid, seq.levels, 40, 778)
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        args = (seq, gs, p, conjugate(p), q, conjugate(q))
        given = check_holder(*args, norm=mixed_norm(seq, p, q))
        assert given == check_holder(*args)

    def test_level_count_mismatch(self, grid, seq):
        gs = band_limited_sequence(grid, seq.levels - 1, 40, 3)
        p = constant_exponent(grid, 2.0)
        with pytest.raises(ValueError, match="level"):
            check_holder(seq, gs, p, p, p, p)
