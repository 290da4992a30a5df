import math

import numpy as np
import pytest

from varbesov import mixed
from varbesov.exponents import (conjugate, constant_exponent, cos_bump_exponent,
                                log_smooth_exponent)
from varbesov.grid import Field, Grid
from varbesov.lebesgue import luxemburg_norm
from varbesov.mixed import (FieldSequence, check_holder, check_monotone_limit,
                            inner_lambda, mixed_modular, mixed_norm)
from varbesov.random_fields import band_limited_field, band_limited_sequence


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 1024, 16.0)


@pytest.fixture(scope="module")
def seq(grid):
    return band_limited_sequence(grid, 7, 40, 2024)


def classical_mixed_norm(fs, p0, q0):
    cell = fs.grid.cell
    if math.isinf(q0):
        return max(
            (float(np.sum(np.abs(f.values) ** p0)) * cell) ** (1 / p0) for f in fs
        )
    total = 0.0
    for f in fs:
        lp = (float(np.sum(np.abs(f.values) ** p0)) * cell) ** (1 / p0)
        total += lp**q0
    return total ** (1 / q0)


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

    def test_p_infinity_routes_agree(self, grid):
        # esssup formula vs generic nested-infimum route
        from varbesov.mixed import _LevelSolver

        qv = cos_bump_exponent(grid, 1.5, 1.0)
        pi = constant_exponent(grid, math.inf)
        fs = band_limited_sequence(grid, 4, 40, 31)
        scaled = fs.scaled(0.4 / fs.max_abs())
        direct = mixed_modular(scaled, pi, qv)
        generic = _LevelSolver(scaled, pi, qv).modular()
        assert generic == pytest.approx(direct, rel=1e-8, abs=1e-10)


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
        for target in (0.5, 0.999, 1.001, 2.0):
            scaled = seq.scaled(target / nrm)
            rho = mixed_modular(scaled, p, q)
            if target <= 1.0 - 1e-7:
                assert rho <= 1.0 + 1e-8
            else:
                assert rho > 1.0 - 1e-8

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
        assert rep.details["increasing"]

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

    def test_caller_norms_give_the_same_report(self, grid, seq):
        gs = band_limited_sequence(grid, seq.levels, 40, 778)
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        args = (seq, gs, p, conjugate(p), q, conjugate(q))
        given = check_holder(*args,
                             level_norms=[luxemburg_norm(f, p) for f in seq],
                             norm=mixed_norm(seq, p, q))
        assert given == check_holder(*args)

    def test_level_count_mismatch(self, grid, seq):
        gs = band_limited_sequence(grid, seq.levels - 1, 40, 3)
        p = constant_exponent(grid, 2.0)
        with pytest.raises(ValueError, match="level"):
            check_holder(seq, gs, p, p, p, p)
