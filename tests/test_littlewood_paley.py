import math

import numpy as np
import pytest

from varbesov.exponents import (constant_exponent, cos_bump_exponent,
                                local_log_holder, log_smooth_exponent)
from varbesov import littlewood_paley
from varbesov.grid import Field, convolve, eta_kernel, field_from_function
from varbesov.lebesgue import luxemburg_norm
from varbesov.littlewood_paley import (ResolutionOfUnity, besov_norm,
                                       build_resolution, check_lemma_eta_shift,
                                       hardy_bound, hardy_sweep,
                                       hardy_transform, lp_block,
                                       partition_of_unity, single_block_identity,
                                       smooth_step, verify_eta_convolution,
                                       verify_mixed_eta)
from varbesov.mixed import FieldSequence, classical_mixed_norm, mixed_norm
from varbesov.random_fields import band_limited_field, band_limited_sequence


class TestSmoothStep:
    def test_plateau_values_exact(self):
        assert smooth_step(np.array([0.0, 0.5, 1.0]))[1] == 1.0
        np.testing.assert_array_equal(smooth_step(np.array([2.0, 3.0, 10.0])), 0.0)

    def test_midpoint(self):
        assert smooth_step(np.array([1.5]))[0] == pytest.approx(0.5)

    def test_monotone_decreasing(self):
        t = np.linspace(0.0, 3.0, 301)
        v = smooth_step(t)
        assert np.all(np.diff(v) <= 1e-15)


class TestResolution:
    def test_partition_of_unity_exact(self, small_grid, small_rou):
        assert partition_of_unity(small_rou).status == "pass"
        # with level 3 dropped the sum misses psi_3, which reaches 1
        mults = small_rou.multipliers
        gapped = ResolutionOfUnity(small_grid, mults[:3] + mults[4:])
        assert partition_of_unity(gapped).status == "fail"

    def test_partition_at_half_top_scale(self, small_grid):
        # a resolution that stops at level 6 telescopes to 1 up to |k| = 2^6
        assert partition_of_unity(build_resolution(small_grid, 6)).status == "pass"

    def test_level_one_vanishes_low(self, small_grid, small_rou):
        kmag = small_grid._half_mode_magnitude()
        low = kmag <= 0.5
        assert np.all(small_rou.multipliers[1][low] == 0.0)

    def test_annular_supports(self, small_grid, small_rou):
        kmag = small_grid._half_mode_magnitude()
        for j in range(1, small_rou.levels):
            mult = small_rou.multipliers[j]
            outside = (kmag < 2.0 ** (j - 1)) | (kmag > 2.0 ** (j + 1))
            assert np.all(mult[outside] == 0.0)
        assert np.all(small_rou.multipliers[0][kmag > 2.0] == 0.0)

    @pytest.mark.parametrize("top, match", [(9, "Nyquist"), (-1, "top_level")])
    def test_rejects_levels_beyond_nyquist(self, small_grid, top, match):
        with pytest.raises(ValueError, match=match):
            build_resolution(small_grid, top)


class TestBlocks:
    def test_low_mode_field_is_block_zero(self, small_grid, small_rou):
        f = field_from_function(
            small_grid,
            lambda x: 0.7 + 0.2 * np.cos(np.pi * x / small_grid.half_width))
        b0 = lp_block(f, small_rou, 0)
        np.testing.assert_allclose(b0.values, f.values, atol=1e-10)
        for j in range(1, small_rou.levels):
            assert np.max(np.abs(lp_block(f, small_rou, j).values)) <= 1e-10

    def test_reconstruction(self, small_grid, small_rou):
        f = band_limited_field(small_grid, 32, 7)
        total = sum(lp_block(f, small_rou, j).values for j in range(small_rou.levels))
        np.testing.assert_allclose(total, f.values, atol=1e-10)

    def test_zero_field(self, small_grid, small_rou):
        z = Field(small_grid, np.zeros(small_grid.shape))
        assert np.all(lp_block(z, small_rou, 3).values == 0.0)

    def test_almost_orthogonality(self, small_grid, small_rou):
        f = band_limited_field(small_grid, 32, 9)
        for j, jp in ((0, 2), (1, 4), (3, 6), (2, 5)):
            twice = lp_block(lp_block(f, small_rou, j), small_rou, jp)
            assert np.max(np.abs(twice.values)) <= 1e-12

    def test_out_of_range(self, small_grid, small_rou):
        f = band_limited_field(small_grid, 32, 7)
        with pytest.raises(ValueError):
            lp_block(f, small_rou, 8)


class TestBesovNorm:
    def test_single_block_identity(self, small_grid, small_rou):
        s = cos_bump_exponent(small_grid, 0.2, 1.1)
        p = log_smooth_exponent(small_grid, 1.7, 1.0)
        q = constant_exponent(small_grid, 2.0)
        # mode 1 lies where psi_0 = 1; mode 8 lies in block 3 alone
        for mode, status in ((1, "pass"), (8, "fail")):
            f = field_from_function(small_grid, lambda x: 0.4 + 0.3 * np.cos(
                mode * np.pi * x / small_grid.half_width))
            assert single_block_identity(f, s, p, q, small_rou).status == status

    def test_zero_field(self, small_grid, small_rou):
        z = Field(small_grid, np.zeros(small_grid.shape))
        s = constant_exponent(small_grid, 1.0)
        p = constant_exponent(small_grid, 2.0)
        assert besov_norm(z, s, p, p, small_rou) == 0.0

    def test_classical_oracle(self, small_grid, small_rou):
        f = band_limited_field(small_grid, 32, 13)
        s0, p0, q0 = 0.8, 2.0, 3.0
        direct = classical_mixed_norm(FieldSequence(tuple(
            Field(small_grid, 2.0 ** (j * s0) * lp_block(f, small_rou, j).values)
            for j in range(small_rou.levels))), p0, q0)
        got = besov_norm(f, constant_exponent(small_grid, s0),
                         constant_exponent(small_grid, p0),
                         constant_exponent(small_grid, q0), small_rou)
        assert got == pytest.approx(direct, rel=1e-6)

    def test_rejects_non_finite_smoothness(self, small_grid, small_rou):
        f = band_limited_field(small_grid, 32, 15)
        p = constant_exponent(small_grid, 2.0)
        with pytest.raises(ValueError, match="smoothness exponent"):
            besov_norm(f, constant_exponent(small_grid, math.inf), p, p,
                       small_rou)

    def test_negative_smoothness(self, small_grid, small_rou):
        f = band_limited_field(small_grid, 32, 15)
        s = constant_exponent(small_grid, -0.5)
        p = constant_exponent(small_grid, 2.0)
        q = constant_exponent(small_grid, 2.0)
        assert besov_norm(f, s, p, q, small_rou) > 0


class TestEtaShift:
    def test_constant_alpha_zero_shift(self, small_grid):
        rep = check_lemma_eta_shift(constant_exponent(small_grid, 1.5), 0.0, 6)
        assert rep.status == "pass"
        assert rep.measured == 1.0

    def test_constant_alpha_positive_shift(self, small_grid):
        rep = check_lemma_eta_shift(constant_exponent(small_grid, 1.5), 2.0, 6)
        assert rep.measured == 1.0

    def test_log_family(self, small_grid):
        alpha = log_smooth_exponent(small_grid, 0.5, 0.8)
        c_loc = local_log_holder(alpha.values, small_grid)
        rep = check_lemma_eta_shift(alpha, c_loc, 6)
        assert rep.status == "pass"
        assert math.isfinite(rep.details["c_max"])
        # measured is the spread c_max / c_min of the per-level constants,
        # graded against the bound 2 that the record carries
        curve = rep.details["per_level"]
        assert (rep.bound, rep.tolerance) == (2.0, 0.0)
        assert rep.details["c_max"] == max(curve)
        assert rep.measured == max(curve) / min(curve) <= 2.0

    @pytest.mark.parametrize("alpha, match", [
        (lambda g: cos_bump_exponent(g, 0.5, 2.0), "log-Holder"),
        (lambda g: constant_exponent(g, math.inf), "finite-valued")],
        ids=["small_shift", "infinite_alpha"])
    def test_rejects_small_shift(self, small_grid, alpha, match):
        with pytest.raises(ValueError, match=match):
            check_lemma_eta_shift(alpha(small_grid), 0.0, 6)


class TestEtaConvolution:
    def test_young_bound_constant_two(self, small_grid):
        f = field_from_function(small_grid, lambda x: np.exp(-(x**2) / (2 * 2.0**2)))
        rep = verify_eta_convolution(f, constant_exponent(small_grid, 2.0), 3.0, 6)
        for ratio, mass in zip(rep.details["ratios"], rep.details["masses"]):
            assert ratio <= mass + 1e-9

    def test_zero_field_trivial(self, small_grid):
        rep = verify_eta_convolution(Field(small_grid, np.zeros(small_grid.shape)),
                                     constant_exponent(small_grid, 2.0), 3.0, 6)
        assert rep.status == "trivial"
        assert all(r == 0.0 for r in rep.details["ratios"])

    def test_eta_shaped_bump_level_zero(self, small_grid):
        from varbesov.grid import eta_kernel

        bump = eta_kernel(0, 3.0, small_grid)
        p = log_smooth_exponent(small_grid, 2.0, 1.0)
        rep = verify_eta_convolution(bump, p, 3.0, 6)
        assert rep.details["ratios"][0] <= rep.details["masses"][0] + 1e-6

    def test_ratios_equal_the_convolve_path_bitwise(self, small_grid):
        f = band_limited_field(small_grid, 32, 5)
        p = log_smooth_exponent(small_grid, 2.0, 1.0)
        rep = verify_eta_convolution(f, p, 3.0, 6)
        base = luxemburg_norm(f, p)
        assert rep.details["ratios"] == [
            luxemburg_norm(convolve(eta_kernel(j, 3.0, small_grid), f), p) / base
            for j in range(7)
        ]

    def test_trend_gate_fails_alone(self, small_grid, monkeypatch):
        # ratios 0.1 ... 0.5 sit far below the Young budget, but their
        # trend 5 exceeds ETA_TREND_BOUND: the record shows the trend gate
        norms = iter([1.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        monkeypatch.setattr(littlewood_paley, "luxemburg_norm",
                            lambda f, p: next(norms))
        f = field_from_function(small_grid, lambda x: np.exp(-x**2))
        rep = verify_eta_convolution(f, constant_exponent(small_grid, 2.0), 3.0, 4)
        assert max(rep.details["ratios"]) < 2.0 * max(rep.details["masses"])
        assert (rep.status, rep.measured, rep.bound, rep.tolerance) == (
            "fail", 5.0, littlewood_paley.ETA_TREND_BOUND, 0.0)

    def test_rejects_small_order(self, small_grid):
        f = band_limited_field(small_grid, 32, 3)
        with pytest.raises(ValueError, match="dimension"):
            verify_eta_convolution(f, constant_exponent(small_grid, 2.0), 1.0, 6)

    def test_rejects_negative_top_level(self, small_grid):
        f = band_limited_field(small_grid, 32, 3)
        with pytest.raises(ValueError, match="top_level"):
            verify_eta_convolution(f, constant_exponent(small_grid, 2.0), 3.0, -1)


class TestMixedEta:
    def test_constant_q_matches_levelwise(self, small_grid):
        # with constant q the mixed bound aggregates the scalar ratios
        fs = band_limited_sequence(small_grid, 5, 32, 19)
        p = log_smooth_exponent(small_grid, 2.0, 1.0)
        q = constant_exponent(small_grid, 2.0)
        rep = verify_mixed_eta(fs, p, q, 3.0)
        scalar = verify_eta_convolution(fs[0], p, 3.0, 4)
        assert rep.status == "pass"
        assert rep.details["ratio"] <= max(scalar.details["masses"]) * 2.0

    def test_ratio_equals_the_convolve_path_bitwise(self, small_grid):
        fs = band_limited_sequence(small_grid, 4, 32, 31)
        p = log_smooth_exponent(small_grid, 2.0, 1.0)
        q = cos_bump_exponent(small_grid, 1.5, 1.0)
        rep = verify_mixed_eta(fs, p, q, 3.0)
        smoothed = FieldSequence(tuple(
            convolve(eta_kernel(j, 3.0, small_grid), f) for j, f in enumerate(fs)))
        assert rep.details["ratio"] == mixed_norm(smoothed, p, q) / mixed_norm(fs, p, q)

    def test_zero_sequence_trivial(self, small_grid):
        zeros = FieldSequence(
            tuple(Field(small_grid, np.zeros(small_grid.shape)) for _ in range(3)))
        p = constant_exponent(small_grid, 2.0)
        q = constant_exponent(small_grid, 2.0)
        rep = verify_mixed_eta(zeros, p, q, 3.0)
        assert rep.status == "trivial"

    def test_single_level_matches_scalar(self, small_grid):
        f = band_limited_field(small_grid, 32, 23)
        p = constant_exponent(small_grid, 2.0)
        q = constant_exponent(small_grid, 2.0)
        rep = verify_mixed_eta(FieldSequence((f,)), p, q, 3.0)
        scalar = verify_eta_convolution(f, p, 3.0, 0)
        assert rep.details["ratio"] == pytest.approx(
            scalar.details["ratios"][0], rel=1e-7)

    def test_rejects_small_order_for_variable_q(self, small_grid):
        fs = band_limited_sequence(small_grid, 3, 32, 29)
        p = constant_exponent(small_grid, 2.0)
        q = cos_bump_exponent(small_grid, 1.2, 2.0)
        with pytest.raises(ValueError, match="c_loc"):
            verify_mixed_eta(fs, p, q, 1.0)


    def test_guard_sweeps_only_when_the_bound_cannot_decide(self, desk_grid,
                                                            monkeypatch):
        # on the desk grid the bound on c_loc(1/q) is 1.30 for the default
        # q = cos_bump(1.5, 1) and 4.39 for cos_bump(1, 9); m - n = 2
        from varbesov import _kernels

        sweeps = []
        sweep = _kernels.log_holder_max

        def counted(*args):
            sweeps.append(1)
            return sweep(*args)

        monkeypatch.setattr(_kernels, "log_holder_max", counted)
        fs = band_limited_sequence(desk_grid, 3, 32, 37)
        p = constant_exponent(desk_grid, 2.0)
        for (a, b), count, key in (((1.5, 1.0), 0, "c_loc_rq_bound"),
                                   ((1.0, 9.0), 1, "c_loc_rq")):
            sweeps.clear()
            q = cos_bump_exponent(desk_grid, a, b)
            rep = verify_mixed_eta(fs, p, q, 3.0)
            assert len(sweeps) == count
            assert rep.status == "pass"
            assert set(rep.details) == {"ratio", key, "masses"}
        assert rep.details["c_loc_rq"] == local_log_holder(q.reciprocals(),
                                                           desk_grid)

class TestHardy:
    def test_single_level_geometric(self, small_grid):
        # only g_0 nonzero: G_0 = g_0, G_j = 0 beyond, H_j = a^j g_0
        g0 = band_limited_field(small_grid, 32, 31)
        zeros = Field(small_grid, np.zeros(small_grid.shape))
        gs = FieldSequence((g0, zeros, zeros, zeros))
        big_g, big_h = hardy_transform(gs, 0.5)
        np.testing.assert_allclose(big_g[0].values, g0.values)
        for j in range(1, 4):
            assert np.all(big_g[j].values == 0.0)
            np.testing.assert_allclose(big_h[j].values, 0.5**j * g0.values,
                                       atol=1e-14)

    def test_equal_levels_geometric_sum(self, small_grid):
        g0 = band_limited_field(small_grid, 32, 37)
        gs = FieldSequence(tuple(g0 for _ in range(5)))
        big_g, _ = hardy_transform(gs, 0.5)
        for j in range(5):
            expect = (1.0 - 0.5 ** (5 - j)) / 0.5 * g0.values
            np.testing.assert_allclose(big_g[j].values, expect, atol=1e-12)

    def test_zero_sequence(self, small_grid):
        zeros = FieldSequence(
            tuple(Field(small_grid, np.zeros(small_grid.shape)) for _ in range(3)))
        [rep] = hardy_sweep([zeros], constant_exponent(small_grid, 2.0),
                            [constant_exponent(small_grid, 2.0)], [0.5])
        assert rep.status == "trivial"

    @pytest.mark.parametrize("call, match", [
        (lambda gs, p: hardy_transform(gs, 1.5), "a must"),
        (lambda gs, p: hardy_bound(0.5, 0.0), "q\\^- must be positive"),
        (lambda gs, p: hardy_sweep([gs], p, [p], [1.0]), "a must lie in")],
        ids=["transform", "bound_q_minus", "sweep"])
    def test_rejects_bad_weight(self, small_grid, call, match):
        gs = band_limited_sequence(small_grid, 3, 32, 41)
        with pytest.raises(ValueError, match=match):
            call(gs, constant_exponent(small_grid, 2.0))

    def test_explicit_constant_formula(self):
        # a = 1/2, q = 2: the gamma grid is 0.1, 0.2, ..., 1.9; at gamma = 1,
        # c = (1 - 2**-0.5) / sqrt(2)
        def c(gamma):
            return (1.0 - 0.5 ** gamma) ** 0.5 * (1.0 - 0.5 ** (1.0 - gamma / 2.0))

        bound = hardy_bound(0.5, 2.0)
        assert bound == pytest.approx(min(1.0 / c(k / 10.0) for k in range(1, 20)),
                                      rel=1e-12)
        assert bound <= 1.0 / c(1.0)

    def test_bound_holds_across_matrix(self, small_grid):
        p = log_smooth_exponent(small_grid, 2.0, 1.0)
        for a in (0.25, 0.5, 0.75):
            for q0 in (1.5, 2.0, 4.0):
                gs = band_limited_sequence(small_grid, 6, 32, [43, int(a * 100), int(q0 * 10)])
                [rep] = hardy_sweep([gs], p, [constant_exponent(small_grid, q0)], [a])
                assert rep.status == "pass", (a, q0, rep)

    def test_sweep_grades_the_worst_sequence(self, small_grid, monkeypatch):
        # a zero sequence measures nothing; a case fails once its bound lies
        # 2e-6 below its worst ratio
        p = log_smooth_exponent(small_grid, 2.0, 1.0)
        qs = [constant_exponent(small_grid, 1.5), cos_bump_exponent(small_grid, 2.0, 1.0)]
        gss = [band_limited_sequence(small_grid, 5, 32, [59, t]) for t in range(2)]
        zeros = gss[0].scaled(0.0)
        reps = hardy_sweep(iter([gss[0], zeros, gss[1]]), p, qs, [0.25, 0.75])
        assert [r.check_id for r in reps] == [
            "hardy.a0.25_q1.5", "hardy.a0.25_q2.0", "hardy.a0.75_q1.5", "hardy.a0.75_q2.0"]
        for rep, *one in zip(reps, *(hardy_sweep([gs], p, qs, [0.25, 0.75]) for gs in gss)):
            assert rep.status == "pass"
            assert rep.measured == max(r.measured for r in one)
        assert [r.measured for r in hardy_sweep(gss[::-1], p, qs, [0.25, 0.75])] == \
            [r.measured for r in reps]
        assert [r.status for r in hardy_sweep([zeros], p, qs, [0.5])] == ["trivial"] * 2
        worst = {(r.details["a"], r.details["q_minus"]): r.measured for r in reps}
        for slack, status in ((0.5e-6, "pass"), (2e-6, "fail")):
            monkeypatch.setattr(littlewood_paley, "hardy_bound",
                                lambda a, q_minus: worst[a, q_minus] - slack)
            assert {r.status for r in hardy_sweep(gss, p, qs, [0.25, 0.75])} == {status}

    def test_variable_q_uses_q_minus(self, small_grid):
        gs = band_limited_sequence(small_grid, 5, 32, 47)
        p = constant_exponent(small_grid, 2.0)
        q = cos_bump_exponent(small_grid, 1.5, 1.0)
        [rep] = hardy_sweep([gs], p, [q], [0.5])
        assert rep.status == "pass"
        assert rep.details["q_minus"] == pytest.approx(1.5, abs=1e-9)

    def test_single_level_backward_ratio_geometric(self, small_grid):
        # only g_0 nonzero: H_j = a^j g_0, so with constant exponents the
        # backward ratio is the explicit geometric sum (sum_j a^{jq})^{1/q}
        a, q0, levels = 0.5, 2.0, 6
        g0 = band_limited_field(small_grid, 32, 53)
        zeros = Field(small_grid, np.zeros(small_grid.shape))
        gs = FieldSequence((g0,) + tuple(zeros for _ in range(levels - 1)))
        p = constant_exponent(small_grid, 2.0)
        q = constant_exponent(small_grid, q0)
        [rep] = hardy_sweep([gs], p, [q], [a])
        expect = sum(a ** (j * q0) for j in range(levels)) ** (1 / q0)
        assert rep.details["ratio_H"] == pytest.approx(expect, rel=1e-7)
        assert rep.details["ratio_H"] <= rep.bound + 1e-6
