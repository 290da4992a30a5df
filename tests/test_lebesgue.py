import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import varbesov
from varbesov import cli, lebesgue
from varbesov.exponents import ExponentField, constant_exponent, log_smooth_exponent
from varbesov.grid import Field, Grid, default_grid
from varbesov.lebesgue import (classical_norm, luxemburg_norm, modular, omega,
                               two_level_gauge, unit_ball_violations)
from varbesov.random_fields import band_limited_field


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 1024, 16.0)


def indicator(grid, lo, hi):
    x = grid.axis_coordinates()
    vals = np.zeros(grid.shape)
    vals[(x >= lo) & (x < hi)] = 1.0
    return Field(grid, vals)


class TestOmega:
    def test_power_case(self):
        assert omega(3.0, 2.0) == 9.0

    def test_infinity_below_one(self):
        assert omega(0.5, math.inf) == 0.0

    def test_infinity_above_one(self):
        assert omega(2.0, math.inf) == math.inf

    def test_one_to_infinity_is_zero(self):
        # left-continuity convention 1^inf = 0
        assert omega(1.0, math.inf) == 0.0

    def test_zero_for_all_exponents(self):
        for p in (1.0, 2.5, math.inf):
            assert omega(0.0, p) == 0.0

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            omega(-0.1, 2.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(1.0, 12.0))
def test_omega_monotone_in_t(t1, t2, p):
    lo, hi = sorted((t1, t2))
    assert omega(lo, p) <= omega(hi, p)


class TestModular:
    def test_indicator_squared(self, grid):
        f = indicator(grid, 0.0, 1.0)
        assert modular(f, constant_exponent(grid, 2.0)) == pytest.approx(1.0)

    def test_infinity_zero_when_bounded_by_one(self, grid):
        f = Field(grid, np.full(grid.shape, 0.999))
        assert modular(f, constant_exponent(grid, math.inf)) == 0.0

    def test_infinity_blows_up_past_one(self, grid):
        vals = np.full(grid.shape, 0.5)
        vals[7] = 1.5
        assert modular(Field(grid, vals), constant_exponent(grid, math.inf)) == math.inf

    def test_scaled_indicator_cube(self, grid):
        f = Field(grid, 2.0 * indicator(grid, 0.0, 1.0).values)
        assert modular(f, constant_exponent(grid, 3.0)) == pytest.approx(8.0)

    def test_monotone_convergence_under_truncation(self, grid):
        # |f_n| increasing to |f| pushes the modular to its limit
        f = band_limited_field(grid, 40, 11)
        p = log_smooth_exponent(grid, 1.5, 1.0)
        full = modular(Field(grid, 3.0 * f.values), p)
        radius = grid.min_image_radius()
        vals = []
        for frac in (0.125, 0.25, 0.5, 0.75, 1.0):
            mask = radius <= grid.half_width * frac
            vals.append(modular(Field(grid, 3.0 * f.values * mask), p))
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(full, rel=1e-12)


class TestLuxemburgNorm:
    def test_indicator_classical(self, grid):
        # c * chi_E in constant-exponent space: c |E|^{1/p}
        f = Field(grid, 1.7 * indicator(grid, -2.0, 1.0).values)
        for p0 in (1.0, 2.0, 3.5):
            nrm = luxemburg_norm(f, constant_exponent(grid, p0))
            assert nrm == pytest.approx(1.7 * 3.0 ** (1.0 / p0), rel=1e-8)

    def test_two_level_exponent_golden_gauge(self, grid):
        # the pieces tile exactly (m1 = m2 = 1): rho(f/lam) = 1/lam +
        # 1/lam^2 = 1 has the golden ratio as root
        rep = two_level_gauge(grid)
        oracle = brentq(lambda t: 1.0 / t + 1.0 / t**2 - 1.0, 1.0, 2.0,
                        xtol=1e-13)
        assert rep.status == "pass", rep
        assert rep.details["gauge"] == pytest.approx(oracle, abs=1e-8)

    def test_two_level_gauge_fails_off_by_1e7(self, grid, monkeypatch):
        norm = lebesgue.luxemburg_norm
        monkeypatch.setattr(lebesgue, "luxemburg_norm",
                            lambda f, p: norm(f, p) + 1e-7)
        assert two_level_gauge(grid).status == "fail"

    def test_infinity_is_sup_norm(self, grid):
        f = band_limited_field(grid, 40, 3)
        nrm = luxemburg_norm(f, constant_exponent(grid, math.inf))
        assert nrm == pytest.approx(f.max_abs(), rel=1e-8)

    @pytest.mark.parametrize("case", ["desk", "plane", "zeros"])
    def test_infinity_matches_the_evaluator_bitwise(self, case):
        # at p = inf everywhere the norm is max|f| raised to its feasible
        # side in closed form: the bits the evaluator's p = inf floor gives
        g = default_grid(1) if case != "plane" else Grid(2, 256, 16.0)
        f = band_limited_field(g, 40, 3)
        if case == "zeros":
            f = Field(g, np.where(g.axis_coordinates() > 3.0, 0.0, f.values))
        p = constant_exponent(g, math.inf)
        want = lebesgue.Modular((f,), p).solve(
            0, hint=lebesgue._norm_hint(g, f.max_abs(), 1))
        got = luxemburg_norm(f, p)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
        assert f.max_abs() < got

    def test_zero_field(self, grid):
        assert luxemburg_norm(Field(grid, np.zeros(grid.shape)),
                              constant_exponent(grid, 2.0)) == 0.0

    def test_constant_exponent_reduction(self, grid):
        f = band_limited_field(grid, 40, 21)
        for p0 in (1.0, 1.5, 2.0, 3.0):
            nrm = luxemburg_norm(f, constant_exponent(grid, p0))
            assert nrm == pytest.approx(classical_norm(f, p0), rel=1e-6)

    def test_three_regime_exponent(self, grid):
        # p = 1, 2 and inf on three bands: the gauge is the larger of the
        # sup over the inf-band and the scale solving the finite-band
        # modular equation
        x = grid.axis_coordinates()
        pv = np.where(np.abs(x) < 4.0, 1.0, np.where(np.abs(x) < 8.0, 2.0, np.inf))
        p = ExponentField(grid, pv)
        f = band_limited_field(grid, 40, 55)
        nrm = luxemburg_norm(f, p)

        af = np.abs(f.values)
        sup_inf_band = float(np.max(af[np.isinf(pv)]))
        fin = np.isfinite(pv)

        def finite_part(lam):
            t = af[fin] / lam
            return float(np.sum(t ** pv[fin])) * grid.cell

        lam_fin = brentq(lambda t: finite_part(t) - 1.0, 1e-6, 1e6, xtol=1e-13)
        oracle = max(sup_inf_band, lam_fin)
        assert nrm == pytest.approx(oracle, rel=1e-8)

    def test_unit_ball_equivalence_both_ways(self, grid):
        p = log_smooth_exponent(grid, 1.5, 1.5)
        for seed in range(8):
            f = band_limited_field(grid, 40, [77, seed])
            nrm = luxemburg_norm(f, p)
            assert unit_ball_violations(
                lambda s: modular(Field(grid, f.values * (s / nrm)), p)) == 0

    def test_suite_at_the_top_exponent_is_quiet(self):
        # at p = 1e308, p log|f| overflows to -inf where |f| < 0.17, the
        # terms' true limit 0; the run passes with no RuntimeWarning
        config = {"grid": {"points_per_axis": 1024}, "levels": 6,
                  "suites": ["lebesgue"],
                  "exponents": {"p": {"family": "constant",
                                      "params": {"value": 1e308}}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cli.run(config)
        assert [r.status for r in report.records] == ["pass"] * 7

    @pytest.mark.parametrize("top", [527.0, 0.01])
    def test_overflowing_largest_term_raises(self, top):
        # p log(527) overflows to +inf, and p log|f| <= p log(0.01) to -inf
        # at every node; read through, the norm (527 and 0.01 at p = 1e300)
        # would be inf and 0.0
        grid = Grid(1, 1024, 16.0)
        f = band_limited_field(grid, 32, 3)
        f = Field(grid, f.values * (top / f.max_abs()))
        assert luxemburg_norm(f, constant_exponent(grid, 1e300)) == \
            pytest.approx(top, rel=1e-8)
        with pytest.raises(ValueError, match="out of range"):
            luxemburg_norm(f, constant_exponent(grid, 1e308))

    @pytest.mark.parametrize("radius, violations", [
        (1.0, 0), (1.0 + 2e-5, 1), (1.0 - 2e-5, 1), (0.5, 1), (3.0, 2)])
    def test_unit_ball_violations_counts_each_broken_scale(self, radius,
                                                           violations):
        # a modular s^2 / radius^2 reads <= 1 exactly on s <= radius (at
        # radius 0.5 it reads 1 at s = 0.5, which lies in the ball)
        assert unit_ball_violations(lambda s: (s / radius) ** 2) == violations


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 100.0), st.integers(0, 1000))
def test_homogeneity(scale, seed):
    g = Grid(1, 256, 8.0)
    rng = np.random.default_rng(seed)
    spec = np.zeros(g.shape, dtype=complex)
    spec[:10] = rng.normal(size=10) + 1j * rng.normal(size=10)
    f = Field(g, np.fft.ifft(spec).real)
    if f.max_abs() == 0.0:
        return
    p = log_smooth_exponent(g, 1.2, 2.0)
    n1 = luxemburg_norm(f, p)
    n2 = luxemburg_norm(Field(g, scale * f.values), p)
    assert n2 == pytest.approx(scale * n1, rel=1e-8)


def test_luxemburg_norm_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot of more than 10,000 elements across threads,
    # which moves its last bits; the evaluator's slopes over 256^2 nodes
    # must not see that (at this seed a single 65,536-node np.dot did)
    code = ("from varbesov.exponents import log_smooth_exponent\n"
            "from varbesov.grid import Grid\n"
            "from varbesov.lebesgue import luxemburg_norm\n"
            "from varbesov.random_fields import band_limited_field\n"
            "g = Grid(2, 256, 16.0)\n"
            "f = band_limited_field(g, 20, 1)\n"
            "print(luxemburg_norm(f, log_smooth_exponent(g, 2.0, 1.0)).hex())\n")
    src = os.path.dirname(os.path.dirname(varbesov.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(out.stdout)
    assert outs[0] == outs[1] != ""
