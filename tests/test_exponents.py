import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov import _kernels
from varbesov.exponents import (ExponentField, conjugate, constant_exponent,
                                cos_bump_exponent, exponent_from_family,
                                harmonic_sum, local_log_holder,
                                log_holder_constants, log_smooth_exponent,
                                two_level_exponent, FAMILIES)
from varbesov.grid import Grid


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 512, 16.0)


class TestConjugate:
    def test_two_is_self_dual(self, grid):
        p = constant_exponent(grid, 2.0)
        np.testing.assert_array_equal(conjugate(p).values, 2.0)

    def test_one_maps_to_infinity(self, grid):
        p = constant_exponent(grid, 1.0)
        assert np.all(np.isinf(conjugate(p).values))

    def test_four_maps_to_four_thirds(self, grid):
        p = constant_exponent(grid, 4.0)
        np.testing.assert_allclose(conjugate(p).values, 4.0 / 3.0, rtol=1e-15)

    def test_double_conjugate_is_original_object(self, grid):
        for ctor in (lambda: constant_exponent(grid, 4.0),
                     lambda: log_smooth_exponent(grid, 2.0, 1.0),
                     lambda: constant_exponent(grid, math.inf)):
            p = ctor()
            assert conjugate(conjugate(p)) is p

    def test_reciprocal_identity(self, grid):
        p = log_smooth_exponent(grid, 1.0, 2.0)
        q = conjugate(p)
        np.testing.assert_allclose(p.reciprocals() + q.reciprocals(), 1.0,
                                   atol=1e-15)

    def test_rejects_below_one(self, grid):
        p = ExponentField(grid, np.full(grid.shape, 0.5))
        with pytest.raises(ValueError):
            conjugate(p)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.01, max_value=64.0, allow_nan=False))
def test_fresh_double_conjugate_near_exact(p0):
    # without the memo the float involution is accurate only up to the
    # conditioning 1/(p-1) of x -> x/(x-1); the memoized path is exact
    g = Grid(1, 8, 1.0)
    p = constant_exponent(g, p0)
    q = conjugate(p)
    fresh = ExponentField(g, q.values.copy())
    back = conjugate(fresh)
    sensitivity = max(p0, 1.0 / (p0 - 1.0))
    np.testing.assert_allclose(back.values, p0, rtol=5e-15 * sensitivity)


class TestBounds:
    def test_min_max_cached(self, grid):
        e = two_level_exponent(grid, 1.5, 3.0, 4.0)
        assert e.p_minus == 1.5
        assert e.p_plus == 3.0

    def test_infinity_is_a_tag(self, grid):
        e = constant_exponent(grid, math.inf)
        assert math.isinf(e.p_plus)
        assert np.all(np.isinf(e.values))
        assert np.all(e.reciprocals() == 0.0)

    def test_nan_rejected(self, grid):
        vals = np.full(grid.shape, 2.0)
        vals[0] = np.nan
        with pytest.raises(ValueError):
            ExponentField(grid, vals)


class TestLogHolder:
    def test_constant_gives_zero(self, grid):
        c_loc, c_decay = log_holder_constants(constant_exponent(grid, 2.0))
        assert c_loc == 0.0
        assert c_decay == 0.0

    def test_clipped_distance_family_positive_finite(self, grid):
        # g(x) = 2 + min(1, |x|): brute force over all grid pairs
        x = grid.axis_coordinates()
        g = ExponentField(grid, 2.0 + np.minimum(1.0, np.abs(x)),
                          value_at_infinity=3.0)
        c_loc, _ = log_holder_constants(g)
        assert 0.0 < c_loc < math.inf
        # oracle: dense pair scan in plain numpy
        period = 2 * grid.half_width
        d = np.abs(x[:, None] - x[None, :])
        d = np.minimum(d, period - d)
        gg = np.abs(g.values[:, None] - g.values[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = gg * np.log(math.e + 1.0 / d)
        vals[d == 0] = 0.0
        assert c_loc == pytest.approx(np.max(vals), rel=1e-12)

    def test_decay_constant_of_log_family(self, grid):
        # |g - 3| log(e + |x|) = 1 identically for g = 3 + 1/log(e + |x|)
        g = log_smooth_exponent(grid, 3.0, 1.0)
        _, c_decay = log_holder_constants(g)
        assert c_decay == pytest.approx(1.0, abs=1e-9)

    def test_decay_requires_limit_value(self, grid):
        g = ExponentField(grid, np.full(grid.shape, 2.0))
        with pytest.raises(ValueError, match="value_at_infinity"):
            log_holder_constants(g)

    def test_decay_check_comes_before_the_pair_sweep(self, grid, monkeypatch):
        def sweep(*args):
            raise AssertionError("pair sweep ran before the decay check")

        monkeypatch.setattr(_kernels, "log_holder_max", sweep)
        g = ExponentField(grid, np.full(grid.shape, 2.0))
        with pytest.raises(ValueError, match="value_at_infinity"):
            log_holder_constants(g)

    def test_field_measures_its_constant_once(self, grid, monkeypatch):
        calls = []
        sweep = _kernels.log_holder_max

        def counted(*args):
            calls.append(1)
            return sweep(*args)

        monkeypatch.setattr(_kernels, "log_holder_max", counted)
        g = cos_bump_exponent(grid, 1.5, 1.0)
        c = g.local_log_holder()
        assert c == local_log_holder(g.values, grid)
        assert len(calls) == 2
        assert log_holder_constants(g)[0] == c
        assert g.local_log_holder() == c
        assert len(calls) == 2

    def test_shift_invariance(self, grid):
        g1 = cos_bump_exponent(grid, 1.5, 1.0)
        c1 = local_log_holder(g1.values, grid)
        c2 = local_log_holder(g1.values + 10.0, grid)
        assert c1 == pytest.approx(c2, rel=1e-12)


class TestFamilies:
    def test_registry_round_trip(self, grid):
        e = exponent_from_family(grid, "log_smooth", {"a": 2.0, "b": 0.5})
        assert e.value_at_infinity == 2.0
        assert e.p_minus >= 2.0

    def test_unknown_family(self, grid):
        with pytest.raises(KeyError, match="unknown exponent family"):
            exponent_from_family(grid, "nope", {})

    def test_missing_parameter(self, grid):
        with pytest.raises(KeyError, match="missing"):
            exponent_from_family(grid, "constant", {})

    def test_cos_bump_range(self, grid):
        e = cos_bump_exponent(grid, 1.5, 1.0)
        assert e.p_minus >= 1.5 - 1e-12
        assert e.p_plus <= 2.5 + 1e-12
        assert e.value_at_infinity == 1.5

    def test_all_families_registered(self):
        assert set(FAMILIES) == {"constant", "two_level", "log_smooth", "cos_bump"}


class TestHarmonicSum:
    def test_equal_fours_give_two(self, grid):
        p = harmonic_sum(constant_exponent(grid, 4.0), constant_exponent(grid, 4.0))
        np.testing.assert_allclose(p.values, 2.0)

    def test_infinity_neutral(self, grid):
        p = harmonic_sum(constant_exponent(grid, 3.0),
                         constant_exponent(grid, math.inf))
        np.testing.assert_allclose(p.values, 3.0)

    def test_rejects_sum_below_one(self, grid):
        with pytest.raises(ValueError):
            harmonic_sum(constant_exponent(grid, 1.5), constant_exponent(grid, 2.0))
