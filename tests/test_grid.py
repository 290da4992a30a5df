import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov.grid import (Field, Grid, boundary_deviation, convolve,
                           default_grid, eta_kernel, field_from_function,
                           integrate, spectral_derivative)


def periodized_gaussian(grid, sigma):
    # wrap images so the sample is a genuine periodic function
    x = grid.axis_coordinates()
    acc = np.zeros(grid.shape)
    for shift in range(-3, 4):
        acc += np.exp(-((x + shift * 2 * grid.half_width) ** 2) / (2 * sigma**2))
    return Field(grid, acc / (math.sqrt(2 * math.pi) * sigma))


class TestGridConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(1, 1000, 16.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            Grid(3, 64, 1.0)

    def test_spacing(self):
        g = Grid(1, 4096, 16.0)
        assert g.spacing == 32.0 / 4096
        assert g.cell == g.spacing
        assert g.node_count == 4096

    def test_field_requires_finite(self):
        g = Grid(1, 64, 1.0)
        vals = np.zeros(64)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            Field(g, vals)

    def test_defaults(self):
        assert default_grid(1) == Grid(1, 4096, 16.0)
        assert default_grid(2) == Grid(2, 256, 8.0)


class TestIntegrate:
    def test_constant_on_unit_interval_scale(self):
        # f = 1 on [-1, 1] against zero elsewhere integrates to the measure 2
        g = Grid(1, 256, 1.0)
        assert integrate(Field(g, np.ones(g.shape))) == pytest.approx(2.0)

    def test_zero(self):
        g = Grid(1, 256, 1.0)
        assert integrate(Field(g, np.zeros(g.shape))) == 0.0

    def test_cos_squared_band_limited(self):
        # integral of cos^2(pi x) over [-1, 1] is exactly 1
        g = Grid(1, 256, 1.0)
        f = field_from_function(g, lambda x: np.cos(np.pi * x) ** 2)
        assert integrate(f) == pytest.approx(1.0, abs=1e-12)


class TestConvolve:
    def test_unit_impulse_is_identity(self, small_grid):
        g = small_grid
        imp = np.zeros(g.shape)
        origin = np.argmin(np.abs(g.axis_coordinates()))
        imp[origin] = 1.0 / g.cell
        f = field_from_function(g, lambda x: np.exp(-(x**2)) * np.sin(x))
        out = convolve(Field(g, imp), f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-12)

    def test_shifted_impulse_translates(self, small_grid):
        g = small_grid
        imp = np.zeros(g.shape)
        origin = np.argmin(np.abs(g.axis_coordinates()))
        imp[origin + 17] = 1.0 / g.cell
        f = field_from_function(g, lambda x: np.exp(-(x**2)) * np.sin(x))
        out = convolve(Field(g, imp), f)
        np.testing.assert_allclose(out.values, np.roll(f.values, 17), atol=1e-12)

    def test_zero_annihilates(self, small_grid):
        g = small_grid
        f = field_from_function(g, lambda x: np.cos(x))
        out = convolve(Field(g, np.zeros(g.shape)), f)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_gaussian_semigroup(self):
        g = Grid(1, 2048, 16.0)
        s1, s2 = 0.5, 0.7
        fa = periodized_gaussian(g, s1)
        fb = periodized_gaussian(g, s2)
        expect = periodized_gaussian(g, math.hypot(s1, s2))
        out = convolve(fa, fb)
        np.testing.assert_allclose(out.values, expect.values, atol=1e-8)

    def test_grid_mismatch(self):
        a = Grid(1, 64, 1.0)
        b = Grid(1, 128, 1.0)
        with pytest.raises(ValueError, match="grid mismatch"):
            convolve(Field(a, np.zeros(64)), Field(b, np.zeros(128)))

    def test_commutative_bilinear(self, small_grid):
        g = small_grid
        rng = np.random.default_rng(5)
        spec = np.zeros(g.shape, dtype=complex)
        spec[:20] = rng.normal(size=20) + 1j * rng.normal(size=20)
        f = Field(g, np.fft.ifft(spec).real)
        h = Field(g, np.fft.ifft(np.roll(spec, 7)).real)
        w = Field(g, np.fft.ifft(spec * 1j).real)
        fg = convolve(f, h)
        gf = convolve(h, f)
        np.testing.assert_allclose(fg.values, gf.values, rtol=0, atol=1e-12)
        lin = convolve(Field(g, 2.0 * f.values + 3.0 * w.values), h)
        split = 2.0 * fg.values + 3.0 * convolve(w, h).values
        np.testing.assert_allclose(lin.values, split, atol=1e-12)

    def test_integral_of_convolution_factorizes(self, small_grid):
        g = small_grid
        f = field_from_function(g, lambda x: np.exp(-(x**2)))
        h = field_from_function(g, lambda x: np.exp(-((x - 1) ** 2) / 2))
        lhs = integrate(convolve(f, h))
        rhs = integrate(f) * integrate(h)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSpectralDerivative:
    def test_constant_is_zero(self, small_grid):
        g = small_grid
        d = spectral_derivative(Field(g, np.full(g.shape, 3.7)), 0)
        np.testing.assert_allclose(d.values, 0.0, atol=1e-12)

    def test_fundamental_mode(self):
        g = Grid(1, 1024, 16.0)
        f = field_from_function(g, lambda x: np.sin(np.pi * x / g.half_width))
        d = spectral_derivative(f, 0)
        expect = (np.pi / g.half_width) * np.cos(
            np.pi * g.axis_coordinates() / g.half_width
        )
        np.testing.assert_allclose(d.values, expect, atol=1e-10)

    def test_linearity(self, small_grid):
        g = small_grid
        f = field_from_function(g, lambda x: np.sin(np.pi * x / 8))
        h = field_from_function(g, lambda x: np.cos(np.pi * x / 4))
        lhs = spectral_derivative(Field(g, 2.0 * f.values - 5.0 * h.values), 0)
        rhs = 2.0 * spectral_derivative(f, 0).values - 5.0 * spectral_derivative(h, 0).values
        np.testing.assert_allclose(lhs.values, rhs, atol=1e-12)

    def test_axis_out_of_range(self, small_grid):
        with pytest.raises(ValueError):
            spectral_derivative(Field(small_grid, np.zeros(small_grid.shape)), 1)

    def test_matches_finite_differences_at_second_order(self):
        # smooth but not band-limited: FD error is O(h^2), so halving h
        # should divide the disagreement by about 4
        def fd_error(n):
            g = Grid(1, n, 16.0)
            x = g.axis_coordinates()
            f = np.exp(np.sin(np.pi * x / g.half_width))
            d_spec = spectral_derivative(Field(g, f), 0).values
            d_fd = (np.roll(f, -1) - np.roll(f, 1)) / (2 * g.spacing)
            return np.max(np.abs(d_fd - d_spec))

        ratio = fd_error(512) / fd_error(1024)
        assert 3.5 <= ratio <= 4.5

    def test_2d_axes(self):
        g = Grid(2, 64, 4.0)
        xx, yy = g.coordinate_mesh()
        f = Field(g, np.sin(np.pi * xx / 4) * np.cos(np.pi * yy / 2))
        d0 = spectral_derivative(f, 0)
        expect = (np.pi / 4) * np.cos(np.pi * xx / 4) * np.cos(np.pi * yy / 2)
        np.testing.assert_allclose(d0.values, expect, atol=1e-10)


class TestEtaKernel:
    def test_level_zero_origin(self, small_grid):
        k = eta_kernel(0, 5.0, small_grid)
        assert k.values[0 if small_grid.axis_coordinates()[0] == 0 else np.argmin(
            np.abs(small_grid.axis_coordinates()))] == 1.0

    def test_origin_scaling(self, small_grid):
        g = small_grid
        i0 = np.argmin(np.abs(g.axis_coordinates()))
        for j in (0, 3, 6):
            assert eta_kernel(j, 4.0, g).values[i0] == 2.0**j

    def test_unit_distance_value(self, small_grid):
        g = small_grid
        x = g.axis_coordinates()
        i1 = np.argmin(np.abs(x - 1.0))
        for m in (2.0, 3.0, 7.0):
            assert eta_kernel(0, m, g).values[i1] == pytest.approx(2.0**-m)

    def test_minimum_image_symmetry(self):
        g = Grid(1, 256, 4.0)
        k = eta_kernel(1, 3.0, g)
        # wrapping makes the sample symmetric under x -> -x on the torus
        np.testing.assert_allclose(k.values[1:], k.values[1:][::-1], atol=1e-15)

    def test_negative_level_rejected(self, small_grid):
        with pytest.raises(ValueError):
            eta_kernel(-1, 3.0, small_grid)


class TestBoundaryDeviation:
    def test_constant_passes(self, small_grid):
        assert boundary_deviation(Field(small_grid, np.full(small_grid.shape, 2.0))) == 0.0

    def test_decaying_passes(self, small_grid):
        f = field_from_function(small_grid, lambda x: np.exp(-(x**2)))
        assert boundary_deviation(f) < 1e-10

    def test_generic_periodic_fails(self, small_grid):
        f = field_from_function(
            small_grid, lambda x: np.sin(np.pi * x / small_grid.half_width))
        assert boundary_deviation(f) > 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6), st.floats(1.5, 8.0))
def test_eta_kernel_bounded_by_origin(j, m):
    g = Grid(1, 256, 4.0)
    k = eta_kernel(j, m, g)
    assert np.all(k.values <= 2.0**j + 1e-12)
    assert np.all(k.values > 0)


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _mesh_min_image_radius(grid):
    # the wrapped distance accumulated over full coordinate meshes
    period = 2.0 * grid.half_width
    acc = np.zeros(grid.shape)
    for m in grid.coordinate_mesh():
        d = np.abs(m)
        d = np.minimum(d, period - d)
        acc += d * d
    return np.sqrt(acc)


def _mode_mesh(grid, half=False):
    # fftfreq on every axis, or on the half spectrum rfftfreq on the last
    n = grid.points_per_axis
    k = np.fft.fftfreq(n, d=1.0 / n)
    last = np.fft.rfftfreq(n, d=1.0 / n) if half else k
    return (last,) if grid.dim == 1 else tuple(np.meshgrid(k, last, indexing="ij"))


def _mesh_mode_magnitude(grid, half=False):
    acc = 0.0
    for m in _mode_mesh(grid, half):
        acc = acc + m * m
    return np.sqrt(acc)


def _mesh_convolve(f, g):
    # the (-1)^k origin phase taken from the integer mode meshes of the
    # half spectrum
    grid = f.grid
    axes = range(grid.dim)
    phase = np.ones(grid.shape[:-1] + (grid.points_per_axis // 2 + 1,))
    for k in _mode_mesh(grid, half=True):
        phase = phase * np.where(k.astype(np.int64) % 2 == 0, 1.0, -1.0)
    spec = (np.fft.rfftn(f.values, axes=axes) * np.fft.rfftn(g.values, axes=axes)
            * phase)
    return np.fft.irfftn(spec, s=grid.shape, axes=axes) * grid.cell


GRID_TABLE_CASES = [(dim, n, half_width) for dim in (1, 2)
                    for n in (8, 16, 32, 64, 128, 256)
                    for half_width in (1.0, 5.0, 16.0)]


class TestSeparableTables:
    """The per-axis tables equal the full-mesh formulas bit for bit."""

    @pytest.mark.parametrize("dim,n,half_width", GRID_TABLE_CASES)
    def test_min_image_radius(self, dim, n, half_width):
        g = Grid(dim, n, half_width)
        assert _bitwise_equal(g.min_image_radius(), _mesh_min_image_radius(g))

    @pytest.mark.parametrize("dim,n,half_width", GRID_TABLE_CASES)
    def test_mode_magnitude(self, dim, n, half_width):
        g = Grid(dim, n, half_width)
        assert _bitwise_equal(g.mode_magnitude(), _mesh_mode_magnitude(g))

    @pytest.mark.parametrize("dim,n,half_width", GRID_TABLE_CASES)
    def test_half_mode_magnitude(self, dim, n, half_width):
        # the half spectrum is the full lattice's columns 0..N/2
        g = Grid(dim, n, half_width)
        half = g._half_mode_magnitude()
        assert _bitwise_equal(half, _mesh_mode_magnitude(g, half=True))
        assert _bitwise_equal(half, g.mode_magnitude()[..., : n // 2 + 1])

    @pytest.mark.parametrize("dim,n", [(1, 64), (1, 1024), (2, 32), (2, 128)])
    def test_convolve_phase(self, dim, n):
        g = Grid(dim, n, 5.0)
        rng = np.random.default_rng(n + dim)
        f = Field(g, rng.normal(size=g.shape))
        h = Field(g, rng.normal(size=g.shape))
        assert _bitwise_equal(convolve(f, h).values, _mesh_convolve(f, h))
