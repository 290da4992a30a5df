"""Periodic sampling grids standing in for R^n at desk scale.

A ``Grid`` is a uniform periodic box [-L, L)^n with N nodes per axis (N a
power of two).  Convolution and differentiation are spectral, so both are
exact for fields whose discrete spectrum sits strictly below the Nyquist
index N/2.  Frequencies are counted in integer FFT mode indices throughout;
the spectral derivative converts to the physical angular frequency pi*k/L.

Spectral layout.  Every field is real, so the spectral operators keep only
the half spectrum of ``np.fft.rfftn``: an array of shape N^{n-1} x (N/2+1)
whose leading axes hold the fftfreq modes and whose last axis holds the
modes 0..N/2.  The modes left out are the complex conjugates of those kept,
and ``np.fft.irfftn`` restores them.  That is exact only for a Hermitian
product, which holds here because every multiplier is even in k (the dyadic
multipliers and the origin phase) or odd and purely imaginary with its
Nyquist mode zeroed (the derivative).  This module owns the layout: the
work arrays, the mode tables and the transforms on them.  Only the
random-input generators of ``random_fields`` write coefficients into the
same half-spectrum work arrays and synthesize through ``_inverse``.
"""

import math
from dataclasses import dataclass, field

import numpy as np


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box [-L, L)^n, n in {1, 2}."""

    dim: int
    points_per_axis: int
    half_width: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.points_per_axis):
            raise ValueError("points_per_axis must be a power of two")
        if not 0 < self.half_width < math.inf:
            raise ValueError("half_width must be finite and positive")

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dim

    @property
    def node_count(self):
        return self.points_per_axis ** self.dim

    @property
    def cell(self):
        """Quadrature weight h^n of one node."""
        return self.spacing ** self.dim

    @property
    def box_measure(self):
        return (2.0 * self.half_width) ** self.dim

    @property
    def nyquist_index(self):
        return self.points_per_axis // 2

    def axis_coordinates(self):
        """Node coordinates along one axis, from -L to L-h."""
        n = self.points_per_axis
        return -self.half_width + self.spacing * np.arange(n)

    def coordinate_mesh(self):
        """Tuple of broadcast coordinate arrays, one per axis."""
        return tuple(np.meshgrid(*[self.axis_coordinates()] * self.dim,
                                 indexing="ij"))

    def flat_coordinates(self):
        """(node_count, dim) array of node coordinates."""
        mesh = self.coordinate_mesh()
        return np.stack([m.ravel() for m in mesh], axis=1)

    def _along_axis(self, vector, axis):
        """A per-axis vector of length N shaped to broadcast along ``axis``
        of the grid."""
        return vector.reshape((-1,) + (1,) * (self.dim - 1 - axis))

    def axis_product(self, factor):
        """factor[i_1] * ... * factor[i_n] at node (i_1, ..., i_n), multiplied
        onto ones in axis order."""
        return self._product_of_axes([factor] * self.dim)

    def _product_of_axes(self, vectors):
        """vectors[0][i_1] * ... * vectors[n-1][i_n] over the lattice the
        per-axis vectors span, multiplied onto ones in axis order."""
        out = np.ones(tuple(len(v) for v in vectors))
        for axis, v in enumerate(vectors):
            out = out * self._along_axis(v, axis)
        return out

    def _axis_norm(self, vector):
        """sqrt(vector[i_1]^2 + ... + vector[i_n]^2) at node (i_1, ..., i_n),
        summed onto zeros in axis order."""
        return self._norm_of_axes([vector] * self.dim)

    def _norm_of_axes(self, vectors):
        """sqrt(vectors[0][i_1]^2 + ... + vectors[n-1][i_n]^2) over the
        lattice the per-axis vectors span, summed onto zeros in axis
        order."""
        acc = np.zeros(tuple(len(v) for v in vectors))
        for axis, v in enumerate(vectors):
            acc += self._along_axis(v * v, axis)
        return np.sqrt(acc)

    def min_image_radius(self):
        """Distance of each node from the origin under box wrapping."""
        period = 2.0 * self.half_width
        d = np.abs(self.axis_coordinates())
        d = np.minimum(d, period - d)
        return self._axis_norm(d)

    def axis_modes(self):
        """Integer FFT mode indices along one axis (fftfreq ordering)."""
        n = self.points_per_axis
        return np.fft.fftfreq(n, d=1.0 / n)

    def mode_magnitude(self):
        """|k| over the FFT index lattice."""
        return self._axis_norm(self.axis_modes())

    @property
    def _half_shape(self):
        """Shape of the half spectrum: N along every axis but the last,
        which holds the N/2 + 1 modes 0..N/2."""
        return self.shape[:-1] + (self.points_per_axis // 2 + 1,)

    def _half_modes(self, axis):
        """Integer mode indices along ``axis`` of the half spectrum."""
        if axis == self.dim - 1:
            n = self.points_per_axis
            return np.fft.rfftfreq(n, d=1.0 / n)
        return self.axis_modes()

    def _half_mode_magnitude(self):
        """|k| over the half spectrum."""
        return self._norm_of_axes(
            [self._half_modes(axis) for axis in range(self.dim)])


def default_grid(dim):
    """Desk-scale grid: n=1 -> N=4096, L=16; n=2 -> N=256, L=8."""
    if dim == 1:
        return Grid(1, 4096, 16.0)
    if dim == 2:
        return Grid(2, 256, 8.0)
    raise ValueError(f"dim must be 1 or 2, got {dim}")


@dataclass(frozen=True)
class Field:
    """Real-valued samples on a grid.  Stored values are always finite."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    def max_abs(self):
        return float(np.max(np.abs(self.values)))


def require_same_grid(*objs):
    g = objs[0].grid
    for o in objs[1:]:
        if o.grid != g:
            raise ValueError("grid mismatch")
    return g


def field_from_function(grid, fn):
    """Sample fn over the grid; fn receives one coordinate array per axis."""
    return Field(grid, fn(*grid.coordinate_mesh()))


def integrate(f):
    """Quadrature h^n * sum(f); exact for trigonometric polynomials below
    the Nyquist band."""
    return float(np.sum(f.values)) * f.grid.cell


def _work_array(grid):
    """An uninitialized half-spectrum complex array, for one call's
    transforms to write into."""
    return np.empty(grid._half_shape, dtype=np.complex128)


def _spectrum(values, work):
    """Half-spectrum forward transform of the real ``values``, written into
    ``work``; returns ``work``."""
    return np.fft.rfftn(values, axes=range(values.ndim), out=work)


def _inverse(spec, out):
    """Real inverse transform of the half spectrum ``spec``, written into
    ``out``; returns ``out``."""
    return np.fft.irfftn(spec, s=out.shape, axes=range(out.ndim), out=out)


def _filtered(multiplier, spec, work, out):
    """Inverse transform of ``multiplier * spec``, the product formed in the
    half-spectrum ``work`` (which may be ``spec``) and the real result
    written into ``out``; returns ``out``."""
    np.multiply(multiplier, spec, out=work)
    return _inverse(work, out)


def convolve(f, g):
    """h^n-scaled circular convolution via the FFT, with the coordinate
    origin x = 0 as the convolution origin.

    Index 0 of the arrays sits at coordinate -L, so the raw index-space
    product is rolled by half the box per axis ((-1)^k on the spectrum);
    the discrete unit-mass impulse at the origin node (1/h^n there, else 0)
    is then the identity.  Matters beyond aesthetics: translations change
    variable-exponent norms.
    """
    grid = require_same_grid(f, g)
    return _convolve_spectra(grid, _spectrum(f.values, _work_array(grid)),
                             _spectrum(g.values, _work_array(grid)),
                             _origin_phase(grid))


def _origin_phase(grid):
    """(-1)^(k_1 + ... + k_n) over the half spectrum.  N is a power of two,
    so each mode index has the parity of its array position."""
    return grid._product_of_axes(
        [np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
         for size in grid._half_shape])


def _convolve_spectra(grid, spec_f, spec_g, phase):
    """``convolve`` from the two forward transforms and the origin phase;
    the product is formed in ``spec_f``, which it overwrites."""
    np.multiply(spec_f, spec_g, out=spec_f)
    out = _filtered(phase, spec_f, spec_f, np.empty(grid.shape))
    out *= grid.cell
    return Field(grid, out)


def spectral_derivative(f, axis):
    """Exact derivative of band-limited fields along one axis.

    Fourier multiplier i*xi with xi = pi*k/L; the Nyquist mode is zeroed to
    keep derivatives of real fields real.
    """
    g = f.grid
    if not 0 <= axis < g.dim:
        raise ValueError(f"axis {axis} out of range for dim {g.dim}")
    spec = _spectrum(f.values, _work_array(g))
    return Field(g, _derivative_of_spectrum(g, spec, axis, spec,
                                            np.empty(g.shape)))


def _derivative_of_spectrum(grid, spec, axis, work, out):
    """``spectral_derivative`` values from the field's forward transform,
    formed as ``_filtered`` does: the product in ``work`` (which may be
    ``spec``), the real derivative in ``out``, which it returns."""
    k = grid._half_modes(axis)
    k[np.abs(k) == grid.nyquist_index] = 0.0
    xi = np.pi * k / grid.half_width
    return _filtered(grid._along_axis(1j * xi, axis), spec, work, out)


def eta_kernel(j, m, grid):
    """Sample 2^{jn} (1 + 2^j |x|)^{-m} with the box-wrapped distance.

    The value at the origin is exactly 2^{jn}.
    """
    return _eta_kernel(j, m, grid, grid.min_image_radius())


def _eta_kernel(j, m, grid, radius):
    """``eta_kernel`` on a precomputed ``grid.min_image_radius()``."""
    if j < 0:
        raise ValueError("level j must be nonnegative")
    n = grid.dim
    vals = 2.0 ** (j * n) * (1.0 + 2.0 ** j * radius) ** (-float(m))
    return Field(grid, vals)


BOUNDARY_SLAB = 1.0 / 32.0


def boundary_deviation(f):
    """How far the field wanders from its corner value inside the boundary
    slab (the strip of nodes with any coordinate within BOUNDARY_SLAB * 2L
    of the box edge), relative to the field scale.

    Constant fields (exactly periodic) score 0; fields decaying to a constant
    near |x| = L score ~0; generic periodic fields score O(1).  This is the
    periodization guard for verification inputs.
    """
    v = f.values
    n = f.grid.points_per_axis
    w = max(1, int(n * BOUNDARY_SLAB))
    interior = np.zeros(n)
    interior[w:n - w] = 1.0
    # a node is in the slab unless every one of its coordinates is interior
    slab = v[f.grid.axis_product(interior) == 0.0]
    corner = v[(0,) * f.grid.dim]
    dev = float(np.max(np.abs(slab - corner)))
    scale = f.max_abs()
    return dev / scale if scale > 0 else 0.0
