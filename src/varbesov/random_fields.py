"""Deterministic generators for smooth band-limited test data.

Fields are synthesized from a fixed table of Fourier coefficients drawn on
modes |k| <= kmax - MARGIN, enveloped by a Gaussian so they decay far below
the periodization guard at the box edge, then projected onto |k| <= kmax.
The margin leaves room for the envelope's spectral smear, so the projection
removes only ~1e-12 of mass and the boundary decay survives it.  The
coefficient table depends only on the seed, never on the grid size, so the
same seed reproduces the same continuum function at any resolution; this is
what makes refinement comparisons meaningful.
"""

import math

import numpy as np

from .grid import Field, integrate
from .mixed import FieldSequence

# sigma = L / 7.7 and a 19-mode margin balance the two error sources at
# exp(-Mpi/2) ~ 1e-13: boundary leakage of the envelope vs mass cut by the
# band projection of the envelope's spectral smear.
ENVELOPE_FRACTION = 7.7
BAND_MARGIN = 19


def _key(base, *extra):
    """Compose a deterministic rng key from an int or a sequence of ints."""
    if isinstance(base, (list, tuple)):
        parts = [int(b) for b in base]
    else:
        parts = [int(base)]
    return parts + [int(e) for e in extra]


def _coefficient_table(rng, kmax, dim):
    if dim == 1:
        re = rng.normal(size=kmax + 1)
        im = rng.normal(size=kmax + 1)
        return (re + 1j * im) * np.exp(-0.5 * (np.arange(kmax + 1) / kmax) ** 2)
    k1, k2 = np.meshgrid(np.arange(kmax + 1), np.arange(-kmax, kmax + 1),
                         indexing="ij")
    re = rng.normal(size=k1.shape)
    im = rng.normal(size=k1.shape)
    mag = np.sqrt(k1 ** 2 + k2 ** 2)
    coeff = (re + 1j * im) * np.exp(-0.5 * (mag / kmax) ** 2)
    coeff[mag > kmax] = 0.0
    return coeff


def gaussian_envelope(grid):
    """exp(-|x|^2 / (2 sigma^2)) with sigma = L / ENVELOPE_FRACTION, built as
    a product of per-axis factors."""
    sigma = grid.half_width / ENVELOPE_FRACTION
    return grid.axis_product(
        np.exp(-grid.axis_coordinates() ** 2 / (2.0 * sigma ** 2)))


def band_limited_field(grid, kmax, rng_key, envelope=True):
    """Smooth field with spectrum inside |k| <= kmax, normalized so the
    quadrature of its square is one (a resolution-independent scale)."""
    return _field_source(grid, kmax, envelope)(rng_key)


def _field_source(grid, kmax, envelope):
    """``band_limited_field`` at one (grid, kmax, envelope) as a function of
    the rng key; the envelope and the out-of-band mask are built once for
    every field it draws, and its transforms share one complex work array
    over the full mode lattice."""
    if 2 * kmax > grid.nyquist_index:
        raise ValueError(f"kmax={kmax} incompatible with Nyquist index "
                         f"{grid.nyquist_index}")
    draw_kmax = kmax - BAND_MARGIN if envelope else kmax
    if draw_kmax < 1:
        raise ValueError(
            f"kmax={kmax} leaves no modes under the projection margin "
            f"{BAND_MARGIN}; need kmax >= {BAND_MARGIN + 1}"
        )
    if envelope:
        env = gaussian_envelope(grid)
        out_of_band = grid.mode_magnitude() > kmax
    n = grid.points_per_axis
    spec = np.empty(grid.shape, dtype=np.complex128)

    def draw(rng_key):
        rng = np.random.default_rng(rng_key)
        coeff = _coefficient_table(rng, draw_kmax, grid.dim)
        spec.fill(0.0)
        if grid.dim == 1:
            spec[: draw_kmax + 1] = coeff
        else:
            spec[:draw_kmax + 1, np.arange(-draw_kmax, draw_kmax + 1) % n] = coeff
        # undo the 1/N^n of ifftn so the continuum function is grid-independent
        vals = np.fft.ifftn(spec, out=spec).real * grid.node_count
        if envelope:
            # project the enveloped field back onto |k| <= kmax, copied
            # into the work array and transformed in place; vals is then a
            # view of the work array
            np.copyto(spec, vals * env)
            np.fft.fftn(spec, out=spec)
            spec[out_of_band] = 0.0
            vals = np.fft.ifftn(spec, out=spec).real
        f = Field(grid, vals)
        scale = math.sqrt(integrate(Field(grid, f.values ** 2)))
        if scale == 0.0:
            return Field(grid, vals.copy())
        return Field(grid, f.values / scale)

    return draw


def band_limited_sequence(grid, levels, kmax, seed, envelope=True):
    """Sequence of independent band-limited fields with mild random
    per-level amplitudes."""
    draw = _field_source(grid, kmax, envelope)
    fields = []
    for j in range(levels):
        amp_rng = np.random.default_rng(_key(seed, j, 977))
        amp = amp_rng.uniform(0.3, 1.0)
        f = draw(_key(seed, j))
        fields.append(Field(grid, amp * f.values))
    return FieldSequence(tuple(fields))


def band_limited_vector_field(grid, kmax, seed, envelope=True):
    """Component fields for a vector field; independent components, so the
    divergence is generically nonzero."""
    draw = _field_source(grid, kmax, envelope)
    return [draw(_key(seed, 31 + axis)) for axis in range(grid.dim)]
