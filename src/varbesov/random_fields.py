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

from .grid import Field, _filtered, _inverse, _spectrum, _work_array, integrate
from .mixed import FieldSequence

# sigma = L / 7.7 and a 19-mode margin balance the two error sources at
# exp(-Mpi/2) ~ 1e-13: boundary leakage of the envelope vs mass cut by the
# band projection of the envelope's spectral smear.
ENVELOPE_FRACTION = 7.7
BAND_MARGIN = 19


def input_band(grid, levels):
    """Mode budget for inputs to a J = ``levels`` analysis on ``grid``: the
    dealiasing margin 2^J / 4, at least BAND_MARGIN + 1 so the envelope's
    margin leaves modes to draw, and at most min(2^J, N / 4).  Raises
    ValueError naming the binding cap when that ceiling is too low."""
    need = BAND_MARGIN + 1
    ceiling = min(2 ** levels, grid.nyquist_index // 2)
    if ceiling < need:
        name, cap = (("grid.points_per_axis", "points_per_axis / 4")
                     if ceiling == grid.nyquist_index // 2
                     else ("levels", "2^levels"))
        raise ValueError(
            f"{name}: too few modes for boundary-decaying band-limited "
            f"inputs (need {cap} >= {need}, got {ceiling})")
    return min(max(2 ** levels // 4, need), ceiling)


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
    the rng key; the envelope and the in-band indicator are built once for
    every field it draws, and its transforms share one half-spectrum work
    array.

    The coefficient table S is one-sided (k_1 >= 0), and the field is
    Re ifftn(S) scaled by N^n.  Its half spectrum is the fold
    (S(k) + conj S(-k)) / 2 on the modes whose last index is >= 0, so the
    field is the same continuum function as the full complex synthesis, up
    to rounding.
    """
    if 2 * kmax > grid.nyquist_index:
        raise ValueError(f"kmax={kmax} incompatible with Nyquist index "
                         f"{grid.nyquist_index}")
    d = kmax - BAND_MARGIN if envelope else kmax  # the largest drawn mode
    if d < 1:
        raise ValueError(
            f"kmax={kmax} leaves no modes under the projection margin "
            f"{BAND_MARGIN}; need kmax >= {BAND_MARGIN + 1}"
        )
    if envelope:
        env = gaussian_envelope(grid)
        in_band = grid._half_mode_magnitude() <= kmax
    n = grid.points_per_axis
    spec = _work_array(grid)

    def draw(rng_key):
        coeff = _coefficient_table(np.random.default_rng(rng_key), d, grid.dim)
        spec.fill(0.0)
        if grid.dim == 1:
            spec[: d + 1] = 0.5 * coeff
            spec[0] = coeff[0].real
        else:
            spec[: d + 1, : d + 1] = 0.5 * coeff[:, d:]
            spec[-np.arange(d + 1) % n, : d + 1] += 0.5 * coeff[:, d::-1].conj()
        # undo the 1/N^n of the inverse transform so the continuum function
        # is grid-independent
        vals = _inverse(spec, np.empty(grid.shape))
        vals *= grid.node_count
        if envelope:
            # project the enveloped field back onto |k| <= kmax
            vals *= env
            _filtered(in_band, _spectrum(vals, spec), spec, vals)
        scale = math.sqrt(integrate(Field(grid, vals ** 2)))
        return Field(grid, vals / scale if scale > 0.0 else vals)

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
