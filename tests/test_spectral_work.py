"""The spectral layer's work arrays change no value and free no less memory.

Every transform writes into a complex work array that the call allocates
once and reuses.  Each result here is pinned bitwise against a copy of the
fresh-output formula (every product formed in a new array, every transform
writing a new output), kept in this file as the reference, on a 1-D
4096-node grid and on 64^2 and 256^2 grids.  The blocks are contiguous
copies that later levels leave alone, and the peak traced allocation of
``block_sequence`` and ``verify_mixed_eta`` is bounded.
"""

import math
import tracemalloc

import numpy as np
import pytest

from varbesov.commutator import VectorField, _gradient, commutator_sequence
from varbesov.duality import _shaped_candidate
from varbesov.exponents import (constant_exponent, cos_bump_exponent,
                                log_smooth_exponent)
from varbesov.grid import (Field, Grid, convolve, eta_kernel, integrate,
                           spectral_derivative)
from varbesov.lebesgue import luxemburg_norm
from varbesov.littlewood_paley import (_blocks, besov_norm, block_sequence,
                                       build_resolution, lp_block,
                                       verify_eta_convolution,
                                       verify_mixed_eta)
from varbesov.mixed import FieldSequence, mixed_norm
from varbesov.random_fields import (BAND_MARGIN, _coefficient_table,
                                    band_limited_field, band_limited_sequence,
                                    band_limited_vector_field,
                                    gaussian_envelope)

# (grid, top level J, band, enveloped inputs); a 64^2 grid has no room for
# the envelope's projection margin, so its inputs are plain band-limited
CASES = {
    "line4096": (Grid(1, 4096, 16.0), 8, 64, True),
    "plane64": (Grid(2, 64, 8.0), 4, 12, False),
    "plane256": (Grid(2, 256, 8.0), 6, 20, True),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    grid, top, band, envelope = CASES[request.param]
    return {
        "grid": grid,
        "rou": build_resolution(grid, top),
        "band": band,
        "envelope": envelope,
        "f": band_limited_field(grid, band, 3, envelope=envelope),
        "p": log_smooth_exponent(grid, 2.0, 1.0),
        "q": cos_bump_exponent(grid, 1.5, 1.0),
    }


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


# ---- the fresh-output formulas ----------------------------------------


def ref_phase(grid):
    parity = np.indices(grid.shape).sum(axis=0) % 2
    return np.where(parity == 0, 1.0, -1.0)


def ref_blocks(f, rou):
    spec = np.fft.fftn(f.values)
    return [np.fft.ifftn(mult * spec).real for mult in rou.multipliers]


def ref_convolve(f, g):
    spec = np.fft.fftn(f.values) * np.fft.fftn(g.values) * ref_phase(f.grid)
    return np.fft.ifftn(spec).real * f.grid.cell


def ref_derivative(grid, spec, axis):
    k = grid.axis_modes()
    k[np.abs(k) == grid.nyquist_index] = 0.0
    xi = (1j * np.pi * k / grid.half_width).reshape(
        (-1,) + (1,) * (grid.dim - 1 - axis))
    return np.fft.ifftn(xi * spec).real


def ref_commutators(v, f, rou):
    grid = f.grid
    spec = np.fft.fftn(f.values)
    inner = [np.fft.fftn(c.values * ref_derivative(grid, spec, k))
             for k, c in enumerate(v)]
    out = []
    for mult in rou.multipliers:
        block_spec = np.fft.fftn(np.fft.ifftn(mult * spec).real)
        acc = np.zeros(grid.shape)
        for k, c in enumerate(v):
            acc += c.values * ref_derivative(grid, block_spec, k)
            acc -= np.fft.ifftn(mult * inner[k]).real
        out.append(acc)
    return out


def ref_draw(grid, kmax, key, envelope):
    draw_kmax = kmax - BAND_MARGIN if envelope else kmax
    coeff = _coefficient_table(np.random.default_rng(key), draw_kmax, grid.dim)
    spec = np.zeros(grid.shape, dtype=complex)
    n = grid.points_per_axis
    if grid.dim == 1:
        spec[: draw_kmax + 1] = coeff
    else:
        for i1 in range(draw_kmax + 1):
            for idx2, k2 in enumerate(range(-draw_kmax, draw_kmax + 1)):
                spec[i1, k2 % n] = coeff[i1, idx2]
    vals = np.fft.ifftn(spec).real * grid.node_count
    if envelope:
        spec = np.fft.fftn(vals * gaussian_envelope(grid))
        spec[grid.mode_magnitude() > kmax] = 0.0
        vals = np.fft.ifftn(spec).real
    return vals / math.sqrt(float(np.sum(vals ** 2)) * grid.cell)


def ref_eta_smoothed(f, m, j):
    k = eta_kernel(j, m, f.grid)
    return Field(f.grid, ref_convolve(k, f))


def vector_field(c):
    grid = c["grid"]
    if c["envelope"]:
        return VectorField(tuple(band_limited_vector_field(grid, c["band"], 5)))
    # decaying below the boundary guard without the envelope's margin
    mesh = grid.coordinate_mesh()
    r2 = sum(x * x for x in mesh)
    return VectorField(tuple(
        Field(grid, np.exp(-r2 / 2.0) * np.cos((axis + 1.0) * mesh[0] + mesh[-1]))
        for axis in range(grid.dim)))


# ---- bitwise pins -------------------------------------------------------


def test_blocks_match_fresh_outputs(case):
    f, rou = case["f"], case["rou"]
    want = ref_blocks(f, rou)
    got = block_sequence(f, rou)
    for j in range(rou.levels):
        assert same_bits(got[j].values, want[j])
        assert same_bits(lp_block(f, rou, j).values, want[j])


def test_besov_norm_blocks_match_fresh_outputs(case):
    f, rou, p, q = case["f"], case["rou"], case["p"], case["q"]
    for s in (constant_exponent(f.grid, 1.0), cos_bump_exponent(f.grid, 0.3, 0.9)):
        weighted = FieldSequence(tuple(
            Field(f.grid, np.exp2(j * s.values) * b)
            for j, b in enumerate(ref_blocks(f, rou))))
        assert besov_norm(f, s, p, q, rou) == mixed_norm(weighted, p, q)


def test_convolve_and_derivatives_match_fresh_outputs(case):
    f = case["f"]
    grid = f.grid
    kernel = eta_kernel(2, grid.dim + 2.0, grid)
    assert same_bits(convolve(kernel, f).values, ref_convolve(kernel, f))
    spec = np.fft.fftn(f.values)
    gradient = _gradient(f)
    for axis in range(grid.dim):
        want = ref_derivative(grid, spec, axis)
        assert same_bits(spectral_derivative(f, axis).values, want)
        assert same_bits(gradient[axis].values, want)


def test_eta_checks_match_fresh_outputs(case):
    f, p, q, grid = case["f"], case["p"], case["q"], case["grid"]
    m = grid.dim + 2.0
    top = 3
    base = luxemburg_norm(f, p)
    rep = verify_eta_convolution(f, p, m, top)
    assert rep.details["ratios"] == [
        luxemburg_norm(ref_eta_smoothed(f, m, j), p) / base
        for j in range(top + 1)]
    assert rep.details["masses"] == [
        integrate(eta_kernel(j, m, grid)) for j in range(top + 1)]

    fs = band_limited_sequence(grid, 4, case["band"], 9, envelope=case["envelope"])
    smoothed = FieldSequence(tuple(
        ref_eta_smoothed(g, m, j) for j, g in enumerate(fs)))
    rep = verify_mixed_eta(fs, p, q, m)
    assert rep.details["ratio"] == mixed_norm(smoothed, p, q) / mixed_norm(fs, p, q)


def test_random_fields_match_fresh_outputs(case):
    grid, band, envelope = case["grid"], case["band"], case["envelope"]
    assert same_bits(band_limited_field(grid, band, [3, 1], envelope).values,
                     ref_draw(grid, band, [3, 1], envelope))
    fs = band_limited_sequence(grid, 3, band, 11, envelope)
    for j, f in enumerate(fs):
        amp = np.random.default_rng([11, j, 977]).uniform(0.3, 1.0)
        assert same_bits(f.values, amp * ref_draw(grid, band, [11, j], envelope))


def test_commutator_sequence_matches_fresh_outputs(case):
    v = vector_field(case)
    got = commutator_sequence(v, case["f"], case["rou"])
    for g, want in zip(got, ref_commutators(v, case["f"], case["rou"])):
        assert same_bits(g.values, want)


def test_shaped_candidates_match_fresh_outputs(case):
    grid, p = case["grid"], case["p"]
    fs = band_limited_sequence(grid, 3, case["band"], 13, case["envelope"])
    kmax = max(4, grid.points_per_axis // 64)
    rng = np.random.default_rng(5)
    p_vals = np.where(np.isfinite(p.values), p.values, 4.0)
    got = _shaped_candidate(fs, p, np.random.default_rng(5))
    for g, f in zip(got, fs):
        spec = np.zeros(grid.shape, dtype=complex)
        spec.ravel()[: kmax + 1] = rng.normal(size=2 * (kmax + 1)).view(np.complex128)
        smooth = np.fft.ifftn(spec).real
        smooth -= smooth.min()
        smooth += 0.05 * (smooth.max() - smooth.min() + 1e-30)
        scale = f.max_abs()
        shape = (np.abs(f.values) + 1e-3 * (scale + 1e-30)) ** (p_vals - 1.0)
        assert same_bits(g.values, smooth * shape)


# ---- layout and memory --------------------------------------------------


def test_blocks_are_owned_contiguous_copies(case):
    f, rou = case["f"], case["rou"]
    produced = []
    for block in _blocks(f, rou):
        assert block.values.flags["C_CONTIGUOUS"]
        assert block.values.flags["OWNDATA"]
        produced.append((block, block.values.copy()))
    # producing a later level leaves every earlier block as it was
    for block, at_yield in produced:
        assert same_bits(block.values, at_yield)
    assert lp_block(f, rou, 1).values.flags["OWNDATA"]


def peak_kib(fn):
    """Peak traced allocation of one call of ``fn``, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / 1024.0
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def plane128():
    grid = Grid(2, 128, 8.0)
    return {
        "grid": grid,
        "rou": build_resolution(grid, 5),
        "f": band_limited_field(grid, 20, 3),
        "fs": band_limited_sequence(grid, 6, 20, 5),
        "p": log_smooth_exponent(grid, 2.0, 1.0),
        "q": cos_bump_exponent(grid, 1.5, 1.0),
    }


# One 128^2 float array is 128 KiB, a complex one 256 KiB.


def test_block_sequence_peak_memory(plane128):
    # six 128 KiB blocks and two complex work arrays make 1,280 KiB; fresh
    # outputs took 2,308 KiB (every block a .real view pinning a complex
    # array, plus the product and transform temporaries)
    peak = peak_kib(lambda: block_sequence(plane128["f"], plane128["rou"]))
    assert peak <= 1536


def test_verify_mixed_eta_peak_memory(plane128):
    # with every kernel alive through both solves, and a new spectrum per
    # transform, the peak was 3,390 KiB; one kernel at a time and no work
    # array during the solves keeps it to about 2,400 KiB
    c = plane128
    peak = peak_kib(lambda: verify_mixed_eta(c["fs"], c["p"], c["q"], 4.0))
    assert peak <= 2816
