"""The spectral layer's work arrays change no value and free no less memory.

Every spectral operator transforms real fields over the half spectrum
(``rfftn``/``irfftn``), writing into work arrays that the call allocates
once and reuses.  Each result here is pinned bitwise against a copy of the
fresh-output formula (every product formed in a new array, every transform
writing a new output), kept in this file as the reference, on a 1-D
4096-node grid and on 64^2 and 256^2 grids.  The input generators
synthesize on the same half spectrum, pinned the same way, and every value
they draw agrees with their full complex formulas within 16 eps max|f|.
The blocks are contiguous arrays that later levels leave alone, and the
peak traced allocation of ``block_sequence`` and ``verify_mixed_eta`` is
bounded.
"""

import math
import tracemalloc

import numpy as np
import pytest

from varbesov import cli
from varbesov.commutator import VectorField, _commutators, _gradient
from varbesov.duality import _shaped_candidate
from varbesov.exponents import (constant_exponent, cos_bump_exponent,
                                log_smooth_exponent)
from varbesov.grid import (Field, Grid, convolve, eta_kernel, integrate,
                           spectral_derivative)
from varbesov.lebesgue import luxemburg_norm
from varbesov.littlewood_paley import (_blocks, _eta_convolutions,
                                       besov_norm, block_sequence,
                                       build_resolution, lp_block,
                                       smooth_step,
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
#
# ``half`` selects the rfftn/irfftn half spectrum that the operators use (the
# bitwise pins) or the full complex lattice (the agreement checks below).


def forward(values, half=True):
    if half:
        return np.fft.rfftn(values, axes=range(values.ndim))
    return np.fft.fftn(values)


def inverse(spec, grid, half=True):
    if half:
        return np.fft.irfftn(spec, s=grid.shape, axes=range(grid.dim))
    return np.fft.ifftn(spec).real


def ref_modes(grid, axis, half=True):
    """Mode indices along ``axis``: fftfreq, except rfftfreq along the last
    axis of the half spectrum."""
    n = grid.points_per_axis
    if half and axis == grid.dim - 1:
        return np.fft.rfftfreq(n, d=1.0 / n)
    return np.fft.fftfreq(n, d=1.0 / n)


def ref_phase(grid, half=True):
    shape = grid.shape
    if half:
        shape = shape[:-1] + (grid.points_per_axis // 2 + 1,)
    parity = np.indices(shape).sum(axis=0) % 2
    return np.where(parity == 0, 1.0, -1.0)


def ref_blocks(f, mults, half=True):
    spec = forward(f.values, half)
    return [inverse(mult * spec, f.grid, half) for mult in mults]


def ref_convolve(f, g, half=True):
    spec = (forward(f.values, half) * forward(g.values, half)
            * ref_phase(f.grid, half))
    return inverse(spec, f.grid, half) * f.grid.cell


def ref_derivative(grid, spec, axis, half=True):
    k = ref_modes(grid, axis, half)
    k[np.abs(k) == grid.nyquist_index] = 0.0
    xi = (1j * np.pi * k / grid.half_width).reshape(
        (-1,) + (1,) * (grid.dim - 1 - axis))
    return inverse(xi * spec, grid, half)


def ref_commutators(v, f, mults, half=True):
    grid = f.grid
    spec = forward(f.values, half)
    inner = [forward(c.values * ref_derivative(grid, spec, k, half), half)
             for k, c in enumerate(v)]
    out = []
    for mult in mults:
        block_spec = forward(inverse(mult * spec, grid, half), half)
        acc = np.zeros(grid.shape)
        for k, c in enumerate(v):
            acc += c.values * ref_derivative(grid, block_spec, k, half)
            acc -= inverse(mult * inner[k], grid, half)
        out.append(acc)
    return out


def half_shape(grid):
    return grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)


def folded(grid, table):
    """The half spectrum of Re ifftn(S) for the coefficients ``table``, a
    dict {mode tuple: S(mode)}: S(k) / 2 at k and conj S(k) / 2 at -k,
    wherever the last index is 0..N/2 modulo N."""
    n = grid.points_per_axis
    spec = np.zeros(half_shape(grid), dtype=complex)
    for k, c in table.items():
        for mode, value in ((k, c / 2), (tuple(-i for i in k), np.conj(c) / 2)):
            if mode[-1] % n <= n // 2:
                spec[tuple(i % n for i in mode)] += value
    return spec


def ref_draw(grid, kmax, key, envelope, half=True):
    draw_kmax = kmax - BAND_MARGIN if envelope else kmax
    coeff = _coefficient_table(np.random.default_rng(key), draw_kmax, grid.dim)
    n = grid.points_per_axis
    if grid.dim == 1:
        table = {(k,): coeff[k] for k in range(draw_kmax + 1)}
    else:
        table = {(i1, k2): coeff[i1, idx2]
                 for i1 in range(draw_kmax + 1)
                 for idx2, k2 in enumerate(range(-draw_kmax, draw_kmax + 1))}
    if half:
        spec = folded(grid, table)
    else:
        spec = np.zeros(grid.shape, dtype=complex)
        for k, c in table.items():
            spec[tuple(i % n for i in k)] = c
    vals = inverse(spec, grid, half) * grid.node_count
    if envelope:
        spec = forward(vals * gaussian_envelope(grid), half)
        kmag = grid.mode_magnitude()
        if half:
            kmag = kmag[..., : n // 2 + 1]
        spec[kmag > kmax] = 0.0
        vals = inverse(spec, grid, half)
    return vals / math.sqrt(float(np.sum(vals ** 2)) * grid.cell)


def ref_shaped(fs, p, seed, half=True):
    grid = fs.grid
    kmax = max(4, grid.points_per_axis // 64)
    rng = np.random.default_rng(seed)
    p_vals = np.where(np.isfinite(p.values), p.values, 4.0)
    out = []
    for f in fs:
        coeff = rng.normal(size=2 * (kmax + 1)).view(np.complex128)
        table = {(0,) * (grid.dim - 1) + (k,): c for k, c in enumerate(coeff)}
        if half:
            smooth = inverse(folded(grid, table), grid)
        else:
            spec = np.zeros(grid.shape, dtype=complex)
            for k, c in table.items():
                spec[k] = c
            smooth = inverse(spec, grid, half=False)
        smooth -= smooth.min()
        smooth += 0.05 * (smooth.max() - smooth.min() + 1e-30)
        scale = f.max_abs()
        shape = (np.abs(f.values) + 1e-3 * (scale + 1e-30)) ** (p_vals - 1.0)
        out.append(smooth * shape)
    return out


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
    want = ref_blocks(f, rou.multipliers)
    got = block_sequence(f, rou)
    for j in range(rou.levels):
        assert same_bits(got[j].values, want[j])
        assert same_bits(lp_block(f, rou, j).values, want[j])


def test_besov_norm_blocks_match_fresh_outputs(case):
    f, rou, p, q = case["f"], case["rou"], case["p"], case["q"]
    for s in (constant_exponent(f.grid, 1.0), cos_bump_exponent(f.grid, 0.3, 0.9)):
        weighted = FieldSequence(tuple(
            Field(f.grid, np.exp2(j * s.values) * b)
            for j, b in enumerate(ref_blocks(f, rou.multipliers))))
        assert besov_norm(f, s, p, q, rou) == mixed_norm(weighted, p, q)


def test_convolve_and_derivatives_match_fresh_outputs(case):
    f = case["f"]
    grid = f.grid
    kernel = eta_kernel(2, grid.dim + 2.0, grid)
    assert same_bits(convolve(kernel, f).values, ref_convolve(kernel, f))
    spec = forward(f.values)
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
    rou = case["rou"]
    got = _commutators(v, case["f"], rou, range(rou.levels))
    want = ref_commutators(v, case["f"], rou.multipliers)
    for g, w in zip(got, want):
        assert same_bits(g.values, w)


def test_shaped_candidates_match_fresh_outputs(case):
    grid, p = case["grid"], case["p"]
    fs = band_limited_sequence(grid, 3, case["band"], 13, case["envelope"])
    got = _shaped_candidate(fs, p, np.random.default_rng(5))
    for g, want in zip(got, ref_shaped(fs, p, 5)):
        assert same_bits(g.values, want)


@pytest.mark.parametrize("config", [
    {"grid": {"points_per_axis": 256}, "levels": 6, "trials": 1},
    {"grid": {"dim": 2, "points_per_axis": 128}, "levels": 5, "trials": 1,
     "suites": ["lebesgue", "littlewood_paley"]},
], ids=["line256-all-suites", "plane128-plane-suites"])
def test_runs_make_no_full_complex_transform(config, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full complex transform")

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    report = cli.run(config)
    assert report.records


# ---- agreement with the full complex transforms -------------------------
#
# The half spectrum drops only the conjugate modes, so every operator equals
# its complex full-lattice formula up to rounding, inputs with Nyquist
# content on 4- and 8-node grids included.


def complex_multipliers(grid, top):
    kmag = grid.mode_magnitude()
    inner = smooth_step(kmag)
    mults = [inner]
    for j in range(1, top + 1):
        outer = smooth_step(kmag / 2.0 ** j)
        mults.append(outer - inner)
        inner = outer
    return mults


def border_constant_field(grid, rng):
    """Normal noise with its one-node boundary slab set to the corner
    value, so it passes the periodization guard on a 4- or 8-node grid."""
    v = rng.normal(size=grid.shape)
    for axis in range(grid.dim):
        np.moveaxis(v, axis, 0)[[0, -1]] = v.flat[0]
    return Field(grid, v)


@pytest.fixture(scope="module",
                params=sorted(CASES) + [(1, 4), (1, 8), (2, 4), (2, 8)],
                ids=lambda p: p if isinstance(p, str) else f"{p[0]}d-n{p[1]}")
def agreement_case(request):
    if request.param in CASES:
        grid, top, band, envelope = CASES[request.param]
        f = band_limited_field(grid, band, 3, envelope=envelope)
        return grid, top, f, vector_field(
            {"grid": grid, "band": band, "envelope": envelope})
    dim, n = request.param
    grid = Grid(dim, n, 2.0)
    rng = np.random.default_rng([dim, n])
    f = border_constant_field(grid, rng)
    v = VectorField(tuple(border_constant_field(grid, rng) for _ in range(dim)))
    # the top level J with 2^(J+1) at the Nyquist index N/2
    return grid, n.bit_length() - 3, f, v


def test_generators_match_complex_formulas(case):
    # the fold is exact, so each drawn value is the full complex synthesis's
    # up to the transforms' rounding
    grid, band, envelope, p = (case["grid"], case["band"], case["envelope"],
                               case["p"])
    eps = np.finfo(float).eps

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 16 * eps * np.max(np.abs(want))

    for key in ([3, 1], [11, 0], [11, 2]):
        close(band_limited_field(grid, band, key, envelope).values,
              ref_draw(grid, band, key, envelope, half=False))
    fs = band_limited_sequence(grid, 3, band, 13, envelope)
    for g, want in zip(_shaped_candidate(fs, p, np.random.default_rng(5)),
                       ref_shaped(fs, p, 5, half=False)):
        close(g.values, want)


@pytest.mark.parametrize("dim", [1, 2])
def test_shaped_candidates_fold_the_nyquist_mode(dim):
    # on 8 nodes the first row's kmax = 4 is the Nyquist mode, which the
    # fold keeps at Re S like the zero mode
    grid = Grid(dim, 8, 2.0)
    fs = FieldSequence((border_constant_field(grid, np.random.default_rng(dim)),))
    p = constant_exponent(grid, 2.0)
    got = _shaped_candidate(fs, p, np.random.default_rng(5))[0].values
    assert same_bits(got, ref_shaped(fs, p, 5)[0])
    want = ref_shaped(fs, p, 5, half=False)[0]
    assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * np.max(np.abs(want))


def test_operators_match_complex_formulas(agreement_case):
    grid, top, f, v = agreement_case
    rou = build_resolution(grid, top)
    mults = complex_multipliers(grid, top)
    atol = 1e-13 * f.max_abs()

    def close(got, want):
        assert np.max(np.abs(got - want)) <= atol

    blocks = block_sequence(f, rou)
    for j, want in enumerate(ref_blocks(f, mults, half=False)):
        close(blocks[j].values, want)
        close(lp_block(f, rou, j).values, want)
    spec = forward(f.values, half=False)
    for axis in range(grid.dim):
        close(spectral_derivative(f, axis).values,
              ref_derivative(grid, spec, axis, half=False))
    m = grid.dim + 2.0
    kernel = eta_kernel(1, m, grid)
    close(convolve(kernel, f).values, ref_convolve(kernel, f, half=False))
    _, smoothed = _eta_convolutions(grid, m, [f] * (top + 1))
    for j, g in enumerate(smoothed):
        close(g.values, ref_convolve(eta_kernel(j, m, grid), f, half=False))
    for got, want in zip(_commutators(v, f, rou, range(rou.levels)),
                         ref_commutators(v, f, mults, half=False)):
        close(got.values, want)


# ---- layout and memory --------------------------------------------------


def test_blocks_are_owned_contiguous_copies(case):
    f, rou = case["f"], case["rou"]
    produced = []
    for block in _blocks(f, rou, range(rou.levels)):
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


# One 128^2 float array is 128 KiB, a 128 x 65 half-spectrum complex one
# 130 KiB.


def test_block_sequence_peak_memory(plane128):
    # six 128 KiB blocks, two half-spectrum work arrays and the half-spectrum
    # array irfftn allocates for its leading-axis pass make 1,158 KiB
    # (1,162 KiB measured); full complex work arrays took 1,299 KiB, and
    # fresh outputs 2,308 KiB (every block a .real view pinning a complex
    # array, plus the product and transform temporaries)
    peak = peak_kib(lambda: block_sequence(plane128["f"], plane128["rou"]))
    assert peak <= 1280


def test_verify_mixed_eta_peak_memory(plane128):
    # with every kernel alive through both solves, and a new spectrum per
    # transform, the peak was 3,390 KiB; one kernel at a time and no work
    # array during the solves keeps it to 2,230 KiB, set by the solves
    c = plane128
    peak = peak_kib(lambda: verify_mixed_eta(c["fs"], c["p"], c["q"], 4.0))
    assert peak <= 2450
