"""Kernel agreement.

The modular kernels must equal the scalar definition ``lebesgue.omega``
applied node by node.  The anchored-pair kernels: the per-offset table forms
must reproduce their per-pair loop forms, bitwise where both take the same
roundings, and ``eta_shift_curve`` must reproduce bitwise a sweep of every
pair through the same elementwise operations.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov import _kernels as K
from varbesov import exponents
from varbesov.exponents import (cos_bump_exponent, local_log_holder,
                                log_smooth_exponent, two_level_exponent)
from varbesov.grid import Grid
from varbesov.lebesgue import omega
from varbesov.littlewood_paley import _anchors_for_pairs


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(1234)
    n = 512
    af = np.abs(rng.normal(size=n)) * np.exp(-np.linspace(-4, 4, n) ** 2)
    af[::97] = 0.0
    with np.errstate(divide="ignore"):
        log_af = np.log(af)
    p = 1.0 + 2.0 * rng.random(n)
    p[::31] = np.inf
    q = 1.0 + 3.0 * rng.random(n)
    q[::17] = np.inf
    rq = np.where(np.isinf(q), 0.0, 1.0 / q)
    coords = np.linspace(-8.0, 8.0, n, endpoint=False)[:, None].copy()
    return {"af": af, "log_af": log_af, "p": p, "q": q, "rq": rq,
            "coords": coords}


def _omega_sum(t, p, cell):
    return sum(omega(ti, pi) for ti, pi in zip(t, p)) * cell


def test_scaled_modular_twins_agree(sample):
    log_af, p, rq = sample["log_af"], sample["p"], sample["rq"]
    for log_lam in (-1.0, 0.0, 0.7):
        got = K.scaled_modular(log_af, p, rq, 0.1, log_lam, 0.03125)
        t = np.exp(log_af - rq * log_lam - 0.1)
        assert got == pytest.approx(_omega_sum(t, p, 0.03125), rel=1e-12)
        # the budget argument changes nothing
        assert K.scaled_modular(log_af, p, rq, 0.1, log_lam, 0.03125, 4.0) == got


def test_scaled_modular_infinity_branch(sample):
    log_af = sample["log_af"].copy()
    log_af[31] = 2.0  # p[31] is inf and exp(2 - small) > 1
    got = K.scaled_modular(log_af, sample["p"], sample["rq"], 0.0, 0.0, 1.0)
    assert got == _omega_sum(np.exp(log_af), sample["p"], 1.0) == math.inf


def test_plain_modular_twins_agree(sample):
    af = sample["af"]
    for t in (af, af / af.max()):  # some p = inf node above 1, then none
        got = K.plain_modular(t, sample["p"], 0.03125)
        want = _omega_sum(t, sample["p"], 0.03125)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("all_inf", [False, True], ids=["q", "q_inf"])
def test_esssup_twins_agree(sample, all_inf):
    # with q = inf everywhere and no t above 1 the supremum is 0.0
    q = np.full_like(sample["q"], np.inf) if all_inf else sample["q"]
    for log_mu in (-0.5, 0.0, 1.0, float(sample["log_af"].max())):
        got = K.esssup_modular(sample["log_af"], q, log_mu)
        want = max(omega(ti, qi) for ti, qi in
                   zip(np.exp(sample["log_af"] - log_mu), q))
        if math.isinf(got) or math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [1, 4096, 8192, 8193, 65536, 3 * 8192 + 5])
def test_dot_sums_8192_node_pieces_in_order(n):
    # up to 8192 nodes one np.dot; above, the dots of 8192-node pieces and
    # of the tail summed in order, each below OpenBLAS's 10,000-element
    # threading threshold
    rng = np.random.default_rng(n)
    a, b = rng.random(n), rng.random(n)
    want = 0.0
    for i in range(0, n, 8192):
        want += float(np.dot(a[i:i + 8192], b[i:i + 8192]))
    assert K.dot(a, b) == want
    if n <= 8192:
        assert K.dot(a, b) == float(np.dot(a, b))


def test_dot_of_a_strided_lattice_view():
    # every second node per axis of a 256^2 lattice has no 1-D view: the
    # dot is taken row by row
    rng = np.random.default_rng(5)
    a = rng.random((256, 256))[::2, ::2]
    b = rng.random((128, 128))
    assert not a.flags["C_CONTIGUOUS"]
    assert K.dot(a, b) == pytest.approx(math.fsum((a * b).ravel()), rel=1e-13)


def test_log_holder_twins_agree(sample):
    g = np.cos(sample["coords"][:, 0] / 3.0)
    anchors = np.arange(0, 512, 7, dtype=np.int64)
    a = K.log_holder_max(g, sample["coords"], anchors, 16.0)
    b = K._log_holder_max_loop(g, sample["coords"], anchors, 16.0)
    assert a == pytest.approx(b, rel=1e-13)


def test_eta_shift_twins_agree(sample):
    alpha = 0.5 + 0.3 * np.sin(sample["coords"][:, 0])
    anchors = np.arange(0, 512, 11, dtype=np.int64)
    out_a = K.eta_shift_curve(alpha, sample["coords"], anchors, 16.0, 0.9, 6)
    out_b = np.zeros(6)
    K._eta_shift_curve_loop(alpha, sample["coords"], anchors, 16.0, 0.9, out_b)
    np.testing.assert_allclose(out_a, out_b, rtol=1e-13)


# ---------------------------------------------------------------------------
# anchored-pair kernels on per-offset tables against the per-pair loops
# ---------------------------------------------------------------------------

def _fields(grid):
    """A log-Holder exponent and a wobbly smoothness field on the grid."""
    x = grid.flat_coordinates()
    r = np.sqrt(np.sum(x * x, axis=1))
    g = 2.0 + 1.0 / np.log(math.e + r) + 0.05 * np.sin(2.0 * x[:, 0])
    alpha = 0.5 + 0.3 * np.cos(np.pi * r / grid.half_width)
    alpha += 0.02 * np.sin(3.0 * x[:, -1])
    return x, g, alpha


def _loop_curve(alpha, coords, anchors, period, big_r, jcount):
    out = np.zeros(jcount)
    K._eta_shift_curve_loop(alpha, coords, anchors, period, big_r, out)
    return out


def test_log_holder_full_pairs_bitwise():
    grid = Grid(1, 512, 8.0)
    x, g, _ = _fields(grid)
    anchors = np.arange(512, dtype=np.int64)
    assert K.log_holder_max(g, x, anchors, 16.0) == \
        K._log_holder_max_loop(g, x, anchors, 16.0)
    # N anchors that are not every node keep to their own pairs
    assert K.log_holder_max(g, x, np.full(512, 7), 16.0) == \
        K.log_holder_max(g, x, anchors[7:8], 16.0) < \
        K.log_holder_max(g, x, anchors, 16.0)


def test_log_holder_full_pairs_4096_match_per_anchor_path():
    # the pure-python loop needs about half a minute for 4096^2 pairs; the
    # anchored path (pinned to the loop below) sees the same pair set when
    # the anchors come in another order
    grid = Grid(1, 4096, 16.0)
    x, g, _ = _fields(grid)
    full = np.arange(4096, dtype=np.int64)
    assert K.log_holder_max(g, x, full, 32.0) == \
        K.log_holder_max(g, x, full[::-1], 32.0)


def test_log_holder_anchored_1d_bitwise():
    grid = Grid(1, 4096, 16.0)
    x, g, _ = _fields(grid)
    anchors = np.arange(0, 4096, 16, dtype=np.int64)
    assert K.log_holder_max(g, x, anchors, 32.0) == \
        K._log_holder_max_loop(g, x, anchors, 32.0)


def test_pair_kernels_anchored_2d():
    # the 256-anchor rule at N = 128 has stride 64: anchors sit at column
    # offsets 0 and 64, so the axis-1 roll is exercised; every ninth anchor
    # keeps both offsets and the loop short
    grid = Grid(2, 128, 8.0)
    x, g, alpha = _fields(grid)
    anchors = np.arange(0, grid.node_count, 64, dtype=np.int64)[::9]
    assert {int(a) % 128 for a in anchors} == {0, 64}
    assert K.log_holder_max(g, x, anchors, 16.0) == \
        K._log_holder_max_loop(g, x, anchors, 16.0)
    np.testing.assert_allclose(
        K.eta_shift_curve(alpha, x, anchors[:12], 16.0, 4.0, 5),
        _loop_curve(alpha, x, anchors[:12], 16.0, 4.0, 5), rtol=1e-13)


def test_eta_shift_anchored_1d():
    grid = Grid(1, 4096, 16.0)
    x, _, alpha = _fields(grid)
    anchors = np.arange(0, 4096, 16, dtype=np.int64)[::8]
    np.testing.assert_allclose(
        K.eta_shift_curve(alpha, x, anchors, 32.0, 3.0, 9),
        _loop_curve(alpha, x, anchors, 32.0, 3.0, 9), rtol=1e-13)


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32)])
def test_pair_kernels_non_dyadic_half_width(dim, n):
    # with L = 5 the node coordinates are not all exact binary fractions, so
    # the offset table and the per-pair distances may differ in the last bit
    grid = Grid(dim, n, 5.0)
    x, g, alpha = _fields(grid)
    anchors = np.arange(0, grid.node_count, max(1, grid.node_count // 64),
                        dtype=np.int64)
    assert K.log_holder_max(g, x, anchors, 10.0) == pytest.approx(
        K._log_holder_max_loop(g, x, anchors, 10.0), rel=1e-13)
    np.testing.assert_allclose(
        K.eta_shift_curve(alpha, x, anchors, 10.0, 3.0, 4),
        _loop_curve(alpha, x, anchors, 10.0, 3.0, 4), rtol=1e-13)


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 64)])
def test_pair_kernels_constant_fields(dim, n):
    grid = Grid(dim, n, 8.0)
    x = grid.flat_coordinates()
    c = np.full(grid.node_count, 1.5)
    full = np.arange(grid.node_count, dtype=np.int64)
    strided = full[::37]
    for anchors in (full, strided):
        assert K.log_holder_max(c, x, anchors, 16.0) == 0.0
    for big_r in (0.0, 3.0):
        for anchors in (full, strided):
            curve = K.eta_shift_curve(c, x, anchors, 16.0, big_r, 7)
            assert np.array_equal(curve, np.ones(7))


def _old_offset_table(grid):
    """The offset table as the (N, dim) coordinate pass formed it: every
    node's offsets from node 0, wrapped, squared and summed per row."""
    coords = grid.flat_coordinates()
    period = 2.0 * grid.half_width
    dd = np.abs(coords - coords[0])
    dd = np.minimum(dd, period - dd)
    table = np.sqrt(np.sum(dd * dd, axis=1)).reshape(grid.shape)
    return np.concatenate((table, table), axis=0)


@pytest.mark.parametrize("half_width", [8.0, 10.0, 16.0])
@pytest.mark.parametrize("dim, n", [(1, 512), (1, 4096), (2, 16), (2, 64),
                                    (2, 256)])
def test_offset_table_matches_the_coordinate_pass_bitwise(dim, n, half_width):
    grid = Grid(dim, n, half_width)
    got = K._offset_table(K._lattice(grid.flat_coordinates(),
                                     2.0 * grid.half_width))
    assert got.tobytes() == _old_offset_table(grid).tobytes()


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 16)])
def test_constant_eta_shift_matches_the_table_path_bitwise(dim, n):
    # the constant answer (ones for R >= 0) against every pair swept through
    # the kernel's elementwise operations; R < 0 and NaN take the sweep
    grid = Grid(dim, n, 8.0)
    x = grid.flat_coordinates()
    c = np.full(grid.node_count, 0.7)
    full = np.arange(grid.node_count, dtype=np.int64)
    for anchors in (full, full[::37], full[:0]):
        for big_r in (0.0, 0.5, 3.0, 4.0, -1.0, math.nan):
            got = K.eta_shift_curve(c, x, anchors, 16.0, big_r, 5)
            want = _all_pairs_curve(c, x, anchors, 16.0, big_r, 5)
            assert got.tobytes() == want.tobytes()


def test_constant_fields_are_answered_before_any_table(monkeypatch):
    def no_table(grid):
        raise AssertionError("offset table built for a constant field")

    monkeypatch.setattr(K, "_offset_table", no_table)
    grid = Grid(2, 64, 8.0)
    x = grid.flat_coordinates()
    c = np.full(grid.node_count, 2.0)
    anchors = np.arange(0, grid.node_count, 16, dtype=np.int64)
    assert K.log_holder_max(c, x, anchors, 16.0) == 0.0
    assert np.array_equal(K.eta_shift_curve(c, x, anchors, 16.0, 3.0, 6),
                          np.ones(6))
    # the lattice check still comes first
    with pytest.raises(ValueError):
        K.log_holder_max(c, x, anchors, 20.0)
    with pytest.raises(ValueError):
        K.eta_shift_curve(c, x, anchors, 20.0, 3.0, 6)


_BOUND_GRIDS = [Grid(1, 512, 16.0), Grid(1, 256, 5.0), Grid(2, 32, 8.0),
                Grid(2, 16, 3.0)]


@settings(max_examples=40)
@given(grid=st.sampled_from(_BOUND_GRIDS),
       family=st.sampled_from(["log_smooth", "cos_bump", "two_level"]),
       low=st.floats(1.0, 8.0), spread=st.floats(0.0, 20.0),
       radius=st.floats(0.1, 4.0))
def test_log_holder_bound_dominates_the_measured_constant(
        grid, family, low, spread, radius):
    if family == "log_smooth":
        q = log_smooth_exponent(grid, low, spread)
    elif family == "cos_bump":
        q = cos_bump_exponent(grid, low, spread)
    else:
        q = two_level_exponent(grid, low + spread, low, radius)
    rq = q.reciprocals()
    assert K.log_holder_bound(rq, grid) >= local_log_holder(rq, grid)


@pytest.mark.parametrize("grid", _BOUND_GRIDS + [Grid(1, 1, 8.0), Grid(2, 1, 3.0)])
def test_log_holder_bound_dominates_nearest_neighbour_noise(grid):
    # noise puts the largest difference next to the smallest distance,
    # where the bound is tightest; one node per axis weighs no pair
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = rng.random(grid.node_count)
        bound = K.log_holder_bound(g, grid)
        assert bound >= local_log_holder(g, grid)
        assert bound >= K.log_holder_max(g, grid.flat_coordinates(),
                                         np.arange(grid.node_count),
                                         2.0 * grid.half_width)
        assert (bound == 0.0) == (grid.points_per_axis == 1)


def test_pair_kernel_signatures_are_pinned():
    # perfbench/spans.py traces these and ``local_log_holder`` by name and
    # reads the kernels' arguments by position (``_WORK``: arguments 0 and 2
    # of both, argument 5 of eta_shift_curve); a reorder or rename breaks
    # ``--trace 1`` while every other test stays green
    assert list(inspect.signature(K.log_holder_max).parameters) == [
        "g", "coords", "anchors", "period"]
    assert list(inspect.signature(K.eta_shift_curve).parameters) == [
        "alpha", "coords", "anchors", "period", "big_r", "jcount"]
    assert callable(exponents.local_log_holder)


def test_log_holder_full_pairs_invariant_under_grid_rolls():
    grid = Grid(1, 1024, 8.0)
    x, g, _ = _fields(grid)
    full = np.arange(1024, dtype=np.int64)
    base = K.log_holder_max(g, x, full, 16.0)
    for shift in (1, 7, 512, 1023):
        assert K.log_holder_max(np.roll(g, shift), x, full, 16.0) == base


def test_pair_kernels_reject_non_lattice_coordinates():
    grid = Grid(1, 256, 8.0)
    x, g, alpha = _fields(grid)
    anchors = np.arange(0, 256, 8, dtype=np.int64)
    jittered = x + 1e-3 * np.sin(x)
    flipped = x[::-1].copy()
    plane = Grid(2, 16, 8.0).flat_coordinates()
    bad = [
        (jittered, 16.0),           # not equally spaced
        (flipped, 16.0),            # lattice nodes out of order
        (x, 20.0),                  # period not the grid's box
        (x[:200], 16.0),            # node count not a power of two
        (plane[:240], 16.0),        # not a square lattice
    ]
    for coords, period in bad:
        vals = g[:coords.shape[0]]
        with pytest.raises(ValueError):
            K.log_holder_max(vals, coords, anchors[:4], period)
        with pytest.raises(ValueError):
            K.eta_shift_curve(vals, coords, anchors[:4], period, 3.0, 3)


# ---------------------------------------------------------------------------
# eta_shift_curve against a sweep of every pair
# ---------------------------------------------------------------------------

def _all_pairs_curve(alpha, coords, anchors, period, big_r, jcount):
    """Every anchor/node pair through the kernel's elementwise operations,
    at the distances of its offset table: no shortcut."""
    table2 = K._offset_table(K._lattice(coords, period))
    side = table2.shape[0] // 2
    table = table2[:side]
    idx = np.indices(table.shape).reshape(table.ndim, -1)
    out = np.zeros(jcount)
    for j in range(jcount):
        kt = (1.0 + 2.0 ** j * table) ** (-float(big_r))
        for a in anchors:
            offsets = tuple((idx - idx[:, a:a + 1]) % side)
            v = np.exp2(j * (alpha[a] - alpha)) * kt[offsets]
            out[j] = max(out[j], float(v.max()))
    return out


def _assert_all_pairs_bitwise(grid, alpha, big_r, jcount, anchors=None):
    x = grid.flat_coordinates()
    if anchors is None:
        anchors = _anchors_for_pairs(grid)
    period = 2.0 * grid.half_width
    got = K.eta_shift_curve(alpha, x, anchors, period, big_r, jcount)
    want = _all_pairs_curve(alpha, x, anchors, period, big_r, jcount)
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("factor", [1.0, 1.5])
def test_eta_shift_2d_matches_all_pairs(factor):
    # the 256-anchor rule at N = 64 has stride 16: anchors at column
    # offsets 0, 16, 32 and 48, so offset rows are rolled along axis 1
    grid = Grid(2, 64, 8.0)
    alpha = cos_bump_exponent(grid, 0.3, 0.9)
    big_r = factor * alpha.local_log_holder()
    _assert_all_pairs_bitwise(grid, alpha.values.ravel(), big_r, 5)


@pytest.mark.parametrize("half_width", [16.0, 5.0])
def test_eta_shift_1d_matches_all_pairs(half_width):
    grid = Grid(1, 512, half_width)
    alpha = log_smooth_exponent(grid, 0.5, 1.0)
    _assert_all_pairs_bitwise(grid, alpha.values.ravel(),
                              alpha.local_log_holder(), 8)


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 64)])
def test_eta_shift_across_the_seam(dim, n):
    # anchors 0 and N-1 sit on the periodic seam: their offsets wrap around
    grid = Grid(dim, n, 8.0)
    alpha = cos_bump_exponent(grid, 0.3, 0.9)
    last = grid.node_count - 1
    _assert_all_pairs_bitwise(grid, alpha.values.ravel(),
                              alpha.local_log_holder(), 6,
                              np.array([0, last, 1, last - 1]))


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 64)])
def test_eta_shift_at_zero_r(dim, n):
    # R = 0 makes every K entry 1: the curve is the largest 2^{j osc}
    grid = Grid(dim, n, 8.0)
    alpha = cos_bump_exponent(grid, 0.3, 0.9)
    curve = _assert_all_pairs_bitwise(grid, alpha.values.ravel(), 0.0, 5)
    assert curve[0] == 1.0 and np.all(curve[1:] > 1.0)


def test_eta_shift_large_oscillation():
    # j * osc passes 1024 at the top levels, where exp2 overflows to inf
    grid = Grid(1, 64, 8.0)
    alpha = 200.0 * (grid.flat_coordinates()[:, 0] > 0.0)
    with np.errstate(over="ignore"):
        curve = _assert_all_pairs_bitwise(grid, alpha, 3.0, 8)
    assert curve[0] == 1.0 and math.isinf(curve[-1])

