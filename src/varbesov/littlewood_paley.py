"""Dyadic filter bank, Besov norms with variable indices, eta-kernel and
Hardy-type inequality checks.

The resolution of unity lives on the half spectrum of the integer FFT mode
lattice (``grid`` holds the layout): the base
profile equals 1 up to |k| = 1 and vanishes beyond |k| = 2, and level j
rescales it by 2^{-j}.  Summing levels 0..J telescopes to 1 on |k| <= 2^J
exactly, so band-limited inputs are decomposed with zero truncation error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .exponents import local_log_holder
from .grid import (Field, _convolve_spectra, _eta_kernel, _filtered,
                   _origin_phase, _spectrum, _work_array, integrate,
                   require_same_grid)
from .lebesgue import luxemburg_norm
from .mixed import FieldSequence, mixed_norm
from .reports import gated_report, graded_report

ETA_TREND_BOUND = 4.0


def smooth_step(t):
    """C-infinity cutoff: 1 for t <= 1, 0 for t >= 2, exp(-1/t)-blended
    between (the plateau values are exact floats)."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    bm = np.exp(-1.0 / (2.0 - t[mid]))
    bp = np.exp(-1.0 / (t[mid] - 1.0))
    out[mid] = bm / (bm + bp)
    return out


@dataclass(frozen=True)
class ResolutionOfUnity:
    """Fourier-side multipliers of the dyadic decomposition, levels 0..J."""

    grid: object
    multipliers: tuple = field(repr=False)

    @property
    def levels(self):
        return len(self.multipliers)

    @property
    def top_level(self):
        return len(self.multipliers) - 1


def build_resolution(grid, top_level):
    """Build the smooth dyadic resolution of unity up to level J = top_level.

    Requires 2^(J+1) at or below the grid Nyquist index so every multiplier
    support is representable.
    """
    if top_level < 0:
        raise ValueError("top_level must be nonnegative")
    if 2 ** (top_level + 1) > grid.nyquist_index:
        raise ValueError(
            f"level {top_level} needs modes up to {2 ** (top_level + 1)}, "
            f"grid Nyquist index is {grid.nyquist_index}"
        )
    kmag = grid._half_mode_magnitude()
    inner = smooth_step(kmag)
    mults = [inner]
    for j in range(1, top_level + 1):
        outer = smooth_step(kmag / 2.0 ** j)
        mults.append(outer - inner)
        inner = outer
    return ResolutionOfUnity(grid, tuple(mults))


def lp_block(f, rou, j):
    """Frequency-localized piece of f at scale 2^j (inverse transform of
    multiplier j times the spectrum)."""
    if not 0 <= j < rou.levels:
        raise ValueError(f"block index {j} out of range 0..{rou.top_level}")
    return next(_blocks(f, rou, (j,)))


def _blocks(f, rou, levels):
    """The blocks of f at the given levels in turn, from one forward
    transform.  Every level's product is formed in one work array, and each
    block is written into a contiguous real array of its own."""
    require_same_grid(f, rou)
    spec = _spectrum(f.values, _work_array(f.grid))
    work = _work_array(f.grid)
    for j in levels:
        yield Field(f.grid, _filtered(rou.multipliers[j], spec, work,
                                      np.empty(f.grid.shape)))


def block_sequence(f, rou):
    return FieldSequence(tuple(_blocks(f, rou, range(rou.levels))))


def weighted_norm(blocks, s, p, q):
    """Mixed norm of the smoothness-weighted sequence (2^{j s(x)} b_j(x))_j
    of the dyadic sequence ``blocks`` (levels 0, 1, ... in order; any
    iterable of fields, read once)."""
    require_same_grid(s, p, q)
    if not s.is_finite_valued():
        raise ValueError("smoothness exponent must be finite-valued")
    return mixed_norm(FieldSequence(tuple(
        Field(b.grid, np.exp2(j * s.values) * b.values)
        for j, b in enumerate(blocks))), p, q)


def besov_norm(f, s, p, q, rou):
    """Mixed norm of the weighted block sequence (2^{j s(x)} block_j(x))_j.

    Inputs should be band-limited below 2^J; beyond that the dyadic tail is
    truncated without a quantified error.
    """
    return weighted_norm(_blocks(f, rou, range(rou.levels)), s, p, q)


def partition_of_unity(rou):
    """Largest |sum_j psi_j(k) - 1| over the modes |k| <= 2^J, graded
    against 0: the multipliers telescope to 1 there."""
    kmag = rou.grid._half_mode_magnitude()
    total = sum(rou.multipliers)
    residual = float(np.max(np.abs(total[kmag <= 2.0 ** rou.top_level] - 1.0)))
    return graded_report("lp.partition_of_unity", residual, 0.0, 1e-12)


def single_block_identity(f, s, p, q, rou):
    """|besov_norm / luxemburg_norm - 1| graded against 0: for f with spectrum
    in |k| <= 1, where psi_0 = 1, block 0 is f and the Besov norm is |f|_p."""
    rel = abs(besov_norm(f, s, p, q, rou) / luxemburg_norm(f, p) - 1.0)
    return graded_report("lp.single_block_identity", rel, 0.0, 1e-7)


def _anchors_for_pairs(grid):
    n = grid.node_count
    if grid.dim == 1 and grid.points_per_axis <= 1024:
        return np.arange(n, dtype=np.int64)
    stride = max(1, n // 256)
    return np.arange(0, n, stride, dtype=np.int64)


def check_lemma_eta_shift(alpha, big_r, top_level):
    """Smallest constant c with 2^{j a(x)} eta_{j,m+R}(x-y) <= c 2^{j a(y)}
    eta_{j,m}(x-y) over sampled (x, y, j) triples, graded on the spread
    c_max / c_min of the per-level constants, at most 2.

    The kernel order m cancels in the two-sided ratio, so the measured c
    depends only on alpha, R and the levels.  Requires R at or above the
    measured local log-Holder constant of alpha; the details hold the
    per-level constants, their largest c_max and that measured c_loc.
    """
    if not alpha.is_finite_valued():
        raise ValueError("alpha must be finite-valued")
    grid = alpha.grid
    c_loc = alpha.local_log_holder()
    if big_r < c_loc - 1e-12:
        raise ValueError(
            f"R={big_r} below the measured local log-Holder constant {c_loc:.6g}"
        )
    anchors = _anchors_for_pairs(grid)
    curve = _kernels.eta_shift_curve(
        alpha.values.ravel(), grid.flat_coordinates(), anchors,
        2.0 * grid.half_width, float(big_r), top_level + 1,
    )
    c_min = float(np.min(curve))
    c_max = float(np.max(curve))
    spread = c_max / c_min if c_min > 0 else math.inf
    return graded_report(
        "lp.eta_shift", spread, 2.0, 0.0,
        details={"per_level": curve.tolist(), "c_max": c_max, "c_loc": c_loc})


def _eta_convolutions(grid, m, fields):
    """Kernel masses h^n sum(eta_{j,m}) and convolutions eta_{j,m} *
    fields[j], level by level: each kernel is built, weighed, transformed
    and dropped in turn.  A field repeated from the previous level is not
    transformed again.  The transforms write into two work arrays that are
    gone when this returns, before the caller solves any norm."""
    phase, radius = _origin_phase(grid), grid.min_image_radius()
    kernel_spec, field_spec = _work_array(grid), _work_array(grid)
    masses, smoothed, last = [], [], None
    for j, f in enumerate(fields):
        kernel = _eta_kernel(j, m, grid, radius)
        masses.append(integrate(kernel))
        if f is not last:
            _spectrum(f.values, field_spec)
            last = f
        smoothed.append(_convolve_spectra(
            grid, _spectrum(kernel.values, kernel_spec), field_spec, phase))
    return masses, smoothed


def verify_eta_convolution(f, p, m, top_level):
    """Per-level ratios |eta_{j,m} * f|_p / |f|_p.

    The discrete kernel masses h^n sum(eta_{j,m}) bound the constant-exponent
    case by Young's inequality; the budget c_report doubles the largest mass
    to leave headroom for log-Holder variable exponents.  Two gates, in
    order: the largest ratio against c_report within 1e-6 (Young), then the
    trend max/min of the ratios against ETA_TREND_BOUND (no growth in j).
    """
    grid = f.grid
    if m <= grid.dim:
        raise ValueError(f"kernel order m must exceed the dimension {grid.dim}")
    if top_level < 0:
        raise ValueError("top_level must be nonnegative")
    base = luxemburg_norm(f, p)
    levels = top_level + 1
    masses, smoothed = _eta_convolutions(grid, m, [f] * levels)
    c_report = 2.0 * max(masses)
    if base == 0.0:
        return graded_report(
            "lp.eta_convolution", 0.0, c_report, 1e-6,
            details={"ratios": [0.0] * levels, "masses": masses}, trivial=True)
    ratios = [luxemburg_norm(g, p) / base for g in smoothed]
    r_max, r_min = max(ratios), min(ratios)
    trend = r_max / r_min if r_min > 0 else math.inf
    return gated_report(
        "lp.eta_convolution",
        [(r_max, c_report, 1e-6), (trend, ETA_TREND_BOUND, 0.0)],
        details={"ratios": ratios, "masses": masses, "trend": trend})


def _mixed_eta_guard(rq, grid, m):
    """Check m > n + c_loc(1/q); returns the details key and value the
    check was decided on.

    ``_kernels.log_holder_bound`` bounds c_loc(1/q) from above in one pass
    over 1/q, so when m exceeds n plus the bound, the sweep of every
    anchored pair cannot change the answer and is not run.
    """
    bound = _kernels.log_holder_bound(rq, grid)
    if m > grid.dim + bound:
        return "c_loc_rq_bound", bound
    c_loc_rq = local_log_holder(rq, grid)
    if m <= grid.dim + c_loc_rq:
        raise ValueError(
            f"kernel order m={m} must exceed n + c_loc(1/q) = "
            f"{grid.dim + c_loc_rq:.6g}"
        )
    return "c_loc_rq", c_loc_rq


def verify_mixed_eta(fs, p, q, m):
    """Mixed-norm ratio |(eta_{j,m} * f_j)_j| / |(f_j)_j| against twice the
    largest kernel mass.

    Requires m > n + c_loc(1/q), the variable-q admissibility margin, and
    raises ValueError otherwise.  The guard is decided by an upper bound on
    c_loc(1/q) when it can be (``details["c_loc_rq_bound"]``), and by the
    measured constant otherwise (``details["c_loc_rq"]``).
    """
    grid = fs.grid
    c_key, c_loc = _mixed_eta_guard(q.reciprocals(), grid, m)
    base = mixed_norm(fs, p, q)
    masses, smoothed = _eta_convolutions(grid, m, fs.entries)
    c_report = 2.0 * max(masses)
    if base == 0.0:
        return graded_report("lp.mixed_eta", 0.0, c_report, 1e-6,
                             details={"ratio": 0.0, c_key: c_loc}, trivial=True)
    ratio = mixed_norm(FieldSequence(tuple(smoothed)), p, q) / base
    return graded_report(
        "lp.mixed_eta", ratio, c_report, 1e-6,
        details={"ratio": ratio, c_key: c_loc, "masses": masses},
    )


def hardy_transform(gs, a):
    """Geometric-weight transforms over the truncated level range:
    G_j = sum_{m >= j} a^{m-j} g_m and H_j = sum_{m <= j} a^{j-m} g_m."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    levels = range(gs.levels)
    big_g = (sum(a ** (m - j) * gs[m].values for m in levels[j:]) for j in levels)
    big_h = (sum(a ** (j - m) * gs[m].values for m in levels[:j + 1]) for j in levels)
    return tuple(FieldSequence(tuple(Field(gs.grid, v) for v in big))
                 for big in (big_g, big_h))


def hardy_bound(a, q_minus):
    """min over gamma in q^- * (0.05, 0.10, ..., 0.95) of 1/c(gamma) with
    c = (1-a^gamma)^{1/q^-} (1-a^{1-gamma/q^-}), gamma in (0, q^-)."""
    if not q_minus > 0.0:
        raise ValueError("q^- must be positive")
    gamma = q_minus * np.linspace(0.05, 0.95, 19)
    c = (1.0 - a ** gamma) ** (1.0 / q_minus) \
        * (1.0 - a ** (1.0 - gamma / q_minus))
    return float(np.min(1.0 / c))


def hardy_sweep(sequences, p, qs, a_values):
    """One ``hardy.a{a}_q{q^-}`` record per (a, q), a outer: the worst G and
    H ratio over ``sequences`` against ``hardy_bound(a, q^-)``, within 1e-6.

    ``sequences`` is read once.  Each takes one base norm per q and one
    transform pair per a, dropped before the next a's is formed.  A zero
    sequence measures nothing; a case that measures nothing is trivial.
    """
    if not all(0.0 < a < 1.0 for a in a_values):
        raise ValueError("a must lie in (0, 1)")
    worst = [[[0.0, 0.0] for _ in qs] for _ in a_values]  # largest G, H ratio
    measured = False
    for gs in sequences:
        bases = [mixed_norm(gs, p, q) for q in qs]
        if 0.0 in bases:
            continue
        measured = True
        for a, by_q in zip(a_values, worst):
            transforms = hardy_transform(gs, a)
            for q, base, w in zip(qs, bases, by_q):
                for side, big in enumerate(transforms):
                    w[side] = max(w[side], mixed_norm(big, p, q) / base)
            del transforms
    return [graded_report(
        f"hardy.a{a}_q{q.p_minus}", max(r_g, r_h), hardy_bound(a, q.p_minus),
        1e-6, details={"ratio_G": r_g, "ratio_H": r_h, "a": a,
                       "q_minus": q.p_minus}, trivial=not measured)
        for a, by_q in zip(a_values, worst) for q, (r_g, r_h) in zip(qs, by_q)]
