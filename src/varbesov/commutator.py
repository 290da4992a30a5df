"""Transport/frequency-localization commutator and its estimate harness.

The commutator of the transport operator V.grad with the dyadic block at
level j measures how far frequency localization is from commuting with
advection:

    sum_k [ V_k d_k(block_j f) - block_j(V_k d_k f) ].

Constant V and constant f both annihilate it.  Each theorem report
evaluates the weighted mixed norm of the commutator sequence against
several right-hand side aggregates of Besov and Luxemburg norms.  A report
reads both sides through one private ``_Pair`` of (V, f) on its
resolution, which takes one spectrum per field: f's once, each V_k's once
where V's blocks or derivatives are read, each d_k f's once where its
blocks are read, and f div V's once.  Every term is written once in the
pair, and div V has one route there, the sum of the n diagonal derivatives
d_k V_k.
``constant_sweep`` records the empirical ratios of random band-limited
(V, f) instances on the caller's grid and, optionally, repeats each
instance on the refined grid (2N, J+1) to confirm the ratios are
discretization-stable.  No divergence-free structure is assumed anywhere;
the test families have div V != 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField, exponent_from_family, harmonic_sum
from .grid import (Field, Grid, _derivative_of_spectrum, _filtered,
                   _spectrum, _work_array, boundary_deviation,
                   require_same_grid, spectral_derivative)
from .lebesgue import luxemburg_norm
from .littlewood_paley import besov_norm, build_resolution, weighted_norm
from .random_fields import (_key, band_limited_field,
                            band_limited_vector_field, input_band)
from .reports import estimate_reports

DECAY_GUARD = 1e-10


@dataclass(frozen=True)
class VectorField:
    """n sampled components sharing a grid; every component must sit below
    the periodization guard at the box boundary (constants count as exactly
    periodic and pass)."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("vector field needs at least one component")
        g = require_same_grid(*comps)
        if len(comps) != g.dim:
            raise ValueError(f"expected {g.dim} components, got {len(comps)}")
        for i, c in enumerate(comps):
            _check_field_decay(c, f"component {i}")
        object.__setattr__(self, "components", comps)

    @property
    def grid(self):
        return self.components[0].grid

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, k):
        return self.components[k]


def _check_field_decay(f, name):
    dev = boundary_deviation(f)
    if dev > DECAY_GUARD:
        raise ValueError(
            f"{name} violates the boundary decay guard: {dev:.3e} > {DECAY_GUARD:.0e}"
        )


def divergence(v):
    """div V = sum_k d_k V_k, one ``spectral_derivative`` per component:
    the referee that the tests compose (the reports take div V from
    ``_Pair.v_terms``)."""
    return Field(v.grid, sum(spectral_derivative(comp, k).values
                             for k, comp in enumerate(v)))


def commutator(v, f, rou, j):
    """[V.grad, block_j] f = sum_k (V_k d_k block_j f - block_j(V_k d_k f)).

    Products are formed in physical space; callers keep inputs within
    ``random_fields.input_band`` (at most N / 4 modes) so the doubled
    product bandwidth stays alias-free.
    """
    if not 0 <= j < rou.levels:
        raise ValueError(f"block index {j} out of range 0..{rou.top_level}")
    return next(_commutators(v, f, rou, (j,)))


def _commutators(v, f, rou, levels):
    """The commutators at the given levels, from a new ``_Pair``."""
    return _Pair(v, f, rou).commutators(levels)


def commutator_lhs_norm(v, f, s, p, q, rou):
    """Mixed norm of the smoothness-weighted commutator sequence."""
    return _Pair(v, f, rou).lhs(s, p, q)


def _raised(s):
    """The smoothness index s + 1."""
    return ExponentField(s.grid, s.values + 1.0)


class _Pair:
    """V and f on one resolution, each field transformed forward once.

    f's spectrum and gradient are taken on construction and held until the
    commutator sequence, their last reader, takes them; a report reads every
    other f term first.  Each V_k is transformed only in ``v_terms``, one
    component at a time, and its spectrum is gone before any norm of its
    blocks is solved.  Every derivative, block and commutator keeps the bits
    of the per-field operators; the half-spectrum layout stays in here.
    """

    def __init__(self, v, f, rou):
        self.grid = require_same_grid(*v.components, f, rou)
        self.v, self.f, self.rou = v, f, rou
        self._spec = _spectrum(f.values, _work_array(self.grid))
        pieces = self._pieces(self._spec, range(self.grid.dim))
        self.grad_f = [next(pieces) for _ in range(self.grid.dim)]

    def _pieces(self, spec, axes):
        """From the half spectrum ``spec`` of one field: its derivatives
        along ``axes``, then its blocks at levels 0..J, each a new Field with
        the bits of ``spectral_derivative`` and ``lp_block``.  The spectrum
        goes with the generator, so a caller that holds no other reference
        to it solves a norm of the blocks without it."""
        g, work = self.grid, _work_array(self.grid)
        for a in axes:
            yield Field(g, _derivative_of_spectrum(g, spec, a, work, np.empty(g.shape)))
        for multiplier in self.rou.multipliers:
            yield Field(g, _filtered(multiplier, spec, work, np.empty(g.shape)))

    def commutators(self, levels):
        """The commutators at the given levels: one forward transform of
        each V_k d_k f and of each block.  Level j equals
        sum_k V_k d_k lp_block(f, rou, j) - lp_block(V_k d_k f, rou, j)
        bitwise.  Takes f's spectrum and gradient from the pair."""
        g, spec, grad_f = self.grid, self._spec, self.grad_f
        del self._spec, self.grad_f
        inner_specs = [_spectrum(c.values * d.values, _work_array(g))
                       for c, d in zip(self.v, grad_f)]
        work, real = _work_array(g), np.empty(g.shape)
        block, block_spec = np.empty(g.shape), _work_array(g)
        for j in levels:
            multiplier = self.rou.multipliers[j]
            _spectrum(_filtered(multiplier, spec, work, block), block_spec)
            acc = np.zeros(g.shape)
            for k, c in enumerate(self.v):
                acc += c.values * _derivative_of_spectrum(g, block_spec, k, work, real)
                acc -= _filtered(multiplier, inner_specs[k], work, real)
            yield Field(g, acc)

    def lhs(self, s, p, q):
        """Mixed norm of the smoothness-weighted commutator sequence; f's
        spectrum and gradient are gone before it is solved."""
        return weighted_norm(self.commutators(range(self.rou.levels)), s, p, q)

    def grad_f_p1(self, p1):
        """sum_k |d_k f|_{p1}."""
        return sum(luxemburg_norm(d, p1) for d in self.grad_f)

    def grad_f_besov(self, s, p, q):
        """sum_k |d_k f|_{B^s_{p,q}}."""
        return sum(besov_norm(d, s, p, q, self.rou) for d in self.grad_f)

    def f_besov(self, s, p, q):
        """|f|_{B^s_{p,q}} from f's spectrum."""
        return weighted_norm(self._pieces(self._spec, ()), s, p, q)

    def f_div_besov(self, div, s, p, q):
        """|f div V|_{B^s_{p,q}}, div V from ``v_terms``."""
        return besov_norm(Field(self.grid, self.f.values * div), s, p, q, self.rou)

    def v_terms(self, indices, axes, exponents):
        """One pass over V's components, each transformed once: the
        derivatives d_a V_k for a in ``axes(k)`` are measured in L^p at each
        p of ``exponents``, the diagonal one d_k V_k is added to div V, and
        one block sequence is read at each (s, p, q) of ``indices``, made as
        it is read where one index reads it.  Returns the Besov norms summed
        over k, the Luxemburg norms summed over (k, a) in that order, and
        div V (0 where no diagonal derivative is taken)."""
        besov, lebesgue, div = [0.0] * len(indices), [0.0] * len(exponents), 0
        for k, c in enumerate(self.v):
            pieces = self._pieces(_spectrum(c.values, _work_array(self.grid)), axes(k))
            grad = dict(zip(axes(k), pieces))
            lebesgue = [sum((luxemburg_norm(d, p) for d in grad.values()), n)
                        for p, n in zip(exponents, lebesgue)]
            div = div + grad[k].values if k in grad else div
            del grad  # no derivative is held while the blocks are solved
            blocks = pieces if len(indices) == 1 else tuple(pieces)
            besov = [n + weighted_norm(blocks, *ix) for ix, n in zip(indices, besov)]
        return besov, lebesgue, div


def theorem1_report(v, f, s, p1, p2, q, rou):
    """First estimate family: positive smoothness, three right-hand sides.

    Returns one report per variant: gradient-of-V, gradient-of-f, and the
    divergence three-term form with the smoothness index raised by one.
    """
    if not s.p_minus > 0:
        raise ValueError(f"needs positive smoothness, got min {s.p_minus}")
    _check_field_decay(f, "f")
    p = harmonic_sum(p1, p2)
    pair = _Pair(v, f, rou)
    grad_f_p1, f_besov = pair.grad_f_p1(p1), pair.f_besov(s, p2, q)
    grad_f_besov = pair.grad_f_besov(s, p2, q)
    lhs = pair.lhs(s, p, q)
    (v_besov, v_besov_up), (grad_v_p1,), div = pair.v_terms(
        ((s, p2, q), (_raised(s), p2, q)), lambda k: range(f.grid.dim), (p1,))
    return estimate_reports(lhs, {
        "grad_v": {"grad_f_p1 * V_besov": grad_f_p1 * v_besov,
                   "grad_V_p1 * f_besov": grad_v_p1 * f_besov},
        "grad_f": {"grad_f_p1 * V_besov": grad_f_p1 * v_besov,
                   "V_p1 * grad_f_besov":
                   sum(luxemburg_norm(comp, p1) for comp in v) * grad_f_besov},
        "divergence": {"f_div_besov": pair.f_div_besov(div, s, p, q),
                       "grad_V_p1 * f_besov": grad_v_p1 * f_besov,
                       "f_p1 * V_besov_up": luxemburg_norm(f, p1) * v_besov_up},
    })


def theorem2_report(v, f, s, p1, p2, q, rou):
    """Reduced estimate: single term for 0 < s < 1, two-term divergence form
    for -1 < s < 0."""
    _check_field_decay(f, "f")
    p = harmonic_sum(p1, p2)
    pair = _Pair(v, f, rou)
    if 0.0 < s.p_minus and s.p_plus < 1.0:
        grad_f_p1 = pair.grad_f_p1(p1)
        lhs = pair.lhs(s, p, q)
        (v_besov,), _, _ = pair.v_terms(((s, p2, q),), lambda k: (), ())
        return estimate_reports(lhs, {
            "positive": {"grad_f_p1 * V_besov": grad_f_p1 * v_besov}})
    if -1.0 < s.p_minus and s.p_plus < 0.0:
        lhs = pair.lhs(s, p, q)
        (v_besov_up,), _, div = pair.v_terms(((_raised(s), p2, q),), lambda k: (k,), ())
        return estimate_reports(lhs, {"negative": {
            "f_div_besov": pair.f_div_besov(div, s, p, q),
            "f_p1 * V_besov_up": luxemburg_norm(f, p1) * v_besov_up}})
    raise ValueError(f"smoothness range [{s.p_minus}, {s.p_plus}] matches neither "
                     "variant (needs 0 < s < 1 or -1 < s < 0)")


def theorem3_report(v, f, s1, s2, p1, p2, q1, q2, rou):
    """Split-index estimate: s = s1 + s2 with s > 0 and s2 < 1; both the
    integrability and the sequence indices split harmonically."""
    _check_field_decay(f, "f")
    s = ExponentField(s1.grid, s1.values + s2.values)
    if not s.p_minus > 0:
        raise ValueError(f"needs (s1+s2) > 0, got min {s.p_minus}")
    if not s2.p_plus < 1.0:
        raise ValueError(f"needs s2 < 1, got max {s2.p_plus}")
    p = harmonic_sum(p1, p2)
    q = harmonic_sum(q1, q2)
    pair = _Pair(v, f, rou)
    grad_f_p1, grad_f_besov_s1 = pair.grad_f_p1(p1), pair.grad_f_besov(s1, p1, q1)
    lhs = pair.lhs(s, p, q)
    (v_besov, v_besov_s2), _, _ = pair.v_terms(((s, p2, q), (s2, p2, q2)),
                                               lambda k: (), ())
    return estimate_reports(lhs, {"split": {
        "grad_f_p1 * V_besov": grad_f_p1 * v_besov,
        "grad_f_besov_s1 * V_besov_s2": grad_f_besov_s1 * v_besov_s2}})


# each estimate's report function and the exponent roles it takes, in order
_THEOREMS = {
    "theorem1": (theorem1_report, ("s", "p1", "p2", "q")),
    "theorem2": (theorem2_report, ("s", "p1", "p2", "q")),
    "theorem3": (theorem3_report, ("s1", "s2", "p1", "p2", "q1", "q2")),
}


def _refine_factor(coarse, fine):
    """The factor by which a ratio moves on the refined grid: 1.0 where
    both are 0, inf where only the coarse one is."""
    return fine / coarse if coarse > 0 else 1.0 if fine == 0.0 else math.inf


def constant_sweep(grid, levels, exponents, theorem, trials, seed,
                   refine=True):
    """Randomized (V, f) sweep for one estimate family on ``grid`` at
    J = ``levels``.

    ``exponents`` maps each role ``_THEOREMS`` lists for the theorem to a
    (family_name, params) descriptor, so the same family is sampled again on
    the refined grid (2N, J+1).  One loop per grid builds its resolution and
    exponents once and runs every trial; trial t draws V and f from the key
    (seed, t) on the band ``input_band(grid, levels)`` at every resolution,
    so the continuum instance is the same on both grids.

    Returns {"ratios": per-variant lists of the per-instance ratios,
    "max_ratio": their per-variant max, NaN where any ratio is NaN}; when
    refine is set, also "refine_factors", the per-instance factor by which
    each ratio moves on the refined grid, and "refine_stable", whether every
    factor lies within [1/2, 2].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if theorem not in _THEOREMS:
        raise ValueError(
            f"theorem must be one of {tuple(_THEOREMS)}, got {theorem!r}")
    report, roles = _THEOREMS[theorem]
    band = input_band(grid, levels)

    def instances(g, top):
        """Every trial's report on grid ``g`` at J = ``top``."""
        rou = build_resolution(g, top)
        exps = [exponent_from_family(g, *exponents[r]) for r in roles]
        keys = ([int(seed), t] for t in range(trials))
        return [report(VectorField(tuple(band_limited_vector_field(g, band, k))),
                       band_limited_field(g, band, _key(k, 7919)), *exps, rou)
                for k in keys]

    base = instances(grid, levels)
    ratios = {v: [reps[v].ratio for reps in base] for v in base[0]}
    summary = {"ratios": ratios,
               "max_ratio": {k: float(np.max(v)) for k, v in ratios.items()}}
    if refine:
        fine = instances(Grid(grid.dim, 2 * grid.points_per_axis,
                              grid.half_width), levels + 1)
        factors = {v: [_refine_factor(c[v].ratio, f[v].ratio)
                       for c, f in zip(base, fine)] for v in fine[0]}
        summary["refine_factors"] = factors
        summary["refine_stable"] = all(
            0.5 <= fac <= 2.0 for v in factors.values() for fac in v)
    return summary
