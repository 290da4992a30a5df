"""Transport/frequency-localization commutator and its estimate harness.

The commutator of the transport operator V.grad with the dyadic block at
level j measures how far frequency localization is from commuting with
advection:

    sum_k [ V_k d_k(block_j f) - block_j(V_k d_k f) ].

Constant V and constant f both annihilate it.  The harness evaluates the
weighted mixed norm of the commutator sequence against several right-hand
side aggregates of Besov and Luxemburg norms, records the empirical ratios,
and repeats each instance on a refined grid to confirm the ratios are
discretization-stable.  No divergence-free structure is assumed anywhere;
the test families have div V != 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import ExponentField, exponent_from_family, harmonic_sum
from .grid import (Field, Grid, _derivative_of_spectrum, _filtered,
                   _spectrum, _work_array, boundary_deviation,
                   require_same_grid, spectral_derivative)
from .lebesgue import luxemburg_norm
from .littlewood_paley import (besov_norm, block_sequence, build_resolution,
                               weighted_norm)
from .mixed import FieldSequence
from .random_fields import _key, band_limited_field, band_limited_vector_field
from .reports import make_estimate_report

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
    return Field(v.grid, sum(spectral_derivative(comp, k).values
                             for k, comp in enumerate(v)))


def commutator(v, f, rou, j):
    """[V.grad, block_j] f = sum_k (V_k d_k block_j f - block_j(V_k d_k f)).

    Products are formed in physical space; callers keep inputs band-limited
    below 2^J / 4 so the doubled product bandwidth stays alias-free.
    """
    if not 0 <= j < rou.levels:
        raise ValueError(f"block index {j} out of range 0..{rou.top_level}")
    return next(_commutators(v, f, rou, (j,)))


def commutator_sequence(v, f, rou):
    return FieldSequence(tuple(_commutators(v, f, rou, range(rou.levels))))


def _commutators(v, f, rou, levels):
    """The commutators at the given levels from stored spectra: one forward
    transform of f, of each V_k d_k f and of each block.  Level j equals
    sum_k V_k d_k lp_block(f, rou, j) - lp_block(V_k d_k f, rou, j) bitwise.
    The spectra and every product live in per-call work arrays.
    """
    g = require_same_grid(*v.components, f, rou)
    spec = _spectrum(f.values, _work_array(g))
    work, real = _work_array(g), np.empty(g.shape)
    inner_specs = [
        _spectrum(comp.values * _derivative_of_spectrum(g, spec, k, work, real),
                  _work_array(g))
        for k, comp in enumerate(v)
    ]
    block, block_spec = np.empty(g.shape), _work_array(g)
    for j in levels:
        multiplier = rou.multipliers[j]
        _spectrum(_filtered(multiplier, spec, work, block), block_spec)
        acc = np.zeros(g.shape)
        for k, comp in enumerate(v):
            acc += comp.values * _derivative_of_spectrum(g, block_spec, k,
                                                         work, real)
            acc -= _filtered(multiplier, inner_specs[k], work, real)
        yield Field(g, acc)


def commutator_lhs_norm(v, f, s, p, q, rou):
    """Mixed norm of the smoothness-weighted commutator sequence."""
    return weighted_norm(_commutators(v, f, rou, range(rou.levels)), s, p, q)


def _vector_luxemburg(fields, p):
    return sum(luxemburg_norm(f, p) for f in fields)


def _vector_besov(block_seqs, s, p, q):
    return sum(weighted_norm(blocks, s, p, q) for blocks in block_seqs)


def _gradient(f):
    spec = _spectrum(f.values, _work_array(f.grid))
    work = _work_array(f.grid)
    return [Field(f.grid, _derivative_of_spectrum(f.grid, spec, k, work,
                                                  np.empty(f.grid.shape)))
            for k in range(f.grid.dim)]


def _shift_smoothness(s, delta):
    return ExponentField(s.grid, s.values + delta,
                         value_at_infinity=None if s.value_at_infinity is None
                         else s.value_at_infinity + delta)


def theorem1_report(v, f, s, p1, p2, q, rou):
    """First estimate family: positive smoothness, three right-hand sides.

    Returns one report per variant: gradient-of-V, gradient-of-f, and the
    divergence three-term form with the smoothness index raised by one.
    """
    if not s.p_minus > 0:
        raise ValueError(f"needs positive smoothness, got min {s.p_minus}")
    _check_field_decay(f, "f")
    p = harmonic_sum(p1, p2)

    lhs = commutator_lhs_norm(v, f, s, p, q, rou)
    grad_f = _gradient(f)
    grad_f_p1 = _vector_luxemburg(grad_f, p1)
    v_blocks = [block_sequence(comp, rou) for comp in v]
    v_besov = _vector_besov(v_blocks, s, p2, q)
    v_besov_up = _vector_besov(v_blocks, _shift_smoothness(s, 1.0), p2, q)
    del v_blocks
    grad_v = [_gradient(comp) for comp in v]
    grad_v_p1 = sum(luxemburg_norm(d, p1) for grad in grad_v for d in grad)
    # divergence(v), summed from the gradient's diagonal
    div_v = sum(grad[k].values for k, grad in enumerate(grad_v))
    del grad_v
    f_besov = besov_norm(f, s, p2, q, rou)
    v_p1 = _vector_luxemburg(v.components, p1)
    grad_f_besov = sum(besov_norm(d, s, p2, q, rou) for d in grad_f)
    f_div_besov = besov_norm(Field(f.grid, f.values * div_v), s, p, q, rou)
    f_p1 = luxemburg_norm(f, p1)

    reports = {
        "grad_v": make_estimate_report(
            lhs,
            {"grad_f_p1 * V_besov": grad_f_p1 * v_besov,
             "grad_V_p1 * f_besov": grad_v_p1 * f_besov},
        ),
        "grad_f": make_estimate_report(
            lhs,
            {"grad_f_p1 * V_besov": grad_f_p1 * v_besov,
             "V_p1 * grad_f_besov": v_p1 * grad_f_besov},
        ),
        "divergence": make_estimate_report(
            lhs,
            {"f_div_besov": f_div_besov,
             "grad_V_p1 * f_besov": grad_v_p1 * f_besov,
             "f_p1 * V_besov_up": f_p1 * v_besov_up},
        ),
    }
    return reports


def theorem2_report(v, f, s, p1, p2, q, rou):
    """Reduced estimate: single term for 0 < s < 1, two-term divergence form
    for -1 < s < 0."""
    _check_field_decay(f, "f")
    p = harmonic_sum(p1, p2)
    lhs = commutator_lhs_norm(v, f, s, p, q, rou)

    if 0.0 < s.p_minus and s.p_plus < 1.0:
        grad_f_p1 = _vector_luxemburg(_gradient(f), p1)
        v_besov = sum(besov_norm(comp, s, p2, q, rou) for comp in v)
        return {
            "positive": make_estimate_report(
                lhs, {"grad_f_p1 * V_besov": grad_f_p1 * v_besov},
            )
        }
    if -1.0 < s.p_minus and s.p_plus < 0.0:
        f_div = Field(f.grid, f.values * divergence(v).values)
        f_div_besov = besov_norm(f_div, s, p, q, rou)
        f_p1 = luxemburg_norm(f, p1)
        s_up = _shift_smoothness(s, 1.0)
        v_besov_up = sum(besov_norm(comp, s_up, p2, q, rou) for comp in v)
        return {
            "negative": make_estimate_report(
                lhs,
                {"f_div_besov": f_div_besov, "f_p1 * V_besov_up": f_p1 * v_besov_up},
            )
        }
    raise ValueError(
        f"smoothness range [{s.p_minus}, {s.p_plus}] matches neither variant "
        "(needs 0 < s < 1 or -1 < s < 0)"
    )


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

    lhs = commutator_lhs_norm(v, f, s, p, q, rou)
    grad_f = _gradient(f)
    grad_f_p1 = _vector_luxemburg(grad_f, p1)
    v_blocks = [block_sequence(comp, rou) for comp in v]
    v_besov = _vector_besov(v_blocks, s, p2, q)
    v_besov_s2 = _vector_besov(v_blocks, s2, p2, q2)
    del v_blocks
    grad_f_besov_s1 = sum(besov_norm(d, s1, p1, q1, rou) for d in grad_f)
    return {
        "split": make_estimate_report(
            lhs,
            {"grad_f_p1 * V_besov": grad_f_p1 * v_besov,
             "grad_f_besov_s1 * V_besov_s2": grad_f_besov_s1 * v_besov_s2},
        )
    }


@dataclass(frozen=True)
class SweepConfig:
    """Generator family for randomized estimate sweeps.

    Exponent roles map to (family_name, params) descriptors so the same
    family can be re-sampled on the refined grid; each theorem reads the
    roles ``_THEOREMS`` lists for it.  kmax defaults to 2^J / 4,
    the dealiasing margin for physical-space products.  constant_v swaps the
    random vector fields for constants, the degenerate family whose ratios
    must vanish.
    """

    dim: int = 1
    points_per_axis: int = 4096
    half_width: float = 16.0
    levels: int = 8
    exponents: dict = field(default_factory=dict)
    kmax: int | None = None
    constant_v: bool = False

    def grid(self, refine=False):
        n = self.points_per_axis * (2 if refine else 1)
        return Grid(self.dim, n, self.half_width)

    def top_level(self, refine=False):
        return self.levels + (1 if refine else 0)

    def band(self):
        return self.kmax if self.kmax is not None else 2 ** self.levels // 4

    def exponent(self, grid, role):
        family, params = self.exponents[role]
        return exponent_from_family(grid, family, params)


# each estimate's report function and the exponent roles it takes, in order
_THEOREMS = {
    "theorem1": (theorem1_report, ("s", "p1", "p2", "q")),
    "theorem2": (theorem2_report, ("s", "p1", "p2", "q")),
    "theorem3": (theorem3_report, ("s1", "s2", "p1", "p2", "q1", "q2")),
}


def _instance_reports(theorem, config, refine, seed):
    """The reports of one random (V, f) instance, on the base or the refined
    grid and levels of ``config``."""
    report, roles = _THEOREMS[theorem]
    grid = config.grid(refine)
    rou = build_resolution(grid, config.top_level(refine))
    if config.constant_v:
        v = VectorField(tuple(
            Field(grid, np.full(grid.shape, 1.0 + axis))
            for axis in range(grid.dim)
        ))
    else:
        v = VectorField(tuple(band_limited_vector_field(grid, config.band(), seed)))
    f = band_limited_field(grid, config.band(), _key(seed, 7919))
    return report(v, f, *(config.exponent(grid, r) for r in roles), rou)


def constant_sweep(config, theorem, trials, seed, refine=True):
    """Randomized (V, f) sweep for one estimate family.

    Returns {"ratios": per-variant lists of the per-instance ratios,
    "max_ratio": their per-variant max}; when refine is set, also
    "refine_factors", the per-instance factor by which each ratio moves when
    the grid and level count are refined to (2N, J+1), and "refine_stable",
    whether every factor lies within [1/2, 2].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if theorem not in _THEOREMS:
        raise ValueError(
            f"theorem must be one of {tuple(_THEOREMS)}, got {theorem!r}")
    ratios = {}
    refine_factors = {}
    for t in range(trials):
        inst_seed = [int(seed), t]
        base = _instance_reports(theorem, config, False, inst_seed)
        for variant, rep in base.items():
            ratios.setdefault(variant, []).append(rep.ratio)
        if refine:
            fine = _instance_reports(theorem, config, True, inst_seed)
            for variant, rep in fine.items():
                coarse = base[variant].ratio
                factor = rep.ratio / coarse if coarse > 0 else (
                    1.0 if rep.ratio == 0.0 else math.inf)
                refine_factors.setdefault(variant, []).append(factor)
    summary = {"ratios": ratios,
               "max_ratio": {k: max(v) for k, v in ratios.items()}}
    if refine:
        summary["refine_factors"] = refine_factors
        summary["refine_stable"] = all(
            0.5 <= fac <= 2.0 for v in refine_factors.values() for fac in v
        )
    return summary
