"""Variable exponent fields and their calculus.

An ``ExponentField`` samples a map into the extended reals.  Integrability
exponents p, q take values in [1, inf] with inf stored as the IEEE infinity
(a genuine extended-real tag: every operation case-splits on isinf, never on
"large float").  Smoothness exponents reuse the same container with finite,
possibly negative values.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .grid import Field, Grid

_MAX_FULL_PAIR_NODES = 4096
_ANCHOR_COUNT = 256


@dataclass(frozen=True, eq=False)
class ExponentField:
    """Sampled exponent with cached essential bounds.

    value_at_infinity is the decay target g_inf used by the log-Holder decay
    constant; family constructors set it to the analytic limit where known.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    value_at_infinity: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if np.any(np.isnan(v)):
            raise ValueError("exponent values must not be NaN")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_dual", None)
        object.__setattr__(self, "_c_loc", None)

    @property
    def p_minus(self):
        """Essential infimum over the sample."""
        return float(np.min(self.values))

    @property
    def p_plus(self):
        """Essential supremum over the sample; may be inf."""
        return float(np.max(self.values))

    def is_finite_valued(self):
        return bool(np.all(np.isfinite(self.values)))

    def local_log_holder(self):
        """``local_log_holder`` of the samples, measured once per field."""
        if self._c_loc is None:
            object.__setattr__(self, "_c_loc",
                               local_log_holder(self.values, self.grid))
        return self._c_loc

    def reciprocals(self):
        """1/g with the convention 1/inf = 0."""
        with np.errstate(divide="ignore"):
            r = 1.0 / self.values
        r[np.isinf(self.values)] = 0.0
        return r


def constant_exponent(grid, value):
    value = float(value)
    return ExponentField(grid, np.full(grid.shape, value), value_at_infinity=value)


def two_level_exponent(grid, inner, outer, radius):
    """Step exponent: `inner` on {|x| <= radius}, `outer` outside."""
    r = grid.min_image_radius()
    vals = np.where(r <= radius, float(inner), float(outer))
    return ExponentField(grid, vals, value_at_infinity=float(outer))


def log_smooth_exponent(grid, a, b):
    """a + b / log(e + |x|); the canonical log-Holder continuous family."""
    r = grid.min_image_radius()
    vals = a + b / np.log(math.e + r)
    return ExponentField(grid, vals, value_at_infinity=float(a))


def cos_bump_exponent(grid, a, b):
    """Clamped smooth oscillation a + b (1 + cos(pi r / L)) / 2.

    Ranges over [a, a+b], hitting a at the box edge so periodization is
    seamless.
    """
    r = grid.min_image_radius()
    vals = a + b * (1.0 + np.cos(np.pi * r / grid.half_width)) / 2.0
    return ExponentField(grid, vals, value_at_infinity=float(a))


FAMILIES = {
    "constant": (constant_exponent, ("value",)),
    "two_level": (two_level_exponent, ("inner", "outer", "radius")),
    "log_smooth": (log_smooth_exponent, ("a", "b")),
    "cos_bump": (cos_bump_exponent, ("a", "b")),
}


def exponent_from_family(grid, family, params):
    """Build an exponent field from a registered family name."""
    if family not in FAMILIES:
        raise KeyError(f"unknown exponent family {family!r}")
    ctor, names = FAMILIES[family]
    missing = [k for k in names if k not in params]
    if missing:
        raise KeyError(f"family {family!r} missing parameters {missing}")
    extra = [k for k in params if k not in names]
    if extra:
        raise KeyError(f"family {family!r} got unknown parameters {extra}")
    return ctor(grid, **{k: float(params[k]) for k in names})


def _conjugate_values(v):
    out = np.empty_like(v)
    is_inf = np.isinf(v)
    is_one = v == 1.0
    out[is_inf] = 1.0
    out[is_one] = np.inf
    rest = ~(is_inf | is_one)
    out[rest] = v[rest] / (v[rest] - 1.0)
    return out


def conjugate(p):
    """Pointwise conjugate exponent: 1/p + 1/p' = 1 with 1/inf = 0.

    The conjugate keeps a backlink to its source, so conjugating twice
    returns the original field object; the float map x -> x/(x-1) is not an
    exact involution in binary64.
    """
    memo = p._dual
    if memo is not None:
        return memo
    v = p.values
    if np.any(v < 1.0):
        raise ValueError("conjugate requires values in [1, inf]")
    vinf = None
    if p.value_at_infinity is not None:
        gi = p.value_at_infinity
        if gi == 1.0:
            vinf = math.inf
        elif math.isinf(gi):
            vinf = 1.0
        else:
            vinf = gi / (gi - 1.0)
    dual = ExponentField(p.grid, _conjugate_values(v), value_at_infinity=vinf)
    object.__setattr__(dual, "_dual", p)
    object.__setattr__(p, "_dual", dual)
    return dual


def harmonic_sum(p1, p2):
    """Pointwise exponent with 1/p = 1/p1 + 1/p2; requires the result >= 1."""
    if p1.grid != p2.grid:
        raise ValueError("grid mismatch")
    r = p1.reciprocals() + p2.reciprocals()
    if np.any(r > 1.0 + 1e-12):
        raise ValueError("harmonic sum leaves [1, inf]: 1/p1 + 1/p2 > 1 somewhere")
    np.minimum(r, 1.0, out=r)
    with np.errstate(divide="ignore"):
        vals = 1.0 / r
    vals[r == 0.0] = np.inf
    vinf = None
    if p1.value_at_infinity is not None and p2.value_at_infinity is not None:
        a = 0.0 if math.isinf(p1.value_at_infinity) else 1.0 / p1.value_at_infinity
        b = 0.0 if math.isinf(p2.value_at_infinity) else 1.0 / p2.value_at_infinity
        s = a + b
        vinf = math.inf if s == 0.0 else 1.0 / s
    return ExponentField(p1.grid, vals, value_at_infinity=vinf)


def _anchor_indices(node_count):
    if node_count <= _MAX_FULL_PAIR_NODES:
        return np.arange(node_count, dtype=np.int64)
    stride = max(1, node_count // _ANCHOR_COUNT)
    return np.arange(0, node_count, stride, dtype=np.int64)


def local_log_holder(g_values, grid):
    """Empirical local log-Holder constant of a sampled map.

    Maximizes |g(x)-g(y)| log(e + 1/|x-y|) over the full pair set when the
    grid is small enough, otherwise over a deterministic anchored subsample.
    """
    vals = np.asarray(g_values, dtype=np.float64).ravel()
    anchors = _anchor_indices(grid.node_count)
    return _kernels.log_holder_max(
        vals, grid.flat_coordinates(), anchors, 2.0 * grid.half_width
    )


def log_holder_constants(g):
    """(c_loc, c_decay) for a finite-valued exponent field.

    c_loc bounds the local modulus of continuity; c_decay measures the decay
    toward value_at_infinity with plain Euclidean |x|.  Raises when
    value_at_infinity is unset.
    """
    if not g.is_finite_valued():
        raise ValueError("log-Holder constants require a finite-valued field")
    if g.value_at_infinity is None:
        raise ValueError("value_at_infinity required for the decay constant")
    c_loc = g.local_log_holder()
    coords = g.grid.flat_coordinates()
    radius = np.sqrt(np.sum(coords * coords, axis=1))
    c_decay = float(
        np.max(np.abs(g.values.ravel() - g.value_at_infinity) * np.log(math.e + radius))
    )
    return c_loc, c_decay
