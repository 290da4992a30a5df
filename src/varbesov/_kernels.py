"""Hot numeric inner loops.

The modular kernels ``scaled_modular``, ``plain_modular`` and
``esssup_modular`` work on flat float64 arrays and come in two flavors: a
loop form compiled with numba, and a vectorized numpy twin.  The environment
variable ``VARBESOV_BACKEND`` selects the active flavor:

    auto    use numba when it imports, fall back to numpy (default)
    numba   require numba, fail loudly when missing
    numpy   force the pure-numpy path

The two paths agree up to floating-point summation order; determinism is
guaranteed per backend (all reductions are sequential in the loop forms,
pairwise in numpy).

``log_modular`` is the numpy pass behind every threshold solve (through
``lebesgue.Modular``) and behind the numpy ``scaled_modular``; it has no
loop form.  It returns log rho, its slope in log lam (the Newton slope of
every evaluation) and the scale of the terms it leaves in its buffer; any
other slope, such as the one in log mu, is a weighted sum of those terms
that the caller takes only where it needs it.

The anchored-pair kernels ``log_holder_max`` and ``eta_shift_curve`` have
one numpy implementation in every backend.  On a ``Grid`` the min-image
distance between two nodes depends only on their index offset, so each call
builds one per-offset table and reaches every anchor through a slice of it.
Their per-pair loop forms ``_log_holder_max_loop`` and
``_eta_shift_curve_loop`` stay as the reference the tests and
``benchmarks/bench_kernels.py`` check them against; no package code calls
them.

``eta_shift_curve`` of a constant, finite alpha reads each level off its
kernel table: every exponent j(alpha(x) - alpha(y)) is then exactly 0, so
every ratio is exp2(0) * K_j(d) = K_j(d) with K_j(d) = (1 + 2^j d)^-R, and
every anchor meets every offset, so the level's maximum is the table's
largest entry and no anchor is swept.  ``log_holder_max`` of a constant
field is 0.0 without a sweep.
"""

import math
import os

import numpy as np

from .grid import Grid

_ENV_VAR = "VARBESOV_BACKEND"
_choice = os.environ.get(_ENV_VAR, "auto").strip().lower()
if _choice not in ("auto", "numba", "numpy"):
    raise RuntimeError(
        f"{_ENV_VAR} must be one of auto|numba|numpy, got {_choice!r}"
    )

USE_NUMBA = False
if _choice in ("auto", "numba"):
    try:
        from numba import njit

        USE_NUMBA = True
    except ImportError:
        if _choice == "numba":
            raise RuntimeError(f"{_ENV_VAR}=numba but numba is not importable")

BACKEND = "numba" if USE_NUMBA else "numpy"

_INF = math.inf
_SUM_MIN = 1e-290  # plain sums below this are redone relative to the top term


# ---------------------------------------------------------------------------
# loop forms (numba-compiled when the numba backend is active)
# ---------------------------------------------------------------------------

def _scaled_modular_loop(log_t, p, rq, log_mu, log_lam, cell, budget):
    # sum over nodes of omega_{p(x)}( exp(log_t - rq*log_lam - log_mu) ) * cell
    # log_t entries may be -inf (zero samples); rq = 1/q with 0 at q = inf.
    # budget > 0 allows an early exit once the partial sum already exceeds it.
    total = 0.0
    for i in range(log_t.shape[0]):
        u = log_t[i] - rq[i] * log_lam - log_mu
        pi = p[i]
        if math.isinf(pi):
            if u > 0.0:
                return _INF
        elif u > -_INF:
            total += math.exp(pi * u) * cell
            if math.isinf(total):
                return _INF
            if budget > 0.0 and total > budget:
                return total
    return total


def _plain_modular_loop(t, p, cell):
    # sum over nodes of omega_{p(x)}(t) * cell, natural power form
    total = 0.0
    for i in range(t.shape[0]):
        ti = t[i]
        pi = p[i]
        if math.isinf(pi):
            if ti > 1.0:
                return _INF
        elif ti > 0.0:
            total += ti ** pi * cell
            if math.isinf(total):
                return _INF
    return total


def _esssup_modular_loop(log_t, q, log_mu):
    # sup over nodes of t^{q(x)} with t = exp(log_t - log_mu) and the
    # conventions t^inf = 0 for t <= 1, inf for t > 1.
    best = 0.0
    for i in range(log_t.shape[0]):
        u = log_t[i] - log_mu
        qi = q[i]
        if math.isinf(qi):
            if u > 0.0:
                return _INF
        elif u > -_INF:
            v = math.exp(qi * u)
            if math.isinf(v):
                return _INF
            if v > best:
                best = v
    return best


# ---------------------------------------------------------------------------
# numpy twins
# ---------------------------------------------------------------------------

def log_modular(base, c, log_lam, buf, mass=0.0):
    """One pass of the exp-log fused modular over finite-exponent nodes.

    With w = exp(base - c * log_lam) and the total rho = mass + sum(w),
    returns (log rho, d log rho / d log lam, scale).  On return ``buf``
    holds the terms w / exp(shift) and ``scale`` = exp(shift) / rho is the
    share of rho per unit of ``buf``, so any other weighted sum of the terms
    over rho, such as the slope in log mu that ``lebesgue.Modular`` takes at
    a solve's returned point, is sum(weight * buf) * scale.  When every term
    is zero, the slope is 0.0, ``scale`` is nan and ``buf`` holds no terms.

    ``buf`` is scratch of the nodes' length and is overwritten; only
    in-place ufuncs touch it.  The sum is taken relative to the largest term
    only when the plain sum overflows or comes near underflow, so log rho
    and the slope stay finite wherever one term is nonzero.
    """
    np.multiply(c, -log_lam, out=buf)
    buf += base
    np.exp(buf, out=buf)
    s = float(buf.sum())
    shift = 0.0
    if not _SUM_MIN < s < _INF:
        np.multiply(c, -log_lam, out=buf)
        buf += base
        shift = float(buf.max()) if buf.size else -_INF
        if shift == -_INF:
            log_rho = math.log(mass) if mass > 0.0 else -_INF
            return log_rho, 0.0, math.nan
        buf -= shift
        np.exp(buf, out=buf)
        s = float(buf.sum())
    log_rho = shift + math.log(s)
    if mass > 0.0:
        log_rho = float(np.logaddexp(math.log(mass), log_rho))
    scale = math.exp(shift - log_rho)  # terms of buf per unit of rho
    return log_rho, -float(np.dot(c, buf)) * scale, scale


def _scaled_modular_np(log_t, p, rq, log_mu, log_lam, cell, budget):
    infp = np.isinf(p)
    if np.any(log_t[infp] - rq[infp] * log_lam - log_mu > 0.0):
        return _INF
    fin = ~infp
    pf = p[fin]
    base = pf * (log_t[fin] - log_mu) + math.log(cell)
    with np.errstate(over="ignore"):
        log_rho = log_modular(base, pf * rq[fin], log_lam, np.empty_like(base))[0]
        return float(np.exp(log_rho))


def _plain_modular_np(t, p, cell):
    infp = np.isinf(p)
    if np.any(t[infp] > 1.0):
        return _INF
    fin = ~infp
    tf = t[fin]
    pos = tf > 0.0
    with np.errstate(over="ignore"):
        terms = tf[pos] ** p[fin][pos]
    total = float(np.sum(terms)) * cell
    return _INF if math.isinf(total) else total


def _esssup_modular_np(log_t, q, log_mu):
    u = log_t - log_mu
    infq = np.isinf(q)
    if np.any(u[infq] > 0.0):
        return _INF
    fin = ~infq
    if not np.any(fin):
        return 0.0
    with np.errstate(over="ignore"):
        vals = np.exp(q[fin] * u[fin])
    best = float(np.max(vals)) if vals.size else 0.0
    return _INF if math.isinf(best) else best


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

if USE_NUMBA:
    _scaled_modular_impl = njit(cache=True)(_scaled_modular_loop)
    _plain_modular_impl = njit(cache=True)(_plain_modular_loop)
    _esssup_modular_impl = njit(cache=True)(_esssup_modular_loop)
else:
    _scaled_modular_impl = _scaled_modular_np
    _plain_modular_impl = _plain_modular_np
    _esssup_modular_impl = _esssup_modular_np


def _flat(a):
    return np.ascontiguousarray(a, dtype=np.float64).ravel()


def scaled_modular(log_t, p, rq, log_mu, log_lam, cell, budget=0.0):
    """Modular of the per-node scaled samples, exp-log fused form.

    With budget > 0 the returned value is only guaranteed to be on the same
    side of the budget as the true sum (early exit); pass budget=0.0 for the
    exact sum.
    """
    return float(
        _scaled_modular_impl(
            _flat(log_t), _flat(p), _flat(rq),
            float(log_mu), float(log_lam), float(cell), float(budget),
        )
    )


def plain_modular(t, p, cell):
    """Modular in natural power form; `t` holds nonnegative samples."""
    return float(_plain_modular_impl(_flat(t), _flat(p), float(cell)))


def esssup_modular(log_t, q, log_mu):
    """sup of t^{q(x)} over nodes, with the t^inf step convention."""
    return float(_esssup_modular_impl(_flat(log_t), _flat(q), float(log_mu)))


# ---------------------------------------------------------------------------
# anchored-pair kernels on per-offset tables
# ---------------------------------------------------------------------------

# per-pair loop forms: the reference for the table kernels below

def _log_holder_max_loop(g, coords, anchors, period):
    # max over anchor/node pairs of |g(x)-g(y)| * log(e + 1/d(x,y)),
    # d = minimum-image distance on the periodic box.
    best = 0.0
    ndim = coords.shape[1]
    n = g.shape[0]
    for ai in range(anchors.shape[0]):
        a = anchors[ai]
        ga = g[a]
        for j in range(n):
            if j == a:
                continue
            d2 = 0.0
            for ax in range(ndim):
                dd = abs(coords[a, ax] - coords[j, ax])
                if period - dd < dd:
                    dd = period - dd
                d2 += dd * dd
            d = math.sqrt(d2)
            if d <= 0.0:
                continue
            v = abs(ga - g[j]) * math.log(math.e + 1.0 / d)
            if v > best:
                best = v
    return best


def _eta_shift_curve_loop(alpha, coords, anchors, period, big_r, out):
    # out[j] = max over anchor/node pairs of 2^{j(alpha(x)-alpha(y))}
    #          * (1 + 2^j d)^(-big_r); the kernel order m cancels in the ratio.
    ndim = coords.shape[1]
    n = alpha.shape[0]
    jcount = out.shape[0]
    for j in range(jcount):
        out[j] = 0.0
    for ai in range(anchors.shape[0]):
        a = anchors[ai]
        aa = alpha[a]
        for y in range(n):
            d2 = 0.0
            for ax in range(ndim):
                dd = abs(coords[a, ax] - coords[y, ax])
                if period - dd < dd:
                    dd = period - dd
                d2 += dd * dd
            d = math.sqrt(d2)
            da = aa - alpha[y]
            for j in range(jcount):
                tw = 2.0 ** j
                v = 2.0 ** (j * da) * (1.0 + tw * d) ** (-big_r)
                if v > out[j]:
                    out[j] = v
    return out


# table forms

def _min_image_dist_np(coords, a, period):
    dd = np.abs(coords - coords[a])
    dd = np.minimum(dd, period - dd)
    return np.sqrt(np.sum(dd * dd, axis=1))


def _offset_table(coords, period):
    """Min-image distance from node 0 to every node, shaped as the grid and
    doubled along axis 0.

    On a ``Grid`` lattice the distance between two nodes depends only on
    their index offset mod N per axis, so this one table serves every
    anchor (see ``_reach``).  Raises ValueError when ``coords`` are not the
    nodes of the grid with box period ``period``.
    """
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    n, dim = coords.shape
    side = int(round(n ** (1.0 / dim)))
    if side ** dim != n:
        raise ValueError(f"{n} nodes do not fill a {dim}-d square lattice")
    grid = Grid(dim, side, 0.5 * period)
    if not np.array_equal(coords, grid.flat_coordinates()):
        raise ValueError("pair kernels need the node coordinates of a Grid")
    table = _min_image_dist_np(coords, 0, float(period)).reshape(grid.shape)
    return np.concatenate((table, table), axis=0)


def _reach(table2, a):
    """Flat view of a doubled offset table as seen from node ``a``: entry y
    holds the table's value at the offset y - a (mod N per axis)."""
    side = table2.shape[0] // 2
    if table2.ndim == 1:
        return table2[side - a:2 * side - a]
    i, k = divmod(int(a), side)
    rows = table2[side - i:2 * side - i]
    if k:
        rows = np.roll(rows, k, axis=1)
    return rows.ravel()


def log_holder_max(g, coords, anchors, period):
    """Largest |g(x)-g(y)| * log(e + 1/|x-y|) over anchored pairs, x != y.

    ``coords`` must be the nodes of a ``Grid`` with box period ``period``.
    The weight log(e + 1/d) is taken once per index offset.  The full 1-D
    pair set visits offsets 1..N/2 only (d and |g(x)-g(y)| are symmetric)
    and scales each offset's largest difference by its weight; rounding of
    x * w is monotone in x for w > 0, so the result is bitwise the per-pair
    maximum.  A constant g gives 0.0 without a sweep.
    """
    g = _flat(g)
    n = g.shape[0]
    table2 = _offset_table(coords, period)
    if g.max() - g.min() == 0.0:
        return 0.0
    pos = table2 > 0.0
    w2 = np.zeros_like(table2)
    w2[pos] = np.log(math.e + 1.0 / table2[pos])
    best = 0.0
    buf = np.empty_like(g)
    if table2.ndim == 1 and np.array_equal(anchors, np.arange(n)):
        g2 = np.concatenate((g, g))
        for s in range(1, n // 2 + 1):
            np.subtract(g2[s:s + n], g, out=buf)
            np.abs(buf, out=buf)
            best = max(best, float(buf.max()) * float(w2[s]))
        return best
    for a in anchors:
        np.subtract(g[a], g, out=buf)
        np.abs(buf, out=buf)
        buf *= _reach(w2, a)
        best = max(best, float(buf.max()))
    return best


def eta_shift_curve(alpha, coords, anchors, period, big_r, jcount):
    """Per-level maxima of the shifted-kernel ratio, levels 0..jcount-1.

    out[j] = max over anchor/node pairs of 2^{j(alpha(x)-alpha(y))}
    * (1 + 2^j d)^(-big_r); the kernel order m cancels in the ratio.
    ``coords`` must be the nodes of a ``Grid`` with box period ``period``.
    Levels run outermost, so only one level's kernel table is alive.  A
    constant, finite alpha takes each level's largest kernel entry without
    a sweep (see the module docstring).
    """
    alpha = _flat(alpha)
    table2 = _offset_table(coords, period)
    constant = alpha.max() - alpha.min() == 0.0
    out = np.zeros(int(jcount), dtype=np.float64)
    buf = np.empty_like(alpha)
    for j in range(out.shape[0]):
        k2 = (1.0 + 2.0 ** j * table2) ** (-float(big_r))
        if constant:
            out[j] = max(0.0, float(k2.max())) if len(anchors) else 0.0
            continue
        best = 0.0
        for a in anchors:
            np.subtract(alpha[a], alpha, out=buf)
            buf *= j
            np.exp2(buf, out=buf)
            buf *= _reach(k2, a)
            best = max(best, float(buf.max()))
        out[j] = best
    return out
