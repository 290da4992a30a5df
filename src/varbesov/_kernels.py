"""Hot numeric inner loops.

Every kernel works on flat float64 arrays and comes in two flavors: a loop
form compiled with numba, and a vectorized numpy twin.  The environment
variable ``VARBESOV_BACKEND`` selects the active flavor:

    auto    use numba when it imports, fall back to numpy (default)
    numba   require numba, fail loudly when missing
    numpy   force the pure-numpy path

The two paths agree up to floating-point summation order; determinism is
guaranteed per backend (all reductions are sequential in the loop forms,
pairwise in numpy).

``log_modular`` is the numpy pass behind every threshold solve (through
``lebesgue.Modular``) and behind the numpy ``scaled_modular``; it has no
loop form.
"""

import math
import os

import numpy as np

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


# ---------------------------------------------------------------------------
# numpy twins
# ---------------------------------------------------------------------------

def log_modular(base, c, log_lam, buf, p=None, mass=0.0, pmass=0.0):
    """One pass of the exp-log fused modular over finite-exponent nodes.

    With w = exp(base - c * log_lam) and the total rho = mass + sum(w),
    returns (log rho, d log rho / d log lam, -(sum(p w) + pmass) / rho); the
    last entry is nan when ``p`` is None.  ``buf`` is scratch of the nodes'
    length and is overwritten; only in-place ufuncs touch it.  The sum is
    taken relative to the largest term only when the plain sum overflows or
    comes near underflow, so log rho and the slopes stay finite wherever one
    term is nonzero.
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
            return log_rho, 0.0, (-pmass / mass if mass > 0.0 else math.nan)
        buf -= shift
        np.exp(buf, out=buf)
        s = float(buf.sum())
    log_rho = shift + math.log(s)
    if mass > 0.0:
        log_rho = float(np.logaddexp(math.log(mass), log_rho))
    scale = math.exp(shift - log_rho)  # terms of buf per unit of rho
    d_lam = -float(np.dot(c, buf)) * scale
    if p is None:
        return log_rho, d_lam, math.nan
    d_mu = -float(np.dot(p, buf)) * scale
    if pmass > 0.0:
        d_mu -= math.exp(math.log(pmass) - log_rho)
    return log_rho, d_lam, d_mu


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


def _min_image_dist_np(coords, a, period):
    dd = np.abs(coords - coords[a])
    dd = np.minimum(dd, period - dd)
    return np.sqrt(np.sum(dd * dd, axis=1))


def _log_holder_max_np(g, coords, anchors, period):
    best = 0.0
    for a in anchors:
        d = _min_image_dist_np(coords, a, period)
        mask = d > 0.0
        if not np.any(mask):
            continue
        v = np.abs(g[a] - g[mask]) * np.log(math.e + 1.0 / d[mask])
        m = float(np.max(v))
        if m > best:
            best = m
    return best


def _eta_shift_curve_np(alpha, coords, anchors, period, big_r, out):
    jcount = out.shape[0]
    out[:] = 0.0
    js = np.arange(jcount, dtype=np.float64)[:, None]
    for a in anchors:
        d = _min_image_dist_np(coords, a, period)
        da = alpha[a] - alpha
        v = 2.0 ** (js * da[None, :]) * (1.0 + (2.0 ** js) * d[None, :]) ** (-big_r)
        np.maximum(out, np.max(v, axis=1), out=out)
    return out


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

if USE_NUMBA:
    _scaled_modular_impl = njit(cache=True)(_scaled_modular_loop)
    _plain_modular_impl = njit(cache=True)(_plain_modular_loop)
    _esssup_modular_impl = njit(cache=True)(_esssup_modular_loop)
    _log_holder_max_impl = njit(cache=True)(_log_holder_max_loop)
    _eta_shift_curve_impl = njit(cache=True)(_eta_shift_curve_loop)
else:
    _scaled_modular_impl = _scaled_modular_np
    _plain_modular_impl = _plain_modular_np
    _esssup_modular_impl = _esssup_modular_np
    _log_holder_max_impl = _log_holder_max_np
    _eta_shift_curve_impl = _eta_shift_curve_np


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


def log_holder_max(g, coords, anchors, period):
    """Largest |g(x)-g(y)| * log(e + 1/|x-y|) over anchored pairs."""
    return float(
        _log_holder_max_impl(
            _flat(g),
            np.ascontiguousarray(coords, dtype=np.float64),
            np.ascontiguousarray(anchors, dtype=np.int64),
            float(period),
        )
    )


def eta_shift_curve(alpha, coords, anchors, period, big_r, jcount):
    """Per-level maxima of the shifted-kernel ratio, levels 0..jcount-1."""
    out = np.zeros(int(jcount), dtype=np.float64)
    _eta_shift_curve_impl(
        _flat(alpha),
        np.ascontiguousarray(coords, dtype=np.float64),
        np.ascontiguousarray(anchors, dtype=np.int64),
        float(period),
        float(big_r),
        out,
    )
    return out
