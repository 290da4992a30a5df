"""Variable exponent modular and Luxemburg norm.

The modular is rho_p(f) = integral of omega_{p(x)}(|f(x)|), where omega_p is
t^p for finite p and the step 0/inf split at t = 1 for p = inf (with
omega_inf(1) = 0, keeping omega left-continuous).  The Luxemburg norm is the
gauge inf{lambda > 0 : rho_p(f/lambda) <= 1}, inverted here by monotone
threshold solving on lambda, using the unit ball property
"norm <= 1 iff modular <= 1" as the bracket test.
"""

import math
import sys

import numpy as np

from . import _kernels
from ._solve import solve_threshold
from .grid import require_same_grid

NORM_REL_TOL = 1e-9


def omega(t, p):
    """The integrand omega_p(t): t^p for finite p; for p = inf, 0 on [0, 1]
    and inf beyond (the convention 1^inf = 0)."""
    if t < 0:
        raise ValueError("omega expects t >= 0")
    if math.isinf(p):
        return 0.0 if t <= 1.0 else math.inf
    if t == 0.0:
        return 0.0
    return t ** p


def _log_abs(values):
    """log|values| as a new float64 array (-inf at zeros), built in place."""
    out = np.abs(values, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.log(out, out=out)


def modular(f, p):
    """rho_p(f); returns inf as soon as any p=inf node has |f| > 1 or the
    finite-exponent sum overflows."""
    require_same_grid(f, p)
    return _kernels.plain_modular(
        np.abs(f.values).ravel(), p.values.ravel(), f.grid.cell
    )


_ROUND = 8.0 * sys.float_info.epsilon  # rounding per unit of exponent size
_LOG_MAX = math.log(sys.float_info.max)


def _exp(x):
    """exp that saturates to inf instead of raising."""
    return math.exp(x) if x < _LOG_MAX else math.inf


_ALL = slice(None)  # a node class that holds every node
_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


def _node_class(mask):
    """Index of the nodes in ``mask``: ``_ALL`` when it holds every node,
    None when it holds none, else the mask itself."""
    if mask.all():
        return _ALL
    return mask if mask.any() else None


def _take(a, index):
    """a[index] for a ``_node_class`` index: a view of ``a`` for ``_ALL``,
    an empty array for None, a gathered copy otherwise."""
    return _EMPTY if index is None else a[index]


def _affine_row(la, index, p, log_cell):
    """p * la[index] + log_cell, built in place on ``la[index]`` (so on
    ``la`` itself when the class holds every node)."""
    if index is None:
        return _EMPTY
    row = la[index]
    row *= p
    row += log_cell
    return row


class Modular:
    """Scaled modular of a field or a level stack, precomputed for solves.

    For levels f_j, exponent p and, optionally, q (omitted: q = 1), level j
    at scales lam, mu > 0 has the modular

        rho_j(lam, mu) = rho_p(f_j / (mu lam^{1/q(x)}))
                       = sum over nodes of exp(a - c log lam - p log mu)

    with a = p log|f_j| + log(cell) and c = p/q over finite-p nodes (the
    lam^{1/inf} = 1 convention makes c = 0 where q = inf).  Construction
    precomputes a (one row per level, built in place from log|f_j|) and c;
    a node class is gathered only when it holds some but not all nodes, so
    the common all-finite case gathers nothing.  ``solve`` then inverts in
    lam, where each evaluation is one pass over a preallocated buffer
    returning log rho and its slope in log lam.

    Two term buffers take turns: each evaluation on the feasible side
    keeps its terms and hands the other buffer to the next evaluation, so
    when the solve returns, the terms at the returned lam are still there.
    The slope in log mu, which only the returned lam needs, is taken from
    them once.

    The other nodes enter in closed form: q = inf nodes with finite p carry
    a lam-independent mass; p = inf nodes put a floor on log lam at
    q (log|f| - log mu), or make the level infeasible where q = inf too.

    The solver sees rho raised by a bound on its rounding error, so a point
    reported feasible is feasible for any evaluator accurate to a few ulps
    (such as ``modular``).
    """

    def __init__(self, levels, p, q=None):
        levels = tuple(levels)
        require_same_grid(*levels, p, *(() if q is None else (q,)))
        pv = p.values.ravel()
        fin = np.isfinite(pv)
        if q is None:
            rq = None
            dep, ind, floor, cap = _node_class(fin), None, _node_class(~fin), None
        else:
            qv = q.values.ravel()
            rq = np.where(np.isinf(qv), 0.0, 1.0 / qv)
            with_q, no_q = rq > 0.0, rq == 0.0
            dep, ind = _node_class(fin & with_q), _node_class(fin & no_q)
            floor, cap = _node_class(~fin & with_q), _node_class(~fin & no_q)
        # every node in the (finite p, finite q) class: each level's log rho
        # is a plain log-sum-exp, affine terms in (log lam, log mu) only
        self.plain = dep is _ALL
        self.p = _take(pv, dep)
        # q = 1 gives c = p * 1.0 = p
        self.c = self.p if rq is None else self.p * _take(rq, dep)
        self._p_ind = _take(pv, ind)
        if rq is None:
            self._floor_q = np.ones_like(_take(pv, floor))
        else:
            self._floor_q = 1.0 / _take(rq, floor)
        log_cell = math.log(p.grid.cell)
        self.rows = []
        self._rows_ind = []
        self._floor_log = []
        self._cap_log = []
        self._lam_dependent = []
        self._row_size = []
        for f in levels:
            la = _log_abs(f.values).ravel()
            # gather the classes first: a class of every node is la itself,
            # and its row is built in place
            self._floor_log.append(_take(la, floor))
            self._cap_log.append(-math.inf if cap is None else
                                 float(np.max(la[cap], initial=-math.inf)))
            self._rows_ind.append(_affine_row(la, ind, self._p_ind, log_cell))
            row = _affine_row(la, dep, self.p, log_cell)
            self.rows.append(row)
            # largest |a| over the live (nonzero-sample) nodes, 0 if none
            hi = float(row.max()) if row.size else -math.inf
            size = 0.0
            if hi > -math.inf:
                lo = float(row.min())
                if lo == -math.inf:
                    lo = float(row[row > -math.inf].min())
                size = max(hi, -lo)
            self._lam_dependent.append(hi > -math.inf)
            self._row_size.append(size)
        self._c_max = float(np.max(self.c, initial=0.0))
        self._p_max = float(np.max(self.p, initial=0.0))
        self._sum_size = math.log2(max(self.p.size, 1))
        self._base = np.empty_like(self.p)
        self._buf = np.empty_like(self.p)
        self._spare = np.empty_like(self.p)

    def _plain_pass(self, j, log_lam, log_mu):
        """One ``log_modular`` pass of level j at (log lam, log mu) through
        ``_buf``; only for a ``plain`` evaluator and a live level: the
        closed-form node classes are not added."""
        base = np.multiply(self.p, -log_mu, out=self._base)
        base += self.rows[j]
        with np.errstate(over="ignore"):
            return _kernels.log_modular(base, self.c, log_lam, self._buf)

    def partials(self, j, log_lam, log_mu):
        """(log rho_j, d log rho_j / d log lam, d log rho_j / d log mu) at
        lam = exp(log_lam), mu = exp(log_mu), from one pass.

        Only for a ``plain`` evaluator, and a level with a nonzero sample.
        The value is not raised by its rounding bound, so it certifies
        nothing.
        """
        log_rho, d_lam, scale = self._plain_pass(j, log_lam, log_mu)
        return log_rho, d_lam, -float(np.dot(self.p, self._buf)) * scale

    def raised_log_rho(self, j, log_lam, log_mu):
        """log rho_j at (log lam, log mu) from one pass, raised by its
        rounding bound (``raised``): <= 0 certifies the point feasible, as
        in ``solve``.  Same scope as ``partials``."""
        log_rho = self._plain_pass(j, log_lam, log_mu)[0]
        return self.raised(j, log_rho, log_lam, log_mu)

    def raised(self, j, log_rho, log_lam, log_mu):
        """``log_rho``, the log modular of level j at (log lam, log mu),
        raised by a bound on its rounding error.  Every term's exponent is a
        sum of three products: the bound covers their rounding and the
        summation's, so that a point where the raised value is <= 0 is
        feasible for any evaluator accurate to a few ulps."""
        slack = _ROUND * (self._row_size[j] + self._p_max * abs(log_mu) + self._sum_size)
        return log_rho + slack + _ROUND * self._c_max * abs(log_lam)

    def solve(self, j, log_mu=0.0, hint=1.0, rel_tol=NORM_REL_TOL):
        """(lam, d log lam / d log mu) for lam = inf{lam > 0 : rho_j(lam, mu)
        <= 1} at mu = exp(log_mu).

        lam is 0 for a zero level and inf when the lam-independent part
        alone exceeds the unit ball; the derivative is nan where it is
        undefined.  A finite lam is a point evaluated on the feasible side,
        within rel_tol of one evaluated on the infeasible side.
        """
        if self._cap_log[j] > log_mu:
            return math.inf, math.nan
        with np.errstate(over="ignore"):
            return self._solve(j, log_mu, hint, rel_tol)

    def _solve(self, j, log_mu, hint, rel_tol):
        mass = pmass = 0.0
        if self._p_ind.size:
            w = np.exp(self._rows_ind[j] - self._p_ind * log_mu)
            mass = float(w.sum())
            pmass = float(np.dot(self._p_ind, w))
        if mass > 1.0 or (mass == 1.0 and self._lam_dependent[j]):
            return math.inf, math.nan

        floor, floor_slope = -math.inf, 0.0
        floor_log = self._floor_log[j]
        if floor_log.size:
            lf = (floor_log - log_mu) * self._floor_q
            k = int(np.argmax(lf))
            if lf[k] > -math.inf:
                qk = float(self._floor_q[k])
                # a few ulps up, so that |f| <= mu lam^{1/q} holds as computed
                floor = float(lf[k]) + 4.0 * _ROUND * qk * (
                    1.0 + abs(float(floor_log[k])) + abs(log_mu))
                floor_slope = -qk
        if not self._lam_dependent[j]:
            return (_exp(floor), floor_slope) if floor > -math.inf else (0.0, 0.0)

        base = self.rows[j]
        if log_mu != 0.0:
            base = np.multiply(self.p, -log_mu, out=self._base)
            base += self.rows[j]
        c = self.c
        # [scratch, terms at the last feasible point]: swapped on each
        # feasible evaluation
        bufs = [self._buf, self._spare]
        if floor > -math.inf:
            log_rho = _kernels.log_modular(base, c, floor, bufs[0], mass)[0]
            if self.raised(j, log_rho, floor, log_mu) <= 0.0:
                return _exp(floor), floor_slope
            hint = max(hint, _exp(floor))

        feasible = [math.nan] * 4  # lam, d log rho / d log lam, log rho, scale

        def fn(lam):
            log_lam = math.log(lam)
            log_rho, d_lam, scale = _kernels.log_modular(
                base, c, log_lam, bufs[0], mass)
            v = _exp(self.raised(j, log_rho, log_lam, log_mu))
            if v <= 1.0:
                feasible[:] = (lam, d_lam, log_rho, scale)
                bufs.reverse()
            return v, d_lam

        lam = solve_threshold(fn, hint, rel_tol=rel_tol)
        if lam == feasible[0] and feasible[1] < 0.0:
            _, d_lam, log_rho, scale = feasible
            d_mu = -float(np.dot(self.p, bufs[1])) * scale
            if pmass > 0.0:
                d_mu -= math.exp(math.log(pmass) - log_rho)
            return lam, -d_mu / d_lam
        return lam, math.nan


def luxemburg_norm(f, p, rel_tol=NORM_REL_TOL):
    """Luxemburg norm of a sampled field.

    Any finite sample on a finite box has a finite norm; f = 0 gives 0.  The
    returned value lies on the feasible side (modular(f/result) <= 1) within
    rel_tol of the infimum.
    """
    require_same_grid(f, p)
    m = f.max_abs()
    if m == 0.0:
        return 0.0
    # an overflowing hint would restart the solve at 1.0, out of reach of
    # norms near the top of the float range
    hint = min(m * max(1.0, f.grid.box_measure), sys.float_info.max)
    return Modular((f,), p).solve(0, hint=hint, rel_tol=rel_tol)[0]


def _power_integral(f, p0):
    """h^n sum |f|^p0, the modular of f at the constant exponent p0."""
    return float(np.sum(np.abs(f.values) ** p0)) * f.grid.cell


def classical_norm(f, p0):
    """The referee of ``luxemburg_norm`` at the constant exponent p0, in closed
    form: (h^n sum |f|^p0)^(1/p0), and max |f| for p0 = inf."""
    if math.isinf(p0):
        return f.max_abs()
    return _power_integral(f, p0) ** (1.0 / p0)
