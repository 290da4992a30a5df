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
from .exponents import ExponentField
from .grid import Field, require_same_grid
from .reports import graded_report

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


def _floor_slack(q, log_f, log_mu):
    """A few ulps, to raise a p = inf floor q (log|f| - log mu) of log lam by,
    so that |f| <= mu lam^{1/q} holds as computed."""
    return 4.0 * _ROUND * q * (1.0 + abs(log_f) + abs(log_mu))


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

    with a = p log|f_j| + log(cell) and c = p/q over finite-p nodes.  The
    lam^{1/inf} = 1 convention makes c = 0 where q = inf: such a node is a
    term like any other, whose value does not move with lam.  Construction
    precomputes a (one row per level, built in place from log|f_j|) and c;
    the finite-p nodes are gathered only when some but not all p are
    finite, so the common all-finite case gathers nothing.  ``solve`` then
    inverts in lam by Newton in log lam, where each evaluation is one pass
    over a preallocated buffer returning log rho and its slope in log lam.
    The slope in log mu is taken only by ``partials``, for the mixed norm's
    predictor.  A level whose nonzero terms all have c = 0 is decided from
    one pass: lam is inf where that sum is above 1, else 0 or the p = inf
    floor below.

    p = inf nodes enter in closed form: they put a floor on log lam at
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
        terms = _node_class(fin)
        # every p finite: each level's log rho is a plain log-sum-exp of
        # terms affine in (log lam, log mu)
        self.plain = terms is _ALL
        self.p = _take(pv, terms)
        moving = None  # the terms with c > 0, marked where some have c = 0
        if q is None:
            self.c = self.p  # q = 1 gives c = p * 1.0 = p
            floor, cap = _node_class(~fin), None
            self._floor_q = np.ones_like(_take(pv, floor))
        else:
            qv = q.values.ravel()
            rq = np.where(np.isinf(qv), 0.0, 1.0 / qv)
            no_q = rq == 0.0
            self.c = self.p * _take(rq, terms)
            if (fin & no_q).any():
                moving = self.c > 0.0
            floor, cap = _node_class(~fin & ~no_q), _node_class(~fin & no_q)
            self._floor_q = 1.0 / _take(rq, floor)
        log_cell = math.log(p.grid.cell)
        self.rows = []
        self._floor_log = []
        self._cap_log = []
        self._live = []
        self._lam_dependent = []
        self._row_size = []
        for f in levels:
            la = _log_abs(f.values).ravel()
            # gather the classes first: a class of every node is la itself,
            # and its row is built in place
            self._floor_log.append(_take(la, floor))
            self._cap_log.append(-math.inf if cap is None else
                                 float(np.max(la[cap], initial=-math.inf)))
            row = _affine_row(la, terms, self.p, log_cell)
            self.rows.append(row)
            # largest |a| over the live (nonzero-sample) nodes, 0 if none
            hi = float(row.max()) if row.size else -math.inf
            size = 0.0
            if hi > -math.inf:
                lo = float(row.min())
                if lo == -math.inf:
                    lo = float(row[row > -math.inf].min())
                size = max(hi, -lo)
            self._live.append(hi > -math.inf)
            if moving is not None:
                hi = float(np.max(row, where=moving, initial=-math.inf))
            self._lam_dependent.append(hi > -math.inf)
            self._row_size.append(size)
        self._c_max = float(np.max(self.c, initial=0.0))
        self._p_max = float(np.max(self.p, initial=0.0))
        self._sum_size = math.log2(max(self.p.size, 1))
        self._base = np.empty_like(self.p)
        self._buf = np.empty_like(self.p)

    def _at(self, j, log_mu):
        """Level j's term exponents a - p log mu at log mu, in ``_base``
        (the row itself at log mu = 0)."""
        if log_mu == 0.0:
            return self.rows[j]
        base = np.multiply(self.p, -log_mu, out=self._base)
        base += self.rows[j]
        return base

    def _pass(self, j, log_lam, log_mu):
        """One ``log_modular`` pass of level j at (log lam, log mu) through
        ``_buf``; p = inf nodes are not added."""
        with np.errstate(over="ignore"):
            return _kernels.log_modular(self._at(j, log_mu), self.c, log_lam,
                                        self._buf)

    def partials(self, j, log_lam, log_mu):
        """(log rho_j, d log rho_j / d log lam, d log rho_j / d log mu) at
        lam = exp(log_lam), mu = exp(log_mu), from one pass.

        Only for a ``plain`` evaluator, and a level with a nonzero sample.
        The value is not raised by its rounding bound, so it certifies
        nothing.
        """
        log_rho, d_lam, scale = self._pass(j, log_lam, log_mu)
        return log_rho, d_lam, -float(np.dot(self.p, self._buf)) * scale

    def raised_log_rho(self, j, log_lam, log_mu):
        """log rho_j at (log lam, log mu) from one pass, raised by its
        rounding bound (``raised``): <= 0 certifies the point feasible, as
        in ``solve``.  Same scope as ``partials``."""
        log_rho = self._pass(j, log_lam, log_mu)[0]
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
        """lam = inf{lam > 0 : rho_j(lam, mu) <= 1} at mu = exp(log_mu).

        lam is 0 for a zero level and inf when no lam is feasible: the
        terms at q = inf nodes alone sum above 1 (or to 1 beside a term that
        moves with lam), or a p = q = inf node exceeds mu.  A finite lam is
        a point evaluated on the feasible side, within rel_tol of one
        evaluated on the infeasible side.
        """
        if self._cap_log[j] > log_mu:
            return math.inf
        with np.errstate(over="ignore"):
            return self._solve(j, log_mu, hint, rel_tol)

    def _solve(self, j, log_mu, hint, rel_tol):
        floor = -math.inf
        floor_log = self._floor_log[j]
        if floor_log.size:
            lf = (floor_log - log_mu) * self._floor_q
            k = int(np.argmax(lf))
            if lf[k] > -math.inf:
                floor = float(lf[k]) + _floor_slack(
                    float(self._floor_q[k]), float(floor_log[k]), log_mu)
        if not self._lam_dependent[j]:
            # rho_j does not move with lam: the q = inf terms alone decide
            if self._live[j] and self._pass(j, 0.0, log_mu)[0] > 0.0:
                return math.inf
            return _exp(floor) if floor > -math.inf else 0.0
        base, c, buf = self._at(j, log_mu), self.c, self._buf
        if floor > -math.inf:
            log_rho = _kernels.log_modular(base, c, floor, buf)[0]
            if self.raised(j, log_rho, floor, log_mu) <= 0.0:
                return _exp(floor)
            hint = max(hint, _exp(floor))

        def fn(lam):
            log_lam = math.log(lam)
            log_rho, d_lam, _ = _kernels.log_modular(base, c, log_lam, buf)
            return _exp(self.raised(j, log_rho, log_lam, log_mu)), d_lam

        return solve_threshold(fn, hint, rel_tol=rel_tol)


def luxemburg_norm(f, p):
    """Luxemburg norm of a sampled field.

    Any finite sample on a finite box has a finite norm; f = 0 gives 0.  The
    returned value lies on the feasible side (modular(f/result) <= 1) within
    ``NORM_REL_TOL`` of the infimum.
    """
    require_same_grid(f, p)
    m = f.max_abs()
    if m == 0.0:
        return 0.0
    # an overflowing hint would restart the solve at 1.0, out of reach of
    # norms near the top of the float range
    hint = min(m * max(1.0, f.grid.box_measure), sys.float_info.max)
    return Modular((f,), p).solve(0, hint=hint)


def _power_integral(f, p0):
    """h^n sum |f|^p0, the modular of f at the constant exponent p0."""
    return float(np.sum(np.abs(f.values) ** p0)) * f.grid.cell


def classical_norm(f, p0):
    """The referee of ``luxemburg_norm`` at the constant exponent p0, in closed
    form: (h^n sum |f|^p0)^(1/p0), and max |f| for p0 = inf."""
    if math.isinf(p0):
        return f.max_abs()
    return _power_integral(f, p0) ** (1.0 / p0)


UNIT_BALL_SCALES = (0.5, 1.0 - 1e-5, 1.0 + 1e-5, 2.0)


def unit_ball_violations(modular_at):
    """How many scales s of ``UNIT_BALL_SCALES`` break "modular <= 1 iff
    s < 1", where ``modular_at(s)`` is the modular of s / norm times f."""
    return sum((s < 1.0) != (modular_at(s) <= 1.0) for s in UNIT_BALL_SCALES)


def two_level_gauge(grid):
    """The ``lebesgue.two_level_gauge`` record: f = 1 on x in [0, 2) with
    exponent 1 on [0, 1) and 2 on [1, 2) has the gauge solving m1/lam +
    m2/lam^2 = 1, m_i the quadrature measures of the pieces; graded within
    1e-8."""
    mesh = grid.coordinate_mesh()[0]
    first = (mesh >= 0) & (mesh < 1)
    second = (mesh >= 1) & (mesh < 2)
    vals = np.zeros(grid.shape)
    vals[first | second] = 1.0
    pv = np.full(grid.shape, 2.0)
    pv[first] = 1.0
    gauge = luxemburg_norm(Field(grid, vals), ExponentField(grid, pv))
    m1 = np.count_nonzero(first) * grid.cell
    m2 = np.count_nonzero(second) * grid.cell
    exact = (m1 + math.sqrt(m1 * m1 + 4.0 * m2)) / 2.0
    return graded_report("lebesgue.two_level_gauge", abs(gauge - exact), 0.0,
                         1e-8, details={"gauge": gauge, "exact": exact})
