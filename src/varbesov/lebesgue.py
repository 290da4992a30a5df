"""Variable exponent modular and Luxemburg norm.

The modular is rho_p(f) = integral of omega_{p(x)}(|f(x)|), where omega_p is
t^p for finite p and the step 0/inf split at t = 1 for p = inf (with
omega_inf(1) = 0, keeping omega left-continuous).  The Luxemburg norm is the
gauge inf{lambda > 0 : rho_p(f/lambda) <= 1}, inverted here by monotone
threshold solving on lambda, using the unit ball property
"norm <= 1 iff modular <= 1" as the bracket test.
"""

import copy
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


class Modular:
    """Scaled modular of a field or a level stack, precomputed for solves.

    For levels f_j, exponent p and, optionally, q (omitted: q = 1), level j
    at scales lam, mu > 0 has the modular

        rho_j(lam, mu) = rho_p(f_j / (mu lam^{1/q(x)}))
                       = sum over nodes of exp(a - c log lam - p log mu)

    with a = p log|f_j| + log(cell) and c = p/q.  The lam^{1/inf} = 1
    convention makes c = 0 where q = inf: such a node is a term like any
    other, whose value does not move with lam.  Every row spans every node:
    a p = inf node is a zero term (p = c = 0, a = -inf) beside its closed
    form below.  Construction precomputes a (one row per level, built in
    place on log|f_j|) and c; where every p is finite, p is the exponent's
    own array, and with q omitted c is p itself.  ``solve`` then inverts in
    lam by Newton in log lam, where each evaluation is one pass over a
    preallocated buffer returning log rho and its slope in log lam.  The
    slope in log mu is taken only by ``partials``, for the mixed norm's
    predictor, which also reads the ``strided`` evaluator.  A level whose
    nonzero terms all have c = 0 is decided from one pass: lam is inf where
    that sum is above 1, else 0 or the p = inf floor below.

    p = inf nodes enter in closed form: they put a floor on log lam at
    q (log|f| - log mu), or make the level infeasible where q = inf too.
    Both are read through boolean masks of those nodes, built only when
    some p is infinite.

    The solver sees rho raised by a bound on its rounding error, so a point
    reported feasible is feasible for any evaluator accurate to a few ulps
    (such as ``modular``).
    """

    def __init__(self, levels, p, q=None):
        levels = tuple(levels)
        require_same_grid(*levels, p, *(() if q is None else (q,)))
        pv = p.values.ravel()
        infinite = np.isinf(pv)
        # every p finite: each level's log rho is a plain log-sum-exp of
        # terms affine in (log lam, log mu)
        self.plain = not infinite.any()
        self.p = pv if self.plain else np.where(infinite, 0.0, pv)
        rq = None if q is None else 1.0 / q.values.ravel()  # 0 at q = inf
        self.c = self.p if rq is None else self.p * rq
        moving = None  # the terms with c > 0, marked where some have c = 0
        if rq is not None and not rq.all():
            moving = self.c > 0.0
        self._floor_log, self._cap_log = [], []
        if not self.plain:
            # p = inf nodes: floors where q is finite, caps where q = inf
            floor = infinite if rq is None else infinite & (rq > 0.0)
            cap = infinite ^ floor
            self._floor_q = (np.ones(np.count_nonzero(floor)) if rq is None
                             else 1.0 / rq[floor])
        log_cell = math.log(p.grid.cell)
        self.rows, self._live, self._lam_dependent, self._row_size = [], [], [], []
        for f in levels:
            row = _log_abs(f.values).ravel()
            if not self.plain:
                self._floor_log.append(row[floor])
                self._cap_log.append(float(np.max(row, where=cap, initial=-math.inf)))
                row[infinite] = 0.0  # p is 0 there, and 0 * -inf is NaN
            # an overflow of p log|f| to -inf is the term's limit 0 where
            # some term stays finite; otherwise it is raised below
            with np.errstate(over="ignore"):
                row *= self.p
            row += log_cell
            if not self.plain:
                row[infinite] = -math.inf
            self.rows.append(row)
            # largest |a| over the live (nonzero-sample) nodes, 0 if none
            hi = float(row.max())
            if hi == math.inf or (hi == -math.inf and np.any(
                    f.values.ravel()[self.p > 0.0])):
                raise ValueError("p log|f| of the largest term is out of range")
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
        self._c_max = float(self.c.max())
        self._p_max = float(self.p.max())
        self._sum_size = math.log2(self.p.size)
        self._base = np.empty_like(self.p)
        self._buf = np.empty_like(self.p)
        self._shape = p.grid.shape
        self._log_weight = 0.0  # log of the nodes per node swept

    def strided(self):
        """This evaluator on every s-th node per axis, s the largest power
        of two with s^n <= 8 (every 8th node in 1-D, every 2nd per axis in
        2-D), as zero-copy strided views of its rows, p and c.  Its
        ``partials`` add the log of the nodes per kept node, so they
        estimate this evaluator's; they are all it is for."""
        sub, shape = copy.copy(self), self._shape
        cut = (slice(None, None, 2 ** (3 // len(shape))),) * len(shape)
        sub.rows = [row.reshape(shape)[cut] for row in self.rows]
        sub.p, sub.c = (a.reshape(shape)[cut] for a in (self.p, self.c))
        sub._base, sub._buf = np.empty(sub.p.shape), np.empty(sub.p.shape)
        sub._log_weight = math.log(self.p.size / sub.p.size)
        return sub

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
        ``_buf``; p = inf nodes are zero terms.  A term may overflow to inf:
        the caller holds ``np.errstate(over="ignore")`` once per sweep, as
        ``solve`` and the mixed norm's predictor and certificate do."""
        return _kernels.log_modular(self._at(j, log_mu), self.c, log_lam,
                                    self._buf)

    def partials(self, j, log_lam, log_mu):
        """(log rho_j, d log rho_j / d log lam, d log rho_j / d log mu) at
        lam = exp(log_lam), mu = exp(log_mu), from one pass.

        Only for a ``plain`` evaluator, and a level with a nonzero sample,
        under ``np.errstate(over="ignore")`` (see ``_pass``).  The value is
        not raised by its rounding bound, so it certifies nothing.
        """
        log_rho, d_lam, scale = self._pass(j, log_lam, log_mu)
        return (log_rho + self._log_weight, d_lam,
                -_kernels.dot(self.p, self._buf) * scale)

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

    @np.errstate(over="ignore", invalid="ignore")
    def solve(self, j, log_mu=0.0, hint=1.0, rel_tol=NORM_REL_TOL):
        """lam = inf{lam > 0 : rho_j(lam, mu) <= 1} at mu = exp(log_mu).

        lam is 0 for a zero level and inf when no lam is feasible: the
        terms at q = inf nodes alone sum above 1 (or to 1 beside a term that
        moves with lam), or a p = q = inf node exceeds mu.  A finite lam is
        a point evaluated on the feasible side, within rel_tol of one
        evaluated on the infeasible side.

        At p near the top of the float range, a term whose exponent row
        overflowed to -inf meets an overflowing c log lam far below the
        crossing; its NaN makes log rho NaN, which reads infeasible.  At
        constant p that is exact: the largest term is inf there.
        """
        floor = -math.inf
        if not self.plain:
            if self._cap_log[j] > log_mu:
                return math.inf
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
    ``NORM_REL_TOL`` of the infimum.  Where every p is inf it is max|f|
    raised by ``_floor_slack``, the p = inf floor that ``Modular.solve``
    returns there, bit for bit, without building the evaluator.
    """
    require_same_grid(f, p)
    m = f.max_abs()
    if m == 0.0:
        return 0.0
    if np.isinf(p.values).all():
        log_m = float(_log_abs(f.values).max())
        return _exp(log_m + _floor_slack(1.0, log_m, 0.0))
    return Modular((f,), p).solve(0, hint=_norm_hint(f.grid, m, 1))


def _norm_hint(grid, max_abs, levels):
    """A scale on the feasible side of the norm of ``levels`` fields on
    ``grid`` whose largest |f| is ``max_abs``: the crude start of every
    norm solve.  It is at most the largest float, since an overflowing hint
    would restart the solve at 1.0, out of reach of norms near the top of
    the float range."""
    return min(max_abs * max(1.0, grid.box_measure) * levels,
               sys.float_info.max)


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
