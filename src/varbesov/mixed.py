"""Mixed Lebesgue-sequence space: modular, norm, Holder, monotone limits.

The modular of a sequence (f_j) is the sum over levels of the per-level
infimum lam_j = inf{lam > 0 : rho_p(f_j / lam^{1/q(x)}) <= 1}, with the
convention lam^{1/inf} = 1 (a q = inf node is a lambda-independent term).
The norm is the gauge of that modular in the scale parameter mu.  Both work
on one ``lebesgue.Modular`` evaluator per (sequence, p, q): the modular is
one threshold solve (``_solve.solve_threshold``) in lambda per level, and
the norm is certified at both ends of a bracket in mu from the predictor's
last every-node pass per level, or solved by an outer threshold solve
around the level solves.

Every log rho_j is a log-sum-exp of functions affine in (u, v) =
(log lam, log mu), so it is convex in (u, v) jointly and decreasing in
each.  A q = inf term exp(a - p v) is one of them, affine with a zero
coefficient on u, so the tangent-plane bound and the certificate below hold
for it unchanged.  The norm is found in two phases.

Predictor (certifies nothing).  One pass at (u_j, v) gives log rho_j with
its slopes in u and v.  The tangent plane lies below log rho_j, so where
the plane is 0, log rho_j >= 0: its zero line u = r_j + s_j (v' - v)
lies at or below log lam_j(v') for every v'.  Hence
sum_j exp(r_j + s_j (v' - v)) <= sum_j lam_j(v'), and the crossing of the
left side with 1, a scalar Newton solve in plain Python, is at most
log(norm).  The next passes are taken at that crossing, on each level's
line.  A far-field step needs only the accuracy of the distance it
travels (inexact Newton; Dembo, Eisenstat and Steihaug 1982), so while the
crossing step is at least 0.1 the passes sweep a strided subsample of the
nodes (``Modular.strided``: every 8th node in 1-D, every 2nd per axis in
2-D, zero-copy views, where it holds at least 512 nodes), whose
log-sum-exp plus the log of the nodes per kept node estimates log rho_j;
those lines bound nothing.  After that every pass sweeps every node, and a
level takes one only while its point has moved by at least a quarter of
the inner solves' gap since its last every-node pass; otherwise it keeps
its line, which is still a bound.  A subsample pass with no usable plane is
replaced by an every-node pass.  The predictor stops once the crossing step
and every level's move are below that quarter gap; the lines then seed the
levels' tangents at the crossing, every one of them from an every-node
pass, so the crossing is at most log(norm), and each level's last
every-node pass, within that quarter gap of its point, is kept for the
certificate, which reads no other pass.  The predictor runs only where
every node has finite p (``Modular.plain``): p = inf floors and p = q = inf
caps are not affine in (u, v), and there the solve starts from the crude
``lebesgue._norm_hint`` with no tangents.  Its ``d_lam < 0`` test declines
a level whose nonzero terms all sit at q = inf nodes, whose lam_j is 0 or
inf.

Certificate (decides the value).  A scale mu is feasible iff
sum_j lam_j(mu) <= 1, and lam_j(mu) is at most any lam where
rho_j(lam, mu) <= 1 (rho_j decreases in lam), and above any lam where
rho_j(lam, mu) > 1.  So one point per level settles each end of a bracket:
mu_hi is feasible when points lam'_j with rho_j(lam'_j, mu_hi) <= 1 sum to
at most 1, and mu_lo is infeasible when points lam''_j with
rho_j(lam''_j, mu_lo) > 1 sum to more than 1.  The ends sit a sixteenth of
the gap log1p(NORM_REL_TOL) either side of the predictor's crossing; each
level's point is its line there, shifted by -1/2 log of the lines' sum, so
the points sum to its square root: below 1 above the crossing, above 1
below it.  Each point is decided as a pass there would decide it, with
rho_j raised by its rounding bound R (``Modular.raised``), as in every
threshold solve: raised log rho_j <= 0 at mu_hi, > 0 at mu_lo.  The
returned value is mu_hi.

A point (u, v) is decided without a pass, from its level's last
every-node predictor pass at (u0, v0), which read L0 = log rho_j and the
slopes g = (g_u, g_v).  With d = (u - u0, v - v0),
log rho_j(u, v) = L0 + log E exp(X), where E is the mean under the
weights w_i / rho_j of that pass's terms and
X = -c_i d_u - p_i d_v (c_i = p_i / q_i), so E X = g . d.  Jensen gives
log E exp(X) >= E X, and Hoeffding's lemma (Hoeffding 1963) gives
log E exp(X) <= E X + W^2 / 8 for X in an interval of width
W = (c_max - c_min)|d_u| + (p_max - p_min)|d_v|.  The pass's rounding
widens both: R0, the raise at (u0, v0), bounds the error of L0.  The slopes
are weighted means of nonnegative terms, so their relative error is at
most kappa = 4 R0 + 2 n eps: the terms' exponents and sum within R0, the
log and exp that form the pass's scale within R0, and the dot over n
nodes in any order within n eps; kappa bounds it relative to the exact
slope, so the computed one is within 2 kappa of it.  The float arithmetic
of the bound itself stays within 16 eps of the magnitudes it adds.  So the
exact log rho_j is in [lo, hi - 2 R] with

    lo = L0 + g . d - e,   hi = L0 + g . d + W^2 / 8 + e + 2 R,
    e = R0 + 2 kappa (|g_u d_u| + |g_v d_v|) + 16 eps (magnitudes),

and a pass at (u, v) reads within R of it, so its raised value is in
[lo, hi].  hi <= 0 decides the point feasible and lo > 0 infeasible, as
the pass would; a point decided infeasible has rho_j > 1.  Only a point
that neither decides takes the pass (``Modular.raised_log_rho``), so the
bracket is the one the passes would give, bit for bit.  Near the crossing
|d| is about 1e-10 and e and W^2 / 8 are far below the points' distance
from their level's boundary, so certified norms of the tested desk and
plane inputs take no certificate pass.

Where an end does not certify (an unconverged predictor, a non-finite
value, a sum on the wrong side of 1), the norm falls back to a plain nested
solve: a threshold solve in mu over the level sum ``_LevelSolver.modular``,
whose level solves start from the predictor's lines (log lam_j is convex in
log mu, so a line sits on the level's infeasible side, where Newton is
monotone), started from the predictor's crossing.  The level sum carries
no slope, so the outer solve takes the safeguard path.  Evaluators the
predictor declines solve the same way from the crude hint, each level
solve from lam = 1.  A p = inf evaluator is one of them: its level infima
come in closed form from ``Modular``'s p = inf floors and caps, so the norm
of a p = inf sequence is a safeguard solve from the crude hint over those.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._solve import _LOG_HUGE, _LOG_TINY, solve_threshold
from .exponents import harmonic_sum
from .grid import Field, require_same_grid
from .lebesgue import (NORM_REL_TOL, Modular, luxemburg_norm, _exp,
                       _norm_hint, _power_integral)
from .reports import gated_report, graded_report, ratio

INNER_REL_TOL = 1e-10
# the predictor hands over once its step in log mu and every level's move
# since its last every-node pass are below a quarter of the inner solves'
# gap, or after _PREDICTOR_PASSES passes per level; each of its scalar
# crossings stops at a rounding-level step or after _CROSSING_STEPS
_PREDICTOR_STOP = 0.25 * math.log1p(INNER_REL_TOL)
_PREDICTOR_PASSES = 12
_CROSSING_STEPS = 60
# its passes sweep a strided subsample of the nodes while its crossing step
# is at least _SUBSAMPLE_STEP, where that subsample has _SUBSAMPLE_MIN nodes
_SUBSAMPLE_STEP = 0.1
_SUBSAMPLE_MIN = 512
_EPS = sys.float_info.epsilon

#: Asserted constant for the generalized Holder inequalities.  The scalar
#: variable-exponent Holder constant is 2; two nested applications plus the
#: max(lambda_j, beta_j) splitting give at most 8.  Observed maxima are
#: reported so the assertion can be tightened later.
C_HOLDER = 8.0


@dataclass(frozen=True)
class FieldSequence:
    """Finite dyadic-indexed list of fields (f_j), j = 0..J, on one grid."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("sequence needs at least one level")
        require_same_grid(*entries)
        object.__setattr__(self, "entries", entries)

    @property
    def levels(self):
        return len(self.entries)

    @property
    def grid(self):
        return self.entries[0].grid

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, j):
        return self.entries[j]

    def max_abs(self):
        return max(f.max_abs() for f in self.entries)

    def scaled(self, c):
        return FieldSequence(tuple(Field(self.grid, c * f.values) for f in self.entries))

    def masked(self, mask):
        return FieldSequence(
            tuple(Field(self.grid, np.where(mask, f.values, 0.0)) for f in self.entries)
        )


def sequence_from_values(grid, arrays):
    return FieldSequence(tuple(Field(grid, a) for a in arrays))


def _usable(plane):
    """Whether a pass's (log rho, d_lam, d_mu) gives a tangent plane with a
    zero line: finite, and decreasing in both log lam and log mu."""
    log_rho, d_lam, d_mu = plane
    return d_lam < 0.0 and d_mu < 0.0 and math.isfinite(log_rho)


def _moved(last, log_lam, log_mu):
    """How far the point (log lam, log mu) is from the pass ``last`` = (log
    mu, log lam, ...), in the larger of its two coordinates; inf with no
    pass."""
    if last is None:
        return math.inf
    return max(abs(log_lam - last[1]), abs(log_mu - last[0]))


class _LevelSolver:
    """Per-level lambda solves on one Modular, and the mixed norm over them.

    ``norm`` runs in the two phases of the module docstring: on a plain
    evaluator ``_predict`` seeds one line per live level, below its
    log lam_j, and keeps the level's last every-node pass; ``_certify``
    brackets the norm from those lines and decides each level point at
    each end from that pass, taking a raised pass only where the bound
    cannot decide.
    Where it declines, or the predictor does, ``solve_threshold`` over
    ``modular`` decides the value, from the predictor's crossing or the
    crude hint.  The predictor's lines are the only tangents: ``_predict``
    alone writes them, and a level solve starts from its level's line where
    there is one.
    """

    def __init__(self, fs, p, q):
        self.evaluator = Modular(fs, p, q)
        self.levels = fs.levels
        # the levels with a nonzero term, each with one line and one point
        self.live = [j for j, live in enumerate(self.evaluator._live) if live]
        self._tangents = [None] * fs.levels  # (log mu, log lam, slope)
        # the predictor's last every-node pass per live level:
        # (log mu, log lam, log rho, d_lam, d_mu)
        self._last = None

    def inner(self, j, log_mu):
        """lam_j at mu = exp(log_mu), solved from its level's line or from 1."""
        tangent = self._tangents[j]
        hint = 1.0
        if tangent is not None:
            mu0, lam0, slope = tangent
            hint = math.exp(min(max(lam0 + slope * (log_mu - mu0), -700.0), 700.0))
        return self.evaluator.solve(j, log_mu, hint, INNER_REL_TOL)

    def modular(self, log_mu=0.0):
        """Sum over levels of lam_j at mu = exp(log_mu): the norm's
        threshold map, in log mu."""
        total = 0.0
        for j in range(self.levels):
            total += self.inner(j, log_mu)
            if math.isinf(total):
                return math.inf
        return total

    def norm(self, hint):
        """The mixed norm, solved from ``hint`` (``lebesgue._norm_hint``); on a
        plain evaluator it is certified from the predictor's lines, or
        solved from the predictor's crossing where that fails."""
        if self.evaluator.plain:
            log_hint = math.log(hint)
            log_mu = self._predict(log_hint)
            if log_mu is not None:
                bracket = self._certify(log_mu)
                if bracket is not None:
                    return bracket[1][0]  # mu_hi
                # the crude hint is feasible: a crossing above it helps nothing
                if log_mu < log_hint:
                    hint = math.exp(log_mu)
        return solve_threshold(lambda mu: self.modular(math.log(mu)), hint,
                               rel_tol=NORM_REL_TOL)

    @np.errstate(over="ignore")
    def _certify(self, log_mu):
        """The bracket ((mu_lo, points_lo), (mu_hi, points_hi)) of the norm
        around the predictor's crossing ``log_mu``, from the lines it seeded
        (the module docstring's certificate); None when an end does not
        certify.  ``points`` lists (j, log lam_j) over the live levels: at
        mu_hi each has raised log rho_j <= 0, at mu_lo > 0, decided by
        ``_bounds`` where they can, else by a pass.
        """
        ev = self.evaluator
        widths = self._widths()
        offset = 0.0625 * math.log1p(NORM_REL_TOL)
        ends = []
        for feasible, v in ((True, log_mu + offset), (False, log_mu - offset)):
            end = self._end(v)
            if end is None:
                return None
            mu, v, points = end
            total = sum(_exp(u) for _, u in points)
            if not (total <= 1.0 if feasible else total > 1.0):
                return None
            for (j, u), last in zip(points, self._last):
                lo, hi = self._bounds(j, last, u, v, widths)
                if not (hi <= 0.0 or lo > 0.0):  # undecided: take the pass
                    lo = hi = ev.raised_log_rho(j, u, v)
                if not (hi <= 0.0 if feasible else lo > 0.0):
                    return None
            ends.append((mu, points))
        return ends[1], ends[0]

    def _end(self, v):
        """(mu, log mu, points) for the bracket end at log mu = ``v``: mu
        is the float exp(v), and ``points`` lists (j, log lam_j) over the
        live levels, each level's line at log mu shifted so that the points
        sum to the square root of the lines' sum.  None where mu or that
        sum leaves the float range."""
        if not _LOG_TINY < v < _LOG_HUGE:
            return None
        mu = math.exp(v)
        v = math.log(mu)  # the point is the float mu
        us = []
        for j in self.live:
            at, log_lam, slope = self._tangents[j]
            us.append(log_lam + slope * (v - at))
        total = sum(_exp(u) for u in us)
        if not 0.0 < total < math.inf:
            return None
        shift = -0.5 * math.log(total)
        return mu, v, [(j, u + shift) for j, u in zip(self.live, us)]

    def _widths(self):
        """(c_max - c_min, p_max - p_min): the widths of the terms'
        coefficients on u and v, over every node."""
        ev = self.evaluator
        return ev._c_max - float(ev.c.min()), ev._p_max - float(ev.p.min())

    def _bounds(self, j, last, u, v, widths):
        """(lo, hi) around the raised log rho_j that a pass of level j at
        (u, v) would read, from the level's last predictor pass ``last`` =
        (v0, u0, log rho, d_lam, d_mu), with no pass: Jensen's bound below,
        Hoeffding's above, both widened by the rounding bounds of the module
        docstring.  ``widths`` is ``_widths()``."""
        ev = self.evaluator
        v0, u0, log_rho, d_lam, d_mu = last
        r0 = ev.raised(j, 0.0, u0, v0)  # the raise alone
        du, dv = u - u0, v - v0
        lin_u, lin_v = d_lam * du, d_mu * dv
        first = abs(lin_u) + abs(lin_v)
        # squared by a product, so an overflow reads inf and decides nothing
        width = widths[0] * abs(du) + widths[1] * abs(dv)
        spread = width * width / 8.0
        r = ev.raised(j, 0.0, u, v)
        kappa = 4.0 * r0 + 2.0 * ev.p.size * _EPS
        err = (r0 + 2.0 * kappa * first
               + 16.0 * _EPS * (abs(log_rho) + first + spread + r0 + r))
        plane = log_rho + lin_u + lin_v
        return plane - err, plane + spread + err + 2.0 * r

    @np.errstate(over="ignore")
    def _predict(self, log_mu):
        """Joint-Newton lower estimate of log(norm), starting at log mu =
        ``log_mu`` with every lam_j = 1; seeds the tangent of every level
        with a nonzero sample and keeps the last every-node pass of each.
        While the crossing step is at least ``_SUBSAMPLE_STEP`` the passes
        sweep the ``Modular.strided`` evaluator; after that a level takes
        an every-node pass only while its point has moved by
        ``_PREDICTOR_STOP`` since its last one, and otherwise keeps its
        line.  Returns None, seeding
        nothing, when an every-node pass gives no usable plane."""
        ev, live = self.evaluator, self.live
        if not live:
            return None
        sub = ev.strided()
        coarse = sub.p.size >= _SUBSAMPLE_MIN
        log_lams = [0.0] * len(live)
        last = [None] * len(live)  # each level's last every-node pass
        lines = []
        for k in range(_PREDICTOR_PASSES):
            coarse = coarse and k + 1 < _PREDICTOR_PASSES  # the last on every node
            kept, lines = lines, []
            for i, (j, log_lam) in enumerate(zip(live, log_lams)):
                if not coarse and _moved(last[i], log_lam, log_mu) < _PREDICTOR_STOP:
                    lines.append((log_lam, kept[i][1]))  # its line stays
                    continue
                plane = sub.partials(j, log_lam, log_mu) if coarse else None
                if plane is None or not _usable(plane):
                    plane = ev.partials(j, log_lam, log_mu)
                    if not _usable(plane):
                        return None
                    last[i] = (log_mu, log_lam) + plane
                log_rho, d_lam, d_mu = plane
                # the tangent plane's zero line:
                # log lam = r + s (log mu' - log mu)
                lines.append((log_lam - log_rho / d_lam, -d_mu / d_lam))
            step = _crossing(lines)
            if not math.isfinite(step):
                return None
            log_mu += step
            log_lams = [r + s * step for r, s in lines]
            if coarse:
                coarse = abs(step) >= _SUBSAMPLE_STEP
            elif abs(step) < _PREDICTOR_STOP and all(
                    _moved(at, u, log_mu) < _PREDICTOR_STOP
                    for at, u in zip(last, log_lams)):
                break
        for j, log_lam, (_, slope) in zip(live, log_lams, lines):
            self._tangents[j] = (log_mu, log_lam, slope)
        self._last = last
        return log_mu


def _crossing(lines):
    """The root t of log sum_j exp(r_j + s_j t) = 0 for lines (r_j, s_j)
    with every s_j < 0, by Newton: the map is convex and decreasing, so the
    iterates are monotone after the first step."""
    t = 0.0
    for _ in range(_CROSSING_STEPS):
        terms = [r + s * t for r, s in lines]
        top = max(terms)
        weights = [math.exp(x - top) for x in terms]
        total = sum(weights)
        slope = sum(w * s for w, (_, s) in zip(weights, lines)) / total
        step = (top + math.log(total)) / slope
        t -= step
        if not abs(step) > 1e-15 * (1.0 + abs(t)):
            break
    return t


def inner_lambda(f, p, q):
    """Per-term infimum inf{lam > 0 : rho_p(f / lam^{1/q(x)}) <= 1}.

    Returns 0 for f = 0 and inf when no lambda satisfies the constraint
    (through the lambda-independent terms at q = inf nodes, or a p = q =
    inf node where |f| > 1).
    """
    return Modular((f,), p, q).solve(0, rel_tol=INNER_REL_TOL)


def mixed_modular(fs, p, q):
    """Modular of the sequence: the sum over levels of lam_j at mu = 1.

    A p = inf evaluator is one the predictor declines; ``Modular`` takes
    its level infima in closed form from the p = inf floors and caps, so
    where p = inf everywhere lam_j is sup_x |f_j(x)|^{q(x)} (with the
    t^inf step convention), raised by a few ulps to its feasible side.
    """
    require_same_grid(*fs.entries, p, q)
    return _LevelSolver(fs, p, q).modular()


def mixed_norm(fs, p, q):
    """Norm of the mixed space: inf{mu > 0 : modular((f_j)/mu) <= 1}.

    For q = inf everywhere this is exactly sup_j of the per-level Luxemburg
    norms and is returned through that formula; every other norm is
    ``_LevelSolver.norm`` from the crude hint ``lebesgue._norm_hint``.
    """
    require_same_grid(*fs.entries, p, q)
    if np.all(np.isinf(q.values)):
        return max(luxemburg_norm(f, p) for f in fs)
    m = fs.max_abs()
    if m == 0.0:
        return 0.0
    return _LevelSolver(fs, p, q).norm(_norm_hint(fs.grid, m, fs.levels))


def classical_mixed_norm(fs, p0, q0):
    """The l^{q0}(L^{p0}) norm for constant finite exponents in closed form,
    the referee of ``mixed_norm``: (sum_j (h^n sum |f_j|^p0)^(q0/p0))^(1/q0)."""
    return sum(_power_integral(f, p0) ** (q0 / p0) for f in fs) ** (1.0 / q0)


def check_monotone_limit(fs, truncation_sets, p, q):
    """Verify that norms of mask-truncated sequences increase to the norm of
    the full sequence.  Two gates, in order: the relative gap between the
    largest truncated norm and the full norm against 0 within 1e-6, then the
    largest relative drop between consecutive truncated norms against 0
    within 1e-8, the threshold solver's resolution on two nearly equal norms.

    truncation_sets is an increasing list of boolean node masks whose union
    covers the grid.
    """
    masks = [np.asarray(mk, dtype=bool) for mk in truncation_sets]
    if not masks:
        raise ValueError("need at least one truncation set")
    for mk in masks:
        if mk.shape != fs.grid.shape:
            raise ValueError("mask shape does not match the grid")
    for a, b in zip(masks, masks[1:]):
        if np.any(a & ~b):
            raise ValueError("masks not nested")
    if not np.all(np.logical_or.reduce(masks)):
        raise ValueError("union of masks must cover the grid")

    full = mixed_norm(fs, p, q)
    # a mask over every node leaves the values of fs bitwise as they are
    norms = [full if np.all(mk) else mixed_norm(fs.masked(mk), p, q)
             for mk in masks]
    scale = max(full, 1e-300)
    drop = float(np.max(-np.diff(norms), initial=0.0)) / scale
    gap = abs(max(norms) - full) / scale if full > 0 else max(norms)
    return gated_report(
        "mixed.monotone_limit", [(gap, 0.0, 1e-6), (drop, 0.0, 1e-8)],
        details={"norms": norms, "full_norm": full, "drop": drop})


def check_holder(fs, gs, p1, p2, q1, q2, norm=None):
    """Empirical constants for the three Holder inequality forms.

    Measures LHS/RHS for the scalar product inequality, the fully split
    sequence inequality, and the sup-form with only the integrability index
    split; asserts every ratio stays below C_HOLDER, within 1e-6.
    ``norm`` (the mixed norm of ``fs`` at (p1, q1)) is used when the caller
    has it; otherwise it is solved here.
    """
    if fs.levels != gs.levels:
        raise ValueError("sequences must share the level count")
    p = harmonic_sum(p1, p2)
    q = harmonic_sum(q1, q2)
    grid = fs.grid
    prod = FieldSequence(
        tuple(Field(grid, a.values * b.values) for a, b in zip(fs, gs))
    )

    level_norms = [luxemburg_norm(f, p1) for f in fs]
    if norm is None:
        norm = mixed_norm(fs, p1, q1)

    lhs_scalar = luxemburg_norm(prod[0], p)
    rhs_scalar = level_norms[0] * luxemburg_norm(gs[0], p2)

    lhs_seq = mixed_norm(prod, p, q)
    rhs_split = norm * mixed_norm(gs, p2, q2)
    rhs_sup = max(level_norms) * mixed_norm(gs, p2, q)

    ratios = {
        "scalar": ratio(lhs_scalar, rhs_scalar),
        "split": ratio(lhs_seq, rhs_split),
        "sup_form": ratio(lhs_seq, rhs_sup),
    }
    trivial = fs.max_abs() == 0.0 or gs.max_abs() == 0.0
    measured = max(ratios.values()) if not trivial else 0.0
    return graded_report(
        "mixed.holder", measured, C_HOLDER, 1e-6,
        details={"ratios": ratios, "lhs_sequence": lhs_seq},
        trivial=trivial,
    )
