"""Threshold inversion for monotone modular maps.

All norms in this package are infima of the form inf{x > 0 : F(x) <= 1}
where F is non-increasing with values in [0, inf].  ``solve_threshold``
works on the (log x, log F) plane and keeps an evaluated bracket
``F(lo) > 1 >= F(hi)``; it returns ``hi`` once ``hi/lo - 1 <= rel_tol``.

Newton path.  When ``fn`` returns a pair ``(F(x), d log F / d log x)``, the
next point is a Newton step on log F.  Every map solved in this package has
log F convex and decreasing in log x (a log-sum-exp of functions affine in
log x, or a sum of log-convex level infima): a tangent root never passes
the crossing, Newton approaches it monotonically
from the infeasible side, and from both ends of a bracket the larger tangent
root is the better lower bound.  A tangent is a global lower bound of a
convex log F, so a flat one above 1 (slope exactly 0, as where the terms
that move with x underflow beside a constant sum above 1) shows that F
never reaches 1: the search jumps to the top of its range and returns inf
there.  Once the step is below half the target gap
the crossing is pinned, and one closing probe a tenth of the gap past it
lands on the other side and closes the bracket.  A Newton step that is not
at most half the previous one (a wrong slope makes Newton creep) is
replaced by a safeguard step.

Safeguard.  A Newton step that leaves the bracket, an endpoint value of 0 or
inf (a jump of an endpoint exponent), or an ``fn`` that returns a plain
float (no derivative) falls back to the Illinois variant of false position,
and to geometric bisection when that stalls or an endpoint value is
unusable; without a bracket yet, the search expands geometrically, by a
factor 8 first and by the square of the previous factor after each step,
so it reaches either end of its range within ten steps.

A solve that reaches ``max_evals`` with the bracket still wider than
``rel_tol`` raises ``ThresholdNotConverged``.  When ``F`` stays <= 1 (or > 1)
down to the smallest (up to the largest) normal float, 0.0 (or inf) is
returned.
"""

import math
import sys

_LOG_EXPAND = math.log(8.0)  # the first step of the bracket search
# the search stays where exp(log x) is a normal positive float
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)


class ThresholdNotConverged(RuntimeError):
    """A threshold solve used its evaluation budget without closing the
    bracket to the requested relative tolerance."""


def _logv(v):
    if v == 0.0:
        return -math.inf
    if math.isinf(v):
        return math.inf
    return math.log(v)


def _tangent_root(u, w, s):
    """Root of the tangent line of log F at (u, w) with slope s, or nan; inf
    for a flat tangent above the crossing (s = 0 < w)."""
    if math.isfinite(w) and s < 0.0 and math.isfinite(s):
        return u - w / s
    if s == 0.0 and w > 0.0:
        return math.inf
    return math.nan


def solve_threshold(fn, hint, rel_tol=1e-9, max_evals=300):
    """Return inf{x > 0 : fn(x) <= 1} for non-increasing fn >= 0.

    ``fn(x)`` returns either F(x) or the pair (F(x), d log F / d log x); the
    pair enables Newton steps.  Returns 0.0 when fn stays <= 1 arbitrarily
    close to zero and inf when no feasible x exists.  Otherwise the result is
    a point where fn was evaluated <= 1, within relative distance rel_tol of
    a point where it was evaluated > 1.  Raises ThresholdNotConverged when
    max_evals evaluations do not reach that.
    """
    hint = float(hint)
    if not (hint > 0.0 and math.isfinite(hint)):
        hint = 1.0
    u = math.log(hint)
    umin, umax = _LOG_TINY, _LOG_HUGE
    gap_goal = math.log1p(rel_tol)

    # endpoints: position, log value, slope (nan until evaluated); ``w*_il``
    # are the log values the Illinois step works with (halved on a stagnant
    # side)
    ulo = whi = wlo = slo = shi = uhi = math.nan
    wlo_il = whi_il = math.nan
    have_lo = have_hi = False
    xhi = math.nan
    last_side = 0
    since_bisect = 0
    closing = False
    newton_step = math.inf
    expand = _LOG_EXPAND

    for _ in range(max_evals):
        x = math.exp(u)
        out = fn(x)
        if isinstance(out, tuple):
            v, s = float(out[0]), float(out[1])
        else:
            v, s = float(out), math.nan
        w = _logv(v)
        if v <= 1.0:
            if u <= umin:
                return 0.0
            uhi, whi, shi, xhi = u, w, s, x
            if last_side == +1 and math.isfinite(wlo_il):
                wlo_il *= 0.5  # Illinois: pull the stagnant endpoint value in
            whi_il = w
            have_hi = True
            side = +1
        else:
            if u >= umax:
                return math.inf
            ulo, wlo, slo = u, w, s
            if last_side == -1 and math.isfinite(whi_il):
                whi_il *= 0.5
            wlo_il = w
            have_lo = True
            side = -1

        if have_lo and have_hi:
            if uhi - ulo <= gap_goal:
                return xhi
            left, right = ulo, uhi
        else:
            left = ulo if have_lo else umin
            right = uhi if have_hi else umax

        # Newton: both tangent roots lie below the crossing of a log-convex
        # map, so the larger one is the closer lower bound.  After a closing
        # probe that missed, the slope is not trusted for one step.
        t = math.nan
        if not closing:
            roots = [r for r in (_tangent_root(ulo, wlo, slo),
                                 _tangent_root(uhi, whi, shi))
                     if not math.isnan(r)]
            t = max(roots, default=math.nan)
        closing = False
        if math.isfinite(t):
            # a step below half the gap pins the crossing: probe a tenth of
            # the gap past it to close the bracket in one evaluation
            if have_lo and t - ulo < 0.5 * gap_goal:
                t += 0.1 * gap_goal
                closing = True
            elif have_hi and uhi - t < 0.5 * gap_goal:
                t -= 0.1 * gap_goal
                closing = True
        # a Newton step that is not at most half the previous one is
        # creeping (a wrong or inconsistent slope): take a safeguard step
        if left < t < right and (closing or abs(t - u) <= 0.5 * newton_step):
            newton_step = abs(t - u)
            u = t
            last_side = 0
            continue
        closing = False
        newton_step = math.inf
        if t >= right and not have_hi:
            u = umax  # the crossing lies beyond the search range, if anywhere
            last_side = 0
        elif t <= left and not have_lo:
            u = umin
            last_side = 0
        elif not have_hi:
            u = min(ulo + expand, umax)
            expand *= 2.0
        elif not have_lo:
            u = max(uhi - expand, umin)
            expand *= 2.0
        else:
            u = _illinois_step(ulo, uhi, wlo_il, whi_il, since_bisect)
            if math.isnan(u):
                u = 0.5 * (ulo + uhi)
                side = 0
                since_bisect = 0
            else:
                since_bisect += 1
            last_side = side

    raise ThresholdNotConverged(
        f"no bracket within rel_tol={rel_tol:g} after {max_evals} evaluations "
        f"(bracket [{math.exp(ulo) if have_lo else 0.0:.17g}, "
        f"{xhi if have_hi else math.inf:.17g}])"
    )


def _illinois_step(ulo, uhi, wlo, whi, since_bisect):
    """False position on (log x, log F), clamped into the padded interior so
    every step shrinks the bracket; nan when bisection is due."""
    if since_bisect < 6 and math.isfinite(wlo) and math.isfinite(whi) and wlo > 0.0 > whi:
        um = ulo - wlo * (uhi - ulo) / (whi - wlo)
        if not math.isnan(um):
            # rejecting near-endpoint steps would stall at the crossing
            pad = 0.01 * (uhi - ulo)
            return min(max(um, ulo + pad), uhi - pad)
    return math.nan
