import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbesov._solve import ThresholdNotConverged, solve_threshold


def test_power_law_root():
    # F(x) = (2/x)^3 crosses 1 at exactly 2
    root = solve_threshold(lambda x: (2.0 / x) ** 3, hint=1.0)
    assert root == pytest.approx(2.0, rel=1e-8)


def test_step_map():
    # indicator-style map with a jump, as produced by sup-norm gauges
    root = solve_threshold(lambda x: 0.0 if x >= 0.73 else math.inf, hint=5.0)
    assert root == pytest.approx(0.73, rel=1e-8)
    assert root >= 0.73  # feasible side


def test_always_feasible_returns_zero():
    assert solve_threshold(lambda x: 0.5, hint=1.0) == 0.0


def test_never_feasible_returns_inf():
    assert solve_threshold(lambda x: 2.0, hint=1.0) == math.inf


@pytest.mark.parametrize("crossing", [1e200, 1e-200, 1e300, 1e-300])
@pytest.mark.parametrize("derivative", [False, True])
def test_far_crossings_are_found(crossing, derivative):
    # a map with no usable slope (or a true one) and its crossing far from
    # the hint: the bracket search must reach it, not give up at a range
    # end of its own
    fn = ((lambda x: (crossing / x, -1.0)) if derivative
          else (lambda x: crossing / x))
    root = solve_threshold(fn, hint=1.0)
    assert root == pytest.approx(crossing, rel=1e-8)
    assert crossing / root <= 1.0


def test_result_on_feasible_side():
    fn = lambda x: (3.7 / x) ** 1.3
    root = solve_threshold(fn, hint=100.0)
    assert fn(root) <= 1.0
    assert root == pytest.approx(3.7, rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 1e6), st.floats(0.3, 9.0), st.floats(1e-4, 1e4))
def test_random_power_laws(target, slope, hint):
    fn = lambda x: (target / x) ** slope
    root = solve_threshold(fn, hint=hint)
    assert root == pytest.approx(target, rel=1e-7)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.2, 4.0))
def test_sum_of_power_laws(a, b, slope):
    # sum of two decreasing power laws, smooth but not a pure power
    fn = lambda x: 0.5 * (a / x) ** slope + 0.5 * (b / x) ** (slope + 1.0)
    root = solve_threshold(fn, hint=1.0)
    assert fn(root) <= 1.0
    assert fn(root * (1.0 - 1e-7)) >= 1.0 - 1e-9


def _with_slope(target, slope):
    # (target/x)^slope with its log-log derivative, as the modular maps return
    return lambda x: ((target / x) ** slope, -slope)


def _counted(fn):
    calls = []

    def wrapped(x):
        calls.append(x)
        return fn(x)

    return wrapped, calls


def test_non_convergence_raises():
    # Illinois on a jump cannot close a 1e-12 bracket in five evaluations
    fn = lambda x: 0.0 if x >= 0.73 else math.inf
    with pytest.raises(ThresholdNotConverged):
        solve_threshold(fn, hint=5.0, rel_tol=1e-12, max_evals=5)
    assert issubclass(ThresholdNotConverged, RuntimeError)


def test_non_convergence_raises_on_newton_path():
    fn, calls = _counted(_with_slope(3.0, 2.0))
    with pytest.raises(ThresholdNotConverged):
        solve_threshold(fn, hint=1e6, rel_tol=1e-12, max_evals=2)
    assert len(calls) == 2


def test_newton_power_law_closes_in_three_evaluations():
    # log F is affine: one Newton step lands on the crossing, the closing
    # probe confirms the feasible side
    fn, calls = _counted(_with_slope(2.0, 3.0))
    root = solve_threshold(fn, hint=1000.0)
    assert root == pytest.approx(2.0, rel=1e-9)
    assert root >= 2.0
    assert len(calls) <= 3


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.2, 4.0),
       st.floats(1e-3, 1e3))
def test_newton_on_log_convex_sum(a, b, slope, hint):
    # a sum of power laws is log-convex in log x; the Newton path must keep
    # the feasible side and beat the derivative-free path on evaluations
    def value(x):
        return 0.5 * (a / x) ** slope + 0.5 * (b / x) ** (slope + 1.0)

    def with_slope(x):
        ta = 0.5 * (a / x) ** slope
        tb = 0.5 * (b / x) ** (slope + 1.0)
        return ta + tb, -(slope * ta + (slope + 1.0) * tb) / (ta + tb)

    fn, calls = _counted(with_slope)
    root = solve_threshold(fn, hint=hint)
    plain, plain_calls = _counted(value)
    ref = solve_threshold(plain, hint=hint)
    assert value(root) <= 1.0
    assert value(root / (1.0 + 1e-9)) > 1.0
    assert root == pytest.approx(ref, rel=2e-9)
    assert len(calls) <= len(plain_calls)


def test_flat_tangent_above_one_returns_inf():
    # a slope of exactly 0 at F > 1: the tangent, a lower bound of a
    # log-convex F, never reaches 1, so the solve jumps to the top of its
    # range and returns inf there
    fn, calls = _counted(lambda x: (2.0, 0.0))
    assert solve_threshold(fn, hint=1.0) == math.inf
    assert len(calls) == 2


def test_wrong_derivative_falls_back_to_safeguard():
    # a slope ten times too steep makes Newton creep; the safeguard still
    # brackets and converges on the feasible side
    fn = lambda x: ((2.0 / x) ** 3, -30.0)
    root = solve_threshold(fn, hint=1.0)
    assert root == pytest.approx(2.0, rel=1e-8)
    assert (2.0 / root) ** 3 <= 1.0


def test_newton_beyond_float_range_returns_limits():
    # crossings beyond the largest or below the smallest float
    assert solve_threshold(_with_slope(1e200, 2.0), hint=1e200 ** 0.5 * 1e300 ** 0.5,
                           ) == pytest.approx(1e200, rel=1e-9)
    assert solve_threshold(lambda x: (math.exp(-800.0 - math.log(x)) ** 0.01, -0.01),
                           hint=1.0) == 0.0
    assert solve_threshold(lambda x: (math.exp(0.01 * (800.0 - math.log(x))), -0.01),
                           hint=1.0) == math.inf
