"""Lightweight result records shared by the verification checks."""

import math
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one inequality or identity check.

    status is "pass", "fail" or "trivial" (degenerate input, nothing to
    measure).  details carries per-level curves and any auxiliary numbers.
    """

    check_id: str
    status: str
    measured: float
    bound: float
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status in ("pass", "trivial")


def graded_report(check_id, measured, bound, tolerance, details=None, trivial=False):
    """The one grading rule: pass when measured is at most bound + tolerance.
    ``measured`` is kept as given, so a count stays an int."""
    if trivial:
        status = "trivial"
    else:
        status = "pass" if measured <= bound + tolerance else "fail"
    return CheckReport(check_id, status, measured, float(bound),
                       float(tolerance), details or {})


@dataclass
class EstimateReport:
    """One inequality instance: left side, named right-side terms, ratio."""

    lhs: float
    rhs_terms: dict
    ratio: float


def make_estimate_report(lhs, rhs_terms):
    """The ``EstimateReport`` of ``lhs`` against the sum of ``rhs_terms``;
    a zero left side has ratio 0, and every value must be finite."""
    total = sum(rhs_terms.values())
    if lhs == 0.0:
        ratio = 0.0
    elif total > 0.0:
        ratio = lhs / total
    else:
        raise ValueError("estimate has positive left side but zero right side")
    if not (math.isfinite(lhs) and math.isfinite(ratio)):
        raise ValueError("estimate report requires finite values")
    for name, v in rhs_terms.items():
        if not math.isfinite(v):
            raise ValueError(f"right-side term {name} is not finite")
    return EstimateReport(float(lhs), dict(rhs_terms), float(ratio))
