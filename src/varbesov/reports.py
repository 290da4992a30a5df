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


def gated_report(check_id, gates, details=None):
    """One check graded on several gates, each a (measured, bound,
    tolerance) triple graded by ``graded_report``: the record is the first
    gate that fails, or the first gate when every gate passes."""
    reports = [graded_report(check_id, *gate, details) for gate in gates]
    return next((r for r in reports if not r.passed), reports[0])


def ratio(lhs, rhs):
    """The one ratio rule: a zero left side gives 0, a zero right side inf,
    and otherwise the ratio is lhs / rhs (a NaN carries through)."""
    if lhs == 0.0:
        return 0.0
    if rhs == 0.0:
        return math.inf
    return lhs / rhs


@dataclass
class EstimateReport:
    """One inequality instance: left side, named right-side terms, ratio."""

    lhs: float
    rhs_terms: dict
    ratio: float


def estimate_reports(lhs, variants):
    """One ``EstimateReport`` per variant of an estimate: ``lhs`` against
    the sum of the variant's right-hand side terms, by ``ratio``.  Nothing
    is rejected here: a non-finite ratio reaches the record that grades it
    and fails there."""
    return {k: EstimateReport(float(lhs), dict(t), float(ratio(lhs, sum(t.values()))))
            for k, t in variants.items()}
