"""Self-tests of the benchmark's own logic.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import varbesov  # noqa: E402
from varbesov import _kernels, _solve, cli, mixed  # noqa: E402

import metrics  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402
import workloads  # noqa: E402
from yardstick import Yardstick  # noqa: E402

TINY = {"grid": {"dim": 1, "points_per_axis": 128}, "levels": 5, "trials": 1}


# --- self-time accounting -------------------------------------------------

def test_self_time_on_synthetic_nesting():
    # a[0,100] > b[10,40] > d[15,25];  a > c[50,70]
    spans = [("a", -1, 0, 100, 0), ("b", 0, 10, 40, 3), ("d", 1, 15, 25, 5),
             ("c", 0, 50, 70, 7)]
    agg = metrics.aggregate(spans)
    assert agg["a"] == [1, 0, 50]
    assert agg["b"] == [1, 3, 20]
    assert agg["d"] == [1, 5, 10]
    assert agg["c"] == [1, 7, 20]
    assert sum(v[2] for v in agg.values()) == 100
    assert metrics.total_ns(spans, ["a", "b"]) == 100  # b is inside a
    assert metrics.total_ns(spans, ["b", "c"]) == 50
    assert metrics.count_under(spans, "d", ["a"]) == 1
    assert metrics.count_under(spans, "c", ["b"]) == 0


def test_tracer_self_times_add_up_and_restore():
    fs = varbesov.band_limited_sequence(varbesov.Grid(1, 128, 16.0), 3, 20, 5)
    p = varbesov.log_smooth_exponent(fs.grid, 2.0, 1.0)
    q = varbesov.cos_bump_exponent(fs.grid, 1.5, 1.0)
    originals = (_kernels.scaled_modular, mixed.solve_threshold, _solve.solve_threshold)
    tracer = Tracer()
    with tracer:
        with tracer.span("root"):
            traced = varbesov.mixed_norm(fs, p, q)
    assert (_kernels.scaled_modular, mixed.solve_threshold,
            _solve.solve_threshold) == originals
    assert traced == varbesov.mixed_norm(fs, p, q)

    spans = tracer.spans
    agg = metrics.aggregate(spans)
    root = spans[0]
    assert root[0] == "root" and root[1] == -1
    assert sum(v[2] for v in agg.values()) == root[3] - root[2]
    assert all(v[2] >= 0 for v in agg.values())
    for i, (name, _, _, _, evals) in enumerate(spans):
        if name == "solve.solve_threshold":
            direct = [s for s in spans if s[1] == i]
            # every evaluation is one kernel call or one nested inner solve
            # evaluating a whole level sum
            assert evals >= 1
            assert all(s[0] in ("kernels.scaled_modular", "solve.solve_threshold")
                       for s in direct)
    m = metrics.layer_metrics(spans, tracer.maxed)
    assert m["mixed.mixed_norm.calls"] == 1
    assert m["solve.solve_threshold.maxed"] == 0
    assert m["kernels.scaled_modular.nodes"] == 128 * m["kernels.scaled_modular.calls"]


def test_inner_solve_evals_equal_kernel_calls():
    f = varbesov.band_limited_field(varbesov.Grid(1, 128, 16.0), 20, [5, 1])
    p = varbesov.log_smooth_exponent(f.grid, 2.0, 1.0)
    tracer = Tracer()
    with tracer:
        varbesov.luxemburg_norm(f, p)
    agg = metrics.aggregate(tracer.spans)
    assert agg["solve.solve_threshold"][1] == agg["kernels.scaled_modular"][0]


def test_traced_counts_repeat_and_reports_stay_identical():
    cfg = dict(TINY, suites=["lebesgue", "mixed", "littlewood_paley"])
    plain = cli.emit(cli.run(cfg))
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            blob = cli.emit(cli.run(cfg))
        assert blob == plain
        m = metrics.layer_metrics(tracer.spans, tracer.maxed)
        runs.append({k: v for k, v in m.items() if isinstance(v, int)})
    assert runs[0] == runs[1]
    assert runs[0]["grid.fft.calls"] > 0
    assert runs[0]["kernels.pair.pairs"] > 0


def test_solve_guard_counts_solves_at_max_evals():
    guard = Tracer(solves_only=True)
    with guard:
        # each call reaches its limit before the bracket closes
        assert mixed.solve_threshold(lambda x: 1.0 / x, 3.0, 1e-12, 3) > 0
        mixed.solve_threshold(lambda x: 1.0 / x, 3.0, max_evals=4)
        mixed.solve_threshold(lambda x: 1.0 / x, 3.0)
    assert guard.maxed == 2
    assert mixed.solve_threshold is _solve.solve_threshold
    assert {s[0] for s in guard.spans} == {"solve.solve_threshold"}


# --- check_fail_frac ------------------------------------------------------

def _rec(check_id, status="pass", measured=1.0):
    return {"id": check_id, "status": status, "measured": measured,
            "bound": 0.0, "tolerance": 0.0}


REF = {"a": [_rec("a.1"), _rec("a.2", measured=2.0)], "b": [_rec("b.1")]}


def test_judge_clean_run():
    outcomes = {"a": [REF["a"], REF["a"]], "b": [REF["b"]]}
    assert reference.judge(outcomes, REF) == (3, 0, 0.0)


def test_judge_tampered_reference():
    tampered = {"a": [_rec("a.1"), _rec("a.2", status="trivial")], "b": [_rec("b.x")]}
    outcomes = {"a": [REF["a"]], "b": [REF["b"]]}
    attempted, failed, _ = reference.judge(outcomes, tampered)
    assert (attempted, failed) == (3, 2)


def test_judge_fail_status_drift_and_raised_suite():
    drifted = [_rec("a.1", measured=1.5), _rec("a.2", status="fail", measured=2.0)]
    outcomes = {"a": [REF["a"], drifted], "b": [None]}
    attempted, failed, drift = reference.judge(outcomes, REF)
    assert (attempted, failed) == (3, 2)
    assert drift == pytest.approx(0.5 / 1.5)


def test_judge_without_reference_uses_first_repetition():
    outcomes = {"a": [REF["a"], [_rec("a.1"), _rec("a.2", status="fail")]],
                "b": [None, None]}
    assert reference.judge(outcomes, None) == (3, 2, 0.0)


def test_repetition_with_a_maxed_solve_fails_its_suite():
    import run
    blob = cli.emit(cli.run(dict(TINY, suites=["lebesgue"])))
    clean = run.verify("desk-1d", 1, {"lebesgue": [(blob, 0), (blob, 0)]})
    attempted, failed, _, identical, maxed = clean
    assert attempted > 0 and failed == 0 and identical and maxed == 0
    attempted, failed, _, identical, maxed = run.verify(
        "desk-1d", 1, {"lebesgue": [(blob, 0), (blob, 2)]})
    assert failed == attempted and identical and maxed == 2


def test_committed_references_load_only_at_their_seed():
    for workload in ("desk-1d", "plane-2d"):
        ref = reference.load(workload, 20240901)
        assert ref and all(r["status"] != "fail" for rs in ref.values() for r in rs)
        assert reference.load(workload, 1) is None


# --- sample statistics --------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert metrics.percentile(values, 50) == 5
    assert metrics.percentile(values, 90) == 9
    assert metrics.percentile(values, 100) == 10
    assert metrics.percentile(values, 1) == 1
    assert metrics.percentile([7], 90) == 7
    assert metrics.percentile([], 50) == 0


def test_wall_blocks_sums_median_ratio_of_each_suite():
    assert metrics.wall_blocks({"a": [3.0]}, {"a": [1.5]}) == 2.0
    # ratios 4, 1, 3: the median is 3 whatever the raw times
    assert metrics.wall_blocks({"a": [4.0, 2.0, 3.0]}, {"a": [1.0, 2.0, 1.0]}) == 3.0
    # a host twice as slow doubles time and block alike
    times = {"a": [5.0, 1.5, 3.0], "b": [9.0, 2.0, 2.5, 8.0]}
    blocks = {"a": [1.0, 0.5, 1.0], "b": [3.0, 1.0, 1.0, 4.0]}
    slow = {k: [2 * x for x in v] for k, v in times.items()}
    slow_blocks = {k: [2 * x for x in v] for k, v in blocks.items()}
    assert metrics.wall_blocks(times, blocks) == 3.0 + 2.25
    assert metrics.wall_blocks(slow, slow_blocks) == metrics.wall_blocks(times, blocks)
    with pytest.raises(ValueError):
        metrics.wall_blocks({"a": []}, {"a": []})


def test_yardstick_blocks_are_sized_per_workload():
    desk, plane = workloads.yardstick("desk-1d"), workloads.yardstick("plane-2d")
    assert (desk.kind, desk.x.shape, desk.js.shape) == ("modular", (4096,), (9, 1))
    assert (plane.kind, plane.x.shape, plane.js.shape) == ("pair", (65536,), (7, 1))
    assert desk.time() > 0.0 and plane.time() > 0.0
    with pytest.raises(ValueError):
        Yardstick("fft", 8, 1, 1)
