"""End-to-end and per-layer benchmark of the varbesov verifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-1d --seed 20240901 --seconds 56 --trace 0

Without ``--workload`` every workload runs in turn, each in a fresh process
of its own (so ``peak_rss_mb`` and the warm-up are the same however the
benchmark is invoked), each ending with its own result line.

The program is imported from ``src/`` of the checkout; the benchmark exits
with status 2 when it is missing.  One single-threaded process drives
``varbesov.cli.run`` one suite at a time in a closed loop (the next suite
starts when the previous report is out).  Workloads are listed in
``workloads.py``; metric names and units come from ``BENCHMARK.json``.

``--trace 0`` (end to end): the workload's suites run in order, repeatedly,
for ``--seconds``: every suite runs once, and afterwards a suite starts again
only if its last time still fits before the deadline.  A yardstick block
(``yardstick.py``) is timed before and after every suite repetition.
``wall_blocks`` is the time to one full set of reports in blocks: the sum
over suites of the median over repetitions of the suite's time divided by
the mean of the two blocks around it, so that the host's speed swings
cancel.  The raw times are printed, not reported.  Between suite runs,
15 fresh interpreters time the set-up (``setup_probe.py``); ``setup_s`` is
their median.  The first repetition of each suite runs under a guard that
counts threshold solves reaching their evaluation limit; such a repetition
counts as failed, like one that raised.

``--trace 1`` (per layer): every suite runs untraced, traced, untraced once
each, whatever ``--seconds`` says, then the microbenchmarks run; ``wall_s``
there is the raw untraced time to one full set of reports, in seconds.  The
traced reports must be byte-identical to the untraced ones.  Spans and the
machine record are written to ``perfbench/out/``.

Every report of every repetition is judged against the committed reference
(``reference.py``); the last line printed is the JSON result, with
``correct`` false when any check failed or repetitions of a suite disagree.
``--write-reference`` regenerates the reference of a workload instead.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 15
LAYER_SUITES = ("mixed", "littlewood_paley", "duality", "hardy", "commutator")

if not os.path.isfile(os.path.join(SRC, "varbesov", "__init__.py")):
    print(f"perfbench: no varbesov sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

from varbesov import cli  # noqa: E402

import metrics  # noqa: E402
import micro  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, suite_config, yardstick  # noqa: E402


def run_suite(workload, seed, suite, tracer=None):
    """(seconds, emitted report bytes or None if the suite raised, solves
    that reached max_evals).  With a tracer, the suite runs traced inside a
    span of its own and the solves are counted; without, 0 is returned."""
    maxed = tracer.maxed if tracer is not None else 0
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
            stack.enter_context(tracer.span(f"suite.{suite}"))
        t0 = time.perf_counter()
        try:
            blob = cli.emit(cli.run(suite_config(workload, seed, suite)))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            blob = None
        dt = time.perf_counter() - t0
    return dt, blob, (tracer.maxed - maxed if tracer is not None else 0)


def probe_setup(workload, seed):
    """Seconds to set the workload up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, workload,
         str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def closed_loop(workload, seed, seconds):
    """Per-suite times, yardstick block times and (report, maxed) outcomes,
    and set-up times.

    One full pass runs first, under the solve guard; afterwards a suite
    repeats only if its last time still fits before the deadline.  Every
    suite run is framed by yardstick blocks, and its block time is the mean
    of the two.  A set-up probe follows each suite run until there are
    SETUP_PROBES of them, so set-up is sampled under the same machine
    conditions as the suites; probe time extends the deadline.
    """
    suites = WORKLOADS[workload]["suites"]
    stick = yardstick(workload)
    stick.time()  # warm-up
    guard = Tracer(solves_only=True)
    times = {s: [] for s in suites}
    blocks = {s: [] for s in suites}
    runs = {s: [] for s in suites}
    setup = []
    deadline = time.perf_counter() + seconds
    before = None
    first = True
    while True:
        ran = False
        for s in suites:
            if not first and times[s][-1] > deadline - time.perf_counter():
                continue
            if before is None:
                before = stick.time()
            dt, blob, maxed = run_suite(workload, seed, s, guard if first else None)
            after = stick.time()
            times[s].append(dt)
            blocks[s].append((before + after) / 2)
            runs[s].append((blob, maxed))
            before = after
            ran = True
            if len(setup) < SETUP_PROBES:
                t0 = time.perf_counter()
                setup.append(probe_setup(workload, seed))
                deadline += time.perf_counter() - t0
                before = None
        first = False
        if not ran:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(workload, seed))
    return times, blocks, runs, setup


def verify(workload, seed, runs):
    """(attempted, failed, max_rel_drift, identical, maxed) over every
    repetition in ``runs`` (suite -> list of (report bytes, maxed)).

    A repetition in which a solve reached max_evals counts as failed, like
    one that raised; every repetition must also emit the same bytes as the
    first."""
    outcomes = {s: [None if b is None or m else reference.records_of(b)
                    for b, m in rs] for s, rs in runs.items()}
    attempted, failed, drift = reference.judge(outcomes, reference.load(workload, seed))
    identical = all(b == rs[0][0] for rs in runs.values() for b, _ in rs)
    maxed = sum(m for rs in runs.values() for _, m in rs)
    return attempted, failed, drift, identical, maxed


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_line(values, kind, attempted, failed, correct):
    units = {m["name"]: m["unit"] for m in benchmark_spec()[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           f"do not match the {kind} list of BENCHMARK.json")
    return json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })


def end_to_end(workload, seed, seconds):
    times, blocks, runs, setup = closed_loop(workload, seed, seconds)
    attempted, failed, drift, identical, maxed = verify(workload, seed, runs)
    for s, t in times.items():
        ratios = [a / b for a, b in zip(t, blocks[s])]
        print(f"suite {s}: median {statistics.median(ratios):.4f} blocks over "
              f"{len(t)} samples (min {min(ratios):.4f}, max {max(ratios):.4f}); "
              f"median {statistics.median(t):.4f} s (min {min(t):.4f}, "
              f"max {max(t):.4f}); block median {statistics.median(blocks[s]):.4f} s")
    print(f"setup: median {statistics.median(setup):.4f} s over {len(setup)} "
          "fresh interpreters: " + " ".join(f"{x:.4f}" for x in setup))
    print(f"checks: {failed} failed of {attempted} "
          f"(check_fail_frac {failed / attempted:.4g}), max_rel_drift {drift:.3g}, "
          f"repetitions byte-identical: {identical}, solves at max_evals: {maxed}")
    values = {
        "setup_s": statistics.median(setup),
        "wall_blocks": metrics.wall_blocks(times, blocks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return result_line(values, "end_to_end", attempted, failed,
                       failed == 0 and identical)


def per_layer(workload, seed):
    # each suite runs untraced, traced, untraced, so that slow drift of the
    # machine's speed cancels out of the overhead
    tracer = Tracer()
    untraced, traced, runs = {}, {}, {}
    for s in WORKLOADS[workload]["suites"]:
        before = run_suite(workload, seed, s)
        during = run_suite(workload, seed, s, tracer)
        after = run_suite(workload, seed, s)
        untraced[s] = (before[0] + after[0]) / 2
        traced[s] = during[0]
        runs[s] = [rep[1:] for rep in (before, during, after)]
    attempted, failed, drift, identical, _ = verify(workload, seed, runs)

    values = metrics.layer_metrics(tracer.spans, tracer.maxed)
    untraced_s = sum(untraced.values())
    values["trace.overhead_frac"] = (sum(traced.values()) - untraced_s) / untraced_s
    values["wall_s"] = untraced_s
    for s in LAYER_SUITES:
        values[f"suite_s.{s}"] = untraced.get(s, 0.0)
    values["report.check_fail_frac"] = failed / attempted
    values["report.max_rel_drift"] = drift
    micro_values, micro_counts = micro.run()
    values.update(micro_values)
    machine = micro.machine()

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}")
    tracer.write(stem + "-spans.json.gz")
    with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "micro_samples": micro_counts,
                   "metrics": values}, fh, indent=1)
    print(f"machine: {json.dumps(machine)}")
    print(f"microbenchmark samples: {json.dumps(micro_counts)}")
    print(f"spans: {len(tracer.spans)}, traced reports byte-identical: {identical}")
    return result_line(values, "per_layer", attempted, failed,
                       failed == 0 and identical)


def write_reference(workload):
    suites = {}
    for s in WORKLOADS[workload]["suites"]:
        _, blob, _ = run_suite(workload, DEFAULT_SEED, s)
        if blob is None:
            sys.exit(f"perfbench: suite {s} raised; no reference written")
        suites[s] = reference.records_of(blob)
    reference.save(workload, DEFAULT_SEED, suites)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference at the default seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload is None:
        # every workload in a fresh process of its own
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.write_reference:
                cmd.append("--write-reference")
            status = max(status, subprocess.run(cmd, check=False).returncode)
        sys.exit(status)
    if args.write_reference:
        write_reference(args.workload)
        return
    print(f"workload {args.workload}, seed {args.seed}", flush=True)
    if args.trace:
        line = per_layer(args.workload, args.seed)
    else:
        line = end_to_end(args.workload, args.seed, args.seconds)
    print(line, flush=True)


if __name__ == "__main__":
    main()
