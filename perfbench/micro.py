"""Layer microbenchmarks on fixed desk-scale inputs, and the machine record.

The inputs do not depend on the workload or seed, so the numbers compare
across workloads and commits.  Each timing is the median over repetitions;
the repetition counts are returned with the values.
"""

import os
import platform
import statistics
import sys
import time

import numpy as np

from varbesov import _kernels
from varbesov.commutator import VectorField, theorem1_report
from varbesov.exponents import (constant_exponent, cos_bump_exponent,
                                log_smooth_exponent)
from varbesov.grid import default_grid
from varbesov.littlewood_paley import besov_norm, build_resolution
from varbesov.mixed import inner_lambda, mixed_norm
from varbesov.random_fields import (band_limited_field, band_limited_sequence,
                                    band_limited_vector_field)

from spans import Tracer

# The kernel inputs are those of the repository's kernel benchmark, so the
# two report the same sweep.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))
from bench_kernels import make_inputs  # noqa: E402

L3_BYTES_NOTE = ("bytes are computed from array sizes, not a measured "
                 "bandwidth: no workload array reaches 4x the last-level cache")


def _time(fn, reps, inner=1):
    """Median seconds per call over ``reps`` timed blocks of ``inner`` calls,
    after one untimed warm-up call."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def run():
    """Microbenchmark values keyed by metric name, plus sample counts."""
    g = default_grid(1)
    cell = g.cell
    log_af, p_k, rq, _, _ = make_inputs()
    fs = band_limited_sequence(g, 9, 64, 3)
    p = log_smooth_exponent(g, 2.0, 1.5)
    q = cos_bump_exponent(g, 1.5, 1.0)
    f = band_limited_field(g, 64, [3, 1])
    s = constant_exponent(g, 1.0)
    p4 = constant_exponent(g, 4.0)
    rou = build_resolution(g, 8)
    v = VectorField(tuple(band_limited_vector_field(g, 64, [3, 2])))

    # metric, unit scale, call, timed blocks, calls per block
    benches = [
        ("micro.scaled_modular_us", 1e6,
         lambda: _kernels.scaled_modular(log_af, p_k, rq, 0.0, -0.3, cell, 0.0),
         15, 200),
        ("micro.inner_solve_us", 1e6, lambda: inner_lambda(fs[4], p, q), 25, 1),
        ("micro.mixed_norm_ms", 1e3, lambda: mixed_norm(fs, p, q), 7, 1),
        ("micro.besov_norm_ms", 1e3, lambda: besov_norm(f, s, p, q, rou), 5, 1),
        ("micro.commutator_instance_s", 1.0,
         lambda: theorem1_report(v, f, s, p4, p4, q, rou), 3, 1),
    ]
    out = {name: scale * _time(fn, reps, inner)
           for name, scale, fn, reps, inner in benches}
    counts = {name: reps * inner for name, _, _, reps, inner in benches}
    with Tracer() as tracer:
        inner_lambda(fs[4], p, q)
    out["micro.inner_solve_evals"] = sum(
        span[4] for span in tracer.spans if span[0] == "solve.solve_threshold")
    return out, counts


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine():
    """Backend, versions, cores and caches of the machine running the run."""
    return {
        "backend": _kernels.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "note": L3_BYTES_NOTE,
    }
