"""Sample statistics and per-layer metrics computed from recorded spans.

A span is (name, parent index, start ns, end ns, work); parent -1 marks a
root.  A span's self time is its duration minus the durations of its direct
children; a group's total time counts only spans with no ancestor in the
same group, so nested calls are not counted twice.
"""

import math
import statistics

NS = 1e-9
BYTES_PER_NODE = 24  # scaled_modular reads log|f|, p and 1/q: three float64


def wall_blocks(times, blocks):
    """Time to one full set of reports, in yardstick blocks: the sum over
    suites of the median over repetitions of the suite's time divided by the
    time of the blocks around it (suite -> lists of seconds, matched by
    position, each non-empty).  The host's speed swings cancel in each
    ratio, and the median keeps one odd repetition from moving the sum."""
    return sum(statistics.median(t / b for t, b in zip(times[s], blocks[s]))
               for s in times)


def percentile(values, q):
    """Nearest-rank percentile (0 < q <= 100): an element of ``values``, so
    integer counts stay exact."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def aggregate(spans):
    """name -> [calls, work, self ns]."""
    child_ns = [0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out = {}
    for i, (name, _, t0, t1, work) in enumerate(spans):
        entry = out.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += work
        entry[2] += t1 - t0 - child_ns[i]
    return out


def _has_ancestor(spans, i, names):
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][1]
    return False


def total_ns(spans, names):
    """Wall time inside spans named in ``names``, outermost spans only."""
    names = set(names)
    return sum(t1 - t0 for i, (name, _, t0, t1, _) in enumerate(spans)
               if name in names and not _has_ancestor(spans, i, names))


def count_under(spans, name, ancestors):
    """Spans called ``name`` that run inside a span named in ``ancestors``."""
    ancestors = set(ancestors)
    return sum(1 for i, s in enumerate(spans)
               if s[0] == name and _has_ancestor(spans, i, ancestors))


def layer_metrics(spans, maxed):
    """Per-layer counts and times of one traced pass."""
    agg = aggregate(spans)

    def get(name):
        return agg.get(name, (0, 0, 0))

    def total_s(*names):
        return total_ns(spans, names) * NS

    m = {}
    calls, nodes, self_ns = get("kernels.scaled_modular")
    m["kernels.scaled_modular.calls"] = calls
    m["kernels.scaled_modular.nodes"] = nodes
    m["kernels.scaled_modular.self_s"] = self_ns * NS
    m["kernels.scaled_modular.ns_per_node"] = self_ns / nodes if nodes else 0.0
    m["kernels.scaled_modular.bytes_computed"] = BYTES_PER_NODE * nodes
    m["kernels.plain_modular.calls"] = get("kernels.plain_modular")[0]
    pair = [get("kernels.log_holder_max"), get("kernels.eta_shift_curve")]
    m["kernels.pair.self_s"] = sum(p[2] for p in pair) * NS
    m["kernels.pair.pairs"] = sum(p[1] for p in pair)

    evals = [s[4] for s in spans if s[0] == "solve.solve_threshold"]
    m["solve.solve_threshold.calls"] = len(evals)
    m["solve.solve_threshold.evals_total"] = sum(evals)
    m["solve.solve_threshold.evals_p50"] = percentile(evals, 50)
    m["solve.solve_threshold.evals_p90"] = percentile(evals, 90)
    m["solve.solve_threshold.evals_max"] = max(evals, default=0)
    m["solve.solve_threshold.self_s"] = get("solve.solve_threshold")[2] * NS
    m["solve.solve_threshold.maxed"] = maxed

    m["lebesgue.luxemburg_norm.calls"] = get("lebesgue.luxemburg_norm")[0]
    m["lebesgue.luxemburg_norm.total_s"] = total_s("lebesgue.luxemburg_norm")
    mixed_calls = get("mixed.mixed_norm")[0]
    m["mixed.mixed_norm.calls"] = mixed_calls
    m["mixed.mixed_norm.total_s"] = total_s("mixed.mixed_norm")
    solves = count_under(spans, "solve.solve_threshold", ["mixed.mixed_norm"])
    m["mixed.mixed_norm.solves_per_call"] = solves / mixed_calls if mixed_calls else 0.0

    ffts = [v for k, v in agg.items() if k.startswith("fft.")]
    m["grid.fft.calls"] = sum(v[0] for v in ffts)
    m["grid.fft.points"] = sum(v[1] for v in ffts)
    m["grid.fft.self_s"] = sum(v[2] for v in ffts) * NS
    m["grid.spectral_derivative.calls"] = get("grid.spectral_derivative")[0]
    m["grid.convolve.calls"] = get("grid.convolve")[0]

    m["littlewood_paley.lp_block.calls"] = get("littlewood_paley.lp_block")[0]
    m["littlewood_paley.besov_norm.calls"] = get("littlewood_paley.besov_norm")[0]
    m["littlewood_paley.besov_norm.total_s"] = total_s("littlewood_paley.besov_norm")
    m["duality.extremal_witness.total_s"] = total_s("duality.extremal_witness")
    m["duality.random_dual_search.total_s"] = total_s("duality.random_dual_search")
    m["commutator.commutator.calls"] = get("commutator.commutator")[0]
    m["commutator.commutator_lhs_norm.total_s"] = total_s("commutator.commutator_lhs_norm")
    m["random_fields.total_s"] = total_s("random_fields.band_limited_field",
                                         "random_fields.band_limited_sequence",
                                         "random_fields.band_limited_vector_field")
    m["exponents.local_log_holder.total_s"] = total_s("exponents.local_log_holder")
    return m
