"""Time the kernels, the spectral layer and the modular evaluator.

Run from the repository root:

    python benchmarks/bench_kernels.py

The modular rows time the public ``scaled_modular``, ``plain_modular`` and
``esssup_modular`` on one 4096-node input.

The anchored-pair kernels (per-offset tables) are timed against their
per-pair loop forms in plain python (a few seconds per loop call).
``eta_shift_curve`` is also timed alone on two variable-alpha inputs at
R = c_loc, as ``check_lemma_eta_shift`` calls it (a constant alpha takes
no sweep).

The spectral rows time one ``convolve``, the per-level eta convolutions of
``verify_eta_convolution``, the commutators at every level (the sequence
that ``commutator_lhs_norm`` weighs, collected from
``commutator._commutators``), one ``besov_norm`` and one
``verify_mixed_eta`` on the desk grids of the CLI (4096 nodes with J = 8;
256^2 with J = 6), on band-limited inputs as the suites generate them.
Beside each time stands the number of minor page faults per call (the
``ru_minflt`` delta of ``getrusage``): pages the call touched for the first
time, mostly in fresh allocations of its arrays.

The evaluator rows time one ``lebesgue.Modular`` build (the per-level rows
of a level stack) and one ``mixed_norm`` on a band-limited sequence at
desk scale (4096 nodes, 9 levels) and plane scale (256^2, 7 levels), with a
log-smooth p and a cos-bump q as in the default configuration; the desk
``mixed_norm`` row is the end-to-end mixed norm on the CLI's default grid.
Two rows time the q-omitted form of ``luxemburg_norm`` (one level, c is p)
at the constant p = inf that the CLI's ``lebesgue.constant_reduction_pinf``
record runs: one ``Modular`` build, whose every node is a p = inf floor
beside a zero term, and one ``luxemburg_norm``.
Beside the ``mixed_norm`` time stands the number of ``_kernels.log_modular``
passes per norm, the predictor's included, and the certificate's, which
takes a pass only for a level point that the bound from the predictor's
last pass cannot decide (none on these inputs): perfbench's
``solve.solve_threshold.evals_total`` counts only the evaluations of
threshold solves, and a certified mixed norm runs none, so it sees neither.
The rows below it time one ``mixed_norm`` per input class on the same
levels and p: q = inf on the inner band |x| < 0.4 L and on the outer band
|x| >= 0.4 L, p = inf on the inner band, and the outer q = inf band
with every odd level zero off it, so that those levels carry only q = inf
terms.  A q = inf node is a term with zero slope in log lam, so the
predictor and the certificate serve both q bands; the inner band's lines
still leave the certificate short, and the norm falls back to the nested
solve from the predictor's crossing.  The predictor declines p = inf (a
floor in closed form) and levels whose terms all sit at q = inf nodes; those
norms are the nested solve from the crude hint.  Every row of the evaluator
spans every node, a p = inf node being a zero term, so each pass of the
p = inf row sweeps all the nodes, not only those with finite p.
"""

import math
import resource
import time

import numpy as np

from varbesov import _kernels as K

N = 4096
REPS = 400
LEVELS = 7  # eta_shift_curve levels, as in a J = 6 run


def make_inputs():
    rng = np.random.default_rng(7)
    af = np.abs(rng.normal(size=N)) * np.exp(-np.linspace(-4, 4, N) ** 2)
    af[::57] = 0.0
    with np.errstate(divide="ignore"):
        log_af = np.log(af)
    p = 1.0 + 2.0 * rng.random(N)
    p[::41] = np.inf
    q = 1.0 + 3.0 * rng.random(N)
    rq = 1.0 / q
    coords = np.linspace(-16.0, 16.0, N, endpoint=False)[:, None].copy()
    return log_af, p, rq, q, coords


def variable_alpha_inputs():
    """(label, grid, alpha, R, levels) for the eta_shift_curve rows."""
    from varbesov.exponents import cos_bump_exponent, log_smooth_exponent
    from varbesov.grid import Grid

    plane = Grid(2, 256, 8.0)
    bump = cos_bump_exponent(plane, 0.3, 0.9)
    line = Grid(1, 1024, 5.0)
    smooth = log_smooth_exponent(line, 0.5, 1.0)
    return [
        ("2-D 256^2 cos_bump(0.3, 0.9), R = c_loc", plane, bump,
         bump.local_log_holder(), LEVELS),
        ("1-D 1024, L = 5, log_smooth(0.5, 1.0), R = c_loc", line, smooth,
         smooth.local_log_holder(), 9),
    ]


def spectral_inputs():
    """(label, grid, J, eta levels top, band) for the spectral rows; the eta
    top level is the CLI's cap on resolvable kernels."""
    from varbesov.grid import Grid

    return [
        ("1-D 4096, L = 16, J = 8", Grid(1, 4096, 16.0), 8, 8, 64),
        ("2-D 256^2, L = 16, J = 6", Grid(2, 256, 16.0), 6, 3, 20),
    ]


def modular_inputs():
    """(label, grid, levels, band) for the evaluator rows."""
    from varbesov.grid import Grid

    return [
        ("desk: 1-D 4096, L = 16, 9 levels", Grid(1, 4096, 16.0), 9, 64),
        ("plane: 2-D 256^2, L = 16, 7 levels", Grid(2, 256, 16.0), 7, 20),
    ]


def evaluator_rows(grid, fs, p, q):
    """(name, levels, p, q) per input class of the evaluator rows."""
    from varbesov.exponents import ExponentField
    from varbesov.mixed import sequence_from_values

    r = grid.min_image_radius()
    inner = r < 0.4 * grid.half_width
    q_inner = ExponentField(grid, np.where(inner, np.inf, q.values))
    q_outer = ExponentField(grid, np.where(inner, q.values, np.inf))
    p_inner = ExponentField(grid, np.where(inner, np.inf, p.values))
    mass_only = sequence_from_values(grid, [
        np.where(inner, 0.0, f.values) if j % 2 else f.values
        for j, f in enumerate(fs)])
    return [
        ("mixed_norm", fs, p, q),
        ("mixed_norm, q = inf on |x| < 0.4 L", fs, p, q_inner),
        ("mixed_norm, q = inf on |x| >= 0.4 L", fs, p, q_outer),
        ("mixed_norm, p = inf on |x| < 0.4 L", fs, p_inner, q),
        ("mixed_norm, odd levels q = inf terms only", mass_only, p, q_outer),
    ]


def bench_modular():
    from varbesov.exponents import (constant_exponent, cos_bump_exponent,
                                    log_smooth_exponent)
    from varbesov.lebesgue import Modular, luxemburg_norm
    from varbesov.mixed import mixed_norm
    from varbesov.random_fields import band_limited_sequence

    print("\nmodular evaluator (log-smooth p, cos-bump q, band-limited levels):",
          flush=True)
    for label, grid, levels, band in modular_inputs():
        fs = band_limited_sequence(grid, levels, band, 3)
        p = log_smooth_exponent(grid, 2.0, 1.5)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        reps = 50 if grid.node_count <= N else 10
        print(f"  {label}", flush=True)
        t = bench(lambda: Modular(fs, p, q), reps=reps)
        print(f"    {'Modular build':<44}{t * 1e3:>9.2f} ms", flush=True)
        f, p_inf = fs.entries[0], constant_exponent(grid, math.inf)
        t = bench(lambda: Modular((f,), p_inf), reps=reps)
        print(f"    {'Modular build, p = inf, q omitted, one level':<44}"
              f"{t * 1e3:>9.2f} ms", flush=True)
        t = bench(lambda: luxemburg_norm(f, p_inf), reps=reps)
        print(f"    {'luxemburg_norm, p = inf':<44}{t * 1e3:>9.2f} ms",
              flush=True)
        for name, gs, pe, qe in evaluator_rows(grid, fs, p, q):
            passes = kernel_passes(lambda: mixed_norm(gs, pe, qe))
            # norms of hundreds of passes are timed 3 times
            norm_reps = max(reps // 5, 3) if passes < 200 else 3
            t = bench(lambda: mixed_norm(gs, pe, qe), reps=norm_reps)
            print(f"    {name:<44}{t * 1e3:>9.2f} ms{passes:>8} passes/norm",
                  flush=True)


def kernel_passes(fn):
    """Number of ``_kernels.log_modular`` passes one call of ``fn`` makes;
    ``lebesgue.Modular`` reaches the kernel through ``_kernels`` at call
    time, so wrapping the module attribute sees every pass."""
    count = [0]
    log_modular = K.log_modular

    def counted(*args, **kwargs):
        count[0] += 1
        return log_modular(*args, **kwargs)

    K.log_modular = counted
    try:
        fn()
    finally:
        K.log_modular = log_modular
    return count[0]


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def bench_spectral():
    from varbesov.commutator import VectorField, _commutators
    from varbesov.exponents import (constant_exponent, cos_bump_exponent,
                                    log_smooth_exponent)
    from varbesov.grid import convolve, eta_kernel
    from varbesov.littlewood_paley import (besov_norm, build_resolution,
                                           verify_eta_convolution,
                                           verify_mixed_eta)
    from varbesov.mixed import FieldSequence
    from varbesov.random_fields import (band_limited_field,
                                        band_limited_sequence,
                                        band_limited_vector_field)

    print("\nspectral layer (eta order n + 2, band-limited inputs; "
          "s = 1, log-smooth p, cos-bump q):", flush=True)
    print(f"    {'':<40}{'time':>12}{'minor faults':>18}", flush=True)
    for label, grid, top, eta_top, band in spectral_inputs():
        f = band_limited_field(grid, band, 3)
        v = VectorField(tuple(band_limited_vector_field(grid, band, 5)))
        fs = band_limited_sequence(grid, top + 1, band, 9)
        s = constant_exponent(grid, 1.0)
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        rou = build_resolution(grid, top)
        m = float(grid.dim + 2)
        kernel = eta_kernel(eta_top, m, grid)
        rows = [
            ("convolve", lambda: convolve(kernel, f), 40),
            (f"verify_eta_convolution, levels 0..{eta_top}",
             lambda: verify_eta_convolution(f, p, m, eta_top), 10),
            (f"commutators, {rou.levels} levels",
             lambda: FieldSequence(tuple(
                 _commutators(v, f, rou, range(rou.levels)))), 10),
            (f"besov_norm, {rou.levels} levels",
             lambda: besov_norm(f, s, p, q, rou), 10),
            (f"verify_mixed_eta, {fs.levels} levels",
             lambda: verify_mixed_eta(fs, p, q, m), 10),
        ]
        print(f"  {label}", flush=True)
        for name, fn, reps in rows:
            fn()  # warm up
            before = minor_faults()
            t = bench(fn, reps=reps, warm=False)
            faults = (minor_faults() - before) / reps
            print(f"    {name:<40}{t * 1e3:>9.2f} ms{faults:>13.0f}/call",
                  flush=True)


def bench(fn, *args, reps=REPS, warm=True):
    if warm:
        fn(*args)  # warm up
    t0 = time.perf_counter()
    for _ in range(reps):
        fn(*args)
    return (time.perf_counter() - t0) / reps


def main():
    log_af, p, rq, q, coords = make_inputs()
    cell = 32.0 / N
    anchors = np.arange(0, N, 16, dtype=np.int64)

    print(f"array size {N}, {REPS} repetitions per timing\n")
    af = np.exp(log_af)
    g_samples = np.cos(coords[:, 0] / 3)
    rows = [
        ("scaled_modular",
         lambda: K.scaled_modular(log_af, p, rq, 0.0, -0.3, cell)),
        ("plain_modular", lambda: K.plain_modular(af, p, cell)),
        ("esssup_modular", lambda: K.esssup_modular(log_af, q, 0.1)),
    ]
    print(f"{'kernel':<18}{'time':>14}", flush=True)
    for name, fn in rows:
        print(f"{name:<18}{bench(fn) * 1e6:>11.1f} us", flush=True)

    alpha = 0.5 + 0.3 * np.sin(coords[:, 0])
    out = np.zeros(LEVELS)
    pair_rows = [
        ("log_holder_max",
         lambda: K._log_holder_max_loop(g_samples, coords, anchors, 32.0),
         lambda: K.log_holder_max(g_samples, coords, anchors, 32.0)),
        ("eta_shift_curve",
         lambda: K._eta_shift_curve_loop(alpha, coords, anchors, 32.0, 3.0, out),
         lambda: K.eta_shift_curve(alpha, coords, anchors, 32.0, 3.0, LEVELS)),
    ]
    print(f"\nanchored pairs: {anchors.size} anchors x {N} nodes "
          f"({LEVELS} levels for eta_shift_curve)")
    print(f"{'kernel':<18}{'per-pair loop':>16}{'table':>14}{'speedup':>10}",
          flush=True)
    for name, loop_fn, table_fn in pair_rows:
        t_loop = bench(loop_fn, reps=1, warm=False)
        t_table = bench(table_fn, reps=4)
        print(f"{name:<18}{t_loop * 1e3:>13.1f} ms{t_table * 1e3:>11.1f} ms"
              f"{t_loop / t_table:>9.1f}x", flush=True)

    from varbesov.littlewood_paley import _anchors_for_pairs

    print("\neta_shift_curve on variable alpha, anchors as in "
          "check_lemma_eta_shift:", flush=True)
    for label, grid, field, big_r, levels in variable_alpha_inputs():
        anchors_g = _anchors_for_pairs(grid)
        args = (field.values.ravel(), grid.flat_coordinates(), anchors_g,
                2.0 * grid.half_width, big_r, levels)
        t = bench(K.eta_shift_curve, *args, reps=10)
        print(f"  {label:<52}{t * 1e3:>9.1f} ms  ({anchors_g.size} anchors, "
              f"{levels} levels)", flush=True)

    bench_spectral()
    bench_modular()


if __name__ == "__main__":
    main()
