"""Duality of the mixed space: pairing, extremal witnesses, randomized search.

The norm of (f_j) in the mixed space is attained (up to equivalence
constants) by pairing against the unit ball of the conjugate-exponent mixed
space.  For finite p this package constructs the near-extremal dual sequence
in closed form: with K the norm of (f_j), the level weights beta_j solve
rho_p(f_j / (K beta_j^{1/q(x)})) = 1 and sum to one, and the witness

    h_j = beta_j^{1/q'(x)} (|f_j| / (K beta_j^{1/q(x)}))^{p(x)-1}

pairs with (f_j) to K while sitting in the conjugate unit ball.  For p = inf
the witness is a normalized indicator of the near-argmax set per level.
"""

import logging
import math

import numpy as np

from .grid import Field, integrate, require_same_grid
from .exponents import conjugate, constant_exponent
from .lebesgue import _norm_hint, luxemburg_norm
from .mixed import FieldSequence, _LevelSolver, mixed_norm
from .random_fields import _field_source, _key
from .reports import gated_report, graded_report

logger = logging.getLogger(__name__)

BETA_FLOOR = 1e-10


def pairing(fs, gs):
    """Quadrature of sum_j |f_j| |g_j|; symmetric and nonnegative."""
    if fs.levels != gs.levels:
        raise ValueError("level mismatch")
    require_same_grid(fs.entries[0], gs.entries[0])
    total = 0.0
    for f, g in zip(fs, gs):
        total += integrate(Field(f.grid, np.abs(f.values) * np.abs(g.values)))
    return total


def extremal_witness(fs, p, q):
    """Construct the closed-form dual witness for finite p.

    Returns (hs, K, betas) with K the mixed norm of fs; levels with f_j = 0
    (or beta below the drop floor) get zero witnesses.
    """
    require_same_grid(*fs.entries, p, q)
    if not np.all(np.isfinite(p.values)):
        raise ValueError("extremal witness needs p finite everywhere; "
                         "use infinity_witness for p = inf")
    if not q.is_finite_valued():
        raise ValueError("extremal witness needs q finite-valued")
    m = fs.max_abs()
    if m == 0.0:
        raise ValueError("witness of the zero sequence is undefined")

    grid = fs.grid
    k_norm, betas = _level_weights(fs, p, q, m)
    rq = 1.0 / q.values
    hs = []
    for j, f in enumerate(fs):
        if f.max_abs() > 0.0 and not betas[j] > BETA_FLOOR:
            logger.warning("dropping level %d: beta=%.3e below floor", j, betas[j])
            betas[j] = 0.0
        beta = betas[j]
        if beta == 0.0:
            hs.append(Field(grid, np.zeros(grid.shape)))
            continue
        af = np.abs(f.values)
        base = af / (k_norm * beta ** rq)
        h = beta ** (1.0 - rq) * base ** (p.values - 1.0)
        hs.append(Field(grid, h))
    return FieldSequence(tuple(hs)), k_norm, betas


def _level_weights(fs, p, q, max_abs):
    """(K, betas): the mixed norm K of ``fs`` (largest |f_j| ``max_abs`` > 0)
    and beta_j = lam_j at mu = K, 0.0 on a zero level, from one
    ``_LevelSolver``: each beta_j starts from its level's predictor line
    (from 1 where the predictor declined)."""
    solver = _LevelSolver(fs, p, q)
    k_norm = solver.norm(_norm_hint(fs.grid, max_abs, fs.levels))
    log_k = math.log(k_norm)
    return k_norm, [solver.inner(j, log_k) for j in range(fs.levels)]


def infinity_witness(fs, q, eps):
    """Near-extremal dual sequence for p = inf.

    Level j keeps the nodes where the rescaled |f_j| comes within the
    level-weighted margin eps / (K 2^{j-1}) of its supremum 1, normalized to
    unit mass; the pairing then reaches at least K - eps * sum_j 2^{-(j-1)}.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not q.is_finite_valued():
        raise ValueError("infinity witness needs q finite-valued")
    require_same_grid(*fs.entries, q)
    grid = fs.grid
    zeros = Field(grid, np.zeros(grid.shape))
    m = fs.max_abs()
    if m == 0.0:
        return FieldSequence(tuple(zeros for _ in fs))
    p_inf = constant_exponent(grid, math.inf)
    k_norm, betas = _level_weights(fs, p_inf, q, m)
    rq = 1.0 / q.values
    hs = []
    for j, (f, beta) in enumerate(zip(fs, betas)):
        if beta <= 0.0:
            hs.append(zeros)
            continue
        scaled = np.abs(f.values) / (k_norm * beta ** rq)
        margin = eps / (k_norm * 2.0 ** (j - 1))
        support = scaled > float(np.max(scaled)) - margin
        measure = float(np.sum(support)) * grid.cell
        h = np.where(support, beta ** (1.0 - rq) / measure, 0.0)
        hs.append(Field(grid, h))
    return FieldSequence(tuple(hs))


def _shaped_candidate(fs, p, key):
    """Band-limited positive noise shaped by |f_j|^{p-1}; pure white noise
    pairs poorly and makes the randomized lower bound vacuous.  Level j's
    noise is the ``random_fields`` draw at the key (key, j), with no
    envelope, on min(max(4, N / 64), N / 4) modes."""
    grid = fs.grid
    n = grid.points_per_axis
    draw = _field_source(grid, min(max(4, n // 64), n // 4), False)
    p_vals = np.where(np.isfinite(p.values), p.values, 4.0)
    out = []
    for j, f in enumerate(fs):
        smooth = draw(_key(key, j)).values
        smooth -= smooth.min()
        smooth += 0.05 * (smooth.max() - smooth.min() + 1e-30)
        scale = f.max_abs()
        shape = (np.abs(f.values) + 1e-3 * (scale + 1e-30)) ** (p_vals - 1.0)
        out.append(Field(grid, smooth * shape))
    return FieldSequence(tuple(out))


def random_dual_search(fs, p, q, trials, seed):
    """Monte-Carlo lower bound for the duality supremum.

    Samples ``trials`` shaped candidates, rescales each to the conjugate
    unit ball and returns the best pairing, 0.0 where none has a finite
    nonzero conjugate norm.  Deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    require_same_grid(*fs.entries, p, q)
    if fs.max_abs() == 0.0:
        return 0.0
    pc = conjugate(p)
    qc = conjugate(q)
    best = 0.0
    for trial in range(trials):
        gs = _shaped_candidate(fs, p, [int(seed), trial])
        norm = mixed_norm(gs, pc, qc)
        if norm == 0.0 or math.isinf(norm):
            continue
        gs_unit = gs.scaled(1.0 / norm)
        best = max(best, pairing(fs, gs_unit))
    return best


def witness_measures(fs, p, q, seed):
    """(|sum_j beta_j - 1|, conjugate mixed norm, pairing / K) of the
    closed-form witness of ``fs``, and the best pairing / K of a pool of
    the witness and a randomized search over two candidates from ``seed``."""
    hs, k_norm, betas = extremal_witness(fs, p, q)
    witness_norm = mixed_norm(hs, conjugate(p), conjugate(q))
    paired = pairing(fs, hs)
    best = max(paired, random_dual_search(fs, p, q, trials=2, seed=seed))
    return abs(sum(betas) - 1.0), witness_norm, paired / k_norm, best / k_norm


def grade_witnesses(instances):
    """The four duality records, each grading the worst of ``instances``
    (tuples from ``witness_measures``), so each passes exactly when every
    instance does: the betas sum to 1, the witness lies in the conjugate
    unit ball and pairs to at least 0.999 K, and no candidate pairs above
    8 K.  A NaN measure carries through np.max / np.min and fails."""
    top, low = np.max(instances, axis=0), np.min(instances, axis=0)
    return [graded_report("duality.beta_sum", float(top[0]), 0.0, 1e-5),
            graded_report("duality.witness_feasible", float(top[1]), 1.0, 1e-4),
            graded_report("duality.witness_pairing", 0.999 - float(low[2]), 0.0, 0.0),
            graded_report("duality.upper_bound", float(top[3]), 8.0, 1e-9)]


def verify_norm_conjugate(f, p, trials, seed):
    """Scalar norm conjugate formula: the best pairing against conjugate
    unit-ball candidates should bracket the Luxemburg norm within a factor 2.
    Two gates, in order: the ratio pairing / norm against 2 within 1e-6,
    then its shortfall 0.5 - ratio against 0 within 1e-6.  The candidates
    are the Luxemburg extremal on the finite-p nodes and the near-argmax
    indicator on the p = inf nodes, both in closed form from the solved
    norm, and ``trials`` shaped candidates from ``seed``; the check solves
    no mixed norm.
    """
    require_same_grid(f, p)
    norm = luxemburg_norm(f, p)
    if norm == 0.0:
        return graded_report("duality.norm_conjugate", 0.0, 2.0, 1e-6,
                             details={"norm": 0.0, "best_pairing": 0.0},
                             trivial=True)
    grid = f.grid
    fin = np.isfinite(p.values)
    af = np.abs(f.values)
    # witness the finite-p and the infinite-p part of f apart, each in
    # closed form from the norm (the ratio below does not see a candidate's
    # scale); where one part is all of f, the other is zero and adds no
    # candidate
    candidates = []
    if np.max(af, where=fin, initial=0.0) > 0.0:
        # the Luxemburg extremal (|f| / norm)^{p-1}
        power = np.where(fin, p.values, 1.0) - 1.0
        candidates.append(Field(grid, np.where(fin, (af / norm) ** power, 0.0)))
    top = np.max(af, where=~fin, initial=0.0)
    if top > 0.0:
        # the nodes within 2e-9 norm of the largest |f| where p = inf
        near = ~fin & (af > top - 2e-9 * norm)
        candidates.append(Field(grid, near.astype(np.float64)))
    for trial in range(trials):
        candidates.append(
            _shaped_candidate(FieldSequence((f,)), p, [int(seed), trial])[0])
    pc = conjugate(p)
    best = 0.0
    for g in candidates:
        gn = luxemburg_norm(g, pc)
        if gn > 0.0:
            best = max(best, integrate(Field(grid, af * np.abs(g.values) / gn)))
    ratio = best / norm
    return gated_report(
        "duality.norm_conjugate", [(ratio, 2.0, 1e-6), (0.5 - ratio, 0.0, 1e-6)],
        details={"norm": norm, "best_pairing": best})

