"""Hot numeric inner loops, all in numpy.

``log_modular`` is the pass behind every threshold solve (through
``lebesgue.Modular``) and behind ``scaled_modular``.  It returns log rho,
its slope in log lam (the Newton slope of every evaluation) and the scale
of the terms it leaves in its buffer; the slope in log mu, which only the
mixed norm's predictor reads (``lebesgue.Modular.partials``, also on the
``strided`` evaluator), is a weighted sum of those terms that the caller
takes from them.  Both slopes
are dot products taken by ``dot``, which hands BLAS no dot longer than
8192 elements.  OpenBLAS (the BLAS of numpy's wheels) keeps a dot of up to
10,000 elements on one thread, so under OpenBLAS the slopes' bits do not
depend on the thread count; a BLAS that splits shorter dots gives no such
guarantee.
``scaled_modular``, ``plain_modular`` and ``esssup_modular`` (the p = inf
modular sup t^{q(x)}) evaluate one modular on flat float64 arrays, checked
by the tests against ``lebesgue.omega`` node by node.  Only
``plain_modular`` runs in the package (``lebesgue.modular``); the other two
are the tests' referees.  ``perfbench/spans.py`` traces all three by name.

The anchored-pair kernels ``log_holder_max`` and ``eta_shift_curve`` work
on per-offset tables.  On a ``Grid`` the min-image distance between two
nodes depends only on their index offset, so each call checks axis by axis
that its coordinates are a grid's nodes (``_lattice``), builds one
per-offset table from the grid's axis coordinates (``_offset_table``) and
reaches every anchor through a slice of it.  Their per-pair loop forms
``_log_holder_max_loop`` and ``_eta_shift_curve_loop`` stay as the
reference the tests and ``benchmarks/bench_kernels.py`` check them
against; no package code calls them.  ``perfbench/spans.py`` reads the
kernels' arguments by position, so their parameter order is fixed.

A constant field is answered after the lattice check and before any table
is built.  ``log_holder_max`` returns 0.0.  ``eta_shift_curve`` with
R >= 0 returns ones: every exponent j(alpha(x) - alpha(y)) is exactly 0,
so every ratio is K_j(d) = (1 + 2^j d)^-R <= 1, and the offset d = 0,
which every anchor meets, gives exactly 1.  R < 0 or NaN takes the sweep.

``log_holder_bound`` bounds ``log_holder_max`` from above in one pass over
the field, by fl(max g - min g) times the weight at the smallest positive
table distance rounded up; a caller that only compares the constant with
a threshold sweeps the pairs only when the bound cannot decide.
"""

import math

import numpy as np

from .grid import Grid

BACKEND = "numpy"  # the kernel backend named in every report's environment

_INF = math.inf
_SUM_MIN = 1e-290  # plain sums below this are redone relative to the top term
# OpenBLAS splits a dot across threads above 10,000 elements, which moves
# its last bits; ``dot`` takes no longer dot than this in one call
_DOT_BLOCK = 8192


# ---------------------------------------------------------------------------
# modular kernels
# ---------------------------------------------------------------------------

def log_modular(base, c, log_lam, buf):
    """One pass of the exp-log fused modular over finite-exponent nodes.

    With the terms w = exp(base - c * log_lam) and rho = sum(w), returns
    (log rho, d log rho / d log lam, scale).  A term with c = 0 (a q = inf
    node) is one like any other whose value does not move with lam.  On
    return ``buf`` holds the terms w / exp(shift) and ``scale`` =
    exp(shift) / rho is the share of rho per unit of ``buf``, so any other
    weighted sum of the terms over rho, such as the slope in log mu that
    ``lebesgue.Modular.partials`` takes, is sum(weight * buf) * scale.  When
    every term is zero, log rho is -inf, the slope is 0.0, ``scale`` is nan
    and ``buf`` holds no terms.

    ``buf`` is scratch of the nodes' length and is overwritten; only
    in-place ufuncs touch it.  The sum is taken relative to the largest term
    only when the plain sum overflows or comes near underflow, so log rho
    and the slope stay finite wherever one term is nonzero.
    """
    np.multiply(c, -log_lam, out=buf)
    buf += base
    np.exp(buf, out=buf)
    s = float(buf.sum())
    shift = 0.0
    if not _SUM_MIN < s < _INF:
        np.multiply(c, -log_lam, out=buf)
        buf += base
        shift = float(buf.max()) if buf.size else -_INF
        if shift == -_INF:
            return -_INF, 0.0, math.nan
        buf -= shift
        np.exp(buf, out=buf)
        s = float(buf.sum())
    log_rho = shift + math.log(s)
    scale = math.exp(shift - log_rho)  # terms of buf per unit of rho
    return log_rho, -dot(c, buf) * scale, scale


def dot(a, b):
    """The dot product of two float64 arrays of one shape, with bits that
    do not depend on the OpenBLAS thread count.  Of 1-D arrays: one
    ``np.dot`` up to ``_DOT_BLOCK`` elements, else the sum, in order, of
    the dots of consecutive ``_DOT_BLOCK``-element pieces and then of the
    shorter tail.  Of 2-D arrays (a strided view of a lattice, which has
    no 1-D view), the sum of their rows' dots."""
    if a.ndim == 2:
        return float(np.sum(np.vecdot(a, b)))
    n = a.shape[0]
    if n <= _DOT_BLOCK:
        return float(np.dot(a, b))
    k = n - n % _DOT_BLOCK
    total = 0.0
    for part in np.vecdot(a[:k].reshape(-1, _DOT_BLOCK),
                          b[:k].reshape(-1, _DOT_BLOCK)).tolist():
        total += part
    if k < n:
        total += float(np.dot(a[k:], b[k:]))
    return total


def _flat(a):
    return np.ascontiguousarray(a, dtype=np.float64).ravel()


def scaled_modular(log_t, p, rq, log_mu, log_lam, cell, budget=0.0):
    """Modular of the per-node scaled samples, exp-log fused form.

    Sums omega_{p(x)}(exp(log_t - rq * log_lam - log_mu)) * cell over the
    nodes; log_t may hold -inf (zero samples) and rq = 1/q is 0 at q = inf.
    ``budget`` is accepted and ignored: the sum is always exact.
    """
    log_t, p, rq = _flat(log_t), _flat(p), _flat(rq)
    log_mu, log_lam = float(log_mu), float(log_lam)
    infp = np.isinf(p)
    if np.any(log_t[infp] - rq[infp] * log_lam - log_mu > 0.0):
        return _INF
    fin = ~infp
    pf = p[fin]
    base = pf * (log_t[fin] - log_mu) + math.log(float(cell))
    with np.errstate(over="ignore"):
        log_rho = log_modular(base, pf * rq[fin], log_lam, np.empty_like(base))[0]
        return float(np.exp(log_rho))


def plain_modular(t, p, cell):
    """Modular in natural power form; `t` holds nonnegative samples.

    The sum runs over the nodes with finite p and t > 0, in node order.
    Where every node is one of them, t and p are read as they are, with
    no gathered copies: the same terms in the same order, so the same bits.
    """
    t, p = _flat(t), _flat(p)
    infp = np.isinf(p)
    if infp.any():
        if np.any(t[infp] > 1.0):
            return _INF
        fin = ~infp
        t, p = t[fin], p[fin]
    pos = t > 0.0
    if not pos.all():
        t, p = t[pos], p[pos]
    with np.errstate(over="ignore"):
        terms = t ** p
    total = float(np.sum(terms)) * float(cell)
    return _INF if math.isinf(total) else total


def esssup_modular(log_t, q, log_mu):
    """sup of t^{q(x)} over nodes, with the t^inf step convention."""
    u = _flat(log_t) - float(log_mu)
    q = _flat(q)
    infq = np.isinf(q)
    if np.any(u[infq] > 0.0):
        return _INF
    fin = ~infq
    if not np.any(fin):
        return 0.0
    with np.errstate(over="ignore"):
        vals = np.exp(q[fin] * u[fin])
    best = float(np.max(vals)) if vals.size else 0.0
    return _INF if math.isinf(best) else best


# ---------------------------------------------------------------------------
# anchored-pair kernels on per-offset tables
# ---------------------------------------------------------------------------

# per-pair loop forms: the reference for the table kernels below

def _log_holder_max_loop(g, coords, anchors, period):
    # max over anchor/node pairs of |g(x)-g(y)| * log(e + 1/d(x,y)),
    # d = minimum-image distance on the periodic box.
    best = 0.0
    ndim = coords.shape[1]
    n = g.shape[0]
    for ai in range(anchors.shape[0]):
        a = anchors[ai]
        ga = g[a]
        for j in range(n):
            if j == a:
                continue
            d2 = 0.0
            for ax in range(ndim):
                dd = abs(coords[a, ax] - coords[j, ax])
                if period - dd < dd:
                    dd = period - dd
                d2 += dd * dd
            d = math.sqrt(d2)
            if d <= 0.0:
                continue
            v = abs(ga - g[j]) * math.log(math.e + 1.0 / d)
            if v > best:
                best = v
    return best


def _eta_shift_curve_loop(alpha, coords, anchors, period, big_r, out):
    # out[j] = max over anchor/node pairs of 2^{j(alpha(x)-alpha(y))}
    #          * (1 + 2^j d)^(-big_r); the kernel order m cancels in the ratio.
    ndim = coords.shape[1]
    n = alpha.shape[0]
    jcount = out.shape[0]
    for j in range(jcount):
        out[j] = 0.0
    for ai in range(anchors.shape[0]):
        a = anchors[ai]
        aa = alpha[a]
        for y in range(n):
            d2 = 0.0
            for ax in range(ndim):
                dd = abs(coords[a, ax] - coords[y, ax])
                if period - dd < dd:
                    dd = period - dd
                d2 += dd * dd
            d = math.sqrt(d2)
            da = aa - alpha[y]
            for j in range(jcount):
                tw = 2.0 ** j
                v = 2.0 ** (j * da) * (1.0 + tw * d) ** (-big_r)
                if v > out[j]:
                    out[j] = v
    return out


# table forms

def _lattice(coords, period):
    """The ``Grid`` whose nodes ``coords`` are, in ``flat_coordinates``
    order, with box period ``period``; raises ValueError when there is
    none.  Each column is compared with the grid's axis coordinates
    broadcast along its axis, so no (N, dim) copy of the nodes is built."""
    coords = np.asarray(coords, dtype=np.float64)
    n, dim = coords.shape
    side = int(round(n ** (1.0 / dim)))
    if side ** dim != n:
        raise ValueError(f"{n} nodes do not fill a {dim}-d square lattice")
    grid = Grid(dim, side, 0.5 * period)
    x = grid.axis_coordinates()
    for axis in range(dim):
        if not np.all(coords[:, axis].reshape(grid.shape)
                      == grid._along_axis(x, axis)):
            raise ValueError("pair kernels need the node coordinates of a Grid")
    return grid


def _axis_offsets(grid):
    """Min-image distance along one axis from index 0 to every index."""
    x = grid.axis_coordinates()
    dd = np.abs(x - x[0])
    return np.minimum(dd, 2.0 * grid.half_width - dd)


def _offset_table(grid):
    """Min-image distance from node 0 to every node of ``grid``, doubled
    along axis 0.

    The distance between two lattice nodes depends only on their index
    offset mod N per axis, so this one table serves every anchor (see
    ``_reach``).  It sums the per-axis offsets in squares through
    ``Grid._axis_norm``, which is bitwise the same as summing the columns
    of the (N, dim) node offsets.
    """
    table = grid._axis_norm(_axis_offsets(grid))
    return np.concatenate((table, table), axis=0)


def _reach(table2, a):
    """Flat view of a doubled offset table as seen from node ``a``: entry y
    holds the table's value at the offset y - a (mod N per axis)."""
    side = table2.shape[0] // 2
    if table2.ndim == 1:
        return table2[side - a:2 * side - a]
    i, k = divmod(int(a), side)
    rows = table2[side - i:2 * side - i]
    if k:
        rows = np.roll(rows, k, axis=1)
    return rows.ravel()


def log_holder_max(g, coords, anchors, period):
    """Largest |g(x)-g(y)| * log(e + 1/|x-y|) over anchored pairs, x != y.

    ``coords`` must be the nodes of a ``Grid`` with box period ``period``.
    The weight log(e + 1/d) is taken once per index offset.  The full 1-D
    pair set visits offsets 1..N/2 only (d and |g(x)-g(y)| are symmetric)
    and scales each offset's largest difference by its weight; rounding of
    x * w is monotone in x for w > 0, so the result is bitwise the per-pair
    maximum.  A constant g gives 0.0 before any table is built.
    """
    g = _flat(g)
    n = g.shape[0]
    grid = _lattice(coords, period)
    if g.max() - g.min() == 0.0:
        return 0.0
    table2 = _offset_table(grid)
    pos = table2 > 0.0
    w2 = np.zeros_like(table2)
    w2[pos] = np.log(math.e + 1.0 / table2[pos])
    best = 0.0
    buf = np.empty_like(g)
    if table2.ndim == 1 and np.array_equal(anchors, np.arange(n)):
        g2 = np.concatenate((g, g))
        for s in range(1, n // 2 + 1):
            np.subtract(g2[s:s + n], g, out=buf)
            np.abs(buf, out=buf)
            best = max(best, float(buf.max()) * float(w2[s]))
        return best
    for a in anchors:
        np.subtract(g[a], g, out=buf)
        np.abs(buf, out=buf)
        buf *= _reach(w2, a)
        best = max(best, float(buf.max()))
    return best


def log_holder_bound(g, grid):
    """An upper bound on ``log_holder_max`` of ``g`` on the nodes of
    ``grid``, whatever the anchors, from one pass over ``g``.

    Every term the kernel forms is fl(|g(x) - g(y)|) * fl(log(e + 1/d)) at
    a positive table distance d.  Rounding is monotone, so the difference
    is at most fl(max g - min g).  The smallest positive distance lies on
    an axis (a 2-D entry sums two squares, one of them an axis entry's),
    and its weight rounded up by one ulp dominates a faithfully rounded
    weight at any larger d.  So the rounded product dominates every term.
    A g with a NaN or an infinity gives a bound that decides nothing.
    """
    g = _flat(g)
    offsets = _axis_offsets(grid)
    axis = np.sqrt(offsets * offsets)  # the table's entries along one axis
    positive = axis[axis > 0.0]
    if positive.size == 0:  # one node per axis: no pair is weighed
        return 0.0
    weight = np.log(math.e + 1.0 / positive.min())
    return float(g.max() - g.min()) * float(np.nextafter(weight, _INF))


def eta_shift_curve(alpha, coords, anchors, period, big_r, jcount):
    """Per-level maxima of the shifted-kernel ratio, levels 0..jcount-1.

    out[j] = max over anchor/node pairs of 2^{j(alpha(x)-alpha(y))}
    * (1 + 2^j d)^(-big_r); the kernel order m cancels in the ratio.
    ``coords`` must be the nodes of a ``Grid`` with box period ``period``.
    Levels run outermost, so only one level's kernel table is alive.  A
    constant alpha with big_r >= 0 gives ones (zeros with no anchors)
    before any table is built (see the module docstring).
    """
    alpha = _flat(alpha)
    big_r = float(big_r)
    grid = _lattice(coords, period)
    out = np.zeros(int(jcount), dtype=np.float64)
    if big_r >= 0.0 and alpha.max() - alpha.min() == 0.0:
        if len(anchors):
            out.fill(1.0)
        return out
    table2 = _offset_table(grid)
    buf = np.empty_like(alpha)
    for j in range(out.shape[0]):
        k2 = (1.0 + 2.0 ** j * table2) ** (-big_r)
        best = 0.0
        for a in anchors:
            np.subtract(alpha[a], alpha, out=buf)
            buf *= j
            np.exp2(buf, out=buf)
            buf *= _reach(k2, a)
            best = max(best, float(buf.max()))
        out[j] = best
    return out
