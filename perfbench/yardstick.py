"""Yardstick blocks: fixed numpy work that measures how fast the host runs.

The benchmark runs on a shared host whose speed swings by 20-30 % between
seconds and between minutes, as other tenants load the same cores and
last-level cache, and a suite's time swings with it.  A yardstick block is
numpy arithmetic shaped like the workload's dominant kernel, on arrays of the
workload's size, that never calls the program: it slows down with the host,
not with the program.  The benchmark times one block before and one after
each suite repetition and divides the suite's time by their mean, which
cancels most of the host's swing.  On a 2-core KVM Xeon guest the spread
(IQR/median) of single plane-2d Littlewood-Paley repetitions went from
12-17 % in seconds to 5-9 % in blocks, and that of a desk-1d pass from 16 %
to 9 %; over ten whole runs, the fastest-repetition wall time of plane-2d
had spread 17-27 %, and ``wall_blocks`` spread 3 %.

The blocks' inputs are fixed (seed 0), whatever the workload seed.
"""

import time

import numpy as np


class Yardstick:
    """One kind of block, sized for a workload.

    ``kind`` is ``"modular"`` (an exp-and-sum sweep over ``nodes`` values,
    like the scaled modular kernel; ``repeats`` sweeps per block) or
    ``"pair"`` (anchored-pair ratios over ``rows`` levels and ``nodes``
    values, like the eta-shift kernel; ``repeats`` anchors per block).
    """

    def __init__(self, kind, nodes, rows, repeats):
        if kind not in ("modular", "pair"):
            raise ValueError(f"unknown yardstick kind {kind!r}")
        rng = np.random.default_rng(0)
        self.kind = kind
        self.repeats = int(repeats)
        self.x = rng.random(nodes) + 0.5
        self.p = rng.random(nodes) + 1.2
        self.d = 8.0 * rng.random(nodes)
        self.js = np.arange(float(rows))[:, None]

    def _modular(self):
        x, p = self.x, self.p
        for i in range(self.repeats):
            u = x - 0.3 * p - 1e-4 * i
            fin = ~np.isinf(p)
            float(np.sum(np.exp(p[fin] * u[fin])))

    def _pair(self):
        x, d, js = self.x, self.d, self.js
        n = x.shape[0]
        for i in range(self.repeats):
            da = x[(97 * i) % n] - x
            v = 2.0 ** (js * da[None, :]) * (1.0 + (2.0 ** js) * d[None, :]) ** -4.0
            np.max(v, axis=1)

    def time(self):
        """Seconds one block takes now."""
        block = self._modular if self.kind == "modular" else self._pair
        t0 = time.perf_counter()
        block()
        return time.perf_counter() - t0
