"""Benchmark workloads: CLI configuration documents, one per workload.

Each workload is a partial ``varbesov.cli`` configuration; the benchmark adds
the seed and runs the listed suites one at a time, in order.

- ``desk-1d``: the default CLI configuration (what ``varbesov --out
  report.json`` runs: 4096 nodes, J=8, all six suites) with one trial per
  suite instead of four.  Dominated by the scaled modular kernel under the
  threshold solve, so it is where solver and kernel gains show.
- ``plane-2d``: a 256^2 grid whose operands spill the per-core L2, dominated
  by the anchored-pair kernels; gains that hold at 4096 nodes but cost at
  65,536 show here.

The host's speed swings over seconds to minutes, and a suite's time follows
it.  So each workload also names a yardstick block (``yardstick.py``) shaped
like its dominant kernel on arrays of its size, and the benchmark reports
suite times in blocks.  One trial per suite keeps desk-1d's longest suite
(hardy) near 3 s, so every suite repeats several times in a run, and two
workloads leave each run about a minute.
"""

DEFAULT_SEED = 20240901

WORKLOADS = {
    "desk-1d": {
        "trials": 1,
        "suites": ["lebesgue", "mixed", "duality", "littlewood_paley",
                   "hardy", "commutator"],
    },
    "plane-2d": {
        "grid": {"dim": 2, "points_per_axis": 256},
        "levels": 6,
        "trials": 1,
        "suites": ["lebesgue", "littlewood_paley"],
    },
}


# yardstick kind and block size (sweeps or anchors per block); a block takes
# about 0.3 s (desk-1d) or 0.5 s (plane-2d) on a 2-core KVM Xeon guest
YARDSTICKS = {
    "desk-1d": ("modular", 7000),
    "plane-2d": ("pair", 45),
}


def suite_config(workload, seed, suite):
    """CLI configuration that runs one suite of a workload at a seed."""
    return dict(WORKLOADS[workload], seed=int(seed), suites=[suite])


def yardstick(workload):
    """The workload's yardstick, on arrays of its node count and with one row
    per Littlewood-Paley level."""
    from varbesov import cli
    from yardstick import Yardstick

    cfg = cli.validate_config(dict(WORKLOADS[workload], seed=DEFAULT_SEED))
    nodes = cfg["grid"]["points_per_axis"] ** cfg["grid"]["dim"]
    kind, repeats = YARDSTICKS[workload]
    return Yardstick(kind, nodes, cfg["levels"] + 1, repeats)
