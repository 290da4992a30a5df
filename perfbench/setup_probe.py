"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <checkout root> <workload> <seed>

Times importing ``varbesov.cli`` and building the workload's grid, exponent
fields and resolution of unity, ending with a first kernel call so that any
lazy or compiled set-up is counted here.  Prints the seconds.
"""

import os
import sys
import time

from workloads import WORKLOADS


def main(root, workload, seed):
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import numpy as np
    from varbesov import cli
    from varbesov.exponents import exponent_from_family
    from varbesov.grid import Field, Grid
    from varbesov.lebesgue import luxemburg_norm
    from varbesov.littlewood_paley import build_resolution

    cfg = cli.validate_config(dict(WORKLOADS[workload], seed=seed))
    g = cfg["grid"]
    grid = Grid(g["dim"], g["points_per_axis"], g["half_width"])
    exps = {role: exponent_from_family(grid, spec["family"], spec["params"])
            for role, spec in cfg["exponents"].items()}
    build_resolution(grid, cfg["levels"])
    bump = Field(grid, np.exp(-grid.min_image_radius() ** 2))
    luxemburg_norm(bump, exps["p"])
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2], int(sys.argv[3]))))
