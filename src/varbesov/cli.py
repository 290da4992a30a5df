"""Configuration-driven verification runner.

One JSON document configures grid, levels, exponent families, suite
selection, trials and seed; ``run`` executes the selected suites
deterministically and ``emit`` serializes the report (stable key order,
values at 12 significant digits).  Exit codes: 0 all checks pass, 1 at
least one check failed, 2 configuration error.
"""

import argparse
import csv
import io
import json
import math
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _kernels
from .exponents import FAMILIES, conjugate, constant_exponent, exponent_from_family
from .grid import Grid, Field
from .lebesgue import luxemburg_norm, modular
from .littlewood_paley import (build_resolution, besov_norm, block_sequence,
                               check_lemma_eta_shift, hardy_transform,
                               verify_eta_convolution, verify_hardy,
                               verify_mixed_eta)
from .mixed import check_holder, check_monotone_limit, mixed_norm
from .duality import (extremal_witness, pairing, random_dual_search,
                      verify_norm_conjugate)
from .commutator import SweepConfig, constant_sweep
from .random_fields import (band_limited_field, band_limited_sequence,
                            gaussian_envelope)

SUITES = ("lebesgue", "mixed", "duality", "littlewood_paley", "hardy",
          "commutator")


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field path."""


DEFAULT_CONFIG = {
    "grid": {"dim": 1, "points_per_axis": 4096, "half_width": 16.0},
    "levels": 8,
    "seed": 20240901,
    "trials": 4,
    "suites": list(SUITES),
    "tolerances": {},
    "exponents": {
        "p": {"family": "log_smooth", "params": {"a": 2.0, "b": 1.0}},
        "q": {"family": "cos_bump", "params": {"a": 1.5, "b": 1.0}},
        "s": {"family": "constant", "params": {"value": 1.0}},
        "p1": {"family": "constant", "params": {"value": 4.0}},
        "p2": {"family": "constant", "params": {"value": 4.0}},
    },
}


@dataclass
class CheckRecord:
    check_id: str
    status: str
    measured: float
    bound: float
    tolerance: float


@dataclass
class SuiteReport:
    records: list
    config: dict
    environment: dict = field(default_factory=dict)

    @property
    def failed(self):
        return [r for r in self.records if r.status == "fail"]


def _round12(x):
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def validate_config(raw):
    """Normalize and validate a configuration document."""
    _expect(isinstance(raw, dict), "config", "must be a JSON object")
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    for key in raw:
        _expect(key in cfg, key, "unknown configuration key")
    if "grid" in raw:
        _expect(isinstance(raw["grid"], dict), "grid", "must be an object")
        for k in raw["grid"]:
            _expect(k in cfg["grid"], f"grid.{k}", "unknown grid field")
        cfg["grid"].update(raw["grid"])
    g = cfg["grid"]
    _expect(g["dim"] in (1, 2), "grid.dim", "must be 1 or 2")
    n = g["points_per_axis"]
    _expect(isinstance(n, int) and n >= 2 and (n & (n - 1)) == 0,
            "grid.points_per_axis", "must be a power of two")
    _expect(g["half_width"] > 0, "grid.half_width", "must be positive")

    for key in ("levels", "seed", "trials"):
        if key in raw:
            _expect(isinstance(raw[key], int) and raw[key] >= 0,
                    key, "must be a nonnegative integer")
            cfg[key] = raw[key]
    _expect(cfg["trials"] >= 1, "trials", "must be >= 1")
    _expect(2 ** (cfg["levels"] + 1) <= n // 2, "levels",
            f"needs 2^(levels+1) <= Nyquist index {n // 2}")

    if "suites" in raw:
        _expect(isinstance(raw["suites"], list), "suites", "must be a list")
        for s in raw["suites"]:
            _expect(s in SUITES, f"suites.{s}", f"unknown suite (known: {', '.join(SUITES)})")
        cfg["suites"] = list(raw["suites"])

    if "tolerances" in raw:
        _expect(isinstance(raw["tolerances"], dict), "tolerances", "must be an object")
        for k, v in raw["tolerances"].items():
            _expect(isinstance(v, (int, float)) and v > 0,
                    f"tolerances.{k}", "must be positive")
        cfg["tolerances"].update(raw["tolerances"])

    if "exponents" in raw:
        _expect(isinstance(raw["exponents"], dict), "exponents", "must be an object")
        for role, spec in raw["exponents"].items():
            _expect(role in cfg["exponents"], f"exponents.{role}", "unknown exponent role")
            _expect(isinstance(spec, dict), f"exponents.{role}", "must be an object")
            for k in spec:
                _expect(k in ("family", "params"), f"exponents.{role}.{k}", "unknown field")
            fam = spec.get("family", cfg["exponents"][role]["family"])
            _expect(fam in FAMILIES, f"exponents.{role}.family",
                    f"unknown family {fam!r} (known: {', '.join(sorted(FAMILIES))})")
            cfg["exponents"][role] = {
                "family": fam,
                "params": dict(spec.get("params", cfg["exponents"][role]["params"])),
            }
    return cfg


def _build_exponent(cfg, grid, role):
    spec = cfg["exponents"][role]
    try:
        return exponent_from_family(grid, spec["family"], spec["params"])
    except KeyError as exc:
        raise ConfigError(f"exponents.{role}: {exc.args[0]}") from exc


def _tol(cfg, name, default):
    return float(cfg["tolerances"].get(name, default))


def _suite_band(cfg, grid):
    """Mode budget for generated inputs: the dealiasing margin 2^J/4 with a
    floor wide enough for the generator's envelope margin."""
    band = max(2 ** cfg["levels"] // 4, 20)
    ceiling = min(2 ** cfg["levels"], grid.nyquist_index // 2)
    if ceiling < 20:
        raise ConfigError(
            "grid.points_per_axis: too few modes for boundary-decaying "
            f"band-limited inputs (need Nyquist/2 >= 20, got {ceiling})"
        )
    return min(band, ceiling)


def _record(records, report):
    records.append(CheckRecord(report.check_id, report.status,
                               _round12(report.measured), _round12(report.bound),
                               _round12(report.tolerance)))


def _record_value(records, check_id, measured, bound, tolerance, trivial=False):
    if trivial:
        status = "trivial"
    else:
        status = "pass" if measured <= bound + tolerance else "fail"
    records.append(CheckRecord(check_id, status, _round12(measured),
                               _round12(bound), _round12(tolerance)))


def _suite_lebesgue(cfg, grid, records, curves):
    mesh = grid.coordinate_mesh()[0]
    tol = _tol(cfg, "lebesgue", 1e-6)

    if grid.dim == 1:
        # f = 1 on the nodes of [0, 1) (exponent 1) and of [1, 2) (exponent
        # 2): the gauge solves m1/lam + m2/lam^2 = 1, where m_i is the
        # quadrature measure of piece i; when the nodes tile both pieces
        # exactly, m1 = m2 = 1 and lam is the golden ratio
        first = (mesh >= 0) & (mesh < 1)
        second = (mesh >= 1) & (mesh < 2)
        vals = np.zeros(grid.shape)
        vals[first | second] = 1.0
        pv = np.full(grid.shape, 2.0)
        pv[first] = 1.0
        from .exponents import ExponentField

        lam = luxemburg_norm(Field(grid, vals), ExponentField(grid, pv))
        m1 = np.count_nonzero(first) * grid.cell
        m2 = np.count_nonzero(second) * grid.cell
        exact = (m1 + math.sqrt(m1 * m1 + 4.0 * m2)) / 2.0
        _record_value(records, "lebesgue.two_level_gauge", abs(lam - exact),
                      0.0, 1e-8)

    f = band_limited_field(grid, _suite_band(cfg, grid), [cfg["seed"], 1])
    for p0 in (1.0, 1.5, 2.0, 3.0, math.inf):
        pc = constant_exponent(grid, p0)
        nrm = luxemburg_norm(f, pc)
        if math.isinf(p0):
            direct = f.max_abs()
        else:
            direct = (float(np.sum(np.abs(f.values) ** p0)) * grid.cell) ** (1.0 / p0)
        rel = abs(nrm - direct) / direct
        _record_value(records, f"lebesgue.constant_reduction_p{p0}", rel, 0.0, tol)

    p = _build_exponent(cfg, grid, "p")
    violations = 0
    for t in range(cfg["trials"]):
        ft = band_limited_field(grid, _suite_band(cfg, grid), [cfg["seed"], 2, t])
        nrm = luxemburg_norm(ft, p)
        for scale_idx, scale in enumerate((0.5, 0.999, 1.001, 2.0)):
            gt = Field(grid, ft.values * (scale / nrm))
            rho = modular(gt, p)
            target = scale
            if abs(target - 1.0) < 1e-7:
                continue
            if (target < 1.0) != (rho <= 1.0):
                violations += 1
    _record_value(records, "lebesgue.unit_ball_equivalence", violations, 0.0, 0.0)


def _suite_mixed(cfg, grid, records, curves):
    tol = _tol(cfg, "mixed", 1e-7)
    levels = cfg["levels"] + 1
    kmax = _suite_band(cfg, grid)
    p0, q0 = 2.5, 1.7
    pc = constant_exponent(grid, p0)
    qc = constant_exponent(grid, q0)
    worst = 0.0
    for t in range(cfg["trials"]):
        fs = band_limited_sequence(grid, levels, kmax, [cfg["seed"], 3, t])
        nrm = mixed_norm(fs, pc, qc)
        direct = sum(
            (float(np.sum(np.abs(f.values) ** p0)) * grid.cell) ** (q0 / p0)
            for f in fs
        ) ** (1.0 / q0)
        worst = max(worst, abs(nrm - direct) / direct)
    _record_value(records, "mixed.constant_reduction", worst, 0.0, tol)

    fs = band_limited_sequence(grid, levels, kmax, [cfg["seed"], 4])
    qi = constant_exponent(grid, math.inf)
    p = _build_exponent(cfg, grid, "p")
    level_norms = [luxemburg_norm(f, p) for f in fs]
    sup_norm = max(level_norms)
    _record_value(records, "mixed.q_infinity_shortcut",
                  abs(mixed_norm(fs, p, qi) - sup_norm), 0.0, 0.0)

    q = _build_exponent(cfg, grid, "q")
    radius = grid.min_image_radius()
    masks = [radius <= grid.half_width * frac for frac in (0.25, 0.5, 0.75)]
    masks.append(np.ones(grid.shape, dtype=bool))
    rep = check_monotone_limit(fs, masks, p, q)
    _record(records, rep)

    gs = band_limited_sequence(grid, levels, kmax, [cfg["seed"], 5])
    rep = check_holder(fs, gs, p, conjugate(p), q, conjugate(q),
                       level_norms=level_norms, norm=rep.details["full_norm"])
    _record(records, rep)


def _suite_duality(cfg, grid, records, curves):
    levels = cfg["levels"] + 1
    kmax = _suite_band(cfg, grid)
    p = _build_exponent(cfg, grid, "p")
    q = _build_exponent(cfg, grid, "q")
    beta_worst = 0.0
    feas_worst = 0.0
    pair_worst = math.inf
    upper_worst = 0.0
    for t in range(cfg["trials"]):
        fs = band_limited_sequence(grid, levels, kmax, [cfg["seed"], 6, t])
        hs, k_norm, betas = extremal_witness(fs, p, q)
        beta_worst = max(beta_worst, abs(sum(betas) - 1.0))
        feas_worst = max(feas_worst, mixed_norm(hs, conjugate(p), conjugate(q)))
        pair_worst = min(pair_worst, pairing(fs, hs) / k_norm)
        best = random_dual_search(fs, p, q, trials=2, seed=cfg["seed"] + t,
                                  witness=hs)
        upper_worst = max(upper_worst, best / k_norm)
    _record_value(records, "duality.beta_sum", beta_worst, 0.0, 1e-5)
    _record_value(records, "duality.witness_feasible", feas_worst, 1.0, 1e-4)
    _record_value(records, "duality.witness_pairing", 0.999 - pair_worst, 0.0, 0.0)
    _record_value(records, "duality.upper_bound", upper_worst, 8.0, 1e-9)

    f = band_limited_field(grid, kmax, [cfg["seed"], 7])
    rep = verify_norm_conjugate(f, p, trials=cfg["trials"], seed=cfg["seed"] + 17)
    _record(records, rep)


def _suite_littlewood_paley(cfg, grid, records, curves):
    top = cfg["levels"]
    rou = build_resolution(grid, top)
    kmag = grid.mode_magnitude()
    total = sum(rou.multipliers)
    residual = float(np.max(np.abs(total[kmag <= 2.0 ** top] - 1.0)))
    _record_value(records, "lp.partition_of_unity", residual, 0.0, 1e-12)

    kmax = _suite_band(cfg, grid)
    f = band_limited_field(grid, kmax, [cfg["seed"], 8])
    recon = sum(b.values for b in block_sequence(f, rou))
    _record_value(records, "lp.reconstruction",
                  float(np.max(np.abs(recon - f.values))) / f.max_abs(), 0.0, 1e-10)

    s = _build_exponent(cfg, grid, "s")
    p = _build_exponent(cfg, grid, "p")
    q = _build_exponent(cfg, grid, "q")
    mesh = grid.coordinate_mesh()[0]
    f0 = Field(grid, 0.4 + 0.3 * np.cos(np.pi * mesh / grid.half_width))
    rel = abs(besov_norm(f0, s, p, q, rou) / luxemburg_norm(f0, p) - 1.0)
    _record_value(records, "lp.single_block_identity", rel, 0.0, 1e-7)

    rep = check_lemma_eta_shift(s, s.local_log_holder(),
                                float(grid.dim + 2), top)
    _record(records, rep)
    curves["lp.eta_shift"] = rep.details["per_level"]

    bump = Field(grid, gaussian_envelope(grid))
    # beyond h*2^j = 2^(2-n) the kernel at level j is undersampled and its
    # discrete mass inflates (squared per axis); keep the trend check on
    # resolvable levels (at the 1-d desk scale this cap is inactive)
    eta_top = min(top, int(math.floor(math.log2(
        grid.points_per_axis / grid.half_width))) - (grid.dim - 1))
    rep = verify_eta_convolution(bump, p, float(grid.dim + 2), eta_top)
    _record(records, rep)
    curves["lp.eta_convolution"] = rep.details["ratios"]

    fs = band_limited_sequence(grid, top + 1, kmax, [cfg["seed"], 9])
    rep = verify_mixed_eta(fs, p, q, float(grid.dim + 2))
    _record(records, rep)


def _suite_hardy(cfg, grid, records, curves):
    levels = cfg["levels"] + 1
    kmax = _suite_band(cfg, grid)
    p = _build_exponent(cfg, grid, "p")
    a_values = (0.25, 0.5, 0.75)
    qs = {q0: constant_exponent(grid, q0) for q0 in (1.5, 2.0, 4.0)}
    cases = [(a, q0) for a in a_values for q0 in qs]
    worst = dict.fromkeys(cases, 0.0)
    bound = dict.fromkeys(cases, 0.0)
    # one sequence per trial, shared by every (a, q0) case; one base norm
    # per (trial, q0), shared by every a; one transform pair per (trial, a),
    # shared by every q0 and dropped before the next a's is built
    for t in range(cfg["trials"]):
        gs = band_limited_sequence(grid, levels, kmax, [cfg["seed"], 10, t])
        bases = {q0: mixed_norm(gs, p, q) for q0, q in qs.items()}
        for a in a_values:
            transforms = hardy_transform(gs, a)
            for q0, q in qs.items():
                rep = verify_hardy(gs, a, p, q, base=bases[q0],
                                   transforms=transforms)
                worst[a, q0] = max(worst[a, q0], rep.measured)
                bound[a, q0] = rep.bound
            del transforms
    for a, q0 in cases:
        _record_value(records, f"hardy.a{a}_q{q0}", worst[a, q0],
                      bound[a, q0], 1e-6)


# (theorem, exponent roles set over the configured ones, seed offset)
_COMMUTATOR_SWEEPS = (
    ("theorem1", {}, 23),
    ("theorem2", {"s": ("constant", {"value": 0.5})}, 29),
    ("theorem3", {"s1": ("constant", {"value": 0.6}),
                  "s2": ("cos_bump", {"a": 0.0, "b": 0.3}),
                  "q1": ("constant", {"value": 4.0}),
                  "q2": ("constant", {"value": 4.0})}, 31),
)


def _suite_commutator(cfg, grid, records, curves):
    base = {role: (cfg["exponents"][role]["family"],
                   cfg["exponents"][role]["params"])
            for role in ("p1", "p2", "q", "s")}
    band = _suite_band(cfg, grid)
    for theorem, roles, offset in _COMMUTATOR_SWEEPS:
        sweep = SweepConfig(dim=grid.dim, points_per_axis=grid.points_per_axis,
                            half_width=grid.half_width, levels=cfg["levels"],
                            exponents=base | roles, kmax=band)
        summary = constant_sweep(sweep, theorem, trials=cfg["trials"],
                                 seed=cfg["seed"] + offset, refine=False)
        worst = max(summary["max_ratio"].values())
        _record_value(records, f"commutator.{theorem}_ratio_finite",
                      0.0 if math.isfinite(worst) else 1.0, 0.0, 0.0)
        if theorem == "theorem1":
            curves["commutator.theorem1"] = [
                summary["max_ratio"][k] for k in sorted(summary["max_ratio"])
            ]


_SUITE_RUNNERS = {
    "lebesgue": _suite_lebesgue,
    "mixed": _suite_mixed,
    "duality": _suite_duality,
    "littlewood_paley": _suite_littlewood_paley,
    "hardy": _suite_hardy,
    "commutator": _suite_commutator,
}


def run(config):
    """Execute the selected suites; returns a SuiteReport.

    The run is deterministic for a fixed config document (all randomness
    flows from the seed).
    """
    cfg = validate_config(config)
    g = cfg["grid"]
    grid = Grid(g["dim"], g["points_per_axis"], g["half_width"])
    records = []
    curves = {}
    for suite in cfg["suites"]:
        _SUITE_RUNNERS[suite](cfg, grid, records, curves)
    environment = {
        "package_version": __version__,
        "backend": _kernels.BACKEND,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }
    report = SuiteReport(records=records, config=cfg, environment=environment)
    report.curves = curves
    return report


def emit(report, fmt="json"):
    """Serialize a report to bytes with a canonical layout."""
    if fmt == "json":
        doc = {
            "records": [
                {"id": r.check_id, "status": r.status, "measured": r.measured,
                 "bound": r.bound, "tolerance": r.tolerance}
                for r in report.records
            ],
            "config": report.config,
            "environment": report.environment,
        }
        return (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "status", "measured", "bound", "tolerance"])
        for r in report.records:
            writer.writerow([r.check_id, r.status, r.measured, r.bound,
                             r.tolerance])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")


def emit_plot_data(report):
    """Per-level ratio curves as CSV rows (check id, level, value)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_id", "level", "value"])
    for check_id in sorted(getattr(report, "curves", {})):
        for j, v in enumerate(report.curves[check_id]):
            writer.writerow([check_id, j, _round12(v)])
    return buf.getvalue().encode()


def parse_report(blob):
    """Inverse of emit(..., "json")."""
    doc = json.loads(blob.decode())
    records = [
        CheckRecord(r["id"], r["status"], r["measured"], r["bound"],
                    r["tolerance"])
        for r in doc["records"]
    ]
    return SuiteReport(records=records, config=doc["config"],
                       environment=doc["environment"])


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="varbesov",
        description="Run the variable-exponent norm verification suites.",
    )
    parser.add_argument("--config", help="path to a JSON configuration")
    parser.add_argument("--suite", action="append",
                        help="suite to run (repeatable); default: all")
    parser.add_argument("--seed", type=int, help="override the seed")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--out", help="write the report here (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--plot-out", help="write per-level curves (CSV) here")
    args = parser.parse_args(argv)

    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    if args.suite:
        config["suites"] = args.suite
    if args.seed is not None:
        config["seed"] = args.seed
    if args.trials is not None:
        config["trials"] = args.trials

    try:
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    blob = emit(report, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    if args.plot_out:
        with open(args.plot_out, "wb") as fh:
            fh.write(emit_plot_data(report))

    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
