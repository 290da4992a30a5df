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
from .exponents import (FAMILIES, conjugate, constant_exponent,
                        exponent_from_family, harmonic_sum)
from .grid import Grid, Field
from .lebesgue import (classical_norm, luxemburg_norm, modular,
                       two_level_gauge, unit_ball_violations)
from .littlewood_paley import (build_resolution, block_sequence,
                               check_lemma_eta_shift, hardy_sweep,
                               partition_of_unity, single_block_identity,
                               verify_eta_convolution, verify_mixed_eta)
from .mixed import (check_holder, check_monotone_limit, classical_mixed_norm,
                    mixed_norm)
from .duality import grade_witnesses, verify_norm_conjugate, witness_measures
from .commutator import SweepConfig, constant_sweep
from .random_fields import (band_limited_field, band_limited_sequence,
                            gaussian_envelope)
from .reports import CheckReport, graded_report

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

# the settable tolerances and their defaults
_TOLERANCES = {"lebesgue": 1e-6, "mixed": 1e-7}


@dataclass
class SuiteReport:
    records: list
    config: dict
    environment: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)

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


def _is_int(x):
    """A JSON integer (bool is not an integer here)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    """A JSON number that is not NaN (bool is not a number here)."""
    return (_is_int(x) or isinstance(x, float)) and not math.isnan(x)


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
    _expect(_is_int(g["dim"]) and g["dim"] in (1, 2), "grid.dim", "must be 1 or 2")
    n = g["points_per_axis"]
    _expect(_is_int(n) and n >= 2 and (n & (n - 1)) == 0,
            "grid.points_per_axis", "must be a power of two")
    hw = g["half_width"]
    _expect(_is_number(hw) and math.isfinite(hw) and hw > 0, "grid.half_width",
            "must be a finite positive number")

    for key in ("levels", "seed", "trials"):
        if key in raw:
            _expect(_is_int(raw[key]) and raw[key] >= 0,
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
            _expect(k in _TOLERANCES, f"tolerances.{k}",
                    f"unknown tolerance (known: {', '.join(_TOLERANCES)})")
            _expect(_is_number(v) and v > 0,
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
            params = spec.get("params", cfg["exponents"][role]["params"])
            _expect(isinstance(params, dict), f"exponents.{role}.params",
                    "must be an object")
            for k, v in params.items():
                _expect(_is_number(v), f"exponents.{role}.params.{k}",
                        "must be a number")
            cfg["exponents"][role] = {"family": fam, "params": dict(params)}
    return cfg


def _build_exponent(cfg, grid, role):
    """The exponent field of ``role``; integrability exponents (every role
    but the smoothness s) must take values in [1, inf], s finite values."""
    spec = cfg["exponents"][role]
    try:
        e = exponent_from_family(grid, spec["family"], spec["params"])
    except (KeyError, ValueError) as exc:  # ValueError: NaN values
        raise ConfigError(f"exponents.{role}: {exc.args[0]}") from exc
    if role == "s":
        _expect(e.is_finite_valued(), "exponents.s", "must be finite")
    else:
        _expect(e.p_minus >= 1.0, f"exponents.{role}",
                "must take values in [1, inf]")
    return e


def _tol(cfg, name):
    return float(cfg["tolerances"].get(name, _TOLERANCES[name]))


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


def _suite_lebesgue(cfg, grid, records, curves):
    tol = _tol(cfg, "lebesgue")
    if grid.dim == 1:
        records.append(two_level_gauge(grid))

    f = band_limited_field(grid, _suite_band(cfg, grid), [cfg["seed"], 1])
    for p0 in (1.0, 1.5, 2.0, 3.0, math.inf):
        nrm = luxemburg_norm(f, constant_exponent(grid, p0))
        direct = classical_norm(f, p0)
        records.append(graded_report(f"lebesgue.constant_reduction_p{p0}",
                                     abs(nrm - direct) / direct, 0.0, tol))

    p = _build_exponent(cfg, grid, "p")
    violations = 0
    for t in range(cfg["trials"]):
        ft = band_limited_field(grid, _suite_band(cfg, grid), [cfg["seed"], 2, t])
        nrm = luxemburg_norm(ft, p)
        violations += unit_ball_violations(
            lambda s: modular(Field(grid, ft.values * (s / nrm)), p))
    records.append(graded_report("lebesgue.unit_ball_equivalence",
                                 violations, 0.0, 0.0))


def _suite_mixed(cfg, grid, records, curves):
    tol = _tol(cfg, "mixed")
    levels = cfg["levels"] + 1
    kmax = _suite_band(cfg, grid)
    p0, q0 = 2.5, 1.7
    pc = constant_exponent(grid, p0)
    qc = constant_exponent(grid, q0)
    worst = 0.0
    for t in range(cfg["trials"]):
        fs = band_limited_sequence(grid, levels, kmax, [cfg["seed"], 3, t])
        nrm = mixed_norm(fs, pc, qc)
        direct = classical_mixed_norm(fs, p0, q0)
        worst = max(worst, abs(nrm - direct) / direct)
    records.append(graded_report("mixed.constant_reduction", worst, 0.0, tol))

    # q = inf: the norm is the largest level norm, refereed in closed form
    fs = band_limited_sequence(grid, levels, kmax, [cfg["seed"], 4])
    sup_norm = max(classical_norm(f, p0) for f in fs)
    nrm = mixed_norm(fs, pc, constant_exponent(grid, math.inf))
    records.append(graded_report("mixed.q_infinity_shortcut",
                                 abs(nrm - sup_norm) / sup_norm, 0.0, tol))

    p = _build_exponent(cfg, grid, "p")
    level_norms = [luxemburg_norm(f, p) for f in fs]

    q = _build_exponent(cfg, grid, "q")
    radius = grid.min_image_radius()
    masks = [radius <= grid.half_width * frac for frac in (0.25, 0.5, 0.75)]
    masks.append(np.ones(grid.shape, dtype=bool))
    rep = check_monotone_limit(fs, masks, p, q)
    records.append(rep)

    gs = band_limited_sequence(grid, levels, kmax, [cfg["seed"], 5])
    rep = check_holder(fs, gs, p, conjugate(p), q, conjugate(q),
                       level_norms=level_norms, norm=rep.details["full_norm"])
    records.append(rep)


def _suite_duality(cfg, grid, records, curves):
    levels = cfg["levels"] + 1
    kmax = _suite_band(cfg, grid)
    p = _build_exponent(cfg, grid, "p")
    q = _build_exponent(cfg, grid, "q")
    # the closed-form witness needs both exponents finite everywhere
    for role, e in (("p", p), ("q", q)):
        _expect(e.is_finite_valued(), f"exponents.{role}",
                "must be finite-valued for the duality suite")
    records.extend(grade_witnesses([
        witness_measures(
            band_limited_sequence(grid, levels, kmax, [cfg["seed"], 6, t]),
            p, q, seed=cfg["seed"] + t)
        for t in range(cfg["trials"])]))

    f = band_limited_field(grid, kmax, [cfg["seed"], 7])
    rep = verify_norm_conjugate(f, p, trials=cfg["trials"], seed=cfg["seed"] + 17)
    records.append(rep)


def _suite_littlewood_paley(cfg, grid, records, curves):
    top = cfg["levels"]
    rou = build_resolution(grid, top)
    records.append(partition_of_unity(rou))

    kmax = _suite_band(cfg, grid)
    f = band_limited_field(grid, kmax, [cfg["seed"], 8])
    recon = sum(b.values for b in block_sequence(f, rou))
    records.append(graded_report(
        "lp.reconstruction",
        float(np.max(np.abs(recon - f.values))) / f.max_abs(), 0.0, 1e-10))

    s = _build_exponent(cfg, grid, "s")
    p = _build_exponent(cfg, grid, "p")
    q = _build_exponent(cfg, grid, "q")
    mesh = grid.coordinate_mesh()[0]
    f0 = Field(grid, 0.4 + 0.3 * np.cos(np.pi * mesh / grid.half_width))
    records.append(single_block_identity(f0, s, p, q, rou))

    rep = check_lemma_eta_shift(s, s.local_log_holder(), top)
    records.append(rep)
    curves["lp.eta_shift"] = rep.details["per_level"]

    bump = Field(grid, gaussian_envelope(grid))
    # beyond h*2^j = 2^(2-n) the kernel at level j is undersampled and its
    # discrete mass inflates (squared per axis); keep the trend check on
    # resolvable levels (at the 1-d desk scale this cap is inactive)
    eta_top = min(top, int(math.floor(math.log2(
        grid.points_per_axis / grid.half_width))) - (grid.dim - 1))
    rep = verify_eta_convolution(bump, p, float(grid.dim + 2), eta_top)
    records.append(rep)
    curves["lp.eta_convolution"] = rep.details["ratios"]

    fs = band_limited_sequence(grid, top + 1, kmax, [cfg["seed"], 9])
    rep = verify_mixed_eta(fs, p, q, float(grid.dim + 2))
    records.append(rep)


def _suite_hardy(cfg, grid, records, curves):
    levels = cfg["levels"] + 1
    kmax = _suite_band(cfg, grid)
    p = _build_exponent(cfg, grid, "p")
    sequences = (band_limited_sequence(grid, levels, kmax, [cfg["seed"], 10, t])
                 for t in range(cfg["trials"]))
    qs = [constant_exponent(grid, q0) for q0 in (1.5, 2.0, 4.0)]
    records.extend(hardy_sweep(sequences, p, qs, (0.25, 0.5, 0.75)))


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
    # the sweep rebuilds each exponent per trial; built here, they are
    # checked once, and the product's exponent p with 1/p = 1/p1 + 1/p2
    # must lie in [1, inf]
    built = {role: _build_exponent(cfg, grid, role)
             for role in ("p1", "p2", "q", "s")}
    try:
        harmonic_sum(built["p1"], built["p2"])
    except ValueError as exc:
        raise ConfigError(f"exponents.p1, exponents.p2: {exc.args[0]}") from exc
    base = {role: (cfg["exponents"][role]["family"],
                   cfg["exponents"][role]["params"]) for role in built}
    band = _suite_band(cfg, grid)
    for theorem, roles, offset in _COMMUTATOR_SWEEPS:
        sweep = SweepConfig(dim=grid.dim, points_per_axis=grid.points_per_axis,
                            half_width=grid.half_width, levels=cfg["levels"],
                            exponents=base | roles, kmax=band)
        summary = constant_sweep(sweep, theorem, trials=cfg["trials"],
                                 seed=cfg["seed"] + offset, refine=False)
        worst = max(summary["max_ratio"].values())
        records.append(graded_report(f"commutator.{theorem}_ratio_finite",
                                     0.0 if math.isfinite(worst) else 1.0,
                                     0.0, 0.0))
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
    # a record keeps 12 significant digits and none of its check's details
    records = [CheckReport(r.check_id, r.status, _round12(r.measured),
                           _round12(r.bound), _round12(r.tolerance))
               for r in records]
    return SuiteReport(records=records, config=cfg, environment=environment,
                       curves=curves)


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
    for check_id in sorted(report.curves):
        for j, v in enumerate(report.curves[check_id]):
            writer.writerow([check_id, j, _round12(v)])
    return buf.getvalue().encode()


def parse_report(blob):
    """Inverse of emit(..., "json")."""
    doc = json.loads(blob.decode())
    records = [CheckReport(r["id"], r["status"], r["measured"], r["bound"],
                           r["tolerance"]) for r in doc["records"]]
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
