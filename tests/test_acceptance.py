"""Acceptance criteria, one test per criterion, at desk scale
(n=1, N=4096, J=8 unless stated).  Each prints a single pass/fail line."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from varbesov.cli import emit, run
from varbesov.commutator import VectorField, commutator, constant_sweep
from varbesov.duality import grade_witnesses, witness_measures
from varbesov.exponents import (constant_exponent, cos_bump_exponent,
                                local_log_holder, log_smooth_exponent)
from varbesov.grid import Field, default_grid, field_from_function
from varbesov.lebesgue import (classical_norm, luxemburg_norm, modular,
                               two_level_gauge, unit_ball_violations)
from varbesov.littlewood_paley import (besov_norm, build_resolution,
                                       check_lemma_eta_shift, hardy_sweep,
                                       lp_block, partition_of_unity,
                                       single_block_identity,
                                       verify_eta_convolution)
from varbesov.mixed import (FieldSequence, classical_mixed_norm,
                            mixed_modular, mixed_norm)
from varbesov.random_fields import (band_limited_field, band_limited_sequence,
                                    band_limited_vector_field)

GRID = default_grid(1)
LEVELS = 8
BAND = 2 ** LEVELS // 4
ROU = build_resolution(GRID, LEVELS)


class _Criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance {self.number}] {status}: {self.label}")
        return False


def test_criterion_1_luxemburg_exactness():
    with _Criterion(1, "Luxemburg exactness"):
        # the pieces hold 128 nodes of width 1/128 each: m1 = m2 = 1
        rep = two_level_gauge(GRID)
        oracle = brentq(lambda t: 1.0 / t + 1.0 / t**2 - 1.0, 1.0, 2.0, xtol=1e-13)
        assert rep.status == "pass", rep
        assert abs(rep.details["gauge"] - oracle) <= 1e-8

        f = band_limited_field(GRID, BAND, 1001)
        for p0 in (1.0, 1.5, 2.0, 3.0, math.inf):
            nrm = luxemburg_norm(f, constant_exponent(GRID, p0))
            direct = classical_norm(f, p0)
            assert abs(nrm - direct) / direct <= 1e-6, p0


def test_criterion_2_mixed_norm_reduction():
    with _Criterion(2, "Mixed-norm constant reduction and q=inf shortcut"):
        combos = [(2.0, 2.0), (2.5, 1.7), (3.0, 1.2), (4.0, 3.0)]
        for t in range(20):
            fs = band_limited_sequence(GRID, LEVELS + 1, BAND, [1002, t])
            p0, q0 = combos[t % len(combos)]
            p = constant_exponent(GRID, p0)
            nrm = mixed_norm(fs, p, constant_exponent(GRID, q0))
            direct = classical_mixed_norm(fs, p0, q0)
            assert abs(nrm - direct) / direct <= 1e-7, (t, p0, q0)

        fs = band_limited_sequence(GRID, LEVELS + 1, BAND, [1002, 99])
        p = log_smooth_exponent(GRID, 2.0, 1.0)
        qi = constant_exponent(GRID, math.inf)
        level_norms = [luxemburg_norm(f, p) for f in fs]
        sup = mixed_norm(fs, p, qi)
        assert sup == max(level_norms)
        # independent referee: at constant q0 the solve is the l^q0 norm of
        # the level norms, which decreases to sup, within levels^(1/q0) sup
        last = math.inf
        for q0 in (8.0, 32.0, 128.0):
            nrm = mixed_norm(fs, p, constant_exponent(GRID, q0))
            l_q = sum(x ** q0 for x in level_norms) ** (1 / q0)
            assert abs(nrm - l_q) / l_q <= 1e-8 and nrm <= last, q0
            assert sup * (1 - 2e-9) <= nrm <= fs.levels ** (1 / q0) * sup * (1 + 2e-9), q0
            last = nrm


def test_criterion_3_unit_ball_equivalences():
    with _Criterion(3, "Unit-ball equivalences, scalar and mixed"):
        p = log_smooth_exponent(GRID, 1.6, 1.2)
        q = cos_bump_exponent(GRID, 1.4, 1.1)
        for t in range(25):
            f = band_limited_field(GRID, BAND, [1003, t])
            nrm = luxemburg_norm(f, p)
            assert unit_ball_violations(
                lambda s: modular(Field(GRID, f.values * (s / nrm)), p)) == 0, t

        for t in range(25):
            fs = band_limited_sequence(GRID, LEVELS + 1, BAND, [1004, t])
            nrm = mixed_norm(fs, p, q)
            assert unit_ball_violations(
                lambda s: mixed_modular(fs.scaled(s / nrm), p, q)) == 0, t


def test_criterion_4_duality():
    with _Criterion(4, "Duality: witness guarantees and upper bound"):
        exponent_pool = [
            (log_smooth_exponent(GRID, 2.0, 1.0), cos_bump_exponent(GRID, 1.3, 1.0)),
            (constant_exponent(GRID, 2.0), constant_exponent(GRID, 2.0)),
            (cos_bump_exponent(GRID, 1.5, 2.0), constant_exponent(GRID, 1.0)),
            (log_smooth_exponent(GRID, 1.2, 2.0), log_smooth_exponent(GRID, 1.5, 1.0)),
        ]
        instances = []
        for t in range(20):
            p, q = exponent_pool[t % len(exponent_pool)]
            fs = band_limited_sequence(GRID, LEVELS + 1, BAND, [1005, t])
            instances.append(witness_measures(fs, p, q, seed=1006 + t))
            # no candidate pairs above 8 K, without the record's tolerance
            assert instances[-1][3] <= 8.0, t
        for rep in grade_witnesses(instances):
            assert rep.status == "pass", rep


def test_criterion_5_hardy():
    with _Criterion(5, "Hardy inequality with the explicit constant"):
        p = log_smooth_exponent(GRID, 2.0, 1.0)
        for a in (0.25, 0.5, 0.75):
            for q0 in (1.5, 2.0, 4.0):
                sequences = (band_limited_sequence(
                    GRID, LEVELS + 1, BAND, [1007, int(a * 100), int(q0 * 10), t])
                    for t in range(10))
                [rep] = hardy_sweep(sequences, p, [constant_exponent(GRID, q0)], [a])
                assert rep.status == "pass", rep


def test_criterion_6_eta_machinery():
    with _Criterion(6, "Eta-kernel shift and convolution bounds"):
        for big_r in (0.0, 1.5):
            rep = check_lemma_eta_shift(constant_exponent(GRID, 1.0), big_r,
                                        LEVELS)
            assert rep.measured == 1.0, big_r

        alpha = log_smooth_exponent(GRID, 0.5, 0.8)
        c_loc = local_log_holder(alpha.values, GRID)
        rep = check_lemma_eta_shift(alpha, c_loc, LEVELS)
        assert math.isfinite(rep.details["c_max"])
        assert rep.measured <= 2.0

        sigma = GRID.half_width / 7.7
        bump = field_from_function(GRID, lambda x: np.exp(-x**2 / (2 * sigma**2)))
        p = log_smooth_exponent(GRID, 2.0, 1.0)
        rep = verify_eta_convolution(bump, p, float(GRID.dim + 2), LEVELS)
        ratios = rep.details["ratios"]
        assert max(ratios) / min(ratios) <= 4.0


def test_criterion_7_littlewood_paley():
    with _Criterion(7, "Partition of unity, block identity, classical oracle"):
        assert partition_of_unity(ROU).status == "pass"

        f0 = field_from_function(
            GRID, lambda x: 0.5 + 0.25 * np.cos(np.pi * x / GRID.half_width))
        s = cos_bump_exponent(GRID, 0.3, 1.0)
        p = log_smooth_exponent(GRID, 1.8, 1.0)
        q = constant_exponent(GRID, 2.0)
        assert single_block_identity(f0, s, p, q, ROU).status == "pass"

        f = band_limited_field(GRID, BAND, 1010)
        s0, p0, q0 = 0.8, 2.0, 3.0
        direct = classical_mixed_norm(FieldSequence(tuple(
            Field(GRID, 2.0 ** (j * s0) * lp_block(f, ROU, j).values)
            for j in range(ROU.levels))), p0, q0)
        got = besov_norm(f, constant_exponent(GRID, s0),
                         constant_exponent(GRID, p0),
                         constant_exponent(GRID, q0), ROU)
        assert abs(got - direct) / direct <= 1e-6


THEOREM_MATRICES = {
    "theorem1": [
        {"s": ("constant", {"value": 1.0}), "p1": ("constant", {"value": 4.0}),
         "p2": ("constant", {"value": 4.0}), "q": ("constant", {"value": 2.0})},
        {"s": ("constant", {"value": 1.0}), "p1": ("constant", {"value": 4.0}),
         "p2": ("log_smooth", {"a": 3.0, "b": 1.5}), "q": ("constant", {"value": 2.0})},
        {"s": ("constant", {"value": 1.0}), "p1": ("constant", {"value": 4.0}),
         "p2": ("constant", {"value": 4.0}), "q": ("cos_bump", {"a": 1.5, "b": 1.0})},
        {"s": ("cos_bump", {"a": 0.7, "b": 0.6}), "p1": ("constant", {"value": 3.0}),
         "p2": ("constant", {"value": 6.0}), "q": ("constant", {"value": math.inf})},
    ],
    "theorem2": [
        {"s": ("constant", {"value": 0.5}), "p1": ("constant", {"value": 4.0}),
         "p2": ("constant", {"value": 4.0}), "q": ("constant", {"value": 2.0})},
        {"s": ("cos_bump", {"a": 0.3, "b": 0.4}), "p1": ("constant", {"value": 4.0}),
         "p2": ("constant", {"value": 4.0}), "q": ("cos_bump", {"a": 1.5, "b": 1.0})},
        {"s": ("constant", {"value": -0.5}), "p1": ("constant", {"value": 4.0}),
         "p2": ("constant", {"value": 4.0}), "q": ("constant", {"value": 2.0})},
        {"s": ("cos_bump", {"a": -0.7, "b": 0.35}), "p1": ("constant", {"value": 4.0}),
         "p2": ("log_smooth", {"a": 3.0, "b": 1.0}), "q": ("constant", {"value": 2.0})},
    ],
    "theorem3": [
        {"s1": ("constant", {"value": 0.6}), "s2": ("constant", {"value": 0.3}),
         "p1": ("constant", {"value": 4.0}), "p2": ("constant", {"value": 4.0}),
         "q1": ("constant", {"value": 4.0}), "q2": ("constant", {"value": 4.0})},
        {"s1": ("constant", {"value": 0.6}), "s2": ("cos_bump", {"a": 0.0, "b": 0.3}),
         "p1": ("constant", {"value": 4.0}), "p2": ("constant", {"value": 4.0}),
         "q1": ("constant", {"value": 4.0}), "q2": ("constant", {"value": 4.0})},
        {"s1": ("constant", {"value": 0.8}), "s2": ("constant", {"value": 0.1}),
         "p1": ("constant", {"value": 4.0}), "p2": ("log_smooth", {"a": 3.0, "b": 1.0}),
         "q1": ("constant", {"value": 4.0}), "q2": ("constant", {"value": 4.0})},
        {"s1": ("constant", {"value": 0.6}), "s2": ("constant", {"value": 0.2}),
         "p1": ("constant", {"value": 4.0}), "p2": ("constant", {"value": 4.0}),
         "q1": ("cos_bump", {"a": 2.5, "b": 1.0}), "q2": ("constant", {"value": 4.0})},
    ],
}


@pytest.mark.slow
def test_criterion_8_commutator():
    with _Criterion(8, "Commutator estimates: vanishing, bilinearity, sweeps"):
        f = band_limited_field(GRID, BAND, 1011)
        v_const = VectorField((Field(GRID, np.full(GRID.shape, 2.0)),))
        for j in (0, 4, 8):
            c = commutator(v_const, f, ROU, j)
            assert np.max(np.abs(c.values)) <= 1e-10 * f.max_abs(), j

        v1 = VectorField(tuple(band_limited_vector_field(GRID, BAND, 1012)))
        v2 = VectorField(tuple(band_limited_vector_field(GRID, BAND, 1013)))
        mixed_v = VectorField(
            (Field(GRID, 1.5 * v1[0].values - 2.0 * v2[0].values),))
        lhs = commutator(mixed_v, f, ROU, 5).values
        rhs = (1.5 * commutator(v1, f, ROU, 5).values
               - 2.0 * commutator(v2, f, ROU, 5).values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

        trials_per_config = 8
        for theorem, matrix in THEOREM_MATRICES.items():
            for idx, exponents in enumerate(matrix):
                summary = constant_sweep(GRID, LEVELS, exponents, theorem,
                                         trials=trials_per_config,
                                         seed=1014 + idx, refine=True)
                for variant, values in summary["max_ratio"].items():
                    assert math.isfinite(values), (theorem, idx, variant)
                assert summary["refine_stable"], (
                    theorem, idx, summary["refine_factors"])


def test_criterion_9_determinism():
    with _Criterion(9, "Byte-identical reports for identical config and seed"):
        cfg = {
            "grid": {"dim": 1, "points_per_axis": 1024, "half_width": 16.0},
            "levels": 6,
            "seed": 515,
            "trials": 1,
        }
        blob_a = emit(run(dict(cfg)), "json")
        blob_b = emit(run(dict(cfg)), "json")
        assert blob_a == blob_b
