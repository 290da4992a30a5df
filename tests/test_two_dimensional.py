"""End-to-end checks on a two-dimensional box.

Smaller grid (N=128, J=5) than the 1-d desk scale, exercising the same
operator chain: norms, duality witness, Besov oracle, Hardy and the
commutator reports.
"""

import math

import numpy as np
import pytest

from varbesov.commutator import VectorField, theorem1_report
from varbesov.duality import grade_witnesses, witness_measures
from varbesov.exponents import (constant_exponent, cos_bump_exponent,
                                log_smooth_exponent)
from varbesov.grid import Field, Grid, integrate
from varbesov.lebesgue import classical_norm, luxemburg_norm
from varbesov.littlewood_paley import (besov_norm, build_resolution,
                                       hardy_sweep, lp_block,
                                       partition_of_unity)
from varbesov.mixed import FieldSequence, classical_mixed_norm, mixed_norm
from varbesov.random_fields import (band_limited_field, band_limited_sequence,
                                    band_limited_vector_field)

GRID2 = Grid(2, 128, 8.0)
LEVELS2 = 5
ROU2 = build_resolution(GRID2, LEVELS2)
BAND2 = 25


@pytest.fixture(scope="module")
def seq2():
    return band_limited_sequence(GRID2, LEVELS2 + 1, BAND2, 8001)


def test_quadrature_and_convolution_product():
    xx, yy = GRID2.coordinate_mesh()
    f = Field(GRID2, np.cos(np.pi * xx / 8.0) ** 2 * np.cos(np.pi * yy / 8.0) ** 2)
    assert integrate(f) == pytest.approx(GRID2.box_measure / 4.0, abs=1e-10)


def test_constant_exponent_reduction():
    f = band_limited_field(GRID2, BAND2, 8002)
    for p0 in (1.5, 2.0, 3.0):
        assert luxemburg_norm(f, constant_exponent(GRID2, p0)) == pytest.approx(
            classical_norm(f, p0), rel=1e-6)


def test_mixed_norm_classical(seq2):
    p0, q0 = 2.0, 3.0
    nrm = mixed_norm(seq2, constant_exponent(GRID2, p0),
                     constant_exponent(GRID2, q0))
    assert nrm == pytest.approx(classical_mixed_norm(seq2, p0, q0), rel=1e-7)


def test_partition_and_besov_oracle():
    assert partition_of_unity(ROU2).status == "pass"

    f = band_limited_field(GRID2, BAND2, 8003)
    s0, p0, q0 = 0.6, 2.0, 2.0
    direct = classical_mixed_norm(FieldSequence(tuple(
        Field(GRID2, 2.0 ** (j * s0) * lp_block(f, ROU2, j).values)
        for j in range(ROU2.levels))), p0, q0)
    got = besov_norm(f, constant_exponent(GRID2, s0),
                     constant_exponent(GRID2, p0),
                     constant_exponent(GRID2, q0), ROU2)
    assert got == pytest.approx(direct, rel=1e-6)


def test_duality_witness(seq2):
    p = log_smooth_exponent(GRID2, 2.0, 1.0)
    q = cos_bump_exponent(GRID2, 1.4, 1.0)
    measures = witness_measures(seq2, p, q, seed=8006)
    for rep in grade_witnesses([measures]):
        assert rep.status == "pass", rep
    # the pairing is also graded two-sided: within 1e-4 of K
    assert measures[2] == pytest.approx(1.0, abs=1e-4)


def test_hardy(seq2):
    [rep] = hardy_sweep([seq2], constant_exponent(GRID2, 2.0),
                        [constant_exponent(GRID2, 2.0)], [0.5])
    assert rep.status == "pass"


def test_commutator_report_two_components():
    v = VectorField(tuple(band_limited_vector_field(GRID2, BAND2, 8004)))
    f = band_limited_field(GRID2, BAND2, 8005)
    s = constant_exponent(GRID2, 1.0)
    p = constant_exponent(GRID2, 4.0)
    q = constant_exponent(GRID2, 2.0)
    reports = theorem1_report(v, f, s, p, p, q, ROU2)
    for rep in reports.values():
        assert math.isfinite(rep.ratio)
        assert rep.ratio > 0
