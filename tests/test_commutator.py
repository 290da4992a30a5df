import math

import numpy as np
import pytest

from varbesov.commutator import (SweepConfig, VectorField, commutator,
                                 commutator_lhs_norm, commutator_sequence,
                                 constant_sweep, divergence, theorem1_report,
                                 theorem2_report, theorem3_report)
from varbesov.exponents import constant_exponent, cos_bump_exponent
from varbesov.grid import Field, Grid, field_from_function, spectral_derivative
from varbesov.littlewood_paley import build_resolution, lp_block
from varbesov.random_fields import (band_limited_field,
                                    band_limited_vector_field)


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 1024, 16.0)


@pytest.fixture(scope="module")
def rou(grid):
    return build_resolution(grid, 7)


@pytest.fixture(scope="module")
def vfield(grid):
    return VectorField(tuple(band_limited_vector_field(grid, 32, 11)))


@pytest.fixture(scope="module")
def sample_f(grid):
    return band_limited_field(grid, 32, 13)


class TestVectorField:
    def test_rejects_non_decaying_component(self, grid):
        bad = field_from_function(grid, lambda x: np.sin(np.pi * x / grid.half_width))
        with pytest.raises(ValueError, match="decay"):
            VectorField((bad,))

    def test_accepts_constant(self, grid):
        v = VectorField((Field(grid, np.full(grid.shape, 3.0)),))
        assert v.grid is grid

    def test_component_count(self, grid):
        f = Field(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="components"):
            VectorField((f, f))

    def test_generated_fields_not_divergence_free(self, grid, vfield):
        div = divergence(vfield)
        assert np.max(np.abs(div.values)) > 1e-3


def _composed_commutator(v, f, rou, j):
    # sum_k V_k d_k block_j f - block_j(V_k d_k f), one public operator at a time
    acc = np.zeros(f.grid.shape)
    for k, comp in enumerate(v):
        acc += comp.values * spectral_derivative(lp_block(f, rou, j), k).values
        inner = Field(f.grid, comp.values * spectral_derivative(f, k).values)
        acc -= lp_block(inner, rou, j).values
    return acc


@pytest.fixture(scope="module", params=[(1, 1024, 16.0, 8, 32), (2, 128, 8.0, 5, 25)],
                ids=["1d-9-levels", "2d-6-levels"])
def transport_case(request):
    dim, n, half_width, top, band = request.param
    g = Grid(dim, n, half_width)
    v = VectorField(tuple(band_limited_vector_field(g, band, 41)))
    return v, band_limited_field(g, band, 43), build_resolution(g, top)


class TestCommutatorSpectra:
    def test_sequence_equals_levels_and_composition_bitwise(self, transport_case):
        v, f, rou = transport_case
        seq = commutator_sequence(v, f, rou)
        assert seq.levels == rou.levels
        for j, c in enumerate(seq):
            assert c.values.tobytes() == commutator(v, f, rou, j).values.tobytes()
            assert c.values.tobytes() == _composed_commutator(v, f, rou, j).tobytes()

    def test_sequence_transforms_each_field_once(self, transport_case, monkeypatch):
        # forward: f, each V_k d_k f and each block; inverse: each d_k f, and
        # per level the block, its n derivatives and the n blocks of V_k d_k f
        v, f, rou = transport_case
        counts = {"fftn": 0, "ifftn": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        commutator_sequence(v, f, rou)
        dim, levels = f.grid.dim, rou.levels
        assert counts == {"fftn": 1 + dim + levels,
                          "ifftn": dim + levels * (2 * dim + 1)}
        assert (counts["fftn"], counts["ifftn"]) == {1: (11, 28), 2: (9, 32)}[dim]

    def test_level_out_of_range(self, grid, rou, vfield, sample_f):
        with pytest.raises(ValueError, match="out of range"):
            commutator(vfield, sample_f, rou, rou.levels)


class TestCommutatorOperator:
    def test_constant_v_vanishes(self, grid, rou, sample_f):
        v = VectorField((Field(grid, np.full(grid.shape, 2.5)),))
        for j in (0, 3, 6):
            c = commutator(v, sample_f, rou, j)
            assert np.max(np.abs(c.values)) <= 1e-10 * sample_f.max_abs()

    def test_constant_f_vanishes(self, grid, rou, vfield):
        f = Field(grid, np.full(grid.shape, 1.7))
        c = commutator(vfield, f, rou, 2)
        assert np.max(np.abs(c.values)) == 0.0

    def test_bilinearity(self, grid, rou, sample_f):
        v1 = VectorField(tuple(band_limited_vector_field(grid, 32, 17)))
        v2 = VectorField(tuple(band_limited_vector_field(grid, 32, 19)))
        mix = VectorField((Field(grid, 2.0 * v1[0].values - 0.5 * v2[0].values),))
        lhs = commutator(mix, sample_f, rou, 4).values
        rhs = (2.0 * commutator(v1, sample_f, rou, 4).values
               - 0.5 * commutator(v2, sample_f, rou, 4).values)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_scaling_in_f(self, grid, rou, vfield, sample_f):
        s = constant_exponent(grid, 1.0)
        p = constant_exponent(grid, 2.0)
        q = constant_exponent(grid, 2.0)
        n1 = commutator_lhs_norm(vfield, sample_f, s, p, q, rou)
        doubled = Field(grid, 2.0 * sample_f.values)
        n2 = commutator_lhs_norm(vfield, doubled, s, p, q, rou)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-8)

    def test_zero_f(self, grid, rou, vfield):
        s = constant_exponent(grid, 1.0)
        p = constant_exponent(grid, 2.0)
        z = Field(grid, np.zeros(grid.shape))
        assert commutator_lhs_norm(vfield, z, s, p, p, rou) == 0.0


class TestTheoremReports:
    def test_theorem1_variants(self, grid, rou, vfield, sample_f):
        s = constant_exponent(grid, 1.0)
        p1 = constant_exponent(grid, 4.0)
        p2 = constant_exponent(grid, 4.0)
        q = constant_exponent(grid, 2.0)
        reports = theorem1_report(vfield, sample_f, s, p1, p2, q, rou)
        assert set(reports) == {"grad_v", "grad_f", "divergence"}
        for rep in reports.values():
            assert math.isfinite(rep.ratio)
            assert rep.ratio > 0
            assert rep.lhs == pytest.approx(reports["grad_v"].lhs)

    def test_theorem1_constant_v_ratio_zero(self, grid, rou, sample_f):
        v = VectorField((Field(grid, np.full(grid.shape, 1.0)),))
        s = constant_exponent(grid, 1.0)
        p1 = constant_exponent(grid, 4.0)
        reports = theorem1_report(v, sample_f, s, p1, p1,
                                  constant_exponent(grid, 2.0), rou)
        for rep in reports.values():
            assert rep.ratio <= 1e-8

    def test_theorem1_requires_positive_smoothness(self, grid, rou, vfield, sample_f):
        s = constant_exponent(grid, -0.2)
        p = constant_exponent(grid, 4.0)
        with pytest.raises(ValueError, match="positive smoothness"):
            theorem1_report(vfield, sample_f, s, p, p,
                            constant_exponent(grid, 2.0), rou)

    def test_theorem2_positive_band(self, grid, rou, vfield, sample_f):
        s = cos_bump_exponent(grid, 0.3, 0.4)
        p = constant_exponent(grid, 4.0)
        reports = theorem2_report(vfield, sample_f, s, p, p,
                                  constant_exponent(grid, 2.0), rou)
        assert set(reports) == {"positive"}
        assert math.isfinite(reports["positive"].ratio)

    def test_theorem2_negative_band(self, grid, rou, vfield, sample_f):
        s = cos_bump_exponent(grid, -0.7, 0.4)
        p = constant_exponent(grid, 4.0)
        reports = theorem2_report(vfield, sample_f, s, p, p,
                                  constant_exponent(grid, 2.0), rou)
        assert set(reports) == {"negative"}

    def test_theorem2_rejects_straddling_zero(self, grid, rou, vfield, sample_f):
        s = cos_bump_exponent(grid, -0.5, 1.0)
        p = constant_exponent(grid, 4.0)
        with pytest.raises(ValueError, match="neither"):
            theorem2_report(vfield, sample_f, s, p, p,
                            constant_exponent(grid, 2.0), rou)

    def test_theorem3_split(self, grid, rou, vfield, sample_f):
        s1 = constant_exponent(grid, 0.6)
        s2 = cos_bump_exponent(grid, 0.0, 0.3)
        p = constant_exponent(grid, 4.0)
        q = constant_exponent(grid, 4.0)
        reports = theorem3_report(vfield, sample_f, s1, s2, p, p, q, q, rou)
        assert math.isfinite(reports["split"].ratio)
        assert set(reports["split"].rhs_terms) == {
            "grad_f_p1 * V_besov", "grad_f_besov_s1 * V_besov_s2"}

    def test_theorem3_rejects_large_s2(self, grid, rou, vfield, sample_f):
        s1 = constant_exponent(grid, 0.6)
        s2 = constant_exponent(grid, 1.2)
        p = constant_exponent(grid, 4.0)
        with pytest.raises(ValueError, match="s2"):
            theorem3_report(vfield, sample_f, s1, s2, p, p, p, p, rou)

    def test_divergence_free_2d_loses_div_term(self):
        # stream-function construction: V = (d2 psi, -d1 psi), div V = 0,
        # so the negative-smoothness form keeps only its second term
        from varbesov.grid import spectral_derivative

        g2 = Grid(2, 512, 8.0)
        rou2 = build_resolution(g2, 7)
        psi = band_limited_field(g2, 32, 301)
        v = VectorField((
            spectral_derivative(psi, 1),
            Field(g2, -spectral_derivative(psi, 0).values),
        ))
        div = divergence(v)
        assert np.max(np.abs(div.values)) <= 1e-10
        f = band_limited_field(g2, 32, 302)
        s = constant_exponent(g2, -0.5)
        p = constant_exponent(g2, 4.0)
        q = constant_exponent(g2, 2.0)
        reports = theorem2_report(v, f, s, p, p, q, rou2)
        rep = reports["negative"]
        assert rep.rhs_terms["f_div_besov"] <= 1e-8 * rep.rhs_terms["f_p1 * V_besov_up"]
        assert math.isfinite(rep.ratio)


class TestSweep:
    def test_rejects_empty_trials(self):
        cfg = SweepConfig(points_per_axis=512, levels=6, kmax=25, exponents={
            "s": ("constant", {"value": 1.0}),
            "p1": ("constant", {"value": 4.0}),
            "p2": ("constant", {"value": 4.0}),
            "q": ("constant", {"value": 2.0}),
        })
        with pytest.raises(ValueError, match="trials"):
            constant_sweep(cfg, "theorem1", trials=0, seed=1)

    def test_unknown_theorem(self):
        cfg = SweepConfig(points_per_axis=512, levels=6, kmax=25, exponents={
            "s": ("constant", {"value": 1.0}),
            "p1": ("constant", {"value": 4.0}),
            "p2": ("constant", {"value": 4.0}),
            "q": ("constant", {"value": 2.0}),
        })
        with pytest.raises(ValueError, match="theorem"):
            constant_sweep(cfg, "theorem9", trials=1, seed=1)

    def test_small_sweep_summary_shape(self):
        cfg = SweepConfig(points_per_axis=1024, levels=7, exponents={
            "s": ("constant", {"value": 1.0}),
            "p1": ("constant", {"value": 4.0}),
            "p2": ("constant", {"value": 4.0}),
            "q": ("constant", {"value": 2.0}),
        })
        summary = constant_sweep(cfg, "theorem1", trials=2, seed=5, refine=False)
        assert summary["trials"] == 2
        assert all(len(v) == 2 for v in summary["ratios"].values())
        assert all(math.isfinite(v) for v in summary["max_ratio"].values())

    def test_constant_v_family_ratios_vanish(self):
        cfg = SweepConfig(points_per_axis=1024, levels=7, constant_v=True,
                          exponents={
                              "s": ("constant", {"value": 1.0}),
                              "p1": ("constant", {"value": 4.0}),
                              "p2": ("constant", {"value": 4.0}),
                              "q": ("constant", {"value": 2.0}),
                          })
        summary = constant_sweep(cfg, "theorem1", trials=3, seed=5, refine=False)
        assert max(summary["max_ratio"].values()) <= 1e-6


class TestSpecExamples:
    def test_theorem1_with_f_equal_to_component(self, grid, rou, vfield):
        s = constant_exponent(grid, 1.0)
        p = constant_exponent(grid, 4.0)
        reports = theorem1_report(vfield, vfield[0], s, p, p,
                                  constant_exponent(grid, 2.0), rou)
        for rep in reports.values():
            assert math.isfinite(rep.ratio)

    def test_theorem2_constant_v_ratio_vanishes(self, grid, rou, sample_f):
        v = VectorField((Field(grid, np.full(grid.shape, 2.0)),))
        s = constant_exponent(grid, 0.5)
        p = constant_exponent(grid, 4.0)
        reports = theorem2_report(v, sample_f, s, p, p,
                                  constant_exponent(grid, 2.0), rou)
        assert reports["positive"].ratio <= 1e-8

    def test_theorem3_degenerate_split(self, grid, rou, vfield, sample_f):
        # s2 = 0 with q2 = inf: both right-hand terms recorded and positive
        s1 = constant_exponent(grid, 0.8)
        s2 = constant_exponent(grid, 0.0)
        p = constant_exponent(grid, 4.0)
        q1 = constant_exponent(grid, 2.0)
        q2 = constant_exponent(grid, math.inf)
        reports = theorem3_report(vfield, sample_f, s1, s2, p, p, q1, q2, rou)
        rep = reports["split"]
        assert math.isfinite(rep.ratio) and rep.ratio > 0
        assert all(v > 0 for v in rep.rhs_terms.values())
