import importlib
import math

import numpy as np
import pytest

from varbesov import random_fields
from varbesov.commutator import (SweepConfig, VectorField, commutator,
                                 commutator_lhs_norm, commutator_sequence,
                                 constant_sweep, divergence, theorem1_report,
                                 theorem2_report, theorem3_report)
from varbesov.exponents import (ExponentField, constant_exponent,
                                cos_bump_exponent, harmonic_sum,
                                log_smooth_exponent)
from varbesov.grid import Field, Grid, field_from_function, spectral_derivative
from varbesov.lebesgue import luxemburg_norm
from varbesov.littlewood_paley import besov_norm, build_resolution, lp_block
from varbesov.mixed import FieldSequence, mixed_norm
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


def _count_transforms(monkeypatch):
    """Counts of np.fft.rfftn and np.fft.irfftn calls from here on, and of
    the complex np.fft.fftn and np.fft.ifftn, which the operators never
    call."""
    counts = {"rfftn": 0, "irfftn": 0, "fftn": 0, "ifftn": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


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
        counts = _count_transforms(monkeypatch)
        commutator_sequence(v, f, rou)
        dim, levels = f.grid.dim, rou.levels
        assert counts == {"rfftn": 1 + dim + levels,
                          "irfftn": dim + levels * (2 * dim + 1),
                          "fftn": 0, "ifftn": 0}
        assert (counts["rfftn"], counts["irfftn"]) == {1: (11, 28), 2: (9, 32)}[dim]

    @pytest.mark.parametrize("theorem", ["theorem1", "theorem2", "theorem3"])
    def test_reports_transform_each_v_component_once(self, transport_case,
                                                     theorem, monkeypatch):
        # beyond the commutator sequence (lhs): each V_k is transformed once
        # for its blocks (n forward, n * levels inverse) where two terms
        # read them, and once for its gradient (n forward, n^2 inverse),
        # whose diagonal is the divergence; f and each d_k f are
        # transformed once per term
        v, f, rou = transport_case
        g = f.grid
        one, s_neg = constant_exponent(g, 1.0), constant_exponent(g, -0.5)
        p, q = constant_exponent(g, 4.0), constant_exponent(g, 2.0)
        n, levels = g.dim, rou.levels
        lhs = (1 + n + levels, n + levels * (2 * n + 1))
        counts = _count_transforms(monkeypatch)
        if theorem == "theorem1":
            # grad f, V blocks, grad V, then f, d_k f and f div V blocks
            theorem1_report(v, f, one, p, p, q, rou)
            extra = (1 + n + n + 1 + n + 1,
                     n + n * levels + n * n + levels + n * levels + levels)
            want = {1: (17, 66), 2: (18, 74)}[n]
        elif theorem == "theorem2":
            # each band transforms V once: blocks at s or at s + 1
            theorem2_report(v, f, constant_exponent(g, 0.5), p, p, q, rou)
            theorem2_report(v, f, s_neg, p, p, q, rou)
            lhs = (2 * lhs[0], 2 * lhs[1])
            extra = (1 + n + n + 1 + n, n + n * levels + n + levels + n * levels)
            want = {1: (27, 85), 2: (26, 98)}[n]
        else:
            # grad f, V blocks (read at s and at s2), d_k f blocks
            theorem3_report(v, f, constant_exponent(g, 0.6),
                            constant_exponent(g, 0.3), p, p, q, q, rou)
            extra = (1 + n + n, n + n * levels + n * levels)
            want = {1: (14, 47), 2: (14, 58)}[n]
        assert counts == {"rfftn": lhs[0] + extra[0], "irfftn": lhs[1] + extra[1],
                          "fftn": 0, "ifftn": 0}
        assert (counts["rfftn"], counts["irfftn"]) == want

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


def _composed_reports(theorem, v, f, s, p1, p2, q, rou, s2=None, q2=None):
    """(lhs, rhs_terms) of each variant, one public per-field function at a
    time; theorem3 reads s, q as s1, q1."""
    g = f.grid

    def weighted(fields, s, p, q):
        return mixed_norm(FieldSequence(tuple(
            Field(g, np.exp2(j * s.values) * c.values)
            for j, c in enumerate(fields))), p, q)

    def grad(h):
        return [spectral_derivative(h, k) for k in range(g.dim)]

    def up(s):
        return ExponentField(g, s.values + 1.0)

    def vec_lux(fields, p):
        return sum(luxemburg_norm(h, p) for h in fields)

    def vec_besov(fields, s, p, q):
        return sum(besov_norm(h, s, p, q, rou) for h in fields)

    p = harmonic_sum(p1, p2)
    if theorem == "theorem3":
        s1, q1 = s, q
        s = ExponentField(g, s1.values + s2.values)
        q = harmonic_sum(q1, q2)
    lhs = weighted(commutator_sequence(v, f, rou), s, p, q)
    f_div = Field(g, f.values * divergence(v).values)
    if theorem == "theorem1":
        grad_v = sum(luxemburg_norm(d, p1) for comp in v for d in grad(comp))
        a = vec_lux(grad(f), p1) * vec_besov(v, s, p2, q)
        b = grad_v * besov_norm(f, s, p2, q, rou)
        return {
            "grad_v": (lhs, {"grad_f_p1 * V_besov": a, "grad_V_p1 * f_besov": b}),
            "grad_f": (lhs, {"grad_f_p1 * V_besov": a,
                             "V_p1 * grad_f_besov": vec_lux(v, p1)
                             * vec_besov(grad(f), s, p2, q)}),
            "divergence": (lhs, {
                "f_div_besov": besov_norm(f_div, s, p, q, rou),
                "grad_V_p1 * f_besov": b,
                "f_p1 * V_besov_up": luxemburg_norm(f, p1)
                * vec_besov(v, up(s), p2, q)}),
        }
    if theorem == "theorem2" and s.p_minus > 0:
        return {"positive": (lhs, {"grad_f_p1 * V_besov":
                                   vec_lux(grad(f), p1) * vec_besov(v, s, p2, q)})}
    if theorem == "theorem2":
        return {"negative": (lhs, {
            "f_div_besov": besov_norm(f_div, s, p, q, rou),
            "f_p1 * V_besov_up": luxemburg_norm(f, p1) * vec_besov(v, up(s), p2, q)})}
    return {"split": (lhs, {
        "grad_f_p1 * V_besov": vec_lux(grad(f), p1) * vec_besov(v, s, p2, q),
        "grad_f_besov_s1 * V_besov_s2": vec_besov(grad(f), s1, p1, q1)
        * vec_besov(v, s2, p2, q2)})}


class TestTheoremReports:
    @pytest.mark.parametrize("theorem, s_lo, s_amp", [
        ("theorem1", 0.5, 0.5), ("theorem2", 0.3, 0.4), ("theorem2", -0.7, 0.4),
        ("theorem3", 0.6, 0.0)], ids=["theorem1", "theorem2-positive",
                                      "theorem2-negative", "theorem3"])
    def test_reports_equal_per_field_composition_bitwise(
            self, transport_case, theorem, s_lo, s_amp):
        # every term of every variant, with variable s (or s2), p2 and q
        # (or q1): a term computed from the wrong blocks or index moves
        # its bits even where the report's ratio stays finite
        v, f, rou = transport_case
        g = f.grid
        s = cos_bump_exponent(g, s_lo, s_amp)
        p1 = constant_exponent(g, 4.0)
        p2 = log_smooth_exponent(g, 3.0, 1.5)
        q = cos_bump_exponent(g, 1.5, 1.0)
        if theorem == "theorem3":
            s2, q2 = cos_bump_exponent(g, 0.0, 0.3), constant_exponent(g, 4.0)
            q = cos_bump_exponent(g, 2.5, 1.5)
            got = theorem3_report(v, f, s, s2, p1, p2, q, q2, rou)
            want = _composed_reports(theorem, v, f, s, p1, p2, q, rou, s2, q2)
        else:
            report = {"theorem1": theorem1_report,
                      "theorem2": theorem2_report}[theorem]
            got = report(v, f, s, p1, p2, q, rou)
            want = _composed_reports(theorem, v, f, s, p1, p2, q, rou)
        assert set(got) == set(want)
        for variant, (lhs, terms) in want.items():
            rep = got[variant]
            assert rep.lhs == lhs
            assert rep.rhs_terms == terms
            assert list(rep.rhs_terms) == list(terms)
            assert rep.ratio == lhs / sum(terms.values())
            assert rep.ratio > 0

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

    def test_unknown_theorem(self, monkeypatch):
        cfg = SweepConfig(points_per_axis=512, levels=6, kmax=25, exponents={
            "s": ("constant", {"value": 1.0}),
            "p1": ("constant", {"value": 4.0}),
            "p2": ("constant", {"value": 4.0}),
            "q": ("constant", {"value": 2.0}),
        })

        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn for an unknown theorem")

        # the name is rejected before any instance is drawn
        monkeypatch.setattr(random_fields, "band_limited_vector_field", no_draw)
        # the package rebinds the name commutator to the function
        monkeypatch.setattr(importlib.import_module("varbesov.commutator"),
                            "band_limited_vector_field", no_draw, raising=False)
        with pytest.raises(ValueError,
                           match=r"theorem must be one of \(.*\), got 'theorem9'"):
            constant_sweep(cfg, "theorem9", trials=1, seed=1)

    def test_small_sweep_summary_shape(self):
        cfg = SweepConfig(points_per_axis=1024, levels=7, exponents={
            "s": ("constant", {"value": 1.0}),
            "p1": ("constant", {"value": 4.0}),
            "p2": ("constant", {"value": 4.0}),
            "q": ("constant", {"value": 2.0}),
        })
        summary = constant_sweep(cfg, "theorem1", trials=2, seed=5, refine=False)
        assert set(summary) == {"ratios", "max_ratio"}
        assert all(len(v) == 2 for v in summary["ratios"].values())
        assert all(math.isfinite(v) for v in summary["max_ratio"].values())
        refined = constant_sweep(cfg, "theorem1", trials=1, seed=5)
        assert set(refined) == {"ratios", "max_ratio", "refine_factors",
                                "refine_stable"}
        assert set(refined["refine_factors"]) == set(refined["ratios"])

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
