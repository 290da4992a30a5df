import math

import numpy as np
import pytest

from varbesov import duality
from varbesov.duality import (extremal_witness, grade_witnesses,
                              infinity_witness, pairing, random_dual_search,
                              verify_norm_conjugate, witness_measures)
from varbesov.exponents import (ExponentField, conjugate, constant_exponent,
                                cos_bump_exponent, log_smooth_exponent)
from varbesov.grid import Field, Grid, integrate
from varbesov.lebesgue import modular, luxemburg_norm
from varbesov.mixed import FieldSequence, mixed_norm
from varbesov.random_fields import band_limited_field, band_limited_sequence


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 1024, 16.0)


def unit_indicator(grid):
    x = grid.axis_coordinates()
    vals = np.zeros(grid.shape)
    vals[(x >= 0) & (x < 1)] = 1.0
    return Field(grid, vals)


class TestPairing:
    def test_zero_partner(self, grid):
        fs = band_limited_sequence(grid, 3, 40, 1)
        gs = FieldSequence(tuple(Field(grid, np.zeros(grid.shape)) for _ in range(3)))
        assert pairing(fs, gs) == 0.0

    def test_indicator_self_pairing(self, grid):
        chi = unit_indicator(grid)
        assert pairing(FieldSequence((chi,)), FieldSequence((chi,))) == pytest.approx(1.0)

    def test_matches_levelwise_quadrature(self, grid):
        fs = band_limited_sequence(grid, 4, 40, 2)
        gs = band_limited_sequence(grid, 4, 40, 3)
        direct = sum(
            integrate(Field(grid, np.abs(f.values) * np.abs(g.values)))
            for f, g in zip(fs, gs)
        )
        assert pairing(fs, gs) == pytest.approx(direct, rel=1e-14)

    def test_level_mismatch(self, grid):
        fs = band_limited_sequence(grid, 3, 40, 1)
        gs = band_limited_sequence(grid, 2, 40, 1)
        with pytest.raises(ValueError, match="level"):
            pairing(fs, gs)


class TestExtremalWitness:
    def test_indicator_hand_computation(self, grid):
        # p = 2, q = 1, f = chi_[0,1): K = 1, beta = 1, h = chi
        chi = unit_indicator(grid)
        fs = FieldSequence((chi,))
        hs, k_norm, betas = extremal_witness(
            fs, constant_exponent(grid, 2.0), constant_exponent(grid, 1.0))
        assert k_norm == pytest.approx(1.0, rel=1e-8)
        assert betas[0] == pytest.approx(1.0, abs=1e-7)
        np.testing.assert_allclose(hs[0].values, chi.values, atol=1e-7)
        assert pairing(fs, hs) == pytest.approx(1.0, rel=1e-6)

    def test_single_level_norming_function(self, grid):
        # h realizes (|f|/K)^{p-1}, the classical norming function
        f = band_limited_field(grid, 40, 17)
        p = constant_exponent(grid, 3.0)
        fs = FieldSequence((f,))
        hs, k_norm, _ = extremal_witness(fs, p, constant_exponent(grid, 1.0))
        expect = (np.abs(f.values) / k_norm) ** 2.0
        np.testing.assert_allclose(hs[0].values, expect, atol=1e-7)
        assert pairing(fs, hs) / k_norm == pytest.approx(1.0, abs=1e-4)

    def test_two_identical_levels_split_evenly(self, grid):
        f = band_limited_field(grid, 40, 23)
        fs = FieldSequence((f, f))
        two = constant_exponent(grid, 2.0)
        _, _, betas = extremal_witness(fs, two, two)
        assert betas[0] == pytest.approx(0.5, abs=1e-5)
        assert betas[1] == pytest.approx(0.5, abs=1e-5)

    def test_guarantees_variable_exponents(self, grid):
        fs = band_limited_sequence(grid, 6, 40, 29)
        p = log_smooth_exponent(grid, 2.0, 1.5)
        q = cos_bump_exponent(grid, 1.3, 1.2)
        hs, k_norm, betas = extremal_witness(fs, p, q)
        assert sum(betas) == pytest.approx(1.0, abs=1e-5)
        assert pairing(fs, hs) / k_norm == pytest.approx(1.0, abs=1e-4)
        feas = mixed_norm(hs, conjugate(p), conjugate(q))
        assert feas <= 1.0 + 1e-4

    def test_beta_equation_residual(self, grid):
        fs = band_limited_sequence(grid, 5, 40, 37)
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = constant_exponent(grid, 2.0)
        hs, k_norm, betas = extremal_witness(fs, p, q)
        rq = q.reciprocals()
        for f, beta in zip(fs, betas):
            if beta == 0.0:
                continue
            scaled = Field(grid, np.abs(f.values) / (k_norm * beta ** rq))
            assert modular(scaled, p) == pytest.approx(1.0, abs=1e-6)

    def test_drops_a_level_below_the_beta_floor(self, grid, caplog):
        # at q = 2 a level 1e-6 the size of the others has beta about 1e-12:
        # its witness is zero, with one warning
        fs = band_limited_sequence(grid, 3, 40, 31)
        fs = FieldSequence((fs[0], Field(grid, 1e-6 * fs[1].values), fs[2]))
        two = constant_exponent(grid, 2.0)
        with caplog.at_level("WARNING", logger="varbesov.duality"):
            hs, _, betas = extremal_witness(fs, two, two)
        assert betas[1] == 0.0 and 0.0 < min(betas[0], betas[2])
        assert not np.any(hs[1].values)
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage().startswith("dropping level 1:")

    def test_rejects_infinite_p(self, grid):
        fs = band_limited_sequence(grid, 2, 40, 5)
        with pytest.raises(ValueError, match="infinity_witness"):
            extremal_witness(fs, constant_exponent(grid, math.inf),
                             constant_exponent(grid, 2.0))

    def test_rejects_infinite_q(self, grid):
        fs = band_limited_sequence(grid, 2, 40, 5)
        with pytest.raises(ValueError, match="finite-valued"):
            extremal_witness(fs, constant_exponent(grid, 2.0),
                             constant_exponent(grid, math.inf))

    def test_rejects_zero_sequence(self, grid):
        zeros = FieldSequence(tuple(Field(grid, np.zeros(grid.shape)) for _ in range(2)))
        with pytest.raises(ValueError, match="zero sequence"):
            extremal_witness(zeros, constant_exponent(grid, 2.0),
                             constant_exponent(grid, 2.0))


class TestInfinityWitness:
    def test_indicator_uniform_density(self, grid):
        chi = unit_indicator(grid)
        fs = FieldSequence((chi,))
        hs = infinity_witness(fs, constant_exponent(grid, 1.0), eps=1e-8)
        inside = chi.values > 0
        np.testing.assert_allclose(hs[0].values[inside], 1.0, rtol=1e-12)
        assert pairing(fs, hs) == pytest.approx(1.0, rel=1e-10)

    def test_unique_max_shrinks_to_node(self, grid):
        f = band_limited_field(grid, 40, 41)
        fs = FieldSequence((f,))
        hs = infinity_witness(fs, constant_exponent(grid, 2.0), eps=1e-12)
        support = hs[0].values > 0
        assert np.sum(support) == 1
        assert np.argmax(support) == np.argmax(np.abs(f.values))

    @pytest.mark.parametrize("zero_level", [False, True])
    def test_two_level_pairing_guarantee(self, grid, zero_level):
        # a zero level has beta = 0 and a zero witness
        f = band_limited_field(grid, 40, 43)
        g = band_limited_field(grid, 40, 44)
        g = Field(grid, g.values * (0.0 if zero_level else f.max_abs() / g.max_abs()))
        fs = FieldSequence((f, g))
        q = constant_exponent(grid, 2.0)
        eps = 1e-4
        hs = infinity_witness(fs, q, eps=eps)
        k_norm = mixed_norm(fs, constant_exponent(grid, math.inf), q)
        assert pairing(fs, hs) >= k_norm - 3.0 * eps
        feas = mixed_norm(hs, constant_exponent(grid, 1.0), conjugate(q))
        assert feas <= 1.0 + 1e-4
        assert np.any(hs[1].values) != zero_level

    @pytest.mark.parametrize("eps, q0, match", [
        (0.0, 2.0, "eps"), (-1e-8, 2.0, "eps"), (1e-8, math.inf, "finite-valued")])
    def test_rejects_bad_arguments(self, grid, eps, q0, match):
        fs = FieldSequence((unit_indicator(grid),))
        with pytest.raises(ValueError, match=match):
            infinity_witness(fs, constant_exponent(grid, q0), eps=eps)

    def test_zero_sequence_gives_zero_witnesses(self, grid):
        zeros = FieldSequence(tuple(Field(grid, np.zeros(grid.shape)) for _ in range(2)))
        hs = infinity_witness(zeros, constant_exponent(grid, 2.0), eps=1e-8)
        assert hs.levels == 2 and not any(np.any(h.values) for h in hs)


class TestRandomDualSearch:
    def test_zero_sequence(self, grid):
        zeros = FieldSequence(tuple(Field(grid, np.zeros(grid.shape)) for _ in range(2)))
        assert random_dual_search(zeros, constant_exponent(grid, 2.0),
                                  constant_exponent(grid, 2.0), 2, 1) == 0.0

    def test_witness_pool_floor_and_upper_bound(self, grid):
        # witness_measures pools the witness with the search: the best
        # pairing is at least the witness's, which is near K, and at most 8 K
        fs = band_limited_sequence(grid, 5, 40, 47)
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        _, _, paired, best = witness_measures(fs, p, q, seed=12)
        assert best >= paired >= 1.0 - 1e-4
        assert best <= 8.0

    def test_deterministic_given_seed(self, grid):
        fs = band_limited_sequence(grid, 4, 40, 53)
        p = constant_exponent(grid, 2.0)
        q = constant_exponent(grid, 2.0)
        a = random_dual_search(fs, p, q, trials=3, seed=99)
        b = random_dual_search(fs, p, q, trials=3, seed=99)
        assert a == b

    def test_witness_pool_is_the_larger_of_witness_and_search_bitwise(self, grid):
        fs = band_limited_sequence(grid, 5, 40, 61)
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = cos_bump_exponent(grid, 1.5, 1.0)
        hs, k_norm, _ = extremal_witness(fs, p, q)
        for seed in (3, 12):
            search = random_dual_search(fs, p, q, trials=2, seed=seed)
            assert witness_measures(fs, p, q, seed)[3] == max(
                pairing(fs, hs), search) / k_norm

    def test_skips_candidates_without_a_finite_nonzero_norm(self, grid,
                                                            monkeypatch):
        # a candidate whose conjugate norm is 0 or inf adds nothing
        fs = band_limited_sequence(grid, 2, 40, 5)
        p = constant_exponent(grid, 2.0)
        norms = iter([0.0, math.inf])
        monkeypatch.setattr(duality, "mixed_norm", lambda *args: next(norms))
        assert random_dual_search(fs, p, p, trials=2, seed=1) == 0.0

    def test_rejects_zero_trials(self, grid):
        fs = band_limited_sequence(grid, 2, 40, 5)
        p = constant_exponent(grid, 2.0)
        with pytest.raises(ValueError, match="trials"):
            random_dual_search(fs, p, p, trials=0, seed=1)


class TestGradeWitnesses:
    # (|sum beta - 1|, witness norm, pairing / K, search / K) of one instance
    GOOD = (1e-8, 0.99, 1.0, 1.5)
    BAD = (1e-3, 1.1, 0.5, 9.0)

    def test_all_good_instances_pass(self):
        reps = grade_witnesses([self.GOOD] * 3)
        assert [r.check_id for r in reps] == [
            "duality.beta_sum", "duality.witness_feasible",
            "duality.witness_pairing", "duality.upper_bound"]
        assert all(r.status == "pass" for r in reps)

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("nan", [False, True])
    def test_one_bad_later_instance_fails_its_record(self, k, nan):
        # a failing or NaN measure in a non-first instance fails that record
        # alone
        worst = list(self.GOOD)
        worst[k] = math.nan if nan else self.BAD[k]
        reps = grade_witnesses([self.GOOD, tuple(worst), self.GOOD])
        assert [r.status for r in reps] == [
            "fail" if i == k else "pass" for i in range(4)]


class TestNormConjugate:
    def test_hilbert_case_ratio_one(self, grid):
        f = band_limited_field(grid, 40, 59)
        rep = verify_norm_conjugate(f, constant_exponent(grid, 2.0), 2, 7)
        assert rep.status == "pass"
        assert rep.measured == pytest.approx(1.0, abs=1e-4)

    def test_l1_sign_pattern(self, grid):
        f = band_limited_field(grid, 40, 61)
        rep = verify_norm_conjugate(f, constant_exponent(grid, 1.0), 2, 7)
        assert rep.status == "pass"
        assert rep.measured == pytest.approx(1.0, abs=1e-4)

    def test_shortfall_gate_fails_alone(self, grid, monkeypatch):
        # every candidate pairs to a quarter of the norm: the ratio 0.25
        # is within the factor 2 above, so the record shows the shortfall
        f = band_limited_field(grid, 40, 59)
        p = constant_exponent(grid, 2.0)
        norm = luxemburg_norm(f, p)
        monkeypatch.setattr(duality, "integrate", lambda g: 0.25 * norm)
        rep = verify_norm_conjugate(f, p, 2, 7)
        assert (rep.status, rep.measured, rep.bound, rep.tolerance) == (
            "fail", 0.25, 0.0, 1e-6)

    def test_four_node_grid(self):
        # the shaped candidates' noise draws on N / 4 = 1 mode there
        g = Grid(1, 4, 2.0)
        rep = verify_norm_conjugate(Field(g, np.array([0.0, 1.0, 2.0, 1.0])),
                                    constant_exponent(g, 2.0), 2, 7)
        assert rep.status == "pass"
        assert rep.measured == pytest.approx(1.0, abs=1e-4)

    def test_zero_field_trivial(self, grid):
        rep = verify_norm_conjugate(Field(grid, np.zeros(grid.shape)),
                                    constant_exponent(grid, 2.0), 1, 1)
        assert rep.status == "trivial"

    def test_mixed_finite_and_infinite_regions(self, grid):
        x = grid.axis_coordinates()
        p = ExponentField(grid, np.where(np.abs(x) < 8.0, 2.0, np.inf))
        f = band_limited_field(grid, 40, 67)
        rep = verify_norm_conjugate(f, p, 2, 11)
        assert rep.status == "pass"
        assert 0.5 <= rep.measured <= 2.0

    @pytest.mark.parametrize("infinite_half", [False, True])
    def test_solves_no_mixed_norm(self, grid, monkeypatch, infinite_half):
        # both witnesses come in closed form from the Luxemburg norm the
        # check has solved, so no level solver is built
        def refuse(*args):
            raise AssertionError("the check built a mixed-norm solver")

        monkeypatch.setattr(duality, "_LevelSolver", refuse)
        x = grid.axis_coordinates()
        p = log_smooth_exponent(grid, 2.0, 1.0)
        if infinite_half:
            p = ExponentField(grid, np.where(np.abs(x) < 8.0, 2.0, np.inf))
        rep = verify_norm_conjugate(band_limited_field(grid, 40, 67), p, 2, 11)
        assert rep.status == "pass"
        assert rep.measured == pytest.approx(1.0, abs=1e-6)


class TestThreeRegionSplitting:
    def test_mixed_regime_duality_lower_bound(self, grid):
        # p infinite on a ring, q infinite outside it: witness the three
        # regime pieces separately, stitch dual candidates, and demand the
        # best pairing reaches a fixed fraction of the norm
        x = np.abs(grid.axis_coordinates())
        ring = (x >= 6.0) & (x < 10.0)
        outer = x >= 10.0
        p_vals = np.where(ring, np.inf, 2.5)
        q_vals = np.where(outer, np.inf, 2.0)
        p = ExponentField(grid, p_vals)
        q = ExponentField(grid, q_vals)
        fs = band_limited_sequence(grid, 4, 40, 71)
        k_norm = mixed_norm(fs, p, q)
        assert k_norm > 0

        pieces = {
            "finite_both": ~ring & ~outer,
            "q_infinite": outer,        # p finite there
            "p_infinite": ring,         # q finite there
        }
        best = 0.0
        pc, qc = conjugate(p), conjugate(q)
        for name, mask in pieces.items():
            piece = fs.masked(mask)
            if piece.max_abs() == 0.0:
                continue
            p_safe = ExponentField(grid, np.where(np.isfinite(p_vals), p_vals, 2.0))
            q_safe = ExponentField(grid, np.where(np.isfinite(q_vals), q_vals, 2.0))
            if name == "finite_both":
                hs, _, _ = extremal_witness(piece, p_safe, q_safe)
            elif name == "p_infinite":
                hs = infinity_witness(piece, q_safe, eps=1e-6)
            else:
                # q = inf piece: the norm is sup_j of the level norms, so a
                # scalar witness at the best level suffices
                norms = [luxemburg_norm(f, p_safe) for f in piece]
                j_star = int(np.argmax(norms))
                single, _, _ = extremal_witness(
                    FieldSequence((piece[j_star],)), p_safe,
                    constant_exponent(grid, 1.0))
                entries = [Field(grid, np.zeros(grid.shape))] * piece.levels
                entries[j_star] = single[0]
                hs = FieldSequence(tuple(entries))
            hs = FieldSequence(
                tuple(Field(grid, np.where(mask, h.values, 0.0)) for h in hs)
            )
            norm_dual = mixed_norm(hs, pc, qc)
            if norm_dual > 0:
                best = max(best, pairing(fs, hs.scaled(1.0 / norm_dual)))
        assert best >= k_norm / 4.0
