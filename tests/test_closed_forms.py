import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlamp import (
    SUCCESS_OUTCOME,
    SchemeConfig,
    SplitterTriple,
    detector_adjusted,
    f_eff_closed,
    f_eff_conjectured,
    g_eff_closed,
    gain_fidelity_sweep,
    p_succ_closed,
    run_branch,
)
from nlamp.closed_forms import f_eff_products, g_eff_products, p_succ_products

# regression pin for the optimizer's reported operating point (threshold
# gain 1.4); the order of magnitude 1e-3 is the published headline value
P_SUCC_AT_REPORTED_OPTIMUM = 0.0010767759581595242


class TestSplitterTriple:
    def test_r_t_relations(self):
        s = SplitterTriple(0.1, 0.4, 0.7)
        for r, t in ((s.r1, s.t1), (s.r2, s.t2), (s.r3, s.t3)):
            assert abs(r * r + t * t - 1.0) < 1e-14

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SplitterTriple(1.0, 0.1, 0.1)


class TestSuccessProbability:
    def test_zero_input(self):
        assert p_succ_closed(0.0, SplitterTriple.symmetric(0.4)) == 0

    def test_zero_reflectivity(self):
        assert p_succ_closed(0.5, SplitterTriple(0.0, 0.4, 0.4)) == 0

    def test_reported_optimum_magnitude(self):
        value = p_succ_closed(0.51, SplitterTriple.symmetric(0.38))
        assert value == pytest.approx(P_SUCC_AT_REPORTED_OPTIMUM, rel=1e-12)
        assert value == pytest.approx(1e-3, rel=0.15)

    def test_permutation_symmetry(self):
        for perm in itertools.permutations((0.1, 0.3, 0.45)):
            assert p_succ_closed(0.6, SplitterTriple(*perm)) == pytest.approx(
                p_succ_closed(0.6, SplitterTriple(0.1, 0.3, 0.45)), rel=1e-14
            )


    @pytest.mark.parametrize("alpha, r", [(1e9, 1e-9), (1e10, 1e-9), (2e77, 1e-77)])
    def test_tiny_reflectivities_keep_the_gaussian_exponent(self, alpha, r):
        # every t rounds to 1, but 1 - T^2 = 3r^2 - 3r^4 + r^6 sets
        # e^(-(1 - T^2)|alpha|^2) to about e^-3, e^-300 and e^-12 here; at
        # 2e77, |T alpha|^4 overflows, so the reference is formed in logs
        x = (1.0 - r * r) ** 3 * alpha * alpha
        loss = r * r * (3.0 - 3.0 * r * r + r**4)
        expected = math.exp(
            2.0 * math.log(x) + math.log1p((3.0 + 1.0 / x) / x)
            + 2.0 * math.log(r**3 * alpha) - loss * alpha * alpha
        )
        [row] = gain_fidelity_sweep([alpha], [r])
        assert row.p_succ == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert p_succ_closed(alpha, SplitterTriple.symmetric(r)) == row.p_succ


class TestEffectiveGain:
    def test_weak_field_limit_is_two(self):
        assert g_eff_closed(1e-8, SplitterTriple.symmetric(0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_monotone_decrease_in_alpha(self):
        s = SplitterTriple.symmetric(0.3)
        values = [g_eff_closed(a, s) for a in np.linspace(0.0, 2.0, 41)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_bounded_by_twice_transmission_product(self):
        for r in (0.0, 0.2, 0.5):
            s = SplitterTriple.symmetric(r)
            for a in np.linspace(0.0, 2.0, 21):
                assert g_eff_closed(a, s) <= 2.0 * s.transmission_product + 1e-14

    def test_table_configuration(self):
        # rounds to the published headline gain of 1.4
        s = SplitterTriple.symmetric(0.4)
        assert g_eff_closed(0.5, s) == pytest.approx(1.3726404932118335, rel=1e-12)

    def test_matches_simulated_gain(self):
        cfg = SchemeConfig.symmetric(0.5 + 0j, 0.4)
        branch = run_branch(cfg, SUCCESS_OUTCOME)
        assert abs(branch.g_eff - g_eff_closed(0.5, SplitterTriple.symmetric(0.4))) < 1e-12


class TestOverflow:
    @pytest.mark.parametrize("alpha", [1e77, 1e154, 1e200, 1.7e308])
    def test_huge_amplitude_gives_the_limits(self, alpha):
        # P underflows to 0 and the gain tends to T; neither squares by a
        # power that raises OverflowError
        s = SplitterTriple.symmetric(0.3)
        assert p_succ_closed(alpha, s) == 0.0
        assert g_eff_closed(alpha, s) == pytest.approx(s.transmission_product, rel=1e-15)

    def test_nan_amplitude_is_rejected(self):
        with pytest.raises(ValueError):
            p_succ_closed(float("nan"), SplitterTriple.symmetric(0.3))


class TestEffectiveFidelity:
    def test_zero_input_is_unity(self):
        assert f_eff_closed(0.0, SplitterTriple.symmetric(0.4), 1.5) == 1.0

    def test_printed_form_disagrees_with_simulation(self):
        # the printed exponent squares the gain; the resulting value is far
        # from both the published table entry and the simulated overlap
        s = SplitterTriple.symmetric(0.4)
        printed = f_eff_closed(0.5, s, g_eff_closed(0.5, s))
        simulated = run_branch(SchemeConfig.symmetric(0.5 + 0j, 0.4), SUCCESS_OUTCOME).fidelity_eff
        assert abs((1 - printed) - 4.84e-3) > 0.1
        assert abs(printed - simulated) > 0.1

    def test_conjectured_exponent_matches_simulation(self):
        s = SplitterTriple.symmetric(0.4)
        conjectured = f_eff_conjectured(0.5, s, g_eff_closed(0.5, s))
        simulated = run_branch(SchemeConfig.symmetric(0.5 + 0j, 0.4), SUCCESS_OUTCOME).fidelity_eff
        assert abs(conjectured - simulated) < 1e-10

    def test_conjectured_matches_simulation_across_grid(self):
        for alpha in (0.2, 0.6, 1.0):
            for r in (0.1, 0.3, 0.5):
                s = SplitterTriple.symmetric(r)
                conjectured = f_eff_conjectured(alpha, s, g_eff_closed(alpha, s))
                branch = run_branch(SchemeConfig.symmetric(complex(alpha), r), SUCCESS_OUTCOME)
                assert abs(conjectured - branch.fidelity_eff) < 1e-10


    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e8), st.floats(1e-9, 0.9))
    @example(1e7, 1e-9)
    def test_fidelity_is_a_probability(self, alpha, r):
        # a squared overlap of unit vectors: rounding may not push it past 1
        s = SplitterTriple.symmetric(r)
        for g in (g_eff_closed(alpha, s), 2.0):
            assert 0.0 <= f_eff_conjectured(alpha, s, g) <= 1.0

    def test_sweep_fidelity_at_one_stays_at_one(self):
        (row,) = gain_fidelity_sweep([1e7], [1e-9])
        assert row.f_eff == 1.0


magnitudes = st.one_of(
    st.sampled_from([0.0, 1e154]), st.floats(-20.0, 308.0).map(lambda e: 10.0**e)
)
reflectivities = st.one_of(
    st.sampled_from([0.0, 1e-9]), st.floats(0.0, 0.99, exclude_max=True)
)


class TestSweepRows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(magnitudes, min_size=1, max_size=6),
        st.lists(reflectivities, min_size=1, max_size=3),
    )
    @example([0.0, 1e154, 1e308, 0.5], [0.0, 1e-9, 0.4])
    def test_rows_are_the_closed_forms_bit_for_bit(self, alphas, r_values):
        rows = gain_fidelity_sweep(alphas, r_values)
        points = [(alpha, r) for r in r_values for alpha in alphas]
        assert len(rows) == len(points)
        for row, (alpha, r) in zip(rows, points):
            assert (row.alpha_abs, row.r) == (alpha, r)
            s = SplitterTriple.symmetric(r)
            t = s.transmission_product
            p = p_succ_products(alpha, t, s.reflection_product, s.intensity_loss)
            if not p >= 1e-300:
                # below the floor, as a branch of zero probability
                assert row.p_succ == 0.0
                assert all(math.isnan(x) for x in (row.g_eff, row.f_eff, row.f_ideal))
                continue
            g = g_eff_products(alpha, t)
            want = (g, f_eff_products(alpha, t, g), f_eff_products(alpha, t, 2.0), p)
            got = (row.g_eff, row.f_eff, row.f_ideal, row.p_succ)
            assert [x.hex() for x in got] == [x.hex() for x in want]


class TestDetectorAdjustment:
    def test_ideal_detectors(self):
        assert detector_adjusted(0.5, 1.0, 1.0, 1.0) == 0.5

    def test_reported_efficiencies(self):
        adjusted = detector_adjusted(1e-3, 0.99, 0.95, 0.95)
        assert adjusted == pytest.approx(1e-3 * 0.99 * 0.95 * 0.95, rel=1e-14)
        assert adjusted == pytest.approx(8.93e-4, rel=1e-3)

    def test_dead_detector(self):
        assert detector_adjusted(0.5, 0.0, 0.95, 0.95) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            detector_adjusted(0.5, 1.2, 1.0, 1.0)


class TestOracleEquivalence:
    def test_closed_forms_match_simulated_success_branch(self):
        alphas = np.linspace(0.1, 1.0, 3)
        rs = np.linspace(0.05, 0.5, 3)
        for alpha in alphas:
            for r in rs:
                s = SplitterTriple.symmetric(r)
                branch = run_branch(SchemeConfig.symmetric(complex(alpha), r), SUCCESS_OUTCOME)
                assert abs(branch.probability - p_succ_closed(alpha, s)) < 1e-10
                assert abs(branch.g_eff - g_eff_closed(alpha, s)) < 1e-10
