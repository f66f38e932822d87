import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from nlamp import (
    InfeasibleError,
    OptProblem,
    OptResult,
    SplitterTriple,
    g_eff_closed,
    maximize,
    p_succ_closed,
    verify_symmetry,
)


def closed_form_grid(alpha, t, r):
    """Success probability and gain on broadcast arrays, written independently."""
    ta2 = (t * alpha) ** 2
    p = (1.0 + ta2 * (3.0 + ta2)) * (r * alpha) ** 2 * np.exp(ta2 - alpha**2)
    g = t * (2.0 + 4.0 * ta2 + ta2**2) / (1.0 + 3.0 * ta2 + ta2**2)
    return p, g


@pytest.fixture(scope="module")
def threshold_14_result():
    return maximize(OptProblem(g_eff0=1.4))


class TestThreshold14:
    def test_reported_operating_point(self, threshold_14_result):
        result = threshold_14_result
        assert result.converged
        # reported optimum: p ~ 1e-3 at alpha ~ 0.51 with r ~ 0.38 each
        assert result.p_opt == pytest.approx(1e-3, rel=0.15)
        assert result.alpha_opt == pytest.approx(0.51, abs=0.01)
        for r in result.r_opt:
            assert r == pytest.approx(0.38, abs=0.01)

    def test_optimum_is_symmetric(self, threshold_14_result):
        assert verify_symmetry(threshold_14_result) < 1e-6

    def test_constraint_active(self, threshold_14_result):
        # the gain constraint binds at the optimum
        slack = threshold_14_result.constraint_slack
        assert -1e-8 <= slack < 1e-4

    def test_fidelity_reported(self, threshold_14_result):
        assert 0.9 < threshold_14_result.f_opt < 1.0

    def test_determinism(self, threshold_14_result):
        again = maximize(OptProblem(g_eff0=1.4))
        assert again.p_opt == threshold_14_result.p_opt
        assert again.alpha_opt == threshold_14_result.alpha_opt
        assert again.r_opt == threshold_14_result.r_opt

    def test_asymmetric_point_with_same_products_is_feasible_but_not_better(
        self, threshold_14_result
    ):
        # split one reflectivity while keeping the other two; probability and
        # gain depend only on the r and t products, so breaking the product
        # structure while holding the gain feasible cannot beat the optimum
        alpha = threshold_14_result.alpha_opt
        r = threshold_14_result.r_opt[0]
        skewed = SplitterTriple(min(r * 1.2, 0.89), r, max(r * 0.8, 1e-6))
        if g_eff_closed(alpha, skewed) > 1.4:
            assert p_succ_closed(alpha, skewed) <= threshold_14_result.p_opt + 1e-12


class TestOptimality:
    def test_kkt_conditions(self, threshold_14_result):
        # the gain constraint is active and P has zero derivative along the
        # constraint curve alpha = g^-1(1.4; T(r)) at the optimal r
        result = threshold_14_result
        assert 0.0 <= result.constraint_slack < 1e-9

        def along_constraint(r):
            s = SplitterTriple.symmetric(r)
            alpha = brentq(lambda a: g_eff_closed(a, s) - 1.4, 1e-3, 2.0, xtol=1e-15)
            return p_succ_closed(alpha, s)

        r, h = result.r_opt[0], 1e-5
        assert along_constraint(r) == pytest.approx(result.p_opt, rel=1e-9)
        slope = (along_constraint(r + h) - along_constraint(r - h)) / (2 * h)
        assert abs(slope) * r / result.p_opt < 1e-6
        assert along_constraint(r - 1e-3) < result.p_opt > along_constraint(r + 1e-3)

    def test_unconstrained_peak_has_gain_below_one(self):
        # the maximizer of P over alpha at fixed T is never feasible for
        # g0 > 1, which is why the optimizer takes the largest feasible alpha
        alpha = np.geomspace(1e-3, 100.0, 20001)[None, :]
        t = np.linspace(0.01, 0.999, 200)[:, None]
        p, g = closed_form_grid(alpha, t, 1.0)
        peak = np.argmax(p, axis=1)
        assert np.all((0 < peak) & (peak < alpha.size - 1))
        assert np.all(g[np.arange(t.size), peak] < 1.0)

    @pytest.mark.parametrize("g0", [1.04, 1.4, 1.95])
    def test_at_least_dense_symmetric_grid(self, g0):
        result = maximize(OptProblem(g_eff0=g0))
        alpha = np.linspace(1e-3, 2.0, 1001)[:, None]
        r = np.linspace(1e-6, 0.9, 1001)[None, :]
        p, g = closed_form_grid(alpha, (1.0 - r**2) ** 1.5, r**3)
        p = np.where(g >= g0, p, 0.0)
        i, j = np.unravel_index(np.argmax(p), p.shape)
        # the grid formula agrees with the package's closed form
        assert p[i, j] == pytest.approx(
            p_succ_closed(alpha[i, 0], SplitterTriple.symmetric(r[0, j])), rel=1e-12
        )
        assert 0.95 * result.p_opt < p[i, j] <= result.p_opt

    @settings(max_examples=40, deadline=None)
    @given(g0=st.floats(1.01, 1.99), seed=st.integers(0, 2**32 - 1))
    def test_no_asymmetric_triple_beats_optimum(self, g0, seed):
        result = maximize(OptProblem(g_eff0=g0))
        assert result.converged
        assert result.constraint_slack >= 0.0
        rng = np.random.default_rng(seed)
        r_opt, alpha_opt = result.r_opt[0], result.alpha_opt
        triples = np.concatenate(
            [
                rng.uniform(1e-6, 0.9, (200, 3)),
                np.clip(r_opt * np.exp(rng.normal(0.0, 0.1, (200, 3))), 1e-6, 0.9),
            ]
        )
        alpha = np.concatenate(
            [
                np.linspace(1e-3, 2.0, 400),
                np.clip(alpha_opt * (1.0 + np.linspace(-0.05, 0.05, 101)), 1e-3, 2.0),
            ]
        )[None, :]
        t = np.prod(np.sqrt(1.0 - triples**2), axis=1)[:, None]
        p, g = closed_form_grid(alpha, t, np.prod(triples, axis=1)[:, None])
        best = p[g >= g0].max(initial=0.0)
        assert best <= result.p_opt + min(1e-12, 1e-10 * result.p_opt)


class TestValidationAndFeasibility:
    def test_threshold_must_be_meaningful(self):
        with pytest.raises(ValueError):
            OptProblem(g_eff0=2.0)
        with pytest.raises(ValueError):
            OptProblem(g_eff0=0.9)

    def test_infeasible_box(self):
        # large alpha with large reflectivity cannot reach gain 1.9
        problem = OptProblem(
            g_eff0=1.9, alpha_bounds=(1.5, 2.0), r_bounds=(0.8, 0.9)
        )
        with pytest.raises(InfeasibleError):
            maximize(problem)

    def test_result_types(self, threshold_14_result):
        result = threshold_14_result
        assert isinstance(result, OptResult)
        assert isinstance(result.alpha_opt, float)
        assert all(isinstance(r, float) for r in result.r_opt)
        assert result.iterations > 0


class TestThresholdMonotonicity:
    def test_probability_decreases_with_threshold(self):
        previous = None
        for g0 in (1.2, 1.5, 1.8):
            result = maximize(OptProblem(g_eff0=g0))
            assert result.converged
            if previous is not None:
                assert result.p_opt < previous
            previous = result.p_opt
