import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar

from nlamp import (
    InfeasibleError,
    OptProblem,
    OptResult,
    SUCCESS_OUTCOME,
    SchemeConfig,
    SplitterTriple,
    g_eff_closed,
    maximize,
    p_succ_closed,
    run_branch,
    verify_symmetry,
)
from nlamp import optimize
from nlamp.closed_forms import f_eff_conjectured, g_eff_products, p_succ_products
from nlamp.optimize import ROOT_MAXITER, _Reduced, _brentq, _step_back, _transmission


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


# the thresholds `nlamp optimize` solves on its defaults
CLI_THRESHOLDS = [round(1.05 + 0.05 * i, 2) for i in range(19)]


@pytest.mark.parametrize("g0", CLI_THRESHOLDS)
def test_reported_fidelity_equals_simulated_branch(g0):
    # f_opt is the closed form; the Fock simulator is the referee
    result = maximize(OptProblem(g_eff0=g0))
    cfg = SchemeConfig.symmetric(complex(result.alpha_opt), result.r_opt[0])
    simulated = run_branch(cfg, SUCCESS_OUTCOME).fidelity_eff
    assert result.f_opt == pytest.approx(simulated, rel=1e-12, abs=0.0)


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

    @pytest.mark.parametrize("g0, alpha_lo", [(1.3, 1.0), (1.5, 0.5), (1.5, 0.7)])
    def test_optimum_where_the_feasible_interval_ends(self, g0, alpha_lo):
        # P still rises where g(alpha_lo; T) = g0 ends the interval, and the
        # root of that edge rounds to its infeasible side; r_top steps back
        result = maximize(OptProblem(g_eff0=g0, alpha_bounds=(alpha_lo, 2.0)))
        assert result.converged and result.constraint_slack >= 0.0
        assert result.alpha_opt == pytest.approx(alpha_lo, rel=1e-12)

    def test_bounds_at_zero(self):
        # P vanishes at r = 0 and at alpha = 0, so the optimum is unchanged
        result = maximize(OptProblem(g_eff0=1.4, alpha_bounds=(0.0, 2.0), r_bounds=(0.0, 0.9)))
        assert result.p_opt == pytest.approx(maximize(OptProblem(g_eff0=1.4)).p_opt, rel=1e-13)

    def test_result_types(self, threshold_14_result):
        result = threshold_14_result
        assert isinstance(result, OptResult)
        assert isinstance(result.alpha_opt, float)
        assert all(isinstance(r, float) for r in result.r_opt)
        assert result.iterations > 0


class TestConstraintRoot:
    def test_closed_form_root_matches_brentq(self):
        # alpha*(r) solves g(alpha; T) = g0 through a quadratic in (T alpha)^2;
        # brentq on the gain itself is the oracle.  Both roots lie within about
        # 1e-14 of the exact one (brentq stops where rounding flips the sign
        # of the slack), so they agree to 2e-14.
        interior = 0
        for g0 in np.linspace(1.01, 1.99, 50):
            reduced = _Reduced(OptProblem(g_eff0=float(g0)))
            lo, hi = reduced.alpha_lo, reduced.alpha_hi
            for r in np.linspace(1e-6, 0.9, 80):
                s = SplitterTriple.symmetric(float(r))

                def slack(alpha):
                    return g_eff_closed(alpha, s) - g0

                if slack(lo) < 0.0 or slack(hi) >= 0.0:
                    continue
                interior += 1
                alpha = reduced.alpha_star(float(r))
                assert alpha == pytest.approx(brentq(slack, lo, hi, xtol=1e-15), abs=2e-14)
                assert slack(alpha) >= 0.0
        assert interior > 1000


class TestThresholdMonotonicity:
    def test_probability_decreases_with_threshold(self):
        previous = None
        for g0 in (1.2, 1.5, 1.8):
            result = maximize(OptProblem(g_eff0=g0))
            assert result.converged
            if previous is not None:
                assert result.p_opt < previous
            previous = result.p_opt


# the thresholds of the benchmark's optimize workload
BENCH_THRESHOLDS = [float(g) for g in np.linspace(1.04, 1.96, 6)]


def recorded(f):
    """f, and the list of the points it is called at, as Python floats."""
    calls = []

    def g(x):
        calls.append(float(x))
        return f(x)

    return g, calls


def root_or_error(solve, f, a, b):
    """The root or the error message, and the points f was called at."""
    g, calls = recorded(f)
    try:
        return solve(g, a, b), calls
    except RuntimeError as err:
        return str(err), calls


def scipy_maximize(problem):
    """maximize as written on scipy.optimize.brentq."""
    reduced = _Reduced(problem)
    r_lo, r_hi = problem.r_bounds

    def edge(r):
        return reduced.slack(reduced.alpha_lo, _transmission(r))

    if edge(r_lo) < 0.0:
        raise InfeasibleError(f"no feasible point for g_eff0={problem.g_eff0}")
    if edge(r_hi) >= 0.0:
        r_top = r_hi
    else:
        r_top = _step_back(brentq(edge, r_lo, r_hi), r_lo, lambda r: edge(r) < 0.0)
    if reduced.slope(r_top) >= 0.0:
        r_opt = r_top
    elif reduced.slope(r_lo) <= 0.0:
        r_opt = r_lo
    else:
        # scipy needs xtol > 0; the smallest one adds nothing to its
        # relative tolerance, as maximize's xtol=0 does
        r_opt = brentq(reduced.slope, r_lo, r_top, xtol=math.ulp(0.0))
    alpha_opt = float(reduced.alpha_star(r_opt))
    t = _transmission(r_opt)
    loss = -math.expm1(3.0 * math.log1p(-r_opt * r_opt))
    p_opt = p_succ_products(alpha_opt, t, r_opt * r_opt * r_opt, loss)
    slack = reduced.slack(alpha_opt, t)
    return OptResult(
        p_opt=p_opt,
        alpha_opt=alpha_opt,
        r_opt=(r_opt, r_opt, r_opt),
        f_opt=f_eff_conjectured(
            alpha_opt, SplitterTriple.symmetric(r_opt), g_eff_products(alpha_opt, t)
        ),
        g_eff0=problem.g_eff0,
        converged=slack >= -1e-8 and p_opt > 0,
        iterations=reduced.evals,
    )


class TestBrentPorts:
    """The math-only Brent root equals scipy.optimize.brentq bit for bit."""

    def test_root_matches_brentq_on_the_feasibility_edge(self):
        for g0 in np.linspace(1.01, 1.99, 50):
            reduced = _Reduced(OptProblem(g_eff0=float(g0)))

            def edge(r):
                return reduced.slack(reduced.alpha_lo, _transmission(r))

            assert root_or_error(_brentq, edge, 1e-6, 0.9) == root_or_error(
                brentq, edge, 1e-6, 0.9
            )

    @settings(max_examples=200, deadline=None)
    @given(
        c=st.floats(-10.0, 10.0),
        below=st.floats(1e-6, 20.0),
        above=st.floats(1e-6, 20.0),
        slope=st.floats(0.0, 10.0),
        cubic=st.floats(0.0, 10.0),
        step=st.floats(0.0, 10.0),
        sharpness=st.floats(0.01, 100.0),
    )
    def test_root_matches_brentq_on_increasing_functions(
        self, c, below, above, slope, cubic, step, sharpness
    ):
        def f(x):
            d = x - c
            return slope * d + cubic * d**3 + step * math.tanh(sharpness * d)

        # a root at 0 can exhaust the iterations (x**3 does), and then both
        # raise after the same calls
        a, b = c - below, c + above
        if f(a) >= 0.0 or f(b) <= 0.0:
            return
        assert root_or_error(_brentq, f, a, b) == root_or_error(brentq, f, a, b)

    def test_root_raises_as_brentq_when_iterations_run_out(self, monkeypatch):
        monkeypatch.setattr(optimize, "ROOT_MAXITER", 3)

        def f(x):
            return math.tanh(x - 0.3)

        got = root_or_error(_brentq, f, -5.0, 5.0)
        assert got == root_or_error(lambda *a: brentq(*a, maxiter=3), f, -5.0, 5.0)
        assert got[0] == "Failed to converge after 3 iterations."

    @pytest.mark.parametrize("g0", CLI_THRESHOLDS + BENCH_THRESHOLDS)
    def test_search_matches_minimize_scalar_on_scan_brackets(self, g0):
        # scipy's bounded Brent search of P between the neighbours of the
        # best of 65 scan points, the optimizer this root replaced, is the
        # oracle.  It finds no higher P beyond rounding: alpha*(r) carries
        # about 1e-14 relative noise, since g0 - 2T cancels, and a search
        # over many r picks up a favourable draw.  Its r agrees to the 1e-7
        # that the flat maximum lets it resolve.
        result = maximize(OptProblem(g_eff0=g0))
        reduced = _Reduced(OptProblem(g_eff0=g0))

        def minus_p(r):
            alpha = reduced.alpha_star(r)
            if alpha is None:
                return 0.0
            return -p_succ_closed(alpha, SplitterTriple.symmetric(r))

        scan = np.linspace(1e-6, reduced.r_top(1e-6, 0.9), 65).tolist()
        k = int(np.argmin([minus_p(r) for r in scan]))
        found = minimize_scalar(
            minus_p,
            bounds=(scan[max(k - 1, 0)], scan[min(k + 1, 64)]),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert -found.fun <= result.p_opt * (1.0 + 1e-13)
        assert result.r_opt[0] == pytest.approx(found.x, rel=1e-7)

    @pytest.mark.parametrize("g0", CLI_THRESHOLDS + BENCH_THRESHOLDS)
    def test_maximize_equals_the_scipy_driven_solver(self, g0):
        result = maximize(OptProblem(g_eff0=g0))
        assert result == scipy_maximize(OptProblem(g_eff0=g0))
        assert type(result.converged) is bool

    def test_maximize_equals_the_scipy_driven_solver_without_a_root(self):
        # the whole reflectivity box is feasible, so r_top needs no root
        problem = OptProblem(g_eff0=1.2, r_bounds=(0.01, 0.2))
        assert maximize(problem) == scipy_maximize(problem)


def log_p_on_the_bound(r, g0):
    """log P at r1 = r2 = r3 = r and the largest feasible |alpha|, in mpmath.

    g(alpha; T) = g0 is (g0 - T)x^2 + (3g0 - 4T)x + g0 - 2T = 0 in
    x = (T alpha)^2, and P = (1 + 3x + x^2) r^6 alpha^2 e^(-(1 - T^2) alpha^2).
    """
    t = (1 - r * r) ** mpmath.mpf(1.5)
    a, b, c = g0 - t, 3 * g0 - 4 * t, g0 - 2 * t
    x = (mpmath.sqrt(b * b - 4 * a * c) - b) / (2 * a)
    alpha2 = x / (t * t)
    return 6 * mpmath.log(r) + mpmath.log(alpha2 * (1 + 3 * x + x * x)) - (1 - t * t) * alpha2


class TestSlopeRoot:
    """The optimum is the one root of d log P/dr on the feasible interval."""

    def test_slope_changes_sign_once(self):
        for g0 in np.linspace(1.002, 1.998, 250).tolist():
            reduced = _Reduced(OptProblem(g_eff0=g0))
            r_top = reduced.r_top(1e-6, 0.9)
            slopes = np.array([reduced.slope(r) for r in np.linspace(1e-6, r_top, 1000)])
            assert slopes[0] > 0.0 > slopes[-1]
            assert np.count_nonzero(np.diff(np.sign(slopes))) == 1, g0
            # the root converges within the iteration cap, kinks included
            assert maximize(OptProblem(g_eff0=g0)).iterations < ROOT_MAXITER

    def test_slope_is_the_derivative_of_log_p(self):
        reduced = _Reduced(OptProblem(g_eff0=1.4))
        r_top = reduced.r_top(1e-6, 0.9)
        with mpmath.workdps(40):
            for r in (1e-3, 0.05, 0.2, 0.38, 0.99 * r_top):
                want = mpmath.diff(lambda s: log_p_on_the_bound(s, mpmath.mpf(1.4)), r)
                assert reduced.slope(r) == pytest.approx(float(want), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("g0", [1.05, 1.4, 1.95])
    def test_r_opt_matches_40_digit_maximization(self, g0):
        result = maximize(OptProblem(g_eff0=g0))
        r = mpmath.mpf(result.r_opt[0])
        with mpmath.workdps(40):
            best = mpmath.findroot(
                lambda s: mpmath.diff(lambda u: log_p_on_the_bound(u, mpmath.mpf(g0)), s),
                (r * (1 - mpmath.mpf("1e-6")), r * (1 + mpmath.mpf("1e-6"))),
                solver="anderson",
            )
            assert abs(result.r_opt[0] - best) < 1e-11 * best

    @pytest.mark.parametrize("g0", [1.01, 1.02])
    def test_optimum_on_the_amplitude_bound_is_the_kink(self, g0):
        # P would peak past alpha_hi, so the root is where alpha* meets it
        result = maximize(OptProblem(g_eff0=g0))
        assert abs(result.alpha_opt - 2.0) < 1e-11
        assert result.converged and result.constraint_slack >= 0.0
