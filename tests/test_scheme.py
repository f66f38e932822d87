import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln

from nlamp import (
    BRANCH_ORDER,
    FockState,
    SUCCESS_OUTCOME,
    SchemeConfig,
    SplitterTriple,
    TruncationError,
    coherence_check,
    coherent_state,
    enumerate_single_photon_branches,
    f_eff_conjectured,
    g_eff_closed,
    gain_fidelity_sweep,
    inner_product,
    kraus_step,
    operator_oracle,
    p_succ_closed,
    pad,
    run_branch,
)
from nlamp.scheme import _log_factorials

# reference branch table at alpha = 0.5, all reflectivities 0.4:
# outcome -> (probability, |<a>|, 1 - F against the energy-matched coherent
# reference).  Values frozen from this implementation; the published table
# quotes the same numbers to three significant figures.
REFERENCE_TABLE = {
    (1, 0, 1): (1.3563e-3, 0.6863, 4.839e-3),
    (1, 0, 0): (5.5750e-3, 0.7202, 0.36162),
    (1, 1, 1): (5.2745e-4, None, 3.791e-5),
    (1, 1, 0): (2.8821e-2, None, 1.596e-5),
    (0, 1, 1): (8.5652e-4, 0.3849, 0.0),
    (0, 1, 0): (3.0347e-2, 0.3849, 0.0),
    (0, 0, 1): (2.5492e-2, 0.3849, 0.0),
    (0, 0, 0): (0.90319, 0.3849, 0.0),
}
REFERENCE_REMAINDER = 3.8361e-3

TABLE_CONFIG = SchemeConfig.symmetric(0.5 + 0j, 0.4)

# the BranchResult fields every route computes
METRICS = ("probability", "mean_a_abs", "g_eff", "fidelity_eff", "fidelity_energy",
           "fidelity_ideal")


class TestBranchTable:
    def test_probabilities(self):
        for outcome, (p, _, _) in REFERENCE_TABLE.items():
            branch = run_branch(TABLE_CONFIG, outcome)
            assert branch.probability == pytest.approx(p, rel=2e-4), outcome

    def test_field_amplitudes(self):
        for outcome, (_, mean_a, _) in REFERENCE_TABLE.items():
            if mean_a is None:
                continue
            branch = run_branch(TABLE_CONFIG, outcome)
            assert branch.mean_a_abs == pytest.approx(mean_a, abs=2e-4), outcome

    def test_energy_matched_infidelities(self):
        for outcome, (_, _, one_minus_f) in REFERENCE_TABLE.items():
            branch = run_branch(TABLE_CONFIG, outcome)
            assert 1.0 - branch.fidelity_energy == pytest.approx(
                one_minus_f, rel=2e-3, abs=1e-12
            ), outcome

    def test_remainder(self):
        _, remainder = enumerate_single_photon_branches(TABLE_CONFIG)
        assert remainder == pytest.approx(REFERENCE_REMAINDER, rel=2e-4)

    def test_success_branch_gain(self):
        branch = run_branch(TABLE_CONFIG, SUCCESS_OUTCOME)
        assert branch.g_eff == pytest.approx(
            g_eff_closed(0.5, SplitterTriple.symmetric(0.4)), abs=1e-10
        )

    def test_no_subtraction_branches_keep_attenuated_amplitude(self):
        # QND = 0 branches leave a coherent state of amplitude t^3 alpha
        t3 = math.sqrt(1 - 0.16) ** 3
        for outcome in ((0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0)):
            branch = run_branch(TABLE_CONFIG, outcome)
            assert branch.mean_a_abs == pytest.approx(t3 * 0.5, abs=1e-10)


class TestCompleteness:
    def test_branches_plus_remainder_cover_everything(self):
        for alpha, r in ((0.3, 0.2), (0.8, 0.45), (0.5, 0.4)):
            cfg = SchemeConfig.symmetric(complex(alpha), r)
            branches, remainder = enumerate_single_photon_branches(cfg)
            assert remainder >= 0
            total = sum(b.probability for b in branches) + remainder
            assert abs(total - 1.0) < 1e-12

    def test_branch_order_enumeration(self):
        branches, _ = enumerate_single_photon_branches(TABLE_CONFIG)
        assert [b.outcome for b in branches] == list(BRANCH_ORDER)


# any complex amplitude whose magnitude is a finite float, past where |alpha|²
# overflows (1.3e154) among them; abs raises OverflowError where the
# magnitude is not a float
AMPLITUDES = st.one_of(
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.builds(cmath.rect, st.floats(0.0, 1e300), st.floats(-math.pi, math.pi)),
).filter(lambda alpha: math.isfinite(math.hypot(alpha.real, alpha.imag)))


# ⟨n⟩ ≈ |alpha|² overflows past |alpha| ≈ 1.3e154, where the table forms
# √⟨n⟩ as a hypot; no numpy warning is raised anywhere
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(alpha=AMPLITUDES, rs=st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3))
@example(alpha=1e200, rs=(0.0, 0.0, 0.0))
@example(alpha=1e160j, rs=(0.0, 0.0, 0.0))
@example(alpha=1e200, rs=(1e-250, 0.0, 1e-210))
@example(alpha=1e155, rs=(1e-158, 1e-158, 1e-158))
@example(alpha=30.0, rs=(0.4, 0.4, 0.4))
def test_table_without_truncation_is_a_distribution(alpha, rs):
    branches, other = enumerate_single_photon_branches(SchemeConfig(alpha, *rs))
    probabilities = [b.probability for b in branches]
    assert all(0.0 <= p <= 1.0 for p in [*probabilities, other]), (probabilities, other)
    assert abs(sum(probabilities) + other - 1.0) <= 1e-12
    if rs == (0.0, 0.0, 0.0):
        # nothing is reflected, so nothing is detected
        assert probabilities[BRANCH_ORDER.index((0, 0, 0))] == 1.0


# Readings of twelve photons or more carry at most 5.5e-12 of the probability
# at |alpha| <= 1 and r <= 0.5, the most at the corner |alpha| = 1,
# r1 = r2 = 0.5 (readings of ten or more carry 1.4e-9 there).
READINGS = range(12)


@settings(max_examples=40, deadline=None)
@given(
    amplitude=st.floats(0.0, 1.0),
    phase=st.floats(-math.pi, math.pi),
    rs=st.tuples(st.floats(0.05, 0.5), st.floats(0.05, 0.5), st.floats(0.05, 0.5)),
)
@example(amplitude=1.0, phase=0.0, rs=(0.5, 0.5, 0.5))
def test_other_is_every_pattern_with_a_reading_above_one(amplitude, phase, rs):
    cfg = SchemeConfig(amplitude * cmath.exp(1j * phase), *rs)
    branches, other = enumerate_single_photon_branches(cfg)
    # the clamp max(1 - total, 0) never fires
    assert sum(b.probability for b in branches) <= 1.0 + 1e-12
    expected = 0.0
    first = coherent_state(cfg.alpha, cfg.effective_dim)
    for n_qnd in READINGS:
        second = kraus_step(first, cfg.r1, n_qnd)
        for n_pd1 in READINGS:
            third = kraus_step(second, cfg.r2, n_pd1, ancilla=n_qnd)
            for n_pd2 in READINGS:
                if max(n_qnd, n_pd1, n_pd2) > 1:
                    out = kraus_step(third, cfg.r3, n_pd2)
                    expected += np.vdot(out.amps, out.amps).real
    assert abs(other - expected) < 1e-10


class TestDegenerateInput:
    def test_vacuum_input(self):
        cfg = SchemeConfig.symmetric(0.0 + 0j, 0.4, dim=8)
        branches, remainder = enumerate_single_photon_branches(cfg)
        by_outcome = {b.outcome: b for b in branches}
        assert by_outcome[(0, 0, 0)].probability == pytest.approx(1.0, abs=1e-14)
        for outcome, branch in by_outcome.items():
            if outcome == (0, 0, 0):
                continue
            # flagged as undefined rather than raising
            assert branch.probability == 0
            assert not branch.defined
        assert remainder == pytest.approx(0.0, abs=1e-14)

    def test_outputs_are_the_image_of_the_truncated_input(self):
        # output level m comes from input level m + n_pd1 + n_pd2 alone, so
        # of two input levels a pattern with n_pd1 + n_pd2 = k keeps the
        # untruncated output's first 2 - k levels; at k = 2 there is none,
        # and run_branch finds the pattern unreachable.  The table has no
        # truncation and gives every pattern its P.
        cfg = SchemeConfig.symmetric(1e-4 + 0j, 0.4, dim=2)
        untruncated = SchemeConfig.symmetric(1e-4 + 0j, 0.4)
        branches, _ = enumerate_single_photon_branches(cfg)
        for branch in branches:
            single = run_branch(cfg, branch.outcome)
            full = run_branch(untruncated, branch.outcome)
            assert branch.defined
            assert_same_metric(branch.probability, full.probability, "P")
            kept = 2 - branch.outcome[1] - branch.outcome[2]
            assert single.defined == (kept > 0)
            if single.defined:
                assert single.output.dim == 2 + branch.outcome[0]
                image = full.output.amps[:kept] / np.linalg.norm(full.output.amps[:kept])
                np.testing.assert_allclose(single.output.amps[:kept], image, rtol=0, atol=1e-13)
                np.testing.assert_array_equal(single.output.amps[kept:], 0)


class TestTruncation:
    # at r = 0.8 the outputs' gamma = 0.65 would fit in 11 levels; the
    # input alpha = 3 does not fit in 10
    @pytest.mark.parametrize("r", [0.4, 0.8])
    def test_inadequate_dimension_raises_on_both_routes(self, r):
        # both routes that truncate the input, run_branch and the operator
        # oracle, raise; the table reads no dimension and gives the same
        # numbers as without one
        cfg = SchemeConfig.symmetric(3.0 + 0j, r, dim=10)
        for outcome in BRANCH_ORDER:
            with pytest.raises(TruncationError):
                run_branch(cfg, outcome)
        with pytest.raises(TruncationError):
            operator_oracle(cfg)
        branches, other = enumerate_single_photon_branches(cfg)
        want, want_other = enumerate_single_photon_branches(SchemeConfig.symmetric(3.0 + 0j, r))
        assert other == want_other
        for branch, expected in zip(branches, want):
            for name in METRICS:
                assert_same_metric(getattr(branch, name), getattr(expected, name), name)


class TestPhaseCovariance:
    def test_output_rotates_with_input_phase(self):
        theta = 0.83
        base = run_branch(SchemeConfig.symmetric(0.5 + 0j, 0.4), SUCCESS_OUTCOME)
        rotated = run_branch(
            SchemeConfig.symmetric(0.5 * cmath.exp(1j * theta), 0.4), SUCCESS_OUTCOME
        )
        assert abs(rotated.probability - base.probability) < 1e-12
        assert abs(rotated.g_eff - base.g_eff) < 1e-12
        assert abs(rotated.fidelity_eff - base.fidelity_eff) < 1e-12
        # amplitudes pick up e^{i n theta} in the number basis, up to a
        # global phase contributed by the subtracted photon
        phases = np.exp(1j * theta * np.arange(base.output.dim))
        overlap = abs(np.vdot(phases * base.output.amps, rotated.output.amps))
        assert overlap == pytest.approx(1.0, abs=1e-10)


class TestOutputCoherence:
    def test_unclicked_branches_stay_exactly_coherent(self):
        for outcome in BRANCH_ORDER:
            if outcome[0] == 0:
                assert coherence_check(run_branch(TABLE_CONFIG, outcome)) < 1e-10

    def test_success_branch_is_not_coherent(self):
        branch = run_branch(TABLE_CONFIG, SUCCESS_OUTCOME)
        assert coherence_check(branch) > 1e-4

    def test_double_click_branch_is_not_coherent(self):
        branch = run_branch(TABLE_CONFIG, (1, 1, 1))
        assert coherence_check(branch) > 1e-7

    def test_unclicked_amplitude_tracks_reflectivity(self):
        for r in (0.1, 0.4):
            branch = run_branch(SchemeConfig.symmetric(0.5 + 0j, r), (0, 0, 0))
            t3 = math.sqrt(1 - r * r) ** 3
            assert branch.mean_a_abs == pytest.approx(t3 * 0.5, abs=1e-3)


class TestOperatorOracle:
    def test_small_reflectivity_limit(self):
        cfg = SchemeConfig.symmetric(0.5 + 0j, 0.05)
        branch = run_branch(cfg, SUCCESS_OUTCOME)
        oracle = operator_oracle(cfg)
        dim = max(branch.output.dim, oracle.dim)
        overlap = abs(inner_product(pad(oracle, dim), pad(branch.output, dim))) ** 2
        assert overlap > 0.999

    def test_convergence_as_reflectivity_shrinks(self):
        overlaps = []
        for r in (0.2, 0.1, 0.05):
            cfg = SchemeConfig.symmetric(0.5 + 0j, r)
            branch = run_branch(cfg, SUCCESS_OUTCOME)
            oracle = operator_oracle(cfg)
            dim = max(branch.output.dim, oracle.dim)
            overlaps.append(
                abs(inner_product(pad(oracle, dim), pad(branch.output, dim))) ** 2
            )
        assert overlaps[0] < overlaps[1] < overlaps[2]


class TestSweepTrends:
    def test_weak_field_gain_approaches_twice_transmission(self):
        rows = gain_fidelity_sweep([0.02], [0.1])
        t3 = math.sqrt(1 - 0.01) ** 3
        assert rows[0].g_eff == pytest.approx(2.0 * t3, abs=1e-3)

    def test_gain_decreases_with_alpha(self):
        rows = gain_fidelity_sweep(np.linspace(0.1, 1.2, 6), [0.2])
        gains = [row.g_eff for row in rows]
        assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_ideal_fidelity_peaks_where_gain_meets_two(self):
        # F against |2 alpha> beats F against |g_eff alpha> only while the
        # achieved gain stays close to 2, i.e. at small alpha
        rows = gain_fidelity_sweep([0.05, 1.2], [0.1])
        small, large = rows
        assert small.f_ideal > large.f_ideal
        assert large.f_eff > large.f_ideal

    def test_row_grid_shape(self):
        rows = gain_fidelity_sweep([0.2, 0.4], [0.1, 0.3, 0.5])
        assert len(rows) == 6
        assert [row.r for row in rows[:2]] == [0.1, 0.1]


def assert_same_metric(got, want, label):
    if math.isnan(want):
        assert math.isnan(got), label
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), label


def assert_within_referee(got, want, label, floor):
    """got within 1e-12 relative of want plus an absolute floor; NaN where NaN."""
    if math.isnan(want):
        assert math.isnan(got), label
    else:
        assert abs(got - want) <= 1e-12 * abs(want) + floor, (label, got, want)


class TestBlockPropagation:
    """The batched and closed-form paths equal the one-row path row by row, up to rounding."""

    @settings(max_examples=40, deadline=None)
    @given(
        alphas=st.lists(st.floats(0.0, 1.5), max_size=8).flatmap(
            lambda values: st.permutations(values + [0.0])
        ),
        r=st.floats(0.0, 0.9, exclude_max=True),
        extra_levels=st.one_of(st.none(), st.integers(0, 16)),
    )
    # a magnitude whose success probability is positive but below 1e-300
    @example(alphas=[1e-155, 0.0], r=0.5, extra_levels=None)
    def test_sweep_rows_equal_run_branch(self, alphas, r, extra_levels):
        # the closed forms carry no truncation, so the referee runs at the
        # dimension the config picks or an explicit one above it; below it
        # the target |2 alpha> loses tail (F_ideal is 1.5e-12 low at
        # |alpha| = 1.5 in 24 levels, where the config picks 45)
        rows = gain_fidelity_sweep(alphas, [r])
        assert [(row.alpha_abs, row.r) for row in rows] == [(a, r) for a in alphas]
        for alpha, row in zip(alphas, rows):
            cfg = SchemeConfig.symmetric(complex(alpha), r)
            if extra_levels is not None:
                cfg = SchemeConfig.symmetric(
                    complex(alpha), r, dim=cfg.effective_dim + extra_levels
                )
            branch = run_branch(cfg, SUCCESS_OUTCOME)
            assert_same_metric(row.p_succ, branch.probability, "P")
            assert_same_metric(row.g_eff, branch.g_eff, "g_eff")
            assert_same_metric(row.f_eff, branch.fidelity_eff, "F_eff")
            assert_same_metric(row.f_ideal, branch.fidelity_ideal, "F_ideal")
            if alpha == 0.0:
                assert row.p_succ == 0.0
                assert math.isnan(row.g_eff)
                assert math.isnan(row.f_eff)
                assert math.isnan(row.f_ideal)

    @settings(max_examples=60, deadline=None)
    @given(
        amplitude=st.floats(0.0, 1.5),
        phase=st.floats(-math.pi, math.pi),
        rs=st.lists(st.floats(0.0, 0.9, exclude_max=True), min_size=3, max_size=3, unique=True),
        extra_levels=st.one_of(st.none(), st.integers(0, 16)),
        etas=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    )
    # vacuum: only (0, 0, 0) is reachable, and gain and fidelities are NaN
    @example(amplitude=0.0, phase=0.0, rs=[0.3, 0.4, 0.5], extra_levels=None, etas=(1.0, 1.0, 1.0))
    # r1 = 0: the four QND = 1 patterns have P = 0 and no output
    @example(amplitude=1.0, phase=0.7, rs=[0.0, 0.4, 0.6], extra_levels=3, etas=(1.0, 0.9, 0.8))
    # every QND = 1 pattern is positive but below the 1e-300 floor
    @example(
        amplitude=1e-155, phase=-2.0, rs=[0.5, 0.6, 0.7], extra_levels=None, etas=(1.0, 1.0, 1.0)
    )
    def test_table_equals_run_branch(self, amplitude, phase, rs, extra_levels, etas):
        cfg = SchemeConfig(amplitude * cmath.exp(1j * phase), *rs)
        if extra_levels is not None:
            cfg = SchemeConfig(cfg.alpha, *rs, dim=cfg.effective_dim + extra_levels)
        cfg = SchemeConfig(cfg.alpha, *rs, dim=cfg.dim, etas=etas)
        branches, _ = enumerate_single_photon_branches(cfg)
        assert [b.outcome for b in branches] == list(BRANCH_ORDER)
        for branch in branches:
            single = run_branch(cfg, branch.outcome)
            assert branch.defined == single.defined, branch.outcome
            assert_same_metric(branch.probability, single.probability, "P")
            # |<a>| and each overlap |<beta|psi>| are sums of terms of size
            # about |alpha| and 1 that can cancel, and there both routes lose
            # digits: those fields also pass within an absolute floor of
            # 1e-15 on |<a>| / |alpha| and on g_eff, and 1e-14 on F / sqrt(F)
            # (5e-15 on the overlap itself)
            assert_within_referee(
                branch.mean_a_abs, single.mean_a_abs, "|<a>|", 1e-15 * amplitude
            )
            assert_within_referee(branch.g_eff, single.g_eff, "g_eff", 1e-15)
            for name in ("fidelity_eff", "fidelity_energy", "fidelity_ideal"):
                want = getattr(single, name)
                floor = 0.0 if math.isnan(want) else 1e-14 * math.sqrt(want)
                assert_within_referee(getattr(branch, name), want, name, floor)
            # the table builds no Fock vector; run_branch builds it
            assert branch.output is None
            if single.defined:
                assert single.output.dim == cfg.effective_dim + branch.outcome[0]

    def test_enumerated_outputs_equal_run_branch(self):
        # every pattern's output is (u + v a†)|gamma⟩, gamma = t3 t2 t1 alpha,
        # the form the table's metrics are computed from: run_branch's output
        # lies in that plane, cut to the image of the truncated input (level
        # m from input level m + n_pd1 + n_pd2), and has the table's metrics
        rng = np.random.default_rng(41)
        for dim in (None, None, 26, 40):
            alpha = complex(*rng.uniform(-1.0, 1.0, size=2))
            rs = rng.uniform(0.05, 0.8, size=3)
            cfg = SchemeConfig(alpha, *rs, dim=dim, etas=(0.9, 0.8, 0.95))
            gamma = alpha * math.prod(math.sqrt(1.0 - r * r) for r in rs)
            branches, _ = enumerate_single_photon_branches(cfg)
            for branch in branches:
                single = run_branch(cfg, branch.outcome)
                size = cfg.effective_dim + branch.outcome[0]
                assert single.output.dim == size
                levels = np.arange(size)
                coherent = coherent_state(gamma, size).amps
                created = np.concatenate([[0.0], np.sqrt(levels[1:]) * coherent[:-1]])
                plane = np.stack([coherent, created], axis=1)
                plane[levels >= cfg.effective_dim - sum(branch.outcome[1:])] = 0.0
                uv, *_ = np.linalg.lstsq(plane, single.output.amps, rcond=None)
                np.testing.assert_allclose(
                    plane @ uv, single.output.amps, rtol=0, atol=1e-13
                )
                for name in METRICS:
                    assert_same_metric(getattr(branch, name), getattr(single, name), name)

    @pytest.mark.parametrize("r", [0.1, 0.3])
    def test_sweep_row_above_the_cli_dimension_bound_equals_run_branch(self, r):
        # |alpha| = 14 needs 1020 levels, above the MAX_DIM the table
        # subcommands admit; the sweep's closed forms need none
        [row] = gain_fidelity_sweep([14.0], [r])
        branch = run_branch(SchemeConfig.symmetric(14.0 + 0j, r), SUCCESS_OUTCOME)
        assert branch.output.dim == 1021
        assert_same_metric(row.p_succ, branch.probability, "P")
        assert_same_metric(row.g_eff, branch.g_eff, "g_eff")
        assert_same_metric(row.f_eff, branch.fidelity_eff, "F_eff")
        assert_same_metric(row.f_ideal, branch.fidelity_ideal, "F_ideal")

    def test_sweep_past_any_truncation(self):
        # at |alpha| = 40, e^(-|alpha|^2 / 2) underflows, so no truncated
        # coherent state exists; past 1e77 the closed-form polynomials overflow
        s = SplitterTriple.symmetric(0.3)
        rows = gain_fidelity_sweep([0.0, 40.0, 1e6, 1e200], [0.3])
        assert [row.alpha_abs for row in rows] == [0.0, 40.0, 1e6, 1e200]
        g_eff = g_eff_closed(40.0, s)
        assert rows[1].p_succ == p_succ_closed(40.0, s) > 1e-300
        assert rows[1].g_eff == g_eff
        assert rows[1].f_eff == f_eff_conjectured(40.0, s, g_eff)
        assert rows[1].f_ideal == f_eff_conjectured(40.0, s, 2.0)
        for row in (rows[0], rows[2], rows[3]):
            assert row.p_succ == 0.0
            assert math.isnan(row.g_eff)
            assert math.isnan(row.f_eff)
            assert math.isnan(row.f_ideal)

    def test_sweep_memory_does_not_grow_with_points(self):
        # 2 000 points up to the largest amplitude the table subcommands
        # admit (dim ~ 1000)
        alphas = np.linspace(0.0, 13.8, 1000)
        tracemalloc.start()
        try:
            rows = gain_fidelity_sweep(alphas, [0.1, 0.4])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 2000
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("alpha", [-0.5, math.nan, math.inf, 0.5 + 0.1j])
    def test_sweep_rejects_a_value_that_is_not_a_magnitude(self, alpha):
        with pytest.raises(ValueError):
            gain_fidelity_sweep([0.5, alpha], [0.3])


class TestNumericalStability:
    def test_dimension_doubling(self):
        base = SchemeConfig.symmetric(0.5 + 0j, 0.4, dim=30)
        doubled = SchemeConfig.symmetric(0.5 + 0j, 0.4, dim=60)
        for outcome in BRANCH_ORDER:
            b1 = run_branch(base, outcome)
            b2 = run_branch(doubled, outcome)
            assert abs(b1.probability - b2.probability) < 1e-10
            assert abs(b1.mean_a_abs - b2.mean_a_abs) < 1e-10
            assert abs(b1.fidelity_energy - b2.fidelity_energy) < 1e-10


class TestDetectorEfficiencies:
    def test_success_probability_scales_by_product(self):
        ideal = run_branch(TABLE_CONFIG, SUCCESS_OUTCOME)
        lossy = run_branch(
            SchemeConfig.symmetric(0.5 + 0j, 0.4, etas=(0.99, 0.95, 0.95)),
            SUCCESS_OUTCOME,
        )
        assert lossy.probability == pytest.approx(
            ideal.probability * 0.99 * 0.95 * 0.95, rel=1e-12
        )
        # conditioned state and its metrics are unchanged
        assert abs(lossy.g_eff - ideal.g_eff) < 1e-14


class TestValidation:
    def test_negative_outcome_rejected(self):
        with pytest.raises(ValueError):
            run_branch(TABLE_CONFIG, (-1, 0, 1))

    def test_reading_beyond_truncation_rejected(self):
        with pytest.raises(ValueError):
            run_branch(TABLE_CONFIG, (0, TABLE_CONFIG.effective_dim, 0))

    @pytest.mark.parametrize(
        "r, n, ancilla", [(1.0, 0, 0), (-0.1, 0, 0), (0.4, -1, 0), (0.4, 0, -1)]
    )
    def test_kraus_step_rejects_bad_inputs(self, r, n, ancilla):
        with pytest.raises(ValueError):
            kraus_step(coherent_state(0.5, 20), r, n, ancilla)

    # the last has finite parts but a magnitude past the largest float
    @pytest.mark.parametrize(
        "alpha", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(1.7e308, 1.7e308)]
    )
    def test_non_finite_amplitude_rejected(self, alpha):
        with pytest.raises(ValueError):
            SchemeConfig.symmetric(alpha, 0.4)

    def test_reflectivity_range(self):
        with pytest.raises(ValueError):
            SchemeConfig.symmetric(0.5 + 0j, 1.0)

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            SchemeConfig.symmetric(0.5 + 0j, 0.4, etas=(1.1, 1.0, 1.0))


# The dense oracle exponentiates the full two-mode generator a b† − a† b on
# ORACLE_DIM² levels.  Truncating the generator is exact on every block of
# total photon number below ORACLE_DIM, so inputs keep N ≤ 11 + 3.
ORACLE_DIM = 16
INPUT_DIM = 12


def dense_splitter(r):
    """U(r) = exp(asin(r) (a b† − a† b)) on ORACLE_DIM² levels by dense expm."""
    a = np.diag(np.sqrt(np.arange(1, ORACLE_DIM)), k=1)
    generator = np.kron(a, a.conj().T) - np.kron(a.conj().T, a)
    return expm(math.asin(r) * generator)


def dense_step(amps, u, n, ancilla):
    """⟨n|₂ U |amps⟩₁|ancilla⟩₂ for the dense two-mode unitary U."""
    psi = np.zeros(ORACLE_DIM, dtype=complex)
    psi[: amps.size] = amps
    joint = (u @ np.kron(psi, np.eye(ORACLE_DIM)[ancilla])).reshape(ORACLE_DIM, ORACLE_DIM)
    return joint[:, n]


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return FockState(amps / np.linalg.norm(amps))


class TestKrausAgainstDenseOracle:
    # r = 0 must raise no numpy warning, whatever the reading
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ancilla", [0, 1, 2])
    @pytest.mark.parametrize("r", [0.0, 0.37, 0.55])
    def test_step_matches_projected_unitary(self, r, ancilla):
        rng = np.random.default_rng(17 + ancilla)
        u = dense_splitter(r)
        for _ in range(5):
            state = random_state(rng, INPUT_DIM)
            for n in range(INPUT_DIM + ancilla):
                out = kraus_step(state, r, n, ancilla)
                assert out.dim == INPUT_DIM + ancilla
                expected = dense_step(state.amps, u, n, ancilla)
                np.testing.assert_allclose(
                    pad(out, ORACLE_DIM).amps, expected, rtol=0, atol=1e-12
                )

    def test_branches_match_dense_pipeline(self):
        rng = np.random.default_rng(29)
        outcomes = list(BRANCH_ORDER) + [(2, 1, 0), (3, 1, 1)]
        for _ in range(5):
            alpha = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            r1, r2, r3 = rng.uniform(0.1, 0.6, size=3)
            cfg = SchemeConfig(alpha, r1, r2, r3, dim=INPUT_DIM)
            u1, u2, u3 = (dense_splitter(r) for r in (r1, r2, r3))
            for outcome in outcomes:
                n_qnd, n_pd1, n_pd2 = outcome
                amps = coherent_state(alpha, INPUT_DIM).amps
                amps = dense_step(amps, u1, n_qnd, 0)
                amps = dense_step(amps, u2, n_pd1, n_qnd)
                amps = dense_step(amps, u3, n_pd2, 0)
                branch = run_branch(cfg, outcome)
                assert branch.output.dim == INPUT_DIM + n_qnd
                assert abs(branch.probability - np.vdot(amps, amps).real) < 1e-12
                unnormalized = math.sqrt(branch.probability) * pad(branch.output, ORACLE_DIM).amps
                np.testing.assert_allclose(unnormalized, amps, rtol=0, atol=1e-12)


class TestLogFactorials:
    def test_table_matches_gammaln(self):
        k = np.arange(2000)
        expected = gammaln(k + 1.0)
        table = _log_factorials(k.size)
        assert table.shape == k.shape
        assert np.all(np.abs(table - expected) <= 4 * np.spacing(expected))
