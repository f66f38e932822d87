import math

import numpy as np
import pytest

from nlamp import (
    DimensionMismatchError,
    FockState,
    TruncationError,
    ZeroNormError,
    annihilate,
    coherent_state,
    create,
    default_dim,
    fock_state,
    inner_product,
    metrics,
    normalized,
)
from nlamp.fock import coherent_block


class TestCoherentState:
    def test_vacuum_is_alpha_zero(self):
        state = coherent_state(0.0, 5)
        np.testing.assert_allclose(state.amps, [1, 0, 0, 0, 0], atol=1e-15)

    def test_annihilation_eigenvalue(self):
        state = coherent_state(0.5, 30)
        assert abs(metrics(state).mean_a - 0.5) < 1e-12

    def test_mean_photon_number(self):
        state = coherent_state(0.5, 30)
        assert abs(metrics(state).mean_n - 0.25) < 1e-12

    def test_normalized(self):
        for alpha in (0.3, 1.0 + 0.5j, 2.0):
            state = coherent_state(alpha, 60)
            assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) < 1e-12

    def test_truncation_error_when_dim_too_small(self):
        with pytest.raises(TruncationError):
            coherent_state(2.0, 5)

    def test_default_dim_contains_tail(self):
        for alpha in (0.1, 0.5, 1.0, 2.0):
            dim = default_dim(alpha)
            state = coherent_state(alpha, dim)
            # recompute the untruncated tail directly
            c = math.exp(-0.5 * abs(alpha) ** 2)
            mass = c * c
            for n in range(1, dim):
                c *= abs(alpha) / math.sqrt(n)
                mass += c * c
            assert 1.0 - mass < 1e-14


def recurrence_coherent(alpha, dim):
    """c_n = c_(n-1) alpha / sqrt(n) from c_0 = exp(-|alpha|^2 / 2), renormalized."""
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps / np.linalg.norm(amps)


class TestCoherentBlock:
    def test_matches_recurrence(self):
        # up to 2 * 13.8, the |2 alpha> comparison state at the largest |alpha|
        # the CLI's dimension bound admits; a log-space form of c_n drifts to
        # 1e-14 at 13.8
        for alpha in (0.0, 0.3, 1.0 + 0.5j, -0.7 + 0.2j, -2.0, 3j, 5.0, 13.8, 8.28 - 11.04j, 27.6):
            dim = max(30, default_dim(alpha))
            np.testing.assert_allclose(
                coherent_state(alpha, dim).amps,
                recurrence_coherent(alpha, dim),
                rtol=0,
                atol=1e-15,
            )

    def test_rows_are_one_row_states(self):
        alphas = np.array([[0.5, 1.0 - 0.4j, 0.0], [2.0, -0.3j, 1.2]])
        block = coherent_block(alphas, 30)
        assert block.shape == (2, 3, 30)
        for index in np.ndindex(alphas.shape):
            np.testing.assert_allclose(
                block[index], coherent_state(alphas[index], 30).amps, rtol=0, atol=1e-15
            )

    def test_each_row_has_its_own_tail_check(self):
        # |2.0> does not fit in 5 levels, whatever its neighbours are, and
        # the error names its tail mass
        coherent_block([0.1, -0.1j], 5)
        tail = 1.0 - sum(math.exp(-4.0) * 4.0**n / math.factorial(n) for n in range(5))
        with pytest.raises(TruncationError, match=f"tail mass {tail:.3e} .* at dim=5"):
            coherent_block([0.1, 2.0, -0.1j], 5)


class TestFockState:
    def test_basis_vectors(self):
        np.testing.assert_array_equal(fock_state(0, 3).amps, [1, 0, 0])
        np.testing.assert_array_equal(fock_state(1, 3).amps, [0, 1, 0])

    def test_zero_field_amplitude(self):
        assert metrics(fock_state(1, 3)).mean_a == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            fock_state(3, 3)


class TestLadderOperators:
    def test_annihilate_single_photon(self):
        out = annihilate(fock_state(1, 4))
        np.testing.assert_allclose(out.amps, [1, 0, 0, 0])

    def test_annihilate_vacuum_gives_zero(self):
        out = annihilate(fock_state(0, 4))
        assert np.all(out.amps == 0)

    def test_coherent_is_annihilation_eigenstate(self):
        for alpha in (0.5, 1.3, 2.0, 0.7 + 0.9j):
            state = coherent_state(alpha, 45)
            lowered = annihilate(state)
            np.testing.assert_allclose(lowered.amps, alpha * state.amps, atol=1e-10)

    def test_annihilate_norm_is_mean_photon_number(self):
        state = coherent_state(0.8, 30)
        out = annihilate(state)
        assert abs(np.sum(np.abs(out.amps) ** 2) - metrics(state).mean_n) < 1e-12

    def test_create_vacuum(self):
        np.testing.assert_allclose(create(fock_state(0, 4)).amps, [0, 1, 0, 0])

    def test_create_single_photon(self):
        np.testing.assert_allclose(
            create(fock_state(1, 4)).amps, [0, 0, math.sqrt(2), 0]
        )

    def test_create_rejects_full_top_level(self):
        with pytest.raises(TruncationError):
            create(fock_state(3, 4))

    def test_commutator_on_number_states(self):
        dim = 12
        for n in range(dim - 2):
            state = fock_state(n, dim)
            lhs = annihilate(create(state)).amps - create(annihilate(state)).amps
            np.testing.assert_allclose(lhs, state.amps, atol=1e-12)

    def test_amplifier_ladder_sequence(self):
        # a a† a on a coherent state: alpha * a a† |alpha>
        state = coherent_state(0.6, 40)
        seq = annihilate(create(annihilate(state)))
        direct = annihilate(create(FockState(0.6 * state.amps)))
        np.testing.assert_allclose(seq.amps, direct.amps, atol=1e-12)


class TestInnerProduct:
    def test_orthonormal_basis(self):
        assert inner_product(fock_state(0, 3), fock_state(0, 3)) == 1
        assert inner_product(fock_state(0, 3), fock_state(1, 3)) == 0

    def test_coherent_overlap_identity(self):
        a = coherent_state(0.5, 40)
        b = coherent_state(0.7, 40)
        assert abs(abs(inner_product(b, a)) ** 2 - math.exp(-0.04)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(fock_state(0, 3), fock_state(0, 4))


class TestMetrics:
    def test_coherent(self):
        m = metrics(coherent_state(0.5, 30))
        assert abs(m.mean_a - 0.5) < 1e-12
        assert abs(m.norm - 1.0) < 1e-12

    def test_single_photon(self):
        m = metrics(fock_state(1, 5))
        assert m.mean_a == 0
        assert m.mean_n == 1

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormError):
            metrics(FockState(np.zeros(4, dtype=complex)))
        with pytest.raises(ZeroNormError):
            normalized(FockState(np.zeros(4, dtype=complex)))

    def test_cauchy_schwarz_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = rng.integers(2, 20)
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            m = metrics(FockState(amps))
            assert abs(m.mean_a) ** 2 <= m.mean_n + 1e-12
