"""The three-beam-splitter amplifier pipeline and its branch analysis.

A weak coherent field is mixed with vacuum at splitter 1 and the reflected
arm is read out by a nondestructive counter (QND).  Whatever that counter
saw is re-injected as the ancilla of splitter 2, whose reflected arm feeds
photodetector PD1.  Splitter 3 mixes with vacuum again and feeds PD2.
Success is the pattern (QND, PD1, PD2) = (1, 0, 1): subtract one photon,
add it back, subtract one again.

Each splitter is followed by a photon counter on its reflected arm, so
every splitter-and-detection step is one single-mode Kraus operator on the
signal (`kraus_step`); no two-mode state is ever formed.  A branch is three
such steps, and its probability is the squared norm of the unnormalized
result.

Three routes give branch figures.  The truncated Fock simulator
(`run_branch`) applies the three steps to the input truncated at
effective_dim and gives one branch with its output state; it is the
referee the tests hold the other two routes to, and the one builder of the
Fock vectors that the `branches` subcommand prints.
K_k(n) is a sum of at most min(k, n) + 1 shifted diagonals, whose
coefficients are formed in log space from a table of log k! values
(`math.lgamma`), so the simulator needs numpy and the standard library only.

The branch table (`enumerate_single_photon_branches`) propagates nothing,
builds no Fock vector and has no truncation.  With a coherent input, each
step with a reading of 0 or 1 maps a state (u + v a†)|c⟩ to one of the same
form, because t^n̂|c⟩ = e^(−r²|c|²/2)|tc⟩, t^n̂ a† = t a† t^n̂, a|c⟩ = c|c⟩
and a a†|c⟩ = (1 + c a†)|c⟩.  So every 0/1 pattern ends in
(u + v a†)|gamma⟩ with one gamma = t3 t2 t1 alpha, the photon-added
coherent algebra (Agarwal & Tara, PRA 43, 492 (1991)), and its
probability, ⟨a⟩ and fidelities are exact functions of (u, v, gamma),
evaluated for the eight rows at once.

The success-branch sweep (`gain_fidelity_sweep`) reports the (1, 0, 1)
branch only, through the closed forms that algebra gives it
(`closed_forms`).

Every outcome pattern with readings 0 or 1 is enumerated; patterns where
some detector sees more than one photon are aggregated into a single
remainder probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .closed_forms import (
    SplitterTriple,
    detector_adjusted,
    f_eff_conjectured,
    g_eff_products,
    p_succ_products,
)
from .errors import ZeroNormError, ZeroProbabilityError
from .fock import FockState, coherent_state, inner_product, metrics

# Branch ordering used in reports: success first, then the failure modes
# grouped by whether the first subtraction succeeded.
BRANCH_ORDER: tuple[tuple[int, int, int], ...] = (
    (1, 0, 1),
    (1, 0, 0),
    (1, 1, 1),
    (1, 1, 0),
    (0, 1, 1),
    (0, 1, 0),
    (0, 0, 1),
    (0, 0, 0),
)

SUCCESS_OUTCOME = (1, 0, 1)


def _check_reflectivity(r: float) -> None:
    if not 0.0 <= r < 1.0:
        raise ValueError(f"reflectivity must be in [0, 1), got {r}")


@dataclass(frozen=True)
class SchemeConfig:
    """Input amplitude, splitter reflectivities, truncation and efficiencies."""

    alpha: complex
    r1: float
    r2: float
    r3: float
    dim: int | None = None
    etas: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not math.isfinite(math.hypot(self.alpha.real, self.alpha.imag)):
            raise ValueError(f"input amplitude must be finite, got {self.alpha}")
        for r in (self.r1, self.r2, self.r3):
            _check_reflectivity(r)
        for eta in self.etas:
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"detector efficiency must be in [0, 1], got {eta}")
        if self.dim is not None and self.dim < 2:
            raise ValueError("dim must be at least 2")

    @classmethod
    def symmetric(cls, alpha: complex, r: float, **kwargs) -> "SchemeConfig":
        return cls(alpha=alpha, r1=r, r2=r, r3=r, **kwargs)

    @property
    def effective_dim(self) -> int:
        if self.dim is not None:
            return self.dim
        # floor of 30 keeps every reported table number stable under doubling;
        # sized for 2*alpha so the ideal-amplification comparison state fits
        return max(30, fock.default_dim(2.0 * abs(self.alpha)))


@dataclass(frozen=True)
class BranchResult:
    """One conditioned output of the pipeline with its derived metrics.

    A branch of zero probability is flagged, not fatal: it is not `defined`
    and all its metric fields are NaN.  `output` is the truncated output
    state from `run_branch`, None there for an undefined branch, and None
    on every row of the branch table.
    """

    outcome: tuple[int, int, int]
    probability: float
    output: FockState | None
    mean_a_abs: float
    g_eff: float
    fidelity_eff: float
    fidelity_energy: float
    fidelity_ideal: float

    @property
    def defined(self) -> bool:
        return not math.isnan(self.mean_a_abs)


def _log_factorials(size: int) -> np.ndarray:
    """log k! for k < size, from math.lgamma."""
    return np.fromiter(map(math.lgamma, range(1, size + 1)), float, size)


def _kraus(
    amps: np.ndarray, r: float, n: int, ancilla: int, log_factorial: np.ndarray
) -> np.ndarray:
    """K_k(n) on the last axis of an amplitude block (..., dim) -> (..., dim + k).

    K_k(n) is a sum of min(k, n) + 1 shifted diagonals.  Each diagonal's
    coefficients are computed once, in log space so no factorial overflows,
    and multiply every row of the block at once.  `log_factorial[k]` is
    log k!, for every k < dim + ancilla and k = n.
    """
    t = math.sqrt(1.0 - r * r)
    log_r = math.log(r) if r > 0.0 else -math.inf
    dim = amps.shape[-1]
    out = np.zeros(amps.shape[:-1] + (dim + ancilla,), dtype=complex)
    for j in range(min(ancilla, n) + 1):
        lowered, raised = n - j, ancilla - j
        size = max(dim - lowered, 0)
        # K₀(n−j) sends |m+n−j⟩ to rⁿ⁻ʲ tᵐ √C(m+n−j, m) |m⟩, then a†^{k−j} adds
        # √((m+k−j)!/m!); r⁰ is 1 also at r = 0
        log_amp = (
            0.5 * (
                log_factorial[lowered : lowered + size]
                - log_factorial[lowered]
                + log_factorial[raised : raised + size]
            )
            - log_factorial[:size]
            + (lowered * log_r if lowered else 0.0)
            + np.arange(size) * math.log(t)
        )
        weight = math.comb(ancilla, j) * t**j * (-r) ** raised
        weight *= math.sqrt(math.perm(n, j) / math.factorial(ancilla))
        out[..., raised : raised + size] += (weight * np.exp(log_amp)) * amps[..., lowered:]
    return out


def kraus_step(state: FockState, r: float, n: int, ancilla: int = 0) -> FockState:
    """Unnormalized signal ⟨n|₂ U(r) |state⟩₁|ancilla⟩₂ after one splitter.

    U(r) maps the coherent pair (α, β) to (tα − rβ, tβ + rα), t = √(1 − r²);
    `ancilla` photons enter its second port and `n` are counted there.  With
    a vacuum ancilla the step is K₀(n) = rⁿ/√n! · t^{n̂} aⁿ, and with k
    ancilla photons it is K_k(n) = (1/√k!) Σ_{j ≤ min(k, n)} C(k, j) tʲ
    (−r)^{k−j} √(n!/(n−j)!) a†^{k−j} K₀(n−j), whose output has dim + k
    levels, so no amplitude is lost.  The squared norm of the result is the
    outcome probability times the squared norm of `state`.  This is the
    one-row case of the block kernel the branch functions use.
    """
    _check_reflectivity(r)
    if n < 0 or ancilla < 0:
        raise ValueError("photon numbers must be non-negative")
    log_factorial = _log_factorials(max(state.dim + ancilla, n + 1))
    return FockState(_kraus(state.amps, r, n, ancilla, log_factorial))


def run_branch(cfg: SchemeConfig, outcome: tuple[int, int, int]) -> BranchResult:
    """Evaluate one detection pattern end to end on the truncated Fock space.

    Probability is the squared norm of the three Kraus steps applied to the
    input, scaled by the detector efficiencies when they are not all unity;
    below 1e-300 the branch is reported as unreachable.  Metric
    conventions: g_eff = |⟨a⟩_out| / |alpha|; fidelity_eff compares against
    a coherent state of amplitude g_eff * alpha (input phase preserved),
    fidelity_energy against the coherent state with the same mean photon
    number (the convention the published branch table follows), and
    fidelity_ideal against |2 alpha⟩.  The output has effective_dim + n_qnd
    levels, and each comparison state max(that, default_dim(2 alpha)).
    """
    if min(outcome) < 0 or max(outcome) >= cfg.effective_dim:
        raise ValueError("detector readings must lie in [0, effective_dim)")
    psi = fock.coherent_block(cfg.alpha, cfg.effective_dim)
    # the widest step has the input's levels plus the QND reading, and no
    # count exceeds the largest reading
    log_factorial = _log_factorials(psi.size + max(outcome) + 1)
    # the photons counted nondestructively are added back at splitter 2
    for r, n, ancilla in zip((cfg.r1, cfg.r2, cfg.r3), outcome, (0, outcome[0], 0)):
        psi = _kraus(psi, r, n, ancilla, log_factorial)
    probability = np.vecdot(psi, psi).real
    if not probability >= 1e-300:
        return BranchResult(outcome, 0.0, None, *[math.nan] * 5)
    output = psi / np.sqrt(probability)
    levels = np.arange(output.size)
    mean_a_abs = float(np.abs(np.vecdot(output[:-1], np.sqrt(levels[1:]) * output[1:])))
    g_eff, fidelities = math.nan, [math.nan] * 3
    if cfg.alpha != 0:
        alpha = np.complex128(cfg.alpha)
        alpha_abs = np.abs(alpha)
        g_eff = mean_a_abs / alpha_abs
        mean_n = np.vecdot(output, levels * output).real
        # real and imaginary parts apart: numpy's complex division overflows
        # for subnormal |alpha|
        phase = alpha.real / alpha_abs + 1j * (alpha.imag / alpha_abs)
        # the comparison coherent states need room for their own amplitude
        target_dim = max(output.size, fock.default_dim(2.0 * alpha_abs))
        targets = fock.coherent_block(
            [g_eff * alpha, np.sqrt(mean_n) * phase, 2.0 * alpha], target_dim
        )
        overlaps = np.vecdot(targets[:, : output.size], output)
        fidelities = (overlaps.real**2 + overlaps.imag**2).tolist()
    return BranchResult(
        outcome,
        detector_adjusted(float(probability), *cfg.etas),
        FockState(output),
        mean_a_abs,
        float(g_eff),
        *fidelities,
    )


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def _branch_coefficients(cfg: SchemeConfig):
    """(gamma, w0, w1, P, defined): each 0/1 output is D(gamma)(w0|0⟩ + w1|1⟩).

    Arrays run over BRANCH_ORDER; a row with P >= 1e-300, before detector
    efficiencies, is defined and normalized, and any other has P = 0.
    """
    alpha = complex(cfg.alpha)
    r1, r2, r3 = cfg.r1, cfg.r2, cfg.r3
    t2, t3 = math.sqrt(1.0 - r2 * r2), math.sqrt(1.0 - r3 * r3)
    gamma1 = math.sqrt(1.0 - r1 * r1) * alpha
    gamma2 = t2 * gamma1
    gamma = t3 * gamma2

    # t^n̂ |c⟩ = e^(−r²|c|²/2) |t c⟩, so the three splitters scale every
    # pattern by e, and each stage maps the (u, v) of a reading prefix
    # linearly: a (u + v a†)|c⟩ = (c u + v + c v a†)|c⟩, t^n̂ a† = t a† t^n̂.
    # Where r²|c|² is not finite (0 · inf at r = 0, or |c|² overflowing),
    # each term is formed as (r|c|)(r|c|) instead; that rounds differently,
    # so the finite form stays wherever it holds and the tables keep their bits
    exponent = r1 * r1 * _abs2(alpha) + r2 * r2 * _abs2(gamma1) + r3 * r3 * _abs2(gamma2)
    if not math.isfinite(exponent):
        rc1, rc2, rc3 = r1 * abs(alpha), r2 * abs(gamma1), r3 * abs(gamma2)
        exponent = rc1 * rc1 + rc2 * rc2 + rc3 * rc3
    e = math.exp(-0.5 * exponent)
    start = (e, r1 * alpha * e)
    # splitter 2 adds the QND count back, K_k(n) with k = n_qnd
    after2 = {
        (0, 0): (start[0], 0.0),
        (0, 1): (r2 * gamma1 * start[0], 0.0),
        (1, 0): (0.0, -r2 * start[1]),
        (1, 1): (t2 * start[1], -r2 * r2 * gamma1 * start[1]),
    }
    rows = []
    for n_qnd, n_pd1, n_pd2 in BRANCH_ORDER:
        u, v = after2[n_qnd, n_pd1]
        rows.append((r3 * (gamma2 * u + v), r3 * t3 * gamma2 * v) if n_pd2 else (u, t3 * v))
    u, v = np.array(rows).T

    # coefficients on the orthonormal pair D(gamma)|0⟩, D(gamma)|1⟩, since
    # a†|gamma⟩ = D(gamma)(|1⟩ + gamma*|0⟩)
    w0, w1 = u + v * gamma.conjugate(), v
    probability = _abs2(w0) + _abs2(w1)
    defined = probability >= 1e-300
    probability[~defined] = 0.0
    scale = 1.0 / np.sqrt(np.where(defined, probability, 1.0))
    return gamma, w0 * scale, w1 * scale, probability, defined


def enumerate_single_photon_branches(
    cfg: SchemeConfig,
) -> tuple[list[BranchResult], float]:
    """All eight 0/1 detection patterns plus the aggregated remainder.

    Every output is (u + v a†)|gamma⟩ with one gamma = t3 t2 t1 alpha, so a
    pattern is two coefficients (u, v), and each metric of `run_branch` is
    array math on them over the eight rows (`_branch_coefficients`): no
    Kraus step is applied, no Fock vector is built and `dim` is not read,
    so any finite alpha gives a table.  The probability, ⟨a⟩, ⟨n⟩ and
    fidelities are exact; a row's `output` is None, and `run_branch` gives
    the truncated output vector.

    The remainder is the probability that some detector saw more than one
    photon; with ideal detectors the eight branches and the remainder sum to
    one.
    """
    alpha = complex(cfg.alpha)
    gamma, w0, w1, probability, defined = _branch_coefficients(cfg)

    # mean_a_abs, g_eff, fidelity_eff, fidelity_energy, fidelity_ideal
    metrics = np.full((5, len(BRANCH_ORDER)), np.nan)
    metrics[0] = np.abs(gamma + w0.conjugate() * w1)
    if alpha != 0:
        alpha_abs = abs(alpha)
        metrics[1] = metrics[0] / alpha_abs
        phase = complex(alpha.real / alpha_abs, alpha.imag / alpha_abs)
        with np.errstate(over="ignore", invalid="ignore"):
            # a D(gamma) = D(gamma)(a + gamma): a|psi⟩ has coefficients
            # (gamma w0 + w1, gamma w1), so ⟨n⟩ = |gamma w0 + w1|² + |gamma w1|²,
            # which overflows past |gamma| ≈ 1.3e154, where its root is a hypot
            root_n = np.sqrt(_abs2(gamma * w0 + w1) + _abs2(gamma * w1))
            big = np.isinf(root_n)
            if big.any():
                root_n[big] = np.hypot(np.abs(gamma * w0 + w1), np.abs(gamma * w1))[big]
            # ⟨beta|psi⟩ is (w0 + w1 (beta − gamma)*) times ⟨beta|gamma⟩, of
            # squared modulus e^(−|beta − gamma|²), 0 where that overflows;
            # beta is g_eff alpha, √⟨n⟩ times alpha's phase, and 2 alpha
            scales = np.array([metrics[1], root_n, np.full(len(BRANCH_ORDER), 2.0)])
            delta = scales * np.array([[alpha], [phase], [alpha]]) - gamma
            overlap = np.exp(-_abs2(delta))
            fidelities = _abs2(w0 + w1 * delta.conjugate()) * overlap
            metrics[2:] = np.where(overlap == 0.0, 0.0, fidelities)
    metrics[:, ~defined] = np.nan

    branches = [
        BranchResult(
            outcome,
            detector_adjusted(float(probability[b]), *cfg.etas),
            None,
            *metrics[:, b].tolist(),
        )
        for b, outcome in enumerate(BRANCH_ORDER)
    ]
    total = sum(b.probability for b in branches)
    return branches, max(1.0 - total, 0.0)


def coherence_check(branch: BranchResult) -> float:
    """Distance 1 - |⟨beta|psi⟩|^2 from the closest-moment coherent state.

    beta is the output's own field expectation ⟨a⟩, which is the overlap
    maximizer for an exactly coherent state.
    """
    if branch.output is None:
        raise ZeroProbabilityError("branch has no defined output")
    m = metrics(branch.output)
    reference = coherent_state(m.mean_a, branch.output.dim)
    return 1.0 - abs(inner_product(reference, branch.output)) ** 2


@dataclass(frozen=True)
class SweepRow:
    alpha_abs: float
    r: float
    g_eff: float
    f_eff: float
    f_ideal: float
    p_succ: float


def gain_fidelity_sweep(alpha_values, r_values) -> list[SweepRow]:
    """Success-branch gain, fidelities and probability over an (alpha, r) grid.

    Rows run over r outer, |alpha| inner.  Each comes from the closed forms,
    which are exact for this branch: P from `p_succ_products`, g_eff from
    `g_eff_products`, and F_eff and F_ideal from `f_eff_conjectured` with
    g_eff and with 2.  They equal `run_branch` on
    `SchemeConfig.symmetric(alpha, r)` point by point up to rounding, with
    no truncation, so any finite magnitude gives a row.  A point whose P is
    below 1e-300, alpha = 0 among them, gets P = 0 and NaN metrics, as a
    branch below that floor does.
    """
    alphas = np.asarray(alpha_values)
    if np.iscomplexobj(alphas):
        raise ValueError("|alpha| values must be real magnitudes")
    alphas = alphas.astype(float)
    bad = alphas[~(np.isfinite(alphas) & (alphas >= 0))]
    if bad.size:
        raise ValueError(f"|alpha| values must be finite and non-negative, got {bad[0]}")
    splitters = [SplitterTriple.symmetric(float(r)) for r in r_values]
    rows = []
    for s in splitters:
        t, loss = s.transmission_product, s.intensity_loss
        for alpha_abs in alphas.tolist():
            p = p_succ_products(alpha_abs, t, s.reflection_product, loss)
            if p >= 1e-300:
                g_eff = g_eff_products(alpha_abs, t)
                f_eff, f_ideal = (f_eff_conjectured(alpha_abs, s, g) for g in (g_eff, 2.0))
            else:
                p, g_eff, f_eff, f_ideal = 0.0, math.nan, math.nan, math.nan
            rows.append(SweepRow(alpha_abs, s.r1, g_eff, f_eff, f_ideal, p))
    return rows


def operator_oracle(cfg: SchemeConfig) -> FockState:
    """Normalized a a† a |alpha⟩, the small-reflectivity limit of the success branch."""
    state = coherent_state(cfg.alpha, cfg.effective_dim)
    out = fock.annihilate(fock.create(fock.annihilate(state)))
    if fock.norm(out) < 1e-150:
        raise ZeroNormError("ladder sequence annihilates the input state")
    return fock.normalized(out)
