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

Every outcome pattern with readings 0 or 1 is enumerated; patterns where
some detector sees more than one photon are aggregated into a single
remainder probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from . import fock
from .closed_forms import detector_adjusted
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
        if not math.isfinite(abs(self.alpha)):
            raise ValueError(f"input amplitude must be finite, got {self.alpha}")
        for r in (self.r1, self.r2, self.r3):
            if not 0.0 <= r < 1.0:
                raise ValueError(f"reflectivity must be in [0, 1), got {r}")
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
        return max(30, fock.default_dim(2.0 * self.alpha))


@dataclass(frozen=True)
class BranchResult:
    """One conditioned output of the pipeline with its derived metrics.

    `output` is None for branches of zero probability (flagged, not fatal);
    all metric fields are NaN in that case.
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
        return self.output is not None


def kraus_step(state: FockState, r: float, n: int, ancilla: int = 0) -> FockState:
    """Unnormalized signal ⟨n|₂ U(r) |state⟩₁|ancilla⟩₂ after one splitter.

    U(r) maps the coherent pair (α, β) to (tα − rβ, tβ + rα), t = √(1 − r²);
    `ancilla` photons enter its second port and `n` are counted there.  With
    a vacuum ancilla the step is K₀(n) = rⁿ/√n! · t^{n̂} aⁿ, and with k
    ancilla photons it is K_k(n) = (1/√k!) Σ_{j ≤ min(k, n)} C(k, j) tʲ
    (−r)^{k−j} √(n!/(n−j)!) a†^{k−j} K₀(n−j), whose output has dim + k
    levels, so no amplitude is lost.  The squared norm of the result is the
    outcome probability times the squared norm of `state`.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"reflectivity must be in [0, 1), got {r}")
    if n < 0 or ancilla < 0:
        raise ValueError("photon numbers must be non-negative")
    t = math.sqrt(1.0 - r * r)
    out = np.zeros(state.dim + ancilla, dtype=complex)
    for j in range(min(ancilla, n) + 1):
        lowered, raised = n - j, ancilla - j
        m = np.arange(max(state.dim - lowered, 0))
        # K₀(n−j) sends |m+n−j⟩ to rⁿ⁻ʲ tᵐ √C(m+n−j, m) |m⟩, then a†^{k−j} adds
        # √((m+k−j)!/m!); summed in log space so no factorial overflows
        log_amp = 0.5 * (
            gammaln(m + lowered + 1) - gammaln(lowered + 1) + gammaln(m + raised + 1)
        ) - gammaln(m + 1) + xlogy(lowered, r) + xlogy(m, t)
        weight = math.comb(ancilla, j) * t**j * (-r) ** raised
        weight *= math.sqrt(math.perm(n, j) / math.factorial(ancilla))
        out[raised : raised + m.size] += weight * np.exp(log_amp) * state.amps[lowered:]
    return FockState(out)


def run_branch(cfg: SchemeConfig, outcome: tuple[int, int, int]) -> BranchResult:
    """Evaluate one detection pattern end to end.

    Probability is the squared norm of the three Kraus steps applied to the
    input, scaled by the detector efficiencies when they are not all unity;
    below 1e-300 the branch is reported as unreachable.  Metric
    conventions: g_eff = |⟨a⟩_out| / |alpha|; fidelity_eff compares against
    a coherent state of amplitude g_eff * alpha (input phase preserved),
    fidelity_energy against the coherent state with the same mean photon
    number (the convention the published branch table follows), and
    fidelity_ideal against |2 alpha⟩.
    """
    if max(outcome) >= cfg.effective_dim:
        raise ValueError("detector reading exceeds truncation dimension")
    n_qnd, n_pd1, n_pd2 = outcome
    state = kraus_step(coherent_state(cfg.alpha, cfg.effective_dim), cfg.r1, n_qnd)
    # the photons counted nondestructively are added back at splitter 2
    state = kraus_step(state, cfg.r2, n_pd1, ancilla=n_qnd)
    state = kraus_step(state, cfg.r3, n_pd2)
    nan = float("nan")
    probability = float(np.vdot(state.amps, state.amps).real)
    if probability < 1e-300:
        return BranchResult(outcome, 0.0, None, nan, nan, nan, nan, nan)
    output = FockState(state.amps / math.sqrt(probability))
    probability = detector_adjusted(probability, *cfg.etas)

    m = metrics(output)
    mean_a_abs = abs(m.mean_a)
    alpha_abs = abs(cfg.alpha)
    if alpha_abs > 0:
        phase = cfg.alpha / alpha_abs
        g_eff = mean_a_abs / alpha_abs
        # the comparison coherent states need room for their own amplitude
        target_dim = max(output.dim, fock.default_dim(2.0 * cfg.alpha))
        padded = fock.pad(output, target_dim)
        target_eff = coherent_state(g_eff * cfg.alpha, target_dim)
        target_energy = coherent_state(math.sqrt(m.mean_n) * phase, target_dim)
        target_ideal = coherent_state(2.0 * cfg.alpha, target_dim)
        fidelity_eff = abs(inner_product(target_eff, padded)) ** 2
        fidelity_energy = abs(inner_product(target_energy, padded)) ** 2
        fidelity_ideal = abs(inner_product(target_ideal, padded)) ** 2
    else:
        g_eff = nan
        fidelity_eff = nan
        fidelity_energy = nan
        fidelity_ideal = nan
    return BranchResult(
        outcome=outcome,
        probability=probability,
        output=output,
        mean_a_abs=mean_a_abs,
        g_eff=g_eff,
        fidelity_eff=fidelity_eff,
        fidelity_energy=fidelity_energy,
        fidelity_ideal=fidelity_ideal,
    )


def enumerate_single_photon_branches(
    cfg: SchemeConfig,
) -> tuple[list[BranchResult], float]:
    """All eight 0/1 detection patterns plus the aggregated remainder.

    The remainder is the probability that some detector saw more than one
    photon; with ideal detectors the eight branches and the remainder sum
    to one.
    """
    branches = [run_branch(cfg, outcome) for outcome in BRANCH_ORDER]
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


def gain_fidelity_sweep(
    alpha_values, r_values, dim: int | None = None
) -> list[SweepRow]:
    """Success-branch gain, fidelities and probability over an (alpha, r) grid."""
    rows = []
    for r in r_values:
        for alpha_abs in alpha_values:
            cfg = SchemeConfig.symmetric(complex(alpha_abs), r, dim=dim)
            branch = run_branch(cfg, SUCCESS_OUTCOME)
            rows.append(
                SweepRow(
                    alpha_abs=float(alpha_abs),
                    r=float(r),
                    g_eff=branch.g_eff,
                    f_eff=branch.fidelity_eff,
                    f_ideal=branch.fidelity_ideal,
                    p_succ=branch.probability,
                )
            )
    return rows


def operator_oracle(cfg: SchemeConfig) -> FockState:
    """Normalized a a† a |alpha⟩, the small-reflectivity limit of the success branch."""
    state = coherent_state(cfg.alpha, cfg.effective_dim)
    out = fock.annihilate(fock.create(fock.annihilate(state)))
    if fock.norm(out) < 1e-150:
        raise ZeroNormError("ladder sequence annihilates the input state")
    return fock.normalized(out)
