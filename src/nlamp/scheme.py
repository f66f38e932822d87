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

The steps act on blocks of states: an array of shape (B, dim) whose rows
are amplitude vectors, each zero above its own truncation.  K_k(n) is a sum
of at most min(k, n) + 1 shifted diagonals whose coefficients are computed
once per step and multiply all B rows at once, and the output metrics
(probability, ⟨a⟩, gain, fidelities) are array operations over the rows.
`run_branch` is the block of one row; `enumerate_single_photon_branches`
shares the steps of common reading prefixes among its eight patterns; and
`gain_fidelity_sweep` pushes all magnitudes of one reflectivity through in
blocks of at most 64 rows.  The block size bounds the sweep's memory; its
time still grows with the number of points and their dimensions.

The diagonal coefficients are formed in log space from a table of log k!
values, built once per propagation with `math.lgamma` up to the widest
step, so the simulator needs numpy and the standard library only.

Every outcome pattern with readings 0 or 1 is enumerated; patterns where
some detector sees more than one photon are aggregated into a single
remainder probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _check_reflectivity(r: float) -> None:
    if not 0.0 <= r < 1.0:
        raise ValueError(f"reflectivity must be in [0, 1), got {r}")


def _effective_dim(alpha_abs: float, dim: int | None) -> int:
    if dim is not None:
        return dim
    # floor of 30 keeps every reported table number stable under doubling;
    # sized for 2*alpha so the ideal-amplification comparison state fits
    return max(30, fock.default_dim(2.0 * alpha_abs))


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
        return _effective_dim(abs(self.alpha), self.dim)


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


_METRICS = ("mean_a_abs", "g_eff", "fidelity_eff", "fidelity_energy", "fidelity_ideal")


def _branch_metrics(alphas: np.ndarray, block: np.ndarray, out_dims: np.ndarray) -> dict:
    """Probability, normalized output and metrics of every row of a branch block.

    Row b of `block` is the unnormalized output for input amplitude
    alphas[b], zero above out_dims[b] levels.  Every field is an array over
    the rows.  Rows below probability 1e-300 get probability 0 and NaN
    metrics, and rows with alpha = 0 NaN gain and fidelities.
    """
    probability = np.vecdot(block, block).real
    defined = probability >= 1e-300
    probability[~defined] = 0.0
    output = block / np.sqrt(np.where(defined, probability, 1.0))[:, None]
    levels = np.arange(output.shape[-1])
    mean_a_abs = np.abs(np.vecdot(output[:, :-1], np.sqrt(levels[1:]) * output[:, 1:]))
    metrics = np.full((len(_METRICS), alphas.size), np.nan)
    metrics[0, defined] = mean_a_abs[defined]

    rows = np.flatnonzero(defined & (alphas != 0))
    alpha, psi = alphas[rows], output[rows]
    alpha_abs = np.abs(alpha)
    g_eff = mean_a_abs[rows] / alpha_abs
    mean_n = np.vecdot(psi, levels * psi).real
    # real and imaginary parts apart: numpy's complex division overflows
    # for subnormal |alpha|
    phase = alpha.real / alpha_abs + 1j * (alpha.imag / alpha_abs)
    # the comparison coherent states need room for their own amplitude; the
    # three of every row are built as one block
    target_dims = [max(d, fock.default_dim(2.0 * a)) for d, a in zip(out_dims[rows], alpha_abs)]
    betas = np.stack([g_eff * alpha, np.sqrt(mean_n) * phase, 2.0 * alpha])
    targets = fock.coherent_block(betas, target_dims)
    width = min(targets.shape[-1], psi.shape[-1])
    overlaps = np.vecdot(targets[..., :width], psi[:, :width])
    metrics[1, rows] = g_eff
    metrics[2:, rows] = overlaps.real**2 + overlaps.imag**2
    return {
        "probability": probability,
        "output": output,
        "defined": defined,
        **dict(zip(_METRICS, metrics)),
    }


def _branch_results(cfg: SchemeConfig, outcomes, block: np.ndarray) -> list[BranchResult]:
    """BranchResult for each row of a branch block, all rows from `cfg`'s input."""
    out_dims = np.array([cfg.effective_dim + outcome[0] for outcome in outcomes])
    alphas = np.full(len(outcomes), complex(cfg.alpha))
    m = _branch_metrics(alphas, block, out_dims)
    # rows below the probability floor carry probability 0 and NaN metrics
    return [
        BranchResult(
            outcome=outcome,
            probability=detector_adjusted(float(m["probability"][b]), *cfg.etas),
            output=FockState(m["output"][b, : out_dims[b]]) if m["defined"][b] else None,
            **{name: float(m[name][b]) for name in _METRICS},
        )
        for b, outcome in enumerate(outcomes)
    ]


def _propagate(amps: np.ndarray, rs, outcomes) -> list[np.ndarray]:
    """The three Kraus steps of each detection pattern on a block of input states.

    Returns one output block per pattern in `outcomes`; patterns that begin
    with the same readings share the steps for those readings.
    """
    # the widest step has the input's levels plus the largest QND reading,
    # and no count exceeds the largest reading
    top = max(max(outcome) for outcome in outcomes)
    log_factorial = _log_factorials(amps.shape[-1] + top + 1)
    states = {(): amps}
    for stage in range(3):
        prefixes = dict.fromkeys(outcome[: stage + 1] for outcome in outcomes)
        # the photons counted nondestructively are added back at splitter 2
        states = {
            p: _kraus(states[p[:-1]], rs[stage], p[-1], p[0] if stage == 1 else 0, log_factorial)
            for p in prefixes
        }
    return [states[outcome] for outcome in outcomes]


def run_branch(cfg: SchemeConfig, outcome: tuple[int, int, int]) -> BranchResult:
    """Evaluate one detection pattern end to end.

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
    psi = fock.coherent_block([cfg.alpha], cfg.effective_dim)
    [block] = _propagate(psi, (cfg.r1, cfg.r2, cfg.r3), [outcome])
    return _branch_results(cfg, [outcome], block)[0]


def enumerate_single_photon_branches(
    cfg: SchemeConfig,
) -> tuple[list[BranchResult], float]:
    """All eight 0/1 detection patterns plus the aggregated remainder.

    The input state is built once and each stage prefix once (2, then 4,
    then 8 states), and the eight outputs' metrics are computed as one
    block.  The remainder is the probability that some detector saw more
    than one photon; with ideal detectors the eight branches and the
    remainder sum to one.
    """
    dim = cfg.effective_dim
    psi = fock.coherent_block([cfg.alpha], dim)
    block = np.zeros((len(BRANCH_ORDER), dim + 1), dtype=complex)
    for row, out in zip(block, _propagate(psi, (cfg.r1, cfg.r2, cfg.r3), BRANCH_ORDER)):
        row[: out.shape[-1]] = out[0]
    branches = _branch_results(cfg, BRANCH_ORDER, block)
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


# Rows propagated together in gain_fidelity_sweep: peak memory is about
# _SWEEP_BLOCK * dim * 16 bytes per temporary array, whatever the sweep size.
_SWEEP_BLOCK = 64


def gain_fidelity_sweep(
    alpha_values, r_values, dim: int | None = None
) -> list[SweepRow]:
    """Success-branch gain, fidelities and probability over an (alpha, r) grid.

    Rows run over r outer, |alpha| inner, and equal `run_branch` on
    `SchemeConfig.symmetric(alpha, r, dim=dim)` point by point up to
    rounding.  The magnitudes go through the Kraus steps in blocks of up to
    _SWEEP_BLOCK rows, each row zero-padded to the widest in its block, so
    each step is a few vectorized passes per block and memory stays bounded
    whatever the sweep size.  Each input block is built once and shared by
    every r.
    """
    alphas = np.asarray(alpha_values)
    if np.iscomplexobj(alphas):
        raise ValueError("|alpha| values must be real magnitudes")
    alphas = alphas.astype(float)
    bad = alphas[~(np.isfinite(alphas) & (alphas >= 0))]
    if bad.size:
        raise ValueError(f"|alpha| values must be finite and non-negative, got {bad[0]}")
    r_values = [float(r) for r in r_values]
    for r in r_values:
        _check_reflectivity(r)
    if dim is not None and dim < 2:
        raise ValueError("dim must be at least 2")
    dims = np.array([_effective_dim(a, dim) for a in alphas], dtype=int)
    columns = [[] for _ in r_values]
    for start in range(0, alphas.size, _SWEEP_BLOCK):
        chunk = slice(start, start + _SWEEP_BLOCK)
        chunk_alphas = alphas[chunk].astype(complex)
        psi = fock.coherent_block(chunk_alphas, dims[chunk])
        for column, r in zip(columns, r_values):
            [block] = _propagate(psi, (r, r, r), [SUCCESS_OUTCOME])
            m = _branch_metrics(chunk_alphas, block, dims[chunk] + SUCCESS_OUTCOME[0])
            column.extend(
                SweepRow(alpha_abs, r, g_eff, f_eff, f_ideal, p_succ)
                for alpha_abs, g_eff, f_eff, f_ideal, p_succ in zip(
                    alphas[chunk].tolist(),
                    m["g_eff"].tolist(),
                    m["fidelity_eff"].tolist(),
                    m["fidelity_ideal"].tolist(),
                    m["probability"].tolist(),
                )
            )
    return [row for column in columns for row in column]


def operator_oracle(cfg: SchemeConfig) -> FockState:
    """Normalized a a† a |alpha⟩, the small-reflectivity limit of the success branch."""
    state = coherent_state(cfg.alpha, cfg.effective_dim)
    out = fock.annihilate(fock.create(fock.annihilate(state)))
    if fock.norm(out) < 1e-150:
        raise ZeroNormError("ladder sequence annihilates the input state")
    return fock.normalized(out)
