"""Truncated single-mode Fock-space states and ladder operators.

States are plain complex amplitude vectors indexed by photon number.
Conditioning operations elsewhere in the package rely on unnormalized
intermediate states, so the ladder operators here do not renormalize;
squared norms carry the probability bookkeeping.

Coherent states are built as blocks (`coherent_block`), one state per row,
each by a cumulative product, truncated, renormalized and tail-checked on
its own; `coherent_state` is the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TruncationError, ZeroNormError

TAIL_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FockState:
    """Single-mode state as complex amplitudes over photon numbers 0..dim-1."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amps must be a non-empty 1-d complex vector")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size


@dataclass(frozen=True)
class StateMetrics:
    """Field amplitude ⟨a⟩, mean photon number ⟨n⟩ and norm of a state."""

    mean_a: complex
    mean_n: float
    norm: float


def default_dim(alpha: complex) -> int:
    """Truncation dimension keeping the coherent tail below ~1e-14 for |alpha|<=2."""
    a = abs(alpha)
    return max(20, math.ceil(a * a + 8.0 * a + 12.0))


def coherent_block(alphas, dims) -> np.ndarray:
    """Coherent states |alpha⟩ for every entry of `alphas`, along a new last axis.

    `dims` broadcasts against `alphas` and gives each state's truncation;
    the result has shape alphas.shape + (max(dims),).  Amplitudes follow
    c_n = c_{n-1} alpha / sqrt(n) from c_0 = e^{-|alpha|²/2}, one cumulative
    product per row, so every c_n stays finite and carries its phase.  Each
    state is zero above its own dimension and renormalized over its own
    levels.  If the discarded tail mass of any state exceeds TAIL_TOLERANCE,
    a TruncationError names the largest.
    """
    alphas = np.asarray(alphas, dtype=complex)
    dims = np.asarray(dims)
    if dims.min(initial=1) < 1:
        raise ValueError("dim must be >= 1")
    n = np.arange(dims.max(initial=1))
    factors = alphas[..., None] / np.sqrt(np.maximum(n, 1))
    factors[..., 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    amps = np.cumprod(factors, axis=-1)
    amps *= n < dims[..., None]
    mass = np.vecdot(amps, amps).real
    tail = 1.0 - mass
    if tail.max(initial=0.0) > TAIL_TOLERANCE:
        worst = np.unravel_index(np.argmax(tail), tail.shape)
        raise TruncationError(
            f"coherent tail mass {tail[worst]:.3e} above {TAIL_TOLERANCE:.0e} "
            f"at dim={np.broadcast_to(dims, tail.shape)[worst]}"
        )
    return amps / np.sqrt(mass)[..., None]


def coherent_state(alpha: complex, dim: int) -> FockState:
    """Coherent state |alpha⟩ truncated to `dim` levels and renormalized.

    The one-row case of `coherent_block`: raises TruncationError if the
    discarded tail mass exceeds TAIL_TOLERANCE.
    """
    return FockState(coherent_block(alpha, dim))


def fock_state(n: int, dim: int) -> FockState:
    """Photon-number eigenstate |n⟩ in a `dim`-level space."""
    if not 0 <= n < dim:
        raise IndexError(f"photon number {n} outside truncated space of dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockState(amps)


def annihilate(state: FockState) -> FockState:
    """Apply a.  Output is unnormalized: out[n] = sqrt(n+1) * in[n+1]."""
    n = np.arange(1, state.dim)
    out = np.zeros(state.dim, dtype=complex)
    out[:-1] = np.sqrt(n) * state.amps[1:]
    return FockState(out)


def create(state: FockState) -> FockState:
    """Apply a†.  Output is unnormalized: out[n+1] = sqrt(n+1) * in[n].

    Raises TruncationError if the top amplitude would be pushed off the
    truncated space.
    """
    if abs(state.amps[-1]) > 1e-10:
        raise TruncationError(
            f"top amplitude {abs(state.amps[-1]):.3e} would be lost by a†"
        )
    out = np.zeros(state.dim, dtype=complex)
    n = np.arange(1, state.dim)
    out[1:] = np.sqrt(n) * state.amps[:-1]
    return FockState(out)


def inner_product(a: FockState, b: FockState) -> complex:
    """⟨a|b⟩ = sum_n conj(a_n) b_n.  Dimensions must agree."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


def norm(state: FockState) -> float:
    return float(np.linalg.norm(state.amps))


def normalized(state: FockState) -> FockState:
    n = norm(state)
    if n < 1e-150:
        raise ZeroNormError("cannot normalize a zero-norm state")
    return FockState(state.amps / n)


def pad(state: FockState, dim: int) -> FockState:
    """Embed a state into a larger truncated space (amplitudes above are zero)."""
    if dim < state.dim:
        raise ValueError("pad target must not be smaller than the state dim")
    amps = np.zeros(dim, dtype=complex)
    amps[: state.dim] = state.amps
    return FockState(amps)


def metrics(state: FockState) -> StateMetrics:
    """⟨a⟩, ⟨n⟩ and norm of a (possibly unnormalized) state."""
    nrm2 = float(np.sum(np.abs(state.amps) ** 2))
    if nrm2 < 1e-300:
        raise ZeroNormError("metrics undefined for zero-norm state")
    lowered = annihilate(state)
    mean_a = complex(np.vdot(state.amps, lowered.amps)) / nrm2
    n = np.arange(state.dim)
    mean_n = float(np.sum(n * np.abs(state.amps) ** 2)) / nrm2
    return StateMetrics(mean_a=mean_a, mean_n=mean_n, norm=math.sqrt(nrm2))
