"""Independent references the benchmark checks the program against.

Nothing here imports `nlamp`.  The closed forms are the paper's expressions
for the heralded success branch, written out again with numpy so that they
vectorize over many inputs; the number-basis quantities are computed from
a state's amplitude vector directly.
"""

from __future__ import annotations

import math

import numpy as np


def splitter_products(r1, r2, r3):
    """Transmission product T = t1 t2 t3 and reflection product R = r1 r2 r3."""
    r1, r2, r3 = (np.asarray(r, dtype=float) for r in (r1, r2, r3))
    t = np.sqrt((1.0 - r1 * r1) * (1.0 - r2 * r2) * (1.0 - r3 * r3))
    return t, r1 * r2 * r3


def p_succ(alpha_abs, t, r):
    """(1 + |Ta|^2 (3 + |Ta|^2)) |Ra|^2 exp(|Ta|^2 - |a|^2)."""
    ta2 = (t * alpha_abs) ** 2
    ra2 = (r * alpha_abs) ** 2
    return (1.0 + ta2 * (3.0 + ta2)) * ra2 * np.exp(ta2 - alpha_abs * alpha_abs)


def g_eff(alpha_abs, t):
    """T (2 + 4|Ta|^2 + |Ta|^4) / (1 + 3|Ta|^2 + |Ta|^4)."""
    ta2 = (t * alpha_abs) ** 2
    return t * (2.0 + 4.0 * ta2 + ta2 * ta2) / (1.0 + 3.0 * ta2 + ta2 * ta2)


def f_eff(alpha_abs, t, g):
    """Overlap with |g alpha⟩, exponent (g - T)^2 |a|^2 (agrees with the state overlap)."""
    a2 = alpha_abs * alpha_abs
    ta2 = t * t * a2
    numerator = (1.0 + 2.0 * g * t * a2 + g * g * t * t * a2 * a2) * np.exp(
        -((g - t) ** 2) * a2
    )
    return numerator / (1.0 + 3.0 * ta2 + ta2 * ta2)


def success_branch(alpha_abs, r1, r2, r3):
    """(P, g_eff, F_eff) of the success branch, elementwise over the inputs."""
    t, r = splitter_products(r1, r2, r3)
    g = g_eff(alpha_abs, t)
    return p_succ(alpha_abs, t, r), g, f_eff(alpha_abs, t, g)


def best_symmetric_grid(thresholds, n_alpha=1500, n_r=1500,
                        alpha_bounds=(1e-3, 2.0), r_bounds=(1e-6, 0.9)):
    """Largest closed-form P with g_eff > g0 on a dense symmetric (|alpha|, r) grid.

    Returns one value per threshold.  The grid is walked one r at a time so
    memory stays at a few rows.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    alphas = np.linspace(*alpha_bounds, n_alpha)
    best = np.zeros(thresholds.size)
    for r in np.linspace(*r_bounds, n_r):
        t, big_r = splitter_products(r, r, r)
        p = p_succ(alphas, t, big_r)
        g = g_eff(alphas, t)
        for k, g0 in enumerate(thresholds):
            feasible = p[g > g0]
            if feasible.size:
                best[k] = max(best[k], float(feasible.max()))
    return best


def coherent_amplitudes(beta: complex, dim: int) -> np.ndarray:
    """Exact e^{-|beta|^2/2} beta^n / sqrt(n!) for n < dim (not renormalized)."""
    amps = np.empty(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * beta / math.sqrt(n)
    return amps


def mean_a(amps: np.ndarray) -> complex:
    """⟨a⟩ = sum_n conj(c_n) sqrt(n+1) c_{n+1} of a normalized state."""
    n = np.arange(1, amps.size)
    return complex(np.vdot(amps[:-1], np.sqrt(n) * amps[1:]))


def parity(amps: np.ndarray) -> float:
    """⟨(-1)^n⟩, which equals pi W(0, 0)."""
    signs = (-1.0) ** np.arange(amps.size)
    return float(np.sum(signs * np.abs(amps) ** 2))


def coherent_fidelity(amps: np.ndarray, beta: complex) -> float:
    """|⟨beta|psi⟩|^2 with the exact coherent amplitudes."""
    return abs(np.vdot(coherent_amplitudes(beta, amps.size), amps)) ** 2
