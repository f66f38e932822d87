"""Closed forms for the success branch of the three-splitter amplifier.

With a coherent input the heralded (1, 0, 1) output is proportional to
(1 + gamma a†)|gamma⟩, gamma = T alpha: splitter 1's K₀(1) leaves
|t1 alpha⟩, splitter 2 adds the counted photon back as a†, and splitter 3
applies t3^n̂ a, where a a†|c⟩ = (1 + c a†)|c⟩.  This photon-added coherent
state (Agarwal & Tara, PRA 43, 492 (1991)) makes the probability, gain and
fidelity (`f_eff_conjectured`) below exact, with no Fock truncation.

They are the product route for success-branch figures: the (alpha, r)
sweep and the optimizer evaluate them.  The Fock simulator in the scheme
module is the referee the tests hold them to, so this module imports
nothing from it.

All expressions depend on the splitter reflectivities only through the
products T = t1 t2 t3 and R = r1 r2 r3, and on the input only through
|alpha|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SplitterTriple:
    """Reflectivities of the three beam splitters, with derived products."""

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        for r in (self.r1, self.r2, self.r3):
            if not 0.0 <= r < 1.0:
                raise ValueError(f"reflectivity must be in [0, 1), got {r}")

    @classmethod
    def symmetric(cls, r: float) -> "SplitterTriple":
        return cls(r, r, r)

    @property
    def t1(self) -> float:
        return math.sqrt(1.0 - self.r1 * self.r1)

    @property
    def t2(self) -> float:
        return math.sqrt(1.0 - self.r2 * self.r2)

    @property
    def t3(self) -> float:
        return math.sqrt(1.0 - self.r3 * self.r3)

    @property
    def transmission_product(self) -> float:
        return self.t1 * self.t2 * self.t3

    @property
    def reflection_product(self) -> float:
        return self.r1 * self.r2 * self.r3

    @property
    def intensity_loss(self) -> float:
        """1 - T^2, from log1p and expm1, so small reflectivities keep their digits."""
        return -math.expm1(sum(math.log1p(-r * r) for r in (self.r1, self.r2, self.r3)))


def p_succ_products(
    alpha_abs: float, t_product: float, r_product: float, intensity_loss: float
) -> float:
    """Success probability from the splitter products T, R and 1 - T^2 directly.

    The Gaussian factor e^(-(1 - T^2)|alpha|^2) takes 1 - T^2 as given
    (`SplitterTriple.intensity_loss`), not from the rounded T: at r = 1e-9
    every t rounds to 1, yet 1 - T^2 is 3e-18.  Squares are products, not
    powers, so no |alpha| raises OverflowError.  Where the Gaussian factor
    underflows, or its exponent is 0 * inf, the result is 0, whatever the
    polynomial in front.  Otherwise 1 - T^2 >= max r_i^2 bounds R |alpha|^3
    by 745^(3/2), so the polynomial, expanded into the squares below, does
    not overflow even where |T alpha|^4 does.
    """
    ta, ra = t_product * alpha_abs, r_product * alpha_abs
    decay = math.exp(-intensity_loss * (alpha_abs * alpha_abs))
    if not decay > 0.0:
        return 0.0
    tra = ta * ra
    tara = ta * tra
    return (ra * ra + 3.0 * (tra * tra) + tara * tara) * decay


def g_eff_products(alpha_abs: float, t_product: float) -> float:
    """Effective gain from the transmission product T directly.

    Where |T alpha|^4 overflows, the gain is T to rounding.
    """
    ta = t_product * alpha_abs
    ta2 = ta * ta
    ta4 = ta2 * ta2
    if ta4 == math.inf:
        return t_product
    return t_product * (2.0 + 4.0 * ta2 + ta4) / (1.0 + 3.0 * ta2 + ta4)


def f_eff_products(alpha_abs: float, t_product: float, g_eff: float) -> float:
    """Success-branch fidelity with |g alpha⟩ from the transmission product T directly.

    The form and its cap at 1 are `f_eff_conjectured`'s.
    """
    a2 = alpha_abs * alpha_abs
    ta2 = t_product * t_product * a2
    numerator = (
        1.0 + 2.0 * g_eff * t_product * a2 + g_eff * g_eff * t_product * t_product * a2 * a2
    ) * math.exp(-((g_eff - t_product) ** 2) * a2)
    f = numerator / (1.0 + 3.0 * ta2 + ta2 * ta2)
    return 1.0 if f > 1.0 else f


def p_succ_closed(alpha_abs: float, s: SplitterTriple) -> float:
    """Success probability of the heralded subtract-add-subtract sequence.

    (1 + |T a|^2 (3 + |T a|^2)) |R a|^2 exp(-(1 - T^2)|a|^2) with a = |alpha|.
    """
    if not alpha_abs >= 0:
        raise ValueError("alpha_abs must be non-negative")
    return p_succ_products(
        alpha_abs, s.transmission_product, s.reflection_product, s.intensity_loss
    )


def g_eff_closed(alpha_abs: float, s: SplitterTriple) -> float:
    """Effective amplitude gain |⟨a⟩_out| / |⟨a⟩_in| of the success branch.

    T (2 + 4|T a|^2 + |T a|^4) / (1 + 3|T a|^2 + |T a|^4); tends to 2T as
    alpha -> 0 (nominal gain 2 for lossless splitters).
    """
    if not alpha_abs >= 0:
        raise ValueError("alpha_abs must be non-negative")
    return g_eff_products(alpha_abs, s.transmission_product)


def f_eff_closed(alpha_abs: float, s: SplitterTriple, g_eff: float) -> float:
    """Effective fidelity against |g_eff alpha⟩, evaluated exactly as printed.

    Numerator (1 + 2 g T |a|^2 + g^2 T^2 |a|^4) exp(-(g^2 - T)^2 |a|^2),
    denominator 1 + 3 |T a|^2 + |T a|^4.  The printed exponent squares g and
    disagrees with the state overlap; `f_eff_conjectured` is the exact form.
    """
    if not alpha_abs >= 0:
        raise ValueError("alpha_abs must be non-negative")
    if g_eff <= 0:
        raise ValueError("g_eff must be positive")
    big_t = s.transmission_product
    a2 = alpha_abs * alpha_abs
    ta2 = big_t * big_t * a2
    numerator = (
        1.0 + 2.0 * g_eff * big_t * a2 + g_eff * g_eff * big_t * big_t * a2 * a2
    ) * math.exp(-((g_eff * g_eff - big_t) ** 2) * a2)
    denominator = 1.0 + 3.0 * ta2 + ta2 * ta2
    return numerator / denominator


def f_eff_conjectured(alpha_abs: float, s: SplitterTriple, g_eff: float) -> float:
    """Success-branch fidelity with |g alpha⟩, the exponent read as (g - T)^2 |a|^2.

    The printed exponent has g^2 in place of g; this form is exact, not a
    conjecture.  The output is (1 + gamma a†)|gamma⟩ / N, gamma = T alpha,
    N^2 = 1 + 3|gamma|^2 + |gamma|^4, and ⟨beta|(1 + gamma a†)|gamma⟩ =
    (1 + gamma beta*) ⟨beta|gamma⟩ with |⟨beta|gamma⟩|^2 =
    e^(-|beta - gamma|^2).  For beta = g alpha, in phase with gamma,
    F = (1 + g T |a|^2)^2 e^(-(g - T)^2 |a|^2) / N^2: F_eff at g = g_eff,
    and the fidelity with the ideal output |2 alpha⟩ at g = 2.  F is the
    squared overlap of two unit vectors, at most 1 by Cauchy-Schwarz; where
    F is 1 to rounding, as at |a| = 1e7, r = 1e-9, the quotient can come out
    an ulp above it, so the result is capped at 1, and no value below 1 moves.
    """
    if not alpha_abs >= 0:
        raise ValueError("alpha_abs must be non-negative")
    return f_eff_products(alpha_abs, s.transmission_product, g_eff)


def detector_adjusted(p: float, eta_qnd: float, eta_pd1: float, eta_pd2: float) -> float:
    """Scale an ideal branch probability by the three detector efficiencies."""
    for eta in (eta_qnd, eta_pd1, eta_pd2):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"detector efficiency must be in [0, 1], got {eta}")
    return p * eta_qnd * eta_pd1 * eta_pd2
