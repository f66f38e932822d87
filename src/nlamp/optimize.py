"""Gain-constrained maximization of the success probability.

Maximizes the closed-form success probability P over (|alpha|, r1, r2, r3)
subject to the effective gain g staying at or above a threshold g0.  The
four-dimensional problem reduces exactly to one dimension:

* P and g depend on the reflectivities only through T = t1 t2 t3 and
  R = r1 r2 r3, and P grows with R.  Since log r^2 is a concave function of
  log(1 - r^2), Jensen's inequality makes R largest at fixed T when
  r1 = r2 = r3 = r, that is T = (1 - r^2)^(3/2) and R = r^3.
* At fixed T, g decreases in |alpha| and increases in T.  The constraint is
  therefore an upper bound |alpha| <= g^-1(g0; T), and the feasible shared
  reflectivities form one interval that ends where g(alpha_lo; T) = g0.
* At fixed T, P is unimodal in |alpha|: with x = T^2 |alpha|^2 and
  k = (1 - T^2) / T^2 its stationarity condition is the cubic
  k x^3 + 3(k - 1) x^2 + (k - 6) x - 1 = 0, which has exactly one positive
  root by Descartes' rule of signs.  Eliminating T with that condition gives
  1 - g^2 = (1 + 6x + 12x^2 + 6x^3 + x^4) / (D (x D + 1 + 6x + 3x^2)) > 0,
  D = 1 + 3x + x^2, so the gain at the peak is always below 1.  For every
  admissible threshold g0 > 1 the constraint thus binds before the peak,
  P increases over the feasible amplitudes, and the best feasible amplitude
  is alpha*(r) = min(g^-1(g0; T), alpha_hi), a root of a quadratic in x.

What remains, maximizing P(alpha*(r), r) over the feasible reflectivities,
is solved by a fixed coarse scan followed by a bounded Brent search between
the neighbours of the best scan point.  Every step is deterministic.

scipy.optimize is imported inside the two functions that call it, not at
the top of this module: the import takes about 0.6 s, and the package and
every other subcommand load this module without needing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import (
    SplitterTriple,
    g_eff_closed,
    g_eff_products,
    p_succ_products,
)
from .errors import InfeasibleError
from .scheme import SUCCESS_OUTCOME, SchemeConfig, run_branch

SCAN_POINTS = 65


@dataclass(frozen=True)
class OptProblem:
    """Constraint threshold and box bounds of the search."""

    g_eff0: float
    alpha_bounds: tuple[float, float] = (1e-3, 2.0)
    r_bounds: tuple[float, float] = (1e-6, 0.9)

    def __post_init__(self):
        if not 1.0 < self.g_eff0 < 2.0:
            raise ValueError("meaningful thresholds satisfy 1 < g_eff0 < 2")


@dataclass(frozen=True)
class OptResult:
    """Best point found and its metrics.

    `iterations` counts the closed-form evaluations of P and g spent on
    the search.
    """

    p_opt: float
    alpha_opt: float
    r_opt: tuple[float, float, float]
    f_opt: float
    g_eff0: float
    converged: bool
    iterations: int

    @property
    def constraint_slack(self) -> float:
        s = SplitterTriple(*self.r_opt)
        return g_eff_closed(self.alpha_opt, s) - self.g_eff0


def _transmission(r: float) -> float:
    # same operations as SplitterTriple.transmission_product, so the slack
    # seen here is bit-identical to OptResult.constraint_slack
    t = math.sqrt(1.0 - r * r)
    return t * t * t


class _Reduced:
    """The problem on the line r1 = r2 = r3 = r with |alpha| eliminated."""

    def __init__(self, problem: OptProblem):
        self.g0 = problem.g_eff0
        self.alpha_lo, self.alpha_hi = problem.alpha_bounds
        self.evals = 0

    def slack(self, alpha: float, t: float) -> float:
        self.evals += 1
        return g_eff_products(alpha, t) - self.g0

    def r_top(self, r_lo: float, r_hi: float) -> float:
        """Largest feasible shared reflectivity in [r_lo, r_hi]."""
        def edge(r):
            return self.slack(self.alpha_lo, _transmission(r))

        if edge(r_lo) < 0.0:
            raise InfeasibleError(f"no feasible point for g_eff0={self.g0}")
        if edge(r_hi) >= 0.0:
            return r_hi
        # imported here, as in maximize: scipy.optimize takes about 0.6 s to
        # import and no other subcommand needs it
        from scipy.optimize import brentq

        return brentq(edge, r_lo, r_hi)

    def alpha_star(self, r: float) -> float | None:
        """Best feasible |alpha| at shared reflectivity r; None if r is infeasible."""
        t = _transmission(r)
        lo, hi = self.alpha_lo, self.alpha_hi
        if self.slack(lo, t) < 0.0:
            return None
        if self.slack(hi, t) >= 0.0:
            return hi
        # g = g0 is a x^2 + b x + c = 0 in x = (T alpha)^2 with a > 0 > c; its
        # one positive root, in the form that does not cancel
        a, b, c = self.g0 - t, 3.0 * self.g0 - 4.0 * t, self.g0 - 2.0 * t
        root_d = math.sqrt(b * b - 4.0 * a * c)
        x = -2.0 * c / (b + root_d) if b >= 0.0 else (root_d - b) / (2.0 * a)
        alpha = min(max(math.sqrt(x) / t, lo), hi)
        # step back onto the feasible side of the computed root
        step = math.ulp(alpha)
        while alpha > lo and self.slack(alpha, t) < 0.0:
            alpha, step = max(alpha - step, lo), 2.0 * step
        return alpha

    def p(self, r: float) -> float:
        alpha = self.alpha_star(r)
        if alpha is None:
            return 0.0
        self.evals += 1
        return p_succ_products(alpha, _transmission(r), r * r * r)


def maximize(problem: OptProblem) -> OptResult:
    """Solve the constrained problem exactly on the symmetric line.

    Raises InfeasibleError when no point of the box satisfies the gain
    constraint.
    """
    from scipy.optimize import minimize_scalar

    reduced = _Reduced(problem)
    r_lo, r_hi = problem.r_bounds
    scan = np.linspace(r_lo, reduced.r_top(r_lo, r_hi), SCAN_POINTS)
    values = [reduced.p(float(r)) for r in scan]
    k = int(np.argmax(values))
    refined = minimize_scalar(
        lambda r: -reduced.p(r),
        bounds=(scan[max(k - 1, 0)], scan[min(k + 1, SCAN_POINTS - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    # scan[0] is feasible and a refined point wins only with P > 0, so
    # alpha_star(r_opt) below is never None
    r_opt, p_opt = float(scan[k]), values[k]
    if -refined.fun > p_opt:
        r_opt, p_opt = float(refined.x), -float(refined.fun)
    alpha_opt = float(reduced.alpha_star(r_opt))

    slack = reduced.slack(alpha_opt, _transmission(r_opt))
    cfg = SchemeConfig.symmetric(complex(alpha_opt), r_opt)
    return OptResult(
        p_opt=p_opt,
        alpha_opt=alpha_opt,
        r_opt=(r_opt, r_opt, r_opt),
        f_opt=run_branch(cfg, SUCCESS_OUTCOME).fidelity_eff,
        g_eff0=problem.g_eff0,
        converged=bool(refined.success) and slack >= -1e-8 and p_opt > 0,
        iterations=reduced.evals,
    )


def sweep(g_eff0_values):
    """Solve for each threshold.

    Returns a list of (g_eff0, OptResult | None); infeasible points carry
    None and do not abort the sweep.
    """
    results = []
    for g0 in g_eff0_values:
        try:
            results.append((float(g0), maximize(OptProblem(g_eff0=float(g0)))))
        except InfeasibleError:
            results.append((float(g0), None))
    return results


def verify_symmetry(result: OptResult) -> float:
    """Largest pairwise spread among the three optimal reflectivities."""
    r = result.r_opt
    return max(abs(r[0] - r[1]), abs(r[0] - r[2]), abs(r[1] - r[2]))
