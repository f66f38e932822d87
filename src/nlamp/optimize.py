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
is one root.  On the bound, x = (T alpha)^2 is a function of T alone, so

    log P = 6 log r + log x - 2 log T + log(1 + 3x + x^2) - (1 - T^2) x / T^2

with dx/dT = (x^2 + 4x + 2) / (2(g0 - T)x + 3g0 - 4T), or 2T alpha_hi^2
where alpha* is clamped to alpha_hi, and dT/dr = -3r sqrt(1 - r^2).  This
d log P/dr is positive at small r, where P grows as r^6, negative where
the feasible interval ends at alpha_lo, and changes sign once in between.
Its root, found to a relative tolerance of 4 machine epsilons, is the
optimum.  Where alpha*(r) meets alpha_hi the derivative jumps, and a root
inside the jump is that kink, where alpha_opt is alpha_hi.  Every step is
deterministic.  The reported fidelity f_opt is the closed form as well, so
no state is propagated.

The root finder is a math-only port of Brent's (R. P. Brent, Algorithms
for Minimization without Derivatives, 1973) as scipy.optimize implements
it in `brentq`: the same floating-point operations in the same order, so
its roots equal scipy's bit for bit, while the module needs nothing beyond
the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_forms import (
    SplitterTriple,
    f_eff_products,
    g_eff_closed,
    g_eff_products,
    p_succ_products,
)
from .errors import InfeasibleError

# scipy.optimize.brentq's defaults, rtol being 4 machine epsilons
ROOT_XTOL, ROOT_RTOL, ROOT_MAXITER = 2e-12, 4.0 * math.ulp(1.0), 100


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

    `iterations` counts the closed-form evaluations of g and of
    d log P/dr spent on the search.
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


def _brentq(f, xa: float, xb: float, xtol: float = ROOT_XTOL) -> float:
    """Root of f in [xa, xb], where f(xa) and f(xb) differ in sign.

    scipy.optimize.brentq (its C routine) with xtol and rtol=ROOT_RTOL;
    raises RuntimeError after ROOT_MAXITER iterations, as scipy does.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    for _ in range(ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate; |fcur| < |fpre| keeps the divisor nonzero
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where C divides by zero its infinite step is
                # rejected below, as math.inf is
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {ROOT_MAXITER} iterations.")


def _step_back(x: float, lo: float, infeasible) -> float:
    """x, or the nearest point below it, down to lo, where infeasible is False.

    Steps back onto the feasible side of a computed root in doubling steps.
    """
    step = math.ulp(x)
    while x > lo and infeasible(x):
        x, step = max(x - step, lo), 2.0 * step
    return x


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
        return _step_back(_brentq(edge, r_lo, r_hi), r_lo, lambda r: edge(r) < 0.0)

    def bound_x(self, t: float) -> float:
        """x = (T alpha)^2 where g(alpha; T) = g0."""
        # g = g0 is a x^2 + b x + c = 0 with a > 0 > c; its one positive
        # root, in the form that does not cancel
        a, b, c = self.g0 - t, 3.0 * self.g0 - 4.0 * t, self.g0 - 2.0 * t
        root_d = math.sqrt(b * b - 4.0 * a * c)
        return -2.0 * c / (b + root_d) if b >= 0.0 else (root_d - b) / (2.0 * a)

    def alpha_star(self, r: float) -> float | None:
        """Best feasible |alpha| at shared reflectivity r; None if r is infeasible."""
        t = _transmission(r)
        lo, hi = self.alpha_lo, self.alpha_hi
        if self.slack(lo, t) < 0.0:
            return None
        if self.slack(hi, t) >= 0.0:
            return hi
        alpha = min(max(math.sqrt(self.bound_x(t)) / t, lo), hi)
        return _step_back(alpha, lo, lambda a: self.slack(a, t) < 0.0)

    def slope(self, r: float) -> float:
        """d log P/dr along alpha = alpha*(r), at a feasible r > 0.

        With x = (T alpha)^2, log P = 6 log r + log x - 2 log T
        + log(1 + 3x + x^2) - (1 - T^2) x / T^2, dT/dr = -3 r sqrt(1 - r^2),
        and x(T) is the bound's root or, where that passes alpha_hi,
        (T alpha_hi)^2.
        """
        if r == 0.0:
            # P grows as r^6
            return math.inf
        self.evals += 1
        t = _transmission(r)
        g0, hi = self.g0, self.alpha_hi
        x, x_hi = self.bound_x(t), (t * hi) * (t * hi)
        if x < x_hi:
            dx_dt = (x * x + 4.0 * x + 2.0) / (2.0 * (g0 - t) * x + 3.0 * g0 - 4.0 * t)
        else:
            x, dx_dt = x_hi, 2.0 * t * (hi * hi)
        if not x > 0.0:
            # the bound meets alpha = 0, where P vanishes
            return -math.inf
        t2 = t * t
        loss = -math.expm1(3.0 * math.log1p(-r * r))
        dlogp_dt = dx_dt * (1.0 / x + (3.0 + 2.0 * x) / (1.0 + 3.0 * x + x * x) - loss / t2)
        dlogp_dt -= 2.0 * (1.0 - x / t2) / t
        return 6.0 / r - 3.0 * r * math.sqrt(1.0 - r * r) * dlogp_dt


def maximize(problem: OptProblem) -> OptResult:
    """Solve the constrained problem exactly on the symmetric line.

    Raises InfeasibleError when no point of the box satisfies the gain
    constraint.
    """
    reduced = _Reduced(problem)
    r_lo, r_hi = problem.r_bounds
    r_top = reduced.r_top(r_lo, r_hi)
    # d log P/dr changes sign at most once on [r_lo, r_top]; without a sign
    # change P peaks at an end
    if reduced.slope(r_top) >= 0.0:
        r_opt = r_top
    elif reduced.slope(r_lo) <= 0.0:
        r_opt = r_lo
    else:
        r_opt = _brentq(reduced.slope, r_lo, r_top, xtol=0.0)
    alpha_opt = reduced.alpha_star(r_opt)

    t = _transmission(r_opt)
    loss = -math.expm1(3.0 * math.log1p(-r_opt * r_opt))
    p_opt = p_succ_products(alpha_opt, t, r_opt * r_opt * r_opt, loss)
    slack = reduced.slack(alpha_opt, t)
    return OptResult(
        p_opt=p_opt,
        alpha_opt=alpha_opt,
        r_opt=(r_opt, r_opt, r_opt),
        f_opt=f_eff_products(alpha_opt, t, g_eff_products(alpha_opt, t)),
        g_eff0=problem.g_eff0,
        converged=slack >= -1e-8 and p_opt > 0,
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
