"""Phase-space evaluation of states on quadrature grids (hbar = kappa = 1).

Serves as an oracle independent of the Fock-basis route: fidelities and
field expectation values are computed by quadrature over W(x, p) and
cross-checked against inner products and ladder-operator expectations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import BoundaryMassError, GridMismatchError, TruncationError
from .fock import FockState

# Laguerre recurrences for the cross kernel are accurate well past this,
# but growth of the k index terms is unverified beyond it.
MAX_KERNEL_DIM = 60

WIGNER_FLOOR = -1.0 / math.pi


@dataclass(frozen=True)
class GridSpec:
    """Rectangular quadrature grid geometry."""

    x_min: float = -6.0
    x_max: float = 6.0
    p_min: float = -6.0
    p_max: float = 6.0
    n_x: int = 241
    n_p: int = 241

    def __post_init__(self):
        bounds = (self.x_min, self.x_max, self.p_min, self.p_max)
        if not all(map(math.isfinite, bounds)) or self.n_x < 1 or self.n_p < 1:
            raise ValueError(f"grid needs finite bounds and positive counts, got {self}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x_min, self.x_max, self.n_x),
            np.linspace(self.p_min, self.p_max, self.n_p),
        )


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class WignerGrid:
    """W(x, p) sampled on a rectangular grid; values[i, j] = W(x_i, p_j)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.spec.n_x, self.spec.n_p):
            raise ValueError("values shape does not match grid spec")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _mesh(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    x, p = spec.axes()
    return np.meshgrid(x, p, indexing="ij")


def integrate(grid: WignerGrid) -> float:
    """Trapezoid-rule integral of W over the grid."""
    x, p = grid.spec.axes()
    return float(np.trapezoid(np.trapezoid(grid.values, p, axis=1), x))


def wigner_coherent(alpha: complex, spec: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """W of |alpha⟩: a Gaussian of height 1/pi centered at sqrt(2)(Re, Im)alpha."""
    xg, pg = _mesh(spec)
    w = np.exp(
        -((xg - math.sqrt(2) * alpha.real) ** 2) - (pg - math.sqrt(2) * alpha.imag) ** 2
    ) / math.pi
    return WignerGrid(spec, w)


def wigner_fock(n: int, spec: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """W of |n⟩: ((-1)^n / pi) e^{-x^2-p^2} L_n(2x^2 + 2p^2)."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    xg, pg = _mesh(spec)
    u = 2.0 * (xg * xg + pg * pg)
    w = ((-1) ** n / math.pi) * np.exp(-0.5 * u) * _laguerre(n, 0, u)
    return WignerGrid(spec, w)


def _laguerre(n: int, k: int, u: np.ndarray) -> np.ndarray:
    """Associated Laguerre L_n^k(u) by the three-term recurrence in n."""
    prev = np.ones_like(u)
    if n == 0:
        return prev
    cur = 1.0 + k - u
    for m in range(1, n):
        prev, cur = cur, ((2 * m + k + 1 - u) * cur - (m + k) * prev) / (m + 1)
    return cur


def wigner_of_state(state: FockState, spec: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """W of an arbitrary truncated pure state via the cross-Wigner kernel.

    Uses the Fock-basis expansion W = sum_{m,n} c_m conj(c_n) W_{mn} with
    W_{mn} (m >= n, k = m-n) proportional to (2 conj(z))^k e^{-2|z|^2}
    L_n^k(4|z|^2), z = (x + i p) / sqrt(2).  Reduces to the coherent and
    Fock closed forms on their domains.
    """
    if state.dim > MAX_KERNEL_DIM:
        raise TruncationError(
            f"cross-Wigner kernel limited to dim <= {MAX_KERNEL_DIM}, got {state.dim}"
        )
    c = state.amps
    dim = state.dim
    xg, pg = _mesh(spec)
    z = (xg + 1j * pg) / math.sqrt(2)
    u = 4.0 * np.abs(z) ** 2
    envelope = np.exp(-0.5 * u) / math.pi

    acc = np.zeros_like(xg)
    two_zbar = 2.0 * np.conj(z)
    zbar_pow = np.ones_like(z)
    # one ladder per k = m - n >= 0; L_n^k(u) is advanced in n by its
    # three-term recurrence while the ladder is summed
    for k in range(dim):
        n = np.arange(dim - k)
        ratio = np.exp(0.5 * (gammaln(n + 1) - gammaln(n + k + 1)))  # sqrt(n! / (n+k)!)
        coeffs = c[k:] * np.conj(c[: dim - k]) * (-1.0) ** n * ratio
        nonzero = np.flatnonzero(coeffs)
        if nonzero.size:
            prev = np.ones_like(u)
            cur = 1.0 + k - u
            ladder = coeffs[0] * prev
            for i in range(1, nonzero[-1] + 1):
                ladder += coeffs[i] * cur
                prev, cur = cur, ((2 * i + k + 1 - u) * cur - (i + k) * prev) / (i + 1)
            acc += (1.0 if k == 0 else 2.0) * np.real(zbar_pow * ladder)
        zbar_pow = zbar_pow * two_zbar

    return WignerGrid(spec, envelope * acc)


def _check_same_grid(a: WignerGrid, b: WignerGrid):
    if a.spec != b.spec:
        raise GridMismatchError("grids have different geometry")


def fidelity_grid(w1: WignerGrid, w2: WignerGrid) -> float:
    """Overlap 2 pi ∬ W1 W2 dx dp; equals |⟨psi1|psi2⟩|^2 for pure states."""
    _check_same_grid(w1, w2)
    x, p = w1.spec.axes()
    inner = np.trapezoid(np.trapezoid(w1.values * w2.values, p, axis=1), x)
    return float(2.0 * math.pi * inner)


def _check_contained(grid: WignerGrid, tol: float = 1e-10):
    edge = max(
        np.max(np.abs(grid.values[0, :])),
        np.max(np.abs(grid.values[-1, :])),
        np.max(np.abs(grid.values[:, 0])),
        np.max(np.abs(grid.values[:, -1])),
    )
    if edge > tol:
        raise BoundaryMassError(f"boundary |W| = {edge:.3e} exceeds {tol:.0e}")


def expect_a_grid(grid: WignerGrid) -> complex:
    """⟨a⟩ = ∬ (x + i p)/sqrt(2) W dx dp.

    The derivative terms of the full operator-correspondence integrand
    integrate to zero for states vanishing at the boundary, which is
    enforced via the boundary-mass guard.
    """
    _check_contained(grid)
    xg, pg = _mesh(grid.spec)
    x, p = grid.spec.axes()
    integrand = (xg + 1j * pg) / math.sqrt(2) * grid.values
    return complex(np.trapezoid(np.trapezoid(integrand, p, axis=1), x))


def export_grid(grid: WignerGrid, destination) -> None:
    """Write the grid as CSV: header with bounds/counts, then x,p,w rows.

    Rows are emitted row-major with x as the outer index, 17 significant
    digits, locale independent.
    """
    spec = grid.spec
    x, p = spec.axes()

    def _write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        # header carries the grid geometry: x_min,x_max,p_min,p_max,nx,np
        writer.writerow(
            [
                f"{spec.x_min:.17g}",
                f"{spec.x_max:.17g}",
                f"{spec.p_min:.17g}",
                f"{spec.p_max:.17g}",
                spec.n_x,
                spec.n_p,
            ]
        )
        for i in range(spec.n_x):
            for j in range(spec.n_p):
                writer.writerow(
                    [f"{x[i]:.17g}", f"{p[j]:.17g}", f"{grid.values[i, j]:.17g}"]
                )

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", newline="") as fh:
            _write(fh)


def import_grid(source) -> WignerGrid:
    """Read a grid written by export_grid."""

    def _read(fh):
        reader = csv.reader(fh)
        bounds = next(reader)
        if len(bounds) != 6:
            raise ValueError("not a Wigner grid CSV")
        spec = GridSpec(
            x_min=float(bounds[0]),
            x_max=float(bounds[1]),
            p_min=float(bounds[2]),
            p_max=float(bounds[3]),
            n_x=int(bounds[4]),
            n_p=int(bounds[5]),
        )
        values = np.empty((spec.n_x, spec.n_p))
        for i in range(spec.n_x):
            for j in range(spec.n_p):
                values[i, j] = float(next(reader)[2])
        return WignerGrid(spec, values)

    if hasattr(source, "read"):
        return _read(source)
    with open(source, newline="") as fh:
        return _read(fh)
