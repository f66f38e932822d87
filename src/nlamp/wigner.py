"""Phase-space evaluation of states on quadrature grids (hbar = kappa = 1).

Serves as an oracle independent of the Fock-basis route: fidelities and
field expectation values are computed by quadrature over W(x, p) and
cross-checked against inner products and ladder-operator expectations.
Branch outputs D(gamma)(w0|0⟩ + w1|1⟩) are drawn in closed form, truncated pure
states from their wavefunction (`wigner_of_state`), the closed forms' referee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._format import RECORD, write_records
from .errors import BoundaryMassError, GridMismatchError
from .fock import FockState


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
        # a span is finite only if both its bounds are, and finite bounds can
        # still span more than the largest float
        spans = (self.x_max - self.x_min, self.p_max - self.p_min)
        if not all(map(math.isfinite, spans)) or self.n_x < 1 or self.n_p < 1:
            raise ValueError(f"grid needs finite bounds and spans and positive counts, got {self}")

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


def _orientation(spec: GridSpec) -> float:
    """-1 if exactly one axis runs downwards, else 1.

    np.trapezoid follows the order of its axis, so over an axis that runs
    downwards it returns minus the integral; this factor takes that back out.
    """
    return math.copysign(1.0, spec.x_max - spec.x_min) * math.copysign(1.0, spec.p_max - spec.p_min)


def _integral(spec: GridSpec, values: np.ndarray):
    """Trapezoid-rule integral of values over the grid, p inner and x outer."""
    x, p = spec.axes()
    return _orientation(spec) * np.trapezoid(np.trapezoid(values, p, axis=1), x)


def integrate(grid: WignerGrid) -> float:
    """Trapezoid-rule integral of W over the grid."""
    return float(_integral(grid.spec, grid.values))


def wigner_coherent(alpha: complex, spec: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """W of |alpha⟩: a Gaussian of height 1/pi centered at sqrt(2)(Re, Im)alpha."""
    return wigner_displaced_qubit(alpha, 1.0, 0.0, spec)


def wigner_displaced_qubit(gamma: complex, w0, w1, spec: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """W of D(gamma)(w0|0⟩ + w1|1⟩), |w0|² + |w1|² = 1 (Cahill & Glauber, Phys. Rev. 177, 1882).

    With (X, P) the grid less sqrt(2)(Re, Im) gamma and rho² = X² + P², W = e^(−rho²)/pi
    [|w0|² + |w1|²(2 rho² − 1) + 2 sqrt(2) Re(w0* w1 (X − iP))], and 0 where e^(−rho²) is.
    """
    x, p = spec.axes()
    big_x = x[:, None] - math.sqrt(2) * gamma.real
    big_p = p - math.sqrt(2) * gamma.imag
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(-(big_x**2) - big_p**2) / math.pi
        if w0 != 1 or w1 != 0:
            c = 2.0 * math.sqrt(2) * np.conj(w0) * w1
            rho2 = big_x * big_x + big_p * big_p
            bracket = abs(w0) ** 2 + abs(w1) ** 2 * (2.0 * rho2 - 1.0)
            bracket += c.real * big_x + c.imag * big_p
            w = np.where(w == 0.0, 0.0, w * bracket)
    return WignerGrid(spec, w)


def wigner_fock(n: int, spec: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """W of |n⟩: ((-1)^n / pi) e^{-x^2-p^2} L_n(2x^2 + 2p^2)."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    x, p = spec.axes()
    u = 2.0 * ((x * x)[:, None] + p * p)
    w = ((-1) ** n / math.pi) * np.exp(-0.5 * u) * _laguerre(n, u)
    return WignerGrid(spec, w)


def _laguerre(n: int, u: np.ndarray) -> np.ndarray:
    """Laguerre L_n(u) by the three-term recurrence in n."""
    prev = np.ones_like(u)
    if n == 0:
        return prev
    cur = 1.0 - u
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 - u) * cur - m * prev) / (m + 1)
    return cur


def _wavefunction(amps: np.ndarray, q: np.ndarray) -> np.ndarray:
    """psi(q) = sum_n c_n phi_n(q) by the normalized Hermite-function recurrence.

    phi_{n+1} = sqrt(2/(n+1)) q phi_n - sqrt(n/(n+1)) phi_{n-1}, with each
    phi_n held as cur * e^{scale}: the Gaussian e^{-q^2/2} starts in scale,
    and every 16 steps the size of cur moves there too, so at large q and
    large n neither the Gaussian underflows nor the polynomial overflows.
    """
    scale = -0.5 * q * q
    prev, cur = np.zeros_like(q), np.full_like(q, math.pi**-0.25)
    psi = amps[0] * cur
    for n in range(1, amps.size):
        prev, cur = cur, math.sqrt(2.0 / n) * q * cur - math.sqrt((n - 1) / n) * prev
        psi += amps[n] * cur
        if n % 16 == 0:
            size = np.maximum(np.hypot(cur, prev), 1.0)
            prev, cur, psi = prev / size, cur / size, psi / size
            scale += np.log(size)
    return psi * np.exp(scale)


def _nodes(xr: np.ndarray, dx: float, reach: float):
    """Nodes q holding psi(x_i ± y_j) for the rows xr (step dx), and how to read them.

    Returns (q, m, k, n_y, h): with y_j = j h for 0 <= j < n_y = J + 1,
    psi(x_i ± y_j) is node i m + J |k| ± j k of q.  The rows and the offsets
    share one lattice of step s = |dx|/m when h = |k| s, with
    m = 3 ceil(|dx|/h_max) and |k| = floor(h_max/s) >= 3, so
    h_max >= h > 3 h_max/4; k takes the sign of dx, so that +k steps towards
    larger x also when x runs downwards.  A single row (dx = 0) takes
    s = h_max.  Where the lattice would need more nodes than the
    n_rows (2 J + 1) points x_i + j h, |j| <= J, at h = h_max (rows within
    reach that span less than a few steps), those points are the nodes, with
    m = 2 J + 1 and k = 1.
    """
    h_max = math.pi / (2.0 * reach)
    n_y = math.ceil(reach / h_max) + 1
    direct = xr.size * (2 * n_y - 1)
    m = 3 * math.ceil(abs(dx) / h_max)
    s = abs(dx) / m if m else h_max
    # the lattice spans at least 2 reach, so below this step it holds more nodes
    if s * direct > 2.0 * reach:
        k = math.floor(h_max / s)
        n_yl = math.ceil(reach / (k * s)) + 1
        count = (xr.size - 1) * m + 2 * (n_yl - 1) * k + 1
        if count <= direct:
            q = xr[0] + math.copysign(s, dx) * np.arange(-(n_yl - 1) * k, count - (n_yl - 1) * k)
            return q, m, int(math.copysign(k, dx)), n_yl, k * s
    q = (xr[:, None] + h_max * np.arange(1 - n_y, n_y)).ravel()
    return q, 2 * n_y - 1, 1, n_y, h_max


def _within(axis: np.ndarray, reach: float) -> slice:
    """The points of a monotone axis with |value| <= reach: one run of indices."""
    inside = np.flatnonzero(np.abs(axis) <= reach)
    return slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0)


def wigner_of_state(state: FockState, spec: GridSpec = DEFAULT_GRID) -> WignerGrid:
    """W of an arbitrary truncated pure state from its wavefunction.

    W(x, p) = (1/pi) ∫ psi*(x+y) psi(x-y) e^{2ipy} dy by the trapezoid rule
    with step h over y_j = j h in [0, reach]; the y < 0 half is the complex
    conjugate, so W = (2h/pi) Re sum_j w_j psi*(x+y_j) psi(x-y_j) e^{2ipy_j}
    with w_0 = 1/2, w_j = 1.  Beyond reach = sqrt(2 dim + 1) + 8 both psi and
    W vanish in double precision.  By Poisson summation the rule returns
    sum_k W(x, p + k pi/h), and any h <= h_max = pi / (2 reach) puts every
    copy with k != 0 at |p| >= reach.  Rows and columns with |x| or |p| above
    reach are zero, so memory does not depend on the grid's range, and the
    sum over y is one matrix product for the whole grid.

    psi is evaluated once per grid.  The rows x_i = x_min + i dx and the
    offsets y_j, 0 <= j <= J, lie on one lattice of step s = dx/m when
    h = k s (see `_nodes` for m and k), so psi on its (n_rows - 1) m + 2 J k + 1
    nodes holds every psi(x_i ± y_j), read as two strided views with steps
    (m, +k) and (m, -k).  On the 321² grid over ±8 and dim 30-46 that is
    about 3 000 nodes instead of the 2 n_rows (J + 1) = 130 000 points, and
    a grid takes about 11 ms instead of 48 ms on a 2-core Xeon; dim 996 on
    the default grid takes 0.3 s instead of 7 s.  Where the rows within
    reach span less than a few steps, the lattice would be larger, so the
    points x_i ± y_j themselves are the nodes, read through the same views.
    """
    reach = math.sqrt(2 * state.dim + 1) + 8.0
    x, p = spec.axes()
    rows, cols = _within(x, reach), _within(p, reach)
    xr, pc = x[rows], p[cols]
    w = np.zeros((spec.n_x, spec.n_p))
    if xr.size and pc.size:
        dx = (spec.x_max - spec.x_min) / (spec.n_x - 1) if spec.n_x > 1 else 0.0
        q, m, k, n_y, h = _nodes(xr, dx, reach)
        # psi[0] is psi at the first row; the views step back from it, never out of q
        psi = _wavefunction(state.amps, q)[(n_y - 1) * abs(k):]
        step = psi.strides[0]
        plus = as_strided(psi, (xr.size, n_y), (m * step, k * step), writeable=False)
        minus = as_strided(psi, (xr.size, n_y), (m * step, -k * step), writeable=False)
        f = np.conj(plus) * minus
        f[:, 0] *= 0.5
        y = h * np.arange(n_y)
        w[rows, cols] = (f @ np.exp(2j * np.outer(y, pc))).real * (2.0 * h / math.pi)
    return WignerGrid(spec, w)


def _check_same_grid(a: WignerGrid, b: WignerGrid):
    if a.spec != b.spec:
        raise GridMismatchError("grids have different geometry")


def fidelity_grid(w1: WignerGrid, w2: WignerGrid) -> float:
    """Overlap 2 pi ∬ W1 W2 dx dp; equals |⟨psi1|psi2⟩|^2 for pure states."""
    _check_same_grid(w1, w2)
    return float(2.0 * math.pi * _integral(w1.spec, w1.values * w2.values))


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
    enforced via the boundary-mass guard.  By the same trapezoid rule as
    `integrate`, ∬ x W = ∫ x (∫ W dp) dx and ∬ p W = ∫ (∫ p W dp) dx, with
    the same orientation factor for axes that run downwards.
    """
    _check_contained(grid)
    x, p = grid.spec.axes()
    mean_x = np.trapezoid(x * np.trapezoid(grid.values, p, axis=1), x)
    mean_p = np.trapezoid(np.trapezoid(grid.values * p, p, axis=1), x)
    return _orientation(grid.spec) * complex(mean_x, mean_p) / math.sqrt(2)


_BLOCK = 8192  # W values formatted at once


def _prefixes(axis: np.ndarray) -> np.ndarray:
    """Each "%.17g," of an axis as one NUL-padded byte string."""
    texts = [b"%.17g," % v for v in axis.tolist()]
    width = max(map(len, texts))
    return np.array([t.ljust(width, b"\0") for t in texts], f"V{width}")


def _write_lines(grid: WignerGrid, write) -> None:
    """Pass the CSV lines after the header to write as bytes, a block of whole x rows at a time.

    Every line "x,p_j,w\n" is a NUL-padded line of one buffer: the row's x
    prefix, the column's p prefix and the value's four-word record, which
    `_format.write_records` writes through a strided view.  The buffer is
    allocated once and its p prefixes filled once; each block fills the x
    prefixes and records of its rows, and one `translate` drops its NULs.
    """
    spec = grid.spec
    x, p = spec.axes()
    xs, ps = _prefixes(x), _prefixes(p)
    rows = min(spec.n_x, max(1, _BLOCK // spec.n_p))
    width = xs.itemsize + ps.itemsize + RECORD
    buffer = bytearray(rows * spec.n_p * width)
    line = (spec.n_p * width, width)
    np.ndarray((rows, spec.n_p), ps.dtype, buffer, xs.itemsize, line)[:] = ps
    x_prefixes = np.ndarray((rows, spec.n_p), xs.dtype, buffer, 0, line)
    records = np.ndarray((rows * spec.n_p, 4), "<u8", buffer, width - RECORD, (width, 8))
    for start in range(0, spec.n_x, rows):
        w = grid.values[start : start + rows]
        x_prefixes[: len(w)] = xs[start : start + rows, None]
        write_records(w.ravel(), records[: w.size])
        # a last, shorter block is a copy of the front of the buffer
        block = buffer if len(w) == rows else buffer[: w.size * width]
        write(block.translate(None, b"\0"))


def export_grid(grid: WignerGrid, path) -> None:
    """Write the grid to path as CSV: header with bounds/counts, then x,p,w rows.

    Rows are emitted row-major with x as the outer index, each number as
    '%.17g' formats it, locale independent.  The W values go through
    `_format.write_records` in blocks of whole x rows, about _BLOCK values
    each (see `_write_lines`), and each block is written at once, so memory
    stays at one block of text.  The bytes are those of '%.17g' % w, which
    itself formats only NaN, ±inf, 0 < |w| < 1e-290, |w| >= 1e290 and the
    values whose digits beyond the 17th lie within 1e-9 of one half.
    """
    spec = grid.spec
    # header carries the grid geometry: x_min,x_max,p_min,p_max,nx,np
    header = ",".join(f"{v:.17g}" for v in (spec.x_min, spec.x_max, spec.p_min, spec.p_max))
    with open(path, "wb") as fh:
        fh.write(f"{header},{spec.n_x},{spec.n_p}\n".encode("ascii"))
        _write_lines(grid, fh.write)


def import_grid(path) -> WignerGrid:
    """Read a grid written by export_grid from path.

    Raises ValueError unless exactly nx * np rows follow the header and
    every W value is a number.  The file is opened once, in binary; its
    header ends as a text-mode line does, at "\n", "\r\n" or a lone "\r".
    After an ASCII header, `_parse.read_w` decodes the W column from the
    same handle in chunks of whole lines, bit for bit as np.loadtxt would
    and in under half its time.  A file it does not take (CRLF line ends,
    blank lines, spaces, a fourth column, a W such as "+1", ".5" or "1E5",
    no final newline, non-ASCII text, or a row count other than nx * np)
    goes to `np.loadtxt`, whose C reader parses it in chunks, so it parses
    or fails as it always has.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        cr = line.find(b"\r")
        if cr >= 0 and line[cr + 1 : cr + 2] != b"\n":
            line = line[: cr + 1]
            fh.seek(len(line))
        spec = _header_spec(line.decode())
        values = None
        if line.isascii():
            from . import _parse

            values = _parse.read_w(fh, spec.n_x * spec.n_p)
    if values is None:
        values = np.loadtxt(path, delimiter=",", usecols=2, ndmin=1, skiprows=1)
    # reshape raises ValueError unless exactly nx * np rows were read
    return WignerGrid(spec, values.reshape(spec.n_x, spec.n_p))


def _header_spec(header: str) -> GridSpec:
    """The grid of a header "x_min,x_max,p_min,p_max,nx,np"."""
    bounds = header.split(",")
    if len(bounds) != 6:
        raise ValueError("not a Wigner grid CSV")
    return GridSpec(*map(float, bounds[:4]), int(bounds[4]), int(bounds[5]))
