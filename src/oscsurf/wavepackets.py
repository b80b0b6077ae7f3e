"""Packets, the analysis map, and the reconstruction identity.

Signals live on a uniform periodic grid; the discrete transform realizes the
sharp frequency-cell projections, so the cell-wise division by the window
transform and the later multiplication cancel exactly and reconstruction is
exact on the discrete spectrum up to rounding.

The analysis coefficients V f(y, xi) are constant in xi on each cell interior
by construction and are stored per cell; boundary frequencies map to zero.
The xi integral in synthesis is therefore exact and contributes the factor
|Q| per cell.  The window transform on each cell depends only on the
window, the tiling and the grid; a CellTable holds it, and analysis and
synthesis of every signal on that grid read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BandLimitError, ConstraintError
from .tiling import locate_strict
from .window import Window


@dataclass(eq=False)
class SampledSignal:
    """Complex samples on the uniform periodic grid [x0, x0 + n*dx)."""

    x0: float
    dx: float
    values: np.ndarray

    @property
    def n(self):
        return len(self.values)

    @property
    def period(self):
        return self.n * self.dx

    @property
    def grid(self):
        return self.x0 + self.dx * np.arange(self.n)

    def norm(self):
        return math.sqrt(self.dx * float(np.sum(np.abs(self.values) ** 2)))

    def copy_with(self, values):
        return SampledSignal(self.x0, self.dx, np.asarray(values, dtype=complex))


def signal_grid(xi_max):
    """Empty signal on [-1/2, 1/2) whose Nyquist frequency exceeds twice the
    cap."""
    n = 1
    while n / 2.0 <= 2.0 * xi_max:
        n *= 2
    n *= 2
    return SampledSignal(-0.5, 1.0 / n, np.zeros(n, dtype=complex))


def frequencies(sig):
    """Discrete frequencies xi_k = k / period (unshifted fft order)."""
    return np.fft.fftfreq(sig.n, d=sig.dx)


def spectrum(sig):
    """Forward transform with convention F(xi) = int f(x) e^(-2 pi i x xi) dx."""
    xi = frequencies(sig)
    return xi, sig.dx * np.exp(-2j * np.pi * sig.x0 * xi) * np.fft.fft(sig.values)


def from_spectrum(sig, fhat):
    """Inverse of spectrum() onto the same grid."""
    xi = frequencies(sig)
    vals = np.fft.ifft(np.exp(2j * np.pi * sig.x0 * xi) * fhat) / sig.dx
    return sig.copy_with(vals)


@dataclass(frozen=True, eq=False)
class CellTable:
    """The window transform of one (window, tiling, grid), cell by cell.

    n, dx and x0 fix the grid.  cells maps each cell of the tiling to
    (index, hat): the indices of the grid frequencies in the cell and the
    dilated window transform phi_hat((xi - center) / length) there.
    outside holds the indices of the frequencies outside the tiling cover.
    """

    n: int
    dx: float
    x0: float
    outside: np.ndarray
    cells: dict

    @property
    def grid(self):
        return SampledSignal(self.x0, self.dx, np.zeros(self.n, dtype=complex))

    def check_grid(self, what, other):
        """Raise unless other (a signal or a table) lives on this grid."""
        if (other.n, other.dx, other.x0) != (self.n, self.dx, self.x0):
            raise ConstraintError(f"{what} live on another grid than the cell table")


def cell_table(w, t, grid):
    """The CellTable of window w and tiling t on the grid of the signal grid
    (its values are not read)."""
    xi = frequencies(grid)
    lo = min(q.lo for q in t.cells)
    hi = max(q.hi for q in t.cells)
    cells = {}
    for cell in t.cells:
        index = np.flatnonzero((xi >= cell.lo) & (xi < cell.hi))
        cells[cell] = (index, w.phi_hat((xi[index] - cell.center) / cell.length))
    return CellTable(n=grid.n, dx=grid.dx, x0=grid.x0,
                     outside=np.flatnonzero(~((xi >= lo) & (xi < hi))),
                     cells=cells)


@dataclass(eq=False)
class Coefficients:
    """Analysis coefficients: per-cell spectral data of V f.

    spectral[cell] holds the full-grid transform of the cell coefficient
    function y -> V f(y, xi interior to cell).
    """

    table: CellTable
    spectral: dict = field(default_factory=dict)

    def norm_squared(self):
        """L^2(dy dxi) energy: the xi integral is exact per cell."""
        period = self.table.n * self.table.dx
        total = 0.0
        for cell, vhat in self.spectral.items():
            total += cell.length * float(np.sum(np.abs(vhat) ** 2)) / period
        return total


_BAND_TOL = 1e-7


def analysis(table, sig):
    """The analysis map: per-cell division of the projected spectrum.

    For xi interior to a cell Q the coefficient function is
    |Q|^(-1/2) (T_Q f)(y) with T_Q dividing the spectral projection onto Q by
    the dilated window transform.  Signals with relative L^2 mass above
    _BAND_TOL outside the tiling cover are rejected; below that the tail is
    projected away (it costs at most _BAND_TOL in the round trip).  Cells
    holding only rounding dust (relative mass below 1e-14) are dropped.
    """
    table.check_grid("the signal samples", sig)
    _, fhat = spectrum(sig)
    total = float(np.sum(np.abs(fhat) ** 2))
    out_of_band = float(np.sum(np.abs(fhat[table.outside]) ** 2))
    if total > 0 and out_of_band > _BAND_TOL**2 * total:
        raise BandLimitError(
            f"relative out-of-band energy {math.sqrt(out_of_band / total):.3g} "
            f"exceeds {_BAND_TOL:.3g}")

    coeffs = Coefficients(table=table)
    dust = 1e-28 * total
    for cell, (index, hat) in table.cells.items():
        if float(np.sum(np.abs(fhat[index]) ** 2)) <= dust:
            continue
        vhat = np.zeros_like(fhat)
        vhat[index] = fhat[index] / (math.sqrt(cell.length) * hat)
        coeffs.spectral[cell] = vhat
    return coeffs


def synthesis(table, coeffs):
    """Reconstruction: sum over cells of |Q| times the convolution of the
    cell coefficient function with the cell packet, evaluated spectrally."""
    table.check_grid("the coefficients", coeffs.table)
    shat = np.zeros(table.n, dtype=complex)
    for cell, vhat in coeffs.spectral.items():
        entry = table.cells.get(cell)
        if entry is None:
            raise ConstraintError("coefficients reference a cell absent from the tiling")
        index, hat = entry
        shat[index] += cell.length * vhat[index] * hat / math.sqrt(cell.length)
    return from_spectrum(table.grid, shat)


def random_band_limited(rng, grid, xi_band, n_modes=None):
    """Random signal with spectrum supported in |xi| <= xi_band."""
    xi = frequencies(grid)
    allowed = np.where(np.abs(xi) <= xi_band)[0]
    fhat = np.zeros(grid.n, dtype=complex)
    if n_modes is None or n_modes >= len(allowed):
        chosen = allowed
    else:
        chosen = rng.choice(allowed, size=n_modes, replace=False)
    fhat[chosen] = rng.standard_normal(len(chosen)) + 1j * rng.standard_normal(len(chosen))
    return from_spectrum(grid, fhat)


def round_trip_error(table, sig):
    """Relative L^2 reconstruction error of synthesis(analysis(f))."""
    rec = synthesis(table, analysis(table, sig))
    err = sig.copy_with(rec.values - sig.values)
    denom = sig.norm()
    return err.norm() / denom if denom > 0 else err.norm()


# ---------------------------------------------------------------------------
# Individual packets
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class WavePacket:
    """phi_Q(x) = |Q|^(1/2) e^(2 pi i x xi_Q) phi(|Q| x)."""

    window: Window
    cell: object

    @property
    def modulation(self):
        return self.cell.center

    @property
    def scale(self):
        return self.cell.length

    @property
    def support_half_width(self):
        return self.window.support_half_width / self.cell.length

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        L = self.scale
        return math.sqrt(L) * np.exp(2j * np.pi * x * self.modulation) \
            * self.window.phi(L * x)

    def l2_norm(self):
        """Equals the window norm: the dilation is unitary."""
        return self.window.l2_norm


def packet_for(w, t, xi):
    """The packet phi_xi for xi interior to a cell; boundary raises."""
    return WavePacket(window=w, cell=locate_strict(t, xi))


def derivative_bound_probe(w, t, xi, k, n_grid=4001):
    """Scale-normalized derivative size of the demodulated packet.

    Computes ratio = sup_x |d^k (e^(-2 pi i x xi) phi_xi(x))| * r^(1/2 + k)
    with r = max(|lambda|, |xi|)^(-1/2), and support_ok asserting that the
    packet support sits inside [-r/2, r/2] (an exact consequence of the cell
    length bound).  Ratios at fixed k are uniformly bounded across (lambda, xi).
    """
    pk = packet_for(w, t, xi)
    L = pk.scale
    r = max(abs(t.lam), abs(xi)) ** -0.5
    # exact support containment: 1/(4 L) <= r/2 iff max(lam, |xi|) <= 4 L^2
    support_ok = max(abs(t.lam), abs(xi)) <= 4.0 * L * L

    half = pk.support_half_width
    x = np.linspace(-half, half, n_grid)
    delta = pk.modulation - xi
    total = np.zeros(n_grid, dtype=complex)
    for beta in range(k + 1):
        c = math.comb(k, beta) * (2j * np.pi * delta) ** beta * L ** (k - beta)
        total += c * w.phi_deriv(k - beta, L * x)
    total *= math.sqrt(L) * np.exp(2j * np.pi * x * delta)
    sup = float(np.abs(total).max())
    return support_ok, sup * r ** (0.5 + k)
