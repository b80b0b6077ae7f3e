"""Packets, the analysis map, and the reconstruction identity.

Signals live on a uniform periodic grid; the discrete transform realizes the
sharp frequency-cell projections, so the cell-wise division by the window
transform and the later multiplication cancel exactly and reconstruction is
exact on the discrete spectrum up to rounding.

The analysis coefficients V f(y, xi) are constant in xi on each cell interior
by construction and are stored per cell; boundary frequencies map to zero.
The xi integral in synthesis is therefore exact and contributes the factor
|Q| per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BandLimitError, ConstraintError
from .tiling import Tiling, locate_strict
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


@dataclass(eq=False)
class Coefficients:
    """Analysis coefficients: per-cell spectral data of V f.

    spectral[cell] holds the full-grid transform of the cell coefficient
    function y -> V f(y, xi interior to cell).
    """

    tiling: Tiling
    window: Window
    grid: SampledSignal
    spectral: dict = field(default_factory=dict)

    def norm_squared(self):
        """L^2(dy dxi) energy: the xi integral is exact per cell."""
        total = 0.0
        for cell, vhat in self.spectral.items():
            total += cell.length * float(np.sum(np.abs(vhat) ** 2)) / self.grid.period
        return total


def _cell_mask_and_transform(w, cell, xi):
    mask = (xi >= cell.lo) & (xi < cell.hi)
    hat = np.zeros_like(xi)
    if np.any(mask):
        hat[mask] = w.phi_hat((xi[mask] - cell.center) / cell.length)
    return mask, hat


def _cover_range(t):
    return min(q.lo for q in t.cells), max(q.hi for q in t.cells)


def analysis(w, t, sig, band_tol=1e-7):
    """The analysis map: per-cell division of the projected spectrum.

    For xi interior to a cell Q the coefficient function is
    |Q|^(-1/2) (T_Q f)(y) with T_Q dividing the spectral projection onto Q by
    the dilated window transform.  Signals with relative L^2 mass above
    band_tol outside the tiling cover are rejected; below that the tail is
    projected away (it costs at most band_tol in the round trip).  Cells
    holding only rounding dust (relative mass below 1e-14) are dropped.
    """
    xi, fhat = spectrum(sig)
    total = float(np.sum(np.abs(fhat) ** 2))
    lo, hi = _cover_range(t)
    covered = (xi >= lo) & (xi < hi)
    out_of_band = float(np.sum(np.abs(fhat[~covered]) ** 2))
    if total > 0 and out_of_band > band_tol**2 * total:
        raise BandLimitError(
            f"relative out-of-band energy {math.sqrt(out_of_band / total):.3g} "
            f"exceeds {band_tol:.3g}")

    coeffs = Coefficients(tiling=t, window=w, grid=sig.copy_with(np.zeros(sig.n, dtype=complex)))
    dust = 1e-28 * total
    for cell in t.cells:
        mask, hat = _cell_mask_and_transform(w, cell, xi)
        if float(np.sum(np.abs(fhat[mask]) ** 2)) <= dust:
            continue
        vhat = np.zeros_like(fhat)
        vhat[mask] = fhat[mask] / (math.sqrt(cell.length) * hat[mask])
        coeffs.spectral[cell] = vhat
    return coeffs


def synthesis(w, t, coeffs):
    """Reconstruction: sum over cells of |Q| times the convolution of the
    cell coefficient function with the cell packet, evaluated spectrally."""
    grid = coeffs.grid
    xi = frequencies(grid)
    shat = np.zeros(grid.n, dtype=complex)
    for cell, vhat in coeffs.spectral.items():
        if cell not in t.cells:
            raise ConstraintError("coefficients reference a cell absent from the tiling")
        mask, hat = _cell_mask_and_transform(w, cell, xi)
        shat[mask] += cell.length * vhat[mask] * hat[mask] / math.sqrt(cell.length)
    return from_spectrum(grid, shat)


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


def round_trip_error(w, t, sig):
    """Relative L^2 reconstruction error of synthesis(analysis(f))."""
    rec = synthesis(w, t, analysis(w, t, sig))
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
