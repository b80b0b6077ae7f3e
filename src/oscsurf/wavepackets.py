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
from .tiling import Tiling, locate, locate_strict
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


def signal_grid(xi_max, period=1.0, oversample=1.0):
    """Empty signal whose Nyquist frequency exceeds twice the cap."""
    n = 1
    while n / (2.0 * period) <= 2.0 * xi_max * oversample:
        n *= 2
    n *= 2
    return SampledSignal(-0.5 * period, period / n, np.zeros(n, dtype=complex))


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

    def cell_function(self, cell):
        """V f(., xi) for xi interior to the cell, as a sampled signal."""
        if cell not in self.spectral:
            raise ConstraintError("coefficients reference a cell absent from the tiling")
        return from_spectrum(self.grid, self.spectral[cell])

    def evaluate(self, xi):
        """V f(., xi): per-cell constant in xi; zero on cell boundaries."""
        cell = locate(self.tiling, xi)
        if cell is None or cell not in self.spectral:
            return self.grid.copy_with(np.zeros(self.grid.n, dtype=complex))
        return self.cell_function(cell)

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


# ---------------------------------------------------------------------------
# Signal file formats
# ---------------------------------------------------------------------------

_BINARY_MAGIC = b"OSC1"


def write_signal_text(path, sig):
    """Plain text: one 'x re im' row per sample, '#' comments allowed."""
    with open(path, "w") as fh:
        fh.write("# x value_re value_im\n")
        for x, v in zip(sig.grid, sig.values):
            fh.write(f"{float(x)!r} {float(v.real)!r} {float(v.imag)!r}\n")


def read_signal_text(path):
    xs, vals = [], []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            x, re_, im = line.split()
            xs.append(float(x))
            vals.append(complex(float(re_), float(im)))
    xs = np.asarray(xs)
    if len(xs) < 2:
        raise ConstraintError("signal files need at least two samples")
    dx = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), dx, rtol=0, atol=1e-9 * abs(dx)):
        raise ConstraintError("signal grid must be uniform")
    return SampledSignal(float(xs[0]), float(dx), np.asarray(vals, dtype=complex))


def write_signal_binary(path, sig):
    """Little-endian block: magic 'OSC1', uint64 n, float64 x0, float64 dx,
    then n interleaved (re, im) float64 pairs."""
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        np.asarray([sig.n], dtype="<u8").tofile(fh)
        np.asarray([sig.x0, sig.dx], dtype="<f8").tofile(fh)
        inter = np.empty(2 * sig.n, dtype="<f8")
        inter[0::2] = sig.values.real
        inter[1::2] = sig.values.imag
        inter.tofile(fh)


def read_signal_binary(path):
    with open(path, "rb") as fh:
        if fh.read(4) != _BINARY_MAGIC:
            raise ConstraintError("not a signal block (bad magic)")
        n = int(np.fromfile(fh, dtype="<u8", count=1)[0])
        x0, dx = np.fromfile(fh, dtype="<f8", count=2)
        inter = np.fromfile(fh, dtype="<f8", count=2 * n)
    if len(inter) != 2 * n:
        raise ConstraintError("truncated signal block")
    return SampledSignal(float(x0), float(dx), inter[0::2] + 1j * inter[1::2])


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
