"""Window construction for the packet system.

The default profile is the autocorrelation of a smooth exponential bump
supported in [-1/8, 1/8]: the result is real, even, smooth, supported in
[-1/4, 1/4], and its Fourier transform is the square of the bump transform,
hence nonnegative everywhere and strictly positive on [-1/2, 1/2].

The window is normalized so that min of the transform over [-1/2, 1/2]
equals 1.  With that normalization the analysis-map energy bound constant
1/fourier_floor is exactly achievable: the per-frequency amplification is
1/transform^2 <= 1/floor^2 = 1/floor.

Fourier convention throughout: F(u) = integral f(x) exp(-2 pi i x u) dx.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import WindowConstructionError
from .geometry import gauss_legendre

BUMP_HALF = 0.125  # support half-width of the base bump
SUPPORT_HALF = 0.25  # support half-width of its autocorrelation


def _bump_poly_numerators(max_k):
    """Numerator polynomials N_k with g^(k)(t) = N_k(t) (1-t^2)^(-2k) g(t)
    for the unit bump g(t) = exp(-1/(1-t^2)) on (-1, 1)."""
    P = np.polynomial.Polynomial
    one_minus = P([1.0, 0.0, -1.0])
    nums = [P([1.0])]
    for k in range(max_k):
        Nk = nums[-1]
        nxt = one_minus * (Nk.deriv() * one_minus + P([0.0, 4.0 * k]) * Nk) \
            - P([0.0, 2.0]) * Nk
        nums.append(nxt)
    return nums


_NUMERATORS = _bump_poly_numerators(12)


def unit_bump_deriv(k, t):
    """k-th derivative of exp(-1/(1-t^2)) on (-1,1), 0 outside; vectorized.

    Near the support edge the rational prefactor blows up while the
    exponential dies faster; switch to log-space evaluation there.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    s = 1.0 - t * t
    inside = s > 0.0
    if not np.any(inside):
        return out
    ti, si = t[inside], s[inside]
    Nk = _NUMERATORS[k](ti)
    vals = np.zeros_like(ti)
    safe = si >= 0.01
    vals[safe] = Nk[safe] * np.exp(-1.0 / si[safe]) / si[safe] ** (2 * k)
    edge = ~safe
    if np.any(edge):
        mag = -1.0 / si[edge] - 2 * k * np.log(si[edge]) \
            + np.log(np.maximum(np.abs(Nk[edge]), 1e-300))
        vals[edge] = np.sign(Nk[edge]) * np.where(mag < -700, 0.0, np.exp(mag))
    out[inside] = vals
    return out


def bump_deriv(k, t, half=BUMP_HALF):
    """k-th derivative of the bump rescaled to support [-half, half]."""
    return unit_bump_deriv(k, np.asarray(t, dtype=float) / half) / half**k


_BLOCK = 256  # points per block of the per-point quadratures


def _in_blocks(fn, x):
    """fn(x) for an fn that maps each point of x to one value on its own,
    evaluated on _BLOCK points at a time, so that fn's per-point
    temporaries (a quadrature rule per point) stay small.  The result has
    x's shape, 0-d and empty included, and each value is fn's at that
    point, bit for bit."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    for i in range(0, flat.size, _BLOCK):
        out[i:i + _BLOCK] = fn(flat[i:i + _BLOCK])
    return out.reshape(x.shape)


def _autocorr_deriv(k, x):
    """(g * g^(k))(x) over the overlap interval, vectorized in x."""
    return _in_blocks(functools.partial(_autocorr_deriv_rows, k), x)


def _autocorr_deriv_rows(k, x):
    lo = np.maximum(-BUMP_HALF, x - BUMP_HALF)
    hi = np.minimum(BUMP_HALF, x + BUMP_HALF)
    width = hi - lo
    nodes, wts = gauss_legendre(160, -1.0, 1.0)
    t = lo[..., None] + 0.5 * width[..., None] * (nodes + 1.0)
    vals = bump_deriv(0, t) * bump_deriv(k, x[..., None] - t)
    out = 0.5 * width * np.sum(vals * wts, axis=-1)
    return np.where(width > 0.0, out, 0.0)


@functools.cache
def _bump_samples():
    """Nodes t, bump values g(t) and weights of the 256-node transform rule."""
    nodes, wts = gauss_legendre(256, -1.0, 1.0)
    t = BUMP_HALF * nodes
    return t, bump_deriv(0, t), wts


def _bump_transform(u):
    """Real transform of the base bump: integral over its support of
    g(t) cos(2 pi u t) dt (g is even)."""
    return _in_blocks(_bump_transform_rows, u)


def _bump_transform_rows(u):
    t, g, wts = _bump_samples()
    return BUMP_HALF * np.sum(g * np.cos(2.0 * np.pi * u[..., None] * t) * wts,
                              axis=-1)


@dataclass(eq=False)
class Window:
    """The analysis window: transform samples, and the time-domain samples,
    spline and norm, which are computed on first use (the transform checks
    never read them)."""

    support_half_width: float
    grid: np.ndarray
    hat_grid: np.ndarray
    hat_samples: np.ndarray
    fourier_floor: float
    scale: float

    @functools.cached_property
    def samples(self):
        """The window on grid, by quadrature of g * g."""
        return self.scale * _autocorr_deriv(0, self.grid)

    @functools.cached_property
    def _spline(self):
        return CubicSpline(self.grid, self.samples, bc_type="natural")

    @functools.cached_property
    def l2_norm(self):
        nodes, wts = gauss_legendre(400, -1.0, 1.0)
        return math.sqrt(SUPPORT_HALF * float(
            np.sum(self._spline(SUPPORT_HALF * nodes) ** 2 * wts)))

    def _on_support(self, x, fn):
        """fn on the points inside the open support, exact zeros elsewhere."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        m = np.abs(x) < self.support_half_width
        if np.any(m):
            out[m] = fn(x[m])
        return out[0] if scalar else out

    def phi(self, x):
        """Time-domain window, exactly zero outside the support."""
        return self._on_support(x, self._spline)

    def phi_deriv(self, k, x):
        """Exact k-th derivative via quadrature of g * g^(k)."""
        if k == 0:
            return self.phi(x)
        return self._on_support(x, lambda xm: self.scale * _autocorr_deriv(k, xm))

    def phi_hat(self, u):
        """Transform of the window: scale * (bump transform)^2, nonnegative."""
        return self.scale * _bump_transform(u) ** 2

    @property
    def analysis_norm_constant(self):
        """The energy bound constant 1/fourier_floor."""
        return 1.0 / self.fourier_floor


def make_window(profile="autocorr-bump", grid=2**14):
    """Build a window passing both support and transform-positivity checks.

    Raises WindowConstructionError when the computed transform is not
    strictly positive on [-1/2, 1/2] (exercised by the 'negated' profile,
    which flips the sign of the default construction).
    """
    if profile not in ("autocorr-bump", "negated"):
        raise WindowConstructionError(f"unknown window profile {profile!r}")
    sign = -1.0 if profile == "negated" else 1.0

    ugrid = np.linspace(-0.5, 0.5, int(grid) + 1)
    hat_raw = sign * _bump_transform(ugrid) ** 2
    floor_raw = float(hat_raw.min())
    if floor_raw <= 0.0:
        raise WindowConstructionError(
            f"window transform dips to {floor_raw:.3g} on [-1/2, 1/2]")
    scale = 1.0 / floor_raw
    hat_samples = scale * hat_raw

    return Window(
        support_half_width=SUPPORT_HALF,
        grid=np.linspace(-SUPPORT_HALF, SUPPORT_HALF, int(grid) + 1),
        hat_grid=ugrid,
        hat_samples=hat_samples,
        fourier_floor=float(hat_samples.min()),
        scale=scale,
    )
