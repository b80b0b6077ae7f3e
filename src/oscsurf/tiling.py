"""The frequency-interval cover with square-root-of-distance cell growth.

For |lambda| >= 1 and n0 the largest integer with n0^2 <= |lambda|, the cover
consists of central cells [k n0, (k+1) n0] for k = -n0..n0-1 and, beyond
+-n0^2, cells between consecutive squares [n^2, (n+1)^2] and their mirrors.
Every cell satisfies the two-sided length bound

    (1/9) |Q|^2 <= max(|lambda|, |xi|) <= 4 |Q|^2   for every xi in Q,

which is checked here in exact integer/rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BoundaryFrequencyError, ConstraintError

CENTRAL = "central"
POS_QUAD = "positive-quadratic"
NEG_QUAD = "negative-quadratic"


@dataclass(frozen=True)
class IntervalQ:
    lo: int
    hi: int
    kind: str

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def length(self):
        return self.hi - self.lo


@dataclass(eq=False)
class Tiling:
    lam: float
    n0: int
    xi_max: float
    cells: list


def build_tiling(lam, xi_max):
    """Construct the full cell list covering [-xi_max, xi_max]."""
    if abs(lam) < 1.0:
        raise ConstraintError(f"|lambda| = {abs(lam):.4g} < 1")
    if xi_max < abs(lam):
        raise ConstraintError("frequency cap must be at least |lambda|")
    n0 = math.isqrt(math.floor(abs(lam)))
    cells = [IntervalQ(k * n0, (k + 1) * n0, CENTRAL) for k in range(-n0, n0)]
    n = n0
    while n * n < xi_max:
        cells.append(IntervalQ(n * n, (n + 1) * (n + 1), POS_QUAD))
        cells.append(IntervalQ(-(n + 1) * (n + 1), -n * n, NEG_QUAD))
        n += 1
    cells.sort(key=lambda q: q.lo)
    return Tiling(lam=float(lam), n0=n0, xi_max=float(xi_max), cells=cells)


def locate(t, xi):
    """The unique cell whose interior contains xi, or None on a boundary.

    Boundary points (shared endpoints, where the packet is zero by
    convention) return None.  |xi| beyond the cap raises ConstraintError.
    """
    if abs(xi) > t.xi_max:
        raise ConstraintError(f"|xi| = {abs(xi):.4g} exceeds cap {t.xi_max:.4g}")
    n0 = t.n0
    a = abs(xi)
    if a <= n0 * n0:
        q = xi / n0
        k = math.floor(q)
        if xi == k * n0:
            return None
        if k == n0:  # xi == n0^2 handled above; guard fp edge
            k -= 1
        return IntervalQ(k * n0, (k + 1) * n0, CENTRAL)
    m = math.isqrt(math.floor(a))
    if float(m * m) == a:
        return None
    if xi > 0:
        return IntervalQ(m * m, (m + 1) * (m + 1), POS_QUAD)
    return IntervalQ(-(m + 1) * (m + 1), -m * m, NEG_QUAD)


def locate_strict(t, xi):
    """locate() that raises on boundary frequencies instead of returning None."""
    q = locate(t, xi)
    if q is None:
        raise BoundaryFrequencyError(f"xi = {xi} is a cell boundary point")
    return q


# ---------------------------------------------------------------------------
# Exact verification of the cell length bound
# ---------------------------------------------------------------------------

def boxsize_holds_exact(cell, lam, xi):
    """Exact check of (1/9)|Q|^2 <= max(|lam|,|xi|) <= 4|Q|^2 for rational
    inputs, via Fraction arithmetic."""
    lam = Fraction(lam).limit_denominator(10**9) if not isinstance(lam, Fraction) else lam
    xi = Fraction(xi).limit_denominator(10**9) if not isinstance(xi, Fraction) else xi
    L = cell.length
    m = max(abs(lam), abs(xi))
    return Fraction(L * L, 9) <= m <= 4 * L * L


def check_tiling_exact(t):
    """Exhaustive exact boxsize check over every cell of a built tiling.

    For each cell the bound is monotone in |xi|, so it suffices to check the
    endpoints and the point of the cell closest to the origin.
    """
    lam = Fraction(t.lam).limit_denominator(10**12)
    for q in t.cells:
        probes = {q.lo, q.hi}
        if q.lo < 0 < q.hi:
            probes.add(0)
        probes.add(min(abs(q.lo), abs(q.hi)) * (1 if q.hi > 0 else -1))
        for xi in probes:
            if not boxsize_holds_exact(q, lam, Fraction(xi)):
                return False, q, xi
    return True, None, None


def _isqrt_vec(x):
    """Floor integer square root, vectorized and exact for int64 inputs."""
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r = np.maximum(r, 0)
    # fix float rounding in both directions
    for _ in range(2):
        r = np.where((r + 1) * (r + 1) <= x, r + 1, r)
        r = np.where(r * r > x, r - 1, r)
    return r


_BATTERY_BLOCK = 1 << 16  # draws of c per block of the battery's checks


def boxsize_battery(n_samples, seed=0, lam_max=10**6, denominator=64):
    """Random exact verification of the cell length bound.

    Draws lambda = a/s in [1, lam_max] and xi = c/s with |xi| <= 4*lambda as
    exact rationals with common denominator s, locates the cell of xi in
    integer arithmetic, and verifies the bound by cross-multiplied integer
    comparisons (no floating point).  Returns (n_checked, n_failed); a draw
    landing exactly on a shared endpoint is checked against the cell whose
    lower endpoint it is, which the bound must cover anyway.
    """
    rng = np.random.default_rng(seed)
    s = int(denominator)
    a = rng.integers(s, lam_max * s + 1, size=n_samples, dtype=np.int64)
    # c is drawn a block at a time from the same generator: numpy draws
    # array-bounded integers one after another, so the blocks continue the
    # stream of a single draw over all of a
    n_failed = 0
    for i in range(0, n_samples, _BATTERY_BLOCK):
        a_block = a[i:i + _BATTERY_BLOCK]
        c = rng.integers(-4 * a_block, 4 * a_block + 1, dtype=np.int64)
        n_failed += _boxsize_failures(a_block, c, s)
    return int(n_samples), n_failed


def _boxsize_failures(a, c, s):
    """The number of draws (lambda, xi) = (a/s, c/s) whose cell misses the
    bound, in integer arithmetic."""
    lam_floor = a // s
    n0 = _isqrt_vec(lam_floor)
    c_abs = np.abs(c)

    central = c_abs <= n0 * n0 * s
    L = np.empty(len(a), dtype=np.int64)
    L[central] = n0[central]

    # quadratic cells: m = floor(sqrt(|xi|)), clipped up to n0
    xi_floor = c_abs // s
    m = _isqrt_vec(xi_floor)
    m = np.maximum(m, n0)
    quad = ~central
    L[quad] = 2 * m[quad] + 1

    mx = np.maximum(a, c_abs)  # max(lam, |xi|) * s, exact
    lower_ok = L * L * s <= 9 * mx
    upper_ok = mx <= 4 * L * L * s
    ok = lower_ok & upper_ok
    return int(np.count_nonzero(~ok))


def tiling_rows(t):
    """CSV rows (lo, hi, kind, center) for dumping a tiling."""
    return [(q.lo, q.hi, q.kind, q.center) for q in t.cells]
