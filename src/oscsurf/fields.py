"""Scalar fields on a box with exact partial-derivative oracles.

Every field is a function on the closed box [-b, b]^dim together with an
oracle for mixed partial derivatives, indexed by multi-indices.  Built-in
fields (multivariate polynomials and tensor-product bump functions) carry
closed-form derivatives; arbitrary callables fall back to central finite
differences with a per-order step size.

Coordinates on R^(2d) follow the convention (x_1,...,x_d, x_1',...,x_d'):
axis k < d is x_{k+1}, axis d + k is x_{k+1}'.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError

MACHINE_EPS = float(np.finfo(np.float64).eps)


def _as_points(x, dim):
    """Coerce to an (..., dim) float array."""
    pts = np.asarray(x, dtype=float)
    if pts.shape == (dim,):
        return pts[None, :], True
    if pts.ndim >= 2 and pts.shape[-1] == dim:
        return pts, False
    raise ValueError(f"expected points of dimension {dim}, got shape {pts.shape}")


class SmoothField:
    """Base class: a scalar function with a multi-index derivative oracle.

    Subclasses implement ``_deriv(alpha, pts)`` on an (n, dim) array.
    ``vanishes_above`` may name a total derivative order beyond which all
    derivatives are identically zero (used to prune sweeps and expression
    trees); ``None`` means unknown.
    """

    def __init__(self, dim, half_widths, max_order, vanishes_above=None):
        self.dim = int(dim)
        hw = np.asarray(half_widths, dtype=float)
        if hw.ndim == 0:
            hw = np.full(self.dim, float(hw))
        self.half_widths = hw
        self.max_order = int(max_order)
        self.vanishes_above = vanishes_above

    def eval(self, x):
        return self.deriv((0,) * self.dim, x)

    __call__ = eval

    def deriv(self, alpha, x):
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise ValueError("multi-index length does not match field dimension")
        if any(a < 0 for a in alpha):
            raise ValueError("multi-index entries must be nonnegative")
        pts, squeeze = _as_points(x, self.dim)
        out = self._deriv(alpha, pts)
        return out[0] if squeeze else out

    def _deriv(self, alpha, pts):  # pragma: no cover - abstract
        raise NotImplementedError

    # for a tensor-product field f(x) = prod_j g_j(x_j), the one-axis
    # factors g_j as callables on 1-D arrays; None for other fields
    axis_factors = None


def _power_table(column):
    """(j, e) -> column(j) ** e, each computed once; e = 1 is the column."""
    table = {}

    def power(j, e):
        if (j, e) not in table:
            table[j, e] = column(j) if e == 1 else column(j) ** e
        return table[j, e]

    return power


class PolynomialField(SmoothField):
    """Multivariate polynomial given as {exponent tuple: coefficient}."""

    def __init__(self, dim, terms, half_widths=1.0):
        terms = {tuple(int(e) for e in k): float(v) for k, v in terms.items() if v != 0.0}
        for expo in terms:
            if len(expo) != dim or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for dimension {dim}")
        degree = max((sum(e) for e in terms), default=0)
        super().__init__(dim, half_widths, max_order=10**6, vanishes_above=degree)
        self.terms = terms
        self.degree = degree
        self._dcache = {}

    def _derived_terms(self, alpha):
        if alpha in self._dcache:
            return self._dcache[alpha]
        out = {}
        for expo, coeff in self.terms.items():
            c = coeff
            new = []
            ok = True
            for e, a in zip(expo, alpha):
                if e < a:
                    ok = False
                    break
                for k in range(a):
                    c *= e - k
                new.append(e - a)
            if ok and c != 0.0:
                out[tuple(new)] = out.get(tuple(new), 0.0) + c
        self._dcache[alpha] = out
        return out

    def _deriv(self, alpha, pts):
        power = _power_table(lambda j: pts[..., j])
        out = np.zeros(pts.shape[:-1])
        for expo, coeff in self._derived_terms(alpha).items():
            term = coeff
            for j, e in enumerate(expo):
                if e:
                    term = term * power(j, e)
            out += term
        return out

    def line_coefficients(self, j0, slice_pts):
        """The restriction to the axis-j0 lines through the (n, dim - 1) slice
        points, as the coefficient arrays [c_0, ..., c_top] of v^k built
        once from the terms; a power no term has is the scalar 0.0.
        Evaluate it, or its axis derivative [k c_k], with horner."""
        slice_pts = np.asarray(slice_pts, dtype=float)
        n = slice_pts.shape[0]
        coeffs = {}
        for expo, coeff in self.terms.items():
            col = np.full(n, coeff)
            for j, e in enumerate(expo[:j0] + expo[j0 + 1:]):
                if e:
                    col *= slice_pts[:, j] ** e
            coeffs[expo[j0]] = coeffs.get(expo[j0], 0.0) + col
        return [coeffs.get(k, 0.0) for k in range(max(coeffs, default=0) + 1)]


def horner(coeffs, n):
    """v -> sum_k coeffs[k] v^k on n lines by in-place Horner (one
    multiply-add for a line polynomial of degree one); the values share a
    buffer the next call reuses."""
    out = np.empty(n)

    def restricted(v):
        out[:] = coeffs[-1]
        for c in coeffs[-2::-1]:
            np.multiply(out, v, out=out)
            np.add(out, c, out=out)
        return out

    return restricted


def bump1d_value(k, t, half_width, order):
    """k-th derivative of the one-dimensional bump (1 - (t/h)^2)^m on |t| < h.

    The bump is C^(m-1) across the support boundary; inside the support all
    derivatives are polynomial and exact.
    """
    polys = _bump1d_polys(order)
    t = np.asarray(t, dtype=float)
    if k >= len(polys):
        return np.zeros_like(t)
    u = np.divide(t, half_width, out=np.empty_like(t))
    outside = ~(np.abs(u) < 1.0)
    np.clip(u, -1.0, 1.0, out=u)  # values outside are dropped; keep them finite
    # Horner in Polynomial.__call__'s operation order, so the values inside
    # the support are bit-identical to polys[k](u) / half_width**k
    coef = polys[k].coef
    out = np.full_like(u, coef[-1])
    for c in coef[-2::-1]:
        out *= u
        out += c
    out /= half_width**k
    out[outside] = 0.0
    return out


@functools.cache
def _bump1d_polys(order):
    polys = [np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** order]
    for _ in range(2 * order):
        polys.append(polys[-1].deriv())
    return polys


class BumpField(SmoothField):
    """Tensor-product polynomial bump supported on [-s, s]^dim.

    Each axis factor is (1 - (t/s)^2)^m, so the field is C^(m-1), vanishes
    outside the support box, and has exact derivatives of every order away
    from the support boundary.
    """

    def __init__(self, dim, support_half_width, order, half_widths=1.0, centers=None):
        super().__init__(dim, half_widths, max_order=2 * order)
        self.support_half_width = float(support_half_width)
        self.order = int(order)
        self.centers = np.zeros(dim) if centers is None else np.asarray(centers, dtype=float)

    def _deriv(self, alpha, pts):
        out = np.ones(pts.shape[:-1])
        for j, a in enumerate(alpha):
            out = out * bump1d_value(a, pts[..., j] - self.centers[j],
                                     self.support_half_width, self.order)
        return out

    @functools.cached_property
    def axis_factors(self):
        """Each axis factor evaluated through a one-dimensional BumpField's
        deriv; factor j at x equals the j-th term of _deriv's product at x_j
        bit for bit.  Built once, so the callables keep their identity."""
        return [lambda x, g=BumpField(1, self.support_half_width, self.order,
                                      self.half_widths[j], self.centers[j:j + 1]):
                g.eval(x[:, None])
                for j in range(self.dim)]


class FDField(SmoothField):
    """Derivative oracle for a user-supplied callable via central differences.

    Order-k derivatives use nested first-order central stencils with a shared
    step h_k = eps^(1/(k+2)) scaled by the box size, which balances truncation
    against rounding for each total order.
    """

    def __init__(self, dim, func, half_widths=1.0, max_order=4):
        super().__init__(dim, half_widths, max_order=max_order)
        self.func = func

    def _deriv(self, alpha, pts):
        k = sum(alpha)
        if k == 0:
            return np.asarray(self.func(pts), dtype=float)
        h = MACHINE_EPS ** (1.0 / (k + 2)) * (1.0 + float(self.half_widths.max()))
        axes = [j for j, a in enumerate(alpha) for _ in range(a)]
        return self._stencil(axes, pts, h) / (2.0 * h) ** k

    def _stencil(self, axes, pts, h):
        if not axes:
            return np.asarray(self.func(pts), dtype=float)
        j, rest = axes[0], axes[1:]
        up = pts.copy()
        up[..., j] += h
        dn = pts.copy()
        dn[..., j] -= h
        return self._stencil(rest, up, h) - self._stencil(rest, dn, h)


def unit_index(dim, j):
    """The multi-index of the first partial along axis j."""
    e = [0] * dim
    e[j] = 1
    return tuple(e)


def multi_indices(dim, max_total):
    """All multi-indices alpha in Z_{>=0}^dim with |alpha| <= max_total."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            for a in range(remaining + 1):
                yield prefix + (a,)
            return
        for a in range(remaining + 1):
            yield from rec(prefix + (a,), remaining - a, slots - 1)
    yield from rec((), max_total, dim)


# ---------------------------------------------------------------------------
# Built-in phase/defining-function pairs
# ---------------------------------------------------------------------------

def example_rho(d, b1):
    """x_1 x_1' + ... + x_{d-1} x_{d-1}' + sum of all coordinates."""
    dim = 2 * d
    terms = {}
    for k in range(d - 1):
        expo = [0] * dim
        expo[k] = 1
        expo[d + k] = 1
        terms[tuple(expo)] = 1.0
    for j in range(dim):
        terms[unit_index(dim, j)] = terms.get(unit_index(dim, j), 0.0) + 1.0
    return PolynomialField(dim, terms, half_widths=b1)


def example_phi_even(d, b1):
    """Pairing phase for even d: x_k x_{d/2+k} + x_k' x_{d/2+k}' with the
    final primed product omitted."""
    if d % 2:
        raise ValueError("even-d phase requires even d")
    dim = 2 * d
    half = d // 2
    terms = {}
    for k in range(half):
        expo = [0] * dim
        expo[k] = 1
        expo[half + k] = 1
        terms[tuple(expo)] = 1.0
        expo = [0] * dim
        expo[d + k] = 1
        expo[d + half + k] = 1
        terms[tuple(expo)] = 1.0
    # drop the last primed product from the pattern
    expo = [0] * dim
    expo[d + half - 1] = 1
    expo[d + d - 1] = 1
    del terms[tuple(expo)]
    return PolynomialField(dim, terms, half_widths=b1)


def example_phi_odd(d, b1):
    """Pairing phase for odd d: x_k x_{(d-1)/2+k} + x_k' x_{(d-1)/2+k}'."""
    if d % 2 == 0:
        raise ValueError("odd-d phase requires odd d")
    dim = 2 * d
    half = (d - 1) // 2
    terms = {}
    for k in range(half):
        expo = [0] * dim
        expo[k] = 1
        expo[half + k] = 1
        terms[tuple(expo)] = 1.0
        expo = [0] * dim
        expo[d + k] = 1
        expo[d + half + k] = 1
        terms[tuple(expo)] = 1.0
    return PolynomialField(dim, terms, half_widths=b1)


def flat_rho(dim, b1):
    """rho = x_dim (last coordinate); M is the flat hyperplane."""
    return PolynomialField(dim, {unit_index(dim, dim - 1): 1.0}, half_widths=b1)


def tilted_rho(dim, b1):
    """rho = sum of all coordinates; M is a tilted hyperplane."""
    return PolynomialField(dim, {unit_index(dim, j): 1.0 for j in range(dim)}, half_widths=b1)


def zero_field(dim, b1):
    return PolynomialField(dim, {}, half_widths=b1)


FIELD_REGISTRY = {
    "paper-even-d2": lambda b1=0.5: (example_rho(2, b1), example_phi_even(2, b1)),
    "paper-odd-d3": lambda b1=0.5: (example_rho(3, b1), example_phi_odd(3, b1)),
    "flat": lambda dim=4, b1=0.5: (flat_rho(dim, b1), zero_field(dim, b1)),
    "tilted": lambda dim=4, b1=0.5: (tilted_rho(dim, b1), zero_field(dim, b1)),
}


# ---------------------------------------------------------------------------
# Text format for polynomial tables
# ---------------------------------------------------------------------------

def parse_polynomial_table(text, dim, half_widths=1.0):
    """Parse the repo text format for polynomial coefficient tables.

    One term per line: ``e_1 e_2 ... e_dim : coefficient``.  Blank lines and
    lines starting with '#' are ignored.
    """
    terms = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'e1 ... e{dim} : coeff', got {raw!r}")
        left, right = line.split(":", 1)
        parts = left.split()
        if len(parts) != dim:
            raise ConfigError(f"line {lineno}: expected {dim} exponents, got {len(parts)}")
        try:
            expo = tuple(int(p) for p in parts)
            coeff = float(right)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        if any(e < 0 for e in expo):
            raise ConfigError(f"line {lineno}: negative exponent")
        terms[expo] = terms.get(expo, 0.0) + coeff
    return PolynomialField(dim, terms, half_widths=half_widths)
