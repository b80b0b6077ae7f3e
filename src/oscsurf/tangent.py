"""Tangential vector fields on M, their surface-measure duals, and the
iterated integration-by-parts machinery.

Two families of fields, both annihilating rho (hence tangent to every level
set):

  projection fields   X_i = d_i - (d_i rho / |grad rho|^2) sum_j (d_j rho) d_j
  rotation fields     X_{j1 j2} = (d_{j2} rho d_{j1} - d_{j1} rho d_{j2}) / norm

The dual operator is taken with respect to the Euclidean surface measure on
M.  For a tangent field X = sum_j c_j d_j acting on compactly supported
functions, integration by parts on M gives

    int_M (X f) g dsigma = int_M f X^+ g dsigma,
    X^+ g = -X g - g * (div c + X(S) / (2 S)),       S = |grad rho|^2.

The ambient-divergence part -X g - g div c alone is the dual for the measure
dx / |grad rho| concentrated on M; the X(S)/(2S) term converts to the
Euclidean surface measure used by the quadrature here (the two differ by the
factor |grad rho|).  Both the pairing identity and the iterated identity
below are exercised to quadrature accuracy in the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, HypothesisError
from .exprs import Const, FieldTerm, Sqrt, add, as_expr, div, evaluate_chunked, mul, scale
from .fields import BumpField, PolynomialField, unit_index
from .geometry import cached_chart
from .instance import GRADIENT_FLOOR

IBP_REFERENCE_NODES = 16


def _psi_boxes(psi, inst, j0):
    """Quadrature box per slice axis: the support of psi clipped to the
    amplitude box, when psi exposes one; otherwise the amplitude box."""
    if isinstance(psi, BumpField):
        half = psi.support_half_width
        boxes = []
        for j in range(inst.dim):
            if j == j0:
                continue
            lo = max(psi.centers[j] - half, -inst.b0)
            hi = min(psi.centers[j] + half, inst.b0)
            boxes.append((lo, hi))
        return boxes
    return [(-inst.b0, inst.b0)] * (inst.dim - 1)


@dataclass(eq=False)
class TangentField:
    """A tangential field: projection kind (index) or rotation kind (pair)."""

    inst: object
    index: int = None
    pair: tuple = None

    def __post_init__(self):
        dim = self.inst.dim
        if (self.index is None) == (self.pair is None):
            raise ConstraintError("specify exactly one of index or pair")
        if self.index is not None and not 0 <= self.index < dim:
            raise ConstraintError("field index out of range")
        if self.pair is not None:
            j1, j2 = self.pair
            if j1 == j2 or not (0 <= j1 < dim and 0 <= j2 < dim):
                raise ConstraintError("rotation pair must be two distinct axes")
        # both kinds divide by gradient data that the gradient-floor
        # hypothesis keeps positive; on degenerate test instances reject
        # fields whose denominators the per-axis grid infima cannot certify
        infs = self.inst.axis_inf
        if self.index is not None:
            ok = float(infs.max()) >= GRADIENT_FLOOR  # |grad rho|^2 >= max_j inf_j^2
        else:
            ok = float(max(infs[self.pair[0]], infs[self.pair[1]])) >= GRADIENT_FLOOR
        if not ok:
            raise HypothesisError(
                "the field's normalizing gradient data vanishes somewhere on "
                "the sample grid (instance corruption)")

    @functools.cached_property
    def _rho_partials(self):
        """The partials d_j rho and S = |grad rho|^2 as expressions."""
        dim = self.inst.dim
        g = [FieldTerm(self.inst.rho, unit_index(dim, j)) for j in range(dim)]
        return g, add(*[mul(gj, gj) for gj in g])

    @functools.cached_property
    def coefficients(self):
        """The coefficient expressions c_j with X = sum_j c_j d_j."""
        dim = self.inst.dim
        g, S = self._rho_partials
        if self.index is not None:
            i = self.index
            coeffs = []
            for j in range(dim):
                c = div(mul(g[i], g[j]), S)
                if j == i:
                    coeffs.append(add(Const(1.0, dim), scale(c, -1.0)))
                else:
                    coeffs.append(scale(c, -1.0))
            return coeffs
        j1, j2 = self.pair
        norm = Sqrt(add(mul(g[j1], g[j1]), mul(g[j2], g[j2])))
        coeffs = [Const(0.0, dim) for _ in range(dim)]
        coeffs[j1] = div(g[j2], norm)
        coeffs[j2] = scale(div(g[j1], norm), -1.0)
        return coeffs

    @functools.cached_property
    def _dual_multiplier(self):
        """div c + X(S)/(2S); the zeroth-order part of the dual operator."""
        S = self._rho_partials[1]
        coeffs = self.coefficients
        div_c = add(*[c.d(j) for j, c in enumerate(coeffs)])
        xs = add(*[mul(c, S.d(j)) for j, c in enumerate(coeffs)])
        return add(div_c, div(xs, scale(S, 2.0)))

    def apply(self, f):
        """X f as an expression; f may be a SmoothField or an expression."""
        f = as_expr(f)
        coeffs = self.coefficients
        return add(*[mul(c, f.d(j)) for j, c in enumerate(coeffs)])

    def apply_dual(self, f):
        """X^+ f = -X f - f (div c + X(S)/(2S)), dual w.r.t. dsigma."""
        f = as_expr(f)
        return add(scale(self.apply(f), -1.0),
                   scale(mul(f, self._dual_multiplier), -1.0))

    def tangency_residual(self, pts):
        """X rho, identically zero in exact arithmetic."""
        return self.apply(self.inst.rho).value(np.asarray(pts, dtype=float))


def phase_with_modulation(inst, lam, xi):
    """The phase lambda * Phi + 2 pi xi . x as an expression."""
    dim = inst.dim
    xi = np.asarray(xi, dtype=float)
    terms = [scale(as_expr(inst.phi), lam)]
    for j in range(dim):
        if xi[j] != 0.0:
            x_j = PolynomialField(dim, {unit_index(dim, j): 1.0},
                                  half_widths=inst.b1)
            terms.append(scale(FieldTerm(x_j, (0,) * dim), 2.0 * np.pi * xi[j]))
    return add(*terms)


# ---------------------------------------------------------------------------
# Iterated integration by parts
# ---------------------------------------------------------------------------

@dataclass
class IBPReport:
    N: int
    lhs: complex
    rhs: complex
    rel_error: float


def l_operator(field, phase, k_tilde, psi):
    """L psi = X^+ psi - (i X phase - K) psi."""
    psi = as_expr(psi)
    phase = as_expr(phase)
    bracket = add(scale(field.apply(phase), 1j),
                  Const(-complex(k_tilde), psi.dim))
    return add(field.apply_dual(psi), scale(mul(bracket, psi), -1.0))


def _integrate_surface(f, phase, chart):
    """int_M e^{i phase} f dsigma on the chart; f an expression or a field."""
    osc = np.exp(1j * evaluate_chunked(as_expr(phase), chart.points))
    vals = evaluate_chunked(as_expr(f), chart.points)
    return complex(np.sum(chart.weights * osc * vals))


def ibp_identity_check(inst, phase, psi, field, k_tilde, N,
                       nodes=IBP_REFERENCE_NODES, boxes=None, j0=None):
    """Both sides of the iterated identity

        int e^{i phase} psi dsigma = K^{-N} int e^{i phase} L^N psi dsigma

    by surface quadrature on the chart over axis j0 (default the last) and
    the slice boxes (default the support of psi); L is applied by exact
    nested expansion.  With k_tilde None the shift is chosen as i X(phase)
    at the chart point nearest the box center, which keeps L well scaled on
    the support.
    """
    if k_tilde == 0:
        raise ConstraintError("the shift constant must be nonzero")
    if not 1 <= N <= 3:
        raise ConstraintError("iterated identity supported for N in 1..3")
    if j0 is None:
        j0 = inst.dim - 1
    if boxes is None:
        boxes = _psi_boxes(psi, inst, j0)
    chart = cached_chart(inst, j0, boxes, nodes)
    if k_tilde is None:
        center = np.array([0.5 * (lo + hi) for lo, hi in boxes])
        slice_pts = np.delete(chart.points, j0, axis=1)
        anchor = chart.points[int(np.argmin(np.sum((slice_pts - center) ** 2,
                                                   axis=1)))]
        k_tilde = 1j * complex(field.apply(as_expr(phase)).value(anchor[None, :])[0])
        if k_tilde == 0:
            k_tilde = 1j

    lhs = _integrate_surface(psi, phase, chart)
    ln_psi = as_expr(psi)
    for _ in range(N):
        ln_psi = l_operator(field, phase, k_tilde, ln_psi)
    rhs = complex(k_tilde) ** (-N) * _integrate_surface(ln_psi, phase, chart)
    floor = 1e-30
    rel = abs(lhs - rhs) / max(abs(lhs), floor)
    return IBPReport(N=N, lhs=lhs, rhs=rhs, rel_error=rel)
