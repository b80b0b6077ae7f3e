"""Problem instances: the data (d, b0, b1, rho, Phi, a) plus the admissible
derivative bounds that govern every implicit constant downstream.

The bounds are computed by sampling a tensor grid on the closed box; they
feed tolerances and diagnostics, not proofs, so no interval arithmetic is
attempted.  Monotonicity in the grid density (sup estimates never decrease,
inf estimates never increase when the grid is refined through nested grids)
is tested, not assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, HypothesisError
from .fields import (
    BumpField,
    FIELD_REGISTRY,
    PolynomialField,
    SmoothField,
    multi_indices,
    unit_index,
)

GRADIENT_FLOOR = 1e-8


def _grid_points(dim, b, density):
    # density 1 samples the box center; odd densities nest (3 in 9 in 27...)
    axis = np.zeros(1) if density == 1 else np.linspace(-b, b, density)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _sup_derivatives(fld, max_total, pts):
    """sup over the grid of |d^alpha f| over all |alpha| <= max_total."""
    best = 0.0
    for alpha in multi_indices(fld.dim, max_total):
        if fld.vanishes_above is not None and sum(alpha) > fld.vanishes_above:
            continue
        vals = fld.deriv(alpha, pts)
        best = max(best, float(np.abs(vals).max()))
    return best


@dataclass(eq=False)
class ProblemInstance:
    """Immutable bundle (d, b0, b1, rho, phi, amp) with admissible constants.

    The constants are outputs, set at construction by admissible_constants
    on the grid_density grid: c_rho, the grid sup of the derivatives of rho
    to order 2d+3; axis_inf, the per-axis grid infima of |d_i rho|; and
    c_rho_inv, the reciprocal of axis_inf.min(), inf when that infimum falls
    below the gradient floor.  rho is a PolynomialField: the root solves
    work on its line coefficients.
    """

    d: int
    b0: float
    b1: float
    rho: PolynomialField
    phi: SmoothField
    amp: SmoothField
    grid_density: int = 9
    name: str = "custom"
    c_rho: float = field(init=False)
    c_rho_inv: float = field(init=False)
    axis_inf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise ConstraintError("dimension parameter d must be at least 2")
        if not (0 < self.b0 < self.b1):
            raise ConstraintError("need 0 < b0 < b1")
        if not isinstance(self.rho, PolynomialField):
            raise ConstraintError("rho must be a PolynomialField")
        if self.rho.dim != 2 * self.d:
            raise ConstraintError("rho has wrong dimension")
        need = 2 * self.d + 2
        if min(self.phi.max_order, self.amp.max_order) < need:
            raise ConstraintError(
                f"phi and amp must provide derivatives to order {need}")
        # lenient at construction: degenerate test fields (e.g. the flat
        # hyperplane) are allowed to exist; strict checks live in
        # admissible_constants and in the operations that need them
        self.c_rho, self.c_rho_inv, self.axis_inf = admissible_constants(
            self, self.grid_density, strict=False)

    @property
    def dim(self):
        return 2 * self.d

    def lambda_floor_ok(self, lam):
        """Constraint tying the frequency parameter to the box geometry."""
        return abs(lam) ** -0.5 <= min(self.b1 - self.b0, 1.0)

    def require_lambda(self, lam):
        if not self.lambda_floor_ok(lam):
            raise ConstraintError(
                f"|lambda|^(-1/2) = {abs(lam) ** -0.5:.4g} exceeds "
                f"min(b1 - b0, 1) = {min(self.b1 - self.b0, 1.0):.4g}")

    @functools.cached_property
    def phi_axis_sup(self):
        """Per-axis sup of |d_j Phi| on the 7-point grid over the amplitude
        box, the bound behind the quadrature's phase rates.  Computed on
        first use: a construction-time scan would cost every instance a pass
        over the grid."""
        pts = _grid_points(self.dim, self.b0, 7)
        return np.abs(self.grad_phi(pts)).max(axis=0)

    def grad_rho(self, pts):
        return _gradient(self.rho, pts)

    def grad_phi(self, pts):
        return _gradient(self.phi, pts)


def _gradient(fld, pts):
    pts = np.asarray(pts, dtype=float)
    return np.stack([fld.deriv(unit_index(fld.dim, j), pts)
                     for j in range(fld.dim)], axis=-1)


def admissible_constants(inst, grid_density=9, strict=True):
    """Grid estimates (c_rho, c_rho_inv, axis_inf) on the b1 box: c_rho the
    sup of |d^alpha rho| over |alpha| <= 2d+3, axis_inf the per-axis infima
    of |d_i rho|, c_rho_inv the reciprocal of axis_inf.min().

    Raises HypothesisError when min_i |d_i rho| falls below a positive floor
    anywhere on the grid, since every chart and tangential field downstream
    divides by first partials of rho.  With strict=False the failure is
    reported as c_rho_inv = inf instead.
    """
    if grid_density < 1:
        raise ConstraintError("grid_density must be positive")
    pts = _grid_points(inst.dim, inst.b1, grid_density)
    c_rho = _sup_derivatives(inst.rho, 2 * inst.d + 3, pts)
    axis_inf = np.abs(inst.grad_rho(pts)).min(axis=0)
    worst = float(axis_inf.min())
    if worst < GRADIENT_FLOOR:
        if strict:
            j = int(axis_inf.argmin())
            raise HypothesisError(
                f"min |d_{j + 1} rho| = {worst:.3g} on the sample grid; the "
                "gradient-floor hypothesis fails")
        return c_rho, float("inf"), axis_inf
    return c_rho, 1.0 / worst, axis_inf


def default_amplitude(d, b0, b1, order=None):
    """Tensor bump supported on [-b0, b0]^(2d), positive at the origin."""
    if order is None:
        order = 2 * d + 4
    return BumpField(2 * d, support_half_width=b0, order=order, half_widths=b1)


def make_instance(name, b0=0.3, b1=0.5, d=None, amp=None, grid_density=9,
                  rho=None, phi=None):
    """Build a registered instance, or a custom one from explicit fields."""
    if name == "custom":
        if rho is None:
            raise ConstraintError("custom instance requires rho")
        dd = rho.dim // 2
        phi = phi if phi is not None else PolynomialField(rho.dim, {}, half_widths=b1)
        amp = amp if amp is not None else default_amplitude(dd, b0, b1)
        return ProblemInstance(dd, b0, b1, rho, phi, amp,
                               grid_density=grid_density, name=name)
    if name not in FIELD_REGISTRY:
        raise ConstraintError(f"unknown instance name {name!r}; "
                              f"known: {sorted(FIELD_REGISTRY)} or 'custom'")
    if name == "paper-even-d2":
        rho_f, phi_f = FIELD_REGISTRY[name](b1)
        dd = 2
    elif name == "paper-odd-d3":
        rho_f, phi_f = FIELD_REGISTRY[name](b1)
        dd = 3
    else:
        dd = d if d is not None else 2
        rho_f, phi_f = FIELD_REGISTRY[name](2 * dd, b1)
    if amp is None:
        amp = default_amplitude(dd, b0, b1)
    return ProblemInstance(dd, b0, b1, rho_f, phi_f, amp,
                           grid_density=grid_density, name=name)
