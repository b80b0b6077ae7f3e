"""Graph parametrization of the zero set M = {rho = 0} and quadrature on it.

Because every first partial of rho is bounded away from zero, M meets each
line parallel to a coordinate axis at most once, so M is globally a graph
x_{j0} = Psi(slice) over any coordinate slice.  A surface integral is a
weighted sum over slice points (a tensor Gauss-Legendre grid here, Sobol
blocks in the kernel module), lifted to M by chart_on_surface, which folds in
the graph density (1 + |grad Psi|^2)^(1/2); slice points whose axis segment
does not cross M contribute zero.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, NonConvergenceError, NoRootError
from .fields import horner

DEFAULT_TOL_SCALE = 1e-12
_NEWTON_MAX = 80


def graph_solve_grid(inst, j0, slice_pts, tol=None):
    """Vectorized root solve of rho = 0 along axis j0 over slice points.

    Returns (values, found): the solved coordinate per slice point and a mask
    of points whose axis segment inside the box actually crosses M.  Clipped
    Newton iteration on rho's restriction to the axis lines, its value and
    its chart-axis derivative both by Horner on the coefficient arrays of
    rho.line_coefficients; monotonicity of rho along the axis guarantees a
    bracket whenever the endpoint signs differ.  Newton stops at
    |rho| <= tol / 2 on the Horner values, which round differently from
    rho.eval's; a found point with |rho.eval| > tol at its assembled root
    raises NonConvergenceError.
    """
    dim = inst.dim
    if not 0 <= j0 < dim:
        raise ConstraintError(f"axis index {j0} out of range for dimension {dim}")
    if tol is None:
        tol = DEFAULT_TOL_SCALE * (1.0 + abs(inst.b1))
    slice_pts = np.asarray(slice_pts, dtype=float)
    b = inst.b1
    n = slice_pts.shape[0]
    coeffs = inst.rho.line_coefficients(j0, slice_pts)
    rho = horner(coeffs, n)
    d_rho = horner([k * c for k, c in enumerate(coeffs)][1:] or [0.0], n)

    f_lo = rho(-b).copy()  # the next call reuses the buffer
    f_hi = rho(b)
    found = np.sign(f_lo) != np.sign(f_hi)
    found |= (f_lo == 0.0) | (f_hi == 0.0)

    x = np.zeros(n)
    for _ in range(_NEWTON_MAX):
        f = rho(x)
        active = found & (np.abs(f) > 0.5 * tol)
        if not np.any(active):
            break
        df = d_rho(x)
        step = np.where(active, f / np.where(df == 0.0, 1.0, df), 0.0)
        x = np.clip(x - step, -b, b)
    residual = inst.rho.eval(np.insert(slice_pts[found], j0, x[found], axis=1))
    missed = np.count_nonzero(~(np.abs(residual) <= tol))
    if missed:
        raise NonConvergenceError(
            f"root solve along axis {j0}: {missed} of {found.sum()} points "
            f"left |rho| > {tol:.3g} after {_NEWTON_MAX} Newton steps")
    return x, found


def graph_solve(inst, j0, slice_point, tol=None):
    """Solve for the j0 coordinate of the unique point of M over one slice
    point.  Raises NoRootError when rho has constant sign along the segment."""
    slice_point = np.asarray(slice_point, dtype=float)
    if slice_point.shape != (inst.dim - 1,):
        raise ConstraintError(
            f"slice point must have {inst.dim - 1} coordinates")
    vals, found = graph_solve_grid(inst, j0, slice_point[None, :], tol=tol)
    if not bool(found[0]):
        raise NoRootError(
            f"rho has constant sign along axis {j0} over this slice point")
    return float(vals[0])


def grad_psi(inst, j0, points_on_m):
    """Gradient of the graph function at points of M: -d_j rho / d_{j0} rho."""
    grad = inst.grad_rho(points_on_m)
    return -np.delete(grad, j0, axis=-1) / grad[..., j0:j0 + 1]


@functools.cache
def _legendre_rule(n):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(n, lo, hi):
    """n-node Gauss-Legendre rule on [lo, hi], as fresh arrays.  The [-1, 1]
    rule (an eigenvalue solve) is computed once per n."""
    x, w = _legendre_rule(int(n))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


@dataclass(eq=False)
class SurfaceChart:
    """Quadrature nodes on M over a slice box, with density-weighted weights.

    points: (n, 2d) nodes on M (only where the graph exists); weights include
    the slice quadrature weight times (1 + |grad Psi|^2)^(1/2).  kept marks
    the slice points whose axis segment crosses M.  A tensor chart also
    carries nodes_per_axis, the grid shape, and slice_nodes, the 1-D nodes of
    each slice axis; kept then has the grid shape.
    """

    j0: int
    points: np.ndarray
    weights: np.ndarray
    kept: np.ndarray = None
    nodes_per_axis: tuple = ()
    slice_nodes: tuple = ()

    def integrate(self, values):
        return complex(np.sum(self.weights * values))

    def line_values(self, j, g):
        """g(x_j) at the nodes of a tensor chart, for a function g of
        coordinate j alone.  A slice coordinate takes one value per node of
        its axis, so g runs on those nodes and is gathered to the kept
        points; each gathered value is g's value at that point, bit for
        bit."""
        if j == self.j0:
            return g(self.points[:, j])
        k = j - (j > self.j0)
        shape = [1] * len(self.slice_nodes)
        shape[k] = -1
        on_axis = g(self.slice_nodes[k]).reshape(shape)
        return np.broadcast_to(on_axis, self.kept.shape)[self.kept]


def chart_on_surface(inst, j0, slice_pts, weights):
    """Lift weighted slice points to M: solve for the j0 coordinate, drop
    points whose axis segment misses M, and fold the graph density into the
    weights."""
    vals, found = graph_solve_grid(inst, j0, slice_pts)
    pts = np.insert(slice_pts[found], j0, vals[found], axis=1)
    g = grad_psi(inst, j0, pts)
    density = np.sqrt(1.0 + np.sum(g * g, axis=-1))
    return SurfaceChart(j0=j0, points=pts, weights=weights[found] * density,
                        kept=found)


def build_chart(inst, j0, boxes, nodes_per_axis, rows=slice(None)):
    """Tensor Gauss-Legendre chart on M over the slice box.

    boxes: per-slice-axis (lo, hi) pairs, 2d-1 of them in slice order (the
    j0 axis removed).  nodes_per_axis: int or per-axis counts.  rows, a
    slice of the first slice axis's nodes, restricts the chart to that slab
    of the grid; its nodes_per_axis, kept and slice_nodes are then the
    slab's own.
    """
    dim = inst.dim
    boxes = [(float(lo), float(hi)) for lo, hi in boxes]
    if len(boxes) != dim - 1:
        raise ConstraintError("need one (lo, hi) box per slice axis")
    if np.isscalar(nodes_per_axis):
        nodes_per_axis = (int(nodes_per_axis),) * (dim - 1)

    axes, wts = zip(*(gauss_legendre(int(n), lo, hi)
                      for (lo, hi), n in zip(boxes, nodes_per_axis)))
    axes = (axes[0][rows],) + axes[1:]
    wts = (wts[0][rows],) + wts[1:]
    nodes_per_axis = tuple(len(x) for x in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    slice_pts = np.stack([m.ravel() for m in mesh], axis=-1)
    weights = np.ones(slice_pts.shape[0])
    for wm in np.meshgrid(*wts, indexing="ij"):
        weights = weights * wm.ravel()
    chart = chart_on_surface(inst, j0, slice_pts, weights)
    chart.kept = chart.kept.reshape(nodes_per_axis)
    chart.nodes_per_axis = nodes_per_axis
    chart.slice_nodes = axes
    return chart


BLOCK_NODES = 1 << 16  # slice points per block of a blockwise surface rule


def tensor_integral(inst, j0, boxes, nodes_per_axis, values):
    """The tensor Gauss-Legendre rule of build_chart, one slab of rows of
    the first slice axis at a time: (sum of weights * values(chart), number
    of kept nodes).

    values maps a chart to its integrand at chart.points.  Each slab has
    about BLOCK_NODES grid nodes (at least one row); its weighted values go
    into one array in grid order and are summed once.  The result equals
    build_chart(...).integrate(values(chart)) on the whole grid bit for bit
    only when values gives each point the same bits whatever the chart's
    size.  The lab's integrand does not: in vals * line(j, f) numpy
    multiplies into a temporary right operand of 16,384 elements or more in
    place, as f * vals, and below that as vals * f, and the two orders of a
    complex product round differently.  So the slab boundaries are part of
    the result's bits.  Memory is 16 B per grid node plus one slab's chart.
    """
    counts = np.broadcast_to(nodes_per_axis, (inst.dim - 1,))
    n_rows, per_row = int(counts[0]), int(np.prod(counts[1:]))
    step = max(1, BLOCK_NODES // per_row)
    out = np.empty(n_rows * per_row, dtype=complex)
    n_kept = 0
    for start in range(0, n_rows, step):
        chart = build_chart(inst, j0, boxes, nodes_per_axis,
                            rows=slice(start, start + step))
        k = len(chart.points)
        out[n_kept:n_kept + k] = chart.weights * values(chart)
        n_kept += k
    return complex(np.sum(out[:n_kept])), n_kept


_CHART_CACHE_NODES = 2_000_000
# per instance, charts keyed on the quadrature geometry in LRU order; an
# instance's charts die with it
_CHARTS = weakref.WeakKeyDictionary()


def cached_chart(inst, j0, boxes, nodes_per_axis):
    """Chart cache keyed on the instance and the quadrature geometry.

    Charts are immutable.  Each instance's cache holds at most
    _CHART_CACHE_NODES chart nodes in all, evicting least-recently-used
    charts; a chart larger than that is built and returned but not kept.
    """
    key = (j0, tuple((round(lo, 14), round(hi, 14)) for lo, hi in boxes),
           tuple(np.atleast_1d(nodes_per_axis).tolist()))
    cache = _CHARTS.setdefault(inst, {})
    if key in cache:
        chart = cache.pop(key)
        cache[key] = chart  # refresh LRU order
        return chart
    chart = build_chart(inst, j0, boxes, nodes_per_axis)
    if len(chart.points) <= _CHART_CACHE_NODES:
        cache[key] = chart
        total = sum(len(c.points) for c in cache.values())
        while total > _CHART_CACHE_NODES:
            total -= len(cache.pop(next(iter(cache))).points)
    return chart

