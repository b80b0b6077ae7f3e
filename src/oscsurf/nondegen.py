"""The bordered-determinant nondegeneracy certificate and the associated
change-of-variables map.

For a partition of the 2d coordinates into index sets I = (i_1..i_d) and
J = (j_1..j_d) and a direction (tt, t) on the circle, the certificate
determinant is the (d+1) x (d+1) matrix

    [ d_{i_k} rho   |  d^2_{i_k j_l} (tt Phi + t rho) ]
    [      0        |  d_{j_l} rho                    ]

The certificate scans x over the box and (tt, t) over the circle and reports
the minimum over samples of the maximum over partitions of |det|; the main
hypothesis asks for a positive lower bound.

The companion map Psi_{v,lambda}(u, tau) = (rho, lambda grad_J Phi +
tau grad_J rho) has Jacobian with the same bordered structure, homogeneous
of degree d-1 in (lambda, tau); the homogeneity probe measures |det| of
that Jacobian along rays in (lambda, tau).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError
from .fields import unit_index
from .instance import _grid_points


@dataclass(frozen=True)
class Partition:
    """Disjoint index sets of size d covering range(2d), canonically sorted."""

    i_set: tuple
    j_set: tuple

    def __post_init__(self):
        object.__setattr__(self, "i_set", tuple(sorted(self.i_set)))
        object.__setattr__(self, "j_set", tuple(sorted(self.j_set)))
        if len(self.i_set) != len(self.j_set):
            raise ConstraintError("partition blocks must have equal size")
        both = sorted(self.i_set + self.j_set)
        if both != list(range(len(both))):
            raise ConstraintError("partition blocks must tile 0..2d-1")


def all_partitions(d):
    """Every split of range(2d) into an ordered pair (I, J) of d-sets.

    I and its complement appear once each as the i-block; the swap changes
    the determinant only by a structural transpose (same magnitude), which
    the tests assert rather than assume.
    """
    idx = range(2 * d)
    out = []
    for i_set in itertools.combinations(idx, d):
        j_set = tuple(k for k in idx if k not in i_set)
        out.append(Partition(i_set, j_set))
    return out


def circle_grid(n=64):
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _hessian(fld, idx_rows, idx_cols, pts):
    dim = fld.dim
    out = np.empty(pts.shape[:-1] + (len(idx_rows), len(idx_cols)))
    for a, i in enumerate(idx_rows):
        for b, j in enumerate(idx_cols):
            alpha = [0] * dim
            alpha[i] += 1
            alpha[j] += 1
            out[..., a, b] = fld.deriv(tuple(alpha), pts)
    return out


def _partials(fld, idx, pts):
    out = np.empty(pts.shape[:-1] + (len(idx),))
    for a, i in enumerate(idx):
        out[..., a] = fld.deriv(unit_index(fld.dim, i), pts)
    return out


def bordered_matrix(inst, p, pts, tt, tau):
    """The certificate matrix, batched over points and circle directions.

    pts: (..., 2d); tt, tau broadcast against the batch shape.
    """
    d = inst.d
    pts = np.asarray(pts, dtype=float)
    tt = np.asarray(tt, dtype=float)
    tau = np.asarray(tau, dtype=float)
    hess = (tt[..., None, None] * _hessian(inst.phi, p.i_set, p.j_set, pts)
            + tau[..., None, None] * _hessian(inst.rho, p.i_set, p.j_set, pts))
    shape = np.broadcast_shapes(pts.shape[:-1], tt.shape, tau.shape)
    mat = np.zeros(shape + (d + 1, d + 1))
    mat[..., :d, 0] = _partials(inst.rho, p.i_set, pts)
    mat[..., :d, 1:] = hess
    mat[..., d, 1:] = _partials(inst.rho, p.j_set, pts)
    return mat


@dataclass
class NondegeneracyReport:
    """Certificate scan result.

    c_lower is min over samples of max over partitions of |det|.  witness
    records, for the minimizing sample, the sample and its best partition;
    failures lists samples where every partition falls below the threshold.
    """

    c_lower: float
    threshold: float
    partitions: list
    witness: dict
    failures: list = field(default_factory=list)
    n_samples: int = 0

    @property
    def ok(self):
        return not self.failures


def box_grid(inst, density):
    """The instance's sample grid over [-b1, b1]^(2d); density 1 is the
    center."""
    return _grid_points(inst.dim, inst.b1, density)


_CERTIFY_ROWS = 256  # x points per block of the certificate scan


def certify(inst, x_grid, circle_grid_pts, threshold=1e-10, lipschitz_padding=False):
    """Scan the box grid and circle grid; report the certified floor.

    Deterministic given the grids: for each (x, omega) sample the maximum of
    |det| over all partitions is recorded (ties broken by lexicographically
    smallest i-block, which the enumeration order provides), and c_lower is
    the minimum over samples.  With lipschitz_padding the report's floor is
    reduced by grid_spacing * (estimated gradient bound of the determinant).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    circle_grid_pts = np.asarray(circle_grid_pts, dtype=float)
    if x_grid.size == 0 or circle_grid_pts.size == 0:
        raise ConstraintError("empty certification grid")
    parts = all_partitions(inst.d)
    nx, nw = len(x_grid), len(circle_grid_pts)

    best = np.full((nx, nw), -np.inf)
    best_part = np.zeros((nx, nw), dtype=np.int32)
    tt = circle_grid_pts[None, :, 0]
    tau = circle_grid_pts[None, :, 1]
    # one block of x rows at a time: a row's matrices and determinants do
    # not depend on the other rows, and the block's matrices stay small
    for i in range(0, nx, _CERTIFY_ROWS):
        rows = slice(i, i + _CERTIFY_ROWS)
        for k, p in enumerate(parts):
            mats = bordered_matrix(inst, p, x_grid[rows, None, :], tt, tau)
            dets = np.abs(np.linalg.det(mats))
            better = dets > best[rows]
            best_part[rows][better] = k
            best[rows][better] = dets[better]

    flat = best.reshape(-1)
    imin = int(flat.argmin())
    ix, iw = divmod(imin, nw)
    c_lower = float(flat[imin])

    if lipschitz_padding and nx > 1:
        spacing = 2.0 * inst.b1 / (round(nx ** (1.0 / inst.dim)) - 1)
        grad_bound = _det_gradient_estimate(inst, parts, x_grid, circle_grid_pts)
        c_lower = max(0.0, c_lower - spacing * grad_bound)

    fail_idx = np.argwhere(best < threshold)
    failures = [
        {"x": x_grid[i].tolist(),
         "omega": circle_grid_pts[j].tolist(),
         "max_abs_det": float(best[i, j])}
        for i, j in fail_idx[:1000]
    ]
    witness = {
        "x": x_grid[ix].tolist(),
        "omega": circle_grid_pts[iw].tolist(),
        "partition": parts[int(best_part[ix, iw])],
        "abs_det": float(best[ix, iw]),
    }
    return NondegeneracyReport(c_lower=c_lower, threshold=threshold,
                               partitions=parts, witness=witness,
                               failures=failures, n_samples=nx * nw)


def _det_gradient_estimate(inst, parts, x_grid, circle_pts, n_probe=64):
    rng = np.random.default_rng(0)
    sel = rng.choice(len(x_grid), size=min(n_probe, len(x_grid)), replace=False)
    pts = x_grid[sel]
    h = 1e-5
    bound = 0.0
    w = circle_pts[0]
    for p in parts:
        for j in range(inst.dim):
            up = pts.copy()
            up[:, j] += h
            dn = pts.copy()
            dn[:, j] -= h
            dets_up = np.linalg.det(bordered_matrix(inst, p, up, w[0], w[1]))
            dets_dn = np.linalg.det(bordered_matrix(inst, p, dn, w[0], w[1]))
            bound = max(bound, float(np.abs(dets_up - dets_dn).max()) / (2 * h))
    return bound


# ---------------------------------------------------------------------------
# The change-of-variables map and its Jacobian
# ---------------------------------------------------------------------------

def _assemble_from_blocks(p, u, v, dim):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.empty(u.shape[:-1] + (dim,))
    for a, i in enumerate(p.i_set):
        out[..., i] = u[..., a]
    for a, j in enumerate(p.j_set):
        out[..., j] = v[..., a]
    return out


def psi_map(inst, p, v_fixed, lam, u, tau):
    """(rho(x), lambda grad_J Phi(x) + tau grad_J rho(x)) with x assembled
    from the moving block u on the i-set and the frozen block v on the j-set."""
    x = _assemble_from_blocks(p, u, v_fixed, inst.dim)
    if np.any(np.abs(x) > inst.b1):
        raise ConstraintError("assembled point leaves the box")
    pts = np.atleast_2d(x)
    rho = inst.rho.eval(pts)
    gphi = _partials(inst.phi, p.j_set, pts)
    grho = _partials(inst.rho, p.j_set, pts)
    out = np.concatenate([rho[..., None], lam * gphi + tau * grho], axis=-1)
    return out[0] if np.asarray(u).ndim == 1 else out


def psi_jacobian(inst, p, v_fixed, lam, u, tau):
    """Analytic Jacobian of the map w.r.t. (u, tau): the transposed
    certificate matrix with the circle direction replaced by (lambda, tau)."""
    x = _assemble_from_blocks(p, u, v_fixed, inst.dim)
    return np.swapaxes(bordered_matrix(inst, p, x, lam, tau), -1, -2)


def jacobian_homogeneity_probe(inst, p, v_fixed, u, lambda_tau_pairs):
    """|det dPsi/d(u,tau)| / (lambda^2 + tau^2)^((d-1)/2) per pair.

    Exact homogeneity of degree d-1 makes the ratio constant along rays
    through the origin.  A near-singular pair gives a ratio near zero; the
    caller decides what that means (criterion 6 counts such samples).
    """
    ratios = []
    for lam, tau in lambda_tau_pairs:
        if lam == 0.0 and tau == 0.0:
            raise ConstraintError("(lambda, tau) must be nonzero")
        jac = psi_jacobian(inst, p, v_fixed, lam, u, tau)
        det = abs(float(np.linalg.det(jac)))
        ratios.append(det / (lam**2 + tau**2) ** ((inst.d - 1) / 2.0))
    return ratios
