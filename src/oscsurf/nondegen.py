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
    the tests assert, and certify scans one of the two.
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


def _form_basis(d, omega):
    """The determinant as a binary form of degree d-1 in omega = (tt, t).

    nodes holds the d directions (c_k, s_k) = (d-1-k, k): pairwise
    independent, exact in binary, and (1, 0), (0, 1) for d = 2.  basis[k]
    is the homogeneous Lagrange basis on omega,
    ell_k(tt, t) = prod_{i != k} (t c_i - tt s_i) / (s_k c_i - c_k s_i),
    so that det(omega) = sum_k det(nodes[k]) basis[k].
    """
    nodes = np.stack([d - 1 - np.arange(d), np.arange(d)], axis=-1).astype(float)
    c, s = nodes[:, 0], nodes[:, 1]
    tt, tau = omega[:, 0], omega[:, 1]
    basis = np.ones((d, len(omega)))
    for k in range(d):
        for i in range(d):
            if i != k:
                basis[k] *= (tau * c[i] - tt * s[i]) / (s[k] * c[i] - c[k] * s[i])
    return nodes, basis


def _node_dets(inst, p, pts, nodes):
    """The determinant at each point of pts (n, 2d) and each node: (n, d)."""
    return np.linalg.det(bordered_matrix(inst, p, pts[:, None, :],
                                         nodes[:, 0], nodes[:, 1]))


def _halved(parts):
    """(index, partition) for the partitions of parts with 0 in the i-block:
    I and its complement give the same |det|, so the rest adds nothing."""
    return [(k, p) for k, p in enumerate(parts) if 0 in p.i_set]


def _scan(inst, parts, x_grid, circle_pts):
    """Per (x, omega) sample, the largest |det| over parts and the index of
    the partition that gives it: arrays of shape (len(x_grid),
    len(circle_pts)).  Only the partitions with 0 in I are taken."""
    nodes, basis = _form_basis(inst.d, circle_pts)
    best = np.full((len(x_grid), len(circle_pts)), -np.inf)
    best_part = np.zeros(best.shape, dtype=np.int32)
    for k, p in _halved(parts):
        dets = _node_dets(inst, p, x_grid, nodes) @ basis
        np.abs(dets, out=dets)  # in place, as copyto below: no second table
        better = dets > best
        best_part[better] = k
        np.copyto(best, dets, where=better)
    return best, best_part


def certify(inst, x_grid, circle_grid_pts, threshold=1e-10, lipschitz_padding=False):
    """Scan the box grid and circle grid; report the certified floor.

    Deterministic given the grids: for each (x, omega) sample the maximum of
    |det| over all partitions is recorded, and c_lower is the minimum over
    samples.  I and its complement give the same |det|, so only the
    partitions with 0 in I are scanned.  The determinant is a binary form
    of degree d-1 in omega = (tt, t), so each partition's determinant is
    computed at d fixed directions per x and carried to every circle
    direction by its Lagrange basis; the values agree with a determinant
    taken at each omega to a few ulps.  An exact tie between scanned
    partitions goes to the lexicographically smallest i-block (the
    enumeration order).  With lipschitz_padding the report's floor is
    reduced by grid_spacing * (estimated gradient bound of the
    determinant).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    circle_grid_pts = np.asarray(circle_grid_pts, dtype=float)
    if x_grid.size == 0 or circle_grid_pts.size == 0:
        raise ConstraintError("empty certification grid")
    parts = all_partitions(inst.d)
    nx, nw = len(x_grid), len(circle_grid_pts)
    best, best_part = _scan(inst, parts, x_grid, circle_grid_pts)

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
    """Central-difference bound on |d det / d x_j| over n_probe seeded grid
    points, every partition (one of I and its complement), every axis j and
    every direction of circle_pts (the differences are taken at the form's
    nodes)."""
    rng = np.random.default_rng(0)
    sel = rng.choice(len(x_grid), size=min(n_probe, len(x_grid)), replace=False)
    pts = x_grid[sel]
    h = 1e-5
    nodes, basis = _form_basis(inst.d, circle_pts)
    bound = 0.0
    for _, p in _halved(parts):
        for j in range(inst.dim):
            up = pts.copy()
            up[:, j] += h
            dn = pts.copy()
            dn[:, j] -= h
            diff = (_node_dets(inst, p, up, nodes)
                    - _node_dets(inst, p, dn, nodes)) @ basis
            bound = max(bound, float(np.abs(diff).max()) / (2 * h))
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
