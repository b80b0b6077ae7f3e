import math
import warnings

import numpy as np
import pytest

from oscsurf.errors import ConstraintError
from oscsurf.fields import PolynomialField
from oscsurf.instance import make_instance
from oscsurf.nondegen import (
    Partition,
    _det_gradient_estimate,
    _scan,
    all_partitions,
    bordered_matrix,
    box_grid,
    certify,
    circle_grid,
    jacobian_homogeneity_probe,
    psi_jacobian,
    psi_map,
)


@pytest.fixture(scope="module")
def paper():
    return make_instance("paper-even-d2", b0=0.3, b1=0.5)


@pytest.fixture(scope="module")
def paper3():
    return make_instance("paper-odd-d3", b0=0.3, b1=0.5)


@pytest.fixture(scope="module")
def degenerate():
    # Phi = 0 with constant-gradient rho: every certificate determinant
    # vanishes at omega = (1, 0)
    return make_instance("tilted", b0=0.3, b1=0.5)


P_MIXED = Partition((0, 2), (1, 3))    # {x1, x1'} vs {x2, x2'}
P_SPLIT = Partition((0, 1), (2, 3))    # {x1, x2} vs {x1', x2'}


def test_partition_validation():
    with pytest.raises(ConstraintError):
        Partition((0, 1), (1, 2))      # overlap
    with pytest.raises(ConstraintError):
        Partition((0,), (1, 2, 3))     # unequal sizes
    with pytest.raises(ConstraintError):
        Partition((0, 5), (1, 2))      # not a tiling of 0..3


def test_all_partitions_count():
    assert len(all_partitions(2)) == math.comb(4, 2)
    assert len(all_partitions(3)) == math.comb(6, 3)


def test_paper_determinant_mixed_partition(paper):
    rng = np.random.default_rng(1)
    xs = rng.uniform(-0.5, 0.5, size=(1000, 4))
    ang = rng.uniform(0, 2 * np.pi, size=1000)
    tts, taus = np.cos(ang), np.sin(ang)
    dets = np.linalg.det(bordered_matrix(paper, P_MIXED, xs, tts, taus))
    ref = -(1.0 + xs[:, 0]) * tts
    assert np.max(np.abs(dets - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-10


def test_paper_determinant_split_partition(paper):
    rng = np.random.default_rng(2)
    xs = rng.uniform(-0.5, 0.5, size=(1000, 4))
    ang = rng.uniform(0, 2 * np.pi, size=1000)
    tts, taus = np.cos(ang), np.sin(ang)
    dets = np.linalg.det(bordered_matrix(paper, P_SPLIT, xs, tts, taus))
    assert np.max(np.abs(dets - (-taus)) / np.maximum(np.abs(taus), 1.0)) < 1e-10


def test_zero_phase_zero_determinant(degenerate):
    val = np.linalg.det(bordered_matrix(degenerate, P_MIXED, np.zeros(4),
                                        1.0, 0.0))
    assert val == 0.0


def test_partition_swap_preserves_magnitude(paper):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-0.5, 0.5, size=(200, 4))
    ang = rng.uniform(0, 2 * np.pi, size=200)
    tts, taus = np.cos(ang), np.sin(ang)
    for p in (P_MIXED, P_SPLIT):
        swapped = Partition(p.j_set, p.i_set)
        a = np.abs(np.linalg.det(bordered_matrix(paper, p, xs, tts, taus)))
        b = np.abs(np.linalg.det(bordered_matrix(paper, swapped, xs, tts, taus)))
        assert np.max(np.abs(a - b)) < 1e-12


def test_certify_paper_floor(paper):
    rep = certify(paper, box_grid(paper, 9), circle_grid(64))
    oracle = 0.5 / math.sqrt(1.25)  # min over circle of max(0.5|tt|, |t|)
    assert rep.ok
    assert rep.c_lower >= oracle - 1e-12
    assert rep.c_lower >= 0.44


def test_certify_monotone_under_refinement(paper):
    coarse = certify(paper, box_grid(paper, 3), circle_grid(16))
    fine = certify(paper, box_grid(paper, 9), circle_grid(64))
    # the 3-point grid nests in the 9-point grid, 16 angles in 64
    assert fine.c_lower <= coarse.c_lower + 1e-15


@pytest.mark.parametrize("density", [3, 5])
def test_certify_lipschitz_padding_lowers_the_floor(paper, density):
    grid, circle = box_grid(paper, density), circle_grid(8)
    plain = certify(paper, grid, circle)
    padded = certify(paper, grid, circle, lipschitz_padding=True)
    spacing = 2.0 * paper.b1 / (density - 1)
    bound = _det_gradient_estimate(paper, all_partitions(paper.d), grid, circle)
    assert bound > 0.0
    assert padded.c_lower == max(0.0, plain.c_lower - spacing * bound)
    assert padded.c_lower <= plain.c_lower
    # a single sample has no spacing to pad by
    center = box_grid(paper, 1)
    assert (certify(paper, center, circle, lipschitz_padding=True).c_lower
            == certify(paper, center, circle).c_lower)


def _cubic_perturbation(eps):
    """paper-even-d2 with rho + eps q and Phi + eps p, q = x4^3 + x1^2 x4 +
    x2 x3 x4 and p = x1^3 + x3^2 x4 + x1 x2 x3: a perturbation that is not
    affine along the axes."""
    base = make_instance("paper-even-d2", b0=0.3, b1=0.5)

    def plus(terms, extra):
        out = dict(terms)
        for expo, coeff in extra.items():
            out[expo] = out.get(expo, 0.0) + eps * coeff
        return PolynomialField(4, out, half_widths=0.5)

    rho = plus(base.rho.terms, {(0, 0, 0, 3): 1.0, (2, 0, 0, 1): 1.0,
                                (0, 1, 1, 1): 1.0})
    phi = plus(base.phi.terms, {(3, 0, 0, 0): 1.0, (0, 0, 2, 1): 1.0,
                                (1, 1, 1, 0): 1.0})
    return make_instance("custom", b0=0.3, b1=0.5, rho=rho, phi=phi)


def _scan_one_shot(inst, x_grid, circle):
    """The per-(x, omega) scan: each partition's determinant at every
    sample of the grid, one matrix per sample.  Returns the best |det| and
    the best partition per (x, omega) sample."""
    best = np.full((len(x_grid), len(circle)), -np.inf)
    best_part = np.zeros(best.shape, dtype=np.int32)
    for k, p in enumerate(all_partitions(inst.d)):
        mats = bordered_matrix(inst, p, x_grid[:, None, :],
                               circle[None, :, 0], circle[None, :, 1])
        dets = np.abs(np.linalg.det(mats))
        better = dets > best
        best_part = np.where(better, k, best_part)
        best = np.where(better, dets, best)
    return best, best_part


# certify carries d determinants per point to the circle through the
# form's Lagrange basis, which scales their rounding by at most sqrt(2)
# (d = 2) or 3 (d = 3) against |det| at a unit direction; |det| is O(1)
# on these instances, and 1e-14 is 45 ulps of 1
AGREE_ABS = 1e-14


@pytest.mark.parametrize("name, density", [
    ("paper-even-d2", 9), ("paper-odd-d3", 3), (0.1, 9), (0.3, 9)])
def test_certify_agrees_with_the_per_direction_scan(name, density):
    inst = (_cubic_perturbation(name) if isinstance(name, float)
            else make_instance(name, b0=0.3, b1=0.5))
    grid, circle = box_grid(inst, density), circle_grid(64)
    best, _ = _scan_one_shot(inst, grid, circle)
    scanned = _scan(inst, all_partitions(inst.d), grid, circle)[0]
    assert np.abs(scanned - best).max() <= AGREE_ABS
    # a threshold in the first gap of the reference values wider than
    # 2 * AGREE_ABS above the 100 smallest: both scans fail the same set
    ranked = np.sort(best, axis=None)
    gaps = np.flatnonzero(np.diff(ranked) > 2 * AGREE_ABS) + 1
    n_fail = int(gaps[gaps >= 100][0])
    threshold = 0.5 * (ranked[n_fail - 1] + ranked[n_fail])
    assert np.array_equal(scanned < threshold, best < threshold)
    rep = certify(inst, grid, circle, threshold=threshold)
    failed = np.argwhere(best < threshold)
    assert len(failed) == n_fail
    assert len(rep.failures) == min(n_fail, 1000)
    for f, (i, j) in zip(rep.failures, failed):
        assert f["x"] == grid[i].tolist() and f["omega"] == circle[j].tolist()
        assert abs(f["max_abs_det"] - best[i, j]) <= AGREE_ABS
    assert abs(rep.c_lower - best.min()) <= AGREE_ABS
    ix = int(np.flatnonzero((grid == rep.witness["x"]).all(axis=1))[0])
    iw = int(np.flatnonzero((circle == rep.witness["omega"]).all(axis=1))[0])
    assert best[ix, iw] <= best.min() + AGREE_ABS
    assert abs(rep.witness["abs_det"] - best[ix, iw]) <= AGREE_ABS


def test_certify_takes_d_determinants_per_point_and_partition(paper, monkeypatch):
    # the form's d nodes per x, not one matrix per (x, omega) sample, and
    # only the partitions with 0 in I: the complement has the same |det|
    import oscsurf.nondegen as nd
    original, rows = nd.bordered_matrix, []

    def counted(inst, p, pts, tt, tau):
        mat = original(inst, p, pts, tt, tau)
        rows.append(int(np.prod(mat.shape[:-2])))
        return mat

    monkeypatch.setattr(nd, "bordered_matrix", counted)
    grid = box_grid(paper, 9)
    nd.certify(paper, grid, circle_grid(64))
    assert rows == [paper.d * len(grid)] * 3
    assert len(all_partitions(paper.d)) == 6


def _gradient_at_direction(inst, parts, x_grid, w, n_probe=64):
    """The padding's central-difference gradient bound with omega fixed at
    w, one determinant per probe point and direction."""
    rng = np.random.default_rng(0)
    sel = rng.choice(len(x_grid), size=min(n_probe, len(x_grid)), replace=False)
    pts, h, bound = x_grid[sel], 1e-5, 0.0
    for p in parts:
        for j in range(inst.dim):
            up, dn = pts.copy(), pts.copy()
            up[:, j] += h
            dn[:, j] -= h
            diff = (np.linalg.det(bordered_matrix(inst, p, up, w[0], w[1]))
                    - np.linalg.det(bordered_matrix(inst, p, dn, w[0], w[1])))
            bound = max(bound, float(np.abs(diff).max()) / (2 * h))
    return bound


def test_lipschitz_bound_covers_every_circle_direction():
    # the gradient peaks away from the circle grid's first direction: a
    # probe at (1, 0) alone reads 2.19 here, against 2.48 over the grid
    inst = _cubic_perturbation(0.3)
    grid, circle = box_grid(inst, 5), circle_grid(64)
    parts = all_partitions(inst.d)
    per_direction = [_gradient_at_direction(inst, parts, grid, w) for w in circle]
    assert max(per_direction) > 1.1 * per_direction[0]
    # the two differences round apart by about eps * |det| / h
    bound = _det_gradient_estimate(inst, parts, grid, circle)
    assert bound >= max(per_direction) * (1.0 - 1e-9)


def test_certify_memory_is_bounded(paper, peak_mb):
    # the one-shot scan held 6,561 x 64 bordered 5 x 5 matrices per
    # partition, a peak of about 80 MB
    grid, circle = box_grid(paper, 9), circle_grid(64)
    assert peak_mb(certify, paper, grid, circle) < 24.0


def test_box_grid_is_the_instance_sample_grid(paper):
    axis = np.linspace(-paper.b1, paper.b1, 5)
    mesh = np.meshgrid(*([axis] * paper.dim), indexing="ij")
    assert np.array_equal(box_grid(paper, 5),
                          np.stack([m.ravel() for m in mesh], axis=-1))
    assert np.array_equal(box_grid(paper, 1), np.zeros((1, paper.dim)))


def test_certify_degenerate_reports_failures(degenerate):
    rep = certify(degenerate, box_grid(degenerate, 3), np.array([[1.0, 0.0]]))
    assert not rep.ok
    assert rep.c_lower == 0.0
    assert len(rep.failures) == rep.n_samples


def test_certify_rejects_empty_grid(paper):
    with pytest.raises(ConstraintError):
        certify(paper, np.empty((0, 4)), circle_grid(4))


def test_certify_catches_injected_defect(paper, monkeypatch):
    # mutation sanity: zeroing the border row must collapse the certificate
    import oscsurf.nondegen as nd
    original = nd.bordered_matrix

    def broken(inst, p, pts, tt, tau):
        mat = original(inst, p, pts, tt, tau)
        mat[..., inst.d, :] = 0.0
        return mat

    monkeypatch.setattr(nd, "bordered_matrix", broken)
    rep = nd.certify(paper, box_grid(paper, 3), circle_grid(8))
    assert not rep.ok
    assert rep.c_lower == 0.0


def test_odd_example_nonzero(paper3):
    p = Partition((0, 2, 3), (1, 4, 5))  # {x1, x3, x1'} vs {x2, x2', x3'}
    val = np.linalg.det(bordered_matrix(paper3, p, np.zeros(6), 1.0, 0.0))
    assert abs(val) > 0.5
    rep = certify(paper3, box_grid(paper3, 3), circle_grid(16))
    assert rep.ok and rep.c_lower > 0.1


def test_odd_example_closed_forms(paper3):
    # the two recommended partitions have x-independent determinants:
    # the mixed grouping sees only the phase pairings (-tt^2), the
    # unprimed/primed split only the defining-function pairings (+t^2)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-0.5, 0.5, size=(500, 6))
    ang = rng.uniform(0, 2 * np.pi, size=500)
    tts, taus = np.cos(ang), np.sin(ang)
    mixed = Partition((0, 2, 3), (1, 4, 5))
    split = Partition((0, 1, 2), (3, 4, 5))
    d1 = np.linalg.det(bordered_matrix(paper3, mixed, xs, tts, taus))
    d2 = np.linalg.det(bordered_matrix(paper3, split, xs, tts, taus))
    assert np.abs(d1 + tts**2).max() < 1e-12
    assert np.abs(d2 - taus**2).max() < 1e-12


def test_odd_example_certified_floor_is_half(paper3):
    # min over the circle of max(tt^2, t^2) = 1/2, attained on the diagonal;
    # the 64-point circle grid contains the diagonal angle exactly
    rep = certify(paper3, box_grid(paper3, 3), circle_grid(64))
    assert rep.c_lower == pytest.approx(0.5, abs=1e-12)


# -- the change-of-variables map ----------------------------------------------

def test_psi_map_zero_parameters(degenerate):
    out = psi_map(degenerate, P_SPLIT, np.array([0.1, 0.2]), 0.0,
                  np.array([0.05, -0.1]), 0.0)
    assert out[0] == pytest.approx(0.25)
    assert np.all(out[1:] == 0.0)


def test_psi_map_flat_gradients(degenerate):
    out = psi_map(degenerate, P_SPLIT, np.array([0.1, 0.2]), 0.0,
                  np.array([0.05, -0.1]), 1.0)
    assert out[0] == pytest.approx(0.25)
    assert np.allclose(out[1:], 1.0)


def test_psi_map_out_of_box(paper):
    with pytest.raises(ConstraintError):
        psi_map(paper, P_SPLIT, np.array([0.7, 0.0]), 1.0,
                np.array([0.0, 0.0]), 0.0)


def test_jacobian_matches_finite_differences(paper):
    u0 = np.array([0.05, -0.08])
    v0 = np.array([0.1, 0.02])
    lam, tau = 7.0, 2.0
    jac = psi_jacobian(paper, P_MIXED, v0, lam, u0, tau)
    h = 1e-6
    args = np.array([*u0, tau])
    fd = np.zeros_like(jac)
    for k in range(3):
        up, dn = args.copy(), args.copy()
        up[k] += h
        dn[k] -= h
        fd[:, k] = (psi_map(paper, P_MIXED, v0, lam, up[:2], up[2])
                    - psi_map(paper, P_MIXED, v0, lam, dn[:2], dn[2])) / (2 * h)
    assert np.max(np.abs(jac - fd)) < 1e-6


@pytest.mark.parametrize("name", ["paper-even-d2", "paper-odd-d3"])
def test_jacobian_is_transposed_bordered_matrix(name):
    # reference: the Jacobian's blocks assembled entry by entry from the
    # field derivatives; psi_jacobian must equal it and the transposed
    # certificate matrix bit for bit
    inst = make_instance(name, b0=0.3, b1=0.5)
    d, dim = inst.d, inst.dim
    rng = np.random.default_rng(11)

    def partial(fld, x, *axes):
        alpha = [0] * dim
        for a in axes:
            alpha[a] += 1
        return fld.deriv(tuple(alpha), x[None, :])[0]

    for p in all_partitions(d):
        for _ in range(5):
            u, v = rng.uniform(-0.4, 0.4, size=(2, d))
            lam, tau = rng.uniform(-50.0, 50.0, size=2)
            x = np.empty(dim)
            x[list(p.i_set)] = u
            x[list(p.j_set)] = v
            ref = np.zeros((d + 1, d + 1))
            for a, i in enumerate(p.i_set):
                ref[0, a] = partial(inst.rho, x, i)
                for b, j in enumerate(p.j_set):
                    ref[1 + b, a] = (lam * partial(inst.phi, x, j, i)
                                     + tau * partial(inst.rho, x, j, i))
            for b, j in enumerate(p.j_set):
                ref[1 + b, d] = partial(inst.rho, x, j)
            jac = psi_jacobian(inst, p, v, lam, u, tau)
            mat = bordered_matrix(inst, p, x, lam, tau)
            assert jac.tobytes() == ref.tobytes()
            assert jac.tobytes() == mat.T.tobytes()


def test_homogeneity_ray_constancy(paper):
    u0 = np.array([0.05, -0.08])
    v0 = np.array([0.1, 0.02])
    pairs = [(1.0, 0.5), (2.0, 1.0), (512.0, 256.0)]
    ratios = jacobian_homogeneity_probe(paper, P_MIXED, v0, u0, pairs)
    assert (max(ratios) - min(ratios)) / max(ratios) < 1e-10


def test_homogeneity_matches_bordered_det_on_circle(paper):
    # at a unit direction the Jacobian ratio equals |bordered det| up to a
    # row/column permutation sign
    u0 = np.array([0.11, -0.02])
    v0 = np.array([-0.07, 0.04])
    ratio = jacobian_homogeneity_probe(paper, P_MIXED, v0, u0, [(1.0, 0.0)])[0]
    x = np.empty(4)
    x[[0, 2]] = u0
    x[[1, 3]] = v0
    det = np.linalg.det(bordered_matrix(paper, P_MIXED, x, 1.0, 0.0))
    assert ratio == pytest.approx(abs(det), rel=1e-12)


def test_homogeneity_zero_for_flat_rho(degenerate):
    # (lambda, tau) = (0, 1): only the vanishing Hessian of rho enters
    jac = psi_jacobian(degenerate, P_SPLIT, np.zeros(2), 0.0,
                       np.zeros(2), 1.0)
    assert np.linalg.det(jac) == pytest.approx(0.0, abs=1e-15)


def test_homogeneity_singular_pair_is_data_not_a_warning(paper):
    # (lambda, tau) = (0, 1) at the origin: the Jacobian is singular, and
    # the probe returns the zero ratio without warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratios = jacobian_homogeneity_probe(paper, P_MIXED, np.zeros(2),
                                            np.zeros(2), [(0.0, 1.0)])
    assert ratios == [0.0]


def test_homogeneity_rejects_zero_pair(paper):
    with pytest.raises(ConstraintError):
        jacobian_homogeneity_probe(paper, P_MIXED, np.zeros(2),
                                   np.zeros(2), [(0.0, 0.0)])
