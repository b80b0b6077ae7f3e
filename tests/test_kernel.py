import math
import warnings

import numpy as np
import pytest

from oscsurf.errors import BoundaryFrequencyError, ConstraintError
from oscsurf.fields import PolynomialField, ScaledSumField, example_phi_even
from oscsurf.geometry import graph_solve, graph_solve_grid
from oscsurf.instance import make_instance
from oscsurf.kernel import (
    QuadPolicy,
    TestFunctionFamily,
    _axis_bisection,
    _trapezoid_blocks,
    calibrate_extremizer,
    classify_region,
    constant_family,
    decay_fit,
    eval_I,
    extremizer_family,
    extremizer_quality,
    indicator_factor,
    kernel_decay_probe,
    kernel_eval,
    kernel_eval_dense,
    packet_factor,
    random_bump_family,
    scales,
    tau0,
)
from oscsurf.tiling import build_tiling
from oscsurf.window import make_window

SWEEP = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0]


@pytest.fixture(scope="module")
def paper():
    return make_instance("paper-even-d2", b0=0.3, b1=0.5)


@pytest.fixture(scope="module")
def tilted():
    return make_instance("tilted", b0=0.3, b1=0.5)


@pytest.fixture(scope="module")
def w():
    return make_window()


# -- scales, regions, tau0 ------------------------------------------------------

def test_scales_all_central():
    s = scales(100.0, [0.0, 0.0, 0.0, 0.0])
    assert s.r_j == (0.1, 0.1, 0.1, 0.1)
    assert s.r == 0.1 and s.r_tilde == pytest.approx(0.1)


def test_scales_unbalanced():
    s = scales(100.0, [400.0, 0.0, 0.0, 0.0])
    assert s.r_j[0] == pytest.approx(0.05)
    assert s.r_j[1:] == (0.1, 0.1, 0.1)
    assert s.r == pytest.approx(0.05)
    assert s.r_tilde == pytest.approx(0.025)


def test_scales_dominated_by_lambda():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        lam = rng.uniform(1, 1e6)
        xi = rng.uniform(-4 * lam, 4 * lam, size=4)
        assert scales(lam, xi).r <= abs(lam) ** -0.5 + 1e-15


def test_classify_balanced_is_xi2():
    assert classify_region(100.0, [0.0, 0.0, 0.0, 0.0]) == "Xi2"


def test_classify_unbalanced_is_xi1():
    assert classify_region(100.0, [1e6, 0.0, 0.0, 0.0], 0.5) == "Xi1"


def test_classify_tie_is_xi1():
    # r = (0.025, 0.1, 0.1, 0.1): min == 0.25 * max exactly
    assert classify_region(100.0, [1600.0, 0.0, 0.0, 0.0], 0.25) == "Xi1"


def test_classify_total():
    rng = np.random.default_rng(1)
    for _ in range(200):
        lam = rng.uniform(1, 1e4)
        xi = rng.uniform(-8 * lam, 8 * lam, size=4)
        assert classify_region(lam, xi) in ("Xi1", "Xi2")


def test_classify_rejects_bad_split():
    with pytest.raises(ConstraintError):
        classify_region(10.0, [0.0] * 4, c_split=1.5)


def test_tau0_cancellation(paper):
    y = np.array([0.05, -0.1, 0.2, 0.14])
    lam = 50.0
    xi = -lam * paper.grad_phi(y[None, :])[0] / (2 * np.pi)
    assert tau0(paper, y, xi, lam) == pytest.approx(0.0, abs=1e-12)


def test_tau0_constant_gradient(tilted):
    val = tau0(tilted, np.zeros(4), np.ones(4), 3.0)
    assert val == pytest.approx(-2 * np.pi)


def test_tau0_vanishing_gradient_rejected():
    from oscsurf.fields import PolynomialField
    rho = PolynomialField(4, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                              (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0},
                          half_widths=0.5)
    inst = make_instance("custom", b0=0.3, b1=0.5, rho=rho)
    with pytest.raises(ConstraintError):
        tau0(inst, np.zeros(4), np.ones(4), 10.0)


def test_tau0_orthogonality(paper):
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = rng.uniform(-0.4, 0.4, size=4)
        xi = rng.uniform(-50, 50, size=4)
        lam = rng.uniform(25, 500)
        t0 = tau0(paper, y, xi, lam)
        grad = paper.grad_rho(y[None, :])[0]
        resid = lam * paper.grad_phi(y[None, :])[0] + 2 * np.pi * xi + t0 * grad
        assert abs(np.dot(resid, grad)) <= 1e-10 * max(1.0, np.linalg.norm(resid))


# -- eval_I ---------------------------------------------------------------------

def test_eval_zero_family(paper):
    zero = [indicator_factor(-0.1, 0.1).scaled(0.0) for _ in range(4)]
    fam = TestFunctionFamily(kind="user", inst=paper, factors=zero)
    assert eval_I(paper, fam, 100.0) == 0.0


def test_eval_lambda_constraint(paper):
    fam = constant_family(paper)
    with pytest.raises(ConstraintError):
        eval_I(paper, fam, 4.0)  # 4^(-1/2) = 0.5 > b1 - b0


def test_eval_no_oscillation_constant_in_lambda(tilted):
    fam = constant_family(tilted)
    vals = [eval_I(tilted, fam, lam) for lam in (25.0, 100.0, 400.0)]
    assert vals[0].real > 0
    assert max(abs(v - vals[0]) for v in vals) < 1e-12 * abs(vals[0])


def test_eval_multilinearity(paper):
    rng = np.random.default_rng(3)
    fam = random_bump_family(paper, rng, normalized=False)
    base = eval_I(paper, fam, 50.0)
    scaled = eval_I(paper, fam.with_slot(1, fam.factors[1].scaled(2 + 1j)), 50.0)
    assert abs(scaled - (2 + 1j) * base) <= 1e-10 * abs((2 + 1j) * base)


def test_eval_conjugation_symmetry(paper):
    rng = np.random.default_rng(4)
    fam = random_bump_family(paper, rng, normalized=False)
    a = eval_I(paper, fam, 50.0)
    b = eval_I(paper, fam.conjugated(), -50.0)
    assert abs(abs(a) - abs(b)) <= 1e-10 * abs(a)
    assert abs(np.conj(a) - b) <= 1e-10 * abs(a)


def test_eval_disjoint_support_zero(paper):
    # factor supported outside the amplitude box: empty slice box
    factors = [indicator_factor(-0.1, 0.1) for _ in range(3)]
    factors.append(indicator_factor(0.4, 0.45))
    factors = [factors[3]] + factors[:3]
    fam = TestFunctionFamily(kind="user", inst=paper, factors=factors)
    assert eval_I(paper, fam, 100.0) == 0.0


def test_eval_packet_consistency_single(paper, w):
    lam = 100.0
    t = build_tiling(lam, 6 * lam)
    y = np.array([0.05, -0.04, 0.06, 0.0])
    y[3] = graph_solve(paper, 3, y[:3])
    xi = np.array([63.0, -37.0, 117.0, 47.0])
    fam = TestFunctionFamily(
        kind="user", inst=paper,
        factors=[packet_factor(w, t, x, shift=float(c))
                 for x, c in zip(xi, y)])
    direct = eval_I(paper, fam, lam)
    kern = kernel_eval(paper, w, t, y, xi, lam)
    assert abs(direct - kern) <= 1e-4 * abs(kern)
    # on a common chart axis both run the same tensor rule
    assert kernel_eval(paper, w, t, y, xi, lam, j0=3) \
        == eval_I(paper, fam, lam, quad=QuadPolicy(check=False), j0=3)


def test_eval_packet_consistency_combination(paper, w):
    # two packets in one slot: the functional expands multilinearly into
    # two kernel values
    lam = 100.0
    t = build_tiling(lam, 6 * lam)
    y = np.array([0.05, -0.04, 0.06, 0.0])
    y[3] = graph_solve(paper, 3, y[:3])
    xi = np.array([63.0, -37.0, 117.0, 47.0])
    base = [packet_factor(w, t, x, shift=float(c)) for x, c in zip(xi, y)]
    extra = packet_factor(w, t, 83.0, shift=float(y[0]))
    c1, c2 = 1.0, 0.6 - 0.2j

    def combo(x, f1=base[0], f2=extra):
        return c1 * f1(x) + c2 * f2(x)

    lo = min(base[0].lo, extra.lo)
    hi = max(base[0].hi, extra.hi)
    from oscsurf.kernel import LineFactor
    slot = LineFactor(lo, hi, combo, 1.0,
                      phase_rate=max(base[0].phase_rate, extra.phase_rate))
    fam = TestFunctionFamily(kind="user", inst=paper,
                             factors=[slot] + base[1:])
    direct = eval_I(paper, fam, lam)
    k1 = kernel_eval(paper, w, t, y, xi, lam)
    xi2 = xi.copy()
    xi2[0] = 83.0
    k2 = kernel_eval(paper, w, t, y, xi2, lam)
    expected = c1 * k1 + c2 * k2
    assert abs(direct - expected) <= 1e-4 * abs(expected)


# -- extremizers ------------------------------------------------------------------

def test_extremizer_quality(paper):
    fam = extremizer_family(paper)
    for lam in (25.0, 800.0):
        phase_err, containment = extremizer_quality(paper, fam, lam)
        assert phase_err < math.pi / 4
        assert containment < 1.0


def test_extremizer_calibration_keeps_good_width(paper):
    fam = extremizer_family(paper, c_prime=0.1)
    cal = calibrate_extremizer(paper, fam, SWEEP)
    assert cal.c_prime == pytest.approx(0.1)


def test_extremizer_calibration_shrinks_bad_width(paper):
    fam = extremizer_family(paper, c_prime=30.0)  # absurdly wide
    cal = calibrate_extremizer(paper, fam, [25.0, 50.0, 100.0, 200.0])
    assert cal.c_prime < 30.0


def test_extremizer_norms_scale(paper):
    fam = extremizer_family(paper)
    f25 = fam.factors_for(25.0)
    f100 = fam.factors_for(100.0)
    # indicator width ~ lam^(-1/2): norms shrink by (1/2)^(1/2) per 4x
    for a, b in zip(f25, f100):
        assert b.l2 == pytest.approx(a.l2 / math.sqrt(2.0), rel=1e-12)


def test_sharpness_slope(paper):
    rep = decay_fit(paper, extremizer_family(paper), SWEEP)
    assert rep.slope == pytest.approx(-1.5, abs=0.15)
    assert rep.lower_ratio_min > 0


def test_sharpness_constant_stable_under_refinement(paper):
    # |I_100| >= C * 100^(-3/2) with C stable when the rule is refined
    fam = extremizer_family(paper)
    coarse = QuadPolicy(base_nodes=12, check=False)
    fine = QuadPolicy(base_nodes=24, check=False)
    c_vals = [abs(eval_I(paper, fam, 100.0, quad=q)) * 100.0**1.5
              for q in (coarse, fine)]
    assert c_vals[0] > 0
    assert abs(c_vals[0] - c_vals[1]) <= 1e-3 * c_vals[1]


def test_normalized_extremizer_slope(paper):
    rep = decay_fit(paper, extremizer_family(paper, normalized=True), SWEEP)
    assert rep.slope >= -0.65
    assert not rep.growth_violation


def test_zero_phase_flat_slope(tilted):
    rep = decay_fit(tilted, constant_family(tilted), SWEEP[:4])
    assert rep.slope == pytest.approx(0.0, abs=1e-9)


def test_decay_fit_validation(paper):
    fam = extremizer_family(paper)
    with pytest.raises(ConstraintError):
        decay_fit(paper, fam, [25.0, 50.0, 100.0])
    with pytest.raises(ConstraintError):
        decay_fit(paper, fam, [25.0, 50.0, 40.0, 100.0])


def test_decay_fit_invisible_family(paper):
    factors = [indicator_factor(-0.1, 0.1) for _ in range(3)]
    factors.append(indicator_factor(0.4, 0.45))
    fam = TestFunctionFamily(kind="user", inst=paper,
                             factors=[factors[3]] + factors[:3])
    with pytest.raises(ConstraintError):
        decay_fit(paper, fam, SWEEP[:4])


def test_decay_fit_reports_non_convergence(paper):
    # bumps, not the extremizer: its indicator products are integrated
    # exactly at both resolutions, so even a 1e-12 tolerance would pass
    fam = random_bump_family(paper, np.random.default_rng(3))
    assert decay_fit(paper, fam, SWEEP[:4]).converged == [True] * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = decay_fit(paper, fam, SWEEP[:4], quad=QuadPolicy(agree_tol=1e-12))
    assert rep.converged == [False] * 4


# -- kernel ------------------------------------------------------------------------

def test_kernel_far_y_exact_zero(paper, w):
    t = build_tiling(100.0, 600.0)
    val = kernel_eval(paper, w, t, np.array([5.0, 0.0, 0.0, 0.0]),
                      np.array([7.0, 7.0, 7.0, 7.0]), 100.0)
    assert val == 0.0


def test_kernel_large_rho_exact_zero(paper, w):
    t = build_tiling(100.0, 600.0)
    y = np.array([0.25, 0.25, 0.25, 0.28])  # rho(y) ~ 1.09 >> max r_j
    assert abs(paper.rho.eval(y)) > 1.05 * 0.1 * 5.0
    val = kernel_eval(paper, w, t, y, np.array([7.0, 7.0, 7.0, 7.0]), 100.0)
    assert val == 0.0


def test_kernel_boundary_xi_rejected(paper, w):
    t = build_tiling(100.0, 600.0)
    with pytest.raises(BoundaryFrequencyError):
        kernel_eval(paper, w, t, np.zeros(4),
                    np.array([60.0, 7.0, 7.0, 7.0]), 100.0)  # 60 = 6 n0


def test_kernel_matches_dense_oracle(paper, w):
    lam = 100.0
    t = build_tiling(lam, 6 * lam)
    y = np.array([0.05, -0.04, 0.06, 0.0])
    y[3] = graph_solve(paper, 3, y[:3])
    xi = np.array([63.0, -37.0, 117.0, 47.0])
    val = kernel_eval(paper, w, t, y, xi, lam)
    oracle = kernel_eval_dense(paper, w, t, y, xi, lam, nodes_per_axis=120)
    assert abs(val - oracle) <= 0.01 * abs(oracle)


# kernel_eval_dense(paper, ...) at 48 nodes/axis for the sample of
# test_kernel_matches_dense_oracle, recorded with the oracle that evaluated
# the full 4-variable rho at every bisection step
PINNED_DENSE_48 = 0.00037785003372729515 - 0.0001352664453729011j


def test_dense_oracle_pinned_value(paper, w):
    lam = 100.0
    t = build_tiling(lam, 6 * lam)
    y = np.array([0.05, -0.04, 0.06, 0.0])
    y[3] = graph_solve(paper, 3, y[:3])
    xi = np.array([63.0, -37.0, 117.0, 47.0])
    val = kernel_eval_dense(paper, w, t, y, xi, lam, nodes_per_axis=48)
    assert abs(val - PINNED_DENSE_48) <= 1e-9 * abs(PINNED_DENSE_48)
    seven = np.array([7.0, 7.0, 7.0, 7.0])
    assert kernel_eval_dense(paper, w, t, np.array([5.0, 0.0, 0.0, 0.0]),
                             seven, lam, nodes_per_axis=48) == 0.0
    assert kernel_eval_dense(paper, w, t, np.array([0.25, 0.25, 0.25, 0.28]),
                             seven, lam, nodes_per_axis=48) == 0.0


def test_trapezoid_blocks_tile_the_grid():
    """The oracle's blocks, joined, are the full trapezoid grid and its
    weights in row-major order, bit for bit."""
    boxes = [(-0.1, 0.2), (0.05, 0.07), (-0.3, -0.25)]
    n = 40  # 64000 slice points: one full block and one partial block
    blocks = list(_trapezoid_blocks(boxes, n))
    assert len(blocks) == 2
    pts = np.concatenate([b[0] for b in blocks])
    weight = np.concatenate([b[1] for b in blocks])
    axes = [np.linspace(lo, hi, n) for lo, hi in boxes]
    wts = []
    for lo, hi in boxes:
        wgrid = np.full(n, (hi - lo) / (n - 1))
        wgrid[[0, -1]] *= 0.5
        wts.append(wgrid)
    want_pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                        axis=-1)
    want_weight = np.ones(n ** 3)
    for wm in np.meshgrid(*wts, indexing="ij"):
        want_weight = want_weight * wm.ravel()
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(weight, want_weight)


def _cubic_rho():
    """Monotone along every axis, cubic along the last:
    d_4 rho = 1 + 3 x_2'^2 + x_1 x_2' >= 3/4 on [-1/2, 1/2]^4."""
    return PolynomialField(4, {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1.0,
                               (0, 0, 1, 0): 1.0, (0, 0, 0, 1): 1.0,
                               (0, 0, 0, 3): 1.0, (1, 0, 0, 2): 0.5,
                               (1, 0, 1, 0): 1.0}, half_widths=0.5)


def test_dense_bisection_matches_graph_solve():
    inst = make_instance("custom", b0=0.3, b1=0.5, rho=_cubic_rho())
    # random slice points: none has its root exactly at an end of the line,
    # where rounding alone would decide whether the segment crosses M
    slice_pts = np.random.default_rng(11).uniform(-0.5, 0.5, size=(2000, 3))
    for j0 in (3, 0):
        roots, crosses = _axis_bisection(
            inst.rho.along_axis(j0, slice_pts), inst.b1)
        # the Newton solve stops at |rho| <= tol, so its root is within
        # tol / min |d_j0 rho| of the true one: ask for a tight residual
        want, found = graph_solve_grid(inst, j0, slice_pts, tol=1e-14)
        assert np.array_equal(crosses, found) and crosses.any()
        assert np.max(np.abs(roots[crosses] - want[found])) <= 1e-12


def test_dense_oracle_generic_field_path(w):
    """The polynomial restriction and the one-buffer path of any other
    field give the same oracle value."""
    rho = _cubic_rho()
    phi = example_phi_even(2, 0.5)
    poly = make_instance("custom", b0=0.3, b1=0.5, rho=rho, phi=phi)
    generic = make_instance("custom", b0=0.3, b1=0.5, phi=phi,
                            rho=ScaledSumField([1.0], [rho]))
    lam = 100.0
    t = build_tiling(lam, 6 * lam)
    y = np.array([0.05, -0.04, 0.06, 0.0])
    y[3] = graph_solve(poly, 3, y[:3])
    xi = np.array([63.0, -37.0, 117.0, 47.0])
    a = kernel_eval_dense(poly, w, t, y, xi, lam, nodes_per_axis=40)
    b = kernel_eval_dense(generic, w, t, y, xi, lam, nodes_per_axis=40)
    assert abs(a) > 0
    assert abs(a - b) <= 1e-10 * abs(a)


def test_kernel_decay_probe_rows(paper, w):
    lam = 100.0
    t = build_tiling(lam, 60000.0)
    rng = np.random.default_rng(5)
    samples = []
    for _ in range(4):
        y = rng.uniform(-0.15, 0.15, size=4)
        y[3] = graph_solve(paper, 3, y[:3])
        samples.append((y, rng.uniform(-200, 200, size=4)))
    # one unbalanced sample and one that misses the surface entirely
    y1 = samples[0][0]
    samples.append((y1, np.array([50001.0, 7.0, 7.0, 7.0])))
    samples.append((np.array([0.25, 0.25, 0.25, 0.28]),
                    np.array([7.0, 7.0, 7.0, 7.0])))
    rows = kernel_decay_probe(paper, w, t, samples, lam, N=3)
    assert rows[-1].value == 0.0 and rows[-1].ratio == 0.0
    assert rows[-2].region == "Xi1"
    assert rows[-2].rapid_bound is not None
    assert all(np.isfinite(r.ratio) for r in rows)


def test_kernel_probe_rejects_large_order(paper, w):
    t = build_tiling(100.0, 600.0)
    with pytest.raises(ConstraintError):
        kernel_decay_probe(paper, w, t, [], 100.0, N=2 * paper.d + 3)


def test_quad_policy_node_cap(paper):
    tight = QuadPolicy(base_nodes=14, nodes_per_radian=0.7, max_nodes=20,
                       check=False)
    fam = random_bump_family(paper, np.random.default_rng(6), normalized=False)
    from oscsurf.errors import NonConvergenceError
    with pytest.raises(NonConvergenceError):
        eval_I(paper, fam, 800.0, quad=tight)
