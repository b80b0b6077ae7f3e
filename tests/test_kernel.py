import math
import warnings

import numpy as np
import pytest

from oscsurf import geometry, kernel
from oscsurf.errors import BoundaryFrequencyError, ConstraintError, NonConvergenceError
from oscsurf.fields import (
    BumpField,
    PolynomialField,
    example_phi_even,
    horner,
    unit_index,
)
from oscsurf.geometry import build_chart, graph_solve, graph_solve_grid
from oscsurf.instance import make_instance
from oscsurf.kernel import (
    DEFAULT_QUAD,
    LineFactor,
    QuadPolicy,
    TestFunctionFamily,
    _ORACLE_BLOCK,
    _SEED_LEVEL,
    _axis_bisection,
    _axis_phase_rates,
    _chart_values,
    _nodes_for,
    _packet_setup,
    _qmc_value,
    _support_boxes,
    _tensor_value,
    _trapezoid_blocks,
    calibrate_extremizer,
    classify_region,
    decay_fit,
    eval_I,
    extremizer_family,
    extremizer_quality,
    indicator_factor,
    kernel_decay_probe,
    kernel_eval,
    kernel_eval_dense,
    normal_projection,
    packet_factor,
    random_bump_family,
    scales,
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
    # xi cancels lam grad Phi(y), so tau_0 = 0 and the projection vanishes
    y = np.array([0.05, -0.1, 0.2, 0.14])
    lam = 50.0
    xi = -lam * paper.grad_phi(y[None, :])[0] / (2 * np.pi)
    assert np.abs(normal_projection(paper, y, xi, lam)).max() \
        == pytest.approx(0.0, abs=1e-12)


def test_tau0_constant_gradient(tilted):
    # grad rho = (1, 1, 1, 1) and Phi = 0: v = 2 pi (1, 1, 1, 1) is normal,
    # tau_0 = -2 pi cancels it
    proj = normal_projection(tilted, np.zeros(4), np.ones(4), 3.0)
    assert np.abs(proj).max() == pytest.approx(0.0, abs=1e-12)
    xi = np.array([1.0, 2.0, 3.0, 4.0])
    proj = normal_projection(tilted, np.zeros(4), xi, 3.0)
    assert proj == pytest.approx(2 * np.pi * (xi - xi.mean()))


def test_tau0_vanishing_gradient_rejected():
    from oscsurf.fields import PolynomialField
    rho = PolynomialField(4, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                              (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0},
                          half_widths=0.5)
    inst = make_instance("custom", b0=0.3, b1=0.5, rho=rho)
    with pytest.raises(ConstraintError):
        normal_projection(inst, np.zeros(4), np.ones(4), 10.0)


def test_tau0_orthogonality(paper):
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = rng.uniform(-0.4, 0.4, size=4)
        xi = rng.uniform(-50, 50, size=4)
        lam = rng.uniform(25, 500)
        proj = normal_projection(paper, y, xi, lam)
        grad = paper.grad_rho(y[None, :])[0]
        # proj = v + tau_0 grad rho: v shifted along the normal only
        vec = lam * paper.grad_phi(y[None, :])[0] + 2 * np.pi * xi
        shift = proj - vec
        off_normal = shift - np.dot(shift, grad) / np.dot(grad, grad) * grad
        assert np.abs(off_normal).max() <= 1e-10 * np.linalg.norm(vec)
        assert abs(np.dot(proj, grad)) <= 1e-10 * max(1.0, np.linalg.norm(proj))
    ys = rng.uniform(-0.4, 0.4, size=(5, 4))
    batch = normal_projection(paper, ys, xi, lam)
    assert batch.shape == (5, 4)
    assert np.array_equal(batch[2], normal_projection(paper, ys[2], xi, lam))


# -- eval_I ---------------------------------------------------------------------

def test_eval_zero_family(paper):
    zero = [indicator_factor(-0.1, 0.1).scaled(0.0) for _ in range(4)]
    fam = TestFunctionFamily(kind="user", inst=paper, factors=zero)
    assert eval_I(paper, fam, 100.0) == 0.0


def one_family(inst):
    """f_j identically one on the box: a family with no phase."""
    return TestFunctionFamily(kind="user", inst=inst,
                              factors=[indicator_factor(-inst.b1, inst.b1)] * inst.dim)


def test_eval_lambda_constraint(paper):
    fam = one_family(paper)
    with pytest.raises(ConstraintError):
        eval_I(paper, fam, 4.0)  # 4^(-1/2) = 0.5 > b1 - b0


def test_eval_no_oscillation_constant_in_lambda(tilted):
    fam = one_family(tilted)
    vals = [eval_I(tilted, fam, lam) for lam in (25.0, 100.0, 400.0)]
    assert vals[0].real > 0
    assert max(abs(v - vals[0]) for v in vals) < 1e-12 * abs(vals[0])


def test_eval_multilinearity(paper):
    rng = np.random.default_rng(3)
    fam = random_bump_family(paper, rng, normalized=False)
    base = eval_I(paper, fam, 50.0)
    factors = list(fam.factors)
    factors[1] = factors[1].scaled(2 + 1j)
    scaled = eval_I(paper, TestFunctionFamily(kind="user", inst=paper,
                                              factors=factors), 50.0)
    assert abs(scaled - (2 + 1j) * base) <= 1e-10 * abs((2 + 1j) * base)


def test_eval_conjugation_symmetry(paper):
    rng = np.random.default_rng(4)
    fam = random_bump_family(paper, rng, normalized=False)
    a = eval_I(paper, fam, 50.0)
    conj = [LineFactor(f.lo, f.hi, lambda x, g=f.func: np.conj(g(x)), f.l2,
                       phase_rate=f.phase_rate) for f in fam.factors]
    b = eval_I(paper, TestFunctionFamily(kind="user", inst=paper,
                                         factors=conj), -50.0)
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
    rep = decay_fit(tilted, one_family(tilted), SWEEP[:4])
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


# (y, xi, kernel_eval_dense at 120 nodes/axis) of the three criterion-11
# style samples that the scale-1 tensor rule alone misses by 1.63%, 57.5% and
# 4.63%: perfbench kernel-d2 seed 2 sample 1, seed 8 sample 11 and seed 401
# sample 10
UNDER_RESOLVED = [
    ([0.14023078574810297, 0.05491944669288759, -0.03251255007599216,
      -0.15807842192116747],
     [-92.42360065696013, 6.639584141746241, 234.7256457003475,
      165.33836548361364],
     1.8419289021960597e-10 + 2.797573347085969e-10j),
    ([0.005947585207683598, -0.07332020151030245, -0.09921380557485424,
      0.16717650443990809],
     [182.22218056629436, 266.78338523617117, 6.115069427877131,
      4.780087936140717],
     7.365902879654443e-08 - 6.356882429649056e-09j),
    ([0.011278773173640566, 0.10517193768678904, -0.0500864882557725,
      -0.06579930846455603],
     [-4.071097228563644, 236.76515270252935, 236.10863472771257,
      7.564436140834687],
     3.030221833318564e-06 + 5.687026264751293e-07j),
]


@pytest.mark.parametrize("y, xi, oracle", UNDER_RESOLVED)
def test_kernel_refines_until_two_scales_agree(paper, w, y, xi, oracle):
    lam = 100.0
    t = build_tiling(lam, 6 * lam)
    y, xi = np.array(y), np.array(xi)
    factors, j0, boxes = _packet_setup(paper, w, t, y, xi, None)
    single, n_single = _tensor_value(paper, factors, lam, j0, boxes,
                                     DEFAULT_QUAD, 1.0)
    assert abs(single - oracle) > 0.01 * abs(oracle)
    diag = {}
    val = kernel_eval(paper, w, t, y, xi, lam, diagnostics=diag)
    assert diag["converged"]
    assert diag["mismatch"] <= DEFAULT_QUAD.agree_tol
    assert diag["n_nodes"] > n_single
    assert abs(val - oracle) <= 0.01 * abs(oracle)


def test_kernel_ladder_is_pinned(paper, w):
    # seed 8 sample 11 of UNDER_RESOLVED steps past scale 1; its value and
    # diagnostics as the whole-chart tensor rule gave them
    y, xi, _ = UNDER_RESOLVED[1]
    diag = {}
    val = kernel_eval(paper, w, build_tiling(100.0, 600.0), np.array(y),
                      np.array(xi), 100.0, diagnostics=diag)
    assert repr(val) == "(7.365843163429465e-08-6.356759949586622e-09j)"
    assert repr(diag) == ("{'n_nodes': 374380, 'mismatch': "
                          "0.0009692846250821883, 'converged': True}")


def test_eval_I_memory_is_bounded(paper, peak_mb):
    # the refined rule has 158 x 152 x 50 = 1.2 M grid nodes; built as one
    # chart with its integrand it peaked at about 230 MB
    fam = random_bump_family(paper, np.random.default_rng(9))
    diag, out = {}, []
    assert peak_mb(lambda: out.append(
        eval_I(paper, fam, 800.0, diagnostics=diag))) < 48.0
    assert repr(out[0]) == "(0.04137724696199083-0.02595508922638844j)"
    assert diag["n_nodes"] == {800.0: 1116897}


def test_kernel_node_cap_is_reported_not_raised(paper, w):
    lam = 100.0
    t = build_tiling(lam, 6 * lam)
    y = np.array([0.05, -0.04, 0.06, 0.0])
    y[3] = graph_solve(paper, 3, y[:3])
    xi = np.array([63.0, -37.0, 117.0, 47.0])
    factors, j0, boxes = _packet_setup(paper, w, t, y, xi, None)
    # (62, 40, 62) nodes per axis at scale 1/1.5, (92, 59, 93) at scale 1:
    # the coarse estimate fits under a cap of 70 and is returned
    quad = QuadPolicy(max_nodes=70)
    coarse = _tensor_value(paper, factors, lam, j0, boxes, quad,
                           quad.refine_factor ** -1)
    diag = {}
    val = kernel_eval(paper, w, t, y, xi, lam, quad=quad, diagnostics=diag)
    assert (val, diag["n_nodes"]) == coarse
    assert diag["converged"] is False and math.isnan(diag["mismatch"])
    # under a cap of 50 no estimate fits
    diag = {}
    val = kernel_eval(paper, w, t, y, xi, lam, quad=QuadPolicy(max_nodes=50),
                      diagnostics=diag)
    assert math.isnan(val.real) and math.isnan(val.imag)
    assert diag["n_nodes"] == 0 and diag["converged"] is False
    assert math.isnan(diag["mismatch"])


def test_kernel_short_circuit_diagnostics(paper, w):
    t = build_tiling(100.0, 600.0)
    diag = {}
    val = kernel_eval(paper, w, t, np.array([5.0, 0.0, 0.0, 0.0]),
                      np.array([7.0, 7.0, 7.0, 7.0]), 100.0, diagnostics=diag)
    assert val == 0.0
    assert diag == {"n_nodes": 0, "mismatch": 0.0, "converged": True}


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


def _all_points_integrand(inst, pts, lam, factors):
    """The integrand with every factor evaluated at every point."""
    vals = np.exp(1j * lam * inst.phi.eval(pts)) * inst.amp.eval(pts)
    for j, f in enumerate(factors):
        vals = vals * f(pts[:, j])
    return vals


def _packet_sample(paper, w, lam):
    t = build_tiling(lam, 6 * lam)
    y = np.array([0.05, -0.04, 0.06, 0.0])
    y[3] = graph_solve(paper, 3, y[:3])
    return t, y, np.array([63.0, -37.0, 117.0, 47.0])


def test_chart_gather_reproduces_the_slice_coordinates(paper):
    for j0 in range(4):
        chart = build_chart(paper, j0, [(-0.2, 0.25), (-0.1, 0.15), (-0.3, 0.0)],
                            (9, 11, 7))
        assert 0 < len(chart.points) < 9 * 11 * 7
        for j in range(4):
            assert np.array_equal(chart.line_values(j, lambda x: x),
                                  chart.points[:, j])


def test_chart_values_gather_is_bitwise(paper, w):
    """The tensor rule evaluates one-variable factors once per axis node and
    gathers them; the integrand equals the all-points product exactly, on
    every chart axis, for bump families (normalized, so scaled closures),
    packets, and an amplitude that is not a tensor product."""
    lam = 100.0
    t, y, xi = _packet_sample(paper, w, lam)
    packets = [packet_factor(w, t, x, shift=float(c)) for x, c in zip(xi, y)]
    bumps = random_bump_family(paper, np.random.default_rng(3)).factors_for(lam)
    assert isinstance(paper.amp, BumpField)
    amp = PolynomialField(4, {(0, 0, 0, 0): 1.0, (1, 1, 0, 0): -2.0,
                              (0, 0, 1, 1): 0.5, (2, 0, 0, 0): -1.0},
                          half_widths=0.5)
    plain = make_instance("custom", b0=0.3, b1=0.5, rho=paper.rho,
                          phi=paper.phi, amp=amp)
    assert plain.amp.axis_factors is None
    for inst in (paper, plain):
        for factors in (bumps, packets):
            for j0 in range(4):
                chart = build_chart(inst, j0, _support_boxes(inst, factors, j0),
                                    (13, 10, 12))
                got = _chart_values(inst, chart, lam, factors)
                want = _all_points_integrand(inst, chart.points, lam, factors)
                assert np.abs(want).max() > 0
                assert np.array_equal(got, want)


def test_dense_oracle_gather_is_bitwise(paper, w):
    """One oracle block with its slice-axis packets and amplitude factors
    gathered from the grid axes sums to the all-points value exactly."""
    lam = 100.0
    t, y, xi = _packet_sample(paper, w, lam)
    n = 24
    assert n ** 3 <= _ORACLE_BLOCK  # one block
    factors, j0, boxes = _packet_setup(paper, w, t, y, xi, None)
    (slice_pts, weight, _), = _trapezoid_blocks(boxes, n)
    roots, crosses = _axis_bisection(paper.rho, j0, slice_pts, paper.b1)
    pts = np.insert(slice_pts[crosses], j0, roots[crosses], axis=1)
    grad = paper.grad_rho(pts)
    dpsi = -np.delete(grad, j0, axis=1) / grad[:, j0:j0 + 1]
    density = np.sqrt(1.0 + np.sum(dpsi * dpsi, axis=-1))
    want = complex(np.sum(weight[crosses] * density
                          * _all_points_integrand(paper, pts, lam, factors)))
    assert want != 0
    assert kernel_eval_dense(paper, w, t, y, xi, lam, nodes_per_axis=n) == want


def _cubic_rho():
    """Monotone along every axis, cubic along the last:
    d_4 rho = 1 + 3 x_2'^2 + x_1 x_2' >= 3/4 on [-1/2, 1/2]^4."""
    return PolynomialField(4, {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1.0,
                               (0, 0, 1, 0): 1.0, (0, 0, 0, 1): 1.0,
                               (0, 0, 0, 3): 1.0, (1, 0, 0, 2): 0.5,
                               (1, 0, 1, 0): 1.0}, half_widths=0.5)


def _newton_on_assembled_points(inst, j0, slice_pts):
    """graph_solve_grid as it was before the line restriction: every
    Newton step assembles the full points and evaluates rho there."""
    dim, b = inst.dim, inst.b1
    tol = geometry.DEFAULT_TOL_SCALE * (1.0 + abs(b))

    def at(v):
        return np.insert(slice_pts, j0, v, axis=1)

    lo = np.full(len(slice_pts), -b)
    hi = np.full(len(slice_pts), b)
    f_lo, f_hi = inst.rho.eval(at(lo)), inst.rho.eval(at(hi))
    found = np.sign(f_lo) != np.sign(f_hi)
    found |= (f_lo == 0.0) | (f_hi == 0.0)
    x = 0.5 * (lo + hi)
    for _ in range(80):
        f = inst.rho.eval(at(x))
        active = found & (np.abs(f) > tol)
        if not np.any(active):
            break
        df = inst.rho.deriv(unit_index(dim, j0), at(x))
        step = np.where(active, f / np.where(df == 0.0, 1.0, df), 0.0)
        x = np.clip(x - step, -b, b)
    return x, found


@pytest.mark.parametrize("name", ["cubic", "paper-even-d2", "paper-odd-d3",
                                  "flat", "tilted"])
def test_graph_solve_grid_is_bitwise_newton_on_assembled_points(name):
    """Bit for bit on every line where rho is affine along the chart axis;
    on the cubic's cubic axis the same mask and a residual within tol."""
    inst = (make_instance("custom", b0=0.3, b1=0.5, rho=_cubic_rho())
            if name == "cubic" else make_instance(name, b0=0.3, b1=0.5))
    tol = geometry.DEFAULT_TOL_SCALE * (1.0 + abs(inst.b1))
    rng = np.random.default_rng(17)
    for j0 in range(inst.dim):
        slice_pts = rng.uniform(-0.5, 0.5, size=(3000, inst.dim - 1))
        got, found = graph_solve_grid(inst, j0, slice_pts)
        want, want_found = _newton_on_assembled_points(inst, j0, slice_pts)
        assert np.array_equal(found, want_found), j0
        assert found.any() or (name == "flat" and j0 < 3), j0
        if name == "cubic" and j0 == 3:
            on_m = np.insert(slice_pts[found], j0, got[found], axis=1)
            assert np.abs(inst.rho.eval(on_m)).max() <= tol
        else:
            assert np.array_equal(got, want), j0


def test_graph_solve_grid_where_rho_is_constant_along_the_axis():
    """flat (rho = x_4) along axes 0-2: a line is on M only where x_4 = 0,
    and its root is then 0."""
    inst = make_instance("flat", b0=0.3, b1=0.5)
    slice_pts = np.random.default_rng(4).uniform(-0.5, 0.5, size=(200, 3))
    slice_pts[::2, 2] = 0.0
    for j0 in range(3):
        got, found = graph_solve_grid(inst, j0, slice_pts)
        assert np.array_equal(found, slice_pts[:, 2] == 0.0)
        assert np.all(got[found] == 0.0)


def test_graph_solve_grid_residual_check_passes_on_rounding_alone():
    """Over this slice point Newton on the cubic's axis 3 passes through
    |rho| = 1.49997e-12 by Horner, 1.50001e-12 by rho.eval, either side of
    the default tol 1.5e-12.  Newton stops at tol / 2, so the residual check
    does not fail on the two evaluations' rounding."""
    inst = make_instance("custom", b0=0.3, b1=0.5, rho=_cubic_rho())
    slice_pt = [float.fromhex(h) for h in (
        "0x1.4c21687a817fcp-2", "0x1.b425437edbf50p-2", "-0x1.d8289d03015a0p-3")]
    assert graph_solve(inst, 3, slice_pt) == pytest.approx(-0.405085911, abs=1e-9)


def test_graph_solve_grid_raises_on_a_residual_above_tol(monkeypatch):
    inst = make_instance("custom", b0=0.3, b1=0.5, rho=_cubic_rho())
    slice_pts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(500, 3))
    graph_solve_grid(inst, 3, slice_pts)  # converges with the full budget
    # one Newton step from 0 leaves the cubic's residual above tol
    monkeypatch.setattr(geometry, "_NEWTON_MAX", 1)
    with pytest.raises(NonConvergenceError, match="points left"):
        graph_solve_grid(inst, 3, slice_pts)


def test_dense_bisection_matches_graph_solve():
    inst = make_instance("custom", b0=0.3, b1=0.5, rho=_cubic_rho())
    # random slice points: none has its root exactly at an end of the line,
    # where rounding alone would decide whether the segment crosses M
    slice_pts = np.random.default_rng(11).uniform(-0.5, 0.5, size=(2000, 3))
    for j0 in (3, 0):
        roots, crosses = _axis_bisection(inst.rho, j0, slice_pts, inst.b1)
        # the Newton solve stops at |rho| <= tol, so its root is within
        # tol / min |d_j0 rho| of the true one: ask for a tight residual
        want, found = graph_solve_grid(inst, j0, slice_pts, tol=1e-14)
        assert np.array_equal(crosses, found) and crosses.any()
        assert np.max(np.abs(roots[crosses] - want[found])) <= 1e-12


def _bisect_52(rho_line, b):
    """The dense oracle's root solve before it was seeded: 52 halvings of
    [-b, b] on every line, returning the final midpoints and the mask of
    lines whose end signs differ."""
    sign_lo = np.sign(rho_line(-b))
    crosses = sign_lo != np.sign(rho_line(b))
    lo = np.full(len(sign_lo), -b)
    mid = np.empty_like(lo)
    sign_mid = np.empty_like(lo)
    left = np.empty(len(lo), dtype=bool)
    half = b
    for _ in range(52):
        np.add(lo, half, out=mid)
        np.sign(rho_line(mid), out=sign_mid)
        np.equal(sign_mid, sign_lo, out=left)
        np.copyto(lo, mid, where=left)
        half *= 0.5
    return lo + half, crosses


def _seeded_vs_52(rho, j0, slice_pts, b):
    """Assert the seeded solve is the 52 halvings bit for bit; return the
    line points it evaluated per crossing line."""
    points = 0

    def counting_horner(coeffs, n):
        line = horner(coeffs, n)

        def counted(v):
            nonlocal points
            points += n
            return line(v)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "horner", counting_horner)
        roots, crosses = _axis_bisection(rho, j0, slice_pts, b)
    want, want_crosses = _bisect_52(
        horner(rho.line_coefficients(j0, slice_pts), len(slice_pts)), b)
    assert np.array_equal(crosses, want_crosses), j0
    assert np.array_equal(roots[crosses], want[crosses]), j0
    assert np.isnan(roots[~crosses]).all()
    return points / max(crosses.sum(), 1)


def test_seeded_bisection_is_bitwise_on_oracle_blocks(paper, w):
    """The first 120-node/axis oracle block of a packet sample, on every
    chart axis: the same roots as 52 halvings from at most 14 line
    evaluations per crossing line (the halvings take 54)."""
    t, y, xi = _packet_sample(paper, w, 100.0)
    for j0 in range(4):
        _, _, boxes = _packet_setup(paper, w, t, y, xi, j0)
        slice_pts = next(_trapezoid_blocks(boxes, 120))[0]
        assert len(slice_pts) == _ORACLE_BLOCK
        assert _seeded_vs_52(paper.rho, j0, slice_pts, paper.b1) <= 14


def test_seeded_bisection_is_bitwise_on_the_cubic():
    rho = _cubic_rho()
    slice_pts = np.random.default_rng(5).uniform(-0.5, 0.5, size=(4000, 3))
    evals = [_seeded_vs_52(rho, j0, slice_pts, 0.5) for j0 in range(4)]
    assert max(evals[:3]) <= 14
    # cubic along axis 3: false position misses the cell on every line,
    # and the fallback costs the check and the last halvings on top of 54
    assert 14 < evals[3] <= 54 + 8


def test_seeded_bisection_is_bitwise_off_a_dyadic_box():
    """With b not a power of two every line takes the 52 halvings."""
    slice_pts = np.random.default_rng(6).uniform(-0.6, 0.6, size=(2000, 3))
    for j0 in range(4):
        assert _seeded_vs_52(_cubic_rho(), j0, slice_pts, 0.6) <= 54 + 2


def test_seeded_bisection_is_bitwise_on_constructed_lines():
    """rho = +-(x_4 - x_1) on the lines along axis 3: roots exactly on the
    seed's grid and a few ulps off it, at both ends of [-b, b], and lines
    that do not cross."""
    b = 0.5
    h = 2.0 * b / 2.0 ** _SEED_LEVEL
    cells = np.array([0, 1, 2, 3, 1000, 2 ** 45, 2 ** _SEED_LEVEL - 1,
                      2 ** _SEED_LEVEL], dtype=float)
    on_grid = cells * h - b
    roots = np.concatenate([on_grid, np.nextafter(on_grid, -1.0),
                            np.nextafter(on_grid, 1.0),
                            on_grid[1:-1] + 0.5 * h, on_grid[1:-1] + 1e-3 * h,
                            [0.1, -0.3], [b + 0.01, -b - 0.01]])
    slice_pts = np.zeros((len(roots), 3))
    slice_pts[:, 0] = roots
    for sign in (1.0, -1.0):
        rho = PolynomialField(4, {(0, 0, 0, 1): sign, (1, 0, 0, 0): -sign},
                              half_widths=b)
        _seeded_vs_52(rho, 3, slice_pts, b)
        crosses = _axis_bisection(rho, 3, slice_pts, b)[1]
        # a zero at -b or at b still crosses; beyond the ends nothing does
        assert crosses[[0, len(cells) - 1]].all()
        assert not crosses[-2:].any()


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
    samples = [(y, xi, kernel_eval(paper, w, t, y, xi, lam))
               for y, xi in samples]
    rows = kernel_decay_probe(paper, samples, lam, N=3)
    assert rows[-1].value == 0.0 and rows[-1].ratio == 0.0
    assert rows[-2].region == "Xi1"
    assert rows[-2].rapid_bound is not None
    assert all(np.isfinite(r.ratio) for r in rows)


def test_kernel_probe_rejects_large_order(paper):
    with pytest.raises(ConstraintError):
        kernel_decay_probe(paper, [], 100.0, N=2 * paper.d + 3)


def test_kernel_eval_d3_runs_the_replicated_sobol_rule():
    # a d = 3 packet kernel runs eval_I's replicated Sobol rule, not a
    # 5-axis tensor chart, which does not fit in memory here, and reports
    # its agreement like the d = 2 ladder: four 2^13-point scrambles of
    # this packet still spread by more than its size
    inst = make_instance("paper-odd-d3", b0=0.3, b1=0.5)
    w = make_window()
    lam = 100.0
    t = build_tiling(lam, 6 * lam)
    y = np.array([0.02, -0.03, 0.01, 0.04, -0.02, 0.0])
    y[5] = graph_solve(inst, 5, y[:5])
    xi = np.array([63.0, -37.0, 117.0, 47.0, -21.0, 93.0])
    quad = QuadPolicy(qmc_log2_nodes=10)
    factors, j0, boxes = _packet_setup(inst, w, t, y, xi, None)
    ref, info = _qmc_value(inst, factors, lam, j0, boxes, quad)
    diag = {}
    val = kernel_eval(inst, w, t, y, xi, lam, quad=quad, diagnostics=diag)
    assert val != 0.0
    assert val == ref
    assert diag == info
    assert set(diag) == {"n_nodes", "mismatch", "converged", "standard_error"}
    assert diag["n_nodes"] == 4 * 2**13
    assert diag["converged"] is False
    assert diag["mismatch"] == 2.0 * diag["standard_error"] / abs(val) > 1.0


def test_quad_policy_node_cap(paper):
    tight = QuadPolicy(base_nodes=14, nodes_per_radian=0.7, max_nodes=20,
                       check=False)
    fam = random_bump_family(paper, np.random.default_rng(6), normalized=False)
    with pytest.raises(NonConvergenceError):
        eval_I(paper, fam, 800.0, quad=tight)


@pytest.mark.parametrize("name, n_nodes, rate_nodes", [
    ("paper-even-d2", 21268, (20, 20, 16)),
    ("paper-odd-d3", 32768, (20, 20, 16, 23, 25)),
    ("flat", 13248, (15, 16, 16)),
    ("tilted", 12885, (15, 16, 16)),
])
@pytest.mark.parametrize("density", [3, 9])
def test_eval_I_node_counts_are_pinned(name, n_nodes, rate_nodes, density):
    # the per-axis phase rates come from the instance's bounds (sup |d_j Phi|
    # and the graph Lipschitz constant); d = 3 takes four 2^10-point Sobol
    # scrambles, which this family spreads past agree_tol up to the last
    # doubling (2^13 each), so its rate-driven counts are pinned on their own
    inst = make_instance(name, grid_density=density)
    fam = random_bump_family(inst, np.random.default_rng(11))
    lam = 100.0
    factors = fam.factors_for(lam)
    j0 = inst.dim - 1
    rates = _axis_phase_rates(inst, lam, factors, j0)
    assert _nodes_for(DEFAULT_QUAD, rates,
                      _support_boxes(inst, factors, j0)) == rate_nodes
    diag = {}
    eval_I(inst, fam, lam, quad=QuadPolicy(qmc_log2_nodes=10), diagnostics=diag)
    assert diag["n_nodes"][lam] == n_nodes
