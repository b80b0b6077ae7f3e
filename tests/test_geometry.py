import gc
import math

import numpy as np
import pytest

from oscsurf.errors import ConstraintError, HypothesisError, NoRootError
from oscsurf.fields import BumpField, PolynomialField
from oscsurf import geometry
from oscsurf.geometry import (
    build_chart,
    cached_chart,
    gauss_legendre,
    grad_psi,
    graph_solve,
    tensor_integral,
)
from oscsurf.instance import admissible_constants, make_instance


@pytest.fixture(scope="module")
def paper():
    return make_instance("paper-even-d2", b0=0.3, b1=0.5)


@pytest.fixture(scope="module")
def tilted():
    return make_instance("tilted", b0=0.3, b1=0.5)


def x1_plus_x4_instance():
    rho = PolynomialField(4, {(1, 0, 0, 0): 1.0, (0, 0, 0, 1): 1.0},
                          half_widths=0.5)
    return make_instance("custom", b0=0.3, b1=0.5, rho=rho)


# -- admissible constants ----------------------------------------------------

def test_paper_constants(paper):
    # d_x2 rho = 1 identically, d_x1 rho = 1 + x1' in [0.5, 1.5]
    assert paper.c_rho_inv == pytest.approx(2.0)
    assert paper.c_rho_inv >= 1.0
    assert paper.c_rho == pytest.approx(2.25)  # sup |rho| at the corner


def test_degenerate_field_constant_gradient():
    # all second derivatives vanish; with a single-point (center) grid the
    # sup is the first-derivative value 1
    rho = PolynomialField(4, {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1.0,
                              (0, 0, 1, 0): 1.0, (0, 0, 0, 1): 1.0},
                          half_widths=0.5)
    inst = make_instance("custom", b0=0.3, b1=0.5, rho=rho, grid_density=1)
    assert inst.c_rho == pytest.approx(1.0)


def test_degenerate_field_any_density_on_small_box():
    # on a box where sup|rho| <= 1, the constant is 1 at every grid density
    rho = PolynomialField(4, {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1.0,
                              (0, 0, 1, 0): 1.0, (0, 0, 0, 1): 1.0},
                          half_widths=0.25)
    for density in (1, 3, 9):
        inst = make_instance("custom", b0=0.1, b1=0.25, rho=rho,
                             grid_density=density)
        assert inst.c_rho == pytest.approx(1.0)


def test_constants_monotone_in_density(paper):
    c3 = admissible_constants(paper, 3)
    c9 = admissible_constants(paper, 9)
    assert c9[0] >= c3[0]       # sup estimates grow on nested grids
    assert c9[1] >= c3[1]       # 1/inf grows as the inf shrinks
    assert np.all(c9[2] <= c3[2])  # per-axis infima shrink
    assert c9[1] == 1.0 / c9[2].min()
    assert (paper.c_rho, paper.c_rho_inv) == c9[:2]
    assert np.array_equal(paper.axis_inf, c9[2])


def test_gradient_floor_violation_raises():
    flat = make_instance("flat", b0=0.3, b1=0.5)
    assert flat.c_rho_inv == math.inf
    with pytest.raises(HypothesisError):
        admissible_constants(flat, 3)


@pytest.mark.parametrize("n", [1, 7, 160, 256])
def test_gauss_legendre_is_the_mapped_rule(n):
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    for lo, hi in [(-1.0, 1.0), (-0.125, 0.125), (0.3, 2.7)]:
        x, w = gauss_legendre(n, lo, hi)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        assert x.tobytes() == (mid + half * x_ref).tobytes()
        assert w.tobytes() == (half * w_ref).tobytes()
        # callers get fresh arrays: writing to one leaves the next call alone
        x[:] = np.nan
        w[:] = np.nan
        x2, w2 = gauss_legendre(n, lo, hi)
        assert x2.tobytes() == (mid + half * x_ref).tobytes()
        assert w2.tobytes() == (half * w_ref).tobytes()


# -- graph solve -------------------------------------------------------------

def test_graph_solve_linear():
    inst = make_instance("tilted", b0=0.3, b1=0.5)
    val = graph_solve(inst, 3, [0.1, 0.2, -0.05])
    assert val == pytest.approx(-0.25, abs=1e-11)


def test_graph_solve_paper_origin(paper):
    assert graph_solve(paper, 3, [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-11)


def test_graph_solve_paper_newton_value(paper):
    # x1 x1' + x1 + x2 + x1' + x2' = 0 at (0.1, 0.1, 0.1): x2' = -(0.01 + 0.3)
    val = graph_solve(paper, 3, [0.1, 0.1, 0.1])
    assert val == pytest.approx(-0.31, abs=1e-11)


def test_graph_solve_no_root(paper):
    with pytest.raises(NoRootError):
        graph_solve(paper, 3, [0.45, 0.45, 0.45])


def test_graph_solve_residual_below_tolerance(paper):
    slice_pt = np.array([0.21, -0.13, 0.04])
    val = graph_solve(paper, 3, slice_pt, tol=1e-13)
    point = np.array([*slice_pt, val])
    assert abs(paper.rho.eval(point)) <= 1e-12


def test_graph_solve_bad_axis(paper):
    with pytest.raises(ConstraintError):
        graph_solve(paper, 7, [0.0, 0.0, 0.0])


# -- surface integrals -------------------------------------------------------

def test_flat_hyperplane_volume():
    flat = make_instance("flat", b0=0.3, b1=0.5)
    chart = build_chart(flat, 3, [(-0.1, 0.1)] * 3, 6)
    val = chart.integrate(np.ones(len(chart.points)))
    assert val.real == pytest.approx(0.008, rel=1e-12)


def test_tilted_hyperplane_density():
    inst = x1_plus_x4_instance()
    chart = build_chart(inst, 3, [(-0.1, 0.1)] * 3, 6)
    val = chart.integrate(np.ones(len(chart.points)))
    assert val.real == pytest.approx(0.008 * math.sqrt(2.0), rel=1e-12)


def test_chart_independence(paper):
    bump = BumpField(4, support_half_width=0.2, order=6, half_widths=0.5)
    charts = [build_chart(paper, j0, [(-0.2, 0.2)] * 3, 40) for j0 in (2, 3)]
    vals = [chart.integrate(bump.eval(chart.points)) for chart in charts]
    assert abs(vals[0] - vals[1]) / abs(vals[1]) < 1e-6


def _oscillating(chart):
    # an integrand computed point by point, with a gathered slice factor
    x = chart.points
    return (np.exp(1j * 40.0 * (x[:, 0] + 2.0 * x[:, 3] - x[:, 1]))
            * chart.line_values(1, np.cos))


@pytest.mark.parametrize("j0, nodes", [
    (3, (20, 18, 16)),  # smaller than one slab
    (3, (50, 40, 37)),  # slabs of 44 rows, the last one of 6
    (2, (40, 41, 52)),  # j0 = 2; slabs of 30 rows, the last one of 10
    (3, (3, 260, 260)),  # one row is above BLOCK_NODES: slabs of one row
])
def test_tensor_integral_equals_the_one_shot_chart(paper, j0, nodes):
    boxes = [(-0.25, 0.25), (-0.2, 0.3), (-0.3, 0.22)]
    chart = build_chart(paper, j0, boxes, nodes)
    assert 0 < len(chart.points) < math.prod(nodes)
    want = (chart.integrate(_oscillating(chart)), len(chart.points))
    assert repr(tensor_integral(paper, j0, boxes, nodes, _oscillating)) \
        == repr(want)


def test_build_chart_rows_is_a_slab_of_the_grid(paper):
    boxes = [(-0.25, 0.25)] * 3
    full = build_chart(paper, 3, boxes, (9, 7, 8))
    slab = build_chart(paper, 3, boxes, (9, 7, 8), rows=slice(4, 7))
    assert slab.nodes_per_axis == (3, 7, 8)
    assert np.array_equal(slab.kept, full.kept[4:7])
    assert np.array_equal(slab.slice_nodes[0], full.slice_nodes[0][4:7])
    first = full.kept[:4].sum()
    rows = slice(first, first + len(slab.points))
    assert np.array_equal(slab.points, full.points[rows])
    assert np.array_equal(slab.weights, full.weights[rows])


def test_chart_cache_holds_a_node_budget(monkeypatch):
    budget = 12_000
    monkeypatch.setattr(geometry, "_CHART_CACHE_NODES", budget)
    inst = make_instance("paper-even-d2", b0=0.3, b1=0.5)
    boxes = [(-0.25, 0.25)] * 3
    cache = geometry._CHARTS.setdefault(inst, {})

    def cached_nodes():
        return sum(len(c.points) for c in cache.values())

    charts = [cached_chart(inst, 3, boxes, n) for n in (14, 16, 18, 20)]
    assert sum(len(c.points) for c in charts) > budget
    assert 0 < cached_nodes() <= budget
    # least recently used charts went first; a repeat returns the same chart
    assert charts[-1] in cache.values() and charts[0] not in cache.values()
    assert cached_chart(inst, 3, boxes, 20) is charts[-1]
    # a chart above the budget is returned but not kept
    big = cached_chart(inst, 3, boxes, 30)
    assert len(big.points) > budget
    assert big not in cache.values() and cached_nodes() <= budget
    assert cached_chart(inst, 3, boxes, 30) is not big
    # the charts die with their instance
    n_instances = len(geometry._CHARTS)
    del inst
    gc.collect()
    assert len(geometry._CHARTS) == n_instances - 1


def test_graph_lipschitz_bound(paper):
    chart = build_chart(paper, 3, [(-0.3, 0.3)] * 3, 12)
    grads = grad_psi(paper, 3, chart.points)
    assert np.abs(grads).max() <= paper.c_rho * paper.c_rho_inv + 1e-9

