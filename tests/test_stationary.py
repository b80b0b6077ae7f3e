import numpy as np
import pytest

from oscsurf.errors import ConstraintError
from oscsurf.exprs import Const, as_expr, evaluate_chunked
from oscsurf.fields import BumpField, PolynomialField
from oscsurf.geometry import cached_chart
from oscsurf.instance import make_instance
from oscsurf.kernel import normal_projection
from oscsurf.tangent import (
    TangentField,
    ibp_identity_check,
    l_operator,
    phase_with_modulation,
)


@pytest.fixture(scope="module")
def paper():
    return make_instance("paper-even-d2", b0=0.3, b1=0.5)


@pytest.fixture(scope="module")
def tilted():
    return make_instance("tilted", b0=0.3, b1=0.5)


def all_fields(inst):
    dim = inst.dim
    out = [TangentField(inst, index=i) for i in range(dim)]
    out += [TangentField(inst, pair=(a, b))
            for a in range(dim) for b in range(dim) if a < b]
    return out


def coord(dim, j, b1=0.5):
    e = [0] * dim
    e[j] = 1
    return PolynomialField(dim, {tuple(e): 1.0}, half_widths=b1)


# -- the fields ----------------------------------------------------------------

def test_field_validation(paper):
    with pytest.raises(ConstraintError):
        TangentField(paper)
    with pytest.raises(ConstraintError):
        TangentField(paper, index=0, pair=(1, 2))
    with pytest.raises(ConstraintError):
        TangentField(paper, pair=(1, 1))
    with pytest.raises(ConstraintError):
        TangentField(paper, index=9)


def test_degenerate_rotation_pair_rejected():
    from oscsurf.errors import HypothesisError
    flat = make_instance("flat", b0=0.3, b1=0.5)
    # projection fields are fine: |grad rho| = 1 everywhere
    TangentField(flat, index=0)
    # but the rotation normalizer over two degenerate axes vanishes
    with pytest.raises(HypothesisError):
        TangentField(flat, pair=(0, 1))


def test_tangency_all_fields(paper):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(10**4, 4))
    for fld in all_fields(paper):
        assert np.abs(fld.tangency_residual(pts)).max() <= 1e-8


def test_apply_to_rho_is_zero_pointwise(paper):
    x = np.array([0.2, -0.1, 0.3, 0.05])
    for fld in all_fields(paper):
        assert fld.apply(paper.rho).value(x) == pytest.approx(0.0, abs=1e-12)


def test_constant_gradient_projection_value(tilted):
    # rho = sum of coordinates: X_1 x_1 = 1 - 1/(2d) * 1 = 3/4
    fld = TangentField(tilted, index=0)
    expr = fld.apply(coord(4, 0))
    val = expr.value(np.array([0.1, 0.0, -0.2, 0.3]))
    assert val == pytest.approx(0.75)
    # chunked evaluation: the field expression and the constant 3/4 give the
    # same values and dtype below, at and above the chunk size
    rng = np.random.default_rng(4)
    for n in (0, 5, 8, 13, 16, 17):
        pts = rng.uniform(-0.4, 0.4, size=(n, 4))
        by_field = evaluate_chunked(expr, pts, chunk=8)
        by_const = evaluate_chunked(Const(0.75, 4), pts, chunk=8)
        assert by_field.dtype == by_const.dtype == np.float64
        assert by_field.shape == by_const.shape == (n,)
        assert np.array_equal(by_field, by_const)


def test_apply_matches_fd_directional_derivative(paper):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.4, 0.4, size=(20, 4))
    fld = TangentField(paper, index=1)
    coeffs = np.stack([fld.apply(coord(4, j)).value(pts) for j in range(4)],
                      axis=-1)
    h = 1e-6
    fd = np.zeros(len(pts))
    for j in range(4):
        up, dn = pts.copy(), pts.copy()
        up[:, j] += h
        dn[:, j] -= h
        fd += coeffs[:, j] * (paper.phi.eval(up) - paper.phi.eval(dn)) / (2 * h)
    assert np.allclose(fld.apply(paper.phi).value(pts), fd, atol=1e-6)


def test_dual_constant_gradient_formula(tilted):
    # constant-gradient rho: zero-order terms vanish and
    # X_1^+ f = -d_1 f + (1/2d) sum_j d_j f
    fld = TangentField(tilted, index=0)
    f = PolynomialField(4, {(1, 0, 0, 0): 2.0, (0, 0, 1, 0): 1.0},
                        half_widths=0.5)
    val = fld.apply_dual(f).value(np.zeros(4))
    assert val == pytest.approx(-2.0 + 0.25 * 3.0)


def test_dual_kills_constants_for_flat_gradient(tilted):
    fld = TangentField(tilted, index=0)
    one = PolynomialField(4, {(0, 0, 0, 0): 1.0}, half_widths=0.5)
    assert fld.apply_dual(one).value(np.array([0.1, 0.2, 0.3, -0.1])) \
        == pytest.approx(0.0, abs=1e-14)


def test_pairing_identity(paper):
    rng = np.random.default_rng(2)
    f = BumpField(4, support_half_width=0.22, order=6, half_widths=0.5)
    g = BumpField(4, support_half_width=0.2, order=6, half_widths=0.5,
                  centers=[0.03, -0.02, 0.01, 0.0])
    chart = cached_chart(paper, 3, [(-0.25, 0.25)] * 3, 40)
    for fld in (TangentField(paper, index=0), TangentField(paper, pair=(0, 2))):
        lhs = np.sum(chart.weights
                     * evaluate_chunked(fld.apply(f), chart.points)
                     * evaluate_chunked(as_expr(g), chart.points))
        rhs = np.sum(chart.weights
                     * evaluate_chunked(as_expr(f), chart.points)
                     * evaluate_chunked(fld.apply_dual(g), chart.points))
        assert abs(lhs - rhs) / abs(lhs) < 1e-8


def test_projection_identity(paper):
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.uniform(-0.4, 0.4, size=4)
        xi = rng.uniform(-20, 20, size=4)
        phase = phase_with_modulation(paper, 50.0, xi)
        applied = np.array([TangentField(paper, index=i).apply(phase).value(y)
                            for i in range(4)])
        proj = normal_projection(paper, y, xi, 50.0)
        assert np.abs(applied - proj).max() < 1e-10


# -- iterated integration by parts ----------------------------------------------

def test_ibp_zero_phase_divergence_theorem(paper):
    # phase 0, shift 1, N = 1: the identity reduces to int X^+ psi dsigma = 0
    psi = BumpField(4, support_half_width=0.25, order=8, half_widths=0.5)
    zero_phase = PolynomialField(4, {}, half_widths=0.5)
    fld = TangentField(paper, index=0)
    rep = ibp_identity_check(paper, zero_phase, psi, fld, 1.0, 1, nodes=24)
    assert rep.rel_error < 1e-6
    chart = cached_chart(paper, 3, [(-0.25, 0.25)] * 3, 24)
    div_int = np.sum(chart.weights
                     * evaluate_chunked(fld.apply_dual(psi), chart.points))
    assert abs(div_int) / abs(rep.lhs) < 1e-6


def test_ibp_zero_test_function(paper):
    zero = PolynomialField(4, {}, half_widths=0.5)
    fld = TangentField(paper, index=0)
    rep = ibp_identity_check(paper, zero, zero, fld, 1.0, 2, nodes=8)
    assert rep.lhs == 0 and rep.rhs == 0


def test_ibp_identity_reference_resolution(paper):
    xi = np.array([3.0, -2.0, 1.0, 0.5])
    phase = phase_with_modulation(paper, 50.0, xi)
    psi = BumpField(4, support_half_width=0.25, order=8, half_widths=0.5)
    fld = TangentField(paper, index=0)
    for N in (1, 2):
        ref = ibp_identity_check(paper, phase, psi, fld, None, N, nodes=16)
        fine = ibp_identity_check(paper, phase, psi, fld, None, N, nodes=32)
        assert ref.rel_error <= 1e-4
        order = np.log2(ref.rel_error / max(fine.rel_error, 1e-13))
        assert order >= 2.0


def test_ibp_rejects_bad_arguments(paper):
    psi = BumpField(4, support_half_width=0.2, order=6, half_widths=0.5)
    zero = PolynomialField(4, {}, half_widths=0.5)
    fld = TangentField(paper, index=0)
    with pytest.raises(ConstraintError):
        ibp_identity_check(paper, zero, psi, fld, 0.0, 1)
    with pytest.raises(ConstraintError):
        ibp_identity_check(paper, zero, psi, fld, 1.0, 4)


def test_l_operator_expression_size_stays_modest(paper):
    xi = np.array([3.0, -2.0, 1.0, 0.5])
    phase = phase_with_modulation(paper, 50.0, xi)
    psi = as_expr(BumpField(4, support_half_width=0.25, order=8, half_widths=0.5))
    fld = TangentField(paper, index=0)
    expr = psi
    for _ in range(2):
        expr = l_operator(fld, phase, 1j * 9.4, expr)
    assert expr.size() < 5000
