import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscsurf.errors import ConfigError
from oscsurf.fields import (
    BumpField,
    FDField,
    PolynomialField,
    _bump1d_polys,
    bump1d_value,
    example_phi_even,
    example_phi_odd,
    example_rho,
    horner,
    multi_indices,
    parse_polynomial_table,
    unit_index,
)


def paper_rho_d2():
    return example_rho(2, 0.5)


def test_example_rho_d2_formula():
    rho = paper_rho_d2()
    x = np.array([0.1, -0.2, 0.3, 0.4])  # (x1, x2, x1', x2')
    assert rho.eval(x) == pytest.approx(0.1 * 0.3 + 0.1 - 0.2 + 0.3 + 0.4)


def test_example_phi_even_d2_is_single_pairing():
    phi = example_phi_even(2, 0.5)
    assert phi.terms == {(1, 1, 0, 0): 1.0}  # x1 * x2 only


def test_example_phi_even_d4_drops_last_primed_product():
    phi = example_phi_even(4, 0.5)
    expected = {
        (1, 0, 1, 0, 0, 0, 0, 0): 1.0,  # x1 x3
        (0, 1, 0, 1, 0, 0, 0, 0): 1.0,  # x2 x4
        (0, 0, 0, 0, 1, 0, 1, 0): 1.0,  # x1' x3'
    }
    assert phi.terms == expected


def test_example_phi_odd_d3():
    phi = example_phi_odd(3, 0.5)
    expected = {
        (1, 1, 0, 0, 0, 0): 1.0,  # x1 x2
        (0, 0, 0, 1, 1, 0): 1.0,  # x1' x2'
    }
    assert phi.terms == expected


def test_zero_alpha_matches_eval():
    rho = paper_rho_d2()
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(50, 4))
    assert np.array_equal(rho.deriv((0, 0, 0, 0), pts), rho.eval(pts))


def test_polynomial_derivatives_closed_form():
    rho = paper_rho_d2()
    pts = np.random.default_rng(1).uniform(-0.5, 0.5, size=(20, 4))
    # d/dx1 rho = 1 + x1'
    assert np.allclose(rho.deriv((1, 0, 0, 0), pts), 1.0 + pts[:, 2])
    # d^2/dx1 dx1' rho = 1, all other second derivatives vanish
    assert np.allclose(rho.deriv((1, 0, 1, 0), pts), 1.0)
    assert np.allclose(rho.deriv((0, 1, 0, 1), pts), 0.0)
    assert np.allclose(rho.deriv((3, 0, 0, 0), pts), 0.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                    st.integers(0, 2)),
                          st.floats(-3, 3, allow_nan=False)),
                min_size=1, max_size=6),
       st.permutations([0, 0, 1, 2]))
def test_mixed_partials_commute(terms, order):
    """Differentiating term by term along axes in any order agrees with the
    multi-index oracle."""
    poly = PolynomialField(3, {e: c for e, c in terms})
    alpha = [0, 0, 0]
    current = poly
    for axis in order:
        alpha[axis] += 1
        current = PolynomialField(3, current._derived_terms(
            tuple(1 if j == axis else 0 for j in range(3))))
    pts = np.array([[0.3, -0.7, 0.2], [1.1, 0.0, -0.4]])
    assert np.allclose(current.eval(pts), poly.deriv(tuple(alpha), pts),
                       atol=1e-9)


def test_fd_oracle_matches_closed_forms_to_order_three():
    rho = paper_rho_d2()
    phi = example_phi_even(2, 0.5)
    pts = np.random.default_rng(2).uniform(-0.4, 0.4, size=(10, 4))
    for fld in (rho, phi):
        fd = FDField(4, fld.eval, half_widths=0.5)
        for alpha in [(1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0), (0, 2, 0, 0),
                      (1, 1, 1, 0), (2, 0, 1, 0)]:
            exact = fld.deriv(alpha, pts)
            approx = fd.deriv(alpha, pts)
            scale = np.maximum(np.abs(exact), 1.0)
            assert np.max(np.abs(exact - approx) / scale) < 1e-6, alpha


def test_bump_compact_support_and_positivity():
    amp = BumpField(4, support_half_width=0.3, order=8, half_widths=0.5)
    assert amp.eval(np.zeros(4)) > 0
    outside = np.array([[0.31, 0.0, 0.0, 0.0], [0.0, -0.5, 0.1, 0.0]])
    assert np.all(amp.eval(outside) == 0.0)
    # derivatives vanish continuously at the support edge
    edge = np.array([[0.3 - 1e-9, 0.0, 0.0, 0.0]])
    assert abs(amp.deriv((1, 0, 0, 0), edge)[0]) < 1e-3


def test_bump_derivative_is_exact_inside():
    # FD truncation is the limiting factor here: the bump's fourth
    # derivatives are large, so agreement is h^2-limited, not 1e-6
    amp = BumpField(2, support_half_width=0.4, order=5, half_widths=1.0)
    fd = FDField(2, amp.eval, half_widths=1.0)
    pts = np.random.default_rng(3).uniform(-0.3, 0.3, size=(20, 2))
    assert np.allclose(amp.deriv((1, 1), pts), fd.deriv((1, 1), pts),
                       rtol=1e-4, atol=1e-6)


def test_bump1d_value_is_bitwise_the_polynomial_call():
    h = 0.3
    # interior, the support edges, beyond them, and the centre
    t = np.concatenate([np.linspace(-1.5 * h, 1.5 * h, 301),
                        [h, -h, 2.0 * h, -0.0, np.nextafter(h, 0.0)]])
    u = t / h
    inside = np.abs(u) < 1.0
    for order in range(1, 9):
        polys = _bump1d_polys(order)
        for k in range(2 * order + 2):  # k = 2 order + 1 is past the last
            want = np.zeros_like(t)
            if k < len(polys):
                want[inside] = polys[k](u[inside]) / h**k
            assert np.array_equal(bump1d_value(k, t, h, order), want), (order, k)


LINE_FIELDS = [
    {(1, 0, 1, 0): 1.0, (0, 0, 0, 3): 0.5, (0, 2, 0, 1): -0.25,
     (1, 0, 0, 0): 1.0, (0, 0, 0, 1): 1.0, (0, 0, 0, 0): 0.1},
    {(1, 0, 0, 0): 2.0},  # constant along every axis but the first
    {},                   # the zero field
]


def _deriv_full_loop(poly, alpha, pts):
    """PolynomialField._deriv as it was before the per-call power table:
    each term starts from np.full and raises every column it uses."""
    out = np.zeros(pts.shape[:-1])
    for expo, coeff in poly._derived_terms(alpha).items():
        term = np.full(pts.shape[:-1], coeff)
        for j, e in enumerate(expo):
            if e:
                term = term * pts[..., j] ** e
        out += term
    return out


def _random_cubic_terms(seed):
    rng = np.random.default_rng(seed)
    return {tuple(int(e) for e in rng.integers(0, 4, size=4)): float(rng.normal())
            for _ in range(12)}


@pytest.mark.parametrize("terms", LINE_FIELDS + [_random_cubic_terms(5)])
def test_deriv_power_table_is_bitwise_the_full_loop(terms):
    poly = PolynomialField(4, terms, half_widths=0.5)
    pts = np.random.default_rng(8).uniform(-0.5, 0.5, size=(200, 4))
    for alpha in multi_indices(4, 2):
        assert np.array_equal(poly.deriv(alpha, pts),
                              _deriv_full_loop(poly, alpha, pts)), alpha


def _line_and_derivative(poly, j0, slice_pts):
    """Horner on rho's line coefficients c_k and on [k c_k]: rho and its
    chart-axis derivative on the axis-j0 lines through the slice points."""
    coeffs = poly.line_coefficients(j0, slice_pts)
    n = len(slice_pts)
    return (horner(coeffs, n),
            horner([k * c for k, c in enumerate(coeffs)][1:] or [0.0], n))


@pytest.mark.parametrize("terms", LINE_FIELDS + [_random_cubic_terms(6)])
@pytest.mark.parametrize("j0", range(4))
def test_along_axis_matches_eval_on_the_line(terms, j0):
    poly = PolynomialField(4, terms, half_widths=0.5)
    rng = np.random.default_rng(j0)
    slice_pts = rng.uniform(-0.5, 0.5, size=(50, 3))
    line, _ = _line_and_derivative(poly, j0, slice_pts)
    for v in (-0.5, rng.uniform(-0.5, 0.5, size=50), 0.0, 0.5):
        want = poly.eval(np.insert(slice_pts, j0, v, axis=1))
        assert np.allclose(line(v), want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("terms", LINE_FIELDS + [_random_cubic_terms(6)])
@pytest.mark.parametrize("j0", range(4))
def test_on_lines_is_bitwise_deriv_on_the_assembled_points(terms, j0):
    """The line restriction of rho (alpha = 0) and of its chart-axis
    derivative (alpha = e_j0) against deriv on the assembled points: bit
    for bit at v = 0, where Horner returns c_0 or c_1 and both sides
    multiply the same factors in the same order, and to rounding elsewhere."""
    poly = PolynomialField(4, terms, half_widths=0.5)
    rng = np.random.default_rng(j0)
    slice_pts = rng.uniform(-0.5, 0.5, size=(50, 3))
    lines = _line_and_derivative(poly, j0, slice_pts)
    for alpha, line in zip(((0, 0, 0, 0), unit_index(4, j0)), lines):
        for v in (-0.5, rng.uniform(-0.5, 0.5, size=50), 0.0, 0.5):
            want = poly.deriv(alpha, np.insert(slice_pts, j0, v, axis=1))
            if np.isscalar(v) and v == 0.0:
                assert np.array_equal(line(v), want), alpha
            else:
                assert np.allclose(line(v), want, rtol=1e-14, atol=1e-15), (alpha, v)


def test_parse_polynomial_table_roundtrip():
    text = """
    # the d=2 defining function
    1 0 1 0 : 1.0
    1 0 0 0 : 1
    0 1 0 0 : 1
    0 0 1 0 : 1
    0 0 0 1 : 1
    """
    poly = parse_polynomial_table(text, 4, half_widths=0.5)
    ref = paper_rho_d2()
    pts = np.random.default_rng(4).uniform(-0.5, 0.5, size=(30, 4))
    assert np.allclose(poly.eval(pts), ref.eval(pts))


@pytest.mark.parametrize("bad", [
    "1 0 : 1.0",            # wrong exponent count for dim 4
    "1 0 0 -1 : 2.0",       # negative exponent
    "1 0 0 0 = 2.0",        # missing colon
    "1 0 0 0 : abc",        # bad coefficient
])
def test_parse_polynomial_table_rejects(bad):
    with pytest.raises(ConfigError):
        parse_polynomial_table(bad, 4)
