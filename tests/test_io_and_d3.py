import numpy as np
import pytest

from oscsurf.errors import ConstraintError
from oscsurf.fields import FDField, example_rho
from oscsurf.instance import make_instance
from oscsurf.kernel import (
    QuadPolicy,
    TestFunctionFamily,
    eval_I,
    extremizer_family,
    indicator_factor,
)


# -- the d = 3 low-discrepancy path ---------------------------------------------

QUICK_QMC = QuadPolicy(qmc_log2_nodes=16)


def test_d3_constant_family_lambda_independent():
    inst = make_instance("tilted", d=3, b0=0.3, b1=0.5)
    fam = TestFunctionFamily(kind="user", inst=inst,
                             factors=[indicator_factor(-inst.b1, inst.b1)] * inst.dim)
    diag = {}
    vals = [eval_I(inst, fam, lam, quad=QUICK_QMC, diagnostics=diag)
            for lam in (25.0, 100.0)]
    assert vals[0].real > 0
    # no oscillating factor: the two frequencies see the same integrand
    assert abs(vals[0] - vals[1]) < 1e-3 * abs(vals[0])
    assert all(diag["converged"].values())
    assert diag["n_nodes"][25.0] == 2 * 2**16


def test_d3_extremizer_two_seed_agreement():
    inst = make_instance("paper-odd-d3", b0=0.3, b1=0.5)
    fam = extremizer_family(inst)
    diag = {}
    val = eval_I(inst, fam, 25.0, quad=QUICK_QMC, diagnostics=diag)
    assert abs(val) > 0
    assert diag["converged"][25.0]


def test_d3_check_off_runs_one_scramble():
    from oscsurf.kernel import _qmc_value, _support_boxes
    inst = make_instance("tilted", d=3, b0=0.3, b1=0.5)
    fam = TestFunctionFamily(kind="user", inst=inst,
                             factors=[indicator_factor(-inst.b1, inst.b1)] * inst.dim)
    quad = QuadPolicy(qmc_log2_nodes=10, check=False)
    diag = {}
    val = eval_I(inst, fam, 25.0, quad=quad, diagnostics=diag)
    j0 = inst.dim - 1
    boxes = _support_boxes(inst, fam.factors_for(25.0), j0)
    one, n = _qmc_value(inst, fam.factors_for(25.0), 25.0, j0, boxes, quad,
                        quad.qmc_seeds[0])
    assert val == one and n == 2**10
    assert diag["n_nodes"][25.0] == 2**10
    assert "refinement_mismatch" not in diag and "converged" not in diag


def test_d3_extremizer_sharpness_slope():
    # the lower-bound scaling is lam^(-(2d-1)/2) = lam^(-5/2) for d = 3
    from oscsurf.kernel import decay_fit
    inst = make_instance("paper-odd-d3", b0=0.3, b1=0.5)
    rep = decay_fit(inst, extremizer_family(inst),
                    [25.0, 50.0, 100.0, 200.0], quad=QUICK_QMC)
    assert abs(rep.slope + 2.5) <= 0.15
    assert rep.lower_ratio_min > 0


# -- derivative-order validation --------------------------------------------------

def test_instance_rejects_low_order_oracle():
    rho = example_rho(2, 0.5)
    # Phi needs derivatives to order 2d + 2 = 6
    phi = FDField(4, lambda p: p.sum(axis=-1), half_widths=0.5, max_order=4)
    with pytest.raises(ConstraintError, match="order 6"):
        make_instance("custom", b0=0.3, b1=0.5, rho=rho, phi=phi)
    # rho must be a polynomial, whatever order its oracle claims
    fd_rho = FDField(4, rho.eval, half_widths=0.5, max_order=10)
    with pytest.raises(ConstraintError, match="PolynomialField"):
        make_instance("custom", b0=0.3, b1=0.5, rho=fd_rho)
