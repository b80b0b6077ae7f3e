import json
import os

import numpy as np
import pytest

from oscsurf.errors import ConstraintError
from oscsurf.fields import FDField, example_rho
from oscsurf.instance import make_instance
from oscsurf.kernel import (
    QuadPolicy,
    TestFunctionFamily,
    _sobol_levels,
    _support_boxes,
    calibrate_extremizer,
    eval_I,
    extremizer_family,
    indicator_factor,
    random_bump_family,
)

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "reference.json")


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
    # the indicators' edges spread four 2^16-point scrambles by 2 SE above
    # agree_tol; one doubling of each brings it under
    assert diag["n_nodes"][25.0] == 4 * 2**17


def test_d3_extremizer_two_seed_agreement():
    inst = make_instance("paper-odd-d3", b0=0.3, b1=0.5)
    fam = extremizer_family(inst)
    diag = {}
    val = eval_I(inst, fam, 25.0, quad=QUICK_QMC, diagnostics=diag)
    assert abs(val) > 0
    assert diag["converged"][25.0]


def test_d3_check_off_runs_one_scramble():
    # the first of the seeds that quad.qmc_seeds derives, 2^m points, once
    inst = make_instance("tilted", d=3, b0=0.3, b1=0.5)
    fam = TestFunctionFamily(kind="user", inst=inst,
                             factors=[indicator_factor(-inst.b1, inst.b1)] * inst.dim)
    quad = QuadPolicy(qmc_log2_nodes=10, check=False)
    diag = {}
    val = eval_I(inst, fam, 25.0, quad=quad, diagnostics=diag)
    j0 = inst.dim - 1
    boxes = _support_boxes(inst, fam.factors_for(25.0), j0)
    seed = np.random.SeedSequence(quad.qmc_seeds).generate_state(4)[0]
    est, n = next(_sobol_levels(inst, fam.factors_for(25.0), 25.0, j0, boxes,
                                quad, [seed]))
    assert val == est[0] and n == 2**10
    assert diag == {"n_nodes": {25.0: 2**10}}


@pytest.fixture(scope="module")
def paper3_extremizer():
    """paper-odd-d3 and its extremizer, calibrated over the benchmark's
    sweep, as perfbench/reference.json records them."""
    inst = make_instance("paper-odd-d3")
    fam = calibrate_extremizer(inst, extremizer_family(inst),
                               [25.0, 50.0, 100.0, 200.0, 400.0, 800.0])
    return inst, fam


def test_d3_doubling_reuses_the_sobol_prefix(paper3_extremizer):
    # a doubled scramble is its own sequence's first 2^(m+1) points
    inst, fam = paper3_extremizer
    factors = fam.factors_for(25.0)
    j0 = inst.dim - 1
    boxes = _support_boxes(inst, factors, j0)
    seeds = [12345]
    levels = _sobol_levels(inst, factors, 25.0, j0, boxes,
                           QuadPolicy(qmc_log2_nodes=10), seeds)
    first, n1 = next(levels)
    doubled, n2 = next(levels)
    direct, n = next(_sobol_levels(inst, factors, 25.0, j0, boxes,
                                   QuadPolicy(qmc_log2_nodes=11), seeds))
    assert (n1, n2, n) == (2**10, 2**11, 2**11)
    assert doubled[0] != first[0]
    assert abs(doubled[0] - direct[0]) <= 1e-15 * abs(direct[0])


def test_d3_extremizer_converges_at_the_first_level(paper3_extremizer):
    inst, fam = paper3_extremizer
    diag = {}
    val = eval_I(inst, fam, 25.0, diagnostics=diag)
    assert diag["converged"][25.0]
    assert diag["n_nodes"][25.0] == 4 * 2**17
    se = diag["standard_error"][25.0]
    assert np.isfinite(se) and se > 0.0
    assert diag["refinement_mismatch"][25.0] == 2.0 * se / abs(val)
    with open(REFERENCE) as fh:
        ref = complex(*json.load(fh)["qmc-d3"]["25"])
    assert abs(val - ref) <= 1e-6 * abs(ref)


def test_d3_hard_bump_family_is_reported_unconverged():
    # four 2^10-point scrambles double three times and still spread by
    # more than agree_tol: the result is data, not an exception
    inst = make_instance("paper-odd-d3")
    fam = random_bump_family(inst, np.random.default_rng(1))
    diag = {}
    val = eval_I(inst, fam, 800.0, quad=QuadPolicy(qmc_log2_nodes=10),
                 diagnostics=diag)
    assert np.isfinite(abs(val)) and val != 0.0
    assert diag["n_nodes"][800.0] == 4 * 2**13
    assert diag["converged"][800.0] is False
    se = diag["standard_error"][800.0]
    assert np.isfinite(se)
    assert diag["refinement_mismatch"][800.0] == 2.0 * se / abs(val) > 0.05


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
