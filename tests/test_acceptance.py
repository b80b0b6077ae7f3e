"""The acceptance battery, one test per exit criterion.

Each test prints its pass/fail line (visible with -s or on failure) and
asserts the criterion at the tolerance pinned in the battery itself.  The
command-line `oscsurf selftest` runs the same checks.
"""

import math

import numpy as np

from oscsurf import selftest


def _run(check):
    res = check()
    print(f"[{res.status}] {res.name}: {res.detail} ({res.elapsed:.1f}s)")
    assert res.passed, f"{res.name}: {res.detail}"
    return res


def test_criterion_01_tiling_boxsize_exact():
    res = _run(selftest.check_tiling_boxsize)
    assert res.elapsed < 10.0


def test_criterion_02_reconstruction():
    res = _run(selftest.check_reconstruction)
    assert res.elapsed < 60.0


def test_criterion_03_analysis_bound():
    _run(selftest.check_analysis_bound)


def test_criterion_04_packet_scaling():
    _run(selftest.check_packet_scaling)


def test_criterion_05_paper_determinants_and_certificate():
    res = _run(selftest.check_determinants)
    assert res.elapsed < 60.0
    assert res.extras["c_lower"] >= 0.44


def test_criterion_06_jacobian_homogeneity():
    _run(selftest.check_jacobian_homogeneity)


def test_criterion_07_ibp_identity():
    res = _run(selftest.check_ibp_identity)
    assert res.elapsed < 300.0


def test_criterion_08_adjointness_and_tangency():
    _run(selftest.check_adjoint_tangency)


def test_criterion_09_sharpness_slope():
    res = _run(selftest.check_sharpness_slope)
    assert res.elapsed < 900.0
    assert abs(res.extras["slope"] + 1.5) <= 0.15


def test_criterion_10_upper_bound_consistency():
    res = _run(selftest.check_upper_bound)
    assert res.elapsed < 1200.0


def test_criterion_11_kernel_diagnostics():
    _run(selftest.check_kernel_diagnostics)


def test_a_nan_sample_makes_the_worst_value_nan_wherever_it_falls():
    nan = float("nan")
    for values in ([nan, 1.0], [1.0, nan], [0.0, nan, 2.0]):
        assert math.isnan(selftest._worst(values))
    assert selftest._worst([0.5, 2.0]) == 2.0
    assert selftest._worst([]) == 0.0


def test_kernel_diagnostics_fail_on_a_nan_oracle():
    # one oracle node per axis gives a zero-width rule and a NaN oracle value
    with np.errstate(divide="ignore", invalid="ignore"):
        res = selftest.check_kernel_diagnostics(n_samples=2, oracle_nodes=1)
    assert not res.passed
    assert math.isnan(res.extras["worst"])
