"""The acceptance battery, one test per exit criterion.

Each test prints its pass/fail line (visible with -s or on failure) and
asserts the criterion at the tolerance pinned in the battery itself.  The
command-line `oscsurf selftest` runs the same checks.
"""

import math
import warnings

import numpy as np
import pytest

from oscsurf import geometry, kernel, selftest, tiling
from oscsurf.errors import ConstraintError
from oscsurf.instance import make_instance
from oscsurf.window import make_window


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


def test_kernel_diagnostics_fail_on_a_nan_oracle(monkeypatch):
    monkeypatch.setattr(kernel, "kernel_eval_dense",
                        lambda *args, **kwargs: complex(math.nan, math.nan))
    res = selftest.check_kernel_diagnostics(n_samples=2)
    assert not res.passed
    assert math.isnan(res.extras["worst"])
    assert all(math.isnan(m) for m in res.extras["mismatches"])
    assert res.detail.startswith("max oracle mismatch nan% (sample 0); ")


def test_kernel_diagnostics_name_the_worst_sample(monkeypatch):
    # the second of three oracle values is off by 50%, the others by 0%
    values = iter([1.0, 2.0, 1.0])
    monkeypatch.setattr(kernel, "kernel_eval",
                        lambda *args, **kwargs: 1.0 + 0.0j)
    monkeypatch.setattr(kernel, "kernel_eval_dense",
                        lambda *args, **kwargs: next(values))
    res = selftest.check_kernel_diagnostics(n_samples=3)
    assert res.extras["mismatches"] == [0.0, 0.5, 0.0]
    assert res.detail.startswith("max oracle mismatch 50.00% (sample 1); ")
    assert not res.passed


def test_one_oracle_node_per_axis_is_rejected():
    # the trapezoid rule needs two nodes per axis; one used to give a
    # zero-width rule and a NaN oracle value
    inst = make_instance("paper-even-d2")
    w, t = make_window(), tiling.build_tiling(100.0, 600.0)
    y = np.array([0.05, -0.03, 0.02, 0.0])
    y[3] = geometry.graph_solve(inst, 3, y[:3])
    xi = np.array([40.0, -30.0, 20.0, 10.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintError):
            kernel.kernel_eval_dense(inst, w, t, y, xi, 100.0,
                                     nodes_per_axis=1)
        with pytest.raises(ConstraintError):
            selftest.check_kernel_diagnostics(n_samples=1, oracle_nodes=1)
