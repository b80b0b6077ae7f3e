import numpy as np
import pytest

from oscsurf.errors import ConstraintError
from oscsurf.fields import FDField
from oscsurf.instance import make_instance
from oscsurf.kernel import (
    QuadPolicy,
    constant_family,
    eval_I,
    extremizer_family,
)
from oscsurf.wavepackets import (
    random_band_limited,
    read_signal_binary,
    read_signal_text,
    signal_grid,
    write_signal_binary,
    write_signal_text,
)


def test_signal_text_roundtrip(tmp_path):
    grid = signal_grid(20.0)
    f = random_band_limited(np.random.default_rng(0), grid, 15.0)
    path = tmp_path / "sig.txt"
    write_signal_text(path, f)
    back = read_signal_text(path)
    assert back.n == f.n
    assert back.x0 == f.x0 and back.dx == f.dx
    assert np.allclose(back.values, f.values, atol=0, rtol=0)


def test_signal_binary_roundtrip(tmp_path):
    grid = signal_grid(20.0)
    f = random_band_limited(np.random.default_rng(1), grid, 15.0)
    path = tmp_path / "sig.bin"
    write_signal_binary(path, f)
    back = read_signal_binary(path)
    assert back.x0 == f.x0 and back.dx == f.dx
    assert np.array_equal(back.values, f.values)


def test_signal_binary_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ConstraintError):
        read_signal_binary(path)


def test_signal_text_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1.0 0.0\n0.1 1.0 0.0\n0.3 1.0 0.0\n")
    with pytest.raises(ConstraintError):
        read_signal_text(path)


# -- the d = 3 low-discrepancy path ---------------------------------------------

QUICK_QMC = QuadPolicy(qmc_log2_nodes=16)


def test_d3_constant_family_lambda_independent():
    inst = make_instance("tilted", d=3, b0=0.3, b1=0.5)
    fam = constant_family(inst)
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
    fam = constant_family(inst)
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
    f = FDField(4, lambda p: p.sum(axis=-1), half_widths=0.5, max_order=4)
    with pytest.raises(ConstraintError):
        make_instance("custom", b0=0.3, b1=0.5, rho=f)
