from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscsurf import tiling
from oscsurf.errors import BoundaryFrequencyError, ConstraintError
from oscsurf.tiling import (
    boxsize_battery,
    boxsize_holds_exact,
    build_tiling,
    check_tiling_exact,
    locate,
    locate_strict,
    tiling_rows,
)


def test_lambda_one_cells():
    t = build_tiling(1.0, 9.0)
    assert t.n0 == 1
    cells = [(q.lo, q.hi) for q in t.cells]
    assert cells == [(-9, -4), (-4, -1), (-1, 0), (0, 1), (1, 4), (4, 9)]


def test_lambda_ten_cells():
    t = build_tiling(10.0, 25.0)
    assert t.n0 == 3
    central = [(q.lo, q.hi) for q in t.cells if q.kind == "central"]
    assert central == [(3 * k, 3 * k + 3) for k in range(-3, 3)]
    quad = [(q.lo, q.hi) for q in t.cells if q.kind != "central"]
    assert (9, 16) in quad and (16, 25) in quad
    assert (-16, -9) in quad and (-25, -16) in quad


def test_boxsize_example_cell():
    t = build_tiling(10.0, 25.0)
    cell = locate(t, 12.0)
    assert (cell.lo, cell.hi) == (9, 16)
    assert cell.length == 7
    assert 49.0 / 9.0 <= max(10.0, 12.0) <= 4 * 49.0


def test_cells_cover_and_tile():
    for lam in (1.0, 7.3, 10.0, 400.0):
        t = build_tiling(lam, 4 * lam)
        cells = sorted(t.cells, key=lambda q: q.lo)
        for a, b in zip(cells, cells[1:]):
            assert a.hi == b.lo  # adjacent, no gaps or interior overlap
        assert cells[0].lo <= -t.xi_max
        assert cells[-1].hi >= t.xi_max


def test_n0_is_integer_sqrt_floor():
    for lam in (1.0, 3.99, 4.0, 10.0, 99.9, 10000.0):
        t = build_tiling(lam, 4 * lam)
        assert t.n0**2 <= lam < (t.n0 + 1) ** 2


def test_locate_examples():
    t = build_tiling(10.0, 25.0)
    assert (locate(t, 12.0).lo, locate(t, 12.0).hi) == (9, 16)
    assert locate(t, 9.0) is None  # shared endpoint
    assert (locate(t, -2.0).lo, locate(t, -2.0).hi) == (-3, 0)
    with pytest.raises(BoundaryFrequencyError):
        locate_strict(t, 9.0)


def test_locate_out_of_cap():
    t = build_tiling(10.0, 25.0)
    with pytest.raises(ConstraintError):
        locate(t, 26.0)


def test_build_rejects_small_lambda():
    with pytest.raises(ConstraintError):
        build_tiling(0.5, 10.0)


def test_build_rejects_small_cap():
    with pytest.raises(ConstraintError):
        build_tiling(10.0, 5.0)


def test_exhaustive_exact_cells():
    for lam in (1.0, 2.2, 10.0, 123.456, 1e4):
        ok, cell, xi = check_tiling_exact(build_tiling(lam, 4 * lam))
        assert ok, (lam, cell, xi)


def test_random_battery_smoke():
    checked, failed = boxsize_battery(10**5, seed=3)
    assert checked == 10**5 and failed == 0


def test_random_battery_memory_is_bounded(peak_mb):
    # a takes 8 MB; c and the checks take one block's worth.  With c and
    # its bounds drawn whole the draws took 32 MB, and with the checks on
    # all 10^6 draws at once about 55 MB more
    assert peak_mb(boxsize_battery, 10**6, seed=1) < 16.0


def _one_shot_draws(n_samples, seed, lam_max, s):
    # the battery's draws made in one piece, the reference sample stream
    rng = np.random.default_rng(seed)
    a = rng.integers(s, lam_max * s + 1, size=n_samples, dtype=np.int64)
    return a, rng.integers(-4 * a, 4 * a + 1, dtype=np.int64)


# at lam_max = 10^8 most ranges 8a pass 2^32 and numpy draws them on its
# 64-bit path; at 10^6 every range takes the 32-bit path
@pytest.mark.parametrize("lam_max", [10**6, 10**8])
def test_battery_draws_c_in_blocks_as_one_stream(monkeypatch, lam_max):
    blocks = []
    failures = tiling._boxsize_failures

    def record(a, c, s):
        blocks.append((a.copy(), c.copy()))
        return failures(a, c, s)

    monkeypatch.setattr(tiling, "_boxsize_failures", record)
    n = 2 * tiling._BATTERY_BLOCK + 123
    result = boxsize_battery(n, seed=5, lam_max=lam_max)
    a, c = _one_shot_draws(n, 5, lam_max, 64)
    assert [len(x) for x, _ in blocks] == [tiling._BATTERY_BLOCK] * 2 + [123]
    assert np.array_equal(np.concatenate([x for x, _ in blocks]), a)
    assert np.array_equal(np.concatenate([y for _, y in blocks]), c)
    assert result == (n, failures(a, c, 64)) == (n, 0)
    assert np.any(8 * a > 2**32) == (lam_max > 10**6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 64),
       st.fractions(min_value=-4, max_value=4))
def test_boxsize_property_rational(lam_num, lam_den, xi_scale):
    """For exact rational (lambda, xi) with xi in the cover, the located
    cell satisfies the two-sided length bound exactly."""
    lam = Fraction(lam_num, lam_den) + 1  # >= 1
    xi = xi_scale * lam
    t = build_tiling(float(lam), float(4 * lam) + 1.0)
    cell = locate(t, float(xi))
    if cell is None:
        return  # boundary point: the packet is zero there by convention
    assert Fraction(cell.lo) <= xi <= Fraction(cell.hi)
    assert boxsize_holds_exact(cell, lam, xi)


def test_tiling_rows_format():
    t = build_tiling(10.0, 25.0)
    rows = tiling_rows(t)
    assert len(rows) == len(t.cells)
    lo, hi, kind, center = rows[0]
    assert hi - lo == t.cells[0].length
    assert center == pytest.approx(0.5 * (lo + hi))
