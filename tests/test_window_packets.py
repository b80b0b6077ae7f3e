import functools
import math

import numpy as np
import pytest

from oscsurf import window
from oscsurf.cli import main
from oscsurf.errors import (
    BandLimitError,
    BoundaryFrequencyError,
    ConstraintError,
    WindowConstructionError,
)
from oscsurf.geometry import gauss_legendre
from oscsurf.selftest import check_reconstruction
from oscsurf.tiling import build_tiling, locate
from oscsurf.wavepackets import (
    SampledSignal,
    WavePacket,
    analysis,
    cell_table,
    derivative_bound_probe,
    from_spectrum,
    frequencies,
    packet_for,
    random_band_limited,
    round_trip_error,
    signal_grid,
    spectrum,
    synthesis,
)
from oscsurf.window import (
    _BLOCK,
    _autocorr_deriv,
    _autocorr_deriv_rows,
    _bump_transform,
    _bump_transform_rows,
    make_window,
)


@pytest.fixture(scope="module")
def w():
    return make_window()


@pytest.fixture(scope="module")
def t10():
    return build_tiling(10.0, 40.0)


# -- window -------------------------------------------------------------------

def test_support_half_width_is_quarter(w):
    assert w.support_half_width == 0.25
    assert w.phi(np.array([0.26, -0.3])).tolist() == [0.0, 0.0]
    assert w.phi(np.array([0.2]))[0] != 0.0


def test_window_even_and_smooth(w):
    x = np.linspace(-0.24, 0.24, 101)
    assert np.allclose(w.phi(x), w.phi(-x), atol=1e-12)
    # first derivative is odd
    assert np.allclose(w.phi_deriv(1, x), -w.phi_deriv(1, -x), atol=1e-10)


def test_transform_nonnegative_with_unit_floor(w):
    assert np.all(w.hat_samples >= 0.0)
    assert w.fourier_floor == pytest.approx(1.0)
    assert w.phi_hat(np.array([0.5]))[0] >= w.fourier_floor - 1e-12
    assert w.analysis_norm_constant == pytest.approx(1.0)


def test_negated_profile_fails_construction():
    with pytest.raises(WindowConstructionError):
        make_window(profile="negated")


def test_unknown_profile_rejected():
    with pytest.raises(WindowConstructionError):
        make_window(profile="boxcar")


def test_phi_deriv_matches_difference_quotient(w):
    x = np.linspace(-0.2, 0.2, 41)
    h = 1e-6
    fd = (w.phi(x + h) - w.phi(x - h)) / (2 * h)
    assert np.max(np.abs(fd - w.phi_deriv(1, x))) < 1e-4


# (blocked, one-shot, half-width of the test points)
QUADRATURES = [(_bump_transform, _bump_transform_rows, 40.0)] + [
    (functools.partial(_autocorr_deriv, k),
     functools.partial(_autocorr_deriv_rows, k), 0.3) for k in range(4)]


@pytest.mark.parametrize("blocked, one_shot, span", QUADRATURES)
def test_blocked_quadratures_match_one_shot(blocked, one_shot, span):
    """The per-point quadratures, run in blocks of _BLOCK points, give the
    one-shot values bit for bit and keep the input's shape."""
    rng = np.random.default_rng(1)
    for n in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
        x = rng.uniform(-span, span, size=n)
        got = blocked(x)
        assert got.shape == (n,)
        assert np.array_equal(got, one_shot(x))
    x = rng.uniform(-span, span, size=(_BLOCK // 3, 7))  # blocks cross rows
    got = blocked(x)
    assert got.shape == x.shape
    assert np.array_equal(got, one_shot(x.ravel()).reshape(x.shape))
    got = blocked(0.1)
    assert np.shape(got) == ()
    assert got == one_shot(np.array([0.1]))[0]


def test_window_build_memory_is_bounded(peak_mb):
    # the one-shot quadratures held 16,385 x 256 and 16,385 x 160 arrays,
    # a peak of about 260 MB
    assert peak_mb(make_window) < 32.0


# -- packets ------------------------------------------------------------------

def test_packet_norm_matches_window_for_all_cells(w, t10):
    # l2_norm returns the window norm by unitarity of the dilation; integrate
    # |pk|^2 over the packet support to check that it holds for every cell
    for cell in t10.cells:
        pk = WavePacket(window=w, cell=cell)
        h = pk.support_half_width
        x, wts = gauss_legendre(400, -h, h)
        direct = math.sqrt(float(np.sum(np.abs(pk(x)) ** 2 * wts)))
        assert direct == pytest.approx(w.l2_norm, abs=1e-8)
        assert pk.l2_norm() == w.l2_norm


def test_packet_support_containment(w, t10):
    pk = packet_for(w, t10, 12.0)
    r = max(10.0, 12.0) ** -0.5
    assert pk.support_half_width <= r / 2.0
    outside = np.array([r / 2 + 1e-9, -r])
    assert np.all(pk(outside) == 0.0)


def test_packet_modulation_and_scale(w, t10):
    pk = packet_for(w, t10, 12.0)
    assert pk.scale == 7
    assert pk.modulation == pytest.approx(12.5)


def test_derivative_probe_k0_bound(w, t10):
    sup_phi = float(np.abs(w.samples).max())
    ok, ratio = derivative_bound_probe(w, t10, 12.0, 0)
    assert ok
    assert ratio <= math.sqrt(3.0) * sup_phi + 1e-9


def test_derivative_probe_boundary_rejected(w, t10):
    with pytest.raises(BoundaryFrequencyError):
        derivative_bound_probe(w, t10, 9.0, 1)


def test_derivative_probe_support_scaling(w):
    lam = 10.0
    t = build_tiling(lam, 60.0)
    ok, _ = derivative_bound_probe(w, t, 12.0, 0)
    assert ok  # supp inside [-r/2, r/2] with r = 12^(-1/2)


# -- analysis / synthesis ------------------------------------------------------

@pytest.fixture(scope="module")
def table10(w, t10):
    return cell_table(w, t10, signal_grid(40.0))


# the per-cell loop that analysis and synthesis ran before the cell table:
# the window transform recomputed for every signal, in each direction

def _reference_mask_and_transform(w, cell, xi):
    mask = (xi >= cell.lo) & (xi < cell.hi)
    hat = np.zeros_like(xi)
    if np.any(mask):
        hat[mask] = w.phi_hat((xi[mask] - cell.center) / cell.length)
    return mask, hat


def _reference_analysis(w, t, sig, band_tol=1e-7):
    xi, fhat = spectrum(sig)
    total = float(np.sum(np.abs(fhat) ** 2))
    lo, hi = min(q.lo for q in t.cells), max(q.hi for q in t.cells)
    covered = (xi >= lo) & (xi < hi)
    out_of_band = float(np.sum(np.abs(fhat[~covered]) ** 2))
    if total > 0 and out_of_band > band_tol**2 * total:
        raise BandLimitError("out of band")
    spectral = {}
    for cell in t.cells:
        mask, hat = _reference_mask_and_transform(w, cell, xi)
        if float(np.sum(np.abs(fhat[mask]) ** 2)) <= 1e-28 * total:
            continue
        vhat = np.zeros_like(fhat)
        vhat[mask] = fhat[mask] / (math.sqrt(cell.length) * hat[mask])
        spectral[cell] = vhat
    return spectral


def _reference_synthesis(w, grid, spectral):
    xi = frequencies(grid)
    shat = np.zeros(grid.n, dtype=complex)
    for cell, vhat in spectral.items():
        mask, hat = _reference_mask_and_transform(w, cell, xi)
        shat[mask] += cell.length * vhat[mask] * hat[mask] / math.sqrt(cell.length)
    return from_spectrum(grid, shat)


def _single_cell_signal(grid, cell):
    xi = frequencies(grid)
    fhat = np.zeros(grid.n, dtype=complex)
    fhat[(xi >= cell.lo + 0.5) & (xi <= cell.hi - 0.5)] = 1.0 + 0.5j
    return from_spectrum(grid, fhat)


@pytest.mark.parametrize("lam, xi_max", [(10.0, 40.0), (100.0, 200.0)])
def test_cell_table_matches_the_per_cell_loop(w, lam, xi_max):
    """Coefficients and reconstructed values equal the per-cell loop's bit
    for bit, for the zero signal, a single-cell signal and random
    band-limited signals; both reject an out-of-band signal."""
    t = build_tiling(lam, xi_max)
    grid = signal_grid(xi_max)
    table = cell_table(w, t, grid)
    rng = np.random.default_rng(11)
    signals = [grid, _single_cell_signal(grid, t.cells[len(t.cells) // 2])]
    signals += [random_band_limited(rng, grid, 0.8 * xi_max) for _ in range(4)]
    for f in signals:
        want = _reference_analysis(w, t, f)
        coeffs = analysis(table, f)
        assert list(coeffs.spectral) == list(want)
        for cell, vhat in want.items():
            assert np.array_equal(coeffs.spectral[cell], vhat)
        got = synthesis(table, coeffs).values
        assert np.array_equal(got, _reference_synthesis(w, grid, want).values)

    xi = frequencies(grid)
    fhat = np.zeros(grid.n, dtype=complex)
    fhat[np.abs(xi) > 1.5 * xi_max] = 1.0  # energy beyond the cover
    f = from_spectrum(grid, fhat)
    with pytest.raises(BandLimitError):
        _reference_analysis(w, t, f)
    with pytest.raises(BandLimitError):
        analysis(table, f)


def test_window_transform_once_per_grid(w, monkeypatch):
    """The reconstruction check computes the window transform once per
    (tiling, grid), however many signals share it."""
    calls = []
    transform = window._bump_transform

    def counted(u):
        calls.append(np.size(u))
        return transform(u)

    monkeypatch.setattr(window, "_bump_transform", counted)
    counts = []
    for n in (1, 5):
        calls.clear()
        assert check_reconstruction(n_signals=n, w=w).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_reconstruct_never_builds_the_time_domain_window(tmp_path, monkeypatch):
    """oscsurf reconstruct reads only the transform half of the window;
    oscsurf window, which writes the samples, computes them."""
    calls = []
    autocorr = window._autocorr_deriv

    def counted(k, x):
        calls.append(k)
        return autocorr(k, x)

    monkeypatch.setattr(window, "_autocorr_deriv", counted)
    assert main(["reconstruct", "--out", str(tmp_path / "r"), "--quiet"]) == 0
    assert calls == []
    assert main(["window", "--out", str(tmp_path / "w"), "--quiet"]) == 0
    assert calls == [0]


def test_analysis_zero_signal(table10):
    grid = signal_grid(40.0)
    coeffs = analysis(table10, grid)
    assert coeffs.spectral == {}
    assert coeffs.norm_squared() == 0.0
    rec = synthesis(table10, coeffs)
    assert np.all(rec.values == 0.0)


def test_analysis_single_cell_support(t10, table10):
    target = [q for q in t10.cells if (q.lo, q.hi) == (9, 16)][0]
    f = _single_cell_signal(signal_grid(40.0), target)
    coeffs = analysis(table10, f)
    assert set(coeffs.spectral) == {target}
    # V f vanishes for xi in other cells and on boundaries
    assert locate(t10, 5.0) not in coeffs.spectral
    assert locate(t10, 9.0) is None
    assert locate(t10, 12.0) == target
    assert np.any(coeffs.spectral[target] != 0.0)


def test_analysis_energy_bound(w, table10):
    rng = np.random.default_rng(6)
    grid = signal_grid(40.0)
    bound = 1.0 / w.fourier_floor + 1e-6
    for _ in range(10):
        f = random_band_limited(rng, grid, 30.0)
        coeffs = analysis(table10, f)
        assert coeffs.norm_squared() <= bound * f.norm() ** 2


def test_band_limit_violation(table10):
    grid = signal_grid(40.0)
    xi = frequencies(grid)
    fhat = np.zeros(grid.n, dtype=complex)
    fhat[np.abs(xi) > 60.0] = 1.0  # energy beyond the cover
    f = from_spectrum(grid, fhat)
    with pytest.raises(BandLimitError):
        analysis(table10, f)


def test_round_trip_random_signals(w):
    rng = np.random.default_rng(7)
    for lam in (1.0, 10.0, 100.0):
        xi_max = max(2 * lam, 30.0)
        grid = signal_grid(xi_max)
        table = cell_table(w, build_tiling(lam, xi_max), grid)
        for _ in range(5):
            f = random_band_limited(rng, grid, 0.8 * xi_max)
            assert round_trip_error(table, f) <= 1e-6


def test_round_trip_single_packet(w):
    lam = 10.0
    t = build_tiling(lam, 200.0)
    grid = signal_grid(200.0)
    pk = packet_for(w, t, 4.5)
    f = grid.copy_with(pk(grid.grid))
    assert round_trip_error(cell_table(w, t, grid), f) <= 1e-6


def test_synthesis_cell_mismatch(w, table10):
    grid = signal_grid(40.0)
    f = random_band_limited(np.random.default_rng(8), grid, 8.0)
    coeffs = analysis(table10, f)
    other = build_tiling(17.0, 40.0)  # n0 = 4: different central cells
    with pytest.raises(ConstraintError):
        synthesis(cell_table(w, other, grid), coeffs)


def test_table_on_another_grid_is_rejected(w, t10, table10):
    grid = signal_grid(40.0)
    f = random_band_limited(np.random.default_rng(8), grid, 8.0)
    coeffs = analysis(table10, f)
    wider = cell_table(w, t10, signal_grid(80.0))  # twice the samples
    shifted = cell_table(w, t10, SampledSignal(0.0, grid.dx, grid.values))
    for table in (wider, shifted):
        with pytest.raises(ConstraintError):
            analysis(table, f)
        with pytest.raises(ConstraintError):
            synthesis(table, coeffs)


def test_spectrum_inverse_consistency():
    grid = signal_grid(20.0)
    rng = np.random.default_rng(9)
    f = grid.copy_with(rng.standard_normal(grid.n)
                       + 1j * rng.standard_normal(grid.n))
    _, fhat = spectrum(f)
    back = from_spectrum(grid, fhat)
    assert np.allclose(back.values, f.values, atol=1e-12)
