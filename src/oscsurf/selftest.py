"""The acceptance battery: every exit criterion as a callable check.

Each check returns a CheckResult with a pass flag and a one-line detail; the
selftest, the pytest acceptance module and the subcommands that take the
configured instance all consume these, so each criterion is defined once.
Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry, kernel, nondegen, tangent, tiling, wavepackets
from .errors import ConstraintError
from .fields import BumpField
from .instance import make_instance
from .window import make_window

LAMBDA_SWEEP = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0]
RECONSTRUCT_LAMBDAS = [1.0, 10.0, 100.0]
PACKET_LAMBDA_RANGE = (25.0, 1.0e4)  # the operating range of the functional


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def status(self):
        return "pass" if self.passed else "fail"


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        out.elapsed = time.perf_counter() - t0
        return out
    return wrapper


def _paper_instance():
    return make_instance("paper-even-d2", b0=0.3, b1=0.5)


def _worst(values):
    """The largest of values, 0.0 when there are none.  Any NaN makes the
    result NaN, so a NaN sample fails every `worst <= tol` gate wherever it
    falls (the builtin max keeps or drops a NaN by its position)."""
    values = list(values)
    return float(np.max(values)) if values else 0.0


# -- 1 ----------------------------------------------------------------------

@_timed
def check_tiling_boxsize(n_random=10**6, seed=1):
    """Cell length bound: exact per-cell checks plus the random rational
    battery with lambda in [1, 1e6]."""
    for lam in (1.0, 2.2, 10.0, 123.456, 1.0e4, 1.0e6):
        t = tiling.build_tiling(lam, 4 * lam)
        ok, cell, xi = tiling.check_tiling_exact(t)
        if not ok:
            return CheckResult("tiling-boxsize", False,
                               f"cell {cell} fails at xi={xi}, lambda={lam}")
    checked, failed = tiling.boxsize_battery(n_random, seed=seed)
    return CheckResult("tiling-boxsize", failed == 0,
                       f"{checked} exact rational samples, {failed} failures",
                       extras={"n": checked, "failed": failed})


# -- 2 & 3 ------------------------------------------------------------------

def _band_limited_signals(w, n_signals, seed, band_frac):
    """(cell table, signal) pairs: n_signals random signals band-limited to
    band_frac * xi_max per lambda in RECONSTRUCT_LAMBDAS, one generator.
    The signals of one lambda share one cell table of window w."""
    rng = np.random.default_rng(seed)
    for lam in RECONSTRUCT_LAMBDAS:
        xi_max = max(2.0 * lam, 30.0)
        grid = wavepackets.signal_grid(xi_max)
        table = wavepackets.cell_table(w, tiling.build_tiling(lam, xi_max), grid)
        for _ in range(n_signals):
            yield table, wavepackets.random_band_limited(rng, grid, band_frac * xi_max)


@_timed
def check_reconstruction(n_signals=50, tol=1e-6, seed=2024, band_frac=0.8,
                         w=None):
    """Round-trip error of synthesis(analysis(f)) over random band-limited
    signals at lambda in {1, 10, 100}, with window w (default make_window())."""
    w = w if w is not None else make_window()
    worst = _worst(wavepackets.round_trip_error(table, f)
                   for table, f in _band_limited_signals(w, n_signals, seed, band_frac))
    return CheckResult("reconstruction", worst <= tol,
                       f"max relative round-trip error {worst:.3e} (tol {tol:g})",
                       extras={"worst": worst})


@_timed
def check_analysis_bound(n_signals=50, slack=1e-6, seed=2024, band_frac=0.8,
                         w=None):
    """Energy bound of the analysis map against 1/fourier_floor, over the
    signals of check_reconstruction."""
    w = w if w is not None else make_window()
    bound = w.analysis_norm_constant + slack
    worst = _worst(wavepackets.analysis(table, f).norm_squared() / f.norm() ** 2
                   for table, f in _band_limited_signals(w, n_signals, seed, band_frac))
    return CheckResult("analysis-bound", worst <= bound,
                       f"max energy ratio {worst:.8f} (bound {bound:.6f})",
                       extras={"worst": worst, "bound": bound})


# -- 4 ----------------------------------------------------------------------

@_timed
def check_packet_scaling(n_samples=50, max_spread=10.0, seed=42):
    """Derivative-size ratios for k in {0,1,2} across random (lambda, xi):
    bounded spread and exact support containment.

    lambda is drawn log-uniformly over the functional's operating range
    (below it the box constraint rejects the frequency anyway).
    """
    w = make_window()
    rng = np.random.default_rng(seed)
    lo, hi = PACKET_LAMBDA_RANGE
    ratios = {0: [], 1: [], 2: []}
    supports_ok = True
    drawn = 0
    while drawn < n_samples:
        lam = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
        t = tiling.build_tiling(lam, 6 * lam)
        xi = float(rng.uniform(-4 * lam, 4 * lam))
        if tiling.locate(t, xi) is None:
            continue
        for k in (0, 1, 2):
            ok, ratio = wavepackets.derivative_bound_probe(w, t, xi, k, n_grid=1201)
            supports_ok &= ok
            ratios[k].append(ratio)
        drawn += 1
    spreads = {k: _worst(v) / float(np.min(v)) for k, v in ratios.items()}
    passed = supports_ok and all(s <= max_spread for s in spreads.values())
    detail = ", ".join(f"k={k}: x{spreads[k]:.2f}" for k in (0, 1, 2))
    return CheckResult("packet-scaling", passed,
                       f"ratio spreads {detail}; support exact: {supports_ok}",
                       extras={"spreads": spreads})


# -- 5 ----------------------------------------------------------------------

@_timed
def check_determinants(n_random=1000, tol=1e-10, c_floor=0.44, seed=5):
    """Closed-form determinants of the even d=2 example and the certified
    nondegeneracy floor on the box with b1 = 0.5."""
    inst = _paper_instance()
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.5, 0.5, size=(n_random, 4))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n_random)
    tts, taus = np.cos(ang), np.sin(ang)
    p1 = nondegen.Partition((0, 2), (1, 3))
    p2 = nondegen.Partition((0, 1), (2, 3))
    d1 = np.linalg.det(nondegen.bordered_matrix(inst, p1, xs, tts, taus))
    d2 = np.linalg.det(nondegen.bordered_matrix(inst, p2, xs, tts, taus))
    ref1 = -(1.0 + xs[:, 0]) * tts
    ref2 = -taus
    err1 = float(np.max(np.abs(d1 - ref1) / np.maximum(np.abs(ref1), 1.0)))
    err2 = float(np.max(np.abs(d2 - ref2) / np.maximum(np.abs(ref2), 1.0)))

    rep = nondegen.certify(inst, nondegen.box_grid(inst, 9),
                           nondegen.circle_grid(64))
    oracle = 0.5 / math.sqrt(1.25)  # closed-form circle minimization
    passed = err1 <= tol and err2 <= tol and rep.ok and rep.c_lower >= c_floor
    return CheckResult(
        "paper-determinants", passed,
        f"formula errors {err1:.2e}/{err2:.2e}; c_lower {rep.c_lower:.4f} "
        f">= {c_floor} (oracle {oracle:.4f})",
        extras={"c_lower": rep.c_lower, "err1": err1, "err2": err2})


# -- 6 ----------------------------------------------------------------------

@_timed
def check_jacobian_homogeneity(n_samples=1000, tol=1e-10, seed=6):
    """Ray constancy of the Jacobian ratio of the change-of-variables map."""
    inst = _paper_instance()
    rng = np.random.default_rng(seed)
    p = nondegen.Partition((0, 2), (1, 3))
    deviations = []
    skipped = 0
    for _ in range(n_samples):
        u = rng.uniform(-0.4, 0.4, size=2)
        v = rng.uniform(-0.4, 0.4, size=2)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        radii = (rng.uniform(0.5, 2.0), rng.uniform(20.0, 200.0))
        pairs = [(r * math.cos(theta), r * math.sin(theta)) for r in radii]
        r1, r2 = nondegen.jacobian_homogeneity_probe(inst, p, v, u, pairs)
        scale = _worst((r1, r2))
        if scale < 1e-12:
            skipped += 1
            continue
        deviations.append(abs(r1 - r2) / scale)
    worst = _worst(deviations)
    return CheckResult("jacobian-homogeneity", worst <= tol,
                       f"max ray deviation {worst:.2e} over "
                       f"{n_samples - skipped} samples ({skipped} near-singular)",
                       extras={"worst": worst})


# -- 7 ----------------------------------------------------------------------

@_timed
def check_ibp_identity(lam=50.0, tol=1e-4, min_order=2.0):
    """The iterated identity at reference resolution and its convergence
    order under one refinement, for orders one and two."""
    inst = _paper_instance()
    fld = tangent.TangentField(inst, index=0)
    xi = np.array([3.0, -2.0, 1.0, 0.5])
    phase = tangent.phase_with_modulation(inst, lam, xi)
    psi = BumpField(4, support_half_width=0.25, order=8, half_widths=0.5)
    details = []
    passed = True
    for N in (1, 2):
        ref = tangent.ibp_identity_check(inst, phase, psi, fld, None, N, nodes=16)
        fine = tangent.ibp_identity_check(inst, phase, psi, fld, None, N, nodes=32)
        order = math.log2(ref.rel_error / max(fine.rel_error, 1e-13))
        passed &= ref.rel_error <= tol and order >= min_order
        details.append(f"N={N}: rel {ref.rel_error:.2e}, order {order:.1f}")
    return CheckResult("ibp-identity", passed, "; ".join(details))


# -- 8 ----------------------------------------------------------------------

@_timed
def check_adjoint_tangency(n_points=10**4, n_pairs=20, tangency_tol=1e-8,
                           pairing_tol=1e-4, seed=8):
    """Tangency of every field at random points and the dual pairing
    identity over random bump pairs."""
    inst = _paper_instance()
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.5, 0.5, size=(n_points, 4))
    fields = [tangent.TangentField(inst, index=i) for i in range(4)]
    fields += [tangent.TangentField(inst, pair=(a, b))
               for a in range(4) for b in range(4) if a < b]
    worst_tan = _worst(np.abs(f.tangency_residual(pts)).max() for f in fields)

    from .exprs import as_expr, evaluate_chunked
    mismatches = []
    for _ in range(n_pairs):
        hw = rng.uniform(0.12, 0.22, size=2)
        cf = rng.uniform(-0.05, 0.05, size=(2, 4))
        f = BumpField(4, support_half_width=hw[0], order=6, half_widths=0.5,
                      centers=cf[0])
        g = BumpField(4, support_half_width=hw[1], order=6, half_widths=0.5,
                      centers=cf[1])
        if rng.uniform() < 0.5:
            fld = tangent.TangentField(inst, index=int(rng.integers(0, 4)))
        else:
            a, b = rng.choice(4, size=2, replace=False)
            fld = tangent.TangentField(inst, pair=(int(a), int(b)))
        boxes = [(max(cf[0][j] - hw[0], cf[1][j] - hw[1], -0.3),
                  min(cf[0][j] + hw[0], cf[1][j] + hw[1], 0.3))
                 for j in range(3)]
        chart = geometry.cached_chart(inst, 3, boxes, 36)
        lhs = np.sum(chart.weights
                     * evaluate_chunked(fld.apply(f), chart.points)
                     * evaluate_chunked(as_expr(g), chart.points))
        rhs = np.sum(chart.weights
                     * evaluate_chunked(as_expr(f), chart.points)
                     * evaluate_chunked(fld.apply_dual(g), chart.points))
        scale = max(abs(lhs), abs(rhs), 1e-12)
        mismatches.append(abs(lhs - rhs) / scale)
    worst_pair = _worst(mismatches)
    passed = worst_tan <= tangency_tol and worst_pair <= pairing_tol
    return CheckResult("adjoint-tangency", passed,
                       f"max |X rho| {worst_tan:.2e}; "
                       f"max pairing mismatch {worst_pair:.2e}",
                       extras={"tangency": worst_tan, "pairing": worst_pair})


# -- 9 ----------------------------------------------------------------------

@_timed
def check_sharpness_slope(target=-1.5, tol=0.15, inst=None, lambdas=None,
                          c_prime=0.1):
    """Fitted log-log slope of the extremizer family over the sweep
    (default: the paper instance over LAMBDA_SWEEP)."""
    inst = inst or _paper_instance()
    fam = kernel.extremizer_family(inst, c_prime=c_prime)
    rep = kernel.decay_fit(inst, fam, lambdas or LAMBDA_SWEEP)
    passed = abs(rep.slope - target) <= tol
    return CheckResult("sharpness-slope", passed,
                       f"slope {rep.slope:.4f} (target {target} +- {tol}); "
                       f"lower ratio min {rep.lower_ratio_min:.3e}",
                       extras={"slope": rep.slope, "report": rep})


# -- 10 ---------------------------------------------------------------------

@_timed
def check_upper_bound(n_families=20, seed=1234, inst=None, lambdas=None,
                      max_freq=2.0, normalized=True):
    """Scaled upper ratios of random bump families across the sweep
    (default: the paper instance over LAMBDA_SWEEP): bounded, with no
    monotone tenfold growth."""
    inst = inst or _paper_instance()
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(n_families):
        fam = kernel.random_bump_family(inst, rng, max_freq=max_freq,
                                        normalized=normalized)
        reports.append(kernel.decay_fit(inst, fam, lambdas or LAMBDA_SWEEP))
    worst_ratio = _worst(r.upper_ratio_max for r in reports)
    violations = sum(r.growth_violation for r in reports)
    slopes = [r.slope for r in reports] or [math.nan]
    return CheckResult("upper-bound",
                       violations == 0 and not math.isnan(worst_ratio),
                       f"{n_families} families, max scaled ratio "
                       f"{worst_ratio:.4g}, {violations} growth violations, "
                       f"slopes in [{min(slopes):.2f}, {max(slopes):.2f}]",
                       extras={"worst_ratio": worst_ratio, "reports": reports})


# -- 11 ---------------------------------------------------------------------

@_timed
def check_kernel_diagnostics(n_samples=20, lam=100.0, tol=0.01,
                             oracle_nodes=120, seed=7, inst=None):
    """Kernel values against the independent dense oracle, plus the exact
    vanishing short-circuits, on a d = 2 instance (default: the paper
    instance).  extras["samples"] holds the (y, xi, kernel value) triples,
    extras["mismatches"] their relative distances from the oracle and
    extras["converged"] the kernel's own agreement flags."""
    inst = inst or _paper_instance()
    if inst.d != 2:
        raise ConstraintError(
            f"kernel diagnostics need d = 2 (got d = {inst.d}): the dense "
            f"oracle grid has oracle_nodes^(2d-1) points")
    w = make_window()
    t = tiling.build_tiling(lam, 6 * lam)
    rng = np.random.default_rng(seed)
    samples = []
    mismatches = []
    converged = []
    while len(samples) < n_samples:
        # y on M, free coordinates in +-b0/2; xi off cell boundaries
        y = rng.uniform(-0.5 * inst.b0, 0.5 * inst.b0, size=inst.dim)
        y[-1] = geometry.graph_solve(inst, inst.dim - 1, y[:-1])
        if abs(y[-1]) > inst.b0:
            continue
        xi = rng.uniform(-3 * lam, 3 * lam, size=inst.dim)
        xi = np.where(np.abs(xi % t.n0) < 0.25, xi + 0.37 * t.n0, xi)
        if any(tiling.locate(t, float(x)) is None for x in xi):
            continue
        diag = {}
        val = kernel.kernel_eval(inst, w, t, y, xi, lam, diagnostics=diag)
        converged.append(diag.get("converged", True))
        oracle = kernel.kernel_eval_dense(inst, w, t, y, xi, lam,
                                          nodes_per_axis=oracle_nodes)
        mismatches.append(abs(val - oracle) / max(abs(oracle), 1e-12))
        samples.append((y, xi, val))
    worst = _worst(mismatches)

    far = kernel.kernel_eval(inst, w, t, np.array([5.0, 0.0, 0.0, 0.0]),
                             np.array([7.0, 7.0, 7.0, 7.0]), lam)
    y_off = np.array([0.25, 0.25, 0.25, 0.28])  # rho ~ 1.09 >> packet scales
    off = kernel.kernel_eval(inst, w, t, y_off,
                             np.array([7.0, 7.0, 7.0, 7.0]), lam)
    zeros_exact = (far == 0.0) and (off == 0.0)
    passed = worst <= tol and zeros_exact
    # argmax picks the first NaN, the sample that makes worst NaN
    at = f" (sample {int(np.argmax(mismatches))})" if mismatches else ""
    return CheckResult("kernel-diagnostics", passed,
                       f"max oracle mismatch {worst:.2%}{at}; "
                       f"exact zeros: {zeros_exact}",
                       extras={"worst": worst, "mismatches": mismatches,
                               "converged": converged, "samples": samples})


ALL_CHECKS = [
    ("tiling-boxsize", check_tiling_boxsize),
    ("reconstruction", check_reconstruction),
    ("analysis-bound", check_analysis_bound),
    ("packet-scaling", check_packet_scaling),
    ("paper-determinants", check_determinants),
    ("jacobian-homogeneity", check_jacobian_homogeneity),
    ("ibp-identity", check_ibp_identity),
    ("adjoint-tangency", check_adjoint_tangency),
    ("sharpness-slope", check_sharpness_slope),
    ("upper-bound", check_upper_bound),
    ("kernel-diagnostics", check_kernel_diagnostics),
]


def run_all(skip=(), verbose=True):
    results = []
    for name, fn in ALL_CHECKS:
        if name in skip:
            results.append(CheckResult(name, True, "skipped", extras={"skipped": True}))
            if verbose:
                print(f"[skip] {name}")
            continue
        res = fn()
        results.append(res)
        if verbose:
            print(f"[{res.status}] {res.name}: {res.detail} ({res.elapsed:.1f}s)")
    return results
