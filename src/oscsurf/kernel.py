"""The multilinear functional, its packet kernel, and decay measurement.

The functional pairs 2d one-variable functions against an oscillating factor
over the hypersurface M:

    I_lam(f_1, ..., f_2d) = int_M e^{i lam Phi(x)} prod_j f_j(x_j) a(x) dsigma.

Quadrature runs over a graph chart, restricted to the intersection of the
factor supports with the amplitude box.  For d = 2 the chart is 3-dimensional
and takes a tensor Gauss-Legendre rule with per-axis node counts scaled to the
phase variation (oscillation-resolved), checked against a refined rule; d = 3
takes a replicated scrambled Sobol rule whose standard error sets its size.
Either way the slice points are lifted to M by geometry.chart_on_surface, and
one agreement rule judges the spread of the estimates.

The extremizer family realizes the sharpness lower bound: modulated
indicators of width ~ lam^(-1/2), with the last axis widened by the graph
Lipschitz constant so that its indicator is identically one over the support
of the others.  Its quality conditions (linearized phase error below pi/4,
graph containment) are verified numerically per frequency, shrinking the
width constant when violated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, NonConvergenceError
from .fields import horner
from .geometry import (BLOCK_NODES, cached_chart, chart_on_surface,
                       gauss_legendre, tensor_integral)
from .wavepackets import packet_for

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Scales and frequency-regime classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleData:
    r_j: tuple
    r: float
    r_tilde: float


def scales(lam, xi):
    """Packet scales r_j = max(|lam|, |xi_j|)^(-1/2), their min r, and
    r_tilde = r^2 / max_j r_j."""
    xi = np.asarray(xi, dtype=float)
    r_j = np.power(np.maximum(abs(lam), np.abs(xi)), -0.5)
    r = float(r_j.min())
    return ScaleData(r_j=tuple(float(v) for v in r_j), r=r,
                     r_tilde=r * r / float(r_j.max()))


def classify_region(lam, xi, c_split=0.25):
    """'Xi1' when the packet scales are strongly unbalanced
    (min r_j <= c_split * max r_j, tie inclusive), else 'Xi2'."""
    if not 0.0 < c_split < 1.0:
        raise ConstraintError("c_split must lie in (0, 1)")
    s = scales(lam, xi)
    return "Xi1" if min(s.r_j) <= c_split * max(s.r_j) else "Xi2"


def normal_projection(inst, y, xi, lam):
    """lam grad Phi(y) + 2 pi xi + tau_0 grad rho(y), with the stationary
    normal multiplier

        tau_0 = - grad rho(y) . (lam grad Phi(y) + 2 pi xi) / |grad rho(y)|^2:

    the projection of the phase gradient orthogonal to grad rho(y)."""
    pts = np.atleast_2d(np.asarray(y, dtype=float))
    grad = inst.grad_rho(pts)
    s = np.sum(grad * grad, axis=-1)
    if np.any(s < 1e-16):
        raise ConstraintError("gradient of rho vanishes at the sample")
    vec = lam * inst.grad_phi(pts) + TWO_PI * np.asarray(xi, dtype=float)
    t0 = -np.sum(grad * vec, axis=-1) / s
    proj = vec + t0[:, None] * grad
    return proj[0] if np.ndim(y) == 1 else proj


# ---------------------------------------------------------------------------
# One-variable factors and test-function families
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LineFactor:
    """One slot of the multilinear form: support, evaluator, L^2 norm."""

    lo: float
    hi: float
    func: object
    l2: float
    label: str = ""
    phase_rate: float = 0.0  # bound on the modulation frequency (radians/unit)

    def __call__(self, x):
        return self.func(np.asarray(x, dtype=float))

    def scaled(self, c):
        return LineFactor(self.lo, self.hi, lambda x, f=self.func, c=c: c * f(x),
                          abs(c) * self.l2, label=self.label + f"*{c}",
                          phase_rate=self.phase_rate)


def indicator_factor(lo, hi, freq=0.0, label="indicator"):
    """Modulated indicator e^{2 pi i freq x} chi_[lo, hi]."""
    def f(x):
        inside = (x >= lo) & (x <= hi)
        return np.where(inside, np.exp(TWO_PI * 1j * freq * x), 0.0)
    return LineFactor(lo, hi, f, math.sqrt(hi - lo), label=label,
                      phase_rate=TWO_PI * abs(freq))


def bump_factor(center, half_width, order=6, freq=0.0, label="bump"):
    """Modulated polynomial bump e^{2 pi i freq x} (1 - ((x-c)/w)^2)^m."""
    from .fields import bump1d_value

    def f(x):
        return bump1d_value(0, x - center, half_width, order) \
            * np.exp(TWO_PI * 1j * freq * x)

    nodes, wts = gauss_legendre(200, center - half_width, center + half_width)
    l2 = math.sqrt(float(np.sum(np.abs(f(nodes)) ** 2 * wts)))
    return LineFactor(center - half_width, center + half_width, f, l2,
                      label=label, phase_rate=TWO_PI * abs(freq))


def packet_factor(w, t, xi, shift=0.0):
    """A wave packet translated by shift, as a line factor."""
    pk = packet_for(w, t, xi)
    half = pk.support_half_width

    def f(x):
        return pk(x - shift)

    return LineFactor(shift - half, shift + half, f, pk.l2_norm(),
                      label=f"packet(xi={xi})",
                      phase_rate=TWO_PI * abs(pk.modulation))


@dataclass(eq=False)
class TestFunctionFamily:
    """A family of 2d one-variable test functions, possibly frequency-scaled.

    kind 'extremizer' rebuilds its factors per lambda (widths ~ lam^(-1/2));
    'random-bump' and 'user' families are lambda-independent.
    """

    __test__ = False  # not a pytest class despite the name

    kind: str
    inst: object = None
    factors: list = None
    c_prime: float = 0.1
    normalized: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    def factors_for(self, lam):
        if self.kind in ("random-bump", "user"):
            out = self.factors
        elif self.kind == "extremizer":
            out = self._extremizer_factors(lam)
        else:
            raise ConstraintError(f"unknown family kind {self.kind!r}")
        if self.normalized:
            out = [f.scaled(1.0 / f.l2) for f in out]
        return out

    def _extremizer_factors(self, lam):
        if lam not in self._cache:
            inst = self.inst
            dim = inst.dim
            gphi0 = inst.grad_phi(np.zeros((1, dim)))[0]
            hw = self.c_prime * abs(lam) ** -0.5
            lip = inst.c_rho * inst.c_rho_inv
            factors = []
            for j in range(dim):
                width = hw if j < dim - 1 else lip * hw
                freq = -lam * gphi0[j] / TWO_PI
                factors.append(indicator_factor(-width, width, freq=freq,
                                                label=f"extremizer[{j}]"))
            self._cache[lam] = factors
        return self._cache[lam]


def extremizer_family(inst, c_prime=0.1, normalized=False):
    return TestFunctionFamily(kind="extremizer", inst=inst, c_prime=c_prime,
                              normalized=normalized)


def random_bump_family(inst, rng, order=6, max_freq=2.0, normalized=True):
    """2d random modulated bumps supported strictly inside the amplitude box.

    Modulation frequencies are capped at a few cycles per unit so that the
    desk-scale sweep sits past the resonance transition: for |nu| <= 2 the
    stationary set of lam Phi + 2 pi nu . x is already at the support scale
    by lam = 25, and measured sizes decay rather than climb toward their
    stationary-phase plateau mid-sweep.
    """
    factors = []
    for j in range(inst.dim):
        w = rng.uniform(0.3, 0.8) * inst.b0
        c = rng.uniform(-1.0, 1.0) * (inst.b0 - w) * 0.9
        freq = rng.uniform(-max_freq, max_freq)
        factors.append(bump_factor(c, w, order=order, freq=freq,
                                   label=f"bump[{j}]"))
    return TestFunctionFamily(kind="random-bump", inst=inst, factors=factors,
                              normalized=normalized)


# ---------------------------------------------------------------------------
# Oscillation-resolved quadrature policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadPolicy:
    base_nodes: int = 14
    nodes_per_radian: float = 0.7
    max_nodes: int = 420
    refine_factor: float = 1.5
    agree_tol: float = 0.05
    check: bool = True
    qmc_log2_nodes: int = 17          # per scramble, for charts of dimension > 3
    qmc_seeds: tuple = (24036, 71193)  # entropy the scrambles' seeds come from


DEFAULT_QUAD = QuadPolicy()


def _axis_phase_rates(inst, lam, factors, j0):
    """Per-axis bound on the phase variation rate (radians per unit length):
    the oscillating factor contributes |lam| sup|d_j Phi|, each factor its
    modulation rate, and the chart axis feeds through the graph Lipschitz
    bound."""
    sup_dphi = inst.phi_axis_sup
    lip = inst.c_rho * inst.c_rho_inv
    if not np.isfinite(lip):
        lip = 1.0
    rates = []
    j0_rate = abs(lam) * sup_dphi[j0] + factors[j0].phase_rate
    for j in range(inst.dim):
        if j == j0:
            continue
        rates.append(abs(lam) * sup_dphi[j] + factors[j].phase_rate
                     + lip * j0_rate)
    return rates


def _nodes_for(policy, rates, boxes, scale=1.0):
    out = []
    for rate, (lo, hi) in zip(rates, boxes):
        span = rate * (hi - lo)
        n = policy.base_nodes + int(math.ceil(policy.nodes_per_radian * span))
        n = int(math.ceil(n * scale))
        if n > policy.max_nodes:
            raise NonConvergenceError(
                f"axis would need {n} quadrature nodes (cap {policy.max_nodes})")
        out.append(n)
    return tuple(out)


def _support_boxes(inst, factors, j0):
    boxes = []
    for j, f in enumerate(factors):
        if j == j0:
            continue
        lo = max(f.lo, -inst.b0)
        hi = min(f.hi, inst.b0)
        if lo >= hi:
            return None
        boxes.append((lo, hi))
    return boxes


def _integrand(inst, pts, lam, factors, line=None):
    """e^{i lam Phi} a prod_j f_j(x_j) at the points pts.

    On a tensor grid, line(j, g) gives a function g of coordinate j alone at
    the points, evaluating g once per node of axis j and gathering.  The
    factors f_j go through it, and so do the amplitude's axis factors when
    it is a tensor product.  Without line every factor runs at every point.
    The product order is fixed, a = prod_j a_j in axis order, then
    e^{i lam Phi} a times f_0, ..., f_{2d-1}, so a gathered integrand equals
    the one evaluated at every point bit for bit.
    """
    amp_axes = inst.amp.axis_factors if line else None
    if amp_axes is None:
        amp = inst.amp.eval(pts)
    else:
        amp = np.ones(len(pts))
        for j, a in enumerate(amp_axes):
            amp = amp * line(j, a)
    vals = np.exp(1j * lam * inst.phi.eval(pts)) * amp
    for j, f in enumerate(factors):
        vals = vals * (line(j, f) if line else f(pts[:, j]))
    return vals


def _chart_values(inst, chart, lam, factors):
    return _integrand(inst, chart.points, lam, factors,
                      chart.line_values if chart.slice_nodes else None)


_QMC_SCRAMBLES = 4  # independent Sobol scrambles of the d = 3 rule
_QMC_DOUBLINGS = 3  # most times the d = 3 rule doubles every scramble


def _sobol_levels(inst, factors, lam, j0, boxes, quad, seeds):
    """Per-scramble Sobol estimates of the slice integral, one scramble per
    seed, at 2^m, 2^(m+1), ... points each (m = quad.qmc_log2_nodes).

    Yields (estimates, points per scramble) per level.  Each level draws the
    next points of every scramble's own sequence, so a level reuses the
    points of the ones before it, and lifts them a block of at most
    BLOCK_NODES points at a time.
    """
    from scipy.stats import qmc

    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    vol = float(np.prod(hi - lo))
    samplers = [qmc.Sobol(d=inst.dim - 1, scramble=True, seed=int(s))
                for s in seeds]
    sums = np.zeros(len(samplers), dtype=complex)
    n, new = 0, 2 ** quad.qmc_log2_nodes
    while True:
        for r, sampler in enumerate(samplers):
            for start in range(0, new, BLOCK_NODES):
                block = min(new - start, BLOCK_NODES)
                slice_pts = lo + sampler.random(block) * (hi - lo)
                chart = chart_on_surface(inst, j0, slice_pts, np.ones(block))
                sums[r] += chart.integrate(
                    _chart_values(inst, chart, lam, factors))
        n += new
        new = n
        yield sums * (vol / n), n


def _qmc_value(inst, factors, lam, j0, boxes, quad):
    """The replicated scrambled Sobol rule, as (value, info).

    _QMC_SCRAMBLES scrambles, seeded from quad.qmc_seeds, start at
    2^quad.qmc_log2_nodes points each; the value is the mean of their
    estimates and the standard error their spread, std / sqrt(scrambles).
    While the relative mismatch 2 SE / |value| is above quad.agree_tol (and
    |value| >= 1e-14) every scramble doubles, at most _QMC_DOUBLINGS times;
    past that the rule ends unconverged.  info holds "n_nodes" (over all
    scrambles), "mismatch", "converged" and "standard_error".  With
    quad.check off one scramble (the first seed) runs once and info holds
    "n_nodes" alone.
    """
    seeds = np.random.SeedSequence(quad.qmc_seeds).generate_state(
        _QMC_SCRAMBLES)
    if not quad.check:
        est, n = next(_sobol_levels(inst, factors, lam, j0, boxes, quad,
                                    seeds[:1]))
        return complex(est[0]), {"n_nodes": n}
    levels = _sobol_levels(inst, factors, lam, j0, boxes, quad, seeds)
    for doublings, (est, n) in enumerate(levels):
        value = complex(est.mean())
        se = float(np.std(est, ddof=1)) / math.sqrt(_QMC_SCRAMBLES)
        mismatch, converged = _agreement(2.0 * se, value, quad)
        if converged or doublings == _QMC_DOUBLINGS:
            return value, {"n_nodes": _QMC_SCRAMBLES * n,
                           "mismatch": mismatch, "converged": converged,
                           "standard_error": se}


def _tensor_value(inst, factors, lam, j0, boxes, quad, scale):
    """The oscillation-resolved tensor rule, node counts times scale, as
    (value, nodes), evaluated in slabs (geometry.tensor_integral)."""
    nodes = _nodes_for(quad, _axis_phase_rates(inst, lam, factors, j0), boxes,
                       scale=scale)
    return tensor_integral(
        inst, j0, boxes, nodes,
        lambda chart: _chart_values(inst, chart, lam, factors))


def eval_I(inst, fam, lam, quad=None, j0=None, diagnostics=None):
    """Surface-quadrature value of the multilinear functional at frequency lam.

    The frequency must satisfy the box constraint |lam|^(-1/2) <= min(b1-b0, 1).
    Charts of dimension up to three use the oscillation-resolved tensor rule
    with a two-resolution agreement check, and the refined value is kept.
    Higher-dimensional charts (d >= 3) use the replicated scrambled Sobol
    rule (_qmc_value), whose standard error is its agreement check.
    Disagreement records converged = False in diagnostics rather than
    guessing.  With quad.check off one resolution or one scramble runs and
    no agreement is recorded.

    diagnostics, when given, receives per lam "n_nodes" and, with the check
    on, "refinement_mismatch" and "converged"; for d >= 3 also
    "standard_error".
    """
    quad = quad or DEFAULT_QUAD
    inst.require_lambda(lam)
    factors = fam.factors_for(lam)
    if len(factors) != inst.dim:
        raise ConstraintError("need one factor per coordinate")
    if j0 is None:
        j0 = inst.dim - 1
    boxes = _support_boxes(inst, factors, j0)
    if boxes is None:
        return 0.0 + 0.0j

    if inst.dim - 1 > 3:
        value, info = _qmc_value(inst, factors, lam, j0, boxes, quad)
    else:
        value, n = _tensor_value(inst, factors, lam, j0, boxes, quad, 1.0)
        info = {"n_nodes": n}
        if quad.check:
            finer, n = _tensor_value(inst, factors, lam, j0, boxes, quad,
                                     quad.refine_factor)
            mismatch, converged = _agreement(abs(value - finer), finer, quad)
            value, info = finer, {"n_nodes": n, "mismatch": mismatch,
                                  "converged": converged}
    if diagnostics is not None:
        for key, val in info.items():
            key = "refinement_mismatch" if key == "mismatch" else key
            diagnostics.setdefault(key, {})[lam] = val
    return value


def _agreement(spread, value, quad):
    """The agreement rule for estimates of value that spread by spread: the
    relative mismatch, and whether it is within quad.agree_tol (or value is
    below 1e-14 in size)."""
    mismatch = spread / max(abs(value), 1e-300)
    return mismatch, mismatch <= quad.agree_tol or abs(value) < 1e-14


def extremizer_quality(inst, fam, lam, j0=None):
    """Verify the extremizer construction at this frequency.

    Returns (phase_error, containment_margin): the max over chart nodes of
    |lam| * |Phi - linearization| (must stay below pi/4) and the max of
    |x_{j0}| / (c_rho c_rho_inv c' lam^(-1/2)) (must stay below 1 so the
    widened indicator is identically one on the support of the others).
    """
    if j0 is None:
        j0 = inst.dim - 1
    factors = fam.factors_for(lam)
    boxes = _support_boxes(inst, factors, j0)
    chart = cached_chart(inst, j0, boxes, (9,) * (inst.dim - 1))
    pts = chart.points
    gphi0 = inst.grad_phi(np.zeros((1, inst.dim)))[0]
    phi0 = float(inst.phi.eval(np.zeros((1, inst.dim)))[0])
    lin = phi0 + pts @ gphi0
    phase_err = float(np.abs(lam * (inst.phi.eval(pts) - lin)).max())
    wide = factors[j0].hi
    containment = float(np.abs(pts[:, j0]).max() / wide) if len(pts) else 0.0
    return phase_err, containment


def calibrate_extremizer(inst, fam, lambdas, max_shrink=30):
    """Shrink the width constant until the quality conditions hold at every
    frequency of the sweep; returns the calibrated family."""
    if fam.kind != "extremizer":
        return fam
    c_prime = fam.c_prime
    for _ in range(max_shrink):
        trial = TestFunctionFamily(kind="extremizer", inst=inst,
                                   c_prime=c_prime, normalized=fam.normalized)
        worst_phase = 0.0
        worst_cont = 0.0
        for lam in lambdas:
            pe, cont = extremizer_quality(inst, trial, lam)
            worst_phase = max(worst_phase, pe)
            worst_cont = max(worst_cont, cont)
        if worst_phase < math.pi / 4 and worst_cont < 1.0:
            return trial
        c_prime *= 0.8
    raise NonConvergenceError("extremizer width calibration did not settle")


# ---------------------------------------------------------------------------
# The packet kernel
# ---------------------------------------------------------------------------

def _crosses_surface(inst, boxes):
    """Exact support test: rho is monotone along every axis, so its range
    over an axis-aligned box is spanned at the corners; constant corner sign
    means M misses the box."""
    dim = len(boxes)
    corners = np.array(np.meshgrid(*[(lo, hi) for lo, hi in boxes],
                                   indexing="ij")).reshape(dim, -1).T
    vals = inst.rho.eval(corners)
    return vals.min() <= 0.0 <= vals.max()


def _packet_setup(inst, w, t, y, xi, j0):
    """Packet factors shifted to y, the chart axis and the slice box; None
    when the kernel is exactly zero.  The axis defaults to the widest
    support box."""
    factors = [packet_factor(w, t, x, shift=c)
               for x, c in zip(np.asarray(xi, dtype=float),
                               np.asarray(y, dtype=float))]
    boxes = _support_boxes(inst, factors, None)
    if boxes is None or not _crosses_surface(inst, boxes):
        return None
    if j0 is None:
        j0 = int(np.argmax([hi - lo for lo, hi in boxes]))
    return factors, j0, [b for j, b in enumerate(boxes) if j != j0]


def kernel_eval(inst, w, t, y, xi, lam, quad=None, j0=None, diagnostics=None):
    """The packet kernel: the functional evaluated on 2d shifted packets.

    For d = 2 the tensor rule chooses its own resolution.  It runs at node
    counts scaled by 1/quad.refine_factor and then 1, and while two
    consecutive estimates disagree by eval_I's rule (relative mismatch above
    quad.agree_tol, unless |value| < 1e-14) it steps the scale up by
    quad.refine_factor; the finer estimate of the agreeing pair is returned.
    Where the first pair agrees that is the scale-1 rule.  A step past the
    per-axis node cap ends the ladder unconverged with the finest estimate
    reached (NaN if none fits), and nothing is raised.  For d = 3 it takes
    eval_I's replicated Sobol rule, which doubles its scrambles until their
    standard error agrees (see _qmc_value).

    diagnostics, when given, receives "n_nodes" (summed over the steps),
    "mismatch" (for d = 2 of the last pair compared, NaN when fewer than
    two estimates fit; for d = 3 2 SE / |value|) and "converged"; for d = 3
    also "standard_error".  A d = 3 kernel with quad.check off runs one
    scramble and reports "n_nodes" alone.

    Exact zero short-circuits: some packet support misses the amplitude box
    (covers y outside the domain), or the surface misses the support box
    entirely (covers |rho(y)| large compared to the packet scales).
    """
    quad = quad or DEFAULT_QUAD
    setup = _packet_setup(inst, w, t, y, xi, j0)
    if setup is None:
        value, info = 0.0 + 0.0j, {"n_nodes": 0, "mismatch": 0.0,
                                   "converged": True}
    else:
        factors, j0, boxes = setup
        if inst.dim - 1 > 3:
            value, info = _qmc_value(inst, factors, lam, j0, boxes, quad)
        else:
            value, info = _tensor_ladder(inst, factors, lam, j0, boxes, quad)
    if diagnostics is not None:
        diagnostics.update(info)
    return value


def _tensor_ladder(inst, factors, lam, j0, boxes, quad):
    """kernel_eval's d = 2 rule as (value, diagnostics); see there."""
    value, mismatch, n_total = complex(math.nan, math.nan), math.nan, 0
    converged = False
    for step in itertools.count(-1):
        try:
            finer, n = _tensor_value(inst, factors, lam, j0, boxes, quad,
                                     quad.refine_factor ** step)
        except NonConvergenceError:  # past the node cap
            break
        n_total += n
        if step > -1:
            mismatch, converged = _agreement(abs(value - finer), finer, quad)
        value = finer
        if converged:
            break
    return value, {"n_nodes": n_total, "mismatch": mismatch,
                   "converged": converged}


_ORACLE_BLOCK = 1 << 15  # slice points per oracle block
_HALVINGS = 52     # bisection steps of [-b1, b1]; the root is the last midpoint
_SEED_LEVEL = 46   # halvings the false-position seed stands in for


def _halve(rho_line, lo, sign_lo, b, levels):
    """Bisection steps `levels` of the brackets whose low ends are lo.

    Step i halves brackets of width 2b 2^-i at lo + b 2^-i and keeps the
    low end where rho has its sign at -b, so that sign never changes and
    only the low ends are stored, in buffers reused across the steps.
    """
    mid = np.empty_like(lo)
    sign_mid = np.empty_like(lo)
    left = np.empty(len(lo), dtype=bool)
    for i in levels:
        np.add(lo, b * 2.0 ** -i, out=mid)
        np.sign(rho_line(mid), out=sign_mid)
        np.equal(sign_mid, sign_lo, out=left)
        np.copyto(lo, mid, where=left)
    return lo


def _axis_bisection(rho, j0, slice_pts, b):
    """The root of rho on the chart-axis line through each slice point, as
    52 halvings of [-b, b] would find it, bit for bit.

    Returns the roots (NaN on lines that do not cross) and the mask of lines
    whose end signs differ.  On a crossing line, one false-position step
    from the end values seeds the bracket that the first _SEED_LEVEL
    halvings reach: its cell of width h = 2b 2^-_SEED_LEVEL on the dyadic
    grid of [-b, b], kept when rho has its sign at -b on the cell's low end
    and not on its high end.  For rho monotone along the line, rounding
    noise far below h cannot put a second sign change on that grid, so the
    kept cell is the halvings' own, and the remaining halvings then run as
    before.  Lines whose cell fails the check run the first _SEED_LEVEL
    halvings as well, on their own restriction.  When b is not a power of
    two the halvings' sums round, so no grid point is known in closed
    form, and every line runs all 52 halvings.
    """
    def on_axis(pts):
        return horner(rho.line_coefficients(j0, pts), len(pts))

    rho_line = on_axis(slice_pts)
    f_lo = rho_line(-b).copy()  # the next call reuses the buffer
    f_hi = rho_line(b)
    sign_lo = np.sign(f_lo)
    crosses = sign_lo != np.sign(f_hi)
    roots = np.full(len(crosses), np.nan)
    if not crosses.any():
        return roots, crosses
    f_lo, f_hi, sign_lo = f_lo[crosses], f_hi[crosses], sign_lo[crosses]
    pts = slice_pts[crosses]
    rho_line = on_axis(pts)
    if math.frexp(b)[0] == 0.5:
        cells = 2.0 ** _SEED_LEVEL
        h = 2.0 * b / cells
        # the false-position fraction lies in [0, 1], and at 1 the cell
        # starts at b and fails the check; k h - b is exact, as the
        # halvings' sums are
        lo = np.floor(f_lo / (f_lo - f_hi) * cells) * h - b
        seeded = np.sign(rho_line(lo)) == sign_lo
        seeded &= np.sign(rho_line(lo + h)) != sign_lo
    else:
        lo = np.full(len(pts), -b)
        seeded = np.zeros(len(pts), dtype=bool)
    if not seeded.all():
        bad = ~seeded
        lo[bad] = _halve(on_axis(pts[bad]), np.full(bad.sum(), -b),
                         sign_lo[bad], b, range(_SEED_LEVEL))
    lo = _halve(rho_line, lo, sign_lo, b, range(_SEED_LEVEL, _HALVINGS))
    roots[crosses] = lo + b * 2.0 ** -_HALVINGS
    return roots, crosses


def _trapezoid_axes(slice_boxes, nodes_per_axis):
    """The oracle's uniform trapezoid rule on each slice axis: its nodes and
    its weights."""
    axes, wts = [], []
    for lo, hi in slice_boxes:
        axes.append(np.linspace(lo, hi, nodes_per_axis))
        wgrid = np.full(nodes_per_axis, (hi - lo) / (nodes_per_axis - 1))
        wgrid[0] *= 0.5
        wgrid[-1] *= 0.5
        wts.append(wgrid)
    return axes, wts


def _trapezoid_blocks(slice_boxes, nodes_per_axis):
    """The oracle's trapezoid grid over the slice box, as blocks of slice
    points with their weights and grid indices (one array per axis), in the
    grid's row-major order."""
    axes, wts = _trapezoid_axes(slice_boxes, nodes_per_axis)
    shape = (nodes_per_axis,) * len(axes)
    n = nodes_per_axis ** len(axes)
    for start in range(0, n, _ORACLE_BLOCK):
        idx = np.unravel_index(np.arange(start, min(start + _ORACLE_BLOCK, n)),
                               shape)
        weight = np.ones(len(idx[0]))
        for wgrid, i in zip(wts, idx):
            weight = weight * wgrid[i]
        yield np.stack([a[i] for a, i in zip(axes, idx)], axis=-1), weight, idx


def kernel_eval_dense(inst, w, t, y, xi, lam, nodes_per_axis=72, j0=None):
    """Independent brute-force oracle for the packet kernel.

    Uniform trapezoid grid over the slice box, bisection-only root solve of
    rho restricted to the chart-axis line (the roots of 52 halvings of
    [-b1, b1], bit for bit, with the first 46 replaced by a checked
    false-position seed, see _axis_bisection), explicit graph density.
    Shares no quadrature machinery with kernel_eval beyond the field
    oracles (rho's line coefficients among them), the packets and the
    integrand's product.  The grid is lifted and summed a block at a time,
    so every array stays the size of one block; the slice-axis packets and
    amplitude factors are evaluated once per call on the grid axes and
    gathered per block.
    """
    if nodes_per_axis < 2:
        raise ConstraintError("the oracle's trapezoid rule needs at least "
                              "two nodes per axis")
    setup = _packet_setup(inst, w, t, y, xi, j0)
    if setup is None:
        return 0.0 + 0.0j
    factors, j0, slice_boxes = setup
    axes = _trapezoid_axes(slice_boxes, nodes_per_axis)[0]
    on_axes = {}  # (axis, function) -> its values on that grid axis
    total = 0.0 + 0.0j
    for slice_pts, weight, idx in _trapezoid_blocks(slice_boxes,
                                                    nodes_per_axis):
        roots, crosses = _axis_bisection(inst.rho, j0, slice_pts, inst.b1)
        pts = np.insert(slice_pts[crosses], j0, roots[crosses], axis=1)
        kept = [i[crosses] for i in idx]

        grad = inst.grad_rho(pts)
        dpsi = -np.delete(grad, j0, axis=1) / grad[:, j0:j0 + 1]
        density = np.sqrt(1.0 + np.sum(dpsi * dpsi, axis=-1))

        def line(j, g):
            if j == j0:
                return g(pts[:, j])
            k = j - (j > j0)
            if (j, g) not in on_axes:
                on_axes[j, g] = g(axes[k])
            return on_axes[j, g][kept[k]]

        vals = _integrand(inst, pts, lam, factors, line)
        total += np.sum(weight[crosses] * density * vals)
    return complex(total)


# ---------------------------------------------------------------------------
# Kernel decay diagnostics
# ---------------------------------------------------------------------------

@dataclass
class KernelProbeRow:
    y: tuple
    xi: tuple
    region: str
    value: complex
    size_bound: float
    ratio: float
    rapid_bound: float = None
    rapid_ratio: float = None


def kernel_size_bound(inst, y, xi, lam, N):
    """The stationary-phase size majorant for the kernel:

        (1 + r_tilde |P(y)|)^(-N) * r_{j0}^(-1) * prod_j r_j^(1/2)

    with P the projection of lam grad Phi + 2 pi xi orthogonal to grad rho
    and j0 maximizing r_j (the bound holds for every j0; the largest r_{j0}
    gives the tightest version).
    """
    s = scales(lam, xi)
    pnorm = float(np.linalg.norm(normal_projection(inst, y, xi, lam)))
    prod = 1.0
    for r in s.r_j:
        prod *= math.sqrt(r)
    return (1.0 + s.r_tilde * pnorm) ** (-N) * prod / max(s.r_j)


def kernel_decay_probe(inst, samples, lam, N, c_split=0.25):
    """Measured kernel size against the stationary-phase majorant per sample.

    samples: iterable of (y, xi, value), value the kernel at (y, xi).  For
    unbalanced-regime samples the rapid decay bound
    (|lam| + |xi|)^(-(N-1)/2) |lam|^(-d/2) is also reported.
    """
    if N > 2 * inst.d + 2:
        raise ConstraintError("derivative order exceeds the stated regularity")
    rows = []
    for y, xi, val in samples:
        bound = kernel_size_bound(inst, y, xi, lam, N)
        region = classify_region(lam, xi, c_split)
        row = KernelProbeRow(y=tuple(np.asarray(y, float)),
                             xi=tuple(np.asarray(xi, float)),
                             region=region, value=val,
                             size_bound=bound,
                             ratio=abs(val) / bound if bound > 0 else 0.0)
        if region == "Xi1":
            xi_norm = float(np.linalg.norm(xi))
            row.rapid_bound = (abs(lam) + xi_norm) ** (-(N - 1) / 2.0) \
                * abs(lam) ** (-inst.d / 2.0)
            row.rapid_ratio = abs(val) / row.rapid_bound
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Decay-rate measurement
# ---------------------------------------------------------------------------

@dataclass
class DecayReport:
    lambdas: list
    values: list
    abs_values: list
    slope: float
    intercept: float
    upper_ratio_max: float
    lower_ratio_min: float
    norms: list
    n_nodes: list
    converged: list
    growth_violation: bool
    diagnostics: dict


def decay_fit(inst, fam, lambdas, quad=None, j0=None):
    """Log-log decay slope of |I_lam| over a geometric frequency sweep.

    Requires at least four increasing frequencies.  Reports the fitted slope
    and intercept, the scaled upper ratio max_lam |I| lam^((d-1)/2) / prod
    ||f_j||_2, the sharpness ratio min_lam |I| lam^((2d-1)/2), and flags a
    bound violation when the normalized upper ratio grows monotonically by
    more than a factor of ten across the sweep.  A frequency whose agreement
    check fails is reported in converged, not raised.
    """
    lambdas = [float(v) for v in lambdas]
    if len(lambdas) < 4:
        raise ConstraintError("need at least four frequencies in the sweep")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ConstraintError("frequencies must be strictly increasing")
    if fam.kind == "extremizer":
        fam = calibrate_extremizer(inst, fam, lambdas)

    diagnostics = {}
    values, norms = [], []
    for lam in lambdas:
        values.append(eval_I(inst, fam, lam, quad=quad, j0=j0,
                             diagnostics=diagnostics))
        norms.append(math.prod(f.l2 for f in fam.factors_for(lam)))
    absv = [abs(v) for v in values]
    if max(absv) == 0.0:
        raise ConstraintError("the family is invisible to M and the amplitude")

    logs = np.log(np.maximum(absv, 1e-300))
    slope, intercept = np.polyfit(np.log(lambdas), logs, 1)

    d = inst.d
    upper = [a * lam ** ((d - 1) / 2.0) / n
             for a, lam, n in zip(absv, lambdas, norms)]
    lower = [a * lam ** ((2 * d - 1) / 2.0) for a, lam in zip(absv, lambdas)]
    monotone_up = all(b > a for a, b in zip(upper, upper[1:]))
    violation = monotone_up and upper[-1] > 10.0 * upper[0]
    nodes = [diagnostics.get("n_nodes", {}).get(lam, 0) for lam in lambdas]
    converged = [diagnostics.get("converged", {}).get(lam, True)
                 for lam in lambdas]
    return DecayReport(lambdas=lambdas, values=values, abs_values=absv,
                       slope=float(slope), intercept=float(intercept),
                       upper_ratio_max=float(max(upper)),
                       lower_ratio_min=float(min(lower)),
                       norms=norms, n_nodes=nodes, converged=converged,
                       growth_violation=violation, diagnostics=diagnostics)
