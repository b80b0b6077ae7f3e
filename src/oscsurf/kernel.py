"""The multilinear functional, its packet kernel, and decay measurement.

The functional pairs 2d one-variable functions against an oscillating factor
over the hypersurface M:

    I_lam(f_1, ..., f_2d) = int_M e^{i lam Phi(x)} prod_j f_j(x_j) a(x) dsigma.

Quadrature runs over a graph chart, restricted to the intersection of the
factor supports with the amplitude box.  For d = 2 the chart is 3-dimensional
and takes a tensor Gauss-Legendre rule with per-axis node counts scaled to the
phase variation (oscillation-resolved), checked against a refined rule; d = 3
falls back to scrambled low-discrepancy blocks checked across two seeds.
Either way the slice points are lifted to M by geometry.chart_on_surface, and
one agreement check compares the two estimates.

The extremizer family realizes the sharpness lower bound: modulated
indicators of width ~ lam^(-1/2), with the last axis widened by the graph
Lipschitz constant so that its indicator is identically one over the support
of the others.  Its quality conditions (linearized phase error below pi/4,
graph containment) are verified numerically per frequency, shrinking the
width constant when violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, NonConvergenceError
from .geometry import cached_chart, chart_on_surface, gauss_legendre
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


def tau0(inst, y, xi, lam):
    """The stationary value of the normal multiplier:

        tau_0 = - grad rho(y) . (lam grad Phi(y) + 2 pi xi) / |grad rho(y)|^2,

    making lam grad Phi(y) + 2 pi xi + tau_0 grad rho(y) orthogonal to
    grad rho(y).
    """
    y = np.asarray(y, dtype=float)
    pts = np.atleast_2d(y)
    grad = inst.grad_rho(pts)
    s = np.sum(grad * grad, axis=-1)
    if np.any(s < 1e-16):
        raise ConstraintError("gradient of rho vanishes at the sample")
    vec = lam * inst.grad_phi(pts) + TWO_PI * np.asarray(xi, dtype=float)
    out = -np.sum(grad * vec, axis=-1) / s
    return float(out[0]) if y.ndim == 1 else out


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
    c_lip: float = None
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
        key = (lam, self.c_prime)
        if key not in self._cache:
            inst = self.inst
            dim = inst.dim
            gphi0 = inst.grad_phi(np.zeros((1, dim)))[0]
            hw = self.c_prime * abs(lam) ** -0.5
            c_lip = self.c_lip if self.c_lip is not None else inst.c_rho * inst.c_rho_inv
            factors = []
            for j in range(dim):
                width = hw if j < dim - 1 else c_lip * hw
                freq = -lam * gphi0[j] / TWO_PI
                factors.append(indicator_factor(-width, width, freq=freq,
                                                label=f"extremizer[{j}]"))
            self._cache[key] = factors
        return self._cache[key]

    def with_slot(self, j, factor):
        if self.kind == "extremizer":
            raise ConstraintError("slot replacement is for fixed families")
        new = list(self.factors)
        new[j] = factor
        return TestFunctionFamily(kind=self.kind, inst=self.inst, factors=new,
                                  normalized=False)

    def conjugated(self):
        if self.kind == "extremizer":
            raise ConstraintError("conjugation is for fixed families")
        out = []
        for f in self.factors:
            out.append(LineFactor(f.lo, f.hi,
                                  lambda x, g=f.func: np.conj(g(x)),
                                  f.l2, label=f.label + "~",
                                  phase_rate=f.phase_rate))
        return TestFunctionFamily(kind=self.kind, inst=self.inst, factors=out,
                                  normalized=self.normalized)


def extremizer_family(inst, c_prime=0.1, c_lip=None, normalized=False):
    return TestFunctionFamily(kind="extremizer", inst=inst, c_prime=c_prime,
                              c_lip=c_lip, normalized=normalized)


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


def constant_family(inst):
    """f_j identically one on the box (phase-free sanity family)."""
    factors = [indicator_factor(-inst.b1, inst.b1, label="one")
               for _ in range(inst.dim)]
    return TestFunctionFamily(kind="user", inst=inst, factors=factors)


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
    qmc_log2_nodes: int = 20          # per seed, for charts of dimension > 3
    qmc_seeds: tuple = (24036, 71193)  # two scrambles for the agreement check


DEFAULT_QUAD = QuadPolicy()


def _axis_phase_rates(inst, lam, factors, j0):
    """Per-axis bound on the phase variation rate (radians per unit length):
    the oscillating factor contributes |lam| sup|d_j Phi|, each factor its
    modulation rate, and the chart axis feeds through the graph Lipschitz
    bound."""
    key = ("phi_axis_sup",)
    if key not in inst._caches:
        from .instance import _grid_points
        pts = _grid_points(inst.dim, inst.b0, 7)
        inst._caches[key] = np.abs(inst.grad_phi(pts)).max(axis=0)
    sup_dphi = inst._caches[key]
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


def _chart_values(inst, chart, lam, factors):
    pts = chart.points
    vals = np.exp(1j * lam * inst.phi.eval(pts)) * inst.amp.eval(pts)
    for j, f in enumerate(factors):
        vals = vals * f(pts[:, j])
    return vals


def _qmc_value(inst, factors, lam, j0, boxes, quad, seed):
    """One scrambled low-discrepancy estimate over the slice box."""
    from scipy.stats import qmc

    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    vol = float(np.prod(hi - lo))
    n = 2 ** quad.qmc_log2_nodes
    sampler = qmc.Sobol(d=inst.dim - 1, scramble=True, seed=seed)
    total = 0.0 + 0.0j
    done = 0
    while done < n:
        block = min(n - done, 1 << 16)
        slice_pts = lo + sampler.random(block) * (hi - lo)
        chart = chart_on_surface(inst, j0, slice_pts, np.ones(block))
        total += chart.integrate(_chart_values(inst, chart, lam, factors))
        done += block
    return total * vol / n, n


def _tensor_value(inst, factors, lam, j0, boxes, quad, scale):
    """The oscillation-resolved tensor rule, node counts times scale."""
    nodes = _nodes_for(quad, _axis_phase_rates(inst, lam, factors, j0), boxes,
                       scale=scale)
    chart = cached_chart(inst, j0, boxes, nodes)
    return (chart.integrate(_chart_values(inst, chart, lam, factors)),
            len(chart.points))


def eval_I(inst, fam, lam, quad=None, j0=None, diagnostics=None):
    """Surface-quadrature value of the multilinear functional at frequency lam.

    The frequency must satisfy the box constraint |lam|^(-1/2) <= min(b1-b0, 1).
    Charts of dimension up to three use the oscillation-resolved tensor rule
    with a two-resolution agreement check; higher-dimensional charts (d >= 3)
    use a scrambled low-discrepancy rule with a two-seed agreement check.
    Disagreement records converged = False in diagnostics rather than
    guessing.  With quad.check off, one resolution or one scramble
    (quad.qmc_seeds[0]) runs and no agreement is recorded.
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

    # a first estimate a and, unless quad.check is off, a second one b to
    # compare it with: another Sobol scramble (the mean is kept) or the
    # refined tensor rule (its value is kept)
    qmc = inst.dim - 1 > 3

    def estimate(second):
        if qmc:
            return _qmc_value(inst, factors, lam, j0, boxes, quad,
                              quad.qmc_seeds[second])
        return _tensor_value(inst, factors, lam, j0, boxes, quad,
                             quad.refine_factor if second else 1.0)

    a, n_used = estimate(0)
    value = a
    if quad.check:
        b, n_b = estimate(1)
        value, n_used = (0.5 * (a + b), n_used + n_b) if qmc else (b, n_b)
    if diagnostics is not None:
        if quad.check:
            mismatch = abs(a - b) / max(abs(value), 1e-300)
            diagnostics.setdefault("refinement_mismatch", {})[lam] = mismatch
            diagnostics.setdefault("converged", {})[lam] = (
                mismatch <= quad.agree_tol or abs(value) < 1e-14)
        diagnostics.setdefault("n_nodes", {})[lam] = n_used
    return value


def extremizer_quality(inst, fam, lam, j0=None):
    """Verify the extremizer construction at this frequency.

    Returns (phase_error, containment_margin): the max over chart nodes of
    |lam| * |Phi - linearization| (must stay below pi/4) and the max of
    |x_{j0}| / (c_lip c' lam^(-1/2)) (must stay below 1 so the widened
    indicator is identically one on the support of the others).
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
                                   c_prime=c_prime, c_lip=fam.c_lip,
                                   normalized=fam.normalized)
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


def kernel_eval(inst, w, t, y, xi, lam, quad=None, j0=None):
    """The packet kernel: the functional evaluated on 2d shifted packets.

    Exact zero short-circuits: some packet support misses the amplitude box
    (covers y outside the domain), or the surface misses the support box
    entirely (covers |rho(y)| large compared to the packet scales).
    """
    setup = _packet_setup(inst, w, t, y, xi, j0)
    if setup is None:
        return 0.0 + 0.0j
    factors, j0, slice_boxes = setup
    return _tensor_value(inst, factors, lam, j0, slice_boxes,
                         quad or DEFAULT_QUAD, 1.0)[0]


_ORACLE_BLOCK = 1 << 15  # slice points per oracle block


def _axis_bisection(rho_line, b):
    """52 halvings of [-b, b] for each line's v -> rho_line(v).

    Returns the midpoints of the final brackets and the mask of lines whose
    end signs differ.  A bracket keeps its low end where rho has the sign it
    has at -b, so that sign never changes, and all brackets share one width:
    only the low ends are stored, in buffers reused across the halvings.
    """
    sign_lo = np.sign(rho_line(-b))
    crosses = sign_lo != np.sign(rho_line(b))
    lo = np.full(len(sign_lo), -b)
    mid = np.empty_like(lo)
    sign_mid = np.empty_like(lo)
    left = np.empty(len(lo), dtype=bool)
    half = b
    for _ in range(52):
        np.add(lo, half, out=mid)
        np.sign(rho_line(mid), out=sign_mid)
        np.equal(sign_mid, sign_lo, out=left)
        np.copyto(lo, mid, where=left)
        half *= 0.5
    return lo + half, crosses


def _trapezoid_blocks(slice_boxes, nodes_per_axis):
    """The oracle's uniform trapezoid grid over the slice box, as blocks of
    slice points with their weights, in the grid's row-major order."""
    axes, wts = [], []
    for lo, hi in slice_boxes:
        axes.append(np.linspace(lo, hi, nodes_per_axis))
        wgrid = np.full(nodes_per_axis, (hi - lo) / (nodes_per_axis - 1))
        wgrid[0] *= 0.5
        wgrid[-1] *= 0.5
        wts.append(wgrid)
    shape = (nodes_per_axis,) * len(axes)
    n = nodes_per_axis ** len(axes)
    for start in range(0, n, _ORACLE_BLOCK):
        idx = np.unravel_index(np.arange(start, min(start + _ORACLE_BLOCK, n)),
                               shape)
        weight = np.ones(len(idx[0]))
        for wgrid, i in zip(wts, idx):
            weight = weight * wgrid[i]
        yield np.stack([a[i] for a, i in zip(axes, idx)], axis=-1), weight


def kernel_eval_dense(inst, w, t, y, xi, lam, nodes_per_axis=72, j0=None):
    """Independent brute-force oracle for the packet kernel.

    Uniform trapezoid grid over the slice box, bisection-only root solve of
    rho restricted to the chart-axis line (52 halvings of [-b1, b1]),
    explicit graph density.  Shares no quadrature machinery with kernel_eval
    beyond the field oracles and the packets.  The grid is lifted and summed
    a block at a time, so every array stays the size of one block.
    """
    setup = _packet_setup(inst, w, t, y, xi, j0)
    if setup is None:
        return 0.0 + 0.0j
    factors, j0, slice_boxes = setup
    total = 0.0 + 0.0j
    for slice_pts, weight in _trapezoid_blocks(slice_boxes, nodes_per_axis):
        roots, crosses = _axis_bisection(
            inst.rho.along_axis(j0, slice_pts), inst.b1)
        pts = np.insert(slice_pts[crosses], j0, roots[crosses], axis=1)

        grad = inst.grad_rho(pts)
        dpsi = -np.delete(grad, j0, axis=1) / grad[:, j0:j0 + 1]
        density = np.sqrt(1.0 + np.sum(dpsi * dpsi, axis=-1))

        vals = np.exp(1j * lam * inst.phi.eval(pts)) * inst.amp.eval(pts)
        for j, f in enumerate(factors):
            vals = vals * f(pts[:, j])
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
    from .tangent import projection_of_phase_gradient
    s = scales(lam, xi)
    _, proj = projection_of_phase_gradient(inst, np.asarray(y, dtype=float),
                                           np.asarray(xi, dtype=float), lam)
    pnorm = float(np.linalg.norm(proj))
    prod = 1.0
    for r in s.r_j:
        prod *= math.sqrt(r)
    return (1.0 + s.r_tilde * pnorm) ** (-N) * prod / max(s.r_j)


def kernel_decay_probe(inst, w, t, samples, lam, N, c_split=0.25, quad=None):
    """Measured kernel size against the stationary-phase majorant per sample.

    samples: iterable of (y, xi).  For unbalanced-regime samples the rapid
    decay bound (|lam| + |xi|)^(-(N-1)/2) |lam|^(-d/2) is also reported.
    """
    if N > 2 * inst.d + 2:
        raise ConstraintError("derivative order exceeds the stated regularity")
    rows = []
    for y, xi in samples:
        val = kernel_eval(inst, w, t, y, xi, lam, quad=quad)
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
