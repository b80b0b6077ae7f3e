"""The benchmark's four workloads: inputs from a seed, ops, and per-op checks.

A workload has ``setup()``, the work done once before the first op (and
timed as ``setup_s``), and ``batches(state, seed, ref, notes, span)``, an
endless stream of batches of ops drawn from the seed.  ``notes`` collects
bench-side observations (the oracle mismatch) for the per-layer metrics, and
``span(name)`` is a context manager that records a span in a traced pass.
A batch is a list of (label, op) pairs; the runner always completes a
whole batch, so every run sees the same mix of op kinds.  An op returns a
list of problems.  ("failed", message) marks a numerical failure: the
program reports non-convergence, or a result misses an accuracy gate the
repository pins (dense oracle, slope, growth bound).  ("wrong", message)
marks an output that differs from the reference commit or breaks an exact
property (a short-circuit kernel that is not exactly zero, a non-finite
value).

All oscsurf functions are reached through their modules (``kernel.eval_I``),
so the traced run's wrappers see every call made from here.
"""

import hashlib
import json
import math
import os
import shutil
import tempfile

import numpy as np

from oscsurf import cli, geometry, instance, kernel, tiling, window

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

LAMBDAS = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0]

# Tolerances the repository already pins: the dense-oracle gate and its
# resolution (criterion 11), the extremizer slope (criterion 9).  The
# quadrature agreement tolerance is QuadPolicy.agree_tol, read through the
# "converged" flag eval_I records.
ORACLE_TOL = 0.01
ORACLE_NODES = 120
SLOPE_TARGET, SLOPE_TOL = -1.5, 0.15
# Values recorded at the reference commit must be matched to this relative
# tolerance; it leaves room for reordered floating-point sums, not for a
# different quadrature.
REF_RTOL = 1e-6


def _wrong(msg):
    return ("wrong", msg)


def _failed(msg):
    return ("failed", msg)


def _ref_problem(value, ref, what):
    ref = complex(*ref)
    err = abs(value - ref) / max(abs(ref), 1e-300)
    if not err <= REF_RTOL:
        return [_wrong(f"{what} = {value:.12g} differs from the reference "
                       f"{ref:.12g} by {err:.3g} (rtol {REF_RTOL:g})")]
    return []


def _eval_checked(inst, fam, lam, values, quad=None, ref=None):
    """Evaluate I_lam into values[lam]; return its problems."""
    diag = {}
    v = kernel.eval_I(inst, fam, lam, quad=quad, diagnostics=diag)
    values[lam] = v
    problems = []
    if not np.isfinite(abs(v)):
        problems.append(_wrong(f"I_lam is not finite at lambda = {lam:g}"))
    if not diag.get("converged", {}).get(lam, True):
        mm = diag["refinement_mismatch"][lam]
        problems.append(_failed(f"agreement check failed at lambda = "
                                f"{lam:g}: mismatch {mm:.3g}"))
    if ref is not None:
        problems += _ref_problem(v, ref[f"{lam:g}"], f"I_{lam:g}")
    return problems


# ---------------------------------------------------------------------------
# decay-d2: tensor Gauss-Legendre sweeps on paper-even-d2
# ---------------------------------------------------------------------------

def _slope(values):
    lams = sorted(values)
    logs = np.log(np.maximum([abs(values[lam]) for lam in lams], 1e-300))
    return float(np.polyfit(np.log(lams), logs, 1)[0])


def _growth_violation(inst, fam, values):
    """decay_fit's bound-violation rule: the scaled upper ratio grows
    monotonically by more than a factor of ten across the sweep."""
    lams = sorted(values)
    upper = [abs(values[lam]) * lam ** ((inst.d - 1) / 2.0)
             / math.prod(f.l2 for f in fam.factors_for(lam)) for lam in lams]
    return (all(b > a for a, b in zip(upper, upper[1:]))
            and upper[-1] > 10.0 * upper[0])


def _sweep_op(inst, fam, finish, ref=None):
    """One op: the family over LAMBDAS, each value checked, then
    ``finish(values)`` checks the sweep as a whole."""
    def op():
        values = {}
        problems = []
        for lam in LAMBDAS:
            problems += _eval_checked(inst, fam, lam, values, ref=ref)
        return problems + finish(values)
    return op


class DecayD2:
    name = "decay-d2"

    def setup(self):
        inst = instance.make_instance("paper-even-d2")
        ext = kernel.calibrate_extremizer(inst, kernel.extremizer_family(inst),
                                          LAMBDAS)
        return {"inst": inst, "extremizer": ext}

    def batches(self, state, seed, ref, notes, span):
        inst = state["inst"]

        def slope_check(values):
            s = _slope(values)
            if abs(s - SLOPE_TARGET) > SLOPE_TOL:
                return [_failed(f"extremizer slope {s:.4f} outside "
                               f"{SLOPE_TARGET} +- {SLOPE_TOL}")]
            return []

        yield [("extremizer", _sweep_op(inst, state["extremizer"], slope_check,
                                        ref=ref["decay-d2"]["extremizer"]))]
        rng = np.random.default_rng(seed)
        k = 0
        while True:
            batch = []
            for fam in _bump_block(inst, rng):

                def growth_check(values, fam=fam, k=k):
                    if _growth_violation(inst, fam, values):
                        return [_failed(f"bump family {k} violates the "
                                        "upper bound")]
                    return []

                batch.append((f"bumps-{k}", _sweep_op(inst, fam, growth_check)))
                k += 1
            yield batch


# A batch is a block of BUMP_BLOCK families, one op each.  A family's cost
# and the size of its largest chart follow from its support widths and
# modulation rates (the node count per axis grows with both), so with
# independent draws the work and the peak memory of a run would vary by
# 15-30% from seed to seed.
# Widths and |frequencies| therefore follow one fixed Latin design: row j
# (widths of axes 0..3, then |freq| of axes 0..3) puts the i-th family in
# stratum DESIGN[j, i] of [0.3, 0.8] * b0 or [0, 2], jittered inside it by
# the seed.  The seed also draws the centers and the signs of the
# frequencies.  The order is fixed too, since the chart cache holds the
# charts of the last two families and so sets the peak memory.
BUMP_BLOCK = 8
DESIGN = np.array([[(i * a) % BUMP_BLOCK for i in range(BUMP_BLOCK)]
                   for a in (1, 3, 5, 7, 5, 7, 1, 3)])


def _bump_block(inst, rng):
    """BUMP_BLOCK random normalized bump families shaped as
    ``kernel.random_bump_family`` draws them (order 6, |freq| <= 2), with
    widths and |frequencies| from DESIGN."""
    u = (DESIGN + rng.uniform(size=DESIGN.shape)) / BUMP_BLOCK
    dim = inst.dim
    fams = []
    for i in range(BUMP_BLOCK):
        factors = []
        for j in range(dim):
            w = (0.3 + 0.5 * u[j, i]) * inst.b0
            c = rng.uniform(-1.0, 1.0) * (inst.b0 - w) * 0.9
            freq = rng.choice((-2.0, 2.0)) * u[dim + j, i]
            factors.append(kernel.bump_factor(c, w, order=6, freq=freq,
                                              label=f"bump[{j}]"))
        fams.append(kernel.TestFunctionFamily(kind="random-bump", inst=inst,
                                              factors=factors,
                                              normalized=True))
    return fams


# ---------------------------------------------------------------------------
# kernel-d2: packet kernel against the dense oracle (criterion 11)
# ---------------------------------------------------------------------------

KERNEL_LAMBDA = 100.0
KERNEL_N = 3


def _kernel_sample(inst, t, rng):
    """A (y, xi) pair drawn as criterion 11 draws it, plus two points whose
    kernel vanishes exactly: one off the amplitude box, one far from M."""
    lam, n0 = KERNEL_LAMBDA, t.n0
    while True:
        y = rng.uniform(-0.15, 0.15, size=4)
        y[3] = geometry.graph_solve(inst, 3, y[:3])
        if abs(y[3]) > inst.b0:
            continue
        xi = rng.uniform(-3 * lam, 3 * lam, size=4)
        xi = np.where(np.abs(xi % n0) < 0.25, xi + 0.37 * n0, xi)
        if any(tiling.locate(t, float(x)) is None for x in xi):
            continue
        break
    y_far = np.concatenate([[5.0 + rng.uniform(0.0, 1.0)],
                            rng.uniform(-0.1, 0.1, size=3)])
    # rho ~ 1.09 here, far above the packet scales (<= 0.025 at lam = 100)
    y_off = np.array([0.25, 0.25, 0.25, 0.28]) + rng.uniform(-0.005, 0.005, 4)
    return y, xi, y_far, y_off


class KernelD2:
    name = "kernel-d2"

    def setup(self):
        return {"inst": instance.make_instance("paper-even-d2"),
                "window": window.make_window(),
                "tiling": tiling.build_tiling(KERNEL_LAMBDA, 6 * KERNEL_LAMBDA)}

    def batches(self, state, seed, ref, notes, span):
        inst, w, t = state["inst"], state["window"], state["tiling"]
        rng = np.random.default_rng(seed)
        k = 0
        while True:
            y, xi, y_far, y_off = _kernel_sample(inst, t, rng)

            def op(y=y, xi=xi, y_far=y_far, y_off=y_off):
                lam = KERNEL_LAMBDA
                val = kernel.kernel_eval(inst, w, t, y, xi, lam)
                bound = kernel.kernel_size_bound(inst, y, xi, lam, KERNEL_N)
                oracle = kernel.kernel_eval_dense(inst, w, t, y, xi, lam,
                                                  nodes_per_axis=ORACLE_NODES)
                far = kernel.kernel_eval(inst, w, t, y_far, xi, lam)
                off = kernel.kernel_eval(inst, w, t, y_off, xi, lam)
                mismatch = abs(val - oracle) / max(abs(oracle), 1e-12)
                notes["dense_mismatch"] = max(notes.get("dense_mismatch", 0.0),
                                              mismatch)
                problems = []
                if not mismatch <= ORACLE_TOL:
                    problems.append(_failed(f"kernel vs dense oracle mismatch "
                                            f"{mismatch:.3%} > {ORACLE_TOL:.0%}"))
                if not (np.isfinite(bound) and bound > 0):
                    problems.append(_wrong(f"size bound {bound!r}"))
                if far != 0 or off != 0:
                    problems.append(_wrong(f"short-circuit values {far}, {off} "
                                           "are not exactly zero"))
                return problems

            yield [(f"sample-{k}", op)]
            k += 1


# ---------------------------------------------------------------------------
# qmc-d3: scrambled Sobol evaluation on paper-odd-d3
# ---------------------------------------------------------------------------

class QmcD3:
    name = "qmc-d3"

    def setup(self):
        inst = instance.make_instance("paper-odd-d3")
        ext = kernel.calibrate_extremizer(inst, kernel.extremizer_family(inst),
                                          LAMBDAS)
        return {"inst": inst, "extremizer": ext}

    def batches(self, state, seed, ref, notes, span):
        # Every op costs the same (2 x 2^20 points at any lambda), so a batch
        # is one op: lambda cycles from a seeded start, and each op draws
        # fresh scrambles (new points, same rule and size).
        rng = np.random.default_rng(seed)
        k = int(rng.integers(len(LAMBDAS)))
        while True:
            lam = LAMBDAS[k % len(LAMBDAS)]
            scrambles = tuple(int(s) for s in rng.integers(1, 2**31, size=2))
            quad = kernel.QuadPolicy(qmc_seeds=scrambles)
            def op(lam=lam, quad=quad):
                return _eval_checked(state["inst"], state["extremizer"], lam,
                                     {}, quad=quad, ref=ref["qmc-d3"])

            yield [(f"lambda={lam:g} scrambles={scrambles}", op)]
            k += 1


# ---------------------------------------------------------------------------
# lab-cli: the in-process command line on repository defaults
# ---------------------------------------------------------------------------

CLI_ARGS = {
    "tiling": [],
    "window": [],
    "reconstruct": [],
    "certify": [],
    "ibp": [],
    "decay": ["--config", os.path.join(ROOT, "configs", "decay-sweep.ini")],
}


def csv_digests(out_dir):
    """sha256 of every CSV-like artifact (the byte-reproducible outputs)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".csv", ".dat")):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_cli(sub):
    """Run one subcommand into a fresh directory; (exit code, digests)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"cli-{sub}-", dir=OUT_DIR)
    try:
        rc = cli.main([sub, *CLI_ARGS[sub], "--out", out, "--quiet"])
        return rc, csv_digests(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


class LabCli:
    """An op is one pass over the six subcommands in a seeded order.  The
    subcommands take from 0.05 s to 3 s each, so the median of single
    subcommand times would sit in the gap between two of them."""

    name = "lab-cli"

    def setup(self):
        return {}

    def batches(self, state, seed, ref, notes, span):
        rng = np.random.default_rng(seed)
        subs = list(CLI_ARGS)
        while True:
            order = [subs[i] for i in rng.permutation(len(subs))]

            def op(order=order):
                problems = []
                for sub in order:
                    with span(f"cli.{sub}"):
                        rc, digests = run_cli(sub)
                    if rc != 0:
                        problems.append(_failed(f"oscsurf {sub} exited with {rc}"))
                    elif digests != ref["lab-cli"][sub]:
                        problems.append(_wrong(f"oscsurf {sub} CSV digests "
                                               "differ from the reference"))
                return problems

            yield [(" ".join(order), op)]


WORKLOADS = {w.name: w for w in (DecayD2(), KernelD2(), QmcD3(), LabCli())}


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def record_reference():
    """Reference outputs of the seed-independent ops, at the current code."""
    ref = {}
    d2 = DecayD2().setup()
    ref["decay-d2"] = {"extremizer": {
        f"{lam:g}": _pair(kernel.eval_I(d2["inst"], d2["extremizer"], lam))
        for lam in LAMBDAS}}
    d3 = QmcD3().setup()
    ref["qmc-d3"] = {f"{lam:g}": _pair(kernel.eval_I(d3["inst"],
                                                     d3["extremizer"], lam))
                     for lam in LAMBDAS}
    ref["lab-cli"] = {}
    for sub in CLI_ARGS:
        rc, digests = run_cli(sub)
        if rc != 0:
            raise RuntimeError(f"oscsurf {sub} exited with {rc}")
        ref["lab-cli"][sub] = digests
    return ref


def _pair(z):
    return [float(z.real), float(z.imag)]
