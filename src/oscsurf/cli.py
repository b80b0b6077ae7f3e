"""Command-line front end: batch experiments, reports, and the selftest.

Every subcommand writes its artifacts plus a run manifest (JSON) into the
output directory and exits 0 on all-pass, 1 on check failure, 2 on usage or
configuration errors, 3 on numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import load_config, resolve_out_dir
from .errors import ConfigError, ConstraintError, NonConvergenceError, OscSurfError
from .fields import parse_polynomial_table
from .instance import make_instance

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NON_CONVERGENCE = 3


class Manifest:
    """Run record: config echo, per-check statuses, and artifact list."""

    def __init__(self, command, cfg, out_dir, seed=None):
        os.makedirs(out_dir, exist_ok=True)
        self.data = {
            "command": command,
            "version": __version__,
            "config_source": cfg.source,
            "config": cfg.echo(),
            "seed": seed,
            "started_unix": time.time(),
            "checks": [],
            "artifacts": [],
        }
        self.out_dir = out_dir

    def check(self, name, status, detail="", elapsed=None):
        if status not in ("pass", "fail", "skip"):
            raise ValueError(f"bad status {status!r}")
        entry = {"name": name, "status": status, "detail": detail}
        if elapsed is not None:
            entry["elapsed_s"] = float(elapsed)
        self.data["checks"].append(entry)

    def artifact(self, name):
        self.data["artifacts"].append(name)
        return os.path.join(self.out_dir, name)

    def finish(self):
        self.data["elapsed_seconds"] = time.time() - self.data["started_unix"]
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "run_manifest.json")
        self.data["artifacts"].append("run_manifest.json")
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2, default=str)
        return path

    @property
    def failed(self):
        return any(c["status"] == "fail" for c in self.data["checks"])


def _fmt(x):
    """Stable float formatting for byte-reproducible CSV output."""
    if isinstance(x, complex):
        return f"{x.real!r},{x.imag!r}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, header, rows, append=False):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fresh = not (append and os.path.exists(path))
    with open(path, "w" if fresh else "a") as fh:
        if fresh:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _instance_from_config(cfg):
    name = cfg.get("instance", "name")
    b0 = cfg.get_float("instance", "b0")
    b1 = cfg.get_float("instance", "b1")
    density = cfg.get_int("instance", "grid_density")
    if name == "custom":
        sec = cfg.sections.get("instance", {})
        if "rho_table" not in sec:
            raise ConfigError("custom instance needs instance.rho_table")
        d = cfg.get_int("instance", "d")
        with open(sec["rho_table"]) as fh:
            rho = parse_polynomial_table(fh.read(), 2 * d, half_widths=b1)
        phi = None
        if "phi_table" in sec:
            with open(sec["phi_table"]) as fh:
                phi = parse_polynomial_table(fh.read(), 2 * d, half_widths=b1)
        return make_instance("custom", b0=b0, b1=b1, rho=rho, phi=phi,
                             grid_density=density)
    return make_instance(name, b0=b0, b1=b1, grid_density=density)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_tiling(cfg, manifest, args):
    from .tiling import boxsize_battery, build_tiling, check_tiling_exact, tiling_rows
    lams = args.lam or cfg.get_floats("tiling", "lambda")
    xi_max = cfg.get_float("tiling", "xi_max")
    n_random = cfg.get_int("tiling", "n_random")
    seed = args.seed if args.seed is not None else cfg.get_int("tiling", "seed")
    for lam in lams:
        t = build_tiling(lam, xi_max)
        _write_csv(manifest.artifact(f"tiling_lambda{lam:g}.csv"),
                   ["lo", "hi", "kind", "center"], tiling_rows(t))
        ok, cell, xi = check_tiling_exact(t)
        manifest.check(f"boxsize-exact-lambda{lam:g}", "pass" if ok else "fail",
                       "every cell verified in rational arithmetic" if ok
                       else f"cell {cell} fails at xi={xi}")
    checked, failed = boxsize_battery(n_random, seed=seed)
    manifest.check("boxsize-random", "pass" if failed == 0 else "fail",
                   f"{checked} samples, {failed} failures")


def cmd_window(cfg, manifest, args):
    from .window import make_window
    w = make_window(profile=cfg.get("window", "profile"),
                    grid=cfg.get_int("window", "grid"))
    _write_csv(manifest.artifact("window_samples.csv"), ["x", "phi"],
               list(zip(w.grid.tolist(), w.samples.tolist())))
    _write_csv(manifest.artifact("window_transform.csv"), ["u", "phi_hat"],
               list(zip(w.hat_grid.tolist(), w.hat_samples.tolist())))
    ok = w.fourier_floor > 0
    manifest.check("window-floor", "pass" if ok else "fail",
                   f"fourier_floor {w.fourier_floor!r}, "
                   f"support half-width {w.support_half_width}")


def cmd_reconstruct(cfg, manifest, args):
    from .selftest import check_analysis_bound, check_reconstruction
    seed = args.seed if args.seed is not None else cfg.get_int("reconstruct", "seed")
    tol = cfg.get_float("reconstruct", "tolerance")
    n = cfg.get_int("reconstruct", "n_signals")
    frac = cfg.get_float("reconstruct", "xi_band")
    res = check_reconstruction(n_signals=n, tol=tol, seed=seed, band_frac=frac)
    manifest.check(res.name, res.status, res.detail)
    res2 = check_analysis_bound(n_signals=n, seed=seed)
    manifest.check(res2.name, res2.status, res2.detail)


def cmd_certify(cfg, manifest, args):
    from .nondegen import box_grid, certify, circle_grid
    inst = _instance_from_config(cfg)
    rep = certify(inst,
                  box_grid(inst, cfg.get_int("certify", "x_density")),
                  circle_grid(cfg.get_int("certify", "circle_points")),
                  threshold=cfg.get_float("certify", "threshold"),
                  lipschitz_padding=cfg.get_bool("certify", "lipschitz_padding"))
    summary = {
        "c_lower": rep.c_lower,
        "n_samples": rep.n_samples,
        "witness": {
            "x": rep.witness["x"],
            "omega": rep.witness["omega"],
            "i_set": list(rep.witness["partition"].i_set),
            "j_set": list(rep.witness["partition"].j_set),
            "abs_det": rep.witness["abs_det"],
        },
        "n_failures": len(rep.failures),
        "failures": rep.failures[:50],
    }
    with open(manifest.artifact("certify_report.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    manifest.check("certify", "pass" if rep.ok else "fail",
                   f"c_lower {rep.c_lower!r} over {rep.n_samples} samples, "
                   f"{len(rep.failures)} failures")


def cmd_ibp(cfg, manifest, args):
    from .fields import BumpField
    from .tangent import TangentField, ibp_identity_check, phase_with_modulation
    inst = _instance_from_config(cfg)
    lam = (args.lam or [cfg.get_float("ibp", "lambda")])[0]
    inst.require_lambda(lam)
    orders = cfg.get_ints("ibp", "orders")
    tol = cfg.get_float("ibp", "tolerance")
    nodes = cfg.get_int("ibp", "nodes")
    xi = np.array(cfg.get_floats("ibp", "xi"))
    if len(xi) != inst.dim:
        raise ConfigError(f"ibp.xi needs {inst.dim} components")
    phase = phase_with_modulation(inst, lam, xi)
    psi = BumpField(inst.dim, support_half_width=min(0.25, inst.b0 * 0.85),
                    order=8, half_widths=inst.b1)
    fld = TangentField(inst, index=0)
    rows = []
    for N in orders:
        rep = ibp_identity_check(inst, phase, psi, fld, None, N, nodes=nodes)
        rows.append((N, lam, rep.lhs.real, rep.lhs.imag, rep.rhs.real,
                     rep.rhs.imag, rep.rel_error))
        manifest.check(f"ibp-N{N}", "pass" if rep.rel_error <= tol else "fail",
                       f"rel_error {rep.rel_error!r} (tol {tol:g})")
    _write_csv(manifest.artifact("ibp_report.csv"),
               ["N", "lambda", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                "rel_error"], rows, append=True)


def cmd_kernel(cfg, manifest, args):
    from .geometry import graph_solve
    from .kernel import kernel_decay_probe
    from .selftest import check_kernel_diagnostics
    from .tiling import build_tiling, locate
    from .window import make_window
    lam = (args.lam or [cfg.get_float("kernel", "lambda")])[0]
    seed = args.seed if args.seed is not None else cfg.get_int("kernel", "seed")
    n_samples = cfg.get_int("kernel", "n_samples")
    res = check_kernel_diagnostics(
        n_samples=n_samples, lam=lam,
        tol=cfg.get_float("kernel", "oracle_tolerance"),
        oracle_nodes=cfg.get_int("kernel", "oracle_nodes"), seed=seed)
    manifest.check(res.name, res.status, res.detail, elapsed=res.elapsed)

    # probe table: measured kernel size against the stationary-phase majorant
    inst = _instance_from_config(cfg)
    w = make_window()
    t = build_tiling(lam, 6 * lam)
    rng = np.random.default_rng(seed)
    samples = []
    while len(samples) < n_samples:
        y = rng.uniform(-0.5 * inst.b0, 0.5 * inst.b0, size=inst.dim)
        y[-1] = graph_solve(inst, inst.dim - 1, y[:-1])
        xi = rng.uniform(-3 * lam, 3 * lam, size=inst.dim)
        xi = np.where(np.abs(xi % t.n0) < 0.25, xi + 0.37 * t.n0, xi)
        if any(locate(t, float(x)) is None for x in xi):
            continue
        samples.append((y, xi))
    rows = kernel_decay_probe(inst, w, t, samples, lam, N=3)
    _write_csv(manifest.artifact("kernel_probe.csv"),
               ["region", "abs_value", "size_bound", "ratio",
                "rapid_bound", "rapid_ratio"],
               [(r.region, abs(r.value), r.size_bound, r.ratio,
                 r.rapid_bound if r.rapid_bound is not None else "",
                 r.rapid_ratio if r.rapid_ratio is not None else "")
                for r in rows])
    finite = all(np.isfinite(r.ratio) for r in rows)
    manifest.check("kernel-probe", "pass" if finite else "fail",
                   f"{len(rows)} samples, max ratio "
                   f"{max(r.ratio for r in rows):.4g}")


def cmd_decay(cfg, manifest, args):
    from .kernel import decay_fit, extremizer_family, random_bump_family
    inst = _instance_from_config(cfg)
    lams = args.lam or cfg.get_floats("decay", "lambda")
    if len(lams) < 4:
        raise ConfigError("decay sweeps need at least four frequencies")
    family_kind = cfg.get("decay", "family")
    seed = args.seed if args.seed is not None else cfg.get_int("decay", "seed")
    target = cfg.get_float("decay", "slope_target")
    tol = cfg.get_float("decay", "slope_tol")

    reports = []
    if family_kind == "extremizer":
        # the slope target applies to the raw family; norms are reported
        fam = extremizer_family(inst, c_prime=cfg.get_float("decay", "c_prime"))
        rep = decay_fit(inst, fam, lams)
        reports.append(("extremizer", rep))
        manifest.check("decay-slope",
                       "pass" if abs(rep.slope - target) <= tol else "fail",
                       f"slope {rep.slope!r} target {target} +- {tol}")
    elif family_kind == "bumps":
        rng = np.random.default_rng(seed)
        violations = 0
        for k in range(cfg.get_int("decay", "n_families")):
            fam = random_bump_family(inst, rng,
                                     max_freq=cfg.get_float("decay", "max_freq"),
                                     normalized=cfg.get_bool("decay", "normalized"))
            rep = decay_fit(inst, fam, lams)
            reports.append((f"bumps-{k}", rep))
            violations += int(rep.growth_violation)
        manifest.check("decay-upper-bound",
                       "pass" if violations == 0 else "fail",
                       f"{violations} growth violations")
    else:
        raise ConfigError(f"unknown decay family {family_kind!r}")

    rows = []
    for label, rep in reports:
        for lam, v, n, nn in zip(rep.lambdas, rep.values, rep.norms,
                                 rep.n_nodes):
            rows.append((label, lam, v.real, v.imag, abs(v), nn, n))
    _write_csv(manifest.artifact("decay_values.csv"),
               ["family", "lambda", "re_I", "im_I", "abs_I", "n_quad_nodes",
                "norm_product"], rows)
    _write_csv(manifest.artifact("decay_loglog.dat"), ["log_lambda", "log_abs_I"],
               [(math.log(lam), math.log(max(a, 1e-300)))
                for _, rep in reports
                for lam, a in zip(rep.lambdas, rep.abs_values)])
    summary = {label: {"slope": rep.slope, "intercept": rep.intercept,
                       "upper_ratio_max": rep.upper_ratio_max,
                       "lower_ratio_min": rep.lower_ratio_min,
                       "growth_violation": rep.growth_violation}
               for label, rep in reports}
    with open(manifest.artifact("decay_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    unconverged = [f"{label} at lambda = {lam:g}" for label, rep in reports
                   for lam, ok in zip(rep.lambdas, rep.converged) if not ok]
    if unconverged:
        raise NonConvergenceError("quadrature agreement check failed for "
                                  + ", ".join(unconverged))


def cmd_selftest(cfg, manifest, args):
    from .selftest import run_all
    skip = set(cfg.get("selftest", "skip").split())
    results = run_all(skip=skip, verbose=not args.quiet)
    rows = []
    for res in results:
        status = "skip" if res.extras.get("skipped") else res.status
        manifest.check(res.name, status, res.detail, elapsed=res.elapsed)
        # timings live in the manifest; the CSV stays byte-reproducible
        rows.append((res.name, status, res.detail.replace(",", ";")))
    _write_csv(manifest.artifact("selftest_results.csv"),
               ["check", "status", "detail"], rows)


COMMANDS = {
    "tiling": cmd_tiling,
    "window": cmd_window,
    "reconstruct": cmd_reconstruct,
    "certify": cmd_certify,
    "kernel": cmd_kernel,
    "ibp": cmd_ibp,
    "decay": cmd_decay,
    "selftest": cmd_selftest,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oscsurf",
        description="Numerical laboratory for multilinear oscillatory "
                    "integrals over hypersurfaces")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--lambda", dest="lam", default=None,
                        help="frequency list, comma or space separated")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        if args.lam is not None:
            args.lam = [float(v) for v in str(args.lam).replace(",", " ").split()]
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = resolve_out_dir(args.out)
    try:
        manifest = Manifest(args.command, cfg, out_dir, seed=args.seed)
        COMMANDS[args.command](cfg, manifest, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        manifest.check("non-convergence", "fail", str(exc))
        manifest.finish()
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    except ConstraintError as exc:
        manifest.check("constraint", "fail", str(exc))
        manifest.finish()
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OscSurfError as exc:
        manifest.check("error", "fail", str(exc))
        manifest.finish()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    path = manifest.finish()
    if not args.quiet:
        for c in manifest.data["checks"]:
            print(f"[{c['status']}] {c['name']}: {c['detail']}")
        print(f"manifest: {path}")
    return EXIT_CHECK_FAILED if manifest.failed else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
