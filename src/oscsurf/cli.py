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


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _read_table(sec, key, dim, b1):
    path = sec[key]
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"[instance] {key}: cannot read {path!r} "
                          f"({exc.strerror})") from exc
    return parse_polynomial_table(text, dim, half_widths=b1)


def _instance_from_config(cfg):
    """The [instance] section as a ProblemInstance.  d is required for
    custom, sets flat and tilted, and must match a paper-* instance; a value
    that make_instance rejects is a config error."""
    def make(name, **kwargs):
        try:
            return make_instance(name, **kwargs)
        except ConstraintError as exc:
            raise ConfigError(f"[instance] {exc}") from exc

    name = cfg.get("instance", "name")
    b0 = cfg.get_float("instance", "b0")
    b1 = cfg.get_float("instance", "b1")
    density = cfg.get_int("instance", "grid_density")
    sec = cfg.sections.get("instance", {})
    if name == "custom":
        if "rho_table" not in sec:
            raise ConfigError("custom instance needs instance.rho_table")
        d = cfg.get_int("instance", "d")
        rho = _read_table(sec, "rho_table", 2 * d, b1)
        phi = _read_table(sec, "phi_table", 2 * d, b1) if "phi_table" in sec else None
        return make("custom", b0=b0, b1=b1, rho=rho, phi=phi,
                    grid_density=density)
    d = cfg.get_int("instance", "d") if "d" in sec else None
    inst = make(name, b0=b0, b1=b1, d=d, grid_density=density)
    if d is not None and inst.d != d:
        raise ConfigError(f"[instance] d = {d} disagrees with {name}, "
                          f"which has d = {inst.d}")
    return inst


def _count(cfg, section, key, least):
    """An integer config value; below least it is a config error."""
    n = cfg.get_int(section, key)
    if n < least:
        raise ConfigError(f"{section}.{key} must be at least {least}, got {n}")
    return n


def _tolerance(cfg, section, key):
    """A float config value that bounds an error; one that is not finite
    and positive is a config error."""
    x = cfg.get_float(section, key)
    if not (math.isfinite(x) and x > 0.0):
        raise ConfigError(f"{section}.{key} must be finite and positive, "
                          f"got {x!r}")
    return x


def _one_lambda(args, cfg, section):
    """The single frequency of ibp and kernel: --lambda, else the config."""
    lams = args.lam or [cfg.get_float(section, "lambda")]
    if len(lams) != 1:
        raise ConfigError(f"{section} takes one --lambda value, got {len(lams)}")
    return lams[0]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_tiling(cfg, manifest, args):
    from .tiling import boxsize_battery, build_tiling, check_tiling_exact, tiling_rows
    lams = args.lam or cfg.get_floats("tiling", "lambda")
    xi_max = cfg.get_float("tiling", "xi_max")
    n_random = _count(cfg, "tiling", "n_random", 1)
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
                    grid=_count(cfg, "window", "grid", 1))
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
    from .window import make_window
    seed = args.seed if args.seed is not None else cfg.get_int("reconstruct", "seed")
    tol = _tolerance(cfg, "reconstruct", "tolerance")
    n = _count(cfg, "reconstruct", "n_signals", 1)
    frac = cfg.get_float("reconstruct", "xi_band")
    w = make_window()  # one window for both criteria
    for res in (check_reconstruction(n_signals=n, tol=tol, seed=seed,
                                     band_frac=frac, w=w),
                check_analysis_bound(n_signals=n, seed=seed, band_frac=frac,
                                     w=w)):
        manifest.check(res.name, res.status, res.detail, elapsed=res.elapsed)


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
    lam = _one_lambda(args, cfg, "ibp")
    inst.require_lambda(lam)
    orders = cfg.get_ints("ibp", "orders")
    if not orders or not all(1 <= N <= 3 for N in orders):
        raise ConfigError("ibp.orders must be one or more of 1, 2, 3, "
                          f"got {orders}")
    tol = _tolerance(cfg, "ibp", "tolerance")
    nodes = _count(cfg, "ibp", "nodes", 1)
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
                "rel_error"], rows)


def cmd_kernel(cfg, manifest, args):
    from .kernel import kernel_decay_probe
    from .selftest import check_kernel_diagnostics
    inst = _instance_from_config(cfg)
    lam = _one_lambda(args, cfg, "kernel")
    seed = args.seed if args.seed is not None else cfg.get_int("kernel", "seed")
    res = check_kernel_diagnostics(
        n_samples=_count(cfg, "kernel", "n_samples", 1), lam=lam,
        tol=_tolerance(cfg, "kernel", "oracle_tolerance"),
        oracle_nodes=_count(cfg, "kernel", "oracle_nodes", 2), seed=seed,
        inst=inst)
    manifest.check(res.name, res.status, res.detail, elapsed=res.elapsed)

    # probe table: criterion 11's kernel values against the stationary-phase
    # majorant, each with its distance from the oracle and its own
    # agreement flag
    rows = kernel_decay_probe(inst, res.extras["samples"], lam, N=3)
    converged = res.extras["converged"]
    _write_csv(manifest.artifact("kernel_probe.csv"),
               ["region", "abs_value", "size_bound", "ratio",
                "rapid_bound", "rapid_ratio", "oracle_mismatch", "converged"],
               [(r.region, abs(r.value), r.size_bound, r.ratio,
                 r.rapid_bound if r.rapid_bound is not None else "",
                 r.rapid_ratio if r.rapid_ratio is not None else "", m, ok)
                for r, m, ok in zip(rows, res.extras["mismatches"],
                                    converged)])
    finite = all(np.isfinite(r.ratio) for r in rows)
    manifest.check("kernel-probe", "pass" if finite else "fail",
                   f"{len(rows)} samples, max ratio "
                   f"{max(r.ratio for r in rows):.4g}")
    unconverged = [str(k) for k, ok in enumerate(converged) if not ok]
    if unconverged:
        raise NonConvergenceError("kernel agreement check failed for sample "
                                  + ", ".join(unconverged))


def cmd_decay(cfg, manifest, args):
    from .selftest import check_sharpness_slope, check_upper_bound
    inst = _instance_from_config(cfg)
    lams = args.lam or cfg.get_floats("decay", "lambda")
    if len(lams) < 4:
        raise ConfigError("decay sweeps need at least four frequencies")
    family_kind = cfg.get("decay", "family")
    seed = args.seed if args.seed is not None else cfg.get_int("decay", "seed")
    if family_kind == "extremizer":
        # the slope target applies to the raw family; norms are reported
        res = check_sharpness_slope(
            target=cfg.get_float("decay", "slope_target"),
            tol=_tolerance(cfg, "decay", "slope_tol"), inst=inst, lambdas=lams,
            c_prime=cfg.get_float("decay", "c_prime"))
        name, reports = "decay-slope", [("extremizer", res.extras["report"])]
    elif family_kind == "bumps":
        res = check_upper_bound(
            n_families=_count(cfg, "decay", "n_families", 1), seed=seed,
            inst=inst, lambdas=lams,
            max_freq=cfg.get_float("decay", "max_freq"),
            normalized=cfg.get_bool("decay", "normalized"))
        name, reports = "decay-upper-bound", [
            (f"bumps-{k}", rep) for k, rep in enumerate(res.extras["reports"])]
    else:
        raise ConfigError(f"unknown decay family {family_kind!r}")
    manifest.check(name, res.status, res.detail, elapsed=res.elapsed)

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
        manifest.check("config", "fail", str(exc))
        manifest.finish()
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
