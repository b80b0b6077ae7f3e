import inspect
import json
import os

import pytest

from oscsurf.cli import main
from oscsurf.config import DEFAULTS, load_config
from oscsurf.errors import ConfigError


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(["--out", str(out), "--quiet", *argv])
    manifest = None
    mpath = out / "run_manifest.json"
    if mpath.exists():
        manifest = json.loads(mpath.read_text())
    return code, out, manifest


def write_config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


def test_tiling_pass_and_artifacts(tmp_path):
    code, out, manifest = run(tmp_path, "tiling",
                              "--config", write_config(tmp_path, """
[tiling]
lambda = 10
xi_max = 25
n_random = 10000
"""))
    assert code == 0
    csv = (out / "tiling_lambda10.csv").read_text().splitlines()
    assert csv[0] == "lo,hi,kind,center"
    cells = [tuple(line.split(",")[:2]) for line in csv[1:]]
    assert ("9", "16") in cells and ("-3", "0") in cells
    # manifest completeness: every file in the directory is listed
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))
    assert all(c["status"] == "pass" for c in manifest["checks"])


def test_tiling_small_lambda_fails(tmp_path):
    code, _, _ = run(tmp_path, "tiling", "--lambda", "0.5")
    assert code == 1


def test_tiling_cap_below_lambda_rejected(tmp_path):
    code, _, _ = run(tmp_path, "tiling",
                     "--config", write_config(tmp_path, """
[tiling]
lambda = 10
xi_max = 5
"""))
    assert code == 1


def test_unknown_config_section_is_usage_error(tmp_path):
    code, _, _ = run(tmp_path, "tiling",
                     "--config", write_config(tmp_path, "[nonsense]\nkey = 1\n"))
    assert code == 2


def test_unknown_config_key_is_usage_error(tmp_path):
    code, _, _ = run(tmp_path, "tiling",
                     "--config", write_config(tmp_path, "[tiling]\nlambada = 1\n"))
    assert code == 2


def test_malformed_polynomial_table(tmp_path):
    table = tmp_path / "rho.txt"
    table.write_text("1 0 : 1.0\n")  # wrong arity for dim 4
    code, _, _ = run(tmp_path, "certify",
                     "--config", write_config(tmp_path, f"""
[instance]
name = custom
d = 2
rho_table = {table}
[certify]
x_density = 3
circle_points = 8
"""))
    assert code == 2


def test_missing_polynomial_table_is_config_error(tmp_path):
    missing = tmp_path / "no-such-rho.txt"
    code, out, manifest = run(tmp_path, "certify",
                              "--config", write_config(tmp_path, f"""
[instance]
name = custom
d = 2
rho_table = {missing}
"""))
    assert code == 2
    assert [c["name"] for c in manifest["checks"]] == ["config"]
    detail = manifest["checks"][0]["detail"]
    assert "rho_table" in detail and str(missing) in detail
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))


@pytest.mark.parametrize("name", ["flat", "tilted"])
def test_instance_d_sets_flat_and_tilted(name):
    from oscsurf.cli import _instance_from_config
    inst = _instance_from_config(load_config(text=f"""
[instance]
name = {name}
d = 3
grid_density = 3
"""))
    assert inst.name == name and inst.d == 3 and inst.dim == 6


def test_instance_d_must_match_a_paper_instance(tmp_path):
    code, out, manifest = run(tmp_path, "certify",
                              "--config", write_config(tmp_path, """
[instance]
name = paper-even-d2
d = 3
"""))
    assert code == 2
    assert [c["name"] for c in manifest["checks"]] == ["config"]
    assert "d = 3" in manifest["checks"][0]["detail"]
    assert manifest["config"]["instance"]["d"] == "3"


@pytest.mark.parametrize("section, detail", [
    ("name = flat\nd = 1\n", "d must be at least 2"),
    ("name = paper-even-d2\nb0 = 0.6\nb1 = 0.5\n", "need 0 < b0 < b1"),
])
def test_out_of_range_instance_value_is_config_error(tmp_path, section, detail):
    code, out, manifest = run(tmp_path, "certify", "--config",
                              write_config(tmp_path, "[instance]\n" + section))
    assert code == 2
    assert [c["name"] for c in manifest["checks"]] == ["config"]
    assert detail in manifest["checks"][0]["detail"]


def test_certify_pass_with_report(tmp_path):
    code, out, manifest = run(tmp_path, "certify",
                              "--config", write_config(tmp_path, """
[certify]
x_density = 5
circle_points = 16
"""))
    assert code == 0
    report = json.loads((out / "certify_report.json").read_text())
    assert report["c_lower"] >= 0.44
    assert report["n_failures"] == 0
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))


def test_certify_degenerate_fails(tmp_path):
    table = tmp_path / "rho.txt"
    table.write_text("""
1 0 0 0 : 1
0 1 0 0 : 1
0 0 1 0 : 1
0 0 0 1 : 1
""")
    code, out, _ = run(tmp_path, "certify",
                       "--config", write_config(tmp_path, f"""
[instance]
name = custom
d = 2
rho_table = {table}
[certify]
x_density = 3
circle_points = 8
"""))
    assert code == 1
    report = json.loads((out / "certify_report.json").read_text())
    assert report["n_failures"] > 0


def test_decay_short_sweep_is_usage_error(tmp_path):
    code, _, _ = run(tmp_path, "decay", "--lambda", "25,50,100")
    assert code == 2


def test_decay_extremizer_pass(tmp_path):
    code, out, manifest = run(tmp_path, "decay",
                              "--lambda", "25 50 100 200")
    assert code == 0
    summary = json.loads((out / "decay_summary.json").read_text())
    assert abs(summary["extremizer"]["slope"] + 1.5) < 0.2
    assert (out / "decay_values.csv").exists()
    assert (out / "decay_loglog.dat").exists()
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))
    checks = {c["name"]: c for c in manifest["checks"]}
    assert list(checks) == ["decay-slope"]
    assert checks["decay-slope"]["elapsed_s"] >= 0.0


def test_decay_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, """
[decay]
family = bumps
n_families = 2
seed = 99
lambda = 25 50 100 200
""")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["decay", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["decay", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "decay_values.csv").read_bytes() \
        == (out2 / "decay_values.csv").read_bytes()


def test_decay_custom_tables_match_the_paper_instance(tmp_path):
    # the README's d = 2 table for rho and x1 x2 for Phi are paper-even-d2
    rho = tmp_path / "rho.txt"
    rho.write_text("1 0 1 0 : 1.0\n1 0 0 0 : 1.0\n0 1 0 0 : 1.0\n"
                   "0 0 1 0 : 1.0\n0 0 0 1 : 1.0\n")
    phi = tmp_path / "phi.txt"
    phi.write_text("1 1 0 0 : 1.0\n")
    custom = write_config(tmp_path, f"""
[instance]
name = custom
d = 2
rho_table = {rho}
phi_table = {phi}
""")
    out_custom, out_paper = tmp_path / "custom", tmp_path / "paper"
    assert main(["decay", "--config", custom, "--out", str(out_custom),
                 "--quiet"]) == 0
    assert main(["decay", "--out", str(out_paper), "--quiet"]) == 0
    for name in ("decay_values.csv", "decay_loglog.dat", "decay_summary.json"):
        assert (out_custom / name).read_bytes() == (out_paper / name).read_bytes()


def test_decay_non_convergence_exit_code(tmp_path, monkeypatch):
    from oscsurf import kernel
    monkeypatch.setattr(kernel, "DEFAULT_QUAD", kernel.QuadPolicy(agree_tol=1e-12))
    cfg = write_config(tmp_path, """
[decay]
family = bumps
n_families = 1
lambda = 25 50 100 200
""")
    code, out, manifest = run(tmp_path, "decay", "--config", cfg)
    assert code == 3
    failed = [c for c in manifest["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["non-convergence"]
    assert "bumps-0 at lambda = 25" in failed[0]["detail"]
    # the sweep's artifacts are still written and listed
    assert (out / "decay_values.csv").exists()
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))


def test_decay_root_solve_non_convergence_exit_code(tmp_path, monkeypatch):
    from oscsurf import geometry
    # cubic along the chart axis x_2' (d_4 rho >= 3/4 on the box), so one
    # Newton step from 0 leaves a residual above the root-solve tolerance
    rho = tmp_path / "rho.txt"
    rho.write_text("1 0 0 0 : 1.0\n0 1 0 0 : 1.0\n0 0 1 0 : 1.0\n"
                   "0 0 0 1 : 1.0\n0 0 0 3 : 1.0\n1 0 0 2 : 0.5\n"
                   "1 0 1 0 : 1.0\n")
    monkeypatch.setattr(geometry, "_NEWTON_MAX", 1)
    code, _, manifest = run(tmp_path, "decay", "--config",
                            write_config(tmp_path, f"""
[instance]
name = custom
d = 2
rho_table = {rho}
"""))
    assert code == 3
    failed = [c for c in manifest["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["non-convergence"]
    assert "root solve along axis 3" in failed[0]["detail"]


def test_ibp_subcommand(tmp_path):
    code, out, _ = run(tmp_path, "ibp")
    assert code == 0
    lines = (out / "ibp_report.csv").read_text().splitlines()
    assert lines[0] == "N,lambda,lhs_re,lhs_im,rhs_re,rhs_im,rel_error"
    assert len(lines) == 3  # orders 1 and 2
    assert all(float(line.split(",")[-1]) <= 1e-4 for line in lines[1:])


@pytest.mark.parametrize("command", ["ibp", "kernel"])
def test_single_lambda_subcommands_reject_a_list(tmp_path, command):
    code, out, manifest = run(tmp_path, command, "--lambda", "50,100")
    assert code == 2
    assert [c["name"] for c in manifest["checks"]] == ["config"]
    assert "--lambda" in manifest["checks"][0]["detail"]
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))


def test_window_subcommand(tmp_path):
    code, out, manifest = run(tmp_path, "window")
    assert code == 0
    assert (out / "window_samples.csv").exists()
    assert (out / "window_transform.csv").exists()
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))


def test_window_bad_profile_is_check_failure(tmp_path):
    code, _, manifest = run(tmp_path, "window",
                            "--config", write_config(tmp_path, """
[window]
profile = negated
"""))
    assert code == 1
    assert any(c["status"] == "fail" for c in manifest["checks"])


def test_unwritable_output_is_io_error():
    code = main(["tiling", "--out", "/proc/oscsurf-cannot-write", "--quiet"])
    assert code == 2


def test_empty_config_echoes_defaults(tmp_path):
    code, _, manifest = run(tmp_path, "window")
    assert code == 0
    assert manifest["config"] == {k: dict(v) for k, v in DEFAULTS.items()}
    assert manifest["config_source"] == "(defaults)"


def test_selftest_with_skips(tmp_path):
    cfg = write_config(tmp_path, """
[selftest]
skip = reconstruction analysis-bound packet-scaling jacobian-homogeneity
       ibp-identity adjoint-tangency upper-bound kernel-diagnostics
       sharpness-slope tiling-boxsize
""")
    code, out, manifest = run(tmp_path, "selftest", "--config", cfg)
    assert code == 0
    statuses = {c["name"]: c["status"] for c in manifest["checks"]}
    assert statuses["paper-determinants"] == "pass"
    assert statuses["reconstruction"] == "skip"
    # per-check timings go to the manifest, never to the CSV
    elapsed = {c["name"]: c.get("elapsed_s") for c in manifest["checks"]}
    assert elapsed["paper-determinants"] >= 0.0
    header = (out / "selftest_results.csv").read_text().splitlines()[0]
    assert header == "check,status,detail"


def test_config_loader_rejects_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_ibp_rerun_gives_the_same_bytes(tmp_path):
    code, out, _ = run(tmp_path, "ibp")
    assert code == 0
    first = (out / "ibp_report.csv").read_bytes()
    code, out, _ = run(tmp_path, "ibp")
    assert code == 0
    second = (out / "ibp_report.csv").read_bytes()
    assert second == first
    lines = second.decode().splitlines()
    assert lines[0].startswith("N,lambda,") and len(lines) == 3


def _count_calls(monkeypatch, target, *modules):
    """Wrap the function named target in each module; the returned list
    gets the positional arguments of every call."""
    calls = []
    for mod in modules:
        fn = getattr(mod, target)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, target, counted)
    return calls


def test_reconstruct_subcommand(tmp_path, monkeypatch):
    from oscsurf import selftest, window
    windows = _count_calls(monkeypatch, "make_window", window, selftest)
    cfg = write_config(tmp_path, """
[reconstruct]
n_signals = 2
""")
    code, _, manifest = run(tmp_path, "reconstruct", "--config", cfg)
    assert code == 0
    assert [c["name"] for c in manifest["checks"]] == ["reconstruction",
                                                       "analysis-bound"]
    assert all(c["status"] == "pass" for c in manifest["checks"])
    assert all(c["elapsed_s"] >= 0.0 for c in manifest["checks"])
    # criteria 2 and 3 share one window
    assert len(windows) == 1


def test_kernel_subcommand(tmp_path, monkeypatch):
    from oscsurf import kernel, selftest, window
    windows = _count_calls(monkeypatch, "make_window", window, selftest)
    kernels = _count_calls(monkeypatch, "kernel_eval", kernel)
    cfg = write_config(tmp_path, """
[kernel]
n_samples = 1
""")
    code, out, manifest = run(tmp_path, "kernel", "--config", cfg)
    assert code == 0
    checks = {c["name"]: c for c in manifest["checks"]}
    assert list(checks) == ["kernel-diagnostics", "kernel-probe"]
    assert checks["kernel-diagnostics"]["elapsed_s"] >= 0.0
    lines = (out / "kernel_probe.csv").read_text().splitlines()
    assert lines[0] == ("region,abs_value,size_bound,ratio,rapid_bound,"
                        "rapid_ratio,oracle_mismatch,converged")
    assert len(lines) == 2
    # the row carries its sample's oracle mismatch, the one the check names,
    # and the kernel's own agreement flag
    *_, mismatch, converged = lines[1].split(",")
    mismatch = float(mismatch)
    assert converged == "True"
    assert 0.0 <= mismatch <= 0.01
    assert checks["kernel-diagnostics"]["detail"].startswith(
        f"max oracle mismatch {mismatch:.2%} (sample 0); ")
    # one window; the sample's kernel once, plus the two short-circuits
    assert len(windows) == 1
    assert len(kernels) == 3


def test_kernel_subcommand_reports_an_unconverged_kernel(tmp_path,
                                                         monkeypatch):
    # criterion 11's sample needs (70, 66, 72) nodes per axis at scale 1:
    # under a cap of 60 only the coarse estimate fits, so its kernel is
    # unconverged
    from oscsurf import kernel
    monkeypatch.setattr(kernel, "DEFAULT_QUAD", kernel.QuadPolicy(max_nodes=60))
    cfg = write_config(tmp_path, """
[kernel]
n_samples = 1
""")
    code, out, manifest = run(tmp_path, "kernel", "--config", cfg)
    assert code == 3
    checks = {c["name"]: c for c in manifest["checks"]}
    assert list(checks) == ["kernel-diagnostics", "kernel-probe",
                            "non-convergence"]
    assert checks["non-convergence"]["status"] == "fail"
    assert checks["non-convergence"]["detail"].endswith("for sample 0")
    # the table is still written, with the sample's flag
    lines = (out / "kernel_probe.csv").read_text().splitlines()
    assert lines[1].endswith(",False")
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))


def test_kernel_subcommand_rejects_no_samples(tmp_path):
    cfg = write_config(tmp_path, """
[kernel]
n_samples = 0
""")
    code, out, manifest = run(tmp_path, "kernel", "--config", cfg)
    assert code == 2
    assert [c["name"] for c in manifest["checks"]] == ["config"]
    assert "n_samples" in manifest["checks"][0]["detail"]
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))


def test_kernel_subcommand_uses_the_configured_instance(tmp_path,
                                                        monkeypatch):
    from oscsurf import kernel
    from oscsurf.instance import make_instance
    from oscsurf.tiling import build_tiling
    from oscsurf.window import make_window
    kernels = _count_calls(monkeypatch, "kernel_eval", kernel)
    oracles = _count_calls(monkeypatch, "kernel_eval_dense", kernel)
    cfg = write_config(tmp_path, """
[instance]
name = tilted
[kernel]
n_samples = 1
""")
    code, out, manifest = run(tmp_path, "kernel", "--config", cfg)
    assert code == 0
    # criterion 11 runs on the configured instance
    assert {args[0].name for args in kernels + oracles} == {"tilted"}
    # the probe row is criterion 11's sample (the first kernel), on tilted
    y, xi, lam = kernels[0][3:6]
    monkeypatch.undo()
    value = kernel.kernel_eval(make_instance("tilted", b0=0.3, b1=0.5),
                               make_window(), build_tiling(lam, 6 * lam),
                               y, xi, lam)
    row = (out / "kernel_probe.csv").read_text().splitlines()[1].split(",")
    assert value != 0.0
    assert float(row[1]) == abs(value)


def test_kernel_subcommand_needs_d2(tmp_path):
    cfg = write_config(tmp_path, """
[instance]
name = paper-odd-d3
[kernel]
n_samples = 1
""")
    code, _, manifest = run(tmp_path, "kernel", "--config", cfg)
    assert code == 1
    assert [c["name"] for c in manifest["checks"]] == ["constraint"]
    assert "d = 2" in manifest["checks"][0]["detail"]


def test_config_defaults_match_the_checks():
    # a subcommand that runs a selftest check with the config defaults runs
    # it exactly as the acceptance battery does
    from oscsurf import selftest

    def defaults(fn):
        return {k: p.default for k, p in
                inspect.signature(fn).parameters.items()}

    kern = defaults(selftest.check_kernel_diagnostics)
    assert {"lambda": float(kern["lam"]), "n_samples": kern["n_samples"],
            "oracle_tolerance": kern["tol"],
            "oracle_nodes": kern["oracle_nodes"], "seed": kern["seed"]} == {
        k: float(v) for k, v in DEFAULTS["kernel"].items()}
    rec = defaults(selftest.check_reconstruction)
    ana = defaults(selftest.check_analysis_bound)
    for fn in (rec, ana):
        assert fn["n_signals"] == int(DEFAULTS["reconstruct"]["n_signals"])
        assert fn["seed"] == int(DEFAULTS["reconstruct"]["seed"])
        assert fn["band_frac"] == float(DEFAULTS["reconstruct"]["xi_band"])
    assert rec["tol"] == float(DEFAULTS["reconstruct"]["tolerance"])
    assert set(DEFAULTS["reconstruct"]) == {"n_signals", "seed", "xi_band",
                                            "tolerance"}
    dec = DEFAULTS["decay"]
    assert [float(v) for v in dec["lambda"].split()] == selftest.LAMBDA_SWEEP
    slope = defaults(selftest.check_sharpness_slope)
    assert slope["target"] == float(dec["slope_target"])
    assert slope["tol"] == float(dec["slope_tol"])
    assert slope["c_prime"] == float(dec["c_prime"])
    assert slope["lambdas"] is None
    upper = defaults(selftest.check_upper_bound)
    assert upper["n_families"] == int(dec["n_families"])
    assert upper["seed"] == int(dec["seed"])
    assert upper["max_freq"] == float(dec["max_freq"])
    assert upper["normalized"] is (dec["normalized"] == "true")
    assert upper["lambdas"] is None


@pytest.mark.parametrize("command, text, key", [
    ("ibp", "[ibp]\nnodes = 0\n", "ibp.nodes"),
    ("ibp", "[ibp]\norders = 4\n", "ibp.orders"),
    ("window", "[window]\ngrid = 0\n", "window.grid"),
    ("tiling", "[tiling]\nn_random = -1\n", "tiling.n_random"),
    ("tiling", "[tiling]\nn_random = 0\n", "tiling.n_random"),
    ("reconstruct", "[reconstruct]\nn_signals = 0\n", "reconstruct.n_signals"),
    ("decay", "[decay]\nfamily = bumps\nn_families = 0\n",
     "decay.n_families"),
    ("kernel", "[kernel]\noracle_nodes = 1\n", "kernel.oracle_nodes"),
])
def test_out_of_range_count_is_config_error(tmp_path, command, text, key):
    code, out, manifest = run(tmp_path, command, "--config",
                              write_config(tmp_path, text))
    assert code == 2
    assert [c["name"] for c in manifest["checks"]] == ["config"]
    assert key in manifest["checks"][0]["detail"]


@pytest.mark.parametrize("command, section, key, value", [
    ("reconstruct", "reconstruct", "tolerance", "nan"),
    ("reconstruct", "reconstruct", "tolerance", "0"),
    ("ibp", "ibp", "tolerance", "-1"),
    ("ibp", "ibp", "tolerance", "inf"),
    ("kernel", "kernel", "oracle_tolerance", "nan"),
    ("kernel", "kernel", "oracle_tolerance", "-0.01"),
    ("decay", "decay", "slope_tol", "nan"),
    ("decay", "decay", "slope_tol", "0"),
])
def test_bad_tolerance_is_config_error(tmp_path, command, section, key, value):
    code, out, manifest = run(tmp_path, command, "--config", write_config(
        tmp_path, f"[{section}]\n{key} = {value}\n"))
    assert code == 2
    assert [c["name"] for c in manifest["checks"]] == ["config"]
    assert f"{section}.{key}" in manifest["checks"][0]["detail"]
    assert sorted(manifest["artifacts"]) == sorted(os.listdir(out))
