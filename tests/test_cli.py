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


def test_ibp_subcommand(tmp_path):
    code, out, _ = run(tmp_path, "ibp")
    assert code == 0
    lines = (out / "ibp_report.csv").read_text().splitlines()
    assert lines[0] == "N,lambda,lhs_re,lhs_im,rhs_re,rhs_im,rel_error"
    assert len(lines) == 3  # orders 1 and 2
    assert all(float(line.split(",")[-1]) <= 1e-4 for line in lines[1:])


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
