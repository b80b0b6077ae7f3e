"""The byte-reproducible outputs must match the benchmark's reference.

perfbench/reference.json holds the CSV digests of the command line on the
repository defaults and the d = 2 extremizer values, recorded when they were
last meant to change; a benchmark run rejects any difference.  This test
checks the same outputs in the suite.  perfbench/workloads.py is loaded from
its file and left unmodified.
"""

import importlib.util
import os

import pytest

from oscsurf import cli, kernel

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("sub", ["tiling", "window", "certify", "ibp", "decay"])
def test_cli_csv_digests_match_reference(workloads, tmp_path, sub):
    rc = cli.main([sub, *workloads.CLI_ARGS[sub], "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    ref = workloads.load_reference()["lab-cli"][sub]
    assert workloads.csv_digests(str(tmp_path)) == ref


def test_extremizer_values_match_reference(workloads):
    ref = workloads.load_reference()["decay-d2"]["extremizer"]
    state = workloads.DecayD2().setup()
    for lam in workloads.LAMBDAS:
        value = kernel.eval_I(state["inst"], state["extremizer"], lam)
        want = complex(*ref[f"{lam:g}"])
        assert abs(value - want) <= workloads.REF_RTOL * abs(want)
