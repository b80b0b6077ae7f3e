"""The names the benchmark's tracer wraps must exist on oscsurf.

perfbench/tracer.py patches functions and methods by name; a rename in the
package would otherwise surface only as a failed traced benchmark run.
The tracer is loaded from its file and left unmodified.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_wrapped_functions_resolve(tracer):
    for modname, attr, _, _ in tracer.FUNCTIONS:
        mod = importlib.import_module(f"oscsurf.{modname}")
        assert callable(getattr(mod, attr, None)), f"oscsurf.{modname}.{attr}"


def test_wrapped_methods_resolve(tracer):
    for modname, cls_name, meth, _, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"oscsurf.{modname}"), cls_name)
        assert callable(vars(cls).get(meth)), f"{cls_name}.{meth}"


def test_counted_arguments_keep_their_places():
    # the tracer's counts read eval_I's lam (third) and diagnostics, and the
    # oracle's nodes_per_axis (seventh)
    from oscsurf import kernel
    params = list(inspect.signature(kernel.eval_I).parameters)
    assert params[2] == "lam" and "diagnostics" in params
    params = list(inspect.signature(kernel.kernel_eval_dense).parameters)
    assert params[6] == "nodes_per_axis"


def test_install_uninstall_leaves_no_wrapper(tracer):
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.installed_wrappers() > 0
    finally:
        t.uninstall()
    assert tracer.installed_wrappers() == 0


def test_tracer_reaches_the_layers(tracer):
    # the traced benchmark's coverage check needs these counts; a path that
    # bypasses a wrapped name would leave them at 0
    from oscsurf import geometry, instance, kernel, tiling, window
    inst = instance.make_instance("paper-even-d2")
    fam = kernel.random_bump_family(inst, np.random.default_rng(3))
    w = window.make_window()
    t = tiling.build_tiling(100.0, 600.0)
    y = np.array([0.05, -0.04, 0.06, 0.0])
    y[3] = geometry.graph_solve(inst, 3, y[:3])
    xi = np.array([63.0, -37.0, 117.0, 47.0])
    tr = tracer.Tracer()
    tr.install()
    try:
        kernel.eval_I(inst, fam, 25.0)
        after_eval = tracer.layer_metrics(tr.spans, {})
        # eval_I builds its charts slab by slab without the chart cache;
        # the cache's requests come from the extremizer calibration
        kernel.calibrate_extremizer(inst, kernel.extremizer_family(inst),
                                    [25.0])
        dense = kernel.kernel_eval_dense(inst, w, t, y, xi, 100.0,
                                         nodes_per_axis=24)
    finally:
        tr.uninstall()
    assert dense != 0
    for name in ("geometry.chart.builds", "geometry.chart.nodes"):
        assert after_eval[name][0] > 0, name
    metrics = tracer.layer_metrics(tr.spans, {})
    for name in ("fields.bump.points", "fields.bump1d.points",
                 "window.phi.points", "wavepackets.packet.points",
                 "geometry.chart.requests"):
        assert metrics[name][0] > 0, name
