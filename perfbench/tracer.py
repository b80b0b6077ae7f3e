"""In-memory span tracer for the traced benchmark run.

Spans are recorded from this directory only: the tracer wraps public
functions and methods of the oscsurf modules from the outside and restores
them afterwards.  A module-level function is rebound in every oscsurf module
that holds it, so callers that did ``from .geometry import cached_chart``
(``kernel.cached_chart``, ``tangent.cached_chart``) see the wrapper too.
Methods are patched on the class.

A span is (name, start_ns, end_ns, parent index, op id, count, extra).
Self time is the span's duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

import contextlib
import functools
import importlib
import pkgutil
import sys
import time

import numpy as np

MARK = "__perfbench_wrapped__"

_FIELD_LAYERS = {"PolynomialField": "fields.poly", "BumpField": "fields.bump"}


# A count maps (args, kwargs, return value) of a wrapped call to its work
# count, or to (count, extra) where extra is a value whose maximum is kept.

def _size(args, kwargs, out):
    return int(np.size(out))


def _solved_points(args, kwargs, out):
    return int(np.size(out[0]))


def _chart_nodes(args, kwargs, out):
    return int(np.prod(out.nodes_per_axis))


def _zero_kernel(args, kwargs, out):
    return int(out == 0)


def _dense_points(args, kwargs, out):
    if out == 0:
        return 0
    n = kwargs.get("nodes_per_axis", args[6] if len(args) > 6 else 72)
    return int(n) ** (args[0].dim - 1)


def _eval_I_nodes(args, kwargs, out):
    diag = kwargs.get("diagnostics")
    if diag is None:
        return 0
    lam = args[2] if len(args) > 2 else kwargs["lam"]
    return (int(diag.get("n_nodes", {}).get(lam, 0)),
            diag.get("refinement_mismatch", {}).get(lam))


def _battery_samples(args, kwargs, out):
    return int(out[0])


def _bordered_rows(args, kwargs, out):
    return int(np.prod(out.shape[:-2]))


def _expr_points(args, kwargs, out):
    return len(out)


# (module, function, span name, count or None for a time-only span)
FUNCTIONS = [
    ("fields", "bump1d_value", "fields.bump1d", _size),
    ("instance", "make_instance", "instance.make", None),
    ("geometry", "graph_solve_grid", "geometry.solve", _solved_points),
    ("geometry", "cached_chart", "geometry.chart.request", None),
    ("geometry", "build_chart", "geometry.chart.build", _chart_nodes),
    ("kernel", "eval_I", "kernel.eval_I", _eval_I_nodes),
    ("kernel", "calibrate_extremizer", "kernel.calibrate", None),
    ("kernel", "kernel_eval", "kernel.kernel_eval", _zero_kernel),
    ("kernel", "kernel_eval_dense", "kernel.dense", _dense_points),
    ("tiling", "locate", "tiling.locate", None),
    ("tiling", "boxsize_battery", "tiling.battery", _battery_samples),
    ("window", "make_window", "window.make", None),
    ("wavepackets", "analysis", "wavepackets.analysis", None),
    ("wavepackets", "synthesis", "wavepackets.synthesis", None),
    ("nondegen", "certify", "nondegen.certify", None),
    ("nondegen", "bordered_matrix", "nondegen.bordered", _bordered_rows),
    ("tangent", "ibp_identity_check", "tangent.ibp_check", None),
    ("exprs", "evaluate_chunked", "exprs.eval", _expr_points),
]

# (module, class, method, span name or callable self -> name, count)
METHODS = [
    ("fields", "SmoothField", "deriv",
     lambda self: _FIELD_LAYERS.get(type(self).__name__, "fields.other"),
     _size),
    ("window", "Window", "phi", "window.phi", _size),
    ("wavepackets", "WavePacket", "__call__", "wavepackets.packet", _size),
    ("cli", "Manifest", "finish", "cli.manifest.finish", None),
]


def _oscsurf_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "oscsurf" or n.startswith("oscsurf."))]


class Tracer:
    """Records spans while installed; ``op_id`` tags spans with the op
    that caused them (None during set-up)."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def begin(self, name):
        rec = [name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1, self.op_id, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.begin(name(args[0]) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if count is not None:
                res = count(args, kwargs, out)
                rec[5], rec[6] = res if isinstance(res, tuple) else (res, None)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        import oscsurf
        # import every submodule first, so no binding appears after the scan
        for info in pkgutil.iter_modules(oscsurf.__path__):
            importlib.import_module(f"oscsurf.{info.name}")
        mods = {m.__name__.rpartition(".")[2]: m for m in _oscsurf_modules()}
        everywhere = _oscsurf_modules()
        for modname, attr, name, count in FUNCTIONS:
            orig = getattr(mods[modname], attr)
            wrapper = self.wrap(orig, name, count)
            for mod in everywhere:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for modname, cls_name, meth, name, count in METHODS:
            cls = getattr(mods[modname], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(orig, name, count))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []


def installed_wrappers():
    """Number of oscsurf bindings currently wrapped by a tracer."""
    n = 0
    for mod in _oscsurf_modules():
        for val in vars(mod).values():
            if getattr(val, MARK, False):
                n += 1
            if isinstance(val, type):
                n += sum(1 for v in vars(val).values() if getattr(v, MARK, False))
    return n


def self_times(spans):
    """Per-span self time in ns: duration minus the children's durations."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def self_check():
    """Self time on a synthetic nested span set; returns a list of problems."""
    spans = [["a", 0, 100, -1, 0, 0, None],
             ["b", 10, 40, 0, 0, 0, None],
             ["c", 15, 25, 1, 0, 0, None],
             ["d", 50, 90, 0, 0, 0, None],
             ["e", 200, 260, -1, 1, 0, None]]
    want = [30, 20, 10, 40, 60]
    got = self_times(spans)
    return [] if got == want else [f"tracer self time {got} != {want}"]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = ["tiling", "window", "reconstruct", "certify", "ibp", "decay"]


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans, notes):
    """Per-layer metrics (name -> (value, unit)) from spans and the maximum
    of each bench-side note (e.g. the oracle mismatch)."""
    selfs = self_times(spans)
    agg = {}
    inside_solve = [False] * len(spans)
    solve_field_points = 0
    for i, rec in enumerate(spans):
        name, t0, t1, parent = rec[0], rec[1], rec[2], rec[3]
        a = agg.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0,
                                  "count": 0, "extra_max": 0.0})
        a["calls"] += 1
        a["ns"] += t1 - t0
        a["self_ns"] += selfs[i]
        a["count"] += rec[5]
        if rec[6] is not None:
            a["extra_max"] = max(a["extra_max"], float(rec[6]))
        if parent >= 0:
            inside_solve[i] = (spans[parent][0] == "geometry.solve"
                               or inside_solve[parent])
        if inside_solve[i] and name.startswith("fields.") \
                and name != "fields.bump1d":
            solve_field_points += rec[5]

    def g(name, key):
        return agg.get(name, {}).get(key, 0)

    def sec(name, key="ns"):
        return g(name, key) / 1e9

    m = {}
    for layer in ("fields.poly", "fields.bump", "fields.bump1d"):
        m[f"{layer}.points"] = (g(layer, "count"), "count")
        m[f"{layer}.ns_per_point"] = (
            _per(g(layer, "self_ns"), g(layer, "count")), "ns")
    m["fields.poly.self_s"] = (sec("fields.poly", "self_ns"), "s")
    m["instance.make_s"] = (sec("instance.make"), "s")

    m["geometry.solve.calls"] = (g("geometry.solve", "calls"), "count")
    m["geometry.solve.points"] = (g("geometry.solve", "count"), "count")
    m["geometry.solve.ns_per_point"] = (
        _per(g("geometry.solve", "ns"), g("geometry.solve", "count")), "ns")
    m["geometry.solve.field_evals_per_point"] = (
        _per(solve_field_points, g("geometry.solve", "count")), "ratio")

    requests = g("geometry.chart.request", "calls")
    builds = g("geometry.chart.build", "calls")
    m["geometry.chart.requests"] = (requests, "count")
    m["geometry.chart.builds"] = (builds, "count")
    m["geometry.chart.hit_ratio"] = (
        max(0.0, _per(requests - builds, requests)), "ratio")
    m["geometry.chart.nodes"] = (g("geometry.chart.build", "count"), "count")
    m["geometry.chart.build_s"] = (sec("geometry.chart.build"), "s")
    m["geometry.chart.ns_per_node"] = (
        _per(g("geometry.chart.build", "ns"),
             g("geometry.chart.build", "count")), "ns")

    m["kernel.eval_I.calls"] = (g("kernel.eval_I", "calls"), "count")
    m["kernel.eval_I.self_s"] = (sec("kernel.eval_I", "self_ns"), "s")
    m["kernel.eval_I.nodes"] = (g("kernel.eval_I", "count"), "count")
    m["kernel.eval_I.mismatch_max"] = (g("kernel.eval_I", "extra_max"), "ratio")
    m["kernel.calibrate.s"] = (sec("kernel.calibrate"), "s")

    m["kernel.kernel_eval.calls"] = (g("kernel.kernel_eval", "calls"), "count")
    m["kernel.kernel_eval.s"] = (sec("kernel.kernel_eval"), "s")
    m["kernel.kernel_eval.zero_shortcircuits"] = (
        g("kernel.kernel_eval", "count"), "count")

    m["kernel.dense.calls"] = (g("kernel.dense", "calls"), "count")
    m["kernel.dense.points"] = (g("kernel.dense", "count"), "count")
    m["kernel.dense.self_s"] = (sec("kernel.dense", "self_ns"), "s")
    m["kernel.dense.ns_per_point"] = (
        _per(g("kernel.dense", "ns"), g("kernel.dense", "count")), "ns")
    m["kernel.dense.mismatch_max"] = (notes.get("dense_mismatch", 0.0), "ratio")

    m["tiling.locate.calls"] = (g("tiling.locate", "calls"), "count")
    m["tiling.locate.ns_per_call"] = (
        _per(g("tiling.locate", "ns"), g("tiling.locate", "calls")), "ns")
    m["tiling.battery.samples_per_s"] = (
        _per(g("tiling.battery", "count"), g("tiling.battery", "ns"), 1e9),
        "1/s")

    m["window.make_s"] = (sec("window.make"), "s")
    m["window.phi.points"] = (g("window.phi", "count"), "count")
    m["window.phi.ns_per_point"] = (
        _per(g("window.phi", "self_ns"), g("window.phi", "count")), "ns")

    m["wavepackets.analysis.s"] = (sec("wavepackets.analysis"), "s")
    m["wavepackets.synthesis.s"] = (sec("wavepackets.synthesis"), "s")
    m["wavepackets.packet.points"] = (g("wavepackets.packet", "count"), "count")
    m["wavepackets.packet.ns_per_point"] = (
        _per(g("wavepackets.packet", "self_ns"),
             g("wavepackets.packet", "count")), "ns")

    m["nondegen.certify.s"] = (sec("nondegen.certify"), "s")
    m["nondegen.bordered.rows"] = (g("nondegen.bordered", "count"), "count")
    m["nondegen.bordered.ns_per_row"] = (
        _per(g("nondegen.bordered", "ns"), g("nondegen.bordered", "count")),
        "ns")

    m["tangent.ibp_check.s"] = (sec("tangent.ibp_check"), "s")
    m["exprs.eval.points"] = (g("exprs.eval", "count"), "count")
    m["exprs.eval.ns_per_point"] = (
        _per(g("exprs.eval", "self_ns"), g("exprs.eval", "count")), "ns")

    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.s"] = (sec(f"cli.{sub}"), "s")
    m["cli.manifest.finish_s"] = (sec("cli.manifest.finish"), "s")
    return m


# Which per-layer metrics must be non-zero in which workload's traced run:
# the layer-to-workload table of the benchmark's README.  Ratios that can
# truly be 0 (the chart hit ratio) are left out; their counts are covered.
COVERAGE = {}


def _cover(workloads, *names):
    for n in names:
        COVERAGE.setdefault(n, set()).update(workloads)


_cover(("kernel-d2", "qmc-d3"),
       "fields.poly.points", "fields.poly.self_s", "fields.poly.ns_per_point")
_cover(("decay-d2",), "fields.bump.points", "fields.bump.ns_per_point",
       "fields.bump1d.points", "fields.bump1d.ns_per_point")
_cover(("qmc-d3",), "instance.make_s")
_cover(("qmc-d3", "decay-d2"), "geometry.solve.calls", "geometry.solve.points",
       "geometry.solve.ns_per_point", "geometry.solve.field_evals_per_point")
_cover(("decay-d2",), "geometry.chart.requests", "geometry.chart.builds",
       "geometry.chart.nodes", "geometry.chart.build_s",
       "geometry.chart.ns_per_node")
_cover(("decay-d2", "qmc-d3"), "kernel.eval_I.calls", "kernel.eval_I.self_s",
       "kernel.eval_I.nodes", "kernel.eval_I.mismatch_max",
       "kernel.calibrate.s")
_cover(("kernel-d2",), "kernel.kernel_eval.calls", "kernel.kernel_eval.s",
       "kernel.kernel_eval.zero_shortcircuits", "kernel.dense.calls",
       "kernel.dense.points", "kernel.dense.self_s",
       "kernel.dense.ns_per_point", "kernel.dense.mismatch_max")
# No lab-cli subcommand locates a cell or evaluates a packet in x (the
# reconstruction works on the spectrum), so those layers are covered by
# kernel-d2 alone.
_cover(("kernel-d2",), "tiling.locate.calls", "tiling.locate.ns_per_call",
       "window.phi.points", "window.phi.ns_per_point",
       "wavepackets.packet.points", "wavepackets.packet.ns_per_point")
_cover(("kernel-d2", "lab-cli"), "window.make_s")
_cover(("lab-cli",), "tiling.battery.samples_per_s",
       "wavepackets.analysis.s", "wavepackets.synthesis.s",
       "nondegen.certify.s", "nondegen.bordered.rows",
       "nondegen.bordered.ns_per_row", "tangent.ibp_check.s",
       "exprs.eval.points", "exprs.eval.ns_per_point",
       "cli.manifest.finish_s", *[f"cli.{s}.s" for s in CLI_SUBCOMMANDS])


def coverage_problems(workload, metrics):
    return [f"per-layer metric {name} is 0 on {workload}"
            for name, wls in sorted(COVERAGE.items())
            if workload in wls and not metrics[name][0]]
