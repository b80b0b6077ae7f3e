"""oscsurf benchmark: one workload in a single-threaded closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload decay-d2 --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the run times import plus set-up in this process and in
``SETUP_REPEATS - 1`` fresh interpreters (``setup_s`` is the median), then
runs whole batches of ops, one op at a time, until the next batch would pass
``--seconds``, and reports the end-to-end metrics.  With ``--trace 1`` it
runs the same seeded batches twice, untraced and with span wrappers
installed, both passes together taking about ``--seconds``, and reports
the per-layer metrics and the tracing overhead.  Human-readable lines go
first; the last line of standard output is the JSON result.  A record of the run
(machine, per-op times and problems, metrics, and for a traced run its
spans) is written under ``perfbench/out/``.
"""

import os

# BLAS and OpenMP pools are pinned to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("decay-d2", "kernel-d2", "qmc-d3", "lab-cli")


class Pass:
    """A closed loop over one workload's batches, one op at a time."""

    def __init__(self, wl, state, seed, ref, tracer=None):
        self.records = []       # per op: label, seconds, problems
        self.batches_run = 0
        self.wall = 0.0
        self.notes = {}
        self.tracer = tracer
        span = tracer.span if tracer is not None else contextlib.nullcontext
        self._batches = wl.batches(state, seed, ref, self.notes, span)

    def step(self):
        """Draw the next batch and run all of its ops."""
        b0 = time.perf_counter()
        for label, fn in next(self._batches):
            if self.tracer is not None:
                self.tracer.op_id = len(self.records)
            t0 = time.perf_counter()
            problems = run_op(fn)
            self.records.append({"label": label,
                                 "s": time.perf_counter() - t0,
                                 "problems": problems})
        if self.tracer is not None:
            self.tracer.op_id = None
        wall = time.perf_counter() - b0
        self.batches_run += 1
        self.wall += wall
        return wall


def run_op(fn):
    """Run one op; a warning or an exception inside it is a failure."""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(sys.stderr):
        warnings.simplefilter("always")
        try:
            problems = list(fn())
        except Exception as exc:  # the op failed; record it and go on
            problems = [("failed", f"{type(exc).__name__}: {exc}")]
    problems += [("failed", f"warning: {w.message}") for w in caught]
    return problems


def run_until(seconds, step):
    """Call ``step`` (which returns its wall time) until the next call would
    likely end past ``seconds``; always at least once."""
    start = time.perf_counter()
    walls = [step()]
    while time.perf_counter() - start + statistics.median(walls) <= seconds:
        walls.append(step())


def machine_info(args):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_setup_s(name):
    """Import plus set-up time of the workload in a fresh interpreter."""
    code = ("import sys, time; "
            f"sys.path[:0] = [{SRC!r}, {HERE!r}]; "
            "t = time.perf_counter(); import workloads; "
            f"workloads.WORKLOADS[{name!r}].setup(); "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def untraced_run(wl, args, ref, import_s):
    import tracer as tr
    t0 = time.perf_counter()
    state = wl.setup()
    setup_times = [import_s + time.perf_counter() - t0]
    setup_times += [fresh_setup_s(wl.name) for _ in range(SETUP_REPEATS - 1)]
    p = Pass(wl, state, args.seed, ref)
    run_until(args.seconds, p.step)
    checks = []
    if tr.installed_wrappers():
        checks.append("an untraced run found tracer wrappers installed")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(p.records) / p.wall, "1/s"),
        "op_p50_s": (statistics.median(r["s"] for r in p.records), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"setup_times": setup_times}
    return [p], metrics, checks, extra, None


def traced_run(wl, args, ref, import_s):
    """The same seeded batches, untraced and traced, on separate states.
    Batches alternate between the two passes.  The traced pass runs the
    first batch first, so warm-up costs count as tracing overhead and the
    reported overhead errs high."""
    import tracer as tr
    tracer = tr.Tracer()
    checks = tr.self_check()
    plain = Pass(wl, wl.setup(), args.seed, ref)
    tracer.install()
    try:
        traced = Pass(wl, wl.setup(), args.seed, ref, tracer=tracer)
    finally:
        tracer.uninstall()

    def traced_step():
        tracer.install()
        try:
            return traced.step()
        finally:
            tracer.uninstall()

    def pair():
        first, second = ((traced_step, plain.step)
                         if plain.batches_run % 2 == 0
                         else (plain.step, traced_step))
        return first() + second()

    run_until(args.seconds, pair)
    if tr.installed_wrappers():
        checks.append("tracer wrappers were left installed")
    metrics = tr.layer_metrics(tracer.spans, traced.notes)
    metrics["trace.overhead_frac"] = ((traced.wall - plain.wall) / plain.wall,
                                      "ratio")
    checks += tr.coverage_problems(wl.name, metrics)
    extra = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall,
             "n_spans": len(tracer.spans)}
    return [plain, traced], metrics, checks, extra, tracer.spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "oscsurf", "__init__.py")):
        print(f"perfbench: no oscsurf sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0

    wl = workloads.WORKLOADS[args.workload]
    ref = workloads.load_reference()
    run = traced_run if args.trace else untraced_run
    passes, metrics, checks, extra, spans = run(wl, args, ref, import_s)

    records = [r for p in passes for r in p.records]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    wrong = [msg for r in records for kind, msg in r["problems"]
             if kind == "wrong"]
    correct = not wrong and not checks and attempted > 0
    info = machine_info(args)
    info["ops_per_pass"] = [len(p.records) for p in passes]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()
                                  if k not in ("workload", "seed", "trace")))
    print(f"ops: {attempted} attempted, {failed} failed, "
          f"failed_frac {failed / max(attempted, 1):.4g} 1")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for r in records:
        for kind, msg in r["problems"]:
            print(f"{kind}: {r['label']}: {msg}", file=sys.stderr)
    for msg in checks:
        print(f"check: {msg}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"machine": info, "metrics": metrics, "checks": checks,
                   "extra": extra, "failed_frac": failed / max(attempted, 1),
                   "ops": records}, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op", "count", "extra"], "spans": spans}, fh)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
