#!/usr/bin/env python3
"""dotdiode benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dotdiode checkout; the program is imported from
its src/ directory. Workloads: iv_dark, iv_lit_optics and band_scan (see
perfbench/NOTES.md). One client drives `dotdiode.cli.main` in-process in
a closed loop: each command starts when the previous one returns.

--trace 0 repeats the workload as long as the next pass would end within
--seconds (at least once) and reports the end-to-end metrics of
BENCHMARK.json. --trace 1 runs one untraced pass and one traced pass, and
reports the per-layer metrics of BENCHMARK.json from the traced one.
Every op's output is checked. The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full result, with the environment and every traced function, is
written to perfbench/_work/<workload>.json.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# The closed loop has one client, so the numeric libraries get one thread
# each, which is within nproc on any machine. The caps must be in the
# environment before numpy is first imported; the setup starts inherit them.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({v: str(THREADS) for v in THREAD_VARS})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "dotdiode" / "__init__.py").is_file():
    sys.exit(f"run.py: no dotdiode sources under {SRC}")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from dotdiode import cli  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
CALL_STATS = ("calls", "self_s", "us_per_call")

# Fresh-interpreter starts per run, half before the workload and half after.
# setup_s is the fastest of them: a start only ever runs slower than its
# code needs, when the shared host is busy, so the fastest start measures
# the code and a slow stretch of the host does not move it.
SETUP_RUNS = 16
SETUP_CODE = """
from dotdiode import cli
from dotdiode.device import build_mesh, load_reference_stack
from dotdiode.qd_model import load_charge_ladder, load_reference_lines
stack = load_reference_stack()
load_reference_lines()
load_charge_ladder()
build_mesh(stack)
"""


def setup_times(runs, warm_up=False):
    """Times of `runs` fresh interpreters that each import dotdiode, load the
    bundled stack, lines and ladder, and build the reference mesh.

    With `warm_up`, one unmeasured start first compiles the bytecode of a
    fresh checkout. No timeout: with one, the wait polls and rounds each
    time up to 50 ms.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(runs + warm_up):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times[warm_up:]


def environment():
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "dotdiode").rglob("*.py")))
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": {v: THREADS for v in THREAD_VARS},
            "src_dotdiode_lines": lines}


def run_pass(workload, tracer=None):
    """Run every command once. Returns (seconds inside the CLI, outcomes).

    `cli.iv_sweep` is wrapped for the pass to keep the IVCurve the CLI
    computes: iv.csv drops convergence and continuity, which the checks
    need. Each command's standard error is kept for the checks and then
    passed on.
    """
    outcomes = {}
    elapsed = 0.0
    for command in workload.commands():
        shutil.rmtree(command.out, ignore_errors=True)
        gc.collect()  # so no command pays for the previous one's garbage
        curves = []
        sweep = cli.iv_sweep

        def keep_curve(*args, **kwargs):
            curve = sweep(*args, **kwargs)
            curves.append(curve)
            return curve

        cli.iv_sweep = keep_curve
        if tracer is not None:
            tracer.begin_op(command.label)
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(list(command.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed op, not a failed benchmark
            traceback.print_exc(file=err)
            rc = -1
        finally:
            elapsed += time.perf_counter() - start
            cli.iv_sweep = sweep
        sys.stderr.write(err.getvalue())
        outcomes[command.label] = Outcome(rc, curves[-1] if curves else None, err.getvalue())
    return elapsed, outcomes


def layer_metrics(tracer, outcomes, ops, traced_wall, untraced_wall):
    """The per-layer metrics of BENCHMARK.json from a traced pass (0 where a
    layer did not run)."""
    stats = tracer.stats()
    empty = tracing.SpanStats()

    def get(name):
        return stats.get(name, empty)

    def pct(name, q):
        d = get(name).durations
        return float(np.percentile(d, q)) if d else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for key in PER_LAYER:
        name, _, stat = key.rpartition(".")
        if stat in CALL_STATS:
            st = get(name)
            m[key] = {"calls": st.calls, "self_s": st.self_s,
                      "us_per_call": 1e6 * ratio(st.total_s, st.calls)}[stat]
    m["electrostatics.inverse_fermi_half.total_s"] = get(
        "electrostatics.inverse_fermi_half").total_s
    m["electrostatics.inverse_fermi_half.steps"] = ratio(
        tracer.child_calls("electrostatics.fermi_half_deriv",
                           "electrostatics.inverse_fermi_half"),
        get("electrostatics.inverse_fermi_half").calls)
    kernels = sum(get(f"electrostatics.{k}").self_s
                  for k in ("fermi_half", "fermi_half_deriv", "inverse_fermi_half"))
    m["electrostatics.kernel_share"] = ratio(kernels, traced_wall)
    m["electrostatics.solve_bias.p50_s"] = pct("electrostatics.solve_bias", 50)
    m["electrostatics.solve_bias.p75_s"] = pct("electrostatics.solve_bias", 75)

    points = [pt for o in outcomes.values() if o.curve is not None for pt in o.curve.points]
    cycles = sum(pt.gummel_iterations for pt in points)
    solve = get("transport.solve_drift_diffusion")
    m["transport.gummel_cycles"] = cycles
    m["transport.cycles_per_point.max"] = max((pt.gummel_iterations for pt in points),
                                              default=0)
    m["transport.cycle_ms"] = 1e3 * ratio(solve.total_s, cycles)
    m["transport.point_cold_s"] = solve.durations[0] if solve.durations else 0.0
    m["transport.point_warm.p50_s"] = (statistics.median(solve.durations[1:])
                                       if len(solve.durations) > 1 else 0.0)
    m["transport.converged_frac"] = ratio(sum(pt.converged for pt in points), len(points))

    m["qd_model.synth_emission_map.s"] = get("qd_model.synth_emission_map").total_s
    to_csv = get("qd_model.EmissionMap.to_csv")
    m["qd_model.EmissionMap.to_csv.s"] = to_csv.total_s
    m["qd_model.EmissionMap.to_csv.mb_per_s"] = 1e-6 * ratio(to_csv.amount, to_csv.total_s)
    write = get("dataio.write_table")
    m["dataio.write_table.mb_per_s"] = 1e-6 * ratio(write.amount, write.total_s)
    read = get("dataio.read_table")
    m["dataio.read_table.rows_per_s"] = ratio(read.amount, read.total_s)

    for fit in ("fit_peaks", "extract_fss", "fit_g2", "fit_lifetime", "fit_power_law"):
        m[f"spectro_fit.{fit}.p50_s"] = pct(f"spectro_fit.{fit}", 50)
    m["spectro_fit.g2_model.calls_per_fit"] = ratio(
        tracer.child_calls("spectro_fit.g2_model", "spectro_fit.fit_g2"),
        get("spectro_fit.fit_g2").calls)
    m["spectro_fit.round_trip_fail"] = sum(
        1 for op in ops if op.label.startswith("fit_") and not op.ok)
    m["device.build_mesh.s"] = get("device.build_mesh").total_s
    m["device.load_reference_stack.s"] = get("device.load_reference_stack").total_s
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER.items()}


def function_table(tracer):
    """Calls, self and inclusive time of every traced function that ran."""
    return {name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s,
                   "us_per_call": 1e6 * st.total_s / st.calls}
            for name, st in sorted(tracer.stats().items())}


def tally(ops):
    """Op counts of a run. A failure counts against `correct` unless it is a
    documented baseline defect (NOTES.md); it counts in `failed` either way."""
    failed = [op for op in ops if not op.ok]
    return {"attempted": len(ops), "failed": len(failed),
            "failed_frac": len(failed) / len(ops),
            "correct": all(op.known for op in failed),
            "failures": [{"op": op.label, "detail": op.detail, "known": op.known}
                         for op in failed]}


def measure(workload, seconds, trace):
    """Run the closed loop on `workload` and return the result without setup."""
    walls, pass_times, ops = [], [], []
    started = time.perf_counter()
    while True:
        start = time.perf_counter()
        wall, outcomes = run_pass(workload)
        walls.append(wall)
        ops += workload.check(outcomes)
        pass_times.append(time.perf_counter() - start)
        # stop before a pass that would end past --seconds
        if trace or time.perf_counter() - started + statistics.median(pass_times) > seconds:
            break
    result = {"pass_walls_s": walls, "wall_s": statistics.median(walls),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "iv_points": [[pt.bias, pt.current_density, pt.gummel_iterations,
                             pt.converged, pt.continuity_error]
                            for o in outcomes.values() if o.curve is not None
                            for pt in o.curve.points]}
    if trace:
        with tracing.Tracer() as tracer:
            traced_wall, outcomes = run_pass(workload, tracer)
        traced_ops = workload.check(outcomes)
        ops += traced_ops
        tracer.write(workload.workdir / "spans.jsonl")
        result["per_layer"] = layer_metrics(tracer, outcomes, traced_ops,
                                            traced_wall, walls[0])
        result["functions"] = function_table(tracer)
    result.update(tally(ops))
    return result


def print_summary(result):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {len(result['pass_walls_s'])}  ops {result['attempted']}")
    for name, value in result["metrics"].items():
        print(f"  {name:<48} {value['value']:>14.6g} {value['unit']}")
    print(f"  {'failed_frac':<48} {result['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    failures = Counter((f["op"], f["detail"], f["known"]) for f in result["failures"])
    for (op, detail, known), count in failures.items():
        tag = "  [documented baseline defect]" if known else ""
        print(f"  failed {op} ({count}x): {detail}{tag}")
    env = result["environment"]
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS/OpenMP threads {THREADS}, "
          f"src/dotdiode {env['src_dotdiode_lines']} lines")


def main(argv=None):
    parser = argparse.ArgumentParser(description="dotdiode benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workdir = HERE / "_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = make_workload(args.workload, args.seed, workdir)
    setup = [] if args.trace else setup_times(SETUP_RUNS // 2, warm_up=True)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    result.update(measure(workload, args.seconds, args.trace))
    if args.trace:
        metrics = result["per_layer"]
    else:
        setup += setup_times(SETUP_RUNS - len(setup))
        result["setup_s"] = min(setup)
        result["setup_runs_s"] = setup
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result["metrics"] = metrics
    result["environment"] = environment()
    (HERE / "_work" / f"{args.workload}.json").write_text(json.dumps(result, indent=1))
    print_summary(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
