"""dkpc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload regulate --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, their times rescaled to a
nominal machine speed (see reference.py), and ``--trace 1`` the
per-layer metrics of a traced pass plus the tracing overhead.  The program is
imported from ``src/`` next to this directory; without it the run exits
with code 2.  A failed correctness gate prints ``"correct": false`` and
exits with code 1.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/LAPACK to one thread before numpy loads: steadier timings on a
# shared machine, and a sweep worker pool then never oversubscribes cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import logging
import platform
import resource
import shutil
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set-ups are timed before, between the cycles of, and after the window,
# so their median samples the machine over the whole run
SETUPS_AROUND = 5
# reference passes timed just before and just after each set-up
SETUP_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "cold_step_ms": "ms",
    "runs_per_s": "1/s",
    "solved_share": "share",
    "itae": "pu.s",
    "effort": "pu",
    "peak_rss_mb": "MB",
}

# per-layer metric -> the span whose inclusive seconds, or the counter, it reports
SPAN_SECONDS = {
    "qpsolve.problem_s": "qpsolve.problem",
    "qpsolve.update_s": "qpsolve.update",
    "qpsolve.solve_s": "qpsolve.solve",
    "qpsolve.setup_s": "qpsolve.setup",
    "control.build_qp_s": "control.build_qp",
    "lifting.lift_s": "lifting.lift",
    "lifting.build_bank_s": "lifting.build_bank",
    "behavior.pe_check_s": "behavior.pe_check",
    "behavior.hankel_s": "behavior.hankel",
    "behavior.assemble_s": "behavior.assemble",
    "behavior.csv_io_s": "behavior.csv_io",
    "netsim.simulate_s": "netsim.simulate",
    "netsim.plant_step_s": "netsim.plant_step",
    "metrics.score_s": "metrics.score",
    "cli.gen_data_s": "cli.gen_data",
    "cli.sweep_s": "cli.sweep",
    "cli.report_s": "cli.report",
}
SPAN_COUNTS = {
    "qpsolve.solves": "qpsolve.solve",
    "qpsolve.lu_factorizations": "qpsolve.lu_factor",
    "qpsolve.cho_factorizations": "qpsolve.cho_factor",
    "qpsolve.admm_iters": "qpsolve.admm_iters",
    "lifting.lift_calls": "lifting.lift",
    "netsim.plant_steps": "netsim.plant_step",
}
SPAN_SELF = {
    "control.solve_step_self_s": "control.solve_step",
    "control.closed_loop_self_s": "control.closed_loop",
}
LAYERS = ("qpsolve", "control", "lifting", "behavior", "netsim", "metrics", "cli")


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SPAN_SECONDS}
    units.update({name: "count" for name in SPAN_COUNTS})
    units["qpsolve.polished_share"] = "share"
    units["qpsolve.max_iter_share"] = "share"
    units.update({name: "s" for name in SPAN_SELF})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_share"] = "share"
    units["trace.spans"] = "count"
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import dkpc from this checkout's src/ only."""
    if not (SRC / "dkpc" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'dkpc'}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dkpc

    if Path(dkpc.__file__).resolve().parent != SRC / "dkpc":
        sys.exit(f"perfbench: imported dkpc from {dkpc.__file__}, not from {SRC}")


def warm_numeric_stack() -> None:
    """Load BLAS/LAPACK and its thread pool before anything is timed."""
    import numpy as np
    import scipy.linalg

    m = np.random.default_rng(0).standard_normal((64, 64))
    np.linalg.svd(m)
    spd = m @ m.T + 64.0 * np.eye(64)
    scipy.linalg.cho_factor(spd)
    scipy.linalg.lu_factor(m)


def blas_libraries() -> list[dict]:
    """Every OpenBLAS mapped into this process, with its thread count."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found.append(info)
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas": blas_libraries(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def run_untraced(workload, seconds: float):
    """End-to-end metrics, times rescaled to the reference kernel's nominal speed."""
    import reference
    import stats
    import workloads

    kernel = reference.Reference()
    setups = []
    timed_setups = []

    def timed_setup(_cycle=None):
        for _ in range(SETUP_PASSES):
            kernel.sample()
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        for _ in range(SETUP_PASSES):
            kernel.sample()
        timed_setups.append(t1 - t0)
        setups.append((t1 - t0) * kernel.scale(t0, t1))

    for _ in range(SETUPS_AROUND):
        timed_setup()
    log = workloads.StepLog(kernel)
    log.install()
    try:
        window = workload.measure(seconds, on_cycle=timed_setup)
    finally:
        log.restore()
    for _ in range(SETUPS_AROUND):
        timed_setup()
    steps = log.summary(window, workload.planned_steps, window.bad_runs)
    timed = log.summary(window, workload.planned_steps, window.bad_runs, rescale=False)
    timed["setup_s"] = stats.median(timed_setups)
    values = {
        "setup_s": stats.median(setups),
        "step_ms_p50": steps["step_ms_p50"],
        "step_ms_p95": steps["step_ms_p95"],
        "cold_step_ms": steps["cold_step_ms"],
        "runs_per_s": steps["runs_per_s"],
        "solved_share": 1.0 - steps["failed"] / steps["attempted"],
        "itae": window.itae,
        "effort": window.effort,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"# {len(window.cycles)} cycles of {window.units} runs, {sum(b - a for a, b in window.cycles):.1f} s")
    passes = kernel.passes
    print(
        f"# reference kernel: median pass {1e3 * stats.median(passes):.3f} ms over {len(passes)} passes "
        f"(range {1e3 * min(passes):.3f}-{1e3 * max(passes):.3f}), nominal {1e3 * reference.NOMINAL_S:g} ms"
    )
    for name in ("setup_s", "step_ms_p50", "step_ms_p95", "cold_step_ms", "runs_per_s"):
        print(f"# {workload.name} {name} as timed, before rescaling = {timed[name]:.6g} {END_TO_END[name]}")
    return metrics, steps["attempted"], steps["failed"], window.gate_errors


def install_tracer(tracer) -> None:
    """Wrap the public calls of every dkpc layer, from outside the program."""
    import scipy.linalg

    from dkpc import behavior, cli, control, lifting, metrics, netsim, qpsolve

    mods = [m for name, m in sys.modules.items() if name == "dkpc" or name.startswith("dkpc.")]

    def count_solution(counts, sol):
        counts["qpsolve.admm_iters"] += sol.iterations
        counts["qpsolve.polished"] += bool(sol.polished)
        counts["qpsolve.max_iter"] += sol.status == qpsolve.MAX_ITERATIONS

    tracer.patch(qpsolve.QpProblem, "__init__", "qpsolve.problem")
    tracer.patch(qpsolve.QpSolver, "__init__", "qpsolve.setup")
    tracer.patch(qpsolve.QpSolver, "update", "qpsolve.update")
    tracer.patch(qpsolve.QpSolver, "solve", "qpsolve.solve", on_result=count_solution)
    tracer.patch_function(scipy.linalg.lu_factor, "qpsolve.lu_factor", [scipy.linalg])
    tracer.patch_function(scipy.linalg.cho_factor, "qpsolve.cho_factor", [scipy.linalg])

    tracer.patch_function(control.build_dkpc_qp, "control.build_qp", mods)
    tracer.patch_function(control.build_deepc_qp, "control.build_qp", mods)
    tracer.patch(control.DkpcController, "solve_step", "control.solve_step")
    tracer.patch(control.DeepcController, "solve_step", "control.solve_step")
    tracer.patch_function(control.run_closed_loop, "control.closed_loop", mods)

    tracer.patch(lifting.RbfBank, "lift", "lifting.lift")
    tracer.patch(lifting.RbfBank, "lift_trajectory", "lifting.lift")
    tracer.patch_function(lifting.build_bank, "lifting.build_bank", mods)

    tracer.patch_function(behavior.is_persistently_exciting, "behavior.pe_check", mods)
    tracer.patch_function(behavior.hankel, "behavior.hankel", mods)
    tracer.patch_function(behavior.assemble, "behavior.assemble", mods)
    tracer.patch_function(behavior.trajectory_to_csv, "behavior.csv_io", mods)
    tracer.patch_function(behavior.trajectory_from_csv, "behavior.csv_io", mods)

    tracer.patch_function(netsim.simulate, "netsim.simulate", mods)
    tracer.patch(netsim.NetworkPlant, "step", "netsim.plant_step")

    for fn in (metrics.itae, metrics.control_effort, metrics.pareto_frontier, metrics.best_per_alpha):
        tracer.patch_function(fn, "metrics.score", mods)

    tracer.patch_function(cli.cmd_gen_data, "cli.gen_data", mods)
    tracer.patch_function(cli.cmd_sweep, "cli.sweep", mods)
    tracer.patch_function(cli.cmd_report, "cli.report", mods)


def run_traced(workload, spans_path: Path):
    """One cycle untraced, then set-up plus the same cycle traced."""
    import tracing
    import workloads

    workload.setup()
    log = workloads.StepLog()
    log.install()
    try:
        untraced = workload.measure(None)
        untraced_p50 = log.summary(untraced, workload.planned_steps)["step_ms_p50"]
        log.runs.clear()
        tracer = tracing.Tracer()
        install_tracer(tracer)
        try:
            workload.setup()
            traced = workload.measure(None, on_cycle=lambda k: setattr(tracer, "run", k))
        finally:
            tracer.restore()
    finally:
        log.restore()
    tracer.dump(spans_path)
    steps = log.summary(traced, workload.planned_steps, traced.bad_runs)

    inclusive = tracing.inclusive_times(tracer.spans)
    own = tracing.self_times(tracer.spans)
    layer_self = tracing.layer_self_times(tracer.spans)
    counts = tracer.counts
    solves = max(counts["qpsolve.solve"], 1)
    values = {name: inclusive[span] for name, span in SPAN_SECONDS.items()}
    values.update({name: counts[key] for name, key in SPAN_COUNTS.items()})
    values["qpsolve.polished_share"] = counts["qpsolve.polished"] / solves
    values["qpsolve.max_iter_share"] = counts["qpsolve.max_iter"] / solves
    for name, span in SPAN_SELF.items():
        values[name] = sum(t for s, t in zip(tracer.spans, own) if s[0] == span)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    # median warm step, traced against untraced: the spans sit on the step
    # path, and a median shrugs off the load bursts a total would absorb
    values["trace.overhead_share"] = steps["step_ms_p50"] / untraced_p50 - 1.0
    values["trace.spans"] = len(tracer.spans)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
    errors = untraced.gate_errors + traced.gate_errors
    return metrics, steps["attempted"], steps["failed"], errors


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    logging.getLogger("dkpc").setLevel(logging.WARNING)
    warm_numeric_stack()
    print("# env " + json.dumps(environment()), flush=True)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed, errors = run_traced(workload, spans)
        else:
            metrics, attempted, failed, errors = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors:
        print(f"# gate failed: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"# {args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
