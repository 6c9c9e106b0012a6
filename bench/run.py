"""compatflow benchmark: one closed-loop client calling the package in-process.

    python3 bench/run.py --workload check_cli|search|oss --seed N \
        --seconds S --trace 0|1

Run from a checkout: the package is imported from ``src/`` next to this
directory. With ``--trace 0`` each operation is timed end to end with no
tracing, for at least S seconds of operation time, and the end-to-end
metrics are printed. With ``--trace 1`` operations run in pairs drawn from
the same slot of the schedule, one traced and one not, and the per-layer
metrics are printed together with the tracing overhead. A few untimed
operations warm up first, and every time is scaled to a reference host
speed by a calibration loop timed between operations (see calib.py).
Every operation is verified outside its timed interval. The last line of standard output is
the result as JSON; the lines before it record the environment and a
summary. See README.md in this directory.
"""

import os

# BLAS threads are fixed before numpy is imported: on a small box a second
# OpenBLAS thread slows the dense solves instead of speeding them up.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import workloads
from calib import CAL_REF_S, calibrate, scale, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-ups per run, before and after the operations; setup_s and
# spectral.grid_ms are medians over both, so that a run samples the host's
# speed at its start and at its end.
SETUPS_BEFORE, SETUPS_AFTER = 5, 4
MODULES = ("cli", "compat", "fieldfile", "fieldops", "modes", "oracle",
           "poisson", "search", "spectral")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "spectral.grid_ms": "ms",
    "fieldfile.load_ms": "ms",
    "cli.write_ms": "ms",
    "compat.check_ms": "ms",
    "compat.forcing_ms": "ms",
    "compat.tangential_ms": "ms",
    "fieldops.harmonic_product_ms": "ms",
    "fieldops.harmonic_product_calls": "count",
    "fieldops.curl_ms": "ms",
    "fieldops.divergence_ms": "ms",
    "fieldops.admissibility_ms": "ms",
    "poisson.solve_dudt_ms": "ms",
    "poisson.solve_pressure_ms": "ms",
    "poisson.solve_bvp_ms": "ms",
    "poisson.solve_bvp_calls": "count",
    "poisson.bvp_repeat_in_op_frac": "ratio",
    "poisson.bvp_repeat_across_ops_frac": "ratio",
    "search.model_build_s": "s",
    "search.pipeline_evals": "count",
    "search.newton_ms": "ms",
    "search.verify_ms": "ms",
    "search.starts": "count",
    "search.root_frac": "ratio",
    "modes.solve_os_ms": "ms",
    "modes.eig_ms": "ms",
    "modes.eig_calls": "count",
    "modes.kept_frac": "ratio",
    "modes.mode_to_field_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def import_lib():
    """Import compatflow from src/, with its submodules, into this process."""
    pkg = importlib.import_module("compatflow")
    if Path(pkg.__file__).resolve().parent != SRC / "compatflow":
        raise ImportError(f"compatflow imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        cf=pkg, **{m: importlib.import_module(f"compatflow.{m}") for m in MODULES}
    )


# One set-up in a fresh interpreter, timed inside it: the import of
# compatflow with the numpy and scipy modules it pulls in, then the grids
# the workload uses. The host is calibrated in the same interpreter just
# before and just after. Prints [setup_s, grid_ms, compatflow's file,
# loop time before, loop time after].
SETUP_CHILD = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
from calib import calibrate
c0 = calibrate()
t0 = perf_counter()
sys.path.insert(0, sys.argv[2])
import compatflow
t1 = perf_counter()
for n in sys.argv[3:]:
    compatflow.cheb_grid(int(n))
t2 = perf_counter()
c1 = calibrate()
import json
print(json.dumps([t2 - t0, 1e3 * (t2 - t1), compatflow.__file__, c0, c1]))
"""


def setup(workload):
    """One set-up in a child interpreter: returns (setup_s, grid_ms) at the
    reference speed."""
    res = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC)]
        + [str(n) for n in workload.node_counts],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if res.returncode != 0:
        raise RuntimeError(f"set-up failed: {res.stderr.strip()}")
    setup_s, grid_ms, path, before, after = json.loads(res.stdout.strip().splitlines()[-1])
    if Path(path).resolve().parent != SRC / "compatflow":
        raise ImportError(f"set-up imported compatflow from {path}, not from {SRC}")
    factor = scale(before, after)
    return setup_s * factor, grid_ms * factor


def execute(op, lib, tracer=None):
    """Run one operation: returns (seconds, failures, outcome)."""
    outcome, dt = {}, 0.0
    try:
        op.prepare()
        if tracer is not None:
            tracer.patch(lib)
        t0 = perf_counter()
        try:
            if tracer is None:
                outcome = op.run(lib)
            else:
                outcome = tracer.run("op", lambda: op.run(lib))
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.unpatch()
        errs = op.verify(lib, outcome)
    except Exception:  # an operation that raises is a failed operation
        errs = [traceback.format_exc()]
    finally:
        op.cleanup()
    return dt, errs, outcome


def median(xs):
    return float(np.median(xs))


def setups(kind, count):
    """[(setup_s, grid_ms), ...] from count set-ups."""
    return [setup(kind) for _ in range(count)]


def warm_up(workload, lib, report):
    """Untimed operations that let lazy imports and caches settle; returns
    the first slot left for the measured operations."""
    for slot in range(workload.warmup):
        _, errs, _ = execute(workload.op(slot), lib)
        report(errs)
    return workload.warmup


def run_plain(workload, lib, seconds, report):
    slot = warm_up(workload, lib, report)
    times, cals = [], [calibrate()]
    while sum(times) < seconds:
        dt, errs, _ = execute(workload.op(slot), lib)
        cals.append(calibrate())
        times.append(dt)
        report(errs)
        slot += 1
    ms = 1e3 * np.asarray(to_reference(times, cals))
    return {
        "ops_per_s": 1e3 * len(ms) / ms.sum(),
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_p90_ms": float(np.percentile(ms, 90)),
    }, {"wall_p50_ms": 1e3 * median(times), "loop_ms": 1e3 * median(cals)}


def run_traced(workload, lib, seconds, report):
    tracer = layers.Tracer()
    per_op, notes, extras, cals = [], [], [], []
    spent = {True: 0.0, False: 0.0}
    first = warm_up(workload, lib, report)
    pair = 0
    cals.append(calibrate())
    while pair < workload.count_window or sum(spent.values()) < seconds:
        ops = {True: workload.op(first + pair), False: workload.op(first + pair)}
        for traced in ((True, False) if pair % 2 == 0 else (False, True)):
            dt, errs, outcome = execute(ops[traced], lib, tracer if traced else None)
            spent[traced] += dt
            report(errs)
            if traced:
                agg, op_notes = tracer.take()
                per_op.append(layers.layer_values(agg))
                notes.append(op_notes)
                extras.append(outcome)
        cals.append(calibrate())
        pair += 1

    # layer times at the reference speed, each pair scaled by the
    # calibrations around it
    timed = [k for k in per_op[0] if PER_LAYER[k] in ("ms", "s")]
    for i, vals in enumerate(per_op):
        factor = scale(cals[i], cals[i + 1])
        for key in timed:
            vals[key] *= factor

    out = {}
    for key in per_op[0]:
        if key in layers.CALLS:
            window = per_op[: workload.count_window]
            out[key] = sum(v[key] for v in window) / len(window)
        else:
            out[key] = median([v[key] for v in per_op])
    window = extras[: workload.count_window]
    notes = notes[: workload.count_window]
    out.update(layers.bvp_repeats(notes))
    starts = sum(o.get("starts", 0) for o in window)
    computed = sum(sum(n.get("modes.sla.eig", [])) for n in notes)
    out["search.starts"] = starts / len(window)
    out["search.root_frac"] = sum(o.get("roots", 0) for o in window) / starts if starts else 0.0
    out["modes.kept_frac"] = (
        sum(o.get("kept", 0) for o in window) / computed if computed else 0.0
    )
    out["trace.overhead_frac"] = spent[True] / spent[False] - 1.0
    return out, {"loop_ms": 1e3 * median(cals)}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "compatflow").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("# env " + json.dumps(environment(args), sort_keys=True), flush=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        kind = workloads.WORKLOADS[args.workload]
        times = setups(kind, SETUPS_BEFORE)
        lib = import_lib()
        workload = kind(args.seed, str(workdir))

        tally = {"attempted": 0, "failed": 0}

        def report(errs):
            tally["attempted"] += 1
            if errs:
                tally["failed"] += 1
                print(f"# failed operation {tally['attempted']}: " + " | ".join(errs),
                      file=sys.stderr, flush=True)

        if args.trace:
            values, raw = run_traced(workload, lib, args.seconds, report)
            times += setups(kind, SETUPS_AFTER)
            values["spectral.grid_ms"] = median([t[1] for t in times])
            units = PER_LAYER
        else:
            values, raw = run_plain(workload, lib, args.seconds, report)
            times += setups(kind, SETUPS_AFTER)
            values["setup_s"] = median([t[0] for t in times])
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed = tally["attempted"], tally["failed"]
    print(f"# {args.workload}: {attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.6g}), {len(times)} set-ups; "
          f"unscaled: {json.dumps({k: round(v, 4) for k, v in raw.items()})}, "
          f"reference loop {1e3 * CAL_REF_S:g} ms", flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "compatflow" / "__init__.py").is_file():
        print(f"error: no compatflow sources under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
