"""Self-test of the benchmark, with a tiny run length.

    python3 bench/selftest.py

Checks, from the root of a checkout:

1. every workload, untraced and traced, prints as its last line a result
   with exactly the metrics BENCHMARK.json names, each with its unit, and
   no operation fails;
2. two traced runs with the same seed print identical exact counts;
3. corrupted outputs are counted as failed: perturbed report.json values,
   a flipped verdict, a perturbed defect profile, a moved or non-finite
   eigenvalue, and a perturbed search root;
4. in a directory holding only BENCHMARK.json and this directory, the
   benchmark exits with an error and prints no result.

Exits 0 when every check passes. Takes about two minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import run
import workloads

ROOT = run.ROOT
EXACT = ("count",)  # units whose values must repeat exactly
EXACT_RATIOS = ("search.root_frac", "modes.kept_frac", "poisson.bvp_repeat_in_op_frac",
                "poisson.bvp_repeat_across_ops_frac")

failures = []


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""), flush=True)
    if not ok:
        failures.append(name)


def bench(cwd, workload, seed, trace, seconds=1):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_runs(spec):
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        name = w["name"]
        traced = []
        for trace in (0, 1, 1):
            proc = bench(ROOT, name, 7, trace)
            res = result_of(proc) if proc.returncode == 0 else None
            label = f"{name} trace={trace}"
            if res is None:
                report(label, False, f"exit {proc.returncode}: {proc.stderr[-1500:]}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok = (set(res) == {"correct", "attempted", "failed", "metrics"}
                  and got == declared[trace]
                  and all(isinstance(v["value"], float) and math.isfinite(v["value"])
                          for v in res["metrics"].values()))
            report(f"{label} prints every declared metric with its unit", ok,
                   "" if ok else f"got {got}")
            report(f"{label} verifies every operation",
                   res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{res['failed']} of {res['attempted']} failed")
            if trace:
                traced.append(res["metrics"])
        if len(traced) == 2:
            keys = [k for k, u in declared[1].items() if u in EXACT or k in EXACT_RATIOS]
            diff = {k: (traced[0][k]["value"], traced[1][k]["value"]) for k in keys
                    if traced[0][k]["value"] != traced[1][k]["value"]}
            report(f"{name} exact counts repeat with the same seed", not diff, str(diff))


def _rewrite_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _scale_csv_column(path, column, factor):
    with open(path) as fh:
        lines = fh.read().splitlines()
    idx = lines[0].split(",").index(column)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[idx] = repr(float(cells[idx]) * factor)
        out.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def corrupted(lib, op, corrupt):
    """Failures verify() reports for op after corrupt(op, outcome)."""
    op.prepare()
    try:
        outcome = op.run(lib)
        if corrupt is not None:
            corrupt(op, outcome)
        return op.verify(lib, outcome)
    finally:
        op.cleanup()


def check_corruption(workdir):
    lib = run.import_lib()

    def slot_of(kind, pred):
        return next(i for i, s in enumerate(kind.schedule) if pred(s))

    cc = workloads.CheckCli(3, str(workdir))
    example = slot_of(workloads.CheckCli, lambda s: s[0] == "example")
    u2zero = slot_of(workloads.CheckCli, lambda s: s[0] == "u2zero")

    def report_json(op):
        return os.path.join(op.out_dir, "report.json")

    def scale_defect(op, _):
        _rewrite_json(report_json(op), lambda d: d["divergence_defect"].update(
            max_abs=d["divergence_defect"]["max_abs"] * 1.01))

    def flip_verdict(op, _):
        _rewrite_json(report_json(op), lambda d: d.update(verdict="compatible"))

    def scale_profile(op, _):
        _scale_csv_column(os.path.join(op.out_dir, "defect_profiles.csv"), "cos_1", 1.0 + 1e-6)

    def raise_u2zero_defect(op, _):
        _rewrite_json(report_json(op), lambda d: d["divergence_defect"].update(max_abs_rel=1e-6))

    cases = [
        ("check_cli example, untouched", example, None, False),
        ("check_cli report.json defect max_abs x1.01", example, scale_defect, True),
        ("check_cli report.json verdict flipped", example, flip_verdict, True),
        ("check_cli defect_profiles.csv cos_1 x(1+1e-6)", example, scale_profile, True),
        ("check_cli u2 = 0, untouched", u2zero, None, False),
        ("check_cli u2 = 0 report.json defect 1e-6", u2zero, raise_u2zero_defect, True),
    ]
    for label, slot, corrupt, should_fail in cases:
        errs = corrupted(lib, cc.op(slot), corrupt)
        report(f"{label} {'fails' if should_fail else 'passes'}",
               bool(errs) == should_fail, "; ".join(errs))

    oss = workloads.Oss(3, str(workdir))
    orszag = slot_of(workloads.Oss, lambda s: s == "orszag")

    def move_eigenvalue(op, _):
        path = os.path.join(op.out_dir, "oss_modes.json")
        _rewrite_json(path, lambda d: d["modes"][0].update(
            omega_imag=d["modes"][0]["omega_imag"] + 1e-6))

    def nan_eigenvalue(op, _):
        path = os.path.join(op.out_dir, "oss_modes.json")
        _rewrite_json(path, lambda d: d["modes"][-1].update(omega_real=math.nan))

    for label, corrupt, should_fail in (
        ("oss Orszag case, untouched", None, False),
        ("oss Orszag eigenvalue moved by 1e-6", move_eigenvalue, True),
        ("oss non-finite eigenvalue", nan_eigenvalue, True),
    ):
        errs = corrupted(lib, oss.op(orszag), corrupt)
        report(f"{label} {'fails' if should_fail else 'passes'}",
               bool(errs) == should_fail, "; ".join(errs))

    def perturb_root(_, outcome):
        # the constant term of the u2 cosine slot; the defect of this ansatz
        # does not depend on the u1 slots
        outcome["result"].coeffs[10] += 1e-6

    errs = corrupted(lib, workloads.Search(3, str(workdir)).op(0), perturb_root)
    report("search root with u2 perturbed by 1e-6 fails", bool(errs), "; ".join(errs))


def check_without_sources(workdir):
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "oss", 1, 0)
    printed = proc.stdout.strip().splitlines()
    report("without sources: non-zero exit and no result",
           proc.returncode != 0 and not any(line.startswith("{") for line in printed),
           f"exit {proc.returncode}")


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        check_runs(spec)
        check_corruption(workdir)
        check_without_sources(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
