"""Command line entry points.

Subcommands:
    check     run the compatibility diagnostic on a field file
    example   build the worked example field and cross-check the pipeline
              against its closed forms
    oss       eigenvalue table, plus a mode field file
    find      search for a compatible field in the polynomial ansatz
    validate  admissibility checks only (no-slip, divergence-free)

Exit codes: 0 success/compatible/valid, 2 incompatible/invalid verdict,
1 usage or input error. Reports are deterministic: no timestamps, sorted
keys, floats in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .compat import check, forcing, tangential_residual
from .errors import CompatflowError, ValidationError
from .fieldfile import load_field, save_field
from .fieldops import FlowParams, WaveField, admissibility_violations, curl, divergence
from .modes import mode_to_field, solve_orr_sommerfeld
from .oracle import (
    example_cc_coeffs,
    example_div_coeffs,
    example_dudt,
    example_field,
    example_forcing,
    example_vorticity,
)
from .poisson import solve_dudt, solve_pressure
from .search import AnsatzSpec, find_compatible
from .spectral import cheb_grid

GRID_NX, GRID_NY = 128, 64


def _write_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_column(col) -> list[str]:
    """Shortest round-trip repr of every entry, formatting each distinct
    number once. Distinct means distinct bits, so -0.0 and 0.0 keep their
    own text."""
    bits = np.ascontiguousarray(col, dtype=float).ravel().view(np.int64)
    uniq, inv = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, uniq.view(float).tolist())), dtype=object)
    return text[inv].tolist()


def _write_csv(path: str, header: list[str], cols):
    """One line per row of the equal-length columns."""
    text = [_format_column(c) for c in cols]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*text))


def _x_period(params: FlowParams) -> float:
    return 2.0 * np.pi / params.alpha if params.alpha != 0 else 2.0 * np.pi


def _defect_profiles_csv(defect, path: str):
    slots = [(j, t) for j in defect.harmonics() for t in (0, 1)]
    header = ["y"] + [f"{('cos', 'sin')[t]}_{j}" for j, t in slots]
    cols = [defect.grid.y] + [defect.block.values[t, j] for j, t in slots]
    _write_csv(path, header, cols)


def _defect_grid_csv(defect, params: FlowParams, path: str):
    """Defect values on a fixed 128 x 64 (x, y) grid in the z = 0 plane."""
    x = np.linspace(0.0, _x_period(params), GRID_NX, endpoint=False)
    y = np.linspace(1.0, -1.0, GRID_NY)
    X, Y = np.meshgrid(x, y)
    vals = defect.evaluate(X, Y, 0.0)
    _write_csv(path, ["x", "y", "defect"], [X, Y, vals])


def _velocity_slices_csv(field: WaveField, path: str):
    """u2 and u3 sampled in the z = 0 plane (one x period, inclusive)."""
    x = np.linspace(0.0, _x_period(field.params), GRID_NX + 1)
    y = np.linspace(1.0, -1.0, GRID_NY + 1)
    X, Y = np.meshgrid(x, y)
    u2 = field.u2.evaluate(X, Y, 0.0)
    u3 = field.u3.evaluate(X, Y, 0.0)
    _write_csv(path, ["x", "y", "u2", "u3"], [X, Y, u2, u3])


def _params_from(args) -> FlowParams:
    return FlowParams(args.alpha, args.beta, args.reynolds)


def cmd_check(args) -> int:
    field = load_field(args.input, n=args.n)
    try:
        report = check(field, tol_rel=args.tol)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(report.to_dict(), os.path.join(args.out_dir, "report.json"))
    _defect_profiles_csv(
        report.defect, os.path.join(args.out_dir, "defect_profiles.csv")
    )
    _defect_grid_csv(
        report.defect, field.params, os.path.join(args.out_dir, "defect_grid.csv")
    )
    print(
        f"verdict: {report.verdict} "
        f"(divergence defect {report.defect_rel_max:.3e} relative, "
        f"tolerance {report.tol_rel:.1e})"
    )
    print(
        f"tangential wall residual {report.tangential_rel:.3e} relative "
        "(reported, not part of the verdict)"
    )
    return 0 if report.verdict == "compatible" else 2


def cmd_validate(args) -> int:
    field = load_field(args.input, n=args.n)
    violations = admissibility_violations(field)
    if not violations:
        print("admissible: no-slip and divergence-free checks passed "
              "(periodicity holds by construction)")
        return 0
    for v in violations:
        print(f"violation: {v}")
    return 2


def cmd_example(args) -> int:
    params = _params_from(args)
    grid = cheb_grid(args.n)
    field = example_field(params, grid)
    os.makedirs(args.out_dir, exist_ok=True)
    save_field(field, os.path.join(args.out_dir, "example_field.json"))

    # run the pipeline on plain samples so the comparison exercises the
    # collocation operators rather than exact polynomial bookkeeping
    fnum = field.strip_poly()
    blocks = {}

    def rel(pipeline, ref):
        scale = ref.max_abs()
        return (pipeline - ref).max_abs() / scale if scale > 0 else 0.0

    blocks["vorticity"] = rel(curl(fnum), example_vorticity(params, grid))
    f_pipe = forcing(fnum)
    blocks["forcing"] = rel(f_pipe, example_forcing(params, grid))
    du = solve_dudt(f_pipe)
    blocks["dudt"] = rel(du, example_dudt(params, grid))
    defect = divergence(du)
    dref = example_div_coeffs(params, grid)
    blocks["div_coeffs"] = (defect - dref).max_abs() / dref.max_abs()

    cc_ref = example_cc_coeffs(params)
    tres = tangential_residual(fnum, solve_pressure(fnum))["+1"]
    cc_scale = max(abs(e[k]) for d in cc_ref.values() for e in d.values() for k in e)
    cc_diff = 0.0
    for t in ("x", "z"):
        for j in (1, 2):
            for k in ("cos", "sin"):
                got = tres[t].get(j, {"cos": 0.0, "sin": 0.0})[k]
                cc_diff = max(cc_diff, abs(got - cc_ref[t][j][k]))
    blocks["cc_coeffs"] = cc_diff / cc_scale

    for name, value in blocks.items():
        print(f"{name}: max relative discrepancy {value:.3e}")

    _write_json(
        {
            "schema_version": 1,
            "tool": {"name": "compatflow", "version": __version__},
            "params": {
                "alpha": params.alpha,
                "beta": params.beta,
                "reynolds": params.reynolds,
            },
            "n": args.n,
            "max_relative_discrepancy": {k: float(v) for k, v in blocks.items()},
        },
        os.path.join(args.out_dir, "example_report.json"),
    )
    _velocity_slices_csv(field, os.path.join(args.out_dir, "velocity_slices.csv"))
    _defect_profiles_csv(defect, os.path.join(args.out_dir, "defect_profiles.csv"))
    _defect_grid_csv(defect, params, os.path.join(args.out_dir, "defect_grid.csv"))
    return 0


def cmd_oss(args) -> int:
    params = _params_from(args)
    modes = solve_orr_sommerfeld(params, args.n)
    print("resolved eigenvalues (sorted by growth rate Im(omega)):")
    for i, mode in enumerate(modes):
        w = mode.eigenvalue
        print(f"  {i:3d}  {w.real:+.8f} {w.imag:+.8f}j")
    # the pencil has n - 4 eigenvalues; every one not kept failed the n + 8 test
    total = args.n - 4
    print(
        f"kept {len(modes)} of {total} eigenvalues; "
        f"{total - len(modes)} moved by more than 1e-4 at n + 8"
    )
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(
        {
            "schema_version": 1,
            "tool": {"name": "compatflow", "version": __version__},
            "params": {
                "alpha": params.alpha,
                "beta": params.beta,
                "reynolds": params.reynolds,
            },
            "n": args.n,
            "modes": [
                {
                    "index": i,
                    "omega_real": float(m.eigenvalue.real),
                    "omega_imag": float(m.eigenvalue.imag),
                }
                for i, m in enumerate(modes)
            ],
        },
        os.path.join(args.out_dir, "oss_modes.json"),
    )
    if not 0 <= args.mode_index < len(modes):
        print(
            f"error: mode index {args.mode_index} out of range "
            f"({len(modes)} resolved modes)",
            file=sys.stderr,
        )
        return 1
    field = mode_to_field(
        modes[args.mode_index], args.amplitude, include_base=not args.no_base
    )
    save_field(field, os.path.join(args.out_dir, "mode_field.json"))
    print(
        f"wrote mode_field.json (mode {args.mode_index}, "
        f"amplitude {args.amplitude}, base {'off' if args.no_base else 'on'})"
    )
    return 0


def cmd_find(args) -> int:
    params = _params_from(args)
    spec = AnsatzSpec(params=params, degree=args.degree)
    result = find_compatible(
        spec,
        seed=args.seed,
        grid=cheb_grid(args.n),
        tol=args.tol,
        max_restarts=args.max_restarts,
    )
    print(
        f"{result.message}: residual {result.residual_rel:.3e} relative after "
        f"{result.iterations} iterations ({result.restarts} restarts); "
        f"model gap {result.model_gap_rel:.3e} relative"
    )
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(
        {
            "schema_version": 1,
            "tool": {"name": "compatflow", "version": __version__},
            "params": {
                "alpha": params.alpha,
                "beta": params.beta,
                "reynolds": params.reynolds,
            },
            "n": args.n,
            "degree": args.degree,
            "seed": args.seed,
            "success": bool(result.success),
            "residual_rel": float(result.residual_rel),
            "model_gap_rel": float(result.model_gap_rel),
            "iterations": int(result.iterations),
            "restarts": int(result.restarts),
            "message": result.message,
            "coeffs": [float(c) for c in result.coeffs],
            "trace": [float(t) for t in result.trace],
        },
        os.path.join(args.out_dir, "search_report.json"),
    )
    if result.field is not None:
        save_field(result.field, os.path.join(args.out_dir, "found_field.json"))
    return 0 if result.success else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compatflow",
        description="Compatibility diagnostics for wavelike channel flow "
        "initial conditions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_params):
        p.add_argument("-o", "--out-dir", default=".", help="output directory")
        p.add_argument("--n", type=int, default=64, help="collocation nodes")
        if with_params:
            p.add_argument("--alpha", type=float, default=1.0)
            p.add_argument("--beta", type=float, default=1.0)
            p.add_argument("--reynolds", type=float, default=80.0)

    p = sub.add_parser("check", help="compatibility diagnostic on a field file")
    p.add_argument("input", help="field file (JSON)")
    p.add_argument("--tol", type=float, default=1e-7, help="relative verdict tolerance")
    common(p, with_params=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("validate", help="admissibility checks on a field file")
    p.add_argument("input", help="field file (JSON)")
    common(p, with_params=False)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("example", help="worked example and pipeline cross-check")
    common(p, with_params=True)
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("oss", help="eigenvalue table and mode field export")
    common(p, with_params=True)
    p.add_argument("--mode-index", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=1e-3)
    p.add_argument("--no-base", action="store_true", help="omit the parabolic base")
    p.set_defaults(fn=cmd_oss)

    p = sub.add_parser("find", help="search the ansatz for a compatible field")
    common(p, with_params=True)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-restarts", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-10, help="relative success tolerance")
    p.set_defaults(fn=cmd_find)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CompatflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
