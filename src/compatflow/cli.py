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
import contextlib
import os
import sys

import numpy as np

# check and validate need only these; example, oss and find import the
# oracle, the eigensolver and the search when they run
from . import __version__
from .compat import _report_head, check
from .errors import CompatflowError, ConfigurationError, NumericalError
from .fieldfile import _write_json, load_field, save_field
from .fieldops import FlowParams, WaveField, admissibility_violations
from .spectral import cheb_grid

GRID_NX, GRID_NY = 128, 64


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
    report = check(field, tol_rel=args.tol)
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
    if report.forcing_max_abs > 0:
        wall = f"{report.tangential_rel:.3e} relative"
    else:
        wall = f"{report.tangential_max_abs:.3e} absolute, as the forcing is zero"
    print(f"tangential wall residual {wall} (reported, not part of the verdict)")
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


def _example_discrepancies(fnum: WaveField, report) -> dict:
    """Largest relative discrepancy of each pipeline stage of the sampled
    example field fnum, whose check gave report, from its closed form."""
    from .fieldops import curl
    from .oracle import (
        example_cc_coeffs,
        example_div_coeffs,
        example_dudt,
        example_forcing,
        example_vorticity,
    )
    from .poisson import solve_dudt

    params, grid = fnum.params, fnum.grid

    def rel(pipeline, ref):
        scale = ref.max_abs()
        return (pipeline - ref).max_abs() / scale if scale > 0 else 0.0

    blocks = {
        "vorticity": rel(curl(fnum), example_vorticity(params, grid)),
        "forcing": rel(report.forcing, example_forcing(params, grid)),
        "dudt": rel(solve_dudt(report.forcing), example_dudt(params, grid)),
    }
    # the defect and the wall residual as check reads them, from wall
    # moments of the forcing
    dref = example_div_coeffs(params, grid)
    blocks["div_coeffs"] = (report.defect - dref).max_abs() / dref.max_abs()

    # the y = +1 wall, (direction, slot, j) for j = 1, 2
    cc = example_cc_coeffs(params)
    cc_ref = np.array([[[cc[t][j][k] for j in (1, 2)] for k in ("cos", "sin")]
                       for t in "xz"])
    cc_diff = np.max(np.abs(report.tangential[0, ..., 1:3] - cc_ref))
    blocks["cc_coeffs"] = cc_diff / np.max(np.abs(cc_ref))
    return blocks


def cmd_example(args) -> int:
    from .oracle import example_field

    params = _params_from(args)
    grid = cheb_grid(args.n)
    field = example_field(params, grid)
    # run the pipeline on plain samples so the comparison exercises the
    # collocation operators rather than exact polynomial bookkeeping; check
    # refuses a non-finite forcing before anything is written
    fnum = field.strip_poly()
    report = check(fnum)
    # the closed forms overflow on a Python float power from about alpha =
    # 1e50: they are compared quietly and a non-finite one reported once
    blocks = None
    with np.errstate(all="ignore"), contextlib.suppress(OverflowError, ConfigurationError):
        blocks = _example_discrepancies(fnum, report)
    if blocks is None or not np.all(np.isfinite(list(blocks.values()))):
        raise NumericalError(f"closed forms of the example overflow at {params}")

    for name, value in blocks.items():
        print(f"{name}: max relative discrepancy {value:.3e}")

    os.makedirs(args.out_dir, exist_ok=True)
    save_field(field, os.path.join(args.out_dir, "example_field.json"))
    _write_json(
        {
            **_report_head(params, args.n),
            "max_relative_discrepancy": {k: float(v) for k, v in blocks.items()},
        },
        os.path.join(args.out_dir, "example_report.json"),
    )
    _velocity_slices_csv(field, os.path.join(args.out_dir, "velocity_slices.csv"))
    _defect_profiles_csv(report.defect, os.path.join(args.out_dir, "defect_profiles.csv"))
    _defect_grid_csv(report.defect, params, os.path.join(args.out_dir, "defect_grid.csv"))
    return 0


def cmd_oss(args) -> int:
    from .modes import mode_to_field, solve_orr_sommerfeld

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
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(
        {
            **_report_head(params, args.n),
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
    save_field(field, os.path.join(args.out_dir, "mode_field.json"))
    print(
        f"wrote mode_field.json (mode {args.mode_index}, "
        f"amplitude {args.amplitude}, base {'off' if args.no_base else 'on'})"
    )
    return 0


def cmd_find(args) -> int:
    from .search import AnsatzSpec, assemble, find_compatible

    params = _params_from(args)
    spec = AnsatzSpec(params=params, degree=args.degree)
    result = find_compatible(
        spec, seed=args.seed, grid=cheb_grid(args.n), tol=args.tol
    )
    print(
        f"{result.message}: residual {result.residual_rel:.3e} relative after "
        f"{result.iterations} iterations ({result.restarts} restarts); "
        f"model gap {result.model_gap_rel:.3e} relative"
    )
    # a coarse grid can hold a root that the field does not: the root
    # counts only if check() also passes it on a finer grid
    fine = cheb_grid(max(2 * args.n, 128))
    recheck = check(assemble(spec, result.coeffs, fine), tol_rel=args.tol)
    success = result.success and recheck.verdict == "compatible"
    print(f"re-check on {fine.n} nodes: {recheck.verdict}, residual "
          f"{recheck.defect_rel_max:.3e} relative")
    if result.success and not success:
        result.message += f"; the re-check on {fine.n} nodes fails"
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(
        {
            **_report_head(params, args.n),
            "degree": args.degree,
            "seed": args.seed,
            "success": success,
            "recheck_n": fine.n,
            "recheck_residual_rel": float(recheck.defect_rel_max),
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
    return 0 if success else 1


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
        # a field file carries its own node count, and moving a sampled
        # field onto fewer nodes drops content
        p.add_argument("--n", type=int, default=64 if with_params else None,
                       help="collocation nodes (default 64, or the field file's)")
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
    p.add_argument("--tol", type=float, default=1e-10, help="relative success tolerance")
    p.set_defaults(fn=cmd_find)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, CompatflowError, MemoryError) as exc:
        # numpy's MemoryError names the allocation (an n x n matrix at a
        # large --n or --degree); a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
