"""End-to-end acceptance gate.

One test per shipping criterion. Each prints a single PASS/FAIL line with
the measured numbers before asserting, so a full run (pytest -s or the
captured output of a failure) reads as a checklist.

Criteria 5 and 6 assert what the method promises, no more. For u2 = 0
fields (criterion 5) the verdict's divergence defect is at rounding level;
the tangential wall residual is not zero but the viscous wall shear
(1/Re) a''(+-1) of u1 and u3, because the pressure and the advective terms
vanish, and it is pinned to that closed form. Eigenmode fields (criterion
6) solve only the linearized balance, so their defect has no part linear
in the amplitude and an exactly quadratic rest; relative to the forcing
scale it is about 0.14 times the amplitude, so an amplitude passes only
below a few times the tolerance (1e-6 at tol 1e-6 does).
"""

import time

import numpy as np
from numpy.polynomial import polynomial as npoly

import compatflow as cf
from compatflow.cli import main
from compatflow.fieldfile import save_field
from compatflow.search import REFERENCE_COEFFS, AnsatzSpec, assemble, find_compatible
from helpers import random_admissible, random_u2zero, random_vector, rel_diff

PARAMS = cf.FlowParams(1.0, 1.0, 80.0)
G = cf.cheb_grid(64)


def _line(k, ok, detail):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_forcing_matches_closed_forms():
    t0 = time.perf_counter()
    got = cf.forcing(cf.example_field(PARAMS, G))
    dt = time.perf_counter() - t0
    want = cf.example_forcing(PARAMS, G)
    rel = (got - want).max_abs() / want.max_abs()
    ok = rel <= 1e-9 and dt < 1.0
    _line(1, ok, f"rel {rel:.3e} vs 1e-9, {dt:.3f}s vs 1s")
    assert rel <= 1e-9
    assert dt < 1.0


def test_criterion_2_dudt_matches_closed_forms():
    t0 = time.perf_counter()
    got = cf.dudt(cf.example_field(PARAMS, G))
    dt = time.perf_counter() - t0
    want = cf.example_dudt(PARAMS, G)
    rel = (got - want).max_abs() / want.max_abs()
    ok = rel <= 1e-8 and dt < 1.0
    _line(2, ok, f"rel {rel:.3e} vs 1e-8, {dt:.3f}s vs 1s")
    assert rel <= 1e-8
    assert dt < 1.0


def test_criterion_3_defect_profiles_and_grid(tmp_path):
    defect = cf.divergence_defect(cf.example_field(PARAMS, G))
    dmax = defect.max_abs()
    want = cf.example_div_coeffs(PARAMS, G)
    rel = (defect - want).max_abs() / want.max_abs()

    path = tmp_path / "field.json"
    save_field(cf.example_field(PARAMS, G), path)
    grids = {}
    for n in (48, 64):
        out = tmp_path / f"n{n}"
        rc = main(["check", str(path), "--n", str(n), "-o", str(out)])
        assert rc == 2
        grids[n] = np.loadtxt(out / "defect_grid.csv", delimiter=",", skiprows=1)
    drift = np.max(np.abs(grids[48][:, 2] - grids[64][:, 2]))

    ok = dmax > 1e-3 and rel <= 1e-8 and drift < 1e-9
    _line(3, ok, f"max {dmax:.4f} vs 1e-3, rel {rel:.3e} vs 1e-8, "
                 f"grid drift {drift:.3e} vs 1e-9")
    assert dmax > 1e-3
    assert rel <= 1e-8
    assert drift < 1e-9


def test_criterion_4_wall_residual_values():
    rep = cf.check(cf.example_field(PARAMS, G))
    cc = cf.example_cc_coeffs(PARAMS)
    got_x = rep.tangential["+1"]["x"][1]["sin"]
    got_z = rep.tangential["+1"]["z"][1]["sin"]
    rel_x = abs(got_x - cc["x"][1]["sin"]) / abs(cc["x"][1]["sin"])
    rel_z = abs(got_z - cc["z"][1]["sin"]) / abs(cc["z"][1]["sin"])
    anchored = abs(got_x - 0.0628) < 5e-5 and abs(got_z - (-0.237)) < 5e-4
    ok = rel_x <= 1e-8 and rel_z <= 1e-8 and anchored
    _line(4, ok, f"x {got_x:.6f} rel {rel_x:.2e}, z {got_z:.6f} rel {rel_z:.2e}")
    assert rel_x <= 1e-8
    assert rel_z <= 1e-8
    assert anchored


def _u2zero_wall_shear(u, wall_y):
    """Closed form of the tangential wall residual of a u2 = 0 field: the
    pressure vanishes and so does u at the wall, leaving (1/Re) a''(wall)
    for every profile a of u1 (x) and u3 (z)."""
    out = {}
    for t, comp in (("x", u.u1), ("z", u.u3)):
        out[t] = {
            j: {
                slot: npoly.polyval(wall_y, npoly.polyder(p.poly, 2))
                / u.params.reynolds
                for slot, p in zip(("cos", "sin"), comp.get(j))
            }
            for j in comp.harmonics()
        }
    return out


def test_criterion_5_zero_wall_normal_fields():
    """With u2 = 0 the condition holds: the divergence defect, which
    decides the verdict, stays at rounding level. The tangential wall
    residual is the viscous wall shear (1/Re) a''(+-1) of u1 and u3, since
    the pressure vanishes, and is pinned to that closed form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_div = 0.0
    worst_p = 0.0
    worst_tan = 0.0
    for _ in range(100):
        u = random_u2zero(PARAMS, G, rng, harmonics=(1, 2), degree=2)
        rep = cf.check(u)
        fscale = rep.forcing_max_abs
        worst_div = max(worst_div, rep.defect_rel_max)
        worst_p = max(worst_p, rep.pressure.max_abs() / fscale)
        for wall, wall_y in (("+1", 1.0), ("-1", -1.0)):
            want = _u2zero_wall_shear(u, wall_y)
            for t in ("x", "z"):
                got = rep.tangential[wall][t]
                assert sorted(got) == sorted(want[t]), (wall, t)
                for j, entry in want[t].items():
                    for slot, value in entry.items():
                        d = abs(got[j][slot] - value) / fscale
                        worst_tan = max(worst_tan, d)
    dt = time.perf_counter() - t0
    ok = worst_div <= 1e-8 and worst_p <= 1e-12 and worst_tan <= 1e-12 and dt < 30.0
    _line(5, ok, f"div rel {worst_div:.3e} vs 1e-8, pressure rel {worst_p:.3e} "
                 f"vs 1e-12, tangential vs (1/Re) a''(wall) {worst_tan:.3e} "
                 f"vs 1e-12, {dt:.1f}s vs 30s")
    assert worst_div <= 1e-8, f"divergence defect {worst_div:.3e} exceeds 1e-8"
    assert worst_p <= 1e-12, f"pressure {worst_p:.3e} of the forcing scale, not 0"
    assert worst_tan <= 1e-12, (
        f"tangential wall residual departs from the viscous wall shear "
        f"(1/Re) a''(wall) by {worst_tan:.3e} of the forcing scale"
    )
    assert dt < 30.0


def test_criterion_6_eigenmode_fields_pass_check():
    """An eigenmode solves the linearized balance about Poiseuille flow, so
    the defect of U + a*vhat has no part linear in a: harmonic 1 (the
    linear part) vanishes and harmonics 0 and 2 (the self-interaction)
    scale exactly as a^2. At a small enough amplitude the field passes."""
    modes = cf.solve_orr_sommerfeld(PARAMS, 64)[:3]
    amps = (1e-3, 0.3, 1.0)
    rows = []
    worst_lin = 0.0
    worst_quad = 0.0
    small = []
    for i, mode in enumerate(modes):
        quad = {}
        for amp in amps:
            rep = cf.check(cf.mode_to_field(mode, amp), tol_rel=1e-6)
            a1, b1 = rep.defect.get(1)
            lin = max(a1.max_abs, b1.max_abs) / rep.forcing_max_abs
            worst_lin = max(worst_lin, lin)
            quad[amp] = np.concatenate(
                [p.values for j in (0, 2) for p in rep.defect.get(j)]
            ) / amp**2
            rows.append(f"mode {i} amp {amp:g}: linear {lin:.2e}, "
                        f"total {rep.defect_rel_max:.2e}")
        ref = quad[amps[-1]]
        for amp in amps:
            d = np.max(np.abs(quad[amp] - ref)) / np.max(np.abs(ref))
            worst_quad = max(worst_quad, d)
        rep = cf.check(cf.mode_to_field(mode, 1e-6), tol_rel=1e-6)
        small.append(rep)
        rows.append(f"mode {i} amp 1e-06: {rep.defect_rel_max:.2e} {rep.verdict}")
    ok = (worst_lin <= 1e-6 and worst_quad <= 1e-9
          and all(r.verdict == "compatible" for r in small))
    _line(6, ok, f"linear part {worst_lin:.2e} vs 1e-6, quadratic part "
                 f"spread {worst_quad:.2e} vs 1e-9; " + "; ".join(rows))
    assert worst_lin <= 1e-6, (
        f"harmonic-1 defect {worst_lin:.3e} of the forcing scale: the mode "
        f"does not solve the linearized balance it came from"
    )
    assert worst_quad <= 1e-9, (
        f"harmonic-0/2 defect over amp^2 spreads by {worst_quad:.3e} across "
        f"amplitudes; the self-interaction should be exactly quadratic"
    )
    for i, rep in enumerate(small):
        assert rep.verdict == "compatible", (
            f"mode {i} at amplitude 1e-6 reads {rep.defect_rel_max:.3e}"
        )


def test_criterion_7_reference_root():
    spec = AnsatzSpec(params=PARAMS)
    field = assemble(spec, REFERENCE_COEFFS)
    rep = cf.check(field)
    res = find_compatible(spec, x0=REFERENCE_COEFFS, tol=1e-10, max_iter=50)
    ok = (rep.defect_rel_l2 <= 1e-2 and res.success
          and res.residual_rel <= 1e-10 and res.iterations <= 50)
    _line(7, ok, f"rounded-coefficient defect l2 rel {rep.defect_rel_l2:.3e} "
                 f"(max rel {rep.defect_rel_max:.3e}) vs 1e-2; reseeded root "
                 f"{res.residual_rel:.3e} in {res.iterations} iterations")
    assert rep.defect_rel_l2 <= 1e-2
    assert res.success
    assert res.residual_rel <= 1e-10
    assert res.iterations <= 50


def test_criterion_8_search_from_scratch():
    t0 = time.perf_counter()
    spec = AnsatzSpec(params=PARAMS)
    hits = []
    for seed in range(5):
        res = find_compatible(spec, seed=seed)
        if res.success and res.residual_rel <= 1e-10:
            if res.field.u2.l2() >= 1e-3 * res.field.l2():
                hits.append(seed)
    dt = time.perf_counter() - t0
    ok = len(hits) >= 1 and dt < 120.0
    _line(8, ok, f"{len(hits)}/5 seeds converged to nontrivial roots, "
                 f"{dt:.1f}s vs 120s")
    assert len(hits) >= 1
    assert dt < 120.0


def test_criterion_9_identity_suite():
    rng = np.random.RandomState(2026)
    worst = {"curl_curl": 0.0, "div_curl": 0.0, "div_forcing": 0.0, "product": 0.0}

    for _ in range(50):
        u = random_vector(PARAMS, G, rng)
        lhs = cf.curl(cf.curl(u))
        grads = cf.gradient(cf.divergence(u))
        for i in range(3):
            rhs = grads[i] - u.components[i].laplacian()
            worst["curl_curl"] = max(worst["curl_curl"], rel_diff(lhs.components[i], rhs))
        d = cf.divergence(cf.curl(u)).max_abs() / max(1.0, u.max_abs())
        worst["div_curl"] = max(worst["div_curl"], d)

    for _ in range(50):
        u = random_admissible(PARAMS, G, rng, harmonics=(0, 1, 2))
        f = cf.forcing(u)
        d = cf.divergence(f).max_abs() / max(1.0, f.max_abs())
        worst["div_forcing"] = max(worst["div_forcing"], d)

    from helpers import random_scalar
    x = np.linspace(0.0, 2 * np.pi / PARAMS.alpha, 53)
    for _ in range(50):
        f = random_scalar(PARAMS, G, rng)
        g = random_scalar(PARAMS, G, rng)
        y = float(rng.uniform(-1, 1))
        lhs = (f * g).evaluate(x, y, 0.7)
        rhs = f.evaluate(x, y, 0.7) * g.evaluate(x, y, 0.7)
        d = np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs)))
        worst["product"] = max(worst["product"], d)

    ok = all(v <= 1e-9 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _line(9, ok, detail + " vs 1e-9")
    for k, v in worst.items():
        assert v <= 1e-9, f"{k}: {v:.3e}"
