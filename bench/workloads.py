"""Seeded inputs, operations and output checks for the three workloads.

Every workload hands out operations through ``op(slot)``. The slot fixes
the shape of the input (field family, harmonic count, node count) from a
fixed schedule, so every run sees the same mix; the workload's random
generator draws all numbers. An operation has an untimed ``prepare``
(inputs written to disk), a timed ``run`` (the call into compatflow) and
an untimed ``verify`` that returns a list of failures, empty when the
outputs are correct. The first ``warmup`` operations of a run are verified
but not timed.

Field files are written from plain numpy polynomials, not through
compatflow, so the inputs do not change when the program does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np
from numpy.polynomial import polynomial as npoly

WALL = np.array([-1.0, 0.0, 1.0])  # y^2 - 1
WALL2 = npoly.polymul(WALL, WALL)

# Orszag (1971), J. Fluid Mech. 50: least stable Orr-Sommerfeld eigenvalue
# of plane Poiseuille flow at alpha = 1, beta = 0, Re = 10^4.
ORSZAG = (1.0, 0.0, 1e4, complex(0.23752649, 0.00373967))

ORACLE_RTOL = 1e-8  # example defect profiles and wall coefficients
U2ZERO_RTOL = 1e-8  # defect of u2 = 0 fields, relative to the forcing
TWIN_ATOL = 1e-8  # poly vs sampled twin, in units of the forcing scale
ROOT_RTOL = 1e-10  # search roots re-checked by check()
NONTRIVIAL = 1e-3  # u2 share of a search root, as in acceptance criterion 8
ORSZAG_ATOL = 1e-7  # real and imaginary part of the Orszag eigenvalue


def _nodes(n):
    return np.cos(np.pi * np.arange(n) / (n - 1))


def _continuity_u3(al, be, j, u1, u2):
    (a1, b1), (a2, b2) = u1, u2
    b3 = -npoly.polyadd(j * al * b1, npoly.polyder(a2)) / (j * be)
    a3 = npoly.polysub(npoly.polyder(b2), j * al * a1) / (j * be)
    return a3, b3


def field_doc(params, n, field, sampled):
    """Field file for {j: {"u1": (cos, sin), "u2": (cos, sin)}} polynomial
    profiles. Poly files leave u3 to the loader's continuity completion;
    sampled files carry u3 samples of the same exact polynomial."""
    al, be, _ = params
    y = _nodes(n)

    def prof(c):
        if sampled:
            return {"values": [float(v) for v in npoly.polyval(y, c)]}
        return {"poly": [float(v) for v in c]}

    harmonics = []
    for j, comps in sorted(field.items()):
        entry = {"j": j}
        for name in ("u1", "u2"):
            a, b = comps[name]
            entry[name] = {"cos": prof(a), "sin": prof(b)}
        if sampled:
            a3, b3 = _continuity_u3(al, be, j, comps["u1"], comps["u2"])
            entry["u3"] = {"cos": prof(a3), "sin": prof(b3)}
        harmonics.append(entry)
    return {
        "schema_version": 1,
        "params": {"alpha": al, "beta": be, "reynolds": params[2]},
        "n": n,
        "harmonics": harmonics,
    }


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _call_cli(lib, argv):
    """cli.main with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


# ----------------------------------------------------------------- check_cli

ZERO = np.zeros(1)


def _example(rng, harmonics):
    return {1: {"u1": (ZERO, ZERO), "u2": (WALL2, ZERO)}}


def _ansatz(rng, harmonics, degree=4):
    c = rng.standard_normal((4, degree + 1))
    return {1: {"u1": (npoly.polymul(c[0], WALL), npoly.polymul(c[1], WALL)),
                "u2": (npoly.polymul(c[2], WALL2), npoly.polymul(c[3], WALL2))}}


def _admissible(rng, harmonics, degree=3):
    field = {}
    for j in range(1, harmonics + 1):
        c = rng.uniform(-1.0, 1.0, (4, degree + 1))
        field[j] = {"u1": (npoly.polymul(c[0], WALL), npoly.polymul(c[1], WALL)),
                    "u2": (npoly.polymul(c[2], WALL2), npoly.polymul(c[3], WALL2))}
    return field


def _u2zero(rng, harmonics, degree=2):
    field = {}
    for j in range(1, harmonics + 1):
        c = rng.uniform(-1.0, 1.0, (2, degree + 1))
        field[j] = {"u1": (npoly.polymul(c[0], WALL), npoly.polymul(c[1], WALL)),
                    "u2": (ZERO, ZERO)}
    return field


FAMILIES = {"example": _example, "ansatz": _ansatz,
            "admissible": _admissible, "u2zero": _u2zero}


def _check_schedule():
    """One block of slots: every (family, harmonics) at every n, with the
    node counts interleaved so that any run prefix has a similar mix."""
    shapes = [("example", 1), ("ansatz", 1)]
    shapes += [("admissible", h) for h in (1, 2, 3, 4)]
    shapes += [("u2zero", h) for h in (1, 2, 3, 4)]
    return [(fam, h, n) for fam, h in shapes for n in (32, 64, 128)]


class CheckCli:
    name = "check_cli"
    node_counts = (32, 64, 128)
    schedule = _check_schedule()
    count_window = len(schedule)
    warmup = 3

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.serial = 0

    def op(self, slot):
        fam, harmonics, n = self.schedule[slot % len(self.schedule)]
        sampled = (slot // len(self.schedule) + slot) % 2 == 1
        rng = self.rng
        params = (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5)),
                  float(math.exp(rng.uniform(math.log(50.0), math.log(5000.0)))))
        field = FAMILIES[fam](rng, harmonics)
        self.serial += 1
        return CheckOp(self.workdir, self.serial, fam, params, n, field, sampled)


class CheckOp:
    def __init__(self, workdir, serial, family, params, n, field, sampled):
        self.family, self.params, self.n = family, params, n
        self.field, self.sampled = field, sampled
        base = os.path.join(workdir, f"check{serial}")
        self.path = base + ".json"
        self.twin_path = base + "_twin.json"
        self.out_dir = base + "_out"

    def prepare(self):
        _write(self.path, field_doc(self.params, self.n, self.field, self.sampled))

    def run(self, lib):
        return _call_cli(lib, ["check", self.path, "--n", str(self.n), "-o", self.out_dir])

    def cleanup(self):
        for p in (self.path, self.twin_path):
            if os.path.exists(p):
                os.remove(p)
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def verify(self, lib, outcome):
        try:
            with open(os.path.join(self.out_dir, "report.json")) as fh:
                rep = json.load(fh)
            return self._verify(lib, outcome, rep)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _verify(self, lib, outcome, rep):
        errs = []
        verdict = rep["verdict"]
        want_rc = {"compatible": 0, "incompatible": 2}.get(verdict)
        if outcome["rc"] != want_rc:
            errs.append(f"exit code {outcome['rc']} with verdict {verdict!r}")
        d = rep["divergence_defect"]
        passes = d["max_abs"] <= rep["tolerance_rel"] * rep["forcing_max_abs"]
        if passes != (verdict == "compatible"):
            errs.append(f"verdict {verdict!r} disagrees with the reported defect")

        gap = self.twin_gap(lib, rep)
        if not gap <= 1.0:
            errs.append(f"poly and sampled twins disagree ({gap:.3e} of tolerance)")
        if self.family == "example":
            prof, wall = self.oracle_gaps(lib, rep)
            if not prof <= ORACLE_RTOL:
                errs.append(f"defect profiles off the closed form by {prof:.3e}")
            if not wall <= ORACLE_RTOL:
                errs.append(f"wall coefficients off the closed form by {wall:.3e}")
        if self.family == "u2zero":
            if not d["max_abs_rel"] <= U2ZERO_RTOL:
                errs.append(f"u2 = 0 defect {d['max_abs_rel']:.3e} relative")
        return errs

    def twin_gap(self, lib, rep):
        """Largest twin discrepancy as a multiple of its tolerance: the
        report of the file's other representation, checked in-process.

        The absolute defect and wall residual are compared in units of the
        forcing scale. The forcing scale itself is not compared: from
        samples it takes a third collocation derivative and differs from
        the exact path by up to about 1e-3 relative at n = 128, and the
        report's relative numbers inherit that through their denominator.
        """
        _write(self.twin_path,
               field_doc(self.params, self.n, self.field, not self.sampled))
        twin = lib.compat.check(lib.fieldfile.load_field(self.twin_path, n=self.n))
        twin = twin.to_dict()
        if twin["verdict"] != rep["verdict"]:
            return math.inf
        fscale = max(rep["forcing_max_abs"], twin["forcing_max_abs"])
        gaps = [
            abs(rep[block][key] - twin[block][key]) / (TWIN_ATOL * fscale)
            for block, key in (("divergence_defect", "max_abs"),
                               ("divergence_defect", "l2"),
                               ("tangential_residual", "max_abs"))
        ]
        vel = twin["velocity_max_abs"]
        gaps.append(abs(rep["velocity_max_abs"] - vel) / (TWIN_ATOL * vel))
        return max(gaps)

    def oracle_gaps(self, lib, rep):
        """Relative distance of the written defect profiles and of the
        y = +1 wall coefficients from the worked example's closed forms."""
        params = lib.fieldops.FlowParams(*self.params)
        grid = lib.spectral.cheb_grid(self.n)
        want = lib.oracle.example_div_coeffs(params, grid)
        path = os.path.join(self.out_dir, "defect_profiles.csv")
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        cols = dict(zip(header, table.T))
        worst = 0.0
        js = set(want.harmonics()) | {int(h.split("_")[1]) for h in header[1:]}
        for j in js:
            a, b = want.get(j)
            for key, ref in ((f"cos_{j}", a.values), (f"sin_{j}", b.values)):
                got = cols.get(key, np.zeros(self.n))
                worst = max(worst, float(np.max(np.abs(got - ref))))
        prof = worst / want.max_abs()

        cc = lib.oracle.example_cc_coeffs(params)
        walls = rep["tangential_residual"]["walls"]["+1"]
        scale = max(abs(e[k]) for d in cc.values() for e in d.values() for k in e)
        wall = 0.0
        for t in ("x", "z"):
            for j in (1, 2):
                got = walls[t].get(str(j), {"cos": 0.0, "sin": 0.0})
                for k in ("cos", "sin"):
                    wall = max(wall, abs(got[k] - cc[t][j][k]))
        return prof, wall / scale


# -------------------------------------------------------------------- search

class Search:
    name = "search"
    node_counts = (64,)
    schedule = [None]
    count_window = 2
    warmup = 1

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng([seed, 2])

    def op(self, slot):
        return SearchOp(int(self.rng.integers(0, 2**31)))


class SearchOp:
    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        pass

    def cleanup(self):
        pass

    def _spec(self, lib):
        return lib.search.AnsatzSpec(lib.fieldops.FlowParams(1.0, 1.0, 80.0))

    def run(self, lib):
        res = lib.search.find_compatible(self._spec(lib), seed=self.seed)
        return {"result": res, "starts": res.restarts + 1, "roots": int(res.success)}

    def verify(self, lib, outcome):
        res = outcome["result"]
        if not res.success:
            return [f"seed {self.seed}: {res.message}"]
        field = lib.search.assemble(self._spec(lib), res.coeffs,
                                    lib.spectral.cheb_grid(64))
        rel = lib.compat.check(field).defect_rel_max
        errs = []
        if not rel <= ROOT_RTOL:
            errs.append(f"seed {self.seed}: root re-checks at {rel:.3e} relative")
        if not field.u2.l2() >= NONTRIVIAL * field.l2():
            errs.append(f"seed {self.seed}: root has trivial u2")
        return errs


# ----------------------------------------------------------------------- oss

class Oss:
    name = "oss"
    node_counts = (48, 56, 64, 72, 96, 104)  # each n and its n + 8 check grid
    schedule = [48, 64, 96, 48, 64, 96, "orszag"]
    count_window = len(schedule)
    warmup = 3

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng([seed, 3])
        self.workdir = workdir
        self.serial = 0

    def op(self, slot):
        kind = self.schedule[slot % len(self.schedule)]
        rng = self.rng
        if kind == "orszag":
            params, n = ORSZAG[:3], 96
        else:
            params = (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0)),
                      float(math.exp(rng.uniform(math.log(300.0), math.log(3000.0)))))
            n = kind
        self.serial += 1
        return OssOp(os.path.join(self.workdir, f"oss{self.serial}"), params, n)


class OssOp:
    def __init__(self, out_dir, params, n):
        self.out_dir, self.params, self.n = out_dir, params, n

    def prepare(self):
        pass

    def cleanup(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, lib):
        al, be, re = self.params
        return _call_cli(lib, ["oss", "--alpha", repr(al), "--beta", repr(be),
                               "--reynolds", repr(re), "--n", str(self.n),
                               "-o", self.out_dir])

    def verify(self, lib, outcome):
        try:
            with open(os.path.join(self.out_dir, "oss_modes.json")) as fh:
                doc = json.load(fh)
            errs = self._verify(lib, outcome, doc)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        outcome["kept"] = len(doc["modes"])
        return errs

    def _verify(self, lib, outcome, doc):
        errs = []
        if outcome["rc"] != 0:
            errs.append(f"exit code {outcome['rc']}: {outcome['stderr'].strip()}")
        omega = [complex(m["omega_real"], m["omega_imag"]) for m in doc["modes"]]
        if not omega:
            errs.append("no resolved modes")
        if not all(math.isfinite(w.real) and math.isfinite(w.imag) for w in omega):
            errs.append("non-finite eigenvalue")
        if self.params == ORSZAG[:3]:
            gap = max(abs(omega[0].real - ORSZAG[3].real),
                      abs(omega[0].imag - ORSZAG[3].imag))
            if not gap <= ORSZAG_ATOL:
                errs.append(f"Orszag eigenvalue off by {gap:.3e}")
        field = lib.fieldfile.load_field(os.path.join(self.out_dir, "mode_field.json"))
        bad = lib.fieldops.admissibility_violations(field)
        if bad:
            errs.append("mode field not admissible: " + "; ".join(bad))
        return errs


WORKLOADS = {w.name: w for w in (CheckCli, Search, Oss)}
