"""Per-layer tracing from outside the package.

The traced run replaces module-level functions of compatflow with timing
wrappers by patching module attributes; nothing under src/ is edited.
A function imported by name into several modules (``check`` lives in
``compat``, ``cli`` and the package namespace) is replaced in every module
that holds it, so calls are caught whichever name they go through.

Each wrapper records one span: its name, the span that called it, its
duration, and its self time (duration minus the time of the traced spans
it called). Spans are aggregated per operation by (name, parent) and kept
in memory; a layer metric sums the self times of the spans that belong to
the layer. A few spans also note something about each call (see NOTES),
for metrics that depend on what was solved rather than on how long it took.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute) pairs that get a span; the span is named
# "<module>.<attribute>". "sla.eig" is scipy.linalg.eig as modes calls it.
SPANS = [
    ("spectral", "cheb_grid"),
    ("fieldfile", "load_field"),
    ("fieldfile", "save_field"),
    ("cli", "_write_json"),
    ("cli", "_defect_profiles_csv"),
    ("cli", "_defect_grid_csv"),
    ("compat", "check"),
    ("compat", "forcing"),
    ("compat", "vorticity_rhs"),
    ("compat", "tangential_residual"),
    ("fieldops", "harmonic_product"),
    ("fieldops", "curl"),
    ("fieldops", "divergence"),
    ("fieldops", "admissibility_violations"),
    ("poisson", "solve_dudt"),
    ("poisson", "solve_pressure"),
    ("poisson", "pressure_rhs"),
    ("poisson", "solve_bvp"),
    ("search", "find_compatible"),
    ("search", "_QuadraticModel"),
    ("search", "_defect_samples"),
    ("search", "assemble"),
    ("modes", "solve_orr_sommerfeld"),
    ("modes", "sla.eig"),
    ("modes", "mode_to_field"),
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bvp_key(args, kwargs, out):
    """The matrix a solve_bvp call factorises: (n, k2, boundary kind)."""
    spec, grid = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "grid")
    return grid.n, spec.helmholtz_k2, spec.bc_kind


def _eig_size(args, kwargs, out):
    """Number of eigenvalues a generalized eigensolve returned."""
    return len(out[0])


# span -> what each call notes, from its arguments and its result
NOTES = {
    "poisson.solve_bvp": _bvp_key,
    "modes.sla.eig": _eig_size,
}

# layer time metric (ms) -> spans whose self times it sums
SELF_MS = {
    "fieldfile.load_ms": ["fieldfile.load_field"],
    "cli.write_ms": [
        "cli._write_json",
        "cli._defect_profiles_csv",
        "cli._defect_grid_csv",
        "fieldfile.save_field",
    ],
    "compat.check_ms": ["compat.check"],
    "compat.forcing_ms": ["compat.forcing", "compat.vorticity_rhs"],
    "compat.tangential_ms": ["compat.tangential_residual"],
    "fieldops.harmonic_product_ms": ["fieldops.harmonic_product"],
    "fieldops.curl_ms": ["fieldops.curl"],
    "fieldops.divergence_ms": ["fieldops.divergence"],
    "fieldops.admissibility_ms": ["fieldops.admissibility_violations"],
    "poisson.solve_dudt_ms": ["poisson.solve_dudt"],
    "poisson.solve_pressure_ms": ["poisson.solve_pressure", "poisson.pressure_rhs"],
    "poisson.solve_bvp_ms": ["poisson.solve_bvp"],
    "search.newton_ms": ["search.find_compatible"],
    "modes.solve_os_ms": ["modes.solve_orr_sommerfeld"],
    "modes.eig_ms": ["modes.sla.eig"],
    "modes.mode_to_field_ms": ["modes.mode_to_field"],
}

# exact count metric -> span whose calls it counts
CALLS = {
    "fieldops.harmonic_product_calls": "fieldops.harmonic_product",
    "poisson.solve_bvp_calls": "poisson.solve_bvp",
    "search.pipeline_evals": "search._defect_samples",
    "modes.eig_calls": "modes.sla.eig",
}


class Tracer:
    """Span recorder. ``patch(lib)`` installs the wrappers, ``unpatch()``
    puts the original functions back, ``run(name, fn)`` calls fn under a
    root span, and ``take()`` returns and clears the aggregate
    {(name, parent): [calls, total_s, self_s]} and the notes
    {name: [note per call, in call order]}."""

    def __init__(self):
        self._stack = []
        self._agg = {}
        self._notes = {}
        self._undo = []

    def _wrap(self, name, fn):
        stack, agg = self._stack, self._agg
        note = NOTES.get(name)
        notes = self._notes.setdefault(name, []) if note else None

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if note:
                    notes.append(note(args, kwargs, out))
                return out
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent else None)
                rec = agg.setdefault(key, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return traced

    def patch(self, lib, spans=SPANS):
        mods = [m for k, m in sys.modules.items()
                if k == "compatflow" or k.startswith("compatflow.")]
        for modname, path in spans:
            owner = getattr(lib, modname)
            *head, attr = path.split(".")
            for part in head:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{modname}.{path}", orig)
            for holder in [owner] + [m for m in mods if m is not owner]:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, orig))

    def unpatch(self):
        while self._undo:
            holder, key, orig = self._undo.pop()
            setattr(holder, key, orig)

    def run(self, name, fn):
        return self._wrap(name, fn)()

    def take(self):
        agg = {k: list(v) for k, v in self._agg.items()}
        notes = {k: list(v) for k, v in self._notes.items()}
        self._agg.clear()
        for v in self._notes.values():
            v.clear()
        return agg, notes


def layer_values(agg):
    """Per-operation layer numbers from one operation's span aggregate."""
    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = 1e3 * sum(rec[2] for (name, _), rec in agg.items() if name in names)
    for metric, name in CALLS.items():
        out[metric] = sum(rec[0] for (n, _), rec in agg.items() if n == name)
    out["search.model_build_s"] = sum(
        rec[1] for (name, _), rec in agg.items() if name == "search._QuadraticModel"
    )
    # the re-check of each Newton end point against the real pipeline
    out["search.verify_ms"] = 1e3 * sum(
        rec[1] for (name, parent), rec in agg.items()
        if parent == "search.find_compatible"
        and name in ("search.assemble", "search._defect_samples")
    )
    return out


def bvp_repeats(notes_per_op):
    """Repeat shares of solve_bvp calls over a window of traced operations.

    A solve_bvp call is a repeat when its (n, k2, boundary kind) was solved
    before: earlier in the same operation, or only in an earlier operation
    of the run. These shares are the reuse a factorisation cache would get
    within one operation and across operations.
    """
    calls = in_op = across = 0
    seen_run = set()
    for notes in notes_per_op:
        seen_op = set()
        for key in notes.get("poisson.solve_bvp", []):
            calls += 1
            if key in seen_op:
                in_op += 1
            elif key in seen_run:
                across += 1
            seen_op.add(key)
        seen_run |= seen_op
    return {
        "poisson.bvp_repeat_in_op_frac": in_op / calls if calls else 0.0,
        "poisson.bvp_repeat_across_ops_frac": across / calls if calls else 0.0,
    }
