"""Survey the wall-normal eigenmodes and their compatibility behavior.

Solves the viscous stability eigenproblem for plane Poiseuille flow at
(alpha, beta, Re) = (1, 1, 80), turns selected eigenvectors into velocity
fields on top of the parabolic base flow, and measures how the divergence
defect of each grows with amplitude. Run with:

    python3 demos/eigenmode_survey.py
"""

import numpy as np

import compatflow as cf

params = cf.FlowParams(alpha=1.0, beta=1.0, reynolds=80.0)

modes = cf.solve_orr_sommerfeld(params, n=64)
print(f"{len(modes)} resolved modes (spurious eigenvalues filtered by "
      "comparing eigenfunctions across two resolutions)")
print()
print("  #   omega (frequency, growth rate)")
for i, m in enumerate(modes[:8]):
    print(f"  {i}  {m.eigenvalue.real:+.8f} {m.eigenvalue.imag:+.8f}j")
print()
print("all growth rates are negative: the flow is linearly stable here.")
print()

# The eigenvector is the wall-normal velocity shape; the in-plane
# components follow from continuity and zero normal vorticity. The
# resulting field is divergence-free by construction.
lead = modes[0]
field = cf.mode_to_field(lead, amplitude=0.3)
print("leading mode as a velocity field (amplitude 0.3, with base flow)")
print(f"  max |u| = {field.max_abs():.4f}")
print(f"  max |div u| = {cf.divergence(field).max_abs():.2e}")
print(f"  admissibility violations: {cf.admissibility_violations(field)}")
print()

# An eigenmode balances the linearized equations, so its defect comes
# entirely from the self-interaction terms: quadratic in amplitude, hence
# linear in amplitude after dividing by the forcing scale.
print("divergence defect against amplitude (leading mode)")
print("  amplitude   defect/forcing   ratio to amplitude")
for amp in (1e-3, 1e-2, 1e-1, 0.3, 1.0):
    rep = cf.check(cf.mode_to_field(lead, amp))
    print(f"  {amp:9.3f}   {rep.defect_rel_max:12.3e}   "
          f"{rep.defect_rel_max / amp:10.3f}")
print()
# At small amplitude the defect over the forcing scale is a fixed
# multiple of the amplitude, so a mode passes a tolerance once its
# amplitude is below about that tolerance divided by the multiple.
small = cf.check(cf.mode_to_field(lead, 1e-6), tol_rel=1e-6)
ratio = small.defect_rel_max / 1e-6
print(f"defect/forcing is about {ratio:.2f} x amplitude, so an amplitude")
print("passes a tolerance when it is below a few times that tolerance:")
print(f"  amplitude 1e-6 at tolerance 1e-6: {small.verdict} "
      f"(defect/forcing {small.defect_rel_max:.2e})")
print("at finite amplitude the verdict is a statement about the quadratic")
print("terms, not about the eigenmode itself.")
print()

# Resolution robustness: the spectrum barely moves between grids.
coarse = cf.solve_orr_sommerfeld(params, n=40)
drift = max(abs(a.eigenvalue - b.eigenvalue)
            for a, b in zip(coarse[:5], modes[:5]))
print(f"leading-5 eigenvalue drift between n = 40 and n = 64: {drift:.2e}")
