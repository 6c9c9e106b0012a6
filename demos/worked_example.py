"""Walk the worked incompatible field through the whole diagnosis.

The field has a single streamwise-spanwise harmonic: a wall-normal bump
u2 = (1 - y^2)^2 cos(theta) completed to a divergence-free velocity by the
spanwise component. Every intermediate quantity below also exists in
closed form (compatflow.oracle), so each stage of the pipeline can be
cross-checked independently. Run with:

    python3 demos/worked_example.py
"""

import numpy as np

import compatflow as cf

params = cf.FlowParams(alpha=1.0, beta=1.0, reynolds=80.0)
grid = cf.cheb_grid(64)

field = cf.example_field(params, grid)
print("the initial condition")
print(f"  harmonics: u2 {field.u2.harmonics()}, u3 {field.u3.harmonics()}")
print(f"  max |u| = {field.max_abs():.4f}, volume-mean L2 = {field.l2():.4f}")
print(f"  admissibility violations: {cf.admissibility_violations(field)}")
print(f"  max |div u| = {cf.divergence(field).max_abs():.2e}")
print()

# The momentum balance at t = 0 is evaluated through the vorticity
# formulation: w = curl u, then dw/dt, then minus its curl as the forcing
# for the velocity rate of change.
w = cf.curl(field)
f = cf.forcing(field)
print("vorticity and forcing")
print(f"  max |curl u|  = {w.max_abs():.4f}")
print(f"  forcing scale = {f.max_abs():.4f}")
fw = cf.example_vorticity(params, grid)
ff = cf.example_forcing(params, grid)
print(f"  closed-form agreement: vorticity {(w - fw).max_abs():.2e}, "
      f"forcing {(f - ff).max_abs():.2e}")
print()

# Each harmonic of each component solves a Helmholtz two-point boundary
# value problem with homogeneous Dirichlet conditions. That pins du/dt to
# zero at the walls, and the price appears immediately: its divergence
# cannot stay zero.
# check reads the defect from wall moments of the forcing; solve_dudt
# solves the Dirichlet problems on the nodes.
report = cf.check(field)
du = cf.solve_dudt(report.forcing)
defect = report.defect
print("rate of change and its divergence")
print(f"  max |du/dt| = {du.max_abs():.4f}")
print(f"  max |div du/dt| = {defect.max_abs():.4f} "
      f"(harmonics {defect.harmonics()})")
for j in defect.harmonics():
    a, b = defect.get(j)
    print(f"    j = {j}: cos profile peaks at {a.max_abs:.4f}")
print()

print("the verdict")
print(f"  {report.verdict}: defect / forcing = {report.defect_rel_max:.3e} "
      f"against tolerance {report.tol_rel:.1e}")
print(f"  tangential wall residual {report.tangential_rel:.3e} relative "
      "(reported alongside, not part of the verdict)")
# report.tangential is indexed (wall, direction, slot, j): walls y = +1
# and -1, directions x and z, slots cos and sin
cc = report.tangential[0]
print(f"  wall y = +1, x direction, sin slots: "
      f"j=1 {cc[0, 1, 1]:+.6f}, j=2 {cc[0, 1, 2]:+.6f}")
print(f"  wall y = +1, z direction, sin slot:  j=1 {cc[1, 1, 1]:+.6f}")

# The same numbers fall out of the closed forms, evaluated with no
# collocation at all.
ref = cf.example_cc_coeffs(params)
print(f"  closed forms give              "
      f"j=1 {ref['x'][1]['sin']:+.6f}, j=2 {ref['x'][2]['sin']:+.6f} "
      f"and j=1 {ref['z'][1]['sin']:+.6f}")
print()

# Scaling the field shows the structure of the defect: a viscous part that
# is linear in the amplitude and an advective part that is quadratic.
print("amplitude scaling of the defect")
d1 = defect
for s in (0.5, 2.0):
    ds = cf.check(s * field).defect
    print(f"  s = {s}: max defect {ds.max_abs():.4f} "
          f"(pure-linear would give {s * d1.max_abs():.4f}, "
          f"pure-quadratic {s**2 * d1.max_abs():.4f})")
