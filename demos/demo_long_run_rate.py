"""Long-run rate and shape function from the bordered eigen-equation.

Two models with hand-checkable answers: flat coefficients (rate
-r + v^2 sig_hi2 / 2 = 0.025, flat shape) and a mean-reverting short rate
(rate -0.026, affine shape with slope -1), whose discounted solutions
approach the rate as the discount vanishes.  A third model with a quadratic
rate has genuine curvature, so halving the node spacing shrinks the rate
error by roughly the expected first-order factor.
"""

import numpy as np

from gkernel import (
    Grid,
    ModelSpec,
    UncertaintySet,
    pde_residual,
    solve_discounted,
    solve_ergodic,
)

flat = ModelSpec.build(
    m=1, d=1, b=["-1.0 * x1"], sigma=[["0.2"]], r=0.02, v=["0.3"],
    uncertainty=UncertaintySet.interval(0.5, 1.0), label="constant-kernel",
)
sol = solve_ergodic(flat, Grid.build([[-3.0, 3.0]], [257]), tol=1e-7)
print(f"flat coefficients: rate {sol.lam:+.8f} (hand value +0.02500000)")
print(f"  solver: {sol.u.sweeps} sweeps of a candidate operator over the grid")
print(f"  shape spread {np.ptp(sol.u.values):.2e} (flat)")

ou = ModelSpec.build(
    m=1, d=1, b=["0.05 - 1.0 * x1"], sigma=[["0.2"]], r="x1",
    uncertainty=UncertaintySet.interval(0.8, 1.2), label="mean-reverting",
)
grid = Grid.build([[-2.0, 2.0]], [257])
sol = solve_ergodic(ou, grid, tol=1e-7)
rep = pde_residual(sol, ou)
xs = grid.points()[:, 0]
slope = np.polyfit(xs[np.abs(xs) <= 1.0], sol.u.values[np.abs(xs) <= 1.0], 1)[0]
print(f"\nmean-reverting rate: {sol.lam:+.8f} (hand value -0.02600000)")
print(f"  central shape slope {slope:+.4f} (hand value -1)")
print(f"  interior worst-case residual {rep.linf_interior:.2e}")
# the vanishing-discount limit: delta w_delta(anchor) -> rate, with an O(delta) gap
anchor = grid.anchor_index()
ladder = [(d, d * solve_discounted(ou, grid, d).values[anchor] - sol.lam)
          for d in (0.05, 0.025, 0.0125, 0.00625)]
for d, gap in ladder:
    print(f"  discount {d:.5f}: delta w(anchor) - rate {gap:+.2e}")
print(f"  Richardson from the last two: {2 * ladder[-1][1] - ladder[-2][1]:+.2e}")

quad = ModelSpec.build(
    m=1, d=1, b=["0.05 - 1.0 * x1"], sigma=[["0.2"]], r="x1 * x1",
    uncertainty=UncertaintySet.interval(1.0, 1.0), label="quadratic-rate",
)
# closed form by a quadratic ansatz for the shape function
q, s2, kappa, theta = 1.0, 0.04, 1.0, 0.05
alpha = (2 * kappa - np.sqrt(4 * kappa**2 + 8 * q * s2)) / (4 * q * s2)
beta = 2 * kappa * theta * alpha / (kappa - 2 * q * s2 * alpha)
lam_star = q * s2 * alpha + 0.5 * q * s2 * beta**2 + kappa * theta * beta
print(f"\nquadratic rate model, exact rate {lam_star:+.8f}")
prev = None
for nodes in (65, 129, 257):
    lam = solve_ergodic(quad, Grid.build([[-3.0, 3.0]], [nodes]), tol=1e-8).lam
    err = abs(lam - lam_star)
    note = f"  improvement x{prev / err:.2f}" if prev else ""
    print(f"  {nodes:3d} nodes: rate {lam:+.8f}  error {err:.2e}{note}")
    prev = err
