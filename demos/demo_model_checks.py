"""Structural checks that justify a long-run solve.

A model earns a long-horizon decomposition only if its coefficients are
regular enough: symmetric covariation loadings, Lipschitz fields, a positive
dissipativity rate, and a margin of that rate over the price of the
nonlinearity.  ``check_assumptions`` estimates all four on a sampling box;
``truncation_level`` turns the certified constants into the paper's bound
on |sigma^T Du|, which a solution is checked against; the solver applies no cap.
"""

import numpy as np

from gkernel import (
    ModelSpec,
    UncertaintySet,
    check_assumptions,
    truncation_level,
)

model = ModelSpec.build(
    m=1, d=1,
    b=["0.05 - 1.0 * x1"],
    sigma=[["0.2"]],
    r="x1",
    uncertainty=UncertaintySet.interval(0.8, 1.2),
    label="mean-reverting",
)
report = check_assumptions(model, [(-2.0, 2.0)], [41])
print("mean-reverting short-rate model on [-2, 2]")
for name, flag in report.clauses.items():
    print(f"  clause {name}: {'ok' if flag else 'VIOLATED'}")
print(f"  drift/loading Lipschitz bound  {report.c1:.4f}")
print(f"  noise Lipschitz / sup bound    {report.c_sigma:.4f} / {report.m_sigma:.4f}")
print(f"  dissipativity rate             {report.eta_hat:.4f}")
print(f"  margin over nonlinearity price {report.gap:.4f}")

# constant loadings make the noise Lipschitz constant vanish, so the
# bound on |sigma^T Du| is infinite
cap = truncation_level(
    mu=0.0, eta=report.eta_hat, c_sigma=report.c_sigma, c3=report.c1,
    c_phi=0.0, sig_hi=np.sqrt(1.2), sig_lo=np.sqrt(0.8),
    m_sigma=report.m_sigma,
)
print(f"  gradient cap                   {cap}")

saturating = ModelSpec.build(
    m=1, d=1,
    b=["-1.0 * x1"],
    sigma=[["0.2 + 0.05 * tanh(x1)"]],
    r="0.02 + 0.01 * tanh(x1)",
    v=["0.3"],
    uncertainty=UncertaintySet.interval(0.5, 1.0),
    label="saturating-volatility",
)
rep2 = check_assumptions(saturating, [(-2.0, 2.0)], [41])
cap2 = truncation_level(
    mu=0.0, eta=rep2.eta_hat, c_sigma=rep2.c_sigma, c3=rep2.c1, c_phi=0.0,
    sig_hi=1.0, sig_lo=np.sqrt(0.5), m_sigma=rep2.m_sigma,
)
print("\nstate-dependent volatility: noise Lipschitz "
      f"{rep2.c_sigma:.4f} -> finite gradient cap {cap2:.4f}")

# the market-price loading shifts the effective covariation drift
pts = np.array([[0.0], [1.0]])
print("\ncovariation drift shift sigma*v at x in {0, 1}:",
      saturating.eval_dij(pts).ravel())
