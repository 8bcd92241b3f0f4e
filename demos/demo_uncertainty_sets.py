"""Covariance ambiguity sets and the worst-case quadratic form.

The driver of every solver in this package is a sublinear function of a
symmetric matrix: half the largest trace pairing against an admissible
covariance set.  This script builds the two supported set types, evaluates
the function together with its maximizer, and checks the scalar band against
a brute-force scan.
"""

import numpy as np

from gkernel import UncertaintySet, g_value

band = UncertaintySet.interval(0.5, 1.0)
print("scalar band [0.5, 1.0]")
for a in (1.8, -1.8, 0.0):
    ev = g_value(np.array([[a]]), band)
    scan = max(0.5 * a * q for q in np.linspace(0.5, 1.0, 1001))
    print(f"  a={a:+.1f}  value={ev.value:+.4f}  maximizer={ev.maximizer.ravel()}"
          f"  scan={scan:+.4f}")

members = [
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[0.6, 0.2], [0.2, 0.9]]),
    np.array([[0.8, -0.1], [-0.1, 0.7]]),
]
finite = UncertaintySet.finite(members)
lo, hi = finite.lo, finite.hi
print(f"\nfinite set of {len(members)} covariance matrices, "
      f"ellipticity [{lo:.3f}, {hi:.3f}]")

rng = np.random.default_rng(1)
raw = rng.normal(size=(2, 2))
a = 0.5 * (raw + raw.T)
ev = g_value(a, finite)
print("random symmetric argument:\n", a)
print("value", round(ev.value, 6))
print("attained at member:\n", ev.maximizer)

# sublinearity on a second draw: value(a + b) <= value(a) + value(b)
raw = rng.normal(size=(2, 2))
b = 0.5 * (raw + raw.T)
lhs = g_value(a + b, finite).value
rhs = g_value(a, finite).value + g_value(b, finite).value
print(f"\nsublinearity: {lhs:.6f} <= {rhs:.6f}  ({lhs <= rhs + 1e-15})")
