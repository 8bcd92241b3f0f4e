"""Oracle checks on the benchmark's results.

Every check compares a result of the program with a closed form or with a
property the method must have, never with a stored copy of an earlier
output.  Each takes plain numbers or arrays and returns a list of failure
messages; an empty list means the check passed.  The closed forms below are
derived by hand for the models in ``configs/``.
"""

from __future__ import annotations

import math

import numpy as np

# Mean-reverting model b = 0.05 - x, sigma = 0.2, r = x, Q in [0.8, 1.2]:
# u = -x solves the eigen-equation, with H = sigma^2 u'^2 = 0.04 > 0, so the
# worst case is Q = 1.2 and lam = -kappa theta + 1.2 * 0.04 / 2.
OU_LAM = -0.05 + 0.5 * 1.2 * 0.04
# K accrues (H Q / 2 - G(H)) dt; under Q = 0.8 that is 0.04 (0.8 - 1.2) / 2.
OU_K_RATE_LOWER = 0.5 * 0.04 * (0.8 - 1.2)

# Two-factor version with members I and [[1, .5], [.5, 1]]: u = -(x1 + x2),
# z = sigma^T Du = (-0.2, -0.2), H = z z^T and z^T Q z is 0.08 for I and
# 0.12 for the correlated member, so lam = 0.12 / 2 - 2 * 0.05.
AFFINE_2D_LAM = 0.5 * 0.12 - 0.1
AFFINE_2D_K_RATE_MEMBER_0 = 0.5 * (0.08 - 0.12)

YIELD_TOL = 4e-3
IDENTITY_TOL = 1e-2
RESIDUAL_TOL = 1e-3
K_TERMINAL_TOL = 1e-3
PRICE_N_SE = 4.0


def quadratic_rate_lam(q=1.0, sig2=0.04, kappa=1.0, theta=0.05) -> float:
    """Long-run rate of b = theta kappa - kappa x, r = x^2, one scenario q.

    u = alpha x^2 + beta x; matching powers of x in the stationary equation
    gives a quadratic for alpha and linear relations for beta and the rate.
    """
    alpha = (2.0 * kappa - math.sqrt(4.0 * kappa**2 + 8.0 * q * sig2)) / (4.0 * q * sig2)
    beta = 2.0 * kappa * theta * alpha / (kappa - 2.0 * q * sig2 * alpha)
    return q * sig2 * alpha + 0.5 * q * sig2 * beta**2 + kappa * theta * beta


def constant_kernel_price(r, v, q, horizon) -> float:
    """E[D_T] for constant r and v under one constant scenario Q."""
    v = np.asarray(v, dtype=float)
    return math.exp(-r * horizon + 0.5 * float(v @ np.asarray(q) @ v) * horizon)


def check_lam(name, lam, exact, tol) -> list[str]:
    err = abs(lam - exact)
    if not err <= 10.0 * tol:
        return [f"{name}: lam {lam!r} is {err:.3e} from {exact!r} (limit 10 tol = {10 * tol:.1e})"]
    return []


def check_affine_slope(name, xs, u, slope, half_width=1.0) -> list[str]:
    """Least-squares slope of u over |x| <= half_width."""
    xs = np.asarray(xs, dtype=float)
    mask = np.abs(xs) <= half_width
    fitted = np.polyfit(xs[mask], np.asarray(u)[mask], 1)[0]
    if not abs(fitted - slope) <= 1e-2:
        return [f"{name}: fitted slope {fitted:.6f}, expected {slope} within 1e-2"]
    return []


def check_refinement(name, lam_coarse, lam_fine, exact) -> list[str]:
    """Error against the closed form shrinks by a factor in [1.5, 4] on doubling."""
    e_coarse, e_fine = abs(lam_coarse - exact), abs(lam_fine - exact)
    factor = e_coarse / e_fine if e_fine > 0.0 else math.inf
    if not 1.5 <= factor <= 4.0:
        return [f"{name}: error factor {factor:.3f} on node doubling, outside [1.5, 4]"]
    return []


def check_residual(name, linf) -> list[str]:
    if not linf < RESIDUAL_TOL:
        return [f"{name}: interior residual {linf:.3e} not below {RESIDUAL_TOL}"]
    return []


def interval_residual_1d(xs, u, lam, lo, hi, b, sigma, r, band=2) -> float:
    """Interior sup norm of the 1D eigen-equation residual, central differences.

    G(H) + b u' - r - lam with H = sigma^2 (u'' + u'^2) and G(a) the
    support function of the variance interval [lo, hi]; ``band`` nodes next
    to each face are left out.
    """
    xs = np.asarray(xs, dtype=float)
    u = np.asarray(u, dtype=float)
    h = xs[1] - xs[0]
    du = (u[2:] - u[:-2]) / (2.0 * h)
    d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    x = xs[1:-1]
    big_h = sigma(x) ** 2 * (d2u + du**2)
    g = 0.5 * np.where(big_h >= 0.0, hi * big_h, lo * big_h)
    res = g + b(x) * du - r(x) - lam
    keep = slice(band - 1, res.size - (band - 1))
    return float(np.max(np.abs(res[keep])))


def check_march(w0_by_horizon: dict, lam) -> list[str]:
    """|w(0, x0)/T - lam| decays like 1/T: halving ratio in [0.3, 0.7]."""
    (t_short, w_short), (t_long, w_long) = sorted(w0_by_horizon.items())
    e_short = abs(w_short / t_short - lam)
    e_long = abs(w_long / t_long - lam)
    ratio = e_long / e_short if e_short > 0.0 else math.inf
    if not 0.3 <= ratio <= 0.7:
        return [f"march: transient ratio {ratio:.3f} from T={t_short} to T={t_long}, "
                "outside [0.3, 0.7]"]
    return []


def check_constant_prices(name, table, exact_by_label) -> list[str]:
    """Each constant control's mean is within 4 of its standard errors."""
    out = []
    for label, exact in exact_by_label.items():
        mean, se = table[label]
        if not abs(mean - exact) <= PRICE_N_SE * se:
            out.append(f"{name}: {label} mean {mean!r} is {abs(mean - exact):.3e} from "
                       f"{exact!r}, more than {PRICE_N_SE} se = {PRICE_N_SE * se:.3e}")
    return out


def check_worst_case_row(name, table, best_label) -> list[str]:
    """With u constant the policy picks the maximizing member everywhere.

    Both rows come from the same draws and the same covariance, so they
    must agree bit for bit, not only to rounding.
    """
    if [x.hex() for x in table["worst_case"]] != [x.hex() for x in table[best_label]]:
        return [f"{name}: worst_case row {table['worst_case']!r} differs from the "
                f"{best_label} row {table[best_label]!r}"]
    return []


def check_yields(rates, lam) -> list[str]:
    out = []
    for i, rate in enumerate(rates):
        if not abs(rate - lam) <= YIELD_TOL:
            out.append(f"yield: rate {i} = {rate!r} is {abs(rate - lam):.3e} from {lam}, "
                       f"limit {YIELD_TOL}")
    return out


def direct_log_deflator(X, dt, rate) -> np.ndarray:
    """ln D_t = -sum r(X) dt at left endpoints, for models with k = v = 0."""
    steps = rate(np.asarray(X)[:, :-1]) * dt
    out = np.zeros(steps.shape[:1] + (steps.shape[1] + 1,))
    np.cumsum(-steps, axis=1, out=out[:, 1:])
    return out


def check_identity(name, ln_d_reconstructed, ln_d_direct) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(ln_d_reconstructed) - ln_d_direct)))
    if not gap <= IDENTITY_TOL:
        return [f"{name}: identity gap {gap:.3e} above {IDENTITY_TOL}"]
    return []


def check_k_increments(name, K, dt) -> list[str]:
    """K is nonincreasing up to a per-step tolerance of 5 dt."""
    worst = float(np.max(np.diff(np.asarray(K), axis=1)))
    if not worst <= 5.0 * dt:
        return [f"{name}: K has an increment of {worst:.3e}, above 5 dt = {5 * dt:.1e}"]
    return []


def check_terminal_k(name, K, expected) -> list[str]:
    kt = np.asarray(K)[:, -1]
    worst = float(np.max(np.abs(kt - expected)))
    if not worst <= K_TERMINAL_TOL:
        return [f"{name}: K_T off the closed form {expected!r} by {worst:.3e} "
                f"(limit {K_TERMINAL_TOL})"]
    return []


def check_passed(name, passed) -> list[str]:
    return [] if passed else [f"{name}: verify_martingales(...).passed is false"]


def check_same_digests(name, first, digests) -> list[str]:
    if digests != first:
        changed = sorted(k for k in digests if digests.get(k) != first.get(k))
        return [f"{name}: artifacts differ from the first repeat: {', '.join(changed)}"]
    return []
