"""Shared model and solution fixtures.

The two reference models mirror the package's worked examples: a
constant-coefficient kernel whose long-run rate is known in closed form
(-r0 + v^2 sig_hi^2 / 2) and a mean-reverting model whose eigenpair is
affine (u = -x / kappa up to a constant).  Expensive ergodic solves are
session-scoped so the whole suite shares them.
"""

import numpy as np
import pytest

from gkernel import Grid, ModelSpec, UncertaintySet, solve_ergodic

CONST_LAM = 0.025          # -0.02 + 0.09 * 1.0 / 2
OU_LAM = -0.026            # 1.2 * 0.04 / 2 - 0.05
OU_KAPPA = 1.0
OU_THETA = 0.05


@pytest.fixture(scope="session")
def const_model() -> ModelSpec:
    return ModelSpec.build(
        m=1, d=1,
        b=["-1.0 * x1"],
        sigma=[[0.2]],
        r=0.02,
        v=[0.3],
        uncertainty=UncertaintySet.interval(0.5, 1.0),
        label="constant-kernel",
    )


@pytest.fixture(scope="session")
def const_grid() -> Grid:
    return Grid.build([[-3.0, 3.0]], [257])


@pytest.fixture(scope="session")
def const_sol(const_model, const_grid):
    return solve_ergodic(const_model, const_grid, tol=1e-7)


@pytest.fixture(scope="session")
def ou_model() -> ModelSpec:
    return ModelSpec.build(
        m=1, d=1,
        b=["0.05 - 1.0 * x1"],
        sigma=[[0.2]],
        r="x1",
        uncertainty=UncertaintySet.interval(0.8, 1.2),
        label="mean-reverting",
    )


@pytest.fixture(scope="session")
def ou_grid() -> Grid:
    return Grid.build([[-2.0, 2.0]], [257])


@pytest.fixture(scope="session")
def ou_sol(ou_model, ou_grid):
    return solve_ergodic(ou_model, ou_grid, tol=1e-7)


@pytest.fixture(scope="session")
def classical_zero_model() -> ModelSpec:
    """Degenerate ambiguity and all coefficients zero."""
    return ModelSpec.build(
        m=1, d=1,
        b=[0.0],
        sigma=[[0.0]],
        r=0.0,
        uncertainty=UncertaintySet.interval(1.0, 1.0),
        label="classical-zero",
    )


def switching_model(m: int) -> ModelSpec:
    """Models on which the worst-case policy picks each extreme on some states."""
    if m == 1:
        # the covariation loading k changes sign with x1
        return ModelSpec.build(
            m=1, d=1, b=["0.05 - x1"], sigma=[[0.2]], r="x1 * x1", k=[["0.3 * x1"]],
            v=[0.05], uncertainty=UncertaintySet.interval(0.8, 1.2),
        )
    # r curved in x1 makes the policy switch between the two members
    return ModelSpec.build(
        m=2, d=2, b=["0.05 - x1", "0.05 - x2"], sigma=[[0.2, 0.0], [0.05, 0.2]],
        r="x1 * x1 + x2", k=[[0.01, 0.005], [0.005, 0.02]], v=[0.1, -0.05],
        uncertainty=UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]),
    )


def quadratic_rate_model() -> ModelSpec:
    """Classical (single-scenario) model with a genuinely curved value.

    With r = x^2 the eigenfunction is quadratic, so discretization error
    actually moves with the mesh; used for convergence-order checks.
    """
    return ModelSpec.build(
        m=1, d=1,
        b=["0.05 - 1.0 * x1"],
        sigma=[[0.2]],
        r="x1 * x1",
        uncertainty=UncertaintySet.interval(1.0, 1.0),
        label="quadratic-rate",
    )


def quadratic_rate_lam() -> float:
    """Closed-form long-run rate of ``quadratic_rate_model``.

    Substituting u = alpha x^2 + beta x into the stationary equation
    with q = 1, sigma = 0.2, kappa = 1, theta = 0.05 and matching powers
    of x gives a quadratic for alpha and linear relations for beta and
    the rate.
    """
    q, sig2, kappa, theta = 1.0, 0.04, 1.0, 0.05
    alpha = (2.0 * kappa - np.sqrt(4.0 * kappa**2 + 8.0 * q * sig2)) / (4.0 * q * sig2)
    beta = 2.0 * kappa * theta * alpha / (kappa - 2.0 * q * sig2 * alpha)
    return float(q * sig2 * alpha + 0.5 * q * sig2 * beta**2 + kappa * theta * beta)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdict lines after the test summary."""
    import sys

    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
