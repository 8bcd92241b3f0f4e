"""Driver matrices, the monotone marching scheme, and the long-run eigenpair."""

import functools
import math
import warnings

import numpy as np
import pytest

from gkernel import (
    CflError,
    ConvergenceError,
    Grid,
    IterationError,
    ModelSpec,
    PdeSolution,
    ShapeError,
    UncertaintySet,
    check_assumptions,
    pde_residual,
    solve_discounted,
    solve_ergodic,
    solve_parabolic,
    truncation_level,
)
from gkernel import pde
from gkernel.pde import nodal_gradient, nodal_hessian
from conftest import CONST_LAM, OU_LAM, quadratic_rate_lam, quadratic_rate_model, switching_model

THREE_MEMBERS = UncertaintySet.finite(
    [np.eye(2), [[1.0, 0.5], [0.5, 1.0]], [[1.2, -0.3], [-0.3, 0.9]]])


def affine_three_member_model(**extra) -> ModelSpec:
    """b_i = 0.05 - x_i, sigma = 0.2 I, r = x1 + x2 under three covariances."""
    return ModelSpec.build(
        m=2, d=2, b=["0.05 - 1.0 * x1", "0.05 - 1.0 * x2"],
        sigma=[[0.2, 0.0], [0.0, 0.2]], r="x1 + x2", uncertainty=THREE_MEMBERS, **extra)


def hamiltonian_at(x, grad, hess, model: ModelSpec):
    """H at a single point, from the batch kernel."""
    m = model.m
    return pde._hamiltonian_batch(
        model, np.reshape(np.asarray(x, dtype=float), (1, m)),
        np.reshape(np.asarray(grad, dtype=float), (1, m)),
        np.reshape(np.asarray(hess, dtype=float), (1, m, m)))[0]


def einsum_hamiltonian(grad, hess, pre):
    """The driver matrices by the literal einsum formula, term by term."""
    sig = pre["sigma"]
    hess_term = np.einsum("nab,nai,nbj->nij", hess, sig, sig)
    z = np.einsum("nlj,nl->nj", sig, grad)
    return (hess_term + 2.0 * np.einsum("nl,nijl->nij", grad, pre["h_eff"])
            - pre["two_k"] + pre["vv"] + np.einsum("ni,nj->nij", z, z))


def _oracle_model(m: int, d: int, state: bool, loaded: bool = True) -> ModelSpec:
    """Sigma, h, k and v state-dependent or constant; without ``loaded``, h, k
    and v are absent, so only the noise loading d_ij of sigma is left in h - d."""
    x = [f"x{i + 1}" for i in range(m)]
    sigma = [[f"0.2 + 0.1 * {x[a]} * {x[-1]}" if (a + i) % 2 == 0 else f"0.05 * {x[a]}"
              for i in range(d)] for a in range(m)] if state else \
        [[0.2 if a == i else 0.0 for i in range(d)] for a in range(m)]
    h = [[[f"0.01 * {x[l]}" if state else 0.01 * (1 + i + j + l) for l in range(m)]
          for j in range(d)] for i in range(d)]
    k = [[f"0.02 * {x[0]}" if state else 0.02 - 0.01 * (i != j) for j in range(d)]
         for i in range(d)]
    v = [f"0.3 - 0.1 * {x[-1]}" if state else 0.3 - 0.1 * i for i in range(d)]
    uncertainty = (UncertaintySet.interval(0.5, 1.0) if d == 1
                   else UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]))
    loadings = dict(h=h, k=k, v=v) if loaded else {}
    return ModelSpec.build(m=m, d=d, b=["0.0"] * m, sigma=sigma, r=0.0,
                           uncertainty=uncertainty, **loadings)


class TestHamiltonian:
    def test_noise_loading_term_only(self, const_model):
        H = hamiltonian_at([0.0], [0.0], [[0.0]], const_model)
        assert H.shape == (1, 1)
        assert H[0, 0] == pytest.approx(0.09, abs=1e-15)

    def test_all_zero_inputs(self, ou_model):
        H = hamiltonian_at([0.3], [0.0], [[0.0]], ou_model)
        assert H[0, 0] == 0.0

    def test_quadratic_gradient_term(self, ou_model):
        H = hamiltonian_at([0.0], [-1.0], [[0.0]], ou_model)
        assert H[0, 0] == pytest.approx(0.04, abs=1e-15)

    def test_output_symmetric_with_two_noises(self):
        model = ModelSpec.build(
            m=1, d=2, b=["-x1"], sigma=[[0.2, 0.3]], r=0.0,
            uncertainty=UncertaintySet.finite([np.eye(2)]),
            v=[0.1, 0.4], k=[[0.01, 0.02], [0.02, 0.03]],
        )
        H = hamiltonian_at([0.5], [0.7], [[0.4]], model)
        assert H.shape == (2, 2)
        assert np.allclose(H, H.T, atol=1e-15)

    @pytest.mark.parametrize("m,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("case", ["random", "signed_zeros", "broadcast_sigma"])
    def test_hessian_term_matches_einsum_bitwise(self, m, d, case):
        rng = np.random.default_rng(10 * m + d)
        n = 2000
        hess = rng.standard_normal((n, m, m))
        hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
        sig = rng.standard_normal((n, m, d))
        if case == "signed_zeros":
            sig[rng.random(sig.shape) < 0.3] = 0.0
            hess[rng.random(hess.shape) < 0.3] = -0.0
        elif case == "broadcast_sigma":  # a constant sigma from ModelSpec.evaluate
            sig = np.broadcast_to(sig[0], sig.shape)
        ref = np.einsum("nab,nai,nbj->nij", hess, sig, sig)
        for i in range(d):
            for j in range(d):
                got = pde._hessian_term(hess, sig, i, j)
                assert got.shape == (n,)
                assert np.array_equal(got.view(np.int64), ref[:, i, j].view(np.int64))

    @pytest.mark.parametrize("m,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("loaded", [True, False], ids=["loaded", "unloaded"])
    @pytest.mark.parametrize("state", [True, False], ids=["state_sigma", "broadcast_sigma"])
    @pytest.mark.parametrize("layout", ["rows", "columns"])
    def test_batch_matches_einsum_formula_bitwise(self, m, d, loaded, state, layout):
        model = _oracle_model(m, d, state, loaded)
        rng = np.random.default_rng(100 * m + 10 * d + state)
        n = 3000
        x = rng.uniform(-1.0, 1.0, (n, m))
        grad = rng.standard_normal((n, m)) * np.exp(rng.uniform(-8.0, 8.0, (n, m)))
        hess = rng.standard_normal((n, m, m)) * np.exp(rng.uniform(-8.0, 8.0, (n, 1, 1)))
        hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
        # signed zeros in the states, the derivatives and so in sigma, h, k and v
        x[rng.random((n, m)) < 0.1] = -0.0
        x[rng.random((n, m)) < 0.1] = 0.0
        grad[rng.random((n, m)) < 0.2] = -0.0
        hess[rng.random((n, m, m)) < 0.2] = -0.0
        # NaN rows: a NaN state (a state-dependent loading rejects it), a NaN
        # gradient, a NaN Hessian
        if not state:
            x[rng.random(n) < 0.02, 0] = np.nan
        grad[rng.random(n) < 0.02, -1] = np.nan
        hess[rng.random(n) < 0.02, 0, -1] = np.nan
        if layout == "columns":  # component-major, as the interpolant reads them
            grad = np.ascontiguousarray(grad.T).T
            hess = np.ascontiguousarray(hess.transpose(1, 2, 0)).transpose(2, 0, 1)
        pre = model.evaluate(x)
        if not state:
            assert pre["sigma"].strides[0] == 0
        ref = einsum_hamiltonian(grad, hess, pre)
        for given in (pre, None):
            got = pde._hamiltonian_batch(model, x, grad, hess, precomputed=given)
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert np.isnan(ref).any()


class TestGrid:
    def test_validation(self):
        with pytest.raises(ShapeError):
            Grid.build([(-1.0, 1.0)], [15])
        with pytest.raises(ShapeError):
            Grid.build([(1.0, 1.0)], [17])
        with pytest.raises(ShapeError):
            Grid.build([(-1.0, 1.0), (0.0, 1.0), (0.0, 1.0)], [17, 17, 17])
        with pytest.raises(ShapeError):
            Grid.build([(-1.0, 1.0)], [17, 17])
        with pytest.raises(ShapeError):
            Grid.build([(-1.0, 1.0)], [17], horizon=1.0)  # missing time_steps
        with pytest.raises(ShapeError):
            Grid.build([(-1.0, 1.0)], [17]).dt

    @pytest.mark.parametrize("bounds", [
        [(-math.inf, 1.0)], [(-1.0, math.inf)], [(-1.0, 1.0), (math.nan, 1.0)],
    ], ids=["1d-low-inf", "1d-high-inf", "2d-nan"])
    def test_non_finite_bound_rejected(self, bounds):
        with pytest.raises(ShapeError, match=r"axis \[.*\] must have finite bounds"):
            Grid.build(bounds, [17] * len(bounds))

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ShapeError, match=f"horizon must be finite, got {horizon}"):
            Grid.build([(-1.0, 1.0)], [17], horizon=horizon, time_steps=16)

    def test_non_integer_sizes_rejected(self):
        with pytest.raises(ShapeError, match="nodes must be an integer, got 33.9"):
            Grid.build([(-1.0, 1.0)], [33.9])
        with pytest.raises(ShapeError, match="nodes must be an integer"):
            Grid.build([(-1.0, 1.0), (0.0, 1.0)], [17, 17.0])
        with pytest.raises(ShapeError, match="time_steps must be an integer"):
            Grid.build([(-1.0, 1.0)], [17], horizon=1.0, time_steps=2.5)
        grid = Grid.build([(-1.0, 1.0)], [np.int64(33)], horizon=1.0, time_steps=np.int32(4))
        assert (grid.nodes, grid.time_steps) == ((33,), 4)
        assert type(grid.nodes[0]) is int and type(grid.time_steps) is int

    def test_anchor_is_nearest_node(self):
        grid = Grid.build([(-1.0, 1.0)], [21])
        assert grid.anchor_index() == (10,)
        assert grid.anchor_index([0.72]) == (17,)

    @pytest.mark.parametrize("nodes,point", [
        ([21], [0.5, 9.0]), ([21, 21], [0.5]), ([21, 21], [0.5, 0.1, 0.2]),
        ([21], [np.nan]), ([21, 21], [0.5, np.inf]),
    ], ids=["1d-long", "2d-short", "2d-long", "1d-nan", "2d-inf"])
    def test_anchor_needs_one_finite_coordinate_per_axis(self, nodes, point):
        grid = Grid.build([(-1.0, 1.0)] * len(nodes), nodes)
        with pytest.raises(ShapeError, match=f"anchor needs {len(nodes)} finite coordinates"):
            grid.anchor_index(point)

    @pytest.mark.parametrize("solve", [
        lambda model, grid: solve_ergodic(model, grid),
        lambda model, grid: solve_discounted(model, grid, 0.5),
        lambda model, grid: solve_parabolic(model, grid, 0.0),
    ], ids=["ergodic", "discounted", "parabolic"])
    def test_solvers_need_one_axis_per_state_coordinate(self, ou_model, solve):
        # 1D coefficients would otherwise broadcast over both axes of the grid
        grid = Grid.build([(-1.0, 1.0)] * 2, [17, 17], horizon=1.0, time_steps=16)
        with pytest.raises(ShapeError, match="grid has 2 axes, model state dimension is 1"):
            solve(ou_model, grid)
        grid = Grid.build([(-1.0, 1.0)], [17], horizon=1.0, time_steps=16)
        with pytest.raises(ShapeError, match="grid has 1 axes, model state dimension is 2"):
            solve(affine_three_member_model(), grid)

    def test_diffusion_cfl_value(self, const_model):
        grid = Grid.build([(-3.0, 3.0)], [65])
        h = 6.0 / 64
        assert grid.diffusion_cfl(const_model) == pytest.approx(
            h * h / (1.0 * 0.2**2 * 1 * 1.05), rel=1e-12)


class TestParabolic:
    def test_constant_model_level_growth(self, const_model):
        grid = Grid.build([(-3.0, 3.0)], [65], horizon=1.0, time_steps=64)
        sol = solve_parabolic(const_model, grid, 0.0)
        w0 = sol.values[0]
        assert np.max(np.abs(w0 - CONST_LAM)) < 1e-3

    def test_zero_horizon_returns_terminal(self, const_model):
        grid = Grid.build([(-3.0, 3.0)], [65], horizon=0.0)
        sol = solve_parabolic(const_model, grid, "max(x1, 0)")
        expected = np.maximum(grid.axes()[0], 0.0)
        assert np.array_equal(sol.values[0], expected)

    def test_pure_discount_integration(self):
        model = ModelSpec.build(
            m=1, d=1, b=["0.0"], sigma=[["0.2"]], r=0.03,
            uncertainty=UncertaintySet.interval(1.0, 1.0),
        )
        grid = Grid.build([(-1.0, 1.0)], [33], horizon=2.0, time_steps=256)
        sol = solve_parabolic(model, grid, 0.0)
        for q, t in enumerate(np.linspace(0.0, 2.0, 257)):
            assert np.max(np.abs(sol.values[q] + 0.03 * (2.0 - t))) < 1e-10

    def test_cfl_violation_raises(self, const_model):
        grid = Grid.build([(-3.0, 3.0)], [257], horizon=1.0, time_steps=16)
        with pytest.raises(CflError):
            solve_parabolic(const_model, grid, 0.0)

    def test_terminal_array_shape_checked(self, const_model):
        grid = Grid.build([(-3.0, 3.0)], [65], horizon=1.0, time_steps=64)
        with pytest.raises(ShapeError):
            solve_parabolic(const_model, grid, np.zeros(17))

    @pytest.mark.parametrize("terminal,node,value", [
        (np.where(np.arange(17) == 3, math.nan, 0.0), 3, "nan"),
        ("ln(x1)", 0, "nan"),
    ], ids=["nan-array", "log-expression"])
    def test_non_finite_terminal_rejected_before_the_march(self, terminal, node, value):
        # an input error, named at its node, not a divergence of the march
        model = ModelSpec.build(m=1, d=1, b=["-x1"], sigma=[[0.2]], r=0.02,
                                uncertainty=UncertaintySet.interval(0.5, 1.0))
        grid = Grid.build([(-1.0, 1.0)], [17], horizon=0.5, time_steps=8)
        with pytest.raises(ShapeError, match=rf"terminal must be finite .* node {node} .* {value}$"):
            solve_parabolic(model, grid, terminal)

    def test_comparison_principle(self, ou_model):
        grid = Grid.build([(-2.0, 2.0)], [33], horizon=0.5, time_steps=64)
        rng = np.random.default_rng(11)
        x = grid.axes()[0]
        for _ in range(4):
            lower = rng.normal(scale=0.5, size=x.size)
            upper = lower + rng.uniform(0.0, 1.0, size=x.size)
            w_up = solve_parabolic(ou_model, grid, upper).values
            w_lo = solve_parabolic(ou_model, grid, lower).values
            assert np.min(w_up - w_lo) >= -1e-12


def _setting_id(setting):
    return "{}={}".format(*next(iter(setting.items())))


def _no_stepper(*args, **kwargs):
    raise AssertionError("the operator was built before the settings were checked")


class TestDiscounted:
    def test_constant_model_level(self, const_model, const_grid):
        for delta in (0.5, 0.1):
            sol = solve_discounted(const_model, const_grid, delta)
            target = CONST_LAM / delta
            assert np.max(np.abs(sol.values - target)) < 1e-3 / delta

    def test_zero_drivers_zero_solution(self):
        model = ModelSpec.build(
            m=1, d=1, b=["-x1"], sigma=[["0.2"]], r=0.0,
            uncertainty=UncertaintySet.interval(0.8, 1.2),
        )
        sol = solve_discounted(model, Grid.build([(-1.0, 1.0)], [33]), 0.25)
        assert np.max(np.abs(sol.values)) < 1e-12

    def test_small_damping_approaches_eigenvalue(self, ou_model, ou_grid):
        sol = solve_discounted(ou_model, ou_grid, 0.01)
        anchor = ou_grid.anchor_index()[0]
        assert abs(0.01 * sol.values[anchor] - OU_LAM) < 5e-3

    def test_general_damping_weights(self, const_model):
        # gamma1 + 2 G(gamma2) = -1.5 + 2 * (0.5 * 0.5 * 1.0) = -1
        grid = Grid.build([(-3.0, 3.0)], [65])
        sol = solve_discounted(const_model, grid, 0.05, gamma1=-1.5, gamma2=0.5)
        anchor = grid.anchor_index()[0]
        assert abs(0.05 * sol.values[anchor] - CONST_LAM) < 1e-6
        assert np.ptp(sol.values) < 1e-9

    def test_normalization_violations(self, const_model, const_grid):
        with pytest.raises(ShapeError):
            solve_discounted(const_model, const_grid, 0.1, gamma1=-2.0)
        with pytest.raises(ShapeError):
            solve_discounted(const_model, const_grid, 0.1, gamma1=-1.0, gamma2=0.5)
        with pytest.raises(ShapeError):
            solve_discounted(const_model, const_grid, 0.0)
        with pytest.raises(ShapeError):
            solve_discounted(const_model, const_grid, 0.1, gamma2=np.eye(2))

    def test_sweep_budget_exhaustion(self, ou_model, ou_grid):
        with pytest.raises(IterationError) as err:
            solve_discounted(ou_model, ou_grid, 0.5, max_sweeps=3)
        assert err.value.last_residual is not None

    @pytest.mark.parametrize("setting", [
        {"delta": math.nan}, {"delta": math.inf}, {"tol": 0.0}, {"tol": -1.0},
        {"tol": math.nan}, {"tol": math.inf}, {"max_sweeps": 0}, {"max_sweeps": 2.5},
        {"max_sweeps": -5}, {"gamma1": math.nan},
    ], ids=_setting_id)
    def test_malformed_settings_rejected_before_solving(self, ou_model, setting, monkeypatch):
        monkeypatch.setattr(pde, "_Stepper", _no_stepper)
        with pytest.raises(ShapeError, match=next(iter(setting))):
            solve_discounted(ou_model, Grid.build([(-2.0, 2.0)], [17]), **{"delta": 0.5, **setting})


class TestErgodic:
    @pytest.mark.parametrize("setting", [
        {"tol": math.inf}, {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan},
        {"max_sweeps": 0}, {"max_sweeps": 2.5}, {"max_sweeps": -5}, {"gamma1": math.nan},
    ], ids=_setting_id)
    def test_malformed_settings_rejected_before_solving(self, ou_model, setting, monkeypatch):
        # out of range, a setting would reach Newton and fail there, or return a wrong lam
        monkeypatch.setattr(pde, "_Stepper", _no_stepper)
        with pytest.raises(ShapeError, match=next(iter(setting))):
            solve_ergodic(ou_model, Grid.build([(-2.0, 2.0)], [17]), **setting)

    @pytest.mark.parametrize("setting", [
        {"delta0": 0.5}, {"delta0": math.nan}, {"tol_inner": 1e-10}, {"tol_inner": 0.0},
        {"max_halvings": 20}, {"max_halvings": -5}, {"mode": "pricing"}, {"mode": "generic"},
        {"gradient_cap": math.inf}, {"gradient_cap": 2.0}, {"gradient_cap": math.nan},
    ], ids=_setting_id)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_retired_setting_rejected_before_solving(self, ou_model, dim, setting, monkeypatch):
        # settings that no solve reads are refused, their former defaults
        # included, before the operator is built
        monkeypatch.setattr(pde, "_Stepper", _no_stepper)
        model = ou_model if dim == 1 else affine_three_member_model()
        with pytest.raises(ShapeError, match=f"^{next(iter(setting))} is retired"):
            solve_ergodic(model, Grid.build([(-2.0, 2.0)] * dim, [17] * dim), **setting)

    def test_constant_model_eigenpair(self, const_sol):
        assert abs(const_sol.lam - CONST_LAM) < 1e-5
        assert const_sol.delta_trace == ((0.0, const_sol.lam),)
        assert np.max(np.abs(const_sol.u.values)) < 1e-8

    def test_mean_reverting_eigenpair(self, ou_sol, ou_grid):
        assert abs(ou_sol.lam - OU_LAM) < 1e-4
        x = ou_grid.axes()[0]
        central = (x >= -1.0) & (x <= 1.0)
        slope = np.polyfit(x[central], ou_sol.u.values[central], 1)[0]
        assert abs(slope + 1.0) < 1e-2

    def test_noise_loading_shifts_the_drift(self):
        # u = -x still; z - v = -(0.2 + 0.3), so lam = 1.2 (0.5)^2 / 2 - 0.05 = 0.1:
        # the operator's drift carries the shift -d = -sigma v of h - d_ij
        model = ModelSpec.build(m=1, d=1, b=["0.05 - 1.0 * x1"], sigma=[[0.2]], r="x1",
                                v=[0.3], uncertainty=UncertaintySet.interval(0.8, 1.2))
        grid = Grid.build([(-2.0, 2.0)], [65])
        sol = solve_ergodic(model, grid, tol=1e-10)
        assert abs(sol.lam - 0.1) < 1e-10
        assert np.max(np.abs(sol.u.values + grid.axes()[0])) < 1e-9

    def test_classical_reduction_is_zero(self):
        model = ModelSpec.build(
            m=1, d=1, b=["-x1"], sigma=[["0.2"]], r=0.0,
            uncertainty=UncertaintySet.interval(1.0, 1.0),
        )
        sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)], [65]), tol=1e-7)
        assert sol.lam == 0.0
        assert np.max(np.abs(sol.u.values)) == 0.0

    def test_degenerate_drivers_and_dynamics(self, classical_zero_model):
        sol = solve_ergodic(classical_zero_model, Grid.build([(-1.0, 1.0)], [17]), tol=1e-7)
        assert sol.lam == 0.0

    def test_curved_rate_against_closed_form(self):
        sol = solve_ergodic(
            quadratic_rate_model(), Grid.build([(-2.0, 2.0)], [129]),
            tol=1e-7)
        assert abs(sol.lam - quadratic_rate_lam()) < 5e-3

    def test_grid_insensitive_when_solution_is_affine(self, ou_model, ou_sol):
        # the affine eigenfunction is exact at any spacing, so both grids match
        coarse = solve_ergodic(
            ou_model, Grid.build([(-2.0, 2.0)], [129]), tol=1e-7)
        assert abs(coarse.lam - OU_LAM) < 5e-6
        assert abs(ou_sol.lam - OU_LAM) < 5e-6

    def test_rate_shift_moves_eigenvalue_linearly(self, ou_model):
        grid = Grid.build([(-2.0, 2.0)], [129])
        shifted = ModelSpec.build(
            m=1, d=1, b=["0.05 - 1.0 * x1"], sigma=[["0.2"]], r="x1 + 0.01",
            uncertainty=UncertaintySet.interval(0.8, 1.2),
        )
        lam0 = solve_ergodic(ou_model, grid, tol=1e-7).lam
        lam1 = solve_ergodic(shifted, grid, tol=1e-7).lam
        assert abs(lam1 - (lam0 - 0.01)) < 1e-6

    def test_anchor_invariance(self, ou_model):
        grid = Grid.build([(-2.0, 2.0)], [129])
        base = solve_ergodic(ou_model, grid, tol=1e-7)
        moved = solve_ergodic(ou_model, grid, tol=1e-7, anchor=[0.72])
        assert abs(moved.lam - base.lam) < 1e-6
        # off-anchor u differs by a constant only
        assert np.ptp(moved.u.values - base.u.values) < 1e-3
        assert moved.u.values[moved.anchor_index] == 0.0

    @pytest.mark.parametrize("nodes,anchor", [([33], [0.5, 9.0]), ([17, 17], [0.5])],
                             ids=["1d-long", "2d-short"])
    def test_anchor_of_wrong_length_rejected(self, nodes, anchor):
        m = len(nodes)
        model = ModelSpec.build(
            m=m, d=m, b=[f"0.05 - x{i + 1}" for i in range(m)],
            sigma=(0.2 * np.eye(m)).tolist(), r=" + ".join(f"x{i + 1}" for i in range(m)),
            uncertainty=UncertaintySet.finite([np.eye(m)]),
        )
        with pytest.raises(ShapeError, match=f"anchor needs {m} finite coordinates"):
            solve_ergodic(model, Grid.build([(-2.0, 2.0)] * m, nodes),
                          anchor=anchor)

    def test_non_cauchy_trace_raises(self, ou_model):
        with pytest.raises(ConvergenceError):
            solve_ergodic(ou_model, Grid.build([(-2.0, 2.0)], [33]), tol=1e-15)

    def test_general_damping_weights_eigenpair(self, const_model):
        # bordered residual max_c[S_c(u) + lam tr(Q_c gamma2)] + gamma1 lam at
        # constant u: 0.5 q (0.09 + lam) - 0.02 - 1.5 lam, maximal at q = 1
        sol = solve_ergodic(const_model, Grid.build([(-3.0, 3.0)], [65]), tol=1e-12,
                            gamma1=-1.5, gamma2=0.5)
        assert abs(sol.lam - CONST_LAM) < 1e-9
        assert np.max(np.abs(sol.u.values)) < 1e-9

    def test_damping_weights_keep_the_mean_reverting_eigenpair(self, ou_model):
        # gamma1 + 2 G(gamma2) = -1.6 + 1.2 * 0.5 = -1
        grid = Grid.build([(-2.0, 2.0)], [65])
        ref = solve_ergodic(ou_model, grid, tol=1e-10)
        sol = solve_ergodic(ou_model, grid, gamma1=-1.6, gamma2=0.5, tol=1e-10)
        assert abs(sol.lam - OU_LAM) < 1e-9
        assert np.max(np.abs(sol.u.values - ref.u.values)) < 1e-8

    def test_two_noise_finite_set_smoke(self):
        model = ModelSpec.build(
            m=1, d=2, b=["-x1"], sigma=[[0.2, 0.1]], r=0.02,
            uncertainty=UncertaintySet.finite([np.eye(2), 0.5 * np.eye(2)]),
            v=[0.3, 0.1],
        )
        sol = solve_ergodic(
            model, Grid.build([(-2.0, 2.0)], [65]), tol=1e-6)
        # constant u: lam = G(v v^T) - r with the identity member maximizing
        assert abs(sol.lam - (0.05 - 0.02)) < 1e-5
        assert np.max(np.abs(sol.u.values)) < 1e-6


class TestNewtonStress:
    """Models whose Newton residual rises before it converges.

    Howard's iteration need not decrease sup |F| at every step; Newton from
    u = 0 solves each of these models.  The weak mean reversion model has the
    affine solution u = -5 x, lam = 25; the others are judged by node
    doubling, where the upwind scheme's first-order error halves.
    """

    @staticmethod
    def _solve(model, bounds, nodes):
        return solve_ergodic(model, Grid.build([bounds], [nodes]), tol=1e-8).lam

    def test_weak_mean_reversion_affine(self):
        model = ModelSpec.build(
            m=1, d=1, b=["-0.2 * x1"], sigma=[[1.0]], r="x1",
            uncertainty=UncertaintySet.interval(0.5, 2.0),
        )
        assert abs(self._solve(model, (-6.0, 6.0), 257) - 25.0) < 1e-6

    @pytest.mark.parametrize("kind", ["quadratic_rate", "tanh_rate_with_k_v"])
    def test_node_doubling(self, kind):
        if kind == "quadratic_rate":
            model = ModelSpec.build(
                m=1, d=1, b=["-x1"], sigma=[[0.8]], r="4 * x1 * x1",
                uncertainty=UncertaintySet.interval(0.5, 1.5),
            )
            bounds = (-3.0, 3.0)
        else:
            model = ModelSpec.build(
                m=1, d=1, b=["-0.2 * x1"], sigma=[[1.0]], r="tanh(x1)", k=[[2.0]], v=[0.5],
                uncertainty=UncertaintySet.interval(0.5, 2.0),
            )
            bounds = (-6.0, 6.0)
        lams = [self._solve(model, bounds, n) for n in (129, 257, 513)]
        coarse, fine = lams[1] - lams[0], lams[2] - lams[1]
        assert abs(fine) < 1e-2
        assert 1.5 <= coarse / fine <= 4.0


class TestSolverLimits:
    """The ergodic eigenpair as the limit of the other two G-BSDE solvers.

    Vanishing discount: delta w_delta(anchor) = lam + O(delta), so the
    Richardson value 2 delta2 w_delta2 - delta1 w_delta1 at delta2 = delta1 / 2
    meets lam to second order.  Long horizon: the march from w(T) = 0 grows
    as w(0, x; T) = lam T + u(x) + c + o(1).  Each bound is about four times
    the measured gap.
    """

    @pytest.mark.parametrize("case,bound", [
        ("ou_1d", 7e-6), ("switching_1d", 4e-6), ("quadratic_1d", 2.7e-6),
        ("switching_2d", 1.1e-5),
    ], ids=["ou_1d", "switching_1d", "quadratic_1d", "switching_2d"])
    def test_vanishing_discount_meets_the_eigenvalue(self, ou_model, case, bound):
        if case == "switching_2d":
            model, grid, delta = switching_model(2), Grid.build([(-2.0, 2.0)] * 2, [17, 17]), 0.02
        else:
            model = {"ou_1d": ou_model, "switching_1d": switching_model(1),
                     "quadratic_1d": quadratic_rate_model()}[case]
            grid, delta = Grid.build([(-3.0, 3.0)], [257]), 0.0125
        lam = solve_ergodic(model, grid, tol=1e-10).lam
        a = grid.anchor_index()
        w1, w2 = (d * solve_discounted(model, grid, d).values[a] for d in (delta, delta / 2))
        assert abs(2.0 * w2 - w1 - lam) < bound

    @pytest.mark.parametrize("case,rate_bound,shape_bound", [
        ("ou", 3.5e-7, 4.5e-7), ("switching", 1.4e-6, 1.1e-7), ("quadratic", 5.5e-7, 2.2e-8),
        ("switching_2d", 9e-6, 2.6e-5),
    ], ids=["ou", "switching", "quadratic", "switching_2d"])
    def test_long_horizon_meets_the_eigenpair(self, ou_model, case, rate_bound, shape_bound):
        if case == "switching_2d":
            model, bounds, nodes, horizons = (switching_model(2), [(-2.0, 2.0)] * 2, [17, 17],
                                              (6.0, 12.0))
        else:
            model = {"ou": ou_model, "switching": switching_model(1),
                     "quadratic": quadratic_rate_model()}[case]
            bounds, nodes, horizons = [(-2.0, 2.0)], [129], (8.0, 16.0)
        grid = Grid.build(bounds, nodes)
        sol = solve_ergodic(model, grid, tol=1e-10)
        a = grid.anchor_index()
        if case in ("ou", "switching"):
            steps = 2.7 / grid.diffusion_cfl(model)  # per unit time, within the positivity bound
        else:
            # the diffusion bound / 2.7 exceeds the positivity bound on these models
            steps = 1.0001 / pde._Stepper(model, grid).stable_dt()
        w0 = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for horizon in horizons:
                marched = Grid.build(bounds, nodes, horizon=horizon,
                                     time_steps=math.ceil(horizon * steps))
                w0[horizon] = solve_parabolic(model, marched, 0.0).values[0]
        short, long = horizons
        assert abs((w0[long][a] - w0[short][a]) / (long - short) - sol.lam) < rate_bound
        shape = w0[long] - w0[long][a] - sol.u.values
        inner = np.all(np.abs(grid.points()) <= 1.0, axis=1).reshape(grid.shape)
        assert np.max(np.abs(shape[inner])) < shape_bound


class TestTwoFactor:
    def test_separable_sum_of_one_factor_eigenpairs(self):
        one = ModelSpec.build(
            m=1, d=1, b=["0.05 - 1.0 * x1"], sigma=[["0.2"]], r="x1",
            uncertainty=UncertaintySet.interval(1.0, 1.0),
        )
        two = ModelSpec.build(
            m=2, d=2, b=["0.05 - 1.0 * x1", "0.05 - 1.0 * x2"],
            sigma=[[0.2, 0.0], [0.0, 0.2]], r="x1 + x2",
            uncertainty=UncertaintySet.finite([np.eye(2)]),
        )
        sol1 = solve_ergodic(one, Grid.build([(-2.0, 2.0)], [65]), tol=1e-10)
        sol2 = solve_ergodic(two, Grid.build([(-2.0, 2.0)] * 2, [65, 65]), tol=1e-10)
        # u = -x per factor: lam = 2 (-kappa theta + sigma^2 / 2) = -0.06
        assert abs(sol2.lam - (-0.06)) < 1e-9
        assert abs(sol2.lam - 2.0 * sol1.lam) < 1e-9
        u1 = sol1.u.values
        assert np.max(np.abs(sol2.u.values - (u1[:, None] + u1[None, :]))) < 1e-8

    def test_affine_two_member_set(self):
        model = ModelSpec.build(
            m=2, d=2, b=["0.05 - 1.0 * x1", "0.05 - 1.0 * x2"],
            sigma=[[0.2, 0.0], [0.0, 0.2]], r="x1 + x2",
            uncertainty=UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]),
        )
        grid = Grid.build([(-2.0, 2.0)] * 2, [33, 33])
        sol = solve_ergodic(model, grid, tol=1e-10)
        # u = -(x1 + x2), z = (-0.2, -0.2): z^T Q z / 2 is largest (0.06) for
        # the correlated member, so lam = 0.06 - 2 * 0.05
        assert abs(sol.lam - (0.5 * 0.12 - 0.1)) < 1e-9
        pts = grid.points()
        assert np.max(np.abs(sol.u.values.ravel() + pts[:, 0] + pts[:, 1])) < 1e-8


    def test_affine_three_member_set(self):
        # u = -(x1 + x2), z = (-0.2, -0.2), lam = max_c z^T Q_c z / 2 - 0.1
        grid = Grid.build([(-2.0, 2.0)] * 2, [33, 33])
        sol = solve_ergodic(affine_three_member_model(), grid, tol=1e-10)
        z = np.array([-0.2, -0.2])
        lam = max(0.5 * z @ q @ z for q in THREE_MEMBERS.candidates()) - 0.1
        assert lam == pytest.approx(-0.04, abs=1e-15)
        assert abs(sol.lam - lam) < 1e-12
        pts = grid.points()
        assert np.max(np.abs(sol.u.values.ravel() + pts[:, 0] + pts[:, 1])) < 1e-8


# The per-candidate loop that the stacked operator of ``_Stepper`` replaced,
# kept as its oracle: one S_c at a time, then a left fold of np.maximum.


def _loop_differences(st, w):
    m = st.grid.m
    wp = pde._pad_linear_1d(w) if m == 1 else pde._pad_linear_2d(w.reshape(st.shape))
    core = wp[(slice(1, -1),) * m]
    pairs = []
    for ax, h in enumerate(st.hs):
        below = tuple(slice(None, -2) if a == ax else slice(1, -1) for a in range(m))
        above = tuple(slice(2, None) if a == ax else slice(1, -1) for a in range(m))
        pairs.append(((core - wp[below]) / h, (wp[above] - core) / h))
    return wp, pairs


def _loop_parts_1d(st, w):
    wp, ((dm, dp),) = _loop_differences(st, w)
    wxx = (wp[2:] - 2.0 * wp[1:-1] + wp[:-2]) / st.hs[0] ** 2
    quad = np.maximum(dp, 0.0) ** 2 + np.minimum(dm, 0.0) ** 2
    parts = []
    for c in range(st.n_cand):
        a = st.diff_c[c, 0, 0]
        vel = st.vel_c[c, 0]
        parts.append(0.5 * a * wxx + np.where(vel > 0.0, vel * dp, vel * dm)
                     + 0.5 * a * quad + st.const_c[c])
    return parts


def _loop_parts_2d(st, w):
    h1, h2 = st.hs
    wp, ((dm1, dp1), (dm2, dp2)) = _loop_differences(st, w)
    core = wp[1:-1, 1:-1]
    wxx = (wp[2:, 1:-1] - 2.0 * core + wp[:-2, 1:-1]) / h1**2
    wyy = (wp[1:-1, 2:] - 2.0 * core + wp[1:-1, :-2]) / h2**2
    wxy = (wp[2:, 2:] - wp[2:, :-2] - wp[:-2, 2:] + wp[:-2, :-2]) / (4.0 * h1 * h2)
    wxc = 0.5 * (dm1 + dp1)
    wyc = 0.5 * (dm2 + dp2)
    god1 = np.maximum(dp1, 0.0) ** 2 + np.minimum(dm1, 0.0) ** 2
    god2 = np.maximum(dp2, 0.0) ** 2 + np.minimum(dm2, 0.0) ** 2
    parts = []
    for c in range(st.n_cand):
        a11, a12, a22, v1, v2, const = (arr.reshape(st.shape) for arr in (
            st.diff_c[c, 0, 0], st.diff_c[c, 0, 1], st.diff_c[c, 1, 1],
            st.vel_c[c, 0], st.vel_c[c, 1], st.const_c[c]))
        parts.append((
            0.5 * (a11 * wxx + 2.0 * a12 * wxy + a22 * wyy)
            + np.where(v1 > 0.0, v1 * dp1, v1 * dm1)
            + np.where(v2 > 0.0, v2 * dp2, v2 * dm2)
            + 0.5 * (a11 * god1 + a22 * god2)
            + a12 * wxc * wyc
            + const
        ).ravel())
    return parts


def _loop_select(parts, policy):
    if policy is not None:
        return np.stack(parts)[policy, np.arange(parts[0].size)]
    return functools.reduce(np.maximum, parts)


def loop_residual(st, w, level=0.0, gamma2=None, policy=None):
    """S(w) assembled one candidate at a time."""
    parts = _loop_parts_1d(st, w) if st.grid.m == 1 else _loop_parts_2d(st, w)
    if gamma2 is not None:
        level = np.broadcast_to(level, w.shape)
        parts = [p + float(np.tensordot(q, gamma2)) * level for p, q in zip(parts, st.model.uncertainty.candidates())]
    return _loop_select(parts, policy) + st.f_base


def _state_dependent_1d(**extra):
    return ModelSpec.build(
        m=1, d=1, b=["0.05 - x1"], sigma=[["0.2 + 0.05 * tanh(x1)"]], r="x1",
        v=[0.3], k=[["0.01 * x1"]], h=[[["0.02 * tanh(x1)"]]],
        uncertainty=UncertaintySet.interval(0.8, 1.2), **extra)


def _state_dependent_2d():
    """The three-member set under a sigma whose cross term a12 varies by node, with h, k and v."""
    return ModelSpec.build(
        m=2, d=2, b=["0.05 - x1", "-0.5 * x2"],
        sigma=[["0.2 + 0.05 * tanh(x1)", 0.05], [0.0, "0.15 + 0.02 * x2"]], r="x1 * x2",
        h=[[["0.02 * x1", -0.01], [0.01, 0.02]], [[0.01, "0.02 * x2"], [0.02, -0.03]]],
        k=[["0.02 * x1", 0.004], [0.004, 0.01]], v=["0.1 * x1", -0.1],
        uncertainty=THREE_MEMBERS)


def _probes(n, rng):
    """Values with slopes of both signs, flat stretches (zero slopes) and a kink."""
    flat = np.zeros(n)
    flat[n // 3:] = 0.25
    return [rng.normal(size=n), np.cumsum(rng.normal(size=n)) * 0.1, flat,
            np.abs(np.linspace(-1.0, 1.0, n)) * 3.0]


# (model, grid, stepper keywords)
STACKED_CASES = {
    "1d-plain": (_state_dependent_1d, [65], {}),
    "1d-gamma2": (_state_dependent_1d, [65], {"gamma2": np.array([[-0.7]])}),
    "2d-three": (lambda: affine_three_member_model(v=[0.1, 0.2], k=[[0.01, "0.02 * x1"],
                                                                    ["0.02 * x1", 0.03]]),
                 [19, 17], {}),
    "2d-three-gamma2": (affine_three_member_model, [19, 17],
                        {"gamma2": np.array([[-0.2, 0.05], [0.05, -0.3]])}),
    "2d-state-sigma": (_state_dependent_2d, [19, 17], {}),
}


class TestStackedOperator:
    """Every candidate in one array pass equals the per-candidate loop byte for byte."""

    @pytest.mark.parametrize("case", list(STACKED_CASES))
    def test_residual_and_candidates_equal_the_loop(self, case):
        build, nodes, kwargs = STACKED_CASES[case]
        st = pde._Stepper(build(), Grid.build([(-2.0, 2.0)] * len(nodes), nodes), **kwargs)
        gamma2 = kwargs.get("gamma2")  # the loop takes it per call
        n = st.pts.shape[0]
        rng = np.random.default_rng(17)
        policy = rng.integers(0, st.n_cand, n)
        for w in _probes(n, rng):
            # a scalar level, as in the bordered solve, and one per node, as in the damped one
            for level in (0.37, 0.3 * w):
                ref = [loop_residual(st, w, level, gamma2, policy=c) for c in range(st.n_cand)]
                assert st.candidates(w, level).tobytes() == np.stack(ref).tobytes()
                assert (st.residual(w, level).tobytes()
                        == loop_residual(st, w, level, gamma2).tobytes())
                assert (st.residual(w, level, policy).tobytes()
                        == loop_residual(st, w, level, gamma2, policy).tobytes())

    def test_ties_and_signed_zeros_fold_left(self):
        # the max-reduce keeps the first candidate on ties, as the left fold does
        each = np.array([[0.0, -0.0, 1.0, np.nan], [-0.0, 0.0, 1.0, 2.0], [0.0, 0.0, np.nan, 1.0]])
        reduced = np.maximum.reduce(each, axis=0)
        assert reduced.tobytes() == functools.reduce(np.maximum, list(each)).tobytes()

    def test_march_2d_equals_the_loop_march(self):
        model = affine_three_member_model()
        grid = Grid.build([(-2.0, 2.0)] * 2, [19, 17], horizon=0.5, time_steps=100)
        pts = grid.points()
        terminal = (np.sin(2.0 * pts[:, 0]) * np.cos(pts[:, 1])).reshape(grid.shape)
        sol = solve_parabolic(model, grid, terminal)
        st = pde._Stepper(model, grid)
        w, hist = terminal.ravel(), [terminal.ravel()]
        for _ in range(grid.time_steps):
            w = w + grid.dt * loop_residual(st, w)
            hist.append(w)
        assert sol.values.tobytes() == np.stack(hist[::-1]).reshape(sol.values.shape).tobytes()


def _neighbour_weights(st, w, eps=1e-7):
    """The weight of w_j in row i of ``st.residual`` at w, off the diagonal (+inf
    on it): the lesser of the upward and downward one-sided differences, so at
    a tie between candidates, where the two sides differ, the worse one shows."""
    n = w.size
    base = st.residual(w)
    up, down = np.empty((n, n)), np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        up[:, j] = (st.residual(w + e) - base) / eps
        down[:, j] = (base - st.residual(w - e)) / eps
    for weights in (up, down):
        np.fill_diagonal(weights, np.inf)
    return np.minimum(up, down)


def _mean_reverting_1d(h):
    return ModelSpec.build(m=1, d=1, b=["0.05 - x1"], sigma=[[0.2]], r="x1", h=[[[h]]],
                           uncertainty=UncertaintySet.interval(0.8, 1.2))


def _mean_reverting_2d(cands):
    """sigma = 0.2 I and h_ii = 0.5 e_i under the finite set ``cands``."""
    h = [[[0.5 if i == j == l else 0.0 for l in range(2)] for j in range(2)] for i in range(2)]
    return ModelSpec.build(m=2, d=2, b=["0.05 - x1", "0.05 - x2"],
                           sigma=[[0.2, 0.0], [0.0, 0.2]], r="x1 + x2", h=h,
                           uncertainty=UncertaintySet.finite(cands))


_DIAGONAL = [np.eye(2), np.diag([1.2, 0.8]), np.diag([0.8, 1.2])]
_CROSS = [np.eye(2), np.array([[1.0, 0.3], [0.3, 1.0]])]


class TestMonotone:
    """The assembled operator weighs no neighbour negatively, and where it does."""

    @staticmethod
    def _stepper_and_states(model, nodes):
        grid = Grid.build([(-2.0, 2.0)] * len(nodes), nodes)
        u = solve_ergodic(model, grid, tol=1e-10).u.values.ravel()
        return pde._Stepper(model, grid), {"zero": np.zeros(u.size), "solved": u}

    @pytest.mark.parametrize("h,nodes,state", [
        (0.0, [33], "zero"), (0.0, [33], "solved"), (0.5, [33], "zero"), (0.5, [33], "solved"),
        (2.0, [33], "solved"), (None, [17, 17], "zero"), (None, [17, 17], "solved"),
    ], ids=["1d-h0-zero", "1d-h0-solved", "1d-h0.5-zero", "1d-h0.5-solved", "1d-h2-solved",
            "2d-diagonal-zero", "2d-diagonal-solved"])
    def test_no_negative_neighbour_weight(self, h, nodes, state):
        model = _mean_reverting_1d(h) if h is not None else _mean_reverting_2d(_DIAGONAL)
        st, states = self._stepper_and_states(model, nodes)
        assert np.min(_neighbour_weights(st, states[state])) >= -1e-6

    def test_outward_velocity_weighs_the_inward_neighbour_negatively(self):
        # at w = 0 every candidate ties, and Q = 1.2 moves out of the grid at
        # x = 2 with velocity 0.05 - 2 + 2 * 1.2 = 0.45: the ghost makes its
        # upwind difference the inward one, which weighs node 31 by -0.45 / h
        st, states = self._stepper_and_states(_mean_reverting_1d(2.0), [33])
        weights = _neighbour_weights(st, states["zero"])
        assert weights[-1, -2] == pytest.approx(-0.45 / 0.125, rel=1e-6)
        assert np.min(weights[:-1]) >= -1e-6 and np.min(np.delete(weights[-1], -2)) >= -1e-6

    @pytest.mark.parametrize("state", ["zero", "solved"])
    def test_cross_diffusion_weighs_diagonal_neighbours_negatively(self, state):
        # a12 = 0.3 * 0.2^2 = 0.012: the cross stencil of a12 w_xy weighs two
        # diagonal neighbours of each interior node by -a12 / (4 h^2), h = 0.25
        st, states = self._stepper_and_states(_mean_reverting_2d(_CROSS), [17, 17])
        weights = _neighbour_weights(st, states[state]).reshape(17, 17, 17, 17)
        interior = weights[1:-1, 1:-1]
        assert np.min(interior) == pytest.approx(-0.012 / 0.25, rel=1e-6)
        assert np.min(weights) < np.min(interior)  # the ghosts add more at the faces


class TestResidual:
    def test_exact_affine_solution(self, ou_model, ou_grid):
        values = -ou_grid.axes()[0]
        rep = pde_residual(values, ou_model, grid=ou_grid, lam=OU_LAM)
        assert rep.linf_interior < 1e-10

    def test_unsubtracted_level_shows_up(self, const_model, const_grid):
        rep = pde_residual(np.zeros(const_grid.shape), const_model, grid=const_grid)
        assert rep.linf_interior == pytest.approx(CONST_LAM, abs=1e-14)

    def test_constant_shift_invariance(self, ou_model, ou_sol, ou_grid):
        base = pde_residual(ou_sol.u.values, ou_model, grid=ou_grid, lam=ou_sol.lam)
        shifted = pde_residual(
            ou_sol.u.values + 1.0, ou_model, grid=ou_grid, lam=ou_sol.lam)
        assert shifted.linf_interior == pytest.approx(base.linf_interior, abs=1e-13)

    def test_ergodic_solution_interface(self, ou_sol, ou_model):
        rep = pde_residual(ou_sol, ou_model)
        assert rep.linf_interior < 1e-3

    def test_raw_array_needs_grid(self, ou_model):
        with pytest.raises(ShapeError):
            pde_residual(np.zeros(33), ou_model)

    def test_parabolic_history_has_no_report(self, const_model):
        grid = Grid.build([(-3.0, 3.0)], [65], horizon=1.0, time_steps=64)
        sol = solve_parabolic(const_model, grid, 0.0)
        assert np.isnan(sol.residual_linf) and np.isnan(sol.residual_l2)
        with pytest.raises(ShapeError, match="not on the grid"):
            pde_residual(sol, const_model)
        with pytest.raises(ShapeError, match="not on the grid"):
            pde_residual(sol.values, const_model, grid=grid)


class TestGradientBound:
    def test_taming_level_dominates_discrete_gradient(self):
        model = ModelSpec.build(
            m=1, d=1, b=["-x1"], sigma=[["0.2 + 0.05 * tanh(x1)"]],
            r="0.02 + 0.01 * tanh(x1)", v=[0.3],
            uncertainty=UncertaintySet.interval(0.5, 1.0),
        )
        rep = check_assumptions(model, [(-2.0, 2.0)], [41])
        assert rep.passed
        cap = truncation_level(
            mu=0.0, eta=rep.eta_hat, c_sigma=rep.c_sigma, c3=rep.c1, c_phi=0.0,
            sig_hi=1.0, sig_lo=math.sqrt(0.5), m_sigma=rep.m_sigma,
        )
        sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)], [129]), tol=1e-7)
        x = sol.grid.axes()[0]
        grad = np.gradient(sol.u.values, x)
        sig = model.eval_sigma(x[:, None])[:, 0, 0]
        central = (x >= -1.0) & (x <= 1.0)
        assert np.max(np.abs(sig * grad)[central]) <= cap
        assert np.max(np.abs(sig * grad)[central]) > 0.0


class TestInterpolation:
    @staticmethod
    def _query_points(axis, rng):
        lo, hi = axis[0], axis[-1]
        return np.concatenate([
            rng.uniform(lo - 1.0, hi + 1.0, 5000),
            axis, np.nextafter(axis, np.inf), np.nextafter(axis, -np.inf),
        ])

    def test_1d_fields_equal_np_interp_bitwise(self):
        rng = np.random.default_rng(3)
        for bounds, nodes in (((-3.0, 3.0), 257), ((0.1, 0.7), 16), ((-1e3, 7.3), 1001)):
            grid = Grid.build([bounds], [nodes])
            axis = grid.axes()[0]
            values = np.sin(3.0 * axis) + rng.normal(size=nodes)
            sol = PdeSolution(grid=grid, kind="stationary", values=values)
            x = self._query_points(axis, rng)
            xc = np.clip(x, axis[0], axis[-1])
            grad, hess = sol.derivatives_at(x[:, None])
            ref_grad = np.interp(xc, axis, nodal_gradient(values, grid)[:, 0])
            ref_hess = np.interp(xc, axis, nodal_hessian(values, grid)[:, 0, 0])
            assert np.array_equal(grad[:, 0].view(np.int64), ref_grad.view(np.int64))
            assert np.array_equal(hess[:, 0, 0].view(np.int64), ref_hess.view(np.int64))
            inside = x == xc
            ref_val = np.interp(x[inside], axis, values)
            assert np.array_equal(sol.value_at(x[inside][:, None]), ref_val)

    @staticmethod
    def _bilinear(arr, axes, xc):
        """The per-field bilinear read that the stacked gather replaces."""
        a0, a1 = axes
        i0 = np.clip(np.searchsorted(a0, xc[:, 0]) - 1, 0, a0.size - 2)
        i1 = np.clip(np.searchsorted(a1, xc[:, 1]) - 1, 0, a1.size - 2)
        t0 = (xc[:, 0] - a0[i0]) / (a0[i0 + 1] - a0[i0])
        t1 = (xc[:, 1] - a1[i1]) / (a1[i1 + 1] - a1[i1])
        return (arr[i0, i1] * (1 - t0) * (1 - t1) + arr[i0 + 1, i1] * t0 * (1 - t1)
                + arr[i0, i1 + 1] * (1 - t0) * t1 + arr[i0 + 1, i1 + 1] * t0 * t1)

    def test_2d_stacked_fields_equal_per_field_bilinear_bitwise(self):
        bilinear = self._bilinear
        rng = np.random.default_rng(5)
        grid = Grid.build([[-1.0, 1.0], [-2.0, 2.0]], [17, 21])
        axes = grid.axes()
        values = rng.normal(size=grid.shape)
        sol = PdeSolution(grid=grid, kind="stationary", values=values)
        x = np.concatenate([
            rng.uniform(-1.5, 1.5, (3000, 1)) * [1.0, 2.0],
            grid.points(),
            np.nextafter(grid.points(), np.inf),
        ])
        xc = np.clip(x, [-1.0, -2.0], [1.0, 2.0])
        grad, hess = sol.derivatives_at(x)
        g_nodes, h_nodes = nodal_gradient(values, grid), nodal_hessian(values, grid)
        for ax in range(2):
            ref = bilinear(g_nodes[..., ax], axes, xc)
            assert np.array_equal(grad[:, ax].view(np.int64), ref.view(np.int64))
            for bx in range(2):
                ref = bilinear(h_nodes[..., ax, bx], axes, xc)
                assert np.array_equal(hess[:, ax, bx].view(np.int64), ref.view(np.int64))
        ref_grad = np.stack([bilinear(g_nodes[..., ax], axes, xc) for ax in range(2)], axis=-1)
        ref_val = bilinear(values, axes, xc) + np.einsum("nl,nl->n", ref_grad, x - xc)
        assert np.array_equal(sol.value_at(x).view(np.int64), ref_val.view(np.int64))

    @pytest.mark.parametrize("bounds", [(0.0, 2.0), (-2.0, -0.0)], ids=["zero_low", "zero_high"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_signed_zero_and_nan_queries_read_as_through_np_clip(self, m, bounds):
        # a zero meeting a zero bound of the other sign, a NaN, and points beyond the box
        grid = Grid.build([bounds] * m, [33, 17][:m])
        axes, pts = grid.axes(), grid.points()
        values = np.sin(1.3 * pts.sum(axis=1)).reshape(grid.shape)
        sol = PdeSolution(grid=grid, kind="stationary", values=values)
        edge = np.array([-0.0, 0.0, np.nan, -3.0, 3.0, 1.0, -1.0])
        x = np.stack(np.meshgrid(*[edge] * m), axis=-1).reshape(-1, m)
        x = np.concatenate([x, np.random.default_rng(m).uniform(-2.5, 2.5, (200, m))])
        xc = np.clip(x, [a[0] for a in axes], [a[-1] for a in axes])
        grad, hess = sol.derivatives_at(x)
        g_nodes, h_nodes = nodal_gradient(values, grid), nodal_hessian(values, grid)
        for ax in range(m):
            ref = (np.interp(xc[:, 0], axes[0], g_nodes[:, 0]) if m == 1
                   else self._bilinear(g_nodes[..., ax], axes, xc))
            assert np.array_equal(grad[:, ax].view(np.int64), ref.view(np.int64))
            for bx in range(m):
                ref = (np.interp(xc[:, 0], axes[0], h_nodes[:, 0, 0]) if m == 1
                       else self._bilinear(h_nodes[..., ax, bx], axes, xc))
                assert np.array_equal(hess[:, ax, bx].view(np.int64), ref.view(np.int64))

    @staticmethod
    def _row_major_read(values, grid, x):
        """The 2D read before the fields went component-major: value, gradient and
        Hessian stacked per node, clamped by broadcasting, the cell found by
        binary search, one gather per corner for every field at once."""
        axes, nodes = grid.axes(), values.size
        lo, hi = np.array([a[0] for a in axes]), np.array([a[-1] for a in axes])
        derivs = np.concatenate([nodal_gradient(values, grid).reshape(nodes, 2),
                                 nodal_hessian(values, grid).reshape(nodes, 4)], axis=-1)
        xc = np.minimum(np.maximum(x, lo), hi)
        a0, a1 = axes
        i0 = np.minimum(np.maximum(np.searchsorted(a0, xc[:, 0]) - 1, 0), a0.size - 2)
        i1 = np.minimum(np.maximum(np.searchsorted(a1, xc[:, 1]) - 1, 0), a1.size - 2)
        t0 = (xc[:, 0] - a0[i0]) / (a0[i0 + 1] - a0[i0])
        t1 = (xc[:, 1] - a1[i1]) / (a1[i1 + 1] - a1[i1])
        k, stride = i0 * a1.size + i1, a1.size

        def read(field):
            w0, w1 = (t0[:, None], t1[:, None]) if field.ndim > 1 else (t0, t1)
            s0, s1 = 1 - w0, 1 - w1
            return (field.take(k, axis=0) * s0 * s1 + field.take(k + stride, axis=0) * w0 * s1
                    + field.take(k + 1, axis=0) * s0 * w1
                    + field.take(k + stride + 1, axis=0) * w0 * w1)

        d = read(derivs)
        value = read(values.reshape(nodes))
        delta = x - xc
        if np.any(delta):
            value = value + np.einsum("nl,nl->n", d[:, :2], delta)
        return value, d[:, :2], d[:, 2:].reshape(-1, 2, 2)

    @pytest.mark.parametrize("bounds", [[(-1.0, 1.0), (-2.0, 2.0)], [(0.0, 2.0), (-2.0, -0.0)],
                                        [(0.1, 0.7), (-1e3, 7.3)]], ids=["box", "zero", "odd"])
    @pytest.mark.parametrize("where", ["inside", "nodes", "beyond", "nan"])
    def test_2d_fused_lookup_equals_row_major_read_bitwise(self, bounds, where):
        rng = np.random.default_rng(7)
        grid = Grid.build(bounds, [17, 21])
        pts = grid.points()
        lo, hi = np.array(bounds).T
        values = (np.sin(3.0 * pts[:, 0] / hi[0]) * np.cos(pts[:, 1] / (hi[1] - lo[1]))
                  + rng.normal(size=len(pts))).reshape(grid.shape)
        values[3, 5] = 0.0  # an anchor-like zero node
        x = {
            "inside": lambda: lo + (hi - lo) * rng.random((3000, 2)),
            "nodes": lambda: np.concatenate([pts, np.nextafter(pts, np.inf),
                                             np.nextafter(pts, -np.inf)]).clip(lo, hi),
            "beyond": lambda: lo + (hi - lo) * rng.uniform(-0.5, 1.5, (3000, 2)),
            "nan": lambda: np.concatenate([
                np.stack(np.meshgrid(*[[-0.0, 0.0, np.nan, lo[i], hi[i], 2 * hi[i] - lo[i]]
                                       for i in range(2)]), axis=-1).reshape(-1, 2),
                lo + (hi - lo) * rng.uniform(-0.5, 1.5, (500, 2))]),
        }[where]()
        # and a field of -0.0, whose value beyond the grid keeps or drops the sign
        # by the order of the extension's sum
        for field in (values, np.full(grid.shape, -0.0)):
            sol = PdeSolution(grid=grid, kind="stationary", values=field)
            ref = self._row_major_read(field, grid, x)
            got = sol._fields_at(x)
            pairs = [(got[0], ref[0]), (got[1].T, ref[1]), (got[2].transpose(2, 0, 1), ref[2]),
                     (sol.value_at(x), ref[0])] + list(zip(sol.derivatives_at(x), ref[1:]))
            for a, b in pairs:
                assert a.shape == b.shape
                assert np.array_equal(np.ascontiguousarray(a).view(np.int64),
                                      np.ascontiguousarray(b).view(np.int64))
            assert np.any(np.isnan(ref[0])) == (where == "nan")

    @pytest.mark.parametrize("bounds,nodes", [((-3.0, 3.0), 257), ((0.1, 0.7), 16),
                                              ((-1e3, 7.3), 1001), ((0.0, 2.0), 33),
                                              ((-2.0, -0.0), 17), ((-2.0, 2.0), 2)])
    def test_2d_uniform_cell_is_searchsorted_left_cell(self, bounds, nodes):
        axis = Grid.build([bounds], [nodes]).axes()[0] if nodes > 2 else np.array(bounds)
        rng = np.random.default_rng(nodes)
        x = np.concatenate([axis, np.nextafter(axis, np.inf), np.nextafter(axis, -np.inf),
                            rng.uniform(axis[0], axis[-1], 5000), [-0.0, 0.0]])
        x = x[(x >= axis[0]) & (x <= axis[-1])]
        ref = np.clip(np.searchsorted(axis, x) - 1, 0, axis.size - 2)
        assert np.array_equal(pde._uniform_left_cell(axis, x), ref)
        # a node is the right end of its cell, the first node the left end of the first
        assert np.array_equal(pde._uniform_left_cell(axis, axis),
                              np.maximum(np.arange(axis.size) - 1, 0))

    def test_derivatives_at_equals_the_fused_lookup(self, ou_sol):
        rng = np.random.default_rng(4)
        grid2 = Grid.build([[-1.0, 1.0], [-2.0, 2.0]], [17, 21])
        pts = grid2.points()
        vals2 = (np.sin(pts[:, 0]) * np.cos(pts[:, 1]) + pts[:, 0] * pts[:, 1]).reshape(17, 21)
        sol2 = PdeSolution(grid=grid2, kind="stationary", values=vals2)
        x1 = rng.uniform(-3.0, 3.0, (500, 1))
        x2 = rng.uniform(-2.5, 2.5, (500, 2))
        for sol, x in ((ou_sol, x1), (sol2, x2)):
            grad, hess = sol.derivatives_at(x)
            value, grad_cm, hess_cm = sol._fields_at(x)
            m = x.shape[1]
            assert grad.shape == (500, m) and hess.shape == (500, m, m)
            assert np.array_equal(grad, grad_cm.T) and np.array_equal(hess, hess_cm.transpose(2, 0, 1))
            assert np.array_equal(sol.value_at(x), value)
        assert np.allclose(hess, np.swapaxes(hess, 1, 2))

    def test_parabolic_hessian_reads_its_time_slice(self, ou_model):
        grid = Grid.build([[-2.0, 2.0]], [33], horizon=0.5, time_steps=64)
        axis = grid.axes()[0]
        sol = solve_parabolic(ou_model, grid, np.exp(-axis**2))
        x = np.linspace(-2.5, 2.5, 41)[:, None]
        for q in (0, 17, 64):
            ref = np.interp(np.clip(x[:, 0], -2.0, 2.0), axis,
                            nodal_hessian(sol.values[q], grid)[:, 0, 0])
            assert np.array_equal(sol.derivatives_at(x, q * grid.dt)[1][:, 0, 0], ref)
        assert not np.array_equal(sol.derivatives_at(x, 0.0)[1], sol.derivatives_at(x, 0.5)[1])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_parabolic_query_time_must_be_finite(self, t):
        grid = Grid.build([[-2.0, 2.0]], [17], horizon=0.5, time_steps=8)
        sol = PdeSolution(grid=grid, kind="parabolic", values=np.zeros((9, 17)))
        x = np.zeros((3, 1))
        for query in (sol.value_at, sol.derivatives_at, sol.coverage_excess):
            with pytest.raises(ShapeError, match=f"query time must be finite, got {t}"):
                query(x, t)

    @pytest.mark.parametrize("steps,q", [(8.4, 8), (-0.4, 0), (8.6, None), (-0.6, None)],
                             ids=["end_in", "start_in", "end_out", "start_out"])
    def test_parabolic_query_time_rounds_to_the_nearest_slice(self, steps, q):
        grid = Grid.build([[-2.0, 2.0]], [17], horizon=0.5, time_steps=8)
        values = np.repeat(np.arange(9.0)[:, None], 17, axis=1)
        sol = PdeSolution(grid=grid, kind="parabolic", values=values)
        x, t = np.zeros((3, 1)), steps * grid.dt
        if q is None:
            with pytest.raises(ShapeError, match="is outside the solved horizon"):
                sol.value_at(x, t)
        else:
            assert np.array_equal(sol.value_at(x, t), np.full(3, float(q)))

    @pytest.mark.parametrize("t", [100.0, -3.0])
    def test_parabolic_query_time_must_lie_in_the_horizon(self, t):
        grid = Grid.build([[-2.0, 2.0]], [17], horizon=0.5, time_steps=8)
        # slice q holds the value q, so a clamped query would read 0 or 8
        values = np.repeat(np.arange(9.0)[:, None], 17, axis=1)
        sol = PdeSolution(grid=grid, kind="parabolic", values=values)
        x = np.zeros((3, 1))
        assert np.array_equal(sol.value_at(x, 0.5), np.full(3, 8.0))
        for query in (sol.value_at, sol.derivatives_at, sol.coverage_excess):
            with pytest.raises(ShapeError, match=rf"query time {t} is outside the solved "
                                                 rf"horizon \[0, 0.5\]"):
                query(x, t)
