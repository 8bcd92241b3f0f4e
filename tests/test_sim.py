"""Scenario simulation, streaming deflator estimators, and control policies."""

import collections
import math

import numpy as np
import pytest

from gkernel import (
    ConstantControl,
    DivergenceError,
    EvaluationError,
    FeedbackControl,
    Grid,
    InvalidSetError,
    ModelSpec,
    PiecewiseControl,
    ShapeError,
    UncertaintySet,
    VolControl,
    compute_components,
    extreme_controls,
    long_term_yield_mc,
    simulate_gsde,
    solve_ergodic,
    upper_price_mc,
    worst_case_policy,
)
from gkernel import sim
from conftest import CONST_LAM


def _classical(sig="0.2", r=0.0, b="0.0", v=None):
    return ModelSpec.build(
        m=1, d=1, b=[b], sigma=[[sig]], r=r, v=v,
        uncertainty=UncertaintySet.interval(1.0, 1.0),
    )


class TestPathGeneration:
    def test_deterministic_ode_reduction(self):
        model = _classical(sig="0.0", b="-x1")
        batch = simulate_gsde(model, ConstantControl(1.0), [1.0], 1.0, 0.01, 3)
        final = batch.X[:, -1, 0]
        assert np.ptp(final) == 0.0
        assert abs(final[0] - math.exp(-1.0)) < 2 * 0.01

    def test_quadratic_variation_exact_classical(self):
        batch = simulate_gsde(_classical(), ConstantControl(1.0), [0.0], 1.0, 0.01, 4)
        assert np.max(np.abs(batch.QV[:, -1, 0, 0] - 1.0)) < 1e-12

    def test_quadratic_variation_exact_bang_bang(self):
        model = ModelSpec.build(
            m=1, d=1, b=["0.0"], sigma=[["0.2"]], r=0.0,
            uncertainty=UncertaintySet.interval(0.8, 1.2),
        )
        ctl = PiecewiseControl([0.0, 0.5], [1.2, 0.8])
        batch = simulate_gsde(model, ctl, [0.0], 1.0, 1.0 / 64, 4)
        assert np.max(np.abs(batch.QV[:, -1, 0, 0] - 1.0)) < 1e-12
        # left-closed segments: step at t=0.5 already uses the second matrix
        k_half = 32
        assert np.all(batch.Q[:, k_half - 1, 0, 0] == 1.2)
        assert np.all(batch.Q[:, k_half, 0, 0] == 0.8)

    def test_quadratic_variation_sandwich(self, ou_model, ou_sol):
        policy = worst_case_policy(ou_sol, ou_model)
        batch = simulate_gsde(ou_model, policy, [0.1], 1.0, 0.02, 16, seed=2)
        t = batch.times[1:]
        qv = batch.QV[:, 1:, 0, 0]
        assert np.all(qv >= 0.8 * t - 1e-12)
        assert np.all(qv <= 1.2 * t + 1e-12)

    def test_classical_terminal_variance(self):
        batch = simulate_gsde(_classical(), ConstantControl(1.0), [0.0], 2.0, 0.02, 20_000)
        sample_var = float(np.var(batch.B[:, -1, 0])) / 2.0
        assert abs(sample_var - 1.0) < 4 * math.sqrt(2.0 / 20_000)

    def test_batch_accessors(self, const_model):
        batch = simulate_gsde(const_model, ConstantControl(1.0), [0.3], 0.5, 0.05, 6, seed=9)
        assert batch.n_paths == 6
        assert batch.n_steps == 10
        assert batch.dt == pytest.approx(0.05)
        assert batch.X.shape == (6, 11, 1)
        assert batch.noise.shape == (6, 10, 1)
        assert batch.control_label == "constant"


class TestReproducibility:
    def test_same_seed_bitwise(self, const_model):
        a = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 8, seed=4)
        b = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 8, seed=4)
        for name in ("noise", "B", "QV", "X", "Q"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_chunking_does_not_change_draws(self, const_model):
        a = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 9, seed=4)
        b = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 9, seed=4,
                          chunk_size=2)
        for name in ("noise", "B", "QV", "X", "Q"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_offset_runs_tile_the_big_run(self, const_model):
        whole = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 10, seed=4)
        head = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 6, seed=4)
        tail = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 4, seed=4,
                             path_offset=6)
        assert np.array_equal(whole.X[:6], head.X)
        assert np.array_equal(whole.X[6:], tail.X)
        assert np.array_equal(whole.noise[6:], tail.noise)

    def test_path_slice_view(self, const_model):
        whole = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 10, seed=4)
        part = whole.path_slice(3, 7)
        assert part.n_paths == 4
        assert part.path_offset == 3
        assert np.array_equal(part.X, whole.X[3:7])

    def test_different_seeds_differ(self, const_model):
        a = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 4, seed=1)
        b = simulate_gsde(const_model, ConstantControl(0.7), [0.0], 1.0, 0.05, 4, seed=2)
        assert not np.array_equal(a.noise, b.noise)


class TestValidation:
    def test_step_resolution(self, const_model):
        ctl = ConstantControl(1.0)
        with pytest.raises(ShapeError):
            simulate_gsde(const_model, ctl, [0.0], 1.0, 1.5, 2)  # dt > T
        with pytest.raises(ShapeError):
            simulate_gsde(const_model, ctl, [0.0], 1.0, 0.3, 2)  # does not divide
        with pytest.raises(ShapeError):
            simulate_gsde(const_model, ctl, [0.0], 1.0, -0.1, 2)
        with pytest.raises(ShapeError):
            simulate_gsde(const_model, ctl, [0.0], 0.0, 0.1, 2)

    def test_memory_guard(self, const_model):
        with pytest.raises(ShapeError):
            simulate_gsde(const_model, ConstantControl(1.0), [0.0], 1.0, 1e-3, 100_000)

    def test_x0_shape(self, const_model):
        with pytest.raises(ShapeError):
            simulate_gsde(const_model, ConstantControl(1.0), [0.0, 0.0], 1.0, 0.1, 2)
        with pytest.raises(ShapeError):
            upper_price_mc(const_model, None, 1.0, dt=0.1, n_paths=2, x0=[0.1, 0.2])
        with pytest.raises(ShapeError):
            long_term_yield_mc(const_model, [0.5, 1.0], ConstantControl(1.0), dt=0.1,
                               n_paths=2, x0=[0.1, 0.2])

    def test_control_membership(self, const_model):
        with pytest.raises(InvalidSetError):
            simulate_gsde(const_model, ConstantControl(2.0), [0.0], 1.0, 0.1, 2)
        with pytest.raises(InvalidSetError):
            simulate_gsde(
                const_model, PiecewiseControl([0.0, 0.5], [1.0, 0.2]), [0.0], 1.0, 0.1, 2)

    def test_piecewise_breakpoints(self):
        with pytest.raises(ShapeError):
            PiecewiseControl([0.5, 1.0], [1.0, 1.0])  # must start at 0
        with pytest.raises(ShapeError):
            PiecewiseControl([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ShapeError):
            PiecewiseControl([0.0, 0.5], [1.0])

    def test_constant_control_shape(self):
        with pytest.raises(ShapeError):
            ConstantControl(np.zeros((1, 2)))

    def test_feedback_output_shape_checked(self, const_model):
        bad = FeedbackControl(lambda t, x: np.ones((x.shape[0], 2)))
        with pytest.raises(ShapeError):
            simulate_gsde(const_model, bad, [0.0], 1.0, 0.1, 2)

    @pytest.mark.parametrize("sizes", [
        dict(n_paths=0), dict(n_paths=-3), dict(n_paths=2.0),
        dict(n_paths=4, chunk_size=0), dict(n_paths=4, chunk_size=-2),
    ], ids=["no_paths", "negative_paths", "float_paths", "zero_chunk", "negative_chunk"])
    @pytest.mark.parametrize("entry", ["simulate_gsde", "upper_price_mc", "long_term_yield_mc"])
    def test_sizes_rejected_before_simulating(self, const_model, entry, sizes, monkeypatch):
        def no_draws(*args):
            raise AssertionError("simulated before the sizes were checked")

        monkeypatch.setattr(sim, "_chunk_draws", no_draws)
        ctl = ConstantControl(1.0)
        run = {
            "simulate_gsde": lambda: simulate_gsde(const_model, ctl, [0.0], 1.0, 0.1, **sizes),
            "upper_price_mc": lambda: upper_price_mc(const_model, None, 1.0, dt=0.1, **sizes),
            "long_term_yield_mc": lambda: long_term_yield_mc(const_model, [0.5, 1.0], ctl,
                                                             dt=0.1, **sizes),
        }[entry]
        with pytest.raises(ShapeError, match="n_paths" if "chunk_size" not in sizes
                           else "chunk_size"):
            run()


class TestPolicies:
    def test_extreme_controls_interval(self, const_model):
        ctls = extreme_controls(const_model.uncertainty)
        assert [c.label for c in ctls] == ["upper", "lower"]
        assert ctls[0].q[0, 0] == 1.0
        assert ctls[1].q[0, 0] == 0.5

    def test_extreme_controls_degenerate(self):
        ctls = extreme_controls(UncertaintySet.interval(1.0, 1.0))
        assert [c.label for c in ctls] == ["upper"]

    def test_extreme_controls_finite(self):
        sset = UncertaintySet.finite([np.eye(2), 0.5 * np.eye(2)])
        ctls = extreme_controls(sset)
        assert [c.label for c in ctls] == ["member_0", "member_1"]

    def test_worst_case_picks_upper_when_driver_positive(self, const_model, const_sol):
        policy = worst_case_policy(const_sol, const_model)
        q = policy.matrices(0.0, np.array([[0.0], [1.2], [-2.0]]))
        assert np.allclose(q[:, 0, 0], 1.0)

    def test_worst_case_on_mean_reverting(self, ou_model, ou_sol):
        q = worst_case_policy(ou_sol, ou_model).matrices(0.0, np.array([[0.0], [0.5]]))
        assert np.allclose(q[:, 0, 0], 1.2)

    def test_worst_case_flips_to_lower_when_driver_negative(self, const_sol):
        model = ModelSpec.build(
            m=1, d=1, b=["-x1"], sigma=[["0.2"]], r=0.02, v=[0.3], k=[[0.5]],
            uncertainty=UncertaintySet.interval(0.5, 1.0),
        )
        q = worst_case_policy(const_sol, model).matrices(0.0, np.array([[0.0]]))
        assert np.allclose(q[:, 0, 0], 0.5)


class TestPricing:
    def test_classical_discount_bond(self):
        model = _classical(r=0.03)
        pe = upper_price_mc(model, None, 2.0, dt=0.05, n_paths=64, seed=1)
        assert pe.estimate == pytest.approx(math.exp(-0.06), abs=1e-12)
        assert pe.stderr < 1e-12

    def test_martingale_payoff_prices_to_zero(self):
        model = ModelSpec.build(
            m=1, d=1, b=["0.0"], sigma=[["0.2"]], r=0.0,
            uncertainty=UncertaintySet.interval(0.5, 1.0),
        )
        pe = upper_price_mc(model, "x1", 1.0, dt=1.0 / 64, n_paths=4000, seed=5)
        assert abs(pe.estimate) <= 3 * pe.stderr

    def test_constant_model_upper_price(self, const_model):
        pe = upper_price_mc(const_model, None, 1.0, dt=1.0 / 64, n_paths=20_000, seed=11)
        assert pe.control == "upper"
        assert abs(pe.estimate - math.exp(CONST_LAM)) <= 3 * pe.stderr

    def test_larger_covariance_dominates(self, const_model):
        qs = [0.5, 0.625, 0.75, 0.875, 1.0]
        ctls = [ConstantControl(q, label=f"q{q}") for q in qs]
        pe = upper_price_mc(const_model, None, 1.0, ctls, dt=1.0 / 64,
                            n_paths=2000, seed=3)
        means = [pe.table[f"q{q}"][0] for q in qs]
        ses = [pe.table[f"q{q}"][1] for q in qs]
        for lo, hi, se in zip(means, means[1:], ses):
            assert hi >= lo - 3 * se
        assert pe.control == "q1.0"

    def test_callable_payoff_and_start_point(self, const_model):
        pe = upper_price_mc(
            const_model, lambda x: np.maximum(x[:, 0], 0.0), 0.5,
            dt=0.05, n_paths=256, seed=2, x0=[2.0])
        # starting far in the money, the payoff is near the (mean-reverted) state
        assert 0.5 < pe.estimate < 2.5

    def test_empty_controls_rejected(self, const_model):
        with pytest.raises(ShapeError):
            upper_price_mc(const_model, None, 1.0, [], dt=0.1, n_paths=16)

    @staticmethod
    def _assert_joint_equals_separate(model, controls, x0):
        # every control in one call shares each chunk's draws; the table
        # must equal pricing each control on its own, bit for bit
        kw = dict(dt=0.01, n_paths=2000, seed=13, x0=x0, chunk_size=700)
        payoff = "1.0 + max(x1, 0.0)"
        joint = upper_price_mc(model, payoff, 1.0, controls, **kw)
        assert list(joint.table) == [c.label for c in controls]
        for ctl in controls:
            alone = upper_price_mc(model, payoff, 1.0, [ctl], **kw)
            assert [v.hex() for v in joint.table[ctl.label]] == [
                v.hex() for v in alone.table[ctl.label]]
        return joint

    def test_joint_pricing_matches_separate_runs(self, const_model, const_sol):
        controls = extreme_controls(const_model.uncertainty)
        controls.append(worst_case_policy(const_sol, const_model))
        self._assert_joint_equals_separate(const_model, controls, [0.1])

    def test_joint_pricing_matches_separate_runs_2d(self):
        members = [np.eye(2), np.array([[1.0, 0.3], [0.3, 0.5]])]
        model = ModelSpec.build(
            m=1, d=2, b=["-x1"], sigma=[["0.2", "0.1"]], r=0.02, v=[0.3, -0.1],
            uncertainty=UncertaintySet.finite(members),
        )
        controls = extreme_controls(model.uncertainty)
        cands = model.uncertainty.candidates()
        controls.append(FeedbackControl(
            lambda t, x: np.where((x[:, 0] > 0.0)[:, None, None], cands[0], cands[1]),
            label="switch"))
        # a feedback control takes the per-step eigh root of the same matrix
        # that a constant control roots once
        controls.append(FeedbackControl(
            lambda t, x: np.broadcast_to(cands[1], (x.shape[0], 2, 2)),
            label="member_1_feedback"))
        joint = self._assert_joint_equals_separate(model, controls, [0.0])
        assert np.any(cands[1] != np.diag(np.diag(cands[1])))
        assert joint.table["member_1_feedback"] == joint.table["member_1"]


class TestYield:
    def test_classical_rate_recovered_exactly(self):
        model = _classical(r=0.03)
        ye = long_term_yield_mc(model, [5.0, 10.0], ConstantControl(1.0),
                                dt=0.05, n_paths=32, seed=1)
        assert ye.rates == pytest.approx([-0.03, -0.03], abs=1e-12)
        assert ye.lam_fit == pytest.approx(-0.03, abs=1e-12)
        assert ye.transient_fit == pytest.approx(0.0, abs=1e-10)

    def test_constant_model_growth_rate(self, const_model):
        ye = long_term_yield_mc(
            const_model, [5.0, 10.0, 20.0], ConstantControl(1.0, label="upper"),
            dt=0.05, n_paths=40_000, seed=7)
        for rate, se in zip(ye.rates, ye.stderrs):
            assert abs(rate - CONST_LAM) <= 3 * se
        assert abs(ye.lam_fit - CONST_LAM) < 2e-3
        assert ye.control == "upper"

    def test_single_horizon_rejected(self, const_model):
        with pytest.raises(ShapeError):
            long_term_yield_mc(const_model, [5.0], ConstantControl(1.0))

    def test_non_dividing_horizon_rejected(self, const_model):
        with pytest.raises(ShapeError):
            long_term_yield_mc(const_model, [5.0, 10.3], ConstantControl(1.0), dt=0.5)

    @pytest.mark.parametrize("first", [0.0, -1.0])
    def test_non_positive_horizon_rejected_before_simulating(self, const_model, first,
                                                             monkeypatch):
        def no_draws(*args):
            raise AssertionError("simulated before the horizons were checked")

        monkeypatch.setattr(sim, "_chunk_draws", no_draws)
        with pytest.raises(ShapeError):
            long_term_yield_mc(const_model, [first, 1.0], ConstantControl(1.0), dt=0.5,
                               n_paths=4)

    def test_degenerate_run_reports_horizon(self):
        model = ModelSpec.build(
            m=1, d=1, b=["0.0"], sigma=[["0.2"]], r=0.0, v=[600.0],
            uncertainty=UncertaintySet.interval(0.5, 1.0),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                long_term_yield_mc(model, [5.0, 10.0], ConstantControl(1.0),
                                   dt=0.1, n_paths=8, seed=3)
        assert err.value.where is not None


class TestStreamingMatchesHistory:
    """The streaming estimators march the same paths as ``simulate_gsde``.

    The deflated payoff mean of ``upper_price_mc`` is compared with the
    one read off ``compute_components`` on a full-history batch drawn
    with the same seed.  The decomposition differences B back into
    increments, so the two agree to round-off rather than bitwise.
    """

    @staticmethod
    def _assert_same_mean(model, control, solution, x0):
        def payoff(x):
            return 1.0 + np.maximum(x[:, 0], 0.0)

        kw = dict(dt=0.02, n_paths=500, seed=17, x0=x0)
        streamed = upper_price_mc(model, payoff, 1.0, [control], chunk_size=200, **kw)
        batch = simulate_gsde(model, control, x0, 1.0, kw["dt"], kw["n_paths"],
                              seed=kw["seed"])
        dec = compute_components(batch, solution, model)
        direct = float(np.mean(np.exp(dec.ln_D_direct[:, -1]) * payoff(batch.X[:, -1])))
        mean = streamed.table[control.label][0]
        assert abs(mean - direct) <= 1e-12 * abs(direct)
        return batch

    def test_constant_control_1d(self, const_model, const_sol):
        self._assert_same_mean(const_model, ConstantControl(0.7), const_sol, [0.1])

    def test_worst_case_policy_2d(self):
        # r curved in x1 makes the policy switch between the two members
        model = ModelSpec.build(
            m=2, d=2, b=["0.05 - x1", "0.05 - x2"], sigma=[[0.2, 0.0], [0.05, 0.2]],
            r="x1 * x1 + x2",
            uncertainty=UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]),
        )
        sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)] * 2, [17, 17]), tol=1e-10,
                            check=False)
        policy = worst_case_policy(sol, model)
        batch = self._assert_same_mean(model, policy, sol, [-0.1, 0.1])
        assert 0.0 < np.mean(batch.Q[..., 0, 1] > 0.0) < 1.0


def _switching_model(m):
    """Models on which the worst-case policy picks each extreme on some states."""
    if m == 1:
        # the covariation loading k changes sign with x1
        model = ModelSpec.build(
            m=1, d=1, b=["0.05 - x1"], sigma=[[0.2]], r="x1 * x1", k=[["0.3 * x1"]],
            v=[0.05], uncertainty=UncertaintySet.interval(0.8, 1.2),
        )
        grid = Grid.build([(-2.0, 2.0)], [65])
    else:
        # r curved in x1 makes the policy switch between the two members
        model = ModelSpec.build(
            m=2, d=2, b=["0.05 - x1", "0.05 - x2"], sigma=[[0.2, 0.0], [0.05, 0.2]],
            r="x1 * x1 + x2", k=[[0.01, 0.005], [0.005, 0.02]], v=[0.1, -0.05],
            uncertainty=UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]),
        )
        grid = Grid.build([(-2.0, 2.0)] * 2, [17, 17])
    return model, solve_ergodic(model, grid, tol=1e-10, check=False)


def _const_kernel_2d():
    """The two-member constant kernel: only the drift depends on the state."""
    model = ModelSpec.build(
        m=2, d=2, b=["-1.0 * x1", "-1.0 * x2"], sigma=[[0.2, 0.0], [0.0, 0.2]], r=0.02,
        v=[0.3, 0.3],
        uncertainty=UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]),
    )
    return model, solve_ergodic(model, Grid.build([(-3.0, 3.0)] * 2, [17, 17]), tol=1e-7)


class TestCoefficientBundle:
    """Each step evaluates the model once and shares it with the control."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_policy_picks_same_with_and_without_bundle(self, m):
        model, sol = _switching_model(m)
        policy = worst_case_policy(sol, model)
        x = np.random.default_rng(m).uniform(-2.5, 2.5, (3000, m))
        plain = policy.matrices(0.0, x)  # the policy evaluates the model itself
        shared, _ = policy.matrices_and_roots(0.0, x, coeffs=model.evaluate(x))
        assert np.array_equal(plain, shared)
        assert len(np.unique(shared.reshape(len(x), -1), axis=0)) == 2

    def test_bundle_of_another_model_is_not_used(self):
        model, sol = _switching_model(2)
        other = ModelSpec.build(
            m=2, d=2, b=["0.0", "0.0"], sigma=[[1.0, 0.0], [0.0, 1.0]], r=0.0, v=[3.0, -3.0],
            uncertainty=model.uncertainty,
        )
        policy = worst_case_policy(sol, model)
        x = np.random.default_rng(5).uniform(-2.0, 2.0, (500, 2))
        q, _ = policy.matrices_and_roots(0.0, x, coeffs=other.evaluate(x))
        assert np.array_equal(q, policy.matrices(0.0, x))

    def test_control_overriding_only_matrices_still_simulates(self):
        model, _ = _switching_model(2)
        q = [[1.0, 0.5], [0.5, 1.0]]

        class Fixed(VolControl):
            label = "fixed"

            def matrices(self, t, x):
                return np.broadcast_to(np.asarray(q), (x.shape[0], 2, 2))

        mine = simulate_gsde(model, Fixed(), [0.1, -0.1], 0.5, 0.01, 40, seed=3)
        ref = simulate_gsde(model, ConstantControl(q), [0.1, -0.1], 0.5, 0.01, 40, seed=3)
        assert np.array_equal(mine.X, ref.X)
        priced = upper_price_mc(model, None, 0.5, [Fixed()], dt=0.01, n_paths=40, seed=3)
        ref_priced = upper_price_mc(model, None, 0.5, [ConstantControl(q, label="fixed")],
                                    dt=0.01, n_paths=40, seed=3)
        assert priced.table == ref_priced.table

    @pytest.mark.parametrize("entry", ["simulate_gsde", "upper_price_mc"])
    def test_nan_constant_named(self, entry):
        model = ModelSpec.build(
            m=1, d=1, b=["-x1"], sigma=[[math.nan]], r=0.02, v=[0.3],
            uncertainty=UncertaintySet.interval(0.5, 1.0),
        )
        for _ in range(2):  # the failed check leaves nothing cached
            with pytest.raises(EvaluationError, match=r"sigma\[0\]\[0\]"):
                if entry == "simulate_gsde":
                    simulate_gsde(model, ConstantControl(1.0), [0.0], 0.5, 0.1, 4)
                else:
                    upper_price_mc(model, None, 0.5, dt=0.1, n_paths=4)

    @pytest.mark.parametrize("kernel", ["const_1d", "const_2d", "state_1d"])
    def test_each_coefficient_evaluated_once_per_control_step(self, kernel, const_model,
                                                              const_sol, monkeypatch):
        if kernel == "const_1d":
            model, sol = const_model, const_sol
        elif kernel == "const_2d":
            model, sol = _const_kernel_2d()
        else:  # every tensor depends on the state
            model = ModelSpec.build(
                m=1, d=1, b=["0.05 - x1"], sigma=[["0.2 + 0.05 * tanh(x1)"]],
                r="0.02 + 0.1 * x1", k=[["0.01 * x1"]], v=["0.1 + 0.05 * x1"],
                h=[[["0.02 * x1"]]], uncertainty=UncertaintySet.interval(0.7, 1.3),
            )
            sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)], [65]), tol=1e-7, check=False)
        counts = collections.Counter()
        for name in ("b", "sigma", "r", "k", "v", "h", "dij", "h_effective"):
            orig = getattr(ModelSpec, f"eval_{name}")
            monkeypatch.setattr(
                ModelSpec, f"eval_{name}",
                lambda self, x, _n=name, _f=orig: counts.update([_n]) or _f(self, x))
        controls = extreme_controls(model.uncertainty) + [worst_case_policy(sol, model)]
        n_paths, chunk, n_steps = 120, 50, 20
        upper_price_mc(model, None, 1.0, controls, dt=1.0 / n_steps, n_paths=n_paths,
                       chunk_size=chunk)
        control_steps = len(controls) * -(-n_paths // chunk) * n_steps
        # the step reads b on every control-step, the deflator r
        assert counts["b"] == control_steps
        if kernel == "state_1d":
            assert counts["r"] == control_steps
        assert counts["dij"] == counts["h_effective"] == 0
        for name in ("sigma", "r", "k", "v", "h"):
            # a constant tensor is checked at most once per model
            assert counts[name] <= (control_steps if kernel == "state_1d" else 1), name
