"""Scenario simulation, streaming deflator estimators, and control policies."""

import collections
import concurrent.futures
import itertools
import math
import threading
import tracemalloc

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
    PdeSolution,
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
from gkernel import model as model_mod
from gkernel import pde, sim
from gkernel.gcore import _candidate_scores
from conftest import CONST_LAM, switching_model


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

    def test_constant_scenarios_keep_their_broadcasts(self):
        ctl = PiecewiseControl([0.0, 0.5], [1.44, 0.64])
        x3, x5 = np.zeros((3, 1)), np.zeros((5, 1))
        q, root = ctl.matrices_and_roots(0.1, x3)
        assert ctl.matrices_and_roots(0.2, x3)[0] is q  # kept for the row count
        later, later_root = ctl.matrices_and_roots(0.7, x3)
        assert np.all(later == 0.64) and np.all(later_root == 0.8)
        assert np.all(ctl.matrices(0.3, x3) == 1.44) and np.all(root == 1.2)
        assert ctl.matrices_and_roots(0.1, x5)[1].shape == (5, 1, 1)
        const = ConstantControl(1.44)
        q, root = const.matrices_and_roots(0.0, x5)
        assert q.shape == root.shape == (5, 1, 1) and np.all(root == 1.2)
        assert not q.flags.writeable and const.matrices(1.0, x5) is q

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["simulate_gsde", "upper_price_mc", "long_term_yield_mc"])
    def test_non_finite_start_point_rejected(self, const_model, entry, bad, monkeypatch):
        def no_draws(*args):
            raise AssertionError("simulated before the start point was checked")

        monkeypatch.setattr(sim, "_chunk_draws", no_draws)
        ctl = ConstantControl(1.0)
        run = {
            "simulate_gsde": lambda: simulate_gsde(const_model, ctl, [bad], 1.0, 0.1, 2),
            "upper_price_mc": lambda: upper_price_mc(const_model, None, 1.0, dt=0.1, n_paths=2,
                                                     x0=[bad]),
            "long_term_yield_mc": lambda: long_term_yield_mc(const_model, [0.5, 1.0], ctl,
                                                             dt=0.1, n_paths=2, x0=[bad]),
        }[entry]
        with pytest.raises(ShapeError, match="x0 must be finite"):
            run()

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_piecewise_breakpoints_must_be_finite(self, bad):
        # a NaN breakpoint would pass the ordering check and hide every later segment
        with pytest.raises(ShapeError, match="piecewise breakpoints must be finite"):
            PiecewiseControl([0.0, bad], [1.0, 0.5])

    def test_constant_control_shape(self):
        with pytest.raises(ShapeError):
            ConstantControl(np.zeros((1, 2)))

    @pytest.mark.parametrize("mats", [
        [[[1.0, 2.0, 3.0]]],                  # (1, 3): would broadcast to 3 x 3
        [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],  # (2, 3)
        [1.0, [[1.0, 0.0], [0.0, 1.0]]],       # 1 x 1, then 2 x 2
    ])
    def test_piecewise_segments_are_square_and_of_one_shape(self, mats):
        with pytest.raises(ShapeError):
            PiecewiseControl([0.0, 0.5][:len(mats)], mats)

    def test_feedback_output_shape_checked(self, const_model):
        bad = FeedbackControl(lambda t, x: np.ones((x.shape[0], 2)))
        with pytest.raises(ShapeError):
            simulate_gsde(const_model, bad, [0.0], 1.0, 0.1, 2)

    @pytest.mark.parametrize("entry", ["simulate_gsde", "upper_price_mc", "long_term_yield_mc"])
    def test_feedback_non_finite_covariance_named(self, entry):
        # k and v are absent, so no deflator sum would carry the NaN along
        model = ModelSpec.build(m=1, d=1, b=[0.0], sigma=[[0.2]], r=0.02,
                                uncertainty=UncertaintySet.interval(0.5, 1.0))
        bad = FeedbackControl(lambda t, x: np.full((x.shape[0], 1, 1), np.nan if t > 0.2 else 1.0),
                              label="bad")
        run = {
            "simulate_gsde": lambda: simulate_gsde(model, bad, [0.0], 1.0, 0.1, 4),
            "upper_price_mc": lambda: upper_price_mc(model, None, 1.0, [bad], dt=0.1, n_paths=4),
            "long_term_yield_mc": lambda: long_term_yield_mc(model, [0.5, 1.0], bad, dt=0.1,
                                                             n_paths=4),
        }[entry]
        with pytest.raises(DivergenceError, match=r"'bad'.*non-finite.*t=0\.3"):
            run()

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


    @pytest.mark.parametrize("T,dt", [
        (math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan), (1.0, math.inf), (1e308, 1e-300),
    ], ids=["inf_horizon", "nan_horizon", "nan_step", "inf_step", "overflowing_ratio"])
    @pytest.mark.parametrize("entry", ["simulate_gsde", "upper_price_mc", "long_term_yield_mc"])
    def test_non_finite_horizon_or_step_rejected(self, const_model, entry, T, dt, monkeypatch):
        def no_draws(*args):
            raise AssertionError("simulated before the horizon was checked")

        monkeypatch.setattr(sim, "_chunk_draws", no_draws)
        ctl = ConstantControl(1.0)
        run = {
            "simulate_gsde": lambda: simulate_gsde(const_model, ctl, [0.0], T, dt, 4),
            "upper_price_mc": lambda: upper_price_mc(const_model, None, T, dt=dt, n_paths=4),
            "long_term_yield_mc": lambda: long_term_yield_mc(const_model, [T, 2.0 * T], ctl,
                                                             dt=dt, n_paths=4),
        }[entry]
        with pytest.raises(ShapeError, match="finite"):
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

    def test_piecewise_roots_each_segment_once(self, monkeypatch):
        members = [np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]
        model = ModelSpec.build(
            m=1, d=2, b=["-x1"], sigma=[["0.2", "0.1"]], r=0.02, v=[0.3, -0.1],
            uncertainty=UncertaintySet.finite(members),
        )
        piecewise = PiecewiseControl([0.0, 0.25], members[::-1])
        # the per-step root of every row, as the piecewise control took it before
        per_step = FeedbackControl(piecewise.matrices, label="piecewise")
        kw = dict(dt=0.05, n_paths=30, seed=4, x0=[0.1])
        ref_batch = simulate_gsde(model, per_step, [0.1], 0.5, 0.05, 30, seed=4)
        ref_price = upper_price_mc(model, None, 0.5, [per_step], **kw)

        def no_roots(q):
            raise AssertionError("a piecewise step took a root")

        monkeypatch.setattr(sim, "_sqrt_psd", no_roots)
        batch = simulate_gsde(model, piecewise, [0.1], 0.5, 0.05, 30, seed=4)
        assert batch.X.tobytes() == ref_batch.X.tobytes()
        assert batch.B.tobytes() == ref_batch.B.tobytes()
        assert batch.Q.tobytes() == ref_batch.Q.tobytes()
        price = upper_price_mc(model, None, 0.5, [piecewise], **kw)
        assert [v.hex() for v in price.table["piecewise"]] == [
            v.hex() for v in ref_price.table["piecewise"]]

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

    def test_duplicate_labels_rejected(self, const_model):
        # the table is keyed by label, so one entry would hide the other
        with pytest.raises(ShapeError, match="distinct"):
            upper_price_mc(const_model, None, 1.0, [ConstantControl(1.0), ConstantControl(0.5)],
                           dt=0.1, n_paths=16)

    def test_non_finite_mean_named(self, const_model):
        # sqrt of a state that turns negative is NaN under every control
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match="'upper'"):
            upper_price_mc(const_model, "sqrt(x1)", 1.0, dt=0.1, n_paths=64, x0=[0.0])
        # a NaN mean next to a finite one is named, not left out of the supremum
        model = ModelSpec.build(m=1, d=1, b=["0.0"], sigma=[["1.0"]], r=0.0,
                                uncertainty=UncertaintySet.interval(1e-12, 1.0))
        controls = [ConstantControl(1e-12, label="still"), ConstantControl(1.0, label="moving")]
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match="'moving'"):
            upper_price_mc(model, "sqrt(x1)", 1.0, controls, dt=0.1, n_paths=64, x0=[0.5])

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


class _OwnStep(ConstantControl):
    """Holds the scenario ``q`` but steps with ``stepped``."""

    def __init__(self, q, stepped, label):
        super().__init__(q, label=label)
        self.stepped = ConstantControl(stepped)

    def matrices_and_roots(self, t, x, coeffs=None):
        return self.stepped.matrices_and_roots(t, x, coeffs)


def _mixed_controls(model, sol):
    """The certified policy, every extreme, a second copy of the policy's
    candidate, a piecewise control and a control that holds the policy's
    candidate but steps with another; and the number of marches they need."""
    policy = worst_case_policy(sol, model)
    assert policy.uniform is not None
    extremes = extreme_controls(model.uncertainty)
    cands = model.uncertainty.candidates()
    win, other = cands[policy.uniform], cands[1 - policy.uniform]
    controls = extremes + [
        policy,
        ConstantControl(win, label="again"),
        PiecewiseControl([0.0, 0.5], [other, win]),
        _OwnStep(win, other, label="own_step"),
    ]
    # one march for the policy, its extreme and the copy; one for the other
    # extreme; one each for the piecewise control and the subclass
    return controls, 4


class TestSharedMarch:
    """Controls that apply one fixed scenario share one march per chunk; every
    table entry equals pricing its control alone, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_mixed_controls_equal_separate_runs(self, m, const_model, const_sol):
        model, sol = (const_model, const_sol) if m == 1 else _const_kernel_2d()
        controls, _ = _mixed_controls(model, sol)
        TestPricing._assert_joint_equals_separate(model, controls, [0.1] * m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_model_evaluation_per_march_step(self, m, const_model, const_sol, monkeypatch):
        model, sol = (const_model, const_sol) if m == 1 else _const_kernel_2d()
        controls, marches = _mixed_controls(model, sol)
        calls = []
        real = ModelSpec.evaluate
        monkeypatch.setattr(ModelSpec, "evaluate",
                            lambda self, x: calls.append(1) or real(self, x))
        assert len(sim._march_groups(controls)) == marches
        n_paths, chunk, n_steps = 120, 50, 20
        upper_price_mc(model, None, 1.0, controls, dt=1.0 / n_steps, n_paths=n_paths,
                       chunk_size=chunk, x0=[0.1] * m)
        # the marches of a chunk are one row-stacked batch: one evaluation per step
        assert len(calls) == -(-n_paths // chunk) * n_steps

    def test_subclass_that_steps_otherwise_marches_alone(self, const_model):
        hi, lo = const_model.uncertainty.candidates()
        own = _OwnStep(hi, lo, label="own_step")
        assert own._fixed_scenario() is None
        kw = dict(dt=0.05, n_paths=200, seed=4, x0=[0.1])
        joint = upper_price_mc(const_model, None, 1.0, [ConstantControl(hi), own], **kw)
        ref = upper_price_mc(const_model, None, 1.0, [ConstantControl(lo, label="own_step")],
                             **kw)
        assert joint.table["own_step"] == ref.table["own_step"] != joint.table["constant"]

    @pytest.mark.parametrize("policy_first", [True, False])
    def test_nan_rows_fall_back_to_separate_marches(self, policy_first):
        # sigma dB overflows to +-inf on the first steps and to inf - inf = NaN
        # after, on constant coefficients that a NaN state can still evaluate;
        # k dQV = q per step keeps the deflator finite and tells the picks apart
        model = ModelSpec.build(m=1, d=1, b=[0.0], sigma=[[1e300]], r=0.0, k=[[1e-20]],
                                uncertainty=UncertaintySet.interval(0.5, 1.0))
        cands = np.stack(model.uncertainty.candidates())
        # certified to the lower candidate; a row with a NaN coordinate picks
        # the upper one, as the full worst-case pick does where H is NaN
        policy = sim._CandidatePolicy(
            lambda t, x, coeffs: np.where(np.isnan(x).any(axis=1), 0, 1), cands,
            label="worst_case", uniform=1)
        lower = ConstantControl(cands[1], label="lower")
        controls = [policy, lower] if policy_first else [lower, policy]
        assert len(sim._march_groups(controls)) == 1
        kw = dict(dt=1e20, n_paths=64, seed=9, x0=[0.0], chunk_size=20)
        with np.errstate(over="ignore", invalid="ignore"):
            joint = upper_price_mc(model, None, 3e20, controls, **kw)
            alone = {c.label: upper_price_mc(model, None, 3e20, [c], **kw).table[c.label]
                     for c in controls}
        for label, entry in alone.items():
            assert [v.hex() for v in joint.table[label]] == [v.hex() for v in entry]
        assert joint.table["worst_case"] != joint.table["lower"]


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

    @pytest.mark.parametrize("horizons", [[1.0, 1.0], [1.0, 1.0 + 1e-12], [2.0, 2.0, 2.0]])
    def test_repeated_horizons_rejected_before_simulating(self, horizons, monkeypatch):
        def no_draws(*args):
            raise AssertionError("simulated a fit that has one distinct horizon")

        # the fit would split the rate -0.02 into lam = transient = -0.01
        model = ModelSpec.build(m=1, d=1, b=["-1.0 * x1"], sigma=[[0.2]], r=0.02,
                                uncertainty=UncertaintySet.interval(0.5, 1.0))
        monkeypatch.setattr(sim, "_chunk_draws", no_draws)
        with pytest.raises(ShapeError, match="two distinct horizons"):
            long_term_yield_mc(model, horizons, ConstantControl(1.0), dt=0.1, n_paths=200)

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

    def test_peak_memory_holds_one_chunk_of_draws(self, const_model):
        """Every chunk is drawn into one reused buffer, so a run of three chunks
        holds one chunk's draws at a time, not two."""
        chunk, n_steps = 1000, 1000
        draws = 8 * chunk * n_steps
        tracemalloc.start()
        try:
            long_term_yield_mc(const_model, [0.5, 1.0], ConstantControl(1.0), dt=1.0 / n_steps,
                               n_paths=3 * chunk, seed=2, chunk_size=chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * draws, (peak, draws)


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
        sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)] * 2, [17, 17]), tol=1e-10)
        policy = worst_case_policy(sol, model)
        batch = self._assert_same_mean(model, policy, sol, [-0.1, 0.1])
        assert 0.0 < np.mean(batch.Q[..., 0, 1] > 0.0) < 1.0


def _switching_model(m):
    """``conftest.switching_model`` and its eigenpair."""
    model = switching_model(m)
    grid = Grid.build([(-2.0, 2.0)] * m, [65] if m == 1 else [17, 17])
    return model, solve_ergodic(model, grid, tol=1e-10)


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
            sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)], [65]), tol=1e-7)
        counts = collections.Counter()
        for name in ("b", "sigma", "r", "k", "v", "h", "dij", "h_effective"):
            orig = getattr(ModelSpec, f"eval_{name}")
            monkeypatch.setattr(
                ModelSpec, f"eval_{name}",
                lambda self, x, _n=name, _f=orig: counts.update([_n]) or _f(self, x))
        products = collections.Counter()
        for name, (inputs, formula) in list(model_mod._DERIVED.items()):
            monkeypatch.setitem(model_mod._DERIVED, name, (
                inputs, lambda c, _n=name, _f=formula: products.update([_n]) or _f(c)))
        controls = extreme_controls(model.uncertainty) + [worst_case_policy(sol, model)]
        n_paths, chunk, n_steps = 120, 50, 20
        upper_price_mc(model, None, 1.0, controls, dt=1.0 / n_steps, n_paths=n_paths,
                       chunk_size=chunk)
        # every control of a chunk marches in one row-stacked batch
        chunk_steps = -(-n_paths // chunk) * n_steps
        # the step reads b once per chunk-step for all controls, the deflator r
        assert counts["b"] == chunk_steps
        if kernel == "state_1d":
            assert counts["r"] == chunk_steps
        assert counts["dij"] == counts["h_effective"] == 0
        for name in ("sigma", "r", "k", "v", "h"):
            # a constant tensor is checked at most once per model
            assert counts[name] <= (chunk_steps if kernel == "state_1d" else 1), name
        assert set(products) <= set(model_mod._DERIVED)
        for name in model_mod._DERIVED:
            # a product of constant tensors is formed at most once per model; the
            # uncertified policy forms a varying one on its own rows, once a step
            assert products[name] <= (chunk_steps if kernel == "state_1d" else 1), name


# ---------------------------------------------------------------------------
# a byte-for-byte oracle for the streaming path: copies of the draws, the Euler
# step and deflator, and the worst-case pick as they were before the
# step-invariant work left the step


def _oracle_chunk_draws(seed, path_lo, path_hi, n_steps, d):
    """A fresh Philox generator per path."""
    out = np.empty((path_hi - path_lo, n_steps, d))
    for i, p in enumerate(range(path_lo, path_hi)):
        key = np.array([seed & sim._MASK64, p & sim._MASK64], dtype=np.uint64)
        out[i] = np.random.Generator(np.random.Philox(key=key)).standard_normal((n_steps, d))
    return out


def _oracle_hamiltonian(grad, hess, pre):
    """H with every product formed from the bundle's tensors on every call."""
    sig, vval = pre["sigma"], pre["v"]
    hess_term = np.einsum("nab,nai,nbj->nij", hess, sig, sig)
    z = np.einsum("nlj,nl->nj", sig, grad)
    htil = pre["h"] - model_mod._dij(sig, vval)
    return (hess_term + 2.0 * np.einsum("nl,nijl->nij", grad, htil) - 2.0 * pre["k"]
            + np.einsum("ni,nj->nij", vval, vval) + np.einsum("ni,nj->nij", z, z))


class _OraclePolicy(VolControl):
    """The worst-case pick by the trace score of every candidate."""

    label = "worst_case"

    def __init__(self, solution, model):
        self.solution, self.model = solution, model
        self.cands = np.stack(model.uncertainty.candidates())
        self.roots = sim._sqrt_psd(self.cands)

    def matrices_and_roots(self, t, x, coeffs=None):
        grad, hess = self.solution.derivatives_at(x, t)
        hmat = _oracle_hamiltonian(grad, hess, coeffs)
        idx = _candidate_scores(hmat, self.model.uncertainty)[1]
        return self.cands[idx], self.roots[idx]


def _oracle_euler_steps(model, control, x0, dt, draws):
    """Every step sums every tensor by einsum, absent ones included."""
    n, n_steps, _ = draws.shape
    x = np.broadcast_to(x0, (n, model.m)).copy()
    sqdt = math.sqrt(dt)
    for k in range(n_steps):
        coeffs = model.evaluate(x)
        q, root = control.matrices_and_roots(k * dt, x, coeffs=coeffs)
        db = np.einsum("nij,nj->ni", root, draws[:, k]) * sqdt
        dqv = q * dt
        x_next = (x + coeffs["b"] * dt + np.einsum("nijl,nij->nl", coeffs["h"], dqv)
                  + np.einsum("nld,nd->nl", coeffs["sigma"], db))
        yield k, q, db, x_next, coeffs, dqv
        x = x_next


def _oracle_means(model, controls, x0, dt, n_steps, n_paths, seed, chunk, marks, payoff):
    """(mean, stderr) of the deflated payoff per control and checkpoint."""
    sums = [{s: [0.0, 0.0] for s in marks} for _ in controls]
    for lo in range(0, n_paths, chunk):
        draws = _oracle_chunk_draws(seed, lo, min(lo + chunk, n_paths), n_steps, model.d)
        for ctl, ctl_sums in zip(controls, sums):
            lnD = np.zeros(draws.shape[0])
            for k, _, db, x_next, c, dqv in _oracle_euler_steps(model, ctl, x0, dt, draws):
                lnD = (lnD - c["r"] * dt - np.einsum("nij,nij->n", c["k"], dqv)
                       - np.einsum("ni,ni->n", c["v"], db))
                if k + 1 in marks:
                    w = np.exp(lnD) if payoff is None else np.exp(lnD) * payoff(x_next)
                    ctl_sums[k + 1][0] += float(np.sum(w))
                    ctl_sums[k + 1][1] += float(np.sum(w * w))
    out = []
    for ctl_sums in sums:
        res = {}
        for s, (a, b) in ctl_sums.items():
            mean = a / n_paths
            res[s] = (mean, math.sqrt(max(b / n_paths - mean**2, 0.0) / n_paths))
        out.append(res)
    return out


_H2 = [[[0.03, -0.01], [0.01, 0.02]], [[0.01, 0.02], [0.02, -0.03]]]
_TENSORS = {  # (m, name, kind) -> entries; "absent" leaves the tensor out
    (1, "h", "const"): [[[0.04]]], (1, "h", "state"): [[["0.03 * x1"]]],
    (1, "k", "const"): [[0.02]], (1, "k", "state"): [["0.05 * x1"]],
    (1, "v", "const"): [0.3], (1, "v", "state"): ["0.1 + 0.2 * x1"],
    (2, "h", "const"): _H2,
    (2, "h", "state"): [[["0.02 * x1", -0.01], [0.01, 0.02]], [[0.01, "0.02 * x2"], [0.02, -0.03]]],
    (2, "k", "const"): [[0.01, 0.004], [0.004, 0.02]],
    (2, "k", "state"): [["0.02 * x1", 0.004], [0.004, "0.01 * x2"]],
    (2, "v", "const"): [0.2, -0.1], (2, "v", "state"): ["0.1 * x1", -0.1],
}
_THREE = [np.eye(2), [[1.0, 0.5], [0.5, 1.0]], [[0.6, -0.2], [-0.2, 0.9]]]


def _oracle_case(m, h, k, v, sigma_kind="const"):
    """A model with h, k and v each absent, constant or state-dependent, and a
    smooth stand-in solution on which the worst-case policy switches."""
    tensors = {name: _TENSORS[(m, name, kind)] for name, kind in (("h", h), ("k", k), ("v", v))
               if kind != "absent"}
    if m == 1:
        sigma = [["0.2 + 0.05 * tanh(x1)"]] if sigma_kind == "state" else [[0.25]]
        model = ModelSpec.build(m=1, d=1, b=["0.05 - x1"], sigma=sigma, r="0.02 + 0.1 * x1",
                                uncertainty=UncertaintySet.interval(0.6, 1.3), **tensors)
        grid = Grid.build([(-1.5, 1.5)], [33])
    else:
        sigma = ([["0.2 + 0.05 * tanh(x1)", 0.05], [0.0, 0.15]] if sigma_kind == "state"
                 else [[0.2, 0.05], [0.0, 0.15]])
        model = ModelSpec.build(m=2, d=2, b=["0.05 - x1", "-0.5 * x2"], sigma=sigma,
                                r="0.02 + 0.1 * x1 * x2", uncertainty=UncertaintySet.finite(_THREE),
                                **tensors)
        grid = Grid.build([(-1.5, 1.5)] * 2, [17, 16])
    pts = grid.points()
    # curvature that changes sign where the paths start
    if m == 1:
        values = 10.0 * (pts[:, 0] - 0.05) ** 3
    else:
        values = 50.0 * pts[:, 0] ** 2 * pts[:, 1]
    return model, PdeSolution(grid=grid, kind="stationary", values=values.reshape(grid.shape))


ORACLE_CASES = {
    "1d_h_absent_k_const_v_state": (1, "absent", "const", "state"),
    "1d_h_const_k_state_v_absent": (1, "const", "state", "absent"),
    "1d_h_state_k_absent_v_const_sigma_state": (1, "state", "absent", "const", "state"),
    "1d_all_absent": (1, "absent", "absent", "absent"),
    "2d_h_absent_k_const_v_state": (2, "absent", "const", "state"),
    "2d_h_const_k_state_v_absent": (2, "const", "state", "absent"),
    "2d_h_state_k_absent_v_const_sigma_state": (2, "state", "absent", "const", "state"),
    "2d_all_const": (2, "const", "const", "const"),
    "1d_all_state_sigma_state": (1, "state", "state", "state", "state"),
    "2d_all_absent_sigma_state": (2, "absent", "absent", "absent", "state"),
}


class TestStreamingOracle:
    """The streaming path equals the oracle copies above byte for byte.

    Each model crosses a chunk boundary into a short last chunk (70 paths
    in chunks of 32), so every constant broadcast is rebuilt for a new row
    count; the worst-case policy switches between candidates on each.
    """

    T, DT, N_PATHS, CHUNK = 0.3, 0.02, 70, 32

    @staticmethod
    def _controls(model, solution):
        cands = model.uncertainty.candidates()
        piecewise = PiecewiseControl([0.0, 0.1, 0.2], [cands[0], cands[-1], cands[1]])
        extremes = extreme_controls(model.uncertainty)
        # the parent rooted a piecewise segment on every step, as a feedback control does
        per_step = FeedbackControl(piecewise.matrices, label=piecewise.label)
        new = [worst_case_policy(solution, model), piecewise] + extremes
        return new, [_OraclePolicy(solution, model), per_step] + extremes

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_streaming_means_equal_the_oracle(self, case):
        model, solution = _oracle_case(*ORACLE_CASES[case])
        new, old = self._controls(model, solution)
        x0 = np.full(model.m, 0.05)
        n_steps = int(round(self.T / self.DT))
        marks = [5, n_steps]

        def payoff(x):
            return 1.0 + np.maximum(x[:, 0], 0.0)

        got = sim._streaming_deflated_means(model, new, x0, self.T, n_steps, self.N_PATHS, 11,
                                            marks, payoff, self.CHUNK)
        ref = _oracle_means(model, old, x0, self.DT, n_steps, self.N_PATHS, 11, self.CHUNK,
                            marks, payoff)
        assert [{s: [v.hex() for v in p] for s, p in r.items()} for r in got] == [
            {s: [v.hex() for v in p] for s, p in r.items()} for r in ref]
        # the policy picks every candidate somewhere, so the pick is exercised
        batch = simulate_gsde(model, new[0], x0, self.T, self.DT, self.N_PATHS, seed=11)
        picked = {q.tobytes() for q in batch.Q.reshape(-1, model.d, model.d)}
        assert len(picked) == (2 if model.m == 1 else 3)

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_histories_equal_the_oracle(self, case):
        model, solution = _oracle_case(*ORACLE_CASES[case])
        new, old = self._controls(model, solution)
        x0 = np.full(model.m, -0.05)
        n_steps, offset = int(round(self.T / self.DT)), 5
        for ctl, ref_ctl in zip(new, old):
            batch = simulate_gsde(model, ctl, x0, self.T, self.DT, self.N_PATHS, seed=3,
                                  path_offset=offset, chunk_size=self.CHUNK)
            for lo in range(0, self.N_PATHS, self.CHUNK):
                hi = min(lo + self.CHUNK, self.N_PATHS)
                draws = _oracle_chunk_draws(3, offset + lo, offset + hi, n_steps, model.d)
                assert batch.noise[lo:hi].tobytes() == draws.tobytes()
                for k, q, db, x_next, _, _ in _oracle_euler_steps(model, ref_ctl, x0,
                                                                   self.DT, draws):
                    assert batch.X[lo:hi, k + 1].tobytes() == x_next.tobytes()
                    assert batch.Q[lo:hi, k].tobytes() == np.ascontiguousarray(q).tobytes()
                    assert (batch.B[lo:hi, k + 1].tobytes()
                            == (batch.B[lo:hi, k] + db).tobytes())

    @pytest.mark.parametrize("d", [1, 2])
    def test_chunk_draws_equal_a_fresh_generator_per_path(self, d):
        for seed, lo, hi in ((7, 0, 3), (7, 5, 42), (2**64 + 9, 2**64 - 2, 2**64 + 3)):
            ref = _oracle_chunk_draws(seed, lo, hi, 13, d).tobytes()
            assert sim._chunk_draws(seed, lo, hi, 13, d).tobytes() == ref
            # drawn straight into rows of a larger array, as simulate_gsde does
            whole = np.full((hi - lo + 4, 13, d), np.nan)
            got = sim._chunk_draws(seed, lo, hi, 13, d, out=whole[2:hi - lo + 2])
            assert got.base is whole and whole[2:hi - lo + 2].tobytes() == ref
            assert np.isnan(whole[:2]).all() and np.isnan(whole[hi - lo + 2:]).all()


class _FillFails(Exception):
    pass


class TestSplitFill:
    """A long chunk fills its lower half of the paths on the calling thread and
    its upper half on one worker; the draws equal a fresh generator per path,
    bit for bit, and no thread outlives the call."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Force two CPUs and count the executors built."""
        built, real = [], concurrent.futures.ThreadPoolExecutor

        def counting(*args, **kwargs):
            pool = real(*args, **kwargs)
            built.append(pool)
            return pool

        monkeypatch.setattr(sim, "_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting)
        return built

    @staticmethod
    def _fail_on(monkeypatch, half):
        """Make the fill of the caller's ("lower") or the worker's ("upper") half
        raise one exception object, returned; the other half fills as usual."""
        fill, error = sim._fill_paths, _FillFails("fill failed")
        main = threading.main_thread()

        def failing(seed, path_lo, out):
            on_worker = threading.current_thread() is not main
            if on_worker == (half == "upper"):
                raise error
            fill(seed, path_lo, out)

        monkeypatch.setattr(sim, "_fill_paths", failing)
        return error

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed,lo,n_paths", [
        (7, 0, 129), (7, 5, 64), (2**64 + 9, 2**64 - 70, 129),
    ], ids=["odd_paths", "fewest_paths", "key_masking"])
    def test_split_draws_equal_a_fresh_generator_per_path(self, pools, d, seed, lo, n_paths):
        n_steps = sim._SPLIT_MIN // d
        hi = lo + n_paths
        ref = _oracle_chunk_draws(seed, lo, hi, n_steps, d).tobytes()
        assert sim._chunk_draws(seed, lo, hi, n_steps, d).tobytes() == ref
        whole = np.full((n_paths + 4, n_steps, d), np.nan)
        got = sim._chunk_draws(seed, lo, hi, n_steps, d, out=whole[2:n_paths + 2])
        assert got.base is whole and whole[2:n_paths + 2].tobytes() == ref
        assert np.isnan(whole[:2]).all() and np.isnan(whole[n_paths + 2:]).all()
        assert len(pools) == 2

    @pytest.mark.parametrize("short", ["short_paths", "few_paths", "one_cpu"])
    def test_chunk_below_the_floor_starts_no_thread(self, monkeypatch, short):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a thread for a chunk below the floor")

        n_steps = sim._SPLIT_MIN - (short == "short_paths")
        n_paths = sim._SPLIT_PATHS - 1 if short == "few_paths" else 129
        cpus = 1 if short == "one_cpu" else 2

        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        ref = _oracle_chunk_draws(3, 0, n_paths, n_steps, 1).tobytes()
        assert sim._chunk_draws(3, 0, n_paths, n_steps, 1).tobytes() == ref

    @pytest.mark.parametrize("half", ["upper", "lower"])
    def test_failed_half_reaches_the_caller(self, pools, monkeypatch, half):
        error = self._fail_on(monkeypatch, half)
        before = threading.active_count()
        with pytest.raises(_FillFails) as info:
            sim._chunk_draws(1, 0, 129, sim._SPLIT_MIN, 1)
        assert info.value is error
        assert threading.active_count() == before and len(pools) == 1

    @pytest.mark.parametrize("outcome", ["returns", "worker_fails", "caller_fails", "march_fails"])
    @pytest.mark.parametrize("entry", ["simulate_gsde", "upper_price_mc", "long_term_yield_mc"])
    def test_no_thread_outlives_a_public_call(self, pools, monkeypatch, const_model, entry,
                                              outcome):
        ctl = ConstantControl(1.0)
        if outcome == "march_fails":
            ctl = FeedbackControl(lambda t, x: np.full((x.shape[0], 1, 1), np.nan), label="bad")
        elif outcome != "returns":
            self._fail_on(monkeypatch, "upper" if outcome == "worker_fails" else "lower")
        dt, n = 1.0 / sim._SPLIT_MIN, 2 * sim._SPLIT_PATHS + 1
        run = {
            "simulate_gsde": lambda: simulate_gsde(const_model, ctl, [0.0], 1.0, dt, n),
            "upper_price_mc": lambda: upper_price_mc(const_model, None, 1.0, [ctl], dt=dt,
                                                     n_paths=n, chunk_size=n // 2),
            "long_term_yield_mc": lambda: long_term_yield_mc(const_model, [0.5, 1.0], ctl,
                                                             dt=dt, n_paths=n),
        }[entry]
        before = threading.active_count()
        if outcome == "returns":
            run()
        else:
            with pytest.raises(_FillFails if outcome != "march_fails" else DivergenceError):
                run()
        assert threading.active_count() == before
        assert len(pools) >= 1


def _stacked_pool(m, kind):
    """Controls of every kind on a model with h, k and v all present, constant or
    state-dependent: the worst-case policy of a switching stand-in solution,
    which is not certified; a constant control; a piecewise control; a feedback
    control; the worst-case policy of a zero solution, certified to one
    candidate when the tensors are constant; and a constant control at the
    last candidate.  Returned with the oracle's equivalents, one for one."""
    model, switching = _oracle_case(m, kind, kind, kind)
    flat = _stand_in(model, switching.grid, np.zeros(switching.grid.shape))
    cands = model.uncertainty.candidates()
    piecewise = PiecewiseControl([0.0, 0.1, 0.2], [cands[-1], cands[0], cands[1]])
    feedback = FeedbackControl(
        lambda t, x: np.where((x[:, 0] > 0.05)[:, None, None], cands[0], cands[1]),
        label="switch")
    first, last = ConstantControl(cands[0], label="first"), ConstantControl(cands[-1], label="last")
    certified = worst_case_policy(flat, model)
    assert (certified.uniform is not None) == (kind == "const")
    new = [worst_case_policy(switching, model), first, piecewise, feedback, certified, last]
    old = [_OraclePolicy(switching, model), first,
           FeedbackControl(piecewise.matrices), feedback,
           _OraclePolicy(flat, model), last]
    return model, new, old


class TestStackedMarch:
    """The distinct marches of a chunk step as one row-stacked batch; each
    control's sums equal its own march and the per-control oracle, bit for bit."""

    T, DT, N_PATHS = 0.3, 0.02, 41

    @staticmethod
    def _hex(results):
        return [{s: [v.hex() for v in p] for s, p in r.items()} for r in results]

    @pytest.mark.parametrize("kind", ["const", "state"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n_controls,chunk", [(1, 20), (2, 16), (3, 20), (4, 16), (6, 20)])
    def test_stacked_sums_equal_separate_runs_and_the_oracle(self, m, kind, n_controls, chunk):
        model, new, old = _stacked_pool(m, kind)
        new, old = new[:n_controls], old[:n_controls]
        # the certified policy shares its candidate's march, the rest march apart
        shared = kind == "const" and n_controls == 6
        assert len(sim._march_groups(new)) == n_controls - shared
        x0 = np.full(m, 0.05)
        n_steps = int(round(self.T / self.DT))
        marks = [5, n_steps]

        def payoff(x):
            return 1.0 + np.maximum(x[:, 0], 0.0)

        args = (x0, self.T, n_steps, self.N_PATHS, 11, marks, payoff, chunk)
        # 41 paths in chunks of 20 leave a last chunk of one path, in 16 one of 9
        got = sim._streaming_deflated_means(model, new, *args)
        alone = [sim._streaming_deflated_means(model, [ctl], *args)[0] for ctl in new]
        ref = _oracle_means(model, old, x0, self.DT, n_steps, self.N_PATHS, 11, chunk, marks,
                            payoff)
        assert self._hex(got) == self._hex(alone) == self._hex(ref)

    @pytest.mark.parametrize("m", [1, 2])
    def test_stacked_steps_equal_each_control_stepped_alone(self, m):
        model, new, _ = _stacked_pool(m, "state")
        draws = sim._chunk_draws(5, 0, 23, 15, model.d)
        x0 = np.full(m, 0.05)
        n = draws.shape[0]
        blocks = [slice(g * n, (g + 1) * n) for g in range(len(new))]
        # dB and dQV are buffers the next step overwrites: read them in lockstep
        alone = [sim._euler_steps(model, [ctl], x0, self.DT, draws) for ctl in new]
        for k, x, qs, db, dqv, x_next, _ in sim._euler_steps(model, new, x0, self.DT, draws):
            for g, rows in enumerate(blocks):
                _, x1, (q1,), db1, dqv1, x_next1, _ = next(alone[g])
                for a, b in ((x, x1), (db, db1), (dqv, dqv1), (x_next, x_next1)):
                    assert a[rows].tobytes() == b.tobytes(), (k, g)
                assert np.array_equal(qs[g], q1)
        assert all(next(steps, None) is None for steps in alone)

    def test_fixed_scenario_forms_its_covariation_once_per_chunk(self, const_model, monkeypatch):
        formed = []
        real = np.multiply
        monkeypatch.setattr(sim.np, "multiply",
                            lambda *a, **kw: ("out" in kw and formed.append(1)) or real(*a, **kw))
        hi, lo = const_model.uncertainty.candidates()
        controls = [ConstantControl(hi), PiecewiseControl([0.0, 0.5], [hi, lo]),
                    FeedbackControl(lambda t, x: np.broadcast_to(lo, (x.shape[0], 1, 1)))]
        draws = sim._chunk_draws(1, 0, 7, 10, 1)
        for _ in sim._euler_steps(const_model, controls, np.zeros(1), 0.1, draws):
            pass
        # once for the constant, once per segment, once per step for the feedback
        assert len(formed) == 1 + 2 + 10

    def test_scenario_rewritten_in_place_forms_its_covariation_each_step(self):
        model, pool, _ = _stacked_pool(1, "const")
        cands = model.uncertainty.candidates()

        class InPlace(VolControl):
            """Returns one writeable buffer, rewritten on every step."""
            buf = np.empty((0, 1, 1))

            def matrices(self, t, x):
                if len(self.buf) != len(x):
                    self.buf = np.empty((len(x), 1, 1))
                self.buf[:] = cands[int(round(t / 0.02)) % 2]
                return self.buf

        fresh = FeedbackControl(lambda t, x: InPlace().matrices(t, x))
        args = (np.full(1, 0.05), self.T, 15, self.N_PATHS, 11, [15], None, 20)
        got = sim._streaming_deflated_means(model, [pool[1], InPlace()], *args)
        ref = sim._streaming_deflated_means(model, [pool[1], fresh], *args)
        assert self._hex(got) == self._hex(ref)

    def test_non_finite_entry_named_inside_a_stacked_step(self):
        model = ModelSpec.build(m=1, d=1, b=["0.0"], sigma=[["1.0"]], r=0.0, k=[["sqrt(x1)"]],
                                uncertainty=UncertaintySet.interval(1e-12, 1.0))
        controls = [ConstantControl(1e-12, label="still"), ConstantControl(1.0, label="moving")]
        # only the rows of the second control turn negative
        with np.errstate(invalid="ignore"), pytest.raises(
                EvaluationError, match=r"^k\[0\]\[0\] evaluated to a non-finite value at x = \[-"):
            upper_price_mc(model, None, 1.0, controls, dt=0.1, n_paths=64, x0=[0.5])


class TestStepBlocks:
    """The kernel reads each step's draws, and simulate_gsde writes its
    histories, in step-major blocks copied a tile of paths at a time.  With the
    block and tile cut to 3 steps and 5 paths, every edge of both is crossed:
    the sums and histories equal a per-step reader and recorder, bit for bit."""

    DT, SEED, N_PATHS = 0.02, 13, 11

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK_STEPS", 3)
        monkeypatch.setattr(sim, "_TILE_PATHS", 5)

    @staticmethod
    def _recorded(model, control, x0, dt, n_steps, n_paths, seed, offset, chunk):
        """Path-major histories written one step at a time, as the kernel's steps come."""
        d = model.d
        noise = np.empty((n_paths, n_steps, d))
        B = np.zeros((n_paths, n_steps + 1, d))
        X = np.empty((n_paths, n_steps + 1, model.m))
        Q = np.empty((n_paths, n_steps, d, d))
        X[:, 0] = x0
        for lo in range(0, n_paths, chunk):
            hi = min(lo + chunk, n_paths)
            draws = _oracle_chunk_draws(seed, offset + lo, offset + hi, n_steps, d)
            noise[lo:hi] = draws
            for k, q, db, x_next, _, _ in _oracle_euler_steps(model, control, x0, dt, draws):
                B[lo:hi, k + 1] = B[lo:hi, k] + db
                X[lo:hi, k + 1] = x_next
                Q[lo:hi, k] = q
        return noise, B, X, Q

    def _check(self, n_steps, chunk, n_controls, n_paths):
        model, new, old = _stacked_pool(2, "state")
        new, old = new[:n_controls], old[:n_controls]
        x0 = np.full(2, 0.05)
        marks = sorted({1, min(4, n_steps), n_steps})

        def payoff(x):
            return 1.0 + np.maximum(x[:, 0], 0.0)

        got = sim._streaming_deflated_means(model, new, x0, n_steps * self.DT, n_steps,
                                            n_paths, self.SEED, marks, payoff, chunk)
        ref = _oracle_means(model, old, x0, self.DT, n_steps, n_paths, self.SEED,
                            chunk or n_paths, marks, payoff)
        assert TestStackedMarch._hex(got) == TestStackedMarch._hex(ref)
        for ctl, ref_ctl in zip(new, old):
            batch = simulate_gsde(model, ctl, x0, n_steps * self.DT, self.DT, n_paths,
                                  seed=self.SEED, path_offset=7, chunk_size=chunk)
            expect = self._recorded(model, ref_ctl, x0, self.DT, n_steps, n_paths, self.SEED,
                                    7, chunk or n_paths)
            for name, a in zip(("noise", "B", "X", "Q"), expect):
                assert getattr(batch, name).tobytes() == a.tobytes(), (name, ctl.label)

    @pytest.mark.parametrize("n_controls", [1, 3])
    @pytest.mark.parametrize("chunk", [1, 5, 6, 11])
    @pytest.mark.parametrize("n_steps", [2, 3, 4, 7])
    def test_block_and_tile_edges(self, small_blocks, n_steps, chunk, n_controls):
        self._check(n_steps, chunk, n_controls, self.N_PATHS)

    def test_real_block_and_tile_sizes(self):
        # one step past a block and one path past a tile, in one chunk
        assert (sim._BLOCK_STEPS, sim._TILE_PATHS) == (64, 256)
        self._check(65, None, 3, 257)


def _stand_in(model, grid, values):
    return PdeSolution(grid=grid, kind="stationary", values=values.reshape(grid.shape))


def _degenerate_case():
    """A single-point interval: the two candidates score equal, so the first wins
    even where the curvature of the stand-in solution changes sign."""
    model = ModelSpec.build(m=1, d=1, b=["0.05 - x1"], sigma=[[0.25]], r="0.02 + 0.1 * x1",
                            uncertainty=UncertaintySet.interval(0.7, 0.7))
    grid = Grid.build([(-1.5, 1.5)], [33])
    return model, _stand_in(model, grid, 10.0 * (grid.points()[:, 0] - 0.05) ** 3)


def _interior_switch_case(m):
    """Every node picks the high volatility, but inside the middle cells, where
    the gradient u_1 = 200 x1 changes sign, the quadratic term (sigma^T Du)^2
    drops and the low one wins: H = u_11 - 2k + u_1^2 = 200 - 250 + u_1^2."""
    model = ModelSpec.build(m=m, d=1, b=["-x1", "-x2"][:m], sigma=[[1.0], [0.0]][:m], r=0.02,
                            k=[[125.0]], uncertainty=UncertaintySet.interval(0.5, 1.5))
    grid = Grid.build([(-1.05, 1.05), (-1.0, 1.0)][:m], [22, 16][:m])  # x1 = +-0.05, not 0
    return model, _stand_in(model, grid, 100.0 * grid.points()[:, 0] ** 2)


def _rounding_tie_case():
    """H = -2k + u'^2 = -1 + 1 up to the rounding of the interpolated gradient of
    u = x1, so the computed pick flips between the candidates across the grid."""
    model = ModelSpec.build(m=1, d=1, b=["-x1"], sigma=[[1.0]], r=0.02, k=[[0.5]],
                            uncertainty=UncertaintySet.interval(0.5, 1.5))
    grid = Grid.build([(-1.05, 1.05)], [22])
    return model, _stand_in(model, grid, grid.points()[:, 0])


def _three_member_case():
    model = ModelSpec.build(m=2, d=2, b=["-x1", "-0.5 * x2"], sigma=[[0.2, 0.05], [0.0, 0.15]],
                            r="0.02 + 0.1 * x1", v=[0.2, -0.1],
                            uncertainty=UncertaintySet.finite(_THREE))
    return model, solve_ergodic(model, Grid.build([(-1.5, 1.5)] * 2, [17, 16]), tol=1e-9)


def _table_queries(grid, rng):
    """Nodes, one ulp either side of them, cell midpoints and random points on
    every axis (in 2D every pairing of those), points beyond the grid, and rows
    with an infinite or a NaN coordinate."""
    lo = np.array([b[0] for b in grid.bounds])
    hi = np.array([b[1] for b in grid.bounds])
    per_axis = []
    for ax, (a, b) in zip(grid.axes(), grid.bounds):
        per_axis.append(np.concatenate([
            ax, np.nextafter(ax, -np.inf), np.nextafter(ax, np.inf), 0.5 * (ax[:-1] + ax[1:]),
            rng.uniform(a, b, 40), [a - 1.0, b + 0.5]]))
    mesh = np.meshgrid(*per_axis, indexing="ij")
    special = [np.inf, -np.inf, np.nan, 0.1]
    odd = np.array(list(itertools.product(special, repeat=grid.m)))
    return np.concatenate([
        np.stack([g.ravel() for g in mesh], axis=-1),
        rng.uniform(lo, hi, (3000, grid.m)),
        rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), (1000, grid.m)),
        odd[np.isnan(odd).any(axis=1) | np.isinf(odd).any(axis=1)],
    ])


TABLE_CASES = {
    "const_1d": lambda f: (f("const_model"), f("const_sol")),
    "const_2d": lambda f: _const_kernel_2d(),
    "ou": lambda f: (f("ou_model"), f("ou_sol")),
    "switching_2d": lambda f: _switching_model(2),
    "1d_all_absent": lambda f: _oracle_case(*ORACLE_CASES["1d_all_absent"]),
    "2d_all_const": lambda f: _oracle_case(*ORACLE_CASES["2d_all_const"]),
    "degenerate": lambda f: _degenerate_case(),
    "three_member": lambda f: _three_member_case(),
    "interior_switch_1d": lambda f: _interior_switch_case(1),
    "interior_switch_2d": lambda f: _interior_switch_case(2),
    "rounding_tie": lambda f: _rounding_tie_case(),
}
# the full pick returns more than one candidate on these, so none may be certified
SWITCHING_CASES = ("switching_2d", "1d_all_absent", "2d_all_const", "interior_switch_1d",
                   "interior_switch_2d", "rounding_tie")


class TestPickTable:
    """The worst-case policy's certified candidate is the pick of the full
    evaluation on every query: the oracle is a policy on the same pick
    without a certified candidate."""

    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_certified_pick_equals_the_full_pick(self, case, request):
        model, solution = TABLE_CASES[case](request.getfixturevalue)
        policy = worst_case_policy(solution, model)
        reference = sim._CandidatePolicy(policy.pick, policy.candidates, "reference")
        x = _table_queries(solution.grid, np.random.default_rng(len(case)))
        got = policy.matrices_and_roots(0.0, x, coeffs=model.evaluate(x))
        ref = reference.matrices_and_roots(0.0, x)
        for a, b in zip(got, ref):
            assert np.ascontiguousarray(a).tobytes() == b.tobytes()
        assert policy.matrices(0.0, x).tobytes() == ref[0].tobytes()
        # a row with a NaN coordinate scores NaN and goes through the full pick
        picked = len(np.unique(ref[0][~np.isnan(x).any(axis=1)].reshape(-1, model.d**2), axis=0))
        if case in SWITCHING_CASES:
            assert picked >= 2 and policy.uniform is None
        else:
            assert picked == 1 and policy.uniform is not None

    def test_certified_pick_reads_no_derivatives(self, const_model, const_sol, monkeypatch):
        policy = worst_case_policy(const_sol, const_model)
        calls = []
        real = pde.PdeSolution.derivatives_at
        monkeypatch.setattr(pde.PdeSolution, "derivatives_at",
                            lambda self, *a, **k: calls.append(1) or real(self, *a, **k))
        x = np.random.default_rng(3).uniform(-4.0, 4.0, (500, 1))
        policy.matrices_and_roots(0.0, x)
        assert calls == []
        x[7] = np.nan  # a NaN row goes through the full pick
        q, _ = policy.matrices_and_roots(0.0, x)
        assert len(calls) == 1 and q[7, 0, 0] == const_model.uncertainty.hi

    def test_models_and_solutions_without_a_certificate(self, ou_model):
        switching, sol = _switching_model(1)  # k = 0.3 x1 depends on the state
        assert pde._certified_candidate(sol, switching) is None
        stateful = _oracle_case(*ORACLE_CASES["1d_h_state_k_absent_v_const_sigma_state"])
        assert pde._certified_candidate(stateful[1], stateful[0]) is None
        grid = Grid.build([(-2.0, 2.0)], [33], horizon=0.5, time_steps=400)
        parabolic = pde.solve_parabolic(ou_model, grid, np.zeros(grid.shape))
        assert pde._certified_candidate(parabolic, ou_model) is None
