"""Pathwise factorization of the deflator and its statistical audits."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from gkernel import (
    ConstantControl,
    CoverageError,
    Decomposition,
    Grid,
    ModelSpec,
    ShapeError,
    UncertaintySet,
    compute_components,
    extreme_controls,
    g_value_batch,
    reconstruct_D,
    simulate_gsde,
    solve_ergodic,
    verify_bsde_residual,
    verify_martingales,
    worst_case_policy,
)
from gkernel import decomp
from gkernel.pde import _hamiltonian_batch
from conftest import quadratic_rate_model

FIELDS = ("u", "Z", "ln_M", "K", "ln_D_direct", "ln_D_reconstructed")


@pytest.fixture(scope="module")
def const_wc_batch(const_model, const_sol):
    policy = worst_case_policy(const_sol, const_model)
    return simulate_gsde(const_model, policy, [0.0], 1.0, 1e-3, 200, seed=13)


@pytest.fixture(scope="module")
def const_wc_dec(const_wc_batch, const_model, const_sol):
    return compute_components(const_wc_batch, const_sol, const_model)


class TestComponents:
    def test_initial_values_anchored(self, const_wc_dec):
        assert np.all(const_wc_dec.ln_M[:, 0] == 0.0)
        assert np.all(const_wc_dec.K[:, 0] == 0.0)
        assert np.all(const_wc_dec.ln_D_direct[:, 0] == 0.0)
        assert np.all(const_wc_dec.ln_D_reconstructed[:, 0] == 0.0)

    def test_identity_tight_along_worst_case(self, const_wc_dec):
        assert const_wc_dec.max_abs_gap < 1e-12

    def test_k_vanishes_bitwise_along_worst_case(self, const_wc_dec):
        assert np.max(np.abs(const_wc_dec.K)) == 0.0

    def test_k_accrues_half_spread_under_lower_scenario(self, const_model, const_sol):
        batch = simulate_gsde(
            const_model, ConstantControl(0.5, label="lower"), [0.0], 1.0, 1e-3, 50,
            seed=13)
        dec = compute_components(batch, const_sol, const_model)
        # 0.5 H (q - qmax) = 0.5 * 0.09 * (0.5 - 1.0) = -0.0225 per unit time
        assert np.max(np.abs(dec.K[:, -1] + 0.0225)) < 1e-9
        assert dec.max_abs_gap < 1e-12
        drift = dec.K - (-0.0225) * dec.times[None, :]
        assert np.max(np.abs(drift)) < 1e-9

    def test_k_nonincreasing_under_constant_scenarios(self, const_model, const_sol):
        for ctl in extreme_controls(const_model.uncertainty):
            batch = simulate_gsde(const_model, ctl, [0.0], 0.5, 1e-2, 20, seed=5)
            dec = compute_components(batch, const_sol, const_model)
            assert np.max(np.diff(dec.K, axis=1)) <= 1e-12

    def test_z_tracks_the_affine_slope(self, ou_model, ou_sol):
        batch = simulate_gsde(
            ou_model, ConstantControl(1.2, label="upper"), [0.05], 1.0, 1e-2, 40,
            seed=3)
        dec = compute_components(batch, ou_sol, ou_model)
        central = np.abs(batch.X[:, :, 0]) <= 1.0
        assert np.max(np.abs(dec.Z[:, :, 0][central] + 0.2)) < 5e-3

    def test_identity_on_mean_reverting_feedback(self, ou_model, ou_sol):
        policy = worst_case_policy(ou_sol, ou_model)
        batch = simulate_gsde(ou_model, policy, [0.05], 1.0, 1e-3, 100, seed=17)
        dec = compute_components(batch, ou_sol, ou_model)
        assert dec.max_abs_gap < 1e-3

    def test_classical_reduction_trivializes(self):
        model = ModelSpec.build(
            m=1, d=1, b=["-x1"], sigma=[["0.2"]], r=0.0,
            uncertainty=UncertaintySet.interval(1.0, 1.0),
        )
        sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)], [65]), tol=1e-7, check=False)
        batch = simulate_gsde(model, ConstantControl(1.0), [0.0], 1.0, 1e-2, 30, seed=1)
        dec = compute_components(batch, sol, model)
        assert np.max(np.abs(dec.K)) < 1e-12
        assert np.max(np.abs(dec.ln_D_direct)) < 1e-12  # r = v = k = 0
        assert dec.max_abs_gap < 1e-12

    def test_explicit_lam_override(self, const_model, const_sol, const_wc_batch):
        dec = compute_components(const_wc_batch, const_sol, const_model, lam=0.5)
        # a wrong eigenvalue shows up as a linear-in-time identity gap
        assert dec.max_abs_gap == pytest.approx(0.5 - 0.025, abs=1e-6)

    def test_coverage_guard(self, const_model, const_sol):
        batch = simulate_gsde(
            const_model, ConstantControl(1.0), [5.0], 0.5, 1e-2, 10, seed=2)
        with pytest.raises(CoverageError):
            compute_components(batch, const_sol, const_model)

    def test_path_slice(self, const_wc_dec):
        part = const_wc_dec.path_slice(10, 30)
        assert part.n_paths == 20
        assert np.array_equal(part.K, const_wc_dec.K[10:30])
        assert part.lam == const_wc_dec.lam

    def test_reconstruct_exponentiates(self, const_wc_dec):
        d_recon, stats = reconstruct_D(const_wc_dec)
        assert d_recon.shape == const_wc_dec.ln_M.shape
        assert stats["max_abs_log_gap"] < 1e-12
        assert stats["n_paths"] == 200
        assert stats["control"] == "worst_case"
        assert np.allclose(
            d_recon, np.exp(const_wc_dec.ln_D_direct), rtol=1e-10, atol=1e-12)


class TestMartingaleAudit:
    def test_report_across_controls(self, const_model, const_sol, const_wc_dec):
        extra = [
            simulate_gsde(const_model, ctl, [0.0], 1.0, 1e-3, 200, seed=13)
            for ctl in extreme_controls(const_model.uncertainty)
        ]
        report = verify_martingales(
            const_wc_dec, extra, solution=const_sol, model=const_model)
        assert report.passed
        assert report.worst_case_control == "worst_case"
        assert [c.control for c in report.checks] == ["worst_case", "upper", "lower"]
        assert report.worst_case_k_flatness == 0.0
        assert abs(report.worst_case_mek_max_dev_se) <= 4.0
        assert report.identity_max < 1e-12
        assert not report.degenerate_set
        for check in report.checks:
            assert check.m_ok and check.k_ok
            assert check.k_increment_violations == 0
            assert len(check.checkpoint_times) == 4
            for dev in check.m_deviations_se:
                assert abs(dev) <= 4.0

    def test_chunked_audit_matches_whole(self, const_model, const_sol, const_wc_dec):
        whole = verify_martingales(const_wc_dec, model=const_model)
        parts = verify_martingales(const_wc_dec, model=const_model, chunk_size=37)
        # chunking only reorders accumulation, so stats agree to rounding
        assert parts.checks[0].m_means == pytest.approx(
            whole.checks[0].m_means, rel=1e-12)
        assert parts.worst_case_mek_max_dev_se == pytest.approx(
            whole.worst_case_mek_max_dev_se, rel=1e-9)
        assert parts.identity_max == whole.identity_max
        assert parts.checks[0].k_increment_violations == \
            whole.checks[0].k_increment_violations
        assert parts.passed == whole.passed

    def test_degenerate_set_triggers_classical_check(self):
        model = ModelSpec.build(
            m=1, d=1, b=["-x1"], sigma=[["0.2"]], r=0.0,
            uncertainty=UncertaintySet.interval(1.0, 1.0),
        )
        sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)], [65]), tol=1e-7, check=False)
        batch = simulate_gsde(model, ConstantControl(1.0), [0.0], 1.0, 1e-2, 30, seed=1)
        dec = compute_components(batch, sol, model)
        report = verify_martingales(dec, model=model)
        assert report.degenerate_set
        assert report.classical_k_max < 1e-12
        assert report.passed

    def test_batches_need_solution_and_model(self, const_model, const_wc_dec,
                                             const_wc_batch):
        with pytest.raises(ShapeError):
            verify_martingales(const_wc_dec, [const_wc_batch])

    def test_batches_must_share_time_grid(self, const_model, const_sol, const_wc_dec):
        other = simulate_gsde(
            const_model, ConstantControl(1.0), [0.0], 1.0, 2e-3, 10, seed=13)
        with pytest.raises(ShapeError):
            verify_martingales(
                const_wc_dec, [other], solution=const_sol, model=const_model)

    def test_serializes(self, const_model, const_wc_dec):
        d = verify_martingales(const_wc_dec, model=const_model).to_dict()
        assert d["passed"] is True
        assert d["checks"][0]["control"] == "worst_case"


class TestBsdeResidual:
    def test_flat_eigenfunctions_have_zero_residual(self, const_model, const_sol,
                                                    const_wc_batch):
        rep = verify_bsde_residual(const_wc_batch, const_sol, const_model)
        assert rep.max_abs_step < 1e-12
        assert rep.max_abs_cumulative < 1e-12

    def test_affine_eigenfunction_residual_small(self, ou_model, ou_sol):
        batch = simulate_gsde(
            ou_model, ConstantControl(1.2, label="upper"), [0.05], 1.0, 1e-2, 100,
            seed=3)
        rep = verify_bsde_residual(batch, ou_sol, ou_model)
        assert rep.max_abs_step < 2e-2
        assert rep.rms_step < 1e-3

    def test_step_residual_scales_linearly_in_dt(self):
        model = quadratic_rate_model()
        sol = solve_ergodic(
            model, Grid.build([(-2.0, 2.0)], [257]), tol=1e-7, check=False)
        ctl = ConstantControl(1.0)
        rms = {}
        for dt in (0.02, 0.01):
            batch = simulate_gsde(model, ctl, [0.05], 1.0, dt, 400, seed=21)
            rms[dt] = verify_bsde_residual(batch, sol, model).rms_step
        assert 1.5 <= rms[0.02] / rms[0.01] <= 3.0

    def test_window_restricts_and_restarts(self, ou_model, ou_sol):
        batch = simulate_gsde(
            ou_model, ConstantControl(1.2), [0.05], 1.0, 1e-2, 50, seed=3)
        full = verify_bsde_residual(batch, ou_sol, ou_model)
        tail = verify_bsde_residual(batch, ou_sol, ou_model, window=(0.5, 1.0))
        assert tail.n_steps == 50
        assert full.n_steps == 100
        assert tail.window == (0.5, 1.0)
        assert tail.max_abs_step <= full.max_abs_step + 1e-15

    def test_bad_windows_rejected(self, ou_model, ou_sol):
        batch = simulate_gsde(
            ou_model, ConstantControl(1.2), [0.05], 1.0, 1e-2, 10, seed=3)
        with pytest.raises(ShapeError):
            verify_bsde_residual(batch, ou_sol, ou_model, window=(-0.5, 1.0))
        with pytest.raises(ShapeError):
            verify_bsde_residual(batch, ou_sol, ou_model, window=(0.8, 0.2))
        with pytest.raises(ShapeError):
            verify_bsde_residual(batch, ou_sol, ou_model, window=(0.501, 0.509))

    def test_serializes(self, const_model, const_sol, const_wc_batch):
        d = verify_bsde_residual(const_wc_batch, const_sol, const_model).to_dict()
        assert d["n_paths"] == 200
        assert d["window"] == [0.0, 1.0]


def _whole_batch(batch, solution, model, lam):
    """Every field of the decomposition from one pass over the whole batch.

    These are compute_components' formulas without the blocks of paths: the
    reference the blocked pass must equal bit for bit.
    """
    n, n_nodes, m = batch.X.shape
    d, dt = model.d, batch.dt
    flat = batch.X.reshape(-1, m)
    u = solution.value_at(flat).reshape(n, n_nodes)
    grad, hess = solution.derivatives_at(flat)
    grad = grad.reshape(n, n_nodes, m)
    sig = model.evaluate(flat)["sigma"].reshape(n, n_nodes, m, d)
    z = np.einsum("nkld,nkl->nkd", sig, grad)
    flat_l = batch.X[:, :-1].reshape(-1, m)
    coeffs = model.evaluate(flat_l)
    hess_l = hess.reshape(n, n_nodes, m, m)[:, :-1].reshape(-1, m, m)
    h_l = _hamiltonian_batch(model, flat_l, grad[:, :-1].reshape(-1, m), hess_l,
                             mode="pricing", precomputed=coeffs)
    gvals = g_value_batch(h_l, model.uncertainty)[0].reshape(n, n_nodes - 1)
    h_l = h_l.reshape(n, n_nodes - 1, d, d)
    v = coeffs["v"].reshape(n, n_nodes - 1, d)
    r = coeffs["r"].reshape(n, n_nodes - 1)
    k = coeffs["k"].reshape(n, n_nodes - 1, d, d)
    db = np.diff(batch.B, axis=1)
    dqv = batch.Q * dt
    a = z[:, :-1] - v
    steps = {
        "ln_M": -0.5 * np.einsum("nki,nkij,nkj->nk", a, dqv, a)
        + np.einsum("nki,nki->nk", a, db),
        "K": (0.5 * np.einsum("nkij,nkij->nk", h_l, batch.Q) - gvals) * dt,
        "ln_D_direct": -r * dt - np.einsum("nkij,nkij->nk", k, dqv)
        - np.einsum("nki,nki->nk", v, db),
    }
    out = {"u": u, "Z": z}
    for name, inc in steps.items():
        out[name] = np.zeros((n, n_nodes))
        np.cumsum(inc, axis=1, out=out[name][:, 1:])
    out["ln_D_reconstructed"] = (
        lam * batch.times[None, :] + u[:, :1] - u + out["ln_M"] + out["K"])
    return out


def _reference_components(batch, solution, model, lam=None):
    lam = solution.lam if lam is None else lam
    ref = _whole_batch(batch, solution, model, lam)
    del ref["ln_D_reconstructed"]
    return Decomposition(times=batch.times, X=batch.X, lam=float(lam),
                         control_label=batch.control_label, **ref)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _reports(dec, batches, solution, model):
    """The martingale and per-step audits as text, for byte comparison."""
    mart = verify_martingales(dec, batches[1:], solution, model).to_dict()
    bsde = verify_bsde_residual(batches[0], solution, model).to_dict()
    window = verify_bsde_residual(batches[0], solution, model, window=(0.25, 0.5)).to_dict()
    return json.dumps([mart, bsde, window], sort_keys=True)


def _model_2d():
    """Every tensor state dependent, and a three-member covariance set."""
    return ModelSpec.build(
        m=2, d=2, b=["-0.5*x1 + 0.1*x2", "-0.8*x2"],
        sigma=[["0.3 + 0.05*tanh(x1)", "0.0"], ["0.1", "0.25*exp(-x2*x2/8)"]],
        r="0.02 + 0.1*tanh(x1) + 0.05*x2",
        k=[["0.01*x1", "0.002"], ["0.002", "0.01*exp(-x2*x2)"]],
        v=["0.05*tanh(x1)", "-0.03"],
        h=[[["0.01", "0.0"], ["0.0", "0.01*tanh(x2)"]],
           [["0.0", "0.0"], ["0.01*x1", "0.02"]]],
        uncertainty=UncertaintySet.finite([
            [[1.2, 0.1], [0.1, 0.9]], [[0.6, 0.0], [0.0, 0.7]],
            [[1.0, -0.2], [-0.2, 1.1]]]),
    )


@pytest.fixture(scope="module", params=[1, 2], ids=["1d", "2d"])
def blocked_case(request, ou_model, ou_sol):
    """A worst-case batch and the extreme-control batches, 701 paths x 50 steps."""
    if request.param == 1:
        model, sol, x0 = ou_model, ou_sol, [0.05]
    else:
        model = _model_2d()
        sol = solve_ergodic(model, Grid.build([(-2.5, 2.5)] * 2, [17, 17]), tol=1e-7,
                            check=False)
        x0 = [0.1, -0.1]
    controls = [worst_case_policy(sol, model)] + list(extreme_controls(model.uncertainty))
    return model, sol, [simulate_gsde(model, c, x0, 0.5, 0.01, 701, seed=31) for c in controls]


class TestBlockedComponents:
    """compute_components works in blocks of paths; the numbers do not change."""

    # 1 and 7 paths per block on 101 paths, and the module's own size on 701:
    # 642 paths at 51 nodes
    @pytest.mark.parametrize("paths", [1, 7, None])
    def test_fields_and_reports_match_whole_batch(self, blocked_case, paths,
                                                  monkeypatch):
        model, sol, batches = blocked_case
        n_nodes = batches[0].X.shape[1]
        if paths is not None:
            monkeypatch.setattr(decomp, "_BLOCK_PATH_STEPS", paths * n_nodes + n_nodes // 2)
            batches = [b.path_slice(0, 101) for b in batches]
        n = batches[0].n_paths
        size = max(1, decomp._BLOCK_PATH_STEPS // n_nodes)
        assert n > size and (size == 1 or n % size)  # several blocks, the last one short
        for batch in batches:
            dec = compute_components(batch, sol, model)
            ref = _whole_batch(batch, sol, model, sol.lam)
            for name in FIELDS:
                assert _same_bits(getattr(dec, name), ref[name]), (batch.control_label, name)
        blocked = _reports(compute_components(batches[0], sol, model), batches, sol, model)
        whole = _reference_components(batches[0], sol, model)
        monkeypatch.setattr(decomp, "compute_components", _reference_components)
        assert blocked == _reports(whole, batches, sol, model)

    def test_coverage_message_counts_every_block(self, const_model, const_sol,
                                                  monkeypatch):
        inside, outside = (
            simulate_gsde(const_model, ConstantControl(1.0), [x0], 0.5, 1e-2, 5, seed=2)
            for x0 in (0.0, 5.0))
        order = [0, 5, 1, 6, 2, 7, 3, 8, 4, 9]  # paths beyond the grid in every block
        batch = dataclasses.replace(inside, **{
            name: np.concatenate([getattr(inside, name), getattr(outside, name)])[order]
            for name in ("noise", "B", "X", "Q")})
        excess = const_sol.coverage_excess(batch.X.reshape(-1, 1))
        beyond = excess > decomp._COVERAGE_LIMIT
        assert 0.0 < np.mean(beyond) < 1.0
        expect = (f"up to {float(np.max(excess)):.2f} box widths "
                  f"({float(np.mean(beyond)):.1%} of samples)")
        monkeypatch.setattr(decomp, "_BLOCK_PATH_STEPS", 3 * batch.X.shape[1])
        with pytest.raises(CoverageError) as info:
            compute_components(batch, const_sol, const_model)
        assert expect in str(info.value)

    def test_reconstruction_is_derived_on_read(self, const_wc_dec):
        dec = const_wc_dec
        assert "ln_D_reconstructed" not in dec.__dataclass_fields__
        expect = dec.lam * dec.times[None, :] + dec.u[:, :1] - dec.u + dec.ln_M + dec.K
        assert _same_bits(dec.ln_D_reconstructed, expect)
        assert _same_bits(dec.path_slice(5, 9).ln_D_reconstructed, expect[5:9])

    def test_peak_memory_is_outputs_plus_a_few_blocks(self, const_model, const_sol):
        batch = simulate_gsde(
            const_model, ConstantControl(1.0), [0.0], 1.0, 2e-3, 2000, seed=3)
        assert batch.X.shape == (2000, 501, 1)
        tracemalloc.start()
        try:
            dec = compute_components(batch, const_sol, const_model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(getattr(dec, name).nbytes for name in FIELDS[:-1])
        block = 8 * decomp._BLOCK_PATH_STEPS  # one float per path-step of a block
        assert peak < outputs + 48 * block, (peak, outputs, block)
