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
    reconstruct_D,
    simulate_gsde,
    solve_ergodic,
    verify_bsde_residual,
    verify_martingales,
    worst_case_policy,
)
from gkernel import decomp
from gkernel.gcore import g_value_batch
from conftest import quadratic_rate_model, switching_model

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
        sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)], [65]), tol=1e-7)
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

    def test_nan_state_fails_coverage(self, ou_model, ou_sol):
        batch = simulate_gsde(ou_model, ConstantControl(1.0), [0.05], 1.0, 1e-2, 20, seed=3)
        X = batch.X.copy()
        X[3, 40:] = np.nan
        batch = dataclasses.replace(batch, X=X)
        with pytest.raises(CoverageError, match="up to nan box widths"):
            compute_components(batch, ou_sol, ou_model)
        with pytest.raises(CoverageError):
            verify_bsde_residual(batch, ou_sol, ou_model)

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

    def test_chunked_audit_matches_whole(self, const_model, const_sol, const_wc_dec,
                                         monkeypatch):
        extra = [simulate_gsde(const_model, ctl, [0.0], 1.0, 1e-3, 200, seed=13)
                 for ctl in extreme_controls(const_model.uncertainty)]

        def reports():
            mart = verify_martingales(const_wc_dec, extra, const_sol, const_model)
            bsde = verify_bsde_residual(extra[0], const_sol, const_model)
            return json.dumps([mart.to_dict(), bsde.to_dict()])

        default = reports()  # 32 paths per block at 1001 nodes
        # the audits sum over paths once, after every block, so the blocks
        # leave no trace: one block of all 200 paths, or blocks of 37
        for paths in (200, 37):
            monkeypatch.setattr(decomp, "_BLOCK_PATH_STEPS", paths * const_wc_dec.times.size)
            assert reports() == default

    @pytest.mark.parametrize("n_audit", [200, 70])
    def test_one_reduction_feeds_both_reports(self, const_model, const_sol, const_wc_batch,
                                              const_wc_dec, n_audit, monkeypatch):
        extra = [simulate_gsde(const_model, ctl, [0.0], 1.0, 1e-3, n_audit, seed=13)
                 for ctl in extreme_controls(const_model.uncertainty)]
        mart = verify_martingales(const_wc_dec.path_slice(0, n_audit), extra, const_sol,
                                  const_model)
        bsde = verify_bsde_residual(const_wc_batch, const_sol, const_model)
        calls = []
        real = decomp._path_stats
        monkeypatch.setattr(decomp, "_path_stats",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        got = decomp._audit_decomposition(const_wc_dec, n_audit, extra, const_sol, const_model)
        assert json.dumps([r.to_dict() for r in got]) == json.dumps([mart.to_dict(),
                                                                     bsde.to_dict()])
        assert len(calls) == 1 + len(extra)  # one reduction of the reference

    def test_each_audit_forms_only_the_figures_it_reads(self, const_model, const_sol,
                                                        const_wc_batch, const_wc_dec,
                                                        monkeypatch):
        extra = [simulate_gsde(const_model, ctl, [0.0], 1.0, 1e-3, 50, seed=13)
                 for ctl in extreme_controls(const_model.uncertainty)]
        formed = []
        real = decomp._path_stats
        monkeypatch.setattr(decomp, "_path_stats",
                            lambda *a, **k: formed.append(set(out := real(*a, **k))) or out)
        norms = {"step_max", "step_sumsq"}
        martingale = norms | {"m", "mk", "k_viol", "k_max_inc", "k_max_abs", "k_final",
                              "identity"}
        residual = norms | {"cum_max", "cum_final"}
        verify_martingales(const_wc_dec, extra, const_sol, const_model)
        assert formed == [martingale] * (1 + len(extra))
        formed.clear()
        verify_bsde_residual(const_wc_batch, const_sol, const_model)
        assert formed == [residual]
        formed.clear()
        decomp._audit_decomposition(const_wc_dec, 50, extra, const_sol, const_model)
        assert formed == [martingale | residual] + [martingale] * len(extra)

    def test_degenerate_set_triggers_classical_check(self):
        model = ModelSpec.build(
            m=1, d=1, b=["-x1"], sigma=[["0.2"]], r=0.0,
            uncertainty=UncertaintySet.interval(1.0, 1.0),
        )
        sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)], [65]), tol=1e-7)
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

    @staticmethod
    def _with_nan(dec):
        """``dec`` with M and K undefined from the middle of two paths on."""
        dec = dataclasses.replace(dec, ln_M=dec.ln_M.copy(), K=dec.K.copy())
        dec.ln_M[3, 40:] = np.nan
        dec.K[5, 60:] = np.nan
        return dec

    def test_nan_reaches_the_maxima(self, ou_model, ou_sol):
        batch = simulate_gsde(ou_model, ConstantControl(1.0), [0.05], 1.0, 1e-2, 20, seed=3)
        report = verify_martingales(self._with_nan(compute_components(batch, ou_sol, ou_model)))
        check = report.checks[0]
        for value in (check.identity_max_abs, check.bsde_max_step, check.bsde_rms_step,
                      check.k_max_abs, check.k_max_increment, report.identity_max,
                      report.bsde_max_step):
            assert np.isnan(value)
        assert not check.k_ok  # a NaN increment is not a nonincreasing one

    def test_nan_mean_fails_the_unit_mean_check(self, ou_model, ou_sol):
        batch = simulate_gsde(ou_model, ConstantControl(1.0), [0.05], 1.0, 1e-2, 20, seed=3)
        report = verify_martingales(self._with_nan(compute_components(batch, ou_sol, ou_model)))
        check = report.checks[0]
        assert np.isnan(check.m_means[-1]) and np.isnan(check.m_deviations_se[-1])
        assert not check.m_ok
        assert not report.passed


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
            model, Grid.build([(-2.0, 2.0)], [257]), tol=1e-7)
        ctl = ConstantControl(1.0)
        rms = {}
        for dt in (0.02, 0.01):
            batch = simulate_gsde(model, ctl, [0.05], 1.0, dt, 400, seed=21)
            rms[dt] = verify_bsde_residual(batch, sol, model).rms_step
        assert 1.5 <= rms[0.02] / rms[0.01] <= 3.0

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
    grad_l = grad[:, :-1].reshape(-1, m)
    sig_l = coeffs["sigma"]
    z_l = np.einsum("nlj,nl->nj", sig_l, grad_l)
    h_l = (np.einsum("nab,nai,nbj->nij", hess_l, sig_l, sig_l)
           + 2.0 * np.einsum("nl,nijl->nij", grad_l, coeffs["h_eff"]) - coeffs["two_k"]
           + coeffs["vv"] + np.einsum("ni,nj->nij", z_l, z_l))
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


RMS_FIELDS = ("bsde_rms_step", "rms_step")


def _reports(dec, batches, solution, model):
    """The martingale and per-step audits, as the dicts they serialize to."""
    return [verify_martingales(dec, batches[1:], solution, model).to_dict(),
            verify_bsde_residual(batches[0], solution, model).to_dict()]


def _whole_check(dec, marks, dt, k_tol):
    """One control's audit as reductions of whole arrays over all paths."""
    n = dec.n_paths

    def moments(values):
        sums = np.array([float(np.sum(v)) for v in values])
        sumsq = np.array([float(np.sum(v**2)) for v in values])
        means = sums / n
        ses = np.sqrt(np.maximum(sumsq / n - means**2, 0.0) / n)
        devs = tuple(float((mu - 1.0) / se) if se > 0.0 else 0.0 for mu, se in zip(means, ses))
        return tuple(float(v) for v in means), tuple(float(v) for v in ses), devs

    m_means, m_ses, m_devs = moments([np.exp(dec.ln_M[:, s]) for s in marks])
    mk_means, mk_ses, mk_devs = moments([np.exp(dec.ln_M[:, s] + dec.K[:, s]) for s in marks])
    dk = np.diff(dec.K, axis=1)
    gap = dec.gap
    rho = np.diff(gap, axis=1)
    return decomp.MartingaleCheck(
        control=dec.control_label, n_paths=n,
        checkpoint_times=tuple(float(s * dt) for s in marks),
        m_means=m_means, m_stderrs=m_ses, m_deviations_se=m_devs,
        mk_means=mk_means, mk_stderrs=mk_ses, mk_deviations_se=mk_devs,
        k_increment_violations=int(np.sum(dk > k_tol)),
        k_max_increment=float(np.max(dk)),
        k_max_abs=float(np.max(np.abs(dec.K))),
        k_final_max_abs=float(np.max(np.abs(dec.K[:, -1]))),
        identity_max_abs=float(np.max(np.abs(gap))),
        bsde_max_step=float(np.max(np.abs(rho))),
        bsde_rms_step=float(np.sqrt(np.mean(rho**2))),
    ).to_dict()


def _whole_residual(dec):
    rho = np.diff(dec.gap, axis=1)
    cum = np.cumsum(rho, axis=1)
    return {
        "max_abs_step": float(np.max(np.abs(rho))),
        "rms_step": float(np.sqrt(np.mean(rho**2))),
        "max_abs_cumulative": float(np.max(np.abs(cum))),
        "mean_final_cumulative": float(np.mean(cum[:, -1])),
        "n_paths": dec.n_paths, "n_steps": int(rho.shape[1]),
        "window": [float(dec.times[0]), float(dec.times[-1])],
    }


def _whole_reports(batches, solution, model):
    """``_reports`` from whole-batch decompositions reduced as whole arrays.

    These are the audits without blocks of paths: the reference the streamed
    audits must equal, every figure bit for bit but the root-mean-square
    step, whose sum of squares runs in another order.
    """
    decs = [_reference_components(b, solution, model) for b in batches]
    n_steps = batches[0].n_steps
    dt = float(decs[0].times[1] - decs[0].times[0])
    marks = [n_steps // 4, n_steps // 2, (3 * n_steps) // 4, n_steps]
    checks = [_whole_check(dec, marks, dt, 5.0 * dt) for dec in decs]
    mart = {
        "checks": checks,
        "worst_case_control": checks[0]["control"],
        "worst_case_k_flatness": checks[0]["k_final_max_abs"],
        "worst_case_mek_max_dev_se": max(abs(d) for d in checks[0]["mk_deviations_se"]),
        "identity_max": max(c["identity_max_abs"] for c in checks),
        "bsde_max_step": max(c["bsde_max_step"] for c in checks),
        "bsde_rms_step": max(c["bsde_rms_step"] for c in checks),
        "degenerate_set": False,
        "classical_k_max": 0.0,
        "passed": all(c["m_ok"] and c["k_ok"] for c in checks)
        and max(abs(d) for d in checks[0]["mk_deviations_se"]) <= 4.0,
    }
    return [mart, _whole_residual(decs[0])]


def _rms_apart(reports, reference):
    """Both as text with every rms figure taken out, and the pairs of rms figures."""
    pairs = []

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in RMS_FIELDS}
        return [strip(v) for v in node] if isinstance(node, list) else node

    def collect(a, b):
        if isinstance(a, dict):
            pairs.extend((a[k], b[k]) for k in RMS_FIELDS if k in a)
            for k in a:
                collect(a[k], b[k])
        elif isinstance(a, list):
            for x, y in zip(a, b):
                collect(x, y)

    collect(reports, reference)
    return (json.dumps(strip(reports), sort_keys=True),
            json.dumps(strip(reference), sort_keys=True), pairs)


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


def _affine_2d():
    """The benchmark's 2D model: no h, k or v, and a two-member covariance set."""
    return ModelSpec.build(
        m=2, d=2, b=["0.05 - 1.0 * x1", "0.05 - 1.0 * x2"], sigma=[[0.2, 0.0], [0.0, 0.2]],
        r="x1 + x2", uncertainty=UncertaintySet.finite([np.eye(2), [[1.0, 0.5], [0.5, 1.0]]]),
    )


# the loadings present: none in 1d and 2d_affine, k and v in 1d_switching, all in 2d
@pytest.fixture(scope="module", params=["1d", "2d", "1d_switching", "2d_affine"])
def blocked_case(request, ou_model, ou_sol):
    """A worst-case batch and the extreme-control batches, 701 paths x 50 steps."""
    if request.param == "1d":
        model, sol, x0 = ou_model, ou_sol, [0.05]
    elif request.param == "1d_switching":
        model = switching_model(1)
        sol = solve_ergodic(model, Grid.build([(-2.0, 2.0)], [129]), tol=1e-8)
        x0 = [0.05]
    else:
        model = _model_2d() if request.param == "2d" else _affine_2d()
        sol = solve_ergodic(model, Grid.build([(-2.5, 2.5)] * 2, [17, 17]), tol=1e-7)
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
        text, expect, rms = _rms_apart(blocked, _whole_reports(batches, sol, model))
        assert text == expect
        assert len(rms) == len(batches) + 2  # every check, the report and the residual
        for got, want in rms:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

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

    def test_batch_inside_the_grid_skips_the_excess_pass(self, blocked_case, monkeypatch):
        """Every state in the grid box: no excess is formed, and nothing changes."""
        model, sol, batches = blocked_case
        expect = [compute_components(b, sol, model) for b in batches]
        reports = _reports(expect[0], batches, sol, model)
        for b in batches:
            for ax, (lo, hi) in enumerate(sol.grid.bounds):
                assert lo <= np.min(b.X[..., ax]) and np.max(b.X[..., ax]) <= hi

        def fail(*args, **kwargs):
            raise AssertionError("coverage_excess called on a batch inside the grid")

        monkeypatch.setattr(type(sol), "coverage_excess", fail)
        for b, want in zip(batches, expect):
            got = compute_components(b, sol, model)
            for name in FIELDS:
                assert _same_bits(getattr(got, name), getattr(want, name)), name
        assert json.dumps(_reports(expect[0], batches, sol, model)) == json.dumps(reports)

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

    def test_audits_peak_at_a_few_blocks(self, const_model, const_sol):
        """The audits hold no decomposed batch, only blocks and per-path figures."""
        batches = [simulate_gsde(const_model, ctl, [0.0], 1.0, 2e-3, 2000, seed=3)
                   for ctl in [ConstantControl(1.0)] + extreme_controls(const_model.uncertainty)]
        assert batches[0].X.shape == (2000, 501, 1) and len(batches) == 3
        dec = compute_components(batches[0], const_sol, const_model)
        block = 8 * decomp._BLOCK_PATH_STEPS  # one float per path-step of a block
        for audit in (lambda: verify_bsde_residual(batches[0], const_sol, const_model),
                      lambda: verify_martingales(dec, batches[1:], const_sol, const_model)):
            tracemalloc.start()
            try:
                audit()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 48 * block, (peak, block)
