"""End-to-end acceptance gate.

Ten numbered criteria, each asserted at a stated tolerance and reported as a
single [PASS]/[FAIL] line.  The lines are echoed in the terminal summary by a
conftest hook so a plain ``pytest`` run shows the verdict table.
"""

import json
import time

import numpy as np
import pytest

from conftest import quadratic_rate_lam, quadratic_rate_model
from gkernel import (
    Grid,
    ModelSpec,
    UncertaintySet,
    check_assumptions,
    compute_components,
    extreme_controls,
    g_value,
    long_term_yield_mc,
    parse_coefficient,
    pde_residual,
    simulate_gsde,
    solve_ergodic,
    solve_parabolic,
    truncation_level,
    upper_price_mc,
    worst_case_policy,
)
from gkernel.cli import main as cli_main

SEED = 2026
_LINES = []


def _record(ok: bool, num: int, label: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {label}: {detail}"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def identity_decomps(const_model, const_sol, ou_model, ou_sol):
    """Worst-case and extreme-scenario decompositions at dt = 1e-3, 10^3 paths."""
    out = {}
    for name, model, sol in (
        ("constant", const_model, const_sol),
        ("mean-reverting", ou_model, ou_sol),
    ):
        controls = list(extreme_controls(model.uncertainty))
        controls.append(worst_case_policy(sol, model))
        for ctl in controls:
            batch = simulate_gsde(model, ctl, [0.0], 1.0, 1e-3, 1000, seed=SEED)
            out[name, ctl.label] = compute_components(batch, sol, model)
    return out


def test_criterion_01_constant_model_eigenvalue():
    model = ModelSpec.build(
        m=1, d=1, b=["-1.0 * x1"], sigma=[["0.2"]], r=0.02, v=["0.3"],
        uncertainty=UncertaintySet.interval(0.5, 1.0), label="constant-kernel",
    )
    grid = Grid.build([[-3.0, 3.0]], [257])
    lam_ref = -0.02 + 0.5 * 0.3**2 * 1.0  # flat coefficients: rate solvable by hand
    t0 = time.perf_counter()
    sol = solve_ergodic(model, grid, tol=1e-7)
    elapsed = time.perf_counter() - t0
    err = abs(sol.lam - lam_ref)
    _record(
        err < 1e-3 and elapsed < 30.0, 1, "constant-model eigenvalue",
        f"lam={sol.lam:.8f} err={err:.2e} (tol 1e-3), solve {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_02_mean_reverting_eigenpair(ou_sol, ou_grid):
    # affine ansatz u = -x: rate = -kappa*theta + max volatility loading of z^2/2
    lam_ref = -0.05 + 0.5 * 1.2 * 0.04
    err = abs(ou_sol.lam - lam_ref)
    xs = ou_grid.points()[:, 0]
    mask = np.abs(xs) <= 1.0
    basis = np.column_stack([np.ones(mask.sum()), xs[mask]])
    coef, *_ = np.linalg.lstsq(basis, ou_sol.u.values[mask], rcond=None)
    fit_resid = float(np.max(np.abs(ou_sol.u.values[mask] - basis @ coef)))
    slope_err = abs(coef[1] + 1.0)
    _record(
        err < 2e-3 and slope_err < 1e-2 and fit_resid < 1e-2,
        2, "mean-reverting eigenpair",
        f"lam={ou_sol.lam:.8f} err={err:.2e} (tol 2e-3), slope={coef[1]:.4f} "
        f"(target -1 within 1e-2), affine fit residual {fit_resid:.2e} (tol 1e-2)",
    )


def test_criterion_03_rate_cross_consistency(ou_model, ou_sol):
    lam = ou_sol.lam
    # finite-horizon transient decay: err(T) = |w(0,x0)/T - lam| ~ c/T
    base = Grid.build([[-2.0, 2.0]], [129])
    dt_target = base.diffusion_cfl(ou_model) / 2.7  # below the positivity bound
    errs = []
    for horizon in (25.0, 50.0):
        steps = int(np.ceil(horizon / dt_target))
        grid = Grid.build([[-2.0, 2.0]], [129], horizon=horizon, time_steps=steps)
        w = solve_parabolic(ou_model, grid, np.zeros(129))
        w0 = w.values[0][grid.anchor_index()]
        errs.append(abs(w0 / horizon - lam))
    ratio = errs[1] / errs[0]

    policy = worst_case_policy(ou_sol, ou_model)
    est = long_term_yield_mc(
        ou_model, [10.0, 20.0, 40.0], policy, dt=0.02, n_paths=100_000,
        seed=SEED, x0=[0.0], chunk_size=20_000,
    )
    mc_err = float(np.max(np.abs(np.asarray(est.rates) - lam)))
    _record(
        0.3 <= ratio <= 0.7 and mc_err < 4e-3,
        3, "rate cross-consistency",
        f"|w(0,x0)/T - lam| = {errs[0]:.2e} (T=25) -> {errs[1]:.2e} (T=50), "
        f"ratio {ratio:.3f} (window [0.3, 0.7]); simulated yields off by "
        f"{mc_err:.2e} max at T in (10, 20, 40) (tol 4e-3)",
    )


def test_criterion_04_decomposition_identity(identity_decomps):
    gaps = {"constant": 0.0, "mean-reverting": 0.0}
    for (name, _), dec in identity_decomps.items():
        gaps[name] = max(gaps[name], dec.max_abs_gap)
    _record(
        gaps["constant"] < 5e-3 and gaps["mean-reverting"] < 1e-2,
        4, "decomposition identity",
        f"max log gap {gaps['constant']:.2e} constant (tol 5e-3), "
        f"{gaps['mean-reverting']:.2e} mean-reverting (tol 1e-2); "
        "extreme and feedback controls, dt=1e-3, 1000 paths",
    )


def test_criterion_05_martingale_suite(const_model, const_sol, ou_model, ou_sol):
    n_paths = 100_000
    rootn = np.sqrt(n_paths)
    worst_z = 0.0
    ok = True
    checks = 0
    for model, sol in ((const_model, const_sol), (ou_model, ou_sol)):
        controls = list(extreme_controls(model.uncertainty))
        controls.append(worst_case_policy(sol, model))
        for ctl in controls:
            batch = simulate_gsde(model, ctl, [0.0], 1.0, 1.0 / 32, n_paths,
                                  seed=SEED)
            dec = compute_components(batch, sol, model)
            M = np.exp(dec.ln_M)
            for q in (8, 16, 24, 32):
                cols = [M[:, q]]
                if ctl.label == "worst_case":
                    cols.append(M[:, q] * np.exp(dec.K[:, q]))
                for col in cols:
                    dev = abs(float(col.mean()) - 1.0)
                    se = float(col.std(ddof=1)) / rootn
                    ok = ok and dev <= 3.0 * se
                    checks += 1
                    if se > 0.0:
                        worst_z = max(worst_z, dev / se)
    _record(
        ok, 5, "martingale suite",
        f"{checks} checkpoint means within 3 standard errors of 1 "
        f"(worst z={worst_z:.2f}); includes the compensated product under the "
        f"worst-case policy; {n_paths} paths per control",
    )


def test_criterion_06_compensator_properties(identity_decomps, const_model,
                                             const_grid):
    dt = 1e-3
    violations = sum(
        int(np.sum(np.diff(dec.K, axis=1) > 5.0 * dt))
        for dec in identity_decomps.values()
    )
    low = identity_decomps["constant", "lower"]
    up = identity_decomps["constant", "upper"]
    low_err = float(np.max(np.abs(low.K[:, -1] + 0.0225)))
    up_max = float(np.max(np.abs(up.K[:, -1])))

    classical = ModelSpec.build(
        m=1, d=1, b=["-1.0 * x1"], sigma=[["0.2"]], r=0.02, v=["0.3"],
        uncertainty=UncertaintySet.interval(1.0, 1.0), label="classical-limit",
    )
    csol = solve_ergodic(classical, const_grid, tol=1e-7)
    batch = simulate_gsde(classical, extreme_controls(classical.uncertainty)[0],
                          [0.0], 1.0, 4e-3, 500, seed=SEED)
    k_classical = float(np.max(np.abs(
        compute_components(batch, csol, classical).K)))
    _record(
        violations == 0 and low_err < 1e-3 and up_max < 1e-10
        and k_classical < 1e-10,
        6, "compensator properties",
        f"{violations} monotonicity violations (tol 5*dt/step); terminal value "
        f"under the low-volatility scenario off by {low_err:.2e} from -0.0225 "
        f"(tol 1e-3); max |K_T| = {up_max:.2e} under the high scenario "
        f"(tol 1e-10); classical reduction sup|K| = {k_classical:.2e} (tol 1e-10)",
    )


def test_criterion_07_upper_price(const_model, const_sol):
    controls = list(extreme_controls(const_model.uncertainty))
    controls.append(worst_case_policy(const_sol, const_model))
    t0 = time.perf_counter()
    est = upper_price_mc(
        const_model, None, 1.0, controls=controls, dt=1e-3,
        n_paths=100_000, seed=SEED, x0=[0.0], chunk_size=20_000,
    )
    elapsed = time.perf_counter() - t0
    ref = float(np.exp(0.025))
    gap = abs(est.estimate - ref)
    _record(
        gap <= 3.0 * est.stderr and elapsed < 60.0,
        7, "upper price",
        f"sup estimate {est.estimate:.6f} vs exp(0.025)={ref:.6f}, "
        f"gap {gap:.2e} <= 3 se = {3 * est.stderr:.2e}, attained by "
        f"{est.control!r}; {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_08_pde_quality(ou_model, ou_sol, ou_grid):
    resid = pde_residual(ou_sol, ou_model).linf_interior

    quad = quadratic_rate_model()
    lam_ref = quadratic_rate_lam()
    errs = []
    for nodes in (65, 129, 257):
        grid = Grid.build([[-3.0, 3.0]], [nodes])
        errs.append(abs(solve_ergodic(quad, grid, tol=1e-8).lam - lam_ref))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])

    cmp_grid = Grid.build([[-2.0, 2.0]], [33], horizon=0.5, time_steps=64)
    xs33 = cmp_grid.points()[:, 0]
    rng = np.random.default_rng(0)
    worst_gap = np.inf
    for _ in range(20):
        lowT = (rng.normal() * np.tanh(xs33)
                + rng.normal() * np.cos(rng.uniform(0.5, 3.0) * xs33
                                        + rng.uniform(0.0, 6.3)))
        highT = lowT + rng.uniform(0.0, 1.0) * np.exp(
            -((xs33 - rng.uniform(-1.0, 1.0)) ** 2))
        w_low = solve_parabolic(ou_model, cmp_grid, lowT)
        w_high = solve_parabolic(ou_model, cmp_grid, highT)
        worst_gap = min(worst_gap, float(np.min(w_high.values - w_low.values)))

    rep = check_assumptions(ou_model, [(-2.0, 2.0)], [21])
    cap = truncation_level(
        mu=0.0, eta=rep.eta_hat, c_sigma=rep.c_sigma, c3=rep.c1, c_phi=0.0,
        sig_hi=np.sqrt(1.2), sig_lo=np.sqrt(0.8), m_sigma=rep.m_sigma,
    )
    xs = ou_grid.points()[:, 0]
    du = np.gradient(ou_sol.u.values, xs)
    central = np.abs(xs) <= 1.0  # central half of [-2, 2]
    zmax = float(np.max(np.abs(0.2 * du[central])))
    _record(
        resid < 1e-3 and all(1.5 <= f <= 4.0 for f in ratios)
        and worst_gap >= -1e-12 and zmax <= cap,
        8, "solver quality",
        f"interior residual {resid:.2e} (tol 1e-3); node-doubling error factors "
        f"{ratios[0]:.2f}, {ratios[1]:.2f} (window [1.5, 4]); comparison "
        f"principle slack {worst_gap:.1e} over 20 ordered terminal pairs "
        f"(floor -1e-12); max |sigma^T Du| = {zmax:.3f} <= gradient cap {cap}",
    )


def test_criterion_09_g_function_suite():
    rng = np.random.default_rng(42)
    band = UncertaintySet.interval(0.5, 1.0)
    scalars = rng.normal(scale=2.0, size=1000)
    qs = np.linspace(0.5, 1.0, 1001)
    worst_closed = 0.0
    for a in scalars:
        closed = 0.5 * (1.0 * max(a, 0.0) + 0.5 * min(a, 0.0))
        scan = float(np.max(0.5 * a * qs))
        got = g_value(np.array([[a]]), band).value
        worst_closed = max(worst_closed, abs(got - closed), abs(got - scan))

    members = [
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([[0.6, 0.2], [0.2, 0.9]]),
        np.array([[0.8, -0.1], [-0.1, 0.7]]),
    ]
    finite = UncertaintySet.finite(members)
    sig_lo, sig_hi = finite.lo, finite.hi
    worst_prop = 0.0
    for _ in range(1000):
        raw = rng.normal(size=(2, 2))
        a = 0.5 * (raw + raw.T)
        raw = rng.normal(size=(2, 2))
        b = 0.5 * (raw + raw.T)
        ga, gb = g_value(a, finite).value, g_value(b, finite).value
        worst_prop = max(worst_prop, g_value(a + b, finite).value - ga - gb)
        t = rng.uniform(0.0, 3.0)
        worst_prop = max(worst_prop, abs(g_value(t * a, finite).value - t * ga))
        c = rng.normal(size=(2, 2))
        psd = c @ c.T
        delta = float(np.trace(psd))
        g_up = g_value(a + psd, finite).value
        worst_prop = max(worst_prop, ga - g_up)  # monotone in the psd order
        worst_prop = max(worst_prop, g_up - ga - 0.5 * sig_hi * delta)
        worst_prop = max(worst_prop, 0.5 * sig_lo * delta - (g_up - ga))
    _record(
        worst_closed < 1e-12 and worst_prop < 1e-12,
        9, "nonlinearity suite",
        f"1D closed form vs 1001-point scan off by {worst_closed:.1e} "
        f"(tol 1e-12); sublinearity, homogeneity, monotonicity, ellipticity "
        f"sandwich violated by at most {worst_prop:.1e} over 1000 pairs",
    )


def test_criterion_10_determinism_and_parsing(tmp_path):
    doc = {
        "schema_version": 1,
        "label": "determinism",
        "model": {"m": 1, "d": 1, "b": ["-x1"], "sigma": [[0.2]], "r": 0.02,
                  "v": [0.3]},
        "uncertainty": {"kind": "interval", "lo": 0.5, "hi": 1.0},
        "grid": {"bounds": [[-3.0, 3.0]], "nodes": [65]},
        "sim": {"x0": [0.0], "horizon": 0.5, "dt": 0.01, "n_paths": 50,
                "seed": 3, "control": "worst_case"},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        assert cli_main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
    artifacts = ("solution.csv", "traces.csv", "decomposition.json")
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in artifacts
    )

    corpus = [
        "0.05 - 1.0 * x1",
        "x1 * x1 - 2.0 * x1 * x2",
        "tanh(x1) + 0.5 * abs(x2)",
        "max(x1, x2) - min(x1, 2.0)",
        "sqrt(abs(x1)) * exp(-x2 * x2)",
        "pow(x1, 2.0) + ln(abs(x2) + 1.0)",
        "(x1 + x2) / (2.0 + abs(x1))",
        "-x1 + 3.0e-2",
        "2.0 + -3.0 * -x2",
    ]
    pts = np.random.default_rng(7).uniform(-3.0, 3.0, size=(1000, 2))
    round_trips = True
    for src in corpus:
        first = parse_coefficient(src)
        second = parse_coefficient(first.source_text())
        round_trips = round_trips and np.array_equal(first(pts), second(pts))
    _record(
        identical and round_trips,
        10, "determinism and parsing",
        f"reruns byte-identical across {', '.join(artifacts)}; "
        f"{len(corpus)} expressions parse->print->parse evaluation-identical "
        "on 1000 random points",
    )
