"""Each oracle check passes on a real result and rejects a perturbed one.

The real results come from the benchmark's own config documents at reduced
sizes (coarser grids, fewer paths and steps), so the whole file runs in
seconds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import gkernel as gk
from workloads import CONFIG_DIR


def _config(stem, **overrides):
    """Parse a benchmark config with grid/sim fields replaced."""
    doc = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    for block, values in overrides.items():
        doc[block].update(values)
    if "sim" in doc:
        doc["sim"].setdefault("seed", 11)
    return gk.parse_config(doc), doc


@pytest.fixture(scope="module")
def ou():
    cfg, _ = _config("ou_1d_257", grid={"nodes": [65]})
    return cfg, gk.solve_ergodic(cfg.model, cfg.grid, tol=cfg.solver.tol)


def test_ou_eigenpair_checks(ou):
    cfg, sol = ou
    xs = cfg.grid.points()[:, 0]
    assert checks.check_lam("ou", sol.lam, checks.OU_LAM, cfg.solver.tol) == []
    assert checks.check_lam("ou", sol.lam + 1e-4, checks.OU_LAM, cfg.solver.tol)
    assert checks.check_affine_slope("ou", xs, sol.u.values, -1.0) == []
    assert checks.check_affine_slope("ou", xs, sol.u.values + 0.02 * xs, -1.0)


def test_residual_check_rejects_a_bump(ou):
    cfg, sol = ou
    xs = cfg.grid.points()[:, 0]

    def residual(u):
        return checks.interval_residual_1d(
            xs, u, sol.lam, 0.8, 1.2, b=lambda x: 0.05 - x,
            sigma=lambda x: np.full_like(x, 0.2), r=lambda x: x)

    assert checks.check_residual("ou", residual(sol.u.values)) == []
    assert checks.check_residual("ou", residual(sol.u.values + 0.01 * np.exp(-xs**2)))
    # the benchmark's residual and the program's report agree on the interior
    assert residual(sol.u.values) == pytest.approx(sol.u.residual_linf, rel=1e-6, abs=1e-9)


def test_affine_2d_lam_check():
    cfg, _ = _config("ou_2d_33", grid={"nodes": [17, 17]})
    sol = gk.solve_ergodic(cfg.model, cfg.grid, tol=cfg.solver.tol)
    assert checks.check_lam("2d", sol.lam, checks.AFFINE_2D_LAM, cfg.solver.tol) == []
    assert checks.check_lam("2d", sol.lam + 1e-4, checks.AFFINE_2D_LAM, cfg.solver.tol)


def test_refinement_check():
    lams = []
    for stem in ("quad_1d_65", "quad_1d_129"):
        cfg, _ = _config(stem)
        lams.append(gk.solve_ergodic(cfg.model, cfg.grid, tol=cfg.solver.tol).lam)
    exact = checks.quadratic_rate_lam()
    assert checks.check_refinement("quad", lams[0], lams[1], exact) == []
    assert checks.check_refinement("quad", lams[0], lams[0], exact)   # no decay
    assert checks.check_refinement("quad", lams[0], exact + (lams[0] - exact) / 8, exact)


def test_march_check():
    w0 = {}
    for stem in ("march_1d_T25", "march_1d_T50"):
        _, doc = _config(stem)
        horizon = doc["grid"]["horizon"]
        cfg, _ = _config(stem, grid={"nodes": [33], "time_steps": int(horizon * 25)})
        w = gk.solve_parabolic(cfg.model, cfg.grid, np.zeros(cfg.grid.shape))
        w0[horizon] = float(w.values[0][cfg.grid.anchor_index()])
    assert checks.check_march(w0, checks.OU_LAM) == []
    flat = {t: (checks.OU_LAM + 1e-3) * t for t in w0}   # an error that does not decay
    assert checks.check_march(flat, checks.OU_LAM)


@pytest.mark.parametrize("stem", ["price_const_1d", "price_const_2d"])
def test_price_checks(stem):
    cfg, doc = _config(stem, sim={"n_paths": 400, "dt": 0.01})
    sol = gk.solve_ergodic(cfg.model, cfg.grid, tol=cfg.solver.tol)
    extremes = gk.extreme_controls(cfg.model.uncertainty)
    controls = extremes + [gk.worst_case_policy(sol, cfg.model)]
    est = gk.upper_price_mc(cfg.model, cfg.payoff, 1.0, controls, 0.01, 400,
                            seed=5, x0=cfg.sim.x0)
    v = np.asarray(doc["model"]["v"])
    exact = {c.label: checks.constant_kernel_price(doc["model"]["r"], v, c.q, 1.0)
             for c in extremes}
    best = max(extremes, key=lambda c: float(v @ c.q @ v)).label
    assert checks.check_constant_prices(stem, est.table, exact) == []
    assert checks.check_worst_case_row(stem, est.table, best) == []

    label = extremes[0].label
    mean, se = est.table[label]
    shifted = {**est.table, label: (mean + 5.0 * se, se)}
    assert checks.check_constant_prices(stem, shifted, exact)
    nudged = {**est.table, "worst_case": (math.nextafter(est.table[best][0], 2.0),
                                          est.table[best][1])}
    assert checks.check_worst_case_row(stem, nudged, best)
    other = next(c.label for c in extremes if c.label != best)
    assert checks.check_worst_case_row(stem, est.table, other)


def test_yield_check():
    assert checks.check_yields([checks.OU_LAM + 3e-3, checks.OU_LAM - 1e-3], checks.OU_LAM) == []
    assert checks.check_yields([checks.OU_LAM, checks.OU_LAM + 5e-3], checks.OU_LAM)


def test_decomposition_checks(ou):
    cfg, sol = ou
    dcfg, _ = _config("decompose_ou_1d")
    dt = 0.01
    upper, lower = gk.extreme_controls(dcfg.model.uncertainty)
    batch = gk.simulate_gsde(dcfg.model, gk.worst_case_policy(sol, dcfg.model),
                             [0.05], 1.0, dt, 200, seed=3)
    low = gk.simulate_gsde(dcfg.model, lower, [0.05], 1.0, dt, 200, seed=3)
    up = gk.simulate_gsde(dcfg.model, upper, [0.05], 1.0, dt, 200, seed=3)
    dec = gk.compute_components(batch, sol, dcfg.model)
    k_low = gk.compute_components(low, sol, dcfg.model).K
    direct = checks.direct_log_deflator(batch.X, dt, lambda X: X[..., 0])

    assert checks.check_identity("d", dec.ln_D_reconstructed, direct) == []
    bad = dec.ln_D_reconstructed.copy()
    bad[7, 50] += 2e-2
    assert checks.check_identity("d", bad, direct)

    assert checks.check_k_increments("d", dec.K, dt) == []
    assert checks.check_k_increments("d", k_low, dt) == []
    bumped = k_low.copy()
    bumped[3, 40:] += 6.0 * dt   # one positive increment of 6 dt
    assert checks.check_k_increments("d", bumped, dt)

    assert checks.check_terminal_k("d", k_low, checks.OU_K_RATE_LOWER) == []
    assert checks.check_terminal_k("d", k_low + 2e-3, checks.OU_K_RATE_LOWER)

    mart = gk.verify_martingales(dec, [up, low], sol, dcfg.model)
    assert checks.check_passed("d", mart.passed) == []
    assert checks.check_passed("d", False)


def test_digest_check():
    first = {"a.csv": "00", "b.json": "11"}
    assert checks.check_same_digests("d", first, dict(first)) == []
    assert checks.check_same_digests("d", first, {**first, "b.json": "12"})


def test_run_refuses_without_sources(tmp_path):
    """A copy holding only the benchmark exits non-zero and prints no result."""
    bench = CONFIG_DIR.parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "price", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
