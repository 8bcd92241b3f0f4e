"""The benchmark's three workloads, built from gkernel's public API.

Each workload reads its inputs from the config documents in ``configs/``,
sets the workload seed into their ``sim`` block, and parses them with
``gkernel.parse_config``.  ``setup`` builds everything the operations need,
including the eigen-solves that price and decompose depend on; ``ops``
lists the operations of one round.  Every operation is timed on its own and
then checked against an oracle from ``checks``; checks that compare two
operations (mesh refinement, parabolic transient) run once per round.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Path chunk sizes handed to the estimators and the simulator.
CHUNKS = {
    "price_const_1d": 2000,
    "price_const_2d": 500,
    "yield_ou_1d": 4000,
    "decompose_ou_1d": 2000,
    "decompose_ou_2d": 400,
}
TRACE_PATHS = 16  # traces.csv keeps this many paths, as the CLI does

# Eigen-solves whose sweep and halving counts are reported, by config name.
ALL_SOLVES = (
    "ou_1d_257", "quad_1d_65", "quad_1d_129", "ou_2d_33",
    "price_const_1d", "price_const_2d", "yield_ou_1d",
    "decompose_ou_1d", "decompose_ou_2d",
)
# Operations that march paths, for the per-step evaluation counts.
PATH_OPS = ("price_1d", "price_2d", "yield", "decompose_1d", "decompose_2d")


@dataclass
class Op:
    """One timed operation: ``run`` does the work, ``check`` judges its result.

    ``check`` returns (failure messages, small summary for the round check).
    ``dim`` is the state dimension of the model, which picks the end-to-end
    metric (d1_s or d2_s) the operation's time goes to.  ``path_steps``
    counts simulated path-steps summed over controls; ``control_steps``
    counts steps of one path chunk under one control.
    """

    name: str
    dim: int
    run: Callable[[], object]
    check: Callable[[object], tuple]
    path_steps: int = 0
    control_steps: int = 0


def load(gk, stem: str, seed: int):
    """Parse ``configs/<stem>.json`` with the workload seed in its sim block."""
    doc = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    if "sim" in doc:
        doc["sim"]["seed"] = seed
    return gk.parse_config(doc), doc


class Workload:
    name = ""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.solve_counts: dict[str, tuple[int, int]] = {}

    def solve(self, gk, stem: str, cfg):
        """``solve_ergodic`` with the config's solver block, as the CLI runs it."""
        s = cfg.solver
        sol = gk.solve_ergodic(
            cfg.model, cfg.grid,
            delta0=s.delta0, tol=s.tol, gamma1=s.gamma1, gamma2=s.gamma2,
            mode=s.mode, tol_inner=s.tol_inner, max_sweeps=s.max_sweeps,
            max_halvings=s.max_halvings, anchor=s.anchor,
            gradient_cap=s.gradient_cap,
        )
        self.solve_counts[stem] = (sol.u.sweeps, len(sol.delta_trace))
        return sol

    def setup(self, gk, seed: int) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check_round(self, summaries: dict) -> list[str]:
        return []


class Ergodic(Workload):
    """PDE solves only: four eigen-solves and two parabolic marches."""

    name = "ergodic"
    SOLVES = (("ou_1d_257", 1), ("quad_1d_65", 1), ("quad_1d_129", 1), ("ou_2d_33", 2))
    MARCHES = ("march_1d_T25", "march_1d_T50")

    def setup(self, gk, seed):
        self.gk = gk
        self.cfgs = {stem: load(gk, stem, seed)[0]
                     for stem in [s for s, _ in self.SOLVES] + list(self.MARCHES)}

    def ops(self):
        out = [Op(stem, dim, self._solver(stem), self._solve_check(stem))
               for stem, dim in self.SOLVES]
        out += [Op(stem, 1, self._marcher(stem), self._march_summary(stem))
                for stem in self.MARCHES]
        return out

    def _solver(self, stem):
        return lambda: self.solve(self.gk, stem, self.cfgs[stem])

    def _marcher(self, stem):
        cfg = self.cfgs[stem]
        return lambda: self.gk.solve_parabolic(cfg.model, cfg.grid, np.zeros(cfg.grid.shape))

    def _solve_check(self, stem):
        cfg = self.cfgs[stem]

        def check(sol):
            # the residual bound holds where u is affine; the quadratic-rate
            # model is judged by its error decay under mesh refinement instead
            if stem == "ou_2d_33":
                return (checks.check_residual(stem, sol.u.residual_linf)
                        + checks.check_lam(stem, sol.lam, checks.AFFINE_2D_LAM,
                                           cfg.solver.tol)), None
            if stem != "ou_1d_257":
                return [], sol.lam
            xs = cfg.grid.points()[:, 0]
            own = checks.interval_residual_1d(
                xs, sol.u.values, sol.lam, 0.8, 1.2, b=lambda x: 0.05 - x,
                sigma=lambda x: np.full_like(x, 0.2), r=lambda x: x)
            fails = checks.check_residual(stem, sol.u.residual_linf)
            fails += checks.check_residual(f"{stem} (benchmark's own residual)", own)
            fails += checks.check_lam(stem, sol.lam, checks.OU_LAM, cfg.solver.tol)
            fails += checks.check_affine_slope(stem, xs, sol.u.values, -1.0)
            return fails, sol.lam

        return check

    def _march_summary(self, stem):
        grid = self.cfgs[stem].grid

        def summary(w):
            return [], (grid.horizon, float(w.values[0][grid.anchor_index()]))

        return summary

    def check_round(self, summaries):
        fails = []
        if summaries.keys() >= {"quad_1d_65", "quad_1d_129"}:
            fails += checks.check_refinement(
                "quadratic-rate", summaries["quad_1d_65"], summaries["quad_1d_129"],
                checks.quadratic_rate_lam())
        if summaries.keys() >= set(self.MARCHES):
            fails += checks.check_march(dict(summaries[s] for s in self.MARCHES), checks.OU_LAM)
        return fails


class Price(Workload):
    """Streaming Monte Carlo: upper prices in d = 1 and d = 2, long-run yields."""

    name = "price"

    def setup(self, gk, seed):
        self.gk = gk
        self.items = {}
        for stem in ("price_const_1d", "price_const_2d", "yield_ou_1d"):
            cfg, doc = load(gk, stem, seed)
            sol = self.solve(gk, stem, cfg)
            policy = gk.build_control(cfg.sim.control, cfg.model, sol)
            self.items[stem] = (cfg, doc, policy)

    def ops(self):
        return [self._price_op("price_1d", 1, "price_const_1d"),
                self._price_op("price_2d", 2, "price_const_2d"),
                self._yield_op()]

    def _price_op(self, name, dim, stem):
        cfg, doc, policy = self.items[stem]
        sim = cfg.sim
        extremes = self.gk.extreme_controls(cfg.model.uncertainty)
        controls = extremes + [policy]
        v = np.asarray(doc["model"]["v"], dtype=float)
        exact = {c.label: checks.constant_kernel_price(doc["model"]["r"], v, c.q, sim.horizon)
                 for c in extremes}
        best = max(extremes, key=lambda c: float(v @ c.q @ v)).label
        n_chunks = -(-sim.n_paths // CHUNKS[stem])

        def run():
            return self.gk.upper_price_mc(
                cfg.model, cfg.payoff, sim.horizon, controls, sim.dt, sim.n_paths,
                seed=sim.seed, x0=sim.x0, chunk_size=CHUNKS[stem])

        def check(est):
            return (checks.check_constant_prices(name, est.table, exact)
                    + checks.check_worst_case_row(name, est.table, best)), None

        return Op(name, dim, run, check,
                  path_steps=len(controls) * sim.n_paths * sim.n_steps,
                  control_steps=len(controls) * n_chunks * sim.n_steps)

    def _yield_op(self):
        stem = "yield_ou_1d"
        cfg, _, policy = self.items[stem]
        sim = cfg.sim

        def run():
            return self.gk.long_term_yield_mc(
                cfg.model, sim.checkpoints, policy, sim.dt, sim.n_paths,
                seed=sim.seed, x0=sim.x0, chunk_size=CHUNKS[stem])

        def check(est):
            return checks.check_yields(est.rates, checks.OU_LAM), None

        return Op("yield", 1, run, check, path_steps=sim.n_paths * sim.n_steps,
                  control_steps=-(-sim.n_paths // CHUNKS[stem]) * sim.n_steps)


class Decompose(Workload):
    """Full histories: simulate three controls, decompose, audit, write artifacts."""

    name = "decompose"
    # control with a closed-form K_T, its K rate, and the short rate r(x)
    KNOWN = {
        "decompose_ou_1d": ("lower", checks.OU_K_RATE_LOWER, lambda X: X[..., 0]),
        "decompose_ou_2d": ("member_0", checks.AFFINE_2D_K_RATE_MEMBER_0,
                            lambda X: X[..., 0] + X[..., 1]),
    }

    def setup(self, gk, seed):
        self.gk = gk
        self.items = {}
        self.first_digests = {}
        for stem in self.KNOWN:
            cfg, _ = load(gk, stem, seed)
            self.items[stem] = (cfg, self.solve(gk, stem, cfg))

    def ops(self):
        return [self._op("decompose_1d", 1, "decompose_ou_1d"),
                self._op("decompose_2d", 2, "decompose_ou_2d")]

    def _op(self, name, dim, stem):
        gk = self.gk
        cfg, sol = self.items[stem]
        model, sim = cfg.model, cfg.sim
        known_label, k_rate, rate = self.KNOWN[stem]
        n_controls = 1 + len(gk.extreme_controls(model.uncertainty))

        def simulate(control):
            return gk.simulate_gsde(model, control, sim.x0, sim.horizon, sim.dt, sim.n_paths,
                                    seed=sim.seed, chunk_size=CHUNKS[stem])

        def run():
            main = gk.build_control(sim.control, model, sol)
            batch = simulate(main)
            others = [simulate(c) for c in gk.extreme_controls(model.uncertainty)
                      if c.label != main.label]
            known = next(b for b in others if b.control_label == known_label)
            k_known = gk.compute_components(known, sol, model).K
            dec = gk.compute_components(batch, sol, model)
            _, identity = gk.reconstruct_D(dec)
            mart = gk.verify_martingales(dec, others, sol, model)
            bsde = gk.verify_bsde_residual(batch, sol, model)
            with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
                out = Path(tmp)
                gk.write_solution_csv(out / "solution.csv", sol)
                gk.write_traces_csv(out / "traces.csv", dec, max_paths=TRACE_PATHS)
                gk.write_json(out / "decomposition.json", {
                    "lam": sol.lam,
                    "control": batch.control_label,
                    "identity": identity,
                    "verification": mart.to_dict(),
                    "per_step_consistency": bsde.to_dict(),
                })
                digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted(out.iterdir())}
            return batch.X, dec, k_known, mart, digests

        def check(result):
            X, dec, k_known, mart, digests = result
            direct = checks.direct_log_deflator(X, sim.dt, rate)
            fails = checks.check_identity(name, dec.ln_D_reconstructed, direct)
            fails += checks.check_k_increments(f"{name} worst_case", dec.K, sim.dt)
            fails += checks.check_k_increments(f"{name} {known_label}", k_known, sim.dt)
            fails += checks.check_terminal_k(f"{name} {known_label}", k_known,
                                             k_rate * sim.horizon)
            fails += checks.check_passed(name, mart.passed)
            first = self.first_digests.setdefault(name, digests)
            fails += checks.check_same_digests(name, first, digests)
            return fails, None

        return Op(name, dim, run, check,
                  path_steps=n_controls * sim.n_paths * sim.n_steps,
                  control_steps=n_controls * -(-sim.n_paths // CHUNKS[stem]) * sim.n_steps)


WORKLOADS = {w.name: w for w in (Ergodic, Price, Decompose)}
