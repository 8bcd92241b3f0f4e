"""Command-line front end.

Four subcommands cover the workflow:

* ``gkernel check --config c.json``      model regularity diagnostics
* ``gkernel solve --config c.json``      long-run eigenpair (u, lam)
* ``gkernel decompose --config c.json``  pathwise factorization audit
* ``gkernel price --config c.json``      worst-case payoff price

Common options: ``--out DIR`` writes CSV/JSON artifacts (falling back
to the config's ``output.dir``), ``--seed N`` and ``--paths N``
override the simulation block, ``--tol X`` overrides the solver
tolerance.  Exit codes: 0 success, 2 regularity check failed, 3
configuration error, 4 numerical failure.

``solve``, ``decompose`` and ``price`` run the diagnostics of ``check``
over the config's ``assumption_box`` before they solve, and warn when the
dissipativity margin fails there.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, _path_count, build_control, load_config
from .decomp import _audit_decomposition, compute_components, reconstruct_D
from .errors import ConfigurationError, EvaluationError, NumericalError
from .io import fmt17, write_json, write_solution_csv, write_traces_csv
from .model import check_assumptions
from .pde import solve_ergodic
from .sim import _march_groups, extreme_controls, simulate_gsde, upper_price_mc, worst_case_policy

_TRACE_PATH_LIMIT = 16     # traces.csv keeps at most this many paths
_AUDIT_PATH_LIMIT = 4000   # full-history batches held by the martingale audit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkernel",
        description="Long-horizon deflator analysis under volatility uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "check": "run the model regularity diagnostics",
        "solve": "solve for the long-run eigenpair (u, lam)",
        "decompose": "simulate paths and audit the deflator factorization",
        "price": "estimate the worst-case price of a terminal payoff",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="directory for CSV/JSON artifacts")
        p.add_argument("--seed", type=int, default=None, help="override sim.seed")
        p.add_argument("--paths", type=int, default=None, help="override sim.n_paths")
        p.add_argument("--tol", type=float, default=None, help="override solver.tol")
    return parser


def _out_dir(args, cfg: RunConfig) -> Path | None:
    target = args.out if args.out is not None else cfg.output.dir
    if target is None:
        return None
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_check(cfg: RunConfig, args) -> int:
    report = check_assumptions(cfg.model, *cfg.assumption_box)
    names = {
        "i": "symmetric covariation loadings",
        "ii": "finite Lipschitz and noise bounds",
        "iii": "dissipativity rate positive",
        "iv": "margin over the nonlinearity price",
    }
    for key in ("i", "ii", "iii", "iv"):
        status = "PASS" if report.clauses[key] else "FAIL"
        print(f"[{status}] ({key}) {names[key]}")
    print(f"lipschitz_bound={fmt17(report.c1)}")
    print(f"noise_lipschitz={fmt17(report.c_sigma)} noise_bound={fmt17(report.m_sigma)}")
    print(f"dissipativity={fmt17(report.eta_hat)} margin={fmt17(report.gap)}")
    out = _out_dir(args, cfg)
    if out is not None and "json" in cfg.output.formats:
        write_json(out / "assumptions.json", report.to_dict())
    return 0 if report.passed else 2


def _solve(cfg: RunConfig, args):
    if cfg.grid is None:
        raise ConfigurationError("this command needs a 'grid' block")
    # the one regularity diagnostic before a solve, over the box `check` judges
    try:
        report = check_assumptions(cfg.model, *cfg.assumption_box)
    except EvaluationError as exc:  # a coefficient is not finite somewhere in the box
        warnings.warn(f"assumption diagnostics failed ({exc}); continuing", stacklevel=2)
    else:
        if not report.clauses["iv"]:
            warnings.warn(f"dissipativity margin is not positive (gap = {report.gap:.4g}); "
                          "the long-horizon limit may be unreliable", stacklevel=2)
    settings = cfg.solver if args.tol is None else replace(cfg.solver, tol=args.tol)
    return solve_ergodic(cfg.model, cfg.grid, **vars(settings))


def _solution_payload(sol) -> dict:
    return {
        "lam": sol.lam,
        "anchor_point": list(sol.anchor_point),
        "delta_trace": [{"delta": d, "lam": l} for d, l in sol.delta_trace],
        "residual_linf": sol.u.residual_linf,
        "residual_l2": sol.u.residual_l2,
        "sweeps": sol.u.sweeps,
    }


def _run_solve(cfg: RunConfig, args) -> int:
    sol = _solve(cfg, args)
    print(f"lam={fmt17(sol.lam)}")
    print(f"residual_linf={fmt17(sol.u.residual_linf)} sweeps={sol.u.sweeps}")
    out = _out_dir(args, cfg)
    if out is not None:
        if "csv" in cfg.output.formats:
            write_solution_csv(out / "solution.csv", sol)
        if "json" in cfg.output.formats:
            write_json(out / "solution.json", _solution_payload(sol))
    return 0


def _sim_settings(cfg: RunConfig, args):
    if cfg.sim is None:
        raise ConfigurationError("this command needs a 'sim' block")
    sim = cfg.sim
    seed = args.seed if args.seed is not None else sim.seed
    n_paths = _path_count(args.paths, "--paths") if args.paths is not None else sim.n_paths
    return sim, seed, n_paths


def _run_decompose(cfg: RunConfig, args) -> int:
    sim, seed, n_paths = _sim_settings(cfg, args)  # settings errors before the solve
    sol = _solve(cfg, args)
    control = build_control(sim.control, cfg.model, sol)
    batch = simulate_gsde(
        cfg.model, control, sim.x0, sim.horizon, sim.dt, n_paths, seed=seed
    )
    dec = compute_components(batch, sol, cfg.model)
    _, recon_stats = reconstruct_D(dec)

    n_audit = min(n_paths, _AUDIT_PATH_LIMIT)
    # an extreme that applies the control's own fixed scenario has the same
    # paths on the same seed (per-path streams): its audit batch is the first
    # n_audit paths of the main batch, which the audit then reads from `dec`
    extra = [
        replace(batch.path_slice(0, n_audit), control_label=ctl.label)
        if len(_march_groups([control, ctl])) == 1 else
        simulate_gsde(cfg.model, ctl, sim.x0, sim.horizon, sim.dt, n_audit,
                      seed=seed)
        for ctl in extreme_controls(cfg.model.uncertainty)
        if ctl.label != batch.control_label
    ]
    # the martingale audit of the first n_audit paths and the per-step report of
    # all of them read one reduction of the decomposition
    mart, bsde = _audit_decomposition(dec, n_audit, extra, sol, cfg.model)
    print(f"lam={fmt17(sol.lam)}")
    print(f"identity_max_abs_log_gap={fmt17(recon_stats['max_abs_log_gap'])}")
    print(f"martingale_checks_passed={mart.passed}")
    print(f"per_step_residual_rms={fmt17(bsde.rms_step)}")
    out = _out_dir(args, cfg)
    if out is not None:
        if "csv" in cfg.output.formats:
            write_solution_csv(out / "solution.csv", sol)
            write_traces_csv(out / "traces.csv", dec, max_paths=_TRACE_PATH_LIMIT)
        if "json" in cfg.output.formats:
            write_json(out / "decomposition.json", {
                "lam": sol.lam,
                "control": batch.control_label,
                "identity": recon_stats,
                "verification": mart.to_dict(),
                "per_step_consistency": bsde.to_dict(),
            })
    return 0


def _run_price(cfg: RunConfig, args) -> int:
    sim, seed, n_paths = _sim_settings(cfg, args)
    sol = _solve(cfg, args)
    controls = [worst_case_policy(sol, cfg.model)]
    controls += extreme_controls(cfg.model.uncertainty)
    est = upper_price_mc(
        cfg.model, cfg.payoff, sim.horizon, controls, sim.dt, n_paths,
        seed=seed, x0=sim.x0,
    )
    print(f"price={fmt17(est.estimate)} stderr={fmt17(est.stderr)} control={est.control}")
    out = _out_dir(args, cfg)
    if out is not None and "json" in cfg.output.formats:
        write_json(out / "price.json", {
            "lam": sol.lam,
            **est.to_dict(),
        })
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _run_check,
        "solve": _run_solve,
        "decompose": _run_decompose,
        "price": _run_price,
    }
    try:
        cfg = load_config(args.config)
        return handlers[args.command](cfg, args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
