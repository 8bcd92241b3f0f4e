"""Strict configuration parsing, deterministic writers, and the CLI."""

import copy
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gkernel import (
    CoefficientFn,
    ConfigurationError,
    ConstantControl,
    Decomposition,
    FeedbackControl,
    Grid,
    ModelSpec,
    PdeSolution,
    PiecewiseControl,
    ShapeError,
    SolverSettings,
    UncertaintySet,
    build_control,
    load_config,
    parse_config,
    simulate_gsde,
    solve_ergodic,
    write_json,
    write_solution_csv,
    write_traces_csv,
)
from gkernel import cli
from gkernel.cli import main
from gkernel.io import fmt17
from gkernel.pde import nodal_gradient

REPO_ROOT = Path(__file__).resolve().parents[1]


def base_doc() -> dict:
    return {
        "schema_version": 1,
        "label": "round-trip",
        "model": {
            "m": 1, "d": 1,
            "b": ["-x1"],
            "sigma": [[0.2]],
            "r": 0.02,
            "v": [0.3],
        },
        "uncertainty": {"kind": "interval", "lo": 0.5, "hi": 1.0},
        "grid": {"bounds": [[-3.0, 3.0]], "nodes": [65]},
    }


def sim_doc() -> dict:
    doc = base_doc()
    doc["sim"] = {
        "x0": [0.0], "horizon": 0.5, "dt": 0.01, "n_paths": 50,
        "seed": 3, "control": "worst_case",
    }
    return doc


def write_cfg(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _console_script_command(name):
    """Command that runs the console script ``name`` declared in pyproject.toml.

    An installed script is run as is.  Without an install (the suite runs
    from ``PYTHONPATH=src``), the declared ``module:function`` target is
    run through the interpreter the way the generated wrapper does, so a
    missing or wrong declaration still fails.
    """
    exe = shutil.which(name)
    if exe is not None:
        return [exe], None
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return [sys.executable, "-c", code], env


class TestParsing:
    def test_minimal_document(self):
        cfg = parse_config(base_doc())
        assert cfg.label == "round-trip"
        assert cfg.model.m == 1
        assert cfg.grid.nodes == (65,)
        assert cfg.sim is None
        assert cfg.payoff is None
        assert cfg.solver.tol == 1e-6
        assert cfg.solver.mode is None
        assert cfg.output.dir is None
        assert cfg.output.formats == ("csv", "json")
        # assumption box falls back to the grid bounds
        assert cfg.assumption_box == (((-3.0, 3.0),), (12,))

    def test_sim_block_with_dt(self):
        cfg = parse_config(sim_doc())
        assert cfg.sim.dt == 0.01
        assert cfg.sim.n_steps == 50
        assert cfg.sim.control == "worst_case"

    def test_sim_block_with_step_count(self):
        doc = sim_doc()
        del doc["sim"]["dt"]
        doc["sim"]["n_steps"] = 25
        cfg = parse_config(doc)
        assert cfg.sim.dt == pytest.approx(0.02)
        assert cfg.sim.n_steps == 25

    def test_solver_and_output_blocks(self):
        doc = base_doc()
        doc["solver"] = {"tol": 1e-5, "gamma1": -1.5, "gamma2": [[0.5]], "anchor": [0.3]}
        doc["output"] = {"dir": "artifacts", "formats": ["json"]}
        doc["payoff"] = "max(x1, 0)"
        cfg = parse_config(doc)
        assert cfg.solver.gamma2 == ((0.5,),)
        assert cfg.solver.anchor == (0.3,)
        assert cfg.output.dir == "artifacts"
        assert cfg.output.formats == ("json",)
        assert float(cfg.payoff(np.array([[2.0]]))[0]) == 2.0

    def test_solver_settings_mirror_solve_ergodic(self):
        params = list(inspect.signature(solve_ergodic).parameters.values())[2:]
        assert {p.name: p.default for p in params} == {
            f.name: f.default for f in fields(SolverSettings)}

    def test_solver_keys_given_are_parsed_and_the_rest_keep_their_defaults(self):
        given = {"tol": 1e-7, "gamma1": -2.0, "gamma2": [[0.5]], "max_sweeps": 900,
                 "anchor": [0.3]}
        doc = base_doc()
        doc["solver"] = given
        parsed = parse_config(doc).solver
        assert parsed == SolverSettings(**{**given, "gamma2": ((0.5,),), "anchor": (0.3,)})
        assert type(parsed.max_sweeps) is int and type(parsed.gamma1) is float
        doc["solver"] = {"tol": 1e-7}
        assert parse_config(doc).solver == SolverSettings(tol=1e-7)
        # null keeps the default of the keys whose default is None
        doc["solver"] = {"tol": 1e-7, "anchor": None, "gamma2": None}
        assert parse_config(doc).solver == SolverSettings(tol=1e-7)
        doc["solver"] = {"max_sweeps": 1.5}
        with pytest.raises(ConfigurationError, match=r"solver\.max_sweeps must be an integer"):
            parse_config(doc)

    def test_finite_uncertainty(self):
        doc = base_doc()
        doc["model"]["d"] = 2
        doc["model"]["sigma"] = [[0.2, 0.1]]
        doc["model"]["v"] = [0.3, 0.0]
        doc["uncertainty"] = {
            "kind": "finite",
            "members": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]]],
        }
        cfg = parse_config(doc)
        assert cfg.model.uncertainty.kind == "finite"

    @pytest.mark.parametrize("mutate,where", [
        (lambda d: d.update(extra=1), "top-level key"),
        (lambda d: d.update(schema_version=2), "schema version"),
        (lambda d: d.pop("schema_version"), "missing version"),
        (lambda d: d.pop("model"), "missing model"),
        (lambda d: d["model"].update(drift="x1"), "model key"),
        (lambda d: d["model"].update(b=["-x1", "0"]), "drift length"),
        (lambda d: d["model"].update(sigma=[0.2]), "sigma nesting"),
        (lambda d: d["model"].pop("r"), "missing rate"),
        (lambda d: d["model"].update(r=True), "boolean coefficient"),
        (lambda d: d["uncertainty"].update(kind="ball"), "set kind"),
        (lambda d: d["uncertainty"].pop("hi"), "missing bound"),
        (lambda d: d["grid"].update(nodes=[65, 65]), "node count"),
        (lambda d: d["grid"].update(horizon=1.0), "horizon without steps"),
        (lambda d: d.update(solver={"tol": "tight"}), "solver number"),
        (lambda d: d.update(solver={"tol": 10**400}), "number beyond float range"),
        (lambda d: d.update(solver={"mode": "implicit"}), "solver mode"),
        (lambda d: d.update(solver={"quiet": True}), "solver key"),
        (lambda d: d.update(output={"formats": ["yaml"]}), "output format"),
        (lambda d: d.update(output={"dir": 7}), "output dir type"),
        (lambda d: d.update(output={"formats": []}), "empty formats"),
        (lambda d: d.update(payoff="max(x1"), "payoff expression"),
        (lambda d: d.update(assumption_box={"bounds": [[-1, 1]], "nodes": [5]}),
         "assumption nodes"),
    ])
    def test_malformed_documents_rejected(self, mutate, where):
        doc = sim_doc()
        mutate(doc)
        with pytest.raises(ConfigurationError):
            parse_config(doc)

    @pytest.mark.parametrize("anchor", [[0.5, 9.0], [], [float("nan")]],
                             ids=["long", "empty", "nan"])
    def test_anchor_length_named(self, anchor):
        doc = base_doc()
        doc["solver"] = {"anchor": anchor}
        with pytest.raises(ConfigurationError, match=r"solver\.anchor must list 1 finite"):
            parse_config(doc)

    @pytest.mark.parametrize("tensors,message", [
        ({"sigma": [0.2, 0.1]}, r"model\.sigma must be a sequence of length 1"),
        ({"sigma": [0.2]}, r"model\.sigma\[0\] must be a sequence of length 2"),
        ({"sigma": [{"a": 0.2}]}, r"model\.sigma\[0\] must be a sequence"),
        ({"sigma": ["0.2"]}, r"model\.sigma\[0\] must be a sequence"),
        ({"sigma": [[0.2, "y1"]]}, r"model\.sigma\[0\]\[1\]: unknown identifier 'y1'"),
        ({"sigma": [[0.2, True]]}, r"model\.sigma\[0\]\[1\] must be a number or an expression"),
        ({"h": [[[0.0], [0.0]], [[0.0]]]}, r"model\.h\[1\] must be a sequence of length 2"),
        ({"k": "0.1"}, r"model\.k must be a sequence of length 2"),
        ({"v": [0.1, None]}, r"model\.v\[1\]: cannot interpret NoneType"),
        ({"r": True}, r"model\.r must be a number or an expression, not a boolean"),
        ({"r": "max(x1"}, r"model\.r: expected '\)'"),
        ({"r": [0.02]}, r"model\.r: cannot interpret list"),
    ], ids=["sigma-rows", "sigma-number-row", "sigma-dict-row", "sigma-string-row",
            "sigma-bad-expression", "sigma-bool-leaf", "h-short-row", "k-string",
            "v-null-leaf", "r-bool", "r-bad-expression", "r-list"])
    def test_malformed_tensor_named(self, tensors, message):
        doc = base_doc()
        doc["model"].update({"d": 2, "sigma": [[0.2, 0.1]], "v": [0.3, 0.0], **tensors})
        doc["uncertainty"] = {"kind": "finite", "members": [[[1.0, 0.0], [0.0, 1.0]]]}
        with pytest.raises(ConfigurationError, match=message):
            parse_config(doc)

    @pytest.mark.parametrize("field,mutate", [
        ("grid.bounds[0][1]", lambda d: d["grid"].update(bounds=[[-3.0, "3"]])),
        ("assumption_box.bounds[0][0]",
         lambda d: d.update(assumption_box={"bounds": [[None, 1.0]], "nodes": [11]})),
        ("solver.gamma2[0][0]", lambda d: d.update(solver={"gamma2": [["0.5"]]})),
        ("solver.anchor[0]", lambda d: d.update(solver={"anchor": [None]})),
        ("sim.x0[0]", lambda d: d["sim"].update(x0=["0"])),
        ("sim.checkpoints[1]", lambda d: d["sim"].update(checkpoints=[0.1, True])),
    ], ids=["grid", "assumption_box", "gamma2", "anchor", "x0", "checkpoints"])
    def test_non_numeric_list_entry_named(self, field, mutate):
        doc = sim_doc()
        mutate(doc)
        with pytest.raises(ConfigurationError, match=re.escape(f"{field} must be a number")):
            parse_config(doc)

    @pytest.mark.parametrize("mutate", [
        lambda s: s.update(n_steps=25),            # both dt and n_steps
        lambda s: s.pop("dt"),                     # neither
        lambda s: s.update(dt=0.7),                # dt > horizon
        lambda s: s.update(dt=-0.1),
        lambda s: s.update(x0=[0.0, 0.0]),
        lambda s: s.update(control=7),
        lambda s: s.update(warmup=1),              # unknown key
    ])
    def test_malformed_sim_blocks_rejected(self, mutate):
        doc = sim_doc()
        mutate(doc["sim"])
        with pytest.raises(ConfigurationError):
            parse_config(doc)

    @pytest.mark.parametrize("n_paths", [0, -5])
    def test_path_count_named(self, n_paths):
        doc = sim_doc()
        doc["sim"]["n_paths"] = n_paths
        with pytest.raises(ConfigurationError, match=r"sim\.n_paths must be at least 1"):
            parse_config(doc)

    def test_grid_or_box_required(self):
        doc = base_doc()
        del doc["grid"]
        with pytest.raises(ConfigurationError):
            parse_config(doc)
        doc["assumption_box"] = {"bounds": [[-1.0, 1.0]], "nodes": [11]}
        cfg = parse_config(doc)
        assert cfg.grid is None
        assert cfg.assumption_box == (((-1.0, 1.0),), (11,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("block", ["grid", "assumption_box"])
    def test_non_finite_bound_named(self, block, bad):
        doc = base_doc()
        doc["assumption_box"] = {"bounds": [[-1.0, 1.0]], "nodes": [11]}
        doc[block]["bounds"] = [[bad, 2.0]]  # json writes and reads NaN and Infinity
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{block}.bounds[0][0] must be finite, got {bad}")):
            parse_config(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_horizon_rejected(self, bad):
        doc = base_doc()
        doc["grid"].update(horizon=bad, time_steps=16)
        with pytest.raises(ShapeError, match=f"^grid: horizon must be finite, got {bad}$"):
            parse_config(doc)

    def test_load_config_io_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(bad)


class TestBuildControl:
    def test_extreme_names(self, const_model):
        assert build_control("upper", const_model).q[0, 0] == 1.0
        assert build_control("lower", const_model).q[0, 0] == 0.5

    def test_constant_object(self, const_model):
        ctl = build_control({"constant": [[0.9]]}, const_model)
        assert isinstance(ctl, ConstantControl)
        assert ctl.q[0, 0] == 0.9

    def test_piecewise_object(self, const_model):
        ctl = build_control(
            {"piecewise": {"times": [0.0, 0.5], "matrices": [[[1.0]], [[0.5]]]}},
            const_model)
        assert isinstance(ctl, PiecewiseControl)

    def test_worst_case_needs_solution(self, const_model, const_sol):
        with pytest.raises(ConfigurationError):
            build_control("worst_case", const_model)
        ctl = build_control("worst_case", const_model, const_sol)
        assert isinstance(ctl, FeedbackControl)

    def test_rejections(self, const_model):
        with pytest.raises(ConfigurationError):
            build_control("median", const_model)
        with pytest.raises(ConfigurationError):
            build_control({"constant": [[1.0]], "piecewise": {}}, const_model)
        with pytest.raises(ConfigurationError):
            build_control({"piecewise": {"times": [0.5], "matrices": [[[1.0]]]}},
                          const_model)


# The three CSV writers written one row and one value at a time, kept as the
# oracle of the bytes of the table writer they share.


def _oracle_solution_csv(path, sol):
    grid = sol.grid
    pts = grid.points()
    values = sol.values.ravel()
    grad = nodal_gradient(sol.values, grid).reshape(-1, grid.m)
    resid = sol.residual.ravel() if sol.residual is not None else np.full(values.shape, np.nan)
    header = ([f"x{ax + 1}" for ax in range(grid.m)] + ["value"]
              + [f"gradient_{ax + 1}" for ax in range(grid.m)] + ["residual"])
    lines = [",".join(header)]
    for i in range(pts.shape[0]):
        row = ([fmt17(pts[i, ax]) for ax in range(grid.m)] + [fmt17(values[i])]
               + [fmt17(grad[i, ax]) for ax in range(grid.m)] + [fmt17(resid[i])])
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def _oracle_traces_csv(path, dec, max_paths):
    n, k1, m = dec.X.shape
    d = dec.Z.shape[2]
    n_write = n if max_paths is None else min(n, max_paths)
    header = (["path", "t"] + [f"x_{i + 1}" for i in range(m)] + ["u"]
              + [f"Z_{i + 1}" for i in range(d)]
              + ["ln_M", "K", "ln_D_direct", "ln_D_reconstructed"])
    lines = [",".join(header)]
    recon = dec.path_slice(0, n_write).ln_D_reconstructed
    for p in range(n_write):
        for s in range(k1):
            row = [str(p), fmt17(dec.times[s])]
            row += [fmt17(dec.X[p, s, i]) for i in range(m)]
            row.append(fmt17(dec.u[p, s]))
            row += [fmt17(dec.Z[p, s, i]) for i in range(d)]
            row += [fmt17(v) for v in (dec.ln_M[p, s], dec.K[p, s], dec.ln_D_direct[p, s],
                                       recon[p, s])]
            lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


_SPECIALS = (-0.0, math.inf, -math.inf, math.nan, 5e-324)


def _awkward(rng, shape):
    """Values over the whole double range, with every special value in it."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = x.reshape(-1)
    at = rng.choice(flat.size, size=4 * len(_SPECIALS), replace=False)
    flat[at] = np.tile(_SPECIALS, 4)
    return x


def _same_bytes(tmp_path, write, oracle, *args):
    write(tmp_path / "new.csv", *args)
    oracle(tmp_path / "old.csv", *args)
    return (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestWriters:
    def test_fmt17_round_trips_bitwise(self):
        rng = np.random.default_rng(0)
        xs = list(rng.normal(scale=1e3, size=200)) + [1e-300, 1e300, 0.0, -0.0]
        for x in xs:
            assert float(fmt17(x)) == x

    @pytest.mark.parametrize("m,d", [(1, 1), (2, 2)])
    def test_writers_match_their_row_by_row_oracle(self, tmp_path, m, d):
        rng = np.random.default_rng(40 + m)
        n, k1 = 20, 7
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, k1 - 1))])
        for _ in range(3):
            dec = Decomposition(times=times, X=_awkward(rng, (n, k1, m)), u=_awkward(rng, (n, k1)),
                                Z=_awkward(rng, (n, k1, d)), ln_M=_awkward(rng, (n, k1)),
                                K=_awkward(rng, (n, k1)), ln_D_direct=_awkward(rng, (n, k1)),
                                lam=0.25, control_label="c")
            with np.errstate(all="ignore"):
                for max_paths in (None, 3, 16):
                    assert _same_bytes(tmp_path, write_traces_csv, _oracle_traces_csv,
                                       dec, max_paths)

    @pytest.mark.parametrize("nodes", [[257], [65, 65]])  # 65 x 65 spans two row blocks
    def test_solution_writer_matches_its_row_by_row_oracle(self, tmp_path, nodes):
        rng = np.random.default_rng(len(nodes))
        grid = Grid.build([[-1.0, 2.0]] * len(nodes), nodes)
        shape = tuple(nodes)
        for resid in (_awkward(rng, shape), None):
            sol = PdeSolution(grid, "stationary", _awkward(rng, shape), residual=resid)
            with np.errstate(all="ignore"):
                assert _same_bytes(tmp_path, write_solution_csv, _oracle_solution_csv, sol)

    def test_write_json_deterministic(self, tmp_path):
        payload = {"b": 1.5, "a": [math.inf, float("nan")], "c": {"z": True}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, payload)
        write_json(p2, copy.deepcopy(payload))
        text = p1.read_text()
        assert text == p2.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        parsed = json.loads(text)
        assert parsed["a"] == ["inf", "nan"]

    def test_solution_csv_needs_a_stationary_solution(self, tmp_path):
        grid = Grid.build([(-1.0, 1.0)], [17], horizon=1.0, time_steps=4)
        parabolic = PdeSolution(grid=grid, kind="parabolic", values=np.zeros((5, 17)))
        for sol in (parabolic, grid):
            with pytest.raises(ShapeError, match="expects a stationary solution"):
                write_solution_csv(tmp_path / "solution.csv", sol)

    def test_solution_csv_layout(self, tmp_path, const_sol):
        path = tmp_path / "solution.csv"
        write_solution_csv(path, const_sol)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,value,gradient_1,residual"
        assert len(lines) == 1 + 257
        first = lines[1].split(",")
        assert float(first[0]) == -3.0

    def test_traces_csv_layout(self, tmp_path, const_model, const_sol):
        from gkernel import compute_components, worst_case_policy

        policy = worst_case_policy(const_sol, const_model)
        batch = simulate_gsde(const_model, policy, [0.0], 0.2, 0.05, 4, seed=8)
        dec = compute_components(batch, const_sol, const_model)
        path = tmp_path / "traces.csv"
        write_traces_csv(path, dec, max_paths=2)
        lines = path.read_text().splitlines()
        assert lines[0] == "path,t,x_1,u,Z_1,ln_M,K,ln_D_direct,ln_D_reconstructed"
        assert len(lines) == 1 + 2 * 5
        assert float(lines[-1].split(",")[6]) == dec.K[1, -1]


@pytest.fixture()
def run_cli(tmp_path, capsys):
    def _run(doc, *argv):
        cfg_path = write_cfg(tmp_path, doc)
        code = main([argv[0], "--config", cfg_path, *argv[1:]])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


class TestCli:
    def test_check_passes(self, run_cli):
        code, out, _ = run_cli(base_doc(), "check")
        assert code == 0
        assert out.count("[PASS]") == 4
        assert "dissipativity=" in out

    def test_check_fails_on_bad_drift(self, run_cli):
        doc = base_doc()
        doc["model"]["b"] = ["x1"]
        code, out, _ = run_cli(doc, "check")
        assert code == 2
        assert "[FAIL] (iii)" in out

    def test_configuration_error_exit(self, run_cli):
        doc = base_doc()
        doc["model"]["r"] = "ln(x1"
        code, _, err = run_cli(doc, "check")
        assert code == 3
        assert "configuration error" in err

    def test_non_finite_grid_bound_exits_as_configuration_error(self, run_cli):
        doc = base_doc()
        doc["grid"]["bounds"] = [[-math.inf, 2.0]]
        code, _, err = run_cli(doc, "check")
        assert code == 3
        assert "grid.bounds[0][0] must be finite, got -inf" in err

    def test_non_numeric_list_entry_exits_as_configuration_error(self, run_cli):
        doc = sim_doc()
        doc["sim"]["x0"] = [None]
        code, _, err = run_cli(doc, "check")
        assert code == 3
        assert "sim.x0[0] must be a number" in err

    def test_numerical_error_exit(self, run_cli):
        doc = base_doc()
        doc["model"]["b"] = ["0.05 - x1"]
        doc["model"]["r"] = "x1"
        doc["solver"] = {"max_sweeps": 3}
        code, _, err = run_cli(doc, "solve")
        assert code == 4
        assert "numerical failure" in err

    def test_solve_writes_artifacts(self, tmp_path, run_cli):
        out_dir = tmp_path / "art"
        code, out, _ = run_cli(base_doc(), "solve", "--out", str(out_dir))
        assert code == 0
        assert "lam=" in out
        payload = json.loads((out_dir / "solution.json").read_text())
        assert abs(payload["lam"] - 0.025) < 1e-4
        assert (out_dir / "solution.csv").exists()

    def test_output_formats_respected(self, tmp_path, run_cli):
        doc = base_doc()
        doc["output"] = {"formats": ["json"]}
        out_dir = tmp_path / "jsononly"
        code, *_ = run_cli(doc, "solve", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "solution.json").exists()
        assert not (out_dir / "solution.csv").exists()

    def test_output_dir_fallback(self, tmp_path, run_cli):
        doc = base_doc()
        doc["output"] = {"dir": str(tmp_path / "fallback")}
        code, *_ = run_cli(doc, "solve")
        assert code == 0
        assert (tmp_path / "fallback" / "solution.json").exists()

    def test_solve_reruns_byte_identical(self, tmp_path, run_cli):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(base_doc(), "solve", "--out", str(out1))[0] == 0
        assert run_cli(base_doc(), "solve", "--out", str(out2))[0] == 0
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
        assert (out1 / "solution.json").read_bytes() == (out2 / "solution.json").read_bytes()

    def test_decompose_run(self, tmp_path, run_cli):
        out_dir = tmp_path / "dec"
        code, out, _ = run_cli(sim_doc(), "decompose", "--out", str(out_dir))
        assert code == 0
        assert "martingale_checks_passed=True" in out
        payload = json.loads((out_dir / "decomposition.json").read_text())
        assert payload["verification"]["passed"] is True
        assert payload["control"] == "worst_case"
        lines = (out_dir / "traces.csv").read_text().splitlines()
        paths_written = {ln.split(",")[0] for ln in lines[1:]}
        assert len(paths_written) == 16  # capped below the 50 simulated

    def test_decompose_reruns_byte_identical(self, tmp_path, run_cli):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert run_cli(sim_doc(), "decompose", "--out", str(out1))[0] == 0
        assert run_cli(sim_doc(), "decompose", "--out", str(out2))[0] == 0
        for name in ("traces.csv", "decomposition.json", "solution.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_and_paths_overrides(self, tmp_path, run_cli):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        out3 = tmp_path / "o3"
        assert run_cli(sim_doc(), "decompose", "--out", str(out1))[0] == 0
        assert run_cli(sim_doc(), "decompose", "--out", str(out2),
                       "--seed", "99")[0] == 0
        assert run_cli(sim_doc(), "decompose", "--out", str(out3),
                       "--paths", "20")[0] == 0
        t1 = (out1 / "traces.csv").read_text()
        assert t1 != (out2 / "traces.csv").read_text()
        d3 = json.loads((out3 / "decomposition.json").read_text())
        assert d3["verification"]["checks"][0]["n_paths"] == 20

    def test_tol_override_rounds_trace(self, run_cli):
        code, out, _ = run_cli(base_doc(), "solve", "--tol", "1e-3")
        assert code == 0

    def test_price_run(self, tmp_path, run_cli):
        doc = sim_doc()
        doc["payoff"] = "1"
        doc["sim"]["n_paths"] = 400
        doc["sim"]["dt"] = 0.025
        out_dir = tmp_path / "price"
        code, out, _ = run_cli(doc, "price", "--out", str(out_dir))
        assert code == 0
        payload = json.loads((out_dir / "price.json").read_text())
        assert set(payload["table"]) == {"worst_case", "upper", "lower"}
        assert payload["estimate"] == payload["table"][payload["control"]]["mean"]

    @pytest.mark.parametrize("command", ["decompose", "price"])
    @pytest.mark.parametrize("paths", ["0", "-5"])
    def test_paths_override_checked_before_solving(self, run_cli, command, paths,
                                                   monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the path count was checked")

        monkeypatch.setattr(cli, "solve_ergodic", no_solve)
        code, _, err = run_cli(sim_doc(), command, "--paths", paths)
        assert code == 3
        assert "configuration error: --paths must be at least 1" in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_point_named_before_solving(self, run_cli, bad, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the start point was checked")

        monkeypatch.setattr(cli, "solve_ergodic", no_solve)
        doc = sim_doc()
        doc["sim"]["x0"] = [bad]  # json writes and reads NaN and Infinity
        code, _, err = run_cli(doc, "price")
        assert code == 3
        assert "sim.x0[0] must be finite" in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["sim.horizon", "sim.checkpoints[1]"])
    def test_non_finite_horizon_and_checkpoints_named_before_solving(self, run_cli, name, bad,
                                                                     monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the sim block was checked")

        monkeypatch.setattr(cli, "solve_ergodic", no_solve)
        doc = sim_doc()
        if name == "sim.horizon":
            doc["sim"]["horizon"] = bad
        else:
            doc["sim"]["checkpoints"] = [0.1, bad]
        with pytest.raises(ConfigurationError, match=re.escape(f"{name} must be finite")):
            parse_config(doc)
        for command in ("price", "decompose"):
            code, _, err = run_cli(doc, command)
            assert code == 3
            assert f"{name} must be finite" in err

    @pytest.mark.parametrize("argv,name", [(("--tol", "inf"), "tol")], ids=["tol-inf"])
    def test_solver_setting_out_of_range_exits_3(self, run_cli, argv, name):
        code, out, err = run_cli(base_doc(), "solve", *argv)
        assert (code, out) == (3, "")
        assert f"configuration error: {name} must be" in err

    @pytest.mark.parametrize("name,value", [
        ("delta0", 0.5), ("tol_inner", 1e-10), ("max_halvings", 20), ("mode", "pricing"),
        ("gradient_cap", 40),
    ])
    def test_retired_solver_key_exits_3(self, run_cli, name, value):
        # the retired settings of solve_ergodic are not config keys
        doc = base_doc()
        doc["solver"] = {"tol": 1e-7, name: value}
        code, out, err = run_cli(doc, "solve")
        assert (code, out) == (3, "")
        assert f"configuration error: unknown key(s) in solver: {name}" in err

    def test_tolerance_below_round_off_exits_4(self, run_cli):
        # the one Newton solve from u = 0 reports its own cause
        doc = json.loads((REPO_ROOT / "configs" / "mean_reverting.json").read_text())
        code, out, err = run_cli(doc, "solve", "--tol", "1e-16")
        assert (code, out) == (4, "")
        assert "below the round-off floor" in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_set_member_exits_3(self, run_cli, bad):
        doc = base_doc()
        doc["uncertainty"] = {"kind": "finite", "members": [[[bad]], [[1.0]]]}
        code, _, err = run_cli(doc, "check")
        assert code == 3
        assert "uncertainty: member 0 has a non-finite entry" in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_piecewise_breakpoint_exits_3(self, run_cli, bad):
        doc = sim_doc()
        doc["sim"]["control"] = {"piecewise": {"times": [0.0, bad],
                                               "matrices": [[[1.0]], [[0.5]]]}}
        code, _, err = run_cli(doc, "decompose")
        assert code == 3
        assert "sim.control.piecewise: piecewise breakpoints must be finite" in err

    def test_sim_block_required_for_paths(self, run_cli):
        code, _, err = run_cli(base_doc(), "decompose")
        assert code == 3
        assert "sim" in err

    def test_console_entry_point(self, tmp_path):
        cfg = write_cfg(tmp_path, base_doc(), name="entry.json")
        cmd, env = _console_script_command("gkernel")
        proc = subprocess.run(
            [*cmd, "check", "--config", cfg],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("[PASS]") == 4

    def test_import_leaves_scipy_unloaded(self):
        # scipy is not a dependency: importing it would add about 0.4 s and
        # 30 MB to every run
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        code = ("import sys, gkernel, gkernel.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def tanh_doc(box=None) -> dict:
    """Volatility that rises near x1 = 3: the margin passes over the grid
    [-2, 2] (gap 0.96) and fails over [-5, 5] (gap -1.46)."""
    doc = sim_doc()
    doc["model"] = {"m": 1, "d": 1, "b": ["0.05 - x1"],
                    "sigma": [["0.2 + 0.1 * tanh(4 * (x1 - 3))"]], "r": "x1"}
    doc["uncertainty"] = {"kind": "interval", "lo": 0.8, "hi": 1.2}
    doc["grid"] = {"bounds": [[-2.0, 2.0]], "nodes": [33]}
    doc["payoff"] = "1"
    if box is not None:
        doc["assumption_box"] = {"bounds": [box], "nodes": [12]}
    return doc


class _GridOnlyRate(CoefficientFn):
    """r = x, defined only on the given nodes; ``error`` is raised elsewhere."""

    def __init__(self, nodes, error):
        self.nodes, self.error = nodes, error

    def __call__(self, x):
        if not np.all(np.isin(x[:, 0], self.nodes)):
            raise self.error("rate is tabulated on the solve grid only")
        return x[:, 0].copy()


class TestSolveDiagnostics:
    """``solve``, ``decompose`` and ``price`` run the regularity check over
    ``assumption_box`` before they solve."""

    @pytest.mark.parametrize("command", ["solve", "decompose", "price"])
    def test_margin_is_judged_over_the_assumption_box(self, run_cli, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(tanh_doc(), command)[0] == 0
        doc = tanh_doc(box=[-5.0, 5.0])
        assert run_cli(doc, "check")[0] == 2
        with pytest.warns(UserWarning, match=r"dissipativity margin is not positive "
                                             r"\(gap = -1\.463\)"):
            code, out, _ = run_cli(doc, command)
        assert code == 0
        assert "lam=" in out or "price=" in out

    def test_failing_margin_warns_but_solves(self, run_cli):
        doc = base_doc()
        doc["model"].update(b=["-0.1 * x1"], sigma=[["0.2 + 0.1 * tanh(x1)"]])
        doc["grid"] = {"bounds": [[-1.0, 1.0]], "nodes": [33]}
        with pytest.warns(UserWarning, match="dissipativity margin is not positive"):
            code, out, _ = run_cli(doc, "solve", "--tol", "1e-5")
        assert code == 0
        assert "lam=" in out

    def test_diagnostic_failure_warns_and_continues(self, run_cli):
        # r is x1 on the grid [-1, 1] and not finite below -1.5, inside the box
        doc = base_doc()
        doc["model"]["r"] = "x1 + 0 * ln(x1 + 1.5)"
        doc["grid"] = {"bounds": [[-1.0, 1.0]], "nodes": [33]}
        doc["solver"] = {"tol": 1e-9}
        doc["assumption_box"] = {"bounds": [[-2.0, 2.0]], "nodes": [12]}
        with pytest.warns(UserWarning, match="assumption diagnostics failed"):
            code, out, _ = run_cli(doc, "solve")
        assert code == 0
        del doc["assumption_box"]
        doc["model"]["r"] = "x1"
        _, plain, _ = run_cli(doc, "solve")
        assert out.splitlines()[0] == plain.splitlines()[0]  # the same lam

    def test_unexpected_diagnostic_errors_propagate(self, run_cli, monkeypatch):
        cfg = parse_config(base_doc())
        model = ModelSpec.build(
            m=1, d=1, b=["0.05 - 1.0 * x1"], sigma=[["0.2"]],
            r=_GridOnlyRate(cfg.grid.axes()[0], RuntimeError),
            uncertainty=UncertaintySet.interval(0.8, 1.2),
        )
        monkeypatch.setattr(cli, "load_config", lambda path: replace(cfg, model=model))
        with pytest.raises(RuntimeError, match="tabulated on the solve grid only"):
            main(["solve", "--config", "unused.json"])

    @pytest.mark.parametrize("grid_axes,box_axes,message", [
        (2, None, "box has 2 axes"),
        (1, 2, "box has 2 axes"),
        (2, 1, "grid has 2 axes"),
    ], ids=["grid", "assumption_box", "grid-under-1d-box"])
    def test_axes_beyond_the_model_exit_3(self, run_cli, grid_axes, box_axes, message):
        doc = json.loads((REPO_ROOT / "configs" / "mean_reverting.json").read_text())
        doc["grid"] = {"bounds": [[-2.0, 2.0]] * grid_axes, "nodes": [17] * grid_axes}
        if box_axes is not None:
            doc["assumption_box"] = {"bounds": [[-2.0, 2.0]] * box_axes,
                                     "nodes": [12] * box_axes}
        code, out, err = run_cli(doc, "solve")
        assert code == 3
        assert out == ""
        assert f"configuration error: {message}, model state dimension is 1" in err
