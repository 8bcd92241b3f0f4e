"""Spans around the calls into each layer of gkernel, recorded from outside.

``Tracer.install`` replaces the public functions and methods listed in
``FUNCTIONS`` and ``METHODS`` with timing wrappers.  A function is patched
in every gkernel module that binds it, because that is where callers look
it up (``sim`` calls its own binding of ``g_value_batch``, for instance); a
method is patched on its class.  Each call records a span: its name, start,
end, parent span, the benchmark operation it ran under, and a size (rows,
matrices, path-steps or node-sweeps, depending on the call).  Spans stay in
flat arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _rows(pos):
    """Size = number of rows of the positional argument ``pos``."""
    def size(args, kwargs, result):
        return np.shape(args[pos])[0] if np.ndim(args[pos]) > 1 else 1
    return size


def _matrices(args, kwargs, result):
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _sweep_nodes(args, kwargs, result):
    return result.u.sweeps * result.grid.points().shape[0]


def _march_nodes(args, kwargs, result):
    return result.sweeps * result.grid.points().shape[0]


def _batch_steps(batch):
    return batch.n_paths * batch.n_steps


def _dec_steps(dec):
    return dec.n_paths * (dec.times.size - 1)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _price_steps(args, kwargs, result):
    n_steps = round(_arg(args, kwargs, 2, "T") / _arg(args, kwargs, 4, "dt", 1e-3))
    return result.n_paths * n_steps * len(result.table)


def _yield_steps(args, kwargs, result):
    n_steps = round(result.horizons[-1] / _arg(args, kwargs, 3, "dt", 1e-2))
    return _arg(args, kwargs, 4, "n_paths", 10_000) * n_steps


def _audit_steps(args, kwargs, result):
    batches = _arg(args, kwargs, 1, "batches", ())
    return _dec_steps(args[0]) + sum(_batch_steps(b) for b in batches)


MODEL_EVALS = (
    "eval_b", "eval_sigma", "eval_r", "eval_k", "eval_v", "eval_h", "eval_dij",
    "eval_h_effective",
)

# (module, class, method, size)
METHODS = [
    ("coefficients", "Expression", "__call__", _rows(1)),
    *[("model", "ModelSpec", name, _rows(1)) for name in MODEL_EVALS],
    ("pde", "PdeSolution", "derivatives_at", _rows(1)),
    ("pde", "PdeSolution", "value_at", _rows(1)),
    ("sim", "ConstantControl", "matrices_and_roots", _rows(2)),
    ("sim", "_CandidatePolicy", "matrices_and_roots", _rows(2)),
]

# (module, function, size)
FUNCTIONS = [
    ("gcore", "g_value_batch", _matrices),
    ("pde", "solve_ergodic", _sweep_nodes),
    ("pde", "solve_parabolic", _march_nodes),
    ("pde", "pde_residual", None),
    ("sim", "upper_price_mc", _price_steps),
    ("sim", "long_term_yield_mc", _yield_steps),
    ("sim", "simulate_gsde", lambda a, k, r: _batch_steps(r)),
    ("sim", "worst_case_policy", None),
    ("decomp", "compute_components", lambda a, k, r: _batch_steps(a[0])),
    ("decomp", "reconstruct_D", None),
    ("decomp", "verify_martingales", _audit_steps),
    ("decomp", "verify_bsde_residual", lambda a, k, r: _batch_steps(a[0])),
    ("config", "parse_config", None),
    ("config", "load_config", None),
    ("io", "write_json", None),
    ("io", "write_solution_csv", None),
    ("io", "write_traces_csv", None),
]

MODULES = ("coefficients", "model", "gcore", "pde", "sim", "decomp", "config", "io", "cli")

BATCH_FIELDS = ("times", "noise", "B", "QV", "X", "Q")
# X and times of a decomposition are the batch's own arrays, not copies
COMPONENT_FIELDS = ("u", "Z", "ln_M", "K", "ln_D_direct", "ln_D_reconstructed")


class Tracer:
    """Span recorder; ``install``/``uninstall`` switch the wrappers on and off."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                                    for m in MODULES]
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.ops: list[dict] = []   # one entry per benchmark operation run
        self.bytes: dict[str, float] = {"sim.batch": 0.0, "decomp.components": 0.0}
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.size.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, size):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if size is not None:
                tracer.size[i] = size(args, kwargs, result)
            if name == "sim.simulate_gsde":
                tracer.bytes["sim.batch"] += sum(getattr(result, f).nbytes for f in BATCH_FIELDS)
            elif name == "decomp.compute_components":
                tracer.bytes["decomp.components"] += sum(
                    getattr(result, f).nbytes for f in COMPONENT_FIELDS)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, name: str, phase: str, control_steps: int = 0):
        """Span for one benchmark operation; calls inside it are attributed to it.

        The caller may set the entry's ``scale``, the reference-kernel factor
        of the operation (``reference.Clock.scale``), after it has ended.
        """
        self.ops.append({"name": name, "phase": phase, "control_steps": control_steps,
                         "scale": 1.0})
        self._op = len(self.ops) - 1
        i = self._open(f"op.{name}")
        try:
            yield
        finally:
            self._close(i)
            self._op = -1

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            return
        for mod, cls_name, meth, size in METHODS:
            cls = getattr(getattr(self.package, mod), cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{mod}.{cls_name}.{meth}", orig, size))
        for mod, fname, size in FUNCTIONS:
            orig = getattr(getattr(self.package, mod), fname)
            wrapped = self._wrap(f"{mod}.{fname}", orig, size)
            for module in self.modules:
                if getattr(module, fname, None) is orig:
                    self._undo.append((module, fname, orig))
                    setattr(module, fname, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- output --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.names, dtype=object)[np.frombuffer(self.name_id, dtype=np.int32)]
            if len(self.name_id) else np.empty(0, dtype=object),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "size": np.frombuffer(self.size, dtype=float),
        }

    def breakdown(self) -> dict:
        """Per operation name: calls, total and self seconds of each span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        self_t = dur - np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                   minlength=dur.size)
        op_names = [op["name"] for op in self.ops] + ["(none)"]
        out: dict = {}
        for o, n, d, s in zip(a["op"], np.frombuffer(self.name_id, dtype=np.int32), dur, self_t):
            row = out.setdefault(op_names[o], {}).setdefault(self.names[n], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += float(d)
            row[2] += float(s)
        return {op: {name: {"calls": c, "total_s": t, "self_s": st}
                     for name, (c, t, st) in sorted(rows.items(), key=lambda kv: -kv[1][2])}
                for op, rows in out.items()}

    def write(self, path, summary: dict) -> None:
        """Spans as a compressed npz next to a JSON summary with a per-op breakdown."""
        a = self.arrays()
        np.savez_compressed(
            path.with_suffix(".npz"),
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=a["parent"], op=a["op"], start=a["start"], end=a["end"], size=a["size"],
        )
        path.with_suffix(".json").write_text(json.dumps(
            {"bytes": self.bytes, "breakdown": self.breakdown(), **summary},
            indent=2) + "\n")


def _ns(total_s, count):
    return 1e9 * total_s / count if count else 0.0


def layer_metrics(tracer: Tracer, n_rounds: int, n_setups: int) -> dict:
    """Per-layer figures derived from the spans (0 where a layer did no work).

    Times are self times where a layer calls another traced layer, so that no
    nanosecond is counted twice, and are scaled by the reference-kernel
    factor of the operation they ran under; counts and byte totals are per
    round.
    """
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    op_phase = np.asarray([op["phase"] for op in tracer.ops] + [""], dtype=object)
    phase = op_phase[a["op"]]  # op == -1 picks the trailing ""
    op_scale = np.asarray([op["scale"] for op in tracer.ops] + [1.0])
    dur = dur * op_scale[a["op"]]
    self_t = self_t * op_scale[a["op"]]
    in_round = phase == "round"

    def pick(*names):
        return np.isin(name, names)

    def total(mask, values):
        return float(np.sum(values[mask]))

    evals = pick(*[f"model.ModelSpec.{m}" for m in MODEL_EVALS])
    outer_eval = evals & ~np.where(has_parent, evals[np.maximum(parent, 0)], False)

    out = {}
    solve = pick("pde.solve_ergodic")
    out["pde.ns_per_node_sweep"] = _ns(total(solve, self_t), total(solve, a["size"]))
    resid = pick("pde.pde_residual")
    out["pde.residual_report_s"] = total(resid, dur) / max(1, int(resid.sum()))
    march = pick("pde.solve_parabolic")
    out["pde.march_ns_per_node_step"] = _ns(total(march, self_t), total(march, a["size"]))
    deriv = pick("pde.PdeSolution.derivatives_at")
    out["pde.derivatives_at_calls"] = float(np.sum(deriv & in_round)) / n_rounds
    out["pde.derivatives_at_ns_per_point"] = _ns(total(deriv, self_t), total(deriv, a["size"]))

    for op_index, op in enumerate(tracer.ops):
        if op["phase"] == "round" and op["control_steps"]:
            key = f"model.eval_calls_per_step.{op['name']}"
            calls = int(np.sum(outer_eval & (a["op"] == op_index)))
            out.setdefault(key, []).append(calls / op["control_steps"])
    for key, values in list(out.items()):
        if isinstance(values, list):
            out[key] = float(np.median(values))
    out["model.eval_ns_per_point"] = _ns(total(outer_eval, dur), total(outer_eval, a["size"]))
    expr = pick("coefficients.Expression.__call__")
    out["coefficients.expr_ns_per_point"] = _ns(total(expr, dur), total(expr, a["size"]))

    policy = pick("sim._CandidatePolicy.matrices_and_roots")
    out["sim.policy_ns_per_path_step"] = _ns(total(policy, dur), total(policy, a["size"]))
    const = pick("sim.ConstantControl.matrices_and_roots")
    out["sim.constant_control_ns_per_path_step"] = _ns(total(const, dur), total(const, a["size"]))
    scan = pick("sim.upper_price_mc", "sim.long_term_yield_mc")
    out["sim.scan_self_ns_per_path_step"] = _ns(total(scan, self_t), total(scan, a["size"]))
    simulate = pick("sim.simulate_gsde")
    out["sim.simulate_ns_per_path_step"] = _ns(total(simulate, dur), total(simulate, a["size"]))

    comp = pick("decomp.compute_components")
    out["decomp.components_ns_per_path_step"] = _ns(total(comp, dur), total(comp, a["size"]))
    audit = pick("decomp.verify_martingales")
    out["decomp.audit_ns_per_path_step"] = _ns(total(audit, self_t), total(audit, a["size"]))
    bsde = pick("decomp.verify_bsde_residual")
    out["decomp.bsde_ns_per_path_step"] = _ns(total(bsde, self_t), total(bsde, a["size"]))

    gval = pick("gcore.g_value_batch")
    out["gcore.g_value_batch_ns_per_matrix"] = _ns(total(gval, dur), total(gval, a["size"]))

    out["sim.batch_bytes"] = tracer.bytes["sim.batch"] / n_rounds
    out["decomp.components_bytes"] = tracer.bytes["decomp.components"] / n_rounds
    writes = pick("io.write_json", "io.write_solution_csv", "io.write_traces_csv")
    out["io.write_s"] = total(writes & in_round, dur) / n_rounds
    loads = pick("config.parse_config", "config.load_config")
    outer_load = loads & ~np.where(has_parent, loads[np.maximum(parent, 0)], False)
    out["config.load_s"] = total(outer_load & (phase == "setup"), dur) / n_setups
    out["trace.spans_per_round"] = float(np.sum(in_round)) / n_rounds
    return {k: (v if math.isfinite(v) else 0.0) for k, v in out.items()}
