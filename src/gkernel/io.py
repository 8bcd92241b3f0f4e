"""Deterministic result writers.

CSV files use a fixed column order, "\\n" line endings, and 17
significant digits, so identical runs produce byte-identical files.
JSON output is sorted-key, two-space indented, with non-finite floats
serialized as strings.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ShapeError
from .pde import ErgodicSolution, PdeSolution, nodal_gradient

__all__ = [
    "write_json",
    "write_solution_csv",
    "write_traces_csv",
]

_BLOCK_ROWS = 4096  # CSV rows formatted at a time, so only one block's text is held


def fmt17(x) -> str:
    return format(float(x), ".17g")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else format(x)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path, payload: dict) -> None:
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def _write_table(path, header: list[str], blocks) -> None:
    """CSV of ``header`` and the rows of ``blocks``, formatted one block at a time.

    Each block is a pair (path id or None, 2D table): a path id starts every
    row of its block as an integer, and each table value is written "%.17g".
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for path_id, table in blocks:
            row = ",".join(["%.17g"] * table.shape[1]) + "\n"
            if path_id is not None:
                row = f"{path_id}," + row  # an int never holds a '%'
            for lo in range(0, table.shape[0], _BLOCK_ROWS):
                part = table[lo:lo + _BLOCK_ROWS]
                fh.write((row * part.shape[0]) % tuple(part.ravel().tolist()))


def write_solution_csv(path, solution) -> None:
    """Nodal dump of a stationary solution: coordinates, value, gradient,
    residual."""
    if isinstance(solution, ErgodicSolution):
        sol = solution.u
    else:
        sol = solution
    if not isinstance(sol, PdeSolution) or sol.kind != "stationary":
        raise ShapeError("solution CSV export expects a stationary solution")
    grid = sol.grid
    values = sol.values.ravel()
    grad = nodal_gradient(sol.values, grid).reshape(-1, grid.m)
    resid = (
        sol.residual.ravel()
        if sol.residual is not None
        else np.full(values.shape, np.nan)
    )
    header = (
        [f"x{ax + 1}" for ax in range(grid.m)]
        + ["value"]
        + [f"gradient_{ax + 1}" for ax in range(grid.m)]
        + ["residual"]
    )
    _write_table(path, header, [(None, np.column_stack([grid.points(), values, grad, resid]))])


def write_traces_csv(path, decomp, max_paths: int | None = None) -> None:
    """Long-format dump of decomposition traces.

    Columns: path, t, the state coordinates, u, the Z coordinates, then
    ln_M, K, ln_D_direct, ln_D_reconstructed.
    """
    n, k1, m = decomp.X.shape
    d = decomp.Z.shape[2]
    n_write = n if max_paths is None else min(n, max_paths)
    header = (
        ["path", "t"]
        + [f"x_{i + 1}" for i in range(m)]
        + ["u"]
        + [f"Z_{i + 1}" for i in range(d)]
        + ["ln_M", "K", "ln_D_direct", "ln_D_reconstructed"]
    )
    # ln_D_reconstructed is derived on each read, so it is read one path at a time
    _write_table(path, header, (
        (p, np.column_stack([decomp.times, decomp.X[p], decomp.u[p], decomp.Z[p], decomp.ln_M[p],
                             decomp.K[p], decomp.ln_D_direct[p],
                             decomp.path_slice(p, p + 1).ln_D_reconstructed[0]]))
        for p in range(n_write)))
