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

from .pde import ErgodicSolution, PdeSolution, nodal_gradient

__all__ = [
    "fmt17",
    "write_json",
    "write_solution_csv",
    "write_batch_csv",
    "write_traces_csv",
]


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


def write_solution_csv(path, solution) -> None:
    """Nodal dump of a stationary solution: coordinates, value, gradient,
    residual."""
    if isinstance(solution, ErgodicSolution):
        sol = solution.u
    else:
        sol = solution
    if not isinstance(sol, PdeSolution) or sol.kind != "stationary":
        raise TypeError("solution CSV export expects a stationary solution")
    grid = sol.grid
    pts = grid.points()
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
    lines = [",".join(header)]
    for i in range(pts.shape[0]):
        row = (
            [fmt17(pts[i, ax]) for ax in range(grid.m)]
            + [fmt17(values[i])]
            + [fmt17(grad[i, ax]) for ax in range(grid.m)]
            + [fmt17(resid[i])]
        )
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_batch_csv(path, batch, max_paths: int | None = None) -> None:
    """Long-format dump of simulated histories.

    Columns: path, t, the noise coordinates, the covariation entries in
    row-major order, then the state coordinates.
    """
    n, k1, d = batch.B.shape
    m = batch.X.shape[2]
    n_write = n if max_paths is None else min(n, max_paths)
    header = (
        ["path", "t"]
        + [f"B_{i + 1}" for i in range(d)]
        + [f"QV_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        + [f"X_{i + 1}" for i in range(m)]
    )
    lines = [",".join(header)]
    qv = batch.path_slice(0, n_write).QV  # derived on each read, so read once
    for p in range(n_write):
        for s in range(k1):
            row = [str(batch.path_offset + p), fmt17(batch.times[s])]
            row += [fmt17(batch.B[p, s, i]) for i in range(d)]
            row += [fmt17(qv[p, s, i, j]) for i in range(d) for j in range(d)]
            row += [fmt17(batch.X[p, s, i]) for i in range(m)]
            lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


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
    lines = [",".join(header)]
    recon = decomp.path_slice(0, n_write).ln_D_reconstructed  # derived on each read, so read once
    for p in range(n_write):
        for s in range(k1):
            row = [str(p), fmt17(decomp.times[s])]
            row += [fmt17(decomp.X[p, s, i]) for i in range(m)]
            row.append(fmt17(decomp.u[p, s]))
            row += [fmt17(decomp.Z[p, s, i]) for i in range(d)]
            row += [
                fmt17(decomp.ln_M[p, s]),
                fmt17(decomp.K[p, s]),
                fmt17(decomp.ln_D_direct[p, s]),
                fmt17(recon[p, s]),
            ]
            lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")
