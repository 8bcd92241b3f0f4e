"""Worst-case valuation PDEs on rectangular grids.

Three solver entry points share one upwind finite-difference operator
S(w) = max_c S_c(w), one candidate c per extreme covariance of the
ambiguity set, with upwinded first and central second derivatives:

* ``solve_parabolic`` -- terminal-value problem
      dw/dt + G(H(x, Dw, D2w)) + <b, Dw> + f = 0,  w(T, .) given,
  marched explicitly backward in time.

* ``solve_discounted`` -- the stationary damped equation
      G(H + 2 gamma2 delta u) + <b, Du> + f + gamma1 delta u = 0.

* ``solve_ergodic`` -- the eigenpair (u, lam) of
      G(H(x, Du, D2u)) + <b, Du> + f - lam = 0,  u(anchor) = 0
  (for gamma2 = 0), the vanishing-damping limit delta u -> lam.

Both stationary equations are solved to a residual tolerance by
semismooth Newton, i.e. Howard policy iteration for the candidate max:
the Jacobian comes from 3^m colored differences and is solved
block-tridiagonally along axis 0.

The driver is the pricing kernel's, built from the model's loadings:
f = -r and the covariation driver contributes -2k_ij + v_i v_j plus the
quadratic gradient term z_i z_j, z = sigma^T Du, with the covariation
drift shifted by the derived coupling d_ij.  The scheme is assembled per
covariance candidate with candidate-consistent upwinding, and the candidate
maximum equals the exact G.  Each S_c is monotone in the neighbor values
at the interior nodes in 1D, and in 2D when the candidate's cross diffusion
a12 = (sigma Q_c sigma^T)_12 vanishes: the four-point cross stencil of
a12 w_xy weighs two diagonal neighbors by -|a12| / (4 h1 h2), and a12 w_x w_y
is centered, not upwinded.  At a face node the linear ghost makes both
one-sided differences the inward one, so a velocity pointing out of the
grid, or a w that falls into it, can weigh the inward neighbor negatively.
The discrete comparison principle is claimed only where every S_c is
monotone.

Boundary handling: the second derivative normal to each face is set to
zero (linear extrapolation ghosts).  Interior residual statistics exclude
a two-node band per face.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import as_coefficient
from .errors import (
    CflError,
    ConvergenceError,
    DivergenceError,
    EvaluationError,
    IterationError,
    ShapeError,
)
from .gcore import _g_values, g_value
from .model import Coefficients, ModelSpec, _size

__all__ = [
    "Grid",
    "PdeSolution",
    "ErgodicSolution",
    "ResidualReport",
    "solve_parabolic",
    "solve_discounted",
    "solve_ergodic",
    "pde_residual",
]

_CFL_SAFETY = 1.05
_BAND = 2  # interior band excluded per face in residual statistics
# Howard's iteration may raise sup |F| before it converges, so Newton is
# stopped by a step count, not by the first rise of the residual
_NEWTON_STEPS = 60
# settings of the damped continuation that solve_ergodic no longer runs: each
# stays a keyword-only parameter that accepts only None while callers pass it
_RETIRED = ("delta0", "tol_inner", "max_halvings", "mode", "gradient_cap")


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid, optionally carrying a time discretization.

    ``bounds`` is one (lo, hi) pair per state coordinate, ``nodes`` the node
    count per coordinate (at least 16).  ``horizon``/``time_steps`` are only
    needed by the parabolic solver.
    """

    bounds: tuple
    nodes: tuple
    horizon: float | None = None
    time_steps: int | None = None

    @classmethod
    def build(cls, bounds, nodes, horizon=None, time_steps=None) -> "Grid":
        bounds_t = tuple((float(lo), float(hi)) for lo, hi in bounds)
        nodes_t = tuple(_size(n, "nodes") for n in (nodes if isinstance(nodes, (list, tuple))
                                                    else [nodes]))
        if len(bounds_t) != len(nodes_t):
            raise ShapeError("bounds and nodes must have one entry per coordinate")
        if len(bounds_t) not in (1, 2):
            raise ShapeError("grids support one or two state coordinates")
        for lo, hi in bounds_t:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ShapeError(f"axis [{lo}, {hi}] must have finite bounds")
            if not (lo < hi):
                raise ShapeError(f"empty axis [{lo}, {hi}]")
        for n in nodes_t:
            if n < 16:
                raise ShapeError(f"need at least 16 nodes per axis, got {n}")
        if horizon is not None:
            horizon = float(horizon)
            if not math.isfinite(horizon):
                raise ShapeError(f"horizon must be finite, got {horizon}")
            if horizon < 0.0:
                raise ShapeError(f"horizon must be nonnegative, got {horizon}")
            if horizon > 0.0:
                time_steps = 0 if time_steps is None else _size(time_steps, "time_steps")
                if time_steps < 1:
                    raise ShapeError("a positive horizon needs time_steps >= 1")
            else:
                time_steps = 0
        return cls(bounds=bounds_t, nodes=nodes_t, horizon=horizon, time_steps=time_steps)

    @property
    def m(self) -> int:
        return len(self.bounds)

    @property
    def shape(self) -> tuple:
        return self.nodes

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, n) for (lo, hi), n in zip(self.bounds, self.nodes)]

    def spacings(self) -> tuple:
        return tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(self.bounds, self.nodes))

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)

    @property
    def dt(self) -> float:
        if self.horizon is None or self.time_steps in (None, 0):
            raise ShapeError("grid carries no time discretization")
        return self.horizon / self.time_steps

    def anchor_index(self, point=None) -> tuple:
        """Index of the node nearest the given point (default: the origin).

        The point needs one finite coordinate per axis (:class:`ShapeError`).
        """
        if point is None:
            point = [0.0] * self.m
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.m,) or not np.isfinite(point).all():
            raise ShapeError(f"anchor needs {self.m} finite coordinates, got {point.tolist()}")
        return tuple(int(np.argmin(np.abs(ax - p))) for ax, p in zip(self.axes(), point))

    def diffusion_cfl(self, model: ModelSpec) -> float:
        """Spec-level stability bound dt <= h^2 / (sig_hi2 m_sigma^2 m safety)."""
        pts = self.points()
        sig = model.eval_sigma(pts)
        m_sigma = float(np.max(np.sqrt(np.sum(sig.reshape(sig.shape[0], -1) ** 2, axis=1))))
        sig_hi2 = model.uncertainty.hi
        if m_sigma == 0.0:
            return math.inf
        hmin = min(self.spacings())
        return hmin**2 / (sig_hi2 * m_sigma**2 * self.m * _CFL_SAFETY)


# ---------------------------------------------------------------------------
# solution containers and interpolation


def _pad_linear_1d(w: np.ndarray) -> np.ndarray:
    out = np.empty(w.size + 2)
    out[1:-1] = w
    out[0] = 2.0 * w[0] - w[1]
    out[-1] = 2.0 * w[-1] - w[-2]
    return out


def _pad_linear_2d(w: np.ndarray) -> np.ndarray:
    n1, n2 = w.shape
    out = np.empty((n1 + 2, n2 + 2))
    out[1:-1, 1:-1] = w
    out[0, 1:-1] = 2.0 * w[0] - w[1]
    out[-1, 1:-1] = 2.0 * w[-1] - w[-2]
    out[:, 0] = 2.0 * out[:, 1] - out[:, 2]
    out[:, -1] = 2.0 * out[:, -2] - out[:, -3]
    return out


def nodal_gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Central-difference gradient, one-sided at faces; shape (*grid, m)."""
    hs = grid.spacings()
    grads = np.stack(
        [np.gradient(values, hs[ax], axis=ax, edge_order=1) for ax in range(grid.m)],
        axis=-1,
    )
    return grads


def _second_differences(wp: np.ndarray, hs: tuple) -> tuple:
    """Central second differences of grid values from their linearly padded
    array ``wp``: (w_xx,) in 1D, (w_xx, w_yy, w_xy) in 2D, the mixed one by
    the four-point cross stencil."""
    if wp.ndim == 1:
        return ((wp[2:] - 2.0 * wp[1:-1] + wp[:-2]) / hs[0] ** 2,)
    h1, h2 = hs
    core = wp[1:-1, 1:-1]
    return ((wp[2:, 1:-1] - 2.0 * core + wp[:-2, 1:-1]) / h1**2,
            (wp[1:-1, 2:] - 2.0 * core + wp[1:-1, :-2]) / h2**2,
            (wp[2:, 2:] - wp[2:, :-2] - wp[:-2, 2:] + wp[:-2, :-2]) / (4.0 * h1 * h2))


def nodal_hessian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Central second derivatives; zero normal curvature at faces.

    Shape (*grid, m, m).  Mixed derivatives use the standard four-point
    cross stencil on linearly extrapolated ghosts.
    """
    if grid.m == 1:
        (wxx,) = _second_differences(_pad_linear_1d(values), grid.spacings())
        return wxx[..., None, None]
    wxx, wyy, wxy = _second_differences(_pad_linear_2d(values), grid.spacings())
    return np.stack([wxx, wxy, wxy, wyy], axis=-1).reshape(wxx.shape + (2, 2))


def _uniform_cell(a_inf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(a, x, side="right") - 1`` for x in [a[0], a[-1]].

    ``a_inf`` is a uniform axis ``a`` followed by +inf, so the cell is
    guessed from the spacing and corrected by one comparison on each side
    instead of a binary search; the +inf keeps the last node's cell.
    """
    n = a_inf.size - 1
    with np.errstate(invalid="ignore"):  # NaN states fall through to NaN output
        j = ((x - a_inf[0]) * ((n - 1) / (a_inf[n - 1] - a_inf[0]))).astype(np.intp)
    np.minimum(np.maximum(j, 0, out=j), n - 1, out=j)
    j -= a_inf.take(j) > x
    j += a_inf.take(j + 1) <= x
    return j


def _uniform_left_cell(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.clip(np.searchsorted(a, x) - 1, 0, a.size - 2)`` for x in [a[0], a[-1]].

    The cell of a uniform axis ``a`` is guessed from the spacing and corrected
    by one comparison on each side, as in ``_uniform_cell``; a node is the
    right end of its cell (the first node the left end of the first cell), as
    searchsorted's left side gives.  A NaN reads the first cell.
    """
    n = a.size
    with np.errstate(invalid="ignore"):
        j = ((x - a[0]) * ((n - 1) / (a[n - 1] - a[0]))).astype(np.intp)
    np.minimum(np.maximum(j, 0, out=j), n - 2, out=j)
    j -= a.take(j) >= x  # -1 only at x = a[0]
    j += a.take(j + 1) < x
    return np.maximum(j, 0, out=j)


class _Interp:
    """Piecewise-(bi)linear interpolation with linear value extension.

    Values extend beyond the grid with the boundary gradient held constant;
    derivative fields are clamped to their boundary values.  Query points
    are (n, m) arrays.  ``fields`` reads the value, gradient and Hessian of
    each query from one clamp and one cell lookup, component-major: the
    value (n,), the gradient (m, n) and the Hessian (m, m, n).  In 1D every
    field equals ``np.interp`` bit for bit; the slopes of each field are
    formed here once, and the gradient and Hessian are stacked per node so
    that one gather per cell end reads both.  In 2D each field (the value,
    each gradient entry, each Hessian entry) is one contiguous row over the
    row-major nodes, read one row at a time: four gathers of the cell's
    corners and the bilinear weights in one fixed order, one ufunc per
    n-vector.  The Hessian's two mixed entries are one node field, read once.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        self.axes = grid.axes()
        self._lo = np.array([a[0] for a in self.axes])
        self._hi = np.array([a[-1] for a in self.axes])
        m = grid.m
        grad = nodal_gradient(values, grid)
        hess = nodal_hessian(values, grid)
        if m == 1:
            # each field with np.interp's cell slopes
            step = np.diff(self.axes[0])
            self._axis_inf = np.append(self.axes[0], np.inf)
            self._value = values, np.diff(values) / step
            derivs = np.stack([grad[:, 0], hess[:, 0, 0]], axis=-1)
            self._derivs = derivs, np.diff(derivs, axis=0) / step[:, None]
        else:
            nodes = values.size
            # rows: the value, the gradient entries, the Hessian entries row-major
            self._rows = np.concatenate([values.reshape(1, nodes), grad.reshape(nodes, m).T,
                                         hess.reshape(nodes, m * m).T])

    def _clamp(self, x: np.ndarray) -> list:
        """The columns of ``np.clip(x, lo, hi)``, by the ufuncs.  A zero tying a
        bound of the other sign takes the bound's sign, as np.clip does for
        m = 2; in 1D that sign reaches no output, since the node value is read
        there."""
        return [np.minimum(np.maximum(x[:, ax], self._lo[ax]), self._hi[ax])
                for ax in range(self.grid.m)]

    def fields(self, x: np.ndarray, value: bool = True, derivs: bool = True) -> tuple:
        """Value (n,), gradient (m, n) and Hessian (m, m, n) at ``x`` from one
        clamp and one cell lookup; the value, or the gradient and Hessian, are
        None when not asked for.  Beyond the grid the value adds
        <grad(clamped point), x - clamped>, summed from zero over the axes."""
        m = self.grid.m
        xc = self._clamp(x)
        cells = self._locate(xc)
        delta = [x[:, ax] - xc[ax] for ax in range(m)] if value else []
        extend = any(np.any(dx) for dx in delta)
        grad = hess = None
        if derivs or extend:
            grad, hess = self._read_derivs(cells, hessian=derivs)
        u = None
        if value:
            u = self._read_value(cells)
            if extend:
                step = np.zeros(u.shape)
                for ax in range(m):
                    step += grad[ax] * delta[ax]
                u = u + step
        return u, (grad if derivs else None), hess

    def excess(self, x: np.ndarray) -> np.ndarray:
        """How far each query lies beyond the grid, in box widths along its
        farthest axis."""
        out = None
        for ax, col in enumerate(self._clamp(x)):
            over = np.abs(x[:, ax] - col) / (self._hi[ax] - self._lo[ax])
            out = over if out is None else np.maximum(out, over)
        return out

    def cell_bounds(self) -> tuple:
        """Least and greatest node value of each derivative field over the corners
        of each cell, (cells, m + m^2) each: every query, clamped, reads a convex
        combination of one cell's corner values."""
        if self.grid.m == 1:
            d = self._derivs[0]
            return np.minimum(d[:-1], d[1:]), np.maximum(d[:-1], d[1:])
        f = self._rows[1:].reshape((-1,) + self.grid.nodes)
        corners = (f[:, :-1, :-1], f[:, 1:, :-1], f[:, :-1, 1:], f[:, 1:, 1:])
        return tuple(np.ascontiguousarray(bound.reduce(corners).reshape(f.shape[0], -1).T)
                     for bound in (np.minimum, np.maximum))

    def _locate(self, xc: list) -> tuple:
        if self.grid.m == 1:
            a = self.axes[0]
            x = xc[0]
            j = _uniform_cell(self._axis_inf, x)
            jl = np.minimum(j, a.size - 2)  # left node of the cell used for slopes
            hits = np.flatnonzero(a.take(j) == x)
            return jl, x - a.take(jl), hits, j.take(hits)
        (a0, a1), (x0, x1) = self.axes, xc
        i0, i1 = _uniform_left_cell(a0, x0), _uniform_left_cell(a1, x1)
        t0 = (x0 - a0.take(i0)) / (a0.take(i0 + 1) - a0.take(i0))
        t1 = (x1 - a1.take(i1)) / (a1.take(i1 + 1) - a1.take(i1))
        k00 = i0 * a1.size + i1  # the lower-left node, row-major
        k10 = k00 + a1.size
        return (k00, k10, k00 + 1, k10 + 1), (t0, t1, 1 - t0, 1 - t1)

    def _read_value(self, cells: tuple) -> np.ndarray:
        if self.grid.m == 1:
            return self._read_1d(self._value, cells)
        return self._bilinear(0, cells, np.empty(cells[1][0].shape))

    def _read_derivs(self, cells: tuple, hessian: bool) -> tuple:
        m = self.grid.m
        if m == 1:
            out = self._read_1d(self._derivs, cells).T
            return out[:1], out[1:].reshape(1, 1, -1)
        n = cells[1][0].shape[0]
        grad = np.empty((m, n))
        for ax in range(m):
            self._bilinear(1 + ax, cells, grad[ax])
        if not hessian:
            return grad, None
        hess = np.empty((m, m, n))
        for a in range(m):
            for b in range(m):
                if b < a:  # the mixed entries are one node field
                    hess[a, b] = hess[b, a]
                else:
                    self._bilinear(1 + m + a * m + b, cells, hess[a, b])
        return grad, hess

    @staticmethod
    def _read_1d(field, cells: tuple) -> np.ndarray:
        # np.interp's arithmetic: slope * (x - a[j]) + arr[j] off the
        # nodes, the nodal value itself on them
        arr, slope = field
        jl, offset, hits, j_hits = cells
        if arr.ndim > 1:  # fields stacked along a trailing axis
            offset = offset[:, None]
        out = slope.take(jl, axis=0) * offset + arr.take(jl, axis=0)
        out[hits] = arr.take(j_hits, axis=0)
        return out

    def _bilinear(self, row: int, cells: tuple, out: np.ndarray) -> np.ndarray:
        """Field ``row`` at the cells into ``out``:
        ((v00 s0 s1 + v10 t0 s1) + v01 s0 t1) + v11 t0 t1, each product left to right."""
        (k00, k10, k01, k11), (t0, t1, s0, s1) = cells
        f = self._rows[row]
        tmp = np.empty(out.shape)
        f.take(k00, out=out, mode="clip")  # out= buffers unless the mode is set
        out *= s0
        out *= s1
        for k, w0, w1 in ((k10, t0, s1), (k01, s0, t1), (k11, t0, t1)):
            f.take(k, out=tmp, mode="clip")
            tmp *= w0
            tmp *= w1
            out += tmp
        return out


@dataclass
class PdeSolution:
    """Grid solution of a stationary or parabolic worst-case PDE.

    For ``kind == "stationary"`` ``values`` has the grid shape.  For
    ``kind == "parabolic"`` ``values[q]`` is the solution at time q * dt
    (index 0 = initial time, index time_steps = terminal data), and the
    residual fields stay NaN: only stationary solves report one.  A
    parabolic query reads the slice nearest its time, which must lie in
    the solved horizon (:class:`ShapeError`).
    """

    grid: Grid
    kind: str
    values: np.ndarray
    sweeps: int = 0
    residual_linf: float = math.nan
    residual_l2: float = math.nan
    residual: np.ndarray | None = None

    def __post_init__(self):
        self._interp_cache: dict = {}

    def _interp(self, time_index: int | None = None) -> _Interp:
        key = time_index
        if key not in self._interp_cache:
            vals = self.values if self.kind == "stationary" else self.values[time_index]
            self._interp_cache[key] = _Interp(self.grid, vals)
        return self._interp_cache[key]

    def _spatial(self, t: float | None) -> _Interp:
        if self.kind == "stationary":
            return self._interp(None)
        if t is None:
            raise ShapeError("parabolic solutions need a query time")
        if not math.isfinite(t):
            raise ShapeError(f"query time must be finite, got {t}")
        q = int(round(t / self.grid.dt))
        if not 0 <= q <= self.grid.time_steps:
            raise ShapeError(f"query time {t} is outside the solved horizon "
                             f"[0, {self.grid.horizon}]")
        return self._interp(q)

    def _fields_at(self, x: np.ndarray, t: float | None = None) -> tuple:
        """Value (n,), gradient (m, n) and Hessian (m, m, n), component-major,
        read from one cell lookup."""
        return self._spatial(t).fields(np.atleast_2d(np.asarray(x, dtype=float)))

    def value_at(self, x: np.ndarray, t: float | None = None) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._spatial(t).fields(x, derivs=False)[0]

    def derivatives_at(self, x: np.ndarray, t: float | None = None) -> tuple:
        """Gradient (n, m) and Hessian (n, m, m) read from one cell lookup: views
        of the component-major fields."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        _, grad, hess = self._spatial(t).fields(x, value=False)
        return grad.T, hess.transpose(2, 0, 1)

    def coverage_excess(self, x: np.ndarray, t: float | None = None) -> np.ndarray:
        return self._spatial(t).excess(np.atleast_2d(np.asarray(x, dtype=float)))


@dataclass
class ErgodicSolution:
    """Eigenpair (u, lam) of the stationary worst-case valuation equation.

    ``delta_trace`` is ((0.0, lam),), the one Newton solve at zero damping,
    kept for the artifacts that record it; ``u.values`` is anchored to
    zero at ``anchor_index``.
    """

    u: PdeSolution
    lam: float
    delta_trace: tuple
    gamma1: float
    gamma2: np.ndarray
    anchor_index: tuple
    anchor_point: np.ndarray

    # convenience pass-throughs used by simulation/decomposition code
    def value_at(self, x, t=None):
        return self.u.value_at(x)

    def derivatives_at(self, x, t=None):
        return self.u.derivatives_at(x)

    def _fields_at(self, x, t=None):
        return self.u._fields_at(x)

    def coverage_excess(self, x, t=None):
        return self.u.coverage_excess(x)

    @property
    def grid(self) -> Grid:
        return self.u.grid


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def _hessian_term(hess: np.ndarray, sig: np.ndarray, i: int, j: int) -> np.ndarray:
    """(sigma^T hess sigma)_ij per row, (n,).

    Equal bit for bit to ``np.einsum("nab,nai,nbj->nij", hess, sig, sig)[:, i, j]``:
    the same products (hess_ab sigma_ai) sigma_bj, summed from zero over
    (a, b) in the same order.
    """
    m = sig.shape[1]
    out = np.zeros(hess.shape[0])
    for a in range(m):
        for b in range(m):
            out += (hess[:, a, b] * sig[:, a, i]) * sig[:, b, j]
    return out


def _hamiltonian_batch(
    model: ModelSpec,
    x: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    precomputed: Coefficients | None = None,
    *,
    z: np.ndarray | None = None,
) -> np.ndarray:
    """H matrices (n, d, d) for a batch of points/derivatives, in the pricing form
        H_ij = <hess sigma_col_i, sigma_col_j> + 2 <grad, h_ij - d_ij>
               - 2 k_ij + v_i v_j + z_i z_j,        z = sigma^T grad.

    ``precomputed`` is the ``Coefficients`` bundle at ``x``; by default it
    is evaluated here.  h - d_ij, 2k and v v^T are the bundle's products,
    formed once per model when their tensors are constant.  ``z`` is
    sigma^T grad as (d, n) when the caller has formed it already, each row
    summed from zero over the state axes as here.
    Each entry is formed on its own, one ufunc per n-vector, so the inputs
    read fastest with contiguous columns, such as the component-major fields
    of the interpolant.  The sums are those of the einsum formulas, in their
    order: the Hessian term as ``_hessian_term``, z and the h contraction
    from zero over the state axes, then the parts left to right.

    The parts of a loading the model lacks are left out, with the same bits.
    An absent tensor reads +0.0, so 2k and v v^T are +0.0, and so is h - d_ij
    when h and v are both absent.  The Hessian term is a sum from +0.0, so it
    is never -0.0, and neither is the entry after a +0.0 part; x - (+0.0) and
    x + (+0.0) are x for every such x, NaN included.  The h contraction of a
    finite gradient is +0.0; a NaN gradient entry makes it NaN, but makes
    every z_i NaN too, so the entries end NaN either way.  The gradients of a
    finite interpolant are finite or NaN.
    """
    pre = model.evaluate(x) if precomputed is None else precomputed
    sig = pre["sigma"]
    n, m = grad.shape
    d = model.d
    if z is None:
        z = np.zeros((d, n))
        for j in range(d):
            for l in range(m):
                z[j] += sig[:, l, j] * grad[:, l]
    h = pre["h_eff"] if model.h is not None or model.v is not None else None
    two_k = pre["two_k"] if model.k is not None else None
    vv = pre["vv"] if model.v is not None else None
    out = np.empty((n, d, d))
    for i in range(d):
        for j in range(d):
            entry = _hessian_term(hess, sig, i, j)
            if h is not None:
                drift = np.zeros(n)
                for l in range(m):
                    drift += grad[:, l] * h[:, i, j, l]
                entry += 2.0 * drift
            if two_k is not None:
                entry -= two_k[:, i, j]
            if vv is not None:
                entry += vv[:, i, j]
            np.add(entry, z[i] * z[j], out=out[:, i, j])
    return out


# Certified picks.  When sigma, h - d, 2k and v v^T are constant, the worst-case
# pick of a stationary pricing-form solution, the first maximizer over candidates
# c of s_c = tr(H Q_c) with H formed as above, depends on the cell of the grid
# only through the cell's interpolated gradient and Hessian, which lie in the box
# spanned by the cell's node values.  Over that box the gap s_c - s_c' is affine
# in every Hessian and gradient entry but for z^T (Q_c - Q_c') z, z = sigma^T Du,
# whose z_i z_j are enclosed by interval products; so interval arithmetic gives a
# lower bound L of the exact gap.  c is the pick on the whole cell if, against
# every other c', L > K u B, u = 2^-53 and B = sum_ij (|Q_c| + |Q_c'|)_ij Hmag_ij,
# where Hmag_ij sums the magnitudes of the terms of H_ij over the cell.  In units
# of u B the computed s_c - s_c' falls short of L by at most (to first order,
# m <= 2, a chain of n roundings counted as n):
#   14          reading the fields: each is within 7u of a convex combination of
#               its node values (1D: quotient, product, sum; 2D: two products per
#               weight, the weight and three sums), doubled in z_i z_j;
#   10          forming H: sigma^T hess sigma, two products and four sums per term,
#               then four sums of the five parts;
#   d^2         the two scores, each a sum of d^2 products;
#   2 d^2 + 11  computing L: Q_c - Q_c', sigma D sigma^T, the h - d and z
#               contractions, the interval ends and the m^2 + m + d^2 + 1 sums.
# That is 35 + 3 d^2, and 2 (35 + 3 d^2) <= 1024 = K with room for the second-order
# terms while d <= 12.  Each computed score then errs by less than half the margin,
# so s_c > s_c' holds as computed, strictly, for every query in the cell.
# Rounding stays relative: the model's nonzero constants lie in [2^-100, 2^100] and
# a certified cell's B in [2^-600, 2^600], so no sum or product overflows, and an
# underflow, at most 2^-1075 times the later factors, stays far below u B.
# Candidates equal entry for entry score equal, so the first of them wins.  Only a
# candidate certified on every cell is used: it is the pick at every point, read
# with no cell lookup, and a query beyond the grid reads an edge cell's fields.
_CERT_K = 1024.0
_CERT_MAX_D = 12


def _within(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    mag = np.abs(a)
    return (mag >= lo) & (mag <= hi)


def _certified_candidate(solution, model: ModelSpec) -> int | None:
    """The candidate the pricing-form pick returns at every point of ``solution``.

    The pick is ``_best_candidate`` of ``_hamiltonian_batch`` at the gradient and
    Hessian the solution's interpolant reads; the certificate above must hold
    for the candidate on every grid cell.  None when it holds for no candidate,
    or unless ``solution`` is stationary and the model's sigma, h - d, 2k and
    v v^T are constant, with d <= 12 and every constant in range.
    """
    u = solution.u if isinstance(solution, ErgodicSolution) else solution
    if not (isinstance(u, PdeSolution) and u.kind == "stationary") or model.d > _CERT_MAX_D:
        return None
    interp = u._interp(None)
    one = interp._lo[None, :]
    try:
        tensors = [model._constant(name, one) for name in ("sigma", "h_eff", "two_k", "vv")]
    except EvaluationError:  # left to the step's evaluation, which raises it naming the entry
        return None
    if any(t is None for t in tensors):
        return None
    sig, heff, two_k, vv = (t[0] for t in tensors)
    cands = np.stack(model.uncertainty.candidates())
    if not all(np.all(_within(a[a != 0.0], 2.0**-100, 2.0**100))
               for a in (sig, heff, two_k, vv, cands)):
        return None

    m = model.m
    lo, hi = interp.cell_bounds()
    mag = np.maximum(np.abs(lo), np.abs(hi))
    (glo, hlo), (ghi, hhi), (gmag, hmag) = ((a[:, :m], a[:, m:]) for a in (lo, hi, mag))
    # z = sigma^T grad per coordinate, and z_i z_j, as intervals
    zlo = sum(np.minimum(glo[:, l, None] * sig[l], ghi[:, l, None] * sig[l]) for l in range(m))
    zhi = sum(np.maximum(glo[:, l, None] * sig[l], ghi[:, l, None] * sig[l]) for l in range(m))
    ends = [a[:, :, None] * b[:, None, :] for a in (zlo, zhi) for b in (zlo, zhi)]
    zzlo, zzhi = np.minimum.reduce(ends), np.maximum.reduce(ends)
    zmag = gmag @ np.abs(sig)
    hterms = (np.einsum("nab,ai,bj->nij", hmag.reshape(-1, m, m), np.abs(sig), np.abs(sig))
              + 2.0 * np.einsum("nl,ijl->nij", gmag, np.abs(heff))
              + np.abs(two_k) + np.abs(vv) + zmag[:, :, None] * zmag[:, None, :])

    def beats(c: int, other: int) -> bool:
        """Whether the pick prefers c to ``other`` at every point, as computed."""
        if np.array_equal(cands[c], cands[other]):
            return c < other
        gap = cands[c] - cands[other]
        alpha = (sig @ gap @ sig.T).ravel()           # per Hessian entry (a, b)
        beta = 2.0 * np.einsum("ij,ijl->l", gap, heff)  # per gradient entry
        low = (np.minimum(alpha * hlo, alpha * hhi).sum(axis=1)
               + np.minimum(beta * glo, beta * ghi).sum(axis=1)
               + np.sum(gap * (vv - two_k))
               + np.minimum(gap * zzlo, gap * zzhi).sum(axis=(1, 2)))
        scale = np.einsum("nij,ij->n", hterms, np.abs(cands[c]) + np.abs(cands[other]))
        return bool(np.all((low > _CERT_K * 2.0**-53 * scale)
                           & _within(scale, 2.0**-600, 2.0**600)))

    return next((c for c in range(len(cands))
                 if all(beats(c, other) for other in range(len(cands)) if other != c)), None)


# ---------------------------------------------------------------------------
# the discrete operator


class _Stepper:
    """Per-candidate assembled operator on a fixed grid.

        S(w) = max_c [ diffusion_c + advection_c + quadratic_c + const_c ] + f,

    one candidate c per extreme covariance of the ambiguity set.  Each
    candidate uses its own upwind directions, by the sign of its velocity
    b + Q_c : (h - d), so S_c is monotone in the neighbor values at the
    interior nodes in 1D, and in 2D when its cross diffusion a12 vanishes
    (the module docstring states where else it is not); the pointwise max
    of monotone S_c is monotone, and it is the exact worst-case generator.
    The candidate is an array axis: the per-candidate constants are stacked
    once here, and ``candidates`` evaluates every S_c in one pass.  With
    ``gamma2`` each candidate also gets level * tr(Q_c gamma2), i.e.
    G(H + 2 level gamma2) in place of G(H), the level being passed in by
    the caller.
    """

    def __init__(self, model: ModelSpec, grid: Grid, gamma2: np.ndarray | None = None):
        if grid.m != model.m:
            raise ShapeError(f"grid has {grid.m} axes, model state dimension is {model.m}")
        self.model = model
        self.grid = grid
        self.shape = grid.shape
        self.hs = grid.spacings()
        pts = grid.points()
        self.pts = pts
        n = pts.shape[0]

        pre = model.evaluate(pts)
        sig = pre["sigma"]

        cands = model.uncertainty.candidates()
        self.n_cand = len(cands)
        m = grid.m
        self.diff_c = np.empty((self.n_cand, m, m, n))      # sigma Q sigma^T per candidate
        self.vel_c = np.empty((self.n_cand, m, n))          # b + Q : (h - d)
        self.const_c = np.empty((self.n_cand, n))           # Q : (-k + vv/2)
        kv = -pre["k"] + 0.5 * pre["vv"]
        for c, q in enumerate(cands):
            a = np.einsum("nad,de,nbe->nab", sig, q, sig)
            self.diff_c[c] = np.moveaxis(a, 0, -1)
            self.vel_c[c] = np.moveaxis(
                pre["b"] + np.einsum("ij,nijl->nl", q, pre["h_eff"]), 0, -1)
            self.const_c[c] = np.einsum("ij,nij->n", q, kv)
        self.f_base = -pre["r"]

        # the candidate stacks the operator reads, shaped (n_cand, *grid)
        stack = (self.n_cand,) + self.shape
        self._vel = [self.vel_c[:, ax].reshape(stack) for ax in range(m)]
        self._up = [v > 0.0 for v in self._vel]
        self._const = self.const_c.reshape(stack)
        if m == 1:
            self._half_a = 0.5 * self.diff_c[:, 0, 0]
        else:
            self._a11, self._a12, self._a22 = (
                self.diff_c[:, i, j].reshape(stack) for i, j in ((0, 0), (0, 1), (1, 1)))
            self._two_a12 = 2.0 * self._a12

        self.gamma2 = gamma2  # the level's weight per candidate is tr(Q_c gamma2)
        self.trg2 = np.array([0.0 if gamma2 is None else np.tensordot(q, gamma2) for q in cands])

    # -- stationary residual ---------------------------------------------

    def residual(self, w: np.ndarray, level=0.0, policy=None) -> np.ndarray:
        """S(w), the candidate max of the assembled operator.

        ``level`` is a scalar or one value per node.  ``policy`` (a
        candidate index, or one per node) takes that candidate in place of
        the max.
        """
        each = self.candidates(w, level)
        if policy is None:
            return np.maximum.reduce(each, axis=0)
        return each[policy, np.arange(each.shape[1])]

    def candidates(self, w: np.ndarray, level=0.0) -> np.ndarray:
        """S_c(w) of every candidate c, f and the gamma2 level term included, (n_cand, n)."""
        out = self._candidates_1d(w) if self.grid.m == 1 else self._candidates_2d(w)
        out = out.reshape(self.n_cand, -1)
        if self.gamma2 is not None:
            out += self.trg2[:, None] * level
        out += self.f_base
        return out

    def _differences(self, w) -> tuple:
        """Linearly padded w (grid-shaped) and (backward, forward) differences per
        axis, both read from one difference of neighbours along it."""
        if self.grid.m == 1:
            wp = _pad_linear_1d(w)
            s = (wp[1:] - wp[:-1]) / self.hs[0]
            return wp, [(s[:-1], s[1:])]
        wp = _pad_linear_2d(w.reshape(self.shape))
        s1 = (wp[1:, 1:-1] - wp[:-1, 1:-1]) / self.hs[0]
        s2 = (wp[1:-1, 1:] - wp[1:-1, :-1]) / self.hs[1]
        return wp, [(s1[:-1], s1[1:]), (s2[:, :-1], s2[:, 1:])]

    def _candidates_1d(self, w) -> np.ndarray:
        wp, ((dm, dp),) = self._differences(w)
        (wxx,) = _second_differences(wp, self.hs)
        quad = np.maximum(dp, 0.0) ** 2 + np.minimum(dm, 0.0) ** 2
        (vel,), (up,) = self._vel, self._up
        out = self._half_a * wxx
        out += vel * np.where(up, dp, dm)
        out += self._half_a * quad
        out += self._const
        return out

    def _candidates_2d(self, w2) -> np.ndarray:
        wp, ((dm1, dp1), (dm2, dp2)) = self._differences(w2)
        wxx, wyy, wxy = _second_differences(wp, self.hs)
        wxc = 0.5 * (dm1 + dp1)
        wyc = 0.5 * (dm2 + dp2)
        god1 = np.maximum(dp1, 0.0) ** 2 + np.minimum(dm1, 0.0) ** 2
        god2 = np.maximum(dp2, 0.0) ** 2 + np.minimum(dm2, 0.0) ** 2
        (v1, v2), (up1, up2) = self._vel, self._up
        a11, a12, a22 = self._a11, self._a12, self._a22
        out = 0.5 * (a11 * wxx + self._two_a12 * wxy + a22 * wyy)
        out += v1 * np.where(up1, dp1, dm1)
        out += v2 * np.where(up2, dp2, dm2)
        out += 0.5 * (a11 * god1 + a22 * god2)
        out += a12 * wxc * wyc
        out += self._const
        return out

    # -- time-step control -----------------------------------------------

    def stable_dt(self) -> float:
        """Positivity-preserving time step, allowing gradients up to 1.5."""
        load = np.zeros(self.const_c.shape)  # one row per candidate
        for ax in range(self.grid.m):
            a = self.diff_c[:, ax, ax]
            load = load + a / self.hs[ax] ** 2 + np.abs(self.vel_c[:, ax]) / self.hs[ax]
            load = load + a * 1.5 / self.hs[ax]
            if self.grid.m == 2:
                other = 1 - ax
                load = load + np.abs(self.diff_c[:, ax, other]) / (self.hs[ax] * self.hs[other])
        return 0.9 / max(1e-300, float(np.max(load)))


# ---------------------------------------------------------------------------
# residual reporting


@dataclass(frozen=True)
class ResidualReport:
    """Centered-difference residual of a solution, interior statistics."""

    values: np.ndarray
    linf_interior: float
    l2_interior: float
    linf_full: float

    def to_dict(self) -> dict:
        return {
            "linf_interior": self.linf_interior,
            "l2_interior": self.l2_interior,
            "linf_full": self.linf_full,
        }


def _interior_mask(shape: tuple) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    for ax in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[ax] = slice(0, _BAND)
        mask[tuple(sl)] = False
        sl[ax] = slice(shape[ax] - _BAND, shape[ax])
        mask[tuple(sl)] = False
    return mask


def _stationary_residual_field(
    values: np.ndarray, model: ModelSpec, grid: Grid, lam: float
) -> np.ndarray:
    pts = grid.points()
    grad = nodal_gradient(values, grid).reshape(-1, grid.m)
    hess = nodal_hessian(values, grid).reshape(-1, grid.m, grid.m)
    coeffs = model.evaluate(pts)
    hmat = _hamiltonian_batch(model, pts, grad, hess, precomputed=coeffs)
    gvals = _g_values(hmat, model.uncertainty)[0]  # the maximizers are not read
    drift = np.einsum("nl,nl->n", coeffs["b"], grad)
    return (gvals + drift - coeffs["r"] - lam).reshape(grid.shape)


def pde_residual(
    solution,
    model: ModelSpec,
    grid: Grid | None = None,
    lam: float | None = None,
) -> ResidualReport:
    """Recompute the stationary PDE residual with central differences.

    Accepts an :class:`ErgodicSolution` (uses its lam), a stationary
    :class:`PdeSolution` (lam defaults to 0), or a raw value array of the
    grid's shape with an explicit grid.
    """
    if isinstance(solution, ErgodicSolution):
        grid = solution.grid
        lam = solution.lam if lam is None else lam
        values = solution.u.values
    elif isinstance(solution, PdeSolution):
        grid = solution.grid
        values = solution.values
    else:
        if grid is None:
            raise ShapeError("raw value arrays need an explicit grid")
        values = np.asarray(solution, dtype=float)
    if values.shape != grid.shape:
        raise ShapeError(f"values of shape {values.shape} are not on the grid of shape "
                         f"{grid.shape}; only stationary residuals are reported")
    lam = 0.0 if lam is None else lam

    field = _stationary_residual_field(values, model, grid, lam)
    interior = field[_interior_mask(grid.shape)]
    return ResidualReport(
        values=field,
        linf_interior=float(np.max(np.abs(interior))),
        l2_interior=float(np.sqrt(np.mean(interior**2))),
        linf_full=float(np.max(np.abs(field))),
    )


# ---------------------------------------------------------------------------
# solvers


def _check_finite(w: np.ndarray, sweep: int) -> None:
    if not np.isfinite(w).all():
        bad = int(np.argmax(~np.isfinite(w)))
        raise DivergenceError(
            "solution became non-finite", where=f"node {bad}, sweep {sweep}"
        )


def solve_parabolic(
    model: ModelSpec,
    grid: Grid,
    terminal,
) -> PdeSolution:
    """Backward terminal-value solve; grid must carry horizon/time_steps.

    The terminal must be finite at every node (:class:`ShapeError`
    otherwise, naming the first node that is not).

    The time step must satisfy the diffusion stability bound
    dt <= h^2/(sig_hi2 m_sigma^2 m * 1.05); a stricter positivity bound
    including first-order terms is only warned about, with runtime
    divergence detection as the backstop.
    """
    if grid.horizon is None:
        raise ShapeError("parabolic solves need a grid with horizon/time_steps")
    pts = grid.points()
    if isinstance(terminal, np.ndarray):
        if terminal.shape != grid.shape:
            raise ShapeError(f"terminal array must have grid shape {grid.shape}")
        w_term = terminal.astype(float)
    else:
        w_term = as_coefficient(terminal)(pts).reshape(grid.shape)
    if not np.isfinite(w_term).all():
        bad = int(np.argmax(~np.isfinite(w_term.ravel())))
        raise ShapeError(f"terminal must be finite at every node; node {bad} "
                         f"(x = {pts[bad].tolist()}) has {w_term.flat[bad]}")

    if grid.horizon == 0.0 or grid.time_steps == 0:
        return PdeSolution(grid=grid, kind="parabolic", values=w_term[None, ...].copy())

    dt = grid.dt
    bound = grid.diffusion_cfl(model)
    if dt > bound * (1.0 + 1e-12):
        raise CflError(
            f"time step {dt:.6g} violates the stability bound {bound:.6g}; "
            f"increase time_steps to at least {int(math.ceil(grid.horizon / bound))}"
        )
    stepper = _Stepper(model, grid)
    strict = stepper.stable_dt()
    if dt > strict:
        warnings.warn(
            f"time step {dt:.3g} exceeds the positivity bound {strict:.3g}; "
            "the march stays consistent but loses the discrete comparison property",
            stacklevel=2,
        )

    n_t = grid.time_steps
    hist = np.empty((n_t + 1,) + grid.shape)
    hist[n_t] = w_term
    flat = hist.reshape(n_t + 1, -1)  # each step is written straight into hist
    for q in range(n_t - 1, -1, -1):
        w = flat[q + 1]
        np.add(w, dt * stepper.residual(w), out=flat[q])
        _check_finite(flat[q], n_t - q)

    # no residual report: nothing reads one, and over 65 time slices it costs
    # about a seventh of the march
    return PdeSolution(grid=grid, kind="parabolic", values=hist, sweeps=n_t)


def _damping_gamma2(gamma1: float, gamma2, model: ModelSpec) -> np.ndarray | None:
    """Symmetrized gamma2, None when zero; checks gamma1 + 2 G(gamma2) = -1."""
    d = model.d
    g2 = np.asarray(0.0 if gamma2 is None else gamma2, dtype=float)
    if g2.ndim == 0:
        g2 = g2 * np.eye(d)
    if g2.shape != (d, d):
        raise ShapeError(f"gamma2 must be a ({d}, {d}) matrix")
    g2 = 0.5 * (g2 + g2.T)
    norm = gamma1 + 2.0 * g_value(g2, model.uncertainty).value
    if not abs(norm + 1.0) <= 1e-12:  # a NaN fails too
        raise ShapeError(f"damping normalization gamma1 + 2 G(gamma2) must equal -1, got {norm}")
    return g2 if np.any(g2) else None


class _Budget:
    """Sweeps one solve has spent, against its limit.  A sweep is one candidate
    operator S_c on the whole grid: a Newton iteration spends n_cand on its
    policy improvement, one pass over every candidate, and 3^m on its Jacobian."""

    def __init__(self, limit: int):
        self.limit, self.used = _size(limit, "max_sweeps"), 0
        if self.limit < 1:
            raise ShapeError(f"max_sweeps must be at least 1, got {limit}")

    def spend(self, count: int, residual: float) -> None:
        if self.used + count > self.limit:
            raise IterationError(f"stationary solve used up its {self.limit} residual "
                                 "evaluations", last_residual=residual)
        self.used += count


def _finite_positive(**values) -> None:
    """ShapeError unless every value is finite and positive (so not NaN)."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ShapeError(f"{name} must be finite and positive, got {value}")


def _jacobian_blocks(fun, w: np.ndarray, f0: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Jacobian of a nearest-neighbour residual, block-tridiagonal along axis 0.

    F at node (i, j) depends only on the nodes (i + o1, j + o2), o1, o2 in
    {-1, 0, 1} (a 1D grid is n2 = 1).  Nodes whose indices agree mod 3
    share a color, so one forward difference per color gives every entry.
    Returns (3, n1, n2, n2) with ``blocks[1 + o1][i]`` = dF(i, .) / dw(i + o1, .).
    """
    i, j = np.indices((n1, n2))
    c2 = 3 if n2 > 1 else 1
    eps = 1e-7 * (1.0 + float(np.max(np.abs(w))))
    color = ((i % 3) * c2 + j % c2).ravel()
    diffs = np.stack([(fun(w + eps * (color == k)) - f0) / eps for k in range(3 * c2)])
    diffs = diffs.reshape(-1, n1, n2)
    blocks = np.zeros((3, n1, n2, n2))
    for o1, o2 in itertools.product((-1, 0, 1), (-1, 0, 1) if n2 > 1 else (0,)):
        ok = (i + o1 >= 0) & (i + o1 < n1) & (j + o2 >= 0) & (j + o2 < n2)
        k = ((i + o1) % 3) * c2 + (j + o2) % c2
        blocks[1 + o1][i[ok], j[ok], j[ok] + o2] = diffs[k[ok], i[ok], j[ok]]
    return blocks


def _block_thomas(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L_i x_(i-1) + D_i x_i + U_i x_(i+1) = r_i (rhs (n1, n2, k)) by block elimination.

    1 x 1 blocks (a 1D grid) take ``_scalar_thomas``, with the same bits.
    """
    lower, diag, upper = blocks
    n2 = diag.shape[1]
    if n2 == 1:
        return _scalar_thomas(blocks, rhs)
    cs, rs = np.empty_like(upper), np.empty_like(rhs)
    for i in range(diag.shape[0]):
        pivot, r = diag[i], rhs[i]
        if i > 0:
            pivot, r = pivot - lower[i] @ cs[i - 1], r - lower[i] @ rs[i - 1]
        both = np.linalg.solve(pivot, np.concatenate([upper[i], r], axis=1))
        cs[i], rs[i] = both[:, :n2], both[:, n2:]
    for i in range(diag.shape[0] - 2, -1, -1):
        rs[i] -= cs[i] @ rs[i + 1]
    return rs


def _scalar_thomas(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``_block_thomas`` of 1 x 1 blocks, over Python floats.

    Each step repeats the block path's arithmetic: a 1 x 1 product sums its
    one term from +0.0, and this build's LAPACK solves a 1 x 1 system by
    multiplying with the pivot's reciprocal.  A zero pivot raises
    ``LinAlgError`` as the solve does.
    """
    lower, diag, upper = (b[:, 0, 0].tolist() for b in blocks)
    cs, rs = [], []
    for lo, pivot, up, r in zip(lower, diag, upper, rhs[:, 0, :].tolist()):
        if rs:
            pivot = pivot - (0.0 + lo * cs[-1])
            r = [a - (0.0 + lo * b) for a, b in zip(r, rs[-1])]
        if pivot == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        inv = 1.0 / pivot
        cs.append(up * inv)
        rs.append([a * inv for a in r])
    for i in range(len(rs) - 2, -1, -1):
        rs[i] = [a - (0.0 + cs[i] * b) for a, b in zip(rs[i], rs[i + 1])]
    return np.array(rs).reshape(rhs.shape)


def _newton(stepper: _Stepper, w: np.ndarray, lam: float, delta: float, gamma1: float,
            anchor: int, tol: float, budget: _Budget) -> tuple:
    """Semismooth Newton (Howard) iteration; returns (w, lam) once sup |F| <= tol.

    delta > 0: F(w) = max_c[S_c(w) + delta w tr(Q_c gamma2)] + f + gamma1 delta w.
    delta = 0: F(w, lam) = max_c[S_c(w) + lam tr(Q_c gamma2)] + f + gamma1 lam
    with w[anchor] = 0, the limit of delta -> 0 with delta w -> lam; gamma2
    is the stepper's.  Each step reads every candidate's F in one pass,
    freezes the maximizing candidate per node and differences F under it;
    with delta = 0 the anchor row of J becomes the unit row and the lam
    step solves the anchor row (its Schur complement).  sup |F| need not
    fall at every step.  Raises ConvergenceError when it is still above tol
    after ``_NEWTON_STEPS`` steps, when tol is below its round-off floor or
    when J is singular.
    """
    n1, n2 = stepper.shape if stepper.grid.m == 2 else (stepper.shape[0], 1)
    bordered = delta == 0.0

    def resid(v, policy=None):
        """F of every candidate (n_cand, n), or F under a frozen policy."""
        level = lam if bordered else delta * v
        f = stepper.candidates(v, level) if policy is None else stepper.residual(v, level, policy)
        return f + gamma1 * level

    res, steps = math.nan, 0
    while True:
        # policy improvement: the maximizing candidate per node, the first on ties
        budget.spend(stepper.n_cand, res)
        each = resid(w)
        pick, f0 = np.argmax(each, axis=0), np.max(each, axis=0)
        _check_finite(f0, budget.used)
        res = float(np.max(np.abs(f0)))
        if res <= tol:
            return w, lam
        if steps == _NEWTON_STEPS:
            raise ConvergenceError(f"Newton residual is {res:.3e} after {steps} steps")
        steps += 1
        budget.spend(3 ** stepper.grid.m, res)
        blocks = _jacobian_blocks(lambda v: resid(v, pick), w, f0, n1, n2)
        # F carries a rounding error of about eps |J| |w|: a smaller tol is met only by chance
        floor = np.finfo(float).eps * np.max(np.abs(blocks).sum(axis=(0, 3))) * np.max(np.abs(w))
        if tol < floor:
            raise ConvergenceError(f"tol {tol:.1e} is below the round-off floor {floor:.1e}")
        rhs = f0[:, None]
        if bordered:
            ia, ja = divmod(anchor, n2)
            row = blocks[:, ia, ja, :].copy()
            blocks[:, ia, ja, :] = 0.0
            blocks[1, ia, ja, ja] = 1.0
            g = stepper.trg2[pick] + gamma1  # dF/dlam under the frozen policy
            rhs = np.stack([f0, g], axis=-1)
            rhs[anchor] = 0.0
        try:
            x = _block_thomas(blocks, rhs.reshape(n1, n2, -1))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Newton Jacobian ({exc})") from None
        if bordered:
            jx = sum(row[1 + o] @ x[ia + o] for o in (-1, 0, 1) if 0 <= ia + o < n1)
            dlam = (f0[anchor] - jx[0]) / (g[anchor] - jx[1])
            x = x[..., 0] - dlam * x[..., 1]
            lam = lam - dlam
        w = w - x.ravel()


def solve_discounted(
    model: ModelSpec,
    grid: Grid,
    delta: float,
    gamma1: float = -1.0,
    gamma2=None,
    tol: float = 1e-10,
    max_sweeps: int = 500_000,
) -> PdeSolution:
    """Solve G(H + 2 gamma2 delta w) + <b, Dw> + f + gamma1 delta w = 0 by Newton.

    Requires finite delta > 0 and tol > 0, an integer ``max_sweeps`` >= 1
    and gamma1 + 2 G(gamma2) = -1 (:class:`ShapeError` otherwise).
    Semismooth Newton starts from w = 0 and stops once the residual has
    sup norm at most ``tol``.  ``sweeps`` on the result counts
    candidate operators evaluated on the whole grid: n_cand for the single
    policy-improvement pass over every covariance candidate plus 3^m for
    the Jacobian, per iteration; more than ``max_sweeps`` raise
    :class:`IterationError`, and Newton's failures (see ``_newton``)
    :class:`ConvergenceError`.
    """
    delta = float(delta)
    _finite_positive(delta=delta, tol=tol)
    budget = _Budget(max_sweeps)
    g2 = _damping_gamma2(gamma1, gamma2, model)
    stepper = _Stepper(model, grid, gamma2=g2)
    w, _ = _newton(stepper, np.zeros(stepper.pts.shape[0]), 0.0, delta, gamma1, 0, tol, budget)
    return PdeSolution(grid=grid, kind="stationary", values=w.reshape(grid.shape),
                       sweeps=budget.used)


def solve_ergodic(
    model: ModelSpec,
    grid: Grid,
    tol: float = 1e-6,
    gamma1: float = -1.0,
    gamma2=None,
    max_sweeps: int = 500_000,
    anchor: Sequence[float] | None = None,
    *,
    delta0: None = None,
    tol_inner: None = None,
    max_halvings: None = None,
    mode: None = None,
    gradient_cap: None = None,
) -> ErgodicSolution:
    """Eigenpair (u, lam) by Newton on the bordered stationary system.

    Solves max_c[S_c(u) + lam tr(Q_c gamma2)] + f + gamma1 lam = 0,
    u(anchor) = 0 -- the vanishing-damping limit of :func:`solve_discounted`,
    S(u) = lam for gamma2 = 0 -- until the residual has sup norm at most
    ``tol``.  One Newton solve starts from u = 0, lam = 0 and may take up to
    ``_NEWTON_STEPS`` steps, through rises of the residual; its
    :class:`ConvergenceError` or :class:`DivergenceError` reaches the caller.
    ``max_sweeps`` caps the sweeps of the solve (:class:`IterationError`);
    as in :func:`solve_discounted` a Newton iteration spends n_cand sweeps
    on its policy improvement, one pass over every candidate, and 3^m on
    its Jacobian.

    ``tol`` must be finite and positive.  The keyword-only settings of the
    retired damped continuation (``_RETIRED``) accept only None.  A setting
    out of range raises :class:`ShapeError` before the solve.

    The solve does not judge the model's regularity: that is
    :func:`~gkernel.model.check_assumptions`, which the CLI runs on the
    config's ``assumption_box`` before it solves.
    """
    for name, value in zip(_RETIRED, (delta0, tol_inner, max_halvings, mode, gradient_cap)):
        if value is not None:
            raise ShapeError(f"{name} is retired: the solve is one Newton run from u = 0 "
                             f"with no damped continuation, so it takes only None, got {value!r}")
    _finite_positive(tol=tol)
    g2 = _damping_gamma2(gamma1, gamma2, model)

    anchor_idx = grid.anchor_index(anchor)
    a = int(np.ravel_multi_index(anchor_idx, grid.shape))
    anchor_point = np.array([ax[i] for ax, i in zip(grid.axes(), anchor_idx)])

    budget = _Budget(max_sweeps)
    stepper = _Stepper(model, grid, gamma2=g2)
    u, lam = _newton(stepper, np.zeros(stepper.pts.shape[0]), 0.0, 0.0, gamma1, a, tol, budget)

    values = (u - u[a]).reshape(grid.shape)
    rep = pde_residual(values, model, grid=grid, lam=lam)
    u_sol = PdeSolution(grid=grid, kind="stationary", values=values, sweeps=budget.used,
                        residual=rep.values, residual_linf=rep.linf_interior,
                        residual_l2=rep.l2_interior)

    return ErgodicSolution(
        u=u_sol,
        lam=float(lam),
        delta_trace=((0.0, float(lam)),),
        gamma1=float(gamma1),
        gamma2=np.zeros((model.d, model.d)) if g2 is None else g2,
        anchor_index=anchor_idx,
        anchor_point=anchor_point,
    )
