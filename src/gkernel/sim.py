"""Path simulation under controlled volatility scenarios.

The driving noise under volatility uncertainty is represented scenario
by scenario: a control picks a covariance matrix Q_t inside the
ambiguity set at every step, the quadratic covariation accrues as
Q_t dt, and the noise increment is sqrtm(Q_t) sqrt(dt) xi with standard
normal xi.  The state follows the Euler scheme

    dX = b(X) dt + sum_ij h_ij(X) dQV_ij + sigma(X) dB,

with all coefficients evaluated at the left endpoint.  One kernel,
``_euler_steps``, takes these steps for every simulator, evaluating the
model once per step into a bundle that the controls and the deflator
share, and one chunk driver, ``_chunks``, splits the paths into blocks
and draws their noise.  The kernel marches one or more controls on a
chunk's draws as one batch, one block of rows per control:
``simulate_gsde`` is the case of one control, and the streaming
estimators stack every distinct march of a chunk.  A chunk's draws, like
every history, are path-major (path, step, ...), so one step's noise lies
spread across the chunk; the kernel copies the draws into a step-major
buffer one block of ``_BLOCK_STEPS`` steps at a time, ``_TILE_PATHS``
paths per copy, and reads each step as contiguous rows.
``simulate_gsde`` records its histories the same way round, in step-major
blocks that it flushes into the path-major arrays.  Only the order of the
memory copies differs from a per-step read and write: every value is the
same, bit for bit.

Each path owns a counter-based random stream keyed by (seed, path id),
so results are independent of chunking and identical whether paths are
generated in one block or streamed, in any order, on any thread: a long
chunk is filled by two threads, split by path, with the same bits as one.
Expectation-style estimators (``upper_price_mc``, ``long_term_yield_mc``)
stream path chunks, drawing each into one reused buffer, and never hold
full histories; ``simulate_gsde`` returns full histories
(the quadratic covariation is derived from the scenarios on read) and
guards against oversized requests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coefficients import as_coefficient
from .errors import DivergenceError, InvalidSetError, ShapeError
from .gcore import UncertaintySet, _best_candidate
from .model import ModelSpec
from .pde import _certified_candidate, _hamiltonian_batch

__all__ = [
    "VolControl",
    "ConstantControl",
    "PiecewiseControl",
    "FeedbackControl",
    "ScenarioBatch",
    "simulate_gsde",
    "worst_case_policy",
    "extreme_controls",
    "PriceEstimate",
    "upper_price_mc",
    "YieldEstimate",
    "long_term_yield_mc",
]

_MAX_BATCH_FLOATS = 2.5e8  # full-history batches above this must stream instead
_MASK64 = (1 << 64) - 1
# the Euler kernel reads its draws, and simulate_gsde writes its histories, in
# step-major blocks of this many steps, copied this many paths at a time
_BLOCK_STEPS = 64
_TILE_PATHS = 256
# a chunk whose paths draw at least this many normals each, and which has at
# least this many paths, is filled by two threads, split by path, where the
# process may run on two CPUs.  Each path's key is set under the interpreter
# lock, so short paths leave the threads taking turns: on 2 vCPUs, 2000 paths
# of 500 normals filled in 35 ms on two threads against 32 ms on one, and of
# 1000 normals in 32 against 54 ms
_SPLIT_MIN = 1000
_SPLIT_PATHS = 64


def _sqrt_psd(q: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root, batched over the leading axis."""
    vals, vecs = np.linalg.eigh(q)
    vals = np.clip(vals, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", vecs, np.sqrt(vals), vecs)


# the contractions of a row vector (n, d) that _contract may sum entry by entry;
# the first axis of each operand runs over the rows
_ROW_SPECS = ("nij,nj->ni", "nld,nd->nl", "ni,ni->n")


def _contract(spec: str, mat: np.ndarray, vec: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """``np.einsum(spec, mat, vec, out=out)``, summed entry by entry where that
    is cheaper and gives the same bits.

    That is when ``spec`` contracts a row vector ``vec`` (n, d), as the specs
    of ``_ROW_SPECS`` do, ``mat`` is one value over the rows (a stride-0
    broadcast, or a single row) and each output sums two products: d = 2.
    einsum sums from +0.0 in the order of j, and every order of
    (0.0 + p0) + p1 rounds alike, so four ufuncs over all the rows give its
    value.  They keep its signed zeros, and its NaN when the NaNs of the
    inputs share one bit pattern: the first product sits in a strided
    buffer so that numpy adds the second element by element, as einsum
    does.  Of two NaNs that differ in payload or sign, einsum picks by where
    the row falls in its vector blocks, which no ufunc follows; an Euler
    path with a NaN ends in ``DivergenceError`` anyway.  Unlike einsum, the
    ufuncs warn on an overflow or an inf times 0, as the rest of an Euler
    step does.  At d = 1 einsum's one product costs no more than the ufuncs
    would, and every other contraction is einsum's own.
    """
    n, d = len(vec), vec.shape[-1]
    if (spec not in _ROW_SPECS or d != 2 or n == 0 or len(mat) != n or mat.shape[-1] != 2
            or not (mat.strides[0] == 0 or n == 1)):
        return np.einsum(spec, mat, vec, out=out)
    if out is None:
        out = np.empty(mat.shape[:-1])
    one = mat[0]  # (..., 2): the one value of every row
    # (..., n), iterated in C order so that each inner loop runs over the rows
    dest = out.swapaxes(0, -1)
    first = np.empty(dest.shape + (2,))[..., 0]
    np.multiply(one[..., :1], vec[:, 0], out=first, order="C")
    second = np.multiply(one[..., 1:], vec[:, 1], order="C")
    # p0 + (p1 + 0.0) has the bits of (0.0 + p0) + p1: the +0.0 only turns a
    # -0.0 into +0.0, and a sum of -0.0 and a zero is +0.0 either way
    np.add(second, 0.0, out=second)
    np.add(first, second, out=dest, order="C")
    return out


def _broadcast_rows(arrays: tuple, n: int) -> tuple:
    """Read-only broadcasts of ``arrays`` over ``n`` rows: one value on every
    row, with stride 0, which ``_contract`` sums entry by entry at d = 2."""
    return tuple(np.broadcast_to(a, (n,) + a.shape) for a in arrays)


# ---------------------------------------------------------------------------
# controls


class VolControl:
    """Chooses the covariance scenario Q_t at each step.

    Subclasses implement ``matrices(t, x)`` returning one (d, d) matrix
    per row of ``x``.
    """

    label = "control"

    def matrices(self, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def matrices_and_roots(self, t: float, x: np.ndarray,
                           coeffs=None) -> tuple[np.ndarray, np.ndarray]:
        """Scenarios Q_t for one step together with their PSD square roots.

        ``coeffs`` is the model's ``Coefficients`` bundle at ``x``, which the
        simulator has already evaluated for the step; a control that reads
        the coefficients may use it instead of evaluating them again.
        """
        q = self.matrices(t, x)
        return q, _sqrt_psd(q)

    def validate(self, sigma_set: UncertaintySet) -> None:
        """Static controls check set membership up front; others opt out."""

    def _fixed_scenario(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(q, root)`` when every step applies this one scenario to every row,
        else None.  The streaming estimators march controls whose ``(q, root)``
        are byte-equal once per chunk."""
        return None


def _scenario(q) -> np.ndarray:
    """A covariance scenario as a symmetrized square matrix; a scalar is 1 x 1."""
    q = np.asarray(q, dtype=float)
    if q.ndim == 0:
        q = q.reshape(1, 1)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ShapeError(f"covariance scenario must be square, got shape {q.shape}")
    return 0.5 * (q + q.T)


class ConstantControl(VolControl):
    def __init__(self, q, label: str | None = None):
        self.q = _scenario(q)
        self.root = _sqrt_psd(self.q)
        self.label = label or "constant"

    def matrices(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.matrices_and_roots(t, x)[0]

    def matrices_and_roots(self, t: float, x: np.ndarray,
                           coeffs=None) -> tuple[np.ndarray, np.ndarray]:
        return _broadcast_rows((self.q, self.root), x.shape[0])

    def _fixed_scenario(self) -> tuple[np.ndarray, np.ndarray] | None:
        # a subclass that steps otherwise applies a scenario of its own
        if type(self).matrices_and_roots is not ConstantControl.matrices_and_roots:
            return None
        return self.q, self.root

    def validate(self, sigma_set: UncertaintySet) -> None:
        if not sigma_set.contains(self.q):
            raise InvalidSetError(
                f"control {self.label!r} uses a covariance outside the ambiguity set"
            )


class PiecewiseControl(VolControl):
    """Deterministic piecewise-constant scenario, left-closed in time."""

    def __init__(self, times: Sequence[float], mats: Sequence, label: str | None = None):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0 or times[0] != 0.0:
            raise ShapeError("piecewise control needs breakpoints starting at 0")
        if not np.isfinite(times).all():
            raise ShapeError("piecewise breakpoints must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ShapeError("piecewise breakpoints must be strictly increasing")
        ms = [_scenario(m) for m in mats]
        if len(ms) != times.size:
            raise ShapeError("piecewise control needs one matrix per breakpoint")
        if len({m.shape for m in ms}) != 1:
            raise ShapeError(f"piecewise segments differ in shape: {[m.shape for m in ms]}")
        self.times = times
        self.mats = np.stack(ms)
        self.roots = _sqrt_psd(self.mats)  # one root per segment, as ConstantControl
        self.label = label or "piecewise"

    def _segment(self, t: float) -> int:
        # t = k dt carries the rounding of dt and of the product, a few ulps, so
        # a breakpoint that close above t counts as reached: 3 x 0.3 is
        # 0.8999999999999999 and starts the segment at 0.9
        t += 8.0 * math.ulp(t)
        return max(int(np.searchsorted(self.times, t, side="right") - 1), 0)

    def matrices(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.matrices_and_roots(t, x)[0]

    def matrices_and_roots(self, t: float, x: np.ndarray,
                           coeffs=None) -> tuple[np.ndarray, np.ndarray]:
        idx = self._segment(t)
        return _broadcast_rows((self.mats[idx], self.roots[idx]), x.shape[0])

    def validate(self, sigma_set: UncertaintySet) -> None:
        for i, m in enumerate(self.mats):
            if not sigma_set.contains(m):
                raise InvalidSetError(
                    f"piecewise control segment {i} lies outside the ambiguity set"
                )


class FeedbackControl(VolControl):
    def __init__(self, fn: Callable[[float, np.ndarray], np.ndarray], label: str = "feedback"):
        self.fn = fn
        self.label = label

    def matrices(self, t: float, x: np.ndarray) -> np.ndarray:
        q = np.asarray(self.fn(t, x), dtype=float)
        if q.shape[0] != x.shape[0] or q.ndim != 3 or q.shape[1] != q.shape[2]:
            raise ShapeError(
                f"feedback control returned shape {q.shape} for {x.shape[0]} paths"
            )
        # no sum of an absent k or v carries a NaN covariance into the deflator
        if not np.isfinite(q).all():
            raise DivergenceError(f"feedback control {self.label!r} returned a non-finite "
                                  "covariance", where=f"t={t}")
        return q


class _CandidatePolicy(FeedbackControl):
    """Feedback control that picks one fixed candidate matrix per path.

    ``pick(t, x, coeffs)`` returns indices into ``candidates``; the square
    roots of the candidates are taken once instead of on every step, and
    each step gathers the picked ones into fresh arrays.
    """

    def __init__(self, pick: Callable[..., np.ndarray], candidates: np.ndarray, label: str):
        super().__init__(lambda t, x: candidates.take(pick(t, x, None), axis=0), label=label)
        self.pick = pick
        self.candidates = candidates
        self.roots = _sqrt_psd(candidates)

    def matrices_and_roots(self, t: float, x: np.ndarray,
                           coeffs=None) -> tuple[np.ndarray, np.ndarray]:
        idx = self.pick(t, x, coeffs)
        # take() gathers whole (d, d) blocks several times faster than indexing
        return self.candidates.take(idx, axis=0), self.roots.take(idx, axis=0)


def worst_case_policy(solution, model: ModelSpec) -> VolControl:
    """The control that selects the maximizing covariance of G(H).

    ``solution`` is an ergodic or stationary/parabolic solution exposing
    ``derivatives_at``.  The selected matrix is always one of the extreme
    candidates of the ambiguity set.  Outside the solution grid the
    interpolants extend with frozen boundary derivatives, so the policy
    stays well defined on the whole simulation range.

    When ``pde._certified_candidate`` proves one candidate the pick on every
    grid cell (for a stationary solution, on a model whose sigma, h - d_ij,
    k and v are constant), the policy is that candidate's
    ``ConstantControl``, labelled ``"worst_case"``: the sublinear expectation
    is then the linear one under that extreme, and no step evaluates H.
    Otherwise each step evaluates H in full (``_CandidatePolicy``).  The two
    differ only on a row with a NaN coordinate, which ends its march in
    ``DivergenceError``, so every output is the same either way.

    A solution whose grid has another dimension than the model's state
    raises ``ShapeError`` here, before any step.
    """
    grid = getattr(solution, "grid", None)
    if grid is not None and grid.m != model.m:
        raise ShapeError(f"the solution's grid has {grid.m} axes, model state dimension "
                         f"is {model.m}")

    cands = np.stack(model.uncertainty.candidates())
    certified = _certified_candidate(solution, model)
    if certified is not None:
        return ConstantControl(cands[certified], label="worst_case")

    def pick(t: float, x: np.ndarray, coeffs) -> np.ndarray:
        grad, hess = solution.derivatives_at(x, t)
        # a bundle of another model (or none) leaves the evaluation to the Hamiltonian
        pre = coeffs if coeffs is not None and coeffs.model is model else None
        hmat = _hamiltonian_batch(model, x, grad, hess, precomputed=pre)
        return _best_candidate(hmat, model.uncertainty)

    return _CandidatePolicy(pick, cands, label="worst_case")


def extreme_controls(sigma_set: UncertaintySet) -> list[ConstantControl]:
    """Constant controls at the extreme points of the ambiguity set."""
    out = []
    if sigma_set.kind == "interval":
        labels = ["upper", "lower"] if not sigma_set.degenerate else ["upper"]
        for q, lab in zip(sigma_set.candidates()[: len(labels)], labels):
            out.append(ConstantControl(q, label=lab))
    else:
        for i, q in enumerate(sigma_set.candidates()):
            out.append(ConstantControl(q, label=f"member_{i}"))
    return out


# ---------------------------------------------------------------------------
# path generation


def _fill_paths(seed: int, path_lo: int, out: np.ndarray) -> None:
    """Fill ``out[i]`` with the standard normals of path path_lo + i, read from
    a fresh Philox stream keyed by (seed, path).  One bit generator serves the
    rows: setting its state to a fresh one under each path's key costs several
    times less than building a generator per path."""
    bits = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state  # a copy: zero counter, empty buffer
    key = fresh["state"]["key"]
    for i in range(out.shape[0]):
        key[1] = (path_lo + i) & _MASK64
        bits.state = fresh
        gen.standard_normal(out=out[i])


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_draws(seed: int, path_lo: int, path_hi: int, n_steps: int, d: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals (paths, steps, d); path p reads a fresh Philox stream
    keyed by (seed, p).  The draws go straight into ``out``, a C-contiguous
    array of that shape, when it is given.

    Each path's stream depends on its key alone, so the rows can be filled in
    any order on any thread with the same bits.  A long chunk (at least
    ``_SPLIT_MIN`` normals per path and ``_SPLIT_PATHS`` paths, on a process
    that may run on two CPUs) fills its lower half of the paths here and its
    upper half on one worker thread, each with its own generator; the fill
    releases the interpreter lock.  The worker is joined before this returns
    or raises, and its exception reaches the caller."""
    n = path_hi - path_lo
    if out is None:
        out = np.empty((n, n_steps, d))
    if n_steps * d < _SPLIT_MIN or n < _SPLIT_PATHS or _cpus() < 2:
        _fill_paths(seed, path_lo, out)
        return out
    # imported here: concurrent.futures loads logging, which a process that
    # never splits a chunk, such as a PDE solve or a decomposition, need not
    from concurrent.futures import ThreadPoolExecutor

    half = n // 2
    with ThreadPoolExecutor(max_workers=1) as pool:
        upper = pool.submit(_fill_paths, seed, path_lo + half, out[half:])
        _fill_paths(seed, path_lo, out[:half])
        upper.result()
    return out


@dataclass
class ScenarioBatch:
    """Full path histories for one control scenario.

    Arrays are indexed (path, step, ...): ``noise`` the standard-normal
    increments driving each step, ``B`` the accumulated noise path,
    ``X`` the state, ``Q`` the covariance scenario applied on each step
    (one entry per step, not per node).  ``times`` has length
    n_steps + 1 and starts at 0.  The quadratic covariation ``QV`` is
    not stored: each read sums Q dt afresh.
    """

    times: np.ndarray
    noise: np.ndarray
    B: np.ndarray
    X: np.ndarray
    Q: np.ndarray
    control_label: str
    seed: int
    path_offset: int = 0

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    @property
    def n_steps(self) -> int:
        return self.X.shape[1] - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def QV(self) -> np.ndarray:
        """Quadratic covariation per node: the running sum of Q dt from 0."""
        qv = np.zeros(self.X.shape[:2] + self.Q.shape[2:])
        qv[:, 1:] = self.Q * self.dt
        return np.cumsum(qv, axis=1, out=qv)

    def path_slice(self, lo: int, hi: int) -> "ScenarioBatch":
        """View onto a contiguous range of paths (no copies)."""
        return ScenarioBatch(
            times=self.times, noise=self.noise[lo:hi], B=self.B[lo:hi],
            X=self.X[lo:hi], Q=self.Q[lo:hi],
            control_label=self.control_label, seed=self.seed,
            path_offset=self.path_offset + lo,
        )


def _resolve_steps(T: float, dt: float) -> int:
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf and T / dt < math.inf):
        raise ShapeError(f"need finite T > 0 and dt > 0 with finite T / dt, got T={T}, dt={dt}")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ShapeError(f"dt={dt} must divide the horizon T={T}")
    return n_steps


def _start_point(model: ModelSpec, x0) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.m,):
        raise ShapeError(f"x0 must have {model.m} coordinates")
    if not np.isfinite(x0).all():
        raise ShapeError(f"x0 must be finite, got {x0.tolist()}")
    return x0


def _check_sizes(n_paths, chunk_size) -> None:
    """A run needs n_paths >= 1 and a chunk_size of None (automatic) or >= 1."""
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ShapeError(f"need an integer n_paths >= 1, got {n_paths!r}")
    if chunk_size is not None and not (isinstance(chunk_size, (int, np.integer))
                                       and chunk_size >= 1):
        raise ShapeError(f"chunk_size must be None or an integer >= 1, got {chunk_size!r}")


def _chunks(seed: int, path_offset: int, n_paths: int, n_steps: int, d: int,
            chunk_size: int | None, out: np.ndarray | None = None):
    """Yield (lo, hi, draws) for each block of paths, draws shaped (paths, steps, d).

    With ``out`` (n_paths, steps, d) given, each block is drawn into
    ``out[lo:hi]``.  Without it, every block is drawn into the leading rows of
    one buffer of ``min(chunk_size, n_paths)`` paths, so the next block
    overwrites the draws of the last: a caller that keeps a block's draws
    past its turn of the loop copies them."""
    if chunk_size is None:
        chunk_size = max(1, min(n_paths, int(2.5e7 / max(1, n_steps * d))))
    reused = None if out is not None else np.empty((min(chunk_size, n_paths), n_steps, d))
    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        rows = out[lo:hi] if reused is None else reused[:hi - lo]
        yield lo, hi, _chunk_draws(seed, path_offset + lo, path_offset + hi, n_steps, d,
                                   out=rows)


def _row_blocks(n: int, count: int) -> list[slice]:
    """The rows of each of ``count`` blocks of ``n`` rows, stacked in order."""
    return [slice(g * n, (g + 1) * n) for g in range(count)]


def _swap_tiled(path_major: np.ndarray, step_major: np.ndarray, to_steps: bool) -> None:
    """Copy between a (paths, steps, ...) and a (steps, paths, ...) view of the
    same entries, ``_TILE_PATHS`` paths at a time: into ``step_major`` when
    ``to_steps``, else into ``path_major``.  A tile of both stays in cache,
    where one whole transposed copy would stride through memory."""
    for p0 in range(0, path_major.shape[0], _TILE_PATHS):
        tile = slice(p0, p0 + _TILE_PATHS)
        if to_steps:
            step_major[:, tile] = path_major[tile].swapaxes(0, 1)
        else:
            path_major[tile] = step_major[:, tile].swapaxes(0, 1)


def _euler_steps(model: ModelSpec, controls: Sequence[VolControl], x0: np.ndarray,
                 dt: float, draws: np.ndarray):
    """The Euler scheme for one chunk under each of ``controls``, marched as one
    batch: yield (k, x, qs, dB, dQV, x_next, coeffs) per step.

    ``draws`` holds the n paths' standard normals, shape (paths, steps, d),
    and keeps that layout: each block of ``_BLOCK_STEPS`` steps is copied
    into one step-major (steps, paths, d) buffer, ``_TILE_PATHS`` paths at a
    time, and step k reads its noise as that buffer's contiguous rows.  Rows
    g n to (g + 1) n of the state follow control g on those draws, so
    x, dB, dQV and x_next have G n rows for G controls; ``qs`` lists each
    control's scenarios Q for its rows.  Every coefficient is evaluated at
    the left endpoint ``x``, once per step for all rows: ``coeffs`` is the
    step's ``Coefficients`` bundle, shared with the caller, and each control
    reads the view of its own rows.  Every entry is a function of its own
    row, so each control's rows equal a march of that control alone, bit for
    bit.  dB and dQV are buffers the next step overwrites; a control's dQV
    rows are formed each time it is asked for Q.  A control with a fixed
    scenario (``VolControl._fixed_scenario``) applies it on every step and
    row, so it is asked for Q and its root once per chunk, on the first
    step, and its dQV rows are formed then; every other control is asked on
    every step.  The step time is k dt.

    Each contraction goes through ``_contract``: root xi, sigma dB and
    h : dQV.  A fixed scenario's root and a constant sigma are one value over
    the rows, which it sums entry by entry at d = 2, bit for bit as
    np.einsum; every other contraction is einsum's.

    A row whose state is not finite raises ``DivergenceError`` naming its
    control: after the last step, and on any step where a coefficient or a
    control fails on such a state.  A non-finite coordinate stays non-finite,
    since each step adds its increments to the state, so the last state shows
    every path that ever diverged.
    """
    n, n_steps, d = draws.shape
    blocks = _row_blocks(n, len(controls))
    x = np.broadcast_to(x0, (len(controls) * n, model.m)).copy()
    db = np.empty((len(controls) * n, d))
    dqv = np.empty((len(controls) * n, d, d))
    sig_db = np.empty((len(controls) * n, model.m))
    staged = np.empty((min(_BLOCK_STEPS, n_steps), n, d))
    qs = [None] * len(controls)
    roots = [None] * len(controls)
    every_step = [ctl._fixed_scenario() is None for ctl in controls]
    sqdt = math.sqrt(dt)
    for k in range(n_steps):
        if k % _BLOCK_STEPS == 0:
            k1 = min(k + _BLOCK_STEPS, n_steps)
            _swap_tiled(draws[:, k:k1], staged[:k1 - k], to_steps=True)
        xi = staged[k % _BLOCK_STEPS]
        coeffs = model.evaluate(x)
        try:
            for g, (ctl, rows) in enumerate(zip(controls, blocks)):
                if k == 0 or every_step[g]:
                    qs[g], roots[g] = ctl.matrices_and_roots(k * dt, x[rows],
                                                             coeffs=coeffs.rows(rows))
                    np.multiply(qs[g], dt, out=dqv[rows])
                _contract("nij,nj->ni", roots[g], xi, db[rows])
            db *= sqdt
            x_next = x + coeffs["b"] * dt
            # an absent h adds no sum: its +0.0 would only turn a -0.0 into +0.0,
            # and the sigma dB sum starts from +0.0 as well, so no bit changes
            if model.h is not None:
                x_next += _contract("nijl,nij->nl", coeffs["h"], dqv)
            x_next += _contract("nld,nd->nl", coeffs["sigma"], db, sig_db)
        except DivergenceError as exc:  # such as a coefficient at a diverged state
            raise _divergence(controls, n, x, k * dt) or exc
        yield k, x, tuple(qs), db, dqv, x_next, coeffs
        x = x_next
    exc = _divergence(controls, n, x, n_steps * dt)
    if exc is not None:
        raise exc


def _divergence(controls: Sequence[VolControl], n: int, x: np.ndarray,
                t: float) -> DivergenceError | None:
    """``DivergenceError`` naming the control of the first row of the stacked
    states ``x`` (n rows per control) that is not finite, None if all are."""
    finite = np.isfinite(x).all(axis=1)
    if finite.all():
        return None
    label = controls[int(np.argmin(finite)) // n].label
    return DivergenceError(f"the state under control {label!r} is not finite; "
                           "the path has diverged", where=f"by t={t}")


def simulate_gsde(
    model: ModelSpec,
    control: VolControl,
    x0,
    T: float,
    dt: float,
    n_paths: int,
    seed: int = 0,
    path_offset: int = 0,
    chunk_size: int | None = None,
) -> ScenarioBatch:
    """Euler scheme under a covariance control; returns full histories.

    Path ``p`` draws from a dedicated stream keyed by (seed,
    path_offset + p), so splitting a run across calls with shifted
    offsets reproduces the single-call result bit for bit.  Each chunk's
    steps are recorded into step-major buffers of ``_BLOCK_STEPS`` steps,
    and each full block is copied into the path-major histories
    ``_TILE_PATHS`` paths at a time, instead of one strided row per step
    and array.  A path whose state is not finite at the horizon raises
    ``DivergenceError`` naming the control.
    """
    n_steps = _resolve_steps(T, dt)
    _check_sizes(n_paths, chunk_size)
    m, d = model.m, model.d
    x0 = _start_point(model, x0)
    total = n_paths * (n_steps + 1) * (m + 2 * d + 2 * d * d)
    if total > _MAX_BATCH_FLOATS:
        raise ShapeError(
            f"full-history batch would hold ~{total:.2g} floats; "
            "use the streaming estimators for runs of this size"
        )
    control.validate(model.uncertainty)

    noise = np.empty((n_paths, n_steps, d))
    B = np.zeros((n_paths, n_steps + 1, d))
    X = np.empty((n_paths, n_steps + 1, m))
    Q = np.empty((n_paths, n_steps, d, d))
    X[:, 0] = x0
    size = min(_BLOCK_STEPS, n_steps)
    for lo, hi, draws in _chunks(seed, path_offset, n_paths, n_steps, d, chunk_size,
                                 out=noise):
        # one block of steps, step-major, flushed into the histories when full
        hb, hx, hq = (np.empty((size, hi - lo) + tail) for tail in ((d,), (m,), (d, d)))
        b_prev = B[lo:hi, 0]
        for k, _, (q,), db, _, x_next, _ in _euler_steps(model, [control], x0, dt, draws):
            j = k % _BLOCK_STEPS
            b_prev = np.add(b_prev, db, out=hb[j])
            hx[j] = x_next
            hq[j] = q
            if j == size - 1 or k == n_steps - 1:
                k0 = k - j
                _swap_tiled(B[lo:hi, k0 + 1:k + 2], hb[:j + 1], to_steps=False)
                _swap_tiled(X[lo:hi, k0 + 1:k + 2], hx[:j + 1], to_steps=False)
                _swap_tiled(Q[lo:hi, k0:k + 1], hq[:j + 1], to_steps=False)

    return ScenarioBatch(
        times=dt * np.arange(n_steps + 1), noise=noise, B=B, X=X, Q=Q,
        control_label=control.label, seed=seed, path_offset=path_offset,
    )


# ---------------------------------------------------------------------------
# streaming deflator estimators


def _deflator_scan(
    model: ModelSpec,
    controls: Sequence[VolControl],
    x0: np.ndarray,
    dt: float,
    draws: np.ndarray,
    checkpoint_steps: Sequence[int],
    payoff: Callable[[np.ndarray], np.ndarray] | None,
) -> list[dict]:
    """March one chunk under each of ``controls`` as one batch, without
    history; return each control's deflated sums per checkpoint.

    ``draws`` holds the chunk's standard-normal increments, shape
    (paths, steps, d).  The deflator accrues d ln D = -r dt - k : dQV -
    v . dB at the left endpoint, both contractions through ``_contract``: a
    constant v is summed entry by entry at d = 2, bit for bit as np.einsum,
    and k : dQV is einsum's.  A loading that fails on a state that
    is not finite raises ``DivergenceError`` naming the control, as in
    ``_euler_steps``.  At each checkpoint each control's (payoff-weighted)
    deflator sum and sum of squares are taken over its own rows.
    """
    n = draws.shape[0]
    blocks = _row_blocks(n, len(controls))
    lnD = np.zeros(len(controls) * n)
    marks = set(int(s) for s in checkpoint_steps)
    out = [{} for _ in controls]
    v_db = np.empty(len(controls) * n)
    for k, x, _, db, dqv, x_next, coeffs in _euler_steps(model, controls, x0, dt, draws):
        try:
            lnD -= coeffs["r"] * dt
            # an absent k or v would subtract +0.0, which changes no value
            if model.k is not None:
                lnD -= _contract("nij,nij->n", coeffs["k"], dqv)
            if model.v is not None:
                lnD -= _contract("ni,ni->n", coeffs["v"], db, v_db)
        except DivergenceError as exc:
            raise _divergence(controls, n, x, k * dt) or exc
        if k + 1 in marks:
            for part, rows in zip(out, blocks):
                w = np.exp(lnD[rows])
                if payoff is not None:
                    # any other shape would broadcast against the deflators
                    values = payoff(x_next[rows])
                    if np.shape(values) not in ((n,), ()):
                        raise ShapeError(f"payoff returned shape {np.shape(values)} for {n} "
                                         f"terminal states; need ({n},) or ()")
                    w = w * values
                part[k + 1] = (float(np.sum(w)), float(np.sum(w * w)))
    return out


def _march_groups(controls: Sequence[VolControl]) -> list[list[int]]:
    """Indices of ``controls`` grouped by a byte-equal fixed scenario, in call
    order; a control without a fixed scenario is a group of its own."""
    groups: dict = {}
    for i, ctl in enumerate(controls):
        fixed = ctl._fixed_scenario()
        key = i if fixed is None else tuple((a.shape, a.tobytes()) for a in fixed)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _streaming_deflated_means(
    model, controls, x0, T, n_steps, n_paths, seed, checkpoint_steps, payoff,
    chunk_size=None,
) -> list[dict]:
    """Deflated means and standard errors per checkpoint, one dict per control.

    Each chunk's draws are generated once and every control marches on
    them; per-path streams make this the same as a separate run per
    control.  Controls that apply one byte-equal fixed scenario
    (``VolControl._fixed_scenario``) share one march per chunk, the first
    of them marching for all, and the marches of all groups go through the
    Euler kernel as one row-stacked batch, one block of rows per group, on
    the one copy of the draws.  A fixed-scenario control applies its
    scenario on every row, so every member of a group takes the sums of its
    first, and they equal a separate run per control, bit for bit.
    """
    _check_sizes(n_paths, chunk_size)
    x0 = _start_point(model, x0)
    for ctl in controls:
        ctl.validate(model.uncertainty)
    dt = T / n_steps
    sums = [{int(s): [0.0, 0.0] for s in checkpoint_steps} for _ in controls]
    groups = _march_groups(controls)
    for _, _, draws in _chunks(seed, 0, n_paths, n_steps, model.d, chunk_size):
        marched = _deflator_scan(model, [controls[g[0]] for g in groups], x0, dt, draws,
                                 checkpoint_steps, payoff)
        for group, part in zip(groups, marched):
            for i in group:
                for s, (a, b) in part.items():
                    sums[i][s][0] += a
                    sums[i][s][1] += b
    out = []
    for ctl_sums in sums:
        res = {}
        for s, (a, b) in ctl_sums.items():
            mean = a / n_paths
            var = max(b / n_paths - mean**2, 0.0)
            res[s] = (mean, math.sqrt(var / n_paths))
        out.append(res)
    return out


@dataclass(frozen=True)
class PriceEstimate:
    """Worst-case price estimate with the per-control table behind it."""

    estimate: float
    stderr: float
    control: str
    table: dict
    n_paths: int
    horizon: float

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "control": self.control,
            "n_paths": self.n_paths,
            "horizon": self.horizon,
            "table": {k: {"mean": v[0], "stderr": v[1]} for k, v in self.table.items()},
        }


def upper_price_mc(
    model: ModelSpec,
    payoff,
    T: float,
    controls: Sequence[VolControl] | None = None,
    dt: float = 1e-3,
    n_paths: int = 10_000,
    seed: int = 0,
    x0=None,
    chunk_size: int | None = None,
) -> PriceEstimate:
    """Upper (worst-case) price of a terminal payoff by simulation.

    Evaluates E[D_T payoff(X_T)] under each control in ``controls``
    (default: the extreme constant scenarios of the ambiguity set), all
    sharing one noise seed (common random numbers), and reports the
    largest estimate together with the full per-control table, keyed by
    label in call order.  Controls that apply the same fixed scenario,
    such as the worst-case policy certified to one extreme and that
    extreme, share one Euler march per chunk, and the distinct marches of
    a chunk step as one row-stacked batch that evaluates the model once
    per step; every entry still equals pricing its control alone, bit for
    bit.  ``payoff`` may be a coefficient expression or a callable on
    terminal states, applied to each control's rows on their own, that
    returns one value per row or one for all (else ``ShapeError``); None
    means the constant 1.  ``x0`` defaults to the origin and must be
    finite.

    Raises ``ShapeError`` when two controls share a label, and
    ``DivergenceError``, naming the control, when a path's state or a
    control's mean is not finite.
    """
    n_steps = _resolve_steps(T, dt)
    pay = None
    if payoff is not None:
        pay = payoff if callable(payoff) else as_coefficient(payoff)
    if controls is None:
        controls = extreme_controls(model.uncertainty)
    if not controls:
        raise ShapeError("need at least one control scenario to price under")
    labels = [ctl.label for ctl in controls]
    if len(set(labels)) < len(labels):
        raise ShapeError(f"control labels must be distinct, got {labels}")
    if x0 is None:
        x0 = np.zeros(model.m)

    results = _streaming_deflated_means(
        model, controls, x0, T, n_steps, n_paths, seed, [n_steps], pay, chunk_size
    )
    table = {}
    best = (-math.inf, math.nan, "")
    for ctl, res in zip(controls, results):
        mean, se = res[n_steps]
        if not math.isfinite(mean):
            raise DivergenceError(f"price mean {mean!r} under control {ctl.label!r} is not "
                                  "finite; the run has numerically degenerated",
                                  where=f"T={T}")
        table[ctl.label] = (mean, se)
        if mean > best[0]:
            best = (mean, se, ctl.label)
    return PriceEstimate(
        estimate=best[0], stderr=best[1], control=best[2],
        table=table, n_paths=n_paths, horizon=T,
    )


@dataclass(frozen=True)
class YieldEstimate:
    """Log-expectation growth of the deflator across horizons.

    ``rates[i]`` is ln E[D_{T_i}] / T_i; ``lam_fit`` and ``transient_fit``
    are the least-squares intercept/slope of rates against 1/T.
    """

    horizons: tuple
    log_means: tuple
    rates: tuple
    stderrs: tuple
    lam_fit: float
    transient_fit: float
    control: str

    def to_dict(self) -> dict:
        return {
            "horizons": list(self.horizons),
            "log_means": list(self.log_means),
            "rates": list(self.rates),
            "stderrs": list(self.stderrs),
            "lam_fit": self.lam_fit,
            "transient_fit": self.transient_fit,
            "control": self.control,
        }


def long_term_yield_mc(
    model: ModelSpec,
    horizons: Sequence[float],
    control: VolControl,
    dt: float = 1e-2,
    n_paths: int = 10_000,
    seed: int = 0,
    x0=None,
    chunk_size: int | None = None,
) -> YieldEstimate:
    """Estimate the long-run growth rate of E[D_T] under one scenario.

    Simulates once to the largest horizon, reads E[D_T] at each horizon,
    and fits rate(T) = lam + c / T by least squares.  The horizons must
    fall on at least two distinct steps of ``dt``, so that the intercept
    separates the transient from the long-run rate; else ``ShapeError``.
    A path whose state is not finite, or a mean outside the domain of the
    logarithm, raises ``DivergenceError``.
    """
    horizons = sorted(float(t) for t in horizons)
    if x0 is None:
        x0 = np.zeros(model.m)
    steps = [_resolve_steps(t, dt) for t in horizons]
    if len(set(steps)) < 2:
        # one distinct horizon leaves the fit rank one: lstsq would split the rate
        raise ShapeError(f"need at least two distinct horizons to separate the transient, "
                         f"got {horizons} on steps of dt={dt}")
    (res,) = _streaming_deflated_means(
        model, [control], x0, horizons[-1], steps[-1], n_paths, seed, steps, None, chunk_size
    )
    log_means, rates, ses = [], [], []
    for t, s in zip(horizons, steps):
        mean, se = res[s]
        if not math.isfinite(mean) or mean <= 0.0:
            raise DivergenceError(
                f"deflator mean {mean!r} at horizon {t} is outside the domain "
                "of the logarithm; the run has numerically degenerated",
                where=f"T={t}",
            )
        log_means.append(math.log(mean))
        rates.append(math.log(mean) / t)
        ses.append(se / (mean * t))  # delta method on ln(mean)/t
    a = np.stack([np.ones(len(horizons)), 1.0 / np.asarray(horizons)], axis=-1)
    coef, *_ = np.linalg.lstsq(a, np.asarray(rates), rcond=None)
    return YieldEstimate(
        horizons=tuple(horizons),
        log_means=tuple(log_means),
        rates=tuple(rates),
        stderrs=tuple(ses),
        lam_fit=float(coef[0]),
        transient_fit=float(coef[1]),
        control=control.label,
    )
