"""Long-horizon factorization of the deflator along simulated paths.

Given the eigenpair (u, lam) of the stationary worst-case valuation
equation and a batch of simulated scenarios, the deflator

    D_t = exp(-int r du - int k : dQV - int v . dB)

factors as

    D_t = exp(lam t) exp(u(X_0) - u(X_t)) M_t exp(K_t),

where M is the stochastic exponential of (Z - v) . dB with Z = sigma^T
Du, and K accrues (1/2) H : dQV - G(H) dt, a nonincreasing process that
vanishes along the worst-case scenario.  ``compute_components`` builds
every term from one batch; the verification helpers then audit the
identity, the unit-mean property of M, the monotonicity of K, and the
per-step consistency of u along the paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import CoverageError, ShapeError
from .gcore import _g_values
from .model import ModelSpec
from .pde import ErgodicSolution, _hamiltonian_batch
from .sim import ScenarioBatch

__all__ = [
    "Decomposition",
    "compute_components",
    "reconstruct_D",
    "MartingaleCheck",
    "VerificationReport",
    "verify_martingales",
    "BsdeResidualReport",
    "verify_bsde_residual",
]

_COVERAGE_LIMIT = 0.2  # tolerated excursion beyond the grid, per unit box width
# paths per block of the decomposition and its audits: as many as fit this many
# path-steps.  From 16k to 64k path-steps a 2000 x 500 batch takes the same
# time, from 128k it is slower; the working memory grows with the block.
_BLOCK_PATH_STEPS = 32_768


@dataclass
class Decomposition:
    """Pathwise factorization terms, arrays indexed (path, step).

    ``ln_D_direct`` integrates the deflator definition;
    ``ln_D_reconstructed`` assembles lam t + u(X_0) - u(X_t) + ln M_t
    + K_t.  Their gap is the discrete factorization error.  The
    reconstruction is not stored: each read assembles it afresh.
    """

    times: np.ndarray
    X: np.ndarray
    u: np.ndarray
    Z: np.ndarray
    ln_M: np.ndarray
    K: np.ndarray
    ln_D_direct: np.ndarray
    lam: float
    control_label: str

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    @property
    def ln_D_reconstructed(self) -> np.ndarray:
        return self.lam * self.times[None, :] + self.u[:, :1] - self.u + self.ln_M + self.K

    @property
    def gap(self) -> np.ndarray:
        return self.ln_D_reconstructed - self.ln_D_direct

    @property
    def max_abs_gap(self) -> float:
        return float(np.max(np.abs(self.gap)))

    def path_slice(self, lo: int, hi: int) -> "Decomposition":
        """View onto a contiguous range of paths (no copies)."""
        return Decomposition(
            times=self.times, X=self.X[lo:hi], u=self.u[lo:hi],
            Z=self.Z[lo:hi], ln_M=self.ln_M[lo:hi], K=self.K[lo:hi],
            ln_D_direct=self.ln_D_direct[lo:hi],
            lam=self.lam, control_label=self.control_label,
        )


def _resolve_lam(solution, lam: float | None) -> float:
    if lam is None and not isinstance(solution, ErgodicSolution):
        raise ShapeError("lam is required unless an ergodic solution is given")
    return float(solution.lam if lam is None else lam)


def _empty(batch: ScenarioBatch, d: int, lam: float) -> Decomposition:
    """Outputs for every path of ``batch``, the running sums started at 0."""
    shape = batch.X.shape[:2]
    return Decomposition(
        times=batch.times, X=batch.X, u=np.empty(shape), Z=np.empty(shape + (d,)),
        ln_M=np.zeros(shape), K=np.zeros(shape), ln_D_direct=np.zeros(shape),
        lam=lam, control_label=batch.control_label,
    )


def _fill(dec: Decomposition, batch: ScenarioBatch, solution, model: ModelSpec) -> None:
    """Write every factor of the paths of ``batch`` into the same paths of ``dec``.

    u and its derivatives come from one cell lookup per node, component-major.
    Z and the quadratic form a^T dQV a of ln M are formed one entry at a time,
    the einsum formulas' products summed from zero in their order.
    """
    p, n_nodes, m = batch.X.shape
    n_steps = n_nodes - 1
    d = model.d
    dt = batch.dt
    x = batch.X
    flat = x.reshape(-1, m)
    u, grad, hess = solution._fields_at(flat)
    dec.u[...] = u.reshape(p, n_nodes)
    sig = model.evaluate(flat)["sigma"]
    for j in range(d):  # Z = sigma^T Du
        z = np.zeros(flat.shape[0])
        for ax in range(m):
            z += sig[:, ax, j] * grad[ax]
        dec.Z[..., j] = z.reshape(p, n_nodes)

    # left-endpoint quantities driving the increments, the fields with contiguous rows
    flat_l = x[:, :-1].reshape(-1, m)
    coeffs_l = model.evaluate(flat_l)
    grad_l = np.ascontiguousarray(grad.reshape(m, p, n_nodes)[..., :-1]).reshape(m, -1)
    hess_l = np.ascontiguousarray(hess.reshape(m, m, p, n_nodes)[..., :-1]).reshape(m, m, -1)
    h_l = _hamiltonian_batch(model, flat_l, grad_l.T, hess_l.transpose(2, 0, 1),
                             precomputed=coeffs_l)
    gvals = _g_values(h_l, model.uncertainty)[0]  # the maximizers are not read
    gvals = gvals.reshape(p, n_steps)
    h_l = h_l.reshape(p, n_steps, d, d)

    v_l = coeffs_l["v"].reshape(p, n_steps, d)
    r_l = coeffs_l["r"].reshape(p, n_steps)
    k_l = coeffs_l["k"].reshape(p, n_steps, d, d)
    q = batch.Q
    db = np.diff(batch.B, axis=1)
    dqv = q * dt  # same product the simulator accrued, step by step

    a = dec.Z[:, :-1] - v_l
    quad = np.zeros((p, n_steps))  # np.einsum("nki,nkij,nkj->nk", a, dqv, a)
    for i in range(d):
        for j in range(d):
            quad += (a[..., i] * dqv[..., i, j]) * a[..., j]
    d_ln_m = -0.5 * quad + np.einsum("nki,nki->nk", a, db)
    # the half-spread rate is taken from the same maximizer as gvals, so the
    # worst-case scenario cancels before the dt multiplication
    d_k = (0.5 * np.einsum("nkij,nkij->nk", h_l, q) - gvals) * dt
    d_ln_d = (
        -r_l * dt
        - np.einsum("nkij,nkij->nk", k_l, dqv)
        - np.einsum("nki,nki->nk", v_l, db)
    )
    np.cumsum(d_ln_m, axis=1, out=dec.ln_M[:, 1:])
    np.cumsum(d_k, axis=1, out=dec.K[:, 1:])
    np.cumsum(d_ln_d, axis=1, out=dec.ln_D_direct[:, 1:])


def _path_blocks(batch: ScenarioBatch, solution, model: ModelSpec, lam: float,
                 out: Decomposition | None = None):
    """Decompose ``batch`` in blocks of whole paths and yield each block.

    A block is a :class:`Decomposition` of about ``_BLOCK_PATH_STEPS``
    path-steps: the rows of ``out`` when it is given, else arrays of its own
    that the consumer may drop.  The coverage of the whole batch is checked
    before the first block.  Every operation acts per path and every sum runs
    along steps, so no figure depends on the blocks.
    """
    n, n_nodes, m = batch.X.shape
    size = max(1, _BLOCK_PATH_STEPS // n_nodes)
    blocks = [(lo, min(lo + size, n)) for lo in range(0, n, size)]

    worst, beyond = 0.0, 0
    for lo, hi in blocks:
        excess = solution.coverage_excess(batch.X[lo:hi].reshape(-1, m))
        worst = np.maximum(worst, np.max(excess))  # a NaN wins, as in one max
        beyond += int(np.count_nonzero(~(excess <= _COVERAGE_LIMIT)))
    worst = float(worst)
    if not worst <= _COVERAGE_LIMIT:
        raise CoverageError(
            f"paths leave the solution grid by up to {worst:.2f} box widths "
            f"({beyond / (n * n_nodes):.1%} of samples); enlarge the grid or shorten the horizon"
        )

    for lo, hi in blocks:
        part = batch.path_slice(lo, hi)
        dec = out.path_slice(lo, hi) if out is not None else _empty(part, model.d, lam)
        _fill(dec, part, solution, model)  # its temporaries die before the yield
        yield dec


def compute_components(
    batch: ScenarioBatch,
    solution,
    model: ModelSpec,
    lam: float | None = None,
) -> Decomposition:
    """Evaluate every factor of the decomposition along a scenario batch.

    ``solution`` is an :class:`ErgodicSolution` or a stationary
    :class:`PdeSolution`; ``lam`` defaults to the eigenvalue of the former.
    Paths straying more than 20% of the box width outside the solution
    grid, or holding a NaN state, abort with :class:`CoverageError`.

    The batch is taken in blocks of about ``_BLOCK_PATH_STEPS`` path-steps,
    each writing its rows of the outputs, so the working memory beyond the
    outputs does not grow with the batch.
    """
    lam = _resolve_lam(solution, lam)
    dec = _empty(batch, model.d, lam)
    for _ in _path_blocks(batch, solution, model, lam, out=dec):
        pass
    return dec


def reconstruct_D(decomp: Decomposition):
    """Exponentiate the reconstructed components and report the gap.

    Returns (D array, stats dict).  The gap statistics are on the log
    scale, where the factorization is exact in the continuum.
    """
    recon = decomp.ln_D_reconstructed  # derived on each read, so read once
    d_recon = np.exp(recon)
    gap = recon - decomp.ln_D_direct
    stats = {
        "max_abs_log_gap": float(np.max(np.abs(gap))),
        "rms_log_gap": float(np.sqrt(np.mean(gap**2))),
        "final_mean_log_gap": float(np.mean(gap[:, -1])),
        "n_paths": int(decomp.n_paths),
        "control": decomp.control_label,
    }
    return d_recon, stats


# ---------------------------------------------------------------------------
# martingale verification


def _plain(report) -> dict:
    """A report's fields in declaration order, tuples as lists, ready for JSON."""
    return {f.name: list(v) if isinstance(v := getattr(report, f.name), tuple) else v
            for f in fields(report)}


@dataclass(frozen=True)
class MartingaleCheck:
    """Per-control audit of the factor processes.

    ``m_*`` statistics concern the exponential factor M alone, ``mk_*``
    the product M e^K, whose mean is 1 only along the worst-case
    scenario (elsewhere K drifts down and drags the product below 1).
    ``identity_max_abs`` and the ``bsde_*`` norms audit the pathwise
    factorization gap and its per-step increments under this control.
    """

    control: str
    n_paths: int
    checkpoint_times: tuple
    m_means: tuple
    m_stderrs: tuple
    m_deviations_se: tuple
    mk_means: tuple
    mk_stderrs: tuple
    mk_deviations_se: tuple
    k_increment_violations: int
    k_max_increment: float
    k_max_abs: float
    k_final_max_abs: float
    identity_max_abs: float
    bsde_max_step: float
    bsde_rms_step: float

    @property
    def m_ok(self) -> bool:
        return all(abs(d) <= 4.0 for d in self.m_deviations_se)

    @property
    def k_ok(self) -> bool:
        return self.k_increment_violations == 0

    def to_dict(self) -> dict:
        return {**_plain(self), "m_ok": self.m_ok, "k_ok": self.k_ok}


@dataclass(frozen=True)
class VerificationReport:
    """Audit of the factorization across control scenarios.

    Aggregates, per control, the unit-mean checks on M, the
    monotonicity of K, the pathwise identity error, and the per-step
    consistency norms; the reference decomposition (expected to come
    from the worst-case feedback policy) additionally contributes the
    M e^K attainment deviation and the K-flatness magnitude.  When the
    ambiguity set is a single point the factorization collapses to the
    classical one and ``classical_k_max`` records the observed |K|.
    """

    checks: tuple
    worst_case_control: str
    worst_case_k_flatness: float
    worst_case_mek_max_dev_se: float
    identity_max: float
    bsde_max_step: float
    bsde_rms_step: float
    degenerate_set: bool
    classical_k_max: float

    @property
    def passed(self) -> bool:
        ok = all(c.m_ok and c.k_ok for c in self.checks)
        ok = ok and abs(self.worst_case_mek_max_dev_se) <= 4.0
        if self.degenerate_set:
            ok = ok and self.classical_k_max <= 1e-8
        return ok

    def to_dict(self) -> dict:
        return {**_plain(self), "checks": [c.to_dict() for c in self.checks],
                "passed": self.passed}


def _mean_se_dev(values: np.ndarray, n: int):
    """Means, standard errors and deviations from 1 in standard errors of the
    columns of ``values``, each column summed as one contiguous array."""
    rows = values.T.copy()
    means = np.sum(rows, axis=1) / n
    sumsq = np.sum(rows**2, axis=1)
    variances = np.maximum(sumsq / n - means**2, 0.0)
    ses = np.sqrt(variances / n)
    # a zero stderr means no spread to measure; a NaN one deviates by NaN
    devs = tuple(0.0 if se == 0.0 else float((mu - 1.0) / se) for mu, se in zip(means, ses))
    return tuple(float(v) for v in means), tuple(float(v) for v in ses), devs


def _dec_blocks(dec: Decomposition):
    """A decomposition already computed, as views of the blocks that made it."""
    size = max(1, _BLOCK_PATH_STEPS // dec.times.size)
    for lo in range(0, dec.n_paths, size):
        yield dec.path_slice(lo, min(lo + size, dec.n_paths))


def _path_stats(blocks, marks: Sequence[int] | None = None, k_tol: float = math.inf,
                residual: bool = False) -> dict:
    """The audit figures of each path, over blocks of whole paths, in path order.

    The norms of the per-step residual rho = diff(gap) are formed for every
    audit.  The martingale figures are formed only when ``marks`` are given:
    ``m`` and ``mk`` hold M and M e^K at the marks, one column per mark, next
    to the K statistics and the identity gap.  The cumulative sums of rho are
    formed only for a ``residual`` report.  Blocks hold whole paths, so each
    figure is final when its block is seen and nothing carries over; the
    caller reduces over paths once.
    """
    parts = []
    for dec in blocks:
        gap = dec.gap
        rho = np.diff(gap, axis=1)
        part = {"step_max": np.max(np.abs(rho), axis=1), "step_sumsq": np.sum(rho**2, axis=1)}
        if marks is not None:
            dk = np.diff(dec.K, axis=1)
            ln_m = dec.ln_M[:, marks]
            part.update({
                "m": np.exp(ln_m), "mk": np.exp(ln_m + dec.K[:, marks]),
                "k_viol": np.count_nonzero(~(dk <= k_tol), axis=1),  # a NaN step violates
                "k_max_inc": np.max(dk, axis=1),
                "k_max_abs": np.max(np.abs(dec.K), axis=1),
                "k_final": np.abs(dec.K[:, -1]),
                "identity": np.max(np.abs(gap), axis=1),
            })
        if residual:
            cum = np.cumsum(rho, axis=1)
            part["cum_max"] = np.max(np.abs(cum), axis=1)
            part["cum_final"] = cum[:, -1].copy()  # not a view that keeps the block alive
        parts.append(part)
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def _rms_step(stats: dict, n_steps: int) -> float:
    return math.sqrt(float(np.sum(stats["step_sumsq"])) / (stats["step_sumsq"].size * n_steps))


def _martingale_check(stats: dict, label: str, marks: list[int], dt: float) -> MartingaleCheck:
    n = stats["identity"].size
    m_means, m_ses, m_devs = _mean_se_dev(stats["m"], n)
    mk_means, mk_ses, mk_devs = _mean_se_dev(stats["mk"], n)
    return MartingaleCheck(
        control=label or "control",
        n_paths=n,
        checkpoint_times=tuple(float(s * dt) for s in marks),
        m_means=m_means, m_stderrs=m_ses, m_deviations_se=m_devs,
        mk_means=mk_means, mk_stderrs=mk_ses, mk_deviations_se=mk_devs,
        k_increment_violations=int(np.sum(stats["k_viol"])),
        k_max_increment=float(np.max(stats["k_max_inc"])),
        k_max_abs=float(np.max(stats["k_max_abs"])),
        k_final_max_abs=float(np.max(stats["k_final"])),
        identity_max_abs=float(np.max(stats["identity"])),
        bsde_max_step=float(np.max(stats["step_max"])),
        bsde_rms_step=_rms_step(stats, marks[-1]),  # the last mark is the last step
    )


def verify_martingales(
    dec: Decomposition,
    batches: Sequence[ScenarioBatch] = (),
    solution=None,
    model: ModelSpec | None = None,
) -> VerificationReport:
    """Audit the factor processes across control scenarios.

    ``dec`` is the reference decomposition, expected to come from the
    worst-case feedback policy; it contributes the M e^K attainment and
    K-flatness statistics.  Each extra :class:`ScenarioBatch` in
    ``batches`` is decomposed (``solution`` and ``model`` are required for
    that) and audited under its own control label: sample mean of M at the
    quarter points of the horizon, K monotonicity within a per-step
    tolerance of 5 dt, pathwise identity error, and per-step
    consistency norms.  Each batch is decomposed and reduced one block of
    whole paths at a time, so none is held decomposed.
    """
    batches = list(batches)
    plan = _audit_plan(dec, batches, solution, model)
    ref = _path_stats(_dec_blocks(dec), plan[0], k_tol=plan[2])
    return _verification(dec, ref, batches, solution, model, plan)


def _audit_plan(dec: Decomposition, batches: list, solution,
                model) -> tuple[list[int], float, float]:
    """Check that every batch can be audited against ``dec``; the audit's
    checkpoint steps (the quarter points of the horizon), dt and per-step K
    tolerance 5 dt."""
    if batches and (solution is None or model is None):
        raise ShapeError("decomposing extra batches needs solution and model")
    n_steps = dec.times.size - 1
    dt = float(dec.times[1] - dec.times[0])
    for b in batches:
        if b.times.size - 1 != n_steps or abs(b.dt - dt) > 1e-12 * max(1.0, dt):
            raise ShapeError("all batches must share the reference time grid")
    marks = sorted(set(
        s for s in (n_steps // 4, n_steps // 2, (3 * n_steps) // 4, n_steps) if s > 0
    ))
    return marks, dt, 5.0 * dt


def _verification(dec: Decomposition, ref_stats: dict, batches: list, solution, model,
                  plan: tuple) -> VerificationReport:
    """The report of ``verify_martingales``, the reference's path figures given."""
    marks, dt, k_tol = plan
    checks = [_martingale_check(ref_stats, dec.control_label, marks, dt)] + [
        _martingale_check(_path_stats(_path_blocks(b, solution, model, dec.lam), marks,
                                      k_tol=k_tol), b.control_label, marks, dt)
        for b in batches]

    ref = checks[0]
    degenerate = bool(model.uncertainty.degenerate) if model is not None else False
    classical_k_max = np.max([c.k_max_abs for c in checks]) if degenerate else 0.0
    return VerificationReport(
        checks=tuple(checks),
        worst_case_control=ref.control,
        worst_case_k_flatness=ref.k_final_max_abs,
        # numpy maxima, so that a NaN is carried to the report
        worst_case_mek_max_dev_se=float(np.max(np.abs(ref.mk_deviations_se))),
        identity_max=float(np.max([c.identity_max_abs for c in checks])),
        bsde_max_step=float(np.max([c.bsde_max_step for c in checks])),
        bsde_rms_step=float(np.max([c.bsde_rms_step for c in checks])),
        degenerate_set=degenerate,
        classical_k_max=float(classical_k_max),
    )


def _audit_decomposition(dec: Decomposition, n_audit: int, batches: Sequence[ScenarioBatch],
                         solution, model: ModelSpec):
    """``verify_martingales`` of the first ``n_audit`` paths of ``dec`` against
    ``batches``, and ``verify_bsde_residual`` of all of ``dec``, from one
    reduction of ``dec``: its path figures do not depend on the other paths."""
    batches = list(batches)
    plan = _audit_plan(dec, batches, solution, model)
    stats = _path_stats(_dec_blocks(dec), plan[0], k_tol=plan[2], residual=True)
    head = {name: values[:n_audit] for name, values in stats.items()}
    return (_verification(dec, head, batches, solution, model, plan),
            _residual(stats, dec.times))


# ---------------------------------------------------------------------------
# pathwise consistency of u


@dataclass(frozen=True)
class BsdeResidualReport:
    """Per-step consistency of u along simulated paths.

    The residual of step k is

        rho_k = du - (lam + r - G(H)) dt
                   - (k - (Z-v)(Z-v)^T/2 + H/2) : dQV - Z . dB,

    which vanishes as dt -> 0 for the exact eigenfunction.  The
    cumulative residual matches the factorization gap path by path (up
    to sign), so both audits agree by construction.  ``window`` is the
    audited horizon (t0, T), the batch's whole time grid.
    """

    max_abs_step: float
    rms_step: float
    max_abs_cumulative: float
    mean_final_cumulative: float
    n_paths: int
    n_steps: int
    window: tuple

    def to_dict(self) -> dict:
        return _plain(self)


def verify_bsde_residual(
    batch: ScenarioBatch,
    solution,
    model: ModelSpec,
    lam: float | None = None,
) -> BsdeResidualReport:
    """Check the per-step dynamics of u(X) against the stationary equation.

    The audit covers every step of the batch, which is decomposed and
    reduced one block of whole paths at a time, as in
    :func:`compute_components` (whose errors it shares).
    """
    lam = _resolve_lam(solution, lam)
    stats = _path_stats(_path_blocks(batch, solution, model, lam), residual=True)
    return _residual(stats, batch.times)


def _residual(stats: dict, times: np.ndarray) -> BsdeResidualReport:
    """The per-step residual report from the path figures of ``_path_stats``
    over the time grid ``times``."""
    n_steps = times.size - 1
    return BsdeResidualReport(
        max_abs_step=float(np.max(stats["step_max"])),
        rms_step=_rms_step(stats, n_steps),
        max_abs_cumulative=float(np.max(stats["cum_max"])),
        mean_final_cumulative=float(np.mean(stats["cum_final"])),
        n_paths=int(stats["cum_final"].size),
        n_steps=n_steps,
        window=(float(times[0]), float(times[-1])),
    )
