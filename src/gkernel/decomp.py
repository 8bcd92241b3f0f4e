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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CoverageError, ShapeError
from .gcore import g_value_batch
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
# paths per block of compute_components: as many as fit this many path-steps.
# From 16k to 64k path-steps a 2000 x 500 batch takes the same time, from
# 128k it is slower; the working memory grows with the block.
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


def compute_components(
    batch: ScenarioBatch,
    solution,
    model: ModelSpec,
    lam: float | None = None,
) -> Decomposition:
    """Evaluate every factor of the decomposition along a scenario batch.

    ``solution`` must expose ``value_at``, ``derivatives_at`` and
    ``coverage_excess`` (an :class:`ErgodicSolution` does); ``lam``
    defaults to its eigenvalue.
    Paths straying more than 20% of the box width outside the solution
    grid abort with :class:`CoverageError`.

    The batch is taken in blocks of about ``_BLOCK_PATH_STEPS`` path-steps,
    each writing its rows of the outputs, so the working memory beyond the
    outputs does not grow with the batch.  Every operation acts per path and
    every sum runs along steps, so the result does not depend on the blocks.
    """
    if lam is None:
        if not isinstance(solution, ErgodicSolution):
            raise ShapeError("lam is required unless an ergodic solution is given")
        lam = solution.lam
    n, n_nodes, m = batch.X.shape
    n_steps = n_nodes - 1
    d = model.d
    dt = batch.dt
    size = max(1, _BLOCK_PATH_STEPS // n_nodes)
    blocks = [(lo, min(lo + size, n)) for lo in range(0, n, size)]

    worst, beyond = 0.0, 0
    for lo, hi in blocks:
        excess = solution.coverage_excess(batch.X[lo:hi].reshape(-1, m))
        worst = np.maximum(worst, np.max(excess))  # a NaN wins, as in one max
        beyond += int(np.count_nonzero(excess > _COVERAGE_LIMIT))
    worst = float(worst)
    if worst > _COVERAGE_LIMIT:
        raise CoverageError(
            f"paths leave the solution grid by up to {worst:.2f} box widths "
            f"({beyond / (n * n_nodes):.1%} of samples); enlarge the grid or shorten the horizon"
        )

    u = np.empty((n, n_nodes))
    z = np.empty((n, n_nodes, d))
    ln_m, k_proc, ln_d = (np.zeros((n, n_nodes)) for _ in range(3))
    for lo, hi in blocks:
        p = hi - lo
        x = batch.X[lo:hi]
        flat = x.reshape(-1, m)
        u[lo:hi] = solution.value_at(flat).reshape(p, n_nodes)
        grad, hess = solution.derivatives_at(flat)
        grad = grad.reshape(p, n_nodes, m)
        sig = model.evaluate(flat)["sigma"].reshape(p, n_nodes, m, d)
        z[lo:hi] = np.einsum("nkld,nkl->nkd", sig, grad)

        # left-endpoint quantities driving the increments
        flat_l = x[:, :-1].reshape(-1, m)
        coeffs_l = model.evaluate(flat_l)
        hess_l = hess.reshape(p, n_nodes, m, m)[:, :-1].reshape(-1, m, m)
        h_l = _hamiltonian_batch(model, flat_l, grad[:, :-1].reshape(-1, m), hess_l,
                                 mode="pricing", precomputed=coeffs_l)
        gvals, _ = g_value_batch(h_l, model.uncertainty)
        gvals = gvals.reshape(p, n_steps)
        h_l = h_l.reshape(p, n_steps, d, d)

        v_l = coeffs_l["v"].reshape(p, n_steps, d)
        r_l = coeffs_l["r"].reshape(p, n_steps)
        k_l = coeffs_l["k"].reshape(p, n_steps, d, d)
        q = batch.Q[lo:hi]
        db = np.diff(batch.B[lo:hi], axis=1)
        dqv = q * dt  # same product the simulator accrued, step by step

        a = z[lo:hi, :-1] - v_l
        d_ln_m = (
            -0.5 * np.einsum("nki,nkij,nkj->nk", a, dqv, a)
            + np.einsum("nki,nki->nk", a, db)
        )
        # the half-spread rate is taken from the same maximizer as gvals, so the
        # worst-case scenario cancels before the dt multiplication
        d_k = (0.5 * np.einsum("nkij,nkij->nk", h_l, q) - gvals) * dt
        d_ln_d = (
            -r_l * dt
            - np.einsum("nkij,nkij->nk", k_l, dqv)
            - np.einsum("nki,nki->nk", v_l, db)
        )
        np.cumsum(d_ln_m, axis=1, out=ln_m[lo:hi, 1:])
        np.cumsum(d_k, axis=1, out=k_proc[lo:hi, 1:])
        np.cumsum(d_ln_d, axis=1, out=ln_d[lo:hi, 1:])

    return Decomposition(
        times=batch.times,
        X=batch.X,
        u=u,
        Z=z,
        ln_M=ln_m,
        K=k_proc,
        ln_D_direct=ln_d,
        lam=float(lam),
        control_label=batch.control_label,
    )


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
        return {
            "control": self.control,
            "n_paths": self.n_paths,
            "checkpoint_times": list(self.checkpoint_times),
            "m_means": list(self.m_means),
            "m_stderrs": list(self.m_stderrs),
            "m_deviations_se": list(self.m_deviations_se),
            "mk_means": list(self.mk_means),
            "mk_stderrs": list(self.mk_stderrs),
            "mk_deviations_se": list(self.mk_deviations_se),
            "k_increment_violations": self.k_increment_violations,
            "k_max_increment": self.k_max_increment,
            "k_max_abs": self.k_max_abs,
            "k_final_max_abs": self.k_final_max_abs,
            "identity_max_abs": self.identity_max_abs,
            "bsde_max_step": self.bsde_max_step,
            "bsde_rms_step": self.bsde_rms_step,
            "m_ok": self.m_ok,
            "k_ok": self.k_ok,
        }


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
        return {
            "checks": [c.to_dict() for c in self.checks],
            "worst_case_control": self.worst_case_control,
            "worst_case_k_flatness": self.worst_case_k_flatness,
            "worst_case_mek_max_dev_se": self.worst_case_mek_max_dev_se,
            "identity_max": self.identity_max,
            "bsde_max_step": self.bsde_max_step,
            "bsde_rms_step": self.bsde_rms_step,
            "degenerate_set": self.degenerate_set,
            "classical_k_max": self.classical_k_max,
            "passed": self.passed,
        }


def _mean_se_dev(sums: np.ndarray, sumsq: np.ndarray, n: int):
    means = sums / n
    variances = np.maximum(sumsq / n - means**2, 0.0)
    ses = np.sqrt(variances / n)
    devs = tuple(
        float((mu - 1.0) / se) if se > 0.0 else 0.0 for mu, se in zip(means, ses)
    )
    return tuple(float(v) for v in means), tuple(float(v) for v in ses), devs


def _audit_control(chunks, n_paths: int, marks: list[int], dt: float,
                   k_tol: float) -> MartingaleCheck:
    """Accumulate factor statistics over an iterable of decomposition chunks."""
    n_marks = len(marks)
    acc = {
        "m_sums": np.zeros(n_marks), "m_sumsq": np.zeros(n_marks),
        "mk_sums": np.zeros(n_marks), "mk_sumsq": np.zeros(n_marks),
        "k_viol": 0, "k_max_inc": -math.inf, "k_max_abs": 0.0,
        "k_final_max_abs": 0.0, "identity_max": 0.0,
        "bsde_max_step": 0.0, "bsde_sumsq_step": 0.0, "bsde_n_step": 0,
    }
    label = None
    for dec in chunks:
        label = dec.control_label
        for j, s in enumerate(marks):
            mvals = np.exp(dec.ln_M[:, s])
            mkvals = np.exp(dec.ln_M[:, s] + dec.K[:, s])
            acc["m_sums"][j] += float(np.sum(mvals))
            acc["m_sumsq"][j] += float(np.sum(mvals**2))
            acc["mk_sums"][j] += float(np.sum(mkvals))
            acc["mk_sumsq"][j] += float(np.sum(mkvals**2))
        dk = np.diff(dec.K, axis=1)
        acc["k_viol"] += int(np.sum(dk > k_tol))
        if dk.size:
            acc["k_max_inc"] = max(acc["k_max_inc"], float(np.max(dk)))
        acc["k_max_abs"] = max(acc["k_max_abs"], float(np.max(np.abs(dec.K))))
        acc["k_final_max_abs"] = max(
            acc["k_final_max_abs"], float(np.max(np.abs(dec.K[:, -1]))))
        gap = dec.gap
        acc["identity_max"] = max(acc["identity_max"], float(np.max(np.abs(gap))))
        rho = np.diff(gap, axis=1)
        if rho.size:
            acc["bsde_max_step"] = max(acc["bsde_max_step"], float(np.max(np.abs(rho))))
            acc["bsde_sumsq_step"] += float(np.sum(rho**2))
            acc["bsde_n_step"] += rho.size

    m_means, m_ses, m_devs = _mean_se_dev(acc["m_sums"], acc["m_sumsq"], n_paths)
    mk_means, mk_ses, mk_devs = _mean_se_dev(acc["mk_sums"], acc["mk_sumsq"], n_paths)
    rms = math.sqrt(acc["bsde_sumsq_step"] / acc["bsde_n_step"]) if acc["bsde_n_step"] else 0.0
    return MartingaleCheck(
        control=label or "control",
        n_paths=n_paths,
        checkpoint_times=tuple(float(s * dt) for s in marks),
        m_means=m_means, m_stderrs=m_ses, m_deviations_se=m_devs,
        mk_means=mk_means, mk_stderrs=mk_ses, mk_deviations_se=mk_devs,
        k_increment_violations=acc["k_viol"],
        k_max_increment=float(acc["k_max_inc"]),
        k_max_abs=acc["k_max_abs"],
        k_final_max_abs=acc["k_final_max_abs"],
        identity_max_abs=acc["identity_max"],
        bsde_max_step=acc["bsde_max_step"],
        bsde_rms_step=rms,
    )


def verify_martingales(
    dec: Decomposition,
    batches: Sequence[ScenarioBatch] = (),
    solution=None,
    model: ModelSpec | None = None,
    k_increment_tol: float | None = None,
    chunk_size: int = 20_000,
) -> VerificationReport:
    """Audit the factor processes across control scenarios.

    ``dec`` is the reference decomposition, expected to come from the
    worst-case feedback policy; it contributes the M e^K attainment and
    K-flatness statistics.  Each extra :class:`ScenarioBatch` in
    ``batches`` is decomposed on the fly (``solution`` and ``model`` are
    required for that) and audited under its own control label: sample
    mean of M at the quarter points of the horizon, K monotonicity
    within a per-step tolerance (default 5 dt), pathwise identity error,
    and per-step consistency norms.  Batches are processed in path
    chunks to bound memory.
    """
    batches = list(batches)
    if batches and (solution is None or model is None):
        raise ShapeError("decomposing extra batches needs solution and model")

    n_steps = dec.times.size - 1
    dt = float(dec.times[1] - dec.times[0])
    marks = sorted(set(
        s for s in (n_steps // 4, n_steps // 2, (3 * n_steps) // 4, n_steps) if s > 0
    ))
    k_tol = 5.0 * dt if k_increment_tol is None else float(k_increment_tol)

    def dec_chunks(d: Decomposition):
        for lo in range(0, d.n_paths, chunk_size):
            yield d.path_slice(lo, min(lo + chunk_size, d.n_paths))

    def batch_chunks(b: ScenarioBatch):
        for lo in range(0, b.n_paths, chunk_size):
            sub = b.path_slice(lo, min(lo + chunk_size, b.n_paths))
            yield compute_components(sub, solution, model, lam=dec.lam)

    checks = [_audit_control(dec_chunks(dec), dec.n_paths, marks, dt, k_tol)]
    for b in batches:
        if b.times.size - 1 != n_steps or abs(b.dt - dt) > 1e-12 * max(1.0, dt):
            raise ShapeError("all batches must share the reference time grid")
        checks.append(_audit_control(batch_chunks(b), b.n_paths, marks, dt, k_tol))

    ref = checks[0]
    degenerate = bool(model.uncertainty.degenerate) if model is not None else False
    classical_k_max = max(c.k_max_abs for c in checks) if degenerate else 0.0
    return VerificationReport(
        checks=tuple(checks),
        worst_case_control=ref.control,
        worst_case_k_flatness=ref.k_final_max_abs,
        worst_case_mek_max_dev_se=float(max(abs(d) for d in ref.mk_deviations_se)),
        identity_max=float(max(c.identity_max_abs for c in checks)),
        bsde_max_step=float(max(c.bsde_max_step for c in checks)),
        bsde_rms_step=float(max(c.bsde_rms_step for c in checks)),
        degenerate_set=degenerate,
        classical_k_max=float(classical_k_max),
    )


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
    to sign), so both audits agree by construction.
    """

    max_abs_step: float
    rms_step: float
    max_abs_cumulative: float
    mean_final_cumulative: float
    n_paths: int
    n_steps: int
    window: tuple

    def to_dict(self) -> dict:
        return {
            "max_abs_step": self.max_abs_step,
            "rms_step": self.rms_step,
            "max_abs_cumulative": self.max_abs_cumulative,
            "mean_final_cumulative": self.mean_final_cumulative,
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "window": list(self.window),
        }


def verify_bsde_residual(
    batch: ScenarioBatch,
    solution,
    model: ModelSpec,
    window: tuple | None = None,
    lam: float | None = None,
) -> BsdeResidualReport:
    """Check the per-step dynamics of u(X) against the stationary equation.

    ``window`` restricts the audit to steps inside [s, T]; cumulative
    sums then restart from 0 at s.  The default covers the whole batch.
    """
    return _residual_report(compute_components(batch, solution, model, lam=lam), window)


def _residual_report(dec: Decomposition, window: tuple | None = None) -> BsdeResidualReport:
    """Per-step residual norms of a decomposition already computed."""
    rho = np.diff(dec.gap, axis=1)
    t0, t1 = (float(dec.times[0]), float(dec.times[-1])) if window is None else (
        float(window[0]), float(window[1]))
    if not (dec.times[0] - 1e-12 <= t0 < t1 <= dec.times[-1] + 1e-12):
        raise ShapeError(
            f"window [{t0}, {t1}] must lie inside the batch horizon "
            f"[{float(dec.times[0])}, {float(dec.times[-1])}]"
        )
    keep = (dec.times[:-1] >= t0 - 1e-12) & (dec.times[1:] <= t1 + 1e-12)
    if not np.any(keep):
        raise ShapeError("window contains no full simulation step")
    rho = rho[:, keep]
    cum = np.cumsum(rho, axis=1)
    return BsdeResidualReport(
        max_abs_step=float(np.max(np.abs(rho))),
        rms_step=float(np.sqrt(np.mean(rho**2))),
        max_abs_cumulative=float(np.max(np.abs(cum))),
        mean_final_cumulative=float(np.mean(cum[:, -1])),
        n_paths=dec.n_paths,
        n_steps=int(rho.shape[1]),
        window=(t0, t1),
    )
