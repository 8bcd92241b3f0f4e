"""Covariance ambiguity sets and the worst-case generator G.

Volatility uncertainty is encoded by a set Sigma of symmetric positive
definite d x d matrices: the admissible instantaneous covariances of the
driving noise.  The associated generator is the support function

    G(A) = (1/2) * sup_{Q in Sigma} trace(A Q),

a sublinear, monotone, positively homogeneous map on symmetric matrices.
Two set shapes are supported:

* ``UncertaintySet.interval(lo, hi)`` -- scalar band [lo, hi], d = 1,
  with the closed form G(a) = (hi * a^+ - lo * a^-) / 2;
* ``UncertaintySet.finite(mats)`` -- an explicit finite family for d >= 1,
  where the supremum is an exact maximum over members.

Both store their ellipticity constants as ``lo`` and ``hi``: the tightest
scalars with  lo/2 * tr(A - B) <= G(A) - G(B) <= hi/2 * tr(A - B)
for A >= B in the semidefinite order (for a finite family, the extreme
eigenvalues across members).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSetError, ShapeError

__all__ = ["UncertaintySet", "GEvaluation", "g_value"]

_SYM_TOL = 1e-12


def _as_symmetric(a, dim: int | None = None) -> np.ndarray:
    """Coerce scalar / array input to a symmetric (d, d) float matrix."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ShapeError(f"matrix is {arr.shape[0]}x{arr.shape[0]}, set dimension is {dim}")
    scale = max(1.0, float(np.max(np.abs(arr))))
    if np.max(np.abs(arr - arr.T)) > _SYM_TOL * scale:
        raise ShapeError("matrix argument must be symmetric to 1e-12 relative tolerance")
    return 0.5 * (arr + arr.T)


@dataclass(frozen=True)
class GEvaluation:
    """Value of G at a matrix together with an attaining covariance.

    ``maximizer`` is a (d, d) matrix from the ambiguity set with
    value == trace(A @ maximizer) / 2.  Ties are broken toward the
    largest-trace maximizer (the upper bound in the scalar case).
    """

    value: float
    maximizer: np.ndarray


@dataclass(frozen=True)
class UncertaintySet:
    """Immutable covariance ambiguity set (scalar band or finite family)."""

    dim: int
    kind: str  # "interval" | "finite"
    lo: float = 0.0
    hi: float = 0.0
    members: tuple = field(default=())

    # -- constructors ---------------------------------------------------

    @classmethod
    def interval(cls, lo: float, hi: float) -> "UncertaintySet":
        lo = float(lo)
        hi = float(hi)
        if not np.isfinite(lo) or not np.isfinite(hi):
            raise InvalidSetError("interval endpoints must be finite")
        if lo <= 0.0:
            raise InvalidSetError(f"lower variance bound must be positive, got {lo}")
        if hi < lo:
            raise InvalidSetError(f"upper bound {hi} below lower bound {lo}")
        return cls(dim=1, kind="interval", lo=lo, hi=hi)

    @classmethod
    def finite(cls, mats) -> "UncertaintySet":
        members = []
        for idx, m in enumerate(mats):
            if not np.isfinite(np.asarray(m, dtype=float)).all():
                raise InvalidSetError(f"member {idx} has a non-finite entry")
            q = _as_symmetric(m)
            w = np.linalg.eigvalsh(q)
            if w[0] <= 0.0:
                raise InvalidSetError(
                    f"member {idx} has eigenvalue {w[0]:.3e} <= 0; "
                    "all covariances must be symmetric positive definite"
                )
            q.flags.writeable = False
            members.append(q)
        if not members:
            raise InvalidSetError("finite ambiguity set needs at least one member")
        d = members[0].shape[0]
        if any(q.shape[0] != d for q in members):
            raise InvalidSetError("all members must share one dimension")
        # Largest-trace-first ordering makes argmax tie-breaking deterministic.
        members.sort(key=lambda q: -float(np.trace(q)))
        lo = min(float(np.linalg.eigvalsh(q)[0]) for q in members)
        hi = max(float(np.linalg.eigvalsh(q)[-1]) for q in members)
        return cls(dim=d, kind="finite", lo=lo, hi=hi, members=tuple(members))

    # -- queries ---------------------------------------------------------

    @property
    def degenerate(self) -> bool:
        """True when the set is a single covariance (no uncertainty)."""
        if self.kind == "interval":
            return self.lo == self.hi
        return len(self.members) == 1

    def candidates(self) -> list[np.ndarray]:
        """Covariances at which any linear functional attains its maximum.

        For the scalar band that is the pair of endpoints; for a finite
        family it is every member (largest trace first).
        """
        if self.kind == "interval":
            return [np.array([[self.hi]]), np.array([[self.lo]])]
        return list(self.members)

    def contains(self, q, tol: float = 1e-9) -> bool:
        q = _as_symmetric(q, self.dim)
        if self.kind == "interval":
            val = float(q[0, 0])
            return self.lo - tol <= val <= self.hi + tol
        return any(np.max(np.abs(q - m)) <= tol for m in self.members)


def g_value(a, sigma_set: UncertaintySet) -> GEvaluation:
    """Evaluate G(A) = sup_Q trace(A Q)/2 with an attaining maximizer.

    ``a`` may be a scalar (d = 1) or a symmetric (d, d) array.  Ties are
    broken toward the largest-trace maximizer, so on a scalar band the
    value 0 reports the upper endpoint.
    """
    a_mat = _as_symmetric(a, sigma_set.dim)
    if sigma_set.kind == "interval":
        aval = float(a_mat[0, 0])
        value = 0.5 * (sigma_set.hi * max(aval, 0.0) - sigma_set.lo * max(-aval, 0.0))
        q = sigma_set.hi if aval >= 0.0 else sigma_set.lo
        return GEvaluation(value=value, maximizer=np.array([[q]]))
    values = [0.5 * float(np.tensordot(a_mat, q)) for q in sigma_set.members]
    best = int(np.argmax(values))  # first max = largest trace (members pre-sorted)
    return GEvaluation(value=values[best], maximizer=sigma_set.members[best].copy())


def g_value_batch(mats: np.ndarray, sigma_set: UncertaintySet):
    """Vectorized G over a batch of symmetric matrices.

    Args:
        mats: array of shape (..., d, d); symmetry is the caller's duty.

    Returns:
        (values, maximizers) with shapes (...,) and (..., d, d).  Values
        are computed as trace(A Q*)/2 from the selected maximizer so that
        downstream cancellation checks hold bitwise.

    Not exported from the package: its callers read only the values, which
    ``_g_values`` gives without gathering the maximizers.
    """
    values, pick = _g_values(mats, sigma_set)
    maximizers = np.stack(sigma_set.candidates(), axis=0)[pick]
    return values, maximizers


def _g_values(mats, sigma_set: UncertaintySet):
    """The values of ``g_value_batch`` and the index of each maximizer, which
    is not gathered.

    Two candidates, as on a scalar band, are picked by ``_first_of_two`` and
    selected by ``np.where`` from their two score vectors, with no stack and
    no gather: the selected entries are the same scores, so the values are
    the same bits.
    """
    scores = _scores(mats, sigma_set)
    if len(scores) == 2:
        pick = _first_of_two(*scores)
        return 0.5 * np.where(pick, scores[1], scores[0]), pick
    stacked = np.stack(scores, axis=-1)
    pick = np.argmax(stacked, axis=-1)  # the first max wins: the largest trace
    return 0.5 * np.take_along_axis(stacked, pick[..., None], axis=-1)[..., 0], pick


def _scores(mats, sigma_set: UncertaintySet) -> list:
    """trace(A Q) for every candidate Q, in candidate order."""
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-2:] != (sigma_set.dim, sigma_set.dim):
        raise ShapeError(
            f"batch has trailing shape {mats.shape[-2:]}, need ({sigma_set.dim}, {sigma_set.dim})"
        )
    return [np.einsum("...ij,ij->...", mats, q) for q in sigma_set.candidates()]


def _first_of_two(s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """``np.argmax`` of the two columns s0 and s1, by a comparison several times
    faster: the first max wins, and a NaN counts as the max."""
    return (~(s1 <= s0) & (s0 == s0)).astype(np.intp)


def _best_candidate(mats: np.ndarray, sigma_set: UncertaintySet) -> np.ndarray:
    """The index of the maximizing candidate of ``_g_values`` for a batch of
    (d, d) matrices.

    On a scalar band the two scores are the products a * hi and a * lo,
    compared directly; they equal the trace products but for the sign of a
    zero, which no comparison sees.
    """
    if sigma_set.kind == "interval":
        a = mats[..., 0, 0]
        return _first_of_two(a * sigma_set.hi, a * sigma_set.lo)
    return _g_values(mats, sigma_set)[1]
