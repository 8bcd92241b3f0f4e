"""Model containers for robust kernel analysis, and their diagnostics.

A ``ModelSpec`` collects the coefficient functions of the state dynamics

    dX = b(X) dt + sum_ij h_ij(X) d<B^i, B^j> + sigma(X) dB,

the pricing-kernel loadings (short rate r, covariation loading k, noise
loading v), and the covariance ambiguity set of the d-dimensional driver.
All coefficients map the state x in R^m to scalars; vector and matrix
coefficients are entrywise tuples of :class:`~gkernel.coefficients.CoefficientFn`.

``check_assumptions`` estimates, over a finite sample box, the regularity
and dissipativity constants that the long-horizon theory rests on, and
reports the margin ("gap") by which the dissipativity rate dominates the
nonlinearity of the diffusion.  ``truncation_level`` converts those
constants into the paper's a-priori bound M on |sigma^T Du|, checked, not applied.
``equilibrium_model`` produces rate and risk loadings from a consumption
equilibrium.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coefficients import (IEEE_QUIET, CoefficientFn, Constant, Expression, _check_states,
                           as_coefficient)
from .errors import DivergenceError, DomainError, EvaluationError, ExpressionError, ShapeError
from .gcore import UncertaintySet, _g_values

__all__ = [
    "ModelSpec",
    "Coefficients",
    "AssumptionReport",
    "check_assumptions",
    "truncation_level",
    "LogUtility",
    "PowerUtility",
    "CustomUtility",
    "EquilibriumSpec",
    "EquilibriumPoint",
    "equilibrium_model",
]

_PAIR_CAP = 200_000


def _size(value, name: str) -> int:
    """``value`` as an int if it is a Python or numpy integer, else ShapeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ShapeError(f"{name} must be an integer, got {value!r}")
    return int(value)


@functools.cache
def _shapes(m: int, d: int) -> dict:
    """Entry-grid shape of each coefficient tensor of a model with state
    dimension m and noise dimension d; k, v and h may be absent (zero)."""
    return {"b": (m,), "sigma": (m, d), "r": (), "k": (d, d), "v": (d,), "h": (d, d, m)}


def _coeff_grid(entries, shape, where: str):
    """Coerce a nested sequence of coefficient sources to a tuple tree of ``shape``.

    Each level must be a list, tuple or array of exactly the right length,
    and each leaf a number, an expression or a ``CoefficientFn``; every
    error names the offending entry path, such as ``sigma[0][1]``.
    """
    if not shape:
        if isinstance(entries, (bool, np.bool_)):
            raise ShapeError(f"{where} must be a number or an expression, not a boolean")
        try:
            return as_coefficient(entries)
        except ExpressionError as exc:
            exc.args = (f"{where}: {exc}",)
            raise
    sequence = isinstance(entries, (list, tuple)) or (
        isinstance(entries, np.ndarray) and entries.ndim > 0)
    if not sequence or len(entries) != shape[0]:
        raise ShapeError(f"{where} must be a sequence of length {shape[0]}")
    return tuple(_coeff_grid(e, shape[1:], f"{where}[{i}]") for i, e in enumerate(entries))


def _non_finite(name: str, shape: tuple, x: np.ndarray, flat: np.ndarray) -> Exception:
    """The error for the first non-finite entry, in row-major order, of tensor
    ``name`` at its first bad row, given the tensor's values ``flat`` (n,
    entries): ``DivergenceError`` where the state of that row is not finite
    itself, else ``EvaluationError``."""
    bad = ~np.isfinite(flat)
    j = int(np.argmax(bad.any(axis=0)))
    row = x[int(np.argmax(bad[:, j]))]
    label = name + "".join(f"[{i}]" for i in np.unravel_index(j, shape))
    if not np.isfinite(row).all():
        return DivergenceError(f"{label} evaluated to a non-finite value at the non-finite "
                               f"state x = {row.tolist()}; the path has diverged")
    return EvaluationError(f"{label} evaluated to a non-finite value at x = {row.tolist()}")


def _dij(sig: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(sigma_col_i v_j + sigma_col_j v_i) / 2 from sigma (n, m, d) and v (n, d)."""
    a = np.einsum("nli,nj->nijl", sig, v)
    return 0.5 * (a + np.swapaxes(a, 1, 2))


# products of the tensors that the pricing Hamiltonian reads, by name: the tensors
# each is formed from and its formula over a mapping of them; a product whose
# tensors are all constant is formed once per model from one row
_DERIVED = {
    "h_eff": (("h", "sigma", "v"), lambda c: c["h"] - _dij(c["sigma"], c["v"])),
    "two_k": (("k",), lambda c: 2.0 * c["k"]),
    "vv": (("v",), lambda c: np.einsum("ni,nj->nij", c["v"], c["v"])),
}


def _entries(tensor):
    if isinstance(tensor, tuple):
        for item in tensor:
            yield from _entries(item)
    elif tensor is not None:
        yield tensor


class Coefficients(dict):
    """The coefficient tensors of one model at one batch of states ``x``.

    Keys are the tensor names of ``_shapes``, each read as an (n, *shape)
    array, such as ``sigma`` as (n, m, d).  A tensor is computed when it is
    first read and then kept, so each is evaluated at most once per batch:
    a constant one is a read-only broadcast of the value the model checked
    once, any other goes through its ``ModelSpec.eval_*`` method.  The
    pricing products of ``_DERIVED`` read the same way: ``h_eff`` is
    h - d_ij (n, d, d, m), ``two_k`` is 2k and ``vv`` is v v^T (n, d, d).
    Tensors are read-only by contract: a tensor of one entry is that entry's
    values reshaped, which may be a view of ``x``, so no reader writes into one.
    """

    def __init__(self, model: "ModelSpec", x: np.ndarray):
        super().__init__()
        self.model = model
        self.x = x

    def __missing__(self, name: str) -> np.ndarray:
        if name not in _shapes(self.model.m, self.model.d) and name not in _DERIVED:
            raise KeyError(name)
        out = self.model._constant(name, self.x) if len(self.x) else None
        if out is None:
            out = (_DERIVED[name][1](self) if name in _DERIVED
                   else getattr(self.model, f"eval_{name}")(self.x))
        self[name] = out
        return out

    def rows(self, rows: slice) -> "Coefficients":
        """The bundle at ``x[rows]``, ``rows`` a slice: this bundle itself when it
        takes every row, else a view whose tensors are this bundle's rows."""
        if rows == slice(0, len(self.x)):
            return self
        return _RowView(self, rows)


class _RowView(Coefficients):
    """``Coefficients`` at a slice of the rows of another bundle.

    A tensor, and a product whose tensors are all constant, is the slice of
    the whole bundle's, computed there if it is not yet; a product that
    varies is formed on these rows alone, from their tensors.  Every entry
    is a function of its own row, so each equals the bundle evaluated at
    ``x[rows]``, bit for bit.
    """

    def __init__(self, whole: Coefficients, rows: slice):
        super().__init__(whole.model, whole.x[rows])
        self.whole = whole
        self._rows = rows

    def __missing__(self, name: str) -> np.ndarray:
        if (name in _DERIVED and name not in self.whole
                and self.model._constant(name, self.whole.x) is None):
            out = _DERIVED[name][1](self)
        else:
            out = self.whole[name][self._rows]
        self[name] = out
        return out


@dataclass(frozen=True)
class ModelSpec:
    """State dynamics plus kernel loadings plus covariance ambiguity.

    Attributes:
        m: state dimension (1 or 2 at desk scale).
        d: driving-noise dimension.
        b: drift, m entries.
        sigma: diffusion, m x d entries (row = state coordinate).
        r: short rate.
        h: covariation drift loading, d x d entries each of length m
           (``None`` means identically zero).
        k: covariation loading of the kernel, d x d (``None`` = zero).
        v: noise loading of the kernel, d entries (``None`` = zero).
        uncertainty: covariance ambiguity set of the driver.

    The valuation PDE's driver is the pricing kernel's, derived from r, k
    and v.
    """

    m: int
    d: int
    b: tuple
    sigma: tuple
    r: CoefficientFn
    h: tuple | None
    k: tuple | None
    v: tuple | None
    uncertainty: UncertaintySet
    label: str = ""
    # tensor or product name -> None if it varies with the state, else its
    # checked value broadcast over the latest row count; filled as bundles read
    _constants: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        m: int,
        d: int,
        b,
        sigma,
        r,
        uncertainty: UncertaintySet,
        h=None,
        k=None,
        v=None,
        label: str = "",
    ) -> "ModelSpec":
        m = _size(m, "m")
        d = _size(d, "d")
        if m < 1 or d < 1:
            raise ShapeError(f"m and d must be at least 1, got m = {m}, d = {d}")
        if uncertainty.dim != d:
            raise ShapeError(f"d = {d} differs from the ambiguity set's dimension {uncertainty.dim}")
        raw = {"b": b, "sigma": sigma, "r": r, "k": k, "v": v, "h": h}
        tensors = {
            name: None if raw[name] is None and name in ("k", "v", "h")
            else _coeff_grid(raw[name], shape, name)
            for name, shape in _shapes(m, d).items()
        }
        return cls(m=m, d=d, uncertainty=uncertainty, label=label, **tensors)

    # -- vectorized evaluation (n states at a time) ----------------------

    def _eval_tensor(self, name: str, x: np.ndarray) -> np.ndarray:
        """Tensor ``name`` at the states ``x``: an (n, *shape) array, zero when
        the tensor is absent.

        The whole tensor is evaluated in this one frame: each entry, in
        row-major order, straight into its column of the output, all under
        one ``np.errstate`` that is entered only if some entry can warn, then
        one finiteness test over all of it.  Only when that test fails are
        the values searched for the entry and row to name (``_non_finite``).
        A tensor of one entry is that entry's values, uncopied.  The states
        are checked to be a 2-d array once here, not by each ``Expression``.
        """
        shape = _shapes(self.m, self.d)[name]
        calls, can_warn = self._entry_calls[name]
        n = len(x)
        if not calls:
            return np.zeros((n,) + shape)
        x = _check_states(x)
        with np.errstate(**IEEE_QUIET) if can_warn else contextlib.nullcontext():
            if len(calls) == 1:
                flat = calls[0](x)
            else:
                flat = np.empty((n, len(calls)))
                for j, call in enumerate(calls):
                    flat[:, j] = call(x)
        if not np.isfinite(flat).all():
            raise _non_finite(name, shape, x, flat.reshape(n, -1))
        return flat.reshape((n,) + shape)

    @functools.cached_property
    def _entry_calls(self) -> dict:
        """Per tensor name, its entries in row-major order as the calls of
        ``_eval_tensor`` (none for an absent tensor), and whether one of them
        can warn.  An ``Expression`` is called with its own ``np.errstate``
        left out, since ``_eval_tensor`` enters one for the whole tensor; it
        can warn if it has an operator or a function.  A ``Constant`` cannot
        warn, and any other ``CoefficientFn`` is taken to.  An ``Expression``
        also leaves out its check of the states, which ``_eval_tensor`` makes
        once for the tensor."""
        out = {}
        for name in _shapes(self.m, self.d):
            fns = tuple(_entries(getattr(self, name)))
            calls = tuple(functools.partial(fn, _masked=True) if type(fn) is Expression else fn
                          for fn in fns)
            can_warn = any(fn._can_warn if type(fn) is Expression else type(fn) is not Constant
                           for fn in fns)
            out[name] = (calls, can_warn)
        return out

    def eval_b(self, x: np.ndarray) -> np.ndarray:
        return self._eval_tensor("b", x)

    def eval_sigma(self, x: np.ndarray) -> np.ndarray:
        return self._eval_tensor("sigma", x)

    def eval_r(self, x: np.ndarray) -> np.ndarray:
        return self._eval_tensor("r", x)

    def eval_k(self, x: np.ndarray) -> np.ndarray:
        return self._eval_tensor("k", x)

    def eval_v(self, x: np.ndarray) -> np.ndarray:
        return self._eval_tensor("v", x)

    def eval_h(self, x: np.ndarray) -> np.ndarray:
        return self._eval_tensor("h", x)

    def eval_dij(self, x: np.ndarray) -> np.ndarray:
        """Coupling between diffusion columns and the noise loading.

        Entry (i, j) is the m-vector (sigma_col_i * v_j + sigma_col_j * v_i)/2,
        so the output has shape (n, d, d, m) and is symmetric in (i, j); it
        shifts the covariation loading of the state once the kernel's noise
        term is absorbed into the driver.
        """
        return _dij(self.eval_sigma(x), self.eval_v(x))

    def eval_h_effective(self, x: np.ndarray) -> np.ndarray:
        """h - d_ij: the covariation drift seen by the valuation PDE."""
        return self.eval_h(x) - self.eval_dij(x)

    def evaluate(self, x: np.ndarray) -> Coefficients:
        """All coefficient tensors at the states ``x`` (n, m), as one lazy bundle.

        A tensor whose entries are all ``Constant`` (or which is absent,
        meaning zero) is evaluated and checked finite once per model, and
        broadcast after that; every other tensor goes through its ``eval_*``
        method.  A product of ``_DERIVED`` whose tensors are all constant is
        likewise formed once per model.  Each is computed only if it is read.
        """
        return Coefficients(self, x)

    def _constant(self, name: str, x: np.ndarray) -> np.ndarray | None:
        """Tensor or product ``name`` as a read-only broadcast over the rows of
        ``x`` if it is constant, else None."""
        if name not in self._constants:
            one = None
            if name in _DERIVED:
                inputs, formula = _DERIVED[name]
                rows = {i: self._constant(i, x) for i in inputs}
                if all(r is not None for r in rows.values()):
                    one = formula({i: r[:1] for i, r in rows.items()})
            # exact type: a subclass may override __call__ with a varying value
            elif all(type(fn) is Constant for fn in _entries(getattr(self, name))):
                one = getattr(self, f"eval_{name}")(x[:1])  # checked finite here, once
            # read-only, never an n-row copy
            self._constants[name] = None if one is None else np.broadcast_to(one, one.shape)
        view = self._constants[name]
        if view is not None and view.shape[0] != x.shape[0]:
            # a run's batches share a few row counts: keep the latest broadcast,
            # since np.broadcast_to on every read costs more than the step's gather
            view = self._constants[name] = np.broadcast_to(view[:1], x.shape[:1] + view.shape[1:])
        return view


# ---------------------------------------------------------------------------
# assumption checking


@dataclass(frozen=True)
class AssumptionReport:
    """Finite-sample estimates of the regularity/dissipativity constants.

    ``clauses`` records pass/fail for: (i) symmetry of h and k, (ii) finite
    Lipschitz-type constants, (iii) strict dissipativity eta_hat > 0,
    (iv) positive gap between eta_hat and the diffusion-nonlinearity price.
    """

    m: int
    d: int
    n_points: int
    n_pairs: int
    c1: float
    c_sigma: float
    m_sigma: float
    eta_hat: float
    gap: float
    symmetry_dev: float
    clauses: dict
    box: tuple

    @property
    def passed(self) -> bool:
        return all(self.clauses.values())

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "n_points": self.n_points,
            "n_pairs": self.n_pairs,
            "c1": self.c1,
            "c_sigma": self.c_sigma,
            "m_sigma": self.m_sigma,
            "eta_hat": self.eta_hat,
            "gap": self.gap,
            "symmetry_dev": self.symmetry_dev,
            "clauses": dict(self.clauses),
            "box": [list(bb) for bb in self.box],
            "passed": self.passed,
        }


def _sample_box(box, nodes) -> np.ndarray:
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, nodes)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def check_assumptions(model: ModelSpec, box, nodes) -> AssumptionReport:
    """Estimate regularity and dissipativity constants over a sample box.

    Args:
        model: the model to diagnose.
        box: sequence of (lo, hi) per state coordinate.
        nodes: integer sample count per coordinate (>= 10 each).

    The Lipschitz-type constant ``c1`` aggregates difference quotients of
    b, r, k, the symmetrized product v_i v_j, h and d_ij; ``c_sigma`` and
    ``m_sigma`` bound the diffusion's variation and size.  ``eta_hat`` is
    the worst-case dissipativity rate: the most adverse value over sample
    pairs of

        -[ G( (Dsig)^T (Dsig) + 2 <Dx, D(h - d)> ) + <Dx, Db> ] / |Dx|^2.

    The gap subtracts the nonlinearity price
    (1 + sig_hi^2)/2 * (c_sigma d + 4 sqrt(2 c_sigma c1 d sig_hi m_sigma / sig_lo)).
    """
    box = [tuple(map(float, bb)) for bb in box]
    if len(box) != model.m:
        raise ShapeError(f"box has {len(box)} axes, model state dimension is {model.m}")
    nodes = [_size(n, "nodes")
             for n in (nodes if isinstance(nodes, (list, tuple)) else [nodes] * model.m)]
    if any(n < 10 for n in nodes):
        raise ShapeError("assumption sampling needs at least 10 nodes per axis")

    x = _sample_box(box, nodes)
    n = x.shape[0]

    coeffs = model.evaluate(x)
    bval, sig, rval, kval, vval, hval = (
        coeffs[name] for name in ("b", "sigma", "r", "k", "v", "h"))
    dval = _dij(sig, vval)
    htil, vv = coeffs["h_eff"], coeffs["vv"]

    sym_dev = 0.0
    if model.d > 1:
        sym_dev = max(
            float(np.max(np.abs(hval - np.swapaxes(hval, 1, 2)))),
            float(np.max(np.abs(kval - np.swapaxes(kval, 1, 2)))),
        )
    clause_i = sym_dev <= 1e-12

    ii, jj = np.triu_indices(n, k=1)
    if ii.size > _PAIR_CAP:
        stride = int(np.ceil(ii.size / _PAIR_CAP))
        ii, jj = ii[::stride], jj[::stride]

    dx = x[ii] - x[jj]
    dist = np.linalg.norm(dx, axis=1)
    keep = dist > 0.0
    ii, jj, dx, dist = ii[keep], jj[keep], dx[keep], dist[keep]

    def _pair_norm(arr):  # L2 over all trailing axes of the difference
        diff = arr[ii] - arr[jj]
        return np.sqrt(np.sum(diff.reshape(diff.shape[0], -1) ** 2, axis=1))

    c1_num = (
        _pair_norm(bval)
        + np.abs(rval[ii] - rval[jj])
        + np.sum(np.abs(kval[ii] - kval[jj]).reshape(ii.size, -1), axis=1)
        + 0.5 * np.sum(np.abs(vv[ii] - vv[jj]).reshape(ii.size, -1), axis=1)
        + np.sum(np.abs(hval[ii] - hval[jj]).reshape(ii.size, -1), axis=1)
        + np.sum(np.abs(dval[ii] - dval[jj]).reshape(ii.size, -1), axis=1)
    )
    c1 = float(np.max(c1_num / dist))
    c_sigma = float(np.max(_pair_norm(sig) / dist))
    m_sigma = float(np.max(np.sqrt(np.sum(sig.reshape(n, -1) ** 2, axis=1))))

    dsig = sig[ii] - sig[jj]                       # (P, m, d)
    gram = np.einsum("pli,plj->pij", dsig, dsig)   # (Dsig)^T (Dsig), d x d PSD
    dhtil = htil[ii] - htil[jj]                    # (P, d, d, m)
    cross = 2.0 * np.einsum("pl,pijl->pij", dx, dhtil)
    mat = gram + 0.5 * (cross + np.swapaxes(cross, 1, 2))
    gvals = _g_values(mat, model.uncertainty)[0]  # the maximizers are not read
    drift_pair = np.einsum("pl,pl->p", dx, bval[ii] - bval[jj])
    eta_hat = float(np.min(-(gvals + drift_pair) / dist**2))

    # the set stores its ellipticity constants: the extreme member eigenvalues if finite
    sig_lo2, sig_hi2 = model.uncertainty.lo, model.uncertainty.hi
    sig_lo, sig_hi = math.sqrt(sig_lo2), math.sqrt(sig_hi2)
    price = 0.5 * (1.0 + sig_hi2) * (
        c_sigma * model.d
        + 4.0 * math.sqrt(2.0 * c_sigma * c1 * model.d * sig_hi * m_sigma / sig_lo)
    )
    gap = eta_hat - price

    clause_ii = all(map(math.isfinite, (c1, c_sigma, m_sigma)))
    clauses = {
        "i": bool(clause_i),
        "ii": bool(clause_ii),
        "iii": bool(eta_hat > 0.0),
        "iv": bool(gap > 0.0),
    }
    return AssumptionReport(
        m=model.m,
        d=model.d,
        n_points=n,
        n_pairs=int(ii.size),
        c1=c1,
        c_sigma=c_sigma,
        m_sigma=m_sigma,
        eta_hat=eta_hat,
        gap=float(gap),
        symmetry_dev=sym_dev,
        clauses=clauses,
        box=tuple(box),
    )


def truncation_level(
    mu: float,
    eta: float,
    c_sigma: float,
    c3: float,
    c_phi: float,
    sig_hi: float,
    sig_lo: float,
    m_sigma: float,
) -> float:
    """The paper's truncation level M, a bound on |sigma^T Du| that no solver applies.

    M = (eta + mu - (1+sig_hi^2) c_sigma c3
         + 4 c_phi (1+sig_hi^2) c_sigma c3 sig_hi m_sigma / sig_lo)
        / (4 (1+sig_hi^2) c_sigma c3).

    When ``c_sigma * c3 == 0`` the quadratic term needs no truncation and
    the level is +inf.  Exact numerator cancellation gives the boundary value
    0; a negative numerator signals that the dissipativity margin is too
    small for a meaningful bound.
    """
    prod = c_sigma * c3
    if prod == 0.0:
        return math.inf
    if prod < 0.0:
        raise DomainError(f"c_sigma * c3 must be nonnegative, got {prod}")
    if sig_lo <= 0.0:
        raise DomainError(f"sig_lo must be positive, got {sig_lo}")
    one_plus = 1.0 + sig_hi**2
    denom = 4.0 * one_plus * prod
    if denom <= 0.0:
        raise DomainError(f"denominator 4(1+sig_hi^2) c_sigma c3 = {denom} is not positive")
    numer = eta + mu - one_plus * prod + 4.0 * c_phi * one_plus * prod * sig_hi * m_sigma / sig_lo
    if numer < 0.0:
        raise DomainError(
            f"numerator {numer} is negative: eta + mu = {eta + mu} too small "
            "against the quadratic-term price"
        )
    return numer / denom


# ---------------------------------------------------------------------------
# consumption-equilibrium constructor


class LogUtility:
    """u(c) = ln c."""

    def derivatives(self, w: float) -> tuple[float, float, float]:
        if w <= 0.0:
            raise DomainError(f"log utility needs positive consumption, got {w}")
        return 1.0 / w, -1.0 / w**2, 2.0 / w**3


class PowerUtility:
    """Constant relative risk aversion gamma > 0 (gamma = 1 is log)."""

    def __init__(self, gamma: float):
        self.gamma = float(gamma)
        if self.gamma <= 0.0:
            raise DomainError(f"risk aversion must be positive, got {gamma}")

    def derivatives(self, w: float) -> tuple[float, float, float]:
        if w <= 0.0:
            raise DomainError(f"power utility needs positive consumption, got {w}")
        g = self.gamma
        return w**-g, -g * w ** (-g - 1.0), g * (g + 1.0) * w ** (-g - 2.0)


class CustomUtility:
    """Derivatives supplied directly as coefficient functions of consumption."""

    def __init__(self, uprime, udprime, utprime):
        self.uprime = as_coefficient(uprime)
        self.udprime = as_coefficient(udprime)
        self.utprime = as_coefficient(utprime)

    def derivatives(self, w: float) -> tuple[float, float, float]:
        return (self.uprime.at([w]), self.udprime.at([w]), self.utprime.at([w]))


@dataclass(frozen=True)
class EquilibriumSpec:
    """Consumption equilibrium inputs: utility, endowment dynamics, patience.

    ``endowment_vol`` has one entry per noise coordinate.  ``beta`` is the
    subjective discount rate and must be positive.
    """

    utility: object
    endowment_drift: CoefficientFn
    endowment_vol: tuple
    beta: float

    @classmethod
    def build(cls, utility, endowment_drift, endowment_vol, beta: float) -> "EquilibriumSpec":
        beta = float(beta)
        if beta <= 0.0:
            raise DomainError(f"discount rate beta must be positive, got {beta}")
        vol = tuple(as_coefficient(s) for s in (
            endowment_vol if isinstance(endowment_vol, (list, tuple)) else [endowment_vol]
        ))
        return cls(
            utility=utility,
            endowment_drift=as_coefficient(endowment_drift),
            endowment_vol=vol,
            beta=beta,
        )


@dataclass(frozen=True)
class EquilibriumPoint:
    """Equilibrium rate and loadings at one endowment level.

    ``portfolio`` maps an inverse-covariance-like d x d matrix to the
    hedge vector proportional to it.

    Note: the rate formula below treats the endowment drift and volatility
    as level coefficients exactly as supplied.  A dimensional-consistency
    argument for proportional (per-unit-of-endowment) coefficients would
    insert extra powers of the endowment level; callers wanting that
    convention should rescale their inputs (see README).
    """

    rate: float
    risk_load: np.ndarray
    portfolio: Callable[[np.ndarray], np.ndarray]


def equilibrium_model(spec: EquilibriumSpec, w: float) -> EquilibriumPoint:
    """Rate, noise loading, and portfolio builder at endowment level w.

    rate = u'''(w) <sigma, sigma> / 2 - (u''/u')(w) b(w) - beta
    risk_load = -(u''/u')(w) * w * sigma(w)
    portfolio(eta) = -(u''/u')(w) * w * (eta @ sigma(w))
    """
    up, upp, uppp = spec.utility.derivatives(float(w))
    if up <= 0.0:
        raise DomainError(f"marginal utility must be positive at w = {w}, got {up}")
    if upp >= 0.0:
        raise DomainError(f"utility must be strictly concave at w = {w}, got u'' = {upp}")
    ra = -upp / up  # positive by the checks above
    bw = spec.endowment_drift.at([w])
    sig = np.array([s.at([w]) for s in spec.endowment_vol])
    rate = 0.5 * uppp * float(sig @ sig) + ra * bw - spec.beta
    risk_load = ra * float(w) * sig

    def portfolio(eta) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (sig.size, sig.size):
            raise ShapeError(f"portfolio matrix must be {(sig.size, sig.size)}, got {eta.shape}")
        return ra * float(w) * (eta @ sig)

    return EquilibriumPoint(rate=float(rate), risk_load=risk_load, portfolio=portfolio)
