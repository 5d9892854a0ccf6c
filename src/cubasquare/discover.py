"""Numerical discovery of low-degree rules for the constant weight.

Both rule types solve one quadratic matrix system over free Hankel
entries h, R(h) = X(h)^T M X(h) - C = 0 with M = A1^T A2 - A2^T A1 and
X affine in h, by multistart Levenberg-Marquardt:

* even mode (degree 2n-2, Gaussian): X = Gamma = G_n H G_{n-1}^T and
  C = A1 A2^T - A2 A1^T; the nodes are the common zeros of
  P_n + Gamma P_{n-1}.
* odd mode (degree 2n-1, smallest node count): X = W = I - G_n H G_n^T
  and C = 0, with W positive semidefinite of rank floor(n/2); the nodes
  are the common zeros of U^T P_n where the columns of U span the null
  space of W.

A solution is a ``HankelParam``: its ``system`` property is the one
formula for Gamma or W, and ``residual()`` evaluates R at it.  The
verified odd search appends the trailing eigenvalues of W to the
residual vector, which steers the iteration onto the semidefinite
rank-deficient branch; plain algebraic solutions failing that condition
are reported separately.  Those rank-penalised fits end early when they
stall: past 100 evaluations, a fit whose best |r| has not halved over the
last 100 stops at its best point (at n >= 5 such fits used to run to the
600-evaluation cap and almost never converged).  The solutions found at
n = 4, 5 and 6 are unchanged by it; only on the odd 3 manifold are a few
late-converging points no longer reached.  ``common_zeros`` finds a solution's nodes, in
the whole plane, as the joint eigenvalues of its truncated Jacobi
matrices J_1, J_2, which commute exactly when the system holds, and
checks them against the generating polynomials.  Known solution matrices
for small n are kept in ``KNOWN_EVEN_HANKEL`` / ``KNOWN_ODD_HANKEL`` as
reference fixtures.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import comb, sqrt

import numpy as np
import scipy.optimize
from scipy.linalg.lapack import dsyevd
from scipy.optimize import OptimizeResult, leastsq

from .basis2d import basis_for, dim_upto, three_term
from .weights import constant

__all__ = [
    "gamma_coefficient",
    "scaling_matrix",
    "HankelParam",
    "solve_even_system",
    "OddSearchReport",
    "odd_system_search",
    "common_zeros",
    "CommonZeroError",
    "align_to_reference",
    "KNOWN_EVEN_HANKEL",
    "KNOWN_ODD_HANKEL",
]


def gamma_coefficient(k: int) -> float:
    """Leading coefficient of sqrt(2k+1) P_k: (2k)! sqrt(2k+1) / (2^k k!^2)."""
    return comb(2 * k, k) * sqrt(2 * k + 1) / 2.0**k


def scaling_matrix(n: int) -> np.ndarray:
    """Diagonal G_n with entries gamma_{n-k} gamma_k, k = 0..n."""
    return np.diag([gamma_coefficient(n - k) * gamma_coefficient(k) for k in range(n + 1)])


@dataclass(frozen=True)
class HankelParam:
    """Free Hankel entries h_0, h_1, ... of the even or odd system."""

    mode: str
    n: int
    h: np.ndarray

    def __post_init__(self):
        if self.mode not in ("even", "odd"):
            raise ValueError("mode must be 'even' or 'odd'")
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h)
        want = self.n + _hankel_cols(self.mode, self.n)
        if h.shape != (want,):
            raise ValueError(f"{self.mode} system at n={self.n} needs {want} entries, got {h.shape}")

    @property
    def matrix(self) -> np.ndarray:
        """H[i, j] = h[i + j], with n + 1 rows and ``_hankel_cols`` columns."""
        return self.h[np.add.outer(np.arange(self.n + 1), np.arange(_hankel_cols(self.mode, self.n)))]

    @property
    def system(self) -> np.ndarray:
        """Gamma = G_n H G_{n-1}^T (even mode) or W = I - G_n H G_n^T (odd mode)."""
        n = self.n
        GHG = scaling_matrix(n) @ self.matrix @ scaling_matrix(_hankel_cols(self.mode, n) - 1).T
        return GHG if self.mode == "even" else np.eye(n + 1) - GHG

    def residual(self) -> np.ndarray:
        """The independent entries of X^T M X - C; zero iff h solves the system."""
        return _HankelSystem(self.mode, self.n).residual(self.h)


def _hankel_cols(mode: str, n: int) -> int:
    """Columns of the (n + 1)-row Hankel matrix: n for the even system, n + 1
    for the odd one; its n + cols anti-diagonals are the free entries."""
    return n if mode == "even" else n + 1


def _nullity(n: int) -> int:
    """Null-space dimension of a verified odd W, of rank floor(n/2)."""
    return (n + 1) - n // 2


# MINPACK's info code -> the status scipy.optimize.least_squares reports
_MINPACK_STATUS = {0: -1, 1: 2, 2: 3, 3: 4, 4: 1, 5: 0}

# Stall exit of the rank-penalised fits: a fit stops once, after more than
# _STALL_WINDOW residual evaluations, its best |r| is not below _STALL_FACTOR
# times its best |r| of _STALL_WINDOW evaluations earlier; it then reports
# _STALL_STATUS, outside least_squares' codes -1..4.
_STALL_WINDOW = 100
_STALL_FACTOR = 0.5
_STALL_STATUS = -2


class _Stalled(Exception):
    """A watched fit stopped for lack of progress: its best point ``x``, the
    residual ``fun`` there, and the ``nfev``/``njev`` calls it ran."""

    def __init__(self, x, fun, nfev, njev):
        super().__init__(f"best |r| not halved in {_STALL_WINDOW} evaluations")
        self.x, self.fun, self.nfev, self.njev = x, fun, nfev, njev


class _StallWatch:
    """A residual and Jacobian that count their calls and keep the best |r|
    seen and its x; ``residual`` raises ``_Stalled`` by the rule above.  The
    counts include the calls ``leastsq`` makes at x0 before MINPACK starts."""

    def __init__(self, residual, jacobian):
        self._residual, self._jacobian = residual, jacobian
        self.best = []  # best |r| after each evaluation
        self.x = self.fun = None
        self.njev = 0

    def residual(self, x):
        r = self._residual(x)
        norm, best = sqrt(r @ r), self.best[-1] if self.best else np.inf
        if norm < best:
            best, self.x, self.fun = norm, x.copy(), r
        self.best.append(best)
        k = len(self.best)
        if k > _STALL_WINDOW and best >= _STALL_FACTOR * self.best[k - 1 - _STALL_WINDOW]:
            raise _Stalled(self.x, self.fun, k, self.njev)
        return r

    def jacobian(self, x):
        self.njev += 1
        return self._jacobian(x)


def least_squares(fun, x0, *, jac, method, xtol, ftol, gtol, max_nfev):
    """Nonlinear least squares with an analytic Jacobian, the LM entry point
    of every Hankel fit.

    ``method="lm"`` calls MINPACK's lmder through ``scipy.optimize.leastsq``
    (step bound factor 100, ``diag`` from the Jacobian's column norms), the
    same call and so the same iterates as ``scipy.optimize.least_squares``
    with ``method="lm"``, without that wrapper's per-evaluation bookkeeping.
    The result carries ``x``, ``fun`` (the residual at ``x``), ``nfev``,
    ``njev`` and ``status`` in ``least_squares``' codes.  Any other method
    (``"trf"`` for the underdetermined systems) is forwarded to
    ``scipy.optimize.least_squares`` unchanged.  A ``_Stalled`` raised by
    ``fun`` ends the fit with its best point and ``_STALL_STATUS``.
    """
    try:
        if method != "lm":
            return scipy.optimize.least_squares(fun, x0, jac=jac, method=method, xtol=xtol,
                                                ftol=ftol, gtol=gtol, max_nfev=max_nfev)
        x, _, info, _, ier = leastsq(fun, x0, Dfun=jac, full_output=True, xtol=xtol, ftol=ftol,
                                     gtol=gtol, maxfev=max_nfev)
    except _Stalled as stop:
        return OptimizeResult(x=stop.x, fun=stop.fun, nfev=stop.nfev, njev=stop.njev,
                              status=_STALL_STATUS)
    return OptimizeResult(x=x, fun=info["fvec"], nfev=info["nfev"], njev=info["njev"],
                          status=_MINPACK_STATUS.get(ier, ier))


def _syevd(X, vectors: int):
    """Eigenvalues (ascending) and, with ``vectors=1``, eigenvectors of the
    symmetric X from LAPACK dsyevd on its lower triangle: the call behind
    ``np.linalg.eigvalsh``/``eigh``, without their wrappers."""
    w, v, info = dsyevd(X.T, compute_v=vectors, lower=1)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, v


class _HankelSystem:
    """R(h) = X^T M X - C on the strict upper triangle, X = X0 + sum_l h_l B_l.

    Even mode: X0 = 0, B_l = G_n E_l G_{n-1}^T; odd mode: X0 = I,
    B_l = -G_n E_l G_n^T, where E_l is the Hankel matrix with ones on the
    anti-diagonal l.  X is affine in h, so R is one quadratic form,
    precomputed at construction:

        R(h) = a + L h + 1/2 (Q h) h,   dR/dh = L + Q h,

    with a = (X0^T M X0 - C)[iu], L[p, l] = (B_l^T M X0 + X0^T M B_l)[p] and
    Q[p, l, m] = (B_l^T M B_m + B_m^T M B_l)[p], symmetric in l and m; a
    residual is one matrix-vector product on the flat (P * nvar, nvar) view
    ``Qf`` of Q, which a Jacobian at the same h reuses.  The copy from
    ``penalised()`` (odd mode) appends the smallest ``_nullity(n)``
    eigenvalues of X to R, from LAPACK dsyevd on the lower triangle of X,
    without eigenvectors in ``residual`` and with them in ``jacobian``, the
    calls behind ``np.linalg.eigvalsh`` and ``eigh``; the two eigenvalue
    sets differ in their last bits, so each keeps its own decomposition.
    ``free`` lists the entries of h the system solves for; the others stay zero.
    """

    def __init__(self, mode: str, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        tt = three_term(constant(), n - 1)
        A1, A2 = tt.A1, tt.A2
        M = A1.T @ A2 - A2.T @ A1
        cols = _hankel_cols(mode, n)
        Gr, Gc = scaling_matrix(n), scaling_matrix(cols - 1)
        E = 1.0 * (np.add.outer(np.arange(n + 1), np.arange(cols)) == np.arange(n + cols)[:, None, None])
        B = Gr @ E @ Gc.T
        if mode == "even":
            X0, C = np.zeros((n + 1, cols)), A1 @ A2.T - A2 @ A1.T
        else:
            X0, C, B = np.eye(n + 1), 0.0, -B
        # start magnitude: reciprocal geometric mean of the G_n, G_cols entries
        self.scale = 1.0 / np.exp(np.mean(np.log(np.diag(Gr))) + np.mean(np.log(np.diag(Gc))))
        i, j = self.iu = np.triu_indices(cols, 1)
        self.a = (X0.T @ M @ X0 - C)[i, j]
        D = np.swapaxes(B, 1, 2) @ (M @ X0) + (X0.T @ M) @ B
        self.L = np.ascontiguousarray(D[:, i, j].T)
        # the contraction order optimize=True picks from these shapes at every n the CLI admits
        T = np.einsum("lap,ab,mbp->plm", B[:, :, i], M, B[:, :, j], optimize=["einsum_path", (0, 1), (0, 1)])
        self.Q = T + np.swapaxes(T, 1, 2)
        self.Qf = self.Q.reshape(-1, len(B))
        self.X0, self.B = X0, B.reshape(len(B), -1)
        self.nvar, self.free, self.tail, self.neq, self._last = len(B), np.arange(len(B)), 0, len(i), (None,)

    def _derive(self, **changes) -> "_HankelSystem":
        sub = copy.copy(self)
        sub.__dict__.update(changes, _last=(None,))
        return sub

    def restricted(self) -> "_HankelSystem":
        """The reflection-symmetric subspace: odd-index entries pinned at zero."""
        Q = np.ascontiguousarray(self.Q[:, ::2, ::2])
        return self._derive(free=self.free[::2], B=self.B[::2], L=self.L[:, ::2], Q=Q, Qf=Q.reshape(-1, Q.shape[1]))

    def penalised(self) -> "_HankelSystem":
        """The same odd system with the rank penalty; it shares a, L and Q."""
        return self._derive(tail=(tail := _nullity(len(self.X0) - 1)), neq=len(self.a) + tail)

    @property
    def method(self) -> str:
        # MINPACK's LM needs at least as many residuals as unknowns
        return "lm" if self.neq >= len(self.free) else "trf"

    def _products(self, h):  # Q h and (rank penalty) X(h), kept for the next call at the same h
        if self._last[0] != (key := h.tobytes()):  # the bytes, as MINPACK overwrites its x in place
            self._last = key, (self.Qf @ h).reshape(self.L.shape), self.X(h) if self.tail else None
        return self._last

    def X(self, h) -> np.ndarray:
        return self.X0 + (h @ self.B).reshape(self.X0.shape)

    def residual(self, h) -> np.ndarray:
        _, Qh, X = self._products(h)
        r = self.a + (self.L + 0.5 * Qh) @ h
        if self.tail:
            r = np.concatenate([r, _syevd(X, 0)[0][: self.tail]])
        return r

    def jacobian(self, h) -> np.ndarray:
        _, Qh, X = self._products(h)
        J = self.L + Qh
        if self.tail:
            Qt = np.ascontiguousarray(_syevd(X, 1)[1][:, : self.tail])
            # d lambda_k / dh_l = Qt_k^T B_l Qt_k, against the flattened outer products
            outer = (Qt[:, None, :] * Qt[None, :, :]).reshape(-1, self.tail)
            J = np.concatenate([J, (self.B @ outer).T])
        return J

    def fit(self, h0: np.ndarray, max_nfev: int) -> OptimizeResult:
        """Least-squares solve from the full start h0; the result, its ``x``
        the full h.

        A rank-penalised system (``tail > 0``) is fitted under a
        ``_StallWatch``: past ``_STALL_WINDOW`` evaluations the fit ends, with
        ``_STALL_STATUS`` and its best point, as soon as its best |r| has not
        halved over the last ``_STALL_WINDOW``.  At n >= 5 these fits almost
        never converge and used to run to the cap; of the few that converge,
        all but a handful do so within 60 evaluations.  A fit that ends within
        the window runs exactly as unwatched, and the verified and
        algebraic-only solutions of 80 starts are unchanged at n = 5, 6
        (rng 0-9) and n = 4 (rng 0-4).  What is lost are late convergers on
        the odd 3 solution manifold: 4 of the 81 points of 80 starts.
        """
        fun, jac = self.residual, self.jacobian
        if self.tail:
            watch = _StallWatch(fun, jac)
            fun, jac = watch.residual, watch.jacobian
        res = least_squares(fun, h0[self.free], jac=jac, method=self.method,
                            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=max_nfev)
        h = np.zeros(self.nvar)
        h[self.free] = res.x
        res.x = h
        return res


# ---------------------------------------------------------------------------
# symmetry orbits and deduplication

def _alt(h: np.ndarray) -> np.ndarray:
    out = h.copy()
    out[1::2] *= -1.0
    return out


def _orbit(h: np.ndarray, mode: str):
    base = [h, _alt(h)]
    if mode == "even":  # global sign is a symmetry only for the even system
        base += [-h, -_alt(h)]
    return [v for b in base for v in (b, b[::-1].copy())]


def _canonical(h: np.ndarray, mode: str):
    orbit = _orbit(h, mode)
    keys = [tuple(np.round(v, _KEY_DECIMALS)) for v in orbit]
    i = max(range(len(keys)), key=keys.__getitem__)
    return keys[i], orbit[i]


def align_to_reference(hankel: HankelParam, ref: HankelParam):
    """The orbit element of ``hankel`` closest to ``ref`` and their entrywise distance."""
    if (hankel.mode, hankel.n) != (ref.mode, ref.n):
        raise ValueError(f"cannot align {hankel.mode} n={hankel.n} to {ref.mode} n={ref.n}")
    best = min(_orbit(hankel.h, hankel.mode), key=lambda v: np.abs(v - ref.h).max())
    return HankelParam(hankel.mode, hankel.n, best), float(np.abs(best - ref.h).max())


# ---------------------------------------------------------------------------
# multistart solvers

_RESID_TOL = 1e-10
_KEY_DECIMALS = 7  # a solution's key: its canonical orbit element rounded to these decimals


def _multistart(fits, seeds: int, rng_seed: int, max_nfev: int, accept) -> int:
    """Draw ``seeds`` random starts; fit each system in ``fits`` from every
    start and hand each fitted h to ``accept``.  Returns the number of fits
    the stall watch stopped."""
    rng = np.random.default_rng(rng_seed)
    scale, nvar = fits[0].scale, fits[0].nvar
    stalled = 0
    for _ in range(seeds):
        mag = scale * 3.0 ** rng.integers(-1, 2)
        h0 = rng.uniform(-1.0, 1.0, nvar) * mag
        for system in fits:
            res = system.fit(h0, max_nfev)
            stalled += res.status == _STALL_STATUS
            accept(res.x)
    return stalled


def solve_even_system(n: int, seeds: int = 80, rng_seed: int = 0):
    """Distinct Hankel solutions of the even system from ``seeds`` random starts.

    When the algebraic system has fewer equations than unknowns the search
    first restricts to the reflection-invariant subspace (odd-index
    entries zero), which isolates the symmetric solutions, and then probes
    the full space from the same start.  Results are deduplicated under
    the sign/reflection orbit and sorted canonically; an empty list means
    no solution was found (not a nonexistence proof).
    """
    system = _HankelSystem("even", n)
    found: dict[tuple, np.ndarray] = {}

    def register(h):
        if np.abs(system.residual(h)).max() <= _RESID_TOL:
            found.setdefault(*_canonical(h, "even"))

    fits = [system.restricted(), system] if system.neq < system.nvar else [system]
    _multistart(fits, seeds, rng_seed, 400, register)
    return [HankelParam("even", n, found[k]) for k in sorted(found)]


@dataclass
class OddSearchReport:
    """Odd solutions whose W is PSD of rank floor(n/2), the others, and the
    number of rank-penalised fits the stall watch stopped."""

    verified: list[HankelParam]
    algebraic_only: list[HankelParam]
    stalled: int

    @property
    def status(self) -> str:
        return "found" if self.verified else "not-found"


def odd_system_search(n: int, seeds: int = 80, rng_seed: int = 0) -> OddSearchReport:
    """Multistart search for the odd system; splits verified vs algebraic-only.

    Each start runs the rank-penalised system, then (when it has fewer
    equations than unknowns, or n = 3) the same on the reflection-symmetric
    subspace, which isolates manifold solutions, then the plain algebraic
    system, which records solutions failing the PSD/rank filter.
    """
    algebraic = _HankelSystem("odd", n)
    penalised = algebraic.penalised()
    verified: dict[tuple, np.ndarray] = {}
    other: dict[tuple, np.ndarray] = {}

    def classify(h):
        if np.abs(algebraic.residual(h)).max() > _RESID_TOL:
            return
        ev = np.linalg.eigvalsh(HankelParam("odd", n, h).system)
        small, lead = np.abs(ev[: penalised.tail]).max(), ev[penalised.tail:].min()
        key, canon = _canonical(h, "odd")
        psd_rank = small <= 1e-9 and lead > 1e-8 and lead > 100.0 * small
        (verified if psd_rank else other).setdefault(key, canon)

    if penalised.neq < penalised.nvar or n == 3:
        fits = [penalised, penalised.restricted(), algebraic]
    else:
        fits = [penalised, algebraic]
    stalled = _multistart(fits, seeds, rng_seed, 600, classify)
    return OddSearchReport(
        verified=[HankelParam("odd", n, verified[k]) for k in sorted(verified)],
        algebraic_only=[HankelParam("odd", n, other[k]) for k in sorted(other) if k not in verified],
        stalled=stalled,
    )


# ---------------------------------------------------------------------------
# common zeros as joint eigenvalues

class CommonZeroError(RuntimeError):
    def __init__(self, message, found):
        super().__init__(message)
        self.found = found


def _jacobi_system(hankel: HankelParam):
    """The truncated Jacobi matrices J_1, J_2 of a solution, stacked, and the
    coefficients C of its generating polynomials C @ [P_{n-1}; P_n].

    J_i is block tridiagonal on P_0..P_{n-1} with blocks A_{k,i} above and
    A_{k,i}^T below the diagonal.  Even mode: the generating polynomials are
    P_n + Gamma P_{n-1}, so the last diagonal block is -A_{n-1,i} Gamma.  Odd
    mode: they are U^T P_n, with U the null space of W = V V^T, and J_i gains
    one symmetric block row and column A_{n-1,i} V with a zero corner.
    """
    n, X = hankel.n, hankel.system
    A = [three_term(constant(), k) for k in range(n)]
    N = dim_upto(n - 1)
    if hankel.mode == "even":
        C, extra = np.hstack([X, np.eye(n + 1)]), 0
    else:
        tail = _nullity(n)
        ev, Q = _syevd(X, 1)
        V = Q[:, tail:] * np.sqrt(np.maximum(ev[tail:], 0.0))
        C, extra = np.hstack([np.zeros((tail, n)), Q[:, :tail].T]), n // 2
    J = np.zeros((2, N + extra, N + extra))
    for k in range(n - 1):
        r, c = dim_upto(k - 1), dim_upto(k)
        J[:, r:c, c:c + k + 2] = A[k].A1, A[k].A2
    last, r = np.stack([A[-1].A1, A[-1].A2]), dim_upto(n - 2)
    if extra:
        J[:, r:N, N:] = last @ V
    J = J + np.swapaxes(J, 1, 2)
    if not extra:
        J[:, r:N, r:N] = -last @ X
    return J, C


def common_zeros(hankel: HankelParam) -> np.ndarray:
    """The nodes of a Hankel solution: the common zeros of its generating
    polynomials, as the joint eigenvalues of its commuting truncated Jacobi
    matrices J_1, J_2, lexsorted by (x, y) rounded to 12 decimals, so nodes
    whose x agree to rounding noise come out by ascending y.

    The eigenvectors E of cos(1) J_1 + sin(1) J_2 give each node's
    coordinates as v^T J_i v per column v (odd mode, J_i symmetric) or as
    the diagonal of E^-1 J_i E (even mode).  A node set on which the generating
    polynomials exceed 1e-10 raises ``CommonZeroError``: the Hankel system
    does not hold, or two nodes share a projection.
    """
    J, C = _jacobi_system(hankel)
    M = np.cos(1.0) * J[0] + np.sin(1.0) * J[1]
    if hankel.mode == "odd":
        v = _syevd(M, 1)[1]
        pts = np.einsum("ij,kil,lj->jk", v, J, v)
    else:
        v = np.linalg.eig(M)[1]
        pts = np.diagonal(np.linalg.solve(v, J @ v), axis1=1, axis2=2).real.T
    key = np.round(pts, 12)
    pts = pts[np.lexsort((key[:, 1], key[:, 0]))]
    n = hankel.n
    rows = basis_for(constant()).eval_upto(n, pts[:, 0], pts[:, 1])[dim_upto(n - 2):]
    residual = np.abs(C @ rows).max()
    if not residual <= _RESID_TOL:
        raise CommonZeroError(f"the generating polynomials reach {residual:.1e} on the {len(pts)} "
                              f"eigenvalue nodes, above {_RESID_TOL:.0e}", pts)
    return pts


# ---------------------------------------------------------------------------
# reference fixtures (known solution matrices, flattened Hankel entries)

KNOWN_EVEN_HANKEL = {
    3: HankelParam(
        "even", 3, 4.0 / (27.0 * sqrt(7.0)) * np.array([-11.0 / 25.0, 0.0, 1.0, 0.0, 2.0 / 5.0, 0.0])
    ),
}

KNOWN_ODD_HANKEL = {
    3: HankelParam(
        "odd", 3, 4.0 / 135.0 * np.array([-8.0 / 35.0, 0.0, 1.0, 0.0, 0.0, 0.0, 27.0 / 35.0])
    ),
    4: HankelParam(
        "odd", 4, 44.0 / 14385.0 * np.array(
            [94.0 / 231.0, 1.0, 1.0, 1.0, -82.0 / 55.0, 1.0, 1.0, 1.0, 94.0 / 231.0]
        )
    ),
    5: HankelParam(
        "odd", 5, 96.0 / 77875.0 * np.array(
            [
                1151.0 / 2079.0,
                10.0 * sqrt(86.0) / 189.0,
                -31.0 / 81.0,
                -sqrt(43.0 / 2.0) / 9.0,
                1.0,
                0.0,
                1.0,
                sqrt(43.0 / 2.0) / 9.0,
                -31.0 / 81.0,
                -10.0 * sqrt(86.0) / 189.0,
                1151.0 / 2079.0,
            ]
        )
    ),
}
