"""Cubature rules: weight computation, exactness verification, lower bounds."""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field, replace
from itertools import chain

import numpy as np

from .basis2d import (
    _BLOCK_BYTES,
    KernelStarSpec,
    _split_z,
    basis_for,
    dim_upto,
    node_grid,
    three_term,
)
from .nodes import NodeSet, _json_text, _strings_json, moeller_count
from .univariate import chebyshev_t_table, jacobi_normalized_table
from .weights import (
    WeightSpec,
    chebyshev_moments,
    mass,
    parse_weight,
    weight_string,
)

__all__ = [
    "CubatureError",
    "CubatureRule",
    "weights_from_kernel",
    "weights_from_vandermonde",
    "ExactnessReport",
    "exactness_check",
    "LowerBounds",
    "lower_bounds",
    "rule_to_dict",
    "rule_from_dict",
    "rule_to_json",
    "rule_from_json",
]

_EXACT_TOL = 1e-9  # largest moment error, relative to the mass, of an exact degree
_EXTRA_DEGREES = 3  # degrees scanned past the declared one to locate the first failure
_VANDERMONDE_TOL = 1e-10  # largest moment residual of least-squares weights, relative to the mass
_DIAGONAL_TOL = 1e-10  # largest off-diagonal S_ij of the calibrated Gram, relative to sqrt(S_ii S_jj)


class CubatureError(RuntimeError):
    pass


@dataclass
class CubatureRule:
    """Positive cubature rule with a declared degree of precision.

    Construction validates positivity and the mass identity
    sum(lambdas) = moment(w, 0, 0); pass ``validate=False`` only when
    loading untrusted data for re-verification.  ``oracle_report`` describes
    the lambdas it was built with; one whose declared degree is not
    ``degree`` (say after ``dataclasses.replace``) is dropped.
    """

    weight: WeightSpec
    degree: int
    nodes: NodeSet
    lambdas: np.ndarray
    provenance: str = ""
    oracle_report: "ExactnessReport | None" = field(default=None, repr=False)
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool = True):
        lam = np.asarray(self.lambdas, dtype=float)
        self.lambdas = lam
        if self.oracle_report is not None and self.oracle_report.declared_degree != self.degree:
            self.oracle_report = None
        if len(lam) != len(self.nodes):
            raise CubatureError("weight count does not match node count")
        if not validate:
            return
        if lam.min() <= 0:
            raise CubatureError(f"nonpositive cubature weight: min = {lam.min():.3e}")
        m00 = mass(self.weight)
        if abs(lam.sum() - m00) > 1e-10 * max(1.0, m00):
            raise CubatureError(
                f"weights sum to {lam.sum():.15g}, expected total mass {m00:.15g}"
            )

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def weights_from_kernel(nodes: NodeSet, spec: KernelStarSpec, w: WeightSpec) -> CubatureRule:
    """Weights 1/K*(z_k, z_k) for a Gaussian / minimal / near-minimal node set,
    from their closed form, checked against the moments and against the kernel
    spec calibrated with them (``_calibrated_rule``).  ``spec`` itself is left
    as it is."""
    return _calibrated_rule(nodes, spec, w)[0]


def _closed_form_weights(w: WeightSpec, n: int, points: np.ndarray) -> np.ndarray:
    """Unit-mass weights c_k / sum_j c_j of the degree-n kernel rule at ``points``.

    cheb1: c = c(x) c(y), c = 1/2 on the edges |t| = 1 and 1 inside, on the
    minimal and near-minimal nodes (Xu, J. Approx. Theory 87, 1996) and the
    Padua points (Caliari, De Marchi, Sommariva, Vianello, Numer. Algorithms
    56, 2011).  cheb2 (Gaussian nodes): c = (1 - x^2)(1 - y^2).  gencheb,
    gamma = -1/2: c = rho(t) rho(s) mu, (t, s) = ``_split_z(x, y)`` and
    rho = 1 / sum_{k <= (n-1)/2} p_k^2 the Jacobi(alpha, beta) Christoffel
    function, as the nodes are the images of the Gauss (n even) or
    Gauss-Radau (n odd, fixed node t = 1) grid, exact through degree n - 1 in
    t and s; mu is 1/4 on the edges (t = s), 1/2 inside, doubled on the
    diagonal x = y, where (x, y) and (y, x) coincide.  Others: CubatureError."""
    x, y = points.T
    edge = np.abs(np.abs(points) - 1.0) <= 1e-12
    if weight_string(w) == "cheb1":
        c = np.where(edge, 0.5, 1.0).prod(axis=1)
    elif weight_string(w) == "cheb2":
        c = (1.0 - x * x) * (1.0 - y * y)
    elif w.kind == "gencheb" and w.gamma == -0.5:
        rho_t, rho_s = (1.0 / np.square(jacobi_normalized_table(w.alpha, w.beta, (n - 1) // 2, z)).sum(axis=0)
                        for z in _split_z(x, y))
        c = rho_t * rho_s * np.where(edge.any(axis=1), 0.25, 0.5) * np.where(np.abs(x - y) <= 1e-12, 2.0, 1.0)
    else:
        raise CubatureError(f"no closed-form weights for the weight {weight_string(w)}")
    return c / c.sum()


def _calibrated_rule(nodes: NodeSet, spec: KernelStarSpec, w: WeightSpec):
    """``weights_from_kernel`` together with the spec calibrated on ``nodes``
    (a copy holding the diagonal ``s_diag`` of the Gram S; ``spec`` for sigma = 0).

    One path for every family: the closed-form weights, their moment
    residuals through the declared degree + ``_EXTRA_DEGREES`` (the build
    check through the declared degree, and the oracle report
    ``exactness_check`` would give), then ``_checked_calibration`` on the
    basis's ``node_reductions``, so no N x N or dim x N array is formed."""
    if weight_string(w) != weight_string(spec.weight):
        raise CubatureError("weight does not match kernel spec")
    basis = basis_for(w)
    n, sigma, pts = spec.n, spec.sigma, nodes.points
    if len(nodes) != dim_upto(n - 1) + sigma:
        raise CubatureError(f"interpolation space dimension {dim_upto(n - 1) + sigma} != node count {len(nodes)}")
    degree = 2 * n - 1 if sigma else 2 * n - 2
    w_unit = _closed_form_weights(w, n, pts)
    residuals = _degree_residuals(w, pts, basis.mass * w_unit, degree + _EXTRA_DEGREES)
    resid = float(residuals[:degree + 1].max())
    failures = () if resid <= 1e-10 else (
        f"closed-form weights miss the moments through degree {degree} (residual {resid:.2e})",)
    spec = _checked_calibration(spec, basis.node_reductions(n, pts, w_unit), w_unit, failures)[0]
    rule = CubatureRule(
        weight=w,
        degree=degree,
        nodes=nodes,
        lambdas=basis.mass * w_unit,
        provenance=f"closed-form weights, sigma={sigma}, {nodes.provenance}",
        oracle_report=_exactness_report(degree, residuals),
    )
    return rule, spec


def _checked_calibration(spec: KernelStarSpec, reductions, w_unit: np.ndarray, earlier: tuple[str, ...] = ()):
    """Check a kernel spec, and unit-mass weights ``w_unit`` (one per node) on
    it, over node blocks; return the spec calibrated with the diagonal s of
    S = (Q w) Q^T (as it is for sigma = 0) and mass K*(z_k, z_k) = |F_low(z_k)|^2
    + sum_i Q_i(z_k)^2 / s_i.  Each block of ``reductions`` (``node_reductions``)
    is (start, |F_low|^2, degree-n rows, F_low w over the block), F_low the rows
    of degree <= n-1.  S is summed over blocks: Q is the one sigma x N array.

    The nodes must be common zeros of the vanishing combinations
    (``_common_zero_checked``), S must be diagonal (each off-diagonal at most
    ``_DIAGONAL_TOL`` sqrt(S_ii S_jj)), the weights must satisfy [F_low; Q] w =
    e_0, K* must be positive and mass / K* must reproduce mass * w; each
    failing one is named in the error, after ``earlier``.
    """
    failures = list(earlier)
    kdiag = np.empty(len(w_unit))  # |F_low(z_k)|^2, then mass K*(z_k, z_k) (K* = K_{n-1} for sigma = 0)
    Q = np.empty((spec.sigma, len(w_unit)))
    S = np.zeros((spec.sigma, spec.sigma))
    low_w = np.zeros(dim_upto(spec.n - 1))  # F_low w
    for s, sq, Fn, lw in _common_zero_checked(spec, reductions):
        e = s + len(sq)
        kdiag[s:e] = sq
        Q[:, s:e] = spec.q_coeffs @ Fn
        S += (Q[:, s:e] * w_unit[s:e]) @ Q[:, s:e].T
        low_w += lw
    low_w[0] -= 1.0
    resid = max(float(np.abs(low_w).max()), float(np.abs(Q @ w_unit).max(initial=0.0)))
    if spec.sigma:
        s_diag = np.diag(S).copy()
        off = float((np.abs(S - np.diag(s_diag)) / np.sqrt(np.outer(s_diag, s_diag))).max())
        if not off <= _DIAGONAL_TOL:  # NaN (an s_i of 0) counts as failing
            failures.append(f"the discrete Gram S of the complement is not diagonal (off-diagonal "
                            f"{off:.2e} of sqrt(S_ii S_jj), tolerance {_DIAGONAL_TOL:.0e})")
        spec = replace(spec, s_diag=s_diag)
        kdiag += (1.0 / s_diag) @ np.square(Q, out=Q)  # Q is not read again
    if not resid <= 1e-10:
        failures.append(f"weights miss the unisolvent equations [F_low; Q] w = e_0 (residual {resid:.2e})")
    if not kdiag.min() > 0:
        failures.append("K*(z, z) <= 0: node set does not match the kernel spec")
    gap = float(np.abs(w_unit * kdiag - 1.0).max())
    if not gap <= 1e-8:
        failures.append(f"reciprocal-kernel weights disagree with the weights (relative gap {gap:.2e})")
    if failures:
        raise CubatureError("; ".join(failures))
    return spec, kdiag


def _common_zero_checked(spec: KernelStarSpec, reductions):
    """Pass the node reductions on, block by block, and once they are used up
    raise a CubatureError unless the vanishing combinations p_coeffs F_n
    vanish on the nodes to the rounding of the nodes: at each node z_k, to
    64 eps n^2 max(1, max_r |F_r(z_k)|).  The coordinates are rounded to
    about eps |z|, and the gradient of a degree-n polynomial can reach n^2
    times its size on the square (Markov), so the residual of exact nodes
    grows with n.  Measured on exact node sets (cheb1 n = 2..512, gencheb
    at 13 (alpha, beta) pairs up to n = 128): at most 6.7 eps n^2 times the
    node's largest value; a node moved by 1e-6 leaves 1.8e9 to 8e9 times."""
    n = spec.n
    scale = 64 * np.finfo(float).eps * n * n
    worst, at = 0.0, (0.0, 0.0)  # the largest residual / bound, and that node's residual and bound
    # a row of p_coeffs has at most two nonzeros (KernelStarSpec): p_coeffs F_n gathers two rows of F_n
    cols = np.argsort(spec.p_coeffs == 0, axis=1, kind="stable")[:, :2].T
    coefs = np.take_along_axis(spec.p_coeffs.T, cols, axis=0)[:, :, None]
    for block in reductions:
        Fn = block[2]
        van = np.abs(sum(c * Fn[j] for c, j in zip(coefs, cols))).max(axis=0, initial=0.0)
        bound = scale * np.maximum(1.0, np.abs(Fn).max(axis=0, initial=0.0))
        ratio = van / bound
        if ratio.size and not ratio.max() <= worst:  # NaN counts as the worst
            k = int(np.argmax(ratio))
            worst, at = ratio[k], (van[k], bound[k])
        yield block
    if not worst <= 1.0:
        raise CubatureError(f"node set is not the common-zero set of the spec (residual {at[0]:.2e} "
                            f"at a node where the bound is {at[1]:.2e})")


def weights_from_vandermonde(nodes: NodeSet, w: WeightSpec, exact_degree: int) -> CubatureRule:
    """Least-squares moment matching on the orthonormal basis of Pi_exact_degree^2.

    Raises if the residual exceeds ``_VANDERMONDE_TOL`` relative to the total
    mass: the node set then does not support the claimed degree.
    """
    basis = basis_for(w)
    pts = nodes.points
    A = basis.eval_upto(exact_degree, pts[:, 0], pts[:, 1])
    rhs = np.zeros(A.shape[0])
    rhs[0] = basis.mass  # integral of the constant member; others vanish
    lam, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = float(np.abs(A @ lam - rhs).max())
    if resid > _VANDERMONDE_TOL * max(1.0, basis.mass):
        raise CubatureError(
            f"moment residual {resid:.3e} exceeds tolerance: "
            f"nodes do not support degree {exact_degree}"
        )
    return CubatureRule(
        weight=w,
        degree=exact_degree,
        nodes=nodes,
        lambdas=lam,
        provenance=f"vandermonde weights, degree {exact_degree}, {nodes.provenance}",
    )


@dataclass(frozen=True)
class ExactnessReport:
    """Outcome of checking a rule against the moment oracle.

    ``residuals[t]`` is the largest error relative to the total mass over
    the Chebyshev tensor moments of total degree t, for t = 0..checked_through
    (``None`` for reports read from files written before it was recorded).
    """

    passed: bool
    declared_degree: int
    max_rel_error: float
    first_failure_degree: int | None
    checked_through: int
    exact_beyond_declared: bool
    residuals: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "declared_degree": self.declared_degree,
            "max_rel_error": self.max_rel_error,
            "first_failure_degree": self.first_failure_degree,
            "checked_through": self.checked_through,
            "exact_beyond_declared": self.exact_beyond_declared,
            "residuals": None if self.residuals is None else list(self.residuals),
        }


def exactness_check(rule: CubatureRule) -> ExactnessReport:
    """Compare rule sums with exact moments in the Chebyshev tensor basis.

    The rule sums sum_k lambda_k T_i(x_k) T_j(y_k) are compared with the
    modified moments int T_i T_j W.  Both are bounded by the total mass
    (|T_i| <= 1 on the square), so the error relative to it measures a
    failure at any degree; monomial moments of high degree are too small
    to show one.  A degree passes when that error is at most ``_EXACT_TOL``;
    degrees up to declared + ``_EXTRA_DEGREES`` are scanned to locate the
    first failing total degree.
    """
    residuals = _degree_residuals(rule.weight, rule.nodes.points, rule.lambdas, rule.degree + _EXTRA_DEGREES)
    return _exactness_report(rule.degree, residuals)


def _exactness_report(deg: int, residuals: np.ndarray) -> ExactnessReport:
    """The report for declared degree ``deg`` from the per-degree residuals
    through degree len(residuals) - 1."""
    failing = np.flatnonzero(~(residuals <= _EXACT_TOL))  # NaN counts as failing
    first_fail = int(failing[0]) if failing.size else None
    max_rel = float(residuals[: deg + 1].max())
    return ExactnessReport(
        passed=max_rel <= _EXACT_TOL,
        declared_degree=deg,
        max_rel_error=max_rel,
        first_failure_degree=first_fail,
        checked_through=len(residuals) - 1,
        exact_beyond_declared=first_fail is None or first_fail > deg + 1,
        residuals=tuple(residuals.tolist()),
    )


def _degree_residuals(w: WeightSpec, points: np.ndarray, lambdas: np.ndarray, degree: int) -> np.ndarray:
    """Largest |sum_k lambda_k T_i(x_k) T_j(y_k) - int T_i T_j W| / mass over
    i + j = t, for each total degree t = 0..degree, from the sums on 3/4 of the
    square: rows i < h against every j, the others against j <= degree - h: T(u) W T(v)^T
    on the grid of ``node_grid`` where that is the cheaper contraction (every family's
    nodes), else sums over node blocks whose two T tables hold at most ``_BLOCK_BYTES``."""
    err = -chebyshev_moments(w, degree)
    scale = -err[0, 0]  # the mass
    h = (degree + 2) // 2
    grid = node_grid(points, lambdas, 0.75 * (degree + 1))
    if grid is not None:
        u, v, _, _, W = grid
        tu, wv = chebyshev_t_table(degree, u), W @ chebyshev_t_table(degree, v).T  # wv[a, j] = sum_b W_ab T_j(v_b)
        err[:h] += tu[:h] @ wv
        err[h:, :degree + 1 - h] += tu[h:] @ wv[:, :degree + 1 - h]
    else:
        step = max(1, _BLOCK_BYTES // (16 * (degree + 1)))
        for s in range(0, len(points), step):
            t = chebyshev_t_table(degree, points[s:s + step].T)  # the x and y tables in one array
            t[:, 0] *= lambdas[s:s + step]
            err[:h] += t[:h, 0] @ t[:, 1].T
            err[h:, :degree + 1 - h] += t[h:, 0] @ t[:degree + 1 - h, 1].T
            del t  # before the next block's table
    err = np.abs(err, out=err) / scale
    # largest error (NaN if any) on each anti-diagonal i + j = t: err[i, t - i] is the view's [t, i], i <= t
    diag = np.lib.stride_tricks.as_strided(err, (degree + 1, degree + 1), (err.itemsize, err.itemsize * degree))
    return np.max(diag, axis=1, where=np.tri(degree + 1, dtype=bool), initial=0.0)


@dataclass(frozen=True)
class LowerBounds:
    dim_bound: int
    rank_bound: int
    moeller_bound: int


def lower_bounds(w: WeightSpec, n: int) -> LowerBounds:
    """Node-count lower bounds for rules of degree 2n-1 (or 2n-2)."""
    dim_bound = n * (n + 1) // 2
    tt = three_term(w, n - 1)
    C = tt.A1 @ tt.A2.T - tt.A2 @ tt.A1.T
    sv = np.linalg.svd(C, compute_uv=False)
    rank = int((sv > 1e-10 * max(sv[0], 1.0)).sum()) if sv.size else 0
    rank_bound = dim_bound + rank // 2
    return LowerBounds(dim_bound=dim_bound, rank_bound=rank_bound, moeller_bound=moeller_count(n))


# ---------------------------------------------------------------------------
# serialization

_SCHEMA_VERSION = 1


def _rule_fields(rule: CubatureRule, nodes, lambdas) -> dict:
    """The fields of a rule file, in file order, around the given arrays."""
    d = {
        "schema_version": _SCHEMA_VERSION,
        "weight": weight_string(rule.weight),
        "family": rule.nodes.family,
        "n": rule.nodes.n,
        "degree": rule.degree,
        "nodes": nodes,
        "lambdas": lambdas,
        "provenance": rule.provenance,
        "oracle_report": rule.oracle_report.to_dict() if rule.oracle_report else None,
    }
    if rule.nodes.alpha is not None:
        d["alpha"] = rule.nodes.alpha
        d["beta"] = rule.nodes.beta
    return d


def rule_to_dict(rule: CubatureRule) -> dict:
    """The rule file as a dict; coordinates and weights are 17-digit strings.

    Each value is formatted on its own, so that ``json.dumps`` of this dict
    stays an independent reference for ``rule_to_json``, which formats each
    distinct value once.
    """
    nodes = [[format(x, ".17g"), format(y, ".17g")] for x, y in rule.nodes.points.tolist()]
    return _rule_fields(rule, nodes, [format(v, ".17g") for v in rule.lambdas.tolist()])


def _numbers(entries: list) -> np.ndarray:
    """``float`` of each entry, as an array.  When every entry is a string, as
    in files ``rule_to_json`` writes, each distinct string is parsed once.
    Numbers are converted one by one: -0.0 and 0.0 would share a dict key."""
    distinct = set(entries)  # a TypeError for a list or a dict
    if all(type(v) is str for v in distinct):
        values = map(dict(zip(distinct, map(float, distinct))).__getitem__, entries)
    else:
        values = map(float, entries)
    return np.fromiter(values, float, len(entries))


def rule_from_dict(d: dict) -> CubatureRule:
    if d.get("schema_version") != _SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    rows, lam = d["nodes"], d["lambdas"]
    if not isinstance(rows, list) or set(map(type, rows)) - {list} or set(map(len, rows)) - {2}:
        raise ValueError("every node needs exactly two coordinates")
    try:
        pts = _numbers(list(chain.from_iterable(rows))).reshape(-1, 2)
        lambdas = _numbers(lam)
    except TypeError:
        raise ValueError("every coordinate and weight must be a number or a numeric string") from None
    if not (np.isfinite(pts).all() and np.isfinite(lambdas).all()):
        raise ValueError("every coordinate and weight must be finite")
    for name in ("degree", "n"):
        if type(d[name]) is not int:
            raise ValueError(f"{name} must be an integer, not {d[name]!r}")
    if d["degree"] < 0:
        raise ValueError(f"degree must be non-negative, not {d['degree']}")
    if not isinstance(d["weight"], str):
        raise ValueError(f"weight must be a string, not {d['weight']!r}")
    ns = NodeSet(
        points=pts,
        family=d["family"],
        n=d["n"],
        expected_count=len(pts),
        alpha=d.get("alpha"),
        beta=d.get("beta"),
        provenance="loaded from file",
    )
    rep, report = d.get("oracle_report"), None
    if rep:  # files written before the residuals were recorded have none
        rep = dict(rep, residuals=None if rep.get("residuals") is None else tuple(rep["residuals"]))
        report = ExactnessReport(**{name: rep[name] for name in ExactnessReport.__dataclass_fields__})
    return CubatureRule(
        weight=parse_weight(d["weight"]),
        degree=d["degree"],
        nodes=ns,
        lambdas=lambdas,
        provenance=d.get("provenance", ""),
        oracle_report=report,
        validate=False,
    )


def rule_to_json(rule: CubatureRule) -> str:
    """The rule file: the text of ``json.dumps(rule_to_dict(rule), indent=2)``.

    This is the only writer of rule files.  The scalar fields go through
    ``json.dumps``; the nodes and the lambdas go through
    ``nodes._strings_json``, the writer of node files' points, which formats
    each distinct value once into the same indent-2 layout of
    17-significant-digit strings.
    """
    return _json_text(_rule_fields(rule, [], []), nodes=_strings_json(rule.nodes.points),
                      lambdas=_strings_json(rule.lambdas))


def rule_from_json(text: str) -> CubatureRule:
    return rule_from_dict(json.loads(text))
