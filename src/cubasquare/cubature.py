"""Cubature rules: weight computation, exactness verification, lower bounds."""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .basis2d import (
    _BLOCK_BYTES,
    KernelStarSpec,
    _degree_pairs,
    _kernel_star_diag,
    _ProductOrthoBasis2D,
    basis_for,
    dim_upto,
    three_term,
)
from .nodes import NodeSet, moeller_count
from .univariate import chebyshev_t_table
from .weights import (
    WeightSpec,
    chebyshev_moments,
    is_centrally_symmetric,
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
    """Weights 1/K*(z_k, z_k) for a Gaussian / minimal / near-minimal node set.

    For sigma = 0 this is direct.  Otherwise the discrete Gram of the
    complement set is calibrated with the cubature weights first: the
    closed form for the cheb1 weight (minimal, near-minimal and Padua
    nodes), the square unisolvent solve on the interpolation space for the
    others.  The reciprocal-kernel formula then reproduces those weights to
    roundoff; the agreement is asserted.
    ``spec`` itself is left as it is.
    """
    return _calibrated_rule(nodes, spec, w)[0]


def _closed_form_weights(points: np.ndarray) -> np.ndarray:
    """Unit-mass weights c(x_k) c(y_k) / sum_j c(x_j) c(y_j), c = 1/2 on the
    edges |t| = 1 and 1 inside: the cheb1 rules of degree 2n-1 on the minimal
    and near-minimal nodes (the sum is n^2 / 2; Xu, J. Approx. Theory 87,
    1996) and on the Padua points (n (n + 1) / 2; Caliari, De Marchi,
    Sommariva, Vianello, Numer. Algorithms 56, 2011)."""
    c = np.where(np.abs(np.abs(points) - 1.0) <= 1e-12, 0.5, 1.0)
    c = c[:, 0] * c[:, 1]
    return c / c.sum()


def _row_reductions(F: np.ndarray, n: int, w_unit: np.ndarray | None):
    """The node reductions of ``_checked_calibration`` as one block, from the
    basis rows F of degree <= n at every node."""
    lo = dim_upto(n - 1)
    return [(0, np.einsum("ij,ij->j", F[:lo], F[:lo]), F[lo:], None if w_unit is None else F[:lo] @ w_unit)]


def _separable_reductions(basis, n: int, pts: np.ndarray, w_unit: np.ndarray | None):
    """The node reductions of ``_checked_calibration`` for a product basis
    p_a(x) q_b(y), over node blocks, from the 1-D tables alone:
    |F_low|^2 = sum_a p_a(x)^2 C_{n-1-a}(y) with C_j = sum_{b <= j} q_b(y)^2,
    the degree-n rows p_{n-k}(x) q_k(y), and F_low w, the entries a + b <= n-1
    of P_x diag(w) P_y^T.  The tables of a block and their products hold at
    most ``_BLOCK_BYTES``."""
    dx, dy = _degree_pairs(n - 1)
    step = max(1, _BLOCK_BYTES // (48 * (n + 1)))
    for s in range(0, len(pts), step):
        px, py = basis.axis_tables(n, pts[s:s + step, 0], pts[s:s + step, 1])
        low_sq = np.einsum("ij,ij->j", np.square(px[:n]), np.cumsum(np.square(py[:n]), axis=0)[::-1])
        low_w = None if w_unit is None else ((px[:n] * w_unit[s:s + step]) @ py[:n].T)[dx, dy]
        yield s, low_sq, px[n::-1] * py, low_w


def _calibrated_rule(nodes: NodeSet, spec: KernelStarSpec, w: WeightSpec):
    """``weights_from_kernel`` together with the spec calibrated on ``nodes``
    (a copy whose ``s_matrix`` is the discrete Gram S; ``spec`` for sigma = 0).

    The cheb1 weights come from their closed form, checked against the
    moments through degree 2n-1.  Product bases are checked from their 1-D
    tables over node blocks, so no N x N or dim x N array is formed; the
    other weights solve the dense N x N unisolvent system first, and gencheb
    is checked on its basis rows."""
    if weight_string(w) != weight_string(spec.weight):
        raise CubatureError("weight does not match kernel spec")
    basis = basis_for(w)
    n, sigma, pts = spec.n, spec.sigma, nodes.points
    lo = dim_upto(n - 1)
    if len(nodes) != lo + sigma:
        raise CubatureError(f"interpolation space dimension {lo + sigma} != node count {len(nodes)}")
    closed = sigma > 0 and weight_string(w) == "cheb1"
    w_unit, failures, report = None, [], None
    if closed:
        # the moments through 2n + 2 once: the build check through 2n - 1
        # and the rule's oracle report, as exactness_check would give it
        w_unit = _closed_form_weights(pts)
        residuals = _degree_residuals(w, pts, basis.mass * w_unit, 2 * n + 2)
        report = _exactness_report(2 * n - 1, residuals)
        resid = float(residuals[:2 * n].max())
        if not resid <= 1e-10:
            failures.append(f"closed-form weights miss the moments through degree {2 * n - 1} "
                            f"(residual {resid:.2e})")
    if isinstance(basis, _ProductOrthoBasis2D) and (closed or not sigma):
        reductions = _separable_reductions(basis, n, pts, w_unit)
    else:
        F = basis.eval_upto(n, pts[:, 0], pts[:, 1])
        if sigma and not closed:
            rhs = np.zeros(len(nodes))
            rhs[0] = F[0, 0]  # constant member value (= 1)
            w_unit = np.linalg.solve(np.vstack([F[:lo], spec.q_coeffs @ F[lo:]]), rhs)
        reductions = _row_reductions(F, n, w_unit)
    spec, kdiag = _checked_calibration(spec, reductions, w_unit, len(nodes), failures)
    rule = CubatureRule(
        weight=w,
        degree=2 * n - 1 if sigma else 2 * n - 2,
        nodes=nodes,
        lambdas=basis.mass * w_unit if closed else basis.mass / kdiag,
        provenance=f"{'closed-form' if closed else 'kernel'} weights, sigma={sigma}, {nodes.provenance}",
        oracle_report=report,
    )
    return rule, spec


def _checked_calibration(spec: KernelStarSpec, reductions, w_unit: np.ndarray | None, count: int,
                         failures: list[str]):
    """Check a kernel spec, and unit-mass weights ``w_unit`` on it, over node
    blocks of ``count`` nodes; return the spec calibrated with S = (Q w) Q^T
    and mass * K*(z_k, z_k).  Each block of ``reductions`` is (start,
    |F_low|^2, degree-n rows, F_low w over the block or None), with F_low the
    basis rows of degree <= n-1.

    The vanishing combinations must vanish on the nodes.  For sigma > 0, the
    weights must also satisfy the unisolvent equations [F_low; Q] w = e_0,
    K* must be positive, and mass / K* must reproduce mass * w; every failing
    one of these is named in the error, after the earlier ``failures``.
    """
    low_sq = np.empty(count)  # |F_low(z_k)|^2
    Q = np.empty((spec.sigma, count))
    low_w = np.zeros(dim_upto(spec.n - 1))  # F_low w
    van = 0.0
    for s, sq, Fn, lw in reductions:
        e = s + len(sq)
        van = max(van, float(np.abs(spec.p_coeffs @ Fn).max(initial=0.0)))
        low_sq[s:e] = sq
        Q[:, s:e] = spec.q_coeffs @ Fn
        if lw is not None:
            low_w += lw
    if van > 1e-8:
        raise CubatureError(f"node set is not the common-zero set of the spec (residual {van:.2e})")
    if not spec.sigma:
        return spec, low_sq
    spec = replace(spec, s_matrix=(Q * w_unit) @ Q.T)
    kdiag = _kernel_star_diag(spec, low_sq, Q)[0]
    low_w[0] -= 1.0
    resid = max(float(np.abs(low_w).max()), float(np.abs(Q @ w_unit).max()))
    if not resid <= 1e-10:
        failures.append(f"weights miss the unisolvent equations [F_low; Q] w = e_0 (residual {resid:.2e})")
    if not kdiag.min() > 0:
        failures.append("K*(z, z) <= 0: node set does not match the kernel spec")
    gap = float(np.abs(w_unit * kdiag - 1.0).max())
    if not gap <= 1e-8:
        failures.append(f"reciprocal-kernel weights disagree with the unisolvent weights (relative gap {gap:.2e})")
    if failures:
        raise CubatureError("; ".join(failures))
    return spec, kdiag


def weights_from_vandermonde(
    nodes: NodeSet,
    w: WeightSpec,
    exact_degree: int,
    tol: float = 1e-10,
) -> CubatureRule:
    """Least-squares moment matching on the orthonormal basis of Pi_exact_degree^2.

    Raises if the residual exceeds ``tol`` relative to the total mass: the
    node set then does not support the claimed degree.
    """
    basis = basis_for(w)
    pts = nodes.points
    A = basis.eval_upto(exact_degree, pts[:, 0], pts[:, 1])
    rhs = np.zeros(A.shape[0])
    rhs[0] = basis.mass  # integral of the constant member; others vanish
    lam, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = float(np.abs(A @ lam - rhs).max())
    if resid > tol * max(1.0, basis.mass):
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


def exactness_check(rule: CubatureRule, tol: float = 1e-9, extra_degrees: int = 3) -> ExactnessReport:
    """Compare rule sums with exact moments in the Chebyshev tensor basis.

    The rule sums sum_k lambda_k T_i(x_k) T_j(y_k) are compared with the
    modified moments int T_i T_j W.  Both are bounded by the total mass
    (|T_i| <= 1 on the square), so the error relative to it measures a
    failure at any degree; monomial moments of high degree are too small
    to show one.  Degrees up to declared + extra are scanned to locate the
    first failing total degree.
    """
    residuals = _degree_residuals(rule.weight, rule.nodes.points, rule.lambdas, rule.degree + extra_degrees)
    return _exactness_report(rule.degree, residuals, tol)


def _exactness_report(deg: int, residuals: np.ndarray, tol: float = 1e-9) -> ExactnessReport:
    """The report for declared degree ``deg`` from the per-degree residuals
    through degree len(residuals) - 1."""
    failing = np.flatnonzero(~(residuals <= tol))  # NaN counts as failing
    first_fail = int(failing[0]) if failing.size else None
    max_rel = float(residuals[: deg + 1].max())
    return ExactnessReport(
        passed=max_rel <= tol,
        declared_degree=deg,
        max_rel_error=max_rel,
        first_failure_degree=first_fail,
        checked_through=len(residuals) - 1,
        exact_beyond_declared=first_fail is None or first_fail > deg + 1,
        residuals=tuple(residuals.tolist()),
    )


def _degree_residuals(w: WeightSpec, points: np.ndarray, lambdas: np.ndarray, degree: int) -> np.ndarray:
    """Largest |sum_k lambda_k T_i(x_k) T_j(y_k) - int T_i T_j W| / mass over
    i + j = t, for each total degree t = 0..degree."""
    mom = chebyshev_moments(w, degree)
    tx = chebyshev_t_table(degree, points[:, 0])
    tx *= lambdas
    err = np.abs(tx @ chebyshev_t_table(degree, points[:, 1]).T - mom) / mom[0, 0]
    # largest error on each anti-diagonal i + j = t
    residuals = np.zeros(2 * degree + 1)
    np.maximum.at(residuals, np.add.outer(np.arange(degree + 1), np.arange(degree + 1)), err)
    return residuals[: degree + 1]


@dataclass(frozen=True)
class LowerBounds:
    dim_bound: int
    rank_bound: int
    moeller_bound: int | None


def lower_bounds(w: WeightSpec, n: int) -> LowerBounds:
    """Node-count lower bounds for rules of degree 2n-1 (or 2n-2)."""
    dim_bound = n * (n + 1) // 2
    tt = three_term(w, n - 1)
    C = tt.A1 @ tt.A2.T - tt.A2 @ tt.A1.T
    sv = np.linalg.svd(C, compute_uv=False)
    rank = int((sv > 1e-10 * max(sv[0], 1.0)).sum()) if sv.size else 0
    rank_bound = dim_bound + rank // 2
    moeller = moeller_count(n) if is_centrally_symmetric(w) else None
    return LowerBounds(dim_bound=dim_bound, rank_bound=rank_bound, moeller_bound=moeller)


# ---------------------------------------------------------------------------
# serialization

_SCHEMA_VERSION = 1


def rule_to_dict(rule: CubatureRule) -> dict:
    d = {
        "schema_version": _SCHEMA_VERSION,
        "weight": weight_string(rule.weight),
        "family": rule.nodes.family,
        "n": rule.nodes.n,
        "degree": rule.degree,
        "nodes": [[format(x, ".17g"), format(y, ".17g")] for x, y in rule.nodes.points],
        "lambdas": [format(v, ".17g") for v in rule.lambdas],
        "provenance": rule.provenance,
        "oracle_report": rule.oracle_report.to_dict() if rule.oracle_report else None,
    }
    if rule.nodes.alpha is not None:
        d["alpha"] = rule.nodes.alpha
        d["beta"] = rule.nodes.beta
    return d


def rule_from_dict(d: dict) -> CubatureRule:
    if d.get("schema_version") != _SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    pts = np.array([[float(x), float(y)] for x, y in d["nodes"]])
    ns = NodeSet(
        points=pts,
        family=d["family"],
        n=int(d["n"]),
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
        degree=int(d["degree"]),
        nodes=ns,
        lambdas=np.array([float(v) for v in d["lambdas"]]),
        provenance=d.get("provenance", ""),
        oracle_report=report,
        validate=False,
    )


def rule_to_json(rule: CubatureRule) -> str:
    return json.dumps(rule_to_dict(rule), indent=2)


def rule_from_json(text: str) -> CubatureRule:
    return rule_from_dict(json.loads(text))
