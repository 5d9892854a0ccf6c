"""Cubature rules: weight computation, exactness verification, lower bounds."""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .basis2d import KernelStarSpec, _kernel_star_node_factor, basis_for, dim_upto, three_term
from .nodes import NodeSet, moeller_count
from .univariate import chebyshev_t_table
from .weights import WeightSpec, chebyshev_moments, is_centrally_symmetric, mass, parse_weight, weight_string

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
    loading untrusted data for re-verification.
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
    complement set is calibrated first (square unisolvent solve on the
    interpolation space), after which the reciprocal-kernel formula
    reproduces those weights to roundoff; the agreement is asserted.
    ``spec`` itself is left as it is.
    """
    return _calibrated_rule(nodes, spec, w)[0]


def _calibrated_rule(nodes: NodeSet, spec: KernelStarSpec, w: WeightSpec):
    """``weights_from_kernel`` together with the spec calibrated on ``nodes``
    (a copy whose ``s_matrix`` is the discrete Gram S; ``spec`` for sigma = 0)."""
    if weight_string(w) != weight_string(spec.weight):
        raise CubatureError("weight does not match kernel spec")
    basis = basis_for(w, spec.n)
    n = spec.n
    pts = nodes.points
    F = basis.eval_upto(n, pts[:, 0], pts[:, 1])
    lo = dim_upto(n - 1)
    F_low, F_deg = F[:lo], F[lo:]
    # the vanishing combinations must actually vanish on the nodes
    van = spec.p_coeffs @ F_deg
    vmax = float(np.abs(van).max()) if van.size else 0.0
    if vmax > 1e-8:
        raise CubatureError(
            f"node set is not the common-zero set of the spec (residual {vmax:.2e})"
        )
    mass = basis.mass
    if spec.sigma == 0:
        if len(nodes) != lo:
            raise CubatureError("Gaussian configuration needs dim Pi_{n-1}^2 nodes")
        lam = mass / _kernel_star_node_factor(spec, F)
        degree = 2 * n - 2
    else:
        Q = spec.q_coeffs @ F_deg
        dim = lo + spec.sigma
        if dim != len(nodes):
            raise CubatureError(f"interpolation space dimension {dim} != node count {len(nodes)}")
        rhs = np.zeros(dim)
        rhs[0] = F_low[0, 0]  # constant member value (= 1)
        w_unit = np.linalg.solve(np.vstack([F_low, Q]), rhs)
        spec = replace(spec, s_matrix=(Q * w_unit) @ Q.T)
        kdiag = _kernel_star_node_factor(spec, F)
        if kdiag.min() <= 0:
            raise CubatureError("K*(z, z) <= 0: node set does not match the kernel spec")
        lam = mass / kdiag
        if np.abs(lam - mass * w_unit).max() > 1e-8 * mass:
            raise CubatureError("reciprocal-kernel weights disagree with unisolvent solve")
        degree = 2 * n - 1
    rule = CubatureRule(
        weight=w,
        degree=degree,
        nodes=nodes,
        lambdas=lam,
        provenance=f"kernel weights, sigma={spec.sigma}, {nodes.provenance}",
    )
    return rule, spec


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
    basis = basis_for(w, exact_degree)
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
    deg = rule.degree
    hi = deg + extra_degrees
    mom = chebyshev_moments(rule.weight, hi)
    tx = chebyshev_t_table(hi, rule.nodes.points[:, 0])
    tx *= rule.lambdas
    err = np.abs(tx @ chebyshev_t_table(hi, rule.nodes.points[:, 1]).T - mom) / mom[0, 0]
    # largest error on each anti-diagonal i + j = t
    residuals = np.zeros(2 * hi + 1)
    np.maximum.at(residuals, np.add.outer(np.arange(hi + 1), np.arange(hi + 1)), err)
    residuals = residuals[: hi + 1]
    failing = np.flatnonzero(~(residuals <= tol))  # NaN counts as failing
    first_fail = int(failing[0]) if failing.size else None
    max_rel = float(residuals[: deg + 1].max())
    return ExactnessReport(
        passed=max_rel <= tol,
        declared_degree=deg,
        max_rel_error=max_rel,
        first_failure_degree=first_fail,
        checked_through=hi,
        exact_beyond_declared=first_fail is None or first_fail > deg + 1,
        residuals=tuple(residuals.tolist()),
    )


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
    rep = d.get("oracle_report")
    report = (
        ExactnessReport(
            passed=rep["passed"],
            declared_degree=rep["declared_degree"],
            max_rel_error=rep["max_rel_error"],
            first_failure_degree=rep["first_failure_degree"],
            checked_through=rep["checked_through"],
            exact_beyond_declared=rep["exact_beyond_declared"],
            residuals=None if rep.get("residuals") is None else tuple(rep["residuals"]),
        )
        if rep
        else None
    )
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
