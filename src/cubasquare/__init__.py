"""Minimal and near-minimal cubature rules, Padua interpolation, and
Hankel-system rule discovery on the square [-1, 1]^2."""

from .basis2d import (
    KernelStarSpec,
    OrthoBasis2D,
    ThreeTermCoefficients,
    basis_for,
    kernel_star_matrix,
    star_spec_cheb1,
    star_spec_gaussian,
    star_spec_gencheb,
    star_spec_padua,
    three_term,
)
from .cubature import (
    CubatureError,
    CubatureRule,
    ExactnessReport,
    LowerBounds,
    exactness_check,
    lower_bounds,
    rule_from_json,
    rule_to_json,
    weights_from_kernel,
    weights_from_vandermonde,
)
from .interp import (
    Interpolant,
    convergence_report,
    family_rule,
    interpolate_kernel,
    interpolate_padua,
    lebesgue_constant,
)
from .nodes import (
    NodeSet,
    gauss_u_nodes,
    gencheb_nodes,
    lissajous_curve_point,
    min_t_nodes_even,
    moeller_count,
    near_min_t_nodes_odd,
    padua_points,
    vanishing_residual,
)
from .univariate import (
    eval_chebyshev_t,
    eval_chebyshev_u,
    gauss_rule_1d,
)
from .weights import (
    WeightSpec,
    cheb1,
    cheb2,
    constant,
    gegenbauer_product,
    gencheb,
    jacobi_product,
    mass,
    moment,
    parse_weight,
    weight_string,
)

__version__ = "0.1.0"
