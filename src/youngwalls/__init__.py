"""Exact enumeration of three-row Young tableaux with walls, their
generating functions, and tree-child network counts."""

from types import ModuleType as _ModuleType

from .exact_arith import (
    NotIntegralError,
    binomial,
    double_factorial,
    double_factorials,
    exact_int,
    factorial,
)
from .wall_tables import (
    a_alt_columns,
    a_rec,
    a_rows,
    b,
    b3,
    b3_hook,
    b3_layers,
    b_rows,
    omega,
    omega_layers,
    omega_rows,
    tc_rec_rows,
)
from .closed_forms import (
    IntRow,
    a_closed,
    b_closed,
    gamma_dfact_terms,
    lemma28_rhs,
    lemma29_check,
    omega_init_layers,
)
from .series_engine import (
    Rows,
    Series,
    bk_from_table,
    catalan_series,
    dk_closed,
    dk_from_table,
    dk_kernel,
    kernel_levels,
    kernel_residual,
    neg_half_pow_series,
    series_mul,
    shift_up,
    x2_series,
)
from .poset_lab import (
    CAPACITY,
    CapacityError,
    Poset,
    a_brute,
    b3_brute,
    b_brute,
    b_from_u,
    b_monster,
    build_D,
    build_F,
    build_Ftilde,
    build_R,
    build_U,
    count_linear_extensions,
    f_closed,
    f_sum,
    forest_hook_count,
    ftilde,
    r_sum,
    tableau_poset,
    u_rows,
)
from .tree_child import (
    tc,
    tc_asym_log,
    tc_asym_rel_error,
    tc_closed,
    tc_from_a,
)

__version__ = "0.1.0"

# every public binding that is not a module: the names imported above
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
