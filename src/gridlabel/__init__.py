"""Distance-constrained labelings of the infinite square grid.

Vertices at Manhattan distance r <= k must receive labels differing by
at least k+1-r. The package builds linear modular schemes
L(x, y) = (a*x + b*y) mod c for any supported k, verifies them
exhaustively (offset-diamond reduction plus independent windowed brute
force), audits the no-hole property, computes lower/upper bounds with
exact rational ratios, and provides an exact branch-and-prune search on
small patches as independent ground truth.
"""

from .bounds import (
    EVEN_K,
    ODD_K,
    BoundsRecord,
    LowerBound,
    bounds_table,
    lambda_lb,
    lb_summation,
    ratio,
    triangular_convolution,
)
from .lattice import Vertex, ball, sphere, t_set
from .scheme import (
    EVEN_K_EVEN_P,
    EVEN_K_ODD_P,
    GCD_AB_ALLOWED,
    ODD_K_EVEN_P,
    ODD_K_ODD_P,
    LabelingScheme,
    UnsupportedK,
    label,
    label_many,
    label_rows,
    label_window,
    lambda_ub,
    scheme_params,
)
from .search import (
    InvalidPatch,
    Patch,
    PatchSearchResult,
    exact_span,
    probe_feasible,
)
from .verifier import (
    BudgetExceeded,
    NoHoleReport,
    VerificationVerdict,
    ViolationReport,
    check_diamond,
    check_no_hole,
    check_window,
    label_difference,
    window_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "Vertex", "sphere", "ball", "t_set",
    "LabelingScheme", "UnsupportedK", "scheme_params", "label",
    "label_many", "label_rows", "label_window", "lambda_ub",
    "ODD_K_ODD_P", "ODD_K_EVEN_P", "EVEN_K_ODD_P", "EVEN_K_EVEN_P",
    "GCD_AB_ALLOWED",
    "ViolationReport", "VerificationVerdict", "NoHoleReport",
    "BudgetExceeded", "label_difference",
    "check_diamond", "check_window", "window_pairs", "check_no_hole",
    "LowerBound", "BoundsRecord", "lambda_lb", "lb_summation",
    "triangular_convolution", "ratio", "bounds_table", "EVEN_K", "ODD_K",
    "Patch", "PatchSearchResult", "InvalidPatch",
    "exact_span", "probe_feasible",
]
