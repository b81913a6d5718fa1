"""Relaxed-convexity extremal functions and Cayley-digraph edge isoperimetry.

The library evaluates the extremal majorant E(x) = min_k k*d(x)^(1-1/k)
of the class of functions satisfying f(lam*x1 + (1-lam)*x2) <=
lam*f(x1) + (1-lam)*f(x2) + |x2 - x1| with nonpositive endpoint values,
checks grid functions against that class and its relatives, recovers E
numerically as a discrete supremum, and exhaustively verifies the
edge-isoperimetric lower bound (1/m)*|G|*E(|A|/|G|) on Cayley digraphs of
small finite abelian groups.
"""

from .cayley import (
    AbelianGroup,
    ConnectionSet,
    GenericDigraph,
    VertexSet,
    edge_boundary,
    element_order,
    max_order,
)
from .catalog import CatalogEntry, load_catalog, verify_catalog
from .convexity import (
    TupleViolation,
    Violation,
    ViolationList,
    check_almost_convex,
    check_almost_convex_anchored,
    check_endpoint_reduction,
    check_mean_inequality,
    check_sharpened,
    check_under_parabola,
    make_tent,
    sample_concave,
)
from .extremal import (
    ConvergenceError,
    MajorantValue,
    branch_point,
    default_branch_cap,
    estimate_sup,
    majorant,
    majorant_grid,
    majorant_values,
    parabola,
    parabola_grid,
    rescale_majorant,
    sup_closed_form,
)
from .grid import GridFunction, read_csv, write_csv
from .isoperimetry import (
    ProfileEntry,
    ProfileReport,
    boundary_lower_bound,
    digraph_profile,
    profile,
    six_cycle_counterexample,
)

__version__ = "0.1.0"
