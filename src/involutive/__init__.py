"""Exact-arithmetic analysis of involutive PDE symbol tableaux."""

__version__ = "0.1.0"

from .linalg import (  # noqa: F401
    QQ,
    RatMatrix,
    SingularMatrix,
    invert,
    kernel_basis,
    rank,
    rref,
    solve,
)
from .tableau import (  # noqa: F401
    BasisPair,
    CartanCharacters,
    SymbolPresentation,
    Tableau,
    characters_in_basis,
    decompose_element,
    extract_symbol_coefficients,
    find_generic_basis,
    restrict_to_U,
    tableau_from_coefficients,
)
from .involutivity import (  # noqa: F401
    BArray,
    CoefficientVariable,
    InvolutivityReport,
    QuadraticViolation,
    build_b_array,
    cartan_test,
    coefficient_variables,
    is_endovolutive,
    prolongation_dimension,
    quadratic_criterion,
    reduced_conditions,
    search_endovolutive_basis,
)
from .guillemin import (  # noqa: F401
    Subspace,
    b_of_phi,
    check_gnf_commutativity,
    check_theorem_a,
    coordinate_subspace,
    dim_w1_generic,
    w1_of_phi,
    w_minus,
    w_minus_of_phi,
    w_plus,
)
from .moduli import (  # noqa: F401
    CensusTooLarge,
    IdealGenerator,
    enumerate_census,
    export_ideal,
    sample_involutive,
)
