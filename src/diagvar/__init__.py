"""diagvar: exact checks for the matrix-of-diagonals determinant.

D(X) is the square matrix whose j-th column holds the main diagonal of
X^(j-1); P(X) = det(D(X)).  The package computes P exactly over Z and Z/p,
verifies its structural identities under the anti-diagonal specializations,
decides F-purity of the killed hypersurface via Fedder's criterion, and
checks the companion integer-lattice facts.
"""

from .errors import (
    ContextError,
    DiagvarError,
    DomainError,
    NormalFormError,
    NotUnimodularError,
    PolyParseError,
    SchemaError,
    SizeGuardError,
)
from .polyring import GF, ZZ, Domain, MvPolynomial, VarContext, format_poly, parse_poly
from .polymatrix import PolyMatrix
from .fpurity import FedderVerdict, fedder_check
from .diagvariety import (
    Specialization,
    SopNormalForm,
    antidiag_unit_coeff,
    build_specialization,
    check_fpure,
    compute_P,
    diag_matrix,
    generic_matrix,
    sop_normal_form,
    verify_block_factorization,
    verify_peeling_identity,
)
from .intlattice import (
    BandReport,
    IntMatrix,
    PowerDiagonalReport,
    ZLattice,
    antidiagonal_ones,
    diag_of_powers_matrix,
    int_det,
    int_pow,
    power_diagonal_check,
    spans_Zn,
    unimodular_inverse,
    verify_inverse_bands,
)

__version__ = "0.1.0"

__all__ = [
    "BandReport",
    "ContextError",
    "DiagvarError",
    "Domain",
    "DomainError",
    "FedderVerdict",
    "GF",
    "IntMatrix",
    "MvPolynomial",
    "NormalFormError",
    "NotUnimodularError",
    "PolyMatrix",
    "PolyParseError",
    "PowerDiagonalReport",
    "SchemaError",
    "SizeGuardError",
    "SopNormalForm",
    "Specialization",
    "VarContext",
    "ZLattice",
    "ZZ",
    "antidiag_unit_coeff",
    "antidiagonal_ones",
    "build_specialization",
    "check_fpure",
    "compute_P",
    "diag_matrix",
    "diag_of_powers_matrix",
    "fedder_check",
    "format_poly",
    "generic_matrix",
    "int_det",
    "int_pow",
    "parse_poly",
    "power_diagonal_check",
    "sop_normal_form",
    "spans_Zn",
    "unimodular_inverse",
    "verify_block_factorization",
    "verify_inverse_bands",
    "verify_peeling_identity",
]
