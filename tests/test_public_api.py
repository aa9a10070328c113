"""The package's public names: each module's __all__, republished whole."""

import pytest

import diagvar

PUBLIC = {
    # errors
    "DiagvarError", "DomainError", "ContextError", "PolyParseError",
    "SchemaError", "SizeGuardError", "NotUnimodularError",
    # polyring
    "Domain", "ZZ", "GF", "VarContext", "MvPolynomial", "parse_poly", "format_poly",
    # polymatrix
    "PolyMatrix",
    # fpurity
    "FedderVerdict", "fedder_check",
    # diagvariety
    "Specialization", "build_specialization", "generic_matrix", "diag_matrix",
    "compute_P", "verify_block_factorization", "verify_peeling_identity",
    "antidiag_unit_coeff", "SopNormalForm", "sop_normal_form", "check_fpure",
    # intlattice
    "IntMatrix", "int_det", "unimodular_inverse", "int_pow", "diag_of_powers_matrix",
    "ZLattice", "spans_Zn", "antidiagonal_ones", "PowerDiagonalReport",
    "power_diagonal_check", "BandReport", "verify_inverse_bands",
}


def test_the_public_names_are_listed_once_and_resolve():
    assert len(PUBLIC) == 40
    assert set(diagvar.__all__) == PUBLIC
    assert len(diagvar.__all__) == len(PUBLIC)
    for name in diagvar.__all__:
        assert getattr(diagvar, name) is not None, name


@pytest.mark.parametrize("name", ["intmatrix_from_json", "polymatrix_from_json", "read_matrix_json"])
def test_the_matrix_loaders_are_not_exported(name):
    assert not hasattr(diagvar, name)
