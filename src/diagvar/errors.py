"""Exception types shared across the package, and the matrix-file schema
that both matrix loaders read through."""

__all__ = [
    "DiagvarError",
    "DomainError",
    "ContextError",
    "PolyParseError",
    "SchemaError",
    "SizeGuardError",
    "NotUnimodularError",
]


class DiagvarError(Exception):
    """Base class for all package errors."""


class DomainError(DiagvarError):
    """Invalid coefficient domain, or an operation mixing domains."""


class ContextError(DiagvarError):
    """Unknown variable, or an operation mixing variable contexts."""


class PolyParseError(DiagvarError):
    """Syntax error in the polynomial grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SchemaError(DiagvarError):
    """Malformed JSON input for a matrix or polynomial."""


class SizeGuardError(DiagvarError):
    """A documented size budget was exceeded; never a silent truncation."""


class NotUnimodularError(DiagvarError):
    """Operation requires an integer matrix with determinant +1 or -1."""


def read_matrix_json(obj, entry) -> list:
    """Read a matrix file, {"n": int, "entries": [[value, ...], ...]} with n
    rows of n values each, into rows of entry(value).  Every error is a
    SchemaError; one that entry raises names its row and column."""
    try:
        n = obj["n"]
        entries = obj["entries"]
    except (KeyError, TypeError) as e:
        raise SchemaError(f"malformed matrix JSON: {e}") from e
    if type(n) is not int:
        raise SchemaError(f"matrix size must be an integer, got {n!r}")
    if n < 1:
        raise SchemaError(f"matrix size must be positive, got {n}")
    if not isinstance(entries, list) or len(entries) != n:
        raise SchemaError(f"expected {n} rows, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    rows = []
    for i, row in enumerate(entries, 1):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"row {i}: expected {n} entries")
        out = []
        for j, value in enumerate(row, 1):
            try:
                out.append(entry(value))
            except DiagvarError as e:
                raise SchemaError(f"row {i}, column {j}: {e}") from e
        rows.append(out)
    return rows
