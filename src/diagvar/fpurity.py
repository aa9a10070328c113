"""Fedder-criterion engine: decide whether F_p[x...]/(f) is F-pure at the
homogeneous maximal ideal by testing f^(p-1) against the bracket ideal
generated by the p-th powers of the variables."""

from __future__ import annotations

from typing import NamedTuple

from .polyring import GF, MvPolynomial

__all__ = ["FedderVerdict", "fedder_check"]


class FedderVerdict(NamedTuple):
    """F-purity outcome.  A witness monomial (every exponent <= p-1, nonzero
    coefficient in the truncated power) is present exactly when fpure."""

    fpure: bool
    witness: tuple | None
    p: int
    var_count: int


def fedder_check(f: MvPolynomial, p: int) -> FedderVerdict:
    """Compute f^(p-1) truncated at the bracket ideal; F-pure iff nonzero.

    When f is homogeneous of degree equal to its variable count, only the
    all-(p-1) monomial t can survive truncation, so t is the witness
    whenever the power is nonzero; otherwise the witness is the power's
    leading monomial.
    """
    if not f:
        raise ValueError("zero polynomial")
    nvars = len(f.ctx)
    g = f.with_domain(GF(p))
    if not g:
        return FedderVerdict(False, None, p, nvars)
    t = (p - 1,) * nvars if g.homogeneous_degree() == nvars else None
    g = g.pow_capped(p - 1, cap=p)
    if not g:
        return FedderVerdict(False, None, p, nvars)
    return FedderVerdict(True, t or g.leading_monomial(), p, nvars)
