"""Fedder-criterion engine: decide whether F_p[x...]/(f) is F-pure at the
homogeneous maximal ideal by testing f^(p-1) against the bracket ideal
generated by the p-th powers of the variables."""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .errors import ContextError
from .polyring import GF, MvPolynomial

__all__ = ["FedderVerdict", "fedder_check"]


class FedderVerdict(NamedTuple):
    """F-purity outcome.  A witness monomial (every exponent <= p-1, nonzero
    coefficient in the truncated power) is present exactly when fpure."""

    fpure: bool
    witness: tuple | None
    p: int
    var_count: int


def fedder_check(f: MvPolynomial, p: int, weight: Sequence[int] | None = None) -> FedderVerdict:
    """Compute f^(p-1) truncated at the bracket ideal; F-pure iff nonzero.

    When f is homogeneous of degree equal to its variable count, only the
    all-(p-1) monomial t can survive truncation, so t is the witness
    whenever the power is nonzero; otherwise the witness is the power's
    leading monomial.

    An integer weight vector w (one entry per variable) changes only the
    speed of the check, never the answer.  It is used only when t is the
    one monomial that can survive: the power is then built with floor w.t,
    and `MvPolynomial.pow_capped` keeps every term of weight at least w.t,
    t among them, with its exact coefficient, dropping every partial
    product that cannot reach one.  Otherwise the weight is ignored, but
    every call rejects one whose length is not the variable count.
    """
    if not f:
        raise ValueError("zero polynomial")
    nvars = len(f.ctx)
    if weight is not None and len(weight) != nvars:
        raise ContextError("weight length does not match context arity")
    g = f.with_domain(GF(p))
    if not g:
        return FedderVerdict(False, None, p, nvars)
    t = (p - 1,) * nvars if g.homogeneous_degree() == nvars else None
    if t is None:
        weight = None
    g = g.pow_capped(p - 1, cap=p, weight=weight, floor=None if weight is None else (p - 1) * sum(weight))
    if not g:
        return FedderVerdict(False, None, p, nvars)
    return FedderVerdict(True, t or g.leading_monomial(), p, nvars)
