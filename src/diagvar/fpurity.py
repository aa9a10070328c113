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
    all-(p-1) monomial t can survive truncation, so its coefficient is read
    off a half-power convolution sum of h[m] * h[t - m], h = f^k with
    k = (p-1)/2, instead of the full truncated power.  Both routes compute
    the same truncated power coefficientwise.

    An integer weight vector w (one entry per variable) changes only the
    speed of the half-power route, never the answer.  The half power is
    built with top w.t: `MvPolynomial.pow_capped` keeps every m whose
    partner t - m is in h, both with their exact coefficients.  With mu
    the largest weight of a truncated term of f, a term m of f^k has
    deficit k * mu - w.m, the sum of its k factors' deficits mu - w.b,
    each >= 0; its partner t - m, a product of k terms too, weighs at most
    k * mu, so m has deficit at most 2 * k * mu - w.t.  That bound holds
    for every partial product on the way to m as well, since each
    partial product's deficit is at most the final one's, so the power is
    pruned by one bound at every level.  The p = 2 route and the
    inhomogeneous route ignore the weight, but every route rejects one
    whose length is not the variable count.
    """
    if not f:
        raise ValueError("zero polynomial")
    nvars = len(f.ctx)
    if weight is not None and len(weight) != nvars:
        raise ContextError("weight length does not match context arity")
    g0 = f.with_domain(GF(p))
    if not g0:
        return FedderVerdict(False, None, p, nvars)
    if p > 2 and g0.homogeneous_degree() == nvars:
        target = (p - 1,) * nvars
        top = None if weight is None else (p - 1) * sum(weight)
        h = g0.pow_capped((p - 1) // 2, cap=p, weight=weight, top=top)
        if h.mul_coefficient(h, target):
            return FedderVerdict(True, target, p, nvars)
        return FedderVerdict(False, None, p, nvars)
    g = g0.pow_capped(p - 1, cap=p)
    if g:
        return FedderVerdict(True, g.leading_monomial(), p, nvars)
    return FedderVerdict(False, None, p, nvars)
