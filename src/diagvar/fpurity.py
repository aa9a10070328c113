"""Fedder-criterion engine: decide whether F_p[x...]/(f) is F-pure at the
homogeneous maximal ideal by testing f^(p-1) against the bracket ideal
generated by the p-th powers of the variables."""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import DomainError
from .polyring import GF, MvPolynomial

__all__ = ["FedderVerdict", "fedder_check"]


@dataclass(frozen=True)
class FedderVerdict:
    """F-purity outcome.  A witness monomial (every exponent <= p-1, nonzero
    coefficient in the truncated power) is present exactly when fpure."""

    fpure: bool
    witness: tuple | None
    p: int
    var_count: int


def _as_modp(f: MvPolynomial, p: int) -> MvPolynomial:
    dom = GF(p)
    if f.dom == dom:
        return f
    if f.dom.is_modp:
        raise DomainError(f"polynomial lives over GF({f.dom.p}), expected GF({p}) or Z")
    return f.with_domain(dom)


def fedder_check(f: MvPolynomial, p: int, weight: Sequence[int] | None = None) -> FedderVerdict:
    """Compute f^(p-1) truncated at the bracket ideal; F-pure iff nonzero.

    When f is homogeneous of degree equal to its variable count, only the
    all-(p-1) monomial t can survive truncation, so its coefficient is read
    off a half-power convolution sum of h[m] * h[t - m], h = f^k with
    k = (p-1)/2, instead of the full truncated power.  Both routes compute
    the same truncated power coefficientwise.

    An integer weight vector w (one entry per variable) changes only the
    speed of the half-power route, never the answer.  Let mu be the largest
    w-weight of a term of f below the cap.  A term t - m of h is a product
    of k such terms, so w.(t - m) <= k * mu and w.m >= w.t - k * mu.  The
    half power is therefore built only down to the floor w.t - k * mu:
    every m with its partner t - m in h lies above it, and both keep their
    exact coefficients (see `MvPolynomial.pow_capped`).  The p = 2 route
    and the inhomogeneous route ignore the weight.
    """
    if not f.terms:
        raise ValueError("zero polynomial")
    g0 = _as_modp(f, p)
    nvars = len(g0.ctx)
    if not g0.terms:
        return FedderVerdict(False, None, p, nvars)
    if p > 2 and g0.homogeneous_degree() == nvars:
        target = (p - 1,) * nvars
        k = (p - 1) // 2
        floor = None
        if weight is not None:
            mu = max((sum(map(operator.mul, weight, m)) for m in g0.terms if max(m) < p), default=0)
            floor = (p - 1) * sum(weight) - k * mu
        h = g0.pow_capped(k, cap=p, weight=weight, floor=floor)
        if h.mul_coefficient(h, target):
            return FedderVerdict(True, target, p, nvars)
        return FedderVerdict(False, None, p, nvars)
    g = g0.pow_capped(p - 1, cap=p)
    if g.terms:
        return FedderVerdict(True, g.leading_monomial(), p, nvars)
    return FedderVerdict(False, None, p, nvars)
