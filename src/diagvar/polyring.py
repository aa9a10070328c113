"""Exact sparse multivariate polynomials over Z and Z/p.

A polynomial is stored in one form only: a dict from packed exponent keys to
nonzero coefficients.  A key is a single int holding one exponent per
variable in a fixed-width bit field, so a monomial product is one integer
addition.  Each polynomial carries an upper bound on its exponents, and the
field width is the smallest multiple of 8 bits that keeps the bound below the
field's top bit (8 bits up to 127, 16 up to 32767, ...).  A product whose
exponent bound would pass its operands' field re-packs them at the wider
width.  A product then runs one of two loops, picked by its exponent bound
alone: a product capped below its field's limit tests each key against the
cap with a mask, and every other product runs a loop without that test.
A total degree is its key modulo 2**w - 1 (past a bound, its unit-weight
`_key_weights` sum).  Exponent tuples are packed by `__init__` and `_key`,
unpacked by `terms`, and repacked by `_at` to widen a field; formatting
reads each key's bytes.

Coefficients are Python ints, so integer arithmetic never overflows; mod-p
coefficients are kept as canonical representatives in [0, p).
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from itertools import compress, repeat

from .errors import ContextError, DomainError, PolyParseError

__all__ = [
    "Domain",
    "ZZ",
    "GF",
    "VarContext",
    "MvPolynomial",
    "parse_poly",
    "format_poly",
]


def _is_prime(p: int) -> bool:
    # trial division up to isqrt(p); below 2^31 that is at most 46340
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


class Domain:
    """Coefficient domain: exact integers (p is None) or the prime field Z/p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and (p < 2 or p >= 2**31 or not _is_prime(p)):
            raise DomainError(f"modulus must be a prime in [2, 2^31), got {p}")
        self.p = p

    @property
    def is_modp(self) -> bool:
        return self.p is not None

    def reduce(self, c: int) -> int:
        return c if self.p is None else c % self.p

    def __eq__(self, other):
        return isinstance(other, Domain) and self.p == other.p

    def __hash__(self):
        return hash(("Domain", self.p))

    def __repr__(self):
        return "ZZ" if self.p is None else f"GF({self.p})"


ZZ = Domain()


def GF(p: int) -> Domain:
    """The prime field with p elements."""
    return Domain(p)


class VarContext:
    """Ordered, immutable list of variable names shared by polynomials."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ContextError("variable names must be unique")
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}

    @classmethod
    def matrix(cls, n: int, with_t: bool = False) -> "VarContext":
        """Row-major x_i_j context (1-based) for an n-by-n generic matrix."""
        names = [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
        if with_t:
            names.append("t")
        return cls(names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContextError(f"unknown variable {name!r}") from None

    def with_var(self, name: str) -> "VarContext":
        if name in self._index:
            raise ContextError(f"variable {name!r} already present")
        return VarContext(self.names + (name,))

    def __contains__(self, name) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarContext({list(self.names)!r})"


def _width(e: int) -> int:
    """Smallest field width, a multiple of 8 bits, holding e below its top bit."""
    return 8 * (e.bit_length() // 8 + 1)


def _pack(m, w: int) -> int:
    # the exponent of variable i sits in bits [w*i, w*(i+1))
    key = 0
    for i, x in enumerate(m):
        key |= x << (w * i)
    return key


def _unpack(key: int, w: int, arity: int) -> tuple:
    if w == 8:  # one byte per field: a third of the per-field read's time
        return tuple(key.to_bytes(arity, "little"))
    field = (1 << w) - 1
    return tuple((key >> (w * i)) & field for i in range(arity))


def _bound_masks(bound, w: int) -> tuple[int, int]:
    # (key + add) & flag is nonzero exactly when some exponent exceeds its
    # bound: adding 2^(w-1) - (b+1) to a field holding x < 2^(w-1) sets its
    # top bit iff x > b, and cannot carry into the next field.
    if bound is None:
        return 0, 0
    top = 1 << (w - 1)
    add = flag = 0
    for i, b in enumerate(bound):
        if b < top - 1:
            add |= (top - 1 - b) << (w * i)
            flag |= top << (w * i)
    return add, flag


def _mul_into(out: dict, ta: dict, tb: dict, sign: int = 1, masks=(0, 0)) -> None:
    """out += sign * ta * tb, for term dicts packed at one width, skipping
    every product key the masks flag.  Coefficients are left unreduced.
    When the masks flag nothing (every unbounded product), the loop runs
    without the mask test."""
    if len(ta) < len(tb):
        ta, tb = tb, ta
    items_b = list(tb.items())
    add, flag = masks
    get = out.get
    if flag:
        for ka, ca in ta.items():
            ca *= sign
            for kb, cb in items_b:
                k = ka + kb
                if (k + add) & flag:
                    continue
                v = get(k)
                out[k] = ca * cb if v is None else v + ca * cb
    else:
        for ka, ca in ta.items():
            ca *= sign
            for kb, cb in items_b:
                k = ka + kb
                v = get(k)
                out[k] = ca * cb if v is None else v + ca * cb


def _reduce_in_place(out: dict, p: int | None) -> dict:
    # out must be the caller's own dict: its zeros are deleted, not copied
    if p is None:
        zeros = [k for k, v in out.items() if not v]
    else:
        zeros = []
        for k, v in out.items():
            v %= p
            if v:
                out[k] = v
            else:
                zeros.append(k)
    for k in zeros:
        del out[k]
    return out


def _key_weights(keys, weight, w: int) -> list:
    """The weight sum(weight[i] * e_i) of each packed key of width w.  Byte
    j of field i weighs weight[i] * 256**j, so the sum is exact at every
    width."""
    step = w // 8
    size = step * len(weight)
    byte_weights = [c << (8 * j) for c in weight for j in range(step)]
    return [sum(map(operator.mul, byte_weights, key.to_bytes(size, "little"))) for key in keys]


class _Terms(Mapping):
    """Read-only view of a polynomial's terms, keyed by exponent tuples."""

    __slots__ = ("_f",)

    def __init__(self, f: "MvPolynomial"):
        self._f = f

    def __len__(self) -> int:
        return len(self._f._t)

    def items(self):
        f = self._f
        w, arity = f._w, len(f.ctx)
        return ((_unpack(k, w, arity), c) for k, c in f._t.items())

    def __iter__(self):
        return (m for m, _ in self.items())

    def __getitem__(self, m):
        key = self._f._key(tuple(m))
        if key not in self._f._t:
            raise KeyError(m)
        return self._f._t[key]


class MvPolynomial:
    """Immutable sparse polynomial over a Domain in a VarContext."""

    __slots__ = ("ctx", "dom", "_t", "_e", "_w")

    def __init__(self, ctx: VarContext, dom: Domain, terms=None):
        self.ctx = ctx
        self.dom = dom
        clean: dict = {}
        if terms:
            arity = len(ctx)
            items = terms.items() if isinstance(terms, Mapping) else terms
            for m, c in items:
                m = tuple(m)
                if len(m) != arity:
                    raise ContextError(
                        f"monomial arity {len(m)} does not match context arity {arity}"
                    )
                if any(e < 0 for e in m):
                    raise ValueError(f"negative exponent in monomial {m}")
                clean[m] = clean.get(m, 0) + c
        _reduce_in_place(clean, dom.p)
        self._e = max((max(m, default=0) for m in clean), default=0)
        self._w = _width(self._e)
        self._t = {_pack(m, self._w): c for m, c in clean.items()}

    @classmethod
    def _raw(cls, ctx, dom, packed: dict, e: int = 0, w: int = 8) -> "MvPolynomial":
        """Wrap reduced packed terms of width w whose exponents are <= e."""
        f = object.__new__(cls)
        f.ctx = ctx
        f.dom = dom
        f._t = packed
        f._e = e
        f._w = w
        return f

    @classmethod
    def zero(cls, ctx, dom) -> "MvPolynomial":
        return cls._raw(ctx, dom, {})

    @classmethod
    def constant(cls, ctx, dom, c: int) -> "MvPolynomial":
        c = dom.reduce(c)
        if not c:
            return cls.zero(ctx, dom)
        return cls._raw(ctx, dom, {0: c})

    @classmethod
    def one(cls, ctx, dom) -> "MvPolynomial":
        return cls.constant(ctx, dom, 1)

    @classmethod
    def variable(cls, ctx, dom, name: str) -> "MvPolynomial":
        return cls._raw(ctx, dom, {1 << (8 * ctx.index(name)): 1}, 1)

    @classmethod
    def monomial(cls, ctx, dom, exps, coeff: int = 1) -> "MvPolynomial":
        return cls(ctx, dom, {tuple(exps): coeff})

    # -- basic structure -------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """The nonzero coefficients keyed by exponent tuples (a read-only view)."""
        return _Terms(self)

    def __bool__(self) -> bool:
        return bool(self._t)

    def _key(self, m: tuple) -> int | None:
        """The packed key of exponent tuple m, or None when no term can have it."""
        if len(m) != len(self.ctx) or not all(0 <= x <= self._e for x in m):
            return None
        return _pack(m, self._w)

    def _at(self, w: int) -> dict:
        """The terms packed at field width w >= self._w."""
        if w == self._w:
            return self._t
        arity = len(self.ctx)
        return {_pack(_unpack(k, self._w, arity), w): c for k, c in self._t.items()}

    def coefficient(self, exps) -> int:
        """The stored coefficient of the given exponent tuple, or 0."""
        m = tuple(exps)
        if len(m) != len(self.ctx):
            raise ContextError("monomial arity does not match context arity")
        return self._t.get(self._key(m), 0)

    def _degrees(self):
        """The total degree of each term.  As 2**w = 1 mod 2**w - 1, it is
        key % (2**w - 1) whenever every degree is below 2**w - 1.  Two
        bounds can show that: arity * e, and the degree of the OR of all
        keys, as a field of the OR is at least the field's largest
        exponent.  Past both, it is the key's weight under unit weights."""
        m = (1 << self._w) - 1
        ones = (1,) * len(self.ctx)
        if len(self.ctx) * self._e < m or _key_weights([reduce(operator.or_, self._t, 0)], ones, self._w)[0] < m:
            return map(operator.mod, self._t, repeat(m))
        return _key_weights(self._t, ones, self._w)

    def total_degree(self) -> int:
        if not self._t:
            raise ValueError("zero polynomial has no degree")
        return max(self._degrees())

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if degrees differ."""
        if not self._t:
            raise ValueError("zero polynomial has no homogeneous degree")
        degs = set(self._degrees())
        return degs.pop() if len(degs) == 1 else None

    def leading_monomial(self) -> tuple:
        """Greatest monomial in graded reverse lexicographic order."""
        if not self._t:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))

    def _check_compat(self, other: "MvPolynomial"):
        if self.ctx != other.ctx:
            raise ContextError("operands live in different variable contexts")
        if self.dom != other.dom:
            raise DomainError("operands live in different coefficient domains")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = MvPolynomial.constant(self.ctx, self.dom, other)
        if not isinstance(other, MvPolynomial):
            return NotImplemented
        self._check_compat(other)
        w = max(self._w, other._w)
        a, b = self._at(w), other._at(w)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            out[k] = out.get(k, 0) + c
        return MvPolynomial._raw(self.ctx, self.dom, _reduce_in_place(out, self.dom.p), max(self._e, other._e), w)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        if isinstance(other, int):
            other = MvPolynomial.constant(self.ctx, self.dom, other)
        if not isinstance(other, MvPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        """int - polynomial.  No code in the package subtracts a polynomial
        from an int; this stays because `perfbench/passes.py` wraps it when
        it traces the ring's additions."""
        return (-self) + other

    def _scaled(self, c: int) -> "MvPolynomial":
        c = self.dom.reduce(c)
        if not c or not self._t:
            return MvPolynomial.zero(self.ctx, self.dom)
        p = self.dom.p
        if p is None:
            terms = {k: cc * c for k, cc in self._t.items()}
        else:
            # p prime and both factors nonzero mod p, so no zeros appear
            terms = {k: cc * c % p for k, cc in self._t.items()}
        return MvPolynomial._raw(self.ctx, self.dom, terms, self._e, self._w)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, MvPolynomial):
            return NotImplemented
        self._check_compat(other)
        return self._mul(other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        return NotImplemented

    def _mul(self, other: "MvPolynomial") -> "MvPolynomial":
        e = self._e + other._e
        w = max(self._w, other._w, _width(e))
        out: dict = {}
        _mul_into(out, self._at(w), other._at(w))
        return MvPolynomial._raw(self.ctx, self.dom, _reduce_in_place(out, self.dom.p), e, w)

    def pow_capped(
        self, k: int, cap: int | None = None, weight: Sequence[int] | None = None, floor: int | None = None
    ) -> "MvPolynomial":
        """Exact k-th power; with a cap, every monomial holding an exponent
        >= cap is deleted (sound because exponents only grow under
        multiplication).  The base is truncated at the cap once, and an
        accumulator starting at one is multiplied by it k times, dropping
        capped terms as each product forms.  For a small sparse base this
        forms fewer term pairs than square-and-multiply, whose last product
        pairs two large powers: at k = 6 on the killed P at n = 5 (32 terms,
        cap 13), 1,012,288 pairs against 2,640,160.

        With an integer weight vector and a floor, only the terms m of
        weight w.m >= floor are returned, each with its exact coefficient.

        The pruning reads one number per term, its deficit: mu - w.b for a
        base term b, mu the largest weight of a truncated base term, and for
        a product the sum of its factors' deficits, so j * mu - w.m after j
        products.  A term of the power is kept exactly when its deficit is
        at most dmax = k * mu - floor.  Every factor's deficit is >= 0, so
        each partial product's deficit is at most the final one's: a term
        past dmax after any product cannot reach a kept term, and is dropped
        at once (sound for every weight, as the cap is), while along each
        contribution to a kept term every partial product was kept too, so
        the kept term keeps its exact coefficient.  As the bound is the same
        at every level, the deficit rides in one more packed field, the top
        one, above the exponents: the key addition adds it, and the cap's
        mask tests it with a flag bit 2**b > dmax, b the bit length of
        dmax.  Base terms past dmax go before the first product, and the
        field is stripped from the result."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        if cap is not None and cap < 1:
            raise ValueError("cap must be at least 1")
        if (weight is None) != (floor is None):
            raise ValueError("a weight needs a floor and a floor needs a weight")
        if weight is not None and len(weight) != len(self.ctx):
            raise ContextError("weight length does not match context arity")
        if k == 0:
            one = MvPolynomial.one(self.ctx, self.dom)
            return one if weight is None or floor <= 0 else MvPolynomial.zero(self.ctx, self.dom)
        # after j products the exponents are at most j*e, and below the cap;
        # one width holds the last accumulator plus the base for the chain
        e = self._e if cap is None else min(self._e, cap - 1)
        acc_e, out_e = (k - 1) * e, k * e
        if cap is not None:
            acc_e, out_e = min(acc_e, cap - 1), min(out_e, cap - 1)
        w = max(self._w, _width(acc_e + e))
        add, flag = _bound_masks(None if cap is None else (cap - 1,) * len(self.ctx), w)
        base = {key: c for key, c in self._at(w).items() if not (key + add) & flag}
        if weight is not None:
            shift = w * len(self.ctx)
            weights = _key_weights(base, weight, w)
            mu = max(weights, default=0)
            dmax = k * mu - floor
            if dmax < 0:
                return MvPolynomial.zero(self.ctx, self.dom)
            base = {key + ((mu - x) << shift): c for (key, c), x in zip(base.items(), weights) if mu - x <= dmax}
            bit = 1 << dmax.bit_length()
            add |= (bit - 1 - dmax) << shift
            flag |= bit << shift
        p = self.dom.p
        acc: dict = {0: 1}
        for _ in range(k):
            out: dict = {}
            _mul_into(out, acc, base, 1, (add, flag))
            acc = out  # frees the previous power before the reduction
            _reduce_in_place(acc, p)
        if weight is not None:
            exps = (1 << shift) - 1
            acc = {key & exps: c for key, c in acc.items()}
        return MvPolynomial._raw(self.ctx, self.dom, acc, out_e, w)

    def substitute(self, assignments: Mapping[str, "MvPolynomial"]) -> "MvPolynomial":
        """Simultaneous substitution of variables by polynomials
        (a ring homomorphism on this context)."""
        return self._substitute(self._replacements(assignments), {})

    def _replacements(self, assignments: Mapping[str, "MvPolynomial"]) -> dict:
        """The assignments keyed by variable index, each checked against this
        polynomial's context and domain (an int becomes a constant).  Every
        polynomial of the same context and domain can take the result."""
        reps = {}
        for name, g in assignments.items():
            i = self.ctx.index(name)
            if isinstance(g, int):
                g = MvPolynomial.constant(self.ctx, self.dom, g)
            self._check_compat(g)
            reps[i] = g
        return reps

    def _substitute(self, reps: dict, masks: dict) -> "MvPolynomial":
        """The substitution of checked replacements (see `_replacements`).
        A polynomial using no replaced variable comes back as it is.  masks
        holds the mask of the replaced fields per width, made on first use,
        so the polynomials of one matrix can share it."""
        w = self._w
        touched = masks.get(w)
        if touched is None:
            touched = masks[w] = reduce(operator.or_, (((1 << w) - 1) << (w * i) for i in reps), 0)
        if not reduce(operator.or_, self._t, 0) & touched:
            return self
        # an exponent of the image is at most deg(self) * max(1, max e(g))
        e = self.total_degree() * max([1] + [g._e for g in reps.values()])
        w = max([self._w, _width(e)] + [g._w for g in reps.values()])
        field = (1 << w) - 1
        pow_cache: dict = {}
        out: dict = {}
        for key, c in self._at(w).items():
            parts = []
            for i, g in reps.items():
                x = (key >> (w * i)) & field
                if x:
                    key -= x << (w * i)
                    gp = pow_cache.get((i, x))
                    if gp is None:
                        gp = pow_cache[(i, x)] = (g if x == 1 else g.pow_capped(x))._at(w)
                    parts.append(gp)
            acc = {key: c}
            for gp in parts:
                acc, prev = {}, acc
                _mul_into(acc, prev, gp)
            for k, v in acc.items():
                out[k] = out.get(k, 0) + v
        return MvPolynomial._raw(self.ctx, self.dom, _reduce_in_place(out, self.dom.p), e, w)

    # -- context and domain changes ---------------------------------------

    def with_domain(self, dom: Domain) -> "MvPolynomial":
        """Reinterpret the coefficients; only Z -> Z/p reduction is allowed."""
        if dom == self.dom:
            return self
        if self.dom.is_modp:
            raise DomainError(f"cannot convert coefficients from {self.dom!r} to {dom!r}")
        # a copy: _reduce_in_place deletes zero terms from the dict it is
        # given, and self keeps its own
        terms = _reduce_in_place(dict(self._t), dom.p)
        return MvPolynomial._raw(self.ctx, dom, terms, self._e, self._w)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = MvPolynomial.constant(self.ctx, self.dom, other)
        if not isinstance(other, MvPolynomial) or (self.dom, self.ctx) != (other.dom, other.ctx):
            return False
        w = max(self._w, other._w)
        return self._at(w) == other._at(w)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MvPolynomial({format_poly(self)!r})"


# -- canonical text form ----------------------------------------------------


class _Powers(dict):
    """The rendered powers of one variable, name at 1 and name^e above,
    each made on first use."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = self.name if e == 1 else f"{self.name}^{e}"
        return text


def format_poly(f: MvPolynomial) -> str:
    """Canonical string form: graded-lexicographic order, total degree
    descending, ties broken by the exponent tuples themselves.  Parsing the
    result returns an equal polynomial.

    Each key is read once as a sequence of its exponents: at w = 8 its
    little-endian bytes, which compare bytewise as the exponent tuple does;
    wider, a tuple of one int per field.  A term's factors are picked from
    the variables' power tables by its nonzero exponents."""
    if not f._t:
        return "0"
    step = f._w // 8
    size = step * len(f.ctx)
    exps = map(int.to_bytes, f._t, repeat(size), repeat("little"))
    if step > 1:
        fields = [slice(i, i + step) for i in range(0, size, step)]
        exps = (tuple(map(int.from_bytes, map(b.__getitem__, fields), repeat("little"))) for b in exps)
    tables = list(map(_Powers, f.ctx.names))
    bits = []
    for _, m, c in sorted(zip(f._degrees(), exps, f._t.values()), reverse=True):
        body = "*".join(map(operator.getitem, compress(tables, m), compress(m, m)))
        sign = "+ "
        if c < 0:
            sign, c = "- ", -c
        if c != 1:
            body = f"{c}*{body}" if body else str(c)
        elif not body:
            body = "1"
        bits.append(sign + body)
    text = " ".join(bits)
    # the leading term's sign is written without its space, and + not at all
    return text[2:] if text[0] == "+" else "-" + text[2:]


_TOKEN_RE = re.compile(r"(\d+)|(x_\d+_\d+|t)|([+\-*^])|(\S)")


def _tokens(text: str):
    toks = []
    for mo in _TOKEN_RE.finditer(text):
        if mo.group(4):
            raise PolyParseError(f"unexpected character {mo.group(4)!r}", mo.start())
        if mo.group(1):
            toks.append(("int", mo.group(1), mo.start()))
        elif mo.group(2):
            toks.append(("var", mo.group(2), mo.start()))
        else:
            toks.append(("op", mo.group(3), mo.start()))
    return toks


def parse_poly(text: str, ctx: VarContext, dom: Domain) -> MvPolynomial:
    """Parse the ASCII grammar: terms joined by '+'/'-', each term an integer
    coefficient and/or '*'-joined variable powers like x_1_2^3."""
    toks = _tokens(text)
    n = len(toks)
    pos = 0

    def error(msg):
        at = toks[pos][2] if pos < n else len(text)
        raise PolyParseError(msg, at)

    def parse_varpow(exps):
        nonlocal pos
        kind, value, _ = toks[pos]
        if kind != "var":
            error("expected a variable")
        i = ctx.index(value)
        pos += 1
        e = 1
        if pos < n and toks[pos][:2] == ("op", "^"):
            pos += 1
            if pos >= n or toks[pos][0] != "int":
                error("expected a positive integer exponent after '^'")
            e = int(toks[pos][1])
            if e <= 0:
                error("exponent must be positive")
            pos += 1
        exps[i] += e

    def parse_term():
        nonlocal pos
        if pos >= n:
            error("expected a term")
        coeff = 1
        exps = [0] * len(ctx)
        kind, value, _ = toks[pos]
        if kind == "int":
            coeff = int(value)
            pos += 1
        elif kind == "var":
            parse_varpow(exps)
        else:
            error("expected a term")
        while pos < n and toks[pos][:2] == ("op", "*"):
            pos += 1
            parse_varpow(exps)
        return tuple(exps), coeff

    if not toks:
        raise PolyParseError("empty input", 0)
    terms = []
    sign = 1
    if toks[0][:2] == ("op", "-"):
        sign = -1
        pos += 1
    while True:
        exps, coeff = parse_term()
        terms.append((exps, sign * coeff))
        if pos >= n:
            break
        kind, value, _ = toks[pos]
        if kind == "op" and value in "+-":
            sign = 1 if value == "+" else -1
            pos += 1
        else:
            error("expected '+' or '-'")
    return MvPolynomial(ctx, dom, terms)
