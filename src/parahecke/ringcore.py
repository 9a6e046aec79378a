"""Exact arithmetic in Z[v, v^-1] with q = v^2.

All coefficients in the package live in this ring.  Working in the formal
square root v keeps the half-integral modulus-character twists representable
for arbitrary parameter inputs; group-realizable data only ever produces even
v-support (honest powers of q).

A polynomial is stored as a dict {exponent: coefficient} with no zero
coefficients; the zero polynomial is the empty dict.  Coefficients are
Python ints (arbitrary precision).

The module also holds the raw helpers shared by the layers above: the
in-place kernel on {exp: coeff} dicts, the sparse-module helpers (`_axpy`,
`_lincomb`, `_eliminate`) that accumulate {key: LaurentPoly} modules into raw
{key: {exp: coeff}} dicts and perform the steps of every triangular
elimination, the element class `SparseElt` whose linear structure (sums,
negation, scaling, equality, ordered terms, printing) the Hecke, group-algebra
and Bernstein elements share, and the Kronecker packing (`_pack`, `_unpack`)
that the Hecke rewriting engine runs on.  A packed polynomial is the int
Σ c·2^(k·(e - e0)): signed base-2^k digits above a base exponent e0, exact for
sums, products and multiplication by powers of v.  It unpacks correctly when every coefficient
has |c| < 2^(k-1), so the caller picks k from a bound on the result's
coefficients (for the Hecke products, see `hecke`).

>>> q = LaurentPoly.q()
>>> (q - 1) * (q + 1) == LaurentPoly.q_power(2) - 1
True
>>> LaurentPoly.q_power(2).exact_div(q) == q
True
"""

from __future__ import annotations

from math import comb

from .errors import NonDivisible, OddHalfPower

__all__ = ["LaurentPoly", "is_prime_power"]


# Low-level helpers on raw {exp: coeff} dicts.  LaurentPoly and the
# sparse-module helpers below accumulate through these to avoid churning
# wrapper objects in loops.

def _add_into(dst: dict, src: dict, scale: dict | None = None) -> None:
    """dst += src * scale (scale=None means 1), in place."""
    if scale is None:
        for e, c in src.items():
            n = dst.get(e, 0) + c
            if n:
                dst[e] = n
            else:
                del dst[e]
        return
    if len(scale) == 1:
        ((e2, c2),) = scale.items()
        for e1, c1 in src.items():
            e = e1 + e2
            n = dst.get(e, 0) + c1 * c2
            if n:
                dst[e] = n
            else:
                del dst[e]
        return
    for e1, c1 in src.items():
        for e2, c2 in scale.items():
            e = e1 + e2
            n = dst.get(e, 0) + c1 * c2
            if n:
                dst[e] = n
            else:
                del dst[e]


def _mul(a: dict, b: dict) -> dict:
    if len(b) == 1:
        ((e2, c2),) = b.items()
        if c2 == 1:
            return {e1 + e2: c1 for e1, c1 in a.items()}
        return {e1 + e2: c1 * c2 for e1, c1 in a.items()}
    if len(a) == 1:
        ((e1, c1),) = a.items()
        if c1 == 1:
            return {e1 + e2: c2 for e2, c2 in b.items()}
        return {e1 + e2: c1 * c2 for e2, c2 in b.items()}
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            n = out.get(e, 0) + c1 * c2
            if n:
                out[e] = n
            else:
                del out[e]
    return out


def _neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


# Kronecker packing.  A polynomial with every exponent ≥ e0 and every
# coefficient of absolute value < 2^(k-1) is the int Σ c·2^(k·(e - e0)): its
# value at x = 2^k after the shift by v^-e0.  Evaluation is a ring
# homomorphism, so sums, products and multiplication by v^j (a left shift by
# j·k bits) act on packed ints exactly; only the polynomial being unpacked
# needs its coefficients inside the digit range.

def _pack(d: dict, e0: int, k: int) -> int:
    """The int with signed base-2^k digit c at position e - e0, for each e: c in d.

    >>> _pack({0: 1, 2: -3}, 0, 4)   # 1 - 3·16²
    -767
    >>> _pack({-1: 2}, -1, 8)
    2
    """
    P = 0
    for e, c in d.items():
        P += c << (k * (e - e0))
    return P


def _unpack(P: int, e0: int, k: int) -> dict:
    """Inverse of _pack: the {exp: coeff} dict whose digits are |c| < 2^(k-1).

    >>> _unpack(-767, 0, 4)
    {0: 1, 2: -3}
    >>> _unpack(_pack({-3: -7, 5: 7}, -3, 4), -3, 4)
    {-3: -7, 5: 7}
    """
    out: dict = {}
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    e = e0
    while P:
        z = ((P & -P).bit_length() - 1) // k  # whole zero digits below the lowest set bit
        P >>= z * k
        e += z
        c = P & mask
        if c >= half:
            c -= mask + 1
        out[e] = c
        P = (P - c) >> k
        e += 1
    return out


# Sparse modules.  A module is {key: LaurentPoly} with no zero coefficients;
# an accumulator is the raw {key: {exp: coeff}} form with no empty entries.

def _axpy(acc: dict, src: dict, scale: dict | None = None) -> None:
    """acc += src * scale (scale=None means 1), in place; cancelled keys are dropped."""
    if scale is not None and not scale:
        return
    for k, p in src.items():
        tgt = acc.get(k)
        if tgt is None:
            acc[k] = dict(p.d) if scale is None else _mul(p.d, scale)
        else:
            _add_into(tgt, p.d, scale)
            if not tgt:
                del acc[k]


def _lincomb(pairs) -> dict:
    """Σ c·x over (x, c) pairs, x a module and c a raw scale (None means 1)."""
    acc: dict = {}
    for x, c in pairs:
        _axpy(acc, x, c)
    return acc


def _eliminate(residual: dict, pivot: dict, lead):
    """One elimination step: s = residual[lead] / pivot[lead], residual -= s·pivot.

    The division is exact (NonDivisible propagates).  Returns s, or None
    when lead is absent from the accumulator residual, which is then untouched.

    >>> residual = {"x": {2: 1}, "y": {0: 1}}                             # q·x + y
    >>> pivot = {"x": LaurentPoly.one(), "y": LaurentPoly.from_int(-1)}  # x - y
    >>> _eliminate(residual, pivot, "x")
    q
    >>> residual                                                          # (q + 1)·y
    {'y': {0: 1, 2: 1}}
    >>> _eliminate(residual, pivot, "x") is None
    True
    """
    got = residual.get(lead)
    if got is None:
        return None
    s = LaurentPoly(got).exact_div(pivot[lead])
    _axpy(residual, pivot, _neg(s.d))
    return s


class SparseElt:
    """An element of a sparse module: d = {key: LaurentPoly}, no zero coefficients.

    Holds the linear structure shared by the module classes above this layer
    (HeckeElt, GroupAlgElt, BernsteinElt).  A subclass adds its product, its
    term order `_term_key`, how one basis key prints (`_fmt_key`) and any
    coercion of scalars (`_coerce`).  Construction takes the parent (the
    algebra, datum or Bernstein engine) and d, dropping zero coefficients;
    `_wrap` builds an element from a raw accumulator, dropping empty entries.
    """

    __slots__ = ("parent", "d")

    def __init__(self, parent, d: dict):
        self.parent = parent
        self.d = {k: p for k, p in d.items() if p}

    @classmethod
    def _wrap(cls, parent, raw: dict):
        """The element with raw {key: {exp: coeff}} values; empty values are dropped."""
        out = cls.__new__(cls)
        out.parent = parent
        out.d = {k: LaurentPoly.__new_raw__(pd) for k, pd in raw.items() if pd}
        return out

    def _coerce(self, x):
        if type(x) is not type(self):
            raise TypeError(f"cannot coerce {type(x).__name__} into {type(self).__name__}")
        return x

    def __add__(self, other):
        return self._wrap(self.parent, _lincomb([(self.d, None), (self._coerce(other).d, None)]))

    __radd__ = __add__

    def __sub__(self, other):
        return self._wrap(self.parent, _lincomb([(self.d, None), (self._coerce(other).d, {0: -1})]))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._wrap(self.parent, {k: _neg(p.d) for k, p in self.d.items()})

    def scale(self, c):
        """c·self for c a LaurentPoly or an int."""
        c = _coerce(c)
        return self._wrap(self.parent, {k: _mul(p.d, c.d) for k, p in self.d.items()})

    def __eq__(self, other):
        if type(other) is type(self):
            return self.d == other.d
        return NotImplemented

    def __bool__(self):
        return bool(self.d)

    def is_zero(self) -> bool:
        return not self

    def terms(self) -> list:
        """(key, coefficient) pairs in the module's term order."""
        return [(k, self.d[k]) for k in sorted(self.d, key=self._term_key)]

    def __repr__(self):
        if not self.d:
            return "0"
        return " + ".join(f"({p})·{self._fmt_key(k)}" for k, p in self.terms())


class LaurentPoly:
    """Element of Z[v, v^-1], canonical sparse representation."""

    __slots__ = ("d",)

    def __init__(self, d: dict | None = None):
        self.d = {e: c for e, c in d.items() if c} if d else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    @classmethod
    def v_power(cls, k: int) -> "LaurentPoly":
        return cls({k: 1})

    @classmethod
    def q_power(cls, k: int) -> "LaurentPoly":
        return cls({2 * k: 1})

    @classmethod
    def q(cls) -> "LaurentPoly":
        return cls({2: 1})

    @classmethod
    def v(cls) -> "LaurentPoly":
        return cls({1: 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        out = dict(self.d)
        _add_into(out, other.d)
        return LaurentPoly.__new_raw__(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        out = dict(self.d)
        _add_into(out, _neg(other.d))
        return LaurentPoly.__new_raw__(out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return LaurentPoly.__new_raw__(_neg(self.d))

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return LaurentPoly.__new_raw__(_mul(self.d, other.d))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.d == ({0: other} if other else {})
        if isinstance(other, LaurentPoly):
            return self.d == other.d
        return NotImplemented

    def __hash__(self):
        d = self.d
        if d.keys() <= {0}:  # a constant hashes as the int it equals
            return hash(d.get(0, 0))
        return hash(frozenset(d.items()))

    def __bool__(self):
        return bool(self.d)

    @classmethod
    def __new_raw__(cls, d: dict) -> "LaurentPoly":
        p = cls.__new__(cls)
        p.d = d
        return p

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.d

    def is_one(self) -> bool:
        return self.d == {0: 1}

    def is_unit_monomial(self) -> bool:
        """True iff this is ±v^k, the units of Z[v, v^-1]."""
        if len(self.d) != 1:
            return False
        (c,) = self.d.values()
        return c in (1, -1)

    def min_exp(self) -> int:
        return min(self.d)

    # -- exact operations ----------------------------------------------------

    def exact_div(self, other) -> "LaurentPoly":
        """Exact quotient self/other; raises NonDivisible on a remainder."""
        other = _coerce(other)
        if not other.d:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.d:
            return LaurentPoly.zero()
        if len(other.d) == 1:
            # By a monomial c·v^k: term by term, from the top term down as
            # the long division below would go.
            ((k, lead),) = other.d.items()
            quot = {}
            for e in sorted(self.d, reverse=True):
                c, r = divmod(self.d[e], lead)
                if r:
                    raise NonDivisible(f"{self} is not divisible by {other}")
                quot[e - k] = c
            return LaurentPoly.__new_raw__(quot)
        # Shift both to honest polynomials and long-divide.
        sa, sb = self.min_exp(), other.min_exp()
        a = {e - sa: c for e, c in self.d.items()}
        b = {e - sb: c for e, c in other.d.items()}
        db = max(b)
        lead = b[db]
        quot: dict = {}
        rem = dict(a)
        while rem:
            dr = max(rem)
            if dr < db:
                raise NonDivisible(f"{self} is not divisible by {other}")
            c, r = divmod(rem[dr], lead)
            if r:
                raise NonDivisible(f"{self} is not divisible by {other}")
            quot[dr - db] = c
            for e, cb in b.items():
                k = e + dr - db
                n = rem.get(k, 0) - c * cb
                if n:
                    rem[k] = n
                else:
                    rem.pop(k, None)
        return LaurentPoly.__new_raw__({e + sa - sb: c for e, c in quot.items()})

    def eval_at_q(self, n: int):
        """Substitute q = n (positive integer; meant for prime powers).

        v evaluates through its positive square root, which is only defined
        on even v-support; otherwise OddHalfPower is raised.  Returns an int
        when integral, otherwise an exact Fraction (negative q-exponents).
        """
        from fractions import Fraction  # imported on use: only --q reaches here

        if n <= 0:
            raise ValueError("evaluation point must be a positive integer")
        total = Fraction(0)
        for e, c in self.d.items():
            if e % 2:
                raise OddHalfPower(f"odd v-exponent {e} present; q = v^2 substitution undefined")
            k = e // 2
            total += Fraction(c) * (Fraction(n) ** k)
        return int(total) if total.denominator == 1 else total

    def nonneg_in_q_minus_1(self) -> bool:
        """True iff q^s·self has nonnegative coefficients in powers of q − 1,
        s ≥ 0 the least shift clearing negative q-exponents; odd v-support fails.

        The coefficient at (q − 1)^j is Σ_e c_e·C(e, j) over the terms c_e·q^e
        of q^s·self.  Passing implies nonnegativity at every prime power q, but
        not conversely, and a larger shift may pass where s fails:
        q² − 3q + 3 = (q − 1)² − (q − 1) + 1 fails though it is positive at
        every q, while q·(q² − 3q + 3) = (q − 1)³ + 1 passes.
        """
        if any(e % 2 for e in self.d):
            return False
        shift = max(0, -min(self.d, default=0) // 2)
        terms = [(e // 2 + shift, c) for e, c in self.d.items()]
        top = max((e for e, _ in terms), default=-1)
        return all(sum(c * comb(e, j) for e, c in terms) >= 0 for j in range(top + 1))

    # -- serialization -------------------------------------------------------

    def to_pairs(self) -> list:
        """[[exponent, coefficient], ...] sorted by exponent (v-convention, q = v^2)."""
        return [[e, self.d[e]] for e in sorted(self.d)]

    def __str__(self):
        if not self.d:
            return "0"
        parts = []
        for e in sorted(self.d, reverse=True):
            c = self.d[e]
            if e == 0:
                t = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                if e == 2:
                    t = f"{mag}q"
                elif e % 2 == 0:
                    t = f"{mag}q^{e // 2}"
                elif e == 1:
                    t = f"{mag}v"
                else:
                    t = f"{mag}v^{e}"
            parts.append(("-" if c < 0 else "+", t))
        sign0, t0 = parts[0]
        out = ("-" if sign0 == "-" else "") + t0
        for sign, t in parts[1:]:
            out += f" {sign} {t}"
        return out

    __repr__ = __str__


def _operand(x):
    """x as a LaurentPoly, or NotImplemented for an operand of a foreign type,
    so that Python tries the other operand's reflected method."""
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.from_int(x)
    return NotImplemented


def _coerce(x) -> LaurentPoly:
    p = _operand(x)
    if p is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} into LaurentPoly")
    return p


def is_prime_power(n: int) -> bool:
    """True iff n = p^k for a prime p and k ≥ 1."""
    if n < 2:
        return False
    # peel the smallest prime factor, then demand the rest is its power
    p = None
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            p = f
            break
        f += 1 if f == 2 else 2
    if p is None:
        return True  # n itself prime
    while m % p == 0:
        m //= p
    return m == 1
