"""Ring axioms and exact-division contracts for the coefficient ring."""

import doctest
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from parahecke.errors import NonDivisible, OddHalfPower
import parahecke.ringcore
from parahecke.ringcore import LaurentPoly, _axpy, _eliminate, _lincomb, _pack, _unpack, is_prime_power

ONE = LaurentPoly.one()
Q = LaurentPoly.q()
V = LaurentPoly.v()


def poly(d):
    return LaurentPoly(d)


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


def test_basic_examples():
    # add(v^2 - 1, 1) -> v^2
    assert poly({2: 1, 0: -1}) + 1 == poly({2: 1})
    # exact_div(v^4 + v^2, v^2) -> v^2 + 1
    assert poly({4: 1, 2: 1}).exact_div(poly({2: 1})) == poly({2: 1, 0: 1})
    # exact_div(v^2 + 1, v^2 - 1) -> NonDivisible (remainder 2 by hand)
    with pytest.raises(NonDivisible):
        poly({2: 1, 0: 1}).exact_div(poly({2: 1, 0: -1}))


def test_monomials_are_units():
    for k in (-5, -1, 0, 1, 7):
        inv = ONE.exact_div(LaurentPoly.v_power(k))
        assert inv * LaurentPoly.v_power(k) == ONE


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * ONE == a
    assert a - a == LaurentPoly.zero()


@given(small_polys, small_polys)
def test_exact_div_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def _long_div(self, other):
    """LaurentPoly.exact_div as written for every divisor (the long
    division), the reference for its monomial branch."""
    sa, sb = self.min_exp(), other.min_exp()
    a = {e - sa: c for e, c in self.d.items()}
    b = {e - sb: c for e, c in other.d.items()}
    db = max(b)
    lead = b[db]
    quot = {}
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
    return {e + sa - sb: c for e, c in quot.items()}


def _outcome(div, a, b):
    try:
        got = div(a, b)
    except NonDivisible as exc:
        return "NonDivisible", str(exc)
    return "quotient", list(got.items())  # the key order too


@given(small_polys.filter(bool), st.integers(min_value=-3, max_value=3).filter(bool),
       st.integers(min_value=-6, max_value=6))
def test_monomial_exact_div_matches_long_division(p, c, k):
    """By c·v^k, the quotient (with its key order) or the NonDivisible
    message is the long division's, for p·c·v^k and for p itself."""
    m = LaurentPoly({k: c})
    for a in (p * m, p):
        assert _outcome(lambda x, y: x.exact_div(y).d, a, m) == _outcome(_long_div, a, m)


def test_zero_divisor_raises():
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(LaurentPoly.zero())


def test_eval_examples():
    assert Q.eval_at_q(7) == 7
    assert poly({4: 2, 0: 3}).eval_at_q(5) == 2 * 25 + 3
    assert poly({-2: 1}).eval_at_q(4) == Fraction(1, 4)
    with pytest.raises(OddHalfPower):
        V.eval_at_q(4)


@given(small_polys, small_polys, st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
def test_eval_is_ring_hom_on_even_support(a, b, n):
    a = LaurentPoly({2 * e: c for e, c in a.d.items()})
    b = LaurentPoly({2 * e: c for e, c in b.d.items()})
    assert (a * b).eval_at_q(n) == a.eval_at_q(n) * b.eval_at_q(n)
    assert (a + b).eval_at_q(n) == a.eval_at_q(n) + b.eval_at_q(n)


def test_positivity_in_shifted_variable():
    assert (Q - 1).nonneg_in_q_minus_1()
    assert (Q * Q - 1).nonneg_in_q_minus_1()          # (q-1)(q+1)
    assert poly({6: 1, 0: -1}).nonneg_in_q_minus_1()  # q^3 - 1
    assert ONE.nonneg_in_q_minus_1()
    assert LaurentPoly.zero().nonneg_in_q_minus_1()
    assert not (Q - 2).nonneg_in_q_minus_1()
    assert not (1 - Q).nonneg_in_q_minus_1()
    assert not V.nonneg_in_q_minus_1()
    # negative q-powers are allowed up to a q-shift
    assert poly({-2: 1}).nonneg_in_q_minus_1()
    assert poly({0: 1, -2: -1}).nonneg_in_q_minus_1()  # 1 - q^{-1} = q^{-1}(q-1)
    # only the least shift is tried: q^2 - 3q + 3 = (q-1)^2 - (q-1) + 1 fails,
    # though it is 1, 3, 7, 13, 31 at q = 2, 3, 4, 5, 7, and q times it,
    # (q-1)^3 + 1, passes
    p = poly({4: 1, 2: -3, 0: 3})
    assert [p.eval_at_q(n) for n in (2, 3, 4, 5, 7)] == [1, 3, 7, 13, 31]
    assert not p.nonneg_in_q_minus_1()
    assert (Q * p).nonneg_in_q_minus_1()


@given(small_polys)
def test_positivity_reads_the_coefficients_at_q_minus_1(p):
    """The reference: substitute q = t + 1 into q^s·p, s the least shift that
    clears negative q-exponents, as a polynomial in t = v^2."""
    if any(e % 2 for e in p.d):
        assert not p.nonneg_in_q_minus_1()
        return
    shift = max(0, -min(p.d, default=0) // 2)
    t_plus_1 = LaurentPoly.q() + 1
    expanded = LaurentPoly.zero()
    for e, c in p.d.items():
        term = LaurentPoly.from_int(c)
        for _ in range(e // 2 + shift):
            term = term * t_plus_1
        expanded = expanded + term
    assert p.nonneg_in_q_minus_1() == all(c >= 0 for c in expanded.d.values())


def test_serialization_roundtrip():
    p = poly({-3: 2, 0: -1, 4: 5})
    assert p.to_pairs() == [[-3, 2], [0, -1], [4, 5]]
    assert LaurentPoly.from_pairs(p.to_pairs()) == p


def test_unit_monomial_predicate():
    assert LaurentPoly.v_power(-4).is_unit_monomial()
    assert LaurentPoly({3: -1}).is_unit_monomial()
    assert not (Q + 1).is_unit_monomial()
    assert not LaurentPoly({2: 2}).is_unit_monomial()


def test_foreign_operands_raise_type_error():
    """A foreign operand gets NotImplemented, so Python raises TypeError itself
    after the other operand's reflected method declines too."""
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(Q, "x")
        with pytest.raises(TypeError):
            op("x", Q)
    assert Q.__add__("x") is NotImplemented and Q.__rsub__(1.5) is NotImplemented


def test_is_prime_power():
    assert all(is_prime_power(n) for n in (2, 3, 4, 5, 8, 9, 27, 121, 125))
    assert not any(is_prime_power(n) for n in (0, 1, 6, 12, 100, 1000))


def test_module_doctests():
    result = doctest.testmod(parahecke.ringcore)
    assert result.attempted > 0 and result.failed == 0


# -- sparse-module helpers, against plain LaurentPoly arithmetic -------------

small_modules = st.dictionaries(st.sampled_from("abcd"), small_polys.filter(bool), max_size=4)
scales = st.one_of(st.none(), small_polys)


def raw(module):
    return {k: dict(p.d) for k, p in module.items()}


def reference_axpy(acc, src, scale):
    out = dict(acc)
    for k, p in src.items():
        out[k] = out.get(k, LaurentPoly.zero()) + (p if scale is None else p * scale)
    return {k: p for k, p in out.items() if p}


def as_module(acc):
    assert all(acc.values()), "accumulator kept an empty entry"
    return {k: LaurentPoly(pd) for k, pd in acc.items()}


@given(small_modules, small_modules, scales)
def test_axpy_matches_reference(acc, src, scale):
    got = raw(acc)
    _axpy(got, src, None if scale is None else scale.d)
    assert as_module(got) == reference_axpy(acc, src, scale)
    _axpy(got, as_module(got), {0: -1})  # exact cancellation drops every key
    assert got == {}


@given(st.lists(st.tuples(small_modules, scales), max_size=4))
def test_lincomb_matches_reference(pairs):
    want: dict = {}
    for x, c in pairs:
        want = reference_axpy(want, x, c)
    got = _lincomb((x, None if c is None else c.d) for x, c in pairs)
    assert as_module(got) == want


@given(small_modules, small_modules.filter(bool), small_polys.filter(bool), st.data())
def test_eliminate_clears_the_lead(rest, pivot, s, data):
    lead = data.draw(st.sampled_from(sorted(pivot)))
    rest = {k: p for k, p in rest.items() if k != lead}
    residual = raw(reference_axpy(rest, pivot, s))
    assert _eliminate(residual, pivot, lead) == s
    assert as_module(residual) == rest


@given(small_modules, small_modules.filter(bool))
def test_eliminate_absent_lead_is_none(residual, pivot):
    lead = "z"
    pivot = {**pivot, lead: ONE}
    got = raw(residual)
    assert _eliminate(got, pivot, lead) is None
    assert got == raw(residual)


def test_eliminate_non_divisible_lead_raises():
    residual = {"a": {0: 1}}
    with pytest.raises(NonDivisible):
        _eliminate(residual, {"a": Q + 1}, "a")


# -- Kronecker packing -------------------------------------------------------

@st.composite
def packable(draw):
    """(d, e0, k): every exponent ≥ e0 and every digit |c| ≤ 2^(k-1) - 1, the extremes included."""
    k = draw(st.integers(min_value=2, max_value=70))
    e0 = draw(st.integers(min_value=-20, max_value=20))
    lim = (1 << (k - 1)) - 1
    coeffs = st.sampled_from([lim, -lim]) | st.integers(min_value=-lim, max_value=lim)
    d = draw(st.dictionaries(st.integers(min_value=e0, max_value=e0 + 12), coeffs.filter(bool), max_size=8))
    return d, e0, k


@given(packable())
def test_pack_unpack_roundtrip(case):
    d, e0, k = case
    assert _unpack(_pack(d, e0, k), e0, k) == d


@given(small_polys, small_polys, st.integers(min_value=0, max_value=5))
def test_packed_arithmetic_is_polynomial_arithmetic(a, b, j):
    # ‖a·b‖₁ ≤ ‖a‖₁·‖b‖₁ and ‖a·(v^j - 1)‖₁ ≤ 2·‖a‖₁
    k = (sum(map(abs, a.d.values())) * max(sum(map(abs, b.d.values())), 2)).bit_length() + 2
    ea, eb = min(a.d, default=0), min(b.d, default=0)
    pa, pb = _pack(a.d, ea, k), _pack(b.d, eb, k)
    assert LaurentPoly(_unpack(pa * pb, ea + eb, k)) == a * b
    assert LaurentPoly(_unpack((pa << (j * k)) - pa, ea, k)) == a * (LaurentPoly.v_power(j) - 1)
