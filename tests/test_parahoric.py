"""Facets, corner products, central elements, Satake tables, compatibility."""

import random

import pytest

from parahecke.bernstein import Bernstein, GroupAlgElt
from parahecke.engine import Engine, load_engine
from parahecke.errors import (
    InfiniteFacetGroup,
    NotAntidominant,
    NotBiinvariant,
    NotCentral,
    SolveInconsistent,
)
from parahecke.hecke import HeckeElt, IwahoriHecke
from parahecke.parahoric import Parahoric
from parahecke.ringcore import LaurentPoly
from parahecke.verify import _check_center_commutation, _finite_facets, suite_center, suite_compat

Q = LaurentPoly.q()


@pytest.fixture(scope="module")
def E1():
    return load_engine("a1")


@pytest.fixture(scope="module")
def E2():
    return load_engine("a2")


@pytest.fixture(scope="module")
def Et2():
    return load_engine("a1_torsion2")


@pytest.fixture(scope="module")
def Egl2():
    return load_engine("gl2")


def test_facet_data_examples(E1):
    P, d = E1.para, E1.datum
    empty = P.facet(())
    assert P.kelt(empty, d.zero) == E1.hecke.one() and empty.poincare == 1
    F = P.facet((1,))
    assert F.poincare == Q + 1
    assert P.kelt(F, d.zero) == E1.hecke.one() + E1.hecke.basis(E1.weyl.gen(1))
    with pytest.raises(InfiniteFacetGroup):
        P.facet((0, 1))


@pytest.mark.parametrize("name", ["a1", "a1_unequal", "a1_torsion2", "gl2", "a2", "c2"])
def test_facet_length_bound(name):
    """A finite W_J has at most |W₀| elements, none longer than ℓ(w₀), and an
    infinite W_J is rejected once it has more than |W₀|."""
    eng = load_engine(name)
    d, W = eng.datum, eng.weyl
    P = Parahoric(eng.bern)
    lmax = max(d.w_len)
    idx = d.saff_indices
    finite = []
    for mask in range(1 << len(idx)):
        J = [idx[k] for k in range(len(idx)) if mask >> k & 1]
        try:
            F = P.facet(J)
        except InfiniteFacetGroup as exc:
            assert str(exc) == f"W_J for J={J} has more than |W₀| = {d.w_order} elements"
            continue
        assert len(F.elements) <= d.w_order
        assert max(W.length(w) for w in F.elements) <= lmax
        finite.append(F.J)
    assert len(finite) == 2 ** len(idx) - 1  # every proper subset spans a finite W_J


def test_kelt_examples(E1):
    P, d, W = E1.para, E1.datum, E1.weyl
    F = P.special_facet()
    assert P.kelt(F, d.zero) == E1.hecke.one() + E1.hecke.basis(W.gen(1))
    h = P.kelt(F, d.lattice([-1]))
    want_support = {W.elt([-1]), W.gen(0), W.elt([-1], w=1), W.elt([1])}
    assert set(h.d) == want_support
    assert all(p.is_one() for p in h.d.values())
    with pytest.raises(NotAntidominant):
        P.kelt(F, d.lattice([1]))


def test_parahoric_mul_unit(E1):
    P, d = E1.para, E1.datum
    F = P.special_facet()
    h0 = P.kelt(F, d.zero)
    hm = P.kelt(F, d.lattice([-1]))
    assert P.parahoric_mul(F, h0, h0) == h0
    assert P.parahoric_mul(F, h0, hm) == hm
    assert P.parahoric_mul(F, hm, h0) == hm


def test_parahoric_mul_structure_constants(E1):
    """h_{-1} *_K h_{-1} expands over the h-basis with integral constants."""
    P, d = E1.para, E1.datum
    F = P.special_facet()
    hm = P.kelt(F, d.lattice([-1]))
    prod = P.parahoric_mul(F, hm, hm)
    basis = {x: P.kelt(F, x) for x, _ in d.antidominant_set(2)}
    residual = prod
    coeffs = {}
    for x in sorted(basis, key=lambda x: -E1.weyl.length(E1.weyl.translation(x))):
        lead = max(basis[x].d, key=E1.weyl.sort_key)
        c = residual.coeff(lead)
        if not c.is_zero():
            coeffs[x] = c
            residual = residual - basis[x].scale(c)
    assert residual.is_zero()
    assert coeffs[d.lattice([-2])].is_one()


def test_parahoric_mul_rejects_non_biinvariant(E1):
    P = E1.para
    F = P.special_facet()
    with pytest.raises(NotBiinvariant):
        P.parahoric_mul(F, E1.hecke.one(), P.kelt(F, E1.datum.zero))


def test_center_elt_examples(E1):
    P, d, H, W = E1.para, E1.datum, E1.hecke, E1.weyl
    F = P.special_facet()
    assert P.center_elt(F, d.zero) == P.kelt(F, d.zero)
    Fi = P.facet(())
    m = d.lattice([-1])
    z = P.center_elt(Fi, m)
    want = H.basis_translation(m) + E1.bern.theta(d.lattice([1])).scale(Q * Q)
    assert z == want
    s1 = H.basis(W.gen(1))
    assert H.mul(z, s1) == H.mul(s1, z)


def test_center_elements_commute_with_kelts(E2):
    P, d = E2.para, E2.datum
    H = E2.hecke
    for J in [(), (1,), (2,), (1, 2), (0,)]:
        F = P.facet(J)
        for m, _ in d.antidominant_set(1):
            z = P.center_elt(F, m)
            for x, _ in d.antidominant_set(1):
                h = P.kelt(F, x)
                assert H.mul(z, h) == H.mul(h, z)


def test_center_products_reexpand(E2):
    P, d = E2.para, E2.datum
    for J in [(), (1,), (1, 2)]:
        F = P.facet(J)
        ms = [m for m, _ in d.antidominant_set(1)]
        for m1 in ms:
            for m2 in ms:
                coeffs = P.center_product_expand(F, m1, m2)
                assert all(isinstance(c, LaurentPoly) for c in coeffs.values())
                assert coeffs  # never empty: z-basis expansion exists


def test_satake_a1_row(E1):
    P, d = E1.para, E1.datum
    xs = [m for m, _ in d.antidominant_set(2)]
    t = P.satake_table(xs, check_products=True)
    r0 = t.row(d.zero)
    assert r0.entries == [(d.zero, LaurentPoly.one())]
    r1 = t.row(d.lattice([-1]))
    assert r1.entries[0] == (d.lattice([-1]), LaurentPoly.one())
    assert r1.entries[1] == (d.zero, Q - 1)
    for x in (d.lattice([-3]), d.lattice([1])):  # beyond the height, not antidominant
        with pytest.raises(KeyError, match="no row for"):
            t.row(x)


def test_satake_gl2_minuscule(Egl2):
    P, d = Egl2.para, Egl2.datum
    xs = [m for m, _ in d.antidominant_set(1)]
    t = P.satake_table(xs)
    for r in t.rows:
        assert len(r.entries) == 1
        assert r.entries[0][1].is_one()


def test_satake_torsion_transparency(Et2, E1):
    """The A1+Z/2 table is the A1 table with torsion bookkeeping."""
    Pt, dt = Et2.para, Et2.datum
    P1, d1 = E1.para, E1.datum
    t_t2 = Pt.satake_table([m for m, _ in dt.antidominant_set(2)], check_products=False)
    t_1 = P1.satake_table([m for m, _ in d1.antidominant_set(2)], check_products=False)
    for r in t_t2.rows:
        base = t_1.row(d1.lattice(r.x.free))
        assert [(m.free, p) for m, p in r.entries] == [(m.free, p) for m, p in base.entries]
        assert all(m.tors == r.x.tors for m, _ in r.entries)


def test_satake_general_and_units(E1):
    P, d = E1.para, E1.datum
    F = P.special_facet()
    r = P.satake_general(F, P.kelt(F, d.zero))
    assert r == E1.bern.orbit_sum_r(d.zero)
    m = d.lattice([-2])
    z = P.center_elt(F, m)
    assert P.satake_general(F, z) == E1.bern.orbit_sum_r(m)
    with pytest.raises(NotCentral):
        P.satake_general(F, E1.hecke.one())
    # bi-invariant for the trivial facet, but not in the span of the z-basis
    with pytest.raises(SolveInconsistent):
        P.satake_general(P.facet(()), E1.hecke.basis(E1.weyl.gen(1)))


@pytest.mark.parametrize("name", ["a1", "a1_unequal", "a1_torsion2", "gl2", "c2", "a2"])
def test_satake_general_reproduces_rows(name):
    """The general solve on h_x equals the transform of the Satake row at x: the
    two callers of the one z-basis solve agree, each in its own order."""
    eng = load_engine(name)
    P, d = eng.para, eng.datum
    F = P.special_facet()
    table = P.satake_table([x for x, _ in d.antidominant_set(2)], check_products=False)
    for row in table.rows:
        assert P.satake_general(F, P.kelt(F, row.x)) == eng.bern.from_orbit_sums(row.entries)


def test_satake_outputs_are_dot_invariant(E2):
    P, d, B = E2.para, E2.datum, E2.bern
    t = P.satake_table([m for m, _ in d.antidominant_set(2)], check_products=False)
    for r in t.rows:
        out = B.from_orbit_sums(r.entries)
        for wi in range(d.w_order):
            assert B.dot_act(wi, out) == out


def test_compatibility_square(E2):
    P, d = E2.para, E2.datum
    small = P.facet(())
    for J in [(1,), (2,), (1, 2), (0, 1)]:
        big = P.facet(J)
        for m, _ in d.antidominant_set(1):
            assert P.compatibility_holds(small, big, m)


@pytest.mark.parametrize("name", ["a1", "a1_unequal", "a2", "c2", "gl2", "a1_torsion2"])
def test_double_coset_volume_formula(name):
    """[KmK:I] = δ_B(m)^{-1} · (Σ_W q_w^{-1} / Σ_{W_m} q_w^{-1}) · Σ_W q_w,

    evaluated at several prime powers; an independent closed form for the
    degree of the double-coset sum."""
    eng = load_engine(name)
    P, d, H = eng.para, eng.datum, eng.hecke
    F = P.special_facet()
    for m, _ in d.antidominant_set(2):
        vol = H.degree_hom(P.kelt(F, m))
        for q in (2, 3, 5):
            assert vol.eval_at_q(q) == _volume(eng, m, q)


def _volume(eng, m, q):
    """[K t_m K : I] at q, by the closed form in test_double_coset_volume_formula."""
    from fractions import Fraction

    d, W, B = eng.datum, eng.weyl, eng.bern
    lens = [W.weighted_length(W.finite(wi)) for wi in range(d.w_order)]
    stab = [wi for wi in range(d.w_order) if d.act(wi, m) == m]
    num = sum(Fraction(1, q ** ell) for ell in lens)
    den = sum(Fraction(1, q ** lens[wi]) for wi in stab)
    return (q ** B.exponent_E(m)) * (num / den) * sum(q ** ell for ell in lens)


def test_compatibility_diagram_example(E1):
    """Iwahori-level center pushed into K reproduces the same transform."""
    P, d = E1.para, E1.datum
    Fi, FK = P.facet(()), P.special_facet()
    m = d.lattice([-1])
    z_i = P.center_elt(Fi, m)
    lifted = P.lift_center(Fi, FK, z_i)
    assert lifted == P.center_elt(FK, m)
    assert P.satake_general(FK, lifted) == E1.bern.orbit_sum_r(m)


def test_lift_center_needs_nested_facets(E1):
    """Lifting from a facet group that the target's does not contain (the
    wrong way round, or between the two special facets) raises ValueError."""
    P, d = E1.para, E1.datum
    Fi, F0, F1 = P.facet(()), P.facet((0,)), P.facet((1,))
    for small, big in ((F1, Fi), (F0, F1), (F1, F0)):
        with pytest.raises(ValueError, match="not nested"):
            P.lift_center(small, big, P.center_elt(small, d.lattice([-1])))


@pytest.mark.parametrize("name", ["c2", "a2", "gl2", "a1_torsion2"])
def test_packed_theta_times_oneK_matches_reference(name):
    """Θ̇(r)·1_K, as the closed-form product mul_oneK of the packed sum Θ̇(r) and
    as the copy of its coset sums onto the cosets, equals Σ_m p_m·(Θ_m·1_K) in
    plain LaurentPoly arithmetic over fresh generic products, while the sums
    widen the Θ_m memo entries in place: small coefficients first, then one
    monomial of size 10^30 on the Θ_m with the largest coefficient, then random
    coefficients up to 10^30."""
    d = load_engine(name).datum
    P = Parahoric(Bernstein(IwahoriHecke.for_datum(d)))
    H, B, W, rng = P.H, P.bern, P.W, random.Random(name)
    ms = sorted({x for m, _ in d.antidominant_set(2) for x in d.orbit(m)})
    refs: dict = {}

    def poly(size):
        return LaurentPoly({rng.randint(-6, 4): rng.choice((-1, 1)) * rng.randint(1, size)
                            for _ in range(rng.randint(1, 3))})

    def ref(F, m):  # Θ_m·1_K as a fresh generic product; reading a memo entry's d would unpack it
        if (F.J, m) not in refs:
            refs[F.J, m] = H.mul(B.theta(m), P.kelt(F, d.zero)).d
        return refs[F.J, m]

    def check(F, coeffs):
        want: dict = {}
        for m, p in coeffs.items():
            for w, c in ref(F, m).items():
                want[w] = want.get(w, LaurentPoly.zero()) + p * c
        want = {w: c for w, c in want.items() if c}
        r = GroupAlgElt(d, coeffs)
        assert H.mul_oneK(B.theta_of(r), F).d == want
        assert _expand_cosets(W, F, H.coset_sums(B.theta_of(r), F)) == want
        assert _expand_cosets(W, F, B.theta_coset_sums(r, F)) == want

    for J in [(), P.special_facet().J]:
        F = P.facet(J)
        for _ in range(6):
            check(F, {m: poly(3) for m in rng.sample(ms, 3)})
        top = max(ms, key=lambda m: max(abs(c) for p in ref(F, m).values() for c in p.d.values()))
        check(F, {top: LaurentPoly({-3: -(10 ** 30)})})
        for _ in range(6):
            check(F, {m: poly(10 ** 30) for m in rng.sample(ms, 3)})
        for m in ms:  # memo entries widened by the sums still give Θ_m·1_K
            if m in B._theta:
                assert H.mul_oneK(B.theta(m), F).d == ref(F, m)


# -- closed-form products with 1_K and with double-coset sums ----------------------

ALL_DATA = ["a1", "a1_unequal", "a1_torsion2", "gl2", "c2", "a2"]


def _fresh_engine(name):
    """An engine with memos of its own, so that no other test's memo entries
    stand in for the products under test."""
    d = load_engine(name).datum
    P = Parahoric(Bernstein(IwahoriHecke.for_datum(d)))
    return Engine(datum=d, weyl=P.W, hecke=P.H, bern=P.bern, para=P)


def _fresh(H, h):
    """A d-form copy of h, so that a reference product does not share operands."""
    return H.from_terms(list(h.d.items()))


def _expand_cosets(W, F, sums):
    """Σ_{w'} S_{w'}·Σ_{v ∈ W_J} i_{w'v} as a dict, for coset sums keyed by w'."""
    return {W.compose(x, v): p for x, p in sums.d.items() for v in F.elements}


def _random_elt(H, rng, ball, size):
    return H.from_terms(
        (rng.choice(ball), LaurentPoly({rng.randint(-6, 6): rng.randint(-size, size) for _ in range(3)}))
        for _ in range(3)
    )


@pytest.mark.parametrize("name", ALL_DATA)
def test_oneK_closed_forms_match_mul(name):
    """a·i_w·1_K, 1_K·i_w·a, a·h_x and h_x·a by the closed forms equal the generic
    product, for random a on W.ball(4) (with ω ≠ 1 where Ω is nontrivial) with
    coefficients up to 10^30, on every finite facet, for h_x at heights ≤ 3."""
    eng = _fresh_engine(name)
    P, H, W, d = eng.para, eng.hecke, eng.weyl, eng.datum
    rng = random.Random(name)
    ball = W.ball(4)
    xs = [x for x, _ in d.antidominant_set(3)]
    for F in _finite_facets(eng):
        one_K = P.kelt(F, d.zero)
        for size in (9, 10**30):
            a = _random_elt(H, rng, ball, size)
            w = rng.choice(ball)
            iw = H.basis(w)
            assert H.mul_oneK(_fresh(H, a), F).d == H.mul(_fresh(H, a), one_K).d
            assert H.oneK_mul(F, _fresh(H, a)).d == H.mul(one_K, _fresh(H, a)).d
            assert H.mul_oneK(H.mul(_fresh(H, a), iw), F).d == H.mul(H.mul(_fresh(H, a), iw), one_K).d
            # 1_K·i_w·a = ∨(∨a·i_{w⁻¹}·1_K)
            left = H.mul_oneK(H.mul(H.vee_involution(_fresh(H, a)), H.basis(W.inverse(w))), F)
            assert H.vee_involution(left).d == H.mul(one_K, H.mul(iw, _fresh(H, a))).d
            # an exact quotient: (a·P)·1_K / P for P = P_J and for a P_{J,d} ≠ P_J
            for div in {F.poincare, P._kelt_rep(F, xs[-1])[1]}:
                got = H.mul_oneK(H.mul(_fresh(H, a).scale(div), iw), F, div)
                assert got.d == H.mul(H.mul(_fresh(H, a), iw), one_K).d
        a = _random_elt(H, rng, ball, 10**30)
        for x in [xs[-1], *rng.sample(xs[:-1], min(2, len(xs) - 1))]:  # xs[-1] has height 3
            hx = P.kelt(F, x)
            dx, P_d = P._kelt_rep(F, x)
            i_d, i_d_inv = H.basis(dx), H.basis(W.inverse(dx))
            a_hx = H.mul(_fresh(H, a), hx).d
            hx_a = H.mul(hx, _fresh(H, a)).d
            # without the division: P_{J,d}·a·h_x and P_{J,d}·h_x·a
            assert H.mul_oneK(H.mul(H.mul_oneK(_fresh(H, a), F), i_d), F).d == HeckeElt(H, a_hx).scale(P_d).d
            left = H.mul_oneK(H.mul(H.mul_oneK(H.vee_involution(_fresh(H, a)), F), i_d_inv), F)
            assert H.vee_involution(left).d == HeckeElt(H, hx_a).scale(P_d).d
            # with it
            assert H.mul_oneK(H.mul(H.mul_oneK(_fresh(H, a), F), i_d), F, P_d).d == a_hx
            left = H.mul_oneK(H.mul(H.mul_oneK(H.vee_involution(_fresh(H, a)), F), i_d_inv), F, P_d)
            assert H.vee_involution(left).d == hx_a


@pytest.mark.parametrize("name", ALL_DATA)
def test_coset_sums_expand_to_mul_oneK(name):
    """Copying each coset sum S_{w'} onto its coset w'W_J gives mul_oneK: of
    a·i_w, with a divisor, and with neither, for random a on W.ball(4) with
    coefficients up to 10^30, on every finite facet; each key w' is the
    shortest element of its coset."""
    eng = _fresh_engine(name)
    H, W = eng.hecke, eng.weyl
    rng = random.Random(name)
    ball = W.ball(4)
    for F in _finite_facets(eng):
        for size in (9, 10**30):
            a = _random_elt(H, rng, ball, size)
            iw = H.basis(rng.choice(ball))
            for b, args in [(a, ()), (H.mul(a, iw), ()), (a.scale(F.poincare), (F.poincare,)),
                            (H.mul(a.scale(F.poincare), iw), (F.poincare,))]:
                sums = H.coset_sums(_fresh(H, b), F, *args)
                assert sums
                assert all(W.length(W.compose(x, v)) > W.length(x)
                           for x in sums.d for v in F.elements if v != W.identity)
                assert _expand_cosets(W, F, sums) == H.mul_oneK(_fresh(H, b), F, *args).d


def _shortest_in_right_coset(W, F, w):
    """u shortest in W_J·w: the v⁻¹·w (v ∈ W_J) of least length."""
    return min((W.compose(W.inverse(v), w) for v in F.elements), key=W.length)


@pytest.mark.parametrize("name", ALL_DATA)
def test_inverse_coset_sums_match_coset_sums_of_mul_inverse(name, monkeypatch):
    """inverse_coset_sums(a, w, F) is coset_sums(a·i_w^{-1}, F), for random
    three-term a and w on W.ball(5) (with ω ≠ 1 where Ω is nontrivial) with
    coefficients up to 10^30, on every finite facet, and it applies only the
    ℓ(u) star factors of u shortest in W_J·w."""
    eng = _fresh_engine(name)
    H, W = eng.hecke, eng.weyl
    rng = random.Random(name)
    ball = W.ball(5)
    stars = []
    star = H._right_star
    monkeypatch.setattr(H, "_right_star", lambda cur, word, k: stars.append(len(word)) or star(cur, word, k))
    ws, skipped = [], []
    for F in _finite_facets(eng):
        for size in (9, 9, 10**30, 10**30):
            a = _random_elt(H, rng, ball, size)
            w = rng.choice(ball)
            ws.append(w)
            want = H.coset_sums(H.mul_inverse(_fresh(H, a), w), F).d
            stars.clear()
            assert H.inverse_coset_sums(_fresh(H, a), w, F).d == want
            lu = W.length(_shortest_in_right_coset(W, F, w))
            assert stars == [lu]
            skipped.append(W.length(w) - lu)
    assert any(skipped)
    if name in ("gl2", "a1_torsion2"):
        assert any(W.reduced_word(w)[1] != W.identity for w in ws)


@pytest.mark.parametrize("name", ALL_DATA)
def test_theta_coset_sums_match_coset_sums_of_theta(name):
    """theta_coset_sums(r_μ, F) is coset_sums(Θ̇(r_μ), F) for every antidominant
    μ up to height 2 on c2 and a2 and height 3 on the rank-1 data and gl2, on
    every finite facet, and it builds no Θ_m."""
    eng = _fresh_engine(name)
    H, B, d = eng.hecke, eng.bern, eng.datum
    mus = [m for m, _ in d.antidominant_set(2 if d.n_simple == 2 else 3)]
    facets = _finite_facets(eng)
    got = {(F.J, mu): B.theta_coset_sums(B.orbit_sum_r(mu), F).d for F in facets for mu in mus}
    assert not B._theta
    for F in facets:
        for mu in mus:
            assert got[F.J, mu] == H.coset_sums(B.theta_of(B.orbit_sum_r(mu)), F).d


@pytest.mark.parametrize("name", ["c2", "a2"])
def test_multiplicativity_check_needs_the_inverse_shift(name, monkeypatch):
    """With inverse_coset_sums' division by q_v undone (v ∈ W_J the part of
    t_{m∘} it skips), the product check at height 2 fails."""
    eng = _fresh_engine(name)
    P, H, W, d = eng.para, eng.hecke, eng.weyl, eng.datum
    F = P.special_facet()
    table = P.satake_table([x for x, _ in d.antidominant_set(2)], check_products=False)
    P._check_multiplicative(F, table)
    real = H.inverse_coset_sums
    shifts = []

    def unshifted(a, w, G):
        e = 2 * (W.weighted_length(w) - W.weighted_length(_shortest_in_right_coset(W, G, w)))
        shifts.append(e)
        return real(a, w, G).scale(LaurentPoly.v_power(e))

    monkeypatch.setattr(H, "inverse_coset_sums", unshifted)
    with pytest.raises(SolveInconsistent):
        P._check_multiplicative(F, table)
    assert any(shifts)


@pytest.mark.parametrize("name", ALL_DATA)
def test_satake_table_builds_theta_only_for_the_z_basis(name):
    """After satake_table at height 2, products check included, every memoized
    Θ_m has m in the W₀-orbit of a saturation predecessor of some row: the
    z-basis elements need them, and the product check builds none."""
    eng = _fresh_engine(name)
    P, B, d = eng.para, eng.bern, eng.datum
    table = P.satake_table([x for x, _ in d.antidominant_set(2)])
    allowed = {m for r in table.rows for mu in d.saturation_predecessors(r.x) for m in d.orbit(mu)}
    assert B._theta and set(B._theta) <= allowed


@pytest.mark.parametrize("name", ["c2", "a2"])
def test_multiplicativity_check_catches_a_wrong_row(name):
    """Adding q to the last entry of a non-minuscule Satake row makes the
    product check fail, first at x = 0 and y = that row."""
    eng = _fresh_engine(name)
    P, d = eng.para, eng.datum
    F = P.special_facet()
    table = P.satake_table([x for x, _ in d.antidominant_set(2)], check_products=False)
    P._check_multiplicative(F, table)
    row = next(r for r in table.rows if len(r.entries) > 1)
    m, s = row.entries[-1]
    row.entries[-1] = (m, s + Q)
    x0 = table.rows[0].x
    with pytest.raises(SolveInconsistent) as exc:
        P._check_multiplicative(F, table)
    assert str(exc.value) == f"Satake transform not multiplicative at x={x0}, y={row.x}"


@pytest.mark.parametrize("name", ["c2", "a2"])
def test_multiplicativity_check_catches_a_wrong_structure_constant(name, monkeypatch):
    """One wrong orbit-sum structure constant, c^μ_{xx} + q for the last row's x,
    makes the product check fail at the first pair of rows that both have an
    entry at x."""
    eng = _fresh_engine(name)
    P, d, B = eng.para, eng.datum, eng.bern
    F = P.special_facet()
    table = P.satake_table([x for x, _ in d.antidominant_set(2)], check_products=False)
    x = table.rows[-1].x
    target = B.orbit_sum_r(x) * B.orbit_sum_r(x)
    real = B.expand_over_orbit_sums
    hits = []

    def perturbed(r):
        out = real(r)
        if r == target:
            hits.append(r)
            mu = min(out)
            out = {**out, mu: out[mu] + Q}
        return out

    monkeypatch.setattr(B, "expand_over_orbit_sums", perturbed)
    rows = table.rows
    first = next((rx.x, ry.x) for i, rx in enumerate(rows) for ry in rows[i:]
                 if x in dict(rx.entries) and x in dict(ry.entries))
    with pytest.raises(SolveInconsistent) as exc:
        P._check_multiplicative(F, table)
    assert str(exc.value) == "Satake transform not multiplicative at x={}, y={}".format(*first)
    assert len(hits) == 1


@pytest.mark.parametrize("name", ALL_DATA)
def test_corner_products_and_lifts_match_mul(name):
    """h_x ∗_K h_y by parahoric_mul equals h_x·h_y / P_J by the generic product,
    for x, y at heights ≤ 3 on every finite facet, and the lift
    z ∗_{K_small} 1_{K_big} equals z·1_{K_big} / P_{J_small} likewise."""
    eng = _fresh_engine(name)
    P, H, d = eng.para, eng.hecke, eng.datum
    rng = random.Random(name)
    facets = _finite_facets(eng)
    graded = d.antidominant_set(3)
    for F in facets:
        pairs = [(x, y) for x, _ in graded for y, _ in graded]
        for x, y in [pairs[-1], *rng.sample(pairs, min(5, len(pairs)))]:  # pairs[-1]: heights 3 and 3
            got = P.parahoric_mul(F, P.kelt(F, x), P.kelt(F, y))
            want = H.mul(_fresh(H, P.kelt(F, x)), _fresh(H, P.kelt(F, y)))
            assert got.d == {w: p.exact_div(F.poincare) for w, p in want.d.items()}
    ms = [m for m, _ in d.antidominant_set(1)]
    for Fs in facets:
        for Fb in facets:
            if Fs.J != Fb.J and set(Fs.J) <= set(Fb.J):
                for m in ms:
                    z = P.center_elt(Fs, m)
                    want = H.mul(_fresh(H, z), P.kelt(Fb, d.zero))
                    assert P.lift_center(Fs, Fb, z).d == {w: p.exact_div(Fs.poincare) for w, p in want.d.items()}


@pytest.mark.parametrize("name", ALL_DATA)
def test_corner_product_of_combinations_matches_mul(name):
    """a ∗_K b for random bi-invariant a = Σ c_x·h_x and b = Σ c'_y·h_y, over x, y
    of height ≤ 2 with coefficients up to 10^30, equals H.mul(a, b) divided by
    P_J key by key, on every finite facet."""
    eng = _fresh_engine(name)
    P, H, d = eng.para, eng.hecke, eng.datum
    rng = random.Random(name)
    xs = [x for x, _ in d.antidominant_set(2)]

    def combination(F):
        return H.lincomb((P.kelt(F, x), LaurentPoly({rng.randint(-4, 4): rng.randint(-10**30, 10**30)}))
                         for x in rng.sample(xs, min(3, len(xs))))

    for F in _finite_facets(eng):
        for _ in range(2):
            a, b = combination(F), combination(F)
            want = H.mul(_fresh(H, a), _fresh(H, b))
            got = P.parahoric_mul(F, a, b)
            assert got.d == {w: p.exact_div(F.poincare) for w, p in want.d.items()}


@pytest.mark.parametrize("name", ALL_DATA)
def test_corner_product_degrees(name):
    """deg(h_x ∗_K h_y)·P_J = deg(h_x)·deg(h_y) at the special facet, with the
    right side from the double-coset volume formula, not from the rewriting
    engine: the degree homomorphism i_w ↦ q_w is a ring homomorphism."""
    eng = load_engine(name)
    P, d, H = eng.para, eng.datum, eng.hecke
    F = P.special_facet()
    xs = [x for x, _ in d.antidominant_set(2)]
    for x in xs:
        for y in xs:
            deg = H.degree_hom(P.parahoric_mul(F, P.kelt(F, x), P.kelt(F, y)))
            for q in (2, 3, 5):
                assert deg.eval_at_q(q) * F.poincare.eval_at_q(q) == _volume(eng, x, q) * _volume(eng, y, q)


@pytest.mark.parametrize("name", ALL_DATA)
def test_center_and_compat_suites_on_every_datum(name):
    """The suites whose products have closed forms pass on every bundled datum."""
    eng = load_engine(name)
    rows = suite_center(eng) + suite_compat(eng)
    bad = [(r.name, r.detail) for r in rows if r.status in ("FAIL", "FALSIFIED")]
    assert not bad
    assert len(rows) == 4


@pytest.mark.parametrize("name", ["c2", "a2", "gl2", "a1_torsion2"])
def test_commutation_check_matches_generic_products(name):
    """For z' = z_m + h_y, with m and y of height ≤ 1, on every finite facet,
    and for z' = z_m + i_s on the Iwahori facet J = ∅ (where every element is
    bi-invariant), noncommuting_kelt returns the first x of height ≤ 2 with
    z'·h_x != h_x·z' in generic products, or None.  Some z' fail to commute,
    so the comparison is not vacuous: on gl2 and a1_torsion2 (nontrivial Ω
    and torsion) every z_m + h_y commutes, and only the z_m + i_s fail."""
    eng = _fresh_engine(name)
    P, H, W, d = eng.para, eng.hecke, eng.weyl, eng.datum
    xs = [x for x, _ in d.antidominant_set(2)]
    ones = [m for m, _ in d.antidominant_set(1)]
    failing = 0
    for F in _finite_facets(eng):
        kelts = {x: _fresh(H, P.kelt(F, x)) for x in xs}
        others = [P.kelt(F, y) for y in ones]
        if not F.J:
            others += [H.basis(W.gen(i)) for i in d.saff_indices]
        for m in ones:
            for other in others:
                z = H.lincomb([(P.center_elt(F, m), LaurentPoly.one()), (other, LaurentPoly.one())])
                ref = _fresh(H, z)
                want = next((x for x in xs if H.mul(ref, kelts[x]) != H.mul(kelts[x], ref)), None)
                assert P.noncommuting_kelt(F, z, xs) == want
                failing += want is not None
    assert failing


@pytest.mark.parametrize("J", [(), (1, 2)], ids=["iwahori", "J12"])
@pytest.mark.parametrize("name", ["c2", "a2"])
def test_center_product_check_catches_a_wrong_coefficient(name, J, monkeypatch):
    """One z-basis coefficient of z_m ∗_K z_m off by q, through a monkeypatched
    expand_over_orbit_sums, makes center_product_expand raise exactly its
    SolveInconsistent."""
    eng = _fresh_engine(name)
    P, d, B = eng.para, eng.datum, eng.bern
    F = P.facet(J)
    m = [m for m, _ in d.antidominant_set(1)][-1]
    assert P.center_product_expand(F, m, m)
    monkeypatch.setattr(B, "_products", {})  # drop the structure constants memoized just now
    target = B.orbit_sum_r(m) * B.orbit_sum_r(m)
    real = B.expand_over_orbit_sums
    hits = []

    def perturbed(r):
        out = real(r)
        if r == target:
            hits.append(r)
            mu = min(out)
            out = {**out, mu: out[mu] + Q}
        return out

    monkeypatch.setattr(B, "expand_over_orbit_sums", perturbed)
    with pytest.raises(SolveInconsistent) as exc:
        P.center_product_expand(F, m, m)
    assert type(exc.value) is SolveInconsistent
    assert str(exc.value) == "center product does not match its z-basis expansion"
    assert len(hits) == 1


def test_center_suite_expands_each_pair_of_orbit_sums_once(monkeypatch):
    """c2 `verify center` expands r_m·r_n over the orbit sums once per distinct
    pair, not once per finite facet and pair; the memo holds one entry per pair,
    and each equals a fresh expand_over_orbit_sums(r_m·r_n)."""
    eng = _fresh_engine("c2")
    B, d = eng.bern, eng.datum
    real, calls = B.expand_over_orbit_sums, []
    monkeypatch.setattr(B, "expand_over_orbit_sums", lambda r: calls.append(r) or real(r))
    assert [r.status for r in suite_center(eng)] == ["PASS", "PASS"]
    graded = d.antidominant_set(2)
    pairs = {frozenset((m, n)) for m, h in graded for n, k in graded if h + k <= 2}
    assert len(calls) == len(pairs) == len(B._products) == 9 and set(B._products) == pairs
    for key, c in B._products.items():
        m, n = min(key), max(key)
        assert c == real(B.orbit_sum_r(m) * B.orbit_sum_r(n))


def _is_basis(h):
    """h is a single i_w with coefficient 1."""
    return len(h.d) == 1 and LaurentPoly.one() in h.d.values()


@pytest.mark.parametrize("name", ["a1_torsion2", "c2"])
def test_closed_forms_replace_generic_products(name, monkeypatch):
    """Centers, their checks, bi-invariance, lifts, corner products, the
    center suite's commutation check and the compatibility square run without
    the generic product."""
    eng = _fresh_engine(name)
    P, H, d = eng.para, eng.hecke, eng.datum
    facets = _finite_facets(eng)  # the facet check 1_K·1_K = P_J·1_K is a generic product
    calls = []
    mul = H.mul
    monkeypatch.setattr(H, "mul", lambda a, b: calls.append((a, b)) or mul(a, b))
    F = P.special_facet()
    ms = [m for m, _ in d.antidominant_set(1)]
    for G in facets:
        for m in ms:
            assert P.is_biinvariant(G, P.center_elt(G, m))
    P.satake_table([x for x, _ in d.antidominant_set(2)], check_products=True)
    small = P.facet(())
    assert P.lift_center(small, F, P.center_elt(small, ms[-1])) == P.center_elt(F, ms[-1])
    assert _check_center_commutation(eng) is None
    assert P.compatibility_holds(small, F, ms[-1])
    # mul_oneK forms a·i_d as a product by the single basis element i_d, a walk
    # along d's reduced word; only those calls are allowed.  Each facet's 1_K
    # counts as a product with 1_K even where it is one term (i_e for J = ∅).
    units = {id(P.kelt(G, d.zero)) for G in facets}
    assert calls and all(id(b) not in units and _is_basis(b) for _, b in calls)


def test_shared_coefficients_survive_elimination_and_arithmetic():
    """An unpacked z-basis combination shares one LaurentPoly between the keys
    of each distinct coefficient; the z-basis solve and the sparse-module
    arithmetic read those values without changing them."""
    eng = load_engine("c2")
    P, H, W, d = eng.para, eng.hecke, eng.weyl, eng.datum
    F = P.special_facet()
    m0, m1 = [m for m, _ in d.antidominant_set(1)][:2]
    z = H.lincomb([(P.center_elt(F, m0), Q), (P.center_elt(F, m1), Q + 1)])
    zd = z.d
    assert len({id(p) for p in zd.values()}) < len(zd)  # shared values
    before = {w: dict(p.d) for w, p in zd.items()}
    candidates = set(d.saturation_predecessors(m0)) | set(d.saturation_predecessors(m1))
    order = sorted(candidates, key=lambda mu: (-W.length(W.translation(mu)), mu))
    coords = {mu: s for mu, s in P._z_coords(F, z, order) if s is not None}
    assert coords == {m0: Q, m1: Q + 1}
    for got, c in [(z + z, 2), (z - z, 0), (-z, -1), (z.scale(Q), Q), (3 * z, 3)]:
        assert got.d == {w: LaurentPoly(p) * c for w, p in before.items() if c}
    assert z.d is zd and {w: p.d for w, p in zd.items()} == before


def test_corner_product_divides_each_distinct_coefficient_once(monkeypatch):
    """h_x ∗_K h_y divides the product's coefficients by P_J once per distinct
    value, and equals the per-key quotient."""
    eng = _fresh_engine("c2")
    P, H, d = eng.para, eng.hecke, eng.datum
    F = P.special_facet()
    x, y = [m for m, _ in d.antidominant_set(1)][-2:]
    ref = H.mul(P.kelt(F, x), P.kelt(F, y)).d
    want = {w: p.exact_div(F.poincare) for w, p in ref.items()}
    distinct = len({id(p) for p in ref.values()})
    assert distinct < len(ref)
    calls = []
    div = LaurentPoly.exact_div
    monkeypatch.setattr(LaurentPoly, "exact_div", lambda p, q: calls.append(p) or div(p, q))
    got = P.parahoric_mul(F, P.kelt(F, x), P.kelt(F, y))
    assert len(calls) == distinct
    assert got.d == want
