"""Facets, corner products, central elements, Satake tables, compatibility."""

import random

import pytest

from parahecke.bernstein import Bernstein, GroupAlgElt
from parahecke.engine import load_engine
from parahecke.errors import (
    InfiniteFacetGroup,
    NotAntidominant,
    NotBiinvariant,
    NotCentral,
    SolveInconsistent,
)
from parahecke.hecke import IwahoriHecke
from parahecke.parahoric import Parahoric
from parahecke.ringcore import LaurentPoly

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
    P = E1.para
    empty = P.facet(())
    assert empty.one_K == E1.hecke.one() and empty.poincare == 1
    F = P.facet((1,))
    assert F.poincare == Q + 1
    assert F.one_K == E1.hecke.one() + E1.hecke.basis(E1.weyl.gen(1))
    with pytest.raises(InfiniteFacetGroup):
        P.facet((0, 1))


@pytest.mark.parametrize("name", ["a1", "a1_torsion2", "gl2", "a2", "c2"])
def test_facet_length_bound(name):
    """No element of a finite W_J is longer than ℓ(w₀), and an infinite W_J is
    rejected by that bound rather than by the facet_bound backstop."""
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
            assert f"longer than ℓ(w₀) = {lmax}" in str(exc)
            continue
        assert max(W.length(w) for w in F.elements) <= lmax
        finite.append(F.J)
    assert len(finite) == 2 ** len(idx) - 1  # every proper subset spans a finite W_J
    with pytest.raises(InfiniteFacetGroup, match="exceeded 1 elements"):  # the backstop stays
        Parahoric(eng.bern, facet_bound=1).facet(P.special_facet().J)


def test_kelt_examples(E1):
    P, d, W = E1.para, E1.datum, E1.weyl
    F = P.special_facet()
    assert P.kelt(F, d.zero) == F.one_K
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
        P.parahoric_mul(F, E1.hecke.one(), F.one_K)


def test_center_elt_examples(E1):
    P, d, H, W = E1.para, E1.datum, E1.hecke, E1.weyl
    F = P.special_facet()
    assert P.center_elt(F, d.zero) == F.one_K
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
    r = P.satake_general(F, F.one_K)
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
        assert P.satake_general(F, P.kelt(F, row.x)) == P.transform_of_row(row)


def test_satake_outputs_are_dot_invariant(E2):
    P, d, B = E2.para, E2.datum, E2.bern
    t = P.satake_table([m for m, _ in d.antidominant_set(2)], check_products=False)
    for r in t.rows:
        out = P.transform_of_row(r)
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
    from fractions import Fraction

    eng = load_engine(name)
    P, d, H, W, B = eng.para, eng.datum, eng.hecke, eng.weyl, eng.bern
    F = P.special_facet()
    for m, _ in d.antidominant_set(2):
        vol = H.degree_hom(P.kelt(F, m))
        stab = [wi for wi in range(d.w_order) if d.act(wi, m) == m]
        for q in (2, 3, 5):
            num = sum(Fraction(1, q ** W.weighted_length(W.finite(wi))) for wi in range(d.w_order))
            den = sum(Fraction(1, q ** W.weighted_length(W.finite(wi))) for wi in stab)
            pw = sum(q ** W.weighted_length(W.finite(wi)) for wi in range(d.w_order))
            want = (q ** B.exponent_E(m)) * (num / den) * pw
            assert vol.eval_at_q(q) == want


def test_compatibility_diagram_example(E1):
    """Iwahori-level center pushed into K reproduces the same transform."""
    P, d = E1.para, E1.datum
    Fi, FK = P.facet(()), P.special_facet()
    m = d.lattice([-1])
    z_i = P.center_elt(Fi, m)
    lifted = P.lift_center(Fi, FK, z_i)
    assert lifted == P.center_elt(FK, m)
    assert P.satake_general(FK, lifted) == E1.bern.orbit_sum_r(m)


@pytest.mark.parametrize("name", ["c2", "a2", "gl2", "a1_torsion2"])
def test_packed_theta_times_oneK_matches_reference(name):
    """Θ̇(r)·1_K summed over the packed memo equals Σ_m p_m·(Θ_m·1_K) in plain
    LaurentPoly arithmetic over fresh products, while the memo entries' digit
    widths grow under the calls: small coefficients first, then one monomial
    of size 10^30 on the entry with the largest coefficient, then random
    coefficients up to 10^30."""
    d = load_engine(name).datum
    P = Parahoric(Bernstein(IwahoriHecke.for_datum(d)))
    H, rng = P.H, random.Random(name)
    ms = sorted({x for m, _ in d.antidominant_set(2) for x in d.orbit(m)})
    refs: dict = {}

    def poly(size):
        return LaurentPoly({rng.randint(-6, 4): rng.choice((-1, 1)) * rng.randint(1, size)
                            for _ in range(rng.randint(1, 3))})

    def ref(F, m):  # Θ_m·1_K as a fresh product; reading a memo entry's d would unpack it
        if (F.J, m) not in refs:
            refs[F.J, m] = H.mul(P.bern.theta(m), F.one_K).d
        return refs[F.J, m]

    def check(F, coeffs):
        want: dict = {}
        for m, p in coeffs.items():
            for w, c in ref(F, m).items():
                want[w] = want.get(w, LaurentPoly.zero()) + p * c
        got = P._theta_of_times_oneK(F, GroupAlgElt(d, coeffs))
        assert got.d == {w: c for w, c in want.items() if c}

    for J in [(), P.special_facet().J]:
        F = P.facet(J)
        for _ in range(6):
            check(F, {m: poly(3) for m in rng.sample(ms, 3)})
        top = max(ms, key=lambda m: max(abs(c) for p in ref(F, m).values() for c in p.d.values()))
        P.theta_oneK(F, top)
        small = P._theta_oneK[J, top]._pk[2]
        packed = [m for m in ms if (J, m) in P._theta_oneK]
        check(F, {top: LaurentPoly({-3: -(10 ** 30)})})
        assert P._theta_oneK[J, top]._pk[2] > small
        for _ in range(6):
            check(F, {m: poly(10 ** 30) for m in rng.sample(ms, 3)})
        for m in packed:  # entries packed before the width grew still unpack to Θ_m·1_K
            assert P.theta_oneK(F, m) == H.mul(P.bern.theta(m), F.one_K)
