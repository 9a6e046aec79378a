"""IM-basis products, inverses, involution, degree homomorphism, pushforward."""

import random

import pytest

from parahecke import hecke
from parahecke.affweyl import AffineWeylGroup
from parahecke.engine import load_engine
from parahecke.errors import NonDivisible, SubgroupInvalid
from parahecke.hecke import HeckeElt, IwahoriHecke, TorsionQuotient
from parahecke.ringcore import LaurentPoly, SparseElt, _pack
from parahecke.rootdatum import load_bundled

Q = LaurentPoly.q()


@pytest.fixture(scope="module")
def H1():
    return IwahoriHecke.for_datum(load_bundled("a1"))


@pytest.fixture(scope="module")
def Ht2():
    return IwahoriHecke.for_datum(load_bundled("a1_torsion2"))


@pytest.fixture(scope="module")
def Hc2():
    return IwahoriHecke.for_datum(load_bundled("c2"))


@pytest.fixture(scope="module")
def Hgl2():
    return IwahoriHecke.for_datum(load_bundled("gl2"))


def test_quadratic_relation(H1):
    s = H1.basis(H1.weyl.gen(1))
    assert s * s == H1.from_terms([(H1.weyl.identity, Q), (H1.weyl.gen(1), Q - 1)])


def test_braid_relation_lengths_add(H1):
    W = H1.weyl
    s1, s0 = H1.basis(W.gen(1)), H1.basis(W.gen(0))
    assert s1 * s0 == H1.basis(W.compose(W.gen(1), W.gen(0)))


def test_unit(Hc2):
    W = Hc2.weyl
    rng = random.Random(7)
    ball = W.ball(4)
    h = Hc2.from_terms([(rng.choice(ball), LaurentPoly({rng.randint(-2, 2): rng.randint(1, 5)})) for _ in range(4)])
    assert Hc2.one() * h == h
    assert h * Hc2.one() == h


def test_associativity_random(Hc2):
    W = Hc2.weyl
    rng = random.Random(3)
    ball = W.ball(3)
    for _ in range(10):
        a, b, c = (Hc2.basis(rng.choice(ball)) + rng.randint(0, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_invert_basis_examples(H1):
    W = H1.weyl
    inv, star = H1.im_invert_basis(W.gen(1))
    qinv = LaurentPoly.v_power(-2)
    # inverse(i_s) = q^{-1} (i_s - q + 1)
    assert inv == (H1.basis(W.gen(1)) + (1 - Q)).scale(qinv)
    assert star == H1.basis(W.gen(1)) + (1 - Q)
    assert H1.mul(H1.basis(W.gen(1)), inv) == H1.one()
    inve, _ = H1.im_invert_basis(W.identity)
    assert inve == H1.one()
    t = W.elt([-1])
    invt, _ = H1.im_invert_basis(t)
    assert H1.mul(H1.basis(t), invt) == H1.one()
    assert H1.mul(invt, H1.basis(t)) == H1.one()


def test_inverse_both_sides_on_ball(Hc2):
    W = Hc2.weyl
    for x in W.ball(3):
        inv, star = Hc2.im_invert_basis(x)
        assert Hc2.mul(Hc2.basis(x), inv) == Hc2.one()
        assert Hc2.mul(inv, Hc2.basis(x)) == Hc2.one()
        # star stays integral and i_w * star = q_w * i_{omega-adjusted}
        word, om = W.reduced_word(x)
        qw = Hc2.degree_hom(Hc2.basis(x))
        assert Hc2.mul(Hc2.basis(x), star) == Hc2.basis(om).scale(qw)


def test_vee_involution(Hc2):
    W = Hc2.weyl
    rng = random.Random(11)
    ball = W.ball(3)
    s = W.gen(1)
    assert Hc2.vee_involution(Hc2.basis(s)) == Hc2.basis(s)
    t = Hc2.basis_translation(Hc2.datum.lattice([-1, -1]))
    assert Hc2.vee_involution(t) == Hc2.basis_translation(Hc2.datum.lattice([1, 1]))
    for _ in range(6):
        a = Hc2.basis(rng.choice(ball)) + rng.randint(0, 2)
        b = Hc2.basis(rng.choice(ball))
        lhs = Hc2.vee_involution(a * b)
        rhs = Hc2.vee_involution(b) * Hc2.vee_involution(a)
        assert lhs == rhs


def test_scalar_on_the_left(H1):
    """LaurentPoly ⊕ HeckeElt reaches the HeckeElt's reflected operators."""
    h = H1.basis(H1.weyl.gen(1))
    assert Q * h == h * Q == h.scale(Q)
    assert Q + h == h + Q == H1.from_terms([(H1.weyl.identity, Q), (H1.weyl.gen(1), 1)])
    assert Q - h == -(h - Q)
    with pytest.raises(TypeError):
        Q + "x"


def test_degree_hom(H1):
    W = H1.weyl
    assert H1.degree_hom(H1.one()) == 1
    assert H1.degree_hom(H1.basis(W.gen(1))) == Q
    s1s0 = H1.basis(W.compose(W.gen(1), W.gen(0)))
    assert H1.degree_hom(s1s0) == Q * Q
    rng = random.Random(5)
    ball = W.ball(4)
    for _ in range(8):
        a = H1.basis(rng.choice(ball)) + rng.randint(0, 2)
        b = H1.basis(rng.choice(ball)) + rng.randint(0, 2)
        assert H1.degree_hom(a * b) == H1.degree_hom(a) * H1.degree_hom(b)


def test_degree_hom_unequal_parameters():
    H = IwahoriHecke.for_datum(load_bundled("a1_unequal"))
    W = H.weyl
    assert H.degree_hom(H.basis(W.gen(0))) == LaurentPoly.q_power(3)


def test_omega_twist(Hgl2):
    W = Hgl2.weyl
    oms = [om for om in W.omega_samples() if om != W.identity][:3]
    for om in oms:
        iom = Hgl2.basis(om)
        iominv = Hgl2.basis(W.inverse(om))
        for x in W.ball(3, with_omega=False)[:12]:
            conj = W.compose(W.compose(om, x), W.inverse(om))
            assert iom * Hgl2.basis(x) * iominv == Hgl2.basis(conj)


def test_support_triangularity(Hc2):
    W = Hc2.weyl
    ball = W.ball(3, with_omega=False)
    rng = random.Random(2)
    for _ in range(8):
        x, y = rng.choice(ball), rng.choice(ball)
        prod = Hc2.basis(x) * Hc2.basis(y)
        for z in prod.d:
            zx = W.compose(W.inverse(x), z)   # z = x·u with u ≤ y
            zy = W.compose(z, W.inverse(y))   # z = v·y with v ≤ x
            assert W.bruhat_le(zx, y)
            assert W.bruhat_le(zy, x)


def test_length_q_multiplicativity_equivalence(Hc2):
    W = Hc2.weyl
    ball = W.ball(3, with_omega=False)
    rng = random.Random(9)
    for _ in range(30):
        x, y = rng.choice(ball), rng.choice(ball)
        xy = W.compose(x, y)
        adds = W.length(x) + W.length(y) == W.length(xy)
        prod_is_basis = Hc2.basis(x) * Hc2.basis(y) == Hc2.basis(xy)
        q = [Hc2.degree_hom(Hc2.basis(z)) for z in (x, y, xy)]
        q_mult = q[0] * q[1] == q[2]
        assert adds == prod_is_basis == q_mult


def test_pushforward_example(Ht2):
    src = Ht2.datum
    quot = TorsionQuotient(src, [(1,)])
    assert quot.datum.torsion == ()
    assert quot.datum.w_elems == src.w_elems  # so push_elt keeps each W₀ index
    Hq = IwahoriHecke.for_datum(quot.datum)
    x = Ht2.weyl.elt([0], [1])
    assert quot.push_hecke(Ht2.basis(x), Hq) == Hq.basis(Hq.weyl.elt([0]))
    # merged cosets sum coefficients
    h = Ht2.basis(Ht2.weyl.elt([0], [1])) + Ht2.basis(Ht2.weyl.elt([0], [0]))
    assert quot.push_hecke(h, Hq) == Hq.one().scale(2)


def test_pushforward_is_algebra_hom(Ht2):
    quot = TorsionQuotient(Ht2.datum, [(1,)])
    Hq = IwahoriHecke.for_datum(quot.datum)
    W = Ht2.weyl
    rng = random.Random(13)
    ball = W.ball(3)
    for _ in range(8):
        a = Ht2.basis(rng.choice(ball)) + rng.randint(0, 2)
        b = Ht2.basis(rng.choice(ball))
        assert quot.push_hecke(a * b, Hq) == Hq.mul(quot.push_hecke(a, Hq), quot.push_hecke(b, Hq))


def test_pushforward_trivial_subgroup(Ht2):
    quot = TorsionQuotient(Ht2.datum, [])
    assert tuple(quot.datum.torsion) == (2,)
    Hq = IwahoriHecke.for_datum(quot.datum)
    x = Ht2.weyl.elt([1], [1], 1)
    assert quot.push_hecke(Ht2.basis(x), Hq).terms()[0][0].tors == x.tors


def test_pushforward_bad_subgroup(Ht2):
    with pytest.raises(SubgroupInvalid):
        TorsionQuotient(Ht2.datum, [(1, 0)])


def test_braid_soundness_random_words(Hc2):
    """Products of generator words agree after a braid move."""
    W = Hc2.weyl
    d = Hc2.datum
    rng = random.Random(0xC0FFEE)
    pairs = list(d.coxeter_matrix.items())
    for _ in range(40):
        word = [rng.choice(d.saff_indices) for _ in range(rng.randint(2, 8))]
        # inject a braid pair at a random position
        (a, b), order = rng.choice(pairs)
        if order is None:
            continue
        pos = rng.randrange(len(word) + 1)
        left = word[:pos] + [a, b] * order + word[pos:]
        right = word[:pos] + [b, a] * order + word[pos:]
        pl = Hc2.one()
        for i in left:
            pl = pl * Hc2.basis(W.gen(i))
        pr = Hc2.one()
        for i in right:
            pr = pr * Hc2.basis(W.gen(i))
        assert pl == pr


# -- products with a generator word in one packed pass --------------------------------


def _gen_chain(H, a, word):
    """a · i_{s_1} ··· i_{s_ℓ} by one mul per letter."""
    for i in word:
        a = H.mul(a, H.basis(H.weyl.gen(i)))
    return a


@pytest.mark.parametrize("name", ["c2", "a1_unequal", "a1_torsion2"])
def test_mul_word_matches_generator_chain(name):
    """mul_word equals one mul per letter on random words with a repeated
    letter and on reduced words (there also the reference product), for
    operands held as d and packed at narrower and wider widths, with negative
    exponents and coefficients near 10^30."""
    H = IwahoriHecke.for_datum(load_bundled(name))
    W, gens = H.weyl, H.datum.saff_indices
    rng = random.Random(41)
    ball = W.ball(3)
    big = 10**30
    for t in range(8):
        if t % 2:
            word = list(W.reduced_word(rng.choice(ball))[0])
        else:
            word = [rng.choice(gens) for _ in range(rng.randint(1, 7))]
            j = rng.randrange(len(word))
            word[j:j] = [word[j]]  # a non-reduced word: s·s
        terms = [
            (rng.choice(ball), LaurentPoly({rng.randint(-6, 6): rng.randint(-big, big) for _ in range(3)}))
            for _ in range(3)
        ]
        want = _gen_chain(H, H.from_terms(terms), word).d
        if t % 2:  # a reduced word of x: the product is a · i_x
            assert want == reference_mul(H, H.from_terms(terms), H.basis(W.word_to_elt(word)))
        operands = [H.from_terms(terms), _packed_at(H, terms, 104), _packed_at(H, terms, 256, below=3)]
        N = operands[1]._pk[3] * 3 ** len(word)
        for a in operands:
            got = H.mul_word(a, word)
            assert _forms(got) == ["_pk"] and _forms(a) == ["_pk"]
            assert got._pk[3] == N
            assert got.d == want
        # repacked when N(a)·3^ℓ needs more digits; never narrowed
        assert operands[1]._pk[2] == max(104, hecke._width(N))
        assert operands[2]._pk[2] == 256


def test_mul_word_empty_word_and_zero(Hc2):
    W = Hc2.weyl
    terms = [(W.ball(2)[3], LaurentPoly({-2: 3, 1: -1})), (W.identity, Q)]
    assert Hc2.mul_word(Hc2.from_terms(terms), []).d == Hc2.from_terms(terms).d
    for word in ([], [0, 1, 0], [2, 2]):
        assert not Hc2.mul_word(Hc2.zero(), word)


# -- an independent reference product ------------------------------------------


def reference_times_gen(H, h, i):
    """h · i_s by the quadratic relation, on {w: LaurentPoly} dicts."""
    W = H.weyl
    s, qs = W.gen(i), LaurentPoly.q_power(H.datum.L[i])
    out: dict = {}
    for w, p in h.items():
        ws = W.compose(w, s)
        terms = [(ws, p)] if W.length(ws) > W.length(w) else [(ws, p * qs), (w, p * (qs - 1))]
        for x, c in terms:
            out[x] = out.get(x, LaurentPoly.zero()) + c
    return {x: c for x, c in out.items() if c}


def reference_mul(H, a, b):
    """a·b one generator at a time: y = ω·s_1···s_r is peeled by right descents."""
    W = H.weyl
    out: dict = {}
    for y, c in b.d.items():
        word = []
        while W.length(y) > 0:
            i = next(i for i in H.datum.saff_indices if W.length(W.compose(y, W.gen(i))) < W.length(y))
            word.append(i)
            y = W.compose(y, W.gen(i))
        cur = {W.compose(w, y): p for w, p in a.d.items()}  # i_w · i_ω = i_{wω}
        for i in reversed(word):
            cur = reference_times_gen(H, cur, i)
        for x, p in cur.items():
            out[x] = out.get(x, LaurentPoly.zero()) + p * c
    return {x: c for x, c in out.items() if c}


def random_elt(H, rng, ball, terms=3):
    big = 10**30
    return H.from_terms(
        (rng.choice(ball), LaurentPoly({rng.randint(-6, 6): rng.randint(-big, big) for _ in range(3)}))
        for _ in range(terms)
    )


@pytest.mark.parametrize("name", ["c2", "a1_unequal"])
def test_mul_and_mul_inverse_match_reference(name):
    H = IwahoriHecke.for_datum(load_bundled(name))
    W = H.weyl
    rng = random.Random(17)
    ball = W.ball(4)
    for _ in range(6):
        a, b = random_elt(H, rng, ball), random_elt(H, rng, ball)
        assert H.mul(a, b).d == reference_mul(H, a, b)
        w = rng.choice(ball)
        assert reference_mul(H, H.mul_inverse(a, w), H.basis(w)) == a.d


# -- the id-keyed rewriting memos ------------------------------------------------


@pytest.mark.parametrize("name", ["c2", "gl2", "a1_torsion2"])
def test_step_memos_match_group_layer(name):
    H = IwahoriHecke.for_datum(load_bundled(name))
    W, L = H.weyl, H.datum.L
    ball = W.ball(4)
    for x in ball:
        n = W.intern(x)
        for i in H.datum.saff_indices:
            H._apply_gen_right({n: 1}, i, 4)
            ns, e = H._gen_cache[n * H._G + i]
            xs = W.compose(x, W.gen(i))
            assert W.by_id[ns] == xs
            assert e == (None if W.length(xs) > W.length(x) else 2 * L[i])
    # every memoized step decodes to the (element, generator) it was stored for
    for key, (ns, e) in H._gen_cache.items():
        n, i = divmod(key, H._G)
        x, xs = W.by_id[n], W.compose(W.by_id[n], W.gen(i))
        assert W.by_id[ns] == xs
        assert e == (None if W.length(xs) > W.length(x) else 2 * L[i])
    # right translation by ω, through _flush and through whole products
    for om in W.omega_samples():
        acc: dict = {}
        H._flush({W.intern(x): 1 for x in ball}, W.intern(om), 1, acc)
        assert [W.by_id[m] for m in acc] == [W.compose(x, om) for x in ball]
    assert 0 not in H._om_cache  # ω = 1 skips the memo
    for om, memo in H._om_cache.items():
        for n, m in memo.items():
            assert W.by_id[m] == W.compose(W.by_id[n], W.by_id[om])
    rng = random.Random(11)
    small = W.ball(3)
    for _ in range(4):
        a, b = random_elt(H, rng, small), random_elt(H, rng, small)
        assert H.mul(a, b).d == reference_mul(H, a, b)


@pytest.mark.parametrize("name", ["a1", "a1_unequal", "a1_torsion2", "gl2", "c2", "a2"])
def test_mul_basis_each_matches_mul(name):
    """One trie walk gives a·i_w for each w, as the generic product does: on
    words that are prefixes of one another, a repeated w, the identity and
    (gl2) ω ≠ 1; each product is an element of its own."""
    H = IwahoriHecke.for_datum(load_bundled(name))
    W = H.weyl
    rng = random.Random(name)
    ball = W.ball(3)
    ws = [W.identity, *W.ball(2, with_omega=False), *rng.sample(ball, min(10, len(ball)))]
    ws.append(ws[-1])
    words = [W.reduced_word(w)[0] for w in ws]
    assert any(0 < len(u) < len(v) and v[:len(u)] == u for u in words for v in words)
    assert name != "gl2" or any(W.reduced_word(w)[1] != W.identity for w in ws)
    a = random_elt(H, rng, ball)
    ref = H.from_terms(list(a.d.items()))
    got = H.mul_basis_each(a, ws)
    assert len(got) == len(ws) and got[-1] is not got[-2]
    for w, word, g in zip(ws, words, got):
        assert g._pk[3] == a._pk[3] * 3 ** len(word)  # the norm bound of the width rule
        assert g.d == H.mul(ref, H.basis(w)).d
    assert a == ref
    assert [g.d for g in H.mul_basis_each(H.zero(), ws)] == [{}] * len(ws)


def test_results_do_not_depend_on_id_order():
    """Two c2 engines whose id tables were filled in different orders agree."""
    fresh, warmed = (IwahoriHecke.for_datum(load_bundled("c2")) for _ in range(2))
    Ww = warmed.weyl
    far = Ww.ball(5)[::-7]
    for x in far:
        warmed.mul(warmed.basis(x), warmed.basis(far[0]))
        warmed.im_invert_basis(x)
    rng = random.Random(23)
    ball = fresh.weyl.ball(3)
    for _ in range(5):
        terms = [
            [(rng.choice(ball), LaurentPoly({rng.randint(-3, 3): rng.randint(-9, 9)})) for _ in range(3)]
            for _ in range(2)
        ]
        w = rng.choice(ball)
        outs = []
        for H in (fresh, warmed):
            a, b = (H.from_terms(t) for t in terms)
            outs.append([H.mul(a, b), H.mul_inverse(a, w), *H.im_invert_basis(w)])
        for r1, r2 in zip(*outs):
            assert r1 == r2
            assert r1.to_obj() == r2.to_obj()
            assert repr(r1) == repr(r2)
    # the test means something only if the two id tables really differ
    assert [fresh.weyl.intern(x) for x in ball] != [Ww.intern(x) for x in ball]


# -- one form at rest: packed products ---------------------------------------------


def _forms(h):
    """The slots of h that are filled: "d", "_pk" or both (never expected)."""
    out = []
    for name, slot in (("d", SparseElt.d), ("_pk", HeckeElt._pk)):
        try:
            slot.__get__(h)
        except AttributeError:
            continue
        out.append(name)
    return out


@pytest.mark.parametrize("name", ["c2", "a1_unequal"])
def test_packed_chains_match_reference(name):
    """A chain of products whose intermediates never materialize d, with
    operands that were themselves products, equals the reference product."""
    H = IwahoriHecke.for_datum(load_bundled(name))
    rng = random.Random(31)
    ball = H.weyl.ball(3)
    for _ in range(3):
        terms = [
            [(rng.choice(ball), LaurentPoly({rng.randint(-3, 3): rng.randint(-9, 9)})) for _ in range(3)]
            for _ in range(3)
        ]
        a, b, c = (H.from_terms(t) for t in terms)
        ra, rb, rc = (H.from_terms(t) for t in terms)  # d-form copies for the reference
        ab = H.mul(a, b)
        abc = H.mul(ab, c)
        abcab = H.mul(abc, ab)  # a packed right operand
        for h in (a, b, c, ab, abc, abcab):
            assert _forms(h) == ["_pk"]
        ref_ab = HeckeElt(H, reference_mul(H, ra, rb))
        ref_abc = HeckeElt(H, reference_mul(H, ref_ab, rc))
        assert abcab.d == reference_mul(H, ref_abc, ref_ab)
        assert abc.d == ref_abc.d and ab.d == ref_ab.d


def test_width_grows_mid_chain():
    """A factor with coefficients past 10^30 widens the digits in the middle of
    a chain; the narrower results before it, one of them repacked as an
    operand, still read back exactly."""
    H = IwahoriHecke.for_datum(load_bundled("c2"))
    rng = random.Random(5)
    ball = H.weyl.ball(3)
    small = [H.basis(rng.choice(ball)) + rng.randint(1, 3) for _ in range(3)]
    big = random_elt(H, rng, ball)  # coefficients up to 10^30
    refs = [HeckeElt(H, dict(h.d)) for h in small + [big]]
    early = H.mul(small[0], small[1])
    narrow = early._pk[2]
    chain, widths = [small[0]], []
    for h in small[1:] + [big] + small[:2]:
        chain.append(H.mul(chain[-1], h))
        widths.append(chain[-1]._pk[2])
    assert widths == sorted(widths) and widths[2] - widths[1] >= 90  # the factor 10^30 is third
    assert chain[1]._pk[2] > widths[0]  # repacked as the next product's operand
    ref = [refs[0]]
    for h in refs[1:] + refs[:2]:
        ref.append(HeckeElt(H, reference_mul(H, ref[-1], h)))
    for got, want in zip(chain, ref):
        assert got.d == want.d
    # the early, narrow result used next to a wide one is repacked first
    assert H.mul(chain[4], early).d == reference_mul(H, ref[4], ref[1])
    assert narrow < 64 < early._pk[2]


def _packed_at(H, terms, k, below=0):
    """The element Σ p·i_w packed at width k, base exponent `below` under its least."""
    d = H.from_terms(terms).d
    e0 = min(min(p.d) for p in d.values()) - below
    Z = {H.weyl.intern(w): _pack(p.d, e0, k) for w, p in d.items()}
    return H._from_packed(Z, e0, k, sum(abs(c) for p in d.values() for c in p.d.values()))


def test_equality_across_forms_widths_and_parents():
    fresh, warmed = (IwahoriHecke.for_datum(load_bundled("c2")) for _ in range(2))
    for x in warmed.weyl.ball(4)[::-3]:
        warmed.weyl.intern(x)
    ball = fresh.weyl.ball(2)
    terms = [(ball[3], LaurentPoly({-1: 2, 2: -1})), (ball[7], LaurentPoly({0: 5}))]
    plain = fresh.from_terms(terms)
    for a, b in [
        (_packed_at(fresh, terms, 8), _packed_at(fresh, terms, 16)),  # widths differ
        (_packed_at(fresh, terms, 8), _packed_at(fresh, terms, 8, below=2)),  # base exponents differ
        (_packed_at(fresh, terms, 8), plain),  # packed against d
        (plain, _packed_at(fresh, terms, 16)),
        (_packed_at(fresh, terms, 8), _packed_at(warmed, terms, 8)),  # same value and (e0, k), other ids
    ]:
        assert a == b and b == a
    assert _packed_at(fresh, terms, 8) != fresh.from_terms(terms[:1])
    assert _packed_at(fresh, terms, 8) != _packed_at(fresh, terms[:1], 8)  # same (e0, k), other value
    # the same packed dict and (e0, k) in two algebras names different elements
    n = fresh.weyl.intern(ball[3])
    assert fresh.weyl.by_id[n] != warmed.weyl.by_id[n]
    one_term = {n: _pack({0: 1}, 0, 8)}
    assert fresh._from_packed(one_term, 0, 8, 1) != warmed._from_packed(dict(one_term), 0, 8, 1)


def test_packed_equality_stays_packed(Hc2):
    """== between two packed elements of one algebra widens the narrower side in
    place and compares digits, whatever the widths and base exponents; neither
    side is unpacked."""
    ball = Hc2.weyl.ball(2)
    terms = [(ball[3], LaurentPoly({-1: 2, 2: -1})), (ball[7], LaurentPoly({0: 5})), (ball[1], Q + 1)]
    other = terms[:2] + [(ball[1], Q + 2)]  # the same keys, one value changed
    for (ka, ba), (kb, bb) in [((8, 0), (16, 0)), ((8, 0), (8, 3)), ((24, 2), (8, 0))]:
        for rhs, equal in ((terms, True), (other, False)):
            a, b = _packed_at(Hc2, terms, ka, ba), _packed_at(Hc2, rhs, kb, bb)
            e0s = a._pk[1], b._pk[1]
            assert (a == b) is equal and (b == a) is equal and (a != b) is not equal
            assert _forms(a) == _forms(b) == ["_pk"]
            assert a._pk[2] == b._pk[2] == max(ka, kb)  # the narrower side was widened
            assert (a._pk[1], b._pk[1]) == e0s  # and neither side was rebased
            assert a.d == Hc2.from_terms(terms).d and b.d == Hc2.from_terms(rhs).d


def test_packed_equality_tells_values_apart(Hc2):
    """Equal key sets and equal (e0, k) do not make two elements equal, and
    neither do equal packed dicts at different base exponents."""
    ball = Hc2.weyl.ball(2)
    terms = [(ball[2], LaurentPoly({0: 1, 4: -3})), (ball[5], LaurentPoly({2: 7}))]
    a = _packed_at(Hc2, terms, 8)
    for c in (2, -1, Q):
        b = _packed_at(Hc2, [(w, p * c) for w, p in terms], 8)
        assert set(a._pk[0]) == set(b._pk[0])
        if c is not Q:
            assert a._pk[1:3] == b._pk[1:3]
        assert a != b and b != a
    # v·a packed one exponent higher holds exactly a's packed dict
    Z, e0, k, N = a._pk
    va = Hc2._from_packed(dict(Z), e0 + 1, k, N)
    assert va != a and a != va
    assert va.d == {w: p * LaurentPoly.v() for w, p in Hc2.from_terms(terms).d.items()}


def test_packed_zero_equality(Hc2):
    ball = Hc2.weyl.ball(2)
    terms = [(ball[4], LaurentPoly({-2: 3, 1: 1}))]
    h = _packed_at(Hc2, terms, 8)
    c = LaurentPoly({-1: 4, 3: -5})
    zeros = [
        Hc2._from_packed({}, 0, 8, 0),
        Hc2._from_packed({}, -7, 32, 0),
        Hc2.lincomb([(h, c), (_packed_at(Hc2, terms, 16, below=3), -c)]),  # exact cancellation
    ]
    nonzero = _packed_at(Hc2, terms, 16, below=1)
    for z in zeros:
        assert not z
        for y in zeros:
            assert z == y
        assert z != nonzero and nonzero != z
    assert all(_forms(h) == ["_pk"] for h in zeros + [nonzero])
    for z in zeros:
        assert z == Hc2.zero() and Hc2.zero() == z and z != nonzero  # against d


def test_packed_equality_matches_dict_equality(Hc2):
    """Seeded c2 products, copied at random wider widths and lower base
    exponents: packed == agrees with comparing their d dicts."""
    rng = random.Random(59)
    ball = Hc2.weyl.ball(3)

    def elt():
        return Hc2.from_terms(
            (rng.choice(ball), LaurentPoly({rng.randint(-3, 3): rng.randint(-9, 9) or 1})) for _ in range(3)
        )

    outcomes = []
    for _ in range(12):
        a, b, c = elt(), elt(), elt()
        one = LaurentPoly.one()
        pairs = [
            (Hc2.mul(Hc2.mul(a, b), c), Hc2.mul(a, Hc2.mul(b, c))),  # associativity: equal
            (Hc2.mul(a, b), Hc2.mul(b, a)),
            (Hc2.mul(a, b), Hc2.lincomb([(Hc2.mul(a, b), one), (Hc2.basis(rng.choice(ball)), one)])),
        ]
        for x, y in pairs:
            widths = x._pk[2], y._pk[2]
            want = x.d == y.d
            X = _packed_at(Hc2, x.d.items(), widths[0] + 8 * rng.randint(0, 3), rng.randint(0, 3))
            Y = _packed_at(Hc2, y.d.items(), widths[1] + 8 * rng.randint(0, 3), rng.randint(0, 3))
            assert (X == Y) is want and (Y == X) is want
            assert _forms(X) == _forms(Y) == ["_pk"]
            outcomes.append(want)
    assert True in outcomes and False in outcomes  # both outcomes were exercised


def test_elements_of_two_algebras_never_compare_equal():
    """c2 and a2 share the group-element tuples of rank 2, and their id tables
    can agree too; an element of one algebra still never equals one of the
    other, in either form and at any widths."""
    Hc, Ha = (IwahoriHecke.for_datum(load_bundled(n)) for n in ("c2", "a2"))
    ball = Hc.weyl.ball(2)
    ids = [(Hc.weyl.intern(x), Ha.weyl.intern(x)) for x in ball]
    assert all(i == j for i, j in ids)  # the two id tables agree
    assert Hc.one() != Ha.one() and Ha.one() != Hc.one()
    for k1, k2 in ((8, 8), (8, 16)):
        a, b = _packed_at(Hc, [(ball[3], Q + 1)], k1), _packed_at(Ha, [(ball[3], Q + 1)], k2)
        if k1 == k2:
            assert a._pk == b._pk  # one packed form
        assert a != b and b != a
        assert a.d == b.d  # the same keys and coefficients, in two different algebras
    # two algebras on one datum agree on elements, whatever their id tables
    assert IwahoriHecke.for_datum(load_bundled("c2")).basis(ball[3]) == Hc.basis(ball[3])


def test_one_form_at_rest():
    H = IwahoriHecke.for_datum(load_bundled("a2"))
    W = H.weyl
    a, b = H.basis(W.gen(1)) + 2, H.basis(W.gen(2))
    assert _forms(a) == _forms(b) == ["d"]
    p = H.mul(a, b)
    assert _forms(p) == _forms(a) == _forms(b) == ["_pk"]
    assert p and not p.is_zero() and not H.mul(a, H.zero())  # truth tests do not unpack
    assert _forms(p) == ["_pk"]
    inv, star = H.im_invert_basis(W.gen(1))
    theta = H.mul_inverse(H.basis(W.gen(2)), W.gen(1))
    assert _forms(inv) == _forms(star) == _forms(theta) == ["_pk"]
    d = p.d
    assert _forms(p) == ["d"] and p.d is d
    assert repr(p) == repr(HeckeElt(H, dict(d)))
    H.mul(p, p)  # packing again replaces d
    assert _forms(p) == ["_pk"]


@pytest.mark.parametrize("name", ["c2", "a1_unequal"])
def test_lincomb_matches_reference(name):
    """Σ c·h by IwahoriHecke.lincomb equals per-key LaurentPoly arithmetic, with
    operands held as d and packed at two widths and base exponents, small
    coefficients and ones up to 10^30 with negative v-exponents."""
    H = IwahoriHecke.for_datum(load_bundled(name))
    rng = random.Random(41)
    ball = H.weyl.ball(3)

    def poly(size):
        return LaurentPoly({rng.randint(-6, 3): rng.choice((-1, 1)) * rng.randint(1, size)
                            for _ in range(rng.randint(1, 3))})

    for size in (3, 10**30, 3, 10**30):
        terms = [[(rng.choice(ball), poly(9)) for _ in range(3)] for _ in range(3)]
        refs = [H.from_terms(t).d for t in terms]
        ops = [H.from_terms(terms[0]), _packed_at(H, terms[1], 16), _packed_at(H, terms[2], 64, 5)]
        cs = [poly(size) for _ in ops]
        want: dict = {}
        for ref, c in zip(refs, cs):
            for w, p in ref.items():
                want[w] = want.get(w, LaurentPoly.zero()) + c * p
        got = H.lincomb(zip(ops, cs))
        assert _forms(got) == ["_pk"]
        assert got.d == {w: p for w, p in want.items() if p}
        assert _forms(got) == ["d"] and all(_forms(h) == ["_pk"] for h in ops)
        # exact cancellation, between two forms of one value and within one operand
        c = poly(10**30)
        for pairs in ([(_packed_at(H, terms[0], 16, 2), c), (H.from_terms(terms[0]), -c)],
                      [(ops[1], c), (ops[1], -c)]):
            zero = H.lincomb(pairs)
            assert zero == H.zero() and not zero and not zero.d
            assert all(len(_forms(h)) == 1 for h, _ in pairs)
    plain = H.from_terms(terms[0])
    assert H.lincomb([]) == H.zero()
    assert H.lincomb([(plain, LaurentPoly.zero())]) == H.zero()
    assert _forms(plain) == ["d"]


def test_explicit_zero_coefficient_is_dropped(H1):
    """An element built with a zero coefficient is the zero element, and products
    and sums with it do not fail on an empty packed base exponent."""
    h = HeckeElt(H1, {H1.weyl.identity: LaurentPoly.zero()})
    assert not h and h == H1.zero() and h.d == {}
    assert H1.mul(h, H1.one()) == H1.zero()
    assert H1.mul(H1.one(), h) == H1.zero()
    assert H1.lincomb([(h, LaurentPoly.one())]) == H1.zero()
    g = HeckeElt(H1, {H1.weyl.identity: LaurentPoly.zero(), H1.weyl.gen(1): Q})
    assert g == H1.basis(H1.weyl.gen(1)).scale(Q)
    assert H1.lincomb([(g, LaurentPoly.one())]) == g


# -- one conversion per distinct coefficient ---------------------------------------------


def test_each_distinct_coefficient_is_converted_once(monkeypatch):
    """a·1_K on the c2 special facet repeats each coset sum over |W_J| keys:
    reading d unpacks each distinct sum once and shares its LaurentPoly,
    widening unpacks and repacks each once, and packing d again packs each
    shared LaurentPoly once; every result equals the per-key conversion."""
    eng = load_engine("c2")
    H, F = eng.hecke, eng.para.special_facet()
    rng = random.Random(67)
    ball = H.weyl.ball(3)
    terms = [(rng.choice(ball), LaurentPoly({rng.randint(-3, 3): rng.randint(1, 9)})) for _ in range(6)]
    prod, wide = H.mul_oneK(H.from_terms(terms), F), H.mul_oneK(H.from_terms(terms), F)
    Z, e0, k, _ = prod._pk
    distinct = set(Z.values())
    assert len(distinct) > 2
    assert len(Z) == len(F.elements) * len(distinct)  # one sum per coset, on each of its keys
    unpack, pack = hecke._unpack, hecke._pack
    want = {H.weyl.by_id[n]: LaurentPoly(unpack(P, e0, k)) for n, P in Z.items()}
    calls = {"unpack": 0, "pack": 0}

    def counting(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(hecke, "_unpack", counting("unpack", unpack))
    monkeypatch.setattr(hecke, "_pack", counting("pack", pack))
    d = prod.d
    assert calls == {"unpack": len(distinct), "pack": 0}
    assert d == want and len({id(p) for p in d.values()}) == len(distinct)
    Zw, e0w = H._packed(wide, k + 8)
    assert calls == {"unpack": 2 * len(distinct), "pack": len(distinct)}
    assert e0w == e0 and Zw == {n: pack(unpack(P, e0, k), e0, k + 8) for n, P in Z.items()}
    assert len({id(P) for P in Zw.values()}) == len(distinct)
    assert wide.d == want
    Zd, e0d = H._packed(prod, k)  # d back to packed: one _pack per shared LaurentPoly
    assert calls["pack"] == 2 * len(distinct)
    assert Zd == {n: pack(unpack(P, e0, k), e0d, k) for n, P in Z.items()}
    monkeypatch.undo()
    assert want == H.mul(H.from_terms(terms), eng.para.kelt(F, eng.datum.zero)).d


# -- exact division of packed coefficients ---------------------------------------------


class _Trivial:
    """The facet type of W_∅ = {1}: 1_K = 1, so a·i_w·1_K / P = a·i_w / P."""

    J = ()

    def __init__(self, H):
        self.elements = (H.weyl.identity,)


def test_division_recomputes_the_norm_bound(H1):
    """(1 - q^{n+1}) / (1 - q) = 1 + q + ... + q^n: the quotient's norm bound is
    recomputed from its coefficients (n + 1, not 2)."""
    n = 20
    a = H1.basis(H1.weyl.gen(1)).scale(1 - LaurentPoly.v_power(2 * n + 2))
    got = H1.mul_oneK(a, _Trivial(H1), divisor=1 - Q)
    assert got._pk[3] == n + 1
    assert got.d == {H1.weyl.gen(1): LaurentPoly({2 * i: 1 for i in range(n + 1)})}
    h = H1.basis(H1.weyl.gen(0)).scale(Q * Q - 1) + H1.one().scale(Q + 1)
    got = H1.mul_oneK(h, _Trivial(H1), divisor=Q + 1)
    assert got.d == (H1.basis(H1.weyl.gen(0)).scale(Q - 1) + H1.one()).d
    got = H1.mul_oneK(H1.one(), _Trivial(H1), divisor=Q)  # the base exponent moves
    assert got.d == {H1.weyl.identity: LaurentPoly.v_power(-2)}


def test_division_repacks_wider_quotients(H1):
    """s = 1 - 2q^n + q^{2n} = (1 - q)²·t with t = 1 + 2q + ... + n·q^{n-1} + ... + q^{2n-2}:
    s packs at width 8, but t's coefficients reach n = 200 > 2^7, so the
    quotients are repacked wider."""
    n = 200
    s = LaurentPoly({0: 1, 2 * n: -2, 4 * n: 1})
    P = (1 - Q) * (1 - Q)
    t = LaurentPoly({2 * i: min(i + 1, 2 * n - 1 - i) for i in range(2 * n - 1)})
    assert t * P == s
    a = H1.one().scale(s)
    got = H1.mul_oneK(a, _Trivial(H1), divisor=P)
    assert got._pk[3] == n * n and got._pk[2] > a._pk[2] == 8
    assert got.d == {H1.weyl.identity: t}


def test_division_rejects_a_non_divisor(H1):
    with pytest.raises(NonDivisible):
        H1.mul_oneK(H1.one(), _Trivial(H1), divisor=1 + Q)
    with pytest.raises(NonDivisible):
        H1.mul_oneK(H1.basis(H1.weyl.gen(1)).scale(Q), _Trivial(H1), divisor=1 - Q)


def _zero_results(H, F, x, w):
    """(entry point, its result) for a zero operand at every Hecke entry point
    that takes one, each call on a fresh H.zero()."""
    z = H.zero
    W = H.weyl
    words = [W.identity, w, W.gen(0), W.compose(w, W.gen(0))]
    out = [
        ("mul(0, x)", H.mul(z(), x)),
        ("mul(x, 0)", H.mul(x, z())),
        ("mul(0, 0)", H.mul(z(), z())),
        ("mul_word", H.mul_word(z(), [0, 1, 0])),
        ("lincomb([])", H.lincomb([])),
        ("lincomb(0·Q)", H.lincomb([(z(), Q)])),
        ("lincomb(x·0)", H.lincomb([(x, LaurentPoly.zero())])),
        ("mul_inverse", H.mul_inverse(z(), w)),
        ("coset_sums", H.coset_sums(z(), F)),
        ("coset_sums/divisor", H.coset_sums(z(), F, Q + 1)),
        ("mul_oneK", H.mul_oneK(z(), F)),
        ("mul_oneK/divisor", H.mul_oneK(z(), F, Q + 1)),
        ("inverse_coset_sums", H.inverse_coset_sums(z(), w, F)),
        ("coset_reps", H.coset_reps(z(), F)),
        ("exact_width", H.exact_width(z())),
        ("vee_involution", H.vee_involution(z())),
        ("oneK_mul", H.oneK_mul(F, z())),
    ]
    out += [(f"mul_basis_each[{i}]", r) for i, r in enumerate(H.mul_basis_each(z(), words))]
    return out


@pytest.mark.parametrize("name", ["a1", "a1_torsion2", "gl2", "c2"])
def test_zero_runs_the_general_loops(name):
    """A zero operand gives a falsy element equal to H.zero() at every entry
    point, and such a result enters a later product or sum as zero."""
    eng = load_engine(name)
    H, W = eng.hecke, eng.weyl
    F = eng.para.special_facet()
    w = W.ball(3)[-1]
    x = H.from_terms([(w, Q - 1), (W.gen(0), LaurentPoly({-1: 2}))])
    for label, r in _zero_results(H, F, x, w):
        assert not r, label
        assert r == H.zero() and H.zero() == r, label
        assert r == H.lincomb([]), label
        assert not H.mul(r, x) and not H.mul(x, r), label
        assert H.lincomb([(r, Q), (x, Q)]) == x.scale(Q), label
        assert H.mul(x + r, x) == H.mul(x, x), label

    # mul packs a dict-form operand in place; against a zero factor (norm
    # bound 0) it must still pack it wide enough for its own coefficients
    big = [(W.identity, 200), (w, LaurentPoly({-1: 2**40, 2: -300}))]
    for make in (lambda: H.one().scale(200), lambda: H.from_terms(big)):
        for product in (lambda y: H.mul(y, H.zero()), lambda y: H.mul(H.zero(), y)):
            y = make()
            expected = dict(y.d)
            assert not product(y)
            assert y.d == expected
