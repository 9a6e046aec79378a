"""Group law, length anchors, reduced words, Bruhat order."""

import itertools
import random

import pytest

from parahecke.affweyl import _OMEGA_BOX, AffineWeylGroup, ExtWeylElt
from parahecke.rootdatum import BUNDLED_NAMES, Datum, RootDatum, load_bundled


@pytest.fixture(scope="module")
def a1():
    return AffineWeylGroup(load_bundled("a1"))


@pytest.fixture(scope="module")
def a1t2():
    return AffineWeylGroup(load_bundled("a1_torsion2"))


@pytest.fixture(scope="module")
def gl2():
    return AffineWeylGroup(load_bundled("gl2"))


@pytest.fixture(scope="module")
def c2():
    return AffineWeylGroup(load_bundled("c2"))


def test_compose_examples(a1):
    s = a1.gen(1)
    s0 = a1.gen(0)
    assert a1.compose(s, s) == a1.identity
    # s · s0 = t_{-coroot}
    assert a1.compose(s, s0) == a1.elt([-1])
    x = a1.elt([3], w=1)
    assert a1.compose(a1.identity, x) == x


def test_inverse_examples(a1):
    s = a1.gen(1)
    assert a1.inverse(s) == s
    t = a1.elt([-1])
    assert a1.inverse(t) == a1.elt([1])
    s0 = a1.gen(0)
    assert a1.inverse(s0) == s0  # -s(coroot) = coroot
    for x in a1.ball(4):
        assert a1.compose(x, a1.inverse(x)) == a1.identity


def test_length_examples(a1):
    assert (a1.length(a1.identity), a1.weighted_length(a1.identity)) == (0, 0)
    assert a1.length(a1.elt([-1])) == 2
    assert a1.length(a1.compose(a1.elt([-1]), a1.gen(1))) == 3


def test_weighted_length_unequal():
    g = AffineWeylGroup(load_bundled("a1_unequal"))
    t = g.elt([-1])  # reduced word s1 s0: L = 1 + 3
    assert (g.length(t), g.weighted_length(t)) == (2, 4)
    assert g.weighted_length(g.gen(0)) == 3


def test_reduced_word_examples(a1, a1t2, gl2):
    word, om = a1.reduced_word(a1.elt([-1]))
    assert word == (1, 0) and om == a1.identity
    tau = a1t2.elt([0], [1])
    assert a1t2.reduced_word(tau) == ((), tau)
    x = gl2.compose(gl2.elt([1, 0]), gl2.finite(1))
    assert gl2.length(x) == 0
    assert gl2.reduced_word(x) == ((), x)


def test_reduced_words_recompose(c2):
    for x in c2.ball(5):
        word, om = c2.reduced_word(x)
        assert len(word) == c2.length(x)
        assert c2.compose(c2.word_to_elt(word), om) == x


def _greedy_word(W, x):
    """Greedy left descent with lowest-index tie-break, from compose and length alone."""
    word = []
    while W.length(x) > 0:
        i = next(i for i in W.datum.saff_indices if W.length(W.compose(W.gen(i), x)) < W.length(x))
        word.append(i)
        x = W.compose(W.gen(i), x)
    return tuple(word), x


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_reduced_word_memo_is_order_independent(name):
    """Words spliced from the memo are the greedy words, whatever the query order."""
    datum = load_bundled(name)
    ball = AffineWeylGroup(datum).ball(6)
    ref = AffineWeylGroup(datum)
    expected = {x: _greedy_word(ref, x) for x in ball}
    for seed in (1, 2):
        W = AffineWeylGroup(datum)
        order = list(ball)
        random.Random(seed).shuffle(order)
        for x in order:
            assert W.reduced_word(x) == expected[x]
        for y, (word, om) in W._red.items():
            if word:
                assert W.reduced_word(W.compose(W.gen(word[0]), y)) == (word[1:], om)
            else:
                assert y == om and W.length(y) == 0
        assert sorted(ball, key=W.sort_key) == ball


def test_length_inverse_invariance(c2):
    for x in c2.ball(4):
        assert c2.length(x) == c2.length(c2.inverse(x))


def test_antidominant_additivity(c2):
    d = c2.datum
    ms = [m for m, _ in d.antidominant_set(2)]
    for m1 in ms:
        for m2 in ms:
            t1, t2 = c2.translation(m1), c2.translation(m2)
            assert c2.length(c2.compose(t1, t2)) == c2.length(t1) + c2.length(t2)
        for wi in range(d.w_order):
            tw = c2.compose(c2.translation(m1), c2.finite(wi))
            assert c2.length(tw) == c2.length(c2.translation(m1)) + d.w_len[wi]


def test_conjugation_invariance(c2):
    d = c2.datum
    for m, _ in d.antidominant_set(2):
        base = c2.length(c2.translation(m))
        for wi in range(d.w_order):
            assert c2.length(c2.translation(d.act(wi, m))) == base


def test_bruhat_examples(a1):
    s0, s1 = a1.gen(0), a1.gen(1)
    s1s0 = a1.compose(s1, s0)
    assert a1.bruhat_le(a1.identity, s1s0)
    assert a1.bruhat_le(s0, s1s0)
    assert not a1.bruhat_le(s1, s0)


def test_bruhat_is_partial_order_refining_length(c2):
    ball = c2.ball(3)
    for x in ball:
        assert c2.bruhat_le(x, x)
        for y in ball:
            if c2.bruhat_le(x, y):
                assert c2.length(x) <= c2.length(y)
                if c2.length(x) == c2.length(y):
                    assert x == y
                for z in ball:
                    if c2.bruhat_le(y, z):
                        assert c2.bruhat_le(x, z)


def test_bruhat_needs_equal_omega(a1t2):
    tau = a1t2.elt([0], [1])
    s1 = a1t2.gen(1)
    assert not a1t2.bruhat_le(tau, s1)
    assert a1t2.bruhat_le(tau, a1t2.compose(s1, tau))


def test_omega_samples(gl2, a1, a1t2):
    oms = gl2.omega_samples()
    assert gl2.identity in oms
    assert any(x != gl2.identity for x in oms)
    assert all(gl2.length(x) == 0 for x in oms)
    assert a1.omega_samples() == [a1.identity]
    assert len(a1t2.omega_samples()) == 2


_TORUS = {"name": "torus", "free_rank": 1, "simple_coroots": [], "simple_roots": [], "affine_parameters": {}}
_A1_A2 = {"name": "a1xa2", "free_rank": 3, "simple_coroots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          "simple_roots": [[2, 0, 0], [0, 2, -1], [0, -1, 2]],
          "affine_parameters": {"s0": 1, "s1": 1, "s2": 1, "s3": 1, "s4": 1}}


@pytest.mark.parametrize("build", [
    lambda: load_bundled("a1_torsion2"),
    lambda: load_bundled("gl2"),
    lambda: Datum(RootDatum.from_dict(_TORUS)),
    lambda: Datum(RootDatum.from_dict(_A1_A2)),
], ids=["a1_torsion2", "gl2", "torus", "a1xa2"])
def test_omega_samples_equal_the_box_search(build):
    """The reference: every t_λ·u in the box × torsion × W0 whose length is 0."""
    d = build()
    W = AffineWeylGroup(d)
    box = itertools.product(range(-_OMEGA_BOX, _OMEGA_BOX + 1), repeat=d.r)
    tors_space = list(itertools.product(*(range(n) for n in d.torsion)))
    box_w0 = (ExtWeylElt(free, tors, wi) for free in box for tors in tors_space for wi in range(d.w_order))
    assert W.omega_samples() == sorted(x for x in box_w0 if W.length(x) == 0)


def test_intern_ids_are_dense_and_invertible():
    W = AffineWeylGroup(load_bundled("c2"))
    ball = W.ball(3)
    assert ball[0] == W.identity
    ids = [W.intern(x) for x in ball]
    assert ids == list(range(len(ball)))  # identity is 0, then first-seen order
    assert [W.intern(x) for x in ball] == ids
    assert [W.by_id[n] for n in ids] == ball


# The group law, length and Weyl action as first written, on generator
# expressions around a plain dot product: the reference for the kernels.
def _dot(covec, vec):
    return sum(a * b for a, b in zip(covec, vec))


def _old_compose(W, x, y):
    d = W.datum
    free = tuple(a + _dot(row, y.free) for a, row in zip(x.free, d.w_elems[x.w]))
    tors = tuple((a + b) % n for a, b, n in zip(x.tors, y.tors, d.torsion))
    return (free, tors, d.w_mult[x.w][y.w])


def _old_inverse(W, x):
    d = W.datum
    wi = d.w_inv[x.w]
    free = tuple(-_dot(row, x.free) for row in d.w_elems[wi])
    tors = tuple((-a) % n for a, n in zip(x.tors, d.torsion))
    return (free, tors, wi)


def _old_length(W, x):
    d = W.datum
    ft = d.floor_tab[x.w]
    ell = 0
    for k, beta in enumerate(d.pos_roots):
        c = _dot(beta, x.free) + ft[k]
        ell += c if c >= 0 else -c
    return ell


def _old_ball(W, max_length, with_omega=True):
    seen = {W.identity}
    frontier = [W.identity]
    k = 0
    while frontier and k < max_length:
        new = []
        for x in frontier:
            for i in W.datum.saff_indices:
                y = W.compose(x, W.gen(i))
                if y not in seen and W.length(y) == k + 1:
                    seen.add(y)
                    new.append(y)
        frontier = new
        k += 1
    aff = sorted(seen, key=W.sort_key)
    if not with_omega:
        return aff
    return sorted({W.compose(x, om) for om in W.omega_samples() for x in aff}, key=W.sort_key)


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_group_law_kernels_match_the_reference(name):
    """compose, inverse, length and act_w equal the reference formulas on
    ball(4) × ball(4), torsion included; each value is a tuple of ints."""
    W = AffineWeylGroup(load_bundled(name))
    d = W.datum
    ball = W.ball(4)
    for x in ball:
        assert W.inverse(x) == _old_inverse(W, x)
        assert AffineWeylGroup(d).length(x) == _old_length(W, x)
        for y in ball:
            assert W.compose(x, y) == _old_compose(W, x, y)
    frees = {x.free for x in ball}
    for wi in range(d.w_order):
        for free in frees:
            got = d.act_w(wi, free)
            assert got == tuple(_dot(row, free) for row in d.w_elems[wi])
            assert all(type(c) is int for c in got)


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_balls_are_memoized_per_length_and_omega(name):
    """Each (max_length, with_omega) has its own memo entry: a repeated call
    returns the same list, equal to a fresh BFS, whichever is asked first."""
    datum = load_bundled(name)
    ref = AffineWeylGroup(datum)
    want = {(k, om): _old_ball(ref, k, om) for k in (3, 4) for om in (True, False)}
    for first in (True, False):
        W = AffineWeylGroup(datum)
        for k in (3, 4):
            got = {om: W.ball(k, om) for om in (first, not first)}
            for om, ball in got.items():
                assert ball == want[(k, om)]
                assert W.ball(k, om) is ball
        assert W.ball(4) == W.ball(4, with_omega=True)
