"""The loud convention-bug guards fire when an invariant is sabotaged."""

import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from parahecke import engine as engine_mod
from parahecke import verify
from parahecke.affweyl import AffineWeylGroup
from parahecke.bernstein import Bernstein
from parahecke.cli import main
from parahecke.engine import load_engine
from parahecke.errors import NegativeCoefficient, NonUnitDiagonal, SolveInconsistent
from parahecke.hecke import IwahoriHecke, TorsionQuotient
from parahecke.parahoric import Parahoric
from parahecke.ringcore import LaurentPoly
from parahecke.rootdatum import load_bundled
from parahecke.verify import (
    _BRAID_SEED,
    CheckResult,
    _braid_pairs,
    _check_braid_invariance,
    _check_matsumoto,
    _finite_facets,
    render_results,
)


def test_non_unit_diagonal_guard(monkeypatch):
    eng = load_engine("a1")
    B, H = eng.bern, eng.hecke
    # sabotage: make the diagonal of the elimination non-monomial
    real_mul = H.mul

    def bad_mul(a, b):
        out = real_mul(a, b)
        return out.scale(LaurentPoly.q() + 1)

    h = H.basis(eng.weyl.elt([1]))
    monkeypatch.setattr(H, "mul", bad_mul)
    B._theta.clear()
    B._theta_fin.clear()  # a memoized Θ_m·i_w would skip the sabotaged mul
    with pytest.raises(NonUnitDiagonal):
        B.im_to_bern(h)
    monkeypatch.undo()
    B._theta.clear()
    B._theta_fin.clear()


def test_negative_coefficient_counterexample(monkeypatch):
    eng = load_engine("a1")
    P, d = eng.para, eng.datum
    real = eng.bern.orbit_sum_r

    def sabotage(m):
        out = real(m)
        if m == d.zero:
            return out.scale(LaurentPoly.from_int(-1))
        return out

    monkeypatch.setattr(eng.bern, "orbit_sum_r", sabotage)
    P._centers.clear()
    with pytest.raises(NegativeCoefficient) as exc:
        P.satake_table([d.lattice([-1])], check_products=False)
    blob = json.loads(str(exc.value))
    assert blob["theorem_falsified"] == "satake positivity"
    assert blob["x"]["free"] == [-1] and blob["m"]["free"] == [0]
    monkeypatch.undo()
    P._centers.clear()


def test_render_results_failure_exit():
    text, worst = render_results([
        CheckResult("good", "PASS"),
        CheckResult("bad", "FAIL", "broken"),
        CheckResult("halted", "FALSIFIED", "{...}"),
    ])
    assert worst == 1
    assert "[FAIL] bad: broken" in text and "[FALSIFIED] halted" in text


def test_satake_product_failure_is_a_fail_row(monkeypatch, capsys):
    def broken(self, F, table):
        raise SolveInconsistent("sabotaged product check")

    monkeypatch.setattr(Parahoric, "_check_multiplicative", broken)
    assert main(["--datum", "a1", "verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert (
        "[FAIL] satake.satake_transform_multiplicative_within_height_3: "
        "SolveInconsistent: sabotaged product check"
    ) in lines
    satake = [ln for ln in lines if ln.startswith("[") and "] satake." in ln]
    assert [ln.split("] ", 1)[1] for ln in satake[2:]] == [
        "satake.satake_rows_supported_exactly_on_predecessors_minuscule_unit",
        "satake.satake_transforms_dot_invariant",
        "satake.special_hecke_algebra_commutative_spot_check",
    ]
    assert all(ln.startswith("[PASS]") for ln in satake[2:])
    assert any("] compat." in ln for ln in lines)


@pytest.mark.parametrize("target, row", [
    ("center_product_expand", "center.center_products_reexpand_over_center_basis"),
    ("_solve_row", "satake.satake_rows_solved_unit_diagonal_positive"),
    ("compatibility_holds", "compat.bernstein_satake_square_nested_facets_height_2"),
])
def test_raising_check_is_a_fail_row(monkeypatch, capsys, target, row):
    def broken(self, *args):
        raise SolveInconsistent("sabotaged")

    monkeypatch.setattr(Parahoric, target, broken)
    assert main(["--datum", "a1", "verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = f"[FAIL] {row}: SolveInconsistent: sabotaged"
    assert failed in lines
    # the run goes on to the last check of the last suite
    assert lines.index(failed) < len(lines) - 1
    assert lines[-1].split("] ", 1)[1].startswith("compat.pushforward_intertwines_center_and_satake")


def test_non_divisible_satake_pivot_is_inconsistent(monkeypatch):
    eng = load_engine("a1")
    P, d = eng.para, eng.datum
    real = P.center_elt
    monkeypatch.setattr(P, "center_elt", lambda F, m: real(F, m).scale(LaurentPoly.q() + 1))
    with pytest.raises(SolveInconsistent, match="not divisible"):
        P._solve_row(P.special_facet(), d.lattice([-1]))


# First failures under each memo sabotage, recorded when the check still
# applied each word's drawn suffix to both sides: (datum, sabotage, least
# length of the element whose steps are sabotaged, word and iteration).
_BRAID_SABOTAGES = [
    ("a1", "exponent", 2, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1", "exponent", 4, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1", "exponent", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("a1", "flag", 2, "[0, 1, 1] at iteration 1"),
    ("a1", "flag", 4, "[1, 1, 0, 0, 1, 1, 0, 1] at iteration 5"),
    ("a1", "flag", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("a1", "target", 2, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1", "target", 4, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1", "target", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("a1_unequal", "exponent", 2, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1_unequal", "exponent", 4, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1_unequal", "exponent", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("a1_unequal", "flag", 2, "[0, 1, 1] at iteration 1"),
    ("a1_unequal", "flag", 4, "[1, 1, 0, 0, 1, 1, 0, 1] at iteration 5"),
    ("a1_unequal", "flag", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("a1_unequal", "target", 2, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1_unequal", "target", 4, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1_unequal", "target", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("a1_torsion2", "exponent", 2, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1_torsion2", "exponent", 4, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1_torsion2", "exponent", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("a1_torsion2", "flag", 2, "[0, 1, 1] at iteration 1"),
    ("a1_torsion2", "flag", 4, "[1, 1, 0, 0, 1, 1, 0, 1] at iteration 5"),
    ("a1_torsion2", "flag", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("a1_torsion2", "target", 2, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1_torsion2", "target", 4, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("a1_torsion2", "target", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("gl2", "exponent", 2, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("gl2", "exponent", 4, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("gl2", "exponent", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("gl2", "flag", 2, "[0, 1, 1] at iteration 1"),
    ("gl2", "flag", 4, "[1, 1, 0, 0, 1, 1, 0, 1] at iteration 5"),
    ("gl2", "flag", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("gl2", "target", 2, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("gl2", "target", 4, "[0, 1, 0, 1, 0, 0, 1] at iteration 0"),
    ("gl2", "target", 6, "[1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
    ("c2", "exponent", 2, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("c2", "exponent", 4, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("c2", "exponent", 6, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("c2", "flag", 2, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("c2", "flag", 4, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("c2", "flag", 6, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("c2", "target", 2, "[1] at iteration 1"),
    ("c2", "target", 4, "[1] at iteration 1"),
    ("c2", "target", 6, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("a2", "exponent", 2, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("a2", "exponent", 4, "[0, 0, 2, 2, 1, 1, 0] at iteration 6"),
    ("a2", "exponent", 6, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("a2", "flag", 2, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("a2", "flag", 4, "[2, 1, 1, 0, 1, 2, 0, 2] at iteration 5"),
    ("a2", "flag", 6, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("a2", "target", 2, "[1] at iteration 1"),
    ("a2", "target", 4, "[1, 0, 0, 0, 1, 1, 2] at iteration 8"),
    ("a2", "target", 6, "[0, 1, 0, 2, 2, 2, 2] at iteration 0"),
]


def _braid_sabotage_id(case):
    name, kind, min_len, _ = case
    return name if (kind, min_len) == ("exponent", 6) else f"{name}-{kind}-ge{min_len}"


@pytest.mark.parametrize(
    "name, kind, min_len, failure", _BRAID_SABOTAGES, ids=[_braid_sabotage_id(c) for c in _BRAID_SABOTAGES]
)
def test_braid_check_catches_a_wrong_generator_step(monkeypatch, name, kind, min_len, failure):
    """A wrong memoized step i_w·i_s, on elements w of length ≥ min_len only,
    fails the presentation check at the same word and iteration as when each
    drawn suffix was applied: by a braid relation on c2 and a2, by the
    quadratic fold on the rank-1 data, which have no finite braid relation.
    The sabotages are a q-exponent off by 2 ("exponent"), the longer/shorter
    flag flipped ("flag") and the target i_w instead of i_{ws} ("target").
    Each depends only on the element w and the generator, never on w's
    interned id, because ids follow first-seen order, which differs between
    the two ways of running the check."""
    datum = load_bundled(name)
    assert bool(_braid_pairs(datum)) == (name in ("c2", "a2"))

    def fresh():  # empty rewriting memos, so that every step is computed
        weyl = AffineWeylGroup(datum)
        return SimpleNamespace(datum=datum, weyl=weyl, hecke=IwahoriHecke(weyl))

    assert _check_braid_invariance(fresh()) is None
    real = IwahoriHecke._compute_gen_right

    def sabotaged(self, n, i):
        ns, e = real(self, n, i)
        if self.weyl.length(self.weyl.by_id[n]) < min_len or (kind == "exponent" and e is None):
            return ns, e
        if kind == "exponent":
            e += 2
        elif kind == "flag":
            e = None if e is not None else 2 * self.datum.L[i]
        else:
            ns = n
        self._gen_cache[n * self._G + i] = (ns, e)
        return ns, e

    monkeypatch.setattr(IwahoriHecke, "_compute_gen_right", sabotaged)
    assert _check_braid_invariance(fresh()) == f"braid/quadratic invariance fails on word {failure}"


@pytest.mark.parametrize("name, cases, prefixes", [("a1", 118, 89), ("c2", 171, 130)])
def test_braid_check_decides_each_distinct_case_once(monkeypatch, name, cases, prefixes):
    """Of the braid check's 500 draws, each distinct (prefix word, relation)
    case forms its relation products once, and each distinct prefix word its
    i_prefix once; the distinct draws are counted by replaying the seed."""
    eng = load_engine(name)
    d = eng.datum
    rng = random.Random(_BRAID_SEED)
    pairs = [p for p in _braid_pairs(d) if p[2] >= 2]
    keys = set()
    for _ in range(500):
        word = [rng.choice(d.saff_indices) for _ in range(rng.randint(0, 8))]
        cut = tuple(word[: rng.randrange(len(word) + 1)])
        keys.add((cut, rng.choice(pairs) if pairs else rng.choice(d.saff_indices)))
    assert (len(keys), len({cut for cut, _ in keys})) == (cases, prefixes)

    real = IwahoriHecke.mul_word
    products = []  # every product formed, kept alive so that ids stay unique
    counts = Counter()

    def counted(self, a, word):
        # i_prefix starts from H.one(); a relation product from an earlier product
        counts["relation" if any(a is p for p in products) else "prefix"] += 1
        products.append(real(self, a, word))
        return products[-1]

    monkeypatch.setattr(IwahoriHecke, "mul_word", counted)
    assert _check_braid_invariance(eng) is None
    # two relation products per case: prefix·X and prefix·Y, or on rank 1
    # prefix·i_a and prefix·i_a·i_a
    assert counts == {"relation": 2 * cases, "prefix": prefixes}


def _swap_non_commuting(d, word):
    """word with its first two adjacent letters of braid order other than 2
    swapped: a different element, since s_a·s_b = s_b·s_a only at order 2."""
    for i in range(len(word) - 1):
        if d.coxeter_matrix[tuple(sorted(word[i : i + 2]))] != 2:
            return word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
    return None


def _pad_with_a_square(d, word):
    """word followed by s_a·s_a: the same element, q_w times q_a²."""
    return word + (word[0], word[0])


# The first failure of the Matsumoto check when every braid rewrite list of a
# reduced word of length ≥ min_len gains the mutated word, recorded before the
# check composed each distinct word once.
_MATSUMOTO_MUTATIONS = [
    ("a1", _swap_non_commuting, 3, "braid rewrite changed the element at t[2]·w[1]"),
    ("a1", _swap_non_commuting, 5, "braid rewrite changed the element at t[3]·w[1]"),
    ("a1", _pad_with_a_square, 3, "q_w differs across reduced words of t[2]·w[1]"),
    ("a1", _pad_with_a_square, 5, "q_w differs across reduced words of t[3]·w[1]"),
    ("c2", _swap_non_commuting, 3, "braid rewrite changed the element at t[1,1]·w[2,1,2]"),
    ("c2", _swap_non_commuting, 5, "braid rewrite changed the element at t[1,1]·w[1,2,1]"),
    ("c2", _pad_with_a_square, 3, "q_w differs across reduced words of t[1,1]·w[2,1,2]"),
    ("c2", _pad_with_a_square, 5, "q_w differs across reduced words of t[1,1]·w[1,2,1]"),
    ("a2", _swap_non_commuting, 3, "braid rewrite changed the element at t[0,1]·w[2]"),
    ("a2", _swap_non_commuting, 5, "braid rewrite changed the element at t[1,2]·w[1,2,1]"),
    ("a2", _pad_with_a_square, 3, "q_w differs across reduced words of t[0,1]·w[2]"),
    ("a2", _pad_with_a_square, 5, "q_w differs across reduced words of t[1,2]·w[1,2,1]"),
]


@pytest.mark.parametrize(
    "name, mutate, min_len, failure",
    _MATSUMOTO_MUTATIONS,
    ids=[f"{n}-{m.__name__.strip('_')}-ge{k}" for n, m, k, _ in _MATSUMOTO_MUTATIONS],
)
def test_matsumoto_check_catches_a_word_that_is_no_braid_rewrite(monkeypatch, name, mutate, min_len, failure):
    """A word that is not a braid rewrite of a reduced word fails the
    Matsumoto check at the first element it is drawn for: one that names
    another element, or the same element with another q_w."""
    eng = load_engine(name)
    assert _check_matsumoto(eng) is None
    real = verify._braid_rewrites

    def mutated(d, word, rng):
        words = real(d, word, rng)  # drawn as always, so the stream stays
        bad = mutate(d, tuple(word)) if len(word) >= min_len else None
        return words + [bad] if bad else words

    monkeypatch.setattr(verify, "_braid_rewrites", mutated)
    assert _check_matsumoto(eng) == failure


def _old_braid_rewrites(d, word, rng, tries=10):
    """verify._braid_rewrites as first written: the patterns built at every
    position of every try.  The reference for its spots and its draws."""
    words = [tuple(word)]
    cur = list(word)
    finite = {(a, b): m for a, b, m in _braid_pairs(d)}
    for _ in range(tries):
        spots = []
        for i in range(len(cur)):
            for (a, b), m in finite.items():
                if i + m <= len(cur):
                    pattern = [a if k % 2 == 0 else b for k in range(m)]
                    if cur[i : i + m] == pattern:
                        spots.append((i, m, [b if k % 2 == 0 else a for k in range(m)]))
                    pattern2 = [b if k % 2 == 0 else a for k in range(m)]
                    if cur[i : i + m] == pattern2:
                        spots.append((i, m, [a if k % 2 == 0 else b for k in range(m)]))
        if not spots:
            break
        i, m, repl = rng.choice(spots)
        cur[i : i + m] = repl
        words.append(tuple(cur))
    return words


@pytest.mark.parametrize("name", ["a2", "c2", "gl2"])
def test_braid_rewrites_match_the_reference(name):
    """The same rewrites, and the same draws from one seeded stream, as the
    reference for every reduced word of the length-6 ball."""
    W = AffineWeylGroup(load_bundled(name))
    rng, ref_rng = random.Random(_BRAID_SEED), random.Random(_BRAID_SEED)
    for x in W.ball(6, with_omega=False):
        word, _ = W.reduced_word(x)
        assert verify._braid_rewrites(W.datum, word, rng) == _old_braid_rewrites(W.datum, word, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


def test_center_commutation_tests_each_pair_once(monkeypatch, capsys):
    """c2 `verify center` tests each z_m against each h_x of height ≤ 2 exactly
    once per finite facet: center_elt's guard takes the x of height ≤ 1 and
    the commutation check only the rest."""
    monkeypatch.setattr(engine_mod, "_REGISTRY", {})  # empty memos, so that every guard runs
    building = []  # m of each center_elt call in progress
    tested = Counter()
    real_center, real_test = Parahoric.center_elt, Parahoric.noncommuting_kelt

    def center_elt(self, F, m):
        building.append(m)
        try:
            return real_center(self, F, m)
        finally:
            building.pop()

    def noncommuting_kelt(self, F, z, xs):
        xs = list(xs)
        # the guard runs inside center_elt; the check passes a memoized z_m
        m = building[-1] if building else next(m for (J, m), got in self._centers.items() if J == F.J and got is z)
        tested.update((F.J, m, x) for x in xs)
        return real_test(self, F, z, xs)

    monkeypatch.setattr(Parahoric, "center_elt", center_elt)
    monkeypatch.setattr(Parahoric, "noncommuting_kelt", noncommuting_kelt)
    assert main(["--datum", "c2", "verify", "center"]) == 0
    capsys.readouterr()
    eng = load_engine("c2")
    graded = [m for m, _ in eng.datum.antidominant_set(2)]
    want = {(F.J, m, x) for F in _finite_facets(eng) for m in graded for x in graded}
    assert set(tested) == want and set(tested.values()) == {1}
    assert len(want) == 252


@pytest.mark.parametrize("height, m, x", [
    (1, "(-1, -1)", "(-1, 0)"),
    (2, "(-2, -2)", "(-1, 0)"),
])
def test_sabotaged_center_element_fails_the_commutation_row(monkeypatch, capsys, height, m, x):
    """A z_m that is W_J-bi-invariant but not central (Θ̇(r_m) + i_{s1} on the
    Iwahori facet) fails the commutation row as it did when the check itself
    tested every height: center_elt's guard names the first h_x of height ≤ 1
    that z_m does not commute with."""
    monkeypatch.setattr(engine_mod, "_REGISTRY", {})
    real = Bernstein.theta_of

    def sabotaged(self, r):
        out = real(self, r)
        target = next(mu for mu, h in self.datum.antidominant_set(2) if h == height)
        if r == self.orbit_sum_r(target):
            out = self.H.lincomb([(out, LaurentPoly.one()), (self.H.basis(self.W.gen(1)), LaurentPoly.one())])
        return out

    monkeypatch.setattr(Bernstein, "theta_of", sabotaged)
    assert main(["--datum", "c2", "verify", "center"]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == (
        "[FAIL] center_elements_commute_with_double_cosets_height_2: CentralityFailure: "
        f"z_LatticeElt(free={m}, tors=()) does not commute with h_LatticeElt(free={x}, tors=()) at J=[]"
    )


def _wrap_attr(mp, obj, name, wrap):
    """Replace obj.name by wrap(real), real being the attribute it replaces."""
    real = getattr(obj, name)
    mp.setattr(obj, name, lambda *args: wrap(real, *args))


def _theta_gains_a_unit(mp, eng):
    """Θ at (-1) gains the term i_e."""
    m = eng.datum.lattice([-1])
    _wrap_attr(mp, eng.bern, "theta", lambda real, x: real(x) + 1 if x == m else real(x))


def _longest_element_is_e(mp, eng):
    mp.setattr(eng.datum, "longest_w", 0)


def _dot_act_gains_q(mp, eng):
    """Every w ≠ e acts with an extra factor q: no longer an action, and no
    nonzero element is invariant."""
    _wrap_attr(mp, eng.bern, "dot_act", lambda real, wi, r: real(wi, r).scale(LaurentPoly.q()) if wi else real(wi, r))


def _theta_of_gains_i_s0(mp, eng):
    _wrap_attr(mp, eng.bern, "theta_of", lambda real, r: real(r) + eng.hecke.basis(eng.weyl.gen(0)))


def _predecessors_reversed(mp, eng):
    _wrap_attr(mp, eng.datum, "saturation_predecessors", lambda real, x: real(x)[::-1])


# (check, its row in `verify all`, a sabotage of what it reads, the FAIL
# detail on a1); each sabotage holds only while its check runs
_CHECK_SABOTAGES = [
    ("_check_theta_mult", "bern.theta_multiplicativity_within_height_3", _theta_gains_a_unit,
     "theta multiplicativity fails at LatticeElt(free=(-1,), tors=()), LatticeElt(free=(-1,), tors=())"),
    ("_check_vee_theta", "bern.vee_theta_conjugation_height_2", _longest_element_is_e,
     "vee-theta conjugation fails at LatticeElt(free=(-1,), tors=())"),
    ("_check_dot_action", "bern.dot_action_is_group_action", _dot_act_gains_q,
     "dot action fails at w1, w1"),
    ("_check_orbit_sum_centrality", "bern.orbit_sums_commute_with_finite_generators", _theta_of_gains_i_s0,
     "orbit sum r_LatticeElt(free=(0,), tors=()) does not commute with s1"),
    ("_check_row_support", "satake.satake_rows_supported_exactly_on_predecessors_minuscule_unit",
     _predecessors_reversed, "row LatticeElt(free=(-1,), tors=()) entries do not match predecessor set"),
    ("_check_transform_invariance", "satake.satake_transforms_dot_invariant", _dot_act_gains_q,
     "transform of row LatticeElt(free=(0,), tors=()) is not dot-invariant"),
]


@pytest.mark.parametrize("check, row, sabotage, detail", _CHECK_SABOTAGES, ids=[c[0] for c in _CHECK_SABOTAGES])
def test_sabotaged_check_fails_its_row_and_every_later_row_prints(monkeypatch, capsys, check, row, sabotage, detail):
    """A check whose input is sabotaged reaches its failure return: `verify all`
    prints its FAIL row with the counterexample, and every other row as in a
    clean run, the later ones included."""
    assert main(["--datum", "a1", "verify", "all"]) == 0
    clean = capsys.readouterr().out.splitlines()
    assert f"[PASS] {row}" in clean
    real = getattr(verify, check)

    def sabotaged(eng, *args):
        with pytest.MonkeyPatch.context() as mp:
            sabotage(mp, eng)
            return real(eng, *args)

    monkeypatch.setattr(verify, check, sabotaged)
    assert main(["--datum", "a1", "verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"[FAIL] {row}: {detail}" if line == f"[PASS] {row}" else line for line in clean]


# (datum, class, method, its stand-in, the FAIL row of `verify all`)
_FORCED_FAILURES = [
    ("a1", Parahoric, "compatibility_holds", lambda self, Fs, Fb, m: False,
     "[FAIL] compat.bernstein_satake_square_nested_facets_height_2: Bernstein-Satake square fails at "
     "J'=[] ⊂ J=[0], m=LatticeElt(free=(0,), tors=())"),
    ("a1", Bernstein, "theta_choice_independent", lambda self, m: False,
     "[FAIL] bern.theta_choice_independence_height_2: theta depends on the m-circ choice at "
     "LatticeElt(free=(0,), tors=())"),
    ("a1_torsion2", TorsionQuotient, "push_hecke", lambda self, h, target: target.zero(),
     "[FAIL] compat.pushforward_intertwines_center_and_satake: pushforward does not intertwine center "
     "elements at LatticeElt(free=(0,), tors=(0,))"),
]


@pytest.mark.parametrize("name, cls, method, stand_in, row", _FORCED_FAILURES, ids=[f[2] for f in _FORCED_FAILURES])
def test_forced_failure_is_one_fail_row_and_verify_all_runs_on(monkeypatch, capsys, name, cls, method, stand_in, row):
    """A method forced to report a failure turns exactly its check's row into
    FAIL: `verify all` exits 1 and prints every other row, the later ones
    included, as in a clean run."""
    assert main(["--datum", name, "verify", "all"]) == 0
    clean = capsys.readouterr().out.splitlines()
    passed = "[PASS] " + row[len("[FAIL] "):].split(":", 1)[0]
    assert passed in clean
    monkeypatch.setattr(cls, method, stand_in)
    assert main(["--datum", name, "verify", "all"]) == 1
    assert capsys.readouterr().out.splitlines() == [row if line == passed else line for line in clean]
