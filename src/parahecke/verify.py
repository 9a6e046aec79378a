"""Machine verification suites over one datum.

Each suite is a deterministic list of named checks; a check returns None on
success or a counterexample string.  A check that raises is still one row:
UnsupportedParameters gives SKIP, NegativeCoefficient gives FALSIFIED, and
any other package error gives FAIL, so one broken check never aborts a run.
Randomized checks use fixed seeds so that repeated runs emit identical bytes,
and the braid and Matsumoto checks decide each distinct drawn case once.
A positivity violation in the Satake suite is theorem falsification: the
suite halts immediately and surfaces the serialized counterexample.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .bernstein import GroupAlgElt
from .engine import Engine
from .errors import InfiniteFacetGroup, NegativeCoefficient, ParaheckeError, UnsupportedParameters
from .hecke import TorsionQuotient
from .ringcore import LaurentPoly
from . import engine as _engine_mod

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "render_results"]

SUITE_NAMES = ("presentation", "bern", "center", "satake", "compat", "all")

_BRAID_SEED = 0xB41D
_ROUNDTRIP_SEED = 0x0B450
_SAMPLE_SEED = 0x5EED
# sample sizes and bounds, each named in its check's row
_BRAID_DRAWS = 500
_ROUNDTRIP_DRAWS = 200
_INVERSE_MAX_LEN = 5
_THETA_MULT_HEIGHT = 3
_REWRITE_TRIES = 10  # braid rewrites drawn per reduced word (Matsumoto check)


class CheckResult(NamedTuple):
    name: str
    status: str  # "PASS" | "FAIL" | "SKIP" | "FALSIFIED"
    detail: str | None = None


def _result(name, detail=None):
    if detail is None:
        return CheckResult(name, "PASS")
    return CheckResult(name, "FAIL", detail)


def _error_text(exc: ParaheckeError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _check(name, fn, *args):
    """Run fn(*args) as the check `name`, turning a package error into its row."""
    try:
        return _result(name, fn(*args))
    except UnsupportedParameters as exc:
        return CheckResult(name, "SKIP", _error_text(exc))
    except NegativeCoefficient as exc:
        return CheckResult(name, "FALSIFIED", str(exc))
    except ParaheckeError as exc:
        return _result(name, _error_text(exc))


# ----------------------------------------------------------------------
# presentation suite

def _check_quadratic(eng: Engine):
    H, W, d = eng.hecke, eng.weyl, eng.datum
    for i in d.saff_indices:
        s = H.basis(W.gen(i))
        qs = LaurentPoly.v_power(2 * d.L[i])
        if H.mul(s, s) != H.from_terms([(W.identity, qs), (W.gen(i), qs - 1)]):
            return f"quadratic relation fails at s{i}"
    return None


def _braid_pairs(d):
    return [(a, b, order) for (a, b), order in sorted(d.coxeter_matrix.items()) if order is not None]


def _check_braid_invariance(eng: Engine):
    """Braid and quadratic relations X = Y, each after a random prefix.

    Each iteration draws a word, cuts it at a random point into prefix and
    rest, draws a relation, (i_a·i_b)^m = (i_b·i_a)^m for a finite braid pair
    or, on rank-1 data, which has none, i_a·i_a = q_a + (q_a − 1)·i_a, and
    compares prefix·X with prefix·Y.  Applying rest to both sides could fail
    no sooner: mul_word applies one step map i_w ↦ i_w·i_s per letter, read
    from the memo whether right or wrong, and each map is Z[v^±1]-linear, so
    prefix·X·rest − prefix·Y·rest = T_rest(prefix·X − prefix·Y) for T_rest
    the composite of rest's step maps, which is zero wherever
    prefix·X = prefix·Y.  (A wrong step map need not be injective, so with
    one this check may fail sooner.)  rest is still drawn, so that the
    random stream, and with it every later word and the word a failure
    names, stays as when rest was applied.

    Each distinct (prefix, relation) case is decided once, and i_prefix is
    formed once per distinct prefix.  That skips nothing a check could see:
    mul_word is a deterministic function of the word and of the step maps,
    each memoized once per (w, s) and never rewritten, so a repeated case
    reproduces its first occurrence's outcome, and that occurrence passed,
    or the check would already have returned.  The first failing iteration
    is therefore always a first occurrence, and the word and iteration a
    failure names are those of the check that decides every draw.
    """
    H, d = eng.hecke, eng.datum
    if not d.saff_indices:
        return None
    rng = random.Random(_BRAID_SEED)
    pairs = [(a, b, m) for a, b, m in _braid_pairs(d) if m >= 2]
    prefixes = {}  # prefix word -> i_prefix
    decided = set()  # (prefix word, relation)
    for k in range(_BRAID_DRAWS):
        word = [rng.choice(d.saff_indices) for _ in range(rng.randint(0, 8))]
        cut = tuple(word[: rng.randrange(len(word) + 1)])
        relation = rng.choice(pairs) if pairs else rng.choice(d.saff_indices)
        if (cut, relation) in decided:
            continue
        decided.add((cut, relation))
        if cut not in prefixes:
            prefixes[cut] = H.mul_word(H.one(), cut)
        prefix = prefixes[cut]
        if pairs:
            a, b, m = relation
            left = H.mul_word(prefix, [a, b] * m)
            right = H.mul_word(prefix, [b, a] * m)
        else:
            a = relation
            once = H.mul_word(prefix, [a])
            left = H.mul_word(once, [a])
            qs = LaurentPoly.v_power(2 * d.L[a])
            # i_w * i_s^2 = q_s i_w + (q_s-1) i_w i_s
            right = H.lincomb([(prefix, qs), (once, qs - 1)])
        if left != right:
            return f"braid/quadratic invariance fails on word {word} at iteration {k}"
    return None


def _braid_rewrites(d, word, rng):
    """Random braid rewrites of a reduced word (same element, same length).

    Each try lists every spot where a braid word aba··· or bab··· starts, by
    position and then in braid-pair order, and rewrites one drawn spot."""
    words = [tuple(word)]
    cur = list(word)
    moves = []  # (m, pattern, replacement), both directions of each braid pair
    for a, b, m in _braid_pairs(d):
        ab = [a, b] * (m // 2) + [a] * (m % 2)
        ba = [b, a] * (m // 2) + [b] * (m % 2)
        moves += [(m, ab, ba), (m, ba, ab)]
    for _ in range(_REWRITE_TRIES):
        spots = [
            (i, m, repl) for i in range(len(cur)) for m, pattern, repl in moves if cur[i : i + m] == pattern
        ]
        if not spots:
            break
        i, m, repl = rng.choice(spots)
        cur[i : i + m] = repl
        words.append(tuple(cur))
    return words


def _check_matsumoto(eng: Engine):
    """Random braid rewrites of each reduced word in the length-6 ball keep
    the element and q_w.  Every rewrite is drawn, so the random stream stays
    the same, but each distinct word is composed once: word_to_elt is a
    deterministic function of the word, so a repeat would pass as its first
    occurrence did."""
    W, d = eng.weyl, eng.datum
    rng = random.Random(_BRAID_SEED + 1)
    for x in W.ball(6, with_omega=False):
        word, om = W.reduced_word(x)
        for alt in dict.fromkeys(_braid_rewrites(d, word, rng)):
            if W.compose(W.word_to_elt(alt), om) != x:
                return f"braid rewrite changed the element at {W.format_elt(x)}"
            if sum(d.L[i] for i in alt) != sum(d.L[i] for i in word):
                return f"q_w differs across reduced words of {W.format_elt(x)}"
    return None


def _check_inverses(eng: Engine):
    H, W = eng.hecke, eng.weyl
    one = H.one()
    for x in W.ball(_INVERSE_MAX_LEN):
        inv, star = H.im_invert_basis(x)
        if H.mul(H.basis(x), inv) != one or H.mul(inv, H.basis(x)) != one:
            return f"inverse fails at {W.format_elt(x)}"
    return None


def _check_wall_length(eng: Engine):
    W = eng.weyl
    for x in W.ball(6):
        word, om = W.reduced_word(x)
        if len(word) != W.length(x) or W.length(om) != 0:
            return f"wall count and reduced word disagree at {W.format_elt(x)}"
    return None


def _check_dominance_lengths(eng: Engine):
    W, d = eng.weyl, eng.datum
    ms = [m for m, _ in d.antidominant_set(3)]
    for m1 in ms:
        t1 = W.translation(m1)
        for m2 in ms:
            t2 = W.translation(m2)
            if W.length(W.compose(t1, t2)) != W.length(t1) + W.length(t2):
                return f"antidominant additivity fails at {m1}, {m2}"
        for wi in range(d.w_order):
            tw = W.compose(t1, W.finite(wi))
            if W.length(tw) != W.length(t1) + d.w_len[wi]:
                return f"l(mw) = l(m) + l(w) fails at {m1}, w{wi}"
            if W.length(W.translation(d.act(wi, m1))) != W.length(t1):
                return f"conjugation invariance fails at {m1}, w{wi}"
    return None


def _check_involution(eng: Engine):
    H, W = eng.hecke, eng.weyl
    rng = random.Random(_SAMPLE_SEED)
    ball = W.ball(4)
    for _ in range(20):
        a = H.basis(rng.choice(ball)) + rng.randint(0, 2)
        b = H.basis(rng.choice(ball))
        if H.vee_involution(H.mul(a, b)) != H.mul(H.vee_involution(b), H.vee_involution(a)):
            return "vee involution is not an anti-homomorphism on a sample"
    return None


def _check_degree_hom(eng: Engine):
    H, W = eng.hecke, eng.weyl
    rng = random.Random(_SAMPLE_SEED + 1)
    ball = W.ball(4)
    for _ in range(20):
        a = H.basis(rng.choice(ball)) + rng.randint(0, 2)
        b = H.basis(rng.choice(ball)) + rng.randint(0, 1)
        if H.degree_hom(H.mul(a, b)) != H.degree_hom(a) * H.degree_hom(b):
            return "degree homomorphism is not multiplicative on a sample"
    return None


def _check_omega_twist(eng: Engine):
    H, W = eng.hecke, eng.weyl
    for om in W.omega_samples()[:4]:
        iom, iominv = H.basis(om), H.basis(W.inverse(om))
        for x in W.ball(2, with_omega=False):
            conj = W.compose(W.compose(om, x), W.inverse(om))
            if H.mul(H.mul(iom, H.basis(x)), iominv) != H.basis(conj):
                return f"omega twist fails at {W.format_elt(om)}, {W.format_elt(x)}"
    return None


def _check_triangularity(eng: Engine):
    H, W = eng.hecke, eng.weyl
    rng = random.Random(_SAMPLE_SEED + 2)
    ball = W.ball(3, with_omega=False)
    for _ in range(12):
        x, y = rng.choice(ball), rng.choice(ball)
        prod = H.mul(H.basis(x), H.basis(y))
        for z in prod.d:
            if not W.bruhat_le(W.compose(W.inverse(x), z), y):
                return f"support triangularity (right) fails at {W.format_elt(z)}"
            if not W.bruhat_le(W.compose(z, W.inverse(y)), x):
                return f"support triangularity (left) fails at {W.format_elt(z)}"
    return None


def suite_presentation(eng: Engine):
    return [
        _check("quadratic_relations", _check_quadratic, eng),
        _check("braid_invariance_500_random_words", _check_braid_invariance, eng),
        _check("matsumoto_q_invariance_across_reduced_words", _check_matsumoto, eng),
        _check("basis_inverses_up_to_length_5", _check_inverses, eng),
        _check("wall_count_equals_reduced_word_length_le_6", _check_wall_length, eng),
        _check("dominance_length_anchors_height_3", _check_dominance_lengths, eng),
        _check("vee_involution_antihomomorphism", _check_involution, eng),
        _check("degree_homomorphism_multiplicative", _check_degree_hom, eng),
        _check("omega_conjugation_twist", _check_omega_twist, eng),
        _check("support_triangularity", _check_triangularity, eng),
    ]


# ----------------------------------------------------------------------
# bernstein suite

def _closure(eng: Engine, height: int):
    d = eng.datum
    out = []
    seen = set()
    for m, h in d.antidominant_set(height):
        for mu in d.orbit(m):
            if mu not in seen:
                seen.add(mu)
                out.append((mu, h))
    out.sort(key=lambda p: (p[1], p[0]))
    return out


def _check_theta_mult(eng: Engine):
    B, H, d = eng.bern, eng.hecke, eng.datum
    cl = _closure(eng, _THETA_MULT_HEIGHT)
    for m1, h1 in cl:
        for m2, h2 in cl:
            if h1 + h2 > _THETA_MULT_HEIGHT:
                continue
            if H.mul(B.theta(m1), B.theta(m2)) != B.theta(d.add(m1, m2)):
                return f"theta multiplicativity fails at {m1}, {m2}"
    return None


def _check_theta_choice(eng: Engine):
    B = eng.bern
    for m, _ in _closure(eng, 2):
        if not B.theta_choice_independent(m):
            return f"theta depends on the m-circ choice at {m}"
    return None


def _check_roundtrip(eng: Engine):
    """bern_to_im(im_to_bern(h)) == h for 200 random h on W.ball(5), then
    each memoized product Θ_m·i_w that the round trips read equals
    mul_word(Θ_m, reduced word of w).

    bern_to_im reads the same memoized products that im_to_bern eliminated
    with, so the round trip shows three things: the elimination ends with
    unit diagonals, its pivots strictly decrease, and _eliminate's _axpy and
    bern_to_im's _lincomb agree.  It cannot see a wrong product whose
    diagonal is a unit monomial and whose support stays below the pivot; the
    comparison with mul_word, which applies one generator step per letter
    and reads no memo of products, does.  The (m, w) read are the keys of
    each im_to_bern result, one per pivot.
    """
    B, H, W = eng.bern, eng.hecke, eng.weyl
    rng = random.Random(_ROUNDTRIP_SEED)
    ball = W.ball(5)
    read = set()
    for k in range(_ROUNDTRIP_DRAWS):
        h = H.zero()
        for _ in range(rng.randint(1, 4)):
            coeff = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
            h = h + H.basis(rng.choice(ball)).scale(coeff)
        b = B.im_to_bern(h)
        read.update(b.d)
        if B.bern_to_im(b) != h:
            return f"change-of-basis round trip fails at sample {k}"
    for m, wi in sorted(read):
        if B._theta_times_finite(m, wi) != H.mul_word(B.theta(m), B.datum.w_word[wi]).d:
            return f"memoized theta product differs from mul_word at {m}, w{wi}"
    return None


def _check_vee_theta(eng: Engine):
    B, H, W, d = eng.bern, eng.hecke, eng.weyl, eng.datum
    w0 = d.longest_w
    inv_w0, _ = H.im_invert_basis(W.finite(w0))
    iw0 = H.basis(W.finite(w0))
    for m, _ in _closure(eng, 2):
        lhs = H.vee_involution(B.theta(m))
        rhs = H.mul(H.mul(inv_w0, B.theta(d.neg(d.act(w0, m)))), iw0)
        if lhs != rhs:
            return f"vee-theta conjugation fails at {m}"
    return None


def _check_bernstein_relation(eng: Engine):
    B, d = eng.bern, eng.datum
    for m, _ in _closure(eng, 2):
        for i in range(1, d.n_simple + 1):
            if not B.bernstein_relation_check(m, i):
                return f"Bernstein relation fails at {m}, s{i}"
    return None


def _check_dot_action(eng: Engine):
    B, d = eng.bern, eng.datum
    r = GroupAlgElt.zero(d)
    for m, _ in _closure(eng, 1):
        r = r + GroupAlgElt.basis(d, m, LaurentPoly({1: 1, 0: 2}))
    for a in range(d.w_order):
        for b in range(d.w_order):
            if B.dot_act(a, B.dot_act(b, r)) != B.dot_act(d.w_mult[a][b], r):
                return f"dot action fails at w{a}, w{b}"
    return None


def _check_c_integrality(eng: Engine):
    B, d = eng.bern, eng.datum
    if len(set(d.L.values())) != 1:
        raise UnsupportedParameters("non-constant parameters")
    for m, _ in _closure(eng, 2):
        for wi in range(d.w_order):
            if (B.exponent_E(m) - B.exponent_E(d.act(wi, m))) % 2:
                return f"dot twist exponent is odd at {m}, w{wi}"
    return None


def _check_orbit_sum_centrality(eng: Engine):
    B, H, W, d = eng.bern, eng.hecke, eng.weyl, eng.datum
    for m, _ in d.antidominant_set(2):
        z = B.theta_of(B.orbit_sum_r(m))
        for i in range(1, d.n_simple + 1):
            s = H.basis(W.gen(i))
            if H.mul(z, s) != H.mul(s, z):
                return f"orbit sum r_{m} does not commute with s{i}"
    return None


def suite_bern(eng: Engine):
    return [
        _check("theta_multiplicativity_within_height_3", _check_theta_mult, eng),
        _check("theta_choice_independence_height_2", _check_theta_choice, eng),
        _check("change_basis_roundtrip_200_random", _check_roundtrip, eng),
        _check("vee_theta_conjugation_height_2", _check_vee_theta, eng),
        _check("bernstein_relation_height_2", _check_bernstein_relation, eng),
        _check("dot_action_is_group_action", _check_dot_action, eng),
        _check("dot_twist_exponents_even", _check_c_integrality, eng),
        _check("orbit_sums_commute_with_finite_generators", _check_orbit_sum_centrality, eng),
    ]


# ----------------------------------------------------------------------
# center suite

def _finite_facets(eng: Engine):
    d, P = eng.datum, eng.para
    out = []
    idx = d.saff_indices
    for mask in range(1 << len(idx)):
        J = tuple(idx[k] for k in range(len(idx)) if mask >> k & 1)
        try:
            out.append(P.facet(J))
        except InfiniteFacetGroup:
            continue
    out.sort(key=lambda F: (len(F.J), F.J))
    return out


def _check_center_commutation(eng: Engine):
    P, d = eng.para, eng.datum
    # center_elt's guard has already tested each z_m against the h_x of
    # height ≤ 1 (it raises otherwise), so only height 2 is left to test
    xs = [x for x, h in d.antidominant_set(2) if h > 1]
    for F in _finite_facets(eng):
        for m, _ in d.antidominant_set(2):
            x = P.noncommuting_kelt(F, P.center_elt(F, m), xs)
            if x is not None:
                return f"z_{m} fails to commute with h_{x} at J={list(F.J)}"
    return None


def _check_center_products(eng: Engine):
    P, d = eng.para, eng.datum
    graded = d.antidominant_set(2)
    for F in _finite_facets(eng):
        for m1, h1 in graded:
            for m2, h2 in graded:
                if h1 + h2 > 2 or m1 > m2:
                    continue
                P.center_product_expand(F, m1, m2)  # raises on failure
    return None


def suite_center(eng: Engine):
    return [
        _check("center_elements_commute_with_double_cosets_height_2", _check_center_commutation, eng),
        _check("center_products_reexpand_over_center_basis", _check_center_products, eng),
    ]


# ----------------------------------------------------------------------
# satake suite

def _check_row_support(eng: Engine, table):
    d = eng.datum
    for r in table.rows:
        preds = d.saturation_predecessors(r.x)
        if [m for m, _ in r.entries] != preds:
            return f"row {r.x} entries do not match predecessor set"
        if len(preds) == 1 and not (len(r.entries) == 1 and r.entries[0][1].is_one()):
            return f"minuscule row {r.x} is not a unit singleton"
    return None


def _check_transform_invariance(eng: Engine, table):
    B, d = eng.bern, eng.datum
    for r in table.rows:
        out = B.from_orbit_sums(r.entries)
        for wi in range(d.w_order):
            if B.dot_act(wi, out) != out:
                return f"transform of row {r.x} is not dot-invariant"
    return None


def _check_commutative_spot(eng: Engine, table):
    P = eng.para
    if len(table.rows) < 2:
        return None
    F = P.special_facet()
    hx = P.kelt(F, table.rows[-1].x)
    hy = P.kelt(F, table.rows[-2].x)
    if P.parahoric_mul(F, hx, hy) != P.parahoric_mul(F, hy, hx):
        return f"double cosets at {table.rows[-1].x}, {table.rows[-2].x} do not commute"
    return None


def suite_satake(eng: Engine):
    P, d = eng.para, eng.datum
    xs = [x for x, _ in d.antidominant_set(3)]
    try:
        table = P.satake_table(xs, check_products=False)
    except NegativeCoefficient as exc:
        return [CheckResult("satake_positivity", "FALSIFIED", str(exc))]
    except ParaheckeError as exc:
        return [_result("satake_rows_solved_unit_diagonal_positive", _error_text(exc))]
    return [
        _result(f"satake_rows_solved_unit_diagonal_positive[{len(table.rows)} rows]"),
        _check(
            "satake_transform_multiplicative_within_height_3",
            P._check_multiplicative, P.special_facet(), table,
        ),
        _check("satake_rows_supported_exactly_on_predecessors_minuscule_unit", _check_row_support, eng, table),
        _check("satake_transforms_dot_invariant", _check_transform_invariance, eng, table),
        _check("special_hecke_algebra_commutative_spot_check", _check_commutative_spot, eng, table),
    ]


# ----------------------------------------------------------------------
# compatibility suite

def _check_nested_facets(eng: Engine):
    P, d = eng.para, eng.datum
    facets = _finite_facets(eng)
    for Fs in facets:
        for Fb in facets:
            if Fs.J == Fb.J or not set(Fs.J) <= set(Fb.J):
                continue
            for m, _ in d.antidominant_set(2):
                if not P.compatibility_holds(Fs, Fb, m):
                    return f"Bernstein-Satake square fails at J'={list(Fs.J)} ⊂ J={list(Fb.J)}, m={m}"
    return None


def _check_pushforward(eng: Engine):
    d = eng.datum
    if not d.torsion:
        raise UnsupportedParameters("datum has no torsion to quotient")
    quot = TorsionQuotient(d, [tuple(1 if j == i else 0 for j in range(len(d.torsion))) for i in range(len(d.torsion))])
    tgt = _engine_mod.engine_for(quot.datum)
    P, Pq = eng.para, tgt.para
    Fs = P.special_facet()
    Fq = Pq.special_facet()
    for m, _ in d.antidominant_set(2):
        z = P.center_elt(Fs, m)
        if quot.push_hecke(z, tgt.hecke) != Pq.center_elt(Fq, quot.push_lattice(m)):
            return f"pushforward does not intertwine center elements at {m}"
    src_rows = P.satake_table([x for x, _ in d.antidominant_set(2)], check_products=False)
    tgt_rows = Pq.satake_table([x for x, _ in tgt.datum.antidominant_set(2)], check_products=False)
    for r in src_rows.rows:
        base = tgt_rows.row(quot.push_lattice(r.x))
        got = [(quot.push_lattice(m), p) for m, p in r.entries]
        if got != base.entries:
            return f"pushforward does not intertwine the Satake row at {r.x}"
    return None


def suite_compat(eng: Engine):
    return [
        _check("bernstein_satake_square_nested_facets_height_2", _check_nested_facets, eng),
        _check("pushforward_intertwines_center_and_satake", _check_pushforward, eng),
    ]


# ----------------------------------------------------------------------

_SUITES = {
    "presentation": suite_presentation,
    "bern": suite_bern,
    "center": suite_center,
    "satake": suite_satake,
    "compat": suite_compat,
}


def run_suite(eng: Engine, name: str):
    if name == "all":
        out = []
        for key in ("presentation", "bern", "center", "satake", "compat"):
            results = _SUITES[key](eng)
            out.extend(CheckResult(f"{key}.{r.name}", r.status, r.detail) for r in results)
            if any(r.status == "FALSIFIED" for r in results):
                break
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](eng)


def render_results(results) -> tuple[str, int]:
    lines = []
    worst = 0
    for r in results:
        if r.status == "PASS":
            lines.append(f"[PASS] {r.name}")
        elif r.status == "SKIP":
            lines.append(f"[SKIP] {r.name}: {r.detail}")
        elif r.status == "FALSIFIED":
            lines.append(f"[FALSIFIED] {r.name}: {r.detail}")
            worst = max(worst, 1)
        else:
            lines.append(f"[FAIL] {r.name}: {r.detail}")
            worst = max(worst, 1)
    return "\n".join(lines) + "\n", worst
