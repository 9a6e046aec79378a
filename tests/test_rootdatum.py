"""Validation, dominance, and saturation-order contracts."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parahecke import cli, rootdatum
from parahecke.errors import (
    InfiniteFiniteWeyl,
    NonCrystallographic,
    NotAntidominant,
    ParameterBraidMismatch,
)
from parahecke.rootdatum import (
    BUNDLED_NAMES,
    Datum,
    LatticeElt,
    RootDatum,
    _int_coords,
    _reflection,
    _solve,
    bundled_datum_path,
    dot,
    load_bundled,
    mat_mul,
    smith_normal_form,
)


@pytest.fixture(scope="module")
def a1():
    return load_bundled("a1")


@pytest.fixture(scope="module")
def a1t2():
    return load_bundled("a1_torsion2")


@pytest.fixture(scope="module")
def gl2():
    return load_bundled("gl2")


@pytest.fixture(scope="module")
def a2():
    return load_bundled("a2")


@pytest.fixture(scope="module")
def c2():
    return load_bundled("c2")


def test_all_bundled_data_validate():
    orders = {}
    for name in BUNDLED_NAMES:
        d = load_bundled(name)
        orders[name] = d.w_order
    assert orders == {
        "a1": 2, "a1_torsion2": 2, "a1_unequal": 2, "gl2": 2, "a2": 6, "c2": 8,
    }


def test_a1_report_contents(capsys):
    assert cli.main(["--datum", "a1", "validate"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["weyl_order"] == 2
    # m(s0, s1) is infinite in the rank-1 affine group
    assert rep["coxeter_matrix"] == {"s0,s1": "inf"}


def test_a1_unequal_parameters_allowed():
    cfg = load_bundled("a1_unequal").cfg
    Datum(cfg)
    # no odd braid relation ties s0 to s1 in the rank-1 affine group,
    # so any positive values are fine in either arrangement
    flipped = RootDatum.from_dict({**cfg._asdict(), "affine_parameters": {"s0": 1, "s1": 3}})
    Datum(flipped)


def test_a2_odd_braid_forces_equal_parameters(a2):
    cfg = RootDatum.from_dict({**a2.cfg._asdict(), "affine_parameters": {"s0": 2, "s1": 1, "s2": 1}})
    with pytest.raises(ParameterBraidMismatch):
        Datum(cfg)


_A1 = json.loads(open(bundled_datum_path("a1"), encoding="utf-8").read())
_R2 = {"name": "r2", "free_rank": 2, "simple_coroots": [[1, 0], [0, 1]], "simple_roots": [[2, 1], [1, 2]],
       "affine_parameters": {"s0": 1, "s1": 1, "s2": 1}}
# one defect per datum file, and the one stderr line `validate` exits 2 with
_DEFECTS = {
    "negative_rank": ({**_A1, "free_rank": -1}, "a1: ValidationError: free_rank must be nonnegative"),
    "torsion_one": ({**_A1, "torsion_invariants": [1]}, "a1: ValidationError: torsion invariants must be >= 2"),
    "count_mismatch": ({**_A1, "simple_coroots": [[1], [1]]},
                       "a1: ValidationError: simple_roots and simple_coroots must have equal length"),
    "vector_length": ({**_A1, "simple_roots": [[2, 0]]},
                      "a1: ValidationError: root/coroot vectors must have length free_rank"),
    "positive_pairing": (_R2, "r2: NonCrystallographic: pairing of simples 0,1 fails crystallographic bounds"),
    "dependent_coroots": ({**_R2, "simple_coroots": [[1, 0], [0, 1], [-1, -1]],
                           "simple_roots": [[2, -1], [-1, 2], [-1, -1]],
                           "affine_parameters": {"s0": 1, "s1": 1, "s2": 1, "s3": 1}},
                          "r2: NonCrystallographic: simple coroots are linearly dependent"),
    "parameter_keys": ({**_A1, "affine_parameters": {"s0": 1}},
                       "a1: ValidationError: affine_parameters must have exactly the keys ['s0', 's1']"),
    "parameter_zero": ({**_A1, "affine_parameters": {"s0": 0, "s1": 1}},
                       "a1: ValidationError: parameters must be positive integers"),
    "generator_length": ({**_A1, "antidominant_generators": [[-1, 0]]},
                         "a1: ValidationError: antidominant_generators must be free vectors of length free_rank"),
    "generator_not_antidominant": ({**_A1, "antidominant_generators": [[1]]},
                                   "a1: ValidationError: configured antidominant generator (1,) is not antidominant"),
    "generator_zero": ({**_A1, "antidominant_generators": [[0]]},
                       "a1: ValidationError: antidominant generators must be nonzero"),
}


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_defective_datum_file_exits_2(tmp_path, capsys, defect):
    cfg, line = _DEFECTS[defect]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["--datum", str(path), "validate"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: datum {line}\n")


def test_bad_cartan_diagonal_rejected(a1):
    cfg = RootDatum.from_dict({**a1.cfg._asdict(), "simple_roots": [[3]]})
    with pytest.raises(NonCrystallographic):
        Datum(cfg)


def test_infinite_weyl_rejected(monkeypatch):
    # The affine A2 Cartan matrix passes every pairwise bound, and in rank 4
    # its roots and coroots are linearly independent, but the group they
    # generate is the infinite affine Weyl group; the finite-type test rejects
    # it before enumeration.  A valid datum past a low bound fails the same way.
    cfg = RootDatum.from_dict({
        "name": "affine_a2", "free_rank": 4,
        "simple_coroots": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        "simple_roots": [[2, -1, -1, 1], [-1, 2, -1, 0], [-1, -1, 2, 0]],
        "affine_parameters": {},
    })
    monkeypatch.setattr(rootdatum, "_MAX_WEYL_ORDER", 200)
    with pytest.raises(InfiniteFiniteWeyl):
        Datum(cfg)
    c2 = load_bundled("c2").cfg
    monkeypatch.setattr(rootdatum, "_MAX_WEYL_ORDER", 3)
    with pytest.raises(InfiniteFiniteWeyl):
        Datum(c2)


def _cartan_datum(cartan, components=1):
    """A datum realizing the Cartan matrix a_ij = <α_j, α_i∨>: coroots e_1..e_n
    in rank n + 1, root j the column j of the matrix, with a 1 in the extra
    coordinate for the last root so that the roots stay independent when the
    last component's matrix is singular.  Every parameter is 1."""
    n = len(cartan)
    roots = [[cartan[i][j] for i in range(n)] + [int(j == n - 1)] for j in range(n)]
    coroots = [[int(i == j) for i in range(n + 1)] for j in range(n)]
    params = {f"s{i}": 1 for i in range(n + components)}
    return RootDatum.from_dict({"name": "cartan", "free_rank": n + 1, "simple_coroots": coroots,
                                "simple_roots": roots, "affine_parameters": params})


FINITE_CARTAN = {  # name -> (Cartan matrix, number of components, |W0|)
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 1, 24),
    "B3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], 1, 48),
    "C3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], 1, 48),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 1, 192),
    "G2": ([[2, -1], [-3, 2]], 1, 12),
    "A1 x G2": ([[2, 0, 0], [0, 2, -3], [0, -1, 2]], 2, 24),
}

# Each passes every pairwise crystallographic bound, yet generates an
# infinite group; the message names why.
INFINITE_CARTAN = {
    "affine A2": ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "not of finite type"),
    "affine C2": ([[2, -1, 0], [-2, 2, -2], [0, -1, 2]], "not of finite type"),
    "affine G2": ([[2, -1, 0], [-1, 2, -3], [0, -1, 2]], "not of finite type"),
    "hyperbolic": ([[2, -3, 0], [-1, 2, -2], [0, -1, 2]], "not of finite type"),
    "A1 x affine A3": ([[2, 0, 0, 0, 0], [0, 2, -1, 0, -1], [0, -1, 2, -1, 0], [0, 0, -1, 2, -1],
                        [0, -1, 0, -1, 2]], "not of finite type"),
    "non-symmetrizable cycle": ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], "not symmetrizable"),
}


@pytest.mark.parametrize("name", sorted(FINITE_CARTAN))
def test_finite_type_cartan_matrices_validate(name):
    cartan, components, order = FINITE_CARTAN[name]
    d = Datum(_cartan_datum(cartan, components))
    assert (len(d.components), d.w_order) == (components, order)


@pytest.mark.parametrize("name", sorted(INFINITE_CARTAN))
def test_infinite_type_cartan_matrix_rejected_before_enumeration(monkeypatch, name):
    """The finite-type test decides before W0 is enumerated: a bound of 2
    would fail any enumeration, so the message shows which test raised."""
    cartan, why = INFINITE_CARTAN[name]
    monkeypatch.setattr(rootdatum, "_MAX_WEYL_ORDER", 2)
    with pytest.raises(InfiniteFiniteWeyl, match=why):
        Datum(_cartan_datum(cartan))


# The reflection matrices and highest roots the bundled files configured
# before both were computed from the roots and coroots.
CONFIGURED_GENERATORS = {
    "a1": ([[[-1]]], [[2]]),
    "a1_torsion2": ([[[-1]]], [[2]]),
    "a1_unequal": ([[[-1]]], [[2]]),
    "gl2": ([[[0, 1], [1, 0]]], [[1, -1]]),
    "a2": ([[[-1, 1], [0, 1]], [[1, 0], [1, -1]]], [[1, 1]]),
    "c2": ([[[0, 1], [1, 0]], [[1, 0], [0, -1]]], [[2, 0]]),
}


def _as_lists(x):
    return [_as_lists(y) for y in x] if isinstance(x, (tuple, list)) else x


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_derived_generators_and_highest_roots(name):
    d = load_bundled(name)
    assert (_as_lists(d.gens), _as_lists(d.theta)) == CONFIGURED_GENERATORS[name]


def _coroot_lattice_datum(roots):
    """The datum on the coroot lattice of the given simple roots, every
    parameter 1."""
    n = len(roots)
    return Datum(RootDatum.from_dict({
        "name": "x", "free_rank": n,
        "simple_coroots": [[int(i == j) for j in range(n)] for i in range(n)],
        "simple_roots": roots,
        "affine_parameters": {f"s{i}": 1 for i in range(n + 1)},
    }))


# G2 and A3 on their coroot lattices, without reflection matrices or highest
# roots: the computed ones are those derived by hand.
@pytest.mark.parametrize("roots, gens, theta, order", [
    ([[2, -1], [-3, 2]], [[[-1, 1], [0, 1]], [[1, 0], [3, -1]]], [[0, 1]], 12),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
     [[[-1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, -1, 1], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 1, -1]]],
     [[1, 0, 1]], 24),
], ids=["g2", "a3"])
def test_reflections_and_highest_root_computed(roots, gens, theta, order):
    d = _coroot_lattice_datum(roots)
    assert (_as_lists(d.gens), _as_lists(d.theta), d.w_order) == (gens, theta, order)
    if len(roots) == 2:
        assert d.coxeter_matrix[(1, 2)] == 6


def _coxeter_by_element_orders(d, cap=24):
    """The reference: m(s_a, s_b) as the order of the product of the two
    generators in Z^r ⋊ W0, found by powering it up to cap (None past it)."""
    out = {}
    for a in d.saff_indices:
        for b in d.saff_indices:
            if a >= b:
                continue
            (va, wa), (vb, wb) = d.saff_real[a], d.saff_real[b]
            pv = tuple(x + y for x, y in zip(va, d.act_w(wa, vb)))
            pw = d.w_mult[wa][wb]
            cv, cw = pv, pw
            order = None
            for k in range(1, cap + 1):
                if cw == 0 and all(x == 0 for x in cv):
                    order = k
                    break
                cv = tuple(x + y for x, y in zip(cv, d.act_w(cw, pv)))
                cw = d.w_mult[cw][pw]
            out[(a, b)] = order
    return out


B4_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]]  # |W0| = 384

COXETER_DATA = (
    [(name, lambda name=name: load_bundled(name)) for name in BUNDLED_NAMES]
    + [(name, lambda name=name: Datum(_cartan_datum(*FINITE_CARTAN[name][:2]))) for name in sorted(FINITE_CARTAN)]
    + [("g2", lambda: _coroot_lattice_datum([[2, -1], [-3, 2]])),
       ("a3", lambda: _coroot_lattice_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])),
       ("B4", lambda: Datum(_cartan_datum(B4_CARTAN)))]
)


@pytest.mark.parametrize("build", [b for _, b in COXETER_DATA], ids=[name for name, _ in COXETER_DATA])
def test_coxeter_matrix_matches_element_orders(build):
    d = build()
    assert d.coxeter_matrix == _coxeter_by_element_orders(d)
    assert list(d.coxeter_matrix) == [(a, b) for a in d.saff_indices for b in d.saff_indices if a < b]


def _weyl_tables_by_matrix_products(d):
    """The reference: W0's product table from the product of every pair of
    matrices, looked up in w_index, and each inverse found by scanning its
    row for the identity."""
    cols = [tuple(zip(*w)) for w in d.w_elems]
    mult = [[d.w_index[tuple(tuple(dot(row, col) for col in cols[j]) for row in a)] for j in range(d.w_order)]
            for a in d.w_elems]
    inv = [next(j for j in range(d.w_order) if mult[i][j] == 0) for i in range(d.w_order)]
    return mult, inv


@pytest.mark.parametrize("build", [b for _, b in COXETER_DATA], ids=[name for name, _ in COXETER_DATA])
def test_weyl_tables_match_matrix_products(build):
    """w_mult and w_inv, read off the BFS's Cayley table, are the tables of
    matrix products; w_right[w][i] is the index of w·s_{i+1}."""
    d = build()
    assert (d.w_mult, d.w_inv) == _weyl_tables_by_matrix_products(d)
    for w, row in zip(d.w_elems, d.w_right):
        assert [d.w_elems[x] for x in row] == [mat_mul(w, g) for g in d.gens]


@st.composite
def _realized_cartan(draw):
    """A FINITE_CARTAN matrix a_ij = <α_j, α_i∨> in rank n + k (k ≤ 2 extra
    free directions, on which the roots take random values), carried into
    random coordinates by a unimodular U: coroots U·e_i, roots α_j·U⁻¹, so
    every pairing stays."""
    name = draw(st.sampled_from(sorted(FINITE_CARTAN)))
    cartan, components, order = FINITE_CARTAN[name]
    n = len(cartan)
    r = n + draw(st.integers(0, 2))
    coroots = [[int(i == j) for i in range(r)] for j in range(n)]
    roots = [[cartan[i][j] for i in range(n)] + [draw(st.integers(-2, 2)) for _ in range(r - n)] for j in range(n)]
    # U = a product of elementary matrices E + c·e_a e_b^T, applied with its
    # inverse E − c·e_a e_b^T on the roots' side
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        c = draw(st.integers(-2, 2))
        if a == b:
            continue
        for v in coroots:  # v ↦ (E + c·e_a e_b^T)·v
            v[a] += c * v[b]
        for f in roots:  # f ↦ f·(E − c·e_a e_b^T)
            f[b] -= c * f[a]
    cfg = RootDatum.from_dict({
        "name": name, "free_rank": r, "simple_coroots": coroots, "simple_roots": roots,
        "affine_parameters": {f"s{i}": 1 for i in range(n + components)},
    })
    return cfg, components, order


def _fraction_solve(rows, rhs):
    """The reference: Gauss–Jordan elimination over Fraction, column by
    column.  Returns the pivot columns and the solution that is 0 on every
    other column, or None when the system is inconsistent."""
    ncols = len(rows[0])
    m = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        lead = m[rank] = [a / p for a in m[rank]]
        for i in range(len(m)):
            f = m[i][col]
            if i != rank and f:
                m[i] = [a - f * b for a, b in zip(m[i], lead)]
        pivots.append(col)
    if any(row[-1] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][-1]
    return pivots, x


def _assert_floor_tab_at_an_alcove_point(d):
    """floor_tab[u][k] = ⌊⟨u(p0), β_k⟩⌋ at the point p0 of the open base alcove
    with ⟨p0, α_i⟩ = 1/(h_c + 1) for α_i in component c, h_c = ht(θ_c) + 1
    its Coxeter number, solved over Fraction."""
    rhs = [None] * d.n_simple
    for comp, theta in zip(d.components, d.theta):
        for i in comp:
            rhs[i] = Fraction(1, sum(d.pos_root_coeffs[theta]) + 2)
    _, p0 = _fraction_solve([list(alpha) for alpha in d.simple_roots], rhs)
    assert all(0 < dot(beta, p0) < 1 for beta in d.pos_roots)
    for u, row in zip(d.w_elems, d.floor_tab):
        up0 = [dot(line, p0) for line in u]
        assert row == tuple(math.floor(dot(beta, up0)) for beta in d.pos_roots)


@settings(max_examples=30, deadline=None)
@given(_realized_cartan())
def test_derived_tables_satisfy_the_deleted_guards(case):
    """Every invariant that the datum build once re-checked holds on a finite
    Cartan matrix in arbitrary coordinates: a unique longest element; the
    W0-orbit of the simple roots is Φ⁺ ∪ −Φ⁺, each positive root the
    carried N-combination of simple roots; the floor table is the floor at
    a point of the open base alcove, the cone generators solve as claimed,
    and 2ρ pairs to 2 with every simple coroot.  The Coxeter matrix is the
    element-order one."""
    cfg, components, order = case
    d = Datum(cfg)
    n = d.n_simple
    assert (len(d.components), d.w_order) == (components, order)
    assert sorted(d.w_len).count(max(d.w_len)) == 1
    # the orbit of the simple roots under W0, as functionals β ↦ β∘w
    orbit = {tuple(dot(beta, col) for col in zip(*w)) for w in d.w_elems for beta in d.simple_roots}
    pos = set(d.pos_roots)
    assert len(pos) == len(d.pos_roots) and orbit == pos | {tuple(-x for x in beta) for beta in pos}
    for beta in d.pos_roots:
        coeffs = d.pos_root_coeffs[beta]
        assert min(coeffs) >= 0
        assert beta == tuple(sum(c * alpha[k] for c, alpha in zip(coeffs, d.simple_roots)) for k in range(d.r))
        assert _int_coords(d.simple_roots, beta) == coeffs
        # the carried coroot gives a reflection in W0
        assert dot(beta, d.root_coroot[beta]) == 2 and _reflection(beta, d.root_coroot[beta]) in d.w_index
    _assert_floor_tab_at_an_alcove_point(d)
    for i, (vec, den) in enumerate(d.fund_antidom):
        assert [dot(alpha, vec) for alpha in d.simple_roots] == [-den * (j == i) for j in range(n)]
    assert all(dot(d.height_functional, acov) == 2 for acov in d.simple_coroots)
    assert min(_int_coords(d.simple_roots, d.height_functional)) >= 0
    assert d.coxeter_matrix == _coxeter_by_element_orders(d)


@pytest.mark.parametrize("build", [b for _, b in COXETER_DATA], ids=[name for name, _ in COXETER_DATA])
def test_floor_table_is_the_floor_at_an_alcove_point(build):
    _assert_floor_tab_at_an_alcove_point(build())


@st.composite
def _linear_system(draw):
    """A system of up to 4 equations in up to 5 unknowns, entries in [-3, 3];
    half of them consistent by construction (rhs = rows·y)."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [[draw(st.integers(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        y = [draw(st.integers(-3, 3)) for _ in range(ncols)]
        return rows, [dot(row, y) for row in rows], True
    return rows, [draw(st.integers(-5, 5)) for _ in range(nrows)], False


@settings(max_examples=300, deadline=None)
@given(_linear_system())
def test_solve_is_the_solution_that_is_zero_off_the_pivots(case):
    """_solve's particular solution is 0 on every non-pivot column, with the
    pivot columns found by Fraction elimination, over the least common
    denominator; an inconsistent system gives None."""
    rows, rhs, consistent = case
    want = _fraction_solve(rows, rhs)
    got = _solve(rows, rhs)
    if want is None:
        assert not consistent and got is None
        return
    pivots, x = want
    ints, den = got
    assert all(ints[col] == 0 for col in range(len(x)) if col not in pivots)
    assert [Fraction(a, den) for a in ints] == x
    assert den == math.lcm(*(c.denominator for c in x))


_G2 = {"name": "g2", "free_rank": 2, "simple_coroots": [[1, 0], [0, 1]], "simple_roots": [[2, -1], [-3, 2]],
       "affine_parameters": {"s0": 1, "s1": 1, "s2": 1}, "antidominant_generators": [[-2, -3], [-1, -2]]}


def _predecessors_by_enumeration(d, x, bound):
    """The reference: every antidominant x + Σ c_j α_j∨ with Σ c_j ≤ bound,
    with its rank Σ c_j, sorted by (rank, free part)."""
    out = []
    for c in itertools.product(range(bound + 1), repeat=d.n_simple):
        if sum(c) <= bound:
            free = tuple(a + sum(cj * cov[k] for cj, cov in zip(c, d.simple_coroots)) for k, a in enumerate(x.free))
            if all(dot(alpha, free) <= 0 for alpha in d.simple_roots):
                out.append((LatticeElt(free, x.tors), sum(c)))
    return sorted(out, key=lambda p: (p[1], p[0].free))


@pytest.mark.parametrize("build", [lambda name=name: load_bundled(name) for name in BUNDLED_NAMES]
                         + [lambda: Datum(RootDatum.from_dict(_G2))], ids=list(BUNDLED_NAMES) + ["g2"])
def test_saturation_predecessors_equal_a_wider_enumeration(build):
    """For every antidominant x of height ≤ 3, the predecessors equal an
    enumeration whose rank bound is 3 above ⌊−⟨ρ, x⟩⌋, with 2ρ summed over
    the positive roots here."""
    d = build()
    for x, _ in d.antidominant_set(3):
        bound = -sum(dot(beta, x.free) for beta in d.pos_roots) // 2 + 3
        assert d.saturation_predecessors_ranked(x) == _predecessors_by_enumeration(d, x, bound)


def test_act_examples(a1, a1t2):
    s1 = a1.w_word.index((1,))
    assert a1.act(s1, a1.lattice([1])) == a1.lattice([-1])
    assert a1.act(s1, a1.zero) == a1.zero
    mt = a1t2.lattice([1], [1])
    assert a1t2.act(a1t2.w_word.index((1,)), mt) == a1t2.lattice([-1], [1])


def test_action_is_a_group_action(a2):
    for wi in range(a2.w_order):
        inv = a2.w_inv[wi]
        for free in [(1, 0), (0, 1), (2, -3)]:
            m = a2.lattice(free)
            assert a2.act(wi, a2.act(inv, m)) == m


def test_antidominance(a1):
    assert a1.is_antidominant(a1.lattice([-1]))
    assert a1.is_antidominant(a1.zero)
    assert not a1.is_antidominant(a1.lattice([1]))


def test_in_coroot_lattice(a1, gl2, a1t2):
    assert a1.in_coroot_lattice(a1.lattice([-1])) == (-1,)
    assert gl2.in_coroot_lattice(gl2.lattice([1, 0])) is None
    assert gl2.in_coroot_lattice(gl2.lattice([2, -2])) == (2,)
    assert a1t2.in_coroot_lattice(a1t2.lattice([2], [1])) is None


def test_saturation_predecessors_examples(a1):
    z = a1.zero
    assert a1.saturation_predecessors(z) == [z]
    assert a1.saturation_predecessors(a1.lattice([-1])) == [a1.lattice([-1]), z]
    assert a1.saturation_predecessors(a1.lattice([-2])) == [
        a1.lattice([-2]), a1.lattice([-1]), z,
    ]
    with pytest.raises(NotAntidominant):
        a1.saturation_predecessors(a1.lattice([1]))


def test_saturation_is_partial_order(a2):
    elts = [m for m, _ in a2.antidominant_set(2)]
    for x in elts:
        preds = a2.saturation_predecessors(x)
        assert x in preds
        for m in preds:
            assert a2.saturation_le(m, x)
            # downward closure
            for m2 in a2.saturation_predecessors(m):
                assert m2 in preds
        for y in elts:
            if a2.saturation_le(x, y) and a2.saturation_le(y, x):
                assert x == y


def test_gl2_minuscule_predecessors(gl2):
    x = gl2.lattice([-1, 0])
    assert gl2.saturation_predecessors(x) == [x]
    y = gl2.lattice([-2, 0])
    assert gl2.saturation_predecessors(y) == [y, gl2.lattice([-1, -1])]


def test_antidominant_set_heights(a1, gl2):
    got = a1.antidominant_set(2)
    assert [(m.free, h) for m, h in got] == [((0,), 0), ((-1,), 1), ((-2,), 2)]
    g = gl2.antidominant_set(1)
    assert [(m.free, h) for m, h in g] == [((0, 0), 0), ((-1, -1), 1), ((-1, 0), 1)]


def test_orbit_and_rep(a2, c2):
    m = a2.lattice([-1, -1])
    orb = a2.orbit(m)
    assert len(orb) == 6
    assert a2.antidominant_rep(a2.lattice([1, 1])) == m
    assert len(c2.orbit(c2.lattice([-1, 0]))) == 4


def _det(m):
    """Determinant by Laplace expansion along the first row (small matrices)."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _minors(m, r):
    return [_det([[m[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(len(m)), r)
            for cols in itertools.combinations(range(len(m[0])), r)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda rows: st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-12, 12), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))))
def test_smith_normal_form_properties(m):
    """V is unimodular, every row of m·V lies in ⊕ diag[j]·Z, and the nonzero
    diagonal entries number the rank, their product being the gcd of the
    rank-size minors (the last determinantal divisor, kept by unimodular
    operations)."""
    diag, v = smith_normal_form([row[:] for row in m])
    cols = len(m[0])
    assert len(diag) == cols and _det(v) in (1, -1)
    mv = [[sum(row[k] * v[k][j] for k in range(cols)) for j in range(cols)] for row in m]
    for row in mv:
        assert all(x == 0 if d == 0 else x % d == 0 for x, d in zip(row, diag))
    rank = max(r for r in range(min(len(m), cols) + 1) if any(_minors(m, r)))
    nonzero = [d for d in diag if d]
    assert len(nonzero) == rank
    assert math.prod(nonzero) == math.gcd(*_minors(m, rank))


def test_smith_normal_form_quotient():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3
    d, v = smith_normal_form([[2, 0], [0, 3]])
    assert sorted(x for x in d if x > 1) == [2, 3]
    # the column transform must be unimodular
    det = v[0][0] * v[1][1] - v[0][1] * v[1][0]
    assert det in (1, -1)


def test_multicomponent_a1xa1():
    cfg = RootDatum.from_dict({
        "name": "a1xa1",
        "free_rank": 2,
        "torsion_invariants": [],
        "simple_coroots": [[1, 0], [0, 1]],
        "simple_roots": [[2, 0], [0, 2]],
        "affine_parameters": {"s0": 1, "s1": 1, "s2": 1, "s3": 1},
        "antidominant_generators": [[-1, 0], [0, -1]],
    })
    d = Datum(cfg)
    assert d.w_order == 4
    assert sorted(d.saff_indices) == [0, 1, 2, 3]
    # the two components commute: every cross order is 2
    assert d.coxeter_matrix[(1, 2)] == 2


def test_omega_data(gl2, a1):
    og = gl2.omega_data()
    assert og["omega_free_rank"] == 1
    assert a1.omega_data()["omega_free_rank"] == 0
