"""Two-component datum: affine generators s0 and s3, product structure."""

import pytest

from parahecke.engine import engine_for
from parahecke.ringcore import LaurentPoly
from parahecke.rootdatum import Datum, RootDatum
from parahecke.verify import render_results, run_suite

Q = LaurentPoly.q()


@pytest.fixture(scope="module")
def Exx():
    cfg = RootDatum.from_dict({
        "name": "a1xa1",
        "free_rank": 2,
        "torsion_invariants": [],
        "simple_coroots": [[1, 0], [0, 1]],
        "simple_roots": [[2, 0], [0, 2]],
        "affine_parameters": {"s0": 1, "s1": 1, "s2": 1, "s3": 1},
        "antidominant_generators": [[-1, 0], [0, -1]],
    })
    return engine_for(Datum(cfg))


def test_affine_generators_per_component(Exx):
    W, d = Exx.weyl, Exx.datum
    assert d.saff_indices == [0, 1, 2, 3]
    # s0 translates along the first component's coroot, s3 along the second
    assert W.gen(0).free == (1, 0) and W.gen(3).free == (0, 1)
    # the components commute
    assert W.compose(W.gen(0), W.gen(3)) == W.compose(W.gen(3), W.gen(0))


def test_lengths_add_across_components(Exx):
    W, d = Exx.weyl, Exx.datum
    t = W.translation(d.lattice([-2, -3]))
    assert W.length(t) == 4 + 6


def test_satake_table_is_a_tensor_product(Exx):
    """Entries at (x1, x2) factor as products of the rank-1 entries."""
    P, d = Exx.para, Exx.datum
    table = P.satake_table([x for x, _ in d.antidominant_set(2)])
    row = table.row(d.lattice([-1, -1]))
    got = {m.free: p for m, p in row.entries}
    assert got[(-1, -1)] == LaurentPoly.one()
    assert got[(0, -1)] == Q - 1
    assert got[(-1, 0)] == Q - 1
    assert got[(0, 0)] == (Q - 1) * (Q - 1)


def test_all_suites_green(Exx):
    for suite in ("presentation", "bern", "center", "compat"):
        text, worst = render_results(run_suite(Exx, suite))
        assert worst == 0, f"{suite}:\n{text}"


def test_rank_zero_pure_torsion_datum():
    """Degenerate arena: no roots, Weyl group trivial, torsion only."""
    cfg = RootDatum.from_dict({
        "name": "torus_z3",
        "free_rank": 0,
        "torsion_invariants": [3],
        "simple_coroots": [],
        "simple_roots": [],
        "affine_parameters": {},
    })
    eng = engine_for(Datum(cfg))
    d = eng.datum
    assert d.w_order == 1 and d.saff_indices == []
    xs = [x for x, _ in d.antidominant_set(1)]
    assert len(xs) == 3
    table = eng.para.satake_table(xs)
    for r in table.rows:
        assert r.entries == [(r.x, LaurentPoly.one())]
    text, worst = render_results(run_suite(eng, "all"))
    assert worst == 0, text
