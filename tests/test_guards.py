"""The loud convention-bug guards fire when an invariant is sabotaged."""

import json
from types import SimpleNamespace

import pytest

from parahecke.affweyl import AffineWeylGroup
from parahecke.cli import main
from parahecke.engine import CACHE_ENV, load_engine
from parahecke.errors import NegativeCoefficient, NonUnitDiagonal, SolveInconsistent
from parahecke.hecke import IwahoriHecke
from parahecke.parahoric import Parahoric
from parahecke.ringcore import LaurentPoly
from parahecke.rootdatum import load_bundled
from parahecke.verify import CheckResult, _braid_pairs, _check_braid_invariance, render_results


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

    monkeypatch.delenv(CACHE_ENV, raising=False)
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

    monkeypatch.delenv(CACHE_ENV, raising=False)
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


@pytest.mark.parametrize("name, failure", [
    ("c2", "braid/quadratic invariance fails on word [0, 1, 0, 2, 2, 2, 2] at iteration 0"),
    ("a1", "braid/quadratic invariance fails on word [1, 0, 1, 1, 1, 0, 1, 1] at iteration 65"),
], ids=["c2", "a1"])
def test_braid_check_catches_a_wrong_generator_step(monkeypatch, name, failure):
    """A wrong q-exponent in the memoized step i_w·i_s, on elements of length ≥ 6
    only, fails the presentation check: by a braid relation on c2, by the
    quadratic fold on a1, which has no finite braid relation."""
    datum = load_bundled(name)
    assert bool(_braid_pairs(datum)) == (name == "c2")

    def fresh():  # empty rewriting memos, so that every step is computed
        weyl = AffineWeylGroup(datum)
        return SimpleNamespace(datum=datum, weyl=weyl, hecke=IwahoriHecke(weyl))

    assert _check_braid_invariance(fresh()) is None
    real = IwahoriHecke._compute_gen_right

    def sabotaged(self, n, i):
        ns, e = real(self, n, i)
        if e is not None and self.weyl.length(self.weyl.by_id[n]) >= 6:
            e += 2
            self._gen_cache[n * self._G + i] = (ns, e)
        return ns, e

    monkeypatch.setattr(IwahoriHecke, "_compute_gen_right", sabotaged)
    assert _check_braid_invariance(fresh()) == failure
