"""Acceptance gate: every criterion at its stated tolerance, one line each.

All checks are exact (integer/Laurent identities); the only tolerances are
the two stated runtime targets.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines ([PASS]/[FAIL] is printed either way).
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time

from parahecke.engine import load_engine
from parahecke.verify import (
    render_results,
    suite_bern,
    suite_center,
    suite_compat,
    suite_presentation,
    suite_satake,
)

ALL_DATA = ("a1", "a1_unequal", "a1_torsion2", "gl2", "a2", "c2")


# sha256 of each suite's rendered rows (verify.render_results), per datum, as
# the suites below run them: a change to the bytes `verify` prints fails here.
SUITE_DIGESTS = {
    "presentation/a1": "b5d4e8814b5f482f65c584df7845ab46f8182fd212f5a342f61905c0d0d0992b",
    "presentation/a1_unequal": "b5d4e8814b5f482f65c584df7845ab46f8182fd212f5a342f61905c0d0d0992b",
    "presentation/a1_torsion2": "b5d4e8814b5f482f65c584df7845ab46f8182fd212f5a342f61905c0d0d0992b",
    "presentation/gl2": "b5d4e8814b5f482f65c584df7845ab46f8182fd212f5a342f61905c0d0d0992b",
    "presentation/a2": "b5d4e8814b5f482f65c584df7845ab46f8182fd212f5a342f61905c0d0d0992b",
    "presentation/c2": "b5d4e8814b5f482f65c584df7845ab46f8182fd212f5a342f61905c0d0d0992b",
    "bern/a1": "30665327c8a4180e10ab94b59ae884b292e2437ac85a281c4b5a1c5922f39973",
    "bern/a1_unequal": "14ea1815611a3e5660624b42504be3f93a6e4eef18b8a0b34a58df8484eb58e2",
    "bern/a1_torsion2": "30665327c8a4180e10ab94b59ae884b292e2437ac85a281c4b5a1c5922f39973",
    "bern/gl2": "30665327c8a4180e10ab94b59ae884b292e2437ac85a281c4b5a1c5922f39973",
    "bern/a2": "30665327c8a4180e10ab94b59ae884b292e2437ac85a281c4b5a1c5922f39973",
    "bern/c2": "73ae11f2586ae8965551025dcf9634a750e39d40aa99667b9ef949ad38b18935",
    "center/a1": "323761fa7b957e653711be7fa640b2041a0e5063d620faebafc7d81fdc43ddc7",
    "center/a2": "323761fa7b957e653711be7fa640b2041a0e5063d620faebafc7d81fdc43ddc7",
    "center/c2": "323761fa7b957e653711be7fa640b2041a0e5063d620faebafc7d81fdc43ddc7",
    "satake/a1": "9f780607b3a24698260b604f2320f119ba285ae1d79d3fa3a85dc72f6979003f",
    "satake/a1_unequal": "9f780607b3a24698260b604f2320f119ba285ae1d79d3fa3a85dc72f6979003f",
    "satake/a1_torsion2": "bdd966c10cb95702d99aca7babab705d8872f2fe25991ea3f438f6bbc36f576d",
    "satake/gl2": "15cf114097603be00b8aaa00263127da3b2608b11efabd09642dfe2e86d8c277",
    "satake/a2": "707ba5e5a07d845775822a9b699df86243a184a64ad6b285904446ca346d48fe",
    "satake/c2": "15cf114097603be00b8aaa00263127da3b2608b11efabd09642dfe2e86d8c277",
    "compat/a1": "ce330cfde321f4e7dcf645b238be91eca0a1d1e243c3bc4d340cb226aeea25cd",
    "compat/a2": "ce330cfde321f4e7dcf645b238be91eca0a1d1e243c3bc4d340cb226aeea25cd",
    "compat/a1_torsion2": "f400e1cd62b58ccd053c8409ab2af9753e6e8120dd6a0ae05310b29821f191cb",
}


def _assert_clean(results, context):
    """No FAIL/FALSIFIED row, and the rendered rows match SUITE_DIGESTS[context]."""
    bad = [r for r in results if r.status not in ("PASS", "SKIP")]
    assert not bad, f"{context}: " + "; ".join(f"{r.name}: {r.detail}" for r in bad)
    text, _ = render_results(results)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[context], f"{context}: rows changed"


@contextlib.contextmanager
def _criterion(n, text):
    """Emit exactly one [PASS]/[FAIL] line for the criterion."""
    figures = {}
    try:
        yield figures
    except BaseException as exc:
        print(f"\n[FAIL] criterion {n}: {text} -- {exc}")
        raise
    extra = figures.get("extra", "")
    print(f"\n[PASS] criterion {n}: {text}{extra}")


def test_criterion_1_presentation_suite():
    with _criterion(1, "presentation suite (braid/quadratic/inverses) on all data") as fig:
        slowest = 0.0
        for name in ALL_DATA:
            eng = load_engine(name)
            t0 = time.time()
            _assert_clean(suite_presentation(eng), f"presentation/{name}")
            slowest = max(slowest, time.time() - t0)
        assert slowest < 30.0, f"presentation suite exceeded 30s per datum ({slowest:.1f}s)"
        fig["extra"] = f" (worst {slowest:.1f}s < 30s)"


def test_criterion_2_length_anchors():
    with _criterion(2, "wall-count = reduced-word length (ball 6); dominance additivity (height 3)"):
        for name in ALL_DATA:
            eng = load_engine(name)
            W, d = eng.weyl, eng.datum
            for x in W.ball(6):
                word, om = W.reduced_word(x)
                assert len(word) == W.length(x), f"length mismatch at {W.format_elt(x)} on {name}"
                assert W.length(om) == 0
            ms = [m for m, _ in d.antidominant_set(3)]
            for m1 in ms:
                t1 = W.translation(m1)
                for m2 in ms:
                    t2 = W.translation(m2)
                    assert W.length(W.compose(t1, t2)) == W.length(t1) + W.length(t2)
                for wi in range(d.w_order):
                    assert W.length(W.compose(t1, W.finite(wi))) == W.length(t1) + d.w_len[wi]


def test_criterion_3_bernstein_suite():
    with _criterion(3, "theta multiplicativity, 200 round trips, vee-theta, Bernstein relation on A1/A2"):
        for name in ALL_DATA:
            eng = load_engine(name)
            results = suite_bern(eng)
            _assert_clean(results, f"bern/{name}")
            if name in ("a1", "a2"):
                by_name = {r.name: r for r in results}
                assert by_name["bernstein_relation_height_2"].status == "PASS"


def test_criterion_4_center_suite():
    with _criterion(4, "center elements commute; products re-expand over the z-basis on A1/A2/C2"):
        for name in ("a1", "a2", "c2"):
            eng = load_engine(name)
            _assert_clean(suite_center(eng), f"center/{name}")


def test_criterion_5_satake_suite():
    with _criterion(5, "satake suite on all six data") as fig:
        t0 = time.time()
        for name in ALL_DATA:
            eng = load_engine(name)
            _assert_clean(suite_satake(eng), f"satake/{name}")
        elapsed = time.time() - t0
        assert elapsed < 300.0, f"satake suite exceeded 5 minutes total ({elapsed:.1f}s)"
        fig["extra"] = f" ({elapsed:.1f}s < 300s)"


def test_criterion_6_compatibility_suite():
    with _criterion(6, "Bernstein-Satake square on nested facets; pushforward A1+Z/2 -> A1 exact"):
        for name in ("a1", "a2"):
            eng = load_engine(name)
            _assert_clean(suite_compat(eng), f"compat/{name}")
        results = suite_compat(load_engine("a1_torsion2"))
        by_name = {r.name: r for r in results}
        _assert_clean(results, "compat/a1_torsion2")
        push = by_name["pushforward_intertwines_center_and_satake"]
        assert push.status == "PASS", push.detail


def test_criterion_7_independent_oracle():
    with _criterion(7, "standalone rank-1 oracle reproduces the engine's Satake entries exactly"):
        here = os.path.dirname(__file__)
        oracle = os.path.join(here, "oracle_a1_satake.py")
        for name in ("a1", "a1_unequal"):
            eng = load_engine(name)
            datum_path = os.path.join(os.path.dirname(here), "src", "parahecke", "data", f"{name}.json")
            proc = subprocess.run(
                [sys.executable, oracle, datum_path], capture_output=True, text=True, check=True
            )
            got = json.loads(proc.stdout)
            d = eng.datum
            table = eng.para.satake_table([d.zero, d.lattice([-1])], check_products=False)
            row = table.row(d.lattice([-1]))

            # engine coefficients are v-pairs with q = v^2; the oracle speaks q
            def as_q(poly):
                assert all(e % 2 == 0 for e in poly.d)
                return sorted([e // 2, c] for e, c in poly.d.items())

            assert as_q(row.entries[0][1]) == got["s_xx"], name
            assert as_q(row.entries[1][1]) == got["s_x0"], name


def test_criterion_8_determinism(tmp_path):
    with _criterion(8, "verify all and satake --height 3 byte-identical across runs and jobs 1/4"):
        env = dict(os.environ)
        env["PARAHECKE_CACHE_DIR"] = str(tmp_path / "cache")
        base = [sys.executable, "-m", "parahecke", "--datum", "a1_torsion2"]

        def run(cmd):
            proc = subprocess.run(cmd, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        for tail in (["verify", "all"], ["satake", "--height", "3"]):
            out_j1a = run(base + tail + ["--jobs", "1"])
            out_j1b = run(base + tail + ["--jobs", "1"])
            out_j4 = run(base + tail + ["--jobs", "4"])
            assert out_j1a == out_j1b, f"{tail}: two identical runs differ"
            assert out_j1a == out_j4, f"{tail}: jobs=1 vs jobs=4 differ"
