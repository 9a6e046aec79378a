"""CLI commands, expression grammar, exit codes, start-up imports."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parahecke import engine as engine_mod
from parahecke.engine import Engine, load_engine
from parahecke.errors import ExprSyntaxError
from parahecke.exprs import parse_basis_element, parse_hecke_expr
from parahecke.hecke import TorsionQuotient
from parahecke.parahoric import FacetType
from parahecke.ringcore import LaurentPoly
from parahecke.rootdatum import Datum, RootDatum, bundled_datum_path, load_bundled
from parahecke.verify import CheckResult
from parahecke import cli

Q = LaurentPoly.q()


@pytest.fixture(scope="module")
def E1():
    return load_engine("a1")


def run_cli(args, **kw):
    return cli.main(list(args))


def capture(capsys, args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expression_grammar(E1):
    H, W = E1.hecke, E1.weyl
    assert parse_hecke_expr(H, "t[1]") == H.basis(W.elt([1]))
    assert parse_hecke_expr(H, "s1·s0") == H.basis(W.elt([-1]))
    assert parse_hecke_expr(H, "2·t[1] + q·s1 - 1") == (
        H.basis(W.elt([1])).scale(2) + H.basis(W.gen(1)).scale(Q) - H.one()
    )
    assert parse_hecke_expr(H, "q^-2·t[0]") == H.one().scale(LaurentPoly.q_power(-2))
    assert parse_hecke_expr(H, "3") == H.one().scale(3)
    assert parse_basis_element(H, "t[-2]") == W.elt([-2])
    assert parse_basis_element(H, "s1 + s0 - s0") == W.gen(1)
    with pytest.raises(ExprSyntaxError):
        parse_hecke_expr(H, "t[1] +")
    with pytest.raises(ExprSyntaxError):
        parse_hecke_expr(H, "sx")
    for text in ("2·s1", "q·s1", "s1 + s0", "s1 - s1", "0"):
        with pytest.raises(ExprSyntaxError, match="is not a single basis element"):
            parse_basis_element(H, text)


def test_parse_print_roundtrip():
    """Every printed element of the length-3 ball parses back to itself."""
    for name in ("a1_torsion2", "gl2"):
        eng = load_engine(name)
        H, W = eng.hecke, eng.weyl
        for x in W.ball(3):
            assert parse_hecke_expr(H, W.format_elt(x)) == H.basis(x)
            assert parse_basis_element(H, W.format_elt(x)) == x


# element texts and the group element each denotes, built without the parser
_ELEMENT_TEXTS = [
    ("a1", "t[1]", lambda W: W.elt([1])),
    ("a1", "t[ 1 ]", lambda W: W.elt([1])),
    ("a1", "w[]", lambda W: W.identity),
    ("a1", "s1·s0", lambda W: W.compose(W.gen(1), W.gen(0))),
    ("a1", "t[-1]·s1·s1", lambda W: W.elt([-1])),
    ("a1_torsion2", "t[1;3]", lambda W: W.elt([1], [1])),
    ("a1_torsion2", "s1*s0", lambda W: W.compose(W.gen(1), W.gen(0))),
    ("gl2", "t[1,0]·w[1]", lambda W: W.compose(W.elt([1, 0]), W.gen(1))),
    ("c2", "w[1,2,1]", lambda W: W.word_to_elt([1, 2, 1])),
    ("c2", "w[2,1]·t[0,-1]", lambda W: W.compose(W.word_to_elt([2, 1]), W.elt([0, -1]))),
]


@pytest.mark.parametrize("name, text, build", _ELEMENT_TEXTS, ids=[f"{n}-{t}" for n, t, _ in _ELEMENT_TEXTS])
def test_element_text_denotes_its_element(name, text, build):
    eng = load_engine(name)
    x = build(eng.weyl)
    assert parse_hecke_expr(eng.hecke, text) == eng.hecke.basis(x)
    assert parse_basis_element(eng.hecke, text) == x


@pytest.mark.parametrize("text", ["s1 ", "s1\t", " s1  "])
def test_trailing_whitespace_is_ignored(capsys, text):
    assert capture(capsys, ["--datum", "a1", "multiply", text, "s1"]) == capture(
        capsys, ["--datum", "a1", "multiply", "s1", "s1"])


def test_theta_of_a_translation_written_with_generators(capsys):
    code, out, err = capture(capsys, ["--datum", "a1", "theta", "t[-1]·s1·s1"])
    assert (code, err) == (0, "") and json.loads(out)["terms"]


# malformed element texts and the one stderr line each exits 2 with; `invert`
# and `theta` read one expression too, which must denote a single basis
# element (for `theta`, a translation)
_MALFORMED_TEXTS = [
    ("a1", ["multiply", "x1", "s1"], "error: cannot tokenize 'x1'"),
    ("a1", ["multiply", "t[1", "s1"], "error: cannot tokenize 't[1'"),
    ("a1", ["theta", "t[1"], "error: cannot tokenize 't[1'"),
    ("a1", ["invert", "w[a]"], "error: bad element atom 'w[a]': invalid literal for int() with base 10: 'a'"),
    ("a1", ["to-bernstein", "s9"], "error: no affine generator s9; have [0, 1]"),
    ("c2", ["theta", "s4"], "error: no affine generator s4; have [0, 1, 2]"),
    ("a1", ["invert", "w[9]"], "error: w[...] entries must be finite simple indices, got 9"),
    ("a1", ["multiply", "w[0]", "s1"], "error: w[...] entries must be finite simple indices, got 0"),
    ("c2", ["multiply", "s1", "w[1,2,3]"], "error: w[...] entries must be finite simple indices, got 3"),
    ("gl2", ["theta", "t[1]"], "error: t[...] needs 2 free coordinate(s), got 1"),
    ("a1", ["multiply", "t[1,2]", "s1"], "error: t[...] needs 1 free coordinate(s), got 2"),
    ("a1_torsion2", ["to-bernstein", "t[;1]"], "error: t[...] needs 1 free coordinate(s), got 0"),
    ("a1_torsion2", ["invert", "t[1;1,1]"], "error: bad element atom 't[1;1,1]': torsion part has wrong arity"),
    ("a1", ["multiply", "", "s1"], "error: empty expression"),
    ("a1", ["theta", ""], "error: empty expression"),
    ("a1", ["to-bernstein", "s1 +"], "error: trailing sign"),
    ("a1", ["invert", "·s1"], "error: dangling product operator"),
    ("a1", ["theta", "s1"], "error: 's1' is not a translation element"),
    ("a1", ["theta", "2·t[-1]"], "error: '2·t[-1]' is not a single basis element"),
    ("a1", ["theta", "s1 + q"], "error: 's1 + q' is not a single basis element"),
    ("a1", ["invert", "s1 + s0"], "error: 's1 + s0' is not a single basis element"),
    ("a1", ["theta", "t[-1]·"], "error: empty term"),
    ("a1", ["theta", "·t[-1]"], "error: dangling product operator"),
    ("a1", ["theta", "t[-1]··t[0]"], "error: dangling product operator"),
    ("a1", ["multiply", "s1 + + s1", "s1"], "error: empty term"),
    ("a1", ["multiply", "2 s1", "s1"], "error: missing operator before 's1'"),
    ("a1", ["theta", " "], "error: empty expression"),
]


@pytest.mark.parametrize("name, argv, line", _MALFORMED_TEXTS,
                         ids=[f"{n}-{'-'.join(a)}" for n, a, _ in _MALFORMED_TEXTS])
def test_malformed_element_text_exits_2(capsys, name, argv, line):
    assert capture(capsys, ["--datum", name, *argv]) == (2, "", line + "\n")


_TESTS_DIR = str(Path(__file__).resolve().parent)


@pytest.mark.parametrize("argv, line", [
    (["--datum", "a1", "satake", "--height", "-1"], "error: --height must be >= 0"),
    (["satake"], "error: --datum is required"),
    (["--datum", _TESTS_DIR, "validate"], f"error: cannot read datum: [Errno 21] Is a directory: {_TESTS_DIR!r}"),
], ids=["negative-height", "no-datum", "datum-is-a-directory"])
def test_usage_errors_exit_2(capsys, argv, line):
    assert capture(capsys, argv) == (2, "", line + "\n")


def test_package_error_mid_command_exits_1(capsys, monkeypatch):
    from parahecke.bernstein import Bernstein
    from parahecke.errors import SolveInconsistent

    def theta(self, m):
        raise SolveInconsistent("raised by the test")

    monkeypatch.setattr(Bernstein, "theta", theta)
    assert capture(capsys, ["--datum", "a1", "theta", "t[1]"]) == (
        1, "", "failure: SolveInconsistent: raised by the test\n")


def test_readme_pretty_satake_table(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("(`--datum a1 satake --height 2\n--format pretty`):\n\n```\n", 1)[1].split("```", 1)[0]
    assert capture(capsys, ["--datum", "a1", "satake", "--height", "2", "--format", "pretty"]) == (0, block, "")


def test_multiply_matches_quadratic(capsys):
    code, out, _ = capture(capsys, ["--datum", "a1", "multiply", "s1", "s1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [
        {"element": "t[0]·w[]", "coeff": [[2, 1]]},
        {"element": "t[0]·w[1]", "coeff": [[0, -1], [2, 1]]},
    ]


def test_theta_command_matches_star_expansion(capsys, E1):
    code, out, _ = capture(capsys, ["--datum", "a1", "theta", "t[1]"])
    assert code == 0
    obj = json.loads(out)
    inv, _star = E1.hecke.im_invert_basis(E1.weyl.elt([-1]))
    want = {t["element"]: t["coeff"] for t in inv.to_obj()}
    assert {t["element"]: t["coeff"] for t in obj["terms"]} == want


def test_invert_and_to_bernstein(capsys):
    code, out, _ = capture(capsys, ["--datum", "a1", "invert", "t[-1]"])
    assert code == 0
    obj = json.loads(out)
    assert obj["element"] == "t[-1]·w[]"
    assert len(obj["inverse"]["terms"]) == 4
    code, out, _ = capture(capsys, ["--datum", "a1", "to-bernstein", "t[0]·w[1]"])
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"lattice": {"free": [0], "tors": []}, "finite_weyl": [1], "coeff": [[0, 1]]}
    ]


def test_center_basis_command(capsys):
    code, out, _ = capture(capsys, ["--datum", "a1", "center-basis", "--facet", "1", "--height", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["facet"] == ["s1"]
    assert [rec["m"] for rec in obj["basis"]] == ["t[0]·w[]", "t[-1]·w[]"]


def test_satake_command_formats(capsys, tmp_path):
    code, out, _ = capture(capsys, ["--datum", "a1", "satake", "--height", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][1]["entries"][1]["coeff"] == [[0, -1], [2, 1]]
    assert obj["rows"][1]["checks"] == {"diag_one": True, "positive": True, "triangular": True}
    code, out, _ = capture(capsys, ["--datum", "a1", "satake", "--height", "1", "--format", "csv", "--q", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,m,coeff,coeff_at_q"
    assert lines[-1].endswith(",3")  # q - 1 at q = 4
    code, out, _ = capture(capsys, ["--datum", "a1", "satake", "--height", "1", "--q", "9"])
    assert code == 0
    row1 = json.loads(out)["rows"][1]
    assert [e["coeff_at_q"] for e in row1["entries"]] == [1, 8]
    out_file = tmp_path / "table.json"
    assert run_cli(["--datum", "a1", "satake", "--height", "1", "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["datum"] == "a1"


def test_satake_rejects_bad_q(capsys):
    code, _, err = capture(capsys, ["--datum", "a1", "satake", "--q", "6"])
    assert code == 2 and "prime power" in err


def test_csv_only_for_satake(capsys):
    code, _, err = capture(capsys, ["--datum", "a1", "multiply", "s1", "s1", "--format", "csv"])
    assert code == 2 and "satake" in err


def test_verify_command(capsys):
    code, out, _ = capture(capsys, ["--datum", "a1", "verify", "presentation"])
    assert code == 0
    assert all(line.startswith("[PASS]") for line in out.strip().splitlines())


def test_validate_command(capsys):
    code, out, _ = capture(capsys, ["--datum", "gl2", "validate"])
    assert code == 0
    obj = json.loads(out)
    assert obj["weyl_order"] == 2 and obj["omega_data"]["omega_free_rank"] == 1


def test_bad_datum_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "free_rank": 1, "simple_coroots": [[1]], "simple_roots": [[3]],
        "affine_parameters": {"s0": 1, "s1": 1},
    }))
    code, _, err = capture(capsys, ["--datum", str(bad), "verify", "presentation"])
    assert code == 2
    assert "NonCrystallographic" in err


# Datum files that fail before validation proper: not JSON, not UTF-8, a
# missing key, a non-integer entry, and a top-level array.
@pytest.mark.parametrize("content", [b'{"name": ', b"\xff\xfe", b'{"name": "x"}', b'{"free_rank": "a"}', b"[1, 2]"],
                         ids=["not-json", "not-utf8", "no-free-rank", "non-integer", "array"])
def test_malformed_datum_file_exits_2(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = capture(capsys, ["--datum", str(bad), "validate"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: datum {bad}: ") and err.count("\n") == 1 and "Traceback" not in err


# Values of the wrong JSON type in a1_unequal's file, which int() would truncate
# or which are truthy: each exits 2 with one error line.  The retired
# equal_parameters_simply_laced and finite_generators keys are unknown keys,
# accepted with any value.
@pytest.mark.parametrize("field, value, ok", [
    ("free_rank", 1.9, False),
    ("free_rank", "1", False),
    ("s0", 1.5, False),
    ("s0", True, False),
    ("torsion_invariants", [2.0], False),
    ("simple_roots", [["2"]], False),
    ("equal_parameters_simply_laced", False, True),
    ("equal_parameters_simply_laced", None, True),
    ("finite_generators", [[[False]]], True),
])
def test_datum_field_types_are_checked(capsys, tmp_path, field, value, ok):
    raw = json.loads(Path(bundled_datum_path("a1_unequal")).read_text())
    if field == "s0":
        raw["affine_parameters"]["s0"] = value
    else:
        raw[field] = value
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps(raw))
    code, out, err = capture(capsys, ["--datum", str(bad), "validate"])
    if ok:
        assert code == 0 and err == ""
        return
    assert (code, out) == (2, "")
    assert err.startswith(f"error: datum {bad}: TypeError: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [["validate"], ["verify", "bern"]], ids=["validate", "verify-bern"])
def test_retired_override_key_is_ignored(capsys, tmp_path, args):
    """A datum file that still sets equal_parameters_simply_laced is read like
    any file with an unknown key: a1 with the key set false prints what a1
    prints, the Bernstein relation's PASS row included."""
    raw = json.loads(Path(bundled_datum_path("a1")).read_text())
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({**raw, "equal_parameters_simply_laced": False}))
    code, want, _ = capture(capsys, ["--datum", "a1", *args])
    assert code == 0
    if args[0] == "verify":
        assert "[PASS] bernstein_relation_height_2\n" in want
    assert capture(capsys, ["--datum", str(path), *args])[:2] == (0, want)


@pytest.mark.parametrize("args", [["validate"], ["verify", "presentation"]], ids=["validate", "verify-presentation"])
@pytest.mark.parametrize("name, retired", [
    # a (r+t) x (r+t) block generator: identity on the torsion, then mixing it in
    ("a1_torsion2", {"finite_generators": [[[-1, 0], [0, 1]]]}),
    ("a1_torsion2", {"finite_generators": [[[-1, 1], [0, 1]]]}),
    ("c2", {"component_highest_roots": [[1, 1]]}),
], ids=["block-generator", "torsion-mixing-generator", "wrong-highest-root"])
def test_retired_datum_keys_are_ignored(capsys, tmp_path, args, name, retired):
    """The reflections and highest roots are computed from the roots and
    coroots, so a datum file that still sets finite_generators or
    component_highest_roots prints what the bundled file prints, whatever
    values it gives them."""
    raw = json.loads(Path(bundled_datum_path(name)).read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**raw, **retired}))
    code, want, _ = capture(capsys, ["--datum", name, *args])
    assert code == 0
    assert capture(capsys, ["--datum", str(path), *args])[:2] == (0, want)


def test_asymmetric_cartan_pairing_exits_2(tmp_path):
    """<α1, α2∨> = 0 with <α2, α1∨> = -1 would generate an infinite dihedral
    W₀; the datum is rejected before enumeration, at once and in one line.
    The child's address space is capped so that a regression fails here
    rather than exhausting the machine's memory."""
    bad = tmp_path / "asym.json"
    bad.write_text(json.dumps({
        "name": "asym", "free_rank": 2, "simple_coroots": [[1, 0], [0, 1]],
        "simple_roots": [[2, 0], [-1, 2]], "affine_parameters": {"s0": 1, "s1": 1, "s2": 1},
    }))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def cap_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "parahecke", "--datum", str(bad), "validate"],
                          capture_output=True, text=True, env=env, timeout=30, preexec_fn=cap_memory)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and "NonCrystallographic" in proc.stderr


def test_affine_cartan_matrix_exits_2_at_once(tmp_path):
    """The affine A2 Cartan matrix realized in rank 4 passes every pairwise
    bound; its W0 is infinite, and the finite-type test rejects it before
    enumeration, in one line and without enumerating up to the bound (which
    took seconds and hundreds of MB).  The address space is capped as above."""
    bad = tmp_path / "affine_a2.json"
    bad.write_text(json.dumps({
        "name": "affine_a2", "free_rank": 4,
        "simple_coroots": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        "simple_roots": [[2, -1, -1, 1], [-1, 2, -1, 0], [-1, -1, 2, 0]],
        "affine_parameters": {"s0": 1, "s1": 1, "s2": 1, "s3": 1},
    }))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def cap_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = "import sys, time; from parahecke import cli; t = time.perf_counter(); c = cli.main(sys.argv[1:]); " \
           "print(time.perf_counter() - t); sys.exit(c)"
    proc = subprocess.run([sys.executable, "-c", code, "--datum", str(bad), "validate"],
                          capture_output=True, text=True, env=env, timeout=30, preexec_fn=cap_memory)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "InfiniteFiniteWeyl" in proc.stderr
    assert "not of finite type" in proc.stderr
    assert float(proc.stdout) < 0.5  # seconds in cli.main, against about 9 when it enumerated


# sha256 of `validate` stdout per bundled datum: a change to the bytes of the
# report fails here.
VALIDATE_DIGESTS = {
    "a1": "939c7866ae4aab0e0bf406389e9a85d69d4b9b13569f915477c81403e2c6675f",
    "a1_torsion2": "8ea4cbd8c5340188fec35a93be7bfa34d8fdce1f7213189d183abf86a6878502",
    "gl2": "2284cc29fd8c7c2ffec73e535156ddf570bc5fde468818700e2cb69776ec2b16",
    "a2": "da02231f66c391873eb7093e4df2d4bebbf6da1f11ba9dcc4d10026dda4e65f0",
    "c2": "dc034bd17f5585aa45a86f20d6162bee1983c0a0909f3248d1b0778de0389646",
    "a1_unequal": "41ba2f9f28319b7dc9ea620cf13e837a02fd999a8941c61e5703b67c7e340b9c",
}


@pytest.mark.parametrize("name", sorted(VALIDATE_DIGESTS))
def test_validate_output_digest(capsys, name):
    code, out, _ = capture(capsys, ["--datum", name, "validate"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_DIGESTS[name]


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--datum", "a1", "frobnicate"])
    assert exc.value.code == 2


def test_missing_command_exits_2(capsys):
    code, _, err = capture(capsys, ["--datum", "a1"])
    assert code == 2 and "command is required" in err


def test_cache_dir_variable_is_ignored(tmp_path):
    """PARAHECKE_CACHE_DIR names no cache: a run with it set writes nothing
    there and prints the bytes of a run without it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PARAHECKE_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "parahecke", "--datum", "a1", "satake", "--height", "2"]
    plain, with_dir = (subprocess.run(cmd, capture_output=True, text=True, env=e, check=True)
                       for e in (env, {**env, "PARAHECKE_CACHE_DIR": str(tmp_path)}))
    assert plain.stdout and with_dir.stdout == plain.stdout
    assert list(tmp_path.iterdir()) == []


def test_pretty_format(capsys):
    code, out, _ = capture(capsys, ["--datum", "a1", "theta", "t[-1]", "--format", "pretty"])
    assert code == 0
    assert "i[t[-1]·w[]]" in out


def test_satake_height_2_row_set(capsys):
    code, out, _ = capture(capsys, ["--datum", "a1", "satake", "--height", "2"])
    assert code == 0
    obj = json.loads(out)
    assert [r["x"] for r in obj["rows"]] == ["t[0]·w[]", "t[-1]·w[]", "t[-2]·w[]"]


def test_satake_gl2_height_1_all_minuscule(capsys):
    code, out, _ = capture(capsys, ["--datum", "gl2", "satake", "--height", "1"])
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert len(row["entries"]) == 1
        assert row["entries"][0]["coeff"] == [[0, 1]]


@pytest.mark.parametrize("facet", ["a", "9", "1,x", "0,1"])
def test_bad_facet_exits_2(capsys, facet):
    code, out, err = capture(capsys, ["--datum", "a1", "center-basis", "--facet", facet])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad --facet") and "Traceback" not in err


@pytest.mark.parametrize("args", [["satake", "--height", "1"], ["verify", "presentation"]])
def test_facet_only_for_center_basis(capsys, args):
    code, out, err = capture(capsys, ["--datum", "a1", *args, "--facet", "0"])
    assert (code, out) == (2, "")
    assert err.startswith("error: --facet") and "center-basis" in err


@pytest.mark.parametrize("args", [
    ["verify", "presentation"],
    ["multiply", "s1", "s1"],
    ["center-basis", "--height", "1"],
    ["satake", "--height", "1", "--format", "pretty"],
], ids=["verify", "multiply", "center-basis", "satake-pretty"])
def test_q_only_for_satake_json_or_csv(capsys, args):
    """--q is not silently ignored: where no output reads it, the run exits 2
    with one error line and prints nothing."""
    code, out, err = capture(capsys, ["--datum", "a1", *args, "--q", "4"])
    assert (code, out) == (2, "")
    assert err.startswith("error: --q") and "satake" in err and err.count("\n") == 1


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = capture(capsys, ["--datum", "a1", "satake", "--height", "1", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output:") and not target.exists()


@pytest.mark.parametrize("args", [
    ("c2", ["invert", "s9"], "no affine generator s"),
    ("c2", ["multiply", "s9", "s1"], "no affine generator s"),
    ("c2", ["to-bernstein", "s7"], "no affine generator s"),
    ("c2", ["theta", "t[0,0]·s3"], "no affine generator s"),
    ("a1", ["theta", "t[x]"], "bad element atom 't[x]'"),
    ("a1", ["theta", "w[x]"], "bad element atom 'w[x]'"),
    ("a1", ["theta", "t[1;5]"], "bad element atom 't[1;5]'"),
])
def test_unknown_generator_exits_2(capsys, args):
    datum, argv, message = args
    code, out, err = capture(capsys, ["--datum", datum, *argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and "Traceback" not in err


# -- start-up: no dataclasses, and the records keep their semantics --------------


def test_cli_import_skips_dataclasses_and_inspect():
    """Importing the CLI pulls in neither `dataclasses` nor `inspect` (-S keeps
    site hooks out of the count)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import parahecke.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_record_semantics(E1):
    d, P = E1.datum, E1.para
    # RootDatum: equal by value, immutable
    cfg = RootDatum.from_dict(d.cfg._asdict())
    assert cfg == d.cfg and cfg is not d.cfg
    assert RootDatum.from_dict({**d.cfg._asdict(), "name": "other"}) != d.cfg
    with pytest.raises(AttributeError):
        cfg.name = "other"
    # FacetType: equality and hashing read J, elements and poincare; immutable
    F = P.special_facet()
    G = FacetType(J=F.J, elements=F.elements, poincare=F.poincare)
    assert F == G and hash(F) == hash(G) and {F: 1}[G] == 1
    assert F != P.facet(())
    for other in (F._replace(J=()), F._replace(elements=F.elements[:1]), F._replace(poincare=F.poincare + 1)):
        assert other != F and other not in {F}
    for name in FacetType._fields:
        with pytest.raises(AttributeError):
            setattr(F, name, None)
        with pytest.raises(AttributeError):
            delattr(F, name)
    # Engine: keyword construction
    eng = Engine(datum=d, weyl=E1.weyl, hecke=E1.hecke, bern=E1.bern, para=P)
    assert (eng.datum, eng.weyl, eng.hecke, eng.bern, eng.para) == (d, E1.weyl, E1.hecke, E1.bern, P)
    # CheckResult: three fields, detail defaults to None
    r = CheckResult(name="n", status="PASS")
    assert (r.name, r.status, r.detail) == ("n", "PASS", None)
    assert CheckResult("n", "FAIL", "why").detail == "why"


# -- flags that a command would ignore ------------------------------------------


@pytest.mark.parametrize("args", [
    ["verify", "presentation", "--height", "1"],
    ["multiply", "s1", "s1", "--height", "2"],
    ["invert", "s1", "--height", "1"],
    ["theta", "t[-1]", "--height", "1"],
    ["to-bernstein", "s1", "--height", "1"],
    ["validate", "--height", "1"],
    ["invert", "s1", "--format", "pretty"],
    ["to-bernstein", "s1", "--format", "pretty"],
    ["center-basis", "--format", "pretty"],
    ["validate", "--format", "pretty"],
    ["verify", "presentation", "--format", "pretty"],
], ids="-".join)
def test_ignored_flag_exits_2(capsys, args):
    """A flag that the command's output never reads is not silently ignored:
    the run exits 2 with one error line and prints nothing."""
    flag = "--height" if "--height" in args else "--format pretty"
    code, out, err = capture(capsys, ["--datum", "a1", *args])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} is only available") and err.count("\n") == 1


# -- cold start: no digest, no rationals, no expression parser ------------------

_COLD_ABSENT = ("hashlib", "_hashlib", "fractions", "decimal", "tempfile", "parahecke.exprs")


@pytest.mark.parametrize("argv", [["satake", "--height", "1"], ["verify", "all"]], ids=["satake", "verify"])
def test_cold_run_imports_no_digest_or_rationals(argv):
    """A run imports neither hashlib (OpenSSL) nor fractions (with decimal),
    tempfile or the expression parser; a module
    that `import random, json, argparse` already loads does not count (-S
    keeps site hooks out)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, os\n"
        "import random, json, argparse\n"
        "base = set(sys.modules)\n"
        f"sys.path.insert(0, {src!r})\n"
        "from parahecke import cli\n"
        f"code = cli.main(['--datum', 'a1', '--out', os.devnull, *{argv!r}])\n"
        f"print(code, sorted((set(sys.modules) - base) & set({_COLD_ABSENT!r})))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "0 []\n"


def test_engine_registry_keys_on_the_configuration(monkeypatch):
    """Two loads of one datum share an Engine; a configuration that differs in
    any field gets an Engine of its own."""
    from parahecke.rootdatum import Datum, load_bundled

    monkeypatch.setattr(engine_mod, "_REGISTRY", {})
    first, again = load_bundled("a1"), load_bundled("a1")
    assert first is not again and engine_mod.engine_for(first) is engine_mod.engine_for(again)
    cfg = first.cfg
    variants = [
        cfg._replace(name="a1-renamed"),
        cfg._replace(description="another description"),
        cfg._replace(torsion_invariants=(2,)),
        cfg._replace(affine_parameters={"s0": 2, "s1": 1}),
        cfg._replace(antidominant_generators=((-2,),)),
    ]
    engines = [engine_mod.engine_for(Datum(v)) for v in variants]
    assert len({id(e) for e in engines + [engine_mod.engine_for(first)]}) == len(variants) + 1
    assert [e.datum.cfg for e in engines] == variants


@pytest.mark.parametrize("args, digest", [
    (["satake", "--height", "2", "--q", "4"], "fa269244d15860c69a8e188778fdddfc722f41aeeca1c1da393d754bd93db5e3"),
    (["satake", "--height", "2", "--format", "csv", "--q", "9"],
     "2d77b175e0f5a18ff8f9f035e2f71733ed94e66893242cff4d7c8d52e76104b7"),
], ids=["json", "csv"])
def test_q_output_bytes(capsys, args, digest):
    """--q output keeps its bytes now that fractions is imported on use."""
    code, out, _ = capture(capsys, ["--datum", "a1", *args])
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("c2", "fbce741593e272d60b779aed519a7c633ab915de40c3a1cd58e97f2d713622b0"),
    ("a2", "a85dc3d34ca76ce9a0c148f48b2a2df1edb45fb05ce2f392be0b25578bb2678e"),
])
def test_satake_height_3_output_bytes(capsys, name, digest):
    """The sha256 of `satake --height 3` stdout on the rank-2 data."""
    code, out, _ = capture(capsys, ["--datum", name, "satake", "--height", "3"])
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_non_integral_coeff_at_q():
    """A coefficient with negative q-powers specializes to a reduced fraction:
    [numerator, denominator] in JSON and n/d in CSV."""
    from parahecke.parahoric import SatakeRow, SatakeTable

    p = LaurentPoly.q_power(-2) * (Q * 3 - LaurentPoly.one())
    table = SatakeTable("toy", (0,), [SatakeRow("x", [("m", p), ("n", Q - LaurentPoly.one())], {})])
    assert json.dumps(table.to_obj(str, q_eval=4)["rows"]) == (
        '[{"x": "x", "entries": [{"m": "m", "coeff": [[-4, -1], [-2, 3]], "coeff_at_q": [11, 16]}, '
        '{"m": "n", "coeff": [[0, -1], [2, 1]], "coeff_at_q": 3}], "checks": {}}]'
    )
    assert table.to_csv(str, q_eval=4) == (
        'x,m,coeff,coeff_at_q\n"x","m","3*q^-1 - q^-2",11/16\n"x","n","q - 1",3\n'
    )


# a datum with no roots (a torus) and one of free rank 0, with an element
# text for each: the commands run the same loops as on any other datum
_ROOTLESS = {
    "torus": ({"name": "torus", "free_rank": 1, "torsion_invariants": [], "simple_coroots": [], "simple_roots": [],
               "affine_parameters": {}, "antidominant_generators": [[-1], [1]]}, "t[1]"),
    "z2": ({"name": "z2", "free_rank": 0, "torsion_invariants": [2], "simple_coroots": [], "simple_roots": [],
            "affine_parameters": {}}, "t[;1]"),
}


@pytest.mark.parametrize("name", sorted(_ROOTLESS))
def test_rootless_data_pass_every_command(capsys, tmp_path, name):
    cfg, elt = _ROOTLESS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    for argv in (["validate"], ["multiply", elt, f"{elt} + q"], ["invert", elt], ["theta", elt],
                 ["to-bernstein", f"{elt} + 2"], ["center-basis", "--height", "1"], ["satake", "--height", "2"],
                 ["verify", "all"]):
        code, out, err = capture(capsys, ["--datum", str(path), *argv])
        assert (code, err) == (0, ""), argv
        assert "FAIL" not in out and "FALSIFIED" not in out, argv
    skips = [line for line in out.splitlines() if not line.startswith("[PASS] ")]
    assert skips == ([] if cfg["torsion_invariants"] else [
        "[SKIP] compat.pushforward_intertwines_center_and_satake: UnsupportedParameters: "
        "datum has no torsion to quotient"])


def test_rootless_and_torsion_free_values():
    torus, z2 = (Datum(RootDatum.from_dict(_ROOTLESS[name][0])) for name in ("torus", "z2"))
    assert [torus.in_coroot_lattice(torus.lattice([x])) for x in (0, -1, 1)] == [(), None, None]
    assert [z2.in_coroot_lattice(z2.lattice([], [t])) for t in (0, 1)] == [(), None]
    assert torus.omega_data() == {"free_rank": 1, "coroot_rank": 0, "omega_free_rank": 1,
                                  "coroot_index_divisors": [], "torsion_invariants": []}
    assert z2.omega_data() == {"free_rank": 0, "coroot_rank": 0, "omega_free_rank": 0,
                               "coroot_index_divisors": [], "torsion_invariants": [2]}
    assert (torus.strict_antidom, z2.strict_antidom) == ((0,), ())
    assert [m for m, _ in z2.antidominant_set(0)] == [z2.lattice([], [0]), z2.lattice([], [1])]
    a1 = load_bundled("a1")
    for kill in ([], [()]):
        T = TorsionQuotient(a1, kill)
        assert (T._v, T._keep, T._moduli, T.datum.torsion, T.map_tors(())) == ([], [], [], (), ())
