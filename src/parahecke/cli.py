"""Command line: configuration ingestion, computation commands, verify suites.

All output is deterministic byte-for-byte for a fixed invocation: orderings
are explicit everywhere and randomized suites are seeded.

Exit codes: 0 success, 1 property/computation failure (with a serialized
counterexample), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import Engine, load_engine
from .errors import ExprSyntaxError, InfiniteFacetGroup, ParaheckeError, ValidationError
from .ringcore import is_prime_power
from .rootdatum import BUNDLED_NAMES, LatticeElt
from .verify import SUITE_NAMES, render_results, run_suite

__all__ = ["main", "build_parser"]

COMMANDS = ("multiply", "invert", "theta", "to-bernstein", "center-basis", "satake", "verify", "validate")


def _add_shared_flags(p, suppress: bool):
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    p.add_argument("--datum", required=False, default=d(None),
                   help=f"datum file path or bundled name {BUNDLED_NAMES}")
    p.add_argument("--out", default=d(None), help="write output to this file instead of stdout")
    p.add_argument("--format", default=d("json"), choices=("json", "csv", "pretty"),
                   help="output format (csv: satake; pretty: multiply, theta, satake)")
    p.add_argument("--q", type=int, default=d(None), help="specialize q at this prime power (satake, json or csv)")
    p.add_argument("--jobs", type=int, default=d(1), help="accepted for compatibility; has no effect (computation is single-threaded)")
    p.add_argument("--height", type=int, default=d(None),
                   help="antidominant enumeration bound (satake, center-basis; default 2)")
    p.add_argument("--facet", default=d(""), help="comma-separated affine generator indices, e.g. '1,2'")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="parahecke",
        description="Exact Iwahori-Hecke computations: Bernstein elements, parahoric centers, twisted Satake tables.",
    )
    _add_shared_flags(p, suppress=False)
    sub = p.add_subparsers(dest="command", metavar="command")

    def cmd(name, help_text, *positionals):
        sp = sub.add_parser(name, help=help_text)
        for pos in positionals:
            sp.add_argument(pos)
        _add_shared_flags(sp, suppress=True)
        return sp

    cmd("multiply", "Iwahori-Matsumoto product of two element expressions", "e1", "e2")
    cmd("invert", "inverse and star element of a basis element", "elt")
    cmd("theta", "Bernstein element of a translation, in the IM basis", "m")
    cmd("to-bernstein", "Bernstein coordinates of a Hecke expression", "expr")
    cmd("center-basis", "central basis elements z_m for the --facet, up to --height")
    cmd("satake", "twisted Satake table at the special facet, up to --height")
    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=SUITE_NAMES)
    _add_shared_flags(sp, suppress=True)
    cmd("validate", "validate the datum and report its structure")
    return p


def _emit(args, text: str) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _fmt_lattice(eng: Engine):
    def fmt(m):
        return eng.weyl.format_elt(eng.weyl.translation(m))

    return fmt


def _hecke_obj(eng: Engine, h) -> dict:
    return {"coeff_convention": "v-pairs with q = v^2", "terms": h.to_obj()}


def _pretty_hecke(eng: Engine, h) -> str:
    if h.is_zero():
        return "0"
    return "\n".join(f"{p!s:>24}  ·  i[{eng.weyl.format_elt(w)}]" for w, p in h.terms())


def _parse_facet(eng: Engine, text: str):
    if not text.strip():
        return eng.para.special_facet()
    try:  # a token that is not an integer, an index that is not an affine generator,
        # or generators that span an infinite group
        return eng.para.facet([int(tok) for tok in text.split(",") if tok.strip()])
    except (ValueError, InfiniteFacetGroup) as exc:
        raise ExprSyntaxError(f"bad --facet {text!r}: {exc}") from None


def run(args) -> int:
    if args.command is None:
        print("error: a command is required; choose from " + ", ".join(COMMANDS), file=sys.stderr)
        return 2
    if args.datum is None:
        print("error: --datum is required", file=sys.stderr)
        return 2
    if args.q is not None and not is_prime_power(args.q):
        print(f"error: --q must be a prime power, got {args.q}", file=sys.stderr)
        return 2
    if args.q is not None and (args.command != "satake" or args.format == "pretty"):
        print("error: --q is only available for the satake command with --format json or csv", file=sys.stderr)
        return 2
    if args.height is not None and args.command not in ("satake", "center-basis"):
        print("error: --height is only available for the satake and center-basis commands", file=sys.stderr)
        return 2
    if args.height is not None and args.height < 0:
        print("error: --height must be >= 0", file=sys.stderr)
        return 2
    if args.format == "csv" and args.command != "satake":
        print("error: --format csv is only available for the satake command", file=sys.stderr)
        return 2
    if args.format == "pretty" and args.command not in ("multiply", "theta", "satake"):
        print("error: --format pretty is only available for the multiply, theta and satake commands",
              file=sys.stderr)
        return 2
    if args.facet.strip() and args.command != "center-basis":
        print("error: --facet is only available for the center-basis command", file=sys.stderr)
        return 2
    try:
        eng = load_engine(args.datum)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read datum: {exc}", file=sys.stderr)
        return 2
    eng.load_cache()
    try:
        code, text = _dispatch(args, eng)
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParaheckeError as exc:
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(args, text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = 2
    eng.save_cache()
    return code


def _dispatch(args, eng: Engine) -> tuple[int, str]:
    """(exit code, output text) of one command."""
    H = eng.hecke
    fmt_m = _fmt_lattice(eng)
    height = 2 if args.height is None else args.height

    if args.command == "validate":  # eng.datum exists, so it passed every check
        d = eng.datum
        return 0, _json({
            "datum": d.name,
            "ok": True,
            "weyl_order": d.w_order,
            "coxeter_matrix": {
                f"s{a},s{b}": "inf" if m is None else m for (a, b), m in d.coxeter_matrix.items()
            },
            "omega_data": d.omega_data(),
        })

    # only the four commands that parse an expression import the parser
    if args.command in ("multiply", "invert", "theta", "to-bernstein"):
        from .exprs import parse_basis_element, parse_hecke_expr

    if args.command == "multiply":
        prod = H.mul(parse_hecke_expr(H, args.e1), parse_hecke_expr(H, args.e2))
        return 0, _pretty_hecke(eng, prod) if args.format == "pretty" else _json(_hecke_obj(eng, prod))

    if args.command == "invert":
        w = parse_basis_element(H, args.elt)
        inv, star = H.im_invert_basis(w)
        return 0, _json({
            "element": eng.weyl.format_elt(w),
            "inverse": _hecke_obj(eng, inv),
            "star": _hecke_obj(eng, star),
        })

    if args.command == "theta":
        w = parse_basis_element(H, args.m)
        if w.w != 0:
            raise ExprSyntaxError(f"{args.m!r} is not a translation element")
        th = eng.bern.theta(LatticeElt(w.free, w.tors))
        return 0, _pretty_hecke(eng, th) if args.format == "pretty" else _json(_hecke_obj(eng, th))

    if args.command == "to-bernstein":
        h = parse_hecke_expr(H, args.expr)
        b = eng.bern.im_to_bern(h)
        return 0, _json({"coeff_convention": "v-pairs with q = v^2", "terms": b.to_obj()})

    if args.command == "center-basis":
        F = _parse_facet(eng, args.facet)
        out = []
        for m, h in eng.datum.antidominant_set(height):
            z = eng.para.center_elt(F, m)
            out.append({"m": fmt_m(m), "height": h, "element": _hecke_obj(eng, z)})
        return 0, _json({
            "datum": eng.datum.name,
            "facet": [f"s{i}" for i in F.J],
            "basis": out,
        })

    if args.command == "satake":
        xs = [x for x, _ in eng.datum.antidominant_set(height)]
        table = eng.para.satake_table(xs)
        if args.format == "csv":
            return 0, table.to_csv(fmt_m, q_eval=args.q)
        if args.format == "pretty":
            lines = [f"twisted Satake table for {eng.datum.name} (special facet)"]
            for r in table.rows:
                lines.append(f"  h[{fmt_m(r.x)}] ->")
                for m, p in r.entries:
                    lines.append(f"      {p!s:>24}  ·  r[{fmt_m(m)}]")
            return 0, "\n".join(lines)
        return 0, _json(table.to_obj(fmt_m, q_eval=args.q))

    if args.command == "verify":
        results = run_suite(eng, args.suite)
        text, worst = render_results(results)
        return worst, text

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
