"""Element-expression micro-grammar for the command line.

    EXPR   := TERM (('+'|'-') TERM)*
    TERM   := FACTOR (('·'|'*') FACTOR)*
    FACTOR := INT | q | q^INT | v | v^INT | t[...] | s<i> | w[...]

Within a term, coefficient factors multiply in Z[v, v^-1] and element factors
compose in the extended affine Weyl group, so `q·t[1]·s1` denotes q times the
basis element at t_{(1)}s_1.  Golden files stay human-auditable this way.
"""

from __future__ import annotations

import re

from .errors import ExprSyntaxError
from .hecke import HeckeElt, IwahoriHecke
from .ringcore import LaurentPoly
from .rootdatum import LatticeElt

__all__ = ["parse_hecke_expr", "parse_lattice"]

_TOKEN = re.compile(
    r"\s*(?:(?P<atom>t\[[^\]]*\]|w\[[^\]]*\]|s\d+)"
    r"|(?P<power>[qv]\^-?\d+)"
    r"|(?P<var>[qv])"
    r"|(?P<int>\d+)"
    r"|(?P<op>[+\-·*]))"
)


def _tokens(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprSyntaxError(f"cannot tokenize {text[pos:]!r}")
        pos = m.end()
        for kind in ("atom", "power", "var", "int", "op"):
            val = m.group(kind)
            if val is not None:
                out.append((kind, val))
                break
    return out


def parse_hecke_expr(alg: IwahoriHecke, text: str) -> HeckeElt:
    toks = _tokens(text)
    if not toks:
        raise ExprSyntaxError("empty expression")
    W = alg.weyl
    total = alg.zero()
    i = 0
    sign = 1
    n = len(toks)
    while i < n:
        coeff = LaurentPoly.from_int(sign)
        elt = W.identity
        expect_factor = True
        while i < n:
            kind, val = toks[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op":  # '·' or '*'
                if expect_factor:
                    raise ExprSyntaxError("dangling product operator")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ExprSyntaxError(f"missing operator before {val!r}")
            if kind == "atom":
                elt = W.compose(elt, W.parse_elt(val))
            elif kind == "int":
                coeff = coeff * int(val)
            elif kind == "var":
                coeff = coeff * (LaurentPoly.q() if val == "q" else LaurentPoly.v())
            else:  # power
                base, exp = val.split("^")
                k = int(exp)
                coeff = coeff * (LaurentPoly.q_power(k) if base == "q" else LaurentPoly.v_power(k))
            expect_factor = False
            i += 1
        if expect_factor:
            raise ExprSyntaxError("empty term")
        total = total + HeckeElt(alg, {elt: coeff})
        if i < n:
            sign = 1 if toks[i][1] == "+" else -1
            i += 1
            if i == n:
                raise ExprSyntaxError("trailing sign")
    return total


def parse_lattice(alg: IwahoriHecke, text: str) -> LatticeElt:
    elt = alg.weyl.parse_elt(text.strip())
    if elt.w != 0:
        raise ExprSyntaxError(f"{text!r} is not a translation element")
    return LatticeElt(elt.free, elt.tors)
