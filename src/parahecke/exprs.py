"""Element-expression micro-grammar for the command line.

    EXPR   := TERM (('+'|'-') TERM)*
    TERM   := FACTOR (('·'|'*') FACTOR)*
    FACTOR := INT | q | q^INT | v | v^INT | t[...] | s<i> | w[...]

Within a term, coefficient factors multiply in Z[v, v^-1] and element factors
compose in the extended affine Weyl group, so `q·t[1]·s1` denotes q times the
basis element at t_{(1)}s_1.  Golden files stay human-auditable this way.

This is the package's only text parser, and `parse_hecke_expr` its one
reader: `_TOKEN` captures each atom's body, `_atom` turns it into its group
element, and `parse_basis_element` (for `invert` and `theta`) accepts a text
only when it denotes a single basis element 1·i_w.
"""

from __future__ import annotations

import re

from .affweyl import AffineWeylGroup, ExtWeylElt
from .errors import ExprSyntaxError
from .hecke import HeckeElt, IwahoriHecke
from .ringcore import LaurentPoly

__all__ = ["parse_basis_element", "parse_hecke_expr"]

_TOKEN = re.compile(
    r"\s*(?:(?P<atom>t\[(?P<lam>[^\]]*)\]|w\[(?P<word>[^\]]*)\]|s(?P<gen>\d+))"
    r"|(?P<power>[qv]\^-?\d+)"
    r"|(?P<var>[qv])"
    r"|(?P<int>\d+)"
    r"|(?P<op>[+\-·*]))"
)


def _tokens(text: str) -> list:
    out = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprSyntaxError(f"cannot tokenize {text[pos:]!r}")
        pos = m.end()
        out.append((m.lastgroup, m))  # the outermost group: atom, not lam, word or gen
    return out


def _atom(W: AffineWeylGroup, m: re.Match) -> ExtWeylElt:
    """The group element of an atom token: s<i>, w[finite word] or t[free;tors]."""
    d = W.datum
    try:  # int() of a coordinate, or a torsion part of the wrong arity
        if m["gen"] is not None:
            return W.gen(int(m["gen"]))
        if m["word"] is not None:
            wi = 0
            for i in map(int, m["word"].split(",")) if m["word"].strip() else ():
                if not 1 <= i <= d.n_simple:
                    raise ExprSyntaxError(f"w[...] entries must be finite simple indices, got {i}")
                wi = d.w_right[wi][i - 1]
            return W.finite(wi)
        fs, _, ts = m["lam"].partition(";")
        free, tors = ([int(tok) for tok in part.split(",") if tok.strip()] for part in (fs, ts))
        if len(free) != d.r:
            raise ExprSyntaxError(f"t[...] needs {d.r} free coordinate(s), got {len(free)}")
        return W.elt(free, tors)
    except KeyError as exc:  # W.gen names the generators there are
        raise ExprSyntaxError(exc.args[0]) from None
    except ValueError as exc:
        raise ExprSyntaxError(f"bad element atom {m['atom']!r}: {exc}") from None


def parse_hecke_expr(alg: IwahoriHecke, text: str) -> HeckeElt:
    toks = _tokens(text)
    if not toks:
        raise ExprSyntaxError("empty expression")
    W = alg.weyl
    total = alg.zero()
    coeff, elt, expect_factor = LaurentPoly.from_int(1), W.identity, True
    for kind, m in toks:
        val = m[kind]
        if kind == "op":
            if val in "+-":  # the current term ends, and the next one takes the sign
                if expect_factor:
                    raise ExprSyntaxError("empty term")
                total = total + HeckeElt(alg, {elt: coeff})
                coeff, elt = LaurentPoly.from_int(1 if val == "+" else -1), W.identity
            elif expect_factor:  # '·' or '*'
                raise ExprSyntaxError("dangling product operator")
            expect_factor = True
            continue
        if not expect_factor:
            raise ExprSyntaxError(f"missing operator before {val!r}")
        if kind == "atom":
            elt = W.compose(elt, _atom(W, m))
        elif kind == "int":
            coeff = coeff * int(val)
        elif kind == "var":
            coeff = coeff * (LaurentPoly.q() if val == "q" else LaurentPoly.v())
        else:  # power
            base, exp = val.split("^")
            k = int(exp)
            coeff = coeff * (LaurentPoly.q_power(k) if base == "q" else LaurentPoly.v_power(k))
        expect_factor = False
    if expect_factor:
        raise ExprSyntaxError("trailing sign" if val in "+-" else "empty term")  # val: the last operator
    return total + HeckeElt(alg, {elt: coeff})


def parse_basis_element(alg: IwahoriHecke, text: str) -> ExtWeylElt:
    """The group element w of a text that denotes exactly 1·i_w."""
    h = parse_hecke_expr(alg, text)
    if len(h.d) == 1:
        ((w, p),) = h.d.items()
        if p.is_one():
            return w
    raise ExprSyntaxError(f"{text!r} is not a single basis element")
