"""Iwahori-Hecke algebra in the Iwahori-Matsumoto basis.

Elements are finite sparse maps from group elements to Z[v, v^-1].  The one
primitive rewriting step is right multiplication by a generator:

    i_w · i_s = i_{ws}                     if ℓ(ws) > ℓ(w),
    i_w · i_s = q_s i_{ws} + (q_s - 1) i_w otherwise,   q_s = v^{2L(s)},

and i_w · i_ω = i_{wω} for length-zero ω.  Products decompose the right
factor along its reduced word; the per-(element, generator) results are
memoized, and right factors with shared word prefixes are cascaded together.

The same memoized step serves inversion.  For w = s_1···s_ℓ·ω reduced,

    i_w^{-1} = q_w^{-1} · i_{ω^{-1}} · (i_{s_ℓ} - q_{s_ℓ} + 1) ··· (i_{s_1} - q_{s_1} + 1),

so a · i_w^{-1} is computed by shifting a by ω^{-1} and right-applying the ℓ
two-term factors one at a time, without ever forming the inverse.
"""

from __future__ import annotations

from .affweyl import AffineWeylGroup, ExtWeylElt
from .errors import SubgroupInvalid
from .ringcore import LaurentPoly, _add_into, _lincomb, _mul, _neg
from .rootdatum import Datum, LatticeElt, RootDatum, build_datum, smith_normal_form

__all__ = ["HeckeElt", "IwahoriHecke", "TorsionQuotient"]


class HeckeElt:
    """Finite sparse Z[v,v^-1]-combination of IM basis elements."""

    __slots__ = ("alg", "d")

    def __init__(self, alg: "IwahoriHecke", d: dict):
        self.alg = alg
        self.d = d

    # -- linear structure -----------------------------------------------

    def __add__(self, other):
        other = self.alg.coerce(other)
        return self.alg._wrap(_lincomb([(self.d, None), (other.d, None)]))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self.alg.coerce(other))

    def __rsub__(self, other):
        return self.alg.coerce(other) - self

    def __neg__(self):
        return HeckeElt(self.alg, {w: -p for w, p in self.d.items()})

    def __mul__(self, other):
        if isinstance(other, HeckeElt):
            return self.alg.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, HeckeElt):
            return self.alg.mul(other, self)
        return self.scale(other)

    def scale(self, c) -> "HeckeElt":
        if isinstance(c, int):
            c = LaurentPoly.from_int(c)
        if c.is_zero():
            return self.alg.zero()
        return HeckeElt(self.alg, {w: p * c for w, p in self.d.items()})

    def __eq__(self, other):
        if isinstance(other, HeckeElt):
            return self.d == other.d
        return NotImplemented

    def __bool__(self):
        return bool(self.d)

    def is_zero(self) -> bool:
        return not self.d

    def coeff(self, w: ExtWeylElt) -> LaurentPoly:
        return self.d.get(w, LaurentPoly.zero())

    def support(self):
        return sorted(self.d, key=self.alg.weyl.sort_key)

    def terms(self):
        return [(w, self.d[w]) for w in self.support()]

    def to_obj(self) -> list:
        W = self.alg.weyl
        return [
            {"element": W.format_elt(w), "coeff": p.to_pairs()} for w, p in self.terms()
        ]

    def __repr__(self):
        if not self.d:
            return "0"
        W = self.alg.weyl
        return " + ".join(f"({p})·i[{W.format_elt(w)}]" for w, p in self.terms())


class IwahoriHecke:
    """The algebra attached to one validated datum."""

    def __init__(self, weyl: AffineWeylGroup):
        self.weyl = weyl
        self.datum = weyl.datum
        self._gen_cache: dict = {}
        self._qs = {i: {2 * self.datum.L[i]: 1} for i in self.datum.saff_indices}
        self._qs1 = {i: _canon({2 * self.datum.L[i]: 1, 0: -1}) for i in self.datum.saff_indices}
        self._1mqs = {i: _neg(q1) for i, q1 in self._qs1.items()}

    @classmethod
    def for_datum(cls, datum: Datum) -> "IwahoriHecke":
        return cls(AffineWeylGroup(datum))

    # -- constructors -----------------------------------------------------

    def zero(self) -> HeckeElt:
        return HeckeElt(self, {})

    def one(self) -> HeckeElt:
        return self.basis(self.weyl.identity)

    def basis(self, w: ExtWeylElt) -> HeckeElt:
        return HeckeElt(self, {w: LaurentPoly.one()})

    def basis_translation(self, m: LatticeElt) -> HeckeElt:
        return self.basis(self.weyl.translation(m))

    def from_terms(self, terms) -> HeckeElt:
        out: dict = {}
        for w, p in terms:
            if isinstance(p, int):
                p = LaurentPoly.from_int(p)
            tgt = out.get(w)
            if tgt is None:
                out[w] = dict(p.d)
            else:
                _add_into(tgt, p.d)
        return self._wrap(out)

    def coerce(self, x) -> HeckeElt:
        if isinstance(x, HeckeElt):
            return x
        if isinstance(x, int):
            x = LaurentPoly.from_int(x)
        if isinstance(x, LaurentPoly):
            return HeckeElt(self, {self.weyl.identity: x} if not x.is_zero() else {})
        raise TypeError(f"cannot coerce {type(x).__name__} into HeckeElt")

    def _wrap(self, raw: dict) -> HeckeElt:
        return HeckeElt(
            self,
            {w: LaurentPoly.__new_raw__(pd) for w, pd in raw.items() if pd},
        )

    def q_power_of(self, w: ExtWeylElt) -> LaurentPoly:
        """q_w = v^{2 L(w)}."""
        return LaurentPoly.v_power(2 * self.weyl.weighted_length(w))

    # -- multiplication -----------------------------------------------------

    def mul(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        if not a.d or not b.d:
            return self.zero()
        W = self.weyl
        entries = []
        for y, c in b.d.items():
            word, om = W.reduced_word(y)
            entries.append((word, om, c.d))
        entries.sort(key=lambda e: e[0])
        acc: dict = {}
        cur = {w: p.d for w, p in a.d.items()}
        self._mul_rec(cur, entries, 0, len(entries), 0, acc)
        return self._wrap(acc)

    def _mul_rec(self, cur, entries, lo, hi, depth, acc):
        i = lo
        while i < hi and len(entries[i][0]) == depth:
            self._flush(cur, entries[i][1], entries[i][2], acc)
            i += 1
        while i < hi:
            g = entries[i][0][depth]
            j = i
            while j < hi and entries[j][0][depth] == g:
                j += 1
            self._mul_rec(self._apply_gen_right(cur, g), entries, i, j, depth + 1, acc)
            i = j

    def _flush(self, cur, om, cd, acc):
        W = self.weyl
        shift = om != W.identity
        trivial = cd == {0: 1}
        for w, pd in cur.items():
            key = W.compose(w, om) if shift else w
            tgt = acc.get(key)
            if tgt is None:
                acc[key] = dict(pd) if trivial else _mul(pd, cd)
            else:
                _add_into(tgt, pd, None if trivial else cd)
                if not tgt:
                    del acc[key]

    def _apply_gen_right(self, cur: dict, i: int) -> dict:
        cache = self._gen_cache
        out: dict = {}
        for w, pd in cur.items():
            key = (w, i)
            hit = cache.get(key)
            if hit is None:
                hit = self._compute_gen_right(w, i)
                cache[key] = hit
            for w2, scale in hit:
                tgt = out.get(w2)
                if tgt is None:
                    out[w2] = dict(pd) if scale is None else _mul(pd, scale)
                else:
                    _add_into(tgt, pd, scale)
                    if not tgt:
                        del out[w2]
        return out

    def _compute_gen_right(self, w: ExtWeylElt, i: int):
        W = self.weyl
        ws = W.compose(w, W.gen(i))
        if W.length(ws) > W.length(w):
            return ((ws, None),)
        return ((ws, self._qs[i]), (w, self._qs1[i]))

    def _right_star(self, cur: dict, word) -> dict:
        """cur · (i_{s_ℓ} - q_{s_ℓ} + 1) ··· (i_{s_1} - q_{s_1} + 1) for word = (s_1, …, s_ℓ)."""
        for i in reversed(word):
            one_minus_q = self._1mqs[i]
            nxt = self._apply_gen_right(cur, i)
            for w, pd in cur.items():
                tgt = nxt.get(w)
                if tgt is None:
                    nxt[w] = _mul(pd, one_minus_q)
                else:
                    _add_into(tgt, pd, one_minus_q)
                    if not tgt:
                        del nxt[w]
            cur = nxt
        return cur

    def mul_inverse(self, a: HeckeElt, w: ExtWeylElt) -> HeckeElt:
        """a · i_w^{-1} = q_w^{-1} · a · i_{ω^{-1}} · star, with star as in im_invert_basis."""
        W = self.weyl
        word, om = W.reduced_word(w)
        om_inv = W.inverse(om)
        cur = {W.compose(x, om_inv): p.d for x, p in a.d.items()}
        qinv = {-2 * W.weighted_length(w): 1}
        return self._wrap({x: _mul(pd, qinv) for x, pd in self._right_star(cur, word).items()})

    def im_invert_basis(self, w: ExtWeylElt) -> tuple[HeckeElt, HeckeElt]:
        """(inverse, star) with i_w · inverse = i_e and star the integral part.

        star = (i_{s_ℓ} - q_{s_ℓ} + 1) ··· (i_{s_1} - q_{s_1} + 1) over the
        stored reduced word; inverse = q_w^{-1} · i_{ω^{-1}} · star.
        """
        W = self.weyl
        word, om = W.reduced_word(w)
        star = self._wrap(self._right_star({W.identity: {0: 1}}, word))
        om_inv = W.inverse(om)
        qinv = LaurentPoly.v_power(-2 * W.weighted_length(w))
        inverse = HeckeElt(self, {W.compose(om_inv, x): p * qinv for x, p in star.d.items()})
        return inverse, star

    def vee_involution(self, h: HeckeElt) -> HeckeElt:
        W = self.weyl
        out: dict = {}
        for w, p in h.d.items():
            key = W.inverse(w)
            tgt = out.get(key)
            if tgt is None:
                out[key] = dict(p.d)
            else:  # pragma: no cover - inversion is injective
                _add_into(tgt, p.d)
        return self._wrap(out)

    def degree_hom(self, h: HeckeElt) -> LaurentPoly:
        """Linear extension of i_w ↦ q_w; a ring homomorphism."""
        out: dict = {}
        for w, p in h.d.items():
            _add_into(out, p.d, {2 * self.weyl.weighted_length(w): 1})
        return LaurentPoly.__new_raw__(out)


def _canon(d: dict) -> dict:
    return {e: c for e, c in d.items() if c}


class TorsionQuotient:
    """Pushforward along killing a subgroup of the torsion part.

    The subgroup is given by generating residue tuples; the quotient's cyclic
    decomposition comes from a Smith normal form of the stacked relation
    matrix, and basis elements merge accordingly (an algebra homomorphism).
    """

    def __init__(self, source: Datum, kill, max_weyl_order: int = 100000):
        self.source = source
        t = len(source.torsion)
        gens = []
        for g in kill:
            g = tuple(int(x) for x in g)
            if len(g) != t:
                raise SubgroupInvalid(f"torsion generator {g} has arity {len(g)}, expected {t}")
            gens.append(tuple(x % n for x, n in zip(g, source.torsion)))
        rows = [
            [source.torsion[i] if j == i else 0 for j in range(t)] for i in range(t)
        ] + [list(g) for g in gens]
        if t:
            diag, v = smith_normal_form([row[:] for row in rows])
        else:
            diag, v = [], []
        keep = [j for j in range(t) if diag[j] != 1]
        if any(diag[j] == 0 for j in range(t)):  # pragma: no cover - diag(n_i) has full rank
            raise SubgroupInvalid("degenerate torsion presentation")
        self._v = v
        self._keep = keep
        self._moduli = [diag[j] for j in keep]
        cfg = source.cfg
        new_cfg = RootDatum(
            name=cfg.name + "/quot",
            description=f"quotient of {cfg.name} by torsion subgroup {gens}",
            free_rank=cfg.free_rank,
            torsion_invariants=tuple(self._moduli),
            simple_coroots=cfg.simple_coroots,
            simple_roots=cfg.simple_roots,
            finite_generators=cfg.finite_generators,
            affine_parameters=cfg.affine_parameters,
            component_highest_roots=cfg.component_highest_roots,
            antidominant_generators=cfg.antidominant_generators,
            equal_parameters_simply_laced=cfg.equal_parameters_simply_laced,
        )
        self.datum = build_datum(new_cfg, max_weyl_order=max_weyl_order)

    def map_tors(self, tors) -> tuple:
        t = len(self.source.torsion)
        y = [sum(tors[k] * self._v[k][j] for k in range(t)) for j in range(t)]
        return tuple(y[j] % m for j, m in zip(self._keep, self._moduli))

    def push_lattice(self, m: LatticeElt) -> LatticeElt:
        return LatticeElt(m.free, self.map_tors(m.tors))

    def push_elt(self, x: ExtWeylElt, target_weyl: AffineWeylGroup) -> ExtWeylElt:
        # finite parts are matched through the actual matrices, not raw indices
        wi = self.datum.w_index[self.source.w_elems[x.w]]
        return ExtWeylElt(x.free, self.map_tors(x.tors), wi)

    def push_hecke(self, h: HeckeElt, target: IwahoriHecke) -> HeckeElt:
        out: dict = {}
        for w, p in h.d.items():
            key = self.push_elt(w, target.weyl)
            tgt = out.get(key)
            if tgt is None:
                out[key] = dict(p.d)
            else:
                _add_into(tgt, p.d)
        return target._wrap(out)
