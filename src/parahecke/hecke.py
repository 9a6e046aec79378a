"""Iwahori-Hecke algebra in the Iwahori-Matsumoto basis.

Elements are finite sparse maps from group elements to Z[v, v^-1]: HeckeElt is
a ringcore.SparseElt that adds the algebra product, the Bruhat-compatible term
order W.sort_key and the coercion of scalars to multiples of i_e.  The one
primitive rewriting step is right multiplication by a generator:

    i_w · i_s = i_{ws}                     if ℓ(ws) > ℓ(w),
    i_w · i_s = q_s i_{ws} + (q_s - 1) i_w otherwise,   q_s = v^{2L(s)},

and i_w · i_ω = i_{wω} for length-zero ω.  Products decompose the right
factor along its reduced word; the per-(element, generator) results are
memoized, and right factors with shared word prefixes are cascaded together.
`mul_basis_each` forms a·i_w for several w in the same walk, each leaf of the
trie of their reduced words flushing into its own product.

The same memoized step serves inversion.  For w = s_1···s_ℓ·ω reduced,

    i_w^{-1} = q_w^{-1} · i_{ω^{-1}} · (i_{s_ℓ} - q_{s_ℓ} + 1) ··· (i_{s_1} - q_{s_1} + 1),

so a · i_w^{-1} is computed by shifting a by ω^{-1} and right-applying the ℓ
two-term factors one at a time, without ever forming the inverse.

Inside `mul`, `mul_inverse` and `im_invert_basis` each coefficient is one
Python int (ringcore._pack): signed base-2^k digits above a base exponent e0,
with one width k per call and one e0 per operand.  Multiplying by q_s is a
left shift by 2L(s)·k bits, so a generator step costs a shift and an int
addition per term.  Width rule, decided in one place (`_operands`): a result
with norm bound N is packed at the width bitlen(N) + 2, rounded up to a
multiple of 8, or at the widest width an operand is already held at.  With
N(a) ≥ Σ_w ‖a_w‖₁ and ℓ_b the largest length in b's support, a·b has
N = N(a) · N(b) · 3^ℓ_b and a · i_w^{-1} has N(a) · 3^ℓ(w).  `lincomb` sums
Σ c·h over LaurentPoly coefficients c, an int multiply-add per term, with
N = Σ ‖c‖₁ · N(h).  `mul_word` multiplies by a word of generators, reduced
or not, one generator step per letter in one packed pass, with N(a) · 3^ℓ
for a word of ℓ letters.  The proofs are at `mul`.

Products with 1_K = Σ_{v ∈ W_J} i_v, for a finite parabolic W_J, have a closed
form (Curtis–Iwahori–Kilmoyer).  Write w = w'u with w' minimal in wW_J and
u ∈ W_J; then i_w = i_{w'}·i_u, i_u·1_K = q_u·1_K and i_{w'}·i_v = i_{w'v}, so

    a · 1_K = Σ_{w'} (Σ_{u ∈ W_J} q_u · a_{w'u}) · Σ_{v ∈ W_J} i_{w'v}.

`coset_sums` computes the sums S_{w'} = Σ_u q_u · a_{w'u}, one shift by
2L(u)·k bits and one add per term into its coset's sum, as a packed element
keyed by the ids of the w' (its N is N(a)); `mul_oneK` copies each sum onto
w'W_J, so a·1_K has N = |W_J| · N(a).  X·1_K is determined by X's coset sums,
linearly, so a caller that only compares such products can compare their
coset sums and skip the copy.  `coset_reps` keeps the terms of a at the
shortest coset elements (for a = X·1_K, an X with that support).  1_K is
∨-stable, so 1_K·a = ∨(∨a · 1_K) (`oneK_mul`).  Given a divisor P,
`coset_sums` divides the coset sums exactly (LaurentPoly.exact_div), once
per distinct packed sum: a bi-invariant a repeats one sum over every coset
of a double coset.  The quotients' N is recomputed from their coefficients,
because division can raise ‖·‖₁ ((1 − x^{n+1})/(1 − x) has norm n + 1).

The same fact inverts: for v ∈ W_J, i_v·1_K = q_v·1_K gives
i_v^{-1}·1_K = q_v^{-1}·1_K (Haines–Kottwitz–Prasad).  Write w = v·u with
v ∈ W_J and u shortest in W_J·u; then ℓ(w) = ℓ(v) + ℓ(u), so i_w = i_v·i_u,
i_w^{-1} = i_u^{-1}·i_v^{-1} and

    a · i_w^{-1} · 1_K = q_v^{-1} · (a · i_u^{-1}) · 1_K.

Coset sums are linear, so those of a·i_w^{-1} are those of a·i_u^{-1} with the
base exponent lowered by 2L(v).  `inverse_coset_sums` computes them: the coset
reduction of w⁻¹ = u⁻¹·v⁻¹ gives u⁻¹ and 2L(v), and only the ℓ(u) star factors
of i_u^{-1} are applied, never the ℓ(v) factors that would come last and act
on the widest support.  Its sums have N = N(a)·3^ℓ(u), not N(a)·3^ℓ(w).

The same loops key group elements by dense int ids (AffineWeylGroup.intern),
so they hash small ints, not nested tuples.  The memoized step maps the int
n·G + i (G generators, w of id n) to (id of ws, None) or (id of ws, 2L(s)),
and right translation by ω ≠ 1 is memoized per ω by id.  Per W_J, the coset
reduction maps the id of w to (id of w', 2L(u)) and the id of w' to the ids
of w'W_J; ∨ maps each id to the id of its inverse.

A HeckeElt holds exactly one form at rest: `d` ({ExtWeylElt: LaurentPoly}),
or the engine's packed form ({id: packed int}, e0, k, N) with N a bound on
Σ‖coeff‖₁.  Products, inverses and `lincomb` return packed elements; an
operand enters as it is, repacked only when the result needs a wider digit, and
an operand that holds `d` is packed in place (its `d` is dropped).  Reading
`d` unpacks once and drops the packed form.  Two packed elements of one
algebra compare packed: the narrower is widened in place to the wider width k,
the one with the higher base exponent is shifted left by Δe0·k bits, and
then the key sets and the ints must agree (packing in-range digits is
injective, and ids are per algebra).  An element that holds `d` compares
through `d`; elements of algebras on different data are never equal.  Terms,
printing and serialization read `d` in W.sort_key order, so ids never decide
an output order.

Bi-invariant elements (h_x, a·1_K, z_m) carry one coefficient on a whole
coset or double coset, so one value repeats over |W_J| keys or more.  Each
conversion therefore runs once per distinct value: reading `d` unpacks each
distinct packed int once and gives every key that holds it the same
LaurentPoly (immutable; nothing in the package writes into a coefficient's
dict), widening repacks each distinct int once, and packing `d` packs each
distinct LaurentPoly object once.
"""

from __future__ import annotations

from .affweyl import AffineWeylGroup, ExtWeylElt
from .errors import SubgroupInvalid
from .ringcore import LaurentPoly, SparseElt, _add_into, _coerce, _lincomb, _pack, _unpack
from .rootdatum import Datum, LatticeElt, smith_normal_form

__all__ = ["HeckeElt", "IwahoriHecke", "TorsionQuotient"]


class HeckeElt(SparseElt):
    """Finite sparse Z[v,v^-1]-combination of IM basis elements; parent is the algebra.

    Exactly one of the slots `d` and `_pk` = (Z, e0, k, N) is filled.  Reading
    the empty one lands in __getattr__: `d` is unpacked from `_pk`, one
    LaurentPoly per distinct packed int shared by the keys that hold it, `_pk`
    is then emptied, and `_pk` reads as None.  `==` between two packed
    elements of one algebra leaves both packed (see the module docstring).
    """

    __slots__ = ("_pk",)

    def __getattr__(self, name):
        if name == "_pk":
            return None
        if name != "d":
            raise AttributeError(name)
        Z, e0, k, _ = self._pk
        by_id = self.parent.weyl.by_id
        polys: dict = {}  # packed int -> its LaurentPoly, shared by every key holding it
        d = self.d = {}
        for n, P in Z.items():
            p = polys.get(P)
            if p is None:
                p = polys[P] = LaurentPoly.__new_raw__(_unpack(P, e0, k))
            d[by_id[n]] = p
        del self._pk
        return d

    def __bool__(self):
        pk = self._pk
        return bool(self.d if pk is None else pk[0])

    def __eq__(self, other):
        if type(other) is not HeckeElt:
            return NotImplemented
        H = self.parent
        if H is not other.parent:  # ids are per algebra; keys mean the same only on one datum
            return H.datum.cfg == other.parent.datum.cfg and self.d == other.d
        if self._pk is None or other._pk is None:
            return self.d == other.d
        k, (Za, ea), (Zb, eb) = H._operands(0, self, other)
        if ea > eb:
            (Za, ea), (Zb, eb) = (Zb, eb), (Za, ea)
        if ea == eb:
            return Za == Zb
        shift = (eb - ea) * k
        return Za.keys() == Zb.keys() and all(P == Zb[n] << shift for n, P in Za.items())

    def _coerce(self, x) -> "HeckeElt":
        return self.parent.coerce(x)

    def __mul__(self, other):
        if isinstance(other, HeckeElt):
            return self.parent.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _term_key(self, w: ExtWeylElt):
        return self.parent.weyl.sort_key(w)

    def _fmt_key(self, w: ExtWeylElt) -> str:
        return f"i[{self.parent.weyl.format_elt(w)}]"

    def coeff(self, w: ExtWeylElt) -> LaurentPoly:
        return self.d.get(w, LaurentPoly.zero())

    def to_obj(self) -> list:
        W = self.parent.weyl
        return [
            {"element": W.format_elt(w), "coeff": p.to_pairs()} for w, p in self.terms()
        ]


class IwahoriHecke:
    """The algebra attached to one validated datum."""

    def __init__(self, weyl: AffineWeylGroup):
        self.weyl = weyl
        self.datum = weyl.datum
        # Rewriting memos, keyed by group-element ids (AffineWeylGroup.intern).
        # _gen_cache: n·G + i -> (id of x·s_i, None | 2L(s_i)) for x = by_id[n];
        # generator indices are 0..G-1 (Datum._build_saff).
        # _om_cache: id of ω -> {n: id of x·ω}.
        self._gen_cache: dict[int, tuple] = {}
        self._om_cache: dict[int, dict[int, int]] = {}
        # _cosets: J -> ({n: (id of w', 2L(u))}, {id of w': ids of w'W_J}) for
        # w = by_id[n] = w'u (mul_oneK); _inv_ids: n -> id of by_id[n]⁻¹.
        self._cosets: dict[tuple, tuple] = {}
        self._inv_ids: dict[int, int] = {}
        self._G = len(self.datum.saff_indices)

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
        """Σ p·i_w over (w, p) pairs, p a LaurentPoly or an int."""
        return HeckeElt._wrap(self, _lincomb(({w: _coerce(p)}, None) for w, p in terms))

    def coerce(self, x) -> HeckeElt:
        if isinstance(x, HeckeElt):
            return x
        if isinstance(x, int):
            x = LaurentPoly.from_int(x)
        if isinstance(x, LaurentPoly):
            return HeckeElt(self, {self.weyl.identity: x})
        raise TypeError(f"cannot coerce {type(x).__name__} into HeckeElt")

    # -- multiplication -----------------------------------------------------
    #
    # The hot loops run on packed coefficients (ringcore._pack): every
    # coefficient of one call shares a base exponent e0 and a digit width k.
    # Width rule: a generator step sends P·i_w to P·i_{ws} or to
    # q_s·P·i_{ws} + (q_s - 1)·P·i_w, so it at most triples Σ‖coeff‖₁, and
    # scaling by a coefficient c multiplies it by at most ‖c‖₁.  Hence
    # Σ_z ‖(a·b)_z‖₁ ≤ N(a) · Σ_y ‖b_y‖₁ · 3^ℓ(y) ≤ B = N(a) · N(b) · 3^ℓ_b for
    # any N(a) ≥ Σ_w ‖a_w‖₁, N(b) ≥ Σ_y ‖b_y‖₁ and ℓ_b ≥ ℓ(y) on b's support,
    # and B is the product's own N.  Every coefficient of a·b then has absolute
    # value at most B < 2^(k-2) when k ≥ bitlen(B) + 2 (_width rounds that up
    # to a multiple of 8), a digit that unpacks exactly.  An operand packed at
    # width k_a holds in-range digits at any width ≥ k_a, so
    # k = max(_width(B), k_a, k_b) keeps both facts and repacks an operand
    # only when k exceeds its width.  `_operands` is that rule, for every
    # result with operands; only `im_invert_basis` (no operand) and the
    # quotients of `coset_sums` (below) call _width themselves.  Every packed
    # result is held at k ≥ _width(its N), so for a result that keeps its
    # operand's N (`coset_reps`, `vee_involution`, and `==` with N = 0) the rule
    # gives the operand's own width.  So memo entries (Θ_m, z_m, coset sums of
    # Θ̇(r_μ)) are held at their exact norm's width (`exact_width`): the bound
    # that built one counts no cancellation, and an entry held wider would
    # widen every product it enters.  For a·i_w^{-1} each factor
    # (i_s - q_s + 1) maps P·i_w to at most three terms of norm ‖P‖₁ as well,
    # so B = N(a) · 3^ℓ(w).  Exponents: a generator step multiplies by q_s or
    # q_s - 1, so a·b has every exponent ≥ e0(a) + e0(b), and the inverse's
    # q_w^{-1} lowers the base by 2L(w).  For Σ c·h (`lincomb`),
    # Σ_z ‖(Σ c·h)_z‖₁ ≤ B = Σ ‖c‖₁ · N(h), the sum's N, and k = max(_width(B),
    # the operands' widths) as for a product.  For a · i_{s_1} ··· i_{s_ℓ}
    # (`mul_word`) the ℓ generator steps give B = N(a) · 3^ℓ and keep e0(a).
    #
    # a·1_K (`coset_sums`, `mul_oneK`): a coset sum S_{w'} = Σ_u q_u·a_{w'u}
    # has ‖S_{w'}‖₁ ≤ Σ_u ‖a_{w'u}‖₁, so the sums have N = N(a), and each is
    # copied onto |W_J| elements, so Σ_z ‖(a·1_K)_z‖₁ ≤ B = |W_J| · N(a), the
    # product's N; the sums are packed at the product's k, as above, so that
    # the copy repacks nothing.  Multiplying by q_u shifts exponents up, so
    # the base stays e0(a).  Exact quotients S/P are taken unpacked and
    # repacked at max(k, _width(|W_J| · N)) for N = Σ_{w'} ‖S_{w'}/P‖₁, since
    # division bounds no digit.  `inverse_coset_sums` is `coset_sums` of
    # a·i_u^{-1}, so N = N(a) · 3^ℓ(u) with that width; lowering the base by
    # 2L(v) multiplies by q_v^{-1} and leaves every digit as it is.

    def mul(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        if not a or not b:
            return self.zero()
        W = self.weyl
        pb = b._pk
        # b's reduced words, in the order of b's terms (kept by _packed)
        words = [W.reduced_word(y) for y in (b.d if pb is None else map(W.by_id.__getitem__, pb[0]))]
        N = _size(a) * _size(b) * 3 ** max(len(word) for word, _ in words)
        k, (Za, ea), (Zb, eb) = self._operands(N, a, b)
        intern = W.intern
        acc: dict = {}
        entries = sorted(
            ((word, intern(om), C, acc) for (word, om), C in zip(words, Zb.values())), key=lambda e: e[0]
        )
        self._mul_rec(Za, entries, 0, len(entries), 0, k)
        return self._from_packed(acc, ea + eb, k, N)

    def mul_basis_each(self, a: HeckeElt, ws) -> list:
        """[a·i_w for w in ws], packed elements at one width, with a packed in
        place: one walk of the trie of the ws' reduced words, so words that
        share a prefix share its generator steps, and each leaf flushes into
        its own product.  a·i_w has N = N(a) · 3^ℓ(w) (width rule above)."""
        W = self.weyl
        words = [W.reduced_word(w) for w in ws]
        if not a:
            return [self.zero() for _ in words]
        Na = _size(a)
        k, (Za, ea) = self._operands(Na * 3 ** max((len(word) for word, _ in words), default=0), a)
        accs = [{} for _ in words]
        entries = sorted(
            ((word, W.intern(om), 1, acc) for (word, om), acc in zip(words, accs)), key=lambda e: e[0]
        )
        self._mul_rec(Za, entries, 0, len(entries), 0, k)
        return [self._from_packed(acc, ea, k, Na * 3 ** len(word)) for (word, _), acc in zip(words, accs)]

    def mul_word(self, a: HeckeElt, word) -> HeckeElt:
        """a · i_{s_1} ··· i_{s_ℓ} for word = (s_1, …, s_ℓ) of generator indices,
        reduced or not; a packed element, with a packed in place.  Each step at
        most triples Σ‖coeff‖₁ and never lowers an exponent, so N = N(a) · 3^ℓ
        and the base stays e0(a)."""
        if not a:
            return self.zero()
        N = _size(a) * 3 ** len(word)
        k, (cur, e0) = self._operands(N, a)
        for i in word:
            cur = self._apply_gen_right(cur, i, k)
        return self._from_packed(cur, e0, k, N)

    def lincomb(self, pairs) -> HeckeElt:
        """Σ c·h over (HeckeElt, LaurentPoly) pairs, a packed element (zero()
        if no pair has h and c nonzero); the operands are packed in place
        (width rule above `mul`)."""
        pairs = [(h, c) for h, c in pairs if h and c]
        if not pairs:
            return self.zero()
        N = sum(_norm(c.d) * _size(h) for h, c in pairs)
        k, *packed = self._operands(N, *[h for h, _ in pairs])
        e0 = min(eh + min(c.d) for (_, eh), (_, c) in zip(packed, pairs))
        acc: dict = {}
        get = acc.get
        for (Z, eh), (_, c) in zip(packed, pairs):
            C = _pack(c.d, e0 - eh, k)
            for n, P in Z.items():
                acc[n] = get(n, 0) + P * C
        return self._from_packed(acc, e0, k, N)

    def _operands(self, N: int, *hs: HeckeElt) -> list:
        """[k, (Z, e0) of each h]: the width k = max(_width(N), every width an h
        holds) of a result with norm bound N, and each h packed in place at k."""
        k = _width(N)
        for h in hs:
            pk = h._pk
            if pk is not None and pk[2] > k:
                k = pk[2]
        out = [k]
        for h in hs:
            out.append(self._packed(h, k))
        return out

    def _packed(self, h: HeckeElt, k: int) -> tuple:
        """(Z, e0) of h packed at width k, which is at least any width h holds.

        h keeps only this form afterwards.  Z lists h's terms in the order of
        h.d, or of the Z it held.
        """
        N, pk = _size(h), h._pk
        packed: dict = {}  # each distinct coefficient is packed once; its keys share the int
        Z = {}
        if pk is None:
            d = h.d
            e0 = min(min(p.d) for p in d.values())
            intern = self.weyl.intern
            for w, p in d.items():
                P = packed.get(id(p))  # by identity: equal values from one unpack share one object
                if P is None:
                    P = packed[id(p)] = _pack(p.d, e0, k)
                Z[intern(w)] = P
            del h.d
        else:
            Z0, e0, k0 = pk[:3]
            if k0 == k:
                return Z0, e0
            for n, P0 in Z0.items():
                P = packed.get(P0)
                if P is None:
                    P = packed[P0] = _pack(_unpack(P0, e0, k0), e0, k)
                Z[n] = P
        h._pk = (Z, e0, k, N)
        return Z, e0

    def _from_packed(self, Z: dict, e0: int, k: int, N: int) -> HeckeElt:
        """The packed element with coefficients Z at (e0, k) and norm bound N; zeros are dropped."""
        out = HeckeElt.__new__(HeckeElt)
        out.parent = self
        out._pk = ({n: P for n, P in Z.items() if P}, e0, k, N)
        return out

    def _mul_rec(self, cur, entries, lo, hi, depth, k):
        """One walk of the trie of the words of entries[lo:hi], sorted by word,
        from cur = a · (their common prefix of length depth): each entry
        (word, id of ω, C, acc) whose word ends here gets acc += cur · i_ω · C,
        and the entries whose next letter is g share one step cur · i_g."""
        i = lo
        while i < hi and len(entries[i][0]) == depth:
            _, om, C, acc = entries[i]
            self._flush(cur, om, C, acc)
            i += 1
        while i < hi:
            g = entries[i][0][depth]
            j = i
            while j < hi and entries[j][0][depth] == g:
                j += 1
            self._mul_rec(self._apply_gen_right(cur, g, k), entries, i, j, depth + 1, k)
            i = j

    def _flush(self, cur, om, C, acc):
        """acc += cur · i_ω · C, with ω given by its id (0 is the identity)."""
        get = acc.get
        if not om:
            for n, P in cur.items():
                acc[n] = get(n, 0) + P * C
            return
        W = self.weyl
        memo = self._om_cache.setdefault(om, {})
        omega = W.by_id[om]
        for n, P in cur.items():
            m = memo.get(n)
            if m is None:
                m = memo[n] = W.intern(W.compose(W.by_id[n], omega))
            acc[m] = get(m, 0) + P * C

    def _apply_gen_right(self, cur: dict, i: int, k: int) -> dict:
        cache, G = self._gen_cache, self._G
        out: dict = {}
        get = out.get
        for n, P in cur.items():
            if not P:
                continue
            ns, e = cache.get(n * G + i) or self._compute_gen_right(n, i)
            if e is None:
                out[ns] = get(ns, 0) + P
            else:
                qP = P << (e * k)
                out[ns] = get(ns, 0) + qP
                out[n] = get(n, 0) + qP - P
        return out

    def _compute_gen_right(self, n: int, i: int):
        """Memoized (id of ws, None) when i_w·i_s = i_{ws}, else (id of ws, 2L(s)):
        i_w·i_s = q_s i_{ws} + (q_s - 1) i_w, for w = by_id[n]."""
        W = self.weyl
        w = W.by_id[n]
        ws = W.compose(w, W.gen(i))
        hit = (W.intern(ws), None if W.length(ws) > W.length(w) else 2 * self.datum.L[i])
        self._gen_cache[n * self._G + i] = hit
        return hit

    def _right_star(self, cur: dict, word, k: int) -> dict:
        """cur · (i_{s_ℓ} - q_{s_ℓ} + 1) ··· (i_{s_1} - q_{s_1} + 1) for word = (s_1, …, s_ℓ).

        i_w·(i_s - q_s + 1) is i_{ws} + (1 - q_s)·i_w when ws is longer, and
        q_s·i_{ws} otherwise (the (q_s - 1)·i_w of i_w·i_s cancels).
        """
        cache, G = self._gen_cache, self._G
        for i in reversed(word):
            shift = 2 * self.datum.L[i] * k  # bits of q_s
            out: dict = {}
            get = out.get
            for n, P in cur.items():
                if not P:
                    continue
                ns, e = cache.get(n * G + i) or self._compute_gen_right(n, i)
                if e is None:
                    out[ns] = get(ns, 0) + P
                    out[n] = get(n, 0) + P - (P << shift)
                else:
                    out[ns] = get(ns, 0) + (P << shift)
            cur = out
        return cur

    def mul_inverse(self, a: HeckeElt, w: ExtWeylElt) -> HeckeElt:
        """a · i_w^{-1} = q_w^{-1} · a · i_{ω^{-1}} · star, with star as in im_invert_basis."""
        if not a:
            return self.zero()
        W = self.weyl
        word, om = W.reduced_word(w)
        N = _size(a) * 3 ** len(word)
        k, (Za, e0) = self._operands(N, a)
        cur: dict = {}
        self._flush(Za, W.intern(W.inverse(om)), 1, cur)
        return self._from_packed(self._right_star(cur, word, k), e0 - 2 * W.weighted_length(w), k, N)

    # -- products with 1_K = Σ_{v ∈ W_J} i_v ---------------------------------
    #
    # F is a facet type (parahoric.FacetType): F.J lists the generators of a
    # finite parabolic W_J and F.elements its elements.

    def coset_sums(self, a: HeckeElt, F, divisor: LaurentPoly | None = None) -> HeckeElt:
        """The coset sums S_{w'} of a, divided exactly by divisor when one is
        given: a packed element keyed by the id of each minimal representative
        w' of a coset w'W_J, with N = Σ_{w'} ‖S_{w'}‖₁, held at the width that
        a·1_K needs (closed form and proofs above `mul`)."""
        if not a:
            return self.zero()
        N = _size(a)
        k, (cur, e0) = self._operands(len(F.elements) * N, a)
        red = self._cosets.setdefault(F.J, ({}, {}))[0]
        sums: dict = {}
        get = sums.get
        for n, P in cur.items():
            m, e = red.get(n) or self._coset_min(red, F.J, n)
            sums[m] = get(m, 0) + (P << e * k)
        if divisor is not None:
            sums = {m: S for m, S in sums.items() if S}
            # each distinct packed sum -> its quotient, divided once
            quots = {S: LaurentPoly(_unpack(S, e0, k)).exact_div(divisor).d for S in dict.fromkeys(sums.values())}
            N = sum(_norm(quots[S]) for S in sums.values())
            k = max(k, _width(len(F.elements) * N))
            e0 = min((min(t) for t in quots.values()), default=e0)
            quots = {S: _pack(t, e0, k) for S, t in quots.items()}
            sums = {m: quots[S] for m, S in sums.items()}
        return self._from_packed(sums, e0, k, N)

    def mul_oneK(self, a: HeckeElt, F, divisor: LaurentPoly | None = None) -> HeckeElt:
        """a·1_K, divided exactly by divisor when one is given: each of
        `coset_sums` copied onto its coset w'W_J; a packed element."""
        S = self.coset_sums(a, F, divisor)
        if not S:
            return S
        Z, e0, k, N = S._pk
        cosets = self._cosets[F.J][1]
        out = {}
        for m, P in Z.items():
            for n in cosets.get(m) or self._coset_ids(cosets, F, m):
                out[n] = P
        return self._from_packed(out, e0, k, len(F.elements) * N)

    def inverse_coset_sums(self, a: HeckeElt, w: ExtWeylElt, F) -> HeckeElt:
        """coset_sums(a·i_w^{-1}, F), applying only the star factors of the
        part of w outside W_J (proof and width above `mul`); a is packed in place."""
        W = self.weyl
        red = self._cosets.setdefault(F.J, ({}, {}))[0]
        n = W.intern(W.inverse(w))
        m, e = red.get(n) or self._coset_min(red, F.J, n)
        S = self.coset_sums(self.mul_inverse(a, W.inverse(W.by_id[m])), F)
        if not S:
            return S
        Z, e0, k, N = S._pk
        return self._from_packed(Z, e0 - e, k, N)

    def oneK_mul(self, F, a: HeckeElt) -> HeckeElt:
        """1_K·a = ∨(∨a · 1_K), 1_K being ∨-stable."""
        return self.vee_involution(self.mul_oneK(self.vee_involution(a), F))

    def coset_reps(self, a: HeckeElt, F) -> HeckeElt:
        """a's terms at the shortest elements w' of the cosets w'W_J, a packed
        element (a packed in place).  When a is constant on each coset, as
        a = X·1_K is, this X satisfies a = X·1_K, and its coset sums are X."""
        if not a:
            return self.zero()
        N = _size(a)
        k, (Z, e0) = self._operands(N, a)
        red = self._cosets.setdefault(F.J, ({}, {}))[0]
        out = {n: P for n, P in Z.items() if (red.get(n) or self._coset_min(red, F.J, n))[0] == n}
        return self._from_packed(out, e0, k, N)

    def exact_width(self, h: HeckeElt) -> HeckeElt:
        """h, read once (so that the norm _size gives is exact) and packed in
        place at that norm's width."""
        if h:
            h.d
            self._operands(_size(h), h)
        return h

    def _coset_min(self, red: dict, J, n: int) -> tuple:
        """(id of w', 2L(u)) for w = by_id[n] = w'u with w' minimal in wW_J and
        u ∈ W_J, memoized in red: right descents in J, read off _gen_cache (a
        second field that is not None means ws is shorter)."""
        cache, G = self._gen_cache, self._G
        m, e = n, 0
        while True:
            for i in J:
                ms, es = cache.get(m * G + i) or self._compute_gen_right(m, i)
                if es is not None:
                    m, e = ms, e + es
                    break
            else:
                break
        hit = red[n] = (m, e)
        return hit

    def _coset_ids(self, cosets: dict, F, m: int) -> list:
        """The ids of w'W_J for w' = by_id[m], memoized in cosets."""
        W = self.weyl
        x = W.by_id[m]
        got = cosets[m] = [W.intern(W.compose(x, v)) for v in F.elements]
        return got

    def im_invert_basis(self, w: ExtWeylElt) -> tuple[HeckeElt, HeckeElt]:
        """(inverse, star) with i_w · inverse = i_e and star the integral part.

        star = (i_{s_ℓ} - q_{s_ℓ} + 1) ··· (i_{s_1} - q_{s_1} + 1) over the
        stored reduced word; inverse = q_w^{-1} · i_{ω^{-1}} · star.
        """
        W = self.weyl
        word, om = W.reduced_word(w)
        N = 3 ** len(word)
        k = _width(N)
        raw = self._right_star({0: 1}, word, k)
        om_inv = W.inverse(om)
        star = self._from_packed(raw, 0, k, N)
        shifted = {W.intern(W.compose(om_inv, W.by_id[n])): P for n, P in raw.items()}
        inverse = self._from_packed(shifted, -2 * W.weighted_length(w), k, N)
        return inverse, star

    def vee_involution(self, h: HeckeElt) -> HeckeElt:
        """∨: i_w ↦ i_{w⁻¹}, an anti-involution; maps h's packed ids, packing h in place."""
        if not h:
            return self.zero()
        N = _size(h)
        k, (Z, e0) = self._operands(N, h)
        W, inv = self.weyl, self._inv_ids
        out = {}
        for n, P in Z.items():
            m = inv.get(n)
            if m is None:
                m = inv[n] = W.intern(W.inverse(W.by_id[n]))
                inv[m] = n
            out[m] = P
        return self._from_packed(out, e0, k, N)

    def degree_hom(self, h: HeckeElt) -> LaurentPoly:
        """Linear extension of i_w ↦ q_w; a ring homomorphism."""
        out: dict = {}
        for w, p in h.d.items():
            _add_into(out, p.d, {2 * self.weyl.weighted_length(w): 1})
        return LaurentPoly.__new_raw__(out)


def _norm(d: dict) -> int:
    return sum(map(abs, d.values()))


def _width(B: int) -> int:
    """The digit width for coefficients bounded by B: bitlen(B) + 2, rounded up to
    a multiple of 8 so that a chain of products repacks its running left factor
    about once per 8 bits of growth instead of at every step."""
    return -(-(B.bit_length() + 2) // 8) * 8


def _size(h: HeckeElt) -> int:
    """A bound N ≥ Σ‖coeff‖₁ of h: exact when h holds d."""
    pk = h._pk
    if pk is None:
        return sum(_norm(p.d) for p in h.d.values())
    return pk[3]


class TorsionQuotient:
    """Pushforward along killing a subgroup of the torsion part.

    The subgroup is given by generating residue tuples; the quotient's cyclic
    decomposition comes from a Smith normal form of the stacked relation
    matrix, and basis elements merge accordingly (an algebra homomorphism).
    """

    def __init__(self, source: Datum, kill):
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
        self.datum = Datum(cfg._replace(
            name=cfg.name + "/quot",
            description=f"quotient of {cfg.name} by torsion subgroup {gens}",
            torsion_invariants=tuple(self._moduli),
        ))

    def map_tors(self, tors) -> tuple:
        t = len(self.source.torsion)
        y = [sum(tors[k] * self._v[k][j] for k in range(t)) for j in range(t)]
        return tuple(y[j] % m for j, m in zip(self._keep, self._moduli))

    def push_lattice(self, m: LatticeElt) -> LatticeElt:
        return LatticeElt(m.free, self.map_tors(m.tors))

    def push_elt(self, x: ExtWeylElt) -> ExtWeylElt:
        # the quotient keeps the roots and coroots, so W₀ is enumerated alike
        return ExtWeylElt(x.free, self.map_tors(x.tors), x.w)

    def push_hecke(self, h: HeckeElt, target: IwahoriHecke) -> HeckeElt:
        pairs = (({self.push_elt(w): p}, None) for w, p in h.d.items())
        return HeckeElt._wrap(target, _lincomb(pairs))
