"""Bernstein elements, the twisted dot-action, and the change of basis.

The exponent E is the unique homomorphism Λ → Z agreeing with the weighted
length of translations on antidominant elements; the modulus character is
q^{-E}.  The dot-action twists the naive Weyl action on the group algebra of
Λ by v^{E(m) - E(w(m))}, so that orbit sums of antidominant elements have
q-power coefficients and land in the center of the Iwahori-Hecke algebra.

Θ-elements are defined by the two-sided quotient i_{m+m∘} * (i_{m∘})^{-1}
with both exponents antidominant; the canonical m∘ is the componentwise
minimal combination of the antidominant fundamental generators.  Θ_m is
computed as IwahoriHecke.mul_inverse(i_{m+m∘}, t_{m∘}): the single basis
element is shifted by the length-zero part of t_{m∘} and the ℓ(t_{m∘})
two-term factors of the inverse are applied to it one at a time, so the
inverse itself is never built.  Where only the coset sums of Θ̇(r) over a
finite W_J are wanted (they decide products Θ̇(r)·1_K), `theta_coset_sums`
takes them through IwahoriHecke.inverse_coset_sums, which skips the factors
of t_{m∘}'s inverse that lie in W_J, and builds no Θ_m.  The IM ↔ Bernstein
change of basis is a triangular elimination whose diagonal is a unit
monomial.  Both directions run over the products Θ_m·i_w (w ∈ W₀), memoized
per (m, w) in the dict form {w: LaurentPoly} that the elimination and the
sums read.  A packed HeckeElt entry would be unpacked by each elimination
step that reads it and repacked by each sum, on every call.

GroupAlgElt (elements of R = Z[v^{±1}][Λ]) and BernsteinElt (coordinates over
{Θ_m * i_w}) are ringcore.SparseElt modules like HeckeElt: each adds only its
product, if any, its term order, how a basis key prints and its serialization.
"""

from __future__ import annotations

from .errors import NonUnitDiagonal, NotAntidominant, SolveInconsistent, UnsupportedParameters
from .hecke import HeckeElt, IwahoriHecke
from .ringcore import LaurentPoly, SparseElt, _eliminate, _lincomb
from .rootdatum import Datum, LatticeElt, dot

__all__ = ["GroupAlgElt", "BernsteinElt", "Bernstein"]


class GroupAlgElt(SparseElt):
    """Element of R = Z[v^{±1}][Λ], sparse over lattice basis elements; parent is the datum."""

    __slots__ = ()

    @classmethod
    def basis(cls, datum: Datum, m: LatticeElt, coeff: LaurentPoly | None = None) -> "GroupAlgElt":
        return cls(datum, {m: coeff if coeff is not None else LaurentPoly.one()})

    @classmethod
    def zero(cls, datum: Datum) -> "GroupAlgElt":
        return cls(datum, {})

    def __mul__(self, other):
        if isinstance(other, GroupAlgElt):
            add = self.parent.add
            return self._wrap(self.parent, _lincomb(
                ({add(m1, m2): p2 for m2, p2 in other.d.items()}, p1.d) for m1, p1 in self.d.items()
            ))
        return self.scale(other)

    __rmul__ = __mul__

    def _term_key(self, m: LatticeElt):
        return m

    def _fmt_key(self, m: LatticeElt) -> str:
        return f"x[{m.free};{m.tors}]"


class BernsteinElt(SparseElt):
    """Coordinates over the basis {Θ_m * i_w}: sparse (lattice, W₀) → coefficients;
    parent is the Bernstein engine."""

    __slots__ = ()

    def _term_key(self, key):
        m, wi = key
        return (self.parent.exponent_E(m), m, self.parent.datum.w_word[wi])

    def _fmt_key(self, key) -> str:
        m, wi = key
        return f"Θ[{m.free};{m.tors}]·w[{','.join(map(str, self.parent.datum.w_word[wi]))}]"

    def to_obj(self) -> list:
        d = self.parent.datum
        out = []
        for (m, wi), p in self.terms():
            out.append(
                {
                    "lattice": {"free": list(m.free), "tors": list(m.tors)},
                    "finite_weyl": list(d.w_word[wi]),
                    "coeff": p.to_pairs(),
                }
            )
        return out


class Bernstein:
    """Θ-elements and Bernstein coordinates over one Iwahori-Hecke algebra."""

    def __init__(self, H: IwahoriHecke):
        self.H = H
        self.W = H.weyl
        self.datum = H.datum
        self._E: dict[LatticeElt, int] = {}
        self._theta: dict[LatticeElt, HeckeElt] = {}
        self._theta_fin: dict[tuple[LatticeElt, int], dict] = {}
        self._orbit_sums: dict[LatticeElt, GroupAlgElt] = {}
        self._products: dict[frozenset, dict] = {}

    # -- the exponent homomorphism ------------------------------------------

    def exponent_E(self, m: LatticeElt) -> int:
        """E(m) = L(t_m) for antidominant m, extended as a homomorphism:
        E(m) = L(t_{m+m∘}) − L(t_{m∘}), m∘ and m + m∘ being antidominant (m_circ)."""
        got = self._E.get(m)
        if got is None:
            W, mc = self.W, self.m_circ(m)
            got = self._E[m] = (
                W.weighted_length(W.translation(self.datum.add(m, mc))) - W.weighted_length(W.translation(mc))
            )
        return got

    def dot_coeff(self, m: LatticeElt, wi: int) -> LaurentPoly:
        """c(m, w) = v^{E(m) - E(w(m))}."""
        return LaurentPoly.v_power(self.exponent_E(m) - self.exponent_E(self.datum.act(wi, m)))

    def dot_act(self, wi: int, r: GroupAlgElt) -> GroupAlgElt:
        d = self.datum
        pairs = (({d.act(wi, m): p}, self.dot_coeff(m, wi).d) for m, p in r.d.items())
        return GroupAlgElt._wrap(d, _lincomb(pairs))

    def orbit_sum_r(self, m: LatticeElt) -> GroupAlgElt:
        """r_m = Σ_{orbit} v^{E(m)-E(μ)}·μ for antidominant m, memoized: callers
        share the element and never write into it."""
        got = self._orbit_sums.get(m)
        if got is not None:
            return got
        d = self.datum
        if not d.is_antidominant(m):
            raise NotAntidominant(f"{m} is not antidominant")
        em = self.exponent_E(m)
        out = {
            mu: LaurentPoly.v_power(em - self.exponent_E(mu)) for mu in d.orbit(m)
        }
        got = self._orbit_sums[m] = GroupAlgElt(d, out)
        return got

    def from_orbit_sums(self, pairs) -> GroupAlgElt:
        """Σ s·r_m over (m, s) pairs."""
        return GroupAlgElt._wrap(self.datum, _lincomb((self.orbit_sum_r(m).d, s.d) for m, s in pairs))

    # -- Θ-elements -----------------------------------------------------------

    def m_circ(self, m: LatticeElt) -> LatticeElt:
        """Componentwise minimal N-combination of the antidominant
        fundamental generators making m + m∘ antidominant."""
        d = self.datum
        acc = [0] * d.r
        for i, alpha in enumerate(d.simple_roots):
            v = dot(alpha, m.free)
            if v > 0:
                vec, den = d.fund_antidom[i]
                n = -(-v // den)
                for k in range(d.r):
                    acc[k] += n * vec[k]
        return d.lattice(acc)

    def theta(self, m: LatticeElt) -> HeckeElt:
        got = self._theta.get(m)
        if got is not None:
            return got
        # packed at its exact norm, not mul_inverse's bound (width rule in hecke)
        out = self._theta[m] = self.H.exact_width(self._theta_with_shift(m, self.m_circ(m)))
        return out

    def _theta_with_shift(self, m: LatticeElt, mc: LatticeElt) -> HeckeElt:
        d, W, H = self.datum, self.W, self.H
        if not d.is_antidominant(mc) or not d.is_antidominant(d.add(m, mc)):
            raise NotAntidominant(f"invalid antidominant shift {mc} for {m}")
        return H.mul_inverse(H.basis_translation(d.add(m, mc)), W.translation(mc))

    def theta_choice_independent(self, m: LatticeElt) -> bool:
        """Recompute Θ_m with an extra antidominant shift of m∘."""
        d = self.datum
        z = d.lattice(d.strict_antidom)
        shifted = d.add(self.m_circ(m), z)
        return self._theta_with_shift(m, shifted) == self.theta(m)

    def theta_of(self, r: GroupAlgElt) -> HeckeElt:
        """Θ̇(r) = Σ p·Θ_m over the terms p·x_m of r."""
        return self.H.lincomb((self.theta(m), p) for m, p in r.d.items())

    def theta_coset_sums(self, r: GroupAlgElt, F) -> HeckeElt:
        """The coset sums of Θ̇(r) over W_J = F, without building any Θ_m.

        Coset sums are linear, so they are Σ p·(coset sums of Θ_m) over the
        terms p·x_m of r, and Θ_m = i_{t_{m+m∘}}·i_{t_{m∘}}^{-1} by definition
        (m∘ = 0 gives i_{t_m}·i_e^{-1}), so each is
        IwahoriHecke.inverse_coset_sums(i_{t_{m+m∘}}, t_{m∘}, F).  Nothing is
        memoized: each call recomputes the sums of its terms.
        """
        d, W, H = self.datum, self.W, self.H
        pairs = []
        for m, p in r.d.items():
            mc = self.m_circ(m)
            pairs.append((H.inverse_coset_sums(H.basis_translation(d.add(m, mc)), W.translation(mc), F), p))
        return H.lincomb(pairs)

    # -- IM <-> Bernstein change of basis -----------------------------------

    def _theta_times_finite(self, m: LatticeElt, wi: int) -> dict:
        """Θ_m·i_w for w = W.finite(wi), as the dict {w: LaurentPoly} that
        _eliminate and _lincomb read, memoized: callers never write into it."""
        got = self._theta_fin.get((m, wi))
        if got is None:
            H = self.H
            got = self._theta_fin[(m, wi)] = H.mul(self.theta(m), H.basis(self.W.finite(wi))).d
        return got

    def bern_to_im(self, b: BernsteinElt) -> HeckeElt:
        pairs = ((self._theta_times_finite(m, wi), p.d) for (m, wi), p in b.d.items())
        return HeckeElt._wrap(self.H, _lincomb(pairs))

    def im_to_bern(self, h: HeckeElt) -> BernsteinElt:
        """Triangular elimination against the Bruhat-maximal support element."""
        W = self.W
        residual = {w: dict(p.d) for w, p in h.d.items()}
        out: dict = {}
        prev_key = None
        while residual:
            key, x = max((W.sort_key(w), w) for w in residual)
            if prev_key is not None and key >= prev_key:
                raise SolveInconsistent("elimination failed to decrease")
            prev_key = key
            mx = LatticeElt(x.free, x.tors)
            prod = self._theta_times_finite(mx, x.w)
            diag = prod.get(x)
            if diag is None or not diag.is_unit_monomial():
                raise NonUnitDiagonal(f"diagonal at {W.format_elt(x)} is {diag}")
            out[(mx, x.w)] = _eliminate(residual, prod, x)
        return BernsteinElt(self, out)

    # -- the Bernstein relation (equal-parameter case) -----------------------

    def bernstein_relation_check(self, m: LatticeElt, i: int) -> bool:
        """Cleared-denominator commutation identity at the finite simple s_i.

        With x = Θ at the positive coroot α∨ of s and q_s its parameter,

          (Θ_m(i_s+1) − (i_s+1)Θ_{ṡ(m)}) · (1 − q_s·Θ_{α∨})
              == q_s · (Θ_m − Θ_{ṡ(m)}) · (1 − Θ_{α∨}),

        i.e. the commutator ratio is q_s(1 − Θ_{α∨})/(1 − q_sΘ_{α∨}); in the
        untwisted normalization that is (q_s − θ_{α∨})/(1 − θ_{α∨}).
        """
        d, W, H = self.datum, self.W, self.H
        # the one-parameter form needs equal parameters, finite braids of order ≤ 3,
        # and no simple coroot with all coordinates even (the mixed parameter case)
        n = d.n_simple
        simply_laced = all(d.coxeter_matrix[(i, j)] <= 3 for i in range(1, n + 1) for j in range(i + 1, n + 1))
        if len(set(d.L.values())) > 1 or not simply_laced or any(all(c % 2 == 0 for c in v) for v in d.simple_coroots):
            raise UnsupportedParameters("unequal parameters or non-simply-laced datum")
        if not 1 <= i <= d.n_simple:
            raise ValueError(f"s{i} is not a finite simple reflection")
        si = d.w_right[0][i - 1]
        sm = d.act(si, m)
        twist = self.dot_coeff(m, si)
        theta_m = self.theta(m)
        theta_sm = self.theta(sm).scale(twist)
        is_plus = H.basis(W.gen(i)) + 1
        lhs1 = H.mul(theta_m, is_plus) - H.mul(is_plus, theta_sm)
        qs = LaurentPoly.v_power(2 * d.L[i])
        coroot = d.lattice(d.simple_coroots[i - 1])
        lhs = H.mul(lhs1, H.one() - self.theta(coroot).scale(qs))
        rhs = H.mul(theta_m - theta_sm, H.one() - self.theta(coroot)).scale(qs)
        return lhs == rhs

    # -- expansion of invariants over orbit sums ------------------------------

    def expand_over_orbit_sums(self, r: GroupAlgElt) -> dict:
        """Unique coordinates of a Ẇ-invariant element over {r_m}; raises
        SolveInconsistent when r is not in their span.

        One pass: eliminating r_m at m touches only m's orbit, whose one
        antidominant element is m, so each antidominant m in r's support is
        eliminated once, and anything left means r is not in the span.
        """
        residual = {m: dict(p.d) for m, p in r.d.items()}
        out: dict = {}
        for m in r.d:
            if self.datum.is_antidominant(m):
                out[m] = _eliminate(residual, self.orbit_sum_r(m).d, m)
        if residual:
            raise SolveInconsistent("element is not in the span of the orbit sums")
        return out

    def orbit_sum_product(self, m: LatticeElt, n: LatticeElt) -> dict:
        """The structure constants {μ: c^μ_{mn}} of r_m·r_n = Σ_μ c^μ_{mn} r_μ,
        memoized per unordered pair: callers share them and never write into
        them."""
        key = frozenset((m, n))
        got = self._products.get(key)
        if got is None:
            got = self._products[key] = self.expand_over_orbit_sums(self.orbit_sum_r(m) * self.orbit_sum_r(n))
        return got
