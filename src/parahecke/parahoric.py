"""Parahoric subalgebras, their centers, and the twisted Satake transform.

A facet type is a subset J of the affine generators spanning a finite
parabolic W_J.  The attached subalgebra is the span of the double-coset sums
h_x = Σ_{W_J t_x W_J} i_w; its unit for the corner product is 1_K = Σ_{W_J} i_w,
with 1_K·1_K = P_J·1_K for the Poincaré polynomial P_J = Σ q_w.  Products
with 1_K take the closed forms of `hecke` (IwahoriHecke.mul_oneK, oneK_mul),
and so does the corner product: a bi-invariant b is X·1_K for X its terms at
the shortest coset elements, so

    a ∗_K b = a·b / P_J = (a·X)·1_K / P_J,

one `mul_oneK` that divides each distinct coset sum once (`parahoric_mul`).
For d the shortest element of W_J t_y W_J, 1_K·i_d·1_K = P_{J,d}·h_y, with
P_{J,d} its coefficient at d (checked once per (J, y)).

A bi-invariant z (z·1_K = P_J·z = 1_K·z) commutes with h_y exactly when
z·i_d·1_K = 1_K·i_d·z.  With z = 1_K·Z_L = Z_R·1_K for Z_L, Z_R its terms
at the shortest elements of the cosets W_J w and wW_J, both sides have the
form 1_K·Y·1_K (up to ∨), which the weighted double-coset sums
c_D(Y) = Σ_{y∈D} Y_y·q_y/q_{d_D} decide; so only Z_L·i_d and ∨Z_R·i_{d⁻¹},
|W_J| times smaller than z·i_d, are formed, for every y from one walk of the
trie of the d's reduced words (proof at `noncommuting_kelt`).  Center
products are compared on coset sums too: z₁·z₂ = (z₁·X₂)·1_K for X₂ the terms
of z₂ at the shortest coset elements (proof at `center_product_expand`).
Neither check divides.

Central elements are z_m = Θ̇(r_m) * 1_K (antidominant m); at the special
maximal facet they are everything, and solving h_x = Σ_m s_{x,m} z_m by
triangular elimination over the saturation order realizes the twisted Satake
transform.  The Satake rows and the general solve share one solve against
the z-basis, `_z_coords`, which eliminates each z_μ at its W.sort_key-largest
term in the caller's order; the rows add their diagonal and positivity
checks.  Positivity of the entries is asserted in the shifted variable
t = q - 1 (LaurentPoly.nonneg_in_q_minus_1, stronger than nonnegativity at
every prime power).  Lifting to a bigger facet is the corner product
z ∗_{K_small} 1_{K_big} = z·1_{K_big} / P_{J_small}, the same `mul_oneK`
with P_{J_small} as its divisor.

z_m is one closed-form product of the Θ̇(r_m) that its one-sidedness check
needs anyway.  Multiplicativity of the Satake transform is checked in
orbit-sum coordinates on coset sums (proof at `_check_multiplicative`): the
product of two rows is read off orbit-sum structure constants, and the
comparison is between coset sums (`IwahoriHecke.coset_sums`), which decide
equality of products X·1_K without the copy onto each coset.  The coset
sums of Θ̇(r_μ) are taken without building Θ_μ (Bernstein.theta_coset_sums),
and so are those on the last edge of the compatibility square
(`compatibility_holds`); apart from facet's own check of 1_K·1_K, no product
with 1_K is a generic one.  z_m and each memoized coset sum of Θ̇(r_μ) are
read once and packed at the width of their exact norm: the proved bound
|W_J|·N counts no cancellation inside a coset sum, and a looser bound would
widen every product or sum they enter (the width rule is in `hecke`).

`facet` enumerates W_J and stops as soon as it finds more than |W₀|
elements: a finite W_J has at most that many (the proof is at `facet`).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .bernstein import Bernstein, GroupAlgElt
from .errors import (
    CentralityFailure,
    InfiniteFacetGroup,
    NegativeCoefficient,
    NonDivisible,
    NotAntidominant,
    NotBiinvariant,
    NotCentral,
    SolveInconsistent,
)
from .hecke import HeckeElt
from .ringcore import LaurentPoly, _axpy, _eliminate, _mul
from .rootdatum import LatticeElt

__all__ = ["FacetType", "SatakeRow", "SatakeTable", "Parahoric"]


class FacetType(NamedTuple):
    """A finite parabolic W_J: its generators, its elements in W.sort_key
    order and its Poincaré polynomial.  Its unit 1_K = Σ_{W_J} i_w is the
    double-coset sum at the zero translation, Parahoric.kelt(F, zero)."""

    J: tuple
    elements: tuple
    poincare: LaurentPoly


class SatakeRow(NamedTuple):
    x: LatticeElt
    entries: list  # [(m, LaurentPoly)] in elimination order (rank, lex)
    checks: dict


class SatakeTable(NamedTuple):
    datum: str
    facet: tuple
    rows: list

    def row(self, x: LatticeElt) -> SatakeRow:
        for r in self.rows:
            if r.x == x:
                return r
        raise KeyError(f"no row for {x}")

    def to_obj(self, fmt_lattice, q_eval: int | None = None) -> dict:
        rows = []
        for r in self.rows:
            entries = []
            for m, p in r.entries:
                rec = {"m": fmt_lattice(m), "coeff": p.to_pairs()}
                if q_eval is not None:
                    val = p.eval_at_q(q_eval)
                    rec["coeff_at_q"] = val if isinstance(val, int) else [val.numerator, val.denominator]
                entries.append(rec)
            rows.append({"x": fmt_lattice(r.x), "entries": entries, "checks": dict(r.checks)})
        return {
            "datum": self.datum,
            "facet": [f"s{i}" for i in self.facet],
            "coeff_convention": "v-pairs with q = v^2",
            "rows": rows,
        }

    def to_csv(self, fmt_lattice, q_eval: int | None = None) -> str:
        lines = ["x,m,coeff" + (",coeff_at_q" if q_eval is not None else "")]
        for r in self.rows:
            for m, p in r.entries:
                base = f"\"{fmt_lattice(r.x)}\",\"{fmt_lattice(m)}\",\"{p}\""
                if q_eval is not None:
                    base += f",{p.eval_at_q(q_eval)}"
                lines.append(base)
        return "\n".join(lines) + "\n"


class Parahoric:
    """Facet-level operations over one Bernstein/Hecke engine."""

    def __init__(self, bern: Bernstein):
        self.bern = bern
        self.H = bern.H
        self.W = bern.W
        self.datum = bern.datum
        self._facets: dict = {}
        self._centers: dict = {}
        self._kelts: dict = {}
        self._kelt_reps: dict = {}

    # -- facet data --------------------------------------------------------

    def facet(self, J) -> FacetType:
        J = tuple(sorted(set(int(j) for j in J)))
        got = self._facets.get(J)
        if got is not None:
            return got
        for j in J:
            if j not in self.datum.saff_indices:
                raise ValueError(f"s{j} is not an affine generator")
        # A finite W_J fixes a point (the barycentre of an orbit), and the
        # affine generators carry no torsion part, so two elements of W_J with
        # the same linear part differ by a translation in Z^r that fixes the
        # point, which is 1.  So a finite W_J has at most |W₀| elements, and
        # more than that prove it infinite.
        W, order = self.W, self.datum.w_order
        seen = {W.identity}
        todo = [W.identity]
        while todo:
            x = todo.pop()
            for j in J:
                y = W.compose(x, W.gen(j))
                if y not in seen:
                    if len(seen) == order:
                        raise InfiniteFacetGroup(f"W_J for J={list(J)} has more than |W₀| = {order} elements")
                    seen.add(y)
                    todo.append(y)
        elements = tuple(sorted(seen, key=W.sort_key))
        one_K = self.H.from_terms([(w, LaurentPoly.one()) for w in elements])
        poincare = self.H.degree_hom(one_K)  # Σ_{W_J} q_w: the degree homomorphism is i_w ↦ q_w
        if poincare.d.get(0) != 1:
            raise SolveInconsistent("Poincaré polynomial has constant term != 1")
        if self.H.mul(one_K, one_K) != one_K.scale(poincare):
            raise SolveInconsistent("1_K * 1_K != P_J * 1_K at facet construction")
        out = FacetType(J=J, elements=elements, poincare=poincare)
        self._facets[J] = out
        return out

    def special_facet(self) -> FacetType:
        return self.facet(range(1, self.datum.n_simple + 1))

    def kelt(self, F: FacetType, x: LatticeElt) -> HeckeElt:
        """h_x = characteristic function of the double coset W_J t_x W_J."""
        key = (F.J, x)
        got = self._kelts.get(key)
        if got is not None:
            return got
        if not self.datum.is_antidominant(x):
            raise NotAntidominant(f"{x} is not antidominant")
        W = self.W
        tx = W.translation(x)
        support = set()
        for u in F.elements:
            left = W.compose(u, tx)
            for u2 in F.elements:
                support.add(W.compose(left, u2))
        out = self.H.from_terms([(w, LaurentPoly.one()) for w in support])
        self._kelts[key] = out
        return out

    # -- corner multiplication -----------------------------------------------

    def is_biinvariant(self, F: FacetType, a: HeckeElt) -> bool:
        pa = self.H.lincomb([(a, F.poincare)])
        return self.H.oneK_mul(F, a) == pa and self.H.mul_oneK(a, F) == pa

    def _kelt_rep(self, F: FacetType, x: LatticeElt) -> tuple:
        """(d, P_{J,d}): d the shortest element of W_J t_x W_J and P_{J,d} the
        coefficient at d of 1_K·i_d·1_K, which is checked to be nonzero and to
        give 1_K·i_d·1_K = P_{J,d}·h_x.  That check also proves h_x bi-invariant:
        the left side is, and H is free over Z[v^±1]."""
        key = (F.J, x)
        got = self._kelt_reps.get(key)
        if got is None:
            H, h = self.H, self.kelt(F, x)
            d = min(h.d, key=self.W.sort_key)
            full = H.oneK_mul(F, H.mul_oneK(H.basis(d), F))
            P_d = full.coeff(d)
            if P_d.is_zero() or full != h.scale(P_d):  # pragma: no cover - a double coset sum always is
                raise SolveInconsistent(
                    f"1_K·i_d·1_K is not P_(J,d)·h_x with P_(J,d) != 0 at x={x}, J={list(F.J)}"
                )
            got = self._kelt_reps[key] = (d, P_d)
        return got

    def noncommuting_kelt(self, F: FacetType, z: HeckeElt, xs):
        """The first x in xs with z·h_x != h_x·z, or None.

        z must be W_J-bi-invariant: z·1_K = P_J·z = 1_K·z.  center_elt's z_m is,
        being Θ̇(r_m)·1_K by construction and 1_K·Θ̇(r_m) by its check, with
        1_K·1_K = P_J·1_K (checked by facet); so is every h_y.  Proof, for d
        the shortest element of W_J t_x W_J:
        - h_x = 1_K·i_d·1_K / P_{J,d} (_kelt_rep), so z·h_x = P_J·L / P_{J,d}
          and h_x·z = P_J·R / P_{J,d} for L = z·i_d·1_K and R = 1_K·i_d·z.  H
          is free over Z[v^±1], so z commutes with h_x exactly when L = R.
        - z·1_K = P_J·z makes z constant on each coset wW_J, so z = Z_R·1_K
          for Z_R = coset_reps(z); 1_K·z = P_J·z likewise gives z = 1_K·Z_L
          for Z_L = ∨coset_reps(∨z), which has |W_J| times fewer terms than z.
          So L = 1_K·Y_L·1_K and R = ∨(1_K·Y_R·1_K) for Y_L = Z_L·i_d and
          Y_R = ∨Z_R·i_{d⁻¹}, 1_K being ∨-stable.
        - For any Y, 1_K·Y·1_K = Σ_D c_D(Y)·1_K·i_{d_D}·1_K over the double
          cosets D = W_J d_D W_J, d_D shortest in D, with
          c_D(Y) = Σ_{y∈D} Y_y·q_y/q_{d_D}: each y ∈ D is v·d_D·v′ with
          v, v′ ∈ W_J and lengths adding (Bourbaki, ch. IV §1, ex. 3), so
          i_y = i_v·i_{d_D}·i_{v′}, and i_v·1_K = q_v·1_K for v ∈ W_J.
        - 1_K·i_{d_D}·1_K is bi-invariant, supported on D, and nonzero (the
          degree homomorphism i_w ↦ q_w takes it to P_J²·q_{d_D}); those of
          distinct D have disjoint supports.  So L = R exactly when
          c_D(Y_L) = c_{D⁻¹}(Y_R) for every D, D⁻¹ having shortest element d_D⁻¹.
        - _weighted_double_coset_sums(Y) holds c_D(Y) keyed by d_D⁻¹, so the
          condition is that it takes Y_L to ∨ of what it takes Y_R to.
        The products Z_L·i_d and ∨Z_R·i_{d⁻¹} for all of xs come from one trie
        walk each (IwahoriHecke.mul_basis_each).  Nothing is divided, and
        neither side is copied onto its cosets.
        """
        H, W = self.H, self.W
        vee = H.vee_involution
        xs = list(xs)
        ds = [self._kelt_rep(F, x)[0] for x in xs]
        lefts = H.mul_basis_each(vee(H.coset_reps(vee(z), F)), ds)
        rights = H.mul_basis_each(vee(H.coset_reps(z, F)), [W.inverse(d) for d in ds])
        for x, left, right in zip(xs, lefts, rights):
            if self._weighted_double_coset_sums(F, left) != vee(self._weighted_double_coset_sums(F, right)):
                return x
        return None

    def _weighted_double_coset_sums(self, F: FacetType, a: HeckeElt) -> HeckeElt:
        """c_D(a) = Σ_{y∈D} a_y·q_y/q_{d_D} for each double coset D = W_J d_D W_J
        (d_D shortest), keyed by d_D⁻¹: 1_K·a·1_K = Σ_D c_D(a)·1_K·i_{d_D}·1_K
        (proof at noncommuting_kelt).  coset_sums(a) holds, at the shortest
        element w′ of each coset w′W_J, Σ_{u∈W_J} q_u·a_{w′u}.  After ∨ the key
        w′⁻¹ is shortest in W_J·w′⁻¹, and then its shortest right-coset
        element is shortest on both sides, so it is d_D⁻¹, with
        w′⁻¹ = d_D⁻¹·u and q_u = q_{w′}/q_{d_D}; the second coset_sums adds
        those weights."""
        H = self.H
        return H.coset_sums(H.vee_involution(H.coset_sums(a, F)), F)

    def parahoric_mul(self, F: FacetType, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        """a ∗_K b = a·b / P_J for W_J-bi-invariant a and b.

        b·1_K = P_J·b, so b is constant on each coset wW_J: b = X·1_K for X =
        coset_reps(b), and a·b = (a·X)·1_K, whose coset sums mul_oneK divides
        by P_J once per distinct sum before copying them onto the cosets.
        """
        for side in (a, b):
            if not self.is_biinvariant(F, side):
                raise NotBiinvariant("operand is not W_J-bi-invariant")
        H = self.H
        return H.mul_oneK(H.mul(a, H.coset_reps(b, F)), F, divisor=F.poincare)

    # -- central elements ------------------------------------------------------

    def center_elt(self, F: FacetType, m: LatticeElt) -> HeckeElt:
        """z_m = Θ̇(r_m) * 1_K; verified two-sided and against the height-1 h_x."""
        key = (F.J, m)
        got = self._centers.get(key)
        if got is not None:
            return got
        if not self.datum.is_antidominant(m):
            raise NotAntidominant(f"{m} is not antidominant")
        theta_r = self.bern.theta_of(self.bern.orbit_sum_r(m))
        z = self.H.exact_width(self.H.mul_oneK(theta_r, F))
        if z != self.H.oneK_mul(F, theta_r):
            raise CentralityFailure(f"z_m is one-sided at m={m}, J={list(F.J)}")
        x = self.noncommuting_kelt(F, z, [x for x, _ in self.datum.antidominant_set(1)])
        if x is not None:
            raise CentralityFailure(f"z_{m} does not commute with h_{x} at J={list(F.J)}")
        self._centers[key] = z
        return z

    def center_product_expand(self, F: FacetType, m1: LatticeElt, m2: LatticeElt) -> dict:
        """Coordinates c_μ of z_{m1} ∗_K z_{m2} = Σ_μ c_μ z_μ over the z-basis,
        read off the R-side (r_{m1}·r_{m2} = Σ_μ c_μ r_μ) and checked in H.

        Each z_μ must be W_J-bi-invariant, as center_elt's checks make it (see
        noncommuting_kelt).  Proof: z_μ is constant on each coset wW_J, so
        z_μ = X_μ·1_K for X_μ its terms at the shortest coset elements
        (IwahoriHecke.coset_reps).  z_{m1} ∗_K z_{m2} = z_{m1}·z_{m2} / P_J and
        H is free over Z[v^±1], so the identity is
        (z_{m1}·X_{m2})·1_K = (P_J·Σ_μ c_μ X_μ)·1_K.  Both sides have the form
        X·1_K, which X's coset sums determine, and the coset sums of an element
        supported on shortest coset elements are that element; so the identity
        holds exactly when coset_sums(z_{m1}·X_{m2}) = P_J·Σ_μ c_μ X_μ.
        Nothing is divided.
        """
        B, H = self.bern, self.H
        coeffs = B.orbit_sum_product(m1, m2)
        lhs = H.coset_sums(H.mul(self.center_elt(F, m1), H.coset_reps(self.center_elt(F, m2), F)), F)
        rhs = H.lincomb((H.coset_reps(self.center_elt(F, mu), F), c * F.poincare) for mu, c in coeffs.items())
        if lhs != rhs:
            raise SolveInconsistent("center product does not match its z-basis expansion")
        return coeffs

    # -- the twisted Satake transform ------------------------------------------

    def _z_coords(self, F: FacetType, z: HeckeElt, order):
        """Coordinates of z over the z-basis, as (μ, s_μ) for each μ in order.

        One triangular elimination: s_μ divides the residual's entry at the
        lead of z_μ (its W.sort_key-largest term) by z_μ's, and is None when
        that entry is absent.  SolveInconsistent is raised on a non-integral
        quotient, and after the last μ if a residual is left.
        """
        W = self.W
        residual = {w: dict(p.d) for w, p in z.d.items()}
        for mu in order:
            z_mu = self.center_elt(F, mu)
            try:
                s = _eliminate(residual, z_mu.d, max(z_mu.d, key=W.sort_key))
            except NonDivisible as exc:
                raise SolveInconsistent(f"entry at {mu} not divisible: {exc}") from exc
            yield mu, s
        if residual:
            raise SolveInconsistent("element is not in the span of the z-basis")

    def _solve_row(self, F: FacetType, x: LatticeElt) -> SatakeRow:
        entries = []
        for m, s in self._z_coords(F, self.kelt(F, x), self.datum.saturation_predecessors(x)):
            if s is None:
                raise NegativeCoefficient(self._counterexample(x, m, None, "vanishing entry on a predecessor"))
            if m == x and not s.is_one():
                raise SolveInconsistent(f"diagonal s_(x,x) = {s} != 1 at x={x}")
            if not s.nonneg_in_q_minus_1():
                raise NegativeCoefficient(self._counterexample(x, m, s, "negative coefficient in q-1"))
            entries.append((m, s))
        return SatakeRow(
            x=x,
            entries=entries,
            checks={"diag_one": True, "positive": True, "triangular": True},
        )

    def _counterexample(self, x, m, s, why) -> str:
        d = self.datum
        return json.dumps(
            {
                "theorem_falsified": "satake positivity",
                "why": why,
                "datum": d.name,
                "x": {"free": list(x.free), "tors": list(x.tors)},
                "m": {"free": list(m.free), "tors": list(m.tors)},
                "entry": None if s is None else s.to_pairs(),
            },
            sort_keys=True,
        )

    def satake_table(self, xs, check_products: bool = True) -> SatakeTable:
        """Rows of the twisted Satake matrix at the special maximal facet."""
        d = self.datum
        F = self.special_facet()
        xs = list(xs)
        for x in xs:
            if not d.is_antidominant(x):
                raise NotAntidominant(f"{x} is not antidominant")
        rows = [self._solve_row(F, x) for x in xs]
        table = SatakeTable(datum=d.name, facet=F.J, rows=rows)
        if check_products:
            self._check_multiplicative(F, table)
        return table

    def _check_multiplicative(self, F: FacetType, table: SatakeTable):
        """transform(h_x *_K h_y) must equal transform(h_x)·transform(h_y).

        The Satake transform inverts r ↦ Θ̇(r)·1_K, so the identity at (x, y) is
        Θ̇(t_x·t_y)·1_K = h_x ∗_K h_y with t_x = transform(h_x) = Σ_m s_{x,m} r_m,
        the row's entries.  It is decided without forming either side:
        - t_x·t_y = Σ_μ c_μ r_μ with c_μ = Σ_{m,n} s_{x,m}·s_{y,n}·c^μ_{mn}, from
          the structure constants r_m·r_n = Σ_μ c^μ_{mn} r_μ
          (Bernstein.orbit_sum_product);
        - Θ̇ is linear, so Θ̇(t_x·t_y)·1_K = Σ_μ c_μ·(Θ̇(r_μ)·1_K);
        - h_x ∗_K h_y = h_x·h_y / P_J = (h_x·i_d·1_K) / P_{J,d}, because
          h_y = 1_K·i_d·1_K / P_{J,d} and h_x·1_K = P_J·h_x, which
          _kelt_rep(F, y) and _kelt_rep(F, x) certify; H is free over
          Z[v^±1] with P_{J,d} ≠ 0, so multiplying both sides by P_{J,d}
          changes no outcome: the identity holds exactly when
          Σ_μ (c_μ·P_{J,d})·(Θ̇(r_μ)·1_K) = h_x·i_d·1_K;
        - both sides have the form X·1_K, whose coefficients on a coset w'W_J
          all equal X's coset sum at w', and coset sums are linear in X; so the
          two sides are equal exactly when Σ_μ (c_μ·P_{J,d})·S_μ equals the
          coset sums of h_x·i_d, S_μ being the coset sums of Θ̇(r_μ)
          (memoized per μ for this call).
        S_μ comes from Bernstein.theta_coset_sums, which builds no Θ_m: for
        Θ_m = i_{t_{m+m∘}}·i_{t_{m∘}}^{-1} and t_{m∘} = v·u with v ∈ W_J and u
        shortest in W_J·u, i_v^{-1}·1_K = q_v^{-1}·1_K, so the coset sums of Θ_m
        are q_v^{-1} times those of i_{t_{m+m∘}}·i_u^{-1}
        (IwahoriHecke.inverse_coset_sums), and the ℓ(v) factors of the inverse
        are never applied.  Nothing is divided.
        """
        H, B = self.H, self.bern
        sums: dict = {}  # μ -> coset sums of Θ̇(r_μ)
        for i, rx in enumerate(table.rows):
            self._kelt_rep(F, rx.x)
            for ry in table.rows[i:]:
                d, P_d = self._kelt_rep(F, ry.x)
                coords: dict = {}  # μ -> raw c_μ
                for m, s in rx.entries:
                    for n, t in ry.entries:
                        _axpy(coords, B.orbit_sum_product(m, n), _mul(s.d, t.d))
                pairs = []
                for mu, c in coords.items():
                    S = sums.get(mu)
                    if S is None:
                        S = sums[mu] = H.exact_width(B.theta_coset_sums(B.orbit_sum_r(mu), F))
                    pairs.append((S, LaurentPoly.__new_raw__(_mul(c, P_d.d))))
                if H.lincomb(pairs) != H.coset_sums(H.mul(self.kelt(F, rx.x), H.basis(d)), F):
                    raise SolveInconsistent(
                        f"Satake transform not multiplicative at x={rx.x}, y={ry.x}"
                    )

    def satake_general(self, F: FacetType, z: HeckeElt) -> GroupAlgElt:
        """The unique Ẇ-invariant r with Θ̇(r) * 1_K = z (z central in the corner).

        z must be W_J-bi-invariant (NotCentral otherwise).  Centrality is not
        tested separately: the elimination clears only when z = Σ s_μ z_μ, and
        each z_μ passed center_elt's checks.  A bi-invariant z outside that
        span, central or not, raises SolveInconsistent.
        """
        W, d = self.W, self.datum
        if not self.is_biinvariant(F, z):
            raise NotCentral("element is not in the corner subalgebra")
        reps = {d.antidominant_rep(m) for m in {LatticeElt(w.free, w.tors) for w in z.d}}
        candidates: set = set()
        for mu in reps:
            candidates.update(self.datum.saturation_predecessors(mu))
        order = sorted(candidates, key=lambda mu: (-W.length(W.translation(mu)), mu))
        coeffs = [(mu, s) for mu, s in self._z_coords(F, z, order) if s is not None]
        return self.bern.from_orbit_sums(coeffs)

    # -- compatibility across nested facets -------------------------------------

    def lift_center(self, F_small: FacetType, F_big: FacetType, z: HeckeElt) -> HeckeElt:
        """z ∗_{K_small} 1_{K_big}: the unit-adjusted image into the bigger corner."""
        if not set(F_small.J) <= set(F_big.J):
            raise ValueError("facets are not nested")
        return self.H.mul_oneK(z, F_big, divisor=F_small.poincare)

    def compatibility_holds(self, F_small: FacetType, F_big: FacetType, m: LatticeElt) -> bool:
        """The Bernstein-Satake square commutes on the z-basis element at m.

        Its last edge, Θ̇(r_big)·1_{K_small} == z_small, is decided on coset
        sums over W_{J_small}.  Both sides have the form X·1_K: the left by
        definition, and z_small = Θ̇(r_m)·1_K by construction (center_elt), so
        it is constant on each coset and equals X·1_K for X = coset_reps(z_small).
        X·1_K has X's coset sum at w' on every element of w'W_J, so two such
        products are equal exactly when the coset sums of their X are.  On the
        left they are Bernstein.theta_coset_sums(r_big); on the right X is
        supported on shortest coset elements, so its coset sums are X itself.
        """
        z_small = self.center_elt(F_small, m)
        lifted = self.lift_center(F_small, F_big, z_small)
        if lifted != self.center_elt(F_big, m):
            return False
        r_small = self.satake_general(F_small, z_small)
        r_big = self.satake_general(F_big, lifted)
        if r_small != r_big:
            return False
        return self.bern.theta_coset_sums(r_big, F_small) == self.H.coset_reps(z_small, F_small)
