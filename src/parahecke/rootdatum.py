"""The static arena: a root datum with torsion and parameters.

The configuration supplies a lattice Z^r ⊕ (⊕ Z/n_i), simple roots (integer
functionals on Z^r), simple coroots (vectors) and a positive-integer parameter
per affine generator.  The rest is computed from the roots and coroots: the
simple reflections s_i(λ) = λ − ⟨α_i, λ⟩·α_i∨, which fix the torsion, and the
highest root of each irreducible component, which gives its affine reflection.
Validation checks the outside input, including that each component's Cartan
matrix is of finite type.  The derived tables then follow from textbook
formulas, which finite type makes total: the finite Weyl group (one
breadth-first search, whose right Cayley table gives the product and inverse
tables), the positive roots with their coroots and simple-root coefficients
(one search from the simple roots), the affine Coxeter matrix (from the Cartan
pairings), and the length function's floor table (from the inversion sets).

Construction is validation: `Datum(cfg)` either returns a validated datum or
raises its typed `ParaheckeError`.  `load_datum_file` is the one place where
outside input becomes a `Datum`: any failure to decode, parse or validate the
file's contents is raised as `ValidationError("datum NAME: Type: msg")`, NAME
being the path until the file has supplied a name.

Dominance convention: "antidominant" is the cone pairing ≤ 0 against every
simple root.  The saturation order on antidominant elements is

    m ≼ x  ⟺  m − x is a nonnegative integer combination of simple coroots,

so the zero element is the minimum and predecessor sets are finite.
"""

from __future__ import annotations

import itertools
import json
import math
from operator import mul
from typing import NamedTuple

from .errors import (
    InfiniteFiniteWeyl,
    NonCrystallographic,
    NotAntidominant,
    ParameterBraidMismatch,
    ValidationError,
)

__all__ = [
    "LatticeElt",
    "RootDatum",
    "Datum",
    "load_datum_file",
    "bundled_datum_path",
    "load_bundled",
    "BUNDLED_NAMES",
]

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]

# the backstop of the W0 enumeration: finite type is decided before it runs
_MAX_WEYL_ORDER = 100000


class LatticeElt(NamedTuple):
    """Element of Λ = Z^r ⊕ torsion; residues always reduced."""

    free: Vec
    tors: Vec


def dot(covec: Vec, vec: Vec) -> int:
    return sum(map(mul, covec, vec))


def mat_mul(a: Mat, b: Mat) -> Mat:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _reflection(root: Vec, coroot: Vec) -> Mat:
    """λ ↦ λ − ⟨root, λ⟩·coroot as a matrix: δ_jk − coroot[j]·root[k]."""
    r = len(root)
    return tuple(tuple(int(j == k) - coroot[j] * root[k] for k in range(r)) for j in range(r))


def _row_reduce(m: list[list[int]], ncols: int) -> list[int]:
    """Bring the integer matrix m to echelon form in place without fractions:
    each pivot column is zero outside its pivot row (whose entry need not be
    1), and rows are only combined and scaled by nonzero integers, so the
    solution set stays the same.  Pivots only in the first ncols columns;
    returns the pivot columns."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead_row = m[rank]
        lead = lead_row[col]
        for i in range(len(m)):
            f = m[i][col]
            if i != rank and f != 0:
                row = [lead * a - f * b for a, b in zip(m[i], lead_row)]
                g = math.gcd(*row)  # keeps the entries from growing
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    return pivots


def _solve(rows: list[list[int]], rhs: list[int]) -> tuple[Vec, int] | None:
    """One exact solution x of rows·x = rhs with free variables set to 0, as
    (ints, den) with x = ints/den and den the least common denominator; None
    when there is no solution."""
    ncols = len(rows[0]) if rows else 0
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = _row_reduce(m, ncols)
    if any(row[-1] != 0 for row in m[len(pivots):]):
        return None
    # x[col] = b / lead for the pivot row's lead and right-hand side b
    quots = [(col, m[i][-1], m[i][col]) for i, col in enumerate(pivots)]
    den = math.lcm(*(d // math.gcd(d, b) for _, b, d in quots))
    ints = [0] * ncols
    for col, b, d in quots:
        ints[col] = b * den // d
    return tuple(ints), den


def _int_coords(vectors: tuple[Vec, ...], target: Vec) -> Vec | None:
    """Integer coordinates of target over the linearly independent vectors, if any."""
    got = _solve([[v[k] for v in vectors] for k in range(len(target))], list(target))
    if got is None or got[1] != 1:
        return None
    return got[0]


class RootDatum(NamedTuple):
    """Raw configuration, exactly as ingested from a datum file (immutable)."""

    name: str
    free_rank: int
    torsion_invariants: tuple[int, ...]
    simple_coroots: tuple[Vec, ...]
    simple_roots: tuple[Vec, ...]
    affine_parameters: dict
    antidominant_generators: tuple[Vec, ...] = ()
    description: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> "RootDatum":
        """The configuration in a decoded datum file.  Integer fields take JSON
        integers only (no bool, float or string, which int() would convert);
        anything else raises TypeError.  Unknown keys are ignored."""
        def num(key, x):
            if type(x) is not int:
                raise TypeError(f"{key} takes JSON integers only, not {x!r}")
            return x

        def vecs(key):
            return tuple(tuple(num(key, x) for x in row) for row in d.get(key, ()))

        return cls(
            name=str(d.get("name", "unnamed")),
            description=str(d.get("description", "")),
            free_rank=num("free_rank", d["free_rank"]),
            torsion_invariants=tuple(num("torsion_invariants", x) for x in d.get("torsion_invariants", ())),
            simple_coroots=vecs("simple_coroots"),
            simple_roots=vecs("simple_roots"),
            affine_parameters={
                k: num("affine_parameters", v) for k, v in dict(d.get("affine_parameters", {})).items()
            },
            antidominant_generators=vecs("antidominant_generators"),
        )


class Datum:
    """Validated root datum with all derived combinatorial tables."""

    def __init__(self, cfg: RootDatum):
        self.cfg = cfg
        self.name = cfg.name
        self.r = cfg.free_rank
        self.torsion = cfg.torsion_invariants
        self.n_simple = len(cfg.simple_roots)
        self._check_shapes()
        self.simple_roots = cfg.simple_roots
        self.simple_coroots = cfg.simple_coroots
        self.gens: tuple[Mat, ...] = tuple(map(_reflection, self.simple_roots, self.simple_coroots))
        self._check_crystallographic()
        self._split_components()
        self._check_finite_type()
        self._enumerate_weyl()
        self._enumerate_roots()
        self._build_saff()
        self._read_parameters()
        self._build_cone_data()
        self.zero = LatticeElt((0,) * self.r, (0,) * len(self.torsion))
        self._pred_cache: dict = {}
        # the configuration as canonical JSON: equal exactly for equal
        # configurations, so it keys the engine registry
        self.canonical_json = json.dumps(cfg._asdict(), sort_keys=True).encode()

    # ------------------------------------------------------------------
    # validation passes

    def _check_shapes(self):
        cfg = self.cfg
        if cfg.free_rank < 0:
            raise ValidationError("free_rank must be nonnegative")
        if any(n < 2 for n in cfg.torsion_invariants):
            raise ValidationError("torsion invariants must be >= 2")
        n = self.n_simple
        if len(cfg.simple_coroots) != n:
            raise ValidationError("simple_roots and simple_coroots must have equal length")
        for v in cfg.simple_coroots + cfg.simple_roots:
            if len(v) != cfg.free_rank:
                raise ValidationError("root/coroot vectors must have length free_rank")

    def _check_crystallographic(self):
        n, r = self.n_simple, self.r
        for i in range(n):
            if dot(self.simple_roots[i], self.simple_coroots[i]) != 2:
                raise NonCrystallographic(f"<coroot_{i}, root_{i}> must equal 2")
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                a = dot(self.simple_roots[i], self.simple_coroots[j])
                b = dot(self.simple_roots[j], self.simple_coroots[i])
                if a > 0 or b > 0 or a * b not in (0, 1, 2, 3) or (a == 0) != (b == 0):
                    raise NonCrystallographic(f"pairing of simples {i},{j} fails crystallographic bounds")
        for vecs, label in ((self.simple_coroots, "coroots"), (self.simple_roots, "roots")):
            if vecs and len(_row_reduce([list(v) for v in vecs], r)) != n:
                raise NonCrystallographic(f"simple {label} are linearly dependent")

    def _check_finite_type(self):
        """Each component's Cartan matrix a_ij = <α_j, α_i∨> must be of finite
        type, or its Weyl group is infinite (Kac, Infinite dimensional Lie
        algebras, Prop. 4.9): symmetrizable as d_i·a_ij = d_j·a_ji with d_i > 0,
        and D·A positive definite.  Decided on ints: the d_i are spread along
        the component and scaled to stay integral, and Sylvester's criterion
        reads the leading principal minors of D·A off fraction-free
        (Bareiss) elimination."""
        for comp in self.components:
            n = len(comp)
            a = [[dot(self.simple_roots[j], self.simple_coroots[i]) for j in comp] for i in comp]
            d = [1] + [0] * (n - 1)
            stack = [0]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if a[i][j] and not d[j]:
                        if d[i] * a[i][j] % a[j][i]:
                            d = [x * -a[j][i] for x in d]
                        d[j] = d[i] * a[i][j] // a[j][i]
                        stack.append(j)
            m = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
            if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
                raise InfiniteFiniteWeyl(f"Cartan matrix of simples {comp} is not symmetrizable, so W0 is infinite")
            prev = 1
            for k in range(n):
                if m[k][k] <= 0:
                    raise InfiniteFiniteWeyl(f"Cartan matrix of simples {comp} is not of finite type, so W0 is infinite")
                for i in range(k + 1, n):
                    for j in range(k + 1, n):
                        m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                prev = m[k][k]

    def _enumerate_weyl(self):
        """W0 by breadth-first search over the simple reflections, with
        shortlex-least words, and its right Cayley table: w_right[w][i] is the
        index of w·s_{i+1}, so w_right[0][i] is that of s_{i+1}.  Every element
        b but the identity is first reached as p·s_{g+1} from an earlier p, so
        a·b = (a·p)·s_{g+1} = w_right[w_mult[a][p]][g], filled in BFS order
        with no matrix product.  W0 is finite, so its longest element is
        unique (Humphreys, Reflection groups and Coxeter groups, §1.8)."""
        ident = tuple(tuple(int(i == j) for j in range(self.r)) for i in range(self.r))
        elems = [ident]
        index = {ident: 0}
        words: list[tuple[int, ...]] = [()]
        reached: list[tuple[int, int]] = []  # (p, g) of each b > 0, in BFS order
        right: list[list[int]] = []
        while len(right) < len(elems):  # elems grows until each element has its row
            wi = len(right)
            row = []
            for gi, g in enumerate(self.gens):
                prod = mat_mul(elems[wi], g)
                if prod not in index:
                    index[prod] = len(elems)
                    elems.append(prod)
                    words.append(words[wi] + (gi + 1,))
                    reached.append((wi, gi))
                    if len(elems) > _MAX_WEYL_ORDER:
                        raise InfiniteFiniteWeyl(f"finite Weyl enumeration exceeded {_MAX_WEYL_ORDER}")
                row.append(index[prod])
            right.append(row)
        self.w_elems: list[Mat] = elems
        self.w_index = index
        self.w_word = words
        self.w_right = right
        self.w_len = [len(w) for w in words]
        self.w_order = len(elems)
        self.w_mult = []
        for a in range(self.w_order):
            row = [a]
            for p, g in reached:
                row.append(right[row[p]][g])
            self.w_mult.append(row)
        self.w_inv = [row.index(0) for row in self.w_mult]
        self.longest_w = max(range(self.w_order), key=lambda i: (self.w_len[i], i))

    def act_w(self, wi: int, vec: Vec) -> Vec:
        return tuple([sum(map(mul, row, vec)) for row in self.w_elems[wi]])

    def _enumerate_roots(self):
        """The positive roots with their simple-root coefficients and coroots,
        by one search from the simple roots: s_i sends β to β − ⟨β,α_i∨⟩α_i,
        its coefficients c to c − ⟨β,α_i∨⟩e_i and β∨ to β∨ − ⟨α_i,β∨⟩α_i∨.
        s_i permutes the positive roots other than α_i, and a nonsimple one is
        s_i of a lower one, so the search meets them all and no other
        (Humphreys, Reflection groups and Coxeter groups, §1.4–1.6).  Carried
        coefficients need no solve; each root has them of one sign (Bourbaki,
        Lie groups VI §1.6, Thm. 3), and Φ = −Φ.

        Then the length function's floor table: floor_tab[u][k] is
        ⌊⟨u(p), β_k⟩⌋ = ⌊⟨p, β_k∘u⟩⌋ for any p in the open base alcove, where
        0 < ⟨p, γ⟩ < 1 for every γ > 0.  β∘u = u⁻¹(β) is a root, so the entry
        is 0 when it is positive and −1 when it is not: −1 exactly on the
        inversion set of u⁻¹ (Iwahori–Matsumoto 1965; Bourbaki, Lie groups VI
        §1.6)."""
        n, simples = self.n_simple, list(zip(self.simple_roots, self.simple_coroots))
        # positive root -> (simple-root coefficients, coroot)
        found = {alpha: (tuple(int(j == i) for j in range(n)), cov) for i, (alpha, cov) in enumerate(simples)}
        stack = list(found)
        while stack:
            beta = stack.pop()
            coeffs, cov = found[beta]
            for i, (alpha, acov) in enumerate(simples):
                p = dot(beta, acov)
                nb = tuple([x - p * y for x, y in zip(beta, alpha)])
                if beta != alpha and nb not in found:
                    q = dot(alpha, cov)
                    found[nb] = (
                        tuple([c - p * (j == i) for j, c in enumerate(coeffs)]),
                        tuple([x - q * y for x, y in zip(cov, acov)]),
                    )
                    stack.append(nb)
        self.pos_roots = tuple(sorted(found, key=lambda beta: (sum(found[beta][0]), beta)))
        self.pos_root_coeffs = {beta: found[beta][0] for beta in self.pos_roots}
        self.root_coroot = {beta: found[beta][1] for beta in self.pos_roots}
        self.floor_tab = [
            tuple([0 if tuple([dot(beta, col) for col in cols]) in found else -1 for beta in self.pos_roots])
            for cols in (tuple(zip(*u)) for u in self.w_elems)
        ]

    def _split_components(self):
        """The irreducible components: one walk over the nonzero pairings
        ⟨α_j, α_i∨⟩ (zero exactly when ⟨α_i, α_j∨⟩ is), from each simple root
        not yet placed, in order, so the components come sorted by their
        first simple root."""
        n = self.n_simple
        self.components = []
        placed = set()
        for start in range(n):
            if start in placed:
                continue
            placed.add(start)
            comp, stack = [], [start]
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(n):
                    if j not in placed and dot(self.simple_roots[j], self.simple_coroots[i]):
                        placed.add(j)
                        stack.append(j)
            self.components.append(sorted(comp))

    def _build_saff(self):
        """Affine generators: finite simples are 1..n; component c gets the
        affine index 0 (c = 0) or n + c (c >= 1), the reflection in its highest
        root θ_c.  θ_c is the component's positive root of greatest height,
        which is unique (Bourbaki, Lie groups VI §1.8) and has full support on
        the component, so it is the last of pos_roots (sorted by height) with
        a nonzero coefficient at the component's first simple root."""
        n = self.n_simple
        self.theta = [
            [beta for beta in self.pos_roots if self.pos_root_coeffs[beta][comp[0]]][-1]
            for comp in self.components
        ]
        # the root and coroot of each generator's linear part, a reflection
        refl_roots = {
            0 if ci == 0 else n + ci: (theta, self.root_coroot[theta]) for ci, theta in enumerate(self.theta)
        }
        refl_roots.update((i + 1, pair) for i, pair in enumerate(zip(self.simple_roots, self.simple_coroots)))
        # (translation, W0 index): s_i fixes 0, and s0 is t_{θ∨}·s_θ
        self.saff_real: dict[int, tuple[Vec, int]] = {
            idx: ((0,) * self.r if 0 < idx <= n else cov, self.w_index[_reflection(root, cov)])
            for idx, (root, cov) in refl_roots.items()
        }
        self.saff_indices = sorted(self.saff_real)
        self.coxeter_matrix = self._affine_coxeter_matrix(refl_roots)

    def _affine_coxeter_matrix(self, refl_roots: dict) -> dict:
        """m(s_a, s_b) for a < b, None for ∞, from p = ⟨β_a,β_b∨⟩·⟨β_b,β_a∨⟩ with
        β_a the root of s_a's linear part (θ_c for an affine generator: its
        affine root 1 − θ_c gives the same p).  The walls of s_a and s_b meet
        at the angle π/m for p = 0, 1, 2, 3 and m = 2, 3, 4, 6, and are
        parallel for p = 4 (Bourbaki, Lie groups VI §1.3)."""
        out = {}
        for a in self.saff_indices:
            for b in self.saff_indices:
                if a < b:
                    (ra, ca), (rb, cb) = refl_roots[a], refl_roots[b]
                    out[(a, b)] = (2, 3, 4, 6, None)[dot(ra, cb) * dot(rb, ca)]
        return out

    def _read_parameters(self):
        params = self.cfg.affine_parameters
        want = {f"s{i}" for i in self.saff_indices}
        if set(params) != want:
            raise ValidationError(f"affine_parameters must have exactly the keys {sorted(want)}")
        self.L = {}
        for i in self.saff_indices:
            val = int(params[f"s{i}"])
            if val < 1:
                raise ValidationError("parameters must be positive integers")
            self.L[i] = val
        for (a, b), order in self.coxeter_matrix.items():
            if order is not None and order % 2 == 1 and self.L[a] != self.L[b]:
                raise ParameterBraidMismatch(
                    f"generators s{a}, s{b} satisfy an odd braid relation (m={order}) but have parameters "
                    f"{self.L[a]} != {self.L[b]}"
                )

    def _build_cone_data(self):
        """Antidominant fundamental generators ϖ_i (⟨ϖ_i, α_j⟩ = -k_i δ_ij),
        whose solve cannot fail since the simple roots are independent, and
        2ρ = Σ_{β>0} β, which bounds the saturation enumeration: ⟨ρ, α_j∨⟩ = 1
        for every simple coroot (Bourbaki, Lie groups VI §1.10)."""
        n = self.n_simple
        self.fund_antidom: list[tuple[Vec, int]] = [
            _solve([list(self.simple_roots[j]) for j in range(n)], [-1 if j == i else 0 for j in range(n)])
            for i in range(n)
        ]
        self.strict_antidom: Vec = tuple(sum(v[k] for v, _ in self.fund_antidom) for k in range(self.r))
        self.height_functional: Vec = tuple(sum(b[k] for b in self.pos_roots) for k in range(self.r))
        ad_gens = self.cfg.antidominant_generators or ((self.strict_antidom,) if n else ())
        for g in ad_gens:
            if len(g) != self.r:
                raise ValidationError("antidominant_generators must be free vectors of length free_rank")
            if not self._free_antidominant(g):
                raise ValidationError(f"configured antidominant generator {g} is not antidominant")
            if all(x == 0 for x in g):
                raise ValidationError("antidominant generators must be nonzero")
        self.antidom_gens: tuple[Vec, ...] = tuple(ad_gens)

    # ------------------------------------------------------------------
    # lattice operations

    def lattice(self, free, tors=None) -> LatticeElt:
        free = tuple(int(x) for x in free)
        if len(free) != self.r:
            raise ValueError(f"free part must have length {self.r}")
        t = tuple(int(x) for x in (tors or ()))
        if len(t) < len(self.torsion):
            t = t + (0,) * (len(self.torsion) - len(t))
        if len(t) != len(self.torsion):
            raise ValueError("torsion part has wrong arity")
        t = tuple(x % n for x, n in zip(t, self.torsion))
        return LatticeElt(free, t)

    def add(self, a: LatticeElt, b: LatticeElt) -> LatticeElt:
        return LatticeElt(
            tuple(x + y for x, y in zip(a.free, b.free)),
            tuple((x + y) % n for x, y, n in zip(a.tors, b.tors, self.torsion)),
        )

    def neg(self, a: LatticeElt) -> LatticeElt:
        return LatticeElt(
            tuple(-x for x in a.free),
            tuple((-x) % n for x, n in zip(a.tors, self.torsion)),
        )

    def act(self, wi: int, m: LatticeElt) -> LatticeElt:
        return LatticeElt(self.act_w(wi, m.free), m.tors)

    def _free_antidominant(self, free: Vec) -> bool:
        for alpha in self.simple_roots:
            if sum(map(mul, alpha, free)) > 0:
                return False
        return True

    def is_antidominant(self, m: LatticeElt) -> bool:
        return self._free_antidominant(m.free)

    def in_coroot_lattice(self, m: LatticeElt) -> Vec | None:
        """Integer coordinates of m over the simple coroots, if any."""
        if any(m.tors):
            return None
        return _int_coords(self.simple_coroots, m.free)

    def saturation_predecessors(self, x: LatticeElt) -> list[LatticeElt]:
        """All antidominant m with m − x an N-combination of simple coroots."""
        return [m for m, _ in self.saturation_predecessors_ranked(x)]

    def saturation_predecessors_ranked(self, x: LatticeElt) -> list[tuple[LatticeElt, int]]:
        """Predecessors with their rank Σn_α, sorted by (rank, free part)."""
        if x in self._pred_cache:
            return self._pred_cache[x]
        if not self.is_antidominant(x):
            raise NotAntidominant(f"{x} is not antidominant")
        n = self.n_simple
        # m = x + Σ c_j α_j∨ antidominant gives Σ c_j = ⟨ρ, m − x⟩ ≤ −⟨ρ, x⟩
        bound = -dot(self.height_functional, x.free) // 2
        found = []
        for total in range(0, bound + 1):
            for c in _compositions(total, n):
                free = tuple(
                    x.free[k] + sum(c[j] * self.simple_coroots[j][k] for j in range(n))
                    for k in range(self.r)
                )
                if self._free_antidominant(free):
                    found.append((LatticeElt(free, x.tors), total))
        found.sort(key=lambda p: (p[1], p[0].free))
        self._pred_cache[x] = found
        return found

    def saturation_le(self, m: LatticeElt, x: LatticeElt) -> bool:
        """m ≼ x in the saturation order (both antidominant)."""
        if not (self.is_antidominant(m) and self.is_antidominant(x)):
            raise NotAntidominant("saturation order compares antidominant elements")
        if m.tors != x.tors:
            return False
        diff = LatticeElt(tuple(a - b for a, b in zip(m.free, x.free)), (0,) * len(self.torsion))
        coords = self.in_coroot_lattice(diff)
        return coords is not None and all(c >= 0 for c in coords)

    def orbit(self, m: LatticeElt) -> list[LatticeElt]:
        """The W₀-orbit, sorted."""
        seen = {m}
        frontier = [m]
        while frontier:
            new = []
            for x in frontier:
                for si in self.w_right[0]:
                    y = self.act(si, x)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return sorted(seen)

    def antidominant_rep(self, m: LatticeElt) -> LatticeElt:
        reps = [x for x in self.orbit(m) if self.is_antidominant(x)]
        if len(reps) != 1:
            raise NotAntidominant(f"orbit of {m} has {len(reps)} antidominant representatives")
        return reps[0]

    def antidominant_set(self, height: int) -> list[tuple[LatticeElt, int]]:
        """Antidominant elements of height ≤ H with their heights, sorted.

        The height of x is the least Σn_i over expansions x = Σ n_i g_i in the
        configured antidominant generators, crossed with every torsion tuple.
        """
        if height < 0:
            raise ValueError("height bound must be >= 0")
        gens = self.antidom_gens
        best: dict[Vec, int] = {(0,) * self.r: 0}
        for total in range(1, height + 1):
            for c in _compositions(total, len(gens)):
                free = tuple(sum(c[j] * gens[j][k] for j in range(len(gens))) for k in range(self.r))
                if free not in best:
                    best[free] = total
        tors_space = list(itertools.product(*(range(n) for n in self.torsion)))
        out = []
        for free, h in best.items():
            for t in tors_space:
                out.append((LatticeElt(free, tuple(t)), h))
        out.sort(key=lambda p: (p[1], p[0]))
        return out

    # ------------------------------------------------------------------

    def omega_data(self) -> dict:
        """Ω-relevant invariants: how far Λ is from the coroot lattice."""
        n = self.n_simple
        d, _ = smith_normal_form([list(v) for v in self.simple_coroots])
        return {
            "free_rank": self.r,
            "coroot_rank": n,
            "omega_free_rank": self.r - n,
            "coroot_index_divisors": [x for x in d if x not in (0, 1)],
            "torsion_invariants": list(self.torsion),
        }

    def __repr__(self):
        return f"Datum({self.name}, |W0|={self.w_order}, rank={self.r}, torsion={list(self.torsion)})"


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def smith_normal_form(m: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Diagonalize m by unimodular row/column operations.

    Returns (diag, V) where V is the accumulated right (column) transform,
    so that the quotient Z^cols / rowspace(m) is ⊕ Z/diag[j] in coordinates
    x ↦ x·V.  Only the column transform is tracked; rows are not needed.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    diag = []

    def col_op(j1, j2, f):  # col_j2 -= f * col_j1
        for i in range(rows):
            m[i][j2] -= f * m[i][j1]
        for i in range(cols):
            v[i][j2] -= f * v[i][j1]

    def col_swap(j1, j2):
        for i in range(rows):
            m[i][j1], m[i][j2] = m[i][j2], m[i][j1]
        for i in range(cols):
            v[i][j1], v[i][j2] = v[i][j2], v[i][j1]

    t = 0
    while t < min(rows, cols):
        # locate a nonzero pivot of minimal magnitude
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        if bj != t:
            col_swap(t, bj)
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                f = m[i][t] // m[t][t]
                for j in range(cols):
                    m[i][j] -= f * m[t][j]
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                f = m[t][j] // m[t][t]
                col_op(t, j, f)
                if m[t][j]:
                    dirty = True
        if dirty or any(m[i][t] for i in range(t + 1, rows)) or any(m[t][j] for j in range(t + 1, cols)):
            continue
        t += 1
    for j in range(cols):
        diag.append(abs(m[j][j]) if j < rows else 0)
    return diag, v


# ----------------------------------------------------------------------
# bundled data

BUNDLED_NAMES = ("a1", "a1_torsion2", "gl2", "a2", "c2", "a1_unequal")


def bundled_datum_path(name: str) -> str:
    import os

    return os.path.join(os.path.dirname(__file__), "data", f"{name}.json")


def load_datum_file(path: str) -> Datum:
    """The validated datum in the file at path (see the module docstring).

    A file that cannot be read raises OSError; every defect of its contents
    raises ValidationError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    name = path
    try:
        cfg = RootDatum.from_dict(json.loads(blob.decode("utf-8")))
        name = cfg.name
        return Datum(cfg)
    except Exception as exc:  # noqa: BLE001 - outside input: any defect is a validation error
        raise ValidationError(f"datum {name}: {type(exc).__name__}: {exc}") from exc


def load_bundled(name: str) -> Datum:
    if name not in BUNDLED_NAMES:
        raise ValueError(f"unknown bundled datum {name!r}; choose from {BUNDLED_NAMES}")
    return load_datum_file(bundled_datum_path(name))
