"""The extended affine Weyl group Λ ⋊ W₀.

Elements are canonical triples (free translation part, torsion part, finite
part); the finite part is an index into the enumerated finite Weyl group.
Length is the wall-crossing count through a fixed rational interior point of
the base alcove; reduced words are produced by greedy left descent with
lowest-index tie-break, ending in a length-zero element of Ω (which is never
enumerated, only decomposed against).  Reduced words are memoized for every
element on the descent path, and a descent stops at the first element already
memoized.  The weighted length L(x), with q_x = v^{2L(x)}, is summed over
that memoized word and kept in no table of its own.

The Bruhat order is the Coxeter order on the affine part, fiberwise over Ω:
two elements are comparable only when their Ω-parts coincide.

`intern` gives each element a dense int id on first sight (the identity is
0), and `by_id` maps ids back.  The table only grows.  The Hecke rewriting
engine keys its hot loops on these ids; ids follow first-seen order, so no
output may depend on them: every printed or stored order comes from
`sort_key`.

`format_elt` prints an element as t[λ]·w[word]; the group layer parses no
text (element expressions are read by `exprs`).
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import NamedTuple

from .rootdatum import Datum, LatticeElt, Vec

__all__ = ["ExtWeylElt", "AffineWeylGroup"]

_OMEGA_BOX = 2


class ExtWeylElt(NamedTuple):
    """Canonical form t_λ · u with λ = (free, tors) and u ∈ W₀ (by index)."""

    free: Vec
    tors: Vec
    w: int


class AffineWeylGroup:
    """Group operations, length, reduced words and Bruhat order for W̃."""

    def __init__(self, datum: Datum):
        self.datum = datum
        r, t = datum.r, len(datum.torsion)
        self.identity = ExtWeylElt((0,) * r, (0,) * t, 0)
        self._gens = {
            i: ExtWeylElt(vec, (0,) * t, wi) for i, (vec, wi) in datum.saff_real.items()
        }
        self._len: dict[ExtWeylElt, int] = {}
        self._red: dict[ExtWeylElt, tuple[tuple[int, ...], ExtWeylElt]] = {}
        self._omega_samples: list[ExtWeylElt] | None = None
        self._balls: dict[tuple[int, bool], list[ExtWeylElt]] = {}
        self._ids: dict[ExtWeylElt, int] = {}
        self.by_id: list[ExtWeylElt] = []
        self.intern(self.identity)

    # -- constructors ------------------------------------------------------

    def elt(self, free, tors=None, w: int = 0) -> ExtWeylElt:
        lam = self.datum.lattice(free, tors)
        return ExtWeylElt(lam.free, lam.tors, w)

    def translation(self, m: LatticeElt) -> ExtWeylElt:
        return ExtWeylElt(m.free, m.tors, 0)

    def finite(self, wi: int) -> ExtWeylElt:
        return ExtWeylElt(self.identity.free, self.identity.tors, wi)

    def gen(self, i: int) -> ExtWeylElt:
        if i not in self._gens:
            raise KeyError(f"no affine generator s{i}; have {sorted(self._gens)}")
        return self._gens[i]

    def intern(self, x: ExtWeylElt) -> int:
        """Dense id of x, assigned on first sight; by_id[intern(x)] == x."""
        n = self._ids.get(x)
        if n is None:
            n = self._ids[x] = len(self.by_id)
            self.by_id.append(x)
        return n

    # -- group structure ---------------------------------------------------

    def compose(self, x: ExtWeylElt, y: ExtWeylElt) -> ExtWeylElt:
        d = self.datum
        yf = y.free
        free = tuple([a + sum(map(mul, row, yf)) for a, row in zip(x.free, d.w_elems[x.w])])
        tors = tuple([(a + b) % n for a, b, n in zip(x.tors, y.tors, d.torsion)])
        return ExtWeylElt(free, tors, d.w_mult[x.w][y.w])

    def inverse(self, x: ExtWeylElt) -> ExtWeylElt:
        d = self.datum
        wi = d.w_inv[x.w]
        xf = x.free
        free = tuple([-sum(map(mul, row, xf)) for row in d.w_elems[wi]])
        tors = tuple([(-a) % n for a, n in zip(x.tors, d.torsion)])
        return ExtWeylElt(free, tors, wi)

    def word_to_elt(self, word) -> ExtWeylElt:
        out = self.identity
        for i in word:
            out = self.compose(out, self.gen(i))
        return out

    # -- length and reduced words -------------------------------------------

    def length(self, x: ExtWeylElt) -> int:
        ell = self._len.get(x)
        if ell is None:
            d = self.datum
            xf = x.free
            ell = self._len[x] = sum(
                [abs(sum(map(mul, beta, xf)) + f) for beta, f in zip(d.pos_roots, d.floor_tab[x.w])]
            )
        return ell

    def reduced_word(self, x: ExtWeylElt) -> tuple[tuple[int, ...], ExtWeylElt]:
        """Deterministic decomposition x = (Π word) · ω with ℓ(ω) = 0.

        The greedy descent stops at the first element whose word is already
        memoized and splices that word on; every element it passed through is
        memoized too.  word(y) = (i,) + word(s_i·y) for y's first descent i,
        which is what the greedy descent computes from s_i·y, so the memo
        never changes a word.
        """
        red = self._red
        got = red.get(x)
        if got is not None:
            return got
        path: list[tuple[ExtWeylElt, int]] = []  # (element, its first descent)
        cur = x
        ell = self.length(cur)
        while got is None and ell > 0:
            for i in self.datum.saff_indices:
                nxt = self.compose(self._gens[i], cur)
                nell = self.length(nxt)
                if nell < ell:
                    path.append((cur, i))
                    cur, ell = nxt, nell
                    break
            else:
                raise RuntimeError(f"no left descent at positive length: {x}")
            got = red.get(cur)
        if got is None:  # the descent reached ℓ = 0 at cur ∈ Ω
            got = red[cur] = ((), cur)
        word, om = got
        for y, i in reversed(path):
            word = (i,) + word
            got = red[y] = (word, om)
        return got

    def weighted_length(self, x: ExtWeylElt) -> int:
        """L(x) = Σ L(s_i) over x's memoized reduced word (q_x = v^{2L(x)})."""
        L = self.datum.L
        return sum([L[i] for i in self.reduced_word(x)[0]])

    # -- Bruhat order ---------------------------------------------------------

    def bruhat_le(self, x: ExtWeylElt, y: ExtWeylElt) -> bool:
        if x == y:
            return True
        lx, ly = self.length(x), self.length(y)
        if lx >= ly:
            return False
        for i in self.datum.saff_indices:
            sy = self.compose(self._gens[i], y)
            if self.length(sy) < ly:
                sx = self.compose(self._gens[i], x)
                if self.length(sx) < lx:
                    return self.bruhat_le(sx, sy)
                return self.bruhat_le(x, sy)
        raise RuntimeError("no descent found")  # pragma: no cover - unreachable for valid data

    # -- enumeration helpers ----------------------------------------------

    def omega_samples(self) -> list[ExtWeylElt]:
        """The length-zero elements with free coordinates in [−_OMEGA_BOX,
        _OMEGA_BOX], sorted: a deterministic sample (Ω is not enumerated)."""
        if self._omega_samples is None:
            d = self.datum
            out = []
            ranges = [range(-_OMEGA_BOX, _OMEGA_BOX + 1)] * d.r
            tors_space = list(itertools.product(*(range(n) for n in d.torsion))) or [()]
            for free in itertools.product(*ranges) if d.r else [()]:
                for tors in tors_space:
                    for wi in range(d.w_order):
                        x = ExtWeylElt(tuple(free), tuple(tors), wi)
                        if self.length(x) == 0:
                            out.append(x)
            out.sort()
            self._omega_samples = out
        return self._omega_samples

    def ball(self, max_length: int, with_omega: bool = True) -> list[ExtWeylElt]:
        """All W_aff elements of length ≤ max_length, decorated with the
        Ω-sample on the right when requested; sorted deterministically.
        Memoized per (max_length, with_omega): callers only read the list."""
        key = (max_length, with_omega)
        got = self._balls.get(key)
        if got is not None:
            return got
        if with_omega:
            aff = self.ball(max_length, False)
            out = {self.compose(x, om) for om in self.omega_samples() for x in aff}
        else:
            out = {self.identity}
            frontier = [self.identity]
            k = 0
            while frontier and k < max_length:
                new = []
                for x in frontier:
                    for i in self.datum.saff_indices:
                        y = self.compose(x, self._gens[i])
                        if y not in out and self.length(y) == k + 1:
                            out.add(y)
                            new.append(y)
                frontier = new
                k += 1
        got = self._balls[key] = sorted(out, key=self.sort_key)
        return got

    def sort_key(self, x: ExtWeylElt):
        word, om = self.reduced_word(x)
        return (self.length(x), word, om)

    # -- textual form ------------------------------------------------------

    def format_elt(self, x: ExtWeylElt) -> str:
        free = ",".join(str(c) for c in x.free)
        if self.datum.torsion:
            tors = ",".join(str(c) for c in x.tors)
            lam = f"{free};{tors}" if free else f";{tors}"
        else:
            lam = free
        word = ",".join(str(i) for i in self.datum.w_word[x.w])
        return f"t[{lam}]·w[{word}]"
