"""Weyl groups: elements, Bruhat order, inversions, covers, parabolic cosets.

An element is identified by its image w(rho) of the Weyl vector: rho is
regular, so the orbit map is injective and equality/hashing reduce to tuple
comparison.  The canonical reduced word is recovered from w(rho) by peeling
the smallest left descent (the i with coordinate < 0) until reaching rho;
each peel shortens the element by exactly one letter.

Each group interns its elements and memoises the group law on them, after
Casselman's integer Coxeter kernel (Invent. Math. 117, 1994): every element
carries a link s_i·w per node, filled on first use and set in both directions
(s_i² = e), so a product is a walk of links along the shorter factor's word.
Inverses and parabolic decompositions are memoised per group as well; weights
are still acted on by reflecting coordinates.

Everything is bounded: infinite groups are explored through cached BFS layers
guarded by a cap (KMCHEV_LAYER_CAP, default 100000).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .cartan import Coroot, Realization, Weight

DEFAULT_LAYER_CAP = 100_000


class WeylElt:
    """A Weyl group element: canonical reduced word plus its rho-image.

    ``left[i]`` is the element s_i·w once some product has needed it, else
    None; ``_inv`` caches the inverse the same way.
    """

    __slots__ = ("word", "rho", "W", "left", "_inv")

    def __init__(self, W: "WeylGroup", word: tuple[int, ...], rho: Weight):
        self.W = W
        self.word = word
        self.rho = rho
        self.left: list[WeylElt | None] = [None] * W.n
        self._inv: WeylElt | None = None

    @property
    def length(self) -> int:
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.rho == other.rho

    def __hash__(self):
        return hash(self.rho)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        return self.W.mult(self, other)

    def inv(self) -> "WeylElt":
        return self.W.inverse(self)

    @property
    def key(self):
        """Deterministic sort key: by length, then canonical word."""
        return (len(self.word), self.word)

    def __repr__(self):
        if not self.word:
            return "e"
        names = self.W.R.node_names
        return "*".join(f"s{names[i]}" for i in self.word)


@dataclass(frozen=True)
class Coset:
    """A coset wW_J, stored through its minimum-length representative."""

    rep: WeylElt
    J: frozenset

    def __repr__(self):
        return f"{self.rep!r}·W{{{','.join(sorted(map(str, self.J)))}}}"


class WeylGroup:
    def __init__(self, R: Realization, layer_cap: int | None = None):
        self.R = R
        self.n = R.n
        self.rho = R.rho
        if layer_cap is None:
            layer_cap = int(os.environ.get("KMCHEV_LAYER_CAP", DEFAULT_LAYER_CAP))
        self.layer_cap = layer_cap
        self.e = WeylElt(self, (), self.rho)
        self.e._inv = self.e
        self._elts: dict[Weight, WeylElt] = {self.rho: self.e}
        self._simple = tuple(self.lmul(i, self.e) for i in range(self.n))
        self._layers: list[list[WeylElt]] = [[self.e]]
        self._cocover_cache: dict[Weight, tuple] = {}
        self._coset_cache: dict[tuple, tuple[WeylElt, WeylElt]] = {}

    # -- construction ------------------------------------------------------

    def _from_rho(self, mu: Weight) -> WeylElt:
        """The element with rho-image mu, interning it and every element met
        while peeling its smallest left descents down to a known one."""
        elt = self._elts.get(mu)
        if elt is not None:
            return elt
        chain = []
        while elt is None:
            i = next(k for k in range(self.n) if mu[k] < 0)
            chain.append((i, mu))
            mu = self.R.simple_reflection(i, mu)
            elt = self._elts.get(mu)
        for i, mu in reversed(chain):
            up = WeylElt(self, (i,) + elt.word, mu)
            self._elts[mu] = up
            up.left[i] = elt
            elt.left[i] = up
            elt = up
        return elt

    def lmul(self, i: int, w: WeylElt) -> WeylElt:
        """s_i · w, through the memoised link."""
        u = w.left[i]
        if u is None:
            u = self._from_rho(self.R.simple_reflection(i, w.rho))
            w.left[i] = u
            u.left[i] = w
        return u

    def _walk(self, word, v: WeylElt) -> WeylElt:
        """s_{word[0]} ... s_{word[-1]} · v."""
        lmul = self.lmul
        for i in reversed(word):
            u = v.left[i]
            v = u if u is not None else lmul(i, v)
        return v

    def from_word(self, word) -> WeylElt:
        """Element with the given word (not necessarily reduced)."""
        return self._walk(tuple(word), self.e)

    def simple(self, i: int) -> WeylElt:
        return self._simple[i]

    # -- actions and products ----------------------------------------------

    def act(self, w: WeylElt, mu: Weight) -> Weight:
        for i in reversed(w.word):
            mu = self.R.simple_reflection(i, mu)
        return mu

    def act_coroot(self, w: WeylElt, beta: Coroot) -> Coroot:
        for i in reversed(w.word):
            beta = self.R.reflect_coroot(i, beta)
        return beta

    def mult(self, w: WeylElt, v: WeylElt) -> WeylElt:
        """w · v, walking the shorter factor: w·v = (v⁻¹·w⁻¹)⁻¹."""
        if len(w.word) <= len(v.word):
            return self._walk(w.word, v)
        return self.inverse(self._walk(self.inverse(v).word, self.inverse(w)))

    def inverse(self, w: WeylElt) -> WeylElt:
        u = w._inv
        if u is None:
            u = self._walk(w.word[::-1], self.e)
            w._inv = u
            u._inv = w
        return u

    def reflect_right(self, w: WeylElt, beta: Coroot) -> WeylElt:
        """w · s_beta."""
        return self._from_rho(self.act(w, self.R.coroot_reflection(beta, self.rho)))

    # -- Bruhat order --------------------------------------------------------

    def descents(self, w: WeylElt, side: str = "left") -> tuple[int, ...]:
        """Nodes i with s_i w < w (left) or w s_i < w (right)."""
        if side == "right":
            w = self.inverse(w)
        elif side != "left":
            raise ValueError(f"side must be 'left' or 'right', not {side!r}")
        return tuple(i for i in range(self.n) if w.rho[i] < 0)

    def bruhat_leq(self, v: WeylElt, w: WeylElt) -> bool:
        """v <= w, by stripping descents of w (one branch per step, so linear
        depth: with i a left descent of w, v <= w iff s_i v <= s_i w when
        s_i v < v, else iff v <= s_i w).
        """
        lmul = self.lmul
        while True:
            if len(v.word) > len(w.word):
                return False
            if v.rho == w.rho:
                return True
            if not w.word:
                return False
            i = w.word[0]
            w = lmul(i, w)
            if v.rho[i] < 0:
                v = lmul(i, v)

    def inversions(self, w: WeylElt) -> tuple[Coroot, ...]:
        """The positive coroots sent negative by w^{-1}; exactly length many.

        For a reduced word (i_1, ..., i_N) these are
        s_{i_N} ... s_{i_{k+1}} (alpha_{i_k}^vee) for k = N, ..., 1.
        """
        word = w.word
        out = []
        for k in range(len(word) - 1, -1, -1):
            beta = self.R.simple_coroots[word[k]]
            for j in word[k + 1:]:
                beta = self.R.reflect_coroot(j, beta)
            assert beta.is_positive()
            out.append(beta)
        return tuple(out)

    def cocovers(self, w: WeylElt) -> tuple:
        """All (v, beta) with v lessdot w and w = v s_beta, sorted by v."""
        cached = self._cocover_cache.get(w.rho)
        if cached is not None:
            return cached
        out = []
        for beta in self.inversions(w):
            v = self.reflect_right(w, beta)
            if v.length == w.length - 1:
                out.append((v, beta))
        out.sort(key=lambda pair: pair[0].key)
        result = tuple(out)
        self._cocover_cache[w.rho] = result
        return result

    # -- BFS layers ----------------------------------------------------------

    def layer(self, k: int) -> tuple[WeylElt, ...]:
        """All elements of length exactly k (may be empty in finite type)."""
        while len(self._layers) <= k:
            prev = self._layers[-1]
            nxt: dict[Weight, WeylElt] = {}
            for w in prev:
                for i in range(self.n):
                    u = self.lmul(i, w)
                    if u.length == len(self._layers):
                        nxt[u.rho] = u
            if len(nxt) > self.layer_cap:
                raise RuntimeError(
                    f"BFS layer {len(self._layers)} exceeds cap {self.layer_cap}"
                    " (raise KMCHEV_LAYER_CAP to override)"
                )
            self._layers.append(sorted(nxt.values(), key=lambda u: u.key))
        return tuple(self._layers[k])

    def bfs_ball(self, length_bound: int) -> list[WeylElt]:
        """All elements of length <= bound, sorted by (length, word)."""
        out: list[WeylElt] = []
        for k in range(length_bound + 1):
            lay = self.layer(k)
            if not lay:
                break
            out.extend(lay)
        return out

    def covers_within(self, z: WeylElt, length_bound: int) -> list[tuple[WeylElt, Coroot]]:
        """All covers (w, beta) of z with w = z s_beta and ℓ(w) <= bound."""
        if z.length + 1 > length_bound:
            return []
        out = []
        for w in self.layer(z.length + 1):
            for v, beta in self.cocovers(w):
                if v == z:
                    out.append((w, beta))
        return out

    # -- parabolic cosets ----------------------------------------------------

    def coset_decompose(self, w: WeylElt, J) -> tuple[WeylElt, WeylElt]:
        """w = w^J · w_J with w^J the minimum-length coset representative;
        built by stripping the smallest right descent lying in J (a left
        descent of w^{-1}), and memoised per (w, J)."""
        J = frozenset(J)
        key = (w.rho, J)
        hit = self._coset_cache.get(key)
        if hit is not None:
            return hit
        x, w_j = self.inverse(w), self.e
        while True:
            ds = [i for i in J if x.rho[i] < 0]
            if not ds:
                break
            i = min(ds)
            x = self.lmul(i, x)
            w_j = self.lmul(i, w_j)
        u = self.inverse(x)
        if u.length + w_j.length != w.length:
            raise RuntimeError(f"coset decomposition of {w!r} breaks l(w) = l(w^J) + l(w_J)")
        self._coset_cache[key] = (u, w_j)
        return u, w_j

    def coset_min_rep(self, w: WeylElt, J) -> Coset:
        return Coset(self.coset_decompose(w, J)[0], frozenset(J))

    def coset_leq(self, sigma: Coset, tau: Coset) -> bool:
        """Bruhat order on W/W_J, via the order on minimal representatives."""
        if sigma.J != tau.J:
            raise ValueError("cosets over different parabolics")
        return self.bruhat_leq(sigma.rep, tau.rep)

    def coset_mult_simple(self, i: int, tau: Coset) -> Coset:
        """The coset s_i · tau."""
        return self.coset_min_rep(self.lmul(i, tau.rep), tau.J)
