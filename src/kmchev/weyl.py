"""Weyl groups: elements, Bruhat order, covers and cocovers, coset representatives.

An element is identified by its image w(rho) of the Weyl vector: rho is
regular, so the orbit map is injective.  The canonical reduced word is
recovered from w(rho) by peeling the smallest left descent (the i with
coordinate < 0) until reaching rho; each peel shortens the element by exactly
one letter.

Each group interns its elements, so they compare and hash by identity (match
elements of two groups by rho), and memoises the group law on them, after
Casselman's integer Coxeter kernel (Invent. Math. 117, 1994): the group keeps
a table of links w -> s_i·w per node, filled on first use and set in both
directions (s_i² = e), so an element is built from a word by a walk of links.
Images w(lam) and minimal coset representatives are memoised per group as
well; other weights are acted on by reflecting coordinates.  An element
refers to no group and to no other element, so a group and all it interned
are freed by reference counting once its last user lets go.  A coset wW_lam
of the stabilizer of a dominant lam is named by lam itself: by the weight
w(lam), and ordered in W/W_lam by bruhat_leq on coset_min(w, lam).

Bruhat order, cocovers and covers come from the lifting property (Deodhar,
Invent. Math. 39, 1977): for a left descent i of w, v <= w iff s_i v <= s_i w
when s_i v < v, else iff v <= s_i w.  So cocovers and covers take one
memoised step per element each, and no layer of the group is ever listed.

KMCHEV_CAP (default 100000), read once per group as W.cap, bounds the work
where it is made: the alcove walk, the LS root operators and T_i (CapError).
"""
from __future__ import annotations

import os

from .cartan import Coroot, Realization, Weight

DEFAULT_CAP = 100_000


class CapError(RuntimeError):
    """KMCHEV_CAP is not an int >= 0, or some work outgrew the cap."""


def env_cap() -> int:
    """The cap KMCHEV_CAP sets, else the default."""
    text = os.environ.get("KMCHEV_CAP", str(DEFAULT_CAP))
    if not (text.isascii() and text.isdigit()):
        raise CapError(f"KMCHEV_CAP must be an int >= 0, not {text!r}")
    return int(text)


def over_cap(what: str, count: int, cap: int) -> CapError:
    """The error for a count of `what` above the cap, naming the knob that raises it."""
    return CapError(f"{what}: {count} exceeds cap {cap} (raise KMCHEV_CAP to override)")


class WeylElt:
    """A Weyl group element: canonical reduced word plus its rho-image, and
    the realization's node names for repr.  Its links live in its group."""

    __slots__ = ("word", "rho", "names")

    def __init__(self, word: tuple[int, ...], rho: Weight, names: tuple[str, ...]):
        self.word = word
        self.rho = rho
        self.names = names

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def key(self):
        """Deterministic sort key: by length, then canonical word."""
        return (len(self.word), self.word)

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join(f"s{self.names[i]}" for i in self.word)


class WeylGroup:
    def __init__(self, R: Realization):
        self.R = R
        self.n = R.n
        self.rho = R.rho
        self.cap = env_cap()
        self.e = WeylElt((), self.rho, R.node_names)
        self._elts: dict[Weight, WeylElt] = {self.rho: self.e}
        self._left: dict[int, dict[WeylElt, WeylElt]] = {i: {} for i in range(self.n)}  # _left[i][w] is s_i·w
        self._cocover_cache: dict[WeylElt, tuple] = {self.e: ()}
        self._cover_cache: dict[WeylElt, tuple] = {}
        self._images: dict[tuple, Weight] = {}  # (w, lam) -> w(lam)
        self._coset_cache: dict[tuple, WeylElt] = {}  # (w, lam) -> minimal representative of wW_lam

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
            up = self._elts[mu] = WeylElt((i,) + elt.word, mu, self.R.node_names)
            self._left[i][up] = elt
            self._left[i][elt] = up
            elt = up
        return elt

    def lmul(self, i: int, w: WeylElt) -> WeylElt:
        """s_i · w, through the memoised link; ValueError for an i that is not
        a node, which misses the tables keyed by node before any link is stored."""
        try:
            left = self._left[i]
        except KeyError:
            raise ValueError(f"{i!r} is not a node: the nodes are 0..{self.n - 1}") from None
        u = left.get(w)
        if u is None:
            u = left[w] = self._from_rho(self.R.simple_reflection(i, w.rho))
            left[u] = w
        return u

    def from_word(self, word) -> WeylElt:
        """Element with the given word (not necessarily reduced); ValueError for a letter that is not a node."""
        lmul, left, v, word = self.lmul, self._left, self.e, tuple(word)
        if bad := [i for i in word if i not in range(self.n)]:
            raise ValueError(f"letter {bad[0]!r} of {word} is not a node: the nodes are 0..{self.n - 1}")
        for i in reversed(word):
            v = left[i].get(v) or lmul(i, v)
        return v

    def check_element(self, w: WeylElt) -> None:
        """ValueError unless this group interned w: another group's element would misread its tables."""
        if self._elts.get(w.rho) is not w:
            raise ValueError(f"{w!r} is not an element of this group (match elements of two groups by rho)")

    # -- actions and products ----------------------------------------------

    def act(self, w: WeylElt, mu: Weight) -> Weight:
        for i in reversed(w.word):
            mu = self.R.simple_reflection(i, mu)
        return mu

    def image(self, w: WeylElt, lam: Weight) -> Weight:
        """w(lam), memoised per (w, lam)."""
        key = (w, lam)
        if (mu := self._images.get(key)) is None:
            mu = self._images[key] = self.act(w, lam)
        return mu

    # -- Bruhat order --------------------------------------------------------

    def bruhat_leq(self, v: WeylElt, w: WeylElt) -> bool:
        """v <= w, by stripping left descents of w through the lifting
        property (one branch per step, so linear depth)."""
        lmul = self.lmul
        while True:
            if len(v.word) > len(w.word):
                return False
            if v is w:
                return True
            if not w.word:
                return False
            i = w.word[0]
            w = lmul(i, w)
            if v.rho[i] < 0:
                v = lmul(i, v)

    def cocovers(self, w: WeylElt) -> tuple:
        """All (v, beta) with v lessdot w and w = v s_beta, sorted by v.

        With i = w.word[0] and u = s_i w, these are (u, u^{-1}(alpha_i^vee))
        and (s_i v, beta) for each cocover (v, beta) of u with s_i v > v (the
        module docstring's lifting property), built up from the longest
        memoised element below w along its word."""
        cache, R = self._cocover_cache, self.R
        chain, x = [], w
        while x not in cache:
            chain.append(x)
            x = self.lmul(x.word[0], x)
        for x in reversed(chain):
            i = x.word[0]
            u = self.lmul(i, x)
            beta = R.simple_coroots[i]
            for j in u.word:
                beta = R.reflect_coroot(j, beta)
            out = [(u, beta)] + [(self.lmul(i, v), gamma) for v, gamma in cache[u] if v.rho[i] > 0]
            out.sort(key=lambda pair: pair[0].key)
            cache[x] = tuple(out)
        return cache[w]

    def covers(self, z: WeylElt) -> tuple:
        """All (w, beta) with z lessdot w and w = z s_beta, sorted by w: the
        (s_j z, z^{-1}(alpha_j^vee)) over the left ascents j of z, and the
        (s_i w', beta) over every left descent i (not only the smallest) and
        every cover (w', beta) of s_i z with s_i w' > w'.  Memoised, the
        elements below z in the left weak order first."""
        cache, R, lmul = self._cover_cache, self.R, self.lmul
        stack = [z]
        while stack:
            x = stack.pop()
            if x in cache:
                continue
            below = [u for i in range(self.n) if x.rho[i] < 0 and (u := lmul(i, x)) not in cache]
            if below:
                stack += [x, *below]
                continue
            out: dict[WeylElt, Coroot] = {}
            for i in range(self.n):
                if x.rho[i] > 0:
                    beta = R.simple_coroots[i]
                    for j in x.word:
                        beta = R.reflect_coroot(j, beta)
                    out[lmul(i, x)] = beta
                else:
                    out.update((lmul(i, w), beta) for w, beta in cache[lmul(i, x)] if w.rho[i] > 0)
            cache[x] = tuple(sorted(out.items(), key=lambda pair: pair[0].key))
        return cache[z]

    # -- parabolic cosets ----------------------------------------------------

    def coset_min(self, w: WeylElt, lam: Weight) -> WeylElt:
        """The minimal representative of wW_lam for a dominant lam, memoised
        per (w, lam): the i with x(lam)[i] < 0 are the left descents of x's
        representative, so reflecting w(lam) at the smallest until dominant
        spells its canonical word.  A lam that is not dominant, for which that
        walk need not end, is refused (ValueError) when first met."""
        key = (w, lam)
        u = self._coset_cache.get(key)
        if u is None:
            self.R.check_dominant(lam)
            mu, word = self.image(w, lam), []
            while (i := next((k for k in range(self.n) if mu[k] < 0), None)) is not None:
                word.append(i)
                mu = self.R.simple_reflection(i, mu)
            u = self._coset_cache[key] = self.from_word(word)
        return u
