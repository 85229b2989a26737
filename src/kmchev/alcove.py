"""The alcove model: lambda-hyperplanes, the lex order, adapted sequences.

A lambda-hyperplane for a dominant weight lam is a pair (alpha, k) with alpha
a positive real coroot and 0 <= k < <alpha, lam>.  The lex chain orders all of
them by the vector (1/<alpha,lam>) * (k, c_1, ..., c_r) compared
lexicographically (lex_less), where c is the coroot's coordinate vector; this
is a total order satisfying both chain axioms, which tests/reference.py checks
on the full chain in finite type (outside it the chain is infinite):

(1) (alpha, k) precedes (alpha, k') whenever k < k';
(2) for a hyperplane h, a positive coroot alpha != beta = first(h), and any
    integer m with gamma = alpha + m*beta again a positive real coroot, the
    counts of earlier hyperplanes obey
    N_{<h}(gamma) = N_{<h}(alpha) + m * N_{<h}(beta).

Adapted sequences over a base z are saturated Bruhat chains
z < z s_{h_1} < ... < z s_{h_1} ... s_{h_q} whose hyperplane labels are
strictly lex-increasing ("inc") or strictly lex-decreasing ("dec").  Since z
and the labels fix the chain, a sequence is stored as (z, labels, end) and
the elements between are rebuilt only where they are read.  The two
monotonicities are one construction read at two levels: they carry the
fixed-w Chevalley rows via the folded operator

    hs_apply(h, k'):  mu -> s_alpha(mu) + k' * alpha_root

at the level k' = k ("inc", dominant) or k' = <alpha,lam> - k ("dec",
antidominant), applied right-to-left over the labels and then pushed by z
(wt_fold).  One walk enumerates the cover tree below a fixed w, prepending
labels, and the fan above a fixed z within a length bound (with honest
truncation reporting), appending them.  From start(lam) it carries each
weight along the edges, beta being the label's root and mu the parent's
labels folded over lam, A = u(.) + t the parent's affine map:

- tree, v down to v s_beta: v s_beta (s_beta(mu) + k' beta) = v(mu) - k' v(beta);
- fan, u up to u s_beta: A(s_beta(lam) + k' beta) = A(lam) - (<beta,lam> - k') u(beta).

The pairs (sequence, weight) are summed, through one accumulator, into the
fixed-w rows (chevalley_alcove) and the fixed-z rows (fixed_z_rows).  It
loads no other model; the bijection with LS paths lives in kmchev.bridge.
A walk holds at most W.cap adapted sequences and builds at most W.cap labels
on the edges of all the elements it meets, and raises CapError, naming its
start, before it would hold or build more.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left

from .cartan import (Coroot, LaurentPoly, Realization, Weight, lp_add_into, lp_monomial, pairing, wt_add, wt_neg,
                     wt_scale)
from .weyl import WeylElt, WeylGroup, over_cap


class LambdaHyperplane:
    __slots__ = ("alpha", "k")

    def __init__(self, alpha: Coroot, k: int):
        if k < 0:
            raise ValueError(f"hyperplane level {k} is negative")
        self.alpha = alpha
        self.k = k

    def __eq__(self, other):
        if type(other) is not LambdaHyperplane:
            return NotImplemented
        return (self.alpha, self.k) == (other.alpha, other.k)

    def __hash__(self):
        return hash((self.alpha, self.k))

    def __repr__(self):
        return f"({self.k}|{','.join(map(str, self.alpha.c))})"


def lex_less(lam: Weight, a: LambdaHyperplane, b: LambdaHyperplane) -> bool:
    """The lex order of hyperplanes, (k_a, c_a) / p_a < (k_b, c_b) / p_b with
    p = <alpha, lam> and c the coroot's coordinates, without Fractions: both
    pairings are positive, so multiplying both vectors by p_a * p_b keeps
    their order and leaves the int vectors (k_a, c_a) * p_b and (k_b, c_b) * p_a."""
    pa, pb = pairing(a.alpha, lam), pairing(b.alpha, lam)
    return (a.k * pb, *[c * pb for c in a.alpha.c]) < (b.k * pa, *[c * pa for c in b.alpha.c])


def format_hyperplane(lam: Weight, h: LambdaHyperplane) -> str:
    p = pairing(h.alpha, lam)
    suffix = f"/{p}" if p > 1 else ""
    return f"({h.k}|{','.join(map(str, h.alpha.c))}){suffix}"


# -- the folded reflection operators -------------------------------------------


def hs_apply(R: Realization, h: LambdaHyperplane, mu: Weight, k: int) -> Weight:
    """s_alpha(mu) + k * alpha_root; fixes (k / <alpha,lam>) * lam."""
    return wt_add(R.coroot_reflection(h.alpha, mu), wt_scale(k, h.alpha.root))


def _is_inc(monotonicity: str) -> bool:
    """True for "inc", False for "dec"; a ValueError for anything else."""
    if monotonicity not in ("inc", "dec"):
        raise ValueError(f"monotonicity must be 'inc' or 'dec', not {monotonicity!r}")
    return monotonicity == "inc"


class AdaptedSequence:
    """A label-monotone saturated chain z < z s_{h_1} < ... held as its base
    z, its labels hs and its end z s_{h_1} ... s_{h_q}; monotonicity records
    whether the labels strictly lex-increase or lex-decrease."""

    __slots__ = ("z", "hs", "end", "monotonicity")

    def __init__(self, z: WeylElt, hs: tuple, end: WeylElt, monotonicity: str):
        _is_inc(monotonicity)
        self.z = z
        self.hs = hs
        self.end = end
        self.monotonicity = monotonicity

    def __eq__(self, other):
        if type(other) is not AdaptedSequence:
            return NotImplemented
        return ((self.z, self.hs, self.end, self.monotonicity)
                == (other.z, other.hs, other.end, other.monotonicity))

    def __hash__(self):
        return hash((self.z, self.hs, self.end, self.monotonicity))

    def __repr__(self):
        labels = ",".join(repr(h) for h in self.hs)
        return f"AdaptedSequence({self.z!r}; [{labels}]; ->{self.end!r})"


def wt_fold(W: WeylGroup, lam: Weight, seq: AdaptedSequence, levels: str | None = None) -> Weight:
    """z . hs_apply(h_1, k'_1) ... hs_apply(h_q, k'_q) (lam), innermost label
    last, at the levels k' = k ("inc") or k' = <alpha,lam> - k ("dec") of the
    sequence's monotonicity, or of `levels` when given."""
    inc = _is_inc(levels or seq.monotonicity)
    mu = lam
    for h in reversed(seq.hs):
        mu = hs_apply(W.R, h, mu, h.k if inc else pairing(h.alpha, lam) - h.k)
    return W.act(seq.z, mu)


# -- one walk: trees below w, fans above z ----------------------------------------


def _label_edges(W: WeylGroup, lam: Weight, v: WeylElt, down: bool, inc: bool, walk: str, built: int) -> list:
    """Edges (hyperplane, element, step), lex-sorted, from v to its cocovers
    (down: tree edges) or covers (fan edges).  The step is what the weight
    loses across the edge: k' v(beta) on a tree, (<beta,lam> - k') v(beta)
    on a fan, as the module docstring derives.  One edge per label: with the
    `built` labels of the walk named `walk` before them, more than W.cap is
    refused before any is built.

    The sort key is the lex vector (k, c) / p of lex_less scaled by the lcm
    L of the pairings, an int vector: each coroot's scaled tail c * L/p and
    its image v(beta) are built once and shared by its levels k."""
    covers = W.cocovers(v) if down else W.covers(v)
    pairs = [(x, beta, pairing(beta, lam)) for x, beta in covers]
    labels = built + sum(p for _, _, p in pairs if p > 0)
    if labels > W.cap:
        raise over_cap(f"labels {walk}", labels, W.cap)
    scale = math.lcm(*(p for _, _, p in pairs if p > 0))
    at_k = down == inc  # the step's multiple of v(beta) is k, else <beta,lam> - k
    keyed = []
    for x, beta, p in pairs:
        if p <= 0:
            continue
        m = scale // p
        tail = tuple([c * m for c in beta.c])
        image = W.act(v, beta.root)
        for k in range(p):
            keyed.append(((k * m, tail, x.key), LambdaHyperplane(beta, k), x, wt_scale(k if at_k else p - k, image)))
    keyed.sort(key=lambda t: t[0])
    return [edge[1:] for edge in keyed]


def lex_cut(lam: Weight, edges: list, label: LambdaHyperplane | None, above: bool) -> list:
    """The part of a lex-sorted edge list (from _label_edges) whose labels lie
    lex-above `label` (a suffix) or lex-below it (a prefix); all of it when
    label is None.  The cut is found by bisection with lex_less."""
    if label is None:
        return edges
    cut = bisect_left(edges, True, key=lambda e: lex_less(lam, label, e[0]) if above else
                      not lex_less(lam, e[0], label))
    return edges[cut:] if above else edges[:cut]


def _walk(W: WeylGroup, lam: Weight, start: WeylElt, monotonicity: str,
          length_bound: int | None = None) -> tuple[list, bool]:
    """The adapted sequences from start, each paired with its weight carried
    along the edges, and whether the bound cut an admissible edge off: with
    no bound the tree ending at start, with one the fan based at start.
    The walk is a loop over a stack of (element, last label, labels, weight),
    children pushed in reverse so that they come out in preorder.  It holds
    at most W.cap sequences, checked before each is appended, and builds at
    most W.cap labels in all, checked by _label_edges before an element's
    edges are built: an element gets edges only when a sequence reaches it."""
    inc = _is_inc(monotonicity)
    down = length_bound is None
    if not down and start.length > length_bound:
        return [], True
    above = inc != down  # tree "dec" and fan "inc" keep the labels above the last one
    walk = f"of the alcove walk {'below' if down else 'above'} {start!r}"
    out: list = []
    truncated = False
    built = 0  # labels on the edges of the elements met so far
    edges: dict[WeylElt, list] = {}  # per call: an element is reached along many branches
    stack = [(start, None, (), W.act(start, lam))]
    while stack:
        v, last, hs, wt = stack.pop()
        if len(out) == W.cap:
            raise over_cap(f"adapted sequences {walk}", W.cap + 1, W.cap)
        seq = AdaptedSequence(v, hs, start, monotonicity) if down else AdaptedSequence(start, hs, v, monotonicity)
        out.append((seq, wt))
        es = edges.get(v)
        if es is None:
            es = edges[v] = _label_edges(W, lam, v, down, inc, walk, built)
            built += len(es)
        kept = lex_cut(lam, es, last, above)
        if not down and v.length >= length_bound:
            truncated = truncated or bool(kept)
            continue
        stack += [(x, h, (h,) + hs if down else hs + (h,), tuple(map(operator.sub, wt, step)))
                  for h, x, step in reversed(kept)]
    return out, truncated


def enumerate_tree_dominant(W: WeylGroup, lam: Weight, w: WeylElt) -> list[tuple[AdaptedSequence, Weight]]:
    """All lex-increasing adapted sequences ending at w, each with its weight:
    a cover tree below w, each vertex the sequence read up its branch."""
    return _walk(W, lam, w, "inc")[0]


def enumerate_tree_antidominant(W: WeylGroup, lam: Weight, w: WeylElt) -> list[tuple[AdaptedSequence, Weight]]:
    """All lex-decreasing adapted sequences ending at w, each with its weight."""
    return _walk(W, lam, w, "dec")[0]


def enumerate_z_adapted(W: WeylGroup, lam: Weight, z: WeylElt, monotonicity: str,
                        length_bound: int) -> tuple[list[tuple[AdaptedSequence, Weight]], bool]:
    """All adapted sequences based at z whose chain stays within the length
    bound, each with its weight.  The second component reports whether any
    admissible continuation was cut off by the bound (a truncation notice,
    not a failure); a z longer than the bound has no sequence within it."""
    return _walk(W, lam, z, monotonicity, length_bound)


# -- Chevalley rows ---------------------------------------------------------------


def _rows(pairs, at) -> dict:
    """{at(seq): the sum of e^{wt} ("inc") or (-1)^q e^{-wt} ("dec", q labels)
    over the pairs (seq, wt) with that key}, sorted by key, zero rows dropped."""
    acc: dict[WeylElt, LaurentPoly] = {}
    for seq, wt in pairs:
        term = lp_monomial(wt) if seq.monotonicity == "inc" else lp_monomial(wt_neg(wt), -1 if len(seq.hs) % 2 else 1)
        lp_add_into(acc.setdefault(at(seq), {}), term)
    return {u: acc[u] for u in sorted(acc, key=lambda u: u.key) if acc[u]}


def chevalley_alcove(W: WeylGroup, lam: Weight, w: WeylElt, sign: int) -> dict:
    """Fixed-w row of [L^{sign*lam}] [O_w]: z |-> the _rows sum over the
    lex-increasing (sign > 0) or lex-decreasing (sign < 0) tree."""
    tree = enumerate_tree_dominant if sign > 0 else enumerate_tree_antidominant
    return _rows(tree(W, lam, w), lambda s: s.z)


def fixed_z_rows(W: WeylGroup, lam: Weight, z: WeylElt, sign: int, length_bound: int) -> tuple[dict, bool]:
    """Fixed-z rows, w |-> the _rows sum over the sequences from z to w
    within the length bound, and enumerate_z_adapted's truncation flag."""
    pairs, truncated = enumerate_z_adapted(W, lam, z, "inc" if sign > 0 else "dec", length_bound)
    return _rows(pairs, lambda s: s.end), truncated


# -- export --------------------------------------------------------------------------


def tree_dot(W: WeylGroup, lam: Weight, pairs) -> str:
    """DOT digraph of a cover tree, given as the (sequence, weight) pairs of
    a tree enumeration: nodes are the sequences' base elements, edges carry
    the hyperplane labels, parents point to children.  Below one w the
    labels fix a node's branch from the root, so they key the nodes."""
    index = {s.hs: k for k, (s, _) in enumerate(pairs)}
    lines = ["digraph tree {", "  rankdir=TB;"]
    for k, (s, _) in enumerate(pairs):
        lines.append(f'  n{k} [label="{s.z!r}"];')
    for s, _ in pairs:
        if not s.hs:
            continue
        lines.append(
            f'  n{index[s.hs[1:]]} -> n{index[s.hs]} [label="{format_hyperplane(lam, s.hs[0])}"];'
        )
    lines.append("}")
    return "\n".join(lines)
