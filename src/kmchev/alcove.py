"""The alcove model: lambda-hyperplanes, lex chains, adapted sequences.

A lambda-hyperplane for a dominant weight lam is a pair (alpha, k) with alpha
a positive real coroot and 0 <= k < <alpha, lam>.  The lex chain orders all of
them by the vector (1/<alpha,lam>) * (k, c_1, ..., c_r) compared
lexicographically, where c is the coroot's coordinate vector; this is a total
order satisfying both chain axioms:

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
antidominant), applied right-to-left over the labels and then pushed by z.

The module enumerates the two label-monotone cover trees below a fixed w,
the z-adapted sequences above a fixed z (with honest truncation reporting),
converts between adapted sequences and LS paths (ls_to_seq and its inverse
seq_to_ls, each one rule for both monotonicities), and exposes the
reflection order used to pick out the unique increasing chain in each
conversion segment.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from itertools import accumulate

from .cartan import Coroot, Realization, Weight, pairing, wt_add, wt_neg, wt_scale
from .kring import LaurentPoly, lp_add_into, lp_monomial
from .lifts import down, up
from .lspath import LSPath, stabilizer_nodes
from .weyl import WeylElt, WeylGroup


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


def stdvec(lam: Weight, h: LambdaHyperplane) -> tuple:
    """The lex comparison vector (k, c_1, ..., c_r) / <alpha, lam>."""
    from fractions import Fraction

    p = pairing(h.alpha, lam)
    if not 0 <= h.k < p:
        raise ValueError(f"{h!r} is not a hyperplane for this weight")
    return (Fraction(h.k, p),) + tuple(Fraction(c, p) for c in h.alpha.c)


def lex_less(lam: Weight, a: LambdaHyperplane, b: LambdaHyperplane) -> bool:
    """stdvec(lam, a) < stdvec(lam, b) without Fractions: both pairings p_a,
    p_b are positive, so multiplying both vectors by p_a * p_b keeps their
    order and leaves the int vectors (k_a, c_a) * p_b and (k_b, c_b) * p_a."""
    pa, pb = pairing(a.alpha, lam), pairing(b.alpha, lam)
    return (a.k * pb, *[c * pb for c in a.alpha.c]) < (b.k * pa, *[c * pa for c in b.alpha.c])


def format_hyperplane(lam: Weight, h: LambdaHyperplane) -> str:
    p = pairing(h.alpha, lam)
    suffix = f"/{p}" if p > 1 else ""
    return f"({h.k}|{','.join(map(str, h.alpha.c))}){suffix}"


def lex_chain(R: Realization, lam: Weight) -> list[LambdaHyperplane]:
    """The full lex chain (finite types only): the stdvec order, compared in ints by lex_less."""
    out = [LambdaHyperplane(alpha, k) for alpha in R.positive_coroots() for k in range(pairing(alpha, lam))]
    out.sort(key=functools.cmp_to_key(lambda a, b: lex_less(lam, b, a) - lex_less(lam, a, b)))
    return out


def validate_lambda_chain_finite(R: Realization, lam: Weight, chain) -> tuple[bool, str | None]:
    """Check both chain axioms for an explicit (finite) hyperplane sequence.

    Axiom (1) is the per-coroot ordering of the levels k; completeness asks
    each positive coroot alpha to occur exactly <alpha, lam> times with levels
    0..<alpha,lam>-1.  Axiom (2) is the counting identity quoted in the module
    docstring, checked for every position, every coroot pair and every integer
    m (of either sign) making alpha + m*beta a positive coroot.
    """
    pos = R.positive_coroots()
    by_c = {alpha.c: alpha for alpha in pos}
    seen: dict[Coroot, list[int]] = {}
    for h in chain:
        if h.alpha not in by_c.values():
            return False, f"{h!r}: not a positive coroot"
        p = pairing(h.alpha, lam)
        if not 0 <= h.k < p:
            return False, f"{h!r}: level outside [0, {p})"
        seen.setdefault(h.alpha, []).append(h.k)
    for alpha in pos:
        p = pairing(alpha, lam)
        ks = seen.get(alpha, [])
        if sorted(ks) != list(range(p)):
            return False, f"{alpha!r}: levels {ks} != 0..{p - 1}"
        if ks != sorted(ks):
            return False, f"{alpha!r}: levels out of order"
    # multiples m with alpha + m*beta a positive coroot, m != 0
    def multiples(alpha: Coroot, beta: Coroot):
        for gamma in pos:
            diff = tuple(g - a for g, a in zip(gamma.c, alpha.c))
            pairs = [(d, b) for d, b in zip(diff, beta.c) if b != 0]
            if any(d % b for d, b in pairs):
                continue
            ms = {d // b for d, b in pairs}
            if len(ms) != 1 or 0 in ms:
                continue
            m = ms.pop()
            if all(d == m * b for d, b in zip(diff, beta.c)):
                yield m, gamma

    counts: dict[Coroot, int] = {alpha: 0 for alpha in pos}
    for idx, h in enumerate(chain):
        beta = h.alpha
        for alpha in pos:
            if alpha == beta:
                continue
            for m, gamma in multiples(alpha, beta):
                lhs = counts[gamma]
                rhs = counts[alpha] + m * counts[beta]
                if lhs != rhs:
                    return False, (
                        f"position {idx} ({h!r}): N({gamma!r})={lhs} but "
                        f"N({alpha!r}) + {m}*N({beta!r}) = {rhs}"
                    )
        counts[beta] += 1
    return True, None


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


def signed_term(W: WeylGroup, lam: Weight, seq: AdaptedSequence) -> LaurentPoly:
    """The monomial a sequence adds to its Chevalley row: e^{wt} for "inc",
    (-1)^q e^{-wt} for "dec", with wt = wt_fold(seq) and q labels."""
    wt = wt_fold(W, lam, seq)
    if seq.monotonicity == "inc":
        return lp_monomial(wt)
    return lp_monomial(wt_neg(wt), -1 if len(seq.hs) % 2 else 1)


# -- enumeration: trees below w, fans above z ------------------------------------


def _label_edges(lam: Weight, covers) -> list:
    """Edges (hyperplane, element), lex-sorted, for (element, coroot) pairs
    from W.cocovers (tree edges down) or W.covers_within (fan edges up).

    The sort key is stdvec scaled by the lcm L of the pairings, an int
    vector: each coroot's scaled tail c * L/p is built once and shared by
    its levels k."""
    pairs = [(x, beta, pairing(beta, lam)) for x, beta in covers]
    scale = math.lcm(*(p for _, _, p in pairs if p > 0))
    keyed = []
    for x, beta, p in pairs:
        if p <= 0:
            continue
        m = scale // p
        tail = tuple([c * m for c in beta.c])
        for k in range(p):
            keyed.append(((k * m, tail, x.key), LambdaHyperplane(beta, k), x))
    keyed.sort(key=lambda t: t[0])
    return [(h, x) for _, h, x in keyed]


def lex_cut(lam: Weight, edges: list, label: LambdaHyperplane | None, above: bool) -> list:
    """The part of a lex-sorted edge list (from _label_edges) whose labels lie
    lex-above `label` (a suffix) or lex-below it (a prefix); all of it when
    label is None.  The cut is found by bisection with lex_less."""
    if label is None:
        return edges
    cut = bisect_left(edges, True, key=lambda e: lex_less(lam, label, e[0]) if above else
                      not lex_less(lam, e[0], label))
    return edges[cut:] if above else edges[:cut]


def _enumerate_tree(W: WeylGroup, lam: Weight, w: WeylElt, monotonicity: str) -> list[AdaptedSequence]:
    """Labels are prepended walking down, so an "inc" tree keeps the edges
    below the incoming label and a "dec" tree those above it."""
    out: list[AdaptedSequence] = []
    above = monotonicity == "dec"

    @functools.cache  # per call: an element is reached along many branches
    def below(v: WeylElt) -> list:
        return _label_edges(lam, W.cocovers(v))

    def rec(v: WeylElt, incoming: LambdaHyperplane | None, hs_up: tuple):
        out.append(AdaptedSequence(v, hs_up, w, monotonicity))
        for h, vp in lex_cut(lam, below(v), incoming, above):
            rec(vp, h, (h,) + hs_up)

    rec(w, None, ())
    return out


def enumerate_tree_dominant(W: WeylGroup, lam: Weight, w: WeylElt) -> list[AdaptedSequence]:
    """All lex-increasing adapted sequences ending at w, grown as a cover tree
    below w (each vertex contributes the sequence reading its branch upward)."""
    return _enumerate_tree(W, lam, w, "inc")


def enumerate_tree_antidominant(W: WeylGroup, lam: Weight, w: WeylElt) -> list[AdaptedSequence]:
    """All lex-decreasing adapted sequences ending at w."""
    return _enumerate_tree(W, lam, w, "dec")


def enumerate_z_adapted(W: WeylGroup, lam: Weight, z: WeylElt, monotonicity: str,
                        length_bound: int) -> tuple[list[AdaptedSequence], bool]:
    """All adapted sequences based at z whose chain stays within the length
    bound.  The second component reports whether any admissible continuation
    was cut off by the bound (a truncation notice, not a failure); a z longer
    than the bound has no sequence within it.  Labels are appended walking
    up, so "inc" keeps the edges above the last label and "dec" those below
    it."""
    above = _is_inc(monotonicity)
    if z.length > length_bound:
        return [], True
    out: list[AdaptedSequence] = []
    truncated = False

    @functools.cache  # per call: an element is reached along many branches
    def fan(u: WeylElt) -> list:
        return _label_edges(lam, W.covers_within(u, u.length + 1))

    def rec(u: WeylElt, last: LambdaHyperplane | None, hs_acc: tuple):
        nonlocal truncated
        out.append(AdaptedSequence(z, hs_acc, u, monotonicity))
        admissible = lex_cut(lam, fan(u), last, above)
        if u.length >= length_bound:
            truncated |= bool(admissible)
            return
        for h, w in admissible:
            rec(w, h, hs_acc + (h,))

    rec(z, None, ())
    return out, truncated


# -- Chevalley rows ---------------------------------------------------------------


def chevalley_alcove(W: WeylGroup, lam: Weight, w: WeylElt, sign: int) -> dict:
    """Fixed-w row of [L^{sign*lam}] [O_w]: z |-> the sum of signed_term over
    the lex-increasing (sign > 0) or lex-decreasing (sign < 0) tree."""
    tree = enumerate_tree_dominant if sign > 0 else enumerate_tree_antidominant
    acc: dict[WeylElt, LaurentPoly] = {}
    for seq in tree(W, lam, w):
        lp_add_into(acc.setdefault(seq.z, {}), signed_term(W, lam, seq))
    return {z: acc[z] for z in sorted(acc, key=lambda u: u.key) if acc[z]}


# -- reflection orders and unique increasing chains --------------------------------


def refl_less(R: Realization, lam: Weight, a: Coroot, b: Coroot) -> bool:
    """Total reflection order: lam-positive coroots by c/<.,lam> lex, then all
    lam-orthogonal coroots (rho-normalized lex) as a final section."""
    pa, pb = pairing(a, lam), pairing(b, lam)
    if pa > 0 and pb > 0:
        return [c * pb for c in a.c] < [c * pa for c in b.c]
    if pa > 0:
        return True
    if pb > 0:
        return False
    ra, rb = pairing(a, R.rho), pairing(b, R.rho)
    return [c * rb for c in a.c] < [c * ra for c in b.c]


def _label_chains(W: WeylGroup, a: WeylElt, b: WeylElt, label_ok, below=None) -> list:
    """Saturated chains a -> b, walked down from b through cocovers, each as
    its labels ascending by position (a and the labels fix the chain).
    Labels failing label_ok are skipped; with below(beta, bound), each label
    must be below the label after it, which prunes the walk as it goes."""
    if a == b:
        return [()]
    res = []

    def rec(cur: WeylElt, bound: Coroot | None, labels: tuple):
        if cur == a:
            res.append(labels)
            return
        if cur.length <= a.length:
            return
        for v, beta in W.cocovers(cur):
            if label_ok is not None and not label_ok(beta):
                continue
            if below is not None and bound is not None and not below(beta, bound):
                continue
            if not W.bruhat_leq(a, v):
                continue
            rec(v, beta, (beta,) + labels)

    rec(b, None, ())
    return res


def increasing_chain(W: WeylGroup, lam: Weight, a: WeylElt, b: WeylElt, less=refl_less, label_ok=None):
    """The labels of the unique saturated chain a -> b whose labels strictly
    increase in the given reflection order.  Raises ValueError unless exactly
    one exists."""
    res = _label_chains(W, a, b, label_ok, lambda beta, bound: less(W.R, lam, beta, bound))
    if len(res) != 1:
        raise ValueError(f"expected a unique increasing chain {a!r} -> {b!r}, found {len(res)}")
    return res[0]


# -- conversions between LS paths and adapted sequences -----------------------------


def ls_to_seq(W: WeylGroup, p: LSPath, base: WeylElt, monotonicity: str) -> AdaptedSequence:
    """The adapted sequence matching an LS path: "inc" is based at z = base
    with phi(p) >= z W_lam and lifts bottom-up by `up`, "dec" ends at w = base
    with iota(p) <= w W_lam and lifts top-down by `down`.  Segment j is the
    unique chain between consecutive lifts increasing in refl_less (inc) or
    its dual (dec), at the level t<beta,lam> (inc) or <beta,lam> - t<beta,lam>
    (dec), with t = b_j for inc and t = b_{j+1}, b_{m+1} = 1, for dec."""
    inc = _is_inc(monotonicity)
    lam, D = p.lam, p.D
    J = stabilizer_nodes(W.R, lam)
    zs = [base]
    for sigma in p.dirs if inc else reversed(p.dirs):
        zs.append((up if inc else down)(W, zs[-1], sigma, J))
    zs = zs if inc else zs[::-1]
    cuts = list(accumulate(p.a, initial=0))
    hs: list[LambdaHyperplane] = []
    for j, c in enumerate(cuts[:-1] if inc else cuts[1:]):
        labels = increasing_chain(W, lam, zs[j], zs[j + 1],
                                  refl_less if inc else lambda R, lam, a, b: refl_less(R, lam, b, a),
                                  lambda beta, c=c: 0 < pairing(beta, lam) and c * pairing(beta, lam) % D == 0)
        for beta in labels:
            pr = pairing(beta, lam)
            hs.append(LambdaHyperplane(beta, c * pr // D if inc else pr - c * pr // D))
    if not all(lex_less(lam, x, y) for x, y in (zip(hs, hs[1:]) if inc else zip(hs[1:], hs))):
        raise ValueError(f"the labels read off {p!r} are not lex-{'increasing' if inc else 'decreasing'}")
    return AdaptedSequence(zs[0], tuple(hs), zs[-1], monotonicity)


def seq_to_ls(W: WeylGroup, lam: Weight, seq: AdaptedSequence) -> LSPath:
    """The LS path of an adapted sequence, inverse to ls_to_seq.  A label
    (alpha, k) sits at t = k/<alpha,lam> ("inc") or 1 - k/<alpha,lam> ("dec"),
    held as an int over D = lcm of the <alpha,lam>; b runs over 0 and the
    t < 1, and the direction at b is the coset of the chain element
    z s_{h_1} ... s_{h_j} with j = #{t <= b}."""
    inc = _is_inc(seq.monotonicity)
    prs = [pairing(h.alpha, lam) for h in seq.hs]
    D = math.lcm(*prs)
    ts = [h.k * (D // pr) if inc else D - h.k * (D // pr) for h, pr in zip(seq.hs, prs)]
    if any(x > y for x, y in zip(ts, ts[1:])):
        raise ValueError(f"the labels of {seq!r} are not ordered by t")
    J = stabilizer_nodes(W.R, lam)
    cuts = sorted({0, *(t for t in ts if t < D)})
    chain = list(accumulate((h.alpha for h in seq.hs), W.reflect_right, initial=seq.z))
    return LSPath(lam, D, [(y - x, W.coset_decompose(chain[bisect_right(ts, x)], J)[0])
                           for x, y in zip(cuts, cuts[1:] + [D])])


# -- export --------------------------------------------------------------------------


def tree_dot(W: WeylGroup, lam: Weight, seqs, name: str = "tree") -> str:
    """DOT digraph of a cover tree: nodes are the sequences' base elements,
    edges carry the hyperplane labels, parents point to children.  Below one
    w the labels fix a node's branch from the root, so they key the nodes."""
    index = {s.hs: k for k, s in enumerate(seqs)}
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for k, s in enumerate(seqs):
        lines.append(f'  n{k} [label="{s.z!r}"];')
    for s in seqs:
        if not s.hs:
            continue
        lines.append(
            f'  n{index[s.hs[1:]]} -> n{index[s.hs]} [label="{format_hyperplane(lam, s.hs[0])}"];'
        )
    lines.append("}")
    return "\n".join(lines)
