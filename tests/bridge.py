"""The bijection between LS paths and adapted sequences (ls_to_seq, seq_to_ls),
and the reflection order that picks the unique increasing chain in each of its
segments: the tests' oracle between two models that import neither the other.
reflect_right (w s_beta) rebuilds a sequence's chain from its labels."""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from itertools import accumulate

from kmchev.alcove import AdaptedSequence, LambdaHyperplane, _is_inc, lex_less
from kmchev.cartan import Coroot, Realization, Weight, pairing
from kmchev.lifts import down, up
from kmchev.lspath import LSPath
from kmchev.weyl import WeylElt, WeylGroup


def reflect_right(W: WeylGroup, w: WeylElt, beta: Coroot) -> WeylElt:
    """w · s_beta."""
    return W._from_rho(W.act(w, W.R.coroot_reflection(beta, W.rho)))


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
    must be below the label after it, which prunes the walk as it goes.
    The walk is a loop over a stack of (element, label above it, labels),
    children pushed in reverse so that the chains come out in preorder."""
    res = []
    stack = [(b, None, ())]
    while stack:
        cur, bound, labels = stack.pop()
        if cur == a:
            res.append(labels)
        elif cur.length > a.length:
            stack += [(v, beta, (beta,) + labels) for v, beta in reversed(W.cocovers(cur))
                      if (label_ok is None or label_ok(beta))
                      and (below is None or bound is None or below(beta, bound)) and W.bruhat_leq(a, v)]
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
    zs = [base]
    for sigma in p.dirs if inc else reversed(p.dirs):
        zs.append((up if inc else down)(W, zs[-1], sigma, lam))
    zs = zs if inc else zs[::-1]
    cuts = list(accumulate(p.a, initial=0))
    hs: list[LambdaHyperplane] = []
    for j, c in enumerate(cuts[:-1] if inc else cuts[1:]):
        labels = increasing_chain(W, lam, zs[j], zs[j + 1],
                                  refl_less if inc else lambda R, lam, a, b: refl_less(R, lam, b, a),
                                  lambda beta, c=c: 0 < pairing(beta, lam) and c * pairing(beta, lam) % D == 0)
        for beta in labels:
            pr = pairing(beta, lam)
            hs.append(LambdaHyperplane(beta, c * pr // D if inc else pr - c * pr // D, pr))
    if not all(lex_less(x, y) for x, y in (zip(hs, hs[1:]) if inc else zip(hs[1:], hs))):
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
    cuts = sorted({0, *(t for t in ts if t < D)})
    chain = list(accumulate((h.alpha for h in seq.hs), partial(reflect_right, W), initial=seq.z))
    return LSPath(lam, D, [(y - x, W.coset_min(chain[bisect_right(ts, x)], lam))
                           for x, y in zip(cuts, cuts[1:] + [D])])
