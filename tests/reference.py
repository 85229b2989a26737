"""References that the tests compare the library against.

The lifts are recomputed by scanning a BFS ball, the chain-axiom counts
N_{<h} in a closed form that also holds where the lex chain is infinite, and
a word of T_i operators by applying its letters one at a time.  pytest does
not rewrite the asserts of this helper module, so a check that must hold
under python -O raises explicitly.
"""
from fractions import Fraction as Q

from kmchev.alcove import stdvec
from kmchev.cartan import pairing
from kmchev.kring import apply_Ti


def up_oracle(W, v, tau, search_bound):
    """up(v, tau): the Bruhat-minimum of {w >= v : wW_J = tau} within the
    ball of the given length, checked to be unique."""
    candidates = [
        w
        for w in W.bfs_ball(search_bound)
        if W.coset_min_rep(w, tau.J) == tau and W.bruhat_leq(v, w)
    ]
    if not candidates:
        raise ValueError(f"no candidate found within length {search_bound}")
    best = min(candidates, key=lambda w: w.key)
    if not all(W.bruhat_leq(best, w) for w in candidates):
        raise AssertionError("minimum not unique")
    return best


def down_oracle(W, w, tau):
    """down(w, tau): the Bruhat-maximum of {v <= w : vW_J = tau}, scanning the
    ball under l(w), checked to be unique."""
    candidates = [
        v
        for v in W.bfs_ball(w.length)
        if W.coset_min_rep(v, tau.J) == tau and W.bruhat_leq(v, w)
    ]
    if not candidates:
        raise ValueError(f"no element of {tau!r} lies below {w!r}")
    best = max(candidates, key=lambda v: v.key)
    if not all(W.bruhat_leq(v, best) for v in candidates):
        raise AssertionError("maximum not unique")
    return best


def count_before(lam, eta, h):
    """N_{<h}(eta): how many hyperplanes (eta, k) lex-precede h.

    Closed form, so it works even when the ambient chain is infinite: the
    vectors (k/K, c_eta/K) share their tail, hence the count is the number of
    k in [0, K) with k/K below h's leading entry, plus one more on a leading
    tie decided by the tails.
    """
    K = pairing(eta, lam)
    if K <= 0:
        return 0
    target = stdvec(lam, h)
    t = Q(target[0]) * K
    strict = min(K, max(0, t.numerator // t.denominator + (0 if t.denominator == 1 else 1)))
    count = strict
    if t.denominator == 1 and 0 <= t <= K - 1:
        tail = tuple(Q(c, K) for c in eta.c)
        if tail < target[1:]:
            count += 1
    return count


def apply_word(R, word, f):
    """T_{i_1} (T_{i_2} (... T_{i_k} f)) for word = (i_1, ..., i_k)."""
    for i in reversed(tuple(word)):
        f = apply_Ti(R, i, f)
    return f
