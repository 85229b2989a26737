"""Deodhar lifts into parabolic cosets.

A coset of the stabilizer W_lam of a dominant weight lam is passed as its
minimal representative sigma together with lam.  up(v, sigma, lam) is the
Bruhat-minimum of {w >= v : wW_lam = sigma W_lam}; down(w, sigma, lam) the
Bruhat-maximum of {v <= w : vW_lam = sigma W_lam}.  Existence and uniqueness
are classical (Deodhar, Invent. Math. 39, 1977).  Both are computed by a
descent recursion that peels one letter per step and rebuilds the answer on
the way back, so each costs a number of memoised Weyl-group links linear in
the length; down reads one bit per letter off sigma(lam).
"""
from __future__ import annotations

from .cartan import Weight
from .weyl import WeylElt, WeylGroup


def up(W: WeylGroup, v: WeylElt, sigma: WeylElt, lam: Weight) -> WeylElt:
    """The minimal w >= v in sigma W_lam; requires sigma minimal in its coset
    and vW_lam <= sigma W_lam.

    Peel the smallest descent i of sigma; with v' = min(v, s_i v), the map
    w -> s_i w is a length-preserving-minus-one bijection
    {w >= v : wW_lam = sigma W_lam} -> {w' >= v' : w'W_lam = s_i sigma W_lam},
    so the minimum is s_i times the minimum one level down.
    """
    if W.coset_min(sigma, lam) is not sigma:
        raise ValueError(f"{sigma!r} has a right descent in W_lam: not a minimal representative")
    if not W.bruhat_leq(W.coset_min(v, lam), sigma):
        raise ValueError(f"{v!r} does not lie under the coset of {sigma!r}")
    letters = sigma.word
    for i in letters:
        if v.rho[i] < 0:
            v = W.lmul(i, v)
    for i in reversed(letters):
        v = W.lmul(i, v)
    return v


def interval_below(W: WeylGroup, w: WeylElt) -> set[WeylElt]:
    """The Bruhat interval [e, w] of a w of W (else ValueError), as the set of subword elements of w.word."""
    W.check_element(w)
    out = {W.e}
    for i in reversed(w.word):
        out |= {W.lmul(i, u) for u in out}
    return out


def down(W: WeylGroup, w: WeylElt, sigma: WeylElt, lam: Weight) -> WeylElt:
    """The maximal v <= w in sigma W_lam; requires sigma minimal in its coset
    and wW_lam >= sigma W_lam.

    With i a left descent of w, every v <= w has min(v, s_i v) <= s_i w, and
    by the lifting property, writing tau = sigma W_lam:

    * s_i tau > tau: down(w, tau) = down(s_i w, tau);
    * else the longer of D = down(s_i w, s_i tau) and s_i D, which is s_i D
      when s_i tau < tau, as s_i lengthens every element of s_i tau.

    The canonical word of w is peeled letter by letter (each letter is a left
    descent of what remains), keeping the letters of the second case, mu[i] <= 0
    for mu = tau(lam) reflected at each kept letter; the answer is the Demazure
    product of the kept letters in reverse, rebuilt from down(e, W_lam) = e.
    """
    if W.coset_min(sigma, lam) is not sigma:
        raise ValueError(f"{sigma!r} has a right descent in W_lam: not a minimal representative")
    if not W.bruhat_leq(sigma, W.coset_min(w, lam)):
        raise ValueError(f"{w!r} does not lie over the coset of {sigma!r}")
    kept, mu = [], W.image(sigma, lam)
    for i in w.word:
        if mu[i] <= 0:
            kept.append(i)
            mu = W.R.simple_reflection(i, mu)
    v = W.e
    for i in reversed(kept):
        sv = W.lmul(i, v)
        if sv.length > v.length:
            v = sv
    return v
