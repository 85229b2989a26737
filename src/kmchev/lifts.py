"""Deodhar lifts into parabolic cosets.

up(v, tau) is the Bruhat-minimum of {w >= v : wW_J = tau}; down(w, tau) the
Bruhat-maximum of {v <= w : vW_J = tau}.  Existence and uniqueness are
classical (Deodhar, Invent. Math. 39, 1977).  Both are computed by a descent
recursion that peels one letter per step and rebuilds the answer on the way
back, so each costs a number of memoised Weyl-group links linear in the
length.
"""
from __future__ import annotations

from .weyl import Coset, WeylElt, WeylGroup


def up(W: WeylGroup, v: WeylElt, tau: Coset) -> WeylElt:
    """The minimal w >= v in the coset tau; requires vW_J <= tau.

    Peel the smallest descent i of the representative of tau; with
    v' = min(v, s_i v), the map w -> s_i w is a length-preserving-minus-one
    bijection {w >= v : wW_J = tau} -> {w' >= v' : w'W_J = s_i tau}, so the
    minimum is s_i times the minimum one level down.
    """
    if not W.coset_leq(W.coset_min_rep(v, tau.J), tau):
        raise ValueError(f"{v!r} does not lie under the coset {tau!r}")
    letters = tau.rep.word
    for i in letters:
        if v.rho[i] < 0:
            v = W.lmul(i, v)
    for i in reversed(letters):
        v = W.lmul(i, v)
    return v


def interval_below(W: WeylGroup, w: WeylElt) -> set[WeylElt]:
    """The Bruhat interval [e, w], as the set of subword elements of w.word."""
    out = {W.e}
    for i in w.word:
        out |= {W.mult(u, W.simple(i)) for u in out}
    return out


def down(W: WeylGroup, w: WeylElt, tau: Coset) -> WeylElt:
    """The maximal v <= w in the coset tau; requires wW_J >= tau.

    With i a left descent of w, every v <= w has min(v, s_i v) <= s_i w, and
    by the lifting property:

    * s_i tau > tau: down(w, tau) = down(s_i w, tau);
    * s_i tau < tau: down(w, tau) = s_i · down(s_i w, s_i tau);
    * s_i tau = tau: with D = down(s_i w, tau), the longer of D and s_i D.
    """
    if not W.coset_leq(tau, W.coset_min_rep(w, tau.J)):
        raise ValueError(f"{w!r} does not lie over the coset {tau!r}")
    return _down(W, w, tau)


def _down(W: WeylGroup, w: WeylElt, tau: Coset) -> WeylElt:
    """down without the precondition check: peel the canonical word of w
    letter by letter (each letter is a left descent of what remains), noting
    which case applies, then unwind from down(e, W_J) = e."""
    steps: list[tuple[int, int]] = []
    t = tau.rep
    J = tau.J
    for i in w.word:
        st = W.coset_decompose(W.lmul(i, t), J)[0]
        if st.length < t.length:
            steps.append((i, -1))
            t = st
        else:
            steps.append((i, 0 if st.length > t.length else 1))
    v = W.e
    for i, case in reversed(steps):
        if case < 0:
            v = W.lmul(i, v)
        elif case > 0:
            sv = W.lmul(i, v)
            if sv.length > v.length:
                v = sv
    return v

