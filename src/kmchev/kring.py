"""The 0-Hecke / K-nilHecke operators T_i on the group ring of the weight
lattice, and the Chevalley coefficients they compute.

A Laurent polynomial is a dict {weight: nonzero int coefficient}; the empty
dict is zero.  T_i acts along alpha_i-strings.  Write a weight as
mu = b + p alpha_i with n = <alpha_i^vee, mu> and p = floor(n/2), so that
<alpha_i^vee, b> is 0 or 1: b names the string b + Z alpha_i and p is the
position of mu on it.  Then

    T_i e^mu = + sum of e^{b + q alpha_i}, q in [p - n, p)     n > 0
             = 0                                                n = 0
             = - sum of e^{b + q alpha_i}, q in [p, p - n)      n < 0

(e^{mu - alpha_i} + ... + e^{mu - n alpha_i}, and -(e^mu + ... +
e^{mu + (-1-n) alpha_i})), so T_i of a polynomial is a sum of ranges on
each string, and s_i sends position q to -q - <alpha_i^vee, b>.  T_i^2 = -T_i,
the braid relations hold, and D_i = 1 + T_i is the Demazure operator.
Writing T_w e^lam = sum_z b_z T_z, the b_z are the equivariant K-Chevalley
coefficients; chevalley_recurrence computes them by composing the twisted
Leibniz rule letter by letter.  (The closed-form sum over the 2^N signed
subwords of a reduced word checks it in the tests, not here.)
"""
from __future__ import annotations

import operator

from .cartan import LaurentPoly, Realization, Weight, lp_add_into, lp_monomial, wt_add
from .weyl import WeylElt, WeylGroup

# {WeylElt: LaurentPoly}, zero polynomials never stored
NilHeckeCoeffs = dict


def lp_mul_monomial(f: LaurentPoly, mu: Weight, c: int = 1) -> LaurentPoly:
    return {wt_add(nu, mu): c * x for nu, x in f.items()} if c else {}


def lp_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    out: LaurentPoly = {}
    for mu, c in f.items():
        lp_add_into(out, lp_mul_monomial(g, mu, c))
    return out


def apply_Ti(R: Realization, i: int, f: LaurentPoly) -> LaurentPoly:
    """T_i f as range sums along alpha_i-strings (see the module docstring).

    Each monomial c e^mu adds +c (n > 0) or -c (n < 0) at the first position
    of its range on the string of b and takes it off again past the last one.
    A sweep over each string's sorted range ends then gives the coefficient
    of every position, and only positions with a nonzero sum become weights.
    """
    alpha = R.alpha[i]
    rank = len(alpha)
    multiples: dict[int, Weight] = {}  # q -> q alpha_i
    ends: dict[Weight, dict[int, int]] = {}  # b -> {range end q: jump at q}
    for mu, c in f.items():
        if len(mu) != rank:
            raise ValueError(f"weights of different rank: {mu}, {alpha}")
        n = mu[i]
        if not n:
            continue
        p = n // 2
        pa = multiples.get(p)
        if pa is None:
            pa = multiples[p] = tuple([p * a for a in alpha])
        b = tuple(map(operator.sub, mu, pa))
        if n < 0:
            lo, hi, c = p, p - n, -c
        else:
            lo, hi = p - n, p
        jumps = ends.get(b)
        if jumps is None:
            ends[b] = {lo: c, hi: -c}
        else:
            jumps[lo] = jumps.get(lo, 0) + c
            jumps[hi] = jumps.get(hi, 0) - c
    out: LaurentPoly = {}
    for b, jumps in ends.items():
        qs = sorted(jumps)
        total = 0
        for k in range(len(qs) - 1):
            q = qs[k]
            total += jumps[q]
            if not total:
                continue
            qa = multiples.get(q)
            if qa is None:
                qa = multiples[q] = tuple([q * a for a in alpha])
            term = tuple(map(operator.add, b, qa))
            out[term] = total
            for _ in range(qs[k + 1] - q - 1):
                term = tuple(map(operator.add, term, alpha))
                out[term] = total
    return out


def hecke_compose(W: WeylGroup, i: int, element: NilHeckeCoeffs) -> NilHeckeCoeffs:
    """Left-multiply sum_y f_y T_y by T_i.

    T_i (f T_y) = (T_i f) T_y + (s_i f) T_i T_y, and T_i T_y is T_{s_i y} when
    the length goes up, -T_y otherwise.
    """
    si = W.simple(i)
    reflect = W.R.simple_reflection
    out: NilHeckeCoeffs = {}

    def add(y: WeylElt, f: LaurentPoly, sign: int = 1) -> None:
        if sign > 0 and y not in out:
            out[y] = f  # f is a fresh dict, owned from here on
        else:
            lp_add_into(out.setdefault(y, {}), f, sign)

    for y, f in element.items():
        add(y, apply_Ti(W.R, i, f))
        twisted = {reflect(i, mu): c for mu, c in f.items()}
        siy = W.mult(si, y)
        if siy.length > y.length:
            add(siy, twisted)
        else:
            add(y, twisted, -1)
    return {y: f for y, f in out.items() if f}


def chevalley_recurrence(W: WeylGroup, w: WeylElt, lam: Weight) -> NilHeckeCoeffs:
    """The coefficients b_z with T_w e^lam = sum_z b_z T_z, by composing the
    letters of a reduced word of w innermost-first."""
    state: NilHeckeCoeffs = {W.e: lp_monomial(lam)}
    for i in reversed(w.word):
        state = hecke_compose(W, i, state)
    return state

