"""The 0-Hecke / K-nilHecke operators T_i on the group ring of the weight
lattice, and the Chevalley coefficients they compute.

A Laurent polynomial is a dict {weight: nonzero int coefficient}; the empty
dict is zero.  T_i acts along alpha_i-strings.  Write a weight as
mu = b + p alpha_i with n = <alpha_i^vee, mu> and p = floor(n/2), so that
<alpha_i^vee, b> is 0 or 1: b names the string b + Z alpha_i and p is the
position of mu on it.  Then T_i e^mu, read along that string, steps up by 1
at p - n, the position of s_i mu, and down by 1 at p, the position of mu:
it is e^{mu - alpha_i} + ... + e^{mu - n alpha_i} (positions [p - n, p))
for n > 0, 0 for n = 0, and -(e^mu + ... + e^{mu + (-1-n) alpha_i})
(positions [p, p - n)) for n < 0.  So T_i of a polynomial is a sum of
ranges on each string, and s_i sends position q to -q - <alpha_i^vee, b>.
T_i^2 = -T_i, the braid relations hold, and D_i = 1 + T_i is the Demazure operator.
Writing T_w e^{sign lam} = sum_z b_z T_z, the b_z are the equivariant K-Chevalley
coefficients of [L^{sign lam}] [O_w]; chevalley_recurrence computes them by composing the
twisted Leibniz rule letter by letter.  (The closed-form sum over the 2^N signed
subwords of a reduced word checks it in the tests, not here.)  A letter i
is composed one row z at a time, in z.key order (hecke_compose): the row
of z reads the rows f_z and f_{s_i z} of the step before and nothing else,
so a caller can write each row as it is made, and each f_y is freed after
the last row that reads it.  chevalley_rows does so for the outermost
letter: it holds the rows of s_i w and makes those of w as they are asked for.

A run owns one ``Strings`` table per letter i.  It maps each weight mu met to
(n, b, p, s_i mu), and each string b to {q: the weight b + q alpha_i}.
Since s_i mu = mu - n alpha_i = b + (p - n) alpha_i, the reflection of mu
lies on mu's own string, so the twisted term (s_i f) of the Leibniz rule
is read from the same table as the ranges of T_i f.  Each position keeps
the first tuple it is given or builds, so n, b, p and s_i mu are worked out
once per weight and letter, and every row of a step holds one tuple per
weight instead of one per term.  A weight whose T_i range is longer than the
table's cap (W.cap in a run) is refused as it enters, before any term is made.
"""
from __future__ import annotations

from operator import itemgetter

from .cartan import LaurentPoly, Realization, Weight, check_integral, check_sign, lp_monomial, wt_neg
from .weyl import WeylElt, WeylGroup, env_cap, over_cap

# {WeylElt: LaurentPoly}, zero polynomials never stored
NilHeckeCoeffs = dict


class Strings:
    """The alpha_i-strings of the weights one run has met, for one letter i.

    ``data`` maps a weight mu to (n, b, p, s_i mu), with n = <alpha_i^vee, mu>
    and mu = b + p alpha_i as in the module docstring; ``lines`` maps each
    string base b to {q: the weight b + q alpha_i}.  A weight has one slot
    (b, q), and a slot keeps the first tuple it is given or builds, so T_i
    and s_i hand out one tuple per weight however many rows hold it.
    """

    __slots__ = ("i", "name", "cap", "alpha", "data", "lines")

    def __init__(self, R: Realization, i: int, cap: int | None = None):
        if i not in range(R.n):
            raise ValueError(f"{i!r} is not a node: the nodes are 0..{R.n - 1}")
        self.i = i
        self.name = R.node_names[i]
        self.cap = env_cap() if cap is None else cap
        self.alpha = R.alpha[i]
        self.data: dict[Weight, tuple[int, Weight, int, Weight]] = {}
        self.lines: dict[Weight, dict[int, Weight]] = {}

    def add(self, mu: Weight) -> tuple[int, Weight, int, Weight]:
        """Enter mu, its string and s_i mu = mu - n alpha_i = b + (p - n) alpha_i,
        which lies on mu's own string."""
        alpha = self.alpha
        if len(mu) != len(alpha):
            raise ValueError(f"weights of different rank: {mu}, {alpha}")
        n = mu[self.i]
        if n > self.cap or -n > self.cap:  # T_i e^mu has |n| terms
            raise over_cap(f"terms of T_{self.name} e^mu on one alpha_{self.name}-string", abs(n), self.cap)
        p = n // 2
        b = tuple([x - p * a for x, a in zip(mu, alpha)])
        line = self.lines.get(b)
        if line is None:
            line = self.lines[b] = {}
        mu = line.setdefault(p, mu)
        d = self.data[mu] = (n, b, p, self.at(b, line, p - n))
        return d

    def at(self, b: Weight, line: dict[int, Weight], q: int) -> Weight:
        """The weight b + q alpha_i, built once."""
        mu = line.get(q)
        if mu is None:
            mu = line[q] = tuple([x + q * a for x, a in zip(b, self.alpha)])
        return mu


def apply_Ti(R: Realization, i: int, f: LaurentPoly, table: Strings | None = None) -> LaurentPoly:
    """T_i f as range sums along alpha_i-strings (see the module docstring).

    Each monomial c e^mu with n != 0 adds c at p - n, the position of s_i mu
    on the string of b, and takes c off at p, the position of mu; for n < 0
    the first jump lies above the second, which is the range -c on [p, p - n).
    A sweep over each string's sorted range ends then gives the coefficient
    of every position, and only positions with a nonzero sum become weights:
    the sweep reads each one off the string's line, and calls Strings.at only
    for a position whose weight is not built yet.
    ``table`` is the run's table for letter i (a fresh one under KMCHEV_CAP when omitted); it
    enters every weight of f, so s_i mu can be read from it afterwards.
    """
    if table is None:
        table = Strings(R, i)
    elif table.i != i:
        raise ValueError(f"the table of letter {table.i} cannot serve letter {i}")
    data = table.data
    ends: dict[Weight, dict[int, int]] = {}  # b -> {range end q: jump at q}
    for mu, c in f.items():
        d = data.get(mu)
        n, b, p, _ = table.add(mu) if d is None else d
        if not n:
            continue
        jumps = ends.get(b)
        if jumps is None:
            ends[b] = {p - n: c, p: -c}
        else:
            jumps[p - n] = jumps.get(p - n, 0) + c
            jumps[p] = jumps.get(p, 0) - c
    out: LaurentPoly = {}
    lines = table.lines
    at = table.at
    for b, jumps in ends.items():
        line = lines[b]
        qs = sorted(jumps)
        total = 0
        for k in range(len(qs) - 1):
            q = qs[k]
            total += jumps[q]
            if not total:
                continue
            for r in range(q, qs[k + 1]):
                mu = line.get(r)
                out[at(b, line, r) if mu is None else mu] = total
    return out


def hecke_compose(W: WeylGroup, i: int, element: NilHeckeCoeffs, table: Strings):
    """Yield the nonzero rows (z, g_z) of T_i sum_y f_y T_y in z.key order,
    consuming ``element``; ``table`` is the run's table for letter i.

    T_i (f T_y) = (T_i f) T_y + (s_i f) T_i T_y, and T_i T_y is T_{s_i y} when
    the length goes up, -T_y otherwise.  So g_z = T_i f_z, plus
    s_i f_{s_i z} - s_i f_z when s_i z < z: a row reads f_z and f_{s_i z}
    only, and each f_y leaves ``element`` after its last reader, the row of
    the longer of y and s_i y.  In z.key order T_i of f_{s_i z} and of f_z
    has entered their weights in the table before either is twisted.
    """
    lmul, R, data = W.lmul, W.R, table.data
    zs = set(element)
    zs.update([u for y in element if (u := lmul(i, y)).length > y.length])
    for z in sorted(zs, key=lambda u: u.key):
        siz = lmul(i, z)
        down = siz.length < z.length
        f = element.pop(z, {}) if down else element.get(z, {})
        row = apply_Ti(R, i, f, table) if f else {}
        if down:
            for g, sign in ((element.pop(siz, {}), 1), (f, -1)):
                for mu, c in g.items():
                    nu = data[mu][3]
                    c = row.get(nu, 0) + sign * c
                    if c:
                        row[nu] = c
                    else:
                        del row[nu]
        if row:
            yield z, row


def chevalley_recurrence(W: WeylGroup, lam: Weight, w: WeylElt, sign: int) -> NilHeckeCoeffs:
    """The coefficients b_z with T_w e^{sign*lam} = sum_z b_z T_z, for any
    integral lam (no dominance is needed), by composing the letters of a
    reduced word of w innermost-first.  The run owns one ``Strings`` table
    per letter, so each weight's string data is worked out once per letter,
    and every row of a step shares its letter's tuples.  Any sign but 1 and
    -1, a w of another group, or a lam coordinate not an int is refused."""
    check_sign(sign)
    W.check_element(w)
    check_integral(lam)
    tables = {i: Strings(W.R, i, W.cap) for i in set(w.word)}
    state: NilHeckeCoeffs = {W.e: lp_monomial(lam if sign > 0 else wt_neg(lam))}
    for i in reversed(w.word):
        state = dict(hecke_compose(W, i, state, tables[i]))
    return state


def chevalley_rows(W: WeylGroup, lam: Weight, w: WeylElt, sign: int):
    """The rows (z, b_z) of chevalley_recurrence(W, lam, w, sign) in z.key
    order, those of the outermost letter made one at a time as they are
    asked for: with i = w.word[0], the rows of s_i w are held, and
    hecke_compose composes T_i onto them.  T_i ranges start at held weights,
    so the cap refuses the longest one (the least and the greatest
    <alpha_i^vee, mu>) before the first row is made, and so is any input the recurrence refuses."""
    W.check_element(w)
    if not w.word:
        return chevalley_recurrence(W, lam, w, sign).items()
    i = w.word[0]
    held = chevalley_recurrence(W, lam, W.lmul(i, w), sign)
    table = Strings(W.R, i, W.cap)
    for extreme in (min, max):
        table.add(extreme((mu for f in held.values() for mu in f), key=itemgetter(i)))
    return hecke_compose(W, i, held, table)
