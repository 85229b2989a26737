"""Lakshmibai-Seshadri paths and their crystal structure.

An LS path of shape ``lam`` (a dominant integral weight) is stored in one
exact int form ``(lam, D, a, dirs)``:

* ``dirs = (sigma_1, ..., sigma_m)`` -- a strictly increasing Bruhat chain of
  cosets in W/W_lam, each held by its minimal representative coset_min(w, lam);
* ``a = (a_1, ..., a_m)`` -- positive ints with sum ``D`` and
  ``gcd(D, a_1, ..., a_m) = 1``: ``sigma_j`` runs for ``a_j / D`` of the time.

``LSPath(lam, D, [(a_j, sigma_j), ...])`` drops zero lengths, merges
neighbours of one direction and divides out the gcd.  The cut points are
``b_j = (a_1 + ... + a_{j-1}) / D``; ``cuts(p)`` gives them as reduced int
pairs.  Walking the path from 0 visits the directions in *decreasing*
Bruhat order, ``sigma_m`` first for ``a_m / D`` of the time: ``sigma_m`` is
the initial direction ``iota(p)`` and ``sigma_1`` the final one ``phi(p)``.

The crystal operator f_i reflects by s_i the part of the path between the
last minimum M of its i-height profile and the first point at height M + 1;
every reflected direction d climbs there and becomes s_i d.  e_i is f_i
read on the reversed path, whose i-slopes are negated, so both share one
body, and both refuse a shape that is not dominant.  All local minima of
the height profile of a shape-``lam`` LS path are integers, which the code
checks (ValueError otherwise); the level M + 1 may be reached strictly
inside a step, which is split there and only its part before is reflected.

The operators read the int form directly, and the i-heights are ints over
D too, as b_j * <beta, lam> is an integer on an LS path's chain (Littelmann,
Paths and root operators, Ann. Math. 142, 1995).  The images d(lam) are
memoised per group (WeylGroup.image).  f_i lowers a path's weight p(1) by
alpha_i, so the crystal closures carry each path's weight as they make it.

The module also provides the straight path (refusing a lam that is not
dominant), Demazure and opposite Demazure subcrystals, the iterated Deodhar
lifts of a path's direction chain from a Weyl group element (up_path for the
dominant rule, down_path for the antidominant one, None off the cosets they
admit), and one fixed-w Chevalley row chevalley_ls for both signs, which
lifts each chain once.  The chart of how lifts vary along an
i-string (the U.*/D.* case analysis) and the lift fibers it reads check these
lifts from outside, in scripts/chart.py.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .cartan import LaurentPoly, Weight, check_sign, lp_add_into, lp_monomial, wt_neg
from .lifts import down, interval_below, up
from .weyl import WeylElt, WeylGroup, over_cap


class LSPath:
    __slots__ = ("lam", "D", "a", "dirs")

    def __init__(self, lam: Weight, D: int, steps):
        if D <= 0:
            raise ValueError(f"denominator {D} is not positive")
        a, dirs = [], []
        for x, d in steps:
            if x <= 0:
                if x:
                    raise ValueError(f"negative step length {ratio_text(x, D)}")
            elif dirs and dirs[-1] == d:
                a[-1] += x
            else:
                a.append(x)
                dirs.append(d)
        if not a:
            raise ValueError("an LS path has at least one direction")
        if (total := sum(a)) != D:
            raise ValueError(f"step lengths sum to {ratio_text(total, D)}, not 1")
        if (g := math.gcd(D, *a)) > 1:
            D, a = D // g, [x // g for x in a]
        self.lam = lam
        self.D = D
        self.a = tuple(a)
        self.dirs = tuple(dirs)  # WeylElt minimal representatives, strictly increasing

    def __eq__(self, other):
        if type(other) is not LSPath:
            return NotImplemented
        return (self.lam, self.D, self.a, self.dirs) == (other.lam, other.D, other.a, other.dirs)

    def __hash__(self):
        return hash((self.lam, self.D, self.a, self.dirs))

    def __repr__(self):
        return format_path(self)


def straight_path(W: WeylGroup, lam: Weight) -> LSPath:
    """The path of the one direction e; ValueError unless lam is dominant."""
    W.R.check_dominant(lam)
    return LSPath(lam, 1, ((1, W.e),))


def phi(p: LSPath) -> WeylElt:
    """Final direction: the smallest coset in the chain."""
    return p.dirs[0]


def iota(p: LSPath) -> WeylElt:
    """Initial direction: the largest coset in the chain."""
    return p.dirs[-1]


def _reduced(c: int, D: int) -> tuple[int, int]:
    """c / D in lowest terms, as (numerator, denominator)."""
    return c // (g := math.gcd(c, D)), D // g


def ratio_text(c: int, D: int) -> str:
    """c / D (D > 0) as str(Fraction(c, D)) prints it: "n" or "n/d" in lowest terms."""
    n, d = _reduced(c, D)
    return str(n) if d == 1 else f"{n}/{d}"


def cuts(p: LSPath) -> tuple:
    """The cut points b_j = (a_1 + ... + a_{j-1}) / D as reduced
    (numerator, denominator) pairs; b_1 = (0, 1)."""
    return tuple(_reduced(c, p.D) for c in accumulate(p.a[:-1], initial=0))


def path_key(p: LSPath):
    """Deterministic sort key; the cut points as reduced int pairs."""
    return (len(p.dirs), cuts(p), tuple(d.key for d in p.dirs))


def format_path(p: LSPath) -> str:
    segs = []
    for a, d in zip(reversed(p.a), reversed(p.dirs)):
        part = "" if a == p.D else ratio_text(a, p.D) + " "
        name = "" if d.length == 0 else f"{d!r}·"
        segs.append(f"{part}{name}λ")
    return "(" + ", ".join(segs) + ")"


# -- crystal operators ---------------------------------------------------------


def _root_op(W: WeylGroup, p: LSPath, i: int, sign: int) -> LSPath | None:
    """f_i(p) for sign 1, e_i(p) for sign -1 (f_i on the reversed path, whose
    i-slopes are negated), or None: the steps from the last minimum M of the
    i-height profile up to its first point at height M + 1 are reflected by
    s_i, the last one split where it reaches that level (its unreflected rest
    empty when it ends there); a cut that is not a multiple of 1/D multiplies
    D and every step by that step's slope.

    Every local minimum of the height profile of an LS path is an integer
    (Littelmann, Paths and root operators, Ann. Math. 142, 1995), so each
    step of the window climbs: a flat or falling one raises ValueError.  A
    reflected step of direction d so has slope +-<alpha_i^vee, d(lam)> > 0,
    and by Deodhar's lemma (Invent. Math. 39, 1977) s_i d is again the
    minimal representative of its coset.  (H[-1] - M) / D, phi_i(p) for f
    and epsilon_i(p) for e, above the cap W.cap is refused (CapError)."""
    D = p.D
    st = list(zip(p.a, p.dirs))[::-sign]  # traversal order for f, chain order for e
    ns = [sign * W.image(d, p.lam)[i] for _, d in st]
    H = [0, *accumulate(a * n for (a, _), n in zip(st, ns))]
    M = min(H)
    if M % D or H[-1] % D:
        raise ValueError(f"non-integral height {ratio_text(M, D)} or {ratio_text(H[-1], D)}: not an LS path")
    if H[-1] - M > W.cap * D:
        what = f"{'f' if sign > 0 else 'e'}_{W.R.node_names[i]} steps from {format_path(p)}"
        raise over_cap(what, (H[-1] - M) // D, W.cap)
    top = M + D
    if H[-1] < top:
        return None

    j1 = max(k for k, h in enumerate(H) if h == M)
    j2 = min(k for k in range(j1 + 1, len(H)) if H[k] >= top)
    out = list(st[:j1])
    for k in range(j1, j2 - 1):
        if ns[k] <= 0:  # a local minimum strictly between two integers
            raise ValueError(f"height does not climb inside ({M // D}, {M // D + 1}): not an LS path")
        out.append((st[k][0], W.lmul(i, st[k][1])))
    (a, d), n = st[j2 - 1], ns[j2 - 1]
    cut = top - H[j2 - 1]  # the step reaches the level after (cut / n) / D of the time
    if cut % n:
        D, a, out, st = D * n, a * n, [(x * n, y) for x, y in out], [(x * n, y) for x, y in st]
    else:
        cut //= n
    out += [(cut, W.lmul(i, d)), (a - cut, d), *st[j2:]]
    return LSPath(p.lam, D, out[::-sign])


def f(W: WeylGroup, p: LSPath, i: int) -> LSPath | None:
    """Lowering operator in direction i (the weight p(1) drops by alpha_i)."""
    W.R.check_dominant(p.lam)
    return _root_op(W, p, i, 1)


def e(W: WeylGroup, p: LSPath, i: int) -> LSPath | None:
    """Raising operator in direction i (the weight p(1) gains alpha_i)."""
    W.R.check_dominant(p.lam)
    return _root_op(W, p, i, -1)


# -- Demazure subcrystals ------------------------------------------------------


def demazure_crystal(W: WeylGroup, lam: Weight, w: WeylElt) -> dict:
    """{path: weight p(1)} over the closure of the straight path under full
    f_{i}-strings along a reduced word of w, applied innermost-letter first;
    its keys are {p : iota(p) <= w W_lam}.  A w of another group is refused (ValueError)."""
    W.check_element(w)
    paths = {straight_path(W, lam): lam}  # which checks lam, the check f would repeat per call
    for i in reversed(w.word):
        alpha = W.R.alpha[i]
        for p, mu in list(paths.items()):  # the strings start at the paths made before letter i
            q = _root_op(W, p, i, 1)
            while q is not None and q not in paths:
                mu = paths[q] = tuple([x - y for x, y in zip(mu, alpha)])
                q = _root_op(W, q, i, 1)
    return paths


def crystal_up_to(W: WeylGroup, lam: Weight, length_bound: int) -> dict:
    """{path: weight p(1)} over the LS paths whose initial direction has a
    representative of length <= length_bound; f_i never shortens the initial
    direction, so pruned breadth-first closure is exhaustive."""
    todo = [straight_path(W, lam)]  # which checks lam, the check f would repeat per call
    seen = {todo[0]: lam}
    for p in todo:  # appended to as it is read: breadth first
        for i in range(W.n):
            q = _root_op(W, p, i, 1)
            if q is None or q in seen or iota(q).length > length_bound:
                continue
            seen[q] = tuple([x - y for x, y in zip(seen[p], W.R.alpha[i])])
            todo.append(q)
    return seen


def opposite_demazure_ls(W: WeylGroup, lam: Weight, z: WeylElt, length_bound: int) -> dict:
    """{path: weight p(1)} over the paths p that admit an up lift of z
    (phi(p) >= z W_lam) and whose lift stays within the length bound.  Whether
    the bound cut any off is for the alcove fan over z (enumerate_z_adapted)
    to say."""
    return {p: mu for p, mu in crystal_up_to(W, lam, length_bound).items()
            if (x := up_path(W, z, p)) is not None and x.length <= length_bound}


# -- lifts of paths ------------------------------------------------------------


def up_path(W: WeylGroup, z: WeylElt, p: LSPath) -> WeylElt | None:
    """Iterated minimal lifts of z along the chain p.dirs, phi-end first, or
    None unless z W_lam <= phi(p); each later step is automatic because the
    previous lift already lies weakly below the next coset."""
    if not W.bruhat_leq(W.coset_min(z, p.lam), phi(p)):
        return None
    cur = z
    for sigma in p.dirs:
        cur = up(W, cur, sigma, p.lam)
    return cur


def down_path(W: WeylGroup, w: WeylElt, p: LSPath) -> WeylElt | None:
    """Iterated maximal drops of w along the chain p.dirs, iota-end first, or
    None unless iota(p) <= w W_lam."""
    if not W.bruhat_leq(iota(p), W.coset_min(w, p.lam)):
        return None
    cur = w
    for sigma in reversed(p.dirs):
        cur = down(W, cur, sigma, p.lam)
    return cur


# -- Chevalley rows ------------------------------------------------------------


def chevalley_ls(W: WeylGroup, lam: Weight, w: WeylElt, sign: int) -> dict:
    """Fixed-w row of the line bundle of sign * lam: z |-> the sum over
    Pu_{w,z} of e^{p(1)} (sign > 0), or over Pd_{w,z} of
    (-1)^{l(w)-l(z)} e^{-p(1)} (sign < 0).  Rows with no term are omitted.

    The lifts read only a path's direction chain, so the terms of the paths
    that share a chain are summed first and each chain is lifted once.  A
    path lifting some z to w has iota(p) = w W_lam, so sign > 0 tries every
    z of [e, w] against those top chains only; sign < 0 partitions the
    Demazure crystal by the drop of w along each chain (ValueError for a path
    outside it).  Any sign but 1 and -1, or a w of another group, is refused (ValueError)."""
    check_sign(sign)
    W.check_element(w)
    wmin = W.coset_min(w, lam)
    chains: dict[tuple, tuple[LSPath, LaurentPoly]] = {}  # dirs -> (one path with them, their terms)
    for p, mu in demazure_crystal(W, lam, w).items():
        if sign < 0 or iota(p) == wmin:
            lp_add_into(chains.setdefault(p.dirs, (p, {}))[1], lp_monomial(mu if sign > 0 else wt_neg(mu)))
    acc: dict[WeylElt, LaurentPoly] = {}
    if sign > 0:
        for z in interval_below(W, w):
            for rep, poly in chains.values():
                if up_path(W, z, rep) == w:
                    lp_add_into(acc.setdefault(z, {}), poly)
    else:
        for rep, poly in chains.values():
            if (z := down_path(W, w, rep)) is None:
                raise ValueError(f"{format_path(rep)} lies outside the Demazure crystal of {w!r}")
            lp_add_into(acc.setdefault(z, {}), poly, -1 if (w.length - z.length) % 2 else 1)
    return {z: acc[z] for z in sorted(acc, key=lambda u: u.key) if acc[z]}


# -- export --------------------------------------------------------------------


def crystal_dot(W: WeylGroup, paths) -> str:
    """DOT digraph of the f_i-edges within the given vertex set."""
    order = sorted(paths, key=path_key)
    for p in order:  # the check of f, once per path instead of per f_i
        W.R.check_dominant(p.lam)
    index = {p: k for k, p in enumerate(order)}
    quote = str.maketrans({"\\": "\\\\", '"': '\\"'})  # a node name may hold either
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for p in order:
        lines.append(f'  n{index[p]} [label="{format_path(p).translate(quote)}"];')
    for p in order:
        for i in range(W.n):
            q = _root_op(W, p, i, 1)
            if q is not None and q in index:
                lines.append(f'  n{index[p]} -> n{index[q]} [label="{W.R.node_names[i].translate(quote)}"];')
    lines.append("}")
    return "\n".join(lines)
