"""Lakshmibai-Seshadri paths and their crystal structure.

An LS path of shape ``lam`` (a dominant integral weight) is stored as two
parallel tuples:

* ``b = (b_1, ..., b_m)`` -- strictly increasing rationals with ``b_1 = 0``
  and ``b_m < 1`` (a virtual ``b_{m+1} = 1`` closes the last segment);
* ``dirs = (sigma_1, ..., sigma_m)`` -- a strictly increasing Bruhat chain of
  cosets in W/W_lam, each held by its minimum-length representative.

Walking the actual piecewise-linear path from 0 visits the directions in
*decreasing* Bruhat order: the k-th traversal step is the vector
``(b_{m+2-k} - b_{m+1-k}) * sigma_{m+1-k}(lam)``.  The first direction of the
walk, ``sigma_m``, is the initial direction ``iota(p)``; the last one,
``sigma_1``, is the final direction ``phi(p)``.

The crystal operator f_i reflects by s_i the part of the path between the
last minimum M of its i-height profile and the first point at height M + 1.
e_i is f_i read on the reversed path, whose i-slopes are negated, so both
share one body.  All local minima of the height profile of a shape-``lam``
LS path are integers, which the code checks (ValueError otherwise); the
level M + 1 may still be crossed strictly inside a step, in which case the
step is split there and only the part before the crossing is reflected.

The module also provides Demazure and opposite Demazure subcrystals, the
iterated Deodhar lifts of a path from a Weyl group element (up for the
dominant rule, down for the antidominant one, through one lift_subset), one
fixed-w Chevalley row chevalley_ls for both signs, and the classification of
how lifts vary along an i-string (the U.*/D.* case analysis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cartan import Q, Realization, Weight, _num, pairing, wt_neg
from .kring import LaurentPoly, lp_add_into, lp_monomial
from .lifts import down, interval_below, up
from .weyl import Coset, WeylElt, WeylGroup

__all__ = [
    "LSPath",
    "IString",
    "stabilizer_nodes",
    "straight_path",
    "steps",
    "from_steps",
    "phi",
    "iota",
    "endpoint",
    "validate",
    "validation_error",
    "f",
    "e",
    "demazure_crystal",
    "crystal_up_to",
    "opposite_demazure_ls",
    "up_path",
    "down_path",
    "lift_subset",
    "chevalley_ls",
    "istring",
    "all_istrings",
    "classify_string",
    "path_key",
    "format_path",
    "crystal_dot",
]


def stabilizer_nodes(R: Realization, lam: Weight) -> frozenset:
    """Nodes i with <alpha_i^vee, lam> = 0; generates W_lam for dominant lam."""
    if not R.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    return frozenset(i for i in range(R.gcm.n) if R.pairing_simple(i, lam) == 0)


@dataclass(frozen=True)
class LSPath:
    lam: Weight
    b: tuple
    dirs: tuple  # WeylElt minimal representatives, strictly increasing

    def __post_init__(self):
        assert len(self.b) == len(self.dirs) >= 1
        assert self.b[0] == 0

    def __repr__(self):
        return format_path(self)


def straight_path(W: WeylGroup, lam: Weight) -> LSPath:
    return LSPath(lam, (0,), (W.from_word(()),))


def steps(p: LSPath) -> list:
    """Traversal steps [(a_1, d_1), ...] walking from 0; d_1 = iota(p).

    The b values lie in [0, 1), so a step length is the int 1 (a straight
    path) or a Fraction in (0, 1): no normalisation is needed."""
    m = len(p.dirs)
    ext = list(p.b) + [1]
    return [(ext[m + 1 - k] - ext[m - k], p.dirs[m - k]) for k in range(1, m + 1)]


def from_steps(lam: Weight, raw) -> LSPath:
    """Rebuild the canonical (b, dirs) form from traversal steps.

    Zero-length steps are dropped and adjacent steps with equal direction are
    merged, so crystal operators can hand in freshly cut step lists.
    """
    merged: list[list] = []
    for a, d in raw:
        if a == 0:
            continue
        if a < 0:
            raise ValueError(f"negative step length {a}")
        if merged and merged[-1][1] == d:
            merged[-1][0] += a
        else:
            merged.append([a, d])
    m = len(merged)
    dirs = tuple(d for _, d in reversed(merged))
    bvals: list = [None] * m
    acc = 0
    for k, (a, _) in enumerate(merged, start=1):
        acc += a
        bvals[m - k] = _num(1 - acc)
    if bvals[0] != 0:
        raise ValueError(f"step lengths sum to {1 - bvals[0]}, not 1")
    return LSPath(lam, tuple(bvals), dirs)


def phi(p: LSPath) -> WeylElt:
    """Final direction: the smallest coset in the chain."""
    return p.dirs[0]


def iota(p: LSPath) -> WeylElt:
    """Initial direction: the largest coset in the chain."""
    return p.dirs[-1]


def endpoint(W: WeylGroup, p: LSPath) -> Weight:
    """p(1) = sum_j (b_{j+1} - b_j) sigma_j(lam), a lattice weight for an LS
    path: summed as int multiples over the lcm L of the step denominators,
    then divided by L, which must go exactly (ValueError otherwise)."""
    st = steps(p)
    scale = math.lcm(*(a.denominator for a, _ in st))
    total = [0] * W.R.N
    for a, d in st:
        m = a.numerator * (scale // a.denominator)
        total = [t + m * x for t, x in zip(total, W.act(d, p.lam))]
    if any(t % scale for t in total):
        raise ValueError(f"endpoint of {format_path(p)} is not a lattice weight")
    return tuple([t // scale for t in total])


def path_key(p: LSPath):
    """Deterministic sort key."""
    return (
        len(p.dirs),
        tuple((x.numerator, x.denominator) for x in p.b),
        tuple(d.key for d in p.dirs),
    )


def format_path(p: LSPath) -> str:
    segs = []
    for a, d in steps(p):
        part = "" if a == 1 else f"{a} "
        name = "" if d.length == 0 else f"{d!r}·"
        segs.append(f"{part}{name}λ")
    return "(" + ", ".join(segs) + ")"


# -- validity ----------------------------------------------------------------


def _quotient_chain_exists(W: WeylGroup, J: frozenset, lam: Weight, lo: WeylElt, hi: WeylElt, bnext) -> bool:
    """Is there a saturated chain of cosets lo -> hi (through minimal
    representatives) all of whose cover coroots beta satisfy
    bnext * <beta, lam> in Z?"""
    if lo == hi:
        return True
    for v, beta in W.cocovers(hi):
        if v != W.coset_decompose(v, J)[0]:
            continue  # not a minimal representative: not a quotient cover
        if (bnext * pairing(beta, lam)).denominator != 1:
            continue
        if not W.bruhat_leq(lo, v):
            continue
        if _quotient_chain_exists(W, J, lam, lo, v, bnext):
            return True
    return False


def validation_error(W: WeylGroup, p: LSPath) -> str | None:
    """None when p is a genuine LS path of its shape; else a diagnosis."""
    R = W.R
    if not R.is_dominant(p.lam):
        return "shape is not dominant"
    J = stabilizer_nodes(R, p.lam)
    bs = list(p.b)
    if bs[0] != 0:
        return "b_1 != 0"
    for x, y in zip(bs, bs[1:]):
        if not x < y:
            return "b not strictly increasing"
    if not bs[-1] < 1:
        return "b_m >= 1"
    for d in p.dirs:
        if d != W.coset_decompose(d, J)[0]:
            return f"direction {d!r} is not W_lam-minimal"
    for a, b in zip(p.dirs, p.dirs[1:]):
        if a == b or not W.bruhat_leq(a, b):
            return f"directions not strictly increasing at {a!r}, {b!r}"
    for j in range(len(p.dirs) - 1):
        if not _quotient_chain_exists(W, J, p.lam, p.dirs[j], p.dirs[j + 1], p.b[j + 1]):
            return f"no admissible chain from {p.dirs[j]!r} to {p.dirs[j + 1]!r} at b={p.b[j + 1]}"
    return None


def validate(W: WeylGroup, p: LSPath) -> bool:
    return validation_error(W, p) is None


# -- crystal operators ---------------------------------------------------------


def _reflect_dir(W: WeylGroup, J: frozenset, i: int, d: WeylElt) -> WeylElt:
    return W.coset_mult_simple(i, Coset(d, J)).rep


def _root_op(W: WeylGroup, lam: Weight, i: int, st: list, ns: list) -> list | None:
    """The step list of f_i applied to the path with steps `st` and i-slopes
    `ns`, or None: the steps from the last minimum M of the i-height profile
    up to its first point at height M + 1 are reflected by s_i, the step
    crossing that level split at it.  e_i is this on the reversed path."""
    H = [0]
    for (a, _), n in zip(st, ns):
        H.append(H[-1] + a * n)
    M = min(H)
    if M.denominator != 1 or H[-1].denominator != 1:
        raise ValueError(f"non-integral height {M} or {H[-1]}: not an LS path")
    if H[-1] - M < 1:
        return None
    J = stabilizer_nodes(W.R, lam)
    j1 = max(k for k, h in enumerate(H) if h == M)
    j2 = min(k for k in range(j1 + 1, len(H)) if H[k] >= M + 1)
    out = list(st[:j1])
    for k in range(j1, j2 - 1):
        if ns[k] < 0:  # the profile turns down strictly between two integers
            raise ValueError(f"height falls inside ({M}, {M + 1}): not an LS path")
        a, d = st[k]
        out.append((a, _reflect_dir(W, J, i, d)))
    a, d = st[j2 - 1]
    if H[j2] > M + 1:
        cut = Q(M + 1 - H[j2 - 1], ns[j2 - 1])  # strictly inside the step
        out.append((cut, _reflect_dir(W, J, i, d)))
        out.append((a - cut, d))
    else:
        out.append((a, _reflect_dir(W, J, i, d)))
    out.extend(st[j2:])
    return out


def f(W: WeylGroup, p: LSPath, i: int) -> LSPath | None:
    """Lowering operator in direction i (endpoint drops by alpha_i)."""
    st = steps(p)
    out = _root_op(W, p.lam, i, st, [W.act(d, p.lam)[i] for _, d in st])
    return None if out is None else from_steps(p.lam, out)


def e(W: WeylGroup, p: LSPath, i: int) -> LSPath | None:
    """Raising operator in direction i (endpoint gains alpha_i): f_i on the
    reversed path, whose i-slopes are negated."""
    st = steps(p)[::-1]
    out = _root_op(W, p.lam, i, st, [-W.act(d, p.lam)[i] for _, d in st])
    return None if out is None else from_steps(p.lam, out[::-1])


# -- Demazure subcrystals ------------------------------------------------------


def demazure_crystal(W: WeylGroup, lam: Weight, w: WeylElt) -> frozenset:
    """Closure of the straight path under full f_{i}-strings along a reduced
    word of w, applied innermost-letter first.  Equals {p : iota(p) <= w W_lam}."""
    paths = {straight_path(W, lam)}
    for i in reversed(w.word):
        extra = set()
        for p in list(paths):
            q = f(W, p, i)
            while q is not None and q not in paths and q not in extra:
                extra.add(q)
                q = f(W, q, i)
        paths |= extra
    return frozenset(paths)


def crystal_up_to(W: WeylGroup, lam: Weight, length_bound: int) -> frozenset:
    """All LS paths whose initial direction has a representative of length
    <= length_bound; f_i never shortens the initial direction, so pruned
    breadth-first closure is exhaustive."""
    start = straight_path(W, lam)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(W.n):
                q = f(W, p, i)
                if q is None or q in seen:
                    continue
                if iota(q).length > length_bound:
                    continue
                seen.add(q)
                nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def opposite_demazure_ls(W: WeylGroup, lam: Weight, z: WeylElt, length_bound: int):
    """Paths p with phi(p) >= z W_lam whose lift from z stays within the
    length bound.  Returns (paths, truncated)."""
    J = stabilizer_nodes(W.R, lam)
    zcos = W.coset_min_rep(z, J)
    pool = crystal_up_to(W, lam, length_bound)
    keep = set()
    truncated = False
    for p in pool:
        if not W.coset_leq(zcos, Coset(phi(p), J)):
            continue
        if up_path(W, z, p).length <= length_bound:
            keep.add(p)
        else:
            truncated = True
    if W.R.gcm.classify() != "finite":
        truncated = True
    return frozenset(keep), truncated


# -- lifts of paths ------------------------------------------------------------


def up_path(W: WeylGroup, z: WeylElt, p: LSPath) -> WeylElt:
    """Iterated minimal lifts of z along the direction chain, phi-end first.

    Requires z W_lam <= phi(p); each later step is automatic because the
    previous lift already lies weakly below the next coset.
    """
    J = stabilizer_nodes(W.R, p.lam)
    cur = z
    for sigma in p.dirs:
        cur = up(W, cur, Coset(sigma, J))
    return cur


def down_path(W: WeylGroup, w: WeylElt, p: LSPath) -> WeylElt:
    """Iterated maximal drops of w along the direction chain, iota-end first.

    Requires iota(p) <= w W_lam.
    """
    J = stabilizer_nodes(W.R, p.lam)
    cur = w
    for sigma in reversed(p.dirs):
        cur = down(W, cur, Coset(sigma, J))
    return cur


def _lifting(W: WeylGroup, start: WeylElt, J: frozenset, direction: str):
    """(admits, lift) for lifting `start` along a path: "up" admits p when
    start W_lam <= phi(p) and lifts by up_path, "down" admits p when
    iota(p) <= start W_lam and lifts by down_path."""
    scos = W.coset_min_rep(start, J)
    if direction == "up":
        return (lambda p: W.coset_leq(scos, Coset(phi(p), J))), up_path
    if direction == "down":
        return (lambda p: W.coset_leq(Coset(iota(p), J), scos)), down_path
    raise ValueError(f"direction must be 'up' or 'down', not {direction!r}")


def lift_subset(W: WeylGroup, paths, start: WeylElt, target: WeylElt, J: frozenset, direction: str) -> frozenset:
    """The members of `paths` that lift `start` to `target`: Pu_{target,start}
    for direction "up" and Pd_{start,target} for "down"."""
    admits, lift = _lifting(W, start, J, direction)
    return frozenset(p for p in paths if admits(p) and lift(W, start, p) == target)


# -- Chevalley rows ------------------------------------------------------------


def chevalley_ls(W: WeylGroup, lam: Weight, w: WeylElt, sign: int, crystal=None) -> dict:
    """Fixed-w row of the line bundle of sign * lam: z |-> the sum over
    Pu_{w,z} of e^{p(1)} (sign > 0), or over Pd_{w,z} of
    (-1)^{l(w)-l(z)} e^{-p(1)} (sign < 0).  Rows with no term are omitted.

    A path lifting some z to w has iota(p) = w W_lam, so sign > 0 tries
    every z of [e, w] against those top paths only; sign < 0 partitions the
    Demazure crystal by the drop of w along each path."""
    if crystal is None:
        crystal = demazure_crystal(W, lam, w)
    J = stabilizer_nodes(W.R, lam)
    acc: dict[WeylElt, LaurentPoly] = {}
    if sign > 0:
        wcos = W.coset_min_rep(w, J)
        tops = sorted((p for p in crystal if Coset(iota(p), J) == wcos), key=path_key)
        for z in interval_below(W, w):
            for p in lift_subset(W, tops, z, w, J, "up"):
                lp_add_into(acc.setdefault(z, {}), lp_monomial(endpoint(W, p)))
    else:
        for p in sorted(crystal, key=path_key):
            z = down_path(W, w, p)
            sign_z = -1 if (w.length - z.length) % 2 else 1
            lp_add_into(acc.setdefault(z, {}), lp_monomial(wt_neg(endpoint(W, p)), sign_z))
    return {z: acc[z] for z in sorted(acc, key=lambda u: u.key) if acc[z]}


# -- i-strings -----------------------------------------------------------------


@dataclass(frozen=True)
class IString:
    """A maximal f_i-chain: elements[k] = f_i^k(head)."""

    i: int
    elements: tuple

    @property
    def head(self) -> LSPath:
        return self.elements[0]

    @property
    def tail(self) -> LSPath:
        return self.elements[-1]

    @property
    def middle(self) -> tuple:
        return self.elements[1:-1]


def istring(W: WeylGroup, p: LSPath, i: int) -> IString:
    head = p
    while (q := e(W, head, i)) is not None:
        head = q
    elems = [head]
    while (q := f(W, elems[-1], i)) is not None:
        elems.append(q)
    return IString(i, tuple(elems))


def all_istrings(W: WeylGroup, paths, i: int) -> list:
    """The i-strings meeting the given set (strings may extend outside it)."""
    done: set[LSPath] = set()
    out = []
    for p in sorted(paths, key=path_key):
        if p in done:
            continue
        s = istring(W, p, i)
        done.update(s.elements)
        out.append(s)
    return out


# -- lift classification charts -------------------------------------------------

_EMPTY: frozenset = frozenset()


def _columns(tag: str, S, h, t, mid):
    """The eight chart columns, named tag.*.  The D-columns are the U-columns
    with head and tail swapped, so "D" is built with h and t exchanged."""
    s_h = S - {h}
    s_t = S - {t}
    hh = frozenset({h})
    tt = frozenset({t})
    return [
        (f"{tag}.1.1", (S, _EMPTY, tt, _EMPTY), 1),
        (f"{tag}.1.2", (S, _EMPTY, S, _EMPTY), 2),
        (f"{tag}.1.3", (S, _EMPTY, frozenset({h, t}), mid), 3),
        (f"{tag}.2.1", (hh, s_h, _EMPTY, tt), 1),
        (f"{tag}.2.2", (hh, s_h, hh, s_h), 2),
        (f"{tag}.2.3", (hh, s_h, s_t, tt), 3),
        (f"{tag}.3.1", (_EMPTY, _EMPTY, s_t, _EMPTY), 2),
        (f"{tag}.3.2", (_EMPTY, _EMPTY, hh, mid), 3),
    ]


def _match_columns(columns, observed, size):
    labels = [name for name, pattern, least in columns if observed == pattern and size >= least]
    if len(labels) > 1:
        raise LookupError(f"chart columns are not disjoint: {labels}")
    return labels[0] if labels else None


def classify_string(W: WeylGroup, S: IString, base: WeylElt, i: int, direction: str = "up") -> str:
    """Classify how the Deodhar lifts of an i-string behave over a base element.

    direction="up": requires s_i(base) > base and base W_lam <= phi(head); the
    four sets Pu over {lifted w, s_i w} x {base, s_i base} are matched against
    the eight U-columns.  direction="down" mirrors this with drops from the
    base (requires s_i(base) < base and base W_lam >= iota(tail)) and the
    D-columns.  When the string branches to a second lift value off the
    {w, s_i w} pair, the branch column U.3.* / D.3.* is returned and the
    coarse view must match column *.1.1 / *.2.1.  A string the chart does
    not describe raises LookupError.
    """
    if S.i != i:
        raise ValueError(f"the string runs in direction {S.i}, not {i}")
    lam = S.head.lam
    J = stabilizer_nodes(W.R, lam)
    members = frozenset(S.elements)
    si = W.simple(i)
    s_base = W.mult(si, base)
    admits, lift = _lifting(W, base, J, direction)
    admits_s, _ = _lifting(W, s_base, J, direction)
    # The per-direction pieces; everything below them is shared.
    if direction == "up":
        tag, grows, end, far, strand = "U", 1, S.head, S.tail, S.elements[:-1]
        length_error, coset_error = "classification over z needs s_i z > z", "z W_lam <= phi(head) fails"
    else:
        tag, grows, end, far, strand = "D", -1, S.tail, S.head, S.elements[1:]
        length_error, coset_error = "classification over w needs s_i w < w", "iota(tail) <= w W_lam fails"

    def moves_on(x: WeylElt) -> bool:
        """Does s_i move x further in the lift's direction?"""
        return (W.mult(si, x).length - x.length) * grows > 0

    if not moves_on(base):
        raise ValueError(length_error)
    if not admits(end):
        raise ValueError(coset_error)
    x = lift(W, base, end)
    sx = W.mult(si, x)
    if not moves_on(x):
        raise LookupError(f"s_i does not move the lift {x!r} on")

    def observe(y: WeylElt):
        return tuple(lift_subset(W, members, start, target, J, direction)
                     for start in (base, s_base) for target in (y, W.mult(si, y)))

    size = len(S.elements)
    columns = _columns(tag, members, end, far, frozenset(S.middle))
    primary = _match_columns(columns, observe(x), size)
    branch_values = set()
    for p in strand:
        if admits_s(p):
            y = lift(W, s_base, p)
            if y not in (x, sx):
                branch_values.add(y if moves_on(y) else W.mult(si, y))
    if branch_values:
        if len(branch_values) > 1:
            raise LookupError(f"more than one branch value: {branch_values}")
        if primary not in (f"{tag}.1.1", f"{tag}.2.1"):
            raise LookupError(f"a branching string matches {primary}, not {tag}.1.1 or {tag}.2.1")
        label = _match_columns(columns, observe(branch_values.pop()), size)
        if label is None:
            raise LookupError("no branch column matches the observed sets")
        return label
    if primary is None:
        raise LookupError("no column matches the observed sets")
    return primary


# -- export --------------------------------------------------------------------


def crystal_dot(W: WeylGroup, paths, name: str = "crystal") -> str:
    """DOT digraph of the f_i-edges within the given vertex set."""
    order = sorted(paths, key=path_key)
    index = {p: k for k, p in enumerate(order)}
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for p in order:
        lines.append(f'  n{index[p]} [label="{format_path(p)}"];')
    for p in order:
        for i in range(W.n):
            q = f(W, p, i)
            if q is not None and q in index:
                lines.append(f'  n{index[p]} -> n{index[q]} [label="{W.R.node_names[i]}"];')
    lines.append("}")
    return "\n".join(lines)
