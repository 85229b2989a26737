"""The i-string chart: how the Deodhar lifts of LS paths vary along an
i-string.

An i-string is a maximal f_i-chain of LS paths.  Over a base element, the
lift fibers of a string's members (lift_subset, up or down) fall into
one of eight columns, U.1.1-U.3.2 for the up lifts and D.1.1-D.3.2 for the
down ones; classify_string names the column and raises LookupError when no
column describes the string.  A member that does not admit the base lies in
no fiber: lspath.up_path and down_path return None for it.  This is the
case analysis with which the paper repairs the gap in the Griffeth-Ram and
Pittie-Ram proofs.  It checks kmchev.lspath from outside and no kmchev
command runs it: scripts/chart_census.py and the tests import it from this
directory.
"""

from __future__ import annotations

from kmchev.lspath import LSPath, down_path, e, f, path_key, up_path
from kmchev.weyl import WeylElt, WeylGroup


# -- i-strings -----------------------------------------------------------------


class IString:
    """A maximal f_i-chain: elements[k] = f_i^k(head)."""

    __slots__ = ("i", "elements")

    def __init__(self, i: int, elements: tuple):
        self.i = i
        self.elements = elements

    def __eq__(self, other):
        if type(other) is not IString:
            return NotImplemented
        return (self.i, self.elements) == (other.i, other.elements)

    def __hash__(self):
        return hash((self.i, self.elements))

    def __repr__(self):
        return f"IString(i={self.i!r}, elements={self.elements!r})"

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


def lift_subset(W: WeylGroup, paths, start: WeylElt, target: WeylElt, direction: str) -> frozenset:
    """The members of `paths` that lift `start` to `target`: Pu_{target,start}
    for direction "up" and Pd_{start,target} for "down"."""
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', not {direction!r}")
    lift = up_path if direction == "up" else down_path
    return frozenset(p for p in paths if lift(W, start, p) == target)


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
    not describe raises LookupError, and a direction other than "up" or
    "down" raises ValueError.
    """
    if S.i != i:
        raise ValueError(f"the string runs in direction {S.i}, not {i}")
    members = frozenset(S.elements)
    s_base = W.lmul(i, base)
    # The per-direction pieces; everything below them is shared.
    if direction == "up":
        lift, tag, grows, end, far, strand = up_path, "U", 1, S.head, S.tail, S.elements[:-1]
        length_error, coset_error = "classification over z needs s_i z > z", "z W_lam <= phi(head) fails"
    elif direction == "down":
        lift, tag, grows, end, far, strand = down_path, "D", -1, S.tail, S.head, S.elements[1:]
        length_error, coset_error = "classification over w needs s_i w < w", "iota(tail) <= w W_lam fails"
    else:
        raise ValueError(f"direction must be 'up' or 'down', not {direction!r}")

    def moves_on(x: WeylElt) -> bool:
        """Does s_i move x further in the lift's direction?"""
        return (W.lmul(i, x).length - x.length) * grows > 0

    if not moves_on(base):
        raise ValueError(length_error)
    if (x := lift(W, base, end)) is None:
        raise ValueError(coset_error)
    sx = W.lmul(i, x)
    if not moves_on(x):
        raise LookupError(f"s_i does not move the lift {x!r} on")

    def observe(y: WeylElt):
        return tuple(lift_subset(W, members, start, target, direction)
                     for start in (base, s_base) for target in (y, W.lmul(i, y)))

    size = len(S.elements)
    columns = _columns(tag, members, end, far, frozenset(S.middle))
    primary = _match_columns(columns, observe(x), size)
    branch_values = set()
    for p in strand:
        y = lift(W, s_base, p)
        if y is not None and y not in (x, sx):
            branch_values.add(y if moves_on(y) else W.lmul(i, y))
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
