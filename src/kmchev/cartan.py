"""Generalized Cartan matrices, their realizations, weights and real coroots.

Weights live in an ambient lattice of rank N = 2n - rank(A), where n is the
number of Dynkin nodes.  Coordinates are chosen so that the first n entries
of a weight are its pairings with the simple coroots; consequently the i-th
fundamental weight is the i-th standard basis vector and a simple reflection
only touches coordinates through the root vector alpha_i.  For an untwisted
affine matrix this produces the familiar basis (Lambda_0, ..., Lambda_{n-1},
delta), with alpha_i = sum_j a[j][i] Lambda_j + [i = 0] delta; the extra
coordinates are read and printed as ``delta=q`` (parse_weight, format_weight).

All arithmetic is exact and weights are tuples of Python ints: weight sums,
pairings and reflections are plain int arithmetic, and LS paths store no
Fraction either (their step lengths are ints over one denominator).  The
set-up of a realization is integer too: the pivot columns, each column
reduced fraction-free against the independent ones before it, give the rank
and the completion columns, and the symmetrizer is propagated as ints.
Nothing here imports ``fractions``: a weight coordinate is whatever ``int``
reads, and parse_weight refuses any other text (``1/2``, ``1.5``, also
``2/2``), so a non-integral weight never reaches the weight arithmetic;
a library caller's float or bool coordinate is refused at the models'
entries (check_integral), before any memo keyed by the weight is filled.
"""
from __future__ import annotations

import math
import operator

# A weight, in the coordinates described in the module docstring.
Weight = tuple[int, ...]


def _same_rank(u: Weight, v: Weight) -> None:
    if len(u) != len(v):
        raise ValueError(f"weights of different rank: {u}, {v}")


def wt_add(u: Weight, v: Weight) -> Weight:
    _same_rank(u, v)
    return tuple(map(operator.add, u, v))


def wt_neg(u: Weight) -> Weight:
    return tuple(map(operator.neg, u))


def wt_scale(c: int, u: Weight) -> Weight:
    return tuple([c * a for a in u])


# A Laurent polynomial in the e^mu, {weight: coefficient}, zero coefficients never stored
LaurentPoly = dict


def lp_monomial(mu: Weight, c: int = 1) -> LaurentPoly:
    return {mu: c} if c else {}


def lp_add_into(dst: LaurentPoly, src: LaurentPoly, sign: int = 1) -> None:
    for mu, c in src.items():
        new = dst.get(mu, 0) + sign * c
        if new:
            dst[mu] = new
        else:
            dst.pop(mu, None)


def _pivot_columns(rows) -> list[int]:
    """The pivot columns of an integer matrix, those outside the span of the
    columns before them; the rank is their number.  Each column is reduced,
    fraction-free, against every independent column before it (each with a
    row where the ones after it are zero, so a zero there only scales the
    column) and kept, divided by its gcd, if anything is left."""
    kept: list[tuple[int, list[int]]] = []  # (its row, the reduced column)
    pivots = []
    for j, col in enumerate(zip(*rows)):
        for r, b in kept:
            col = [b[r] * x - col[r] * y for x, y in zip(col, b)]
        r = next((r for r, x in enumerate(col) if x), None)
        if r is not None:
            g = math.gcd(*col)
            kept.append((r, [x // g for x in col]))
            pivots.append(j)
    return pivots


def _symmetrizes(d, a) -> bool:
    """d_i a_ij = d_j a_ji for every pair of nodes."""
    return all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(len(a)) for j in range(i))


def _symmetrizer(a) -> tuple[int, ...]:
    """Primitive positive integers d with d_i a_ij = d_j a_ji, or raise ValueError.

    Ints are propagated along the Dynkin diagram from each node not yet
    reached (the root of its component, set to what 1 has been scaled to): a
    node j first reached from i gets d_i a_ij / a_ji, every node set so far
    scaled first when that is not an int.  The walk crosses only edges with
    both entries non-zero, so the closing check catches a zero-pattern
    mismatch and a cycle that forces an inconsistent ratio alike.
    """
    n = len(a)
    d, one = [0] * n, 1
    for root in range(n):
        if d[root]:
            continue
        d[root] = one
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if d[j] or not (a[i][j] and a[j][i]):
                    continue
                if (num := d[i] * a[i][j]) % a[j][i]:
                    scale = -a[j][i] // math.gcd(num, a[j][i])
                    d, num, one = [x * scale for x in d], num * scale, one * scale
                d[j] = num // a[j][i]
                stack.append(j)
    g = math.gcd(*d)
    d = tuple(x // g for x in d)
    if not _symmetrizes(d, a):
        raise ValueError("matrix is not symmetrizable")
    return d


def _integer(x, what: str) -> int:
    """x itself if it is a Python int (bools excluded), else ValueError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


class GCM:
    """A symmetrizable generalized Cartan matrix with a primitive symmetrizer."""

    __slots__ = ("a", "d")

    def __init__(self, a: tuple[tuple[int, ...], ...], d: tuple[int, ...]):
        self.a = a
        self.d = d

    def __eq__(self, other):
        if type(other) is not GCM:
            return NotImplemented
        return (self.a, self.d) == (other.a, other.d)

    def __hash__(self):
        return hash((self.a, self.d))

    def __repr__(self):
        return f"GCM(a={self.a!r}, d={self.d!r})"

    @property
    def n(self) -> int:
        return len(self.a)

    @staticmethod
    def from_matrix(rows) -> "GCM":
        """Validate the GCM axioms and compute the symmetrizer.

        >>> GCM.from_matrix([[2, -1], [-2, 2]]).d
        (2, 1)
        """
        if not isinstance(rows, (list, tuple)) or not rows or not all(isinstance(row, (list, tuple)) for row in rows):
            raise ValueError("matrix must be an array of one or more arrays")
        n = len(rows)
        a = tuple(tuple(_integer(x, "Cartan matrix entry") for x in row) for row in rows)
        if any(len(row) != n for row in a):
            raise ValueError("matrix is not square")
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError(f"diagonal entry a[{i}][{i}] != 2")
            for j in range(n):
                if i != j and a[i][j] > 0:
                    raise ValueError(f"off-diagonal entry a[{i}][{j}] > 0")
        return GCM(a, _symmetrizer(a))

    def to_json(self) -> dict:
        return {"matrix": [list(r) for r in self.a], "symmetrizer": list(self.d)}


class Coroot:
    """A real coroot: coordinates c in the simple-coroot basis plus, in tandem,
    the ambient vector of the corresponding real root (the tandem vector is
    what a reflection needs; carrying it around sidesteps the symmetrizer).
    Equality and hashing read c only.
    """

    __slots__ = ("c", "root")

    def __init__(self, c: tuple[int, ...], root: Weight):
        self.c = c
        self.root = root

    def __eq__(self, other):
        return isinstance(other, Coroot) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"Coroot({','.join(map(str, self.c))})"


def pairing(alpha: Coroot, mu: Weight) -> int:
    """<alpha, mu> for a coroot alpha; exact integer on lattice weights.

    The ambient coordinates were chosen so that pairing with the i-th simple
    coroot reads off the i-th coordinate, so this is a short dot product.
    """
    return sum(map(operator.mul, alpha.c, mu))


class Realization:
    """An ambient realization of a GCM: the simple roots alpha, the Weyl
    vector rho and the simple coroots.  The fundamental weights are the first
    n standard basis vectors, so they need no table of their own.
    """

    def __init__(self, gcm: GCM, node_names: tuple[str, ...] | None = None):
        self.gcm = gcm
        n = gcm.n
        a = gcm.a
        # Completion columns: those a right-to-left greedy scan finds dependent,
        # i.e. off the pivots of the column-reversed matrix.  The completed
        # columns so have the smallest indices; for an untwisted affine
        # matrix that is exactly {0}, giving alpha_0 the delta coordinate.
        kept = {n - 1 - c for c in _pivot_columns([r[::-1] for r in a])}
        extra = [j for j in range(n) if j not in kept]
        self.n = n
        self.N = n + len(extra)
        self.node_names = node_names or tuple(str(i) for i in range(n))
        # alpha_j: pairings (column j of a) followed by the completion coordinates.
        self.alpha = tuple(
            tuple(a[i][j] for i in range(n)) + tuple(1 if j == col else 0 for col in extra)
            for j in range(n)
        )
        self.rho = tuple(1 if k < n else 0 for k in range(self.N))
        self.simple_coroots = tuple(
            Coroot(tuple(1 if k == i else 0 for k in range(n)), self.alpha[i])
            for i in range(n)
        )

    def simple_reflection(self, i: int, mu: Weight) -> Weight:
        """s_i(mu) = mu - <alpha_i^vee, mu> alpha_i."""
        alpha = self.alpha[i]
        if len(mu) != len(alpha):
            raise ValueError(f"weights of different rank: {mu}, {alpha}")
        c = mu[i]
        if c == 0:
            return mu
        return tuple([x - c * y for x, y in zip(mu, alpha)])

    def coroot_reflection(self, alpha: Coroot, mu: Weight) -> Weight:
        """s_alpha(mu) = mu - <alpha, mu> root(alpha)."""
        if len(mu) != len(alpha.root):
            raise ValueError(f"weights of different rank: {mu}, {alpha.root}")
        c = pairing(alpha, mu)
        if c == 0:
            return mu
        return tuple([x - c * y for x, y in zip(mu, alpha.root)])

    def reflect_coroot(self, i: int, beta: Coroot) -> Coroot:
        """s_i(beta), acting on the coroot side; the tandem root rides along."""
        # <beta, alpha_i> = sum_j c_j a_{ji}
        c = sum(cj * self.gcm.a[j][i] for j, cj in enumerate(beta.c) if cj)
        newc = tuple(x - c if k == i else x for k, x in enumerate(beta.c)) if c else beta.c
        return Coroot(newc, self.simple_reflection(i, beta.root))

    def is_dominant(self, mu: Weight) -> bool:
        return min(mu[:self.n]) >= 0

    def check_dominant(self, mu: Weight) -> None:
        """ValueError unless mu is a dominant weight of this realization,
        its coordinates ints (check_integral)."""
        check_integral(mu)
        if len(mu) != self.N or not self.is_dominant(mu):
            raise ValueError(f"weight {mu} is not a dominant weight of rank {self.N}")

    def parse_weight(self, text: str) -> Weight:
        """Parse "c_0,c_1,...[,delta=q ...]" into an ambient weight.

        The plain entries are coordinates on the fundamental weights in node
        order; delta=q entries set the extra coordinates: in corank one a
        trailing delta=q, in higher corank one per extra coordinate in order
        (or none), as format_weight prints them.
        """
        coords: list = []
        deltas: list = []
        for tok in text.split(","):
            tok = tok.strip()
            is_delta = tok.startswith("delta=")
            value = _coordinate(tok[len("delta="):] if is_delta else tok, tok)
            (deltas if is_delta else coords).append(value)
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} fundamental coordinates, got {len(coords)}")
        corank = self.N - self.n
        if deltas and corank == 0:
            raise ValueError("delta= coordinate requires an affine realization (corank >= 1)")
        if deltas and len(deltas) != corank:
            raise ValueError(f"expected {corank} delta= coordinates in corank {corank}, got {len(deltas)}")
        return tuple(coords + (deltas or [0] * corank))

    def format_weight(self, mu: Weight) -> str:
        """Fundamental coordinates, then the extra ones as delta=q: in corank
        one only when non-zero, in higher corank all of them, so that their
        positions tell them apart."""
        head = ",".join(str(x) for x in mu[: self.n])
        extra = mu[self.n:]
        tail = "".join(f",delta={x}" for x in extra if x != 0 or len(extra) > 1)
        return head + tail


def check_integral(mu: Weight) -> None:
    """ValueError unless every coordinate of mu is an int and none a bool: a
    float or a bool equal to an int would pass for it in the keys of a
    group's memos (WeylGroup.image) and leave there values the int's calls read."""
    if any(type(c) is bool or not isinstance(c, int) for c in mu):
        raise ValueError(f"weight {mu} has a coordinate that is not an int")


def check_sign(sign: int) -> None:
    """ValueError unless sign is the int 1 or -1: True and 1.0 equal 1 but are no sign."""
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, not {sign!r}")


def _coordinate(text: str, tok: str) -> int:
    """A weight coordinate: the int that int() reads, else ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"weight coordinate {tok!r} is not an integral number") from None


PRESETS = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A1~": [[2, -2], [-2, 2]],
    "A2~": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
}


def realization_from_preset(name: str) -> Realization:
    """Build the realization for a named Cartan matrix.

    Finite presets use the traditional 1-based node names; affine ones start
    the numbering at the affine node 0.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    gcm = GCM.from_matrix(PRESETS[name])
    first = 0 if name.endswith("~") else 1
    return Realization(gcm, tuple(str(i + first) for i in range(gcm.n)))


def _json_value(text: str):
    """json.loads(text), read by the C scanner that json.decoder binds, so a
    well-formed file loads neither json nor the re and enum it imports."""
    from _json import make_scanner
    from types import SimpleNamespace

    scan = make_scanner(SimpleNamespace(strict=True, object_hook=None, object_pairs_hook=None,
                                        parse_float=float, parse_int=int, parse_constant=float))
    try:
        value, end = scan(text, len(text) - len(text.lstrip(" \t\n\r")))
        if not text[end:].strip(" \t\n\r"):
            return value
    except StopIteration:
        pass
    except RecursionError:  # json.loads would raise it too
        raise ValueError("JSON nested deeper than the recursion limit") from None
    import json  # json's own error for what the scanner cannot read whole
    return json.loads(text)


def realization_from_json_file(path: str) -> Realization:
    """Load {"matrix": [[...]], "symmetrizer": [...]?, "nodes": [...]?}, the only keys read, from a file;
    once it is open, all it refuses (another key, an empty matrix, a wrong shape) raises ValueError."""
    with open(path) as fh:
        data = _json_value(fh.read())
    if not isinstance(data, dict):
        raise ValueError('expected a JSON object with a "matrix" key')
    unknown = [key for key in data if key not in ("matrix", "symmetrizer", "nodes")]
    if unknown or "matrix" not in data:
        raise ValueError(f"unknown key {unknown[0]!r}" if unknown else "missing key 'matrix'")
    gcm = GCM.from_matrix(data["matrix"])
    if "symmetrizer" in data:
        if not isinstance(data["symmetrizer"], list):
            raise ValueError("symmetrizer must be an array")
        given = tuple(_integer(x, "symmetrizer entry") for x in data["symmetrizer"])
        if len(given) != gcm.n or min(given) <= 0 or not _symmetrizes(given, gcm.a):
            raise ValueError("symmetrizer does not symmetrize the matrix")
    nodes = data.get("nodes", [str(i) for i in range(gcm.n)])
    if not isinstance(nodes, list) or not all(isinstance(x, str) for x in nodes):
        raise ValueError("nodes must be an array of strings")
    if len(nodes) != gcm.n:
        raise ValueError("nodes list has wrong length")
    if len(set(nodes)) < len(nodes) or any(x.split() != [x] or x == "e" for x in nodes):
        raise ValueError(f"node names {nodes} must be distinct, non-empty, without whitespace and not 'e'")
    return Realization(gcm, tuple(nodes))
