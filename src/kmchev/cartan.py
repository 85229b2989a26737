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
set-up of a realization is integer too: fraction-free Gauss-Jordan
elimination gives the rank, the completion columns, Sylvester's test and
the null root, and the symmetrizer is propagated as reduced int pairs.
``fractions`` is imported only where a caller hands in a rational: a weight
coordinate that ``int`` refuses, ``weight()`` and ``wt_scale`` by a
non-int; ``_num`` turns an integral Fraction back into an int.  Non-integral
input weights are rejected at the boundary (the CLI) and never reach the
weight arithmetic.
"""
from __future__ import annotations

import math
import operator

# A weight, in the coordinates described in the module docstring.
Weight = tuple


def _num(x):
    """Normalise a rational scalar: Fractions with denominator 1 become int."""
    if type(x) is not int and x.denominator == 1:
        return x.numerator
    return x


def weight(*coords) -> Weight:
    from fractions import Fraction

    return tuple(_num(Fraction(c)) for c in coords)


def _same_rank(u: Weight, v: Weight) -> None:
    if len(u) != len(v):
        raise ValueError(f"weights of different rank: {u}, {v}")


def wt_add(u: Weight, v: Weight) -> Weight:
    _same_rank(u, v)
    return tuple(map(operator.add, u, v))


def wt_neg(u: Weight) -> Weight:
    return tuple(map(operator.neg, u))


def wt_scale(c, u: Weight) -> Weight:
    if type(c) is int:
        return tuple([c * a for a in u])
    from fractions import Fraction

    c = Fraction(c)
    return tuple(_num(c * a) for a in u)


def is_lattice(u: Weight) -> bool:
    """True when every coordinate is an integer (an int or an integral Fraction)."""
    return all(a.denominator == 1 for a in u)


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


def _eliminate(rows) -> tuple[list[list[int]], list[int], list[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (reduced, pivots, values): the reduced row echelon form with each
    row divided by its gcd and each pivot positive (a positive multiple of
    the rational reduced row), its pivot columns, and for each pivot the
    entry that stood in the pivot position before any row swap -- zero
    exactly when the pivot had to be swapped up from a lower row.  Every row
    stays a positive multiple of its rational counterpart, so each value has
    the sign of the rational one.  The rank is len(pivots).
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    values: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        values.append(mat[top][col])
        mat[top], mat[pivot] = mat[pivot], mat[top]
        row = mat[top]
        g = math.gcd(*row) if row[col] > 0 else -math.gcd(*row)
        row = mat[top] = [x // g for x in row]
        p = row[col]
        for r in range(len(mat)):
            c = mat[r][col]
            if r != top and c != 0:
                new = [p * x - c * y for x, y in zip(mat[r], row)]
                g = math.gcd(*new)
                mat[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    return mat, pivots, values


def _components(a) -> list[list[int]]:
    """Connected components of the Dynkin diagram (nodes i,j joined iff a_ij != 0)."""
    n = len(a)
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in seen and (a[i][j] != 0 or a[j][i] != 0):
                    seen.add(j)
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _symmetrizer(a) -> tuple[int, ...]:
    """Primitive positive integers d with d_i a_ij = d_j a_ji, or raise ValueError.

    Ratios are propagated along the Dynkin diagram, each d_i held as a
    reduced int pair (numerator, denominator); a cycle that forces an
    inconsistent ratio means the matrix is not symmetrizable.
    """
    n = len(a)
    d: list[tuple[int, int] | None] = [None] * n
    for comp in _components(a):
        d[comp[0]] = (1, 1)
        stack = [comp[0]]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] == 0 and a[j][i] == 0:
                    continue
                if i == j:
                    continue
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise ValueError(f"not symmetrizable: a[{i}][{j}], a[{j}][{i}] zero-pattern mismatch")
                if a[i][j] == 0:
                    continue
                # d_j = d_i * a_ij / a_ji; both entries are negative
                num, den = d[i][0] * -a[i][j], d[i][1] * -a[j][i]
                g = math.gcd(num, den)
                dj = (num // g, den // g)
                if d[j] is None:
                    d[j] = dj
                    stack.append(j)
                elif d[j] != dj:
                    raise ValueError("not symmetrizable: inconsistent cycle")
    assert all(x is not None and x[0] > 0 and x[1] > 0 for x in d)
    lcm_den = math.lcm(*(den for _, den in d))
    ints = [num * (lcm_den // den) for num, den in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


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

    def classify(self) -> str:
        """Return "finite", "affine", or "indefinite".

        Finite means the symmetrized matrix is positive definite: elimination
        needs no row swap and every pivot is positive, which is Sylvester's
        criterion read off the pivots.  Affine means every connected component
        is finite or carries a strictly positive rational null vector.
        """
        kinds = []
        for comp in _components(self.a):
            _, pivots, values = _eliminate([[self.d[i] * self.a[i][j] for j in comp] for i in comp])
            if pivots == list(range(len(comp))) and all(v > 0 for v in values):
                kinds.append("finite")
            elif _positive_null_vector([[self.a[i][j] for j in comp] for i in comp]) is not None:
                kinds.append("affine")
            else:
                kinds.append("indefinite")
        if "indefinite" in kinds:
            return "indefinite"
        if "affine" in kinds:
            return "affine"
        return "finite"

    def to_json(self) -> dict:
        return {"matrix": [list(r) for r in self.a], "symmetrizer": list(self.d)}


def _positive_null_vector(mat) -> tuple[int, ...] | None:
    """The primitive positive integer vector m with mat·m = 0 when the kernel
    of the square matrix is one-dimensional and spanned by a vector whose
    entries are all positive (or all negative); else None."""
    n = len(mat)
    reduced, pivots, _ = _eliminate(mat)
    if len(pivots) != n - 1:
        return None
    # row r reads p_r m_{pivots[r]} + x_r m_free = 0 with its pivot p_r > 0:
    # m_free = L, the lcm of the pivots, gives m_{pivots[r]} = -x_r L / p_r
    free = next(c for c in range(n) if c not in pivots)
    if not all(reduced[r][free] < 0 for r in range(n - 1)):
        return None
    scale = math.lcm(*(reduced[r][c] for r, c in enumerate(pivots)))
    m = [scale] * n
    for r, c in enumerate(pivots):
        m[c] = -reduced[r][free] * scale // reduced[r][c]
    g = math.gcd(*m)
    return tuple(x // g for x in m)


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

    @property
    def height(self) -> int:
        return sum(self.c)

    def is_positive(self) -> bool:
        return all(x >= 0 for x in self.c)

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
        kept = {n - 1 - c for c in _eliminate([r[::-1] for r in a])[1]}
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
        if c == 0:
            newc = beta.c
        else:
            newc = tuple(x - c if k == i else x for k, x in enumerate(beta.c))
        return Coroot(newc, self.simple_reflection(i, beta.root))

    def is_dominant(self, mu: Weight) -> bool:
        return all(mu[i] >= 0 for i in range(self.n))

    def positive_coroots_up_to(self, bound: float) -> list[Coroot]:
        """All positive real coroots of height <= bound (math.inf for all, in
        finite type), sorted by (height, c).

        Generated by reflecting simple coroots; a real coroot stays positive
        under s_i unless it is alpha_i^vee itself, so pruning at negatives is
        sound.
        """
        seen = {beta.c: beta for beta in self.simple_coroots if beta.height <= bound}
        frontier = list(seen.values())
        while frontier:
            new = []
            for beta in frontier:
                for i in range(self.n):
                    img = self.reflect_coroot(i, beta)
                    if img.c not in seen and img.is_positive() and img.height <= bound:
                        seen[img.c] = img
                        new.append(img)
            frontier = new
        return sorted(seen.values(), key=lambda b: (b.height, b.c))

    def positive_coroots(self) -> list[Coroot]:
        """All positive coroots; only available in finite type."""
        if self.gcm.classify() != "finite":
            raise ValueError("infinite root system; use positive_coroots_up_to")
        return self.positive_coroots_up_to(math.inf)

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
            if not tok:
                continue
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


def _coordinate(text: str, tok: str):
    """A weight coordinate: an int, or a Fraction (an int when integral) for
    text that int() refuses but Fraction() reads, such as 1/2 or 1.5."""
    try:
        return int(text)
    except ValueError:
        pass
    from fractions import Fraction

    try:
        return _num(Fraction(text))
    except (ValueError, ZeroDivisionError):  # Fraction("1/0") raises the latter
        raise ValueError(f"weight coordinate {tok!r} is not a number") from None


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
    if name.endswith("~"):
        names = tuple(str(i) for i in range(gcm.n))
    else:
        names = tuple(str(i + 1) for i in range(gcm.n))
    return Realization(gcm, names)


def realization_from_json_file(path: str) -> Realization:
    """Load {"matrix": [[...]], "symmetrizer": [...]?, "nodes": [...]?} from a file."""
    import json

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError('expected a JSON object with a "matrix" key')
    gcm = GCM.from_matrix(data["matrix"])
    if "symmetrizer" in data:
        given = tuple(_integer(x, "symmetrizer entry") for x in data["symmetrizer"])
        scaled = _symmetrizer(gcm.a)
        ok = len(given) == gcm.n and all(
            given[i] * scaled[j] == given[j] * scaled[i] for i in range(gcm.n) for j in range(gcm.n)
        )
        if not ok or any(x <= 0 for x in given):
            raise ValueError("symmetrizer does not symmetrize the matrix")
    names = tuple(str(x) for x in data["nodes"]) if "nodes" in data else None
    if names is not None and len(names) != gcm.n:
        raise ValueError("nodes list has wrong length")
    if names is not None and (len(set(names)) < len(names) or any(x.split() != [x] or x == "e" for x in names)):
        raise ValueError(f"node names {list(names)} must be distinct, non-empty, without whitespace and not 'e'")
    return Realization(gcm, names)

