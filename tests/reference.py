"""References that the tests compare the library against.

The elements of a group up to a length are listed breadth first, one layer
of each length (bfs_ball, layer).  The lifts are recomputed by scanning
such a ball, the Bruhat cocovers and covers by reflecting w by every one
of its inversions (the covers of z among the next layer), the lex order of
hyperplanes in Fractions (stdvec), the positive real coroots by reflecting
simple ones (positive_coroots_up_to, all of them in finite type), the full
lex chain of a finite type sorted by the shipped lex_less (lex_chain) and
both chain axioms checked on it position by position
(validate_lambda_chain_finite), the chain-axiom counts N_{<h} in a closed
form that also holds where the lex chain is infinite, a word of T_i
operators by applying its letters one at a time, the product T_i sum_y f_y
T_y by adding each f_y's terms to the rows they feed (hecke_compose_per_y,
the library composes one row z at a time), products of Laurent polynomials
(lp_mul, lp_mul_monomial), a nilHecke coefficient by the signed-subword
formula (chevalley_explicit, a sum of 2^N terms for a word of N letters),
and the LS root operators, endpoint, path format and sort key in Fraction
arithmetic (the library stores int step lengths over one denominator).
ls_path builds a path from its Fraction cut points b, the readable form
the tests write, and ls_b reads them back.  The realization set-up is
redone in Fraction arithmetic: Gauss-Jordan elimination
(eliminate_rational), the Dynkin components by label propagation, the
symmetrizer, the positive null vector and the classification read off
them.
validation_error checks that a path is a genuine LS path of its shape, by
the definition.  The elements of a crystal document are built as dicts
(ls_element, alcove_element, weight_dict), the LS cut points in Fractions,
for json.dumps to give the text the CLI writes from templates.  pytest does not rewrite the asserts of this helper module,
so a check that must hold under python -O raises explicitly.
"""
import functools
import itertools
from fractions import Fraction as Q
from math import gcd, inf, lcm

from kmchev.alcove import LambdaHyperplane, format_hyperplane, lex_less
from kmchev.cartan import lp_add_into, lp_monomial, pairing, wt_add
from kmchev.kring import apply_Ti
from kmchev.lspath import LSPath
from bridge import reflect_right


@functools.cache
def layer(W, k):
    """All elements of length exactly k, sorted by (length, word); empty past
    the longest element in finite type.  Memoised per group."""
    if k == 0:
        return (W.e,)
    grown = {u for w in layer(W, k - 1) for i in range(W.n) if (u := W.lmul(i, w)).length == k}
    return tuple(sorted(grown, key=lambda u: u.key))


def bfs_ball(W, length_bound):
    """All elements of length <= bound, sorted by (length, word)."""
    out = []
    for k in range(length_bound + 1):
        if not layer(W, k):
            break
        out.extend(layer(W, k))
    return out


def lambda_J(W, J):
    """rho with its J coordinates set to 0: a dominant weight whose stabilizer is W_J."""
    return tuple(0 if k in J else c for k, c in enumerate(W.rho))


def up_oracle(W, v, sigma, lam, search_bound):
    """up(v, sigma, lam): the Bruhat-minimum of {w >= v : wW_lam = sigma W_lam}
    within the ball of the given length, checked to be unique."""
    candidates = [
        w
        for w in bfs_ball(W, search_bound)
        if W.coset_min(w, lam) == sigma and W.bruhat_leq(v, w)
    ]
    if not candidates:
        raise ValueError(f"no candidate found within length {search_bound}")
    best = min(candidates, key=lambda w: w.key)
    if not all(W.bruhat_leq(best, w) for w in candidates):
        raise AssertionError("minimum not unique")
    return best


def down_oracle(W, w, sigma, lam):
    """down(w, sigma, lam): the Bruhat-maximum of {v <= w : vW_lam = sigma W_lam},
    scanning the ball under l(w), checked to be unique."""
    candidates = [
        v
        for v in bfs_ball(W, w.length)
        if W.coset_min(v, lam) == sigma and W.bruhat_leq(v, w)
    ]
    if not candidates:
        raise ValueError(f"no element of the coset of {sigma!r} lies below {w!r}")
    best = max(candidates, key=lambda v: v.key)
    if not all(W.bruhat_leq(v, best) for v in candidates):
        raise AssertionError("maximum not unique")
    return best


def inversions(W, w):
    """The positive coroots sent negative by w^{-1}; exactly length many.

    For a reduced word (i_1, ..., i_N) these are
    s_{i_N} ... s_{i_{k+1}} (alpha_{i_k}^vee) for k = N, ..., 1.
    """
    word = w.word
    out = []
    for k in range(len(word) - 1, -1, -1):
        beta = W.R.simple_coroots[word[k]]
        for j in word[k + 1:]:
            beta = W.R.reflect_coroot(j, beta)
        if min(beta.c) < 0:
            raise AssertionError(f"inversion {beta!r} of {w!r} is not positive")
        out.append(beta)
    return tuple(out)


def cocovers_by_inversions(W, w):
    """All (v, beta) with v lessdot w and w = v s_beta, sorted by v: w
    reflected by each of its inversions, kept where one letter shorter."""
    out = []
    for beta in inversions(W, w):
        v = reflect_right(W, w, beta)
        if v.length == w.length - 1:
            out.append((v, beta))
    return sorted(out, key=lambda pair: pair[0].key)


def covers_by_inversions(W, z):
    """All covers (w, beta) of z: the (w, beta) with ℓ(w) = ℓ(z)+1 and
    (z, beta) among cocovers_by_inversions(w), in layer order."""
    return [(w, beta) for w in layer(W, z.length + 1) for v, beta in cocovers_by_inversions(W, w) if v is z]


def lp_mul_monomial(f, mu, c=1):
    """f * c e^mu."""
    return {wt_add(nu, mu): c * x for nu, x in f.items()} if c else {}


def lp_mul(f, g):
    """The product of two Laurent polynomials."""
    out = {}
    for mu, c in f.items():
        lp_add_into(out, lp_mul_monomial(g, mu, c))
    return out


def stdvec(lam, h):
    """The lex comparison vector (k, c_1, ..., c_r) / <alpha, lam> of the
    hyperplane h = (alpha, k), in Fractions: the rational order that
    alcove.lex_less computes in ints."""
    p = pairing(h.alpha, lam)
    if not 0 <= h.k < p:
        raise ValueError(f"{h!r} is not a hyperplane for this weight")
    return (Q(h.k, p),) + tuple(Q(c, p) for c in h.alpha.c)


def positive_coroots_up_to(R, bound=inf):
    """All positive real coroots of height (sum of c) at most bound, sorted
    by (height, c); bound=inf, the default, only in finite type.

    Generated by reflecting simple coroots: a real coroot stays positive
    under s_i unless it is alpha_i^vee itself, so pruning at negatives is
    sound.
    """
    if bound == inf and classify_rational(R.gcm.a, R.gcm.d) != "finite":
        raise ValueError("infinite root system: give a height bound")
    seen = {beta.c: beta for beta in R.simple_coroots if sum(beta.c) <= bound}
    frontier = list(seen.values())
    while frontier:
        new = []
        for beta in frontier:
            for i in range(R.n):
                img = R.reflect_coroot(i, beta)
                if img.c not in seen and min(img.c) >= 0 and sum(img.c) <= bound:
                    seen[img.c] = img
                    new.append(img)
        frontier = new
    return sorted(seen.values(), key=lambda b: (sum(b.c), b.c))


def lex_chain(R, lam):
    """The full lex chain (finite type only), sorted by the shipped lex_less."""
    out = [LambdaHyperplane(alpha, k) for alpha in positive_coroots_up_to(R) for k in range(pairing(alpha, lam))]
    out.sort(key=functools.cmp_to_key(lambda a, b: lex_less(lam, b, a) - lex_less(lam, a, b)))
    return out


def validate_lambda_chain_finite(R, lam, chain):
    """(ok, why): both chain axioms checked on an explicit (finite) hyperplane
    sequence.

    Axiom (1) is the per-coroot ordering of the levels k; completeness asks
    each positive coroot alpha to occur exactly <alpha, lam> times with levels
    0..<alpha,lam>-1.  Axiom (2) is the counting identity N_{<h}(alpha + m
    beta) = N_{<h}(alpha) + m N_{<h}(beta) for beta = first(h), checked for
    every position, every coroot pair and every integer m (of either sign)
    making alpha + m*beta a positive coroot.
    """
    pos = positive_coroots_up_to(R)
    by_c = {alpha.c: alpha for alpha in pos}
    seen = {}
    for h in chain:
        if h.alpha not in by_c.values():
            return False, f"{h!r}: not a positive coroot"
        p = pairing(h.alpha, lam)
        if not 0 <= h.k < p:
            return False, f"{h!r}: level outside [0, {p})"
        seen.setdefault(h.alpha, []).append(h.k)
    for alpha in pos:
        p = pairing(alpha, lam)
        ks = seen.get(alpha, [])
        if sorted(ks) != list(range(p)):
            return False, f"{alpha!r}: levels {ks} != 0..{p - 1}"
        if ks != sorted(ks):
            return False, f"{alpha!r}: levels out of order"

    def multiples(alpha, beta):
        """(m, gamma) for each m != 0 with gamma = alpha + m*beta positive."""
        for gamma in pos:
            diff = tuple(g - a for g, a in zip(gamma.c, alpha.c))
            pairs = [(d, b) for d, b in zip(diff, beta.c) if b != 0]
            if any(d % b for d, b in pairs):
                continue
            ms = {d // b for d, b in pairs}
            if len(ms) != 1 or 0 in ms:
                continue
            m = ms.pop()
            if all(d == m * b for d, b in zip(diff, beta.c)):
                yield m, gamma

    counts = {alpha: 0 for alpha in pos}
    for idx, h in enumerate(chain):
        beta = h.alpha
        for alpha in pos:
            if alpha == beta:
                continue
            for m, gamma in multiples(alpha, beta):
                lhs = counts[gamma]
                rhs = counts[alpha] + m * counts[beta]
                if lhs != rhs:
                    return False, (
                        f"position {idx} ({h!r}): N({gamma!r})={lhs} but "
                        f"N({alpha!r}) + {m}*N({beta!r}) = {rhs}"
                    )
        counts[beta] += 1
    return True, None


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


def hecke_compose_per_y(W, i, element, table):
    """T_i sum_y f_y T_y as a dict, consuming ``element`` one y at a time:
    T_i (f T_y) = (T_i f) T_y + (s_i f) T_i T_y, with T_i T_y = T_{s_i y}
    when the length goes up and -T_y otherwise, each f_y added in whole to
    the rows it feeds."""
    out = {}
    while element:
        y, f = element.popitem()
        lp_add_into(out.setdefault(y, {}), apply_Ti(W.R, i, f, table))
        twisted = {table.data[mu][3]: c for mu, c in f.items()}  # apply_Ti entered every mu
        siy = W.lmul(i, y)
        if siy.length > y.length:
            lp_add_into(out.setdefault(siy, {}), twisted)
        else:
            lp_add_into(out[y], twisted, -1)
    return {y: f for y, f in out.items() if f}


def lp_act(W, w, f):
    """w acting on a Laurent polynomial, e^mu -> e^{w(mu)}."""
    return {W.act(w, mu): c for mu, c in f.items()}


EXPLICIT_WORD_CAP = 20


def _explicit_groups(W, word):
    """Group the 2^N signed subwords of `word` by their 0-Hecke product."""
    if len(word) > EXPLICIT_WORD_CAP:
        raise ValueError(f"explicit expansion capped at {EXPLICIT_WORD_CAP} letters")
    groups = {}
    for eps in itertools.product((0, 1), repeat=len(word)):
        y = W.e
        sign = 1
        for k, i in enumerate(word):
            if eps[k]:
                yi = W.from_word(y.word + (i,))
                if yi.length > y.length:
                    y = yi
                else:
                    sign = -sign
        groups.setdefault(y, []).append((eps, sign))
    return groups


def chevalley_explicit(W, w, v, lam, word=None):
    """Coefficient of T_v in T_w e^lam by the signed-subword formula.

    Subwords eps of a reduced word of w whose surviving letters multiply to
    ±T_v contribute sign(eps) · A_eps e^lam, where A_eps applies, right to
    left, the Weyl reflection s_{i_k} at surviving positions and T_{i_k} at
    the others.
    """
    if word is None:
        word = w.word
    else:
        word = tuple(word)
        if W.from_word(word) != w or len(word) != w.length:
            raise ValueError("word is not a reduced word for w")
    total = {}
    for eps, sign in _explicit_groups(W, word).get(v, []):
        f = lp_monomial(lam)
        for k in range(len(word) - 1, -1, -1):
            i = word[k]
            if eps[k]:
                f = lp_act(W, W.from_word((i,)), f)
            else:
                f = apply_Ti(W.R, i, f)
        lp_add_into(total, f, sign)
    return total


def ls_path(lam, b, dirs):
    """The LSPath with cut points b (b[0] = 0, strictly increasing, below 1)
    and directions dirs in chain order."""
    if len(b) != len(dirs) or not b or b[0] != 0:
        raise ValueError(f"cut points {b} do not start at 0 or do not match {len(dirs)} directions")
    D = lcm(*[Q(x).denominator for x in b])
    ext = [x * D for x in b] + [D]
    return LSPath(lam, D, [(int(ext[j + 1] - ext[j]), d) for j, d in enumerate(dirs)])


def ls_b(p):
    """The cut points b_j = (a_1 + ... + a_{j-1}) / D of p as Fractions; b_1 = 0."""
    b = [Q(0)]
    for a in p.a[:-1]:
        b.append(b[-1] + Q(a, p.D))
    return tuple(b)


def ls_path_key(p):
    """The sort key of the Fraction form: the number of directions, the cut
    points as (numerator, denominator) pairs, then the directions."""
    return (len(p.dirs), tuple((x.numerator, x.denominator) for x in ls_b(p)), tuple(d.key for d in p.dirs))


def weight_dict(R, mu):
    """A weight as a JSON document gives it: its fundamental coordinates, and
    delta in corank one."""
    return {"fund": list(mu[:R.n]), **({"delta": mu[R.n]} if R.N > R.n else {})}


def ls_element(R, p, mu):
    """The dict of the LS path p of weight mu in a crystal document."""
    return {"b": [str(x) for x in ls_b(p)], "dirs": [[R.node_names[i] for i in d.word] for d in p.dirs],
            "weight": weight_dict(R, mu)}


def alcove_element(R, lam, seq, wt):
    """The dict of the adapted sequence seq of weight wt in a crystal document."""
    return {"z": [R.node_names[i] for i in seq.z.word], "labels": [format_hyperplane(lam, h) for h in seq.hs],
            "weight": weight_dict(R, wt)}


def ls_steps(p):
    """Traversal steps [(a_1, d_1), ...] of p with Fraction lengths; d_1 = iota(p)."""
    m = len(p.dirs)
    ext = list(ls_b(p)) + [1]
    return [(ext[m + 1 - k] - ext[m - k], p.dirs[m - k]) for k in range(1, m + 1)]


def ls_from_steps(lam, raw):
    """The canonical LS path of Fraction-length steps, dropping zero steps and
    merging neighbours of equal direction."""
    merged = []
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
    bvals = [None] * m
    acc = 0
    for k, (a, _) in enumerate(merged, start=1):
        acc += a
        bvals[m - k] = Q(1 - acc)
    if bvals[0] != 0:
        raise ValueError(f"step lengths sum to {1 - bvals[0]}, not 1")
    return ls_path(lam, bvals, [d for _, d in reversed(merged)])


def _ls_root_op(W, lam, i, st, ns):
    """f_i on Fraction steps with i-slopes ns (e_i on the reversed path)."""
    H = [Q(0)]
    for (a, _), n in zip(st, ns):
        H.append(H[-1] + a * n)
    M = min(H)
    if M.denominator != 1 or H[-1].denominator != 1:
        raise ValueError(f"non-integral height {M} or {H[-1]}: not an LS path")
    if H[-1] - M < 1:
        return None

    def refl(d):
        return W.coset_min(W.lmul(i, d), lam)

    j1 = max(k for k, h in enumerate(H) if h == M)
    j2 = min(k for k in range(j1 + 1, len(H)) if H[k] >= M + 1)
    out = list(st[:j1])
    for k in range(j1, j2 - 1):
        if ns[k] < 0:
            raise ValueError(f"height falls inside ({M}, {M + 1}): not an LS path")
        out.append((st[k][0], refl(st[k][1])))
    a, d = st[j2 - 1]
    if H[j2] > M + 1:
        cut = (M + 1 - H[j2 - 1]) / ns[j2 - 1]
        out += [(cut, refl(d)), (a - cut, d)]
    else:
        out.append((a, refl(d)))
    return out + st[j2:]


def ls_f(W, p, i):
    st = ls_steps(p)
    out = _ls_root_op(W, p.lam, i, st, [W.act(d, p.lam)[i] for _, d in st])
    return None if out is None else ls_from_steps(p.lam, out)


def ls_e(W, p, i):
    st = ls_steps(p)[::-1]
    out = _ls_root_op(W, p.lam, i, st, [-W.act(d, p.lam)[i] for _, d in st])
    return None if out is None else ls_from_steps(p.lam, out[::-1])


def ls_endpoint(W, p):
    """p(1) = sum of step length times direction image, in Fractions."""
    total = [Q(0)] * W.R.N
    for a, d in ls_steps(p):
        total = [t + a * x for t, x in zip(total, W.act(d, p.lam))]
    if any(t.denominator != 1 for t in total):
        raise ValueError(f"endpoint of {ls_format_path(p)} is not a lattice weight")
    return tuple(t.numerator for t in total)


def ls_format_path(p):
    segs = []
    for a, d in ls_steps(p):
        part = "" if a == 1 else f"{a} "
        name = "" if d.length == 0 else f"{d!r}·"
        segs.append(f"{part}{name}λ")
    return "(" + ", ".join(segs) + ")"


def _quotient_chain_exists(W, lam, lo, hi, bnext):
    """Is there a saturated chain of cosets lo -> hi (through minimal
    representatives) all of whose cover coroots beta satisfy
    bnext * <beta, lam> in Z?"""
    if lo == hi:
        return True
    for v, beta in W.cocovers(hi):
        if v != W.coset_min(v, lam):
            continue  # not a minimal representative: not a quotient cover
        if (bnext * pairing(beta, lam)).denominator != 1:
            continue
        if not W.bruhat_leq(lo, v):
            continue
        if _quotient_chain_exists(W, lam, lo, v, bnext):
            return True
    return False


def validation_error(W, p):
    """None when p is a genuine LS path of its shape; else a diagnosis."""
    R = W.R
    if not R.is_dominant(p.lam):
        return "shape is not dominant"
    bs = list(ls_b(p))
    for x, y in zip(bs, bs[1:]):
        if not x < y:
            return "b not strictly increasing"
    if not bs[-1] < 1:
        return "b_m >= 1"
    for d in p.dirs:
        if d != W.coset_min(d, p.lam):
            return f"direction {d!r} is not W_lam-minimal"
    for a, b in zip(p.dirs, p.dirs[1:]):
        if a == b or not W.bruhat_leq(a, b):
            return f"directions not strictly increasing at {a!r}, {b!r}"
    for j in range(len(p.dirs) - 1):
        if not _quotient_chain_exists(W, p.lam, p.dirs[j], p.dirs[j + 1], bs[j + 1]):
            return f"no admissible chain from {p.dirs[j]!r} to {p.dirs[j + 1]!r} at b={bs[j + 1]}"
    return None


# -- the realization set-up in Fraction arithmetic ------------------------------


def eliminate_rational(rows):
    """Gauss-Jordan elimination of a rational matrix.

    Returns (reduced, pivots, values): the reduced row echelon form, its pivot
    columns, and for each pivot the entry that stood in the pivot position
    before any row swap -- zero exactly when the pivot had to be swapped up
    from a lower row.  The rank is len(pivots).
    """
    mat = [[Q(x) for x in row] for row in rows]
    pivots = []
    values = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        values.append(mat[top][col])
        mat[top], mat[pivot] = mat[pivot], mat[top]
        inv = 1 / mat[top][col]
        mat[top] = [x * inv for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots, values


def dynkin_components(a):
    """The nodes of each connected component of the Dynkin diagram (i and j
    joined when a_ij or a_ji is nonzero), sorted, in the order of their least
    nodes: every node takes the least label of its neighbours until none moves."""
    n = len(a)
    label = list(range(n))
    moved = True
    while moved:
        moved = False
        for i, j in itertools.product(range(n), repeat=2):
            if (a[i][j] or a[j][i]) and label[j] < label[i]:
                label[i], moved = label[j], True
    return [[i for i in range(n) if label[i] == root] for root in sorted(set(label))]


def symmetrizer_rational(a):
    """Primitive positive integers d with d_i a_ij = d_j a_ji, each
    component's first node starting at 1 and the ratios propagated as
    Fractions; None when the matrix is not symmetrizable."""
    n = len(a)
    d = [None] * n
    for comp in dynkin_components(a):
        d[comp[0]] = Q(1)
        stack = [comp[0]]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or (a[i][j] == 0 and a[j][i] == 0):
                    continue
                if a[i][j] == 0 or a[j][i] == 0:
                    return None
                ratio = Q(a[i][j], a[j][i])
                if d[j] is None:
                    d[j] = d[i] * ratio
                    stack.append(j)
                elif d[j] != d[i] * ratio:
                    return None
    scale = lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def positive_null_vector_rational(mat):
    """The primitive positive integer m with mat·m = 0 when the kernel is one
    line spanned by a vector of one sign, read off the reduced rows; else None."""
    n = len(mat)
    reduced, pivots, _ = eliminate_rational(mat)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    if not all(reduced[r][free] < 0 for r in range(n - 1)):
        return None
    m = [Q(1) if c == free else -reduced[pivots.index(c)][free] for c in range(n)]
    scale = lcm(*(x.denominator for x in m))
    ints = [int(x * scale) for x in m]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def classify_rational(a, d):
    """"finite", "affine" or "indefinite": per component, Sylvester's test on
    the rational pivots of the symmetrized matrix, else a positive null vector."""
    kinds = set()
    for comp in dynkin_components(a):
        _, pivots, values = eliminate_rational([[d[i] * a[i][j] for j in comp] for i in comp])
        if pivots == list(range(len(comp))) and all(v > 0 for v in values):
            kinds.add("finite")
        elif positive_null_vector_rational([[a[i][j] for j in comp] for i in comp]) is not None:
            kinds.add("affine")
        else:
            kinds.add("indefinite")
    return next(kind for kind in ("indefinite", "affine", "finite") if kind in kinds)
