import itertools
import json
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from kmchev.cartan import (
    GCM,
    PRESETS,
    Realization,
    _pivot_columns,
    pairing,
    realization_from_json_file,
    realization_from_preset,
    wt_add,
    wt_neg,
    wt_scale,
)
from kmchev.weyl import WeylGroup
from reference import (
    classify_rational,
    eliminate_rational,
    lp_act,
    positive_coroots_up_to,
    positive_null_vector_rational,
    symmetrizer_rational,
)


def classify(matrix):
    gcm = GCM.from_matrix(matrix)
    return classify_rational(gcm.a, gcm.d)


def test_classification():
    assert classify([[2, -1], [-1, 2]]) == "finite"
    assert classify([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]) == "affine"
    assert classify([[2, -2], [-2, 2]]) == "affine"
    assert classify([[2, -3], [-3, 2]]) == "indefinite"


def test_symmetrizers():
    assert realization_from_preset("B2").gcm.d == (2, 1)
    assert realization_from_preset("G2").gcm.d == (3, 1)
    assert realization_from_preset("A2~").gcm.d == (1, 1, 1)


def test_gcm_rejects_bad_matrices():
    with pytest.raises(ValueError):
        GCM.from_matrix([[2, -1], [0, 2]])  # a_ij = 0 iff a_ji = 0 violated
    with pytest.raises(ValueError):
        GCM.from_matrix([[1, -1], [-1, 2]])  # diagonal must be 2
    for entry in (-1.5, -1.0, Q(-1), True, "-1"):  # only Python ints are entries
        with pytest.raises(ValueError, match="integer"):
            GCM.from_matrix([[2, entry], [-1, 2]])


@pytest.mark.parametrize("preset", ["A2", "B2", "G2", "A2~"])
def test_simple_pairings_follow_the_matrix(preset):
    R = realization_from_preset(preset)
    n = R.n
    for i in range(n):
        for j in range(n):
            fundamental_j = tuple(1 if k == j else 0 for k in range(R.N))
            assert pairing(R.simple_coroots[i], fundamental_j) == (1 if i == j else 0)
            assert R.alpha[j][i] == R.gcm.a[i][j]


def test_simple_reflection_is_an_involution_and_moves_rho():
    R = realization_from_preset("B2")
    for i in range(R.n):
        assert R.simple_reflection(i, R.simple_reflection(i, R.rho)) == R.rho
        assert R.simple_reflection(i, R.rho) == wt_add(R.rho, wt_neg(R.alpha[i]))


def test_reflections_refuse_a_weight_of_another_rank():
    """simple_reflection, and W.act and lp_act through it, and
    coroot_reflection raise a ValueError that names the rank instead of
    cutting or padding a weight, also when <alpha_i^vee, mu> = 0 would return
    mu unchanged; so does wt_add."""
    R = realization_from_preset("A2~")  # N = 4
    W = WeylGroup(R)
    for mu in [(1, 0, 0), (0, 1, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), ()]:
        with pytest.raises(ValueError, match="rank"):
            R.simple_reflection(0, mu)
        with pytest.raises(ValueError, match="rank"):
            W.act(W.from_word((0, 1)), mu)
        with pytest.raises(ValueError, match="rank"):
            lp_act(W, W.from_word((0,)), {mu: 1})
        with pytest.raises(ValueError, match="rank"):
            R.coroot_reflection(R.simple_coroots[0], mu)
    with pytest.raises(ValueError, match="rank"):
        wt_add((1,), (1, 2))
    assert R.simple_reflection(0, (1, 0, 0, 0)) == (-1, 1, 1, -1)
    assert R.simple_reflection(0, (0, 1, 0, 0)) == (0, 1, 0, 0)
    assert R.coroot_reflection(R.simple_coroots[0], (1, 0, 0, 0)) == (-1, 1, 1, -1)
    assert R.coroot_reflection(R.simple_coroots[0], (0, 1, 0, 0)) == (0, 1, 0, 0)


def test_affine_null_root():
    R = realization_from_preset("A2~")
    delta = null_root(R)
    assert delta == wt_add(wt_add(R.alpha[0], R.alpha[1]), R.alpha[2])
    for i in range(R.n):
        assert delta[i] == 0
        assert R.simple_reflection(i, delta) == delta


@pytest.mark.parametrize("preset,count", [("A2", 3), ("B2", 4), ("G2", 6)])
def test_positive_coroot_counts(preset, count):
    R = realization_from_preset(preset)
    pos = positive_coroots_up_to(R)
    assert len(pos) == count
    assert all(min(alpha.c) >= 0 for alpha in pos)
    assert sorted(pos, key=lambda a: (sum(a.c), a.c)) == pos


def test_affine_coroots_grow_without_bound():
    R = realization_from_preset("A2~")
    small = positive_coroots_up_to(R, 3)
    large = positive_coroots_up_to(R, 6)
    assert set(small) < set(large)
    assert all(all(x >= 0 for x in alpha.c) for alpha in large)


def test_coroot_pairing_is_reflection_equivariant():
    R = realization_from_preset("B2")
    mu = (3, -2)
    for alpha in positive_coroots_up_to(R):
        for i in range(R.n):
            lhs = pairing(R.reflect_coroot(i, alpha), R.simple_reflection(i, mu))
            assert lhs == pairing(alpha, mu)


def test_parse_and_format_weights():
    R = realization_from_preset("A2~")
    mu = R.parse_weight("1,1,0")
    assert mu == (1, 1, 0, 0)
    nu = R.parse_weight("2,-1,1,delta=-3")
    assert nu == (2, -1, 1, -3)
    assert R.format_weight(nu) == "2,-1,1,delta=-3"
    assert R.format_weight(mu) == "1,1,0"
    with pytest.raises(ValueError):
        R.parse_weight("1,1")
    R2 = realization_from_preset("A2")
    with pytest.raises(ValueError):
        R2.parse_weight("1,1,delta=2")


def test_parse_weight_inverts_format_weight():
    """parse_weight reads back what format_weight prints, in corank 0, 1 and 2."""
    cor2 = Realization(GCM.from_matrix([[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]))
    for R in (realization_from_preset("G2"), realization_from_preset("A2~"), cor2):
        corank = R.N - R.n
        for head in ((1, 0, 2, -1), (0, 0, 0, 0)):
            for extra in itertools.product((0, -3, 2), repeat=corank):
                mu = head[: R.n] + extra
                assert R.parse_weight(R.format_weight(mu)) == mu, (R.gcm, mu)


def test_format_weight_in_corank_2_keeps_every_extra_coordinate():
    R = Realization(GCM.from_matrix([[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]))
    assert R.N - R.n == 2
    a, b = (1, 0, 2, -1, 0, -3), (1, 0, 2, -1, -3, 0)
    assert R.format_weight(a) == "1,0,2,-1,delta=0,delta=-3"
    assert R.format_weight(b) == "1,0,2,-1,delta=-3,delta=0"
    assert R.format_weight((0,) * R.N) == "0,0,0,0,delta=0,delta=0"


def test_dominance():
    R = realization_from_preset("A2")
    assert R.is_dominant((2, 1))
    assert R.is_dominant((0, 0))
    assert not R.is_dominant((1, -1))


def test_weight_arithmetic():
    a, b = (1, -2, 3), (0, 5, -1)
    assert wt_add(a, b) == (1, 3, 2)
    assert wt_add(a, wt_neg(b)) == (1, -7, 4)
    assert wt_neg(a) == (-1, 2, -3)
    assert wt_scale(-2, (2, 4, -2)) == (-4, -8, 4)


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=2).map(tuple))
def test_reflection_preserves_the_form(mu):
    R = realization_from_preset("G2")
    for i in range(R.n):
        for alpha in positive_coroots_up_to(R):
            assert pairing(R.reflect_coroot(i, alpha), R.simple_reflection(i, mu)) == pairing(alpha, mu)


def test_realization_from_json(tmp_path):
    path = tmp_path / "cm.json"
    path.write_text(json.dumps({"matrix": [[2, -2], [-2, 2]], "nodes": ["0", "1"]}))
    R = realization_from_json_file(str(path))
    assert classify_rational(R.gcm.a, R.gcm.d) == "affine"
    assert R.node_names == ("0", "1")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[2, -1], [-1, 2]], "symmetrizer": [1, 2]}))
    with pytest.raises(ValueError):
        realization_from_json_file(str(bad))


# classification, symmetrizer, ambient rank, completion columns and delta, pinned
# so the elimination routines behind them can be rewritten safely.
CARTAN_TABLE = [
    ("A1", [[2]], "finite", (1,), 1, (), None),
    ("A2", [[2, -1], [-1, 2]], "finite", (1, 1), 2, (), None),
    ("A3", [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "finite", (1, 1, 1), 3, (), None),
    ("B2", [[2, -1], [-2, 2]], "finite", (2, 1), 2, (), None),
    ("G2", [[2, -1], [-3, 2]], "finite", (3, 1), 2, (), None),
    ("A1~", [[2, -2], [-2, 2]], "affine", (1, 1), 3, (0,), (0, 0, 1)),
    ("A2~", [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "affine", (1, 1, 1), 4, (0,), (0, 0, 0, 1)),
    ("twisted", [[2, -4], [-1, 2]], "affine", (1, 4), 3, (0,), (0, 0, 2)),
    ("B3", [[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "finite", (2, 2, 1), 3, (), None),
    ("C3", [[2, -1, 0], [-1, 2, -2], [0, -1, 2]], "finite", (1, 1, 2), 3, (), None),
    ("A1~+A1~", [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]],
     "affine", (1, 1, 1, 1), 6, (0, 2), None),
    ("A1+hyp", [[2, 0, 0], [0, 2, -3], [0, -3, 2]], "indefinite", (1, 1, 1), 3, (), None),
]


@pytest.mark.parametrize("name,matrix,kind,d,N,extra,delta", CARTAN_TABLE, ids=[r[0] for r in CARTAN_TABLE])
def test_cartan_table(name, matrix, kind, d, N, extra, delta):
    if name in PRESETS:
        assert PRESETS[name] == matrix
    gcm = GCM.from_matrix(matrix)
    R = Realization(gcm)
    completed = tuple(j for j in range(R.n) if any(R.alpha[j][R.n:]))  # columns given a completion coordinate
    assert (classify_rational(gcm.a, gcm.d), gcm.d, R.N, completed, null_root(R)) == (kind, d, N, extra, delta)


def null_root(R):
    """delta = sum_j m_j alpha_j for the primitive positive null vector m of
    the matrix (the vector the classification looks for), in corank one;
    else None."""
    m = positive_null_vector_rational(R.gcm.a)
    if R.N != R.n + 1 or m is None:
        return None
    delta = (0,) * R.N
    for mj, alpha in zip(m, R.alpha):
        delta = wt_add(delta, wt_scale(mj, alpha))
    return delta


def _primitive_null_vector(matrix):
    """The positive integer m with matrix·m = 0 and gcd 1, by search (entries <= 4)."""
    n = len(matrix)
    for m in sorted(itertools.product(range(1, 5), repeat=n), key=sum):
        if math.gcd(*m) == 1 and all(sum(a * x for a, x in zip(row, m)) == 0 for row in matrix):
            return m
    raise AssertionError("no small null vector")


@pytest.mark.parametrize("name,matrix", [(r[0], r[1]) for r in CARTAN_TABLE if r[2] == "affine"])
def test_delta_is_the_primitive_null_root(name, matrix):
    R = Realization(GCM.from_matrix(matrix))
    if R.N != R.n + 1:
        assert positive_null_vector_rational(matrix) is None  # corank > 1: no single null root
        return
    m = _primitive_null_vector(matrix)
    assert positive_null_vector_rational(matrix) == m
    delta = null_root(R)
    assert all(delta[i] == 0 for i in range(R.n))
    assert all(pairing(beta, delta) == 0 for beta in R.simple_coroots)



@st.composite
def symmetrizable_gcms(draw):
    """A GCM of rank 1-4 built from a symmetrizer d (entries 1-3): a_ij =
    -t lcm(d_i, d_j) / d_i with t in 0..2, so d_i a_ij = d_j a_ji.  Finite,
    affine and indefinite matrices all occur, non-symmetric ones too."""
    n = draw(st.integers(1, 4))
    d = [draw(st.integers(1, 3)) for _ in range(n)]
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        t = draw(st.integers(0, 2))
        a[i][j], a[j][i] = -t * math.lcm(d[i], d[j]) // d[i], -t * math.lcm(d[i], d[j]) // d[j]
    return a


def assert_elimination_matches(mat):
    """The pivot columns of the rational Gauss-Jordan elimination."""
    assert _pivot_columns(mat) == eliminate_rational(mat)[1]


@given(symmetrizable_gcms())
def test_integer_set_up_matches_the_rational_reference(a):
    gcm = GCM.from_matrix(a)
    assert gcm.d == symmetrizer_rational(gcm.a)
    n = gcm.n
    for mat in (a, [[gcm.d[i] * a[i][j] for j in range(n)] for i in range(n)], [row[::-1] for row in a]):
        assert_elimination_matches(mat)


@given(st.integers(1, 4).flatmap(lambda m: st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                                                      min_size=1, max_size=4)))
def test_integer_elimination_of_any_matrix_matches_the_rational_one(mat):
    assert_elimination_matches(mat)
