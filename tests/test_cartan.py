import itertools
import json
import math

import pytest
from hypothesis import given, strategies as st

from kmchev.cartan import (
    GCM,
    PRESETS,
    Q,
    Realization,
    coroot_from_c,
    is_lattice,
    pairing,
    realization_from_json_file,
    realization_from_preset,
    weight,
    wt_add,
    wt_neg,
    wt_scale,
    wt_sub,
)
from kmchev.kring import lp_act
from kmchev.weyl import WeylGroup


def test_classification():
    assert GCM.from_matrix([[2, -1], [-1, 2]]).classify() == "finite"
    assert GCM.from_matrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]).classify() == "affine"
    assert GCM.from_matrix([[2, -2], [-2, 2]]).classify() == "affine"
    assert GCM.from_matrix([[2, -3], [-3, 2]]).classify() == "indefinite"


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
            assert R.fundamental[j][i] == (1 if i == j else 0)
            assert R.alpha[j][i] == R.gcm.a[i][j]


def test_simple_reflection_is_an_involution_and_moves_rho():
    R = realization_from_preset("B2")
    for i in range(R.n):
        assert R.simple_reflection(i, R.simple_reflection(i, R.rho)) == R.rho
        assert R.simple_reflection(i, R.rho) == wt_sub(R.rho, R.alpha[i])


def test_reflections_refuse_a_weight_of_another_rank():
    """simple_reflection, and W.act and lp_act through it, and
    coroot_reflection raise the ValueError of wt_add instead of cutting or
    padding a weight, also when <alpha_i^vee, mu> = 0 would return mu
    unchanged."""
    R = realization_from_preset("A2~")  # N = 4
    W = WeylGroup(R)
    for mu in [(1, 0, 0), (0, 1, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), ()]:
        with pytest.raises(ValueError, match="rank"):
            R.simple_reflection(0, mu)
        with pytest.raises(ValueError, match="rank"):
            W.act(W.from_word((0, 1)), mu)
        with pytest.raises(ValueError, match="rank"):
            lp_act(W, W.simple(0), {mu: 1})
        with pytest.raises(ValueError, match="rank"):
            R.coroot_reflection(R.simple_coroots[0], mu)
    assert R.simple_reflection(0, (1, 0, 0, 0)) == (-1, 1, 1, -1)
    assert R.simple_reflection(0, (0, 1, 0, 0)) == (0, 1, 0, 0)
    assert R.coroot_reflection(R.simple_coroots[0], (1, 0, 0, 0)) == (-1, 1, 1, -1)
    assert R.coroot_reflection(R.simple_coroots[0], (0, 1, 0, 0)) == (0, 1, 0, 0)


def test_affine_null_root():
    R = realization_from_preset("A2~")
    delta = R.delta
    assert delta == wt_add(wt_add(R.alpha[0], R.alpha[1]), R.alpha[2])
    for i in range(R.n):
        assert delta[i] == 0
        assert R.simple_reflection(i, delta) == delta


@pytest.mark.parametrize("preset,count", [("A2", 3), ("B2", 4), ("G2", 6)])
def test_positive_coroot_counts(preset, count):
    R = realization_from_preset(preset)
    pos = R.positive_coroots()
    assert len(pos) == count
    assert all(alpha.is_positive for alpha in pos)
    assert sorted(pos, key=lambda a: (a.height, a.c)) == pos


def test_affine_coroots_grow_without_bound():
    R = realization_from_preset("A2~")
    small = R.positive_coroots_up_to(3)
    large = R.positive_coroots_up_to(6)
    assert set(small) < set(large)
    assert all(all(x >= 0 for x in alpha.c) for alpha in large)


@pytest.mark.parametrize("preset", ["A2", "B2", "G2", "A2~"])
def test_coroot_from_c_round_trips(preset):
    R = realization_from_preset(preset)
    pos = R.positive_coroots() if preset != "A2~" else R.positive_coroots_up_to(5)
    for alpha in pos:
        rebuilt = coroot_from_c(R, alpha.c)
        assert rebuilt == alpha
        assert rebuilt.root == alpha.root


def test_coroot_pairing_is_reflection_equivariant():
    R = realization_from_preset("B2")
    mu = weight(3, -2)
    for alpha in R.positive_coroots():
        for i in range(R.n):
            lhs = pairing(R.reflect_coroot(i, alpha), R.simple_reflection(i, mu))
            assert lhs == pairing(alpha, mu)


def test_parse_and_format_weights():
    R = realization_from_preset("A2~")
    mu = R.parse_weight("1,1,0")
    assert mu == weight(1, 1, 0, 0)
    nu = R.parse_weight("2,-1,1,delta=-3")
    assert nu == weight(2, -1, 1, -3)
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
    assert R.format_weight(R.zero()) == "0,0,0,0,delta=0,delta=0"


def test_dominance():
    R = realization_from_preset("A2")
    assert R.is_dominant(weight(2, 1))
    assert R.is_dominant(weight(0, 0))
    assert not R.is_dominant(weight(1, -1))


def test_weight_arithmetic():
    a, b = weight(1, -2, 3), weight(0, 5, -1)
    assert wt_add(a, b) == weight(1, 3, 2)
    assert wt_sub(a, b) == weight(1, -7, 4)
    assert wt_neg(a) == weight(-1, 2, -3)
    assert wt_scale(Q(1, 2), weight(2, 4, -2)) == weight(1, 2, -1)
    assert is_lattice(weight(1, 2))
    assert not is_lattice(weight(Q(1, 2), 0))


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=2).map(tuple))
def test_reflection_preserves_the_form(mu):
    R = realization_from_preset("G2")
    for i in range(R.n):
        for alpha in R.positive_coroots():
            assert pairing(R.reflect_coroot(i, alpha), R.simple_reflection(i, mu)) == pairing(alpha, mu)


def test_realization_from_json(tmp_path):
    path = tmp_path / "cm.json"
    path.write_text(json.dumps({"matrix": [[2, -2], [-2, 2]], "nodes": ["0", "1"]}))
    R = realization_from_json_file(str(path))
    assert R.gcm.classify() == "affine"
    assert R.node_names == ("0", "1")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[2, -1], [-1, 2]], "symmetrizer": [1, 2]}))
    with pytest.raises(ValueError):
        realization_from_json_file(str(bad))


# classify(), symmetrizer, ambient rank, completion columns and delta, pinned
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
    assert (gcm.classify(), gcm.d, R.N, R.extra_columns, R.delta) == (kind, d, N, extra, delta)


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
        assert R.delta is None  # corank > 1: no single null root
        return
    m = _primitive_null_vector(matrix)
    expected = R.zero()
    for mj, alpha in zip(m, R.alpha):
        expected = wt_add(expected, wt_scale(mj, alpha))
    assert R.delta == expected
    assert all(R.delta[i] == 0 for i in range(R.n))
    assert all(pairing(beta, R.delta) == 0 for beta in R.simple_coroots)


def test_coroot_from_c_rejects_non_integers():
    R = realization_from_preset("A2")
    for x in (1.5, Q(3, 2), True):
        with pytest.raises(ValueError, match="integer"):
            coroot_from_c(R, (x, 0))
