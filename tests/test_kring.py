import pytest
from hypothesis import given, strategies as st

from kmchev.cartan import GCM, Realization, realization_from_preset, weight, wt_add, wt_neg, wt_scale
from kmchev.cli import parse_word
from kmchev.kring import (
    apply_Ti,
    chevalley_recurrence,
    lp_add_into,
    lp_monomial,
    lp_mul,
    lp_mul_monomial,
)
from kmchev.lifts import interval_below
from kmchev.lspath import demazure_crystal
from kmchev.weyl import WeylGroup
from reference import apply_word, chevalley_explicit, lp_act


def small_polys(n, width=3):
    coords = st.tuples(*[st.integers(-2, 2)] * n)
    entry = st.tuples(coords, st.integers(-3, 3).filter(bool))
    return st.lists(entry, min_size=1, max_size=width).map(
        lambda items: {mu: c for mu, c in items}
    )


def test_ti_on_a_fundamental_weight():
    R = realization_from_preset("A2")
    assert apply_Ti(R, 0, lp_monomial(weight(1, 0))) == {weight(-1, 1): 1}
    assert apply_Ti(R, 0, lp_monomial(weight(0, 5))) == {}
    # n = 2: two terms down the alpha_1 string
    assert apply_Ti(R, 0, lp_monomial(weight(2, 0))) == {weight(0, 1): 1, weight(-2, 2): 1}
    # n = -1: a single term with a sign
    assert apply_Ti(R, 0, lp_monomial(weight(-1, 1))) == {weight(-1, 1): -1}


def reference_Ti(R, i, f):
    """T_i by the per-monomial formula, one emitted monomial at a time."""
    out = {}
    alpha = R.alpha[i]
    for mu, c in f.items():
        n = mu[i]
        if n > 0:
            term = mu
            for _ in range(n):
                term = wt_add(term, wt_neg(alpha))
                lp_add_into(out, {term: c})
        elif n < 0:
            term = mu
            lp_add_into(out, {term: -c})
            for _ in range(-1 - n):
                term = wt_add(term, alpha)
                lp_add_into(out, {term: -c})
    return out


HYPERBOLIC = Realization(GCM.from_matrix([[2, -3], [-3, 2]]))


@pytest.mark.parametrize("R", [realization_from_preset(p) for p in ("A2", "G2", "A2~")] + [HYPERBOLIC])
@given(data=st.data())
def test_ti_matches_the_reference_formula(R, data):
    """Coordinates in -5..5 give n > 0, n = 0 and n < 0 on every letter, and
    overlapping strings that cancel to zero."""
    coords = st.tuples(*[st.integers(-5, 5)] * R.N)
    f = data.draw(st.dictionaries(coords, st.integers(-4, 4).filter(bool), max_size=6))
    for i in range(R.n):
        assert apply_Ti(R, i, f) == reference_Ti(R, i, f)


RANK3 = Realization(GCM.from_matrix([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]))
LONG_STRINGS = {"A1~": realization_from_preset("A1~"), "A2~": realization_from_preset("A2~"),
                "hyp2": HYPERBOLIC, "hyp3": RANK3}


@pytest.mark.parametrize("R", LONG_STRINGS.values(), ids=LONG_STRINGS)
@given(data=st.data())
def test_ti_matches_the_reference_on_long_overlapping_strings(R, data):
    """Up to 30 monomials on a few alpha_i-strings, coordinates up to 40: the
    ranges of one string overlap, nest and cancel to zero, and n runs far
    past the -5..5 of the test above."""
    i = data.draw(st.integers(0, R.n - 1))
    bases = data.draw(st.lists(st.tuples(*[st.integers(-25, 25)] * R.N), min_size=1, max_size=3))
    entries = data.draw(st.lists(
        st.tuples(st.sampled_from(bases), st.integers(-5, 5), st.integers(-4, 4).filter(bool)), max_size=30))
    f = {}
    for b, k, c in entries:
        lp_add_into(f, {wt_add(b, wt_scale(k, R.alpha[i])): c})
    for j in range(R.n):
        assert apply_Ti(R, j, f) == reference_Ti(R, j, f)


@pytest.mark.parametrize("R", LONG_STRINGS.values(), ids=LONG_STRINGS)
def test_ti_kills_a_long_string_and_its_reflection(R):
    """T_i (e^mu + e^{s_i mu}) = 0: the two ranges are the same positions with
    opposite signs, however long the string."""
    for i in range(R.n):
        for n in (1, 2, 7, 40, -40):
            fundamental_i = tuple(1 if k == i else 0 for k in range(R.N))
            mu = wt_add(wt_scale(n - 6, fundamental_i), wt_scale(3, R.alpha[i]))
            assert mu[i] == n
            f = {mu: 3, R.simple_reflection(i, mu): 3}
            assert apply_Ti(R, i, f) == reference_Ti(R, i, f) == {}
            assert len(apply_Ti(R, i, {mu: 1})) == abs(n)


def test_ti_cancels_and_covers_every_sign_of_n():
    R = realization_from_preset("A2")
    # n = 2, 0, -3 and 1 on letter 0
    f = {weight(2, 0): 1, weight(0, 5): 4, weight(-3, 2): -2, weight(1, -1): 7}
    for i in range(R.n):
        assert apply_Ti(R, i, f) == reference_Ti(R, i, f)
    # T_0 e^{(2,0)} = e^{(0,1)} + e^{(-2,2)} and T_0 e^{(-2,2)} is its negative
    assert apply_Ti(R, 0, {weight(2, 0): 1}) == {weight(0, 1): 1, weight(-2, 2): 1}
    assert apply_Ti(R, 0, {weight(2, 0): 1, weight(-2, 2): 1}) == {}


def test_ti_rejects_a_weight_of_another_rank():
    R = realization_from_preset("A2~")
    for mu in [(1, 0, 0), (1, 0, 0, 0, 0), (-1, 0, 0)]:
        with pytest.raises(ValueError, match="rank"):
            apply_Ti(R, 0, {mu: 1})


@pytest.mark.parametrize("preset", ["A2", "B2", "G2", "A2~"])
@given(data=st.data())
def test_ti_squares_to_minus_ti(preset, data):
    R = realization_from_preset(preset)
    f = data.draw(small_polys(R.N))
    for i in range(R.n):
        once = apply_Ti(R, i, f)
        assert apply_Ti(R, i, once) == {mu: -c for mu, c in once.items()}


@pytest.mark.parametrize("preset,lhs,rhs", [
    ("A2", (0, 1, 0), (1, 0, 1)),
    ("B2", (0, 1, 0, 1), (1, 0, 1, 0)),
    ("G2", (0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)),
])
@given(data=st.data())
def test_braid_relations(preset, lhs, rhs, data):
    R = realization_from_preset(preset)
    f = data.draw(small_polys(R.N))
    assert apply_word(R, lhs, f) == apply_word(R, rhs, f)


@pytest.mark.parametrize("preset", ["A2", "B2", "A2~"])
@given(data=st.data())
def test_twisted_leibniz(preset, data):
    """T_i(e^lam f) = (T_i e^lam) f + e^{s_i lam} (T_i f)."""
    R = realization_from_preset(preset)
    lam = data.draw(st.tuples(*[st.integers(-2, 2)] * R.N))
    f = data.draw(small_polys(R.N))
    for i in range(R.n):
        lhs = apply_Ti(R, i, lp_mul_monomial(f, lam))
        total = lp_mul(apply_Ti(R, i, lp_monomial(lam)), f)
        lp_add_into(total, lp_mul_monomial(apply_Ti(R, i, f), R.simple_reflection(i, lam)))
        assert lhs == total


def test_demazure_operator_is_idempotent():
    """D_i = 1 + T_i satisfies D_i^2 = D_i, which is T_i^2 = -T_i."""
    R = realization_from_preset("B2")
    f = {weight(2, -1): 3, weight(0, 1): -2}

    def apply_Di(i, g):
        out = dict(g)
        lp_add_into(out, apply_Ti(R, i, g))
        return out

    for i in range(R.n):
        once = apply_Di(i, f)
        assert apply_Di(i, once) == once


def test_explicit_matches_recurrence_finite(WA2):
    W = WA2
    lam = weight(2, 1)
    for w in W.bfs_ball(3):
        rows = chevalley_recurrence(W, w, lam)
        for v in interval_below(W, w):
            assert rows.get(v, {}) == chevalley_explicit(W, w, v, lam)


def test_explicit_matches_recurrence_affine_both_words(WAFF):
    W = WAFF
    lam = weight(1, 1, 0, 0)
    w = W.from_word((0, 1, 2, 1))
    assert w == W.from_word((0, 2, 1, 2))
    rows = chevalley_recurrence(W, w, lam)
    for v in interval_below(W, w):
        a = chevalley_explicit(W, w, v, lam, word=(0, 1, 2, 1))
        b = chevalley_explicit(W, w, v, lam, word=(0, 2, 1, 2))
        assert a == b == rows.get(v, {})


def test_frozen_rank2_coefficient(WA2):
    # the smallest non-trivial coefficient with two summands
    W = WA2
    lam = weight(2, 1)
    w = W.from_word((0, 1, 0))
    v = W.from_word((0,))
    expected = {weight(-2, 0): 1, weight(-1, -2): 1}
    assert chevalley_explicit(W, w, v, lam) == expected
    assert chevalley_recurrence(W, w, lam)[v] == expected


@pytest.mark.parametrize("preset,lamc", [("A2", (1, 1)), ("B2", (1, 2))])
def test_dominant_rows_are_positive_sums(preset, lamc):
    R = realization_from_preset(preset)
    W = WeylGroup(R)
    lam = weight(*lamc)
    for w in W.bfs_ball(8):
        for z, poly in chevalley_recurrence(W, w, lam).items():
            assert all(c > 0 for c in poly.values()), (w, z, poly)


def test_antidominant_rows_have_uniform_sign(WB2):
    W = WB2
    lam = weight(1, 1)
    for w in W.bfs_ball(8):
        for z, poly in chevalley_recurrence(W, w, wt_neg(lam)).items():
            want = -1 if (w.length - z.length) % 2 else 1
            assert all((c > 0) == (want > 0) for c in poly.values())


CANCELLATION_FREE = [  # (type, lambda, w, |B_w(lambda)|)
    ("A2~", (1, 1, 0, 0), "0 1 2 0 1 2", 72),
    ("A1~", (1, 1, 0), "1 0 1 0 1 0", 486),
    ("G2", (2, 1), "1 2 1 2 1 2", 286),
    ("hyp2", (1, 1), "0 1 0 1 0", 7597),
]


@pytest.mark.parametrize("name,lam,word,size", CANCELLATION_FREE, ids=[c[0] for c in CANCELLATION_FREE])
def test_rows_are_cancellation_free_beyond_finite_type(name, lam, word, size):
    """The paper's rules are cancellation-free in every Kac-Moody type, so the
    recurrence, which cancels internally, must land on sign-uniform rows:
    every coefficient positive for sign +1, of sign (-1)^{l(w)-l(z)} for
    sign -1, and then sum |b_z| = D_w e^lam at 1 = |B_w(lam)|."""
    R = HYPERBOLIC if name == "hyp2" else realization_from_preset(name)
    W = WeylGroup(R)
    w = W.from_word(parse_word(R, word))
    for z, poly in chevalley_recurrence(W, w, lam).items():
        assert all(c > 0 for c in poly.values()), (z, poly)
    mass = 0
    for z, poly in chevalley_recurrence(W, w, wt_neg(lam)).items():
        want = -1 if (w.length - z.length) % 2 else 1
        assert all(c * want > 0 for c in poly.values()), (z, poly)
        mass += sum(map(abs, poly.values()))
    W2 = WeylGroup(R)
    assert mass == len(demazure_crystal(W2, lam, W2.from_word(w.word))) == size


def test_rows_are_supported_on_the_interval(WB2):
    W = WB2
    lam = weight(2, 1)
    for w in W.bfs_ball(8):
        below = interval_below(W, w)
        for z, poly in chevalley_recurrence(W, w, lam).items():
            if poly:
                assert z in below


def test_act_distributes_over_ti():
    # w T_i = T_{w(i)}-type covariance is false in general, but acting by w
    # commutes with multiplication: w(fg) = w(f) w(g)
    R = realization_from_preset("A2")
    W = WeylGroup(R)
    f = {weight(1, 0): 2, weight(0, -1): 1}
    g = {weight(-1, 1): 3}
    for w in W.bfs_ball(3):
        assert lp_act(W, w, lp_mul(f, g)) == lp_mul(lp_act(W, w, f), lp_act(W, w, g))


def test_lp_helpers():
    f = {weight(1, 0): 2}
    g = {weight(1, 0): 2, weight(0, 1): -1}
    assert lp_mul(f, g) == {weight(2, 0): 4, weight(1, 1): -2}
    assert lp_mul({}, g) == {}
