import pytest
from hypothesis import given, strategies as st

from kmchev.cartan import GCM, Realization, lp_add_into, lp_monomial, realization_from_preset, wt_add, wt_neg, wt_scale
from kmchev.cli import parse_word
from kmchev.kring import Strings, apply_Ti, chevalley_recurrence, chevalley_rows, hecke_compose
from kmchev.lifts import interval_below
from kmchev.lspath import demazure_crystal
from kmchev.weyl import CapError, WeylGroup
from reference import apply_word, bfs_ball, chevalley_explicit, hecke_compose_per_y, lp_act, lp_mul, lp_mul_monomial


def small_polys(n, width=3):
    coords = st.tuples(*[st.integers(-2, 2)] * n)
    entry = st.tuples(coords, st.integers(-3, 3).filter(bool))
    return st.lists(entry, min_size=1, max_size=width).map(
        lambda items: {mu: c for mu, c in items}
    )


def test_ti_on_a_fundamental_weight():
    R = realization_from_preset("A2")
    assert apply_Ti(R, 0, lp_monomial((1, 0))) == {(-1, 1): 1}
    assert apply_Ti(R, 0, lp_monomial((0, 5))) == {}
    # n = 2: two terms down the alpha_1 string
    assert apply_Ti(R, 0, lp_monomial((2, 0))) == {(0, 1): 1, (-2, 2): 1}
    # n = -1: a single term with a sign
    assert apply_Ti(R, 0, lp_monomial((-1, 1))) == {(-1, 1): -1}


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


@pytest.mark.parametrize("R", [realization_from_preset(p) for p in ("A2", "G2", "A2~")] + [HYPERBOLIC, RANK3])
@given(data=st.data())
def test_one_table_per_letter_serves_a_sequence_of_polynomials(R, data):
    """The tables of one run, one per letter, reused across random polynomials
    in a random letter order: each T_i equals a fresh table's and the
    reference formula's, and again gives the same tuples, every weight met
    gets its s_i from its own letter's table, and a table refuses any other
    letter."""
    tables = [Strings(R, i) for i in range(R.n)]
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, R.n - 1))
        f = data.draw(small_polys(R.N, width=5))
        got = apply_Ti(R, i, f, tables[i])
        assert got == apply_Ti(R, i, f) == reference_Ti(R, i, f)
        assert {id(mu) for mu in apply_Ti(R, i, dict(f), tables[i])} == {id(mu) for mu in got}
        for mu in f:
            assert tables[i].data[mu][3] == R.simple_reflection(i, mu)
        for j in range(R.n):
            if j != i:
                with pytest.raises(ValueError, match="letter"):
                    apply_Ti(R, j, f, tables[i])


SHARED = [(HYPERBOLIC, (1, 1), "0 1 0 1 0 1"), (realization_from_preset("A1~"), (1, 1, 0), "1 0 " * 6)]


@pytest.mark.parametrize("R,lam,word", SHARED, ids=["hyp2-l6", "A1~-l12"])
@pytest.mark.parametrize("sign", [1, -1])
def test_each_weight_of_a_run_is_one_object(R, lam, word, sign):
    """Every row of one run holds each weight as the same tuple, the one in
    the last letter's table: as many weight objects as distinct weights,
    not one per term."""
    W = WeylGroup(R)
    rows = chevalley_recurrence(W, lam, W.from_word(parse_word(R, word)), sign)
    terms = [mu for poly in rows.values() for mu in poly]
    assert len({id(mu) for mu in terms}) == len(set(terms))
    if R is HYPERBOLIC and sign > 0:
        assert (len(terms), len(set(terms))) == (68340, 8845)


ORACLE_CASES = {  # name: (realization, dominant weight, longest word)
    "A3": (realization_from_preset("A3"), (1, 1, 1), 6),
    "G2": (realization_from_preset("G2"), (2, 1), 6),
    "A2~": (realization_from_preset("A2~"), (1, 1, 0, 0), 6),
    "A1~": (realization_from_preset("A1~"), (1, 1, 0), 6),
    "hyp2": (HYPERBOLIC, (1, 1), 6),
    "hyp3": (RANK3, (1, 0, 0), 5),  # (1, 1, 1) up to length 6 makes 13 million terms
}


@pytest.mark.parametrize("name", ORACLE_CASES)
@pytest.mark.parametrize("sign", [1, -1])
def test_hecke_compose_yields_the_per_y_rows_in_key_order(name, sign):
    """For w = s_i v with i = w.word[0], T_i composed onto the rows of v one
    row z at a time: the rows come in z.key order, equal those of the per-y
    oracle on the same input, and every f_y has left the input at the end.
    Since w.word[1:] is the word of v, the elements up to a length check
    every step of the recurrence along their words."""
    R, lam, longest = ORACLE_CASES[name]
    W = WeylGroup(R)
    for w in bfs_ball(W, longest)[1:]:
        i = w.word[0]
        rows = chevalley_recurrence(W, lam, W.from_word(w.word[1:]), sign)
        element = dict(rows)
        got = list(hecke_compose(W, i, element, Strings(R, i)))
        assert element == {}
        assert [z.key for z, _ in got] == sorted(z.key for z, _ in got)
        assert dict(got) == hecke_compose_per_y(W, i, dict(rows), Strings(R, i)), w


@pytest.mark.parametrize("name", ["A2~", "hyp2"])
@pytest.mark.parametrize("sign", [1, -1])
def test_chevalley_rows_are_the_recurrence_rows_in_key_order(name, sign):
    """chevalley_rows gives the rows of chevalley_recurrence in z.key order,
    for w = e too."""
    R, lam, longest = ORACLE_CASES[name]
    W = WeylGroup(R)
    for w in bfs_ball(W, longest - 1):
        got = list(chevalley_rows(W, lam, w, sign))
        assert got == sorted(chevalley_recurrence(W, lam, w, sign).items(), key=lambda pair: pair[0].key), w


def test_chevalley_rows_refuses_an_over_cap_range_before_the_first_row():
    """The held rows of s_i w start every T_i range, so the longest range is
    refused when chevalley_rows is called, not when its rows are asked for:
    for w = s_1 s_2 the held row of s_2 is e^lam when lam_2 = 0, and the
    range of T_1 on it is refused at either sign of lam_1."""
    R = realization_from_preset("A2")
    W = WeylGroup(R)
    W.cap = 10
    w = W.from_word((0, 1))
    assert dict(chevalley_rows(W, (-10, 0), w, 1)) == chevalley_recurrence(W, (-10, 0), w, 1)
    for lam in ((11, 0), (-11, 0), (0, 11)):
        with pytest.raises(CapError, match="exceeds cap 10"):
            chevalley_rows(W, lam, w, 1)


def test_a_strings_table_takes_a_range_at_its_cap_and_refuses_one_more():
    """T_i e^mu has |<alpha_i^vee, mu>| terms: a table with cap 10 enters a
    weight with n = +-10, and T_i of it has 10 terms; n = +-11 is refused."""
    R = realization_from_preset("A2")
    table = Strings(R, 0, 10)
    for n in (10, -10):
        assert table.add((n, 0))[0] == n
        assert len(apply_Ti(R, 0, {(n, 0): 1}, table)) == 10
    for n in (11, -11):
        with pytest.raises(CapError, match="terms of T_1 e\\^mu on one alpha_1-string: 11 exceeds cap 10 "):
            table.add((n, 0))


def longest_in_coset(W, z, J) -> bool:
    """z is longest in z W_J: every j in J is a right descent of z."""
    return all(W.from_word(z.word + (j,)).length < z.length for j in J)


# (realization, lam, length bound): J = {j : lam_j = 0} generates a finite W_J
PARABOLIC_CASES = {
    "hyp2": (HYPERBOLIC, "1,0", 5),
    "A2": (realization_from_preset("A2"), "1,0", 3),
    "G2": (realization_from_preset("G2"), "0,1", 6),
    "A3": (realization_from_preset("A3"), "1,0,1", 6),
    "A2~": (realization_from_preset("A2~"), "1,0,0", 5),
}


@pytest.mark.parametrize("name", PARABOLIC_CASES)
def test_rows_of_a_longest_coset_element_are_longest_in_their_cosets(name):
    """The G/P support check: L_lam descends to G/P_J, and pulling back along
    G/B -> G/P_J sends [O_{X_{wP}}] to [O_{X_w}] with w longest in w W_J, so
    each z in the row of such a w, in both signs, is longest in z W_J.  No
    rule is built to satisfy it."""
    R, text, bound = PARABOLIC_CASES[name]
    W = WeylGroup(R)
    lam = R.parse_weight(text)
    J = [j for j in range(R.n) if lam[j] == 0]
    longest = [w for w in bfs_ball(W, bound) if longest_in_coset(W, w, J)]
    assert J and len(longest) > 1
    for w in longest:
        for sign in (1, -1):
            rows = chevalley_recurrence(W, lam, w, sign)
            assert rows and all(longest_in_coset(W, z, J) for z in rows), (w, sign)


def test_rows_of_other_coset_elements_leave_the_longest_ones():
    """The negative control: on the hyperbolic matrix with lam = (1, 0), the
    row of each w that is not longest in w W_J, in both signs, has a z that
    is not longest in z W_J, so the check above is not vacuous."""
    W = WeylGroup(HYPERBOLIC)
    lam, J = (1, 0), [1]
    rows = [chevalley_recurrence(W, lam, w, sign) for w in bfs_ball(W, 5) if not longest_in_coset(W, w, J)
            for sign in (1, -1)]
    assert len(rows) == 12
    for row in rows:
        assert not all(longest_in_coset(W, z, J) for z in row), row


def test_ti_cancels_and_covers_every_sign_of_n():
    R = realization_from_preset("A2")
    # n = 2, 0, -3 and 1 on letter 0
    f = {(2, 0): 1, (0, 5): 4, (-3, 2): -2, (1, -1): 7}
    for i in range(R.n):
        assert apply_Ti(R, i, f) == reference_Ti(R, i, f)
    # T_0 e^{(2,0)} = e^{(0,1)} + e^{(-2,2)} and T_0 e^{(-2,2)} is its negative
    assert apply_Ti(R, 0, {(2, 0): 1}) == {(0, 1): 1, (-2, 2): 1}
    assert apply_Ti(R, 0, {(2, 0): 1, (-2, 2): 1}) == {}


def test_ti_rejects_a_node_that_is_not_one():
    """A negative node once indexed the simple roots from the end: on A1~,
    T_{-1} read the delta coordinate as the pairing and returned 0."""
    affine = realization_from_preset("A1~")
    assert apply_Ti(affine, 1, {(1, 1, 0): 1}) == {(3, -1, 0): 1}
    for R, i in ((affine, -1), (realization_from_preset("A2"), 7)):
        with pytest.raises(ValueError, match=f"{i} is not a node"):
            apply_Ti(R, i, {(1,) * R.N: 1})
        with pytest.raises(ValueError, match=f"{i} is not a node"):
            Strings(R, i)


def test_ti_without_a_table_takes_its_cap_from_the_environment(monkeypatch):
    """KMCHEV_CAP bounds a library call of T_i too, not only a run's tables."""
    R = realization_from_preset("A2")
    monkeypatch.setenv("KMCHEV_CAP", "10")
    assert len(apply_Ti(R, 0, {(10, 0): 1})) == 10
    monkeypatch.setenv("KMCHEV_CAP", "3")
    with pytest.raises(CapError, match="10 exceeds cap 3"):
        apply_Ti(R, 0, {(10, 0): 1})
    assert Strings(R, 0, 20).cap == 20


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
    f = {(2, -1): 3, (0, 1): -2}

    def apply_Di(i, g):
        out = dict(g)
        lp_add_into(out, apply_Ti(R, i, g))
        return out

    for i in range(R.n):
        once = apply_Di(i, f)
        assert apply_Di(i, once) == once


def test_explicit_matches_recurrence_finite(WA2):
    W = WA2
    lam = (2, 1)
    for w in bfs_ball(W, 3):
        rows = chevalley_recurrence(W, lam, w, 1)
        for v in interval_below(W, w):
            assert rows.get(v, {}) == chevalley_explicit(W, w, v, lam)


def test_explicit_matches_recurrence_affine_both_words(WAFF):
    W = WAFF
    lam = (1, 1, 0, 0)
    w = W.from_word((0, 1, 2, 1))
    assert w == W.from_word((0, 2, 1, 2))
    rows = chevalley_recurrence(W, lam, w, 1)
    for v in interval_below(W, w):
        a = chevalley_explicit(W, w, v, lam, word=(0, 1, 2, 1))
        b = chevalley_explicit(W, w, v, lam, word=(0, 2, 1, 2))
        assert a == b == rows.get(v, {})


def test_frozen_rank2_coefficient(WA2):
    # the smallest non-trivial coefficient with two summands
    W = WA2
    lam = (2, 1)
    w = W.from_word((0, 1, 0))
    v = W.from_word((0,))
    expected = {(-2, 0): 1, (-1, -2): 1}
    assert chevalley_explicit(W, w, v, lam) == expected
    assert chevalley_recurrence(W, lam, w, 1)[v] == expected


@pytest.mark.parametrize("preset,lamc", [("A2", (1, 1)), ("B2", (1, 2))])
def test_dominant_rows_are_positive_sums(preset, lamc):
    R = realization_from_preset(preset)
    W = WeylGroup(R)
    lam = lamc
    for w in bfs_ball(W, 8):
        for z, poly in chevalley_recurrence(W, lam, w, 1).items():
            assert all(c > 0 for c in poly.values()), (w, z, poly)


def test_antidominant_rows_have_uniform_sign(WB2):
    W = WB2
    lam = (1, 1)
    for w in bfs_ball(W, 8):
        for z, poly in chevalley_recurrence(W, lam, w, -1).items():
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
    for z, poly in chevalley_recurrence(W, lam, w, 1).items():
        assert all(c > 0 for c in poly.values()), (z, poly)
    mass = 0
    for z, poly in chevalley_recurrence(W, lam, w, -1).items():
        want = -1 if (w.length - z.length) % 2 else 1
        assert all(c * want > 0 for c in poly.values()), (z, poly)
        mass += sum(map(abs, poly.values()))
    W2 = WeylGroup(R)
    assert mass == len(demazure_crystal(W2, lam, W2.from_word(w.word))) == size


def test_rows_are_supported_on_the_interval(WB2):
    W = WB2
    lam = (2, 1)
    for w in bfs_ball(W, 8):
        below = interval_below(W, w)
        for z, poly in chevalley_recurrence(W, lam, w, 1).items():
            if poly:
                assert z in below


def test_act_distributes_over_ti():
    # w T_i = T_{w(i)}-type covariance is false in general, but acting by w
    # commutes with multiplication: w(fg) = w(f) w(g)
    R = realization_from_preset("A2")
    W = WeylGroup(R)
    f = {(1, 0): 2, (0, -1): 1}
    g = {(-1, 1): 3}
    for w in bfs_ball(W, 3):
        assert lp_act(W, w, lp_mul(f, g)) == lp_mul(lp_act(W, w, f), lp_act(W, w, g))


def test_lp_helpers():
    f = {(1, 0): 2}
    g = {(1, 0): 2, (0, 1): -1}
    assert lp_mul(f, g) == {(2, 0): 4, (1, 1): -2}
    assert lp_mul({}, g) == {}
