import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kmchev.cartan import GCM, Realization, pairing, realization_from_preset
from kmchev.weyl import DEFAULT_CAP, CapError, WeylGroup, env_cap
from bridge import reflect_right
from reference import bfs_ball, cocovers_by_inversions, covers_by_inversions, inversions, lambda_J


def words(W, bound):
    return [w.word for w in bfs_ball(W, bound)]


def test_group_orders(WA2, WB2, WG2):
    assert len(bfs_ball(WA2, 10)) == 6
    assert len(bfs_ball(WB2, 10)) == 8
    assert len(bfs_ball(WG2, 10)) == 12


def test_from_word_reduces(WA2):
    w = WA2.from_word((0, 0, 1, 0, 0))
    assert w == WA2.from_word((1,))
    assert w.length == 1
    assert repr(WA2.from_word(())) == "e"
    assert repr(WA2.from_word((0, 1))) == "s1*s2"


@pytest.mark.parametrize("preset", ["A2", "A1~"])
def test_from_word_refuses_a_letter_that_is_not_a_node(preset):
    """A letter outside range(n) is refused before a link is made: a negative
    letter once indexed the link tables from the end, so on A1~ -1 read the
    delta coordinate as the pairing, stored s_1 e = e, and every later s_1
    of that group came out as e."""
    W = WeylGroup(realization_from_preset(preset))
    for word, bad in (((W.n,), W.n), ((5,), 5), ((-1,), -1), ((0, -1), -1), ((0, 1, W.n), W.n)):
        with pytest.raises(ValueError, match=f"letter {bad} of .* is not a node"):
            W.from_word(word)
    assert W.from_word((1,)).word == (1,)
    assert W.from_word((0, 1)).length == 2


@pytest.mark.parametrize("preset", ["A2", "A1~"])
def test_lmul_refuses_a_node_before_storing_a_link(preset):
    """lmul refuses a node outside range(n) with no link stored: on A1~ a
    negative node once read the delta coordinate as the pairing, stored
    s_1 e = e, and the same group's from_word((1,)) came out as e."""
    W = WeylGroup(realization_from_preset(preset))
    s0 = W.from_word((0,))
    for w in (W.e, s0):
        for bad in (-1, -W.n, W.n, 5):
            with pytest.raises(ValueError, match=f"{bad} is not a node"):
                W.lmul(bad, w)
    assert W.from_word((1,)).word == (1,)
    assert W.lmul(1, W.e) is W.from_word((1,)) and W.lmul(1, s0).word == (1, 0)


def test_longest_element_negates(WA2):
    w0 = WA2.from_word((0, 1, 0))
    # -w0 is the diagram flip on A2: w0(omega_1) = -omega_2
    assert WA2.act(w0, (1, 0)) == (0, -1)
    assert WA2.act(w0, (1, 1)) == (-1, -1)


def test_mult_inverse_length(WA2):
    elems = bfs_ball(WA2, 3)
    for a, b in itertools.product(elems, repeat=2):
        ab = WA2.from_word(a.word + b.word)
        assert abs(a.length - b.length) <= ab.length <= a.length + b.length
    for a in elems:
        assert WA2.from_word(a.word + a.word[::-1]).length == 0


def test_inversions_count_length(WB2):
    for w in bfs_ball(WB2, 4):
        assert len(set(inversions(WB2, w))) == w.length


def test_bruhat_order_on_a2(WA2):
    e = WA2.from_word(())
    w0 = WA2.from_word((0, 1, 0))
    elems = bfs_ball(WA2, 3)
    for w in elems:
        assert WA2.bruhat_leq(e, w)
        assert WA2.bruhat_leq(w, w0)
    s1, s2 = WA2.from_word((0,)), WA2.from_word((1,))
    assert not WA2.bruhat_leq(s1, s2)
    assert WA2.bruhat_leq(s1, WA2.from_word((1, 0)))
    # antisymmetry
    for a, b in itertools.product(elems, repeat=2):
        if WA2.bruhat_leq(a, b) and WA2.bruhat_leq(b, a):
            assert a == b


def test_bruhat_subword_property(WB2):
    # v <= w iff some reduced word of w contains a reduced word of v as a subword
    w = WB2.from_word((0, 1, 0, 1))
    below = {v for v in bfs_ball(WB2, 4) if WB2.bruhat_leq(v, w)}
    subwords = set()
    for r in range(5):
        for comb in itertools.combinations((0, 1, 0, 1), r):
            subwords.add(WB2.from_word(comb))
    assert below == subwords


def test_cocovers_and_covers_are_inverse(WB2):
    for w in bfs_ball(WB2, 4):
        for v, beta in WB2.cocovers(w):
            assert v.length == w.length - 1
            assert reflect_right(WB2, v, beta) == w
            assert (w, beta) in WB2.covers(v)


@pytest.mark.parametrize(
    "R, bound",
    [
        (realization_from_preset("A3"), 6),
        (realization_from_preset("G2"), 6),
        (realization_from_preset("A2~"), 7),
        (Realization(GCM.from_matrix([[2, -3], [-3, 2]])), 9),
        (Realization(GCM.from_matrix([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]])), 6),
        (Realization(GCM.from_matrix([[2, -3, 0], [-1, 2, -2], [0, -2, 2]])), 6),
    ],
    ids=["A3", "G2", "A2~", "hyperbolic", "rank3-cycle", "rank3-chain"],
)
def test_cocovers_and_covers_match_the_inversion_reference(R, bound):
    """The lifting-property cocovers and covers equal w (or each element of
    the next layer) reflected by every inversion and kept where one letter
    shorter: same elements, coroots (c and root vector) and order."""
    W = WeylGroup(R)

    def flat(pairs):
        return [(x.rho, beta.c, beta.root) for x, beta in pairs]

    for w in bfs_ball(W, bound):
        assert flat(W.cocovers(w)) == flat(cocovers_by_inversions(W, w))
        if w.length < bound:
            assert flat(W.covers(w)) == flat(covers_by_inversions(W, w))


def test_action_is_a_homomorphism(WAFF):
    mu = (1, -2, 1, 0)
    for a in bfs_ball(WAFF, 3):
        for i in range(WAFF.n):
            lhs = WAFF.act(WAFF.lmul(i, a), mu)
            rhs = WAFF.R.simple_reflection(i, WAFF.act(a, mu))
            assert lhs == rhs


@pytest.mark.parametrize("J", [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})])
def test_coset_decompose_exhaustive(WB2, J):
    for w in bfs_ball(WB2, 4):
        rep = WB2.coset_min(w, lambda_J(WB2, J))
        tail = WB2.from_word(rep.word[::-1] + w.word)
        assert rep.length + tail.length == w.length
        # left descents of tail lie in J; no right descent of rep (a left
        # descent of its inverse) does
        assert all(i in J for i in range(WB2.n) if tail.rho[i] < 0)
        assert not [i for i in J if WB2.from_word(rep.word[::-1]).rho[i] < 0]


def test_coset_quotient_order(WA2):
    lam = (0, 1)  # W_lam = {e, s1}
    reps = sorted({WA2.coset_min(w, lam) for w in bfs_ball(WA2, 3)}, key=lambda u: u.key)
    assert [r.word for r in reps] == [(), (1,), (0, 1)]
    e, s2, s12 = reps
    assert WA2.bruhat_leq(e, s2) and WA2.bruhat_leq(s2, s12)
    assert not WA2.bruhat_leq(s12, s2)


@pytest.mark.parametrize(
    "R, lams, bound",
    [
        (realization_from_preset("A2~"), [(1, 0, 0, 0), (1, 1, 0, 0), (0, 2, 1, 0)], 5),
        (realization_from_preset("G2"), [(1, 0), (0, 1), (2, 1)], 6),
        (Realization(GCM.from_matrix([[2, -3], [-3, 2]])), [(1, 0), (0, 2), (1, 1)], 6),
    ],
    ids=["A2~", "G2", "hyperbolic"],
)
def test_slope_rule_for_the_reflected_coset(R, lams, bound):
    """Deodhar's lemma as the LS root operators use it: for d in W^lam and
    lam dominant, the minimal representative of s_i d W_lam is d when
    <alpha_i^vee, d(lam)> = 0 and s_i d otherwise."""
    W = WeylGroup(R)
    slopes_met = set()
    for lam in lams:
        reps = {W.coset_min(w, lam) for w in bfs_ball(W, bound)}
        for d in reps:
            mu = W.act(d, lam)
            for i in range(W.n):
                sd = W.lmul(i, d)
                assert W.coset_min(sd, lam) == (d if mu[i] == 0 else sd)
                slopes_met.add(mu[i] == 0)
    assert slopes_met == {True, False}


def test_memoised_group_law_matches_the_rho_action(WAFF):
    """from_word walks memoised links; the reference is the action on
    rho-images, reflection by reflection."""
    elems = bfs_ball(WAFF, 3)
    for a, b in itertools.product(elems, repeat=2):
        assert WAFF.from_word(a.word + b.word).rho == WAFF.act(a, b.rho)
    for a in elems:
        assert WAFF.act(a, WAFF.from_word(a.word[::-1]).rho) == WAFF.rho


@pytest.mark.parametrize("preset", ["B2", "G2", "A3"])
def test_memoised_coset_decompose_matches_the_rho_action(preset):
    """w^J is the shortest element of {w x : x in W_J}, the coset computed on
    rho-images in a separate group, and w = w^J x for an x in W_J."""
    W = WeylGroup(realization_from_preset(preset))
    ref = WeylGroup(W.R)
    whole = bfs_ball(ref, 20)
    by_rho = {x.rho: x for x in whole}
    for r in range(W.n + 1):
        for J in map(frozenset, itertools.combinations(range(W.n), r)):
            W_J, lam = [x for x in whole if set(x.word) <= J], lambda_J(W, J)
            for w in bfs_ball(W, 20):
                rep = W.coset_min(w, lam)
                coset = [by_rho[W.act(w, x.rho)] for x in W_J]
                assert rep.rho == min(coset, key=lambda x: x.key).rho
                assert set(W.from_word(rep.word[::-1] + w.word).word) <= J
                assert W.coset_min(w, lam) is rep


COSET_REFUSALS = """
from kmchev.cartan import realization_from_preset
from kmchev.weyl import WeylGroup
W = WeylGroup(realization_from_preset("A1~"))
w = W.from_word((0, 1))
for lam in ((-1, 0, 0), (1, 0), (1, 0, 0, 0)):
    try:
        W.coset_min(w, lam)
    except ValueError as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_coset_min_refuses_a_weight_that_is_not_dominant_or_of_another_rank(flags):
    """Reflecting w(lam) towards dominance never ends for lam = (-1, 0, 0) on
    A1~, so coset_min refuses it, and a weight of the wrong rank, before it
    starts; run in a subprocess so that a walk that does not end fails the
    test by its timeout instead of hanging the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, *flags, "-c", COSET_REFUSALS], capture_output=True, text=True,
                          env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"weight {lam} is not a dominant weight of rank 3"
                                        for lam in ((-1, 0, 0), (1, 0), (1, 0, 0, 0))]


def test_cap_from_the_environment(monkeypatch):
    """KMCHEV_CAP takes an int >= 0, read once per group, and refuses anything else."""
    monkeypatch.delenv("KMCHEV_CAP", raising=False)
    assert env_cap() == DEFAULT_CAP == WeylGroup(realization_from_preset("A1")).cap
    for text, cap in (("0", 0), ("250", 250)):
        monkeypatch.setenv("KMCHEV_CAP", text)
        assert env_cap() == cap == WeylGroup(realization_from_preset("A1")).cap
    for text in ("abc", "-1", "1.5", "", " 3"):
        monkeypatch.setenv("KMCHEV_CAP", text)
        with pytest.raises(CapError, match="KMCHEV_CAP"):
            WeylGroup(realization_from_preset("A1"))


RANK3_CYCLE = Realization(GCM.from_matrix([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]))


def test_covers_of_a_long_element_come_without_its_layer():
    """The 17-letter z = (0 1 2)^5 0 1 of the rank-3 cycle matrix, a free
    product of three Z/2, whose layer of length 18 has 3 * 2^17 elements:
    its 20 covers, each with z among its own cocovers by the same coroot.
    With lam = (1,1,0) they carry 29,860,704 alcove labels."""
    W = WeylGroup(RANK3_CYCLE)
    z = W.from_word((0, 1, 2) * 5 + (0, 1))
    covers = W.covers(z)
    assert len(covers) == 20
    assert len({w for w, _ in covers}) == 20
    for w, beta in covers:
        assert w.length == 18 and reflect_right(W, z, beta) is w
        assert (z, beta) in W.cocovers(w)
    lam = (1, 1, 0) + (0,) * (RANK3_CYCLE.N - 3)
    assert sum(max(pairing(beta, lam), 0) for _, beta in covers) == 29_860_704


@given(st.lists(st.integers(0, 1), max_size=8).map(tuple))
def test_act_by_inverse_is_inverse_action(word):
    W = WeylGroup(realization_from_preset("B2"))
    w = W.from_word(word)
    mu = (1, 2)
    assert W.act(W.from_word(w.word[::-1]), W.act(w, mu)) == mu
