import itertools

import pytest

from kmchev.cartan import GCM, Realization, realization_from_preset
from kmchev.lifts import down, interval_below, up
from kmchev.weyl import WeylGroup
from reference import bfs_ball, down_oracle, lambda_J, up_oracle


def coset(W, word, lam):
    """The minimal representative of the coset of the word's element."""
    return W.coset_min(W.from_word(word), lam)


def test_frozen_affine_lifts(WAFF):
    W = WAFF
    lam = lambda_J(W, {2})
    w = W.from_word((0, 1, 2, 1))
    assert up(W, W.from_word((1, 2)), coset(W, (2, 1), lam), lam) == W.from_word((1, 2, 1))
    assert up(W, W.from_word((1, 2, 1)), coset(W, (0, 2, 1), lam), lam) == w
    assert down(W, w, coset(W, (0,), lam), lam) == W.from_word((0, 2))
    assert down(W, w, coset(W, (), lam), lam) == W.from_word((2,))
    assert down(W, w, coset(W, (0, 1, 2, 1), lam), lam) == w


def test_frozen_a3_lift_shift():
    # v = s3, s = s1, tau = s2 s3 W_{s1}: lifting v lands at s2 s3, lifting
    # s1 v at s2 s3 s1 -- the lift of the longer element extends the shorter.
    W = WeylGroup(realization_from_preset("A3"))
    lam = lambda_J(W, {0})
    tau = coset(W, (1, 2), lam)
    assert up(W, W.from_word((2,)), tau, lam) == W.from_word((1, 2))
    assert up(W, W.from_word((0, 2)), tau, lam) == W.from_word((1, 2, 0))


def test_lifts_refuse_a_non_minimal_representative(WA2):
    # s1 lies in W_lam for lam = (0, 1): its coset is W_lam, whose minimal
    # representative is e, so neither lift may read s1 as a representative.
    lam = (0, 1)
    s1, w0 = WA2.from_word((0,)), WA2.from_word((0, 1, 0))
    assert up(WA2, WA2.e, WA2.e, lam) == WA2.e
    assert down(WA2, w0, WA2.e, lam) == s1
    with pytest.raises(ValueError):
        up(WA2, WA2.e, s1, lam)
    with pytest.raises(ValueError):
        down(WA2, w0, s1, lam)


def test_interval_below(WA2):
    w0 = WA2.from_word((0, 1, 0))
    assert interval_below(WA2, w0) == set(bfs_ball(WA2, 3))
    s12 = WA2.from_word((0, 1))
    assert {u.word for u in interval_below(WA2, s12)} == {(), (0,), (1,), (0, 1)}


def _assert_lift_parity(W, bound, subsets):
    """up/down against the ball-scanning oracles for every v, w in the ball of
    the given length and every coset they reach, over the lambda_J of each J
    in subsets."""
    elems = bfs_ball(W, bound)
    for lam in (lambda_J(W, J) for J in subsets):
        reps = sorted({W.coset_min(w, lam) for w in elems}, key=lambda u: u.key)
        for v in elems:
            vmin = W.coset_min(v, lam)
            for tau in reps:
                if W.bruhat_leq(vmin, tau):
                    assert up(W, v, tau, lam) == up_oracle(W, v, tau, lam, max(bound, v.length + tau.length + 2))
                else:
                    with pytest.raises(ValueError, match="does not lie under"):
                        up(W, v, tau, lam)
        for w in elems:
            wmin = W.coset_min(w, lam)
            for tau in reps:
                if W.bruhat_leq(tau, wmin):
                    assert down(W, w, tau, lam) == down_oracle(W, w, tau, lam)
                else:
                    with pytest.raises(ValueError):
                        down(W, w, tau, lam)


def _all_subsets(n):
    return [frozenset(s) for r in range(n + 1) for s in itertools.combinations(range(n), r)]


@pytest.mark.parametrize("preset", ["A2", "B2", "G2"])
def test_lift_parity_exhaustive_finite(preset):
    W = WeylGroup(realization_from_preset(preset))
    _assert_lift_parity(W, 8, _all_subsets(W.n))


def test_lift_parity_affine_ball(WAFF):
    _assert_lift_parity(WAFF, 4, [frozenset({2})])


@pytest.mark.parametrize(
    "R, bound",
    [
        (realization_from_preset("A1~"), 8),
        (Realization(GCM.from_matrix([[2, -3], [-3, 2]])), 6),
    ],
    ids=["A1~", "hyperbolic"],
)
def test_lift_parity_infinite_rank_two(R, bound):
    _assert_lift_parity(WeylGroup(R), bound, _all_subsets(R.n))


def test_lifts_of_words_longer_than_the_recursion_limit():
    W = WeylGroup(realization_from_preset("A1~"))
    w = W.from_word((0, 1) * 600)
    lam0, lam01, rho = lambda_J(W, {0}), lambda_J(W, {0, 1}), lambda_J(W, ())
    tau = coset(W, (1, 0) * 3, lam0)
    assert down(W, w, tau, lam0) == W.from_word((1, 0) * 3)
    assert down(W, w, coset(W, (), lam01), lam01) == w
    assert up(W, W.e, coset(W, w.word, rho), rho) == w


# -- how lifts interact with a simple reflection --------------------------------


def _configs(W):
    """Every (v, tau, s_i, lam) with tau a minimal representative and
    v W_lam <= tau W_lam, over the lambda_J of every proper J."""
    elems = bfs_ball(W, 8)
    subsets = [frozenset(s) for r in range(W.n) for s in itertools.combinations(range(W.n), r)]
    for lam in (lambda_J(W, J) for J in subsets):
        reps = {W.coset_min(w, lam) for w in elems}
        for v, tau, i in itertools.product(elems, reps, range(W.n)):
            if W.bruhat_leq(W.coset_min(v, lam), tau):
                yield v, tau, i, lam


def _s_tau(W, i, tau, lam):
    """The minimal representative of s_i tau W_lam."""
    return W.coset_min(W.lmul(i, tau), lam)


@pytest.mark.parametrize("preset", ["A2", "B2"])
def test_lift_tracks_the_reflection_of_the_target(preset):
    """sign of s tau vs tau controls sign of s w vs w for w = up(v, tau)."""
    W = WeylGroup(realization_from_preset(preset))
    for v, tau, i, lam in _configs(W):
        w = up(W, v, tau, lam)
        stau = _s_tau(W, i, tau, lam)
        sw = W.lmul(i, w)
        if stau.length > tau.length:
            assert sw.length > w.length
        elif stau.length < tau.length:
            assert sw.length < w.length
        elif W.lmul(i, v).length > v.length:
            assert sw.length > w.length


@pytest.mark.parametrize("preset", ["A2", "B2"])
def test_lift_to_the_lowered_target(preset):
    """if s v > v and v W_lam <= s tau < tau then up(v, s tau) = s up(v, tau)."""
    W = WeylGroup(realization_from_preset(preset))
    hit = 0
    for v, tau, i, lam in _configs(W):
        stau = _s_tau(W, i, tau, lam)
        if W.lmul(i, v).length < v.length or stau.length >= tau.length:
            continue
        if not W.bruhat_leq(W.coset_min(v, lam), stau):
            continue
        w = up(W, v, tau, lam)
        y = up(W, v, stau, lam)
        assert y == W.lmul(i, w)
        assert y.length < w.length
        hit += 1
    assert hit > 0


@pytest.mark.parametrize("preset", ["A2", "B2"])
def test_lift_of_the_raised_start(preset):
    """if v < s v both lift below an s-stable-or-lowered tau, the lifts agree
    or differ by s, the latter only when s tau = tau."""
    W = WeylGroup(realization_from_preset(preset))
    hit = 0
    for v, tau, i, lam in _configs(W):
        sv = W.lmul(i, v)
        stau = _s_tau(W, i, tau, lam)
        if v.length > sv.length or stau.length > tau.length:
            continue
        if not W.bruhat_leq(W.coset_min(sv, lam), tau):
            continue
        y = up(W, sv, tau, lam)
        w = up(W, v, tau, lam)
        if y != w:
            assert y == W.lmul(i, w)
            assert y.length > w.length
            assert stau == tau
            hit += 1
    assert hit > 0
