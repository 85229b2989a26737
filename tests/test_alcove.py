import functools
import os
import subprocess
import sys
from fractions import Fraction as Q
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from kmchev.alcove import (
    AdaptedSequence,
    LambdaHyperplane,
    _label_edges,
    chevalley_alcove,
    enumerate_tree_antidominant,
    enumerate_tree_dominant,
    enumerate_z_adapted,
    fixed_z_rows,
    format_hyperplane,
    hs_apply,
    lex_cut,
    lex_less,
    tree_dot,
    wt_fold,
)
from kmchev.bridge import _label_chains, increasing_chain, ls_to_seq, refl_less, seq_to_ls
from kmchev.cartan import GCM, Realization, pairing, realization_from_preset, wt_neg
from kmchev.kring import chevalley_recurrence, lp_add_into, lp_monomial
from kmchev.lspath import (
    chevalley_ls,
    demazure_crystal,
    down_path,
)
from kmchev.weyl import WeylGroup
from chart import lift_subset
from reference import (
    bfs_ball,
    classify_rational,
    count_before,
    lex_chain,
    ls_endpoint,
    ls_path,
    positive_coroots_up_to,
    stdvec,
    validate_lambda_chain_finite,
)

LAM = (1, 1, 0, 0)
WWORD = (0, 1, 2, 1)


def hyperplanes_for(R, lam, bound=4):
    """All (coroot, level) hyperplanes crossed by the lam segment, coroots
    restricted to the given height ball in the affine case."""
    if classify_rational(R.gcm.a, R.gcm.d) == "finite":
        coroots = positive_coroots_up_to(R)
    else:
        coroots = positive_coroots_up_to(R, bound)
    out = []
    for eta in coroots:
        for k in range(max(0, pairing(eta, lam))):
            out.append(LambdaHyperplane(eta, k))
    return out


# -- the lex order on hyperplanes ------------------------------------------------


def test_stdvec_and_format(WAFF):
    R = WAFF.R
    hs = hyperplanes_for(R, LAM, bound=5)
    labels = {format_hyperplane(LAM, h) for h in hs}
    assert "(0|0,1,0)" in labels
    assert "(2|1,2,2)/3" in labels
    for h in hs:
        v = stdvec(LAM, h)
        assert 0 <= v[0] < 1
        assert v[0] == Q(h.k, pairing(h.alpha, LAM))


def test_lex_is_a_strict_total_order(WAFF):
    hs = hyperplanes_for(WAFF.R, LAM, bound=3)
    for a in hs:
        for b in hs:
            if a == b:
                assert not lex_less(LAM, a, b)
            else:
                assert lex_less(LAM, a, b) != lex_less(LAM, b, a)
    ordered = sorted(hs, key=lambda h: stdvec(LAM, h))
    for x, y in zip(ordered, ordered[1:]):
        assert lex_less(LAM, x, y)


def test_reflection_fixed_points(WAFF):
    """The fold at the "inc" level k fixes the segment point at relative
    height k/p, at the "dec" level p - k the point at relative coheight; at
    either level it squares to the identity."""
    R = WAFF.R
    for h in hyperplanes_for(R, LAM, bound=3):
        p = pairing(h.alpha, LAM)
        probe = tuple(Q(x, 7) for x in LAM)
        for level, b in ((h.k, Q(h.k, p)), (p - h.k, 1 - Q(h.k, p))):
            fixed = tuple(b * x for x in LAM)
            assert hs_apply(R, h, fixed, level) == fixed
            assert hs_apply(R, h, hs_apply(R, h, probe, level), level) == probe


# -- lex chains and the chain axioms ---------------------------------------------


@pytest.mark.parametrize("coords,size", [((1, 1), 4), ((2, 1), 6)])
def test_lex_chain_sizes(WA2, coords, size):
    lam = coords
    chain = lex_chain(WA2.R, lam)
    assert len(chain) == size
    assert len(chain) == sum(pairing(b, lam) for b in positive_coroots_up_to(WA2.R))


def test_lex_chain_satisfies_the_axioms(WA2, WB2, WG2):
    for W, lam in [
        (WA2, (1, 1)),
        (WA2, (2, 1)),
        (WB2, WB2.R.rho),
        (WG2, WG2.R.rho),
    ]:
        ok, why = validate_lambda_chain_finite(W.R, lam, lex_chain(W.R, lam))
        assert ok, why


def test_chain_axioms_reject_mutations(WA2, WG2):
    lam = (2, 1)
    chain = lex_chain(WA2.R, lam)
    # swapping the two levels of one coroot breaks the level-order axiom
    idx = [i for i, h in enumerate(chain) if pairing(h.alpha, lam) >= 2][:2]
    swapped = list(chain)
    swapped[idx[0]], swapped[idx[1]] = swapped[idx[1]], swapped[idx[0]]
    ok, why = validate_lambda_chain_finite(WA2.R, lam, swapped)
    assert not ok and why
    # dropping an entry breaks the multiset axiom
    ok, why = validate_lambda_chain_finite(WA2.R, lam, chain[1:])
    assert not ok and why
    # reversing a G2 chain must violate the counting axiom, whose bookkeeping
    # includes negative integer combinations of coroot pairs
    g = lex_chain(WG2.R, WG2.R.rho)
    ok, why = validate_lambda_chain_finite(WG2.R, WG2.R.rho, list(reversed(g)))
    assert not ok and why


def test_count_before_matches_brute_force_finite(WA2, WB2):
    for W, lam in [(WA2, (2, 1)), (WB2, WB2.R.rho)]:
        chain = lex_chain(W.R, lam)
        etas = positive_coroots_up_to(W.R)
        for pos, h in enumerate(chain):
            for eta in etas:
                explicit = sum(1 for hp in chain[:pos] if hp.alpha == eta)
                assert count_before(lam, eta, h) == explicit


def test_count_before_matches_brute_force_affine(WAFF):
    hs = hyperplanes_for(WAFF.R, LAM, bound=4)
    etas = {h.alpha for h in hs}
    for h in hs:
        for eta in etas:
            explicit = sum(
                1
                for k in range(max(0, pairing(eta, LAM)))
                if lex_less(LAM, LambdaHyperplane(eta, k), h)
            )
            assert count_before(LAM, eta, h) == explicit, (eta, h)


# -- reflection orders -----------------------------------------------------------


def order_cases(W):
    R = W.R
    lams = [R.rho, tuple(1 if k == 0 else 0 for k in range(R.N))]  # rho and the first fundamental weight
    return [(R, lam, positive_coroots_up_to(R)) for lam in lams]


def test_refl_less_is_a_strict_total_order(WA2, WB2, WG2):
    for W in (WA2, WB2, WG2):
        for R, lam, pos in order_cases(W):
            for a in pos:
                assert not refl_less(R, lam, a, a)
                for b in pos:
                    if a != b:
                        assert refl_less(R, lam, a, b) != refl_less(R, lam, b, a)
                    for c in pos:
                        if refl_less(R, lam, a, b) and refl_less(R, lam, b, c):
                            assert refl_less(R, lam, a, c)


def test_refl_less_is_convex(WA2, WB2, WG2):
    """Whenever one positive coroot is a positive rational combination of two
    others, it sits between them in the reflection order."""
    hits = 0
    for W in (WA2, WB2, WG2):
        for R, lam, pos in order_cases(W):
            for a in pos:
                for b in pos:
                    if a == b:
                        continue
                    det = a.c[0] * b.c[1] - a.c[1] * b.c[0]
                    if det == 0:
                        continue
                    for g in pos:
                        if g in (a, b):
                            continue
                        x = Q(g.c[0] * b.c[1] - g.c[1] * b.c[0], det)
                        y = Q(a.c[0] * g.c[1] - a.c[1] * g.c[0], det)
                        if x > 0 and y > 0:
                            hits += 1
                            between = (
                                refl_less(R, lam, a, g) and refl_less(R, lam, g, b)
                            ) or (refl_less(R, lam, b, g) and refl_less(R, lam, g, a))
                            assert between, (lam, a, g, b)
    assert hits > 50


def test_increasing_chain_unique_among_all_chains(WA2, WB2):
    for W in (WA2, WB2):
        lam = W.R.rho
        for w in bfs_ball(W, 10):
            for v in bfs_ball(W, w.length):
                if not W.bruhat_leq(v, w):
                    continue
                labels = increasing_chain(W, lam, v, w)
                assert functools.reduce(W.reflect_right, labels, v) == w
                for x, y in zip(labels, labels[1:]):
                    assert refl_less(W.R, lam, x, y)
                # the labels fix the chain from v, so chains compare as label tuples
                inc = [ls for ls in _label_chains(W, v, w, None)
                       if all(refl_less(W.R, lam, x, y) for x, y in zip(ls, ls[1:]))]
                assert inc == [labels]


def test_increasing_chain_raises_without_a_chain(WA2):
    w = WA2.from_word((0, 1))
    with pytest.raises(ValueError, match="unique increasing chain"):
        increasing_chain(WA2, WA2.R.rho, w, WA2.e)  # e < w: no chain runs down


@pytest.mark.parametrize("R,lamtext", [
    (realization_from_preset("A2~"), "1,1,0"),
    (realization_from_preset("G2"), "2,1"),
    (Realization(GCM.from_matrix([[2, -3], [-3, 2]])), "1,1"),
])
def test_integer_lex_order_matches_rational_order(R, lamtext):
    """lex_less cross-multiplies int vectors; sorting with it must give the
    order of the rational vectors stdvec, and refl_less likewise."""
    lam = R.parse_weight(lamtext)
    coroots = [a for a in positive_coroots_up_to(R, 6) if pairing(a, lam) > 0]
    hs = [LambdaHyperplane(a, k) for a in coroots for k in range(pairing(a, lam))]

    def cmp(less):
        return functools.cmp_to_key(lambda x, y: -1 if less(x, y) else (1 if less(y, x) else 0))

    by_int = sorted(hs, key=cmp(lambda x, y: lex_less(lam, x, y)))
    assert by_int == sorted(hs, key=lambda h: stdvec(lam, h))
    by_refl = sorted(coroots, key=cmp(lambda x, y: refl_less(R, lam, x, y)))
    assert by_refl == sorted(coroots, key=lambda a: tuple(Q(c, pairing(a, lam)) for c in a.c))


def test_rational_level_chains_all_or_none(WA2, WB2):
    """If one saturated chain in an interval uses only reflections whose
    pairing with lam stays integral against the cut b, every chain does."""
    for W, lam in [(WA2, (1, 1)), (WA2, (2, 1)), (WB2, WB2.R.rho)]:
        for b in (Q(1, 2), Q(1, 3), Q(2, 3)):
            def ok(beta):
                return (b * pairing(beta, lam)).denominator == 1

            for w in bfs_ball(W, 10):
                for v in bfs_ball(W, w.length):
                    if not W.bruhat_leq(v, w):
                        continue
                    every = _label_chains(W, v, w, None)
                    fitting = _label_chains(W, v, w, ok)
                    assert len(fitting) in (0, len(every)), (v, w, b)


# -- adapted-sequence trees -------------------------------------------------------


@pytest.fixture(scope="module")
def afftrees(WAFF):
    w = WAFF.from_word(WWORD)
    dom = enumerate_tree_dominant(WAFF, LAM, w)
    anti = enumerate_tree_antidominant(WAFF, LAM, w)
    return WAFF, w, dom, anti


def seqs(pairs):
    return [seq for seq, _ in pairs]


def test_frozen_tree_shapes(afftrees):
    W, w, dom, anti = afftrees
    dom, anti = seqs(dom), seqs(anti)
    assert len(dom) == 8
    assert len(anti) == 9
    root_labels = sorted(
        format_hyperplane(LAM, s.hs[-1]) for s in dom if len(s.hs) == 1
    )
    assert root_labels == ["(0|0,1,0)", "(0|1,2,2)/3", "(1|1,2,2)/3", "(2|1,2,2)/3"]
    for s in dom:
        assert s.end == w
        assert s.monotonicity == "inc"
        for a, b in zip(s.hs, s.hs[1:]):
            assert lex_less(LAM, a, b)
    for s in anti:
        assert s.end == w
        for a, b in zip(s.hs, s.hs[1:]):
            assert lex_less(LAM, b, a)


def test_frozen_weights_and_conversions(afftrees):
    W, w, dom, anti = afftrees
    carried = dict(dom + anti)
    dom, anti = seqs(dom), seqs(anti)
    rightmost = [
        s
        for s in dom
        if len(s.hs) == 2 and format_hyperplane(LAM, s.hs[1]) == "(2|1,2,2)/3"
    ]
    assert len(rightmost) == 1
    (leaf,) = rightmost
    assert leaf.z == W.from_word((1, 2))
    assert wt_fold(W, LAM, leaf) == carried[leaf] == (1, 1, 0, -1)
    p1 = ls_path(LAM, (0, Q(2, 3)), (W.from_word((2, 1)), W.from_word((0, 2, 1))))
    assert seq_to_ls(W, LAM, leaf) == p1
    assert ls_to_seq(W, p1, leaf.z, "inc") == leaf

    root = [s for s in dom if not s.hs]
    assert root[0].z == w and wt_fold(W, LAM, root[0]) == carried[root[0]] == W.act(w, LAM)

    s02 = [s for s in anti if s.z == W.from_word((0, 2))]
    assert len(s02) == 1
    (seq,) = s02
    assert tuple(format_hyperplane(LAM, h) for h in seq.hs) == ("(0|0,1,1)", "(0|0,1,0)")
    assert wt_fold(W, LAM, seq) == carried[seq] == (-1, 2, 1, -1)
    s0path = ls_path(LAM, (0,), (W.from_word((0,)),))
    assert seq_to_ls(W, LAM, seq) == s0path
    assert ls_to_seq(W, s0path, w, "dec") == seq


def test_tree_dot_output(afftrees):
    W, w, dom, anti = afftrees
    dot = tree_dot(W, LAM, dom)
    assert dot.startswith("digraph tree {") and dot.count("->") == 7
    assert "(0|0,1,0)" in dot and "(2|1,2,2)/3" in dot
    assert tree_dot(W, LAM, anti).count("->") == 8


def test_round_trips_exhaustive_finite(WA2):
    W = WA2
    for lam in ((1, 1), (1, 0)):
        crystal_cache = {}
        for w in bfs_ball(W, 10):
            dom = seqs(enumerate_tree_dominant(W, lam, w))
            for seq in dom:
                p = seq_to_ls(W, lam, seq)
                assert ls_to_seq(W, p, seq.z, "inc") == seq
                assert ls_endpoint(W, p) == wt_fold(W, lam, seq)
            # grouped by base, the tree enumerates exactly the up-lift fibers
            crystal = crystal_cache.setdefault(w, demazure_crystal(W, lam, w))
            byz = {}
            for seq in dom:
                byz.setdefault(seq.z, set()).add(seq_to_ls(W, lam, seq))
            for z, got in byz.items():
                assert got == lift_subset(W, crystal, z, w, "up")

            anti = seqs(enumerate_tree_antidominant(W, lam, w))
            for seq in anti:
                p = seq_to_ls(W, lam, seq)
                assert ls_to_seq(W, p, w, "dec") == seq
                assert crystal[p] == wt_fold(W, lam, seq)
                assert down_path(W, w, p) == seq.z
                assert len(seq.hs) == w.length - seq.z.length
            # the down-lift partitions the crystal; the tree must hit each part
            assert {seq_to_ls(W, lam, seq) for seq in anti} == crystal.keys()


def test_round_trips_affine_frozen(afftrees):
    W, w, dom, anti = afftrees
    dom, anti = seqs(dom), seqs(anti)
    for seq in dom:
        assert ls_to_seq(W, seq_to_ls(W, LAM, seq), seq.z, "inc") == seq
    got = {seq_to_ls(W, LAM, seq) for seq in anti}
    assert got == demazure_crystal(W, LAM, w).keys()
    for seq in anti:
        assert ls_to_seq(W, seq_to_ls(W, LAM, seq), w, "dec") == seq


# -- fans above a base -----------------------------------------------------------


def test_fan_matches_trees_in_finite_type(WA2):
    W = WA2
    lam = (1, 1)
    fan, truncated = enumerate_z_adapted(W, lam, W.from_word(()), "inc", 3)
    assert not truncated
    by_end = {}
    for pair in fan:
        by_end.setdefault(pair[0].end, set()).add(pair)
    for w in bfs_ball(W, 10):
        from_tree = {(s, wt) for s, wt in enumerate_tree_dominant(W, lam, w) if s.z.length == 0}
        assert by_end.get(w, set()) == from_tree
    _, truncated2 = enumerate_z_adapted(W, lam, W.from_word(()), "inc", 2)
    assert truncated2


def test_fan_truncation_affine(WAFF):
    W = WAFF
    z = W.from_word((1,))
    fan, truncated = enumerate_z_adapted(W, LAM, z, "inc", 4)
    assert truncated
    assert len(fan) == 57
    assert all(s.z == z and s.end.length <= 4 for s, _ in fan)
    smaller, _ = enumerate_z_adapted(W, LAM, z, "inc", 3)
    assert {s for s in smaller} <= set(fan)


def test_a_base_longer_than_the_bound_has_no_sequence(WA2, WAFF):
    """No adapted sequence over z stays within a bound below l(z), not even
    the empty one at z itself; the fan is cut off, so it is truncated."""
    for W, lam, word in [(WA2, (1, 1), (0, 1)), (WAFF, LAM, (1, 2, 0))]:
        z = W.from_word(word)
        for mono in ("inc", "dec"):
            for bound in range(z.length):
                assert enumerate_z_adapted(W, lam, z, mono, bound) == ([], True)
            fan, _ = enumerate_z_adapted(W, lam, z, mono, z.length)
            assert (AdaptedSequence(z, (), z, mono), W.act(z, lam)) in fan


RANK3_HYP = Realization(GCM.from_matrix([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]))


def test_rank3_hyperbolic_fan():
    """The fixed-z fan above e in rank-3 hyperbolic type, where the BFS
    layers double with each length; every bound truncates."""
    W = WeylGroup(RANK3_HYP)
    lam = (1, 0, 0)  # Lambda_0
    fan, truncated = enumerate_z_adapted(W, lam, W.e, "inc", 5)
    assert (len(fan), truncated) == (8882, True)
    fan4, truncated4 = enumerate_z_adapted(W, lam, W.e, "inc", 4)
    assert (len(fan4), truncated4) == (390, True)
    assert set(fan4) == {(s, wt) for s, wt in fan if s.end.length <= 4}


# -- weights carried along the edges ------------------------------------------------


def carried_mismatches(W, lam, pairs):
    """The pairs whose carried weight is not the fold of their labels."""
    return [(seq, wt) for seq, wt in pairs if wt != wt_fold(W, lam, seq)]


CARRIED = {
    "A2": (realization_from_preset("A2"), "1,1", (0, 1, 0), 3),
    "B2": (realization_from_preset("B2"), "1,2", (0, 1, 0, 1), 4),
    "G2": (realization_from_preset("G2"), "2,1", (0, 1, 0, 1, 0), 5),
    "A3": (realization_from_preset("A3"), "1,0,1", (0, 1, 2, 1, 0), 5),
    "A2~": (realization_from_preset("A2~"), "1,1,0", (0, 1, 2, 1, 0), 5),
    "A1~": (realization_from_preset("A1~"), "1,1", (0, 1, 0, 1, 0, 1), 6),
    "hyp2": (Realization(GCM.from_matrix([[2, -3], [-3, 2]])), "1,1", (0, 1, 0, 1), 4),
    "hyp3": (RANK3_HYP, "1,1,0", (0, 1, 2), 4),
}


@pytest.mark.parametrize("R,lamtext,wword,bound", CARRIED.values(), ids=CARRIED.keys())
def test_the_carried_weight_is_the_fold(R, lamtext, wword, bound):
    """Every pair of both trees below w, and of both fans above e and above
    the first letter of w within the bound, carries the weight wt_fold
    gives its sequence."""
    W = WeylGroup(R)
    lam = R.parse_weight(lamtext)
    w = W.from_word(wword)
    walks = [enumerate_tree_dominant(W, lam, w), enumerate_tree_antidominant(W, lam, w)]
    for z in (W.e, W.from_word(wword[:1])):
        walks += [enumerate_z_adapted(W, lam, z, mono, bound)[0] for mono in ("inc", "dec")]
    assert all(len(pairs) > 1 for pairs in walks)
    for pairs in walks:
        assert carried_mismatches(W, lam, pairs) == []


@functools.cache
def rank2_group(a: int, b: int) -> WeylGroup:
    return WeylGroup(Realization(GCM.from_matrix([[2, -a], [-b, 2]])))


@given(st.sampled_from([(0, 0)] + [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]),
       st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 1), st.integers(0, 4))
def test_random_rank2_weights_and_rows(offdiag, coords, first, length):
    """A rank-2 GCM with off-diagonal entries down to -3 (finite, affine or
    hyperbolic), a dominant lam with coordinates 0-2 and a reduced word of
    length <= 4: the tree and the fan above w within l(w) + 1 carry the
    weights of wt_fold, in both monotonicities, and the alcove and LS rows
    equal the recurrence's in both signs."""
    W = rank2_group(*offdiag)
    w = W.from_word(tuple((first + k) % 2 for k in range(length)))
    assume(w.length == length)
    lam = W.R.parse_weight(f"{coords[0]},{coords[1]}")
    for mono in ("inc", "dec"):
        tree = (enumerate_tree_dominant if mono == "inc" else enumerate_tree_antidominant)(W, lam, w)
        fan, _ = enumerate_z_adapted(W, lam, w, mono, length + 1)
        assert carried_mismatches(W, lam, tree + fan) == []
    for sign, mu in ((1, lam), (-1, wt_neg(lam))):
        rows = chevalley_recurrence(W, w, mu)
        assert chevalley_alcove(W, lam, w, sign) == rows
        assert chevalley_ls(W, lam, w, sign) == rows


# -- the admissible cut ----------------------------------------------------------


def filter_reference(lam, edges, label, above):
    """The admissible edges found by testing every edge with lex_less."""
    if label is None:
        return edges
    return [e for e in edges if (lex_less(lam, label, e[0]) if above else lex_less(lam, e[0], label))]


EDGE_CASES = {
    "A2~": (realization_from_preset("A2~"), "1,1,0", (0, 1, 2, 1, 0, 2)),
    "G2": (realization_from_preset("G2"), "2,1", (1, 0, 1, 0, 1, 0)),
    "hyp2": (Realization(GCM.from_matrix([[2, -3], [-3, 2]])), "1,1", (0, 1, 0, 1, 0)),
    "hyp3": (RANK3_HYP, "1,0,0", (0, 1, 2, 0)),
}


@pytest.mark.parametrize("R,lamtext,wword", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_lex_cut_matches_the_filter(R, lamtext, wword):
    """Every tree and fan edge list met in both monotonicities, cut at the
    label it was reached by, at each of its own labels and at none: the
    bisected cut must equal the edge-by-edge filter in both directions."""
    W = WeylGroup(R)
    lam = R.parse_weight(lamtext)
    w = W.from_word(wword)
    cuts: dict = {}
    for inc, tree in ((True, enumerate_tree_dominant), (False, enumerate_tree_antidominant)):
        for seq, _ in tree(W, lam, w):
            edges = _label_edges(W, lam, seq.z, True, inc, "tree", 0)
            _, labels = cuts.setdefault(("tree", inc, seq.z), (edges, {None}))
            labels.add(seq.hs[0] if seq.hs else None)
    for inc in (True, False):
        for seq, _ in enumerate_z_adapted(W, lam, W.e, "inc" if inc else "dec", 4)[0]:
            u = seq.end
            _, labels = cuts.setdefault(("fan", inc, u), (_label_edges(W, lam, u, False, inc, "fan", 0), {None}))
            labels.add(seq.hs[-1] if seq.hs else None)
    assert {kind for kind, _, _ in cuts} == {"tree", "fan"}
    proper = 0
    for edges, labels in cuts.values():
        for label in labels | {h for h, _, _ in edges}:
            for above in (True, False):
                kept = lex_cut(lam, edges, label, above)
                assert kept == filter_reference(lam, edges, label, above)
                proper += 0 < len(kept) < len(edges)
    assert proper > 10


@pytest.mark.parametrize("case,letters", [("A2~", 6), ("G2", 6), ("hyp2", 4)])
def test_the_chain_is_rebuilt_from_z_and_the_labels(case, letters):
    """A sequence stores z, its labels and its end only.  For every sequence
    of both trees below w and both fans above e, the chain rebuilt from z
    along the labels is saturated, ends at the stored end, and the sequence
    survives the round trip through its LS path.  (The hyperbolic w keeps 4
    letters: its dominant tree has 25,400 sequences at 5.)"""
    R, lamtext, wword = EDGE_CASES[case]
    W = WeylGroup(R)
    lam = R.parse_weight(lamtext)
    w = W.from_word(wword[:letters])
    trees = seqs(enumerate_tree_dominant(W, lam, w) + enumerate_tree_antidominant(W, lam, w))
    fans = seqs(enumerate_z_adapted(W, lam, W.e, "inc", 4)[0] + enumerate_z_adapted(W, lam, W.e, "dec", 4)[0])
    assert all(seq.end == w for seq in trees) and all(seq.z == W.e for seq in fans)
    for seq in trees + fans:
        chain = list(accumulate((h.alpha for h in seq.hs), W.reflect_right, initial=seq.z))
        assert [x.length for x in chain] == list(range(seq.z.length, seq.z.length + len(chain)))
        assert chain[-1] == seq.end
        base = seq.z if seq.monotonicity == "inc" else seq.end
        assert ls_to_seq(W, seq_to_ls(W, lam, seq), base, seq.monotonicity) == seq


# -- bad arguments raise, also under python -O -------------------------------------


def bad_arguments_raise():
    """ValueError for a monotonicity other than "inc"/"dec", for a pair
    (alpha, k) that is not a hyperplane of lam, for labels out of order in
    seq_to_ls and for a negative level; returns how many raised."""
    W = WeylGroup(realization_from_preset("A2"))
    lam = (1, 1)
    alpha = positive_coroots_up_to(W.R)[0]
    top = max(positive_coroots_up_to(W.R), key=lambda beta: pairing(beta, lam))
    # t = 1/2 before t = 0: not lex-increasing
    unordered = AdaptedSequence(W.e, (LambdaHyperplane(top, 1), LambdaHyperplane(alpha, 0)), W.e, "inc")
    calls = [
        lambda: AdaptedSequence(W.e, (), W.e, "up"),
        lambda: enumerate_z_adapted(W, lam, W.e, "increasing", 2),
        lambda: ls_to_seq(W, ls_path(lam, (0,), (W.e,)), W.e, "Inc"),
        lambda: stdvec(lam, LambdaHyperplane(alpha, pairing(alpha, lam))),
        lambda: stdvec((0, 0), LambdaHyperplane(alpha, 0)),
        lambda: seq_to_ls(W, lam, unordered),
        lambda: LambdaHyperplane(alpha, -1),
    ]
    raised = 0
    for call in calls:
        try:
            call()
        except ValueError:
            raised += 1
    return raised


def test_bad_arguments_raise():
    assert bad_arguments_raise() == 7


def test_bad_arguments_raise_without_asserts():
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), str(root / "tests"), str(root / "scripts"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "import test_alcove; print(test_alcove.bad_arguments_raise())"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "7"


# -- coefficient rows ------------------------------------------------------------


def rows_equal(a, b):
    keys = {k for k, v in a.items() if v} | {k for k, v in b.items() if v}
    return all(a.get(k, {}) == b.get(k, {}) for k in keys)


def test_triangle_finite(WA2):
    W = WA2
    for lam in ((1, 1), (2, 1)):
        for w in bfs_ball(W, 10):
            rec = chevalley_recurrence(W, w, lam)
            assert rows_equal(rec, chevalley_alcove(W, lam, w, 1))
            assert rows_equal(rec, chevalley_ls(W, lam, w, 1))
            arec = chevalley_recurrence(W, w, wt_neg(lam))
            assert rows_equal(arec, chevalley_alcove(W, lam, w, -1))
            assert rows_equal(arec, chevalley_ls(W, lam, w, -1))


def test_triangle_affine_frozen(WAFF):
    W = WAFF
    w = W.from_word(WWORD)
    rec = chevalley_recurrence(W, w, LAM)
    dom = chevalley_alcove(W, LAM, w, 1)
    assert rows_equal(rec, dom)
    three = {
        (1, 1, 0, -1): 1,
        (-1, 2, 1, -2): 1,
        (-3, 3, 2, -3): 1,
    }
    assert dom[W.from_word((1, 2))] == three
    assert dom[W.from_word((1, 2, 1))] == three
    arec = chevalley_recurrence(W, w, wt_neg(LAM))
    anti = chevalley_alcove(W, LAM, w, -1)
    assert rows_equal(arec, anti)
    assert anti[W.from_word((2,))] == {wt_neg(LAM): -1}


FIXED_Z = {
    "A2~": (realization_from_preset("A2~"), "1,1,0", (1,), 5),
    "G2": (realization_from_preset("G2"), "2,1", (), 5),
    "A1~": (realization_from_preset("A1~"), "1,1", (0,), 6),
    "hyp2": (Realization(GCM.from_matrix([[2, -3], [-3, 2]])), "1,1", (0,), 5),
    "hyp3": (RANK3_HYP, "1,1,0", (), 4),
}


@pytest.mark.parametrize("R,lamtext,zword,bound", FIXED_Z.values(), ids=FIXED_Z.keys())
def test_fixed_z_rows_are_the_transposed_recurrence(R, lamtext, zword, bound):
    """The fixed-z row at w (the fan above z) is the recurrence's coefficient
    of T_z in T_w e^{±lam}, for every w within the bound, in both signs."""
    W = WeylGroup(R)
    lam = R.parse_weight(lamtext)
    z = W.from_word(zword)
    for sign, mu in ((1, lam), (-1, wt_neg(lam))):
        rows, _ = fixed_z_rows(W, lam, z, sign, bound)
        assert rows
        for w in bfs_ball(W, bound):
            assert rows.get(w, {}) == chevalley_recurrence(W, w, mu).get(z, {}), (sign, w)


def test_inverted_lex_breaks_the_triangle(WAFF):
    """With the lex comparator inverted the dominant row is the lex-decreasing
    tree folded with wt_inc; it must disagree with the recurrence."""
    W = WAFF
    w = W.from_word(WWORD)
    rec = chevalley_recurrence(W, w, LAM)
    wrong = {}
    for seq, _ in enumerate_tree_antidominant(W, LAM, w):
        lp_add_into(wrong.setdefault(seq.z, {}), lp_monomial(wt_fold(W, LAM, seq, "inc")))
    assert not rows_equal(rec, wrong)
    assert rows_equal(rec, chevalley_alcove(W, LAM, w, 1))


def test_a_dropped_walk_leaves_no_garbage_behind():
    """The walk's result is freed as soon as it is dropped: nothing of it
    waits in a reference cycle for the collector.  gc stays off and a first
    walk fills W's caches, so all a second walk made is in the youngest
    generation; collecting it (which, unlike a full collection, leaves the
    free lists alone) must free under 2% of the walk's tracemalloc peak."""
    import gc
    import tracemalloc

    R = Realization(GCM.from_matrix([[2, -3], [-3, 2]]))
    W = WeylGroup(R)
    lam, w = R.parse_weight("1,1"), W.from_word((0, 1, 0, 1))
    gc.disable()
    tracemalloc.start()
    try:
        enumerate_tree_dominant(W, lam, w)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pairs = enumerate_tree_dominant(W, lam, w)
        assert len(pairs) == 1006
        del pairs
        held, peak = tracemalloc.get_traced_memory()
        gc.collect(0)
        garbage = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert garbage < 0.02 * (peak - base), (garbage, peak - base)
