"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its runtime against the stated budget.

Run with `pytest -rA` to see every line (passed tests included)."""

import random
from fractions import Fraction as Q
from time import perf_counter

import pytest

from kmchev.alcove import (
    LambdaHyperplane,
    chevalley_alcove,
    enumerate_tree_antidominant,
    enumerate_tree_dominant,
    format_hyperplane,
    wt_fold,
)
from kmchev.cartan import (
    GCM,
    Realization,
    lp_add_into,
    lp_monomial,
    pairing,
    realization_from_preset,
    wt_add,
    wt_neg,
)
from kmchev.kring import (
    apply_Ti,
    chevalley_recurrence,
)
from kmchev.lspath import (
    chevalley_ls,
    demazure_crystal,
    down_path,
    iota,
    phi,
    up_path,
)
from kmchev.lifts import down, interval_below, up
from kmchev.weyl import WeylGroup
from bridge import ls_to_seq, refl_less, seq_to_ls
from chart import all_istrings, classify_string, lift_subset
from reference import (
    apply_word,
    bfs_ball,
    chevalley_explicit,
    count_before,
    down_oracle,
    lambda_J,
    lex_chain,
    lp_act,
    lp_mul,
    lp_mul_monomial,
    ls_endpoint,
    ls_path,
    positive_coroots_up_to,
    up_oracle,
    validate_lambda_chain_finite,
)

LAM = (1, 1, 0, 0)
WWORD = (0, 1, 2, 1)
SEED = 20260819


def report(label, ok, secs, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {verdict} ({secs:.2f}s / budget {budget}s)")


def rows_equal(a, b):
    keys = {k for k, v in a.items() if v} | {k for k, v in b.items() if v}
    return all(a.get(k, {}) == b.get(k, {}) for k in keys)


def test_criterion_1_explicit_row(WA2):
    t0 = perf_counter()
    W = WA2
    w = W.from_word((0, 1, 0))
    v = W.from_word((0,))
    lam = (2, 1)
    expect = {(-2, 0): 1, (-1, -2): 1}
    rec = chevalley_recurrence(W, w, lam)[v]
    exp = chevalley_explicit(W, w, v, lam)
    dt = perf_counter() - t0
    ok = rec == expect and exp == expect and dt < 1
    report("criterion 1: rank-2 recurrence vs explicit sum", ok, dt, 1)
    assert rec == expect
    assert exp == expect
    assert dt < 1


def test_criterion_2_dominant_affine_row(WAFF):
    t0 = perf_counter()
    W = WAFF
    w = W.from_word(WWORD)
    crystal = demazure_crystal(W, LAM, w)

    pair_count = 0
    for z in [(1, 2), (1, 2, 1), (0, 1, 2), (0, 1, 2, 1)]:
        pair_count += len(lift_subset(W, crystal, W.from_word(z), w, "up"))
    rows = chevalley_ls(W, LAM, w, 1)
    three = {
        (1, 1, 0, -1): 1,
        (-1, 2, 1, -2): 1,
        (-3, 3, 2, -3): 1,
    }
    one = {(-3, 3, 2, -3): 1}
    table_ok = (
        len(rows) == 4
        and rows[W.from_word((1, 2))] == three
        and rows[W.from_word((1, 2, 1))] == three
        and rows[W.from_word((0, 1, 2))] == one
        and rows[W.from_word((0, 1, 2, 1))] == one
    )

    tree = enumerate_tree_dominant(W, LAM, w)
    roots = sorted(format_hyperplane(LAM, s.hs[-1]) for s, _ in tree if len(s.hs) == 1)
    tree_ok = len(tree) == 8 and roots == [
        "(0|0,1,0)",
        "(0|1,2,2)/3",
        "(1|1,2,2)/3",
        "(2|1,2,2)/3",
    ]

    alc = chevalley_alcove(W, LAM, w, 1)
    rec = chevalley_recurrence(W, w, LAM)
    triangle_ok = rows_equal(rows, alc) and rows_equal(rows, rec)

    dt = perf_counter() - t0
    ok = pair_count == 8 and table_ok and tree_ok and triangle_ok and dt < 5
    report("criterion 2: affine dominant row, three models", ok, dt, 5)
    assert pair_count == 8
    assert table_ok
    assert tree_ok
    assert triangle_ok
    assert dt < 5


def test_criterion_3_antidominant_affine_row(WAFF):
    t0 = perf_counter()
    W = WAFF
    R = W.R
    w = W.from_word(WWORD)
    crystal = demazure_crystal(W, LAM, w)

    def P(word):
        return ls_path(LAM, (0,), (W.from_word(word),))

    q2 = ls_path(LAM, (0, Q(1, 2)), (W.from_word((1,)), W.from_word((0, 1))))
    p1 = ls_path(LAM, (0, Q(2, 3)), (W.from_word((2, 1)), W.from_word((0, 2, 1))))
    p2 = ls_path(LAM, (0, Q(1, 3)), (W.from_word((2, 1)), W.from_word((0, 2, 1))))
    assignment = {
        P(()): (2,),
        P((1,)): (1, 2),
        P((2, 1)): (1, 2, 1),
        P((0,)): (0, 2),
        q2: (1, 2),
        p1: (1, 2, 1),
        P((0, 1)): (0, 1, 2),
        p2: (1, 2, 1),
        P((0, 2, 1)): (0, 1, 2, 1),
    }
    assign_ok = assignment.keys() == crystal.keys() and all(
        down_path(W, w, p) == W.from_word(zw) for p, zw in assignment.items()
    )

    rows = chevalley_ls(W, LAM, w, -1)
    alpha0, alpha1 = R.alpha[0], R.alpha[1]
    expect_s1s2 = {
        wt_add(alpha1, wt_neg(LAM)): 1,
        wt_add(wt_add(alpha0, alpha1), wt_neg(LAM)): 1,
    }
    row_ok = rows[W.from_word((1, 2))] == expect_s1s2

    tree = enumerate_tree_antidominant(W, LAM, w)
    s02 = [(s, wt) for s, wt in tree if s.z == W.from_word((0, 2))]
    tree_ok = (
        len(tree) == 9
        and len(s02) == 1
        and wt_fold(W, LAM, s02[0][0]) == s02[0][1] == W.act(W.from_word((0,)), LAM)
    )

    alc = chevalley_alcove(W, LAM, w, -1)
    rec = chevalley_recurrence(W, w, wt_neg(LAM))
    triangle_ok = rows_equal(rows, alc) and rows_equal(rows, rec)

    dt = perf_counter() - t0
    ok = assign_ok and row_ok and tree_ok and triangle_ok and dt < 5
    report("criterion 3: affine antidominant row, three models", ok, dt, 5)
    assert assign_ok
    assert row_ok
    assert tree_ok
    assert triangle_ok
    assert dt < 5


def test_criterion_4_bijections(WA2, WB2, WAFF):
    t0 = perf_counter()
    checked = 0

    def check(W, lam, w):
        nonlocal checked
        for seq, wt in enumerate_tree_dominant(W, lam, w):
            p = seq_to_ls(W, lam, seq)
            assert ls_to_seq(W, p, seq.z, "inc") == seq
            assert ls_endpoint(W, p) == wt_fold(W, lam, seq) == wt
            checked += 1
        for seq, wt in enumerate_tree_antidominant(W, lam, w):
            p = seq_to_ls(W, lam, seq)
            assert ls_to_seq(W, p, w, "dec") == seq
            assert ls_endpoint(W, p) == wt_fold(W, lam, seq) == wt
            checked += 1

    check(WAFF, LAM, WAFF.from_word(WWORD))
    for W in (WA2, WB2):
        for lam in ((1, 1), (1, 0)):
            for w in bfs_ball(W, 10):
                check(W, lam, w)

    dt = perf_counter() - t0
    ok = checked > 200 and dt < 10
    report("criterion 4: sequence/path bijections round-trip", ok, dt, 10)
    assert checked > 200
    assert dt < 10


HYPERBOLIC = Realization(GCM.from_matrix([[2, -3], [-3, 2]]))


@pytest.mark.parametrize("R, lam, word, witnesses", [
    (realization_from_preset("A2~"), (1, 1, 0, 0), (0, 1, 2, 0, 1, 2), (144, 72)),
    (realization_from_preset("A2~"), (1, 0, 0, 0), (0, 1, 2, 0), (28, 9)),
    (realization_from_preset("G2"), (1, 1), (0, 1, 0, 1, 0), (36, 50)),
    (realization_from_preset("A1~"), (1, 1, 0), (0, 1, 0, 1, 0, 1), (1296, 486)),
    (HYPERBOLIC, (1, 1), (0, 1, 0, 1), (1006, 367)),
    (HYPERBOLIC, (1, 0), (0, 1, 0, 1), (30, 20)),
], ids=["A2~-L0+L1", "A2~-L0", "G2", "A1~", "hyperbolic-11", "hyperbolic-10"])
def test_term_level_triangle(R, lam, word, witnesses):
    """Every LS witness of a row term maps to its own adapted sequence of
    the same weight, and onto the alcove tree: for sign +1 the pairs (p, z)
    with iota(p) = wW_lam and up_path(z, p) = w, through ls_to_seq(p, z,
    "inc"); for sign -1 the paths of the Demazure crystal B_w(lam), through
    ls_to_seq(p, w, "dec")."""
    W = WeylGroup(R)
    w = W.from_word(word)
    crystal = demazure_crystal(W, lam, w)
    top = W.coset_min(w, lam)
    below = interval_below(W, w)
    plus = [(ls_to_seq(W, p, z, "inc"), mu) for p, mu in crystal.items() if iota(p) is top
            for z in below if up_path(W, z, p) is w]
    minus = [(ls_to_seq(W, p, w, "dec"), mu) for p, mu in crystal.items()]
    assert (len(plus), len(minus)) == witnesses
    for images, tree in ((plus, enumerate_tree_dominant), (minus, enumerate_tree_antidominant)):
        assert len({seq for seq, _ in images}) == len(images)
        assert set(images) == set(tree(W, lam, w))


def test_criterion_5_oracle_triangle(WA2, WB2, WG2):
    t0 = perf_counter()
    rng = random.Random(SEED)
    lams = [(1, 0), (0, 1), (1, 1), (2, 1)]

    jobs = [(WA2, w) for w in bfs_ball(WA2, 10)]
    for W in (WB2, WG2):
        group = sorted(bfs_ball(W, 20), key=lambda u: u.key)
        jobs += [(W, rng.choice(group)) for _ in range(20)]

    rows_checked = 0
    for W, w in jobs:
        for lam in lams:
            ls = chevalley_ls(W, lam, w, 1)
            assert rows_equal(ls, chevalley_alcove(W, lam, w, 1))
            assert rows_equal(ls, chevalley_recurrence(W, w, lam))
            als = chevalley_ls(W, lam, w, -1)
            assert rows_equal(als, chevalley_alcove(W, lam, w, -1))
            assert rows_equal(als, chevalley_recurrence(W, w, wt_neg(lam)))
            rows_checked += 2

    dt = perf_counter() - t0
    ok = rows_checked == (6 + 40) * 4 * 2 and dt < 60
    report("criterion 5: finite-type oracle triangle", ok, dt, 60)
    assert rows_checked == 368
    assert dt < 60


def test_criterion_6_lift_parity(WA2, WB2, WAFF):
    t0 = perf_counter()
    checked = 0

    def sweep(W, balls, Js):
        nonlocal checked
        elems = balls
        for lam in (lambda_J(W, J) for J in Js):
            reps = sorted({W.coset_min(u, lam) for u in elems}, key=lambda u: u.key)
            for v in elems:
                vmin = W.coset_min(v, lam)
                for tau in reps:
                    if W.bruhat_leq(vmin, tau):
                        bound = v.length + tau.length + 2
                        assert up(W, v, tau, lam) == up_oracle(W, v, tau, lam, bound)
                        checked += 1
            for w in elems:
                wmin = W.coset_min(w, lam)
                for tau in reps:
                    if W.bruhat_leq(tau, wmin):
                        assert down(W, w, tau, lam) == down_oracle(W, w, tau, lam)
                        checked += 1

    for W in (WA2, WB2):
        all_J = []
        n = W.n
        for bits in range(2**n):
            all_J.append(frozenset(i for i in range(n) if bits & (1 << i)))
        sweep(W, bfs_ball(W, 10), all_J)
    sweep(WAFF, bfs_ball(WAFF, 5), [frozenset({2})])

    dt = perf_counter() - t0
    ok = checked > 1000 and dt < 30
    report("criterion 6: lift parity vs search oracles", ok, dt, 30)
    assert checked > 1000
    assert dt < 30


def classify_everything(W, lam, pool, bases):
    """Classify every admissible (string, base, i) configuration; returns
    (labels used for up, labels used for down, number classified)."""
    up_labels, down_labels = set(), set()
    n = 0
    for i in range(W.n):
        for S in all_istrings(W, pool, i):
            for z in bases:
                if W.lmul(i, z).length > z.length and W.bruhat_leq(
                    W.coset_min(z, lam), phi(S.head)
                ):
                    up_labels.add(classify_string(W, S, z, i, "up"))
                    n += 1
            for w in bases:
                if W.lmul(i, w).length < w.length and W.bruhat_leq(
                    iota(S.tail), W.coset_min(w, lam)
                ):
                    down_labels.add(classify_string(W, S, w, i, "down"))
                    n += 1
    return up_labels, down_labels, n


def test_criterion_7_chart_conformance(WA2, WB2, WG2, WAFF):
    t0 = perf_counter()
    total = 0

    up_l, down_l, n = classify_everything(
        WAFF, LAM, demazure_crystal(WAFF, LAM, WAFF.from_word(WWORD)), bfs_ball(WAFF, 4)
    )
    total += n
    assert up_l and down_l

    regular_ab = {("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")}
    for W in (WA2, WB2, WG2):
        group = bfs_ball(W, 20)
        w0 = max(group, key=lambda u: u.length)
        for lam in ((1, 0), (0, 1), (1, 1), (2, 1)):
            pool = demazure_crystal(W, lam, w0)
            up_l, down_l, n = classify_everything(W, lam, pool, group)
            total += n
            if W.R.is_dominant(lam) and all(
                pairing(b, lam) > 0 for b in positive_coroots_up_to(W.R)
            ):
                got = {tuple(lbl.split(".")[1:]) for lbl in up_l | down_l}
                assert got <= regular_ab, (lam, sorted(up_l | down_l))

    # beyond affine type: the chart at length 4 on the hyperbolic matrix, with
    # a singular weight (514 configurations) and a regular one (792)
    W = WeylGroup(HYPERBOLIC)
    for lam, count in (((0, 1), 514), ((1, 1), 792)):
        up_l, down_l, n = classify_everything(W, lam, demazure_crystal(W, lam, W.from_word((0, 1, 0, 1))),
                                              bfs_ball(W, 4))
        total += n
        assert n == count and up_l and down_l
        if 0 not in lam:  # regular: no branch column
            assert {tuple(lbl.split(".")[1:]) for lbl in up_l | down_l} <= regular_ab

    dt = perf_counter() - t0
    ok = total > 1000
    report("criterion 7: every string/base case classified", ok, dt, 120)
    assert total > 1000


def random_poly(rng, N):
    f = {}
    for _ in range(4):
        mu = tuple(rng.randint(-2, 2) for _ in range(N))
        f[mu] = rng.choice([-3, -2, -1, 1, 2, 3])
    return {k: v for k, v in f.items() if v}


def test_criterion_8_structural_properties(WA2, WB2, WG2, WAFF):
    t0 = perf_counter()
    rng = random.Random(SEED)

    # nilHecke operator laws on random group-ring elements
    for W in (WA2, WB2, WG2, WAFF):
        R = W.R
        braid_words = []
        for i in range(R.n):
            for j in range(i + 1, R.n):
                prod = R.gcm.a[i][j] * R.gcm.a[j][i]
                m = {0: 2, 1: 3, 2: 4, 3: 6}.get(prod)
                if m is None:
                    continue
                w1 = tuple((i, j)[t % 2] for t in range(m))
                w2 = tuple((j, i)[t % 2] for t in range(m))
                braid_words.append((w1, w2))
        for _ in range(50):
            f = random_poly(rng, R.N)
            lam = tuple(rng.randint(-2, 2) for _ in range(R.N))
            for i in range(R.n):
                twice = apply_Ti(R, i, apply_Ti(R, i, f))
                minus = {mu: -c for mu, c in apply_Ti(R, i, f).items()}
                assert twice == minus
                lhs = apply_Ti(R, i, lp_mul_monomial(f, lam))
                rhs = lp_mul(apply_Ti(R, i, lp_monomial(lam)), f)
                lp_add_into(rhs, lp_mul_monomial(apply_Ti(R, i, f), R.simple_reflection(i, lam)))
                assert lhs == rhs
            for w1, w2 in braid_words:
                assert apply_word(R, w1, f) == apply_word(R, w2, f)

    # lex chain axioms, full in finite type
    for W in (WA2, WB2, WG2):
        for lam in ((1, 0), (0, 1), (1, 1), (2, 1)):
            ok, why = validate_lambda_chain_finite(W.R, lam, lex_chain(W.R, lam))
            assert ok, why

    # the counting identity, height-bounded, in the affine lex order
    R = WAFF.R
    pos = positive_coroots_up_to(R, 7)
    by_c = {b.c: b for b in pos}
    identity_checks = 0
    for lam in (LAM, (1, 1, 1, 0)):
        hyper = [
            LambdaHyperplane(b, k) for b in pos for k in range(max(0, pairing(b, lam)))
        ]
        for h in hyper:
            beta = h.alpha
            for alpha in pos:
                if alpha == beta:
                    continue
                for m in range(-4, 5):
                    if m == 0:
                        continue
                    gc = tuple(a + m * b for a, b in zip(alpha.c, beta.c))
                    gamma = by_c.get(gc)
                    if gamma is None:
                        continue
                    lhs = count_before(lam, gamma, h)
                    rhs = count_before(lam, alpha, h) + m * count_before(lam, beta, h)
                    assert lhs == rhs, (lam, h, alpha, m, beta)
                    identity_checks += 1
    assert identity_checks > 300

    # reflection-order convexity on sampled triples
    combos = []
    for W in (WA2, WB2, WG2):
        R = W.R
        for lam in ((1, 0), (0, 1), (1, 1), (2, 1)):
            posf = positive_coroots_up_to(R)
            for a in posf:
                for b in posf:
                    if a == b:
                        continue
                    det = a.c[0] * b.c[1] - a.c[1] * b.c[0]
                    if det == 0:
                        continue
                    for g in posf:
                        if g in (a, b):
                            continue
                        x = Q(g.c[0] * b.c[1] - g.c[1] * b.c[0], det)
                        y = Q(a.c[0] * g.c[1] - a.c[1] * g.c[0], det)
                        if x > 0 and y > 0:
                            combos.append((R, lam, a, g, b))
    assert len(combos) >= 60
    for _ in range(200):
        R, lam, a, g, b = rng.choice(combos)
        between = (refl_less(R, lam, a, g) and refl_less(R, lam, g, b)) or (
            refl_less(R, lam, b, g) and refl_less(R, lam, g, a)
        )
        assert between

    dt = perf_counter() - t0
    ok = identity_checks > 300 and dt < 120
    report("criterion 8: operator laws, chain axioms, order convexity", ok, dt, 120)
    assert dt < 120


def test_criterion_9_character_sanity(WA2):
    t0 = perf_counter()
    W = WA2
    lam = (2, 1)
    w0 = W.from_word((0, 1, 0))
    paths = demazure_crystal(W, lam, w0)
    mass = {}
    for mu in paths.values():
        lp_add_into(mass, lp_monomial(mu))
    total = sum(mass.values())
    invariant = all(lp_act(W, W.from_word((i,)), mass) == mass for i in range(W.n))
    dt = perf_counter() - t0
    ok = len(paths) == 15 and total == 15 and invariant and dt < 1
    report("criterion 9: full-crystal character sanity", ok, dt, 1)
    assert len(paths) == 15
    assert total == 15
    assert invariant
    assert dt < 1
