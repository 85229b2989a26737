import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from kmchev.cartan import wt_add, wt_neg
from kmchev import lspath
from kmchev.kring import apply_Ti, lp_add_into, lp_monomial
from kmchev.lspath import (
    LSPath,
    chevalley_ls,
    crystal_dot,
    crystal_up_to,
    demazure_crystal,
    down_path,
    e,
    f,
    format_path,
    iota,
    path_key,
    phi,
    stabilizer_nodes,
    up_path,
)
from chart import all_istrings, classify_string, istring, lift_subset
from reference import bfs_ball, lp_act, ls_endpoint, ls_path, validation_error

LAM = (1, 1, 0, 0)
WWORD = (0, 1, 2, 1)


@pytest.fixture(scope="module")
def aff(WAFF):
    """The running affine example: lam = Lambda_0 + Lambda_1, w of length 4."""
    W = WAFF
    w = W.from_word(WWORD)

    def P(word):
        return ls_path(LAM, (0,), (W.from_word(word),))

    named = {
        "str": P(()),
        "s0": P((0,)),
        "s1": P((1,)),
        "s01": P((0, 1)),
        "s21": P((2, 1)),
        "s021": P((0, 2, 1)),
        "q2": ls_path(LAM, (0, Q(1, 2)), (W.from_word((1,)), W.from_word((0, 1)))),
        "p1": ls_path(LAM, (0, Q(2, 3)), (W.from_word((2, 1)), W.from_word((0, 2, 1)))),
        "p2": ls_path(LAM, (0, Q(1, 3)), (W.from_word((2, 1)), W.from_word((0, 2, 1)))),
    }
    return W, w, named


def test_demazure_crystal_is_the_frozen_nine(aff):
    W, w, N = aff
    assert demazure_crystal(W, LAM, w).keys() == frozenset(N.values())


def test_all_frozen_paths_validate(aff):
    W, w, N = aff
    for p in N.values():
        assert validation_error(W, p) is None


def test_frozen_crystal_edges(aff):
    W, w, N = aff
    assert f(W, N["str"], 1) == N["s1"]
    assert f(W, N["s1"], 0) == N["q2"]
    assert f(W, N["q2"], 0) == N["s01"]
    assert f(W, N["s21"], 0) == N["p1"]
    assert f(W, N["p1"], 0) == N["p2"]
    assert f(W, N["p2"], 0) == N["s021"]
    assert f(W, N["s021"], 0) is None
    assert f(W, N["q2"], 1) is None and e(W, N["q2"], 1) is None
    assert e(W, N["s021"], 0) == N["p2"]
    assert e(W, N["p2"], 0) == N["p1"]
    assert e(W, N["p1"], 0) == N["s21"]
    assert e(W, N["s21"], 0) is None
    assert e(W, N["str"], 0) is None and e(W, N["str"], 1) is None


def test_operators_are_mutually_inverse(aff):
    W, w, N = aff
    for p in N.values():
        for i in range(W.n):
            q = f(W, p, i)
            if q is not None:
                assert e(W, q, i) == p
            r = e(W, p, i)
            if r is not None:
                assert f(W, r, i) == p


def test_f_drops_the_weight_by_a_simple_root(aff):
    W, w, N = aff
    R = W.R
    for p in N.values():
        for i in range(W.n):
            q = f(W, p, i)
            if q is not None:
                assert ls_endpoint(W, q) == wt_add(ls_endpoint(W, p), wt_neg(R.alpha[i]))


def test_steps_round_trip(aff):
    W, w, N = aff
    for p in N.values():
        assert LSPath(p.lam, p.D, zip(p.a, p.dirs)) == p
    # merging fuses an artificially split step, here over a doubled denominator
    p = N["p1"]
    (a1, a2), (d1, d2) = p.a, p.dirs
    assert (p.D, a1, a2) == (3, 2, 1)
    split = [(2 * a1, d1), (a2, d2), (a2, d2)]
    assert LSPath(p.lam, 2 * p.D, split) == p


@pytest.mark.parametrize("D, steps, message", [
    (2, [(3, "e"), (-1, "s0")], "negative step length -1/2"),
    (2, [(1, "e")], "sum to 1/2, not 1"),
    (1, [], "at least one direction"),
    (1, [(0, "e")], "at least one direction"),
    (0, [(0, "e")], "denominator 0 is not positive"),
    (-1, [(-1, "e")], "denominator -1 is not positive"),
])
def test_the_constructor_refuses_bad_steps(aff, D, steps, message):
    W, _, _ = aff
    elts = {"e": W.e, "s0": W.from_word((0,))}
    with pytest.raises(ValueError, match=message):
        LSPath(LAM, D, [(a, elts[d]) for a, d in steps])


def test_format_path(aff):
    W, w, N = aff
    assert format_path(N["str"]) == "(λ)"
    assert format_path(N["p1"]) == "(1/3 s0*s2*s1·λ, 2/3 s2*s1·λ)"


def test_validation_diagnoses(aff):
    W, w, N = aff
    s1, s01 = W.from_word((1,)), W.from_word((0, 1))
    bad_shape = ls_path((1, -1, 0, 0), (0,), (W.from_word(()),))
    assert "dominant" in validation_error(W, bad_shape)
    not_minimal = ls_path(LAM, (0,), (W.from_word((2,)),))
    assert "minimal" in validation_error(W, not_minimal)
    not_increasing = ls_path(LAM, (0, Q(1, 2)), (s01, s1))
    assert "increasing" in validation_error(W, not_increasing)
    # the q2 shape with an inadmissible cut point: the cover coroot pairs to 2,
    # and 2/3 is not an integer
    bad_cut = ls_path(LAM, (0, Q(1, 3)), (s1, s01))
    assert "chain" in validation_error(W, bad_cut)
    assert validation_error(W, ls_path(LAM, (0, Q(1, 2)), (s1, s01))) is None


NON_LS = """
from kmchev.cartan import realization_from_preset
from kmchev.lspath import LSPath, e, f
from kmchev.weyl import WeylGroup
W = WeylGroup(realization_from_preset("A2~"))
p = LSPath((1, 1, 0, 0), 3, [(1, W.from_word((1,))), (2, W.from_word((0, 1)))])  # b = (0, 1/3)
for op in (f, e):
    try:
        op(W, p, 0)
    except ValueError as exc:
        assert "not an LS path" in str(exc)
    else:
        raise SystemExit(f"{op.__name__} accepted a path that is not LS")
# A2, lam = 2 Lambda_1: the 0-height climbs to 1/2, stays flat along s2*s1
# (slope 0) inside the reflected window, then climbs to 1
W = WeylGroup(realization_from_preset("A2"))
flat = LSPath((2, 0), 4, [(1, W.e), (2, W.from_word((1, 0))), (1, W.e)])
try:
    f(W, flat, 0)
except ValueError as exc:
    assert "not an LS path" in str(exc)
else:
    raise SystemExit("f accepted a flat step at a non-integral height")
"""


def test_operators_reject_a_non_ls_path(aff):
    """b = (0, 1/3) on these directions gives the 0-height profile a
    non-integral minimum, which only a non-LS path can have."""
    W, _, _ = aff
    p = ls_path(LAM, (0, Q(1, 3)), (W.from_word((1,)), W.from_word((0, 1))))
    assert validation_error(W, p) is not None
    for op, heights in ((f, "-4/3 or -2/3"), (e, "-2/3 or 2/3")):
        with pytest.raises(ValueError) as info:
            op(W, p, 0)
        assert str(info.value) == f"non-integral height {heights}: not an LS path"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_operators_reject_a_non_ls_path_in_a_subprocess(flags):
    """The checks, of a non-integral minimum and of a flat step inside the
    reflected window, must not rest on an assert that python -O strips."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, *flags, "-c", NON_LS], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


BAD_ARGUMENTS = """
from chart import classify_string, istring, lift_subset
from kmchev.cartan import realization_from_preset
from kmchev.lspath import LSPath, straight_path
from kmchev.weyl import WeylGroup
W = WeylGroup(realization_from_preset("A2"))
lam = (1, 1)
S = istring(W, straight_path(W, lam), 0)
calls = [
    lambda: LSPath(lam, 2, [(3, W.e), (-1, W.from_word((0,)))]),  # a negative step
    lambda: LSPath(lam, 2, [(1, W.e)]),  # the steps sum to 1/2
    lambda: LSPath(lam, 1, []),  # an empty path
    lambda: LSPath(lam, 0, [(0, W.e)]),  # D <= 0
    lambda: classify_string(W, S, W.e, 1, "up"),  # a 0-string classified as a 1-string
    lambda: lift_subset(W, [S.head], W.e, W.e, "sideways"),
    lambda: classify_string(W, S, W.e, 0, "sideways"),
]
raised = 0
for call in calls:
    try:
        call()
    except ValueError:
        raised += 1
print(raised)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_bad_arguments_raise_in_a_subprocess(flags):
    """LSPath, classify_string (of scripts/chart.py) and lift_subset refuse
    bad input with a ValueError that python -O does not strip."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "scripts"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, *flags, "-c", BAD_ARGUMENTS], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "7"


def test_membership_is_initial_direction_below_w(aff):
    W, w, N = aff
    J = stabilizer_nodes(W.R, LAM)
    pool = crystal_up_to(W, LAM, 4)
    wmin = W.coset_decompose(w, J)[0]
    expected = {p for p in pool if W.bruhat_leq(W.coset_decompose(iota(p), J)[0], wmin)}
    assert demazure_crystal(W, LAM, w).keys() == expected


def test_demazure_sets_nest_and_close_under_e(aff):
    W, w, N = aff
    D_w = demazure_crystal(W, LAM, w)
    for vword in [(), (1,), (1, 2), (0, 1, 2)]:
        v = W.from_word(vword)
        D_v = demazure_crystal(W, LAM, v)
        assert D_v.keys() <= D_w.keys()
    for p in D_w:
        for i in range(W.n):
            q = e(W, p, i)
            if q is not None:
                assert q in D_w


def test_frozen_lifts(aff):
    W, w, N = aff
    assert up_path(W, W.from_word((1,)), N["p1"]) == W.from_word((0, 2, 1))
    assert up_path(W, W.from_word((1, 2)), N["p1"]) == w
    down_expect = {
        "str": (2,), "s1": (1, 2), "s21": (1, 2, 1), "s0": (0, 2), "q2": (1, 2),
        "p1": (1, 2, 1), "s01": (0, 1, 2), "p2": (1, 2, 1), "s021": (0, 1, 2, 1),
    }
    for name, zword in down_expect.items():
        assert down_path(W, w, N[name]) == W.from_word(zword), name
    # a start off the admitted cosets: z W_lam <= phi(p), iota(p) <= w W_lam fail
    assert up_path(W, W.from_word((1,)), N["str"]) is None
    assert up_path(W, W.from_word((0,)), N["s1"]) is None
    assert down_path(W, W.from_word((1, 2)), N["p1"]) is None
    assert down_path(W, W.e, N["s0"]) is None
    assert lift_subset(W, [N["s1"]], W.from_word((0,)), w, "up") == frozenset()


def test_frozen_fibers(aff):
    W, w, N = aff
    C = frozenset(N.values())
    three = frozenset({N["p1"], N["p2"], N["s021"]})
    assert lift_subset(W, C, W.from_word((1, 2)), w, "up") == three
    assert lift_subset(W, C, W.from_word((1, 2, 1)), w, "up") == three
    assert lift_subset(W, C, W.from_word((0, 1, 2)), w, "up") == frozenset({N["s021"]})
    assert lift_subset(W, C, w, W.from_word((1, 2)), "down") == frozenset({N["s1"], N["q2"]})
    # down-fibers partition the crystal
    fibers = {}
    for p in C:
        fibers.setdefault(down_path(W, w, p), set()).add(p)
    assert sum(len(v) for v in fibers.values()) == len(C)


def test_frozen_rows(aff, monkeypatch):
    W, w, N = aff
    rows = chevalley_ls(W, LAM, w, 1)
    three = {}
    for name in ("p1", "p2", "s021"):
        lp_add_into(three, lp_monomial(ls_endpoint(W, N[name])))
    assert rows[W.from_word((1, 2))] == three
    assert rows[W.from_word((1, 2, 1))] == three
    assert rows[W.from_word((0, 1, 2))] == {ls_endpoint(W, N["s021"]): 1}
    assert rows[W.from_word((0, 1, 2, 1))] == {ls_endpoint(W, N["s021"]): 1}
    assert len(rows) == 4

    arows = chevalley_ls(W, LAM, w, -1)
    assert arows[W.from_word((1, 2))] == {
        wt_neg(ls_endpoint(W, N["s1"])): 1,
        wt_neg(ls_endpoint(W, N["q2"])): 1,
    }
    assert arows[W.from_word((2,))] == {wt_neg(LAM): -1}
    assert arows[W.from_word((0, 1, 2, 1))] == {wt_neg(ls_endpoint(W, N["s021"])): 1}
    # a crystal holding a path outside B_{s1 s2}(lam), which does not drop from s1 s2
    original = lspath.demazure_crystal
    monkeypatch.setattr(lspath, "demazure_crystal",
                        lambda W, lam, v: {**original(W, lam, v), N["s021"]: ls_endpoint(W, N["s021"])})
    with pytest.raises(ValueError, match="outside the Demazure crystal"):
        chevalley_ls(W, LAM, W.from_word((1, 2)), -1)


def test_crystal_growth_bound(aff):
    W, w, N = aff
    pool = crystal_up_to(W, LAM, 3)
    assert len(pool) == 26
    assert all(iota(p).length <= 3 for p in pool)
    assert all(validation_error(W, p) is None for p in pool)
    # f never shortens the initial direction
    for p in pool:
        for i in range(W.n):
            q = f(W, p, i)
            if q is not None:
                assert iota(q).length >= iota(p).length


def test_string_shape(aff):
    W, w, N = aff
    S = istring(W, N["p2"], 0)
    assert S.elements == (N["s21"], N["p1"], N["p2"], N["s021"])
    assert S.head == N["s21"] and S.tail == N["s021"]
    assert S.middle == (N["p1"], N["p2"])
    assert istring(W, N["q2"], 1).elements == (N["q2"],)
    strings = all_istrings(W, demazure_crystal(W, LAM, w), 0)
    assert sorted(len(s.elements) for s in strings) == [2, 3, 4]
    assert sum(len(s.elements) for s in strings) == 9


def test_string_ends_are_extremal(aff):
    """iota is maximal at the tail, phi minimal at the head, along a string."""
    W, w, N = aff
    J = stabilizer_nodes(W.R, LAM)
    for i in range(W.n):
        for S in all_istrings(W, crystal_up_to(W, LAM, 3), i):
            iotas = [W.coset_decompose(iota(p), J)[0] for p in S.elements]
            phis = [W.coset_decompose(phi(p), J)[0] for p in S.elements]
            assert all(W.bruhat_leq(c, iotas[-1]) for c in iotas)
            assert all(W.bruhat_leq(phis[0], c) for c in phis)


def test_string_direction_jumps_once(aff):
    """iota along a string is constant then jumps to its s_i-raise (or is
    constant throughout); mirrored for phi."""
    W, w, N = aff
    J = stabilizer_nodes(W.R, LAM)
    for i in range(W.n):
        for S in all_istrings(W, crystal_up_to(W, LAM, 3), i):
            if len(S.elements) < 2:
                continue
            iotas = [W.coset_decompose(iota(p), J)[0] for p in S.elements]
            raised = W.coset_decompose(W.lmul(i, iotas[0]), J)[0]
            assert all(c in (iotas[0], raised) for c in iotas)
            jumps = sum(1 for a, b in zip(iotas, iotas[1:]) if a != b)
            assert jumps <= 1
            phis = [W.coset_decompose(phi(p), J)[0] for p in S.elements]
            lowered = W.coset_decompose(W.lmul(i, phis[-1]), J)[0]
            assert all(c in (phis[-1], lowered) for c in phis)
            assert sum(1 for a, b in zip(phis, phis[1:]) if a != b) <= 1


def classification_sweep(W, lam, pool, ball):
    from collections import Counter
    J = stabilizer_nodes(W.R, lam)
    tally = Counter()
    for i in range(W.n):
        for S in all_istrings(W, pool, i):
            for z in ball:
                if W.lmul(i, z).length > z.length and W.bruhat_leq(
                    W.coset_decompose(z, J)[0], phi(S.head)
                ):
                    tally["up:" + classify_string(W, S, z, i, "up")] += 1
            for w in ball:
                if W.lmul(i, w).length < w.length and W.bruhat_leq(
                    iota(S.tail), W.coset_decompose(w, J)[0]
                ):
                    tally["down:" + classify_string(W, S, w, i, "down")] += 1
    return tally


def test_classification_covers_the_affine_example(aff):
    W, w, N = aff
    tally = classification_sweep(W, LAM, demazure_crystal(W, LAM, w), bfs_ball(W, 4))
    assert sum(tally.values()) > 150
    # the singular stabilizer makes branch columns appear
    assert any(k.endswith("U.3.1") or k.endswith("U.3.2") for k in tally)
    assert any(k.endswith("D.3.1") for k in tally)


def test_regular_weight_excludes_branch_columns(WA2):
    W = WA2
    lam = (1, 1)
    pool = demazure_crystal(W, lam, W.from_word((0, 1, 0)))
    tally = classification_sweep(W, lam, pool, bfs_ball(W, 3))
    assert sum(tally.values()) > 0
    allowed = {f"up:U.{a}.{b}" for a in "12" for b in "123"}
    allowed |= {f"down:D.{a}.{b}" for a in "12" for b in "123"}
    assert set(tally) <= allowed


def test_singleton_string_is_column_one_one(aff):
    W, w, N = aff
    S = istring(W, N["q2"], 1)
    assert classify_string(W, S, W.from_word(()), 1, "up") == "U.1.1"


def test_classification_rejects_bad_bases(aff):
    W, w, N = aff
    S = istring(W, N["p1"], 0)
    with pytest.raises(ValueError):
        classify_string(W, S, W.from_word((0,)), 0, "up")  # s_0 z < z
    with pytest.raises(ValueError):
        classify_string(W, S, W.from_word((1,)), 0, "down")  # s_0 w > w


def string_mass(W, paths):
    out = {}
    for p in paths:
        lp_add_into(out, lp_monomial(ls_endpoint(W, p)))
    return out


def test_string_recurrence_consistency(aff):
    """Per i-string, the lift fibers obey the two-level T_i recursion:
    sum over Pu_{s_i x, z} = T_i sum over Pu_{x, z}, and over the raised base
    sum over Pu_{s_i x, s_i z} = T_i sum(Pu_{x, s_i z}) + s_i(sum(Pu_{x,z}) - sum(Pu_{x,s_i z}))."""
    W, w, N = aff
    R = W.R
    J = stabilizer_nodes(R, LAM)
    pool = demazure_crystal(W, LAM, w)
    for i in range(W.n):
        si = W.from_word((i,))
        for S in all_istrings(W, pool, i):
            members = frozenset(S.elements)
            for z in bfs_ball(W, 4):
                sz = W.lmul(i, z)
                zmin = W.coset_decompose(z, J)[0]
                if not (sz.length > z.length and W.bruhat_leq(zmin, phi(S.head))):
                    continue
                for x in {up_path(W, z, p) for p in members if W.bruhat_leq(zmin, phi(p))}:
                    if W.lmul(i, x).length < x.length:
                        continue
                    sx = W.lmul(i, x)
                    A = string_mass(W, lift_subset(W, members, z, x, "up"))
                    B = string_mass(W, lift_subset(W, members, z, sx, "up"))
                    assert B == apply_Ti(R, i, A)
                    Az = string_mass(W, lift_subset(W, members, sz, x, "up"))
                    Bz = string_mass(W, lift_subset(W, members, sz, sx, "up"))
                    expect = apply_Ti(R, i, Az)
                    lp_add_into(expect, lp_act(W, si, A))
                    lp_add_into(expect, lp_act(W, si, Az), -1)
                    assert Bz == expect


def test_full_crystal_mass_and_invariance(WA2):
    W = WA2
    lam = (2, 1)
    w0 = W.from_word((0, 1, 0))
    paths = demazure_crystal(W, lam, w0)
    assert len(paths) == 15  # (a+1)(b+1)(a+b+2)/2 at a=2, b=1
    mass = string_mass(W, paths)
    assert sum(mass.values()) == 15
    for i in range(W.n):
        assert lp_act(W, W.from_word((i,)), mass) == mass
    # highest and lowest weights appear once each
    assert mass[lam] == 1
    assert mass[W.act(w0, lam)] == 1


def test_crystal_dot_lists_all_edges(aff):
    W, w, N = aff
    dot = crystal_dot(W, sorted(demazure_crystal(W, LAM, w), key=path_key))
    assert dot.count("->") == 8
    assert 'label="0"' in dot and 'label="1"' in dot and 'label="2"' in dot
