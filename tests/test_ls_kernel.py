"""The int LS path kernel against the Fraction reference in tests/reference.py.

Every path of four Demazure crystals (affine, finite with slopes of 3,
hyperbolic) goes through f_i and e_i for every i, and both kernels must agree
on the results, the endpoints and the printed form.  The crystals are built
with the reference operators, so a faulty kernel cannot stall the build."""
import math
from fractions import Fraction as Q

import pytest
from reference import ls_e, ls_endpoint, ls_f, ls_format_path, ls_path_key, ls_steps

from kmchev.cartan import GCM, Realization, realization_from_preset, wt_add, wt_neg
from kmchev.cli import parse_word
from kmchev.lspath import LSPath, demazure_crystal, e, endpoint, f, format_path, path_key, straight_path
from kmchev.weyl import WeylGroup

CASES = {
    "A2~": ("A2~", "1,1,0", "0 1 2 0 1 2 0"),
    "G2": ("G2", "2,1", "1 2 1 2 1 2"),
    "hyp": ([[2, -3], [-3, 2]], "1,1", "1 0 1 0"),
    "A1~": ("A1~", "1,1", "1 0 1 0 1 0 1"),
}


def reference_crystal(W, lam, w):
    """demazure_crystal(W, lam, w) by full reference f_i-strings."""
    paths = {straight_path(W, lam)}
    for i in reversed(w.word):
        for p in list(paths):
            while (p := ls_f(W, p, i)) is not None:
                paths.add(p)
    return frozenset(paths)


@pytest.fixture(scope="module", params=sorted(CASES))
def crystal(request):
    cartan, lam_text, word = CASES[request.param]
    R = realization_from_preset(cartan) if isinstance(cartan, str) else Realization(GCM.from_matrix(cartan))
    W = WeylGroup(R)
    lam = R.parse_weight(lam_text)
    w = W.from_word(parse_word(R, word))
    return request.param, W, w, reference_crystal(W, lam, w)


def test_int_kernel_matches_the_fraction_reference(crystal):
    _, W, _, paths = crystal
    for p in paths:
        assert [(Q(a, p.D), d) for a, d in zip(p.a, p.dirs)][::-1] == ls_steps(p)
        assert LSPath(p.lam, p.D, zip(p.a, p.dirs)) == p
        assert endpoint(W, p) == ls_endpoint(W, p)
        assert format_path(p) == ls_format_path(p)
        for i in range(W.n):
            assert f(W, p, i) == ls_f(W, p, i)
            assert e(W, p, i) == ls_e(W, p, i)


def test_the_crystal_is_the_reference_crystal(crystal):
    _, W, w, paths = crystal
    assert demazure_crystal(W, next(iter(paths)).lam, w) == paths


def test_root_operators_move_the_endpoint_and_invert(crystal):
    _, W, _, paths = crystal
    for p in paths:
        for i in range(W.n):
            q = f(W, p, i)
            if q is not None:
                assert endpoint(W, q) == wt_add(endpoint(W, p), wt_neg(W.R.alpha[i]))
                assert e(W, q, i) == p
            r = e(W, p, i)
            if r is not None:
                assert f(W, r, i) == p


def test_some_cuts_rescale_the_denominator(crystal):
    """Each crystal has a cut that is not a multiple of 1/D, so the result's
    denominator does not divide D (G2 has slopes of 3); the first test
    checks those results against the reference."""
    _, W, _, paths = crystal
    assert any((q := f(W, p, i)) is not None and q.D % p.D for p in paths for i in range(W.n))


def test_the_stored_form_is_canonical_and_sorts_as_the_fractions(crystal):
    """Every path holds ints only, with positive lengths summing to a D
    coprime to them and no two neighbours of one direction; its b is the
    reference's cut points; path_key orders as the Fraction key did; and
    two spellings of one path build one path."""
    _, W, _, paths = crystal
    for p in paths:
        assert all(type(x) is int for x in (*p.lam, p.D, *p.a))
        assert all(x > 0 for x in p.a) and sum(p.a) == p.D and math.gcd(p.D, *p.a) == 1
        assert all(x != y for x, y in zip(p.dirs, p.dirs[1:]))
        lengths = [a for a, _ in reversed(ls_steps(p))]  # chain order
        assert list(p.b) == [sum(lengths[:j], Q(0)) for j in range(len(lengths))]
    assert sorted(paths, key=path_key) == sorted(paths, key=ls_path_key)
    lam, d = next(iter(paths)).lam, W.simple(0)
    one = LSPath(lam, 1, [(1, d)])
    for other in (LSPath(lam, 2, [(1, d), (1, d)]), LSPath(lam, 6, [(0, W.e), (4, d), (2, d)])):
        assert other == one and hash(other) == hash(one)
        assert (other.D, other.a, other.dirs) == (1, (1,), (d,))
