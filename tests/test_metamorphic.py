"""Metamorphic relations: the same rows under another name, or rows that
undo each other.

Relabelled nodes: for every permutation pi of the nodes, the rows of
(pi A, pi lambda, pi w) are the rows of (A, lambda, w) with pi applied to the
letters of every element and to the coordinates of every weight.  A bug in
node indexing that all three models share through the Weyl group code
passes their cross-check, but not this relation.

The two signs invert each other: [L^{-lam}] [L^{lam}] = 1, and the
coefficients are R(T)-linear, so sum_z b^w_z(lam) b^z_y(-lam) = delta_{w,y}
(b^w_z(lam) is the row of w at z for the sign of lam).  Nothing else ties a
model's two signs together.

The delta-shift: in affine type delta pairs to 0 with every coroot, so
lam + k delta is dominant with lam and multiplies every row by e^{sign k delta}."""
import importlib
import itertools

import pytest

from kmchev.cartan import GCM, PRESETS, Realization, lp_add_into, realization_from_preset
from kmchev.cli import MODELS, _rows_for_model
from kmchev.weyl import WeylGroup
from reference import lp_mul

# {model: its row entry (W, lam, w, sign)}, the table the CLI runs
ENTRIES = {model: getattr(importlib.import_module(f"kmchev.{module}"), entry)
           for model, (module, entry) in MODELS.items()}

# (name, matrix, a dominant weight, two words): finite, and indefinite of
# ranks 2 and 3, all of corank 0, so a weight has no delta coordinate to place.
CASES = [
    ("G2", PRESETS["G2"], (1, 2), [(0, 1, 0), (1, 0, 1, 0)]),
    ("A3", PRESETS["A3"], (1, 0, 2), [(0, 1, 2), (1, 0, 2, 1)]),
    ("hyperbolic rank 2", [[2, -3], [-3, 2]], (1, 1), [(0, 1, 0), (1, 0, 1, 0)]),
    ("hyperbolic rank 3", [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]], (0, 1, 2), [(0, 1, 2), (2, 0, 1, 0)]),
]


def relabel(pi, seq) -> tuple:
    """seq with its entry i moved to place pi[i]: a weight's coordinates, or a matrix's rows."""
    out = [None] * len(seq)
    for i, x in enumerate(seq):
        out[pi[i]] = x
    return tuple(out)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_relabelled_nodes_give_the_relabelled_rows(case, model, sign):
    _, matrix, lam, words = case
    for word in words:
        rows = _rows_for_model(model, Realization(GCM.from_matrix(matrix)), lam, sign, word)
        for pi in itertools.permutations(range(len(matrix))):  # node i is called pi[i]
            R = Realization(GCM.from_matrix([relabel(pi, row) for row in relabel(pi, matrix)]))
            W = WeylGroup(R)
            want = {W.from_word(tuple(pi[i] for i in z.word)): {relabel(pi, mu): c for mu, c in poly.items()}
                    for z, poly in rows.items()}
            got = _rows_for_model(model, R, relabel(pi, lam), sign, tuple(pi[i] for i in word))
            # each model has a group of its own: its elements are matched by their canonical words
            assert {z.word: poly for z, poly in got.items()} == {z.word: poly for z, poly in want.items()}, (pi, word)


HYPERBOLIC = Realization(GCM.from_matrix([[2, -3], [-3, 2]]))
# (name, realization, a dominant weight with every coordinate, a word)
INVERSE_CASES = [
    ("A2", realization_from_preset("A2"), (1, 1), (0, 1, 0)),
    ("G2", realization_from_preset("G2"), (1, 1), (0, 1, 0, 1)),
    ("A2~", realization_from_preset("A2~"), (1, 1, 0, 0), (0, 1, 2, 1)),
    ("A1~", realization_from_preset("A1~"), (1, 1, 0), (0, 1, 0, 1)),
    ("hyperbolic (1,1)", HYPERBOLIC, (1, 1), (0, 1, 0, 1)),
    ("hyperbolic (2,1)", HYPERBOLIC, (2, 1), (1, 0, 1)),
]


def composed(entry, W, lam, w, first, then) -> dict:
    """{y: sum_z b^w_z(first lam) b^z_y(then lam)}, zero sums left out."""
    out: dict = {}
    for z, f in entry(W, lam, w, first).items():
        for y, g in entry(W, lam, z, then).items():
            lp_add_into(out.setdefault(y, {}), lp_mul(f, g))
    return {y: poly for y, poly in out.items() if poly}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("case", INVERSE_CASES, ids=[case[0] for case in INVERSE_CASES])
def test_the_two_signs_invert_each_other(case, model):
    """Each model's rows of sign and -sign compose to the identity, in either
    order, with its own rows in its own group; the same sign twice does not."""
    _, R, lam, word = case
    W = WeylGroup(R)
    w = W.from_word(word)
    one = {w: {(0,) * len(lam): 1}}
    for sign in (1, -1):
        assert composed(ENTRIES[model], W, lam, w, sign, -sign) == one, sign
        assert composed(ENTRIES[model], W, lam, w, sign, sign) != one, sign


@pytest.mark.parametrize("k", [1, -2])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("preset,lam,word", [("A2~", (1, 1, 0, 0), (0, 1, 2, 1)), ("A1~", (1, 1, 0), (0, 1, 0, 1))],
                         ids=["A2~", "A1~"])
def test_a_delta_shift_multiplies_every_row_by_e_to_the_shift(preset, lam, word, model, sign, k):
    """The rows of lam + k delta are those of lam with sign k added to the
    delta coordinate (the last) of every weight."""
    W = WeylGroup(realization_from_preset(preset))
    w = W.from_word(word)
    rows = ENTRIES[model](W, lam, w, sign)
    shifted = ENTRIES[model](W, (*lam[:-1], lam[-1] + k), w, sign)
    assert rows and shifted == {z: {(*mu[:-1], mu[-1] + sign * k): c for mu, c in poly.items()}
                                for z, poly in rows.items()}
