"""Metamorphic relations: the same rows under another name.

Relabelled nodes: for every permutation pi of the nodes, the rows of
(pi A, pi lambda, pi w) are the rows of (A, lambda, w) with pi applied to the
letters of every element and to the coordinates of every weight.  A bug in
node indexing that all three models share through the Weyl group code
passes their cross-check, but not this relation."""
import itertools

import pytest

from kmchev.cartan import GCM, PRESETS, Realization
from kmchev.cli import MODELS, _rows_for_model
from kmchev.weyl import WeylGroup

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
