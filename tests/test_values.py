"""Value semantics of the library's record types (and of the chart's IString).

Equal fields give equal objects with equal hashes, a change in any field
makes them unequal, no object equals the plain tuple of its fields, and the
repr strings are pinned.  Coroot equality reads the coordinates c only.
"""
import pytest
from chart import IString, istring
from reference import ls_path

from kmchev.alcove import AdaptedSequence, LambdaHyperplane
from kmchev.cartan import GCM, Coroot, realization_from_preset
from kmchev.lspath import LSPath, straight_path
from kmchev.weyl import WeylGroup

R = realization_from_preset("A2")
W = WeylGroup(R)
LAM = R.parse_weight("1,1")
A0, A1 = R.simple_coroots
A01 = R.reflect_coroot(1, A0)
E, S1, S2, S21 = (W.from_word(word) for word in [(), (0,), (1,), (1, 0)])
STR = straight_path(W, LAM)


# name -> (class, field values, field values with one field changed, pinned repr)
CASES = {
    "GCM": (GCM, (((2, -1), (-2, 2)), (2, 1)),
            [(((2, -1), (-1, 2)), (2, 1)), (((2, -1), (-2, 2)), (1, 1))],
            "GCM(a=((2, -1), (-2, 2)), d=(2, 1))"),
    "LSPath": (LSPath, (LAM, 2, ((1, S1), (1, S21))),
               [((2, 1), 2, ((1, S1), (1, S21))), (LAM, 3, ((1, S1), (2, S21))), (LAM, 2, ((1, S2), (1, S21)))],
               "(1/2 s2*s1·λ, 1/2 s1·λ)"),
    "IString": (IString, (0, (STR, ls_path(LAM, (0,), (S1,)))),
                [(1, (STR, ls_path(LAM, (0,), (S1,)))), (0, (STR,))],
                "IString(i=0, elements=((λ), (s1·λ)))"),
    "LambdaHyperplane": (LambdaHyperplane, (A01, 1, 2), [(A0, 1, 2), (A01, 0, 2), (A01, 1, 3)], "(1|1,1)/2"),
    "AdaptedSequence": (AdaptedSequence, (E, (LambdaHyperplane(A01, 1, 2),), S1, "inc"),
                        [(S2, (LambdaHyperplane(A01, 1, 2),), S1, "inc"),
                         (E, (LambdaHyperplane(A1, 0, 1),), S1, "inc"),
                         (E, (LambdaHyperplane(A01, 1, 2),), S2, "inc"),
                         (E, (LambdaHyperplane(A01, 1, 2),), S1, "dec")],
                        "AdaptedSequence(e; [(1|1,1)/2]; ->s1)"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_semantics(name):
    cls, fields, changed, text = CASES[name]
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for other in changed:
        assert a != cls(*other), other
    assert a != fields and fields != a
    assert repr(a) == text


def test_coroot_equality_reads_c_only():
    a, b = Coroot((1, 0), (2, -1)), Coroot((1, 0), (9, 9))
    assert a == b and hash(a) == hash(b)
    assert a != Coroot((0, 1), (2, -1))
    assert a != ((1, 0), (2, -1)) and a != (1, 0)
    assert repr(a) == "Coroot(1,0)" and repr(A01) == "Coroot(1,1)"


def test_library_objects_repr_as_before():
    assert repr(R.gcm) == "GCM(a=((2, -1), (-1, 2)), d=(1, 1))"
    assert repr(GCM.from_matrix([[2, -1], [-2, 2]])) == CASES["GCM"][3]
    assert repr(istring(W, STR, 0)) == CASES["IString"][3]
    assert istring(W, STR, 0) == IString(0, (STR, ls_path(LAM, (0,), (S1,))))
