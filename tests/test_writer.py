"""The CLI's JSON writer and term renderer against the stdlib encoder."""
import json
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

from kmchev.cartan import GCM, Realization, realization_from_preset
from kmchev.cli import CLIError, json_text, terms_text, weight_obj

# Every code point, lone surrogates included, and the characters the encoder
# escapes by name.
TEXT = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\b\f\n\r\t", "é€😀", "\ud800", " "]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | TEXT
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


@given(DOCS)
def test_json_text_is_the_stdlib_text(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


def test_json_text_edge_cases():
    for doc in ([], {}, [[]], {"": {}}, [[], {}, [[[]]]], -0, 2**64 + 1, -(2**70), True, False, None,
                "\x00é\ud83d", {"a": [1, {"b": None}], "c": "x\"y\\z"}, (1, (2, 3))):
        assert json_text(doc) == json.dumps(doc, indent=2), doc


def test_json_text_puts_each_callable_text_in_its_place():
    """Callable texts go in at the NUL placeholders of the skeleton: NULs in
    keys and values are escaped, so they cannot be taken for one, and a NUL
    inside a callable's own text is left alone."""
    texts = ["[1]", '"a\0b"', "[\0]", "[" + ",".join(["7"] * 5000) + "]"]

    def doc(term):
        return {"k\0": ["\0", term(0)], "rows": [{"z": ["0", "\0\0"], "terms": term(k)} for k in range(4)]}

    want = json.dumps(doc(lambda k: f"@{k}"), indent=2)
    for k, text in [(0, texts[0]), *enumerate(texts)]:
        want = want.replace(f'"@{k}"', text, 1)
    assert json_text(doc(lambda k: lambda indent: texts[k])) == want


def test_json_text_rejects_other_types():
    for doc in (1.5, {1: 2}, [set()], b"x"):
        with pytest.raises(TypeError):
            json_text(doc)


def reference_terms(R, poly) -> list:
    """The term list as the CLI built it before it rendered terms to text."""
    return [{"weight": weight_obj(R, mu), "mult": poly[mu]} for mu in sorted(poly)]


def at_depth(text: str, depth: int) -> str:
    return text.replace("\n", "\n" + "  " * depth)


POLYS = {
    "A2": [{}, {(1, 0): 1}, {(1, 0): -1, (-2, 3): 12, (0, -1): -305, (4, 4): 7}],
    "A2~": [{}, {(1, 1, 0, 0): 1}, {(1, 1, 0, -1): -1, (-3, 3, 2, -3): 40, (0, 0, 0, 12): -2, (1, -1, 0, 0): 3}],
}


@pytest.mark.parametrize("preset", sorted(POLYS))
@pytest.mark.parametrize("depth", [0, 1, 4])
def test_terms_text_matches_the_dict_rendering(preset, depth):
    R = realization_from_preset(preset)
    for poly in POLYS[preset]:
        want = at_depth(json.dumps(reference_terms(R, poly), indent=2), depth)
        assert terms_text(R, poly, "\n" + "  " * depth) == want


@given(st.dictionaries(st.tuples(*[st.integers(-50, 50)] * 4), st.integers(-2000, 2000).filter(bool), max_size=8))
def test_terms_text_inside_a_document(poly):
    R = realization_from_preset("A2~")
    doc = {"rows": [{"z": ["0", "1"], "terms": partial(terms_text, R, poly)}], "truncated": False}
    ref = {"rows": [{"z": ["0", "1"], "terms": reference_terms(R, poly)}], "truncated": False}
    assert json_text(doc) == json.dumps(ref, indent=2)


def test_terms_text_keeps_the_weight_checks():
    R = realization_from_preset("A2")
    with pytest.raises(ValueError, match="not integral"):
        terms_text(R, {(1, 0): 1, (Fraction(1, 2), 0): 1}, "\n")
    corank2 = Realization(GCM.from_matrix([[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]))
    with pytest.raises(CLIError, match="corank"):
        terms_text(corank2, {(1, 1, 1, 1, 0, 0): 1}, "\n")
