"""The CLI's JSON writer and term renderer against the stdlib encoder."""
import io
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kmchev.cartan import GCM, Realization, realization_from_preset
from kmchev import cli, kring
from kmchev.cli import CLIError, check_rows, emit, json_pieces, terms_text, weight_obj


def json_text(obj, indent: str = "\n") -> str:
    """The pieces of json_pieces(obj, indent) joined: exactly the text that
    ``json.dumps`` gives with ``indent=2``, for dicts with str keys, lists,
    str, int, bool and None, for iterators of such values, and for callables
    that give the pieces of such a text."""
    return "".join(json_pieces(obj, indent))


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
    """The pieces a callable yields go in at its NUL placeholder in the
    skeleton: NULs in keys and values are escaped, so they cannot be taken
    for one, and a NUL inside a callable's own text is left alone."""
    texts = ["[1]", '"a\0b"', "[\0]", "[" + ",".join(["7"] * 5000) + "]"]

    def doc(term):
        return {"k\0": ["\0", term(0)], "rows": [{"z": ["0", "\0\0"], "terms": term(k)} for k in range(4)]}

    want = json.dumps(doc(lambda k: f"@{k}"), indent=2)
    for k, text in [(0, texts[0]), *enumerate(texts)]:
        want = want.replace(f'"@{k}"', text, 1)
    assert json_text(doc(lambda k: lambda indent: [texts[k]])) == want


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
        assert "".join(terms_text(R, poly, "\n" + "  " * depth)) == want


@given(st.dictionaries(st.tuples(*[st.integers(-50, 50)] * 4), st.integers(-2000, 2000).filter(bool), max_size=8))
def test_terms_text_inside_a_document(poly):
    R = realization_from_preset("A2~")
    doc = {"rows": [{"z": ["0", "1"], "terms": partial(terms_text, R, poly)}], "truncated": False}
    ref = {"rows": [{"z": ["0", "1"], "terms": reference_terms(R, poly)}], "truncated": False}
    assert json_text(doc) == json.dumps(ref, indent=2)


def test_check_rows_refuses_what_terms_text_cannot_write():
    """terms_text writes what it is given; check_rows refuses, before any
    piece is written, a weight that is not integral and a corank above 1."""
    R = realization_from_preset("A2")
    check_rows(R, [{(1, 0): 1}, {}, {(0, -3): 2}])
    with pytest.raises(CLIError, match=r"weight 1/2,0 is not integral"):
        check_rows(R, [{(1, 0): 1}, {(1, 0): 1, (Fraction(1, 2), 0): 1}])
    corank2 = Realization(GCM.from_matrix([[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]))
    with pytest.raises(CLIError, match="corank"):
        check_rows(corank2, [{(1, 1, 1, 1, 0, 0): 1}])


# -- streaming: bounded pieces, the same bytes ---------------------------------

BIG = 10_000


def big_document():
    """A document with one row of BIG terms, whose texts all have the same length."""
    R = realization_from_preset("A2~")
    poly = {(10_000 + k, 20_000 + k, 30_000 + k, 40_000 + k): 1 + k % 7 for k in range(BIG)}
    return {"rows": [{"z": ["0", "1"], "terms": partial(terms_text, R, poly)}], "truncated": False}


def test_a_long_row_is_written_in_bounded_pieces():
    pieces = list(json_pieces(big_document()))
    # the row's pieces, more than one, and the document's text before and after it
    assert len(pieces) == math.ceil(BIG / cli.ITEMS_PER_PIECE) + 2 > 3
    term_len = len("".join(pieces)) // BIG  # a term's text, with its "," and line breaks
    assert max(map(len, pieces)) <= cli.ITEMS_PER_PIECE * (term_len + 1)


class Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def test_writing_a_long_row_holds_a_small_part_of_its_text(monkeypatch):
    """emit's peak of traced memory while it writes the document to a sink
    that keeps nothing: a third of the text's length at most, where building
    the text whole would take the text's length at least."""
    doc = big_document()
    text = json_text(doc)
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        emit(None, json_pieces(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 3, (peak, len(text))


def test_streamed_nilhecke_rows_hold_less_than_held_ones(monkeypatch):
    """The hyperbolic l=6 nilHecke rows for sign +1, 68,340 terms, written
    by the CLI to a sink that keeps nothing: the peak of traced memory is
    well under that of the same run with every row of the outermost letter
    made before the first is written (2.5 MB against 4.0 MB)."""
    gcm = str(Path(__file__).resolve().parents[1] / "bench" / "hyperbolic.json")
    argv = ["chevalley", "--gcm-file", gcm, "--weight", "1,1", "--w", "1 0 1 0 1 0", "--model", "nilhecke"]
    monkeypatch.setattr(sys, "stdout", Discard())

    def peak() -> int:
        tracemalloc.start()
        try:
            code = cli.main(argv)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return traced

    streamed = peak()
    original = kring.hecke_compose
    monkeypatch.setattr(kring, "hecke_compose", lambda *args: iter(list(original(*args))))
    held = peak()
    assert streamed < 0.75 * held, (streamed, held)


class Record(io.TextIOBase):
    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)


def test_emit_writes_short_pieces_together(monkeypatch):
    """Between long rows, a row document has two short pieces per row: they
    go out together, so every write but the last is WRITE_SIZE long at
    least, as from a buffered stdout, also when stdout is unbuffered."""
    R = realization_from_preset("A2~")
    doc = big_document()
    short = [{"z": [str(k)], "terms": partial(terms_text, R, {(k, 0, 0, 0): k})} for k in range(1, 200)]
    doc["rows"] = short + doc["rows"] + short + doc["rows"] + short
    sink = Record()
    monkeypatch.setattr(sys, "stdout", sink)
    emit(None, json_pieces(doc))
    assert "".join(sink.writes) == json_text(doc) + "\n"
    assert len(sink.writes) > 2
    assert min(map(len, sink.writes[:-1])) >= cli.WRITE_SIZE


@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1500])
def test_a_map_in_a_document_is_the_stdlib_list(count):
    """The crystal's element list, a map in the document, at counts around
    ITEMS_PER_PIECE and at two depths."""
    def obj(x):
        return {"b": [str(x), f"{x}/3"], "dirs": [["0", "1"][: x % 3]], "weight": {"fund": [x, -x]}}

    xs = list(range(count))
    for depth in (0, 1):
        doc = {"count": count, "elements": map(obj, xs), "truncated": False}
        want = {"count": count, "elements": [obj(x) for x in xs], "truncated": False}
        assert json_text(doc, "\n" + "  " * depth) == at_depth(json.dumps(want, indent=2), depth)


def test_an_iterators_entries_are_made_as_the_writer_reaches_them():
    """Each entry of an iterator is made when the pieces before it are
    written, not when the document is built or its writer started."""
    written = []
    made_after = []

    def entries():
        for k in range(5):
            made_after.append(len(written))
            yield {"k": k}

    doc = {"head": "x", "rows": entries(), "tail": [1]}
    for piece in json_pieces(doc):
        written.append(piece)
    assert "".join(written) == json.dumps({"head": "x", "rows": [{"k": k} for k in range(5)], "tail": [1]}, indent=2)
    # the document's text before the list, then two pieces per entry: its start and its text
    assert made_after == [1, 3, 5, 7, 9]
