"""The CLI's JSON writer and term renderer against the stdlib encoder."""
import io
import json
import math
import random
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kmchev.cartan import realization_from_preset
from kmchev import alcove, cli, cli_crystal, kring, lspath
from kmchev.cli import emit, json_pieces, parse_word, terms_text, weight_obj
from kmchev.weyl import WeylGroup
from reference import alcove_element, ls_element, ls_path_key, weight_dict


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


# Coordinates and multiplicities of one digit, of ten and past 64 bits, of both signs.
WIDE = (st.integers(-9, 9) | st.integers(-10**9, 10**9) | st.integers(2**64, 2**80)
        | st.integers(-(2**80), -(2**64)))


@st.composite
def long_rows(draw):
    """(R, poly, depth): a row of 0 or 1 terms, or of k * ITEMS_PER_PIECE + (-1,
    0 or 1) terms, at corank 0 (A2) or 1 (A2~).  Its entries are picked by a
    drawn seed from drawn pools of WIDE values; the first coordinate of the
    t-th pick gains t, so the picks make new weights until the row is full."""
    R = realization_from_preset(draw(st.sampled_from(["A2", "A2~"])))
    k = draw(st.integers(1, 3))
    size = draw(st.sampled_from([0, 1, k * cli.ITEMS_PER_PIECE - 1, k * cli.ITEMS_PER_PIECE,
                                 k * cli.ITEMS_PER_PIECE + 1]))
    coords = draw(st.lists(WIDE, min_size=1, max_size=12))
    mults = draw(st.lists(WIDE.filter(bool), min_size=1, max_size=12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    poly, t = {}, 0
    while len(poly) < size:
        mu = (rng.choice(coords) + t, *(rng.choice(coords) for _ in range(R.N - 1)))
        poly[mu] = rng.choice(mults)
        t += 1
    return R, poly, draw(st.sampled_from([0, 3]))


@given(long_rows())
def test_terms_text_of_rows_across_piece_boundaries(row):
    """A row of any number of pieces, the last full or one term short or
    over, is the stdlib text of its term list."""
    R, poly, depth = row
    want = at_depth(json.dumps(reference_terms(R, poly), indent=2), depth)
    assert "".join(terms_text(R, poly, "\n" + "  " * depth)) == want


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
    """A list given as an iterator (the rows are one, the report of two
    crystal realizations that disagree has two maps), at several counts and
    at two depths."""
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


# -- crystal elements: one template per piece, against the dicts they stand for --


def crystal_sets(preset: str, weight: str, w: str | None, opposite: tuple | None):
    """(R, lam, the LS paths {path: weight}, the alcove pairs, truncated) of
    a --w crystal, or of an --opposite one over (z, max_length)."""
    R = realization_from_preset(preset)
    W = WeylGroup(R)
    lam = R.parse_weight(weight)
    if opposite:
        z, bound = W.from_word(parse_word(R, opposite[0])), opposite[1]
        pairs, truncated = alcove.enumerate_z_adapted(W, lam, z, "inc", bound)
        return R, lam, lspath.opposite_demazure_ls(W, lam, z, bound), pairs, truncated
    w = W.from_word(parse_word(R, w))
    return R, lam, lspath.demazure_crystal(W, lam, w), alcove.enumerate_tree_antidominant(W, lam, w), False


def crystal_elements(R, lam, paths: dict, pairs: list, realization: str) -> list:
    """The elements of a crystal document as dicts, LS paths in the order of their Fraction sort key."""
    if realization == "ls":
        return [ls_element(R, p, paths[p]) for p in sorted(paths, key=ls_path_key)]
    return [alcove_element(R, lam, seq, wt) for seq, wt in pairs]


# (preset, weight, w, (z, max_length) for --opposite): --w and --opposite in
# corank 0 and 1, a crystal of one element, one of 128 (one full piece),
# and an opposite one with no element (its z is longer than the bound).
CRYSTALS = [
    ("A2", "2,1", "1 2 1", None),
    ("A2", "1,1", "e", None),
    ("A1~", "1,2", "1 0 1 0", None),
    ("G2", "1,1", None, ("1", 4)),
    ("A2~", "1,1,0", None, ("1", 3)),
    ("A2", "1,1", None, ("1 2", 1)),
]


@pytest.mark.parametrize("realization", ["ls", "alcove"])
@pytest.mark.parametrize("case", CRYSTALS, ids=lambda c: f"{c[0]}-{c[2] or 'opposite ' + c[3][0]}")
def test_a_crystal_document_is_the_stdlib_text_of_its_dicts(capsys, case, realization):
    """The CLI's crystal document is json.dumps of the document built as
    dicts, element by element, by the reference builders."""
    preset, weight, w, opposite = case
    R, lam, paths, pairs, truncated = crystal_sets(*case)
    elements = crystal_elements(R, lam, paths, pairs, realization)
    doc = {"cartan": R.gcm.to_json(), "lambda": weight_dict(R, lam), "realization": realization,
           "count": len(elements), "elements": elements, "truncated": truncated}
    argv = ["crystal", "--cartan", preset, "--weight", weight, "--realization", realization]
    argv += ["--w", w] if opposite is None else ["--opposite", "--z", opposite[0], "--max-length", str(opposite[1])]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("realization", ["ls", "alcove"])
@pytest.mark.parametrize("case", [("G2", "2,1", "1 2 1 2 1 2", None), ("A1~", "1,2", "1 0 1 0 1", None)],
                         ids=["corank 0", "corank 1"])
def test_crystal_elements_across_piece_boundaries(case, realization):
    """The first k elements of a crystal of 286 (G2) or 768 (A1~) elements
    written into a document, for k = 0, 1 and k around one and two pieces
    of ITEMS_PER_PIECE (128): the text of the document of their dicts."""
    R, lam, paths, pairs, _ = crystal_sets(*case)
    elements = crystal_elements(R, lam, paths, pairs, realization)
    if realization == "ls":
        made, write = sorted(paths, key=lspath.path_key), partial(cli_crystal._ls_text, R, paths)
    else:
        made, write = pairs, partial(cli_crystal._alcove_text, R, lam)
    n = cli.ITEMS_PER_PIECE
    for k in (0, 1, n - 1, n, n + 1, 2 * n + 1):
        doc = {"count": k, "elements": partial(write, made[:k]), "truncated": False}
        want = {"count": k, "elements": elements[:k], "truncated": False}
        assert json_text(doc) == json.dumps(want, indent=2), k
