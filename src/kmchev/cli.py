"""Command line front end.

Three subcommands:

* ``chevalley`` -- fixed-w Chevalley rows (all three models, cross-checked
  when ``--model all``), or the fixed-z expansion in the alcove model when
  ``--z``/``--max-length`` are given;
* ``crystal`` -- a Demazure (or opposite Demazure) set in both of its
  realizations, cross-checked, emitting the one picked by ``--realization``;
* ``selftest`` -- a scenario matrix of internal cross-checks, including a
  negative control: the lex-decreasing tree folded like the dominant row
  (what that row becomes with the lex comparator inverted) must disagree.

Output formats: ``json`` (stable schema, deterministic ordering), ``table``
(human-readable), ``dot`` (trees / crystal graphs).  JSON output is the exact
text of ``json.dumps`` with ``indent=2``, for corank <= 1 only (larger corank
is refused before any model runs), written in pieces of bounded size
(``json_pieces``): a row's terms and a crystal's elements go out
ITEMS_PER_PIECE at a time, so a multi-MB document is never held as one
string.  Every check of the input and of the rows comes before the first
byte, so a refused run leaves stdout empty and creates no ``--out`` file.
Table output prints every extra coordinate of a weight in corank >= 2.  A
failed cross-check exits 1 with a report: table lines under ``--format
table`` (any corank), JSON otherwise.  Bad input (a missing ``--weight``, an
unknown option or an option value the option table refuses), an exceeded
layer cap and a closed stdout (seen at a write, also mid-document, or at
``main``'s flush, also after ``--help``) exit 2 with one ``error:`` line.

The options are one table, ``OPTIONS``, read by ``parse_args``; neither it
nor the JSON writer imports ``argparse``, ``json`` or ``re``, which would
cost a short run more start-up time than its combinatorics.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii  # the C escaper json.encoder binds, without json or re
from collections import Counter
from functools import partial
from itertools import chain
from types import SimpleNamespace

from .cartan import Realization, Weight, is_lattice, realization_from_json_file, realization_from_preset, wt_neg
from .weyl import LayerCapError, WeylElt, WeylGroup, env_layer_cap


class CLIError(Exception):
    pass


def json_corank(R: Realization) -> int:
    """The corank of R; JSON output supports corank <= 1 only."""
    if R.N - R.n > 1:
        raise CLIError("JSON output supports corank <= 1 realizations only")
    return R.N - R.n


def build_realization(args: SimpleNamespace) -> Realization:
    """The realization; for JSON output its corank is checked here, before
    any model runs."""
    if args.gcm_file and args.cartan:
        raise CLIError("give either --cartan or --gcm-file, not both")
    if args.gcm_file:
        try:
            R = realization_from_json_file(args.gcm_file)
        except OSError as exc:
            raise CLIError(f"cannot read --gcm-file: {exc}") from None
        except KeyError as exc:
            raise CLIError(f"--gcm-file {args.gcm_file}: missing key {exc}") from None
        except (ValueError, TypeError) as exc:  # ValueError covers json.JSONDecodeError
            raise CLIError(f"--gcm-file {args.gcm_file}: {exc}") from None
    elif args.cartan:
        try:
            R = realization_from_preset(args.cartan)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
    else:
        raise CLIError("a Cartan matrix is required (--cartan or --gcm-file)")
    if args.format == "json":
        json_corank(R)
    return R


def parse_word(R: Realization, text: str) -> tuple:
    toks = text.split()
    if toks == ["e"] or not toks:
        return ()
    index = {name: i for i, name in enumerate(R.node_names)}
    try:
        return tuple(index[t] for t in toks)
    except KeyError as exc:
        raise CLIError(f"unknown node name {exc.args[0]!r}; nodes are {R.node_names}") from None


def parse_lam(R: Realization, text: str | None) -> Weight:
    if text is None:
        raise CLIError("a --weight is required")
    try:
        lam = R.parse_weight(text)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    if not is_lattice(lam):
        raise CLIError(f"weight {text!r} is not integral: every coordinate must be an integer")
    return lam


def _setup(args: SimpleNamespace) -> tuple[Realization, WeylGroup, Weight]:
    """The realization, its Weyl group and the dominant weight --weight."""
    R = build_realization(args)
    lam = parse_lam(R, args.weight)
    if not R.is_dominant(lam):
        raise CLIError(f"weight {args.weight!r} is not dominant")
    return R, WeylGroup(R), lam


def _over_z(args: SimpleNamespace, R: Realization, W: WeylGroup, mode: str) -> WeylElt:
    """The element --z of a mode that ranges up to --max-length, its options checked."""
    if args.z is None or args.max_length is None:
        raise CLIError(f"{mode} needs both --z and --max-length")
    if args.w is not None:
        raise CLIError(f"{mode} ranges over --z up to --max-length: drop --w")
    if args.max_length < 0:
        raise CLIError(f"--max-length must be >= 0, not {args.max_length}")
    return W.from_word(parse_word(R, args.z))


def weight_obj(R: Realization, mu: Weight) -> dict:
    if not is_lattice(mu):
        raise ValueError(f"weight {R.format_weight(mu)} is not integral")
    if json_corank(R) == 0:
        return {"fund": [int(x) for x in mu]}
    return {"fund": [int(x) for x in mu[: R.n]], "delta": int(mu[R.n])}


def word_obj(R: Realization, w: WeylElt) -> list:
    return [R.node_names[i] for i in w.word]


# Entries per piece of a streamed JSON list (a piece of terms is about 60 KB):
# the pieces in flight stay a small part of a multi-MB document.
ITEMS_PER_PIECE = 512


def _list_pieces(texts_of, items, indent: str):
    """The JSON text of a list with one entry per element of the sequence
    `items`, at `indent`, in pieces of ITEMS_PER_PIECE entries.
    texts_of(chunk) gives a list of the texts of a chunk's entries, each
    with the "," and line break that go before it; one join makes a piece."""
    if not items:
        yield "[]"
        return
    for start in range(0, len(items), ITEMS_PER_PIECE):
        parts = texts_of(items[start:start + ITEMS_PER_PIECE])
        if start == 0:
            parts[0] = "[" + parts[0][1:]
        if start + ITEMS_PER_PIECE >= len(items):
            parts.append(indent + "]")
        yield "".join(parts)


def check_rows(R: Realization, polys) -> None:
    """Refuse what terms_text cannot write, before the first byte is: a
    corank above 1 (json_corank) or a weight that is not integral."""
    json_corank(R)
    for poly in polys:
        if not is_lattice(chain.from_iterable(poly)):
            raise CLIError(f"weight {R.format_weight(next(mu for mu in poly if not is_lattice(mu)))} is not integral")


def terms_text(R: Realization, poly, indent: str):
    """The pieces of the JSON text of [{"weight": weight_obj(R, mu), "mult": c}
    for mu, c in sorted(poly.items())] at `indent`: one format string filled
    per term, and one join per ITEMS_PER_PIECE terms.  The weights are
    checked by check_rows before any piece is asked for."""
    i1, i2, i3, i4 = (indent + "  " * k for k in range(1, 5))
    term = ("," + i1 + "{" + i2 + '"weight": {' + i3 + '"fund": [' + i4 + ("," + i4).join(["%s"] * R.n) + i3 + "]"
            + (R.N - R.n) * ("," + i3 + '"delta": %s') + i2 + "}," + i2 + '"mult": %s' + i1 + "}")
    return _list_pieces(lambda chunk: [term % (*mu, poly[mu]) for mu in chunk], sorted(poly), indent)


def items_text(to_obj, xs, indent: str):
    """The pieces of the JSON text of [to_obj(x) for x in xs] at `indent`,
    each entry encoded when its piece is built; to_obj gives no callable."""
    inner = indent + "  "
    sep = "," + inner
    return _list_pieces(lambda chunk: [sep + _json_skeleton(to_obj(x), inner, None) for x in chunk], xs, indent)


def json_pieces(obj, indent: str = "\n"):
    """The text of ``json.dumps(obj, indent=2)``, obj set at `indent`, in
    pieces, for obj made of dicts with str keys, lists, str, int, bool, None
    and callables.  A callable stands for a value written in pieces
    (terms_text, items_text): a NUL, which the encoding never emits, holds
    its place in the text of everything else, and at that place the callable
    is called with its indentation, when the pieces before it are written,
    and its pieces are yielded."""
    calls: list = []
    segments = _json_skeleton(obj, indent, calls).split("\0")  # no copy when there is no NUL
    yield segments[0]
    for (fn, at), segment in zip(calls, segments[1:]):
        yield from fn(at)
        yield segment


def _json_skeleton(obj, indent: str, calls: list | None) -> str:
    """The text of obj, with a NUL for each callable, which is appended to
    `calls` with its indentation."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + _json_skeleton(v, inner, calls) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json_skeleton(v, inner, calls) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if callable(obj):
        calls.append((obj, indent))
        return "\0"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def poly_str(R: Realization, poly) -> str:
    if not poly:
        return "0"
    parts = []
    for mu in sorted(poly):
        c = poly[mu]
        coef = "" if c == 1 else ("-" if c == -1 else f"{c}*")
        term = f"{coef}e[{R.format_weight(mu)}]"
        if parts and not term.startswith("-"):
            term = "+" + term
        parts.append(term)
    return " ".join(parts)


# The least length of a write but the last, the block of a buffered stdout
# (io.DEFAULT_BUFFER_SIZE): under PYTHONUNBUFFERED=1 each write is a system
# call, and a row document has two short pieces per row.
WRITE_SIZE = 8192


def emit(out: str | None, pieces) -> None:
    """Write the str `pieces`, then one "\n", to the file `out` (the --out
    option) or to stdout.  Short pieces are joined up to WRITE_SIZE, and a
    long one that comes alone is written as it is.  Every refusal comes
    before: a piece must not raise, or it leaves a partial output behind."""
    if out:
        try:
            with open(out, "w") as fh:
                _write_pieces(fh.write, pieces)
        except OSError as exc:
            raise CLIError(f"cannot write --out: {exc}") from None
    elif sys.stdout is None:  # python was started with stdout closed
        raise CLIError("stdout was closed before the output was written")
    else:
        _write_pieces(sys.stdout.write, pieces)


def _write_pieces(write, pieces) -> None:
    pending: list = []
    size = 0
    for piece in pieces:
        pending.append(piece)
        size += len(piece)
        if size >= WRITE_SIZE:
            write("".join(pending))  # a one-piece join returns the piece, uncopied
            pending, size = [], 0
    pending.append("\n")
    write("".join(pending))


# -- chevalley ---------------------------------------------------------------


def _rows_for_model(model: str, R: Realization, lam: Weight, sign: int, word: tuple):
    """Each model builds its own WeylGroup, so no cache filled by one model
    feeds another: the cross-check compares independent computations."""
    W = WeylGroup(R)
    w = W.from_word(word)
    if model == "nilhecke":
        from . import kring
        return kring.chevalley_recurrence(W, w, lam if sign > 0 else wt_neg(lam))
    if model == "ls":
        from . import lspath
        return lspath.chevalley_ls(W, lam, w, sign)
    if model == "alcove":
        from . import alcove
        return alcove.chevalley_alcove(W, lam, w, sign)
    raise CLIError(f"unknown model {model!r}")


def _rows_diff(rows_by_model: dict) -> list:
    """Structured per-z differences between models (empty when all agree,
    as it is at once when one model ran)."""
    first, *others = rows_by_model.values()
    if all(rows == first for rows in others):
        return []
    names = sorted(rows_by_model)
    all_z = sorted({z for rows in rows_by_model.values() for z in rows}, key=lambda u: u.key)
    diffs = []
    for z in all_z:
        polys = {name: rows_by_model[name].get(z, {}) for name in names}
        head, *rest = polys.values()
        if any(p != head for p in rest):
            diffs.append((z, polys))
    return diffs


SIGNS = {"+1": 1, "+": 1, "-1": -1, "-": -1}


def cmd_chevalley(args: SimpleNamespace) -> int:
    sign = SIGNS.get(args.sign)
    if sign is None:
        raise CLIError(f"--sign must be +1 or -1, not {args.sign!r}")
    R, W, lam = _setup(args)

    if args.z is not None or args.max_length is not None:
        return _chevalley_fixed_z(args, sign, R, W, lam)

    if args.w is None:
        raise CLIError("chevalley needs --w (or --z with --max-length)")
    word = parse_word(R, args.w)
    w = W.from_word(word)
    if args.format == "dot" and args.model not in ("alcove", "all"):
        raise CLIError("--format dot for chevalley requires the alcove model")

    models = ["ls", "alcove", "nilhecke"] if args.model == "all" else [args.model]
    rows_by_model = {m: _rows_for_model(m, R, lam, sign, word) for m in models}

    diffs = _rows_diff(rows_by_model)
    if diffs:
        if args.format == "table":
            lines = ["models disagree"]
            for z, polys in diffs:
                lines += [f"  [O_{z!r}]"] + [f"    {name} : {poly_str(R, p)}" for name, p in sorted(polys.items())]
            emit(args.out, ["\n".join(lines)])
            return 1
        check_rows(R, chain.from_iterable(polys.values() for _, polys in diffs))
        disagreements = [
            {"z": word_obj(R, z), "models": {name: partial(terms_text, R, p) for name, p in sorted(polys.items())}}
            for z, polys in diffs
        ]
        emit(args.out, json_pieces({"error": "models disagree", "disagreements": disagreements}))
        return 1

    if args.format == "dot":
        from . import alcove
        pairs = (alcove.enumerate_tree_dominant if sign > 0 else alcove.enumerate_tree_antidominant)(W, lam, w)
        emit(args.out, [alcove.tree_dot(W, lam, pairs)])
    else:
        _emit_rows(args, sign, R, lam, "w", w, rows_by_model[models[0]], False, "")
    return 0


def _chevalley_fixed_z(args: SimpleNamespace, sign: int, R: Realization, W: WeylGroup, lam: Weight) -> int:
    z = _over_z(args, R, W, "fixed-z mode")
    if args.model != "alcove":
        raise CLIError("fixed-z mode is supported by the alcove model only (--model alcove)")
    if args.format == "dot":
        raise CLIError("fixed-z mode emits json or table")
    from . import alcove
    rows, truncated = alcove.fixed_z_rows(W, lam, z, sign, args.max_length)
    tail = f", lengths <= {args.max_length}" + ("  (truncated)" if truncated else "")
    _emit_rows(args, sign, R, lam, "z", z, rows, truncated, tail)
    return 0


def _emit_rows(args: SimpleNamespace, sign: int, R: Realization, lam: Weight, fixed: str, elt: WeylElt, rows,
               truncated: bool, tail: str) -> None:
    """Chevalley rows over the element `elt` held fixed, as json or table.
    `fixed` is "w" (rows keyed by z) or "z" (rows keyed by w); `tail` ends
    the table's first line."""
    order = sorted(rows, key=lambda u: u.key)
    if args.format == "json":
        check_rows(R, rows.values())
        key = "z" if fixed == "w" else "w"
        emit(args.out, json_pieces({
            "cartan": R.gcm.to_json(),
            "lambda": weight_obj(R, lam),
            "sign": sign,
            fixed: word_obj(R, elt),
            "rows": [{key: word_obj(R, u), "terms": partial(terms_text, R, rows[u])} for u in order],
            "truncated": truncated,
        }))
    else:
        head = f"[L^{'+' if sign > 0 else '-'}({R.format_weight(lam)})] * [O_{elt!r}]" + tail
        emit(args.out, ["\n".join([head] + [f"  [O_{u!r}] : {poly_str(R, rows[u])}" for u in order])])


# -- crystal -----------------------------------------------------------------


def cmd_crystal(args: SimpleNamespace) -> int:
    from . import alcove, lspath
    R, W, lam = _setup(args)

    if args.opposite:
        z = _over_z(args, R, W, "--opposite")
        if args.format == "dot" and args.realization == "alcove":
            raise CLIError("dot output for the alcove realization covers --w crystals only")
        paths = lspath.opposite_demazure_ls(W, lam, z, args.max_length)
        pairs, truncated = alcove.enumerate_z_adapted(W, lam, z, "inc", args.max_length)
    else:
        if args.w is None:
            raise CLIError("crystal needs --w (or --opposite with --z)")
        if args.z is not None or args.max_length is not None:
            raise CLIError("--z and --max-length go with --opposite only")
        w = W.from_word(parse_word(R, args.w))
        paths = lspath.demazure_crystal(W, lam, w)
        pairs = alcove.enumerate_tree_antidominant(W, lam, w)
        truncated = False
    # each path's weight, computed once for the cross-check and the output
    path_wt = {p: lspath.endpoint(W, p) for p in paths}
    wts_ls = sorted(path_wt.values())
    wts_alc = sorted(wt for _, wt in pairs)

    if len(paths) != len(pairs) or wts_ls != wts_alc:
        if args.format == "table":
            emit(args.out, ["\n".join(["realizations disagree"] + [
                f"  {name} : {len(wts)} elements, {poly_str(R, Counter(wts))}"
                for name, wts in (("ls", wts_ls), ("alcove", wts_alc))])])
            return 1
        report = {
            "error": "realizations disagree",
            "ls_count": len(paths),
            "alcove_count": len(pairs),
            "ls_weights": partial(items_text, partial(weight_obj, R), wts_ls),
            "alcove_weights": partial(items_text, partial(weight_obj, R), wts_alc),
        }
        emit(args.out, json_pieces(report))
        return 1

    ordered_paths = sorted(paths, key=lspath.path_key)
    if args.format == "json":
        if args.realization == "ls":
            elements = ordered_paths

            def element(p):
                return {
                    "b": [lspath.ratio_text(*c) for c in lspath.cuts(p)],
                    "dirs": [word_obj(R, d) for d in p.dirs],
                    "weight": weight_obj(R, path_wt[p]),
                }
        else:
            elements = pairs

            def element(pair):
                seq, wt = pair
                return {
                    "z": word_obj(R, seq.z),
                    "labels": [alcove.format_hyperplane(lam, h) for h in seq.hs],
                    "weight": weight_obj(R, wt),
                }
        doc = {
            "cartan": R.gcm.to_json(),
            "lambda": weight_obj(R, lam),
            "realization": args.realization,
            "count": len(elements),
            "elements": partial(items_text, element, elements),
            "truncated": truncated,
        }
        emit(args.out, json_pieces(doc))
    elif args.format == "table":
        lines = [f"{len(ordered_paths)} elements" + ("  (truncated)" if truncated else "")]
        if args.realization == "ls":
            for p in ordered_paths:
                lines.append(f"  {p!r}  wt={R.format_weight(path_wt[p])}")
        else:
            for s, wt in pairs:
                labels = ",".join(alcove.format_hyperplane(lam, h) for h in s.hs)
                lines.append(f"  {s.z!r} [{labels}]  wt={R.format_weight(wt)}")
        emit(args.out, ["\n".join(lines)])
    elif args.realization == "ls":  # --format dot
        emit(args.out, [lspath.crystal_dot(W, ordered_paths)])
    else:
        emit(args.out, [alcove.tree_dot(W, lam, pairs)])
    return 0


# -- selftest ----------------------------------------------------------------


def _scn_triangles(cases) -> str | None:
    """The three models agree on every (preset, weight, word) case, in both signs."""
    for preset, lamtext, words in cases:
        R = realization_from_preset(preset)
        lam = R.parse_weight(lamtext)
        for wtext in words:
            for sign in (1, -1):
                diffs = _rows_diff({m: _rows_for_model(m, R, lam, sign, parse_word(R, wtext))
                                    for m in ("ls", "alcove", "nilhecke")})
                if diffs:
                    return (f"{preset} lam={lamtext} w={wtext} sign={sign}: "
                            f"{len(diffs)} rows disagree (first at z={diffs[0][0]!r})")
    return None


def _scn_bijections() -> str | None:
    from . import alcove, bridge
    R = realization_from_preset("A2")
    W = WeylGroup(R)
    lam = R.parse_weight("1,1")
    w = W.from_word((0, 1, 0))
    for seq, _ in alcove.enumerate_tree_dominant(W, lam, w) + alcove.enumerate_tree_antidominant(W, lam, w):
        base = seq.z if seq.monotonicity == "inc" else w
        if bridge.ls_to_seq(W, bridge.seq_to_ls(W, lam, seq), base, seq.monotonicity) != seq:
            return f"{seq.monotonicity} round-trip failed at {seq!r}"
    return None


def _scn_chain_axioms() -> str | None:
    from . import alcove
    for preset, lamtext in [("A2", "1,1"), ("A2", "2,1"), ("B2", "1,1"), ("G2", "1,0")]:
        R = realization_from_preset(preset)
        lam = R.parse_weight(lamtext)
        ok, why = alcove.validate_lambda_chain_finite(R, lam, alcove.lex_chain(R, lam))
        if not ok:
            return f"{preset} lam={lamtext}: {why}"
    return None


def _scn_crystal_mass() -> str | None:
    from . import lspath
    R = realization_from_preset("A2")
    W = WeylGroup(R)
    lam = R.parse_weight("2,1")
    paths = lspath.demazure_crystal(W, lam, W.from_word((0, 1, 0)))
    if len(paths) != 15:
        return f"expected 15 elements in the full crystal, got {len(paths)}"
    return None


def _scn_negative_control() -> str | None:
    """The dominant alcove row built with the lex comparator inverted must
    disagree with the recurrence.  Inverting the comparator turns the
    lex-increasing tree into the lex-decreasing one, so that row is the
    lex-decreasing tree folded at the "inc" levels."""
    from . import alcove, kring
    R = realization_from_preset("A2~")
    W = WeylGroup(R)
    lam = R.parse_weight("1,1,0")
    w = W.from_word(parse_word(R, "0 1 2 1"))
    inverted: dict = {}
    for seq, _ in alcove.enumerate_tree_antidominant(W, lam, w):
        kring.lp_add_into(inverted.setdefault(seq.z, {}), kring.lp_monomial(alcove.wt_fold(W, lam, seq, "inc")))
    if not _rows_diff({"inverted": inverted, "nilhecke": kring.chevalley_recurrence(W, w, lam)}):
        return "inverted lex comparator went undetected"
    return None


SCENARIOS = [
    ("finite-triangles", partial(_scn_triangles, [("A2", "1,1", ["e", "1", "2 1", "1 2 1"]),
                                                  ("B2", "1,2", ["2 1", "1 2 1", "2 1 2 1"])])),
    ("affine-triangle", partial(_scn_triangles, [("A2~", "1,1,0", ["0 1 2 1"])])),
    ("bijection-roundtrip", _scn_bijections),
    ("chain-axioms", _scn_chain_axioms),
    ("crystal-mass", _scn_crystal_mass),
    ("negative-control", _scn_negative_control),
]


def cmd_selftest(args: SimpleNamespace) -> int:
    if args.scenario is None:
        selected = SCENARIOS
    elif args.scenario == "":
        selected = []
    else:
        selected = [(n, fn) for n, fn in SCENARIOS if args.scenario in n]
        if not selected:
            names = ", ".join(n for n, _ in SCENARIOS)
            raise CLIError(f"no scenario matches {args.scenario!r}; scenarios are {names}")
    results = []
    for name, fn in selected:
        try:
            detail = fn()
        except Exception as exc:  # a crashed scenario is a failed scenario
            detail = f"exception: {exc!r}"
        results.append({"name": name, "ok": detail is None, "detail": detail or "pass"})
    doc = {"scenarios": results, "all_ok": all(r["ok"] for r in results)}
    emit(args.out, json_pieces(doc))
    return 0 if doc["all_ok"] else 1


# -- entry point ---------------------------------------------------------------

# {command: {"--name": (kind, default, help)}}: kind is str (free text), int,
# a tuple of choices, or bool (a flag, which takes no value).
_INPUT_OPTIONS = {
    "--cartan": (str, None, "preset name (A1, A2, A3, B2, G2, A1~, A2~)"),
    "--gcm-file": (str, None, "JSON file with a Cartan matrix"),
    "--weight": (str, None, 'dominant weight "c_0,c_1,...[,delta=q ...]"'),
    "--format": (("json", "table", "dot"), "json", "output format"),
    "--out": (str, None, "write output to this file instead of stdout"),
    "--w": (str, None, 'the element w, as space-separated node names ("e" for the identity)'),
    "--z": (str, None, "the element z of the sets over z: fixed-z chevalley rows, crystal --opposite"),
    "--max-length": (int, None, "length bound for the sets over --z"),
}
OPTIONS = {
    "chevalley": {
        **_INPUT_OPTIONS,
        "--sign": (str, "+1", "+1 for the dominant line bundle, -1 for its dual"),
        "--model": (("ls", "alcove", "nilhecke", "all"), "all", "the model to run; all cross-checks the three"),
    },
    "crystal": {
        **_INPUT_OPTIONS,
        "--opposite": (bool, False, "opposite Demazure set over --z"),
        "--realization": (("ls", "alcove"), "ls", "the realization to print"),
    },
    "selftest": {
        "--scenario": (str, None, "substring filter; empty string selects nothing"),
        "--out": (str, None, "write the report to this file"),
    },
}
COMMANDS = {
    "chevalley": (cmd_chevalley, "Chevalley coefficient rows"),
    "crystal": (cmd_crystal, "Demazure / opposite Demazure sets"),
    "selftest": (cmd_selftest, "internal cross-check scenarios"),
}


def _help_row(head: str, about: str) -> str:
    """One line of help, or two when head leaves no room for about."""
    return f"  {head:<22}{about}" if len(head) < 22 else f"  {head}\n{'':24}{about}"


def _help_text(command: str | None) -> str:
    """The usage of kmchev (command None) or of one command, every option listed."""
    if command is None:
        return "\n".join([f"usage: kmchev [-h] {{{','.join(COMMANDS)}}} ...", "", "commands:",
                          *(_help_row(name, about) for name, (_, about) in COMMANDS.items()),
                          "", "kmchev COMMAND --help lists the options of COMMAND."])
    rows = [_help_row("-h, --help", "show this help message and exit")]
    for name, (kind, default, about) in OPTIONS[command].items():
        if type(kind) is tuple:
            name += " {" + ",".join(kind) + "}"
        elif kind is not bool:
            name += " " + name[2:].upper().replace("-", "_")
        rows.append(_help_row(name, about if default in (None, False) else f"{about} (default: {default})"))
    return "\n".join([f"usage: kmchev {command} [-h] [options]", "", COMMANDS[command][1], "", "options:", *rows])


def _print_help(command: str | None) -> None:
    print(_help_text(command), file=sys.stdout or sys.stderr)  # stdout is None when fd 1 was closed at start


def parse_args(argv: list) -> SimpleNamespace | None:
    """The command and its options as attributes (--max-length as
    max_length, unset options at their defaults), or None once -h/--help has
    printed its help.  A value follows its option as the next argument or
    after "="; the last repeat wins, and an option is never abbreviated.  A
    refused command line raises CLIError, worded as argparse words it."""
    if not argv:
        raise CLIError("the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        return _print_help(None)
    if command not in OPTIONS:
        if command.startswith("-"):
            raise CLIError(f"unrecognized arguments: {command}")
        raise CLIError(f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, OPTIONS))})")
    table = OPTIONS[command]
    values = {name: default for name, (_, default, _) in table.items()}
    unknown = []
    tokens = iter(rest)
    for tok in tokens:
        if tok in ("-h", "--help"):
            return _print_help(command)
        name, eq, value = tok.partition("=")
        if name not in table:
            unknown.append(tok)
            continue
        kind = table[name][0]
        if kind is bool:
            if eq:
                raise CLIError(f"argument {name}: ignored explicit argument {value!r}")
            values[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise CLIError(f"argument {name}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise CLIError(f"argument {name}: invalid int value: {value!r}") from None
        elif type(kind) is tuple and value not in kind:
            raise CLIError(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        values[name] = value
    if unknown:
        raise CLIError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, **{name[2:].replace("-", "_"): v for name, v in values.items()})


def main(argv=None) -> int:
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
            if args is None:  # the help was printed
                return 0
            env_layer_cap()  # a bad KMCHEV_LAYER_CAP is refused before any work
            return COMMANDS[args.command][0](args)
        finally:  # a reader that left is seen here, not at exit
            if sys.stdout is not None:
                sys.stdout.flush()
    except (CLIError, LayerCapError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            exc = "stdout was closed before all the output was written"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
