"""The ``crystal`` command: a Demazure (or opposite Demazure) set in both of
its realizations, cross-checked, emitting the one picked by --realization.
The alcove walk, which the cap bounds, runs before the unbounded LS closure,
each in a Weyl group of its own, so that no memo one fills feeds the other.
JSON writes the elements ``cli.ITEMS_PER_PIECE`` at a time, each piece one
``%`` of the element template (``cli.dicts_text``), and makes the text of
a word, a chain or a label once.  ``kmchev.cli`` imports this module the
first time the command runs."""

from __future__ import annotations

from _json import encode_basestring_ascii  # the C escaper, as in kmchev.cli
from collections import Counter
from functools import cache, partial
from itertools import chain
from types import SimpleNamespace

from . import alcove, lspath
from .cartan import Realization
from .cli import CLIError, _over_z, _setup, dicts_text, emit, json_pieces, parse_word, poly_str, weight_obj
from .weyl import WeylGroup


def cmd_crystal(args: SimpleNamespace) -> int:
    R, W, lam = _setup(args)
    W_ls = WeylGroup(R)  # the LS closure's group; W is the alcove walk's

    if args.opposite:
        z = _over_z(args, R, W, "--opposite")
        if args.format == "dot" and args.realization == "alcove":
            raise CLIError("dot output for the alcove realization covers --w crystals only")
        pairs, truncated = alcove.enumerate_z_adapted(W, lam, z, "inc", args.max_length)
        paths = lspath.opposite_demazure_ls(W_ls, lam, W_ls.from_word(z.word), args.max_length)
    else:
        if args.w is None:
            raise CLIError("crystal needs --w (or --opposite with --z)")
        if args.z is not None or args.max_length is not None:
            raise CLIError("--z and --max-length go with --opposite only")
        word = parse_word(R, args.w)
        pairs = alcove.enumerate_tree_antidominant(W, lam, W.from_word(word))
        truncated = False
        paths = lspath.demazure_crystal(W_ls, lam, W_ls.from_word(word))
    wts_ls = sorted(paths.values())
    wts_alc = sorted(wt for _, wt in pairs)

    if wts_ls != wts_alc:
        if args.format == "table":
            emit(args.out, ["\n".join(["realizations disagree"] + [
                f"  {name} : {len(wts)} elements, {poly_str(R, Counter(wts))}"
                for name, wts in (("ls", wts_ls), ("alcove", wts_alc))])])
            return 1
        report = {
            "error": "realizations disagree",
            "ls_count": len(paths),
            "alcove_count": len(pairs),
            "ls_weights": map(partial(weight_obj, R), wts_ls),
            "alcove_weights": map(partial(weight_obj, R), wts_alc),
        }
        emit(args.out, json_pieces(report))
        return 1

    if args.realization == "ls":  # only the LS outputs print the paths, in this order
        elements = sorted(paths, key=lspath.path_key)
        dot = partial(lspath.crystal_dot, W_ls, elements)
        text = partial(_ls_text, R, paths, elements)

        def line(p):
            return f"\n  {p!r}  wt={R.format_weight(paths[p])}"
    else:
        elements = pairs
        dot = partial(alcove.tree_dot, pairs)
        text = partial(_alcove_text, R, pairs)

        def line(pair):
            seq, wt = pair
            return f"\n  {seq.z!r} [{','.join(map(repr, seq.hs))}]  wt={R.format_weight(wt)}"

    if args.format == "json":
        emit(args.out, json_pieces({"cartan": R.gcm.to_json(), "lambda": weight_obj(R, lam),
                                    "realization": args.realization, "count": len(elements),
                                    "elements": text, "truncated": truncated}))
    elif args.format == "table":
        head = f"{len(elements)} elements" + ("  (truncated)" if truncated else "")
        emit(args.out, chain([head], map(line, elements)))
    else:
        emit(args.out, [dot()])
    return 0


def _list_text(texts: list, indent: str) -> str:
    """The JSON text at `indent` of a list whose entries have the given texts."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(texts) + indent + "]" if texts else "[]"


def _ls_text(R: Realization, paths: dict, elements: list, indent: str):
    """The pieces of the JSON text at `indent` of [{"b": the cut points,
    "dirs": the chain's words, "weight": p(1)} for p in elements]
    (dicts_text).  "b" is made once per step vector a, which fixes D (its
    sum), "dirs" once per chain and a word once per Weyl group element."""
    at = indent + "    "
    names = [encode_basestring_ascii(name) for name in R.node_names]
    word = cache(lambda d: _list_text([names[i] for i in d.word], at + "  "))
    chain_text = cache(lambda dirs: _list_text(list(map(word, dirs)), at))
    bs: dict = {}

    def fill(piece: list) -> list:
        values: list = []
        for p in piece:
            if (b := bs.get(p.a)) is None:
                b = bs[p.a] = _list_text([f'"{lspath.ratio_text(*c)}"' for c in lspath.cuts(p)], at)
            values.append(b)
            values.append(chain_text(p.dirs))
            values += paths[p]
        return values
    return dicts_text(R, ("b", "dirs", "weight"), elements, fill, indent)


def _alcove_text(R: Realization, pairs: list, indent: str):
    """The pieces of the JSON text at `indent` of [{"z": seq.z, "labels":
    seq.hs, "weight": wt} for seq, wt in pairs] (dicts_text).  A base z is
    made once per Weyl group element and a label once per hyperplane, an
    object the walk's sequences share."""
    at = indent + "    "
    names = [encode_basestring_ascii(name) for name in R.node_names]
    word = cache(lambda z: _list_text([names[i] for i in z.word], at))
    label = cache(lambda h: f'"{h!r}"')

    def fill(piece: list) -> list:
        values: list = []
        for seq, wt in piece:
            values.append(word(seq.z))
            values.append(_list_text(list(map(label, seq.hs)), at))
            values += wt
        return values
    return dicts_text(R, ("z", "labels", "weight"), pairs, fill, indent)
