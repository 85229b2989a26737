"""The ``crystal`` command: a Demazure (or opposite Demazure) set in both of
its realizations, cross-checked, emitting the one picked by --realization.
The alcove walk, which the cap bounds, runs before the unbounded LS closure.
``kmchev.cli`` imports this module the first time the command runs."""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import chain
from types import SimpleNamespace

from . import alcove, lspath
from .cli import CLIError, _over_z, _setup, emit, json_pieces, parse_word, poly_str, weight_obj, word_obj


def cmd_crystal(args: SimpleNamespace) -> int:
    R, W, lam = _setup(args)

    if args.opposite:
        z = _over_z(args, R, W, "--opposite")
        if args.format == "dot" and args.realization == "alcove":
            raise CLIError("dot output for the alcove realization covers --w crystals only")
        pairs, truncated = alcove.enumerate_z_adapted(W, lam, z, "inc", args.max_length)
        paths = lspath.opposite_demazure_ls(W, lam, z, args.max_length)
    else:
        if args.w is None:
            raise CLIError("crystal needs --w (or --opposite with --z)")
        if args.z is not None or args.max_length is not None:
            raise CLIError("--z and --max-length go with --opposite only")
        w = W.from_word(parse_word(R, args.w))
        pairs = alcove.enumerate_tree_antidominant(W, lam, w)
        truncated = False
        paths = lspath.demazure_crystal(W, lam, w)
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
        dot = partial(lspath.crystal_dot, W, elements)

        def element(p):
            return {"b": [lspath.ratio_text(*c) for c in lspath.cuts(p)], "dirs": [word_obj(R, d) for d in p.dirs],
                    "weight": weight_obj(R, paths[p])}

        def line(p):
            return f"\n  {p!r}  wt={R.format_weight(paths[p])}"
    else:
        elements = pairs
        dot = partial(alcove.tree_dot, W, lam, pairs)

        def element(pair):
            seq, wt = pair
            return {"z": word_obj(R, seq.z), "labels": [alcove.format_hyperplane(lam, h) for h in seq.hs],
                    "weight": weight_obj(R, wt)}

        def line(pair):
            seq, wt = pair
            labels = ",".join(alcove.format_hyperplane(lam, h) for h in seq.hs)
            return f"\n  {seq.z!r} [{labels}]  wt={R.format_weight(wt)}"

    if args.format == "json":
        emit(args.out, json_pieces({"cartan": R.gcm.to_json(), "lambda": weight_obj(R, lam),
                                    "realization": args.realization, "count": len(elements),
                                    "elements": map(element, elements), "truncated": truncated}))
    elif args.format == "table":
        head = f"{len(elements)} elements" + ("  (truncated)" if truncated else "")
        emit(args.out, chain([head], map(line, elements)))
    else:
        emit(args.out, [dot()])
    return 0
