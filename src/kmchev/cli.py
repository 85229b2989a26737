"""Command line front end.

Three subcommands, each in the module that ``COMMANDS`` names and ``main``
imports on the command's first run, so a run compiles only its own command:

* ``chevalley`` (this module) -- fixed-w Chevalley rows (all three models,
  cross-checked when ``--model all``), or the fixed-z expansion in the alcove
  model when ``--z``/``--max-length`` are given;
* ``crystal`` (``cli_crystal``) -- a Demazure (or opposite Demazure) set in
  both of its realizations, cross-checked, emitting the one ``--realization`` picks;
* ``selftest`` (``cli_selftest``) -- a scenario matrix of internal cross-checks.

Output formats: ``json`` (stable schema, deterministic ordering), ``table``
(human-readable), ``dot`` (trees / crystal graphs).  JSON output is the exact
text of ``json.dumps`` with ``indent=2``, for corank <= 1 only (larger corank
is refused before any model runs), written in pieces of bounded size
(``json_pieces``), so a multi-MB document is never held as one string: the
rows go out one by one, and a row's terms and a crystal's elements
ITEMS_PER_PIECE (128) at a time, a piece one ``%`` of a template
(``dicts_text``).  Every check of the input comes before the first byte, so
a refused run leaves stdout empty and creates no ``--out`` file; a weight is
a tuple of ints (``cartan``), so JSON can write every row a model makes.

A single-model ``--model nilhecke`` run writes each row as it is made
(``kring.chevalley_rows``).  ``--model all`` runs nilHecke, then the capped
alcove walk, then the LS closure, which no cap bounds; it holds the nilHecke
rows (the ones it writes), and each other model's rows until they are
compared with them, keeping those that differ.  ``ls``, ``alcove`` and
fixed-z hold their rows.  A streamed run that runs out of memory after its
first byte exits 2 as any other; ``emit`` removes the ``--out`` file it
created, and stdout keeps a prefix of the document, as after a closed pipe.

Table output prints every extra coordinate of a weight in corank >= 2.  A
failed cross-check exits 1 with a report: table lines under ``--format
table`` (any corank), JSON otherwise.  Bad input (a missing ``--weight``, an
unknown option or an option value the option table refuses), a bad
``KMCHEV_CAP`` or work beyond it (see ``weyl``; no option sets it), a run
out of memory and a closed stdout (seen at a write, also mid-document, or at
``main``'s flush, also after ``--help``) exit 2 with one ``error:`` line.

The options are one table, ``OPTIONS``, read by ``parse_args``; neither it
nor the JSON writer imports ``argparse``, ``json`` or ``re``, which would
cost a short run more start-up time than its combinatorics.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii  # the C escaper json.encoder binds, without json or re
from functools import partial
from itertools import chain
from types import SimpleNamespace

from .cartan import Realization, Weight, realization_from_json_file, realization_from_preset, wt_neg
from .weyl import CapError, WeylElt, WeylGroup, env_cap


class CLIError(Exception):
    pass


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
        except ValueError as exc:  # also json.JSONDecodeError
            raise CLIError(f"--gcm-file {args.gcm_file}: {exc}") from None
    elif args.cartan:
        try:
            R = realization_from_preset(args.cartan)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
    else:
        raise CLIError("a Cartan matrix is required (--cartan or --gcm-file)")
    if args.format == "json" and R.N - R.n > 1:
        raise CLIError("JSON output supports corank <= 1 realizations only")
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
        return R.parse_weight(text)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


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
    if R.N == R.n:
        return {"fund": list(mu)}
    return {"fund": list(mu[: R.n]), "delta": mu[R.n]}


def word_obj(R: Realization, w: WeylElt) -> list:
    return [R.node_names[i] for i in w.word]


ITEMS_PER_PIECE = 128  # dicts per piece (22 KB of row terms): the pieces in flight stay a small part of the text


def dicts_text(R: Realization, keys: tuple, items: list, fill, indent: str):
    """The pieces of the JSON text at `indent` of a list of dicts with the
    `keys`, one per item: a piece of at most ITEMS_PER_PIECE items is one % of
    a template of as many dicts, filled from fill(piece), their values in one
    flat list, "weight" (a weight_obj) as its coordinates, others as JSON text."""
    i1, i2, i3, i4 = (indent + "  " * k for k in range(1, 5))
    weight = ('"weight": {' + i3 + '"fund": [' + i4 + ("," + i4).join(["%s"] * R.n) + i3 + "]"
              + (R.N - R.n) * ("," + i3 + '"delta": %s') + i2 + "}")
    entry = "," + i1 + "{" + i2 + ("," + i2).join(weight if k == "weight" else f'"{k}": %s' for k in keys) + i1 + "}"
    for start in range(0, len(items), ITEMS_PER_PIECE):
        piece = items[start:start + ITEMS_PER_PIECE]
        text = (entry * len(piece)) % tuple(fill(piece))
        if start == 0:
            text = "[" + text[1:]
        if start + ITEMS_PER_PIECE >= len(items):
            text += indent + "]"
        yield text
    if not items:
        yield "[]"


def terms_text(R: Realization, poly, indent: str):
    """The pieces of the JSON text of [{"weight": weight_obj(R, mu), "mult": c}
    for mu, c in sorted(poly.items())] at `indent`."""
    def fill(mus: list) -> list:
        values: list = []
        for mu in mus:
            values += mu
            values.append(poly[mu])
        return values
    return dicts_text(R, ("weight", "mult"), sorted(poly), fill, indent)


def json_pieces(obj, indent: str = "\n"):
    """The text of ``json.dumps(obj, indent=2)``, obj set at `indent`, in
    pieces, for obj made of dicts with str keys, lists, str, int, bool, None,
    iterators and callables.  An iterator (a generator, a map) is written as
    a list, its entries made one by one as the writer reaches them; a
    callable stands for a value that writes its own pieces (dicts_text),
    called with its indentation.  Either has a NUL, which the encoding never
    emits, in the text of everything else, and is written at that place
    when the pieces before it are."""
    calls: list = []
    segments = _json_skeleton(obj, indent, calls).split("\0")  # no copy when there is no NUL
    yield segments[0]
    for (value, at), segment in zip(calls, segments[1:]):
        yield from _entries_text(value, at) if hasattr(value, "__next__") else value(at)
        yield segment


def _entries_text(entries, indent: str):
    """The pieces of the JSON text of [*entries] at `indent`, each entry
    written by json_pieces when the entries before it are."""
    inner = indent + "  "
    start = "[" + inner
    for obj in entries:
        yield start
        yield from json_pieces(obj, inner)
        start = "," + inner
    yield "[]" if start[0] == "[" else indent + "]"


def _json_skeleton(obj, indent: str, calls: list) -> str:
    """The text of obj, with a NUL for each iterator and callable, which is
    appended to `calls` with its indentation."""
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
    if callable(obj) or hasattr(obj, "__next__"):
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
    before, but a piece made as it is written can still fail (out of
    memory): then an --out file that emit created is removed, and stdout
    keeps the prefix written so far, as it does when its reader leaves."""
    if out:
        created = not os.path.lexists(out)
        try:
            with open(out, "w") as fh:
                _write_pieces(fh.write, pieces)
        except BaseException as exc:
            if created:
                try:
                    os.remove(out)
                except OSError:  # open failed, or the file is gone
                    pass
            if isinstance(exc, OSError):
                raise CLIError(f"cannot write --out: {exc}") from None
            raise
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


def _rows_diff(rows_of, models) -> tuple[dict, list]:
    """The rows rows_of(models[0]), the reference, and [(z, {model: row})]
    in z.key order at each z where another model's rows differ from them,
    every model's row given by name (the reference's where a model agrees).
    The models run one at a time, and each one's rows are dropped once
    compared: z is matched by its rho-image, as each model has its own
    group, whose elements compare by identity."""
    ref = rows_of(models[0])
    by_rho = {z.rho: poly for z, poly in ref.items()}
    elts = {z.rho: z for z in ref}
    differing = {models[0]: {}}
    for name in models[1:]:
        differing[name] = _differing(rows_of(name), by_rho, elts)
    diffs = []
    for rho in sorted(set().union(*differing.values()), key=lambda mu: elts[mu].key):
        polys = {name: rows.get(rho, by_rho.get(rho, {})) for name, rows in sorted(differing.items())}
        diffs.append((elts[rho], polys))
    return ref, diffs


def _differing(rows: dict, by_rho: dict, elts: dict) -> dict:
    """{rho: row} at each rho where rows differ from the reference's rows
    by_rho, a missing row read as {}; elts gains each z the reference lacks."""
    theirs = {z.rho: poly for z, poly in rows.items()}
    elts.update((z.rho, z) for z in rows if z.rho not in by_rho)
    diff = {}
    for rho in by_rho.keys() | theirs.keys():
        row = theirs.get(rho, {})
        if row != by_rho.get(rho, {}):
            diff[rho] = row
    return diff


SIGNS = {"+1": 1, "+": 1, "-1": -1, "-": -1}
MODELS = ("nilhecke", "alcove", "ls")  # --model all: the reference, the capped walk, the LS closure no cap bounds


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

    if args.model == "nilhecke":
        from . import kring
        rows = kring.chevalley_rows(W, w, lam if sign > 0 else wt_neg(lam))  # made as they are written
        _emit_rows(args, sign, R, lam, "w", w, rows, False, "")
        return 0

    models = MODELS if args.model == "all" else (args.model,)
    rows, diffs = None, []
    if args.format != "dot" or len(models) > 1:  # one model's DOT has no rows to check
        rows, diffs = _rows_diff(lambda m: _rows_for_model(m, R, lam, sign, word), models)
    if diffs:
        if args.format == "table":
            lines = ["models disagree"]
            for z, polys in diffs:
                lines += [f"  [O_{z!r}]"] + [f"    {name} : {poly_str(R, p)}" for name, p in polys.items()]
            emit(args.out, ["\n".join(lines)])
            return 1
        disagreements = [
            {"z": word_obj(R, z), "models": {name: partial(terms_text, R, p) for name, p in polys.items()}}
            for z, polys in diffs
        ]
        emit(args.out, json_pieces({"error": "models disagree", "disagreements": disagreements}))
        return 1

    if args.format == "dot":
        from . import alcove
        pairs = (alcove.enumerate_tree_dominant if sign > 0 else alcove.enumerate_tree_antidominant)(W, lam, w)
        emit(args.out, [alcove.tree_dot(W, lam, pairs)])
    else:
        _emit_rows(args, sign, R, lam, "w", w, rows.items(), False, "")
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
    _emit_rows(args, sign, R, lam, "z", z, rows.items(), truncated, tail)
    return 0


def _emit_rows(args: SimpleNamespace, sign: int, R: Realization, lam: Weight, fixed: str, elt: WeylElt, rows,
               truncated: bool, tail: str) -> None:
    """Chevalley rows over the element `elt` held fixed, as json or table.
    `rows` is an iterable of (element, row) pairs in key order, held or
    made as they are written; `fixed` is "w" (rows
    keyed by z) or "z" (rows keyed by w); `tail` ends the table's first line."""
    if args.format == "json":
        key = "z" if fixed == "w" else "w"
        emit(args.out, json_pieces({
            "cartan": R.gcm.to_json(),
            "lambda": weight_obj(R, lam),
            "sign": sign,
            fixed: word_obj(R, elt),
            "rows": ({key: word_obj(R, u), "terms": partial(terms_text, R, poly)} for u, poly in rows),
            "truncated": truncated,
        }))
    else:
        head = f"[L^{'+' if sign > 0 else '-'}({R.format_weight(lam)})] * [O_{elt!r}]" + tail
        emit(args.out, chain([head], (f"\n  [O_{u!r}] : {poly_str(R, poly)}" for u, poly in rows)))


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
# {command: (the module under kmchev that defines cmd_<command>, help line)}
COMMANDS = {
    "chevalley": ("cli", "Chevalley coefficient rows"),
    "crystal": ("cli_crystal", "Demazure / opposite Demazure sets"),
    "selftest": ("cli_selftest", "internal cross-check scenarios"),
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
            env_cap()  # a bad KMCHEV_CAP is refused before any work
            module = f"kmchev.{COMMANDS[args.command][0]}"
            __import__(module)  # not importlib.import_module, which -X importtime does not see
            return getattr(sys.modules[module], f"cmd_{args.command}")(args)
        finally:  # a reader that left is seen here, not at exit
            if sys.stdout is not None:
                sys.stdout.flush()
    except (CLIError, CapError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            exc = "stdout was closed before all the output was written"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # exit 1 would claim the models disagree
        pass
    # Out of the handler no traceback keeps the frames alive, and what they
    # filled memory with holds no reference cycle, so it is freed before the print.
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":  # run the copy that cli_crystal and cli_selftest import, with its CLIError
    from kmchev.cli import main
    raise SystemExit(main())
