"""The ``selftest`` command: a scenario matrix of internal cross-checks,
including a negative control: the lex-decreasing tree folded like the
dominant row (what that row becomes with the lex comparator inverted) must
disagree.  The cancellation-free scenario has its own: a nilHecke row with
one coefficient flipped must fail its sign check.  ``kmchev.cli`` imports
this module the first time the command runs."""

from __future__ import annotations

from collections import Counter
from functools import partial
from types import SimpleNamespace

from .cartan import GCM, Realization, lp_add_into, lp_monomial, realization_from_preset
from .cli import MODELS, CLIError, _rows_diff, _rows_for_model, emit, json_pieces, parse_word
from .weyl import WeylElt, WeylGroup


def _scn_triangles(cases) -> str | None:
    """The three models agree on every (preset, weight, word) case, in both signs."""
    for preset, lamtext, words in cases:
        R = realization_from_preset(preset)
        lam = R.parse_weight(lamtext)
        for wtext in words:
            for sign in (1, -1):
                _, diffs = _rows_diff(lambda m: _rows_for_model(m, R, lam, sign, parse_word(R, wtext)), MODELS)
                if diffs:
                    return (f"{preset} lam={lamtext} w={wtext} sign={sign}: "
                            f"{len(diffs)} rows disagree (first at z={diffs[0][0]!r})")
    return None


def _scn_tree_fold() -> str | None:
    """Every sequence of both alcove trees folds to its walk's weight, in a
    finite, affine and indefinite type."""
    from . import alcove
    for R, lam, word in ((realization_from_preset("A2"), (1, 1), (0, 1, 0)),
                         (realization_from_preset("A2~"), (1, 1, 0, 0), (0, 1, 2, 1)),
                         (Realization(GCM.from_matrix([[2, -3], [-3, 2]])), (1, 0), (0, 1, 0, 1))):
        W = WeylGroup(R)
        w = W.from_word(word)
        for seq, wt in alcove.enumerate_tree_dominant(W, lam, w) + alcove.enumerate_tree_antidominant(W, lam, w):
            if alcove.wt_fold(W, lam, seq) != wt:
                return f"{seq.monotonicity} fold of {seq!r} is not its walk's weight {wt} (lam={lam}, w={w!r})"
    return None


def _scn_crystal_mass() -> str | None:
    """The LS crystal's weights are the terms of D_w e^lam, D_i = 1 + T_i (Demazure)."""
    from . import kring, lspath
    R = realization_from_preset("A2")
    W = WeylGroup(R)
    lam, w = R.parse_weight("2,1"), W.from_word((0, 1, 0))
    crystal = Counter(lspath.demazure_crystal(W, lam, w).values())
    character = lp_monomial(lam)
    for i in reversed(w.word):
        lp_add_into(character, kring.apply_Ti(R, i, character))
    if crystal != character:
        return f"{crystal.total()} crystal weights are not the {sum(character.values())} terms of D_w e^lam"
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
        lp_add_into(inverted.setdefault(seq.z, {}), lp_monomial(alcove.wt_fold(W, lam, seq, "inc")))
    rows = {"nilhecke": kring.chevalley_recurrence(W, lam, w, 1), "inverted": inverted}
    if not _rows_diff(rows.get, rows)[1]:
        return "inverted lex comparator went undetected"
    return None


def _sign_fault(rows: dict, w: WeylElt, sign: int) -> str | None:
    """A coefficient of the wrong sign in the rows {z: b_z} of w, named: each
    row has the one sign + (sign +1) or (-1)^(l(w) - l(z)) (sign -1)."""
    for z, poly in rows.items():
        want = sign ** (w.length - z.length)
        if bad := [c for c in poly.values() if c * want < 0]:
            return f"w={w!r} sign={sign}: the row of z={z!r} has the coefficient {bad[0]}, not of sign {want:+d}"
    return None


def _scn_cancellation_free() -> str | None:
    """The rules are cancellation-free: each nilHecke row has one sign, in an
    affine and an indefinite type, for both signs of lam.  A row with one
    coefficient flipped must be caught."""
    from . import kring
    for R, lam, word in ((realization_from_preset("A2~"), (1, 1, 0, 0), (0, 1, 2, 1, 0, 2)),
                         (Realization(GCM.from_matrix([[2, -3], [-3, 2]])), (1, 1), (0, 1, 0, 1, 0))):
        W = WeylGroup(R)
        w = W.from_word(word)
        for sign in (1, -1):
            rows = kring.chevalley_recurrence(W, lam, w, sign)
            if fault := _sign_fault(rows, w, sign):
                return fault
            z, poly = next(iter(rows.items()))
            mu = next(iter(poly))
            if _sign_fault({**rows, z: {**poly, mu: -poly[mu]}}, w, sign) is None:
                return f"w={w!r} sign={sign}: a flipped coefficient at z={z!r} went undetected"
    return None


SCENARIOS = [
    ("finite-triangles", partial(_scn_triangles, [("A2", "1,1", ["e", "1", "2 1", "1 2 1"]),
                                                  ("B2", "1,2", ["2 1", "1 2 1", "2 1 2 1"])])),
    ("affine-triangle", partial(_scn_triangles, [("A2~", "1,1,0", ["0 1 2 1"])])),
    ("tree-fold", _scn_tree_fold),
    ("crystal-mass", _scn_crystal_mass),
    ("negative-control", _scn_negative_control),
    ("cancellation-free", _scn_cancellation_free),
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
