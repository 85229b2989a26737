"""Walk the running affine rank-2 example end to end.

Prints the Demazure crystal of w = s0 s1 s2 s1 for lam = Lambda_0 + Lambda_1,
the lift data attached to each path, the coefficient rows from all three
models, and (optionally) writes the DOT renderings of the crystal graph and
of both adapted-sequence trees.

    python3 scripts/affine_demo.py [--out-dir DIR]
"""

import argparse
import pathlib

from kmchev.alcove import (
    chevalley_alcove,
    enumerate_tree_antidominant,
    enumerate_tree_dominant,
    format_hyperplane,
    tree_dot,
)
from kmchev.cartan import realization_from_preset, wt_neg
from kmchev.kring import chevalley_recurrence
from kmchev.lspath import (
    chevalley_ls,
    crystal_dot,
    demazure_crystal,
    down_path,
    endpoint,
    format_path,
    path_key,
    up_path,
)
from kmchev.weyl import WeylGroup

LAM_COORDS = (1, 1, 0)
W_WORD = (0, 1, 2, 1)


def poly_str(R, poly):
    parts = []
    for mu in sorted(poly):
        c = poly[mu]
        sign = "-" if c < 0 else "+"
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(f"{sign}{mag}e[{R.format_weight(mu)}]")
    return " ".join(parts).lstrip("+") or "0"


def show_rows(R, title, rows):
    print(f"\n{title}")
    for z in sorted(rows, key=lambda u: u.key):
        print(f"  [O_{z!r}] : {poly_str(R, rows[z])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", help="write crystal.dot / tree_dom.dot / tree_anti.dot here")
    args = ap.parse_args()

    R = realization_from_preset("A2~")
    W = WeylGroup(R)
    lam = (*LAM_COORDS, 0)
    w = W.from_word(W_WORD)
    print(f"lam = Lambda_0 + Lambda_1 = ({R.format_weight(lam)}),  w = {w!r}")

    crystal = demazure_crystal(W, lam, w)
    print(f"\nDemazure crystal: {len(crystal)} paths")
    z_up = W.from_word((1, 2))
    for p in sorted(crystal, key=path_key):
        marks = [f"wt={R.format_weight(endpoint(W, p))}"]
        marks.append(f"down(w)={down_path(W, w, p)!r}")
        if (x := up_path(W, z_up, p)) is not None:
            marks.append(f"up(s1*s2)={x!r}")
        print(f"  {format_path(p):44s} {'  '.join(marks)}")

    dom_tree = enumerate_tree_dominant(W, lam, w)
    anti_tree = enumerate_tree_antidominant(W, lam, w)
    print(f"\nadapted-sequence trees: {len(dom_tree)} increasing, {len(anti_tree)} decreasing vertices")
    for seq, _ in dom_tree:
        if len(seq.hs) == 1:
            print(f"  root edge {format_hyperplane(lam, seq.hs[0])} -> {seq.z!r}")

    ok = {}
    for sign, title, mu in ((1, "[L^+lam]", lam), (-1, "[L^-lam]", wt_neg(lam))):
        rows = chevalley_ls(W, lam, w, sign, crystal)
        show_rows(R, f"{title} rows (LS model)", rows)
        ok[sign] = rows == chevalley_alcove(W, lam, w, sign) == chevalley_recurrence(W, w, mu)
    print(f"\nLS == alcove == nilHecke: dominant {ok[1]}, antidominant {ok[-1]}")

    if args.out_dir:
        out = pathlib.Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "crystal.dot").write_text(crystal_dot(W, sorted(crystal, key=path_key)))
        (out / "tree_dom.dot").write_text(tree_dot(W, lam, dom_tree))
        (out / "tree_anti.dot").write_text(tree_dot(W, lam, anti_tree))
        print(f"wrote crystal.dot, tree_dom.dot, tree_anti.dot to {out}")

    return 0 if all(ok.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
