"""Census of i-string interaction patterns against the classification chart.

Sweeps every admissible (i-string, base, i) configuration in a family of
Demazure crystals and tallies which column of the chart (scripts/chart.py)
each one matches.  A
configuration no column accepts would be a bug; the census prints the
frequency of each column so rare branch cases are visible.

    python3 scripts/chart_census.py [--finite A2 B2 G2] [--affine-length 4]
"""

import argparse
from collections import Counter

from chart import all_istrings, classify_string
from kmchev.cartan import realization_from_preset
from kmchev.lspath import demazure_crystal, iota, phi
from kmchev.weyl import WeylGroup


def ball(W, length_bound):
    """The elements of length <= length_bound in (length, word) order, one
    length at a time by left multiplication."""
    out, layer = [], [W.e]
    for k in range(1, length_bound + 2):
        out += layer
        layer = sorted({u for w in layer for i in range(W.n) if (u := W.lmul(i, w)).length == k}, key=lambda u: u.key)
        if not layer:
            break
    return out


def census(W, lam, pool, bases, tally, unmatched):
    for i in range(W.n):
        for S in all_istrings(W, pool, i):
            for z in bases:
                if W.lmul(i, z).length > z.length and W.bruhat_leq(
                    W.coset_min(z, lam), phi(S.head)
                ):
                    try:
                        tally["up:" + classify_string(W, S, z, i, "up")] += 1
                    except LookupError:
                        unmatched.append((lam, i, z, S))
            for w in bases:
                if W.lmul(i, w).length < w.length and W.bruhat_leq(
                    iota(S.tail), W.coset_min(w, lam)
                ):
                    try:
                        tally["down:" + classify_string(W, S, w, i, "down")] += 1
                    except LookupError:
                        unmatched.append((lam, i, w, S))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--finite", nargs="*", default=["A2", "B2", "G2"])
    ap.add_argument("--affine-length", type=int, default=4,
                    help="length bound for the affine rank-2 sweep (0 skips it)")
    args = ap.parse_args()

    tally: Counter = Counter()
    unmatched: list = []

    for preset in args.finite:
        R = realization_from_preset(preset)
        W = WeylGroup(R)
        group = ball(W, 20)
        w0 = max(group, key=lambda u: u.length)
        for lam in ((1, 0), (0, 1), (1, 1), (2, 1)):
            pool = demazure_crystal(W, lam, w0)
            census(W, lam, pool, group, tally, unmatched)
        print(f"{preset}: cumulative {sum(tally.values())} configurations")

    if args.affine_length > 0:
        R = realization_from_preset("A2~")
        W = WeylGroup(R)
        lam = (1, 1, 0, 0)
        w = W.from_word((0, 1, 2, 1))
        census(W, lam, demazure_crystal(W, lam, w),
               ball(W, args.affine_length), tally, unmatched)
        print(f"A2~: cumulative {sum(tally.values())} configurations")

    print("\ncolumn frequencies")
    for key in sorted(tally):
        print(f"  {key:12s} {tally[key]:6d}")
    print(f"\ntotal {sum(tally.values())}, unmatched {len(unmatched)}")
    for lam, i, base, S in unmatched[:10]:
        print(f"  UNMATCHED lam={lam} i={i} base={base!r} string={S!r}")
    return 1 if unmatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
