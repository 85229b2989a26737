"""Workloads: ladders of rungs, and the seeded case lists built from them.

A rung fixes a Cartan matrix, a weight, a command template and a word
length.  The seed picks which elements of that length the rung runs.  The
elements of the length layer whose answers have the same size under every
variant form a class; in practice a class is an element and its images under
the diagram automorphisms that fix the weight, and its members cost the same.
The layer, sorted by answer size (the item counts recorded in
``reference.json``), is cut into ``strata`` contiguous blocks of about equal
total size; each block contributes its middle class, and the seed draws the
element within that class.  So a seed changes the words the program sees but
not the cost of a pass, and figures from different seeds compare.

Only the generated words reach the program; the words come from
``words.py``, not from the measured tree.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import words

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
HYPERBOLIC = "bench/hyperbolic.json"  # relative to the checkout root

MATRICES = {
    "A1": [[2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A1~": [[2, -2], [-2, 2]],
    "A2~": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    HYPERBOLIC: [[2, -3], [-3, 2]],
}

SIGNS = (("--sign", "+1"), ("--sign", "-1"))
LS, ALCOVE = (("--realization", "ls"),), (("--realization", "alcove"),)


@dataclass(frozen=True)
class Rung:
    cartan: str  # preset name, or the --gcm-file path
    weight: str
    length: int
    template: tuple  # argv with "{w}" where the seeded word goes
    variants: tuple = SIGNS  # one case per variant: args appended to the argv
    strata: int = 1

    def matrix(self):
        return MATRICES[self.cartan]

    def cartan_args(self) -> list:
        flag = "--gcm-file" if self.cartan.endswith(".json") else "--cartan"
        return [flag, self.cartan]

    def word_text(self, word: tuple) -> str:
        if not word:
            return "e"
        names = [str(i) for i in range(len(self.matrix()))]
        if not self.cartan.endswith("~") and not self.cartan.endswith(".json"):
            names = [str(i + 1) for i in range(len(names))]  # finite presets count from 1
        return " ".join(names[i] for i in word)

    def argv(self, word: tuple, variant: tuple) -> list:
        head = [self.template[0], *self.cartan_args(), "--weight", self.weight]
        body = [a.replace("{w}", self.word_text(word)) for a in self.template[1:]]
        return head + body + list(variant)

    def all_argv(self) -> list:
        """Every case any seed can produce from this rung."""
        return [self.argv(w, v) for w in words.layer(self.matrix(), self.length) for v in self.variants]


def _chevalley(*extra):
    return ("chevalley", "--w", "{w}", *extra)


def _fixed_z(max_length):
    return ("chevalley", "--z", "{w}", "--max-length", str(max_length), "--model", "alcove")


def _opposite(max_length):
    return ("crystal", "--opposite", "--z", "{w}", "--max-length", str(max_length))


DEMAZURE = ("crystal", "--w", "{w}")
NILHECKE = ("--model", "nilhecke")

# Every case any seed can draw was run and timed once (see "seconds" in
# reference.json); the per-case timeout in run.py is far above all of them.
WORKLOADS = {
    # The headline command: `chevalley --model all`, which runs and
    # cross-checks LS paths, the alcove model and the nilHecke recurrence.
    "triangle": [
        Rung("A3", "1,1,1", 6, _chevalley()),
        Rung("B2", "1,2", 4, _chevalley()),
        Rung("G2", "2,1", 6, _chevalley()),
        Rung("A2~", "1,1,0", 6, _chevalley(), strata=2),
        # At length 7, Lambda_0 + Lambda_1 costs 0.5 to 3.4 s a case across the
        # layer, more spread than a pass can average; Lambda_0 keeps the length.
        Rung("A2~", "1,0,0", 7, _chevalley()),
        Rung("A1~", "1,1", 6, _chevalley()),
        Rung(HYPERBOLIC, "1,1", 4, _chevalley()),
    ],
    # Enumeration instead of rows: Demazure crystals, opposite Demazure sets
    # and the alcove-only fixed-z expansion.  Never calls lifts.down or the
    # T_i operators of kring.
    "crystal": [
        Rung("A3", "1,1,1", 6, DEMAZURE, LS),
        Rung("G2", "2,1", 6, DEMAZURE, ALCOVE),
        Rung("A2~", "1,1,0", 7, DEMAZURE, LS, strata=3),
        Rung("A1~", "1,1", 7, DEMAZURE, ALCOVE),
        Rung(HYPERBOLIC, "1,1", 4, DEMAZURE, LS),
        Rung("A3", "1,1,1", 2, _opposite(5), ALCOVE),
        Rung("G2", "2,1", 1, _opposite(5), LS),
        Rung("A2~", "1,1,0", 1, _opposite(4), ALCOVE),
        Rung("A1~", "1,1", 1, _opposite(6), LS),
        Rung(HYPERBOLIC, "1,1", 1, _opposite(4), ALCOVE),
        Rung("G2", "2,1", 1, _fixed_z(5)),
        Rung("A2~", "1,1,0", 2, _fixed_z(5)),
        Rung(HYPERBOLIC, "1,1", 1, _fixed_z(4)),
    ],
    # Long words through the nilHecke recurrence alone, with outputs of
    # several megabytes, so JSON encoding in the CLI shows.
    "nilhecke": [
        Rung("A3", "1,1,1", 6, _chevalley(*NILHECKE)),
        Rung("G2", "2,1", 6, _chevalley(*NILHECKE)),
        Rung("A2~", "1,1,0", 10, _chevalley(*NILHECKE), strata=3),
        Rung("A1~", "1,1", 12, _chevalley(*NILHECKE)),
        Rung(HYPERBOLIC, "1,1", 6, _chevalley(*NILHECKE)),
    ],
}

# Wall time of one pass, sized on a 2-core x86-64 virtual machine with
# CPython 3.11 at about three passes to a 30 s run.  It fixes how many passes
# a run of --seconds makes, the same for every seed and every commit, so that
# the sample counts behind the medians and percentiles do not move.
PASS_SECONDS = {"triangle": 10.0, "crystal": 10.0, "nilhecke": 10.0}

# The trivial job whose median wall time is setup_s: interpreter start,
# `import kmchev` and building a realization.
SETUP_ARGV = ["chevalley", "--cartan", "A1", "--weight", "1", "--w", "e"]


def case_key(argv) -> str:
    return json.dumps(list(argv))


def load_reference() -> dict:
    """{case_key: {"sha256": hex digest of stdout, "items": int, "seconds": float}}."""
    with open(REFERENCE) as fh:
        return json.load(fh)


def cases(workload: str, seed: int, reference: dict) -> list:
    """The argv of every case of one pass, in order."""
    rng = random.Random(seed)
    out = []
    for rung in WORKLOADS[workload]:
        for word in _draw(rung, rng, reference):
            out.extend(rung.argv(word, v) for v in rung.variants)
    return out


def _draw(rung: Rung, rng: random.Random, reference: dict) -> list:
    def size(word):
        return tuple(reference[case_key(rung.argv(word, v))]["items"] for v in rung.variants)

    sized = sorted((sum(size(w)), w) for w in words.layer(rung.matrix(), rung.length))
    drawn = []
    for block in strata(sized, rung.strata):
        middle = size(block[len(block) // 2])
        drawn.append(rng.choice([w for w in block if size(w) == middle]))
    return drawn


def strata(sized: list, k: int) -> list:
    """Cut a list of (size, word), sorted by size, into at most k contiguous
    blocks of about equal total size.  Words of equal size stay together
    (a pair swapped by a diagram symmetry has equal cost), and each group
    joins the block that holds the midpoint of its share.  Returns the
    non-empty blocks' words."""
    groups: dict[int, list] = {}
    for size, word in sized:
        groups.setdefault(size, []).append(word)
    total = sum(size for size, _ in sized)
    blocks: list[list] = [[] for _ in range(k)]
    acc = 0
    for size, group in groups.items():
        share = size * len(group)
        blocks[min(k - 1, int(k * (acc + share / 2) / total))].extend(group)
        acc += share
    return [b for b in blocks if b]


def all_cases() -> list:
    """Every case any seed of any workload can produce, plus the set-up job."""
    seen = {case_key(SETUP_ARGV): SETUP_ARGV}
    for rungs in WORKLOADS.values():
        for rung in rungs:
            for argv in rung.all_argv():
                seen.setdefault(case_key(argv), argv)
    return list(seen.values())
