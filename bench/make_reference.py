"""Rebuild reference.json: run every case any seed can produce, once.

    python3 bench/make_reference.py

Records, per case argv, the sha256 of stdout, the number of output items
(Laurent terms for ``chevalley``, elements for ``crystal``) and the wall time
of that one run.  Run it only on a commit whose outputs are known to be right:
every later run is checked against these digests.
"""
from __future__ import annotations

import hashlib
import json
import sys

import cases
import run


def items(stdout: bytes) -> int:
    doc = json.loads(stdout)
    if "elements" in doc:
        return len(doc["elements"])
    return sum(len(row["terms"]) for row in doc["rows"])


def main() -> int:
    reference = {}
    todo = cases.all_cases()
    for n, argv in enumerate(todo, 1):
        res = run.run_cli(argv, run.CASE_TIMEOUT)
        if res["timed_out"] or res["rc"] != 0:
            print(f"error: {argv} failed: rc={res['rc']} {res['stderr'][-300:]}", file=sys.stderr)
            return 1
        reference[cases.case_key(argv)] = {
            "sha256": hashlib.sha256(res["stdout"]).hexdigest(),
            "items": items(res["stdout"]),
            "seconds": round(res["seconds"], 3),
        }
        print(f"[{n}/{len(todo)}] {res['seconds']:.2f} s {reference[cases.case_key(argv)]['items']} items :: {argv}",
              flush=True)
    with open(cases.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
