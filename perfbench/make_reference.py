"""Regenerate reference/analyzer.json, the numbers the `analyzer` checks use.

Run from the repository root:  python3 perfbench/make_reference.py

It records, for each bundled circuit and pump, the ideal signature table, the
class partition and the per-state success at overlap 1 and overlap 0 (the
mixed model is linear in between), and for each pump and Bell state the
interfering and distinguishable HOM coincidence probabilities.  The file was
made with the seed version of bellsieve; regenerate it only when the physics
is meant to change, never to make a failing benchmark pass.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bellsieve import twophoton  # noqa: E402

from workloads import REFERENCE, run_cli  # noqa: E402


def _cli_json(argv):
    code, text = run_cli(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads(text)


def main() -> None:
    ref = {"bsa": {}, "hom": {}}
    for circuit, flag in (("incomplete_bsa", "--all-bell"), ("complete_bsa", "--all-hyper")):
        for pump in ("gauss", "hg01"):
            base = ["bsa", "--circuit", circuit, "--pump", pump, flag]
            ideal = _cli_json(base + ["--overlap", "1"])
            dist = _cli_json(base + ["--overlap", "0"])
            report = ideal["report"]
            ref["bsa"][f"{circuit}/{pump}"] = {
                "entries": ideal["signature_table"]["entries"],
                "classes": report["classes"],
                "bits": report["bits"],
                "coincidence_basis_only": report["coincidence_basis_only"],
                "success": {
                    k: {o: {f: doc["report"]["success"]["per_state"][k][f]
                            for f in ("success", "wrong", "discarded")}
                        for o, doc in (("o1", ideal), ("o0", dist))}
                    for k in twophoton.BELL_KINDS
                },
            }
    for pump in ("gauss", "hg01"):
        for kind in twophoton.BELL_KINDS:
            # delay 0 is full overlap; 0.1 m is ~200 coherence lengths, overlap 0
            code, text = run_cli(["hom", "--pump", pump, "--state", kind,
                                  "--delays=0:100000:100000"])
            if code != 0:
                raise SystemExit(f"hom {pump} {kind} exited {code}")
            rows = [line.split(",") for line in text.splitlines()[2:]]
            ref["hom"][f"{pump}/{kind}"] = {"p_int": float(rows[0][1]),
                                            "p_dist": float(rows[1][1])}
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
