"""Output-identity sweep: in-process CLI calls hashed into one digest.

Run it before and after a change that should not move any output:

    PYTHONPATH=src python tests/sweep.py

The first 256 calls are `bsa` on both bundled circuits x pumps
gauss/hg01/hg(1,2)/hg(0,3) x overlaps 0/0.3/0.85/0.88/1 x policies
strict/renormalize x json/csv (160), one `--state` run per circuit, Bell kind,
pump and format (64), and `hom` scans per Bell kind and pump with and without
`--sigma-l 200` (32).  Then come `field` maps per pump and Bell kind on a
side-21 grid with the second photon off axis (16), one side-101 map, and
`bsa --all-bell` on tests/golden/rotated_pbs.json (PBSs at 22.5 deg, H/V and
45/45b detectors) for gauss and hg01 in json and csv (4).  Each call
contributes one JSON line [argv, exit code, stdout, stderr] to a sha256; the
script prints the call count and the hex digest after the first 256 calls and
after all of them.  Every call must exit 0 with nothing on stderr: the script
names each one that does not on stderr and then exits 1.  It runs from the
repository root whatever the working directory.  pytest does not collect this
file.

    PYTHONPATH=src python tests/sweep.py --against REV

runs the same calls on the package as committed at REV as well (a temporary
`git archive` checkout, no network) and compares each call: exit code and
stderr exactly, CSV, `hom` and `field` stdout byte for byte, and `bsa` JSON
parsed, with the same keys and numbers within 1e-15.  It lists every call
whose JSON numbers moved, with the largest deviation, and every other
difference; it exits 1 on a difference and 0 otherwise.
"""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bellsieve import cli

ROOT = Path(__file__).resolve().parent.parent
JSON_TOL = 1e-15  # largest absolute move of a JSON number that counts as a move
PUMPS = ("gauss", "hg01", "hg(1,2)", "hg(0,3)")
KINDS = ("psi+", "psi-", "phi+", "phi-")
CIRCUITS = (("incomplete_bsa", "--all-bell", ""), ("complete_bsa", "--all-hyper", "hyper-"))


def calls():
    for circuit, flag, _ in CIRCUITS:
        for pump in PUMPS:
            for overlap in ("0", "0.3", "0.85", "0.88", "1"):
                for policy in ("strict", "renormalize"):
                    for fmt in ("json", "csv"):
                        yield ["bsa", "--circuit", circuit, "--pump", pump, flag,
                               "--overlap", overlap, "--policy", policy, "--format", fmt]
    for circuit, _, prefix in CIRCUITS:
        for kind in KINDS:
            for pump in PUMPS:
                for fmt in ("json", "csv"):
                    yield ["bsa", "--circuit", circuit, "--pump", pump,
                           "--state", prefix + kind, "--format", fmt]
    for kind in KINDS:
        for pump in PUMPS:
            for sigma in ([], ["--sigma-l", "200"]):
                yield ["hom", "--pump", pump, "--state", kind, "--delays=-900:900:25", *sigma]


def more_calls():
    for pump in PUMPS:
        for kind in KINDS:
            yield ["field", "--pump", pump, "--state", kind, "--grid=-0.003:0.003:21",
                   "--x2", "2e-4", "--y2=-3e-4"]
    yield ["field", "--pump", "hg(1,2)", "--state", "psi-", "--z", "1.0",
           "--grid=-0.003:0.003:101", "--x2", "5e-4", "--y2=-5e-4"]
    for pump in ("gauss", "hg01"):
        for fmt in ("json", "csv"):
            yield ["bsa", "--circuit", "tests/golden/rotated_pbs.json", "--pump", pump,
                   "--all-bell", "--format", fmt]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def all_calls():
    yield from calls()
    yield from more_calls()


def is_json(argv) -> bool:
    return argv[0] == "bsa" and "csv" not in argv


def deviation(a, b) -> float:
    """Largest absolute difference between the numbers of two parsed JSON
    documents of the same shape; inf when their shapes, keys or other values
    differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return math.inf
        return max((deviation(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((deviation(x, y) for x, y in zip(a, b)), default=0.0)
    numbers = (int, float)
    if (isinstance(a, numbers) and isinstance(b, numbers)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return abs(a - b)
    return 0.0 if type(a) is type(b) and a == b else math.inf


def compare(argv, ours, theirs):
    """None if the two (exit code, stdout, stderr) results are identical,
    ("moved", deviation) if only JSON numbers moved within JSON_TOL, and
    ("differs", what) otherwise."""
    if ours[0] != theirs[0]:
        return "differs", f"exit {ours[0]} against {theirs[0]}"
    if ours[2] != theirs[2]:
        return "differs", "stderr"
    if ours[1] == theirs[1]:
        return None
    if is_json(argv):
        try:
            dev = deviation(json.loads(ours[1]), json.loads(theirs[1]))
        except json.JSONDecodeError:
            dev = math.inf
        if dev <= JSON_TOL:
            return "moved", dev
        return "differs", f"JSON moved by {dev!r}"
    return "differs", "stdout bytes"


def record(path: str) -> None:
    """Write each call's [argv, exit code, stdout, stderr] as one JSON line,
    after a first line naming the package file that ran."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"package": cli.__file__}) + "\n")
        for argv in all_calls():
            fh.write(json.dumps([argv, *run(argv)]) + "\n")


def run_at(rev: str):
    """The results of every call on the package as committed at `rev`."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        out = os.path.join(tmp, "sweep.jsonl")
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src")}
        subprocess.run([sys.executable, __file__, "--record", out], env=env, check=True)
        with open(out, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            if not header["package"].startswith(tmp):
                sys.exit(f"sweep: the run at {rev} imported {header['package']}")
            return [tuple(json.loads(line)[1:]) for line in fh]


def against(rev: str) -> None:
    theirs = run_at(rev)
    counts = {"identical": 0, "moved": 0, "differs": 0}
    for argv, other in zip(all_calls(), theirs, strict=True):
        verdict = compare(argv, run(argv), other)
        counts["identical" if verdict is None else verdict[0]] += 1
        if verdict is not None:
            print(f"{verdict[0]} {verdict[1]}: {' '.join(argv)}")
    print(f"calls {sum(counts.values())} against {rev}: " +
          ", ".join(f"{n} {what}" for what, n in counts.items()))
    if counts["differs"]:
        sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="compare every call with its result at REV")
    parser.add_argument("--record", metavar="FILE", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.record:
        record(args.record)
        return
    if args.against:
        against(args.against)
        return
    digest = hashlib.sha256()
    count = 0
    failed = []
    for group in (calls(), more_calls()):
        for argv in group:
            code, out, err = run(argv)
            digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
            count += 1
            if code != 0 or err:
                failed.append(f"exit {code}: {' '.join(argv)}: {err.strip()}")
        print(f"calls {count}")
        print(f"sha256 {digest.hexdigest()}")
    for line in failed:
        print(f"sweep call failed: {line}", file=sys.stderr)
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
