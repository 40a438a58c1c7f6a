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
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from bellsieve import cli

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


def main() -> None:
    os.chdir(Path(__file__).resolve().parent.parent)
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
