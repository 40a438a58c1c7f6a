"""CLI outputs pinned against the files in tests/golden/.

CSV is compared byte for byte.  JSON is compared after parsing, numbers within
ABS_TOL, so that a last-bit difference in a BLAS call on another host does not
fail the test.  To rewrite the golden files after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from bellsieve import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
ABS_TOL = 1e-12


def _cases():
    out = {}
    for circuit, flag in (("incomplete_bsa", "--all-bell"), ("complete_bsa", "--all-hyper")):
        for pump in ("gauss", "hg01"):
            for fmt in ("json", "csv"):
                out[f"bsa_{circuit}_{pump}.{fmt}"] = [
                    "bsa", "--circuit", circuit, "--pump", pump, flag,
                    "--overlap", "0.88", "--format", fmt]
    # PBSs at 22.5 deg behind a wave plate at 11.25 deg, read out in H/V and 45/45b
    for pump in ("gauss", "hg01"):
        for fmt in ("json", "csv"):
            out[f"bsa_rotated_pbs_{pump}.{fmt}"] = [
                "bsa", "--circuit", str(GOLDEN / "rotated_pbs.json"), "--pump", pump,
                "--all-bell", "--format", fmt]
    out["bsa_incomplete_bsa_state.json"] = [
        "bsa", "--circuit", "incomplete_bsa", "--pump", "hg01", "--state", "psi+"]
    out["bsa_complete_bsa_state.json"] = [
        "bsa", "--circuit", "complete_bsa", "--pump", "gauss", "--state", "hyper-phi-"]
    out["hom_psi-_gauss.csv"] = [
        "hom", "--pump", "gauss", "--state", "psi-", "--delays=-900:900:25"]
    out["hom_phi+_hg01_sigma.csv"] = [
        "hom", "--pump", "hg01", "--state", "phi+", "--delays=-600:600:50",
        "--sigma-l", "200"]
    return out


CASES = _cases()


def _run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _assert_close(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
        assert type(got) in (int, float), where
        assert abs(got - want) <= ABS_TOL, f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    got = _run(CASES[name])
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        _assert_close(json.loads(got), json.loads(want))
    else:
        assert got == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(_run(argv), encoding="utf-8")
