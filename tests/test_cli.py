import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if extra:
        env.update(extra)
    return env


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "bellsieve", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=_env())


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "bsa" in cp.stdout and "hom" in cp.stdout and "field" in cp.stdout


def test_bsa_incomplete_hg01(tmp_path: Path):
    out = tmp_path / "bsa.json"
    cp = run_cli("bsa", "--circuit", "incomplete_bsa", "--pump", "hg01",
                 "--all-bell", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    assert doc["report"]["coincidence_basis_only"] is True
    assert len(doc["report"]["classes"]) == 3
    assert doc["report"]["bits"] == json.loads(json.dumps(math.log2(3)))
    assert doc["signature_table"]["entries"]["psi-"] == {
        "A_h|A_v": 0.5, "B_h|B_v": 0.5}


def test_bsa_complete_hg01(tmp_path: Path):
    out = tmp_path / "bsa.json"
    cp = run_cli("bsa", "--circuit", "complete_bsa", "--pump", "hg01",
                 "--all-hyper", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    assert len(doc["report"]["classes"]) == 4
    assert doc["report"]["coincidence_basis_only"] is True
    assert doc["report"]["bits"] == 2.0


def test_bsa_complete_gauss_needs_photon_counting(tmp_path: Path):
    out = tmp_path / "bsa.json"
    cp = run_cli("bsa", "--circuit", "complete_bsa", "--pump", "gauss",
                 "--all-hyper", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    assert len(doc["report"]["classes"]) == 4
    assert doc["report"]["coincidence_basis_only"] is False


def test_bsa_csv_format(tmp_path: Path):
    out = tmp_path / "bsa.csv"
    cp = run_cli("bsa", "--circuit", "incomplete_bsa", "--pump", "gauss",
                 "--all-bell", "--format", "csv", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "state,event,probability"
    assert "psi-,A_h|B_v,0.5" in lines


def test_hom_dip_and_peak(tmp_path: Path):
    out = tmp_path / "hom.csv"
    cp = run_cli("hom", "--pump", "gauss", "--state", "psi-",
                 "--delays=-900:900:30", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# pump=hg00 state=psi-")
    assert lines[1] == "delta_um,p_coinc"
    rows = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[2:]}
    assert rows[0.0] == 1.0
    assert rows[-900.0] < 0.52 and rows[900.0] < 0.52
    assert rows[300.0] == rows[-300.0]

    cp = run_cli("hom", "--pump", "hg01", "--state", "psi-",
                 "--delays=-900:900:30", "--out", str(out))
    rows = {float(r.split(",")[0]): float(r.split(",")[1])
            for r in out.read_text().strip().splitlines()[2:]}
    assert rows[0.0] == 0.0
    assert rows[900.0] > 0.48


def test_field_even_pump_psi_plus_grid_vanishes(tmp_path: Path):
    out = tmp_path / "field.csv"
    cp = run_cli("field", "--pump", "gauss", "--state", "psi+", "--z", "0.5",
                 "--grid=-0.002:0.002:9", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "x1_m,y1_m,re,im,abs2"
    assert len(lines) == 2 + 81
    assert all(r.split(",")[4] == "0" for r in lines[2:])


def test_field_magnitude_symmetric_under_y_flip(tmp_path: Path):
    out = tmp_path / "field.csv"
    cp = run_cli("field", "--pump", "hg01", "--state", "phi+", "--z", "0.5",
                 "--grid=-0.002:0.002:9", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = {}
    for r in out.read_text().strip().splitlines()[2:]:
        x, y, re, im, a2 = (float(v) for v in r.split(","))
        rows[(x, y)] = a2
    for (x, y), a2 in rows.items():
        assert rows[(x, -y)] == a2


def test_exit_code_2_on_bad_config(tmp_path: Path):
    assert run_cli("field", "--pump", "gauss", "--state", "psi+", "--z", "-1").returncode == 2
    assert run_cli("hom", "--pump", "gauss", "--state", "psi-", "--delays=5:1:1").returncode == 2
    assert run_cli("bsa", "--circuit", "nowhere.json", "--pump", "gauss", "--all-bell").returncode == 2
    assert run_cli("bsa", "--circuit", "incomplete_bsa", "--pump", "hg9",
                   "--all-bell").returncode == 2


def test_exit_code_3_on_schema_error(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"paths": ["1"], "elements": [{"type": "warp"}]}))
    cp = run_cli("bsa", "--circuit", str(bad), "--pump", "gauss", "--all-bell")
    assert cp.returncode == 3
    assert "schema" in cp.stderr


def _edited_incomplete_bsa(tmp_path: Path, edit) -> str:
    doc = json.loads((Path(SRC) / "bellsieve" / "fixtures" / "incomplete_bsa.json").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_exit_code_3_on_string_boolean(tmp_path: Path):
    circuit = _edited_incomplete_bsa(
        tmp_path, lambda doc: doc["elements"][0].update(reflect_flips_y="false"))
    cp = run_cli("bsa", "--circuit", circuit, "--pump", "hg01", "--all-bell")
    assert cp.returncode == 3
    assert "reflect_flips_y" in cp.stderr


def test_exit_code_3_on_non_finite_number(tmp_path: Path):
    circuit = _edited_incomplete_bsa(tmp_path, lambda doc: doc["elements"].append(
        {"type": "wave_plate", "path": "A_h", "kind": "half", "fast_axis": math.nan}))
    cp = run_cli("bsa", "--circuit", circuit, "--pump", "hg01", "--all-bell")
    assert cp.returncode == 3
    assert "fast_axis" in cp.stderr and "Traceback" not in cp.stderr


def test_outputs_are_byte_stable(tmp_path: Path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        cp = run_cli("bsa", "--circuit", "incomplete_bsa", "--pump", "hg01",
                     "--all-bell", "--overlap", "0.85", "--out", str(target))
        assert cp.returncode == 0, cp.stderr
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for target in (c, d):
        run_cli("hom", "--pump", "hg01", "--state", "phi-",
                "--delays=-500:500:25", "--out", str(target))
    assert c.read_bytes() == d.read_bytes()


def test_fixture_env_override(tmp_path: Path):
    cp = subprocess.run(
        [sys.executable, "-m", "bellsieve", "bsa", "--circuit", "incomplete_bsa",
         "--pump", "gauss", "--all-bell"],
        capture_output=True, text=True,
        env=_env({"BELLSIEVE_FIXTURES": str(tmp_path)}),
    )
    assert cp.returncode == 2  # fixture dir overridden to an empty directory
