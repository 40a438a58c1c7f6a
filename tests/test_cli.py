import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellsieve import analysis, cli, hgmodes, optics
from bellsieve.hgmodes import DetectorPoint

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


def run_main(capsys, *args: str):
    """In-process `cli.main`: (exit code, stdout, stderr); an uncaught
    exception fails the calling test."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


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


def _axis(lo, hi, n):
    """The grid coordinates of a field map, as the per-point loop computed them."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _field_point(kind, pump, x1, y1, r2):
    """One map point as the per-point loop computes it: (amp, |amp|^2)."""
    amp, _ = hgmodes.coincidence_amplitude(kind, pump, DetectorPoint(x1, y1, r2.z), r2)
    a = abs(amp)
    return amp, a * a  # the map squares |amp| as a * a; abs(amp) ** 2 would call libm pow


def test_field_map_equals_the_per_point_evaluation(capsys):
    lo, hi, n, r2 = -0.004, 0.003, 101, DetectorPoint(3e-4, -2e-4, 0.7)
    assert n * n > 2 * cli._FIELD_BLOCK_POINTS  # the map spans several blocks
    code, out, err = run_main(capsys, "field", "--pump", "hg(1,2)", "--state", "phi-",
                              "--z", "0.7", f"--grid={lo}:{hi}:{n}", "--x2", "3e-4",
                              "--y2=-2e-4")
    assert (code, err) == (0, "")
    pump, axis, want = hgmodes.hg_pump(1, 2), _axis(lo, hi, n), []
    for y1 in axis:
        for x1 in axis:
            amp, abs2 = _field_point("phi-", pump, x1, y1, r2)
            want.append(",".join(map(cli._fmt, (x1, y1, amp.real, amp.imag, abs2))))
    assert out.splitlines()[2:] == want


def test_field_names_the_first_non_finite_point(capsys):
    code, out, err = run_main(capsys, "field", "--pump", "hg(100,0)", "--state", "psi+",
                              "--grid=-1:1:3")
    assert (code, out) == (2, "")
    assert err == ("error: amplitude at x1=-1, y1=-1 is not finite; "
                   "the pump order is too high for this grid\n")


def test_field_names_a_non_finite_point_in_a_later_block(capsys):
    # H_100(y) overflows only on the rows far out in y
    lo, hi, n, r2 = -0.01, 1.0, 101, DetectorPoint(0.0, 0.0, 0.5)
    pump, axis = hgmodes.hg_pump(0, 100), _axis(lo, hi, n)
    with np.errstate(over="ignore", invalid="ignore"):
        first = next((x1, y1) for y1 in axis for x1 in axis
                     if not math.isfinite(_field_point("phi+", pump, x1, y1, r2)[1]))
    assert axis.index(first[1]) * n >= cli._FIELD_BLOCK_POINTS
    code, out, err = run_main(capsys, "field", "--pump", "hg(0,100)", "--state", "phi+",
                              f"--grid={lo}:{hi}:{n}")
    assert (code, out) == (2, "")
    assert err == (f"error: amplitude at x1={cli._fmt(first[0])}, y1={cli._fmt(first[1])} "
                   "is not finite; the pump order is too high for this grid\n")


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


@pytest.mark.parametrize("argv,message", [
    (["--state", "psi-", "--overlap", "7"], "overlap must lie in [0, 1]"),
    (["--state", "psi-", "--overlap", "nan"], "--overlap"),
    (["--all-bell", "--format", "csv", "--overlap", "7"], "overlap must lie in [0, 1]"),
], ids=["state-7", "state-nan", "csv-7"])
def test_overlap_checked_in_every_bsa_mode(capsys, argv, message):
    code, out, err = run_main(capsys, "bsa", "--circuit", "incomplete_bsa", *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["field", "--state", "psi+", "--z", "nan"],
    ["field", "--state", "psi+", "--grid=-0.001:nan:3"],
    ["hom", "--state", "psi-", "--delays=0:10:5", "--sigma-l", "nan"],
    ["hom", "--state", "psi-", "--delays=0:10:5", "--sigma-l", "0"],
    ["bsa", "--circuit", "incomplete_bsa", "--all-bell", "--waist", "nan"],
    ["bsa", "--circuit", "incomplete_bsa", "--all-bell", "--pump-wavelength", "inf"],
    ["field", "--state", "psi+", "--pump", "hg(200,200)", "--grid=-0.001:0.001:3"],
    ["field", "--state", "psi+", "--pump", "hg(100,0)", "--grid=-1:1:3"],
    ["field", "--state", "psi+", "--waist", "1e-300", "--grid=-1:1:3"],
    ["field", "--state", "psi+", "--waist", "1e-200", "--grid=-1:1:3"],
], ids=["z-nan", "grid-nan", "sigma-l-nan", "sigma-l-0", "waist-nan", "wavelength-inf",
        "hg200-norm-overflow", "hg100-field-nan", "waist-1e-300-field", "waist-1e-200-field"])
def test_out_of_range_arguments_exit_2(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == "" and err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["bsa", "--circuit", "incomplete_bsa", "--all-bell", "--format", "csv"],
    ["hom", "--state", "psi-", "--delays=0:10:5"],
], ids=["bsa", "hom"])
def test_a_tiny_waist_only_matters_to_field(capsys, argv):
    code, out, err = run_main(capsys, *argv, "--waist", "1e-300")
    assert (code, err) == (0, "")
    assert out == run_main(capsys, *argv)[1]


def test_a_waist_too_small_for_field_is_named(capsys):
    # the Rayleigh range underflows to 0 (1e-300) or to a subnormal that z / zR
    # overflows (1e-160), or z / zR (1e-155, 1e-100) or zR / z (1e+300)
    # overflows when squared
    for waist in ("1e-300", "1e-160", "1e-155", "1e-100", "1e+300"):
        code, out, err = run_main(capsys, "field", "--state", "psi+", "--waist", waist,
                                  "--grid=-1:1:3")
        assert (code, out) == (2, ""), waist
        assert len(err.splitlines()) == 1 and f"waist {waist} m" in err


@pytest.mark.parametrize("argv,message", [
    (["--state", "psi+", "--pump-wavelength", "1e-320"], "pump wavelength 9.99988867183e-321 m"),
    (["--state", "psi-", "--waist", "1e10", "--z", "7.8e176"], "detection plane z 7.8e+176 m"),
    (["--state", "psi+", "--pump-wavelength", "1e300"], "pump wavelength 1e+300 m is out of range"),
    (["--state", "psi+", "--pump-wavelength", "1e-300"], "pump wavelength 1e-300 m is out of range"),
    (["--state", "psi+", "--z", "1e300"], "detection plane z 1e+300 m is out of range"),
    (["--state", "psi+", "--z", "1e-300"], "detection plane z 1e-300 m is out of range"),
    (["--state", "psi+", "--z", "1e-320"], "detection plane z 9.99988867183e-321 m is out of"),
    (["--state", "psi+", "--waist", "2e-3", "--z", "1e-320"],
     "detection plane z 9.99988867183e-321 m is out of"),
    (["--state", "psi+", "--pump-wavelength", "400e-9", "--z", "1e-320"],
     "detection plane z 9.99988867183e-321 m is out of"),
    (["--state", "psi+", "--z=0.001", "--grid=0.0:1.0:2", "--y2=1.4174190271400286e+149"],
     "--x2 0 m, --y2 1.41741902714e+149 m put the second detector out of range"),
    (["--state", "psi+", "--pump", "hg01", "--x2", "1e155"],
     "--x2 1e+155 m, --y2 0 m put the second detector out of range"),
    (["--state", "psi+", "--grid=-1e160:1e160:3"],
     "the grid '-1e160:1e160:3' is out of range for a field map"),
], ids=["wave-number-inf", "beam-radius-squared-overflows", "rayleigh-range-tiny",
        "rayleigh-range-huge", "plane-far", "plane-near", "plane-subnormal",
        "plane-subnormal-waist-2mm", "plane-subnormal-wavelength-400nm", "gauss-y2-far",
        "hg01-x2-far", "grid-far"])
def test_field_names_the_argument_out_of_range(capsys, argv, message):
    # 2 pi / 1e-320 is inf; w(z) = 1e160 is finite but hg_field squares it, and
    # the default 1 mm waist fails at that z as well (z / zR overflows when
    # squared), so z is named; with the default waist, z / zR (1e300) or zR / z
    # (1e-300) overflows when squared; z is named wherever the default waist and
    # wavelength fail at the same z (at 1e-320, zR / z is inf before it is
    # squared, whatever the waist or wavelength); a far second detector or grid
    # point squares its coordinate to inf, which is the pump order's fault only
    # where a Gaussian pump stays finite
    code, out, err = run_main(capsys, "field", "--grid=-1:1:3", *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and message in err


def test_hyper_state_on_two_input_circuit_names_the_need(capsys):
    code, _, err = run_main(capsys, "bsa", "--circuit", "incomplete_bsa", "--state", "hyper-psi-")
    assert code == 2
    assert "hyperentangled inputs need four declared input paths" in err


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def _run_capped(*args: str) -> subprocess.CompletedProcess:
    """A grid that never ends, or is too large, would allocate without bound
    or run until killed: run the CLI under a memory limit and a timeout."""
    return subprocess.run(
        [sys.executable, "-m", "bellsieve", *args],
        capture_output=True, text=True, env=_env({"OPENBLAS_NUM_THREADS": "1"}),
        preexec_fn=_limit_memory, timeout=60)


@pytest.mark.parametrize("delays", ["--delays=nan:10:1", "--delays=0:inf:1"])
def test_non_finite_delay_grid_exits_2(delays):
    cp = _run_capped("hom", "--state", "psi-", delays)
    assert cp.returncode == 2
    assert cp.stdout == "" and "Traceback" not in cp.stderr


@pytest.mark.parametrize("argv", [
    ["hom", "--state", "psi-", "--delays=0:1e12:1e-3"],
    ["field", "--state", "psi+", "--grid=-1:1:1000000"],
], ids=["hom-delays", "field-grid"])
def test_oversized_grid_exits_2(argv):
    cp = _run_capped(*argv)
    assert cp.returncode == 2
    assert cp.stdout == "" and f"more than {cli.MAX_ROWS}" in cp.stderr
    assert len(cp.stderr.splitlines()) == 1


@pytest.mark.parametrize("grid", ["-1e308:1e308:3", "-8.988465674311579e+307:8.988465674311579e+307:4"],
                         ids=["span-inf", "last-point-inf"])
def test_a_grid_too_wide_for_a_float_is_named(capsys, grid):
    # hi - lo is inf, or finite while 3 * ((hi - lo) / 3) rounds up to inf
    code, out, err = run_main(capsys, "field", "--state", "psi+", f"--grid={grid}")
    assert (code, out) == (2, "")
    assert err == f"error: grid {grid!r} is too wide: its span overflows the largest float\n"


def test_grids_up_to_the_row_cap_are_accepted():
    assert len(cli.parse_delays(f"0:{cli.MAX_ROWS - 1}:1")) == cli.MAX_ROWS
    assert cli.parse_grid("-1:1:1000")[2] ** 2 == cli.MAX_ROWS


def test_unwritable_out_path_exits_2(capsys, tmp_path: Path):
    target = tmp_path / "missing" / "x.json"
    code, _, err = run_main(capsys, "bsa", "--circuit", "incomplete_bsa", "--all-bell",
                            "--out", str(target))
    assert code == 2
    assert str(target) in err


def _set_first_port(port):
    return lambda doc: doc["layout"]["detectors"][0].update(port=port)


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["layout"]["detectors"][0].pop("path"), "needs 'id', 'path' and 'port'"),
    (lambda doc: doc.update(layout={"detectors": "x"}), "layout must hold a 'detectors' list"),
    (_set_first_port("nan"), "layout detector 'A_h' has port 'nan'"),
    (_set_first_port("inf"), "layout detector 'A_h' has port 'inf'"),
    (_set_first_port("abc"), "layout detector 'A_h' has port 'abc'"),
], ids=["detector-without-path", "detectors-not-a-list", "port-nan", "port-inf", "port-abc"])
def test_exit_code_3_on_malformed_layout(capsys, tmp_path: Path, edit, message):
    circuit = _edited_incomplete_bsa(tmp_path, edit)
    code, _, err = run_main(capsys, "bsa", "--circuit", circuit, "--all-bell")
    assert code == 3
    assert message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("field,value,message", [
    ("inputs", "12", "'inputs' must be a list of strings, got '12'"),
    ("inputs", 5, "'inputs' must be a list of strings, got 5"),
    ("inputs", ["1", 2], "'inputs' must be a list of strings, got ['1', 2]"),
    ("name", ["a"], "'name' must be a string, got ['a']"),
    ("version", 1.7, "'version' must be an integer, got 1.7"),
    ("version", math.inf, "'version' must be an integer, got inf"),
    ("version", True, "'version' must be an integer, got True"),
], ids=["inputs-string", "inputs-number", "inputs-mixed", "name-list", "version-float",
        "version-overflow", "version-bool"])
def test_exit_code_3_on_a_misread_top_level_field(capsys, tmp_path: Path, field, value, message):
    # each was read without complaint before: "12" split into ["1", "2"], a
    # list stringified into the output, 1.7 truncated to 1, 1e400 an overflow
    circuit = _edited_incomplete_bsa(tmp_path, lambda doc: doc.update({field: value}))
    code, out, err = run_main(capsys, "bsa", "--circuit", circuit, "--all-bell")
    assert (code, out) == (3, "")
    assert err == f"circuit schema error: {message}\n"


@pytest.mark.parametrize("port,angle", [("30", 30.0), ("-0", 0.0), ("45b", 135.0)])
def test_numeric_ports_are_still_accepted(port, angle):
    layout = analysis.layout_from_json({"detectors": [{"id": "d", "path": "A", "port": port}]})
    assert layout.by_path() == {"A": {angle: "d"}}


@pytest.mark.parametrize("argv,stacks", [
    (["bsa", "--circuit", "complete_bsa", "--all-hyper", "--format", "json"], [4, 4]),
    (["bsa", "--circuit", "complete_bsa", "--all-hyper", "--format", "csv"], [4]),
    (["bsa", "--circuit", "complete_bsa", "--state", "hyper-psi-"], [1]),
    (["hom", "--state", "psi-", "--delays=-900:900:25"], [1, 1]),
], ids=["bsa-json", "bsa-csv", "bsa-state", "hom"])
def test_each_table_is_computed_once(capsys, monkeypatch, argv, stacks):
    # one engine pass per table, all of its inputs in one stack; hom runs its
    # two tag sets once per Bell kind and joint parity
    calls = []
    run = optics.CompiledCircuit.run

    def counting(self, states):
        calls.append(len(states))
        return run(self, states)

    monkeypatch.setattr(optics.CompiledCircuit, "run", counting)
    analysis._hom_cross_outputs.cache_clear()
    code, _, _ = run_main(capsys, *argv)
    assert code == 0
    assert calls == stacks
