"""Command-line interface.

Subcommands:
  bsa    signature table + discrimination report for a Bell-state analyzer
  hom    two-photon interference scan over a relative-delay grid (CSV)
  field  coincidence-amplitude magnitude map over (x1, y1), r2 fixed (CSV)

Bundled golden circuits ("incomplete_bsa", "complete_bsa") are resolved from
the package fixtures; the BELLSIEVE_FIXTURES environment variable overrides
the fixture directory.  Exit codes: 0 success, 2 invalid configuration,
3 circuit schema error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from importlib import resources
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, hgmodes
from .analysis import OverlapModel, layout_from_json
from .hgmodes import DetectorPoint, PumpProfile, coincidence_amplitude
from .optics import Circuit, CircuitSchemaError, load_circuit
from .twophoton import BELL_KINDS


class ConfigError(ValueError):
    pass


MAX_ROWS = 10**6  # output rows of one hom scan or field map, checked before allocating


def _fmt(x: float) -> str:
    return f"{x:.12g}"


_ROW = "%s,%s,%.12g,%.12g,%.12g"  # one field-map row: x1, y1 as _fmt text, then re, im, abs2
_FIELD_BLOCK_POINTS = 4096  # grid points per array call of a field map


def finite_float(text: str) -> float:
    """argparse type of every float option: NaN and infinities are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def fixtures_dir() -> str:
    env = os.environ.get("BELLSIEVE_FIXTURES")
    if env:
        return env
    return str(resources.files("bellsieve") / "fixtures")


def resolve_circuit(spec: str) -> Circuit:
    candidates = [spec]
    base = spec if spec.endswith(".json") else spec + ".json"
    candidates.append(os.path.join(fixtures_dir(), base))
    for cand in candidates:
        if os.path.exists(cand):
            return load_circuit(cand)
    raise ConfigError(f"circuit {spec!r} not found (searched {candidates})")


_HG_RE = re.compile(r"^hg[\s:(]*(\d+)\s*[,:]?\s*(\d+)\)?$", re.IGNORECASE)


def parse_pump(spec: str, waist: float, wavelength: float) -> PumpProfile:
    s = spec.strip().lower()
    if s in ("gauss", "gaussian", "hg00"):
        return hgmodes.hg_pump(0, 0, waist, wavelength)
    if s == "hg01":
        return hgmodes.hg_pump(0, 1, waist, wavelength)
    m = _HG_RE.match(s)
    if m:
        return hgmodes.hg_pump(int(m.group(1)), int(m.group(2)), waist, wavelength)
    raise ConfigError(f"cannot parse pump {spec!r} (expected gauss, hg01 or hg(m,n))")


def parse_state_kind(spec: str) -> Tuple[str, bool]:
    """Returns (bell kind, hyper flag)."""
    s = spec.strip().lower()
    hyper = s.startswith("hyper-")
    if hyper:
        s = s[len("hyper-"):]
    if s not in BELL_KINDS:
        raise ConfigError(f"unknown state {spec!r} (expected psi+|psi-|phi+|phi- or hyper-...)")
    return s, hyper


def parse_delays(spec: str) -> List[float]:
    """Delay grid 'from:to:step' in micrometers, inclusive endpoints."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("delays must be from:to:step (micrometers)")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad delay grid {spec!r}: {exc}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"delay grid {spec!r} needs finite numbers")
    if step <= 0 or hi < lo:
        raise ConfigError("delay grid needs step > 0 and to >= from")
    if (hi - lo) / step + 1 > MAX_ROWS:
        raise ConfigError(f"delay grid {spec!r} has more than {MAX_ROWS} points")
    out = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-9 * max(abs(hi), 1.0):
            break
        out.append(v)
        k += 1
    if not out:
        raise ConfigError("delay grid is empty")
    return out


def parse_grid(spec: str) -> Tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("grid must be min:max:npoints (meters)")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: {exc}") from exc
    if not all(map(math.isfinite, (lo, hi))):
        raise ConfigError(f"grid {spec!r} needs finite bounds")
    if n < 2 or hi <= lo:
        raise ConfigError("grid needs npoints >= 2 and max > min")
    if not math.isfinite(lo + (hi - lo) / (n - 1) * (n - 1)):  # the last axis point of cmd_field
        raise ConfigError(f"grid {spec!r} is too wide: its span overflows the largest float")
    if n * n > MAX_ROWS:
        raise ConfigError(f"grid {spec!r} has {n}^2 points, more than {MAX_ROWS}")
    return lo, hi, n


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_bsa(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    pump = parse_pump(args.pump, args.waist, args.pump_wavelength)
    if circuit.layout is None:
        raise ConfigError(f"circuit {circuit.name!r} bundles no detector layout")
    layout = layout_from_json(circuit.layout)

    if args.all_bell or args.all_hyper:
        kind, hyper = None, bool(args.all_hyper)
    elif args.state:
        kind, hyper = parse_state_kind(args.state)
    else:
        raise ConfigError("choose --all-bell, --all-hyper or --state")
    inputs = analysis.prepare_inputs(circuit, pump, hyper=hyper)
    if kind is not None:
        inputs = [(args.state, state) for k, state in inputs if k == kind]
    if not 0.0 <= args.overlap <= 1.0:
        raise ConfigError("overlap must lie in [0, 1]")

    table = analysis.signature_table(
        circuit, inputs, layout, pump_parity=pump.joint_parity, overlap=args.overlap
    )

    if args.format == "csv":
        lines = ["state,event,probability"]
        for label in sorted(table.entries):
            for ev, p in sorted(table.entries[label].items()):
                lines.append(f"{label},{'|'.join(ev)},{_fmt(p)}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    report = analysis.classify(table)
    doc = {
        "circuit": circuit.name or args.circuit,
        "pump": {
            "m": pump.mode.m,
            "n": pump.mode.n,
            "waist_m": pump.mode.waist,
            "wavelength_m": pump.mode.wavelength,
            "joint_parity": pump.joint_parity,
        },
        "signature_table": table.to_json(),
        "report": {
            "classes": [list(c) for c in report.classes],
            "bits": report.bits,
            "coincidence_basis_only": analysis.coincidence_basis_only(table),
        },
    }
    if len(inputs) == 4:
        dist_inputs = analysis.prepare_inputs(circuit, pump, analysis.DISTINGUISHABLE, hyper)
        dist = analysis.signature_table(circuit, dist_inputs, layout)
        success = analysis.score_success(table, dist, args.overlap, args.policy)
        doc["report"]["success"] = success.to_json()
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_hom(args: argparse.Namespace) -> int:
    pump = parse_pump(args.pump, args.waist, args.pump_wavelength)
    kind, hyper = parse_state_kind(args.state)
    if hyper:
        raise ConfigError("hom scans take plain Bell states")
    deltas_um = parse_delays(args.delays)
    sigma_l = analysis.DEFAULT_SIGMA_L if args.sigma_l is None else args.sigma_l * 1e-6
    model = OverlapModel(sigma_l=sigma_l)
    curve = analysis.hom_scan(kind, pump, [d * 1e-6 for d in deltas_um], model)
    header = (
        f"# pump=hg{pump.mode.m}{pump.mode.n} state={args.state} "
        f"sigma_l_um={_fmt(sigma_l * 1e6)}\n"
    )
    lines = [header + "delta_um,p_coinc"]
    for d_um, (_, p) in zip(deltas_um, curve):
        lines.append(f"{_fmt(d_um)},{_fmt(p)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _field_amplitudes(kind: str, pump: PumpProfile, r1: DetectorPoint, r2: DetectorPoint):
    """(amplitude, |amplitude|^2) at r1, r2 fixed; an argument out of range
    overflows to inf/NaN, which the caller reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        amp, _ = coincidence_amplitude(kind, pump, r1, r2)
        return amp, np.hypot(amp.real, amp.imag) ** 2  # rounds as the scalar abs(amp) does


def _non_finite_culprit(args: argparse.Namespace, kind: str, pump: PumpProfile,
                        x1: float, y1: float) -> str:
    """One line naming what makes the amplitude at (x1, y1) non-finite: the
    second detector if the point is finite with x2 = y2 = 0, else the pump
    order if a Gaussian pump of the same waist and wavelength clears it there,
    else the grid."""
    r1 = DetectorPoint(np.array([x1]), np.array([y1]), args.z)
    on_axis = DetectorPoint(0.0, 0.0, args.z)
    gauss = hgmodes.hg_pump(0, 0, args.waist, args.pump_wavelength)
    where = f"amplitude at x1={_fmt(x1)}, y1={_fmt(y1)} is not finite; "
    if np.isfinite(_field_amplitudes(kind, pump, r1, on_axis)[1]).all():
        return where + (f"--x2 {_fmt(args.x2)} m, --y2 {_fmt(args.y2)} m put the second "
                        "detector out of range for this grid")
    if np.isfinite(_field_amplitudes(kind, gauss, r1, on_axis)[1]).all():
        return where + "the pump order is too high for this grid"
    return where + f"the grid {args.grid!r} is out of range for a field map"


def _beam_fails(mode: hgmodes.HGMode, z: float) -> bool:
    """True if the beam radius, squared, or the wavefront curvature of `mode`
    at z is not finite.  hg_field divides by the Rayleigh range, squares z / zR
    and zR / z, and squares w(z); a ratio that is already inf squares to inf
    without raising."""
    try:
        return not (math.isfinite(hgmodes.beam_radius(mode, z) ** 2)
                    and math.isfinite(hgmodes.wavefront_radius(mode, z)))
    except (OverflowError, ZeroDivisionError):
        return True


def cmd_field(args: argparse.Namespace) -> int:
    pump = parse_pump(args.pump, args.waist, args.pump_wavelength)
    kind, hyper = parse_state_kind(args.state)
    if hyper:
        raise ConfigError("field maps take plain Bell states")
    if args.z <= 0:
        raise ConfigError("detection plane z must be positive")
    if not math.isfinite(pump.wave_number):
        raise ConfigError(f"pump wavelength {_fmt(args.pump_wavelength)} m is out of range for a "
                          "field map: its wave number is not finite")
    waist_fails = _beam_fails(hgmodes.HGMode(pump.mode.m, pump.mode.n, args.waist), args.z)
    if waist_fails or _beam_fails(pump.mode, args.z):
        if _beam_fails(hgmodes.HGMode(pump.mode.m, pump.mode.n), args.z):
            culprit = f"detection plane z {_fmt(args.z)} m"  # the default beam fails there too
        elif waist_fails:  # at the default pump wavelength
            culprit = f"waist {_fmt(args.waist)} m"
        else:
            culprit = f"pump wavelength {_fmt(args.pump_wavelength)} m"
        raise ConfigError(f"{culprit} is out of range for a field map: the beam radius, squared, "
                          f"or wavefront curvature at z={_fmt(args.z)} m is not finite")
    lo, hi, n = parse_grid(args.grid)
    step = (hi - lo) / (n - 1)
    r2 = DetectorPoint(args.x2, args.y2, args.z)
    header = (
        f"# pump=hg{pump.mode.m}{pump.mode.n} state={args.state} "
        f"z_m={_fmt(args.z)} K_per_m={_fmt(pump.wave_number)} "
        f"x2_m={_fmt(args.x2)} y2_m={_fmt(args.y2)}\n"
    )
    blocks = [header + "x1_m,y1_m,re,im,abs2"]
    axis = lo + np.arange(n) * step
    axis_text = [_fmt(v) for v in axis.tolist()]  # x1 and y1 only take these n values
    rows = max(1, _FIELD_BLOCK_POINTS // n)
    for start in range(0, n, rows):
        ys = axis[start:start + rows]
        x1, y1 = np.tile(axis, len(ys)), np.repeat(ys, n)
        amp, abs2 = _field_amplitudes(kind, pump, DetectorPoint(x1, y1, args.z), r2)
        bad = np.flatnonzero(~np.isfinite(abs2))
        if bad.size:
            raise ConfigError(_non_finite_culprit(args, kind, pump, x1[bad[0]], y1[bad[0]]))
        y1_text = [t for t in axis_text[start:start + rows] for _ in range(n)]
        columns = zip(axis_text * len(ys), y1_text, amp.real.tolist(), amp.imag.tolist(),
                      abs2.tolist())
        blocks.append("\n".join([_ROW % row for row in columns]))
    _emit("\n".join(blocks) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsieve",
        description="Two-photon Bell-state analysis with pump-parity-controlled interference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pump_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pump", default="gauss",
                       help="pump profile: gauss | hg01 | hg(m,n) (default gauss)")
        p.add_argument("--waist", type=finite_float, default=hgmodes.DEFAULT_WAIST,
                       help="pump waist in meters (default 1e-3)")
        p.add_argument("--pump-wavelength", type=finite_float, default=hgmodes.PUMP_WAVELENGTH,
                       help="pump wavelength in meters (default 351.1e-9)")

    p_bsa = sub.add_parser("bsa", help="signature table + discrimination report")
    p_bsa.add_argument("--circuit", required=True,
                       help="circuit file path or bundled name (incomplete_bsa, complete_bsa)")
    add_pump_opts(p_bsa)
    group = p_bsa.add_mutually_exclusive_group()
    group.add_argument("--all-bell", action="store_true", help="all four Bell inputs")
    group.add_argument("--all-hyper", action="store_true",
                       help="all four hyperentangled inputs")
    group.add_argument("--state", help="single input state (psi+|psi-|phi+|phi-|hyper-...)")
    p_bsa.add_argument("--overlap", type=finite_float, default=1.0,
                       help="photon overlap o in [0,1] (default 1: ideal)")
    p_bsa.add_argument("--policy", choices=("strict", "renormalize"), default="strict",
                       help="scoring of events outside all signatures")
    p_bsa.add_argument("--out", help="output path (default stdout)")
    p_bsa.add_argument("--format", choices=("json", "csv"), default="json")
    p_bsa.set_defaults(func=cmd_bsa)

    p_hom = sub.add_parser("hom", help="HOM interference scan (CSV)")
    add_pump_opts(p_hom)
    p_hom.add_argument("--state", required=True, help="psi+|psi-|phi+|phi-")
    p_hom.add_argument("--delays", required=True, help="delay grid from:to:step in micrometers")
    p_hom.add_argument("--sigma-l", type=finite_float, default=None,
                       help="coherence length in micrometers (default from the 1 nm filter)")
    p_hom.add_argument("--out", help="output path (default stdout)")
    p_hom.add_argument("--format", choices=("csv",), default="csv")
    p_hom.set_defaults(func=cmd_hom)

    p_field = sub.add_parser("field", help="coincidence-amplitude map over (x1, y1)")
    add_pump_opts(p_field)
    p_field.add_argument("--state", required=True, help="psi+|psi-|phi+|phi-")
    p_field.add_argument("--z", type=finite_float, default=0.5, help="detection plane in meters")
    p_field.add_argument("--grid", default="-0.003:0.003:41",
                         help="transverse grid min:max:npoints in meters")
    p_field.add_argument("--x2", type=finite_float, default=0.0, help="fixed x2 (meters)")
    p_field.add_argument("--y2", type=finite_float, default=0.0, help="fixed y2 (meters)")
    p_field.add_argument("--out", help="output path (default stdout)")
    p_field.add_argument("--format", choices=("csv",), default="csv")
    p_field.set_defaults(func=cmd_field)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CircuitSchemaError as exc:
        print(f"circuit schema error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # e.g. the normalization of a very high-order pump
        print(f"error: numeric overflow ({exc}); an input is out of range", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
