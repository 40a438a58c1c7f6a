"""Optical elements and the circuit engine.

Each element type defines its physics once: `ports()` gives its input and
output paths `(ins, outs)`, and `mode_map(modes)` the h/v images of h/v modes
on its inputs.  `run_circuit` writes its input in h/v once, so every path stays
in h/v, and `apply_element` lifts a rule to the pair state.

The beam splitter is 50-50 and symmetric: transmission amplitude 1/sqrt(2),
reflection i/sqrt(2).  A reflection flips the transverse y-coordinate, so a
photon with odd y-parity acquires an extra sign on reflection; the
`reflect_flips_y` flag turns that parity sign on/off per element.

Polarizing beam splitters act in a rotated linear basis {theta, theta+90}:
the theta component transmits (in1 -> out_t, in2 -> out_r), the orthogonal
component reflects (in1 -> out_r, in2 -> out_t) with amplitude factor
i * sigma(parity); the rule is written in h/v.  Wave plates are standard
retarders about their fast axis.  Delays only record their offset on the state
(distinguishability is applied statistically by the analysis layer).

Circuits are ordered element lists over a registry of named paths, applied
left to right; every element conserves the photon-pair norm.  The JSON schema
follows the element dataclasses' fields, under the names in `ELEMENT_TYPES`.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, Field, asdict, dataclass, fields
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from .twophoton import (
    H,
    ODD,
    SQRT2,
    ModeMap,
    PhotonMode,
    TwoPhotonState,
    V,
    apply_mode_map,
    cosd,
    rebase_all,
)

Ports = Tuple[Tuple[str, ...], Tuple[str, ...]]  # (ins, outs)


class CircuitSchemaError(ValueError):
    """Raised for malformed circuit documents."""


def _sigma(parity: str, flips: bool) -> float:
    return -1.0 if (flips and parity == ODD) else 1.0


@dataclass(frozen=True)
class BeamSplitter:
    in1: str
    in2: str
    out1: str
    out2: str
    reflect_flips_y: bool = True

    def ports(self) -> Ports:
        return (self.in1, self.in2), (self.out1, self.out2)

    def mode_map(self, modes: Iterable[PhotonMode]) -> ModeMap:
        """a(in1) -> [a(out1) + i sigma(parity) a(out2)]/sqrt(2); mirrored for in2."""
        routes = {self.in1: (self.out1, self.out2), self.in2: (self.out2, self.out1)}
        mapping = {}
        for m in modes:
            straight, cross = routes[m.path]
            refl = 1j * _sigma(m.parity, self.reflect_flips_y) / SQRT2
            mapping[m] = ((m.with_path(straight), 1.0 / SQRT2), (m.with_path(cross), refl))
        return mapping


@dataclass(frozen=True)
class PolarizingBS:
    in1: str
    out_t: str
    out_r: str
    in2: Optional[str] = None
    basis_angle: float = 0.0
    reflect_flips_y: bool = True

    def __post_init__(self) -> None:
        a = float(self.basis_angle)
        if not 0.0 <= a < 180.0:
            raise ValueError("basis_angle must lie in [0, 180)")

    def ports(self) -> Ports:
        ins = (self.in1,) if self.in2 is None else (self.in1, self.in2)
        return ins, (self.out_t, self.out_r)

    def mode_map(self, modes: Iterable[PhotonMode]) -> ModeMap:
        """Project on e(theta), transmitted, and e(theta + 90), reflected, in h/v."""
        axes = (self.basis_angle, self.basis_angle + 90.0)
        mapping = {}
        for m in modes:
            outs = (self.out_t, self.out_r) if m.path == self.in1 else (self.out_r, self.out_t)
            amps = (1.0, 1j * _sigma(m.parity, self.reflect_flips_y))
            mapping[m] = tuple((PhotonMode(out, pol, m.parity, m.temporal), c)
                               for axis, out, amp in zip(axes, outs, amps) for pol in (H, V)
                               if (c := amp * cosd(m.pol - axis) * cosd(pol - axis)) != 0)
        return mapping


@dataclass(frozen=True)
class WavePlate:
    path: str
    kind: str  # "half" | "quarter"
    fast_axis: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("half", "quarter"):
            raise ValueError("wave plate kind must be 'half' or 'quarter'")

    def ports(self) -> Ports:
        return (self.path,), (self.path,)

    def mode_map(self, modes: Iterable[PhotonMode]) -> ModeMap:
        jones = waveplate_jones(self.kind, self.fast_axis)
        mapping = {}
        for m in modes:
            col = 0 if m.pol == H else 1
            mapping[m] = ((m.with_pol(H), jones[0, col]), (m.with_pol(V), jones[1, col]))
        return mapping


@dataclass(frozen=True)
class Delay:
    path: str
    delta: float  # meters

    def ports(self) -> Ports:
        return (self.path,), (self.path,)

    def mode_map(self, modes: Iterable[PhotonMode]) -> ModeMap:
        return {}  # amplitudes are untouched


@dataclass(frozen=True)
class Mirror:
    path: str
    flips_y: bool = True

    def ports(self) -> Ports:
        return (self.path,), (self.path,)

    def mode_map(self, modes: Iterable[PhotonMode]) -> ModeMap:
        return {m: ((m, -1.0),) for m in modes if self.flips_y and m.parity == ODD}


ELEMENT_TYPES = {
    "beam_splitter": BeamSplitter,
    "polarizing_bs": PolarizingBS,
    "wave_plate": WavePlate,
    "delay": Delay,
    "mirror": Mirror,
}
_TYPE_NAMES = {cls: name for name, cls in ELEMENT_TYPES.items()}
Element = Union[tuple(ELEMENT_TYPES.values())]


@dataclass(frozen=True)
class Circuit:
    paths: Tuple[str, ...]
    elements: Tuple[Element, ...]
    inputs: Tuple[str, ...] = ()
    name: str = ""
    version: int = 1
    layout: Optional[dict] = None  # optional bundled detector layout document

    def __post_init__(self) -> None:
        registry = set(self.paths)
        if len(registry) != len(self.paths):
            raise ValueError("duplicate path labels in registry")
        for el in self.elements:
            ins, outs = el.ports()
            if len(set(ins)) != len(ins) or len(set(outs)) != len(outs):
                raise ValueError(f"{_TYPE_NAMES[type(el)]} element repeats a path among "
                                 f"its inputs {list(ins)} or its outputs {list(outs)}")
            for p in ins + outs:
                if p not in registry:
                    raise ValueError(f"element references unregistered path {p!r}")
        for p in self.inputs:
            if p not in registry:
                raise ValueError(f"input path {p!r} not registered")


def waveplate_jones(kind: str, fast_axis: float) -> np.ndarray:
    """Jones matrix of a retarder about `fast_axis` (degrees) in the h/v basis.

    Retardance pi for a half-wave plate, pi/2 for a quarter-wave plate; the
    slow axis is delayed: J = R(phi) diag(1, e^{-i delta}) R(-phi).
    """
    delta = math.pi if kind == "half" else math.pi / 2.0
    phi = math.radians(fast_axis)
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([1.0, np.exp(-1j * delta)]) @ rot.T


def apply_element(state: TwoPhotonState, el: Element) -> TwoPhotonState:
    """Lift the element's single-photon rule to a pair state written in h/v."""
    if isinstance(el, Delay):  # bookkeeping only
        delays = {**state.delays, el.path: state.delays.get(el.path, 0.0) + el.delta}
        return TwoPhotonState(dict(state.terms), delays)
    ins, outs = el.ports()
    fresh = set(outs).difference(ins)
    blocked = fresh and fresh & state.paths()  # in-place elements skip the scan
    if blocked:
        raise ValueError(f"output paths already populated: {sorted(blocked)}")
    on_inputs = dict.fromkeys(m for pair in state.terms for m in pair if m.path in ins)
    mapping = el.mode_map(on_inputs)
    return apply_mode_map(state, mapping) if mapping else state


# per-type names kept for existing callers
apply_pbs = apply_waveplate = apply_delay = apply_element


def run_circuit(circuit: Circuit, state: TwoPhotonState) -> TwoPhotonState:
    """Write the state in h/v, apply the elements left to right, renormalize exactly.

    A norm drift beyond 1e-9 indicates a broken element map and raises.
    """
    unknown = state.paths() - set(circuit.paths)
    if unknown:
        raise ValueError(f"state occupies unregistered paths: {sorted(unknown)}")
    out = rebase_all(state, H)
    for el in circuit.elements:
        out = apply_element(out, el)
    norm = math.sqrt(out.norm_sq())
    if abs(norm - 1.0) > 1e-9:
        raise RuntimeError(f"internal error: circuit norm drifted to {norm!r}")
    terms = {k: a / norm for k, a in out.terms.items()}
    return TwoPhotonState(terms, dict(out.delays))


# ---------------------------------------------------------------------------
# JSON schema: {"paths": [...], "elements": [{"type": ..., ...}, ...]}


def _read_field(el_type: str, f: Field, value):
    """Check a JSON value against its field's annotation, a string under
    postponed evaluation: "str", "Optional[str]", "bool" or "float"."""
    if f.type == "float":
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number):
            return number
        expected = "a finite number"
    elif f.type == "bool":
        if isinstance(value, bool):
            return value
        expected = "true or false"
    else:
        if isinstance(value, str) or (value is None and f.default is None):
            return value
        expected = "a string"
    raise CircuitSchemaError(f"{el_type} field {f.name!r} must be {expected}, got {value!r}")


def element_from_json(doc: dict) -> Element:
    if not isinstance(doc, dict) or "type" not in doc:
        raise CircuitSchemaError("element must be an object with a 'type' field")
    t = doc["type"]
    cls = ELEMENT_TYPES.get(t) if isinstance(t, str) else None
    if cls is None:
        raise CircuitSchemaError(f"unknown element type {t!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name in doc:
            kwargs[f.name] = _read_field(t, f, doc[f.name])
        elif f.default is MISSING:
            raise CircuitSchemaError(f"{t} element missing field {f.name!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise CircuitSchemaError(f"bad {t} element: {exc}") from exc


def circuit_to_json(circuit: Circuit) -> dict:
    doc = {
        "version": circuit.version,
        "name": circuit.name,
        "paths": list(circuit.paths),
        "inputs": list(circuit.inputs),
        "elements": [{"type": _TYPE_NAMES[type(el)], **asdict(el)} for el in circuit.elements],
    }
    if circuit.layout is not None:
        doc["layout"] = circuit.layout
    return doc


def circuit_from_json(doc: dict) -> Circuit:
    if not isinstance(doc, dict):
        raise CircuitSchemaError("circuit document must be a JSON object")
    for key in ("paths", "elements"):
        if key not in doc:
            raise CircuitSchemaError(f"circuit document missing {key!r}")
    if not isinstance(doc["paths"], list) or not all(isinstance(p, str) for p in doc["paths"]):
        raise CircuitSchemaError("'paths' must be a list of strings")
    if not isinstance(doc["elements"], list):
        raise CircuitSchemaError("'elements' must be a list")
    elements = tuple(element_from_json(e) for e in doc["elements"])
    try:
        return Circuit(
            paths=tuple(doc["paths"]),
            elements=elements,
            inputs=tuple(doc.get("inputs", ())),
            name=str(doc.get("name", "")),
            version=int(doc.get("version", 1)),
            layout=doc.get("layout"),
        )
    except ValueError as exc:
        raise CircuitSchemaError(str(exc)) from exc


def load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CircuitSchemaError(f"invalid JSON in {path}: {exc}") from exc
    return circuit_from_json(doc)


def save_circuit(circuit: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(circuit_to_json(circuit), fh, indent=2, sort_keys=True)
        fh.write("\n")
