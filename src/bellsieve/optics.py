"""Optical elements and the circuit engine.

Each element type defines its physics once: `ports()` gives its input and
output paths `(ins, outs)`, and `mode_map(modes)` the h/v images of h/v modes
on its inputs.  The engine compiles each circuit once (`Circuit.compiled`):
every element becomes one small block per parity, built from its `mode_map`.
`run_states` takes a stack of states at any linear polarization; it enters
once as dense symmetric pair matrices (see `twophoton`), passes the blocks,
and leaves once, every path in h/v, as `TwoPhotonState`s pruned at PRUNE_TOL
that carry their pair form.
`run_circuit` runs one state, and `apply_element` a one-element circuit.

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

import functools
import json
import math
from dataclasses import MISSING, Field, asdict, dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .twophoton import (
    EVEN,
    H,
    NORM_TOL,
    ODD,
    PRUNE_TOL,
    SQRT2,
    ModeMap,
    PhotonMode,
    TwoPhotonState,
    V,
    cosd,
    from_pair_matrices,
    mode_map_matrix,
    to_pair_matrices,
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

    @property
    def compiled(self) -> "CompiledCircuit":
        """The engine's form of this circuit.  Circuits with the same paths
        and elements share one, so a circuit loaded again is not recompiled."""
        return _compiled(self.paths, self.elements)


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


class CompiledCircuit:
    """A circuit in the form the engine runs.

    A run holds a stack of pair matrices W (see `twophoton`) over the modes
    (path, h/v, parity, temporal tag) of the sectors (parity, tag) its states
    occupy, in ascending mode order.  An element is the block B of its
    `mode_map` over the h/v modes S of its input and fresh output paths, one
    block per parity for every temporal tag, and acts as W[S, :] = B W[S, :],
    then W[:, S] = W[:, S] B^T.  Only the occupied columns are evolved: the
    stack is kept as C W0 C^T, W0 the input on its occupied modes and C their
    h/v images so far, so an element is C[S, :] = B C[S, :] and W = C W0 C^T
    is formed once at the end.  `run` returns that W, renormalized, with its
    live modes; `run_states` turns it into states and detection
    (`analysis.signature_table`) reads it as it is.  The layout for a set of
    sectors is built on first use of that set and kept.
    """

    def __init__(self, paths: Tuple[str, ...], elements: Tuple[Element, ...]) -> None:
        self.paths = tuple(sorted(paths))
        rank = {p: k for k, p in enumerate(self.paths)}
        self.delays = [(el.path, el.delta) for el in elements if isinstance(el, Delay)]
        self.steps = [self._step(el, rank) for el in elements]
        self._layouts: dict = {}

    @staticmethod
    def _step(el: Element, rank: Dict[str, int]):
        """The h/v modes the element touches, inputs first, as 2 * (rank of
        the path) + (0 for H, 1 for V); how many are inputs; and per parity
        its `mode_map` as a matrix over them, or None for the identity."""
        ins, outs = el.ports()
        touched = [(p, pol) for p in ins + tuple(p for p in outs if p not in ins) for pol in (H, V)]
        blocks = {}
        for parity in (EVEN, ODD):
            modes = [PhotonMode(p, pol, parity) for p, pol in touched]
            mapping = el.mode_map(modes[:2 * len(ins)])
            index = {m: k for k, m in enumerate(modes)}
            blocks[parity] = mode_map_matrix(mapping, modes, index) if mapping else None
        return [2 * rank[p] + (0 if pol == H else 1) for p, pol in touched], 2 * len(ins), blocks

    def _layout(self, sectors: Tuple[Tuple[str, int], ...]):
        """Modes, their index, and per element (its rows and block in each
        sector it changes, and its fresh-output rows)."""
        layout = self._layouts.get(sectors)
        if layout is not None:
            return layout
        n = len(sectors)
        # every field is already valid: registered paths, h/v, the states' own sectors
        modes = [PhotonMode._make((p, pol, par, t))
                 for p in self.paths for pol in (H, V) for par, t in sectors]
        ops = []
        for local, n_in, blocks in self.steps:
            parts = [(s, blocks[par]) for s, (par, _) in enumerate(sectors)
                     if blocks[par] is not None]
            rows = np.array([[r * n + s for r in local] for s, _ in parts], dtype=np.intp)
            stack = np.array([b for _, b in parts], dtype=complex)  # the block of each sector
            fresh = [r * n + s for r in local[n_in:] for s in range(n)]
            ops.append((rows, stack, np.array(fresh, dtype=np.intp)))
        layout = (modes, {m: i for i, m in enumerate(modes)}, ops)
        self._layouts[sectors] = layout
        return layout

    def run(self, states: Sequence[TwoPhotonState]) -> Tuple[np.ndarray, List[PhotonMode]]:
        """Evolve a stack of states in one pass: the stack W, each state
        renormalized exactly, over its live modes in ascending order.

        Raises on a mode outside the registry, on a fresh output path that
        holds an amplitude above PRUNE_TOL just before its element, and on a
        norm drift beyond NORM_TOL (a broken element map).
        """
        occupied = sorted({m for state in states for pair in state.terms for m in pair})
        unknown = {m.path for m in occupied}.difference(self.paths)
        if unknown:
            raise ValueError(f"state occupies unregistered paths: {sorted(unknown)}")
        sectors = tuple(sorted({(m.parity, m.temporal) for m in occupied})) or ((EVEN, 0),)
        modes, index, ops = self._layout(sectors)
        w = to_pair_matrices(states, {m: k for k, m in enumerate(occupied)})

        # the whole stack is C w C^T, C the h/v images of the occupied modes so
        # far; a mode at angle a enters as the column cos(a) e_H + sin(a) e_V
        c = np.zeros((len(modes), len(occupied)), dtype=complex)
        for pol in (H, V):
            c[[index[m.path, pol, m.parity, m.temporal] for m in occupied],
              range(len(occupied))] = [cosd(m.pol - pol) for m in occupied]
        for rows, stack, fresh in ops:
            if fresh.size and c[fresh].any():  # exact zeros when nothing reaches them
                before = abs(c[fresh] @ w @ c.T) > PRUNE_TOL  # rows of the fresh outputs
                if before.any():
                    blocked = {modes[r].path for r, hit in zip(fresh, before.any(axis=(0, 2))) if hit}
                    raise ValueError(f"output paths already populated: {sorted(blocked)}")
            if rows.size:
                c[rows] = stack @ c[rows]
        live = np.flatnonzero(c.any(axis=1))  # modes the stack can occupy now
        c = c[live]
        w = c @ w @ c.T
        norms = np.sqrt((abs(w) ** 2).sum(axis=(1, 2)) / 2)
        for norm in norms.tolist():
            if abs(norm - 1.0) > NORM_TOL:
                raise RuntimeError(f"internal error: circuit norm drifted to {norm!r}")
        w /= norms[:, None, None]
        return w, [modes[r] for r in live.tolist()]


@functools.lru_cache(maxsize=8)
def _compiled(paths: Tuple[str, ...], elements: Tuple[Element, ...]) -> CompiledCircuit:
    return CompiledCircuit(paths, elements)


def apply_element(state: TwoPhotonState, el: Element) -> TwoPhotonState:
    """Run a state through the one-element circuit of `el`."""
    ins, outs = el.ports()
    paths = tuple(dict.fromkeys(sorted(state.paths()) + list(ins + outs)))
    return run_states(Circuit(paths, (el,)), [state])[0]


def run_states(circuit: Circuit, states: Sequence[TwoPhotonState]) -> List[TwoPhotonState]:
    """Push the stack of states through the compiled circuit; each leaves
    pruned at PRUNE_TOL, with the circuit's delays added to its own."""
    compiled = circuit.compiled
    w, modes = compiled.run(states)
    delays = [dict(state.delays) for state in states]
    for state_delays in delays:
        for path, delta in compiled.delays:
            state_delays[path] = state_delays.get(path, 0.0) + delta
    return from_pair_matrices(w, modes, delays)


def run_circuit(circuit: Circuit, state: TwoPhotonState) -> TwoPhotonState:
    """Apply the elements left to right to the state, renormalize exactly.

    A norm drift beyond NORM_TOL indicates a broken element map and raises.
    """
    return run_states(circuit, [state])[0]


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
    """The document `circuit_from_json` reads back; public so that a circuit
    built in Python can be saved in the circuit file format."""
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
    inputs, name, version = doc.get("inputs", []), doc.get("name", ""), doc.get("version", 1)
    if not isinstance(inputs, list) or not all(isinstance(p, str) for p in inputs):
        raise CircuitSchemaError(f"'inputs' must be a list of strings, got {inputs!r}")
    if not isinstance(name, str):
        raise CircuitSchemaError(f"'name' must be a string, got {name!r}")
    if not isinstance(version, int) or isinstance(version, bool):
        raise CircuitSchemaError(f"'version' must be an integer, got {version!r}")
    elements = tuple(element_from_json(e) for e in doc["elements"])
    try:
        return Circuit(
            paths=tuple(doc["paths"]),
            elements=elements,
            inputs=tuple(inputs),
            name=name,
            version=version,
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

