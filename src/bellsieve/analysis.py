"""Detection statistics and verification tools.

Detection events are unordered pairs of detector ids (a repeated id means two
photons at one detector).  Detectors are threshold bucket detectors: they are
insensitive to transverse parity and temporal tags, and a two-photon hit at a
single detector yields one click, i.e. no coincidence.

Partial distinguishability is handled statistically: a run with overlap o
mixes the interfering signature table (matching temporal tags) with weight o
and the distinguishable one (orthogonal tags) with weight 1-o.  Each table is
computed once per input set and `score_success` mixes them; a HOM scan mixes
its two cross-output probabilities the same way.

The dense oracle rebuilds every circuit as an explicit single-photon unitary
over (path, polarization, parity, temporal) modes in the global h/v basis and
lifts it to the symmetric two-photon space, providing an independent check of
the sparse engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hgmodes import PHOTON_WAVELENGTH, PumpProfile
from .optics import (
    BeamSplitter,
    Circuit,
    CircuitSchemaError,
    Delay,
    Element,
    Mirror,
    PolarizingBS,
    WavePlate,
    run_circuit,
    waveplate_jones,
)
from .twophoton import (
    BELL_KINDS,
    EVEN,
    H,
    ODD,
    SQRT2,
    V,
    BellKind,
    PhotonMode,
    TwoPhotonState,
    attach_pump_parity,
    bell_state,
    equal_up_to_global_phase,
    hyper_state,
    normalize_angle,
    pair_key,
    rebase_all,
    rebase_path,
)

SUPPORT_TOL = 1e-12

FILTER_FWHM = 1e-9  # interference filter bandwidth
DEFAULT_SIGMA_L = PHOTON_WAVELENGTH**2 / FILTER_FWHM  # ~493 um coherence length

PORT_ANGLES = {"H": 0.0, "V": 90.0, "45": 45.0, "45b": 135.0}

INTERFERING = (0, 0)  # temporal tags of the two photons; orthogonal tags never interfere
DISTINGUISHABLE = (0, 1)

Event = Tuple[str, str]


def port_angle(port) -> float:
    if isinstance(port, str) and port in PORT_ANGLES:
        return PORT_ANGLES[port]
    return normalize_angle(float(port))


@dataclass(frozen=True)
class Detector:
    id: str
    path: str
    port: str  # "H" | "V" | "45" | "45b" or a numeric angle string


@dataclass(frozen=True)
class DetectorLayout:
    detectors: Tuple[Detector, ...]

    def __post_init__(self) -> None:
        ids = [d.id for d in self.detectors]
        if len(set(ids)) != len(ids):
            raise ValueError("detector ids must be unique")
        seen = set()
        axes: Dict[str, float] = {}
        for d in self.detectors:
            angle = port_angle(d.port)
            key = (d.path, angle)
            if key in seen:
                raise ValueError(f"duplicate detector for {key}")
            seen.add(key)
            axis = angle % 90.0
            if axes.setdefault(d.path, axis) != axis:
                raise ValueError(f"detectors on path {d.path!r} mix analysis bases")

    def by_path(self) -> Dict[str, Dict[float, str]]:
        """path -> {analysis angle -> detector id}."""
        out: Dict[str, Dict[float, str]] = {}
        for d in self.detectors:
            out.setdefault(d.path, {})[port_angle(d.port)] = d.id
        return out


def layout_from_json(doc: dict) -> DetectorLayout:
    detectors = doc.get("detectors") if isinstance(doc, dict) else None
    if not isinstance(detectors, list):
        raise CircuitSchemaError("layout must hold a 'detectors' list")
    for d in detectors:
        if not (isinstance(d, dict) and all(k in d for k in ("id", "path", "port"))):
            raise CircuitSchemaError(f"layout detector {d!r} needs 'id', 'path' and 'port'")
    dets = tuple(
        Detector(id=str(d["id"]), path=str(d["path"]), port=str(d["port"]))
        for d in detectors
    )
    return DetectorLayout(dets)


def layout_to_json(layout: DetectorLayout) -> dict:
    return {"detectors": [{"id": d.id, "path": d.path, "port": d.port}
                          for d in layout.detectors]}


def event_distribution(state: TwoPhotonState, layout: DetectorLayout) -> Dict[Event, float]:
    """Born-rule probabilities over detection events.

    Each detected path is analyzed in its ports' basis; detectors bucket over
    parity and temporal tags.  Raises if a populated path/port has no detector.
    """
    ports = layout.by_path()
    angles = {path: min(a % 90.0 for a in angle_map) for path, angle_map in ports.items()}
    bases = {}
    for path, angle in angles.items():
        theta = normalize_angle(angle)
        bases[path] = (theta, normalize_angle(theta + 90.0))
    # rebase_path scans the whole state even on a path already in its basis
    off_basis = {m.path for pair in state.terms for m in pair
                 if m.path in bases and m.pol not in bases[m.path]}
    out = state
    for path, angle in angles.items():
        if path in off_basis:
            out = rebase_path(out, path, angle)
    probs: Dict[Event, float] = {}
    for (m1, m2), amp in out.terms.items():
        ids = []
        for m in (m1, m2):
            angle_map = ports.get(m.path)
            det = None if angle_map is None else angle_map.get(m.pol)
            if det is None:
                raise ValueError(f"no detector covers path {m.path!r} at {m.pol} deg")
            ids.append(det)
        ev: Event = tuple(sorted(ids))  # type: ignore[assignment]
        probs[ev] = probs.get(ev, 0.0) + abs(amp) ** 2
    return probs


@dataclass(frozen=True)
class SignatureTable:
    """Per-input probability distribution over detection events."""

    entries: Dict[str, Dict[Event, float]]
    pump_parity: Optional[int] = None
    overlap: Optional[float] = None

    def to_json(self) -> dict:
        doc: Dict[str, object] = {"entries": {}}
        for label in sorted(self.entries):
            doc["entries"][label] = {
                "|".join(ev): p for ev, p in sorted(self.entries[label].items())
            }
        if self.pump_parity is not None:
            doc["pump_parity"] = self.pump_parity
        if self.overlap is not None:
            doc["overlap"] = self.overlap
        return doc


def signature_table(
    circuit: Circuit,
    inputs: Sequence[Tuple[str, TwoPhotonState]],
    layout: DetectorLayout,
    pump_parity: Optional[int] = None,
    overlap: Optional[float] = None,
) -> SignatureTable:
    entries = {}
    for label, state in inputs:
        dist = event_distribution(run_circuit(circuit, state), layout)
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            raise RuntimeError(f"event distribution for {label} sums to {total!r}")
        entries[label] = dist
    return SignatureTable(entries, pump_parity=pump_parity, overlap=overlap)


def coincidence_basis_only(table: SignatureTable) -> bool:
    """True iff no populated event puts two photons at one detector."""
    for dist in table.entries.values():
        for (d1, d2), p in dist.items():
            if d1 == d2 and p > SUPPORT_TOL:
                return False
    return True


@dataclass(frozen=True)
class DiscriminationReport:
    """Partition of inputs into classes with pairwise disjoint event supports."""

    classes: Tuple[Tuple[str, ...], ...]
    bits: float
    ambiguous: Tuple[Tuple[str, str], ...]
    class_events: Tuple[frozenset, ...]

    def assignment(self) -> Dict[Event, int]:
        out: Dict[Event, int] = {}
        for i, events in enumerate(self.class_events):
            for ev in events:
                out[ev] = i
        return out

    def class_of(self, label: str) -> int:
        for i, members in enumerate(self.classes):
            if label in members:
                return i
        raise KeyError(label)


def classify(table: SignatureTable) -> DiscriminationReport:
    """Merge inputs whose event supports overlap; disjoint groups form classes."""
    labels = list(table.entries)
    supports = {
        lab: frozenset(ev for ev, p in table.entries[lab].items() if p > SUPPORT_TOL)
        for lab in labels
    }
    parent = {lab: lab for lab in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ambiguous = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if supports[a] & supports[b]:
                ambiguous.append((a, b))
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups: Dict[str, List[str]] = {}
    for lab in labels:
        groups.setdefault(find(lab), []).append(lab)
    classes = tuple(tuple(groups[r]) for r in groups)
    class_events = tuple(
        frozenset().union(*(supports[lab] for lab in members)) for members in classes
    )
    return DiscriminationReport(
        classes=classes,
        bits=math.log2(len(classes)),
        ambiguous=tuple(ambiguous),
        class_events=class_events,
    )


# ---------------------------------------------------------------------------
# HOM scans and partial distinguishability


@dataclass(frozen=True)
class OverlapModel:
    """Phenomenological temporal-overlap model, Gaussian in the path delay."""

    sigma_l: float = DEFAULT_SIGMA_L

    def __post_init__(self) -> None:
        if self.sigma_l <= 0:
            raise ValueError("sigma_l must be positive")

    def overlap(self, delta: float) -> float:
        return math.exp(-((delta / self.sigma_l) ** 2))


def _hom_cross_outputs(kind: BellKind, pump: PumpProfile) -> Tuple[float, float]:
    """Probability that the two photons of `kind` leave a 50-50 splitter on
    different paths: (interfering, distinguishable)."""
    circuit = Circuit(
        paths=("1", "2", "A", "B"),
        elements=(BeamSplitter("1", "2", "A", "B"),),
        inputs=("1", "2"),
        name="hom",
    )
    probs = []
    for temporal in (INTERFERING, DISTINGUISHABLE):
        state = attach_pump_parity(bell_state(kind, "1", "2", temporal=temporal), pump)
        out = run_circuit(circuit, state)
        probs.append(sum(abs(a) ** 2 for (m1, m2), a in out.terms.items() if m1.path != m2.path))
    return probs[0], probs[1]


def coincidence_probability(kind: BellKind, pump: PumpProfile, overlap: float) -> float:
    """Cross-output coincidence probability at a 50-50 splitter, mixed model."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    p_int, p_dist = _hom_cross_outputs(kind, pump)
    return overlap * p_int + (1.0 - overlap) * p_dist


def hom_scan(
    kind: BellKind,
    pump: PumpProfile,
    deltas: Sequence[float],
    model: OverlapModel = OverlapModel(),
) -> List[Tuple[float, float]]:
    """Coincidence probability vs. relative delay (meters)."""
    p_int, p_dist = _hom_cross_outputs(kind, pump)
    curve = []
    for d in deltas:
        o = model.overlap(d)
        curve.append((d, o * p_int + (1.0 - o) * p_dist))
    return curve


def hom_visibility(curve: Sequence[Tuple[float, float]]) -> Tuple[str, float]:
    """(kind, visibility) from a scan: dip (P0 below baseline) or peak."""
    p0 = min(curve, key=lambda dp: abs(dp[0]))[1]
    pfar = max(curve, key=lambda dp: abs(dp[0]))[1]
    if pfar >= p0:
        return "dip", (pfar - p0) / pfar if pfar > 0 else 0.0
    if pfar == 0:
        raise ValueError("peak visibility is undefined: the far baseline is 0")
    return "peak", (p0 - pfar) / pfar


# ---------------------------------------------------------------------------
# state preparation and discrimination success


def prepare_inputs(
    circuit: Circuit,
    pump: PumpProfile,
    temporal: Tuple[int, int] = INTERFERING,
    hyper: Optional[bool] = None,
) -> List[Tuple[str, TwoPhotonState]]:
    """All four Bell inputs for a circuit, pump parity attached.

    Two declared input paths produce plain Bell states, four produce the
    hyperentangled states.
    """
    if hyper is None:
        hyper = len(circuit.inputs) == 4
    if hyper:
        if len(circuit.inputs) != 4:
            raise ValueError("hyperentangled inputs need four declared input paths")
        make = lambda k: hyper_state(k, circuit.inputs, temporal=temporal)
    else:
        if len(circuit.inputs) != 2:
            raise ValueError("Bell inputs need two declared input paths")
        make = lambda k: bell_state(k, circuit.inputs[0], circuit.inputs[1], temporal=temporal)
    return [(k, attach_pump_parity(make(k), pump)) for k in BELL_KINDS]


@dataclass(frozen=True)
class StateSuccess:
    success: float        # P(correct class assignment), discards count against
    wrong: float          # P(assigned to a wrong class)
    discarded: float      # P(no assignment: invisible doubles / unmapped events)
    conditional: float    # P(correct | some class assigned)


@dataclass(frozen=True)
class SuccessReport:
    per_state: Dict[str, StateSuccess]
    average: float
    average_conditional: float
    overlap: float
    policy: str
    classes: Tuple[Tuple[str, ...], ...]

    def to_json(self) -> dict:
        return {
            "overlap": self.overlap,
            "policy": self.policy,
            "classes": [list(c) for c in self.classes],
            "average": self.average,
            "average_conditional": self.average_conditional,
            "per_state": {
                k: {
                    "success": v.success,
                    "wrong": v.wrong,
                    "discarded": v.discarded,
                    "conditional": v.conditional,
                }
                for k, v in sorted(self.per_state.items())
            },
        }


def score_success(
    ideal: SignatureTable,
    distinguishable: SignatureTable,
    overlap: float,
    policy: str = "strict",
) -> SuccessReport:
    """Discrimination success under the mixed (partial-overlap) model, from
    the ideal and the distinguishable signature tables of equally likely inputs.

    Events are assigned to Bell-state classes by the ideal (overlap 1) table;
    two-photons-at-one-detector events are invisible to threshold detectors
    and yield no assignment.  Policy "strict" scores unassigned events against
    the success probability; "renormalize" conditions on an assignment having
    been made.  The discard rate is reported separately either way.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    if policy not in ("strict", "renormalize"):
        raise ValueError("policy must be 'strict' or 'renormalize'")
    report = classify(ideal)
    assignment = report.assignment()

    labels = list(ideal.entries)
    prior = 1.0 / len(labels)
    per_state: Dict[str, StateSuccess] = {}
    for label in labels:
        mixed: Dict[Event, float] = {}
        for ev, p in ideal.entries[label].items():
            mixed[ev] = mixed.get(ev, 0.0) + overlap * p
        for ev, p in distinguishable.entries[label].items():
            mixed[ev] = mixed.get(ev, 0.0) + (1.0 - overlap) * p
        true_class = report.class_of(label)
        correct = wrong = discarded = 0.0
        for ev, p in mixed.items():
            if ev[0] == ev[1]:
                discarded += p
                continue
            cls = assignment.get(ev)
            if cls is None:
                discarded += p
            elif cls == true_class:
                correct += p
            else:
                wrong += p
        seen = correct + wrong
        per_state[label] = StateSuccess(
            success=correct,
            wrong=wrong,
            discarded=discarded,
            conditional=correct / seen if seen > 0 else 0.0,
        )
    avg = sum(prior * per_state[lab].success for lab in labels)
    avg_cond = sum(prior * per_state[lab].conditional for lab in labels)
    if policy == "renormalize":
        avg = avg_cond
    return SuccessReport(
        per_state=per_state,
        average=avg,
        average_conditional=avg_cond,
        overlap=overlap,
        policy=policy,
        classes=report.classes,
    )


def success_probability(
    circuit: Circuit,
    layout: DetectorLayout,
    pump: PumpProfile,
    overlap: float,
    policy: str = "strict",
) -> SuccessReport:
    """`score_success` on the circuit's four Bell inputs."""
    ideal = signature_table(circuit, prepare_inputs(circuit, pump), layout)
    dist = signature_table(circuit, prepare_inputs(circuit, pump, DISTINGUISHABLE), layout)
    return score_success(ideal, dist, overlap, policy)


# ---------------------------------------------------------------------------
# dense symmetric-space oracle


def circuit_mode_basis(
    circuit: Circuit,
    state: TwoPhotonState,
    max_modes: int = 32,
) -> List[PhotonMode]:
    """Global h/v mode basis spanning the circuit paths and the state's labels."""
    parities = sorted({m.parity for k in state.terms for m in k}) or [EVEN]
    temporals = sorted({m.temporal for k in state.terms for m in k}) or [0]
    modes = [
        PhotonMode(p, pol, par, t)
        for p in circuit.paths
        for pol in (H, V)
        for par in parities
        for t in temporals
    ]
    if len(modes) > max_modes:
        raise ValueError(
            f"mode count {len(modes)} exceeds the dense-oracle cap {max_modes}"
        )
    return modes


def _pol_vec(angle: float) -> np.ndarray:
    rad = math.radians(angle)
    return np.array([math.cos(rad), math.sin(rad)])


def _io_roles(ins: Tuple[str, ...], outs: Tuple[str, ...], what: str):
    """Ports held by an element: fresh output paths feed back through it so
    the dense matrix stays unitary (stray light on an unused output port is
    routed to the matching input port)."""
    if set(ins) == set(outs):
        return False
    if set(ins) & set(outs):
        raise ValueError(f"{what} mixes in-place and fresh paths; dense oracle "
                         "needs disjoint or identical port sets")
    return True


def _element_unitary(el: Element, modes: List[PhotonMode], idx: Dict[PhotonMode, int]) -> np.ndarray:
    m_count = len(modes)
    u = np.zeros((m_count, m_count), dtype=complex)
    written = set()

    def put(col_mode: PhotonMode, row_mode: PhotonMode, val: complex) -> None:
        if abs(val) > 0:
            u[idx[row_mode], idx[col_mode]] += val
        written.add(idx[col_mode])

    if isinstance(el, BeamSplitter):
        routes = [(el.in1, el.out1, el.out2), (el.in2, el.out2, el.out1)]
        if _io_roles((el.in1, el.in2), (el.out1, el.out2), "beam splitter"):
            routes += [(el.out1, el.in1, el.in2), (el.out2, el.in2, el.in1)]
        for m in modes:
            for src, straight, cross in routes:
                if m.path != src:
                    continue
                s = -1.0 if (el.reflect_flips_y and m.parity == ODD) else 1.0
                put(m, m.with_path(straight), 1.0 / SQRT2)
                put(m, m.with_path(cross), 1j * s / SQRT2)
    elif isinstance(el, PolarizingBS):
        ins = tuple(p for p in (el.in1, el.in2) if p is not None)
        theta = normalize_angle(el.basis_angle)
        et = _pol_vec(theta)
        er = _pol_vec(theta + 90.0)
        # (source, transmit target, reflect target) port geometry
        routes = [(el.in1, el.out_t, el.out_r)]
        if el.in2 is not None:
            routes.append((el.in2, el.out_r, el.out_t))
        if _io_roles(ins, (el.out_t, el.out_r), "polarizing beam splitter"):
            if el.in2 is not None:
                routes += [(el.out_t, el.in1, el.in2), (el.out_r, el.in2, el.in1)]
            else:
                # unused output-port components idle on their own path
                routes += [(el.out_t, el.in1, el.out_t), (el.out_r, el.out_r, el.in1)]
        for m in modes:
            for src, t_out, r_out in routes:
                if m.path != src:
                    continue
                col = 0 if m.pol == H else 1
                refl = 1j * (-1.0 if (el.reflect_flips_y and m.parity == ODD) else 1.0)
                for row_pol, row_i in ((H, 0), (V, 1)):
                    put(m, m.with_path(t_out).with_pol(row_pol), et[row_i] * et[col])
                    put(m, m.with_path(r_out).with_pol(row_pol), refl * er[row_i] * er[col])
    elif isinstance(el, WavePlate):
        jones = waveplate_jones(el.kind, el.fast_axis)
        for m in modes:
            if m.path != el.path:
                continue
            col = 0 if m.pol == H else 1
            put(m, m.with_pol(H), jones[0, col])
            put(m, m.with_pol(V), jones[1, col])
    elif isinstance(el, Mirror):
        for m in modes:
            if m.path == el.path and el.flips_y and m.parity == ODD:
                put(m, m, -1.0)
    elif isinstance(el, Delay):
        pass
    else:  # pragma: no cover
        raise TypeError(f"unknown element {el!r}")

    for j in range(m_count):
        if j not in written:
            u[j, j] = 1.0
    return u


def single_photon_unitary(circuit: Circuit, modes: List[PhotonMode]) -> np.ndarray:
    idx = {m: i for i, m in enumerate(modes)}
    u = np.eye(len(modes), dtype=complex)
    for el in circuit.elements:
        u = _element_unitary(el, modes, idx) @ u
    return u


def oracle_apply(circuit: Circuit, state: TwoPhotonState, max_modes: int = 32) -> TwoPhotonState:
    """Dense reference evolution on the symmetric two-photon space."""
    modes = circuit_mode_basis(circuit, state, max_modes)
    idx = {m: i for i, m in enumerate(modes)}
    hv = rebase_all(state, H)
    m_count = len(modes)
    w = np.zeros((m_count, m_count), dtype=complex)
    for (m1, m2), amp in hv.terms.items():
        i, j = idx[m1], idx[m2]
        if i == j:
            w[i, i] = amp
        else:
            w[i, j] = w[j, i] = amp / SQRT2
    u = single_photon_unitary(circuit, modes)
    wp = u @ w @ u.T
    terms = {}
    for i in range(m_count):
        for j in range(i, m_count):
            amp = wp[i, i] if i == j else SQRT2 * wp[i, j]
            if abs(amp) > SUPPORT_TOL:
                terms[pair_key(modes[i], modes[j])] = complex(amp)
    return TwoPhotonState(terms, dict(state.delays))


def oracle_check(
    circuit: Circuit,
    state: TwoPhotonState,
    tol: float = 1e-9,
    max_modes: int = 32,
) -> bool:
    """Engine output equals the dense-oracle output up to a global phase."""
    engine = run_circuit(circuit, state)
    reference = oracle_apply(circuit, state, max_modes=max_modes)
    return equal_up_to_global_phase(engine, reference, tol)
