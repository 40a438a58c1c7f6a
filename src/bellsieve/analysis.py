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
the engine: it expands its input into h/v and writes each element's unitary,
wave plates included, with its own code, and calls no engine conversion.
"""
from __future__ import annotations

import functools
import itertools
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
)
from .twophoton import (
    BELL_KINDS,
    EVEN,
    H,
    ODD,
    PRUNE_TOL,
    SQRT2,
    V,
    BellKind,
    PhotonMode,
    TwoPhotonState,
    attach_pump_parity,
    basis_map,
    bell_state,
    equal_up_to_global_phase,
    hyper_state,
    mode_map_onto,
    normalize_angle,
    state_from_pairs,
)

SUPPORT_TOL = 1e-12

FILTER_FWHM = 1e-9  # interference filter bandwidth
DEFAULT_SIGMA_L = PHOTON_WAVELENGTH**2 / FILTER_FWHM  # ~493 um coherence length

PORT_ANGLES = {"H": 0.0, "V": 90.0, "45": 45.0, "45b": 135.0}

INTERFERING = (0, 0)  # temporal tags of the two photons; orthogonal tags never interfere
DISTINGUISHABLE = (0, 1)

Event = Tuple[str, str]


def port_angle(port) -> float:
    """Analysis angle of a port: H, V, 45, 45b or a finite angle in degrees."""
    if isinstance(port, str) and port in PORT_ANGLES:
        return PORT_ANGLES[port]
    angle = float(port)
    if not math.isfinite(angle):
        raise ValueError(f"port {port!r} is not a finite angle")
    return normalize_angle(angle)


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
        try:
            port_angle(str(d["port"]))
        except ValueError:
            raise CircuitSchemaError(f"layout detector {d['id']!r} has port {d['port']!r}; "
                                     "a port is H, V, 45, 45b or a finite angle") from None
    dets = tuple(
        Detector(id=str(d["id"]), path=str(d["path"]), port=str(d["port"]))
        for d in detectors
    )
    return DetectorLayout(dets)


def event_distribution(state: TwoPhotonState, layout: DetectorLayout) -> Dict[Event, float]:
    """Born-rule probabilities over detection events.

    Each detected path is analyzed in its ports' basis; detectors bucket over
    parity and temporal tags.  The state enters as its pair matrix and goes
    through the same contraction as a signature table's stack (see
    `_event_distributions`); events of probability at or below PRUNE_TOL**2
    are dropped.  Raises if a populated path/port has no detector.  The
    state's pair form is read as it is (see `TwoPhotonState.pair_form`), so
    an engine output is never converted back from its terms.
    """
    modes, w = state.pair_form()
    return _event_distributions(w[None], modes, layout)[0]


def _event_distributions(w: np.ndarray, modes: Sequence[PhotonMode],
                         layout: DetectorLayout) -> List[Dict[Event, float]]:
    """Event probabilities of each pair matrix in the stack `w` over `modes`.

    R writes each detected path in its ports' basis (entries cos(pol - port)
    on the mode's own path) and leaves other modes as they are; its rows are
    the rewritten modes, each a (detector, parity, tag) slot or uncovered.
    W' = R W R^T holds the rewritten states, and the probability of the event
    {a, b} is the sum of |pair amplitude|^2 over the pairs of slots of a and b
    (the pair amplitude of a doubly occupied slot is W'[r, r] / sqrt(2)).
    """
    ports = layout.by_path()
    rows, r = mode_map_onto(basis_map(modes, {path: min(a % 90.0 for a in angle_map)
                                              for path, angle_map in ports.items()}), modes)
    order = np.arange(len(rows))
    i, j = np.nonzero(order[:, None] <= order)  # each pair of slots once, row-major
    amps = (r @ w @ r.T)[:, i, j]
    amps[:, i == j] /= SQRT2  # pair amplitudes of the rewritten states
    ids = sorted(d.id for d in layout.detectors)
    rank = {d: k for k, d in enumerate(ids)}
    det = np.array([rank[ports[m.path][m.pol]] if m.pol in ports.get(m.path, ()) else -1
                    for m in rows], dtype=np.intp)
    a, b = det[i], det[j]
    covered = (a >= 0) & (b >= 0)
    if not covered.all():
        _, hits = np.nonzero(~covered & (abs(amps) > PRUNE_TOL))
        if hits.size:
            first = hits[0]  # the first populated pair, in state and row order
            m = rows[i[first]] if a[first] < 0 else rows[j[first]]
            raise ValueError(f"no detector covers path {m.path!r} at {m.pol} deg")
    n = len(ids)
    event = (np.minimum(a, b) * n + np.maximum(a, b))[covered]  # the sorted id pair
    index = np.arange(len(w))[:, None] * (n * n) + event
    probs = np.bincount(index.ravel(), weights=(abs(amps[:, covered]) ** 2).ravel(),
                        minlength=len(w) * n * n).reshape(len(w), n * n)
    out: List[Dict[Event, float]] = [{} for _ in range(len(w))]
    k, e = np.nonzero(probs > PRUNE_TOL ** 2)
    for state, pair, prob in zip(k.tolist(), e.tolist(), probs[k, e].tolist()):
        out[state][ids[pair // n], ids[pair % n]] = prob
    return out


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
    w, modes = circuit.compiled.run([state for _, state in inputs])
    entries = {}
    for (label, _), dist in zip(inputs, _event_distributions(w, modes, layout)):
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


@functools.lru_cache(maxsize=None)
def _hom_cross_outputs(kind: BellKind, joint_parity: int) -> Tuple[float, float]:
    """Probability that the two photons of `kind` leave a 50-50 splitter on
    different paths: (interfering, distinguishable).  The pump enters only
    through its joint parity, so the pair is the cache key."""
    circuit = Circuit(
        paths=("1", "2", "A", "B"),
        elements=(BeamSplitter("1", "2", "A", "B"),),
        inputs=("1", "2"),
        name="hom",
    )
    probs = []
    for temporal in (INTERFERING, DISTINGUISHABLE):
        state = attach_pump_parity(bell_state(kind, "1", "2", temporal=temporal), joint_parity)
        out = run_circuit(circuit, state)
        probs.append(sum(abs(a) ** 2 for (m1, m2), a in out.terms.items() if m1.path != m2.path))
    return probs[0], probs[1]


def coincidence_probability(kind: BellKind, pump: PumpProfile, overlap: float) -> float:
    """Cross-output coincidence probability at a 50-50 splitter, mixed model."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    p_int, p_dist = _hom_cross_outputs(kind, pump.joint_parity)
    return overlap * p_int + (1.0 - overlap) * p_dist


def hom_scan(
    kind: BellKind,
    pump: PumpProfile,
    deltas: Sequence[float],
    model: OverlapModel = OverlapModel(),
) -> List[Tuple[float, float]]:
    """Coincidence probability vs. relative delay (meters)."""
    p_int, p_dist = _hom_cross_outputs(kind, pump.joint_parity)
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
    return _mode_basis(circuit, {m for pair in state.terms for m in pair}, max_modes)


def _mode_basis(circuit: Circuit, occupied, max_modes: int) -> List[PhotonMode]:
    unknown = {m.path for m in occupied}.difference(circuit.paths)
    if unknown:
        raise ValueError(f"state occupies unregistered paths: {sorted(unknown)}")
    parities = sorted({m.parity for m in occupied}) or [EVEN]
    temporals = sorted({m.temporal for m in occupied}) or [0]
    # every field is already valid: registered paths, h/v, the state's own labels
    modes = [
        PhotonMode._make((p, pol, par, t))
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


def _pol_vec(angle):
    """(cos, sin) of a linear polarization angle in degrees, or of an array of them."""
    rad = np.radians(angle)
    return np.array([np.cos(rad), np.sin(rad)])


def _waveplate(kind: str, fast_axis: float) -> np.ndarray:
    """Jones matrix of a retarder in h/v, from its rotation form:
    J = e^{-i delta/2} [cos(delta/2) I + i sin(delta/2) (cos 2phi sz + sin 2phi sx)],
    retardance delta pi (half) or pi/2 (quarter), fast axis phi; the slow
    axis is delayed."""
    half = (math.pi if kind == "half" else math.pi / 2.0) / 2.0
    c, s = math.cos(half), math.sin(half)
    phi = math.radians(fast_axis)
    z, x = math.cos(phi) ** 2 - math.sin(phi) ** 2, 2.0 * math.cos(phi) * math.sin(phi)
    return complex(c, -s) * np.array([[c + 1j * s * z, 1j * s * x],
                                      [1j * s * x, c - 1j * s * z]])


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


def _element_unitary(el: Element, by_path: Dict[str, List[PhotonMode]],
                     idx: Dict[PhotonMode, int]) -> Tuple[np.ndarray, np.ndarray]:
    """The element's single-photon unitary on the modes it moves: their rows,
    ascending, and the block over them; every other mode stays put.

    `by_path` lists the basis modes of each path and `idx` gives each mode's
    row; an image is looked up as a plain (path, pol, parity, temporal) tuple.
    """
    entries: Dict[Tuple[int, int], complex] = {}
    moved = set()

    def put(m: PhotonMode, path: str, pol: float, val: complex) -> None:
        col = idx[m]
        moved.add(col)
        if abs(val) > 0:
            key = (idx[path, pol, m.parity, m.temporal], col)
            entries[key] = entries.get(key, 0j) + val

    if isinstance(el, BeamSplitter):
        routes = [(el.in1, el.out1, el.out2), (el.in2, el.out2, el.out1)]
        if _io_roles((el.in1, el.in2), (el.out1, el.out2), "beam splitter"):
            routes += [(el.out1, el.in1, el.in2), (el.out2, el.in2, el.in1)]
        for src, straight, cross in routes:
            for m in by_path[src]:
                s = -1.0 if (el.reflect_flips_y and m.parity == ODD) else 1.0
                put(m, straight, m.pol, 1.0 / SQRT2)
                put(m, cross, m.pol, 1j * s / SQRT2)
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
        for src, t_out, r_out in routes:
            for m in by_path[src]:
                col = 0 if m.pol == H else 1
                refl = 1j * (-1.0 if (el.reflect_flips_y and m.parity == ODD) else 1.0)
                for row_pol, row_i in ((H, 0), (V, 1)):
                    put(m, t_out, row_pol, et[row_i] * et[col])
                    put(m, r_out, row_pol, refl * er[row_i] * er[col])
    elif isinstance(el, WavePlate):
        jones = _waveplate(el.kind, el.fast_axis)
        for m in by_path[el.path]:
            col = 0 if m.pol == H else 1
            put(m, el.path, H, jones[0, col])
            put(m, el.path, V, jones[1, col])
    elif isinstance(el, Mirror):
        for m in by_path[el.path]:
            if el.flips_y and m.parity == ODD:
                put(m, el.path, m.pol, -1.0)
    elif isinstance(el, Delay):
        pass
    else:  # pragma: no cover
        raise TypeError(f"unknown element {el!r}")

    rows = sorted(moved)
    place = {r: k for k, r in enumerate(rows)}
    block = np.zeros((len(rows), len(rows)), dtype=complex)
    for (r, c), val in entries.items():
        block[place[r], place[c]] = val
    return np.array(rows, dtype=np.intp), block


def _evolve(circuit: Circuit, modes: List[PhotonMode], c: np.ndarray) -> np.ndarray:
    """U c for the circuit's single-photon unitary U over `modes` (the rows
    of c), one element at a time on the rows it moves.  Overwrites c."""
    idx = {m: i for i, m in enumerate(modes)}
    by_path: Dict[str, List[PhotonMode]] = {p: [] for p in circuit.paths}
    for m in modes:
        by_path[m.path].append(m)
    for el in circuit.elements:
        rows, block = _element_unitary(el, by_path, idx)
        if rows.size:
            c[rows] = block @ c[rows]
    return c


def single_photon_unitary(circuit: Circuit, modes: List[PhotonMode]) -> np.ndarray:
    return _evolve(circuit, modes, np.eye(len(modes), dtype=complex))


def oracle_apply(circuit: Circuit, state: TwoPhotonState, max_modes: int = 32) -> TwoPhotonState:
    """Dense reference evolution on the symmetric two-photon space.

    One pass over the input's pairs gives its distinct modes and its pair
    matrix w over them (w[i, j] = amplitude / sqrt(2) for i != j, w[i, i]
    the amplitude), so the state is a^dag w a^dag / sqrt(2).  Each input mode
    at angle a is the column cos(a) e_H + sin(a) e_V of E over the global h/v
    basis; the circuit's unitary U acts on those columns, and the output is
    w' = (U E) w (U E)^T.  Its pair amplitudes above SUPPORT_TOL make the
    output state, which carries its pair form as the engine's outputs do.
    """
    ends = list(itertools.chain.from_iterable(state.terms))
    local = dict.fromkeys(ends)
    for k, m in enumerate(local):
        local[m] = k
    i, j = np.fromiter(map(local.__getitem__, ends), dtype=np.intp,
                       count=len(ends)).reshape(-1, 2).T
    amps = np.fromiter(state.terms.values(), dtype=complex, count=len(state.terms))
    w = np.zeros((len(local), len(local)), dtype=complex)
    w[i, j] = w[j, i] = np.where(i == j, amps, amps / SQRT2)
    modes = sorted(_mode_basis(circuit, local, max_modes))  # so i <= j is a pair key
    idx = {m: k for k, m in enumerate(modes)}
    inputs = list(local)
    c = np.zeros((len(modes), len(inputs)), dtype=complex)
    for pol, column in zip((H, V), _pol_vec([m.pol for m in inputs])):
        c[[idx[m.path, pol, m.parity, m.temporal] for m in inputs], range(len(inputs))] = column
    c = _evolve(circuit, modes, c)
    wp = c @ w @ c.T
    i, j = np.triu_indices(len(modes))
    amps = np.where(i == j, 1.0, SQRT2) * wp[i, j]
    keep = abs(amps) > SUPPORT_TOL
    return state_from_pairs(modes, i[keep], j[keep], amps[keep], dict(state.delays))


def oracle_check(
    circuit: Circuit,
    state: TwoPhotonState,
    tol: float = 1e-9,
    max_modes: int = 32,
) -> bool:
    """Engine output equals the dense-oracle output up to a global phase.

    The comparison is `twophoton.equal_up_to_global_phase`, the one predicate
    shared with the engine's side: it reads only the two states' pair forms.
    """
    engine = run_circuit(circuit, state)
    reference = oracle_apply(circuit, state, max_modes=max_modes)
    return equal_up_to_global_phase(engine, reference, tol)
