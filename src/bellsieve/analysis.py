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

`oracle_check` is the one place where the engine meets the dense oracle
(`bellsieve.oracle`), an independent derivation of every circuit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hgmodes import PHOTON_WAVELENGTH, PumpProfile
from .optics import BeamSplitter, Circuit, CircuitSchemaError, run_circuit
from .oracle import oracle_apply
from .twophoton import (
    BELL_KINDS,
    PRUNE_TOL,
    SQRT2,
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
)

SUPPORT_TOL = 1e-12  # a probability: events above it are in an input's support

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
