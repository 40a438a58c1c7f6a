"""Two-photon state algebra over labelled bosonic modes.

A single-photon mode is the tuple (path, polarization angle, transverse
y-parity, temporal tag).  A two-photon state is a complex amplitude map over
*unordered* pairs of modes, stored once per pair with the smaller mode first:
tuple order is the canonical pair order, so bosonic exchange symmetry is
structural rather than a runtime invariant.  Amplitudes are taken in the
normalized pair basis: for distinct modes i != j the basis vector is
a_i^dag a_j^dag |0>, and for i == j it is (a_i^dag)^2 |0> / sqrt(2), so the
norm is just sum |amplitude|^2.

Linear optics works on another form: a symmetric complex matrix W over a
list of single-photon modes, W[i, j] = W[j, i] the amplitude of the pair
(i, j) for i != j and W[i, i] = sqrt(2) times that of two photons in mode i.
`to_pair_matrices` and `from_pair_matrices` convert a stack of states to and
from it, and a state leaves W pruned at PRUNE_TOL.  A single-photon linear
map M acts on W as W -> M W M^T, the norm is |W|_F^2 / 2 and <s1|s2> is
vdot(W1, W2) / 2.  Every state also carries its own pair-matrix form, W over
its ascending occupied modes (`TwoPhotonState.pair_form`): the norm, inner
products, basis changes and detection read it instead of the terms.
`apply_mode_map` is the lift for a map given mode by mode; the circuit engine
(`optics`) runs whole circuits on the same form.

Polarization is a linear-polarization angle in degrees, reduced to [0, 180).
The engine returns every path in h/v.  `basis_map` writes paths exactly in
other orthogonal bases {theta, theta+90}; `rebase_paths` lifts that map onto a
state in one pass, and detection (`analysis`) folds it into its contraction.

The transverse degree of freedom is tracked per photon as an even/odd
y-parity label.  The joint (product) parity equals the pump beam's y-parity;
a y-reflection acts on a photon as (-1)^parity.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

SQRT2 = math.sqrt(2.0)

# polarization angle constants (degrees)
H = 0.0
V = 90.0
DIAG = 45.0
ANTIDIAG = 135.0

EVEN = "even"
ODD = "odd"

PRUNE_TOL = 1e-12
NORM_TOL = 1e-9

BELL_KINDS = ("psi+", "psi-", "phi+", "phi-")
# BellKind is one of the strings above
BellKind = str


def normalize_angle(angle: float) -> float:
    """Reduce a polarization angle to [0, 180) degrees, rounded for stable keys."""
    a = float(angle) % 180.0
    a = round(a, 9)
    if a >= 180.0 or a == -0.0:
        a = a % 180.0
    return a


class PhotonMode(namedtuple("PhotonMode", "path pol parity temporal")):
    """Label of a single-photon mode: (path, pol, parity, temporal).

    Tuple order is the canonical pair order ("even" sorts before "odd").
    Build modes with the constructor, which checks the parity and reduces
    `pol` with `normalize_angle`; `_replace` and `_make` skip those checks.
    """

    __slots__ = ()

    def __new__(cls, path: str, pol: float = H, parity: str = EVEN, temporal: int = 0):
        if parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        angle = normalize_angle(pol)
        if not math.isfinite(angle):
            raise ValueError(f"polarization angle must be finite, got {pol!r}")
        return tuple.__new__(cls, (path, angle, parity, temporal))

    def with_path(self, path: str) -> "PhotonMode":
        return PhotonMode(path, self.pol, self.parity, self.temporal)

    def with_pol(self, pol: float) -> "PhotonMode":
        return PhotonMode(self.path, pol, self.parity, self.temporal)

    def with_parity(self, parity: str) -> "PhotonMode":
        return PhotonMode(self.path, self.pol, parity, self.temporal)


PairKey = Tuple[PhotonMode, PhotonMode]
# single-photon linear map: mode -> sequence of (image mode, coefficient)
ModeMap = Mapping[PhotonMode, Sequence[Tuple[PhotonMode, complex]]]


def pair_key(m1: PhotonMode, m2: PhotonMode) -> PairKey:
    """Canonically ordered unordered-pair key."""
    return (m1, m2) if m1 <= m2 else (m2, m1)


PairForm = Tuple[List[PhotonMode], np.ndarray]  # ascending occupied modes, W over them


@dataclass(frozen=True)
class TwoPhotonState:
    """Normalized amplitude map over unordered photon-mode pairs.

    `terms` maps each canonical pair to its amplitude.  `pair_form()` is the
    same state as a pair matrix: the ascending modes the terms occupy and W
    over them, exactly as `to_pair_matrices` builds it from the terms.  It is
    computed on first use and kept; the engine's exit (`from_pair_matrices`)
    hands over the form it already holds.  Its array is read-only.  `delays` carries accumulated optical delays per path,
    written by delay elements; nothing reads it yet and it does not affect
    amplitudes.
    """

    terms: Dict[PairKey, complex]
    delays: Dict[str, float] = field(default_factory=dict)
    _form: Optional[PairForm] = field(default=None, init=False, repr=False, compare=False)

    def pair_form(self) -> PairForm:
        """(ascending occupied modes, read-only W over them), built once."""
        if self._form is None:
            modes = sorted({m for pair in self.terms for m in pair})
            w = to_pair_matrices([self], {m: k for k, m in enumerate(modes)})[0]
            _carry_pair_form(self, modes, w)
        return self._form

    def norm_sq(self) -> float:
        w = self.pair_form()[1]
        return float(np.vdot(w, w).real) / 2

    def paths(self) -> set:
        return {m.path for m in self.pair_form()[0]}

    def amplitude(self, m1: PhotonMode, m2: PhotonMode) -> complex:
        return self.terms.get(pair_key(m1, m2), 0j)


def _carry_pair_form(state: TwoPhotonState, modes: List[PhotonMode],
                     w: np.ndarray) -> TwoPhotonState:
    """Give a state just built its pair form (see `TwoPhotonState.pair_form`):
    the caller's W over the ascending occupied `modes`, which must equal what
    `to_pair_matrices` builds from the terms.  Makes `w` read-only."""
    w.flags.writeable = False
    object.__setattr__(state, "_form", (modes, w))
    return state


def _pruned(terms: Dict[PairKey, complex]) -> Dict[PairKey, complex]:
    return {k: a for k, a in terms.items() if abs(a) > PRUNE_TOL}


def make_state(
    terms: Mapping[Tuple[PhotonMode, PhotonMode], complex],
    delays: Optional[Mapping[str, float]] = None,
) -> TwoPhotonState:
    """Build a state from (possibly unordered-keyed) terms; enforce normalization.

    Terms with the same canonical key are summed in term order, then those at
    or below PRUNE_TOL are dropped and the rest normalized exactly.
    """
    keys = [k if k[0] <= k[1] else (k[1], k[0]) for k in terms]
    amps = np.fromiter(terms.values(), dtype=complex, count=len(keys))
    mags = abs(amps)
    n = math.sqrt(float((mags ** 2).sum()))
    # each part divided exactly; a repeated pair leaves fewer keys than terms
    out = dict(zip(keys, (amps.view(float) / n).view(complex).tolist())) \
        if (mags > PRUNE_TOL).all() else {}
    if len(out) < len(keys):  # a pair given in both orders, or a term to drop
        slots: Dict[PairKey, int] = {}
        slot = np.array([slots.setdefault(k, len(slots)) for k in keys], dtype=np.intp)
        acc = np.empty(len(slots), dtype=complex)  # bincount adds each slot's terms in order
        acc.real = np.bincount(slot, weights=amps.real, minlength=len(slots))
        acc.imag = np.bincount(slot, weights=amps.imag, minlength=len(slots))
        mags = abs(acc)
        keep = mags > PRUNE_TOL
        n = math.sqrt(float((mags[keep] ** 2).sum()))
        parts = acc[keep].view(float) / n
        out = dict(zip(itertools.compress(slots, keep.tolist()), parts.view(complex).tolist()))
    if abs(n - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |amplitude|^2 sums to {n**2:.3e}")
    return TwoPhotonState(out, dict(delays or {}))


def to_pair_matrices(states: Sequence[TwoPhotonState],
                     index: Mapping[PhotonMode, int]) -> np.ndarray:
    """The states as a stack of pair matrices W over `index` (mode -> row and column)."""
    batch = np.repeat(np.arange(len(states)), [len(state.terms) for state in states])
    ij = [index[m] for state in states for pair in state.terms for m in pair]
    i, j = np.array(ij, dtype=np.intp).reshape(-1, 2).T
    amps = np.array([a for state in states for a in state.terms.values()], dtype=complex)
    return _pair_matrix(batch, i, j, amps, len(states), len(index))


def _pair_matrix(batch: np.ndarray, i: np.ndarray, j: np.ndarray, amps: np.ndarray,
                 count: int, size: int) -> np.ndarray:
    """A stack of `count` pair matrices W over `size` modes holding the pair
    amplitudes `amps` of the pairs (i, j) of the states `batch`."""
    amps = amps.copy()
    amps[i == j] *= SQRT2
    w = np.zeros((count, size, size), dtype=complex)
    w[batch, i, j] = amps
    w[batch, j, i] = amps
    return w


def from_pair_matrices(w: np.ndarray, modes: Sequence[PhotonMode],
                       delays: Sequence[Dict[str, float]]) -> List[TwoPhotonState]:
    """The stack `w` over ascending `modes` as states, each pruned at PRUNE_TOL
    (not renormalized) and given its `delays` dict.  Overwrites `w`.

    Each state carries its pair-matrix form, built from the kept pair
    amplitudes as `to_pair_matrices` would build it from the terms: `w` need
    not be exactly symmetric, so the form mirrors its kept upper triangle.
    """
    diagonal = np.einsum("kii->ki", w)  # a view
    diagonal /= SQRT2  # now pair amplitudes on and above the diagonal
    k, i, j = np.nonzero(abs(w) > PRUNE_TOL)
    upper = i <= j
    k, i, j = k[upper], i[upper], j[upper]
    amps = w[k, i, j]
    ends = np.cumsum(np.bincount(k, minlength=len(w))).tolist()
    return [state_from_pairs(modes, i[start:end], j[start:end], amps[start:end], state_delays)
            for state_delays, start, end in zip(delays, [0] + ends, ends)]


def state_from_pairs(modes: Sequence[PhotonMode], i: np.ndarray, j: np.ndarray,
                     amps: np.ndarray, delays: Dict[str, float]) -> TwoPhotonState:
    """The state with pair amplitudes `amps` on the pairs (modes[i], modes[j]),
    i <= j, over ascending `modes`, taken as they are (no pruning, no
    normalization), given `delays` and carrying its pair form."""
    held = np.bincount(np.concatenate((i, j)), minlength=len(modes)) > 0
    own = np.cumsum(held) - 1  # row -> its place among the state's modes
    form = _pair_matrix(0, own[i], own[j], amps, 1, int(held.sum()))[0]
    terms = dict(zip(zip(map(modes.__getitem__, i.tolist()), map(modes.__getitem__, j.tolist())),
                     amps.tolist()))
    return _carry_pair_form(TwoPhotonState(terms, delays),
                            [modes[r] for r in np.flatnonzero(held).tolist()], form)


def mode_map_matrix(mapping: ModeMap, sources: Sequence[PhotonMode],
                    index: Mapping[PhotonMode, int]) -> np.ndarray:
    """The map's matrix from `sources` (columns) to `index` (mode -> row); modes
    absent from the mapping stay put."""
    matrix = np.zeros((len(index), len(sources)), dtype=complex)
    for col, m in enumerate(sources):
        for image, c in mapping.get(m, ((m, 1.0),)):
            matrix[index[image], col] += c
    return matrix


def mode_map_onto(mapping: ModeMap,
                  sources: Sequence[PhotonMode]) -> Tuple[List[PhotonMode], np.ndarray]:
    """The ascending images of `sources` under the map, and its matrix onto them."""
    images = sorted({image for m in sources for image, _ in mapping.get(m, ((m, 1.0),))})
    return images, mode_map_matrix(mapping, sources, {m: r for r, m in enumerate(images)})


def apply_mode_map(state: TwoPhotonState, mapping: ModeMap) -> TwoPhotonState:
    """Lift a single-photon linear map M to the state, W -> M W M^T; the result
    is pruned but not renormalized (unitary maps preserve the norm)."""
    occupied, w = state.pair_form()
    modes, lift = mode_map_onto(mapping, occupied)
    return from_pair_matrices(lift @ w[None] @ lift.T, modes, [dict(state.delays)])[0]


# ---------------------------------------------------------------------------
# constructors


# Bell kind -> polarizations of photons one and two in its two terms, sign of the second
_BELL_TERMS = {"psi+": ((H, V), (V, H), 1.0), "psi-": ((H, V), (V, H), -1.0),
               "phi+": ((H, H), (V, V), 1.0), "phi-": ((H, H), (V, V), -1.0)}


def _bell_superposition(kind: BellKind, path_pairs: Sequence[Tuple[str, str]],
                        temporal: Tuple[int, int], repeated_path: str) -> TwoPhotonState:
    """Equal superposition of the Bell state `kind` on each (photon one,
    photon two) path pair; raises ValueError(repeated_path) if a path repeats."""
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell kind {kind!r}")
    if len({p for pair in path_pairs for p in pair}) != 2 * len(path_pairs):
        raise ValueError(repeated_path)
    first, second, sign = _BELL_TERMS[kind]
    amp = 1.0 / math.sqrt(2 * len(path_pairs))
    t1, t2 = temporal
    terms = {}
    for p1, p2 in path_pairs:
        for (q1, q2), s in ((first, 1.0), (second, sign)):
            terms[(PhotonMode(p1, q1, temporal=t1), PhotonMode(p2, q2, temporal=t2))] = s * amp
    return make_state(terms)


def bell_state(
    kind: BellKind,
    p1: str,
    p2: str,
    temporal: Tuple[int, int] = (0, 0),
) -> TwoPhotonState:
    """Polarization Bell state across two spatial paths.

    psi+- = (h1 v2 +- v1 h2)/sqrt(2), phi+- = (h1 h2 +- v1 v2)/sqrt(2).
    Parity labels default to even; `temporal` tags the photons in p1, p2.
    """
    return _bell_superposition(kind, ((p1, p2),), temporal,
                               "Bell states are defined across two distinct spatial paths")


def hyper_state(
    kind: BellKind,
    paths: Sequence[str],
    temporal: Tuple[int, int] = (0, 0),
) -> TwoPhotonState:
    """Path-hyperentangled Bell state over four paths (a, b, c, d).

    psi+- = {(a_h b_v +- a_v b_h) + (c_h d_v +- c_v d_h)}/2 and likewise for
    phi+- with equal polarizations; photon one occupies a or c, photon two
    b or d.
    """
    a, b, c, d = paths
    return _bell_superposition(kind, ((a, b), (c, d)), temporal,
                               "hyperentangled states require four distinct paths")


def attach_pump_parity(state: TwoPhotonState, pump) -> TwoPhotonState:
    """Attach the pump beam's joint transverse parity to a polarization state.

    An even pump leaves every photon in the even sector; an odd pump splits
    each term into the symmetric superposition [(even,odd)+(odd,even)]/sqrt(2).
    `pump` may be a PumpProfile or a bare +-1 joint parity.
    """
    joint = getattr(pump, "joint_parity", pump)
    if joint not in (+1, -1):
        raise ValueError(f"joint parity must be +1 or -1, got {joint!r}")
    for m1, m2 in state.terms:
        if m1.parity != EVEN or m2.parity != EVEN:
            raise ValueError("pump parity already attached (odd labels present)")
    if joint == +1:
        return state
    out: Dict[PairKey, complex] = {}
    for (m1, m2), amp in state.terms.items():
        a = amp / SQRT2 if m1 == m2 else amp
        for pa, pb in ((EVEN, ODD), (ODD, EVEN)):
            k = pair_key(m1.with_parity(pa), m2.with_parity(pb))
            out[k] = out.get(k, 0j) + a / SQRT2
    # the photons of a pair now differ in parity, so each coefficient is its amplitude
    return TwoPhotonState(_pruned(out), dict(state.delays))


# ---------------------------------------------------------------------------
# inner products and comparisons


def inner_product(s1: TwoPhotonState, s2: TwoPhotonState) -> complex:
    """Hermitian inner product <s1|s2> over the unordered-pair basis, read
    from the pair forms as vdot(W1, W2) / 2 on the modes both occupy."""
    modes1, w1 = s1.pair_form()
    modes2, w2 = s2.pair_form()
    place = {m: k for k, m in enumerate(modes2)}
    a, b = np.array([(k, place[m]) for k, m in enumerate(modes1) if m in place],
                    dtype=np.intp).reshape(-1, 2).T
    return complex(np.vdot(w1[np.ix_(a, a)], w2[np.ix_(b, b)])) / 2


def overlap(s1: TwoPhotonState, s2: TwoPhotonState) -> float:
    return abs(inner_product(s1, s2))


def equal_up_to_global_phase(s1: TwoPhotonState, s2: TwoPhotonState, tol: float = 1e-9) -> bool:
    """State equality modulo one global phase: |<s1|s2>| = 1 within tol, on
    the normalized states.  Norms and the inner product are read from the
    pair forms, so no term of either state is visited."""
    n1, n2 = s1.norm_sq(), s2.norm_sq()
    if n1 < PRUNE_TOL or n2 < PRUNE_TOL:
        return n1 < PRUNE_TOL and n2 < PRUNE_TOL
    return abs(overlap(s1, s2) / math.sqrt(n1 * n2) - 1.0) <= tol


def apply_y_reflection(state: TwoPhotonState) -> TwoPhotonState:
    """Simultaneous y-reflection of both photons: amplitude times (-1)^(#odd)."""
    terms = {}
    for (m1, m2), a in state.terms.items():
        s = (-1.0 if m1.parity == ODD else 1.0) * (-1.0 if m2.parity == ODD else 1.0)
        terms[(m1, m2)] = s * a
    return TwoPhotonState(terms, dict(state.delays))


def joint_parities(state: TwoPhotonState) -> set:
    """Set of per-term joint parities (+1/-1) present in the state."""
    out = set()
    for m1, m2 in state.terms:
        out.add((-1 if m1.parity == ODD else 1) * (-1 if m2.parity == ODD else 1))
    return out


# ---------------------------------------------------------------------------
# polarization basis changes


def cosd(angle: float) -> float:
    """cos of an angle in degrees; rounding residues below 1e-15 are exact zeros."""
    c = math.cos(math.radians(angle))
    return 0.0 if abs(c) < 1e-15 else c


def basis_map(modes: Iterable[PhotonMode], bases: Mapping[str, float]) -> ModeMap:
    """The map writing each mode on a path of `bases` in its basis {theta, theta+90}.

    Exact linear-polarization decomposition e(alpha) = cos(alpha-theta) e(theta)
    + cos(alpha-phi) e(phi); modes already in their basis, or on other paths,
    are left out of the map, so they stay put.
    """
    axes = {}
    for path, angle in bases.items():
        theta = normalize_angle(angle)
        axes[path] = (theta, normalize_angle(theta + 90.0))
    mapping: Dict[PhotonMode, Sequence[Tuple[PhotonMode, complex]]] = {}
    for m in modes:
        basis = axes.get(m.path)
        if basis is not None and m.pol not in basis:
            mapping[m] = tuple((PhotonMode._make((m.path, axis, m.parity, m.temporal)),
                                cosd(m.pol - axis)) for axis in basis)  # fields already valid
    return mapping


def rebase_paths(state: TwoPhotonState, bases: Mapping[str, float]) -> TwoPhotonState:
    """Rewrite the modes on each path of `bases` in its basis {theta, theta+90}
    (see `basis_map`), in one pass; a no-op when every mode is already there."""
    mapping = basis_map(state.pair_form()[0], bases)
    return apply_mode_map(state, mapping) if mapping else state


def rebase_path(state: TwoPhotonState, path: str, basis_angle: float) -> TwoPhotonState:
    """Rewrite all modes on `path` in the orthogonal basis {theta, theta+90}."""
    return rebase_paths(state, {path: basis_angle})


def rebase_all(state: TwoPhotonState, basis_angle: float = 0.0) -> TwoPhotonState:
    """`rebase_paths` on every path of the state."""
    return rebase_paths(state, dict.fromkeys(state.paths(), basis_angle))


def pol_pair_probs(state: TwoPhotonState) -> Dict[Tuple[Tuple[str, float], Tuple[str, float]], float]:
    """Probabilities per (path, pol) monomial, parity and temporal tags traced out."""
    out: Dict[Tuple[Tuple[str, float], Tuple[str, float]], float] = {}
    for (m1, m2), a in state.terms.items():
        r1, r2 = (m1.path, m1.pol), (m2.path, m2.pol)
        k = (r1, r2) if r1 <= r2 else (r2, r1)
        out[k] = out.get(k, 0.0) + abs(a) ** 2
    return out


# ---------------------------------------------------------------------------
# serialization


def mode_from_json(d: dict) -> PhotonMode:
    return PhotonMode(
        path=str(d["path"]),
        pol=float(d.get("pol", H)),
        parity=str(d.get("parity", EVEN)),
        temporal=int(d.get("temporal", 0)),
    )


def state_to_json(state: TwoPhotonState) -> dict:
    """JSON form: {"terms": [{"modes": [m1, m2], "re": .., "im": ..}], "delays": {..}}."""
    terms = []
    for (m1, m2), a in sorted(state.terms.items()):
        terms.append({"modes": [m1._asdict(), m2._asdict()], "re": a.real, "im": a.imag})
    doc = {"terms": terms}
    if state.delays:
        doc["delays"] = {k: state.delays[k] for k in sorted(state.delays)}
    return doc


def state_from_json(doc: dict) -> TwoPhotonState:
    terms: Dict[PairKey, complex] = {}
    for t in doc["terms"]:
        m1, m2 = (mode_from_json(x) for x in t["modes"])
        terms[pair_key(m1, m2)] = complex(float(t["re"]), float(t.get("im", 0.0)))
    return make_state(terms, doc.get("delays"))
