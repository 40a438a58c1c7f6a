"""The dense two-photon oracle: a second, independent derivation of a circuit.

It rebuilds every circuit as an explicit single-photon unitary over
(path, polarization, parity, temporal) modes in the global h/v basis and
lifts it to the symmetric two-photon space.  It expands its input into h/v
with its own polarization vectors and writes each element's unitary, wave
plates included, with its own code: it reads the element dataclasses and
`Circuit`, never the engine's element rules or conversions.  The one helper
it shares with the engine is `twophoton.state_from_pairs`, which packs pair
amplitudes into a state and its pair form.  `analysis.oracle_check` is where
the two derivations meet.
"""
from __future__ import annotations

import itertools
import math
from typing import Dict, List, Tuple

import numpy as np

from .optics import BeamSplitter, Circuit, Delay, Element, Mirror, PolarizingBS, WavePlate
from .twophoton import (
    EVEN,
    H,
    ODD,
    PRUNE_TOL,
    SQRT2,
    V,
    PhotonMode,
    TwoPhotonState,
    normalize_angle,
    state_from_pairs,
)


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
    """The circuit's single-photon unitary over `modes`; public so that a
    circuit self-check (the planned `bellsieve check`) can report its
    unitarity error."""
    return _evolve(circuit, modes, np.eye(len(modes), dtype=complex))


def oracle_apply(circuit: Circuit, state: TwoPhotonState, max_modes: int = 32) -> TwoPhotonState:
    """Dense reference evolution on the symmetric two-photon space.

    One pass over the input's pairs gives its distinct modes and its pair
    matrix w over them (w[i, j] = amplitude / sqrt(2) for i != j, w[i, i]
    the amplitude), so the state is a^dag w a^dag / sqrt(2).  Each input mode
    at angle a is the column cos(a) e_H + sin(a) e_V of E over the global h/v
    basis; the circuit's unitary U acts on those columns, and the output is
    w' = (U E) w (U E)^T.  Its pair amplitudes above PRUNE_TOL (an amplitude)
    make the output state, which carries its pair form as the engine's
    outputs do.
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
    keep = abs(amps) > PRUNE_TOL
    return state_from_pairs(modes, i[keep], j[keep], amps[keep], dict(state.delays))
