"""Shared test utilities: random circuits/states and golden-state builders."""
from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence, Tuple

from bellsieve import twophoton
from bellsieve.optics import (
    BeamSplitter,
    Circuit,
    Delay,
    Mirror,
    PolarizingBS,
    WavePlate,
)
from bellsieve.twophoton import (
    EVEN,
    H,
    ODD,
    V,
    PhotonMode,
    TwoPhotonState,
    pair_key,
)

SQRT2 = math.sqrt(2.0)

PBS_ANGLES = (0.0, 22.5, 30.0, 45.0, 67.5, 90.0, 135.0)


def random_circuit(rng: random.Random, n_paths: Optional[int] = None,
                   n_elements: Optional[int] = None) -> Circuit:
    paths = tuple(f"p{i}" for i in range(n_paths or rng.randint(2, 6)))
    elements = []
    for _ in range(n_elements or rng.randint(1, 7)):
        kind = rng.choice(("bs", "pbs", "wp", "mirror", "delay"))
        if kind == "bs":
            p, q = rng.sample(paths, 2)
            elements.append(BeamSplitter(p, q, p, q, reflect_flips_y=rng.random() < 0.8))
        elif kind == "pbs":
            p, q = rng.sample(paths, 2)
            elements.append(PolarizingBS(
                in1=p, in2=q, out_t=p, out_r=q,
                basis_angle=rng.choice(PBS_ANGLES),
                reflect_flips_y=rng.random() < 0.8,
            ))
        elif kind == "wp":
            elements.append(WavePlate(rng.choice(paths), rng.choice(("half", "quarter")),
                                      fast_axis=rng.uniform(0.0, 180.0)))
        elif kind == "mirror":
            elements.append(Mirror(rng.choice(paths)))
        else:
            elements.append(Delay(rng.choice(paths), rng.uniform(0.0, 1e-4)))
    return Circuit(paths=paths, elements=tuple(elements))


def count_mode_map_passes(monkeypatch) -> list:
    """Count `apply_mode_map` calls, each one pass over a state, from now on;
    the returned list grows by one per call."""
    calls = []
    apply_mode_map = twophoton.apply_mode_map

    def counting(state, mapping):
        calls.append(1)
        return apply_mode_map(state, mapping)

    monkeypatch.setattr(twophoton, "apply_mode_map", counting)
    return calls


def random_state(rng: random.Random, paths: Sequence[str],
                 parities: Sequence[str] = (EVEN, ODD),
                 temporals: Sequence[int] = (0,)) -> TwoPhotonState:
    modes = [
        PhotonMode(p, pol, par, t)
        for p in paths for pol in (H, V) for par in parities for t in temporals
    ]
    terms: Dict[Tuple[PhotonMode, PhotonMode], complex] = {}
    for _ in range(rng.randint(1, 6)):
        m1, m2 = rng.choice(modes), rng.choice(modes)
        k = pair_key(m1, m2)
        terms[k] = terms.get(k, 0j) + complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    if norm == 0.0:
        terms = {pair_key(modes[0], modes[1]): 1.0 + 0j}
        norm = 1.0
    return TwoPhotonState({k: a / norm for k, a in terms.items()})


def golden_state(terms: Dict[Tuple[Tuple[str, float], Tuple[str, float]], complex],
                 sector: Optional[str] = None) -> TwoPhotonState:
    """Build an expected state from {((path, pol), (path, pol)): amp}.

    sector None keeps both photons even; "sym"/"anti" attaches the
    [(even,odd) +- (odd,even)]/sqrt(2) transverse superposition per ordered
    term.
    """
    acc: Dict[Tuple[PhotonMode, PhotonMode], complex] = {}

    def add(m1: PhotonMode, m2: PhotonMode, a: complex) -> None:
        k = pair_key(m1, m2)
        acc[k] = acc.get(k, 0j) + a

    for ((p1, a1), (p2, a2)), amp in terms.items():
        if sector is None:
            add(PhotonMode(p1, a1), PhotonMode(p2, a2), amp)
            continue
        sign = 1.0 if sector == "sym" else -1.0
        add(PhotonMode(p1, a1, EVEN), PhotonMode(p2, a2, ODD), amp / SQRT2)
        add(PhotonMode(p1, a1, ODD), PhotonMode(p2, a2, EVEN), sign * amp / SQRT2)
    return TwoPhotonState({k: a for k, a in acc.items() if abs(a) > 1e-15})
