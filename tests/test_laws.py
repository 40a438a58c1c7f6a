"""Laws every linear-optical circuit obeys, checked on seeded random circuits.

They test the detection and analysis layers (rotated analysis bases,
threshold bucketing, signature tables) without the dense oracle:

- no circuit and detector layout identifies a polarization Bell state
  unambiguously with probability above 1/2 (Lütkenhaus, Calsamiglia &
  Suominen, PRA 59, 3295 (1999)); asserted for the even (Gaussian) pump only,
  because an odd pump adds a known parity entanglement that the theorem does
  not cover (Kwiat & Weinfurter, PRA 58, R2623 (1998));
- renaming the paths only relabels the events;
- swapping two adjacent elements on disjoint paths changes nothing;
- two identical half-wave plates act as the identity;
- two identical quarter-wave plates act as one half-wave plate;
- shifting or swapping both photons' temporal tags changes nothing, because
  detectors bucket over them;
- under the strict policy the success probability is affine in the overlap,
  and at overlap 1 the distinguishable table has no weight;
- `classify` gives the same partition whatever the order of the inputs.
"""
import random
from collections import Counter
from dataclasses import fields, replace

import pytest

from bellsieve.analysis import (
    DISTINGUISHABLE,
    INTERFERING,
    SUPPORT_TOL,
    Detector,
    DetectorLayout,
    SignatureTable,
    classify,
    event_distribution,
    layout_from_json,
    prepare_inputs,
    score_success,
    signature_table,
)
from bellsieve.cli import resolve_circuit
from bellsieve.hgmodes import gaussian_pump, hg01_pump
from bellsieve.optics import Circuit, WavePlate, run_circuit
from bellsieve.twophoton import BELL_KINDS, attach_pump_parity, bell_state

from helpers import random_circuit

BASES = (("H", "V"), ("45", "45b"))
TOL = 1e-12


def _circuit(rng):
    return random_circuit(rng, rng.randint(2, 5), rng.randint(1, 10))


def _layout(rng, paths):
    """An H/V or a 45/45b detector pair on every path, ids `<path>_<port>`."""
    return DetectorLayout(tuple(Detector(f"{p}_{port}", p, port)
                                for p in paths for port in rng.choice(BASES)))


def _bell_inputs(circuit, pump, temporal=INTERFERING):
    p1, p2 = circuit.paths[:2]
    return [(k, attach_pump_parity(bell_state(k, p1, p2, temporal), pump)) for k in BELL_KINDS]


def unambiguous_probability(circuit, inputs, layout):
    """P(an event only one input can produce), inputs equally likely."""
    table = signature_table(circuit, inputs, layout)
    supports = [{ev: p for ev, p in dist.items() if p > SUPPORT_TOL}
                for dist in table.entries.values()]
    producers = Counter(ev for support in supports for ev in support)
    return sum(p for support in supports for ev, p in support.items()
               if producers[ev] == 1) / len(supports)


def _events(circuit, layout, state):
    return event_distribution(run_circuit(circuit, state), layout)


def _assert_same_events(got, expected):
    for ev in got.keys() | expected.keys():
        assert got.get(ev, 0.0) == pytest.approx(expected.get(ev, 0.0), abs=TOL), ev


def test_bell_measurement_is_at_most_half_unambiguous():
    rng = random.Random(1999)
    best = {}
    for pump in (gaussian_pump(), hg01_pump()):
        best[pump.joint_parity] = max(
            unambiguous_probability(c, _bell_inputs(c, pump), _layout(rng, c.paths))
            for c in (_circuit(rng) for _ in range(150)))
    print(f"max unambiguous probability: gauss {best[+1]:.12g}, hg01 {best[-1]:.12g}")
    assert best[+1] <= 0.5 + TOL


def test_the_incomplete_analyzer_reaches_the_bound():
    circuit = resolve_circuit("incomplete_bsa")
    layout = layout_from_json(circuit.layout)
    inputs = prepare_inputs(circuit, gaussian_pump())
    assert unambiguous_probability(circuit, inputs, layout) == pytest.approx(0.5, abs=TOL)


def _renamed(el, names):
    """The element with each path field renamed (no other field holds a path label)."""
    return replace(el, **{f.name: names[getattr(el, f.name)] for f in fields(el)
                          if getattr(el, f.name) in names})


def test_renaming_paths_only_relabels_events():
    rng = random.Random(7)
    for _ in range(30):
        circuit = _circuit(rng)
        layout = _layout(rng, circuit.paths)
        # reversed sort order, so that pair keys and term order change too
        names = {p: f"z{len(circuit.paths) - i}" for i, p in enumerate(circuit.paths)}
        renamed = Circuit(paths=tuple(names[p] for p in circuit.paths),
                          elements=tuple(_renamed(el, names) for el in circuit.elements))
        # the same detector ids on the renamed paths see the same events
        relayout = DetectorLayout(tuple(replace(d, path=names[d.path]) for d in layout.detectors))
        for (_, state), (_, restate) in zip(_bell_inputs(circuit, hg01_pump()),
                                            _bell_inputs(renamed, hg01_pump())):
            _assert_same_events(_events(renamed, relayout, restate),
                                _events(circuit, layout, state))


def _paths_of(el):
    ins, outs = el.ports()
    return set(ins) | set(outs)


def test_swapping_adjacent_elements_on_disjoint_paths_changes_nothing():
    rng = random.Random(11)
    swaps = 0
    for _ in range(60):
        circuit = _circuit(rng)
        els = list(circuit.elements)
        pairs = [i for i in range(len(els) - 1)
                 if not _paths_of(els[i]) & _paths_of(els[i + 1])]
        if not pairs:
            continue
        i = rng.choice(pairs)
        els[i], els[i + 1] = els[i + 1], els[i]
        swapped = Circuit(paths=circuit.paths, elements=tuple(els))
        layout = _layout(rng, circuit.paths)
        for _, state in _bell_inputs(circuit, hg01_pump()):
            _assert_same_events(_events(swapped, layout, state), _events(circuit, layout, state))
        swaps += 1
    assert swaps >= 10


def _with_inserted(circuit, i, plates):
    els = circuit.elements
    return Circuit(paths=circuit.paths, elements=els[:i] + tuple(plates) + els[i:])


@pytest.mark.parametrize("twice,once", [("half", None), ("quarter", "half")],
                         ids=["two-hwp-identity", "two-qwp-one-hwp"])
def test_two_identical_wave_plates(twice, once):
    rng = random.Random(23)
    for _ in range(30):
        circuit = _circuit(rng)
        path, axis = rng.choice(circuit.paths), rng.uniform(0.0, 180.0)
        i = rng.randint(0, len(circuit.elements))
        doubled = _with_inserted(circuit, i, [WavePlate(path, twice, axis)] * 2)
        single = [] if once is None else [WavePlate(path, once, axis)]
        reference = _with_inserted(circuit, i, single)
        layout = _layout(rng, circuit.paths)
        for _, state in _bell_inputs(circuit, hg01_pump()):
            _assert_same_events(_events(doubled, layout, state), _events(reference, layout, state))


@pytest.mark.parametrize("tags,moved", [((0, 0), (1, 1)), ((0, 1), (1, 0))],
                         ids=["shift", "swap"])
def test_temporal_tags_only_label_the_photons(tags, moved):
    rng = random.Random(29)
    for _ in range(30):
        circuit = _circuit(rng)
        layout = _layout(rng, circuit.paths)
        pump = rng.choice((gaussian_pump(), hg01_pump()))
        for (_, state), (_, restate) in zip(_bell_inputs(circuit, pump, tags),
                                            _bell_inputs(circuit, pump, moved)):
            _assert_same_events(_events(circuit, layout, restate),
                                _events(circuit, layout, state))


def _tables(rng, tag_sets=(INTERFERING, DISTINGUISHABLE)):
    """Signature tables of a random circuit and layout, one per temporal tag set."""
    circuit = _circuit(rng)
    layout = _layout(rng, circuit.paths)
    pump = rng.choice((gaussian_pump(), hg01_pump()))
    return [signature_table(circuit, _bell_inputs(circuit, pump, tags), layout)
            for tags in tag_sets]


def test_strict_success_is_affine_in_the_overlap():
    rng = random.Random(31)
    for _ in range(30):
        ideal, dist = _tables(rng)
        lo, hi = (score_success(ideal, dist, x).average for x in (0.0, 1.0))
        for x in (0.25, 0.5, 0.85):
            assert score_success(ideal, dist, x).average == pytest.approx(
                (1.0 - x) * lo + x * hi, abs=TOL)
        # at overlap 1 any distinguishable table has no weight
        assert score_success(ideal, ideal, 1.0).average == pytest.approx(hi, abs=TOL)


def _partition(report):
    return {frozenset(members): events for members, events in zip(report.classes,
                                                                  report.class_events)}


def test_classify_ignores_the_order_of_the_inputs():
    rng = random.Random(37)
    split = 0
    for _ in range(60):
        (table,) = _tables(rng, (INTERFERING,))
        labels = rng.sample(list(table.entries), len(table.entries))
        reordered = SignatureTable({lab: table.entries[lab] for lab in labels})
        expected = _partition(classify(table))
        assert _partition(classify(reordered)) == expected
        split += len(expected) > 1
    assert split >= 10
