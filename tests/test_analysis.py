import math
import random

import pytest

from bellsieve.analysis import (
    DEFAULT_SIGMA_L,
    Detector,
    DetectorLayout,
    OverlapModel,
    classify,
    coincidence_basis_only,
    coincidence_probability,
    event_distribution,
    hom_scan,
    hom_visibility,
    layout_from_json,
    oracle_apply,
    oracle_check,
    prepare_inputs,
    signature_table,
    success_probability,
)
from bellsieve.cli import resolve_circuit
from bellsieve.hgmodes import gaussian_pump, hg01_pump
from bellsieve.optics import BeamSplitter, Circuit, run_circuit
from bellsieve.twophoton import (
    BELL_KINDS,
    H,
    V,
    PhotonMode,
    attach_pump_parity,
    bell_state,
    equal_up_to_global_phase,
    make_state,
    pair_key,
    rebase_all,
    rebase_paths,
)

from helpers import random_circuit, random_state

INCOMPLETE = resolve_circuit("incomplete_bsa")
COMPLETE = resolve_circuit("complete_bsa")
INCOMPLETE_LAYOUT = layout_from_json(INCOMPLETE.layout)
COMPLETE_LAYOUT = layout_from_json(COMPLETE.layout)


def _bsa_events(kind, pump):
    state = attach_pump_parity(bell_state(kind, "1", "2"), pump)
    return event_distribution(run_circuit(INCOMPLETE, state), INCOMPLETE_LAYOUT)


def test_incomplete_bsa_even_pump_events():
    assert _bsa_events("psi-", gaussian_pump()) == pytest.approx(
        {("A_h", "B_v"): 0.5, ("A_v", "B_h"): 0.5})
    assert _bsa_events("psi+", gaussian_pump()) == pytest.approx(
        {("A_h", "A_v"): 0.5, ("B_h", "B_v"): 0.5})
    assert _bsa_events("phi+", gaussian_pump()) == pytest.approx(
        {("A_h", "A_h"): 0.25, ("A_v", "A_v"): 0.25,
         ("B_h", "B_h"): 0.25, ("B_v", "B_v"): 0.25})


def test_incomplete_bsa_odd_pump_events():
    assert _bsa_events("psi-", hg01_pump()) == pytest.approx(
        {("A_h", "A_v"): 0.5, ("B_h", "B_v"): 0.5})
    assert _bsa_events("psi+", hg01_pump()) == pytest.approx(
        {("A_h", "B_v"): 0.5, ("A_v", "B_h"): 0.5})
    for kind in ("phi+", "phi-"):
        assert _bsa_events(kind, hg01_pump()) == pytest.approx(
            {("A_h", "B_h"): 0.5, ("A_v", "B_v"): 0.5})


def test_event_distribution_requires_coverage():
    state = attach_pump_parity(bell_state("psi+", "1", "2"), gaussian_pump())
    layout = DetectorLayout((Detector("D1", "1", "H"), Detector("D2", "2", "H")))
    with pytest.raises(ValueError, match=r"^no detector covers path '2' at 90\.0 deg$"):
        event_distribution(state, layout)


# the analysis ports of each detected path in the detection-law test
LAW_PORTS = {"h/v": ("H", "V"), "45/45b": ("45", "45b"), "22.5/112.5": ("22.5", "112.5")}


def _per_term_events(state, layout):
    """Reference detection: rebase each detected path to its ports' basis,
    then add |amplitude|^2 per sorted detector pair, term by term."""
    ports = layout.by_path()
    out = rebase_paths(state, {path: min(a % 90.0 for a in angle_map)
                               for path, angle_map in ports.items()})
    probs = {}
    for (m1, m2), amp in out.terms.items():
        event = tuple(sorted(ports[m.path][m.pol] for m in (m1, m2)))
        probs[event] = probs.get(event, 0.0) + abs(amp) ** 2
    return probs


def _assert_same_events(got, want):
    assert got.keys() == want.keys()
    assert max(abs(got[ev] - p) for ev, p in want.items()) <= 1e-15


def _random_pol_state(rng, paths, single):
    """Random amplitudes on pairs of even modes, each path in a random
    orthogonal basis; the path `single` holds only V photons."""
    modes = [PhotonMode(p, theta + offset) for p in paths
             for theta in (rng.choice((0.0, 22.5, 30.0, 45.0, 60.0)),) for offset in (0.0, 90.0)]
    modes.append(PhotonMode(single, V))
    terms = {}
    for _ in range(rng.randint(2, 8)):
        k = pair_key(rng.choice(modes), rng.choice(modes))
        terms[k] = terms.get(k, 0j) + complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return make_state({k: a / norm for k, a in terms.items()})


def test_detection_contraction_matches_the_per_term_law():
    rng = random.Random(1414)
    for _ in range(25):
        circuit = random_circuit(rng)
        circuit = Circuit(circuit.paths + ("q",), circuit.elements)
        paths = circuit.paths[:-1]
        for pump in (gaussian_pump(), hg01_pump()):
            state = attach_pump_parity(_random_pol_state(rng, paths, "q"), pump)
            out = run_circuit(circuit, state)
            for ports in LAW_PORTS.values():
                layout = DetectorLayout(tuple(Detector(f"{p}_{port}", p, port)
                                              for p in paths for port in ports)
                                        + (Detector("q_V", "q", "V"),))  # q has no H detector
                _assert_same_events(event_distribution(state, layout),
                                    _per_term_events(state, layout))
                want = _per_term_events(out, layout)
                _assert_same_events(event_distribution(out, layout), want)
                table = signature_table(circuit, [("s", state)], layout)
                _assert_same_events(table.entries["s"], want)


def test_detection_names_the_uncovered_port():
    state = make_state({(PhotonMode("a", H), PhotonMode("q", 45.0)): 1.0})
    a_only = (Detector("a_H", "a", "H"), Detector("a_V", "a", "V"))
    with pytest.raises(ValueError, match=r"^no detector covers path 'q' at 45\.0 deg$"):
        event_distribution(state, DetectorLayout(a_only))  # no detector on q at all
    with pytest.raises(ValueError, match=r"^no detector covers path 'q' at 0\.0 deg$"):
        event_distribution(state, DetectorLayout(a_only + (Detector("q_V", "q", "V"),)))
    layout = DetectorLayout(a_only + (Detector("q_45", "q", "45"),))
    assert event_distribution(state, layout) == pytest.approx({("a_H", "q_45"): 1.0})


def test_a_polarization_keeps_nine_decimals_of_its_angle():
    # cos^2(22.5004 deg) sits 4.94e-6 below cos^2(22.5 deg)
    layout = layout_from_json({"detectors": [
        {"id": f"{p}_{port}", "path": p, "port": port} for p in "12" for port in "HV"]})
    state = make_state({(PhotonMode("1", 22.5004), PhotonMode("2", H)): 1.0})
    events = event_distribution(run_circuit(Circuit(paths=("1", "2"), elements=()), state),
                                layout)
    assert abs(events["1_H", "2_H"] - math.cos(math.radians(22.5004)) ** 2) <= 1e-12


def test_layout_validation():
    with pytest.raises(ValueError):
        DetectorLayout((Detector("X", "p", "H"), Detector("X", "q", "V")))
    with pytest.raises(ValueError):
        DetectorLayout((Detector("X", "p", "H"), Detector("Y", "p", "H")))
    with pytest.raises(ValueError):
        DetectorLayout((Detector("X", "p", "H"), Detector("Y", "p", "45")))


def test_signature_table_and_json():
    table = signature_table(
        INCOMPLETE, prepare_inputs(INCOMPLETE, hg01_pump()), INCOMPLETE_LAYOUT,
        pump_parity=-1)
    doc = table.to_json()
    assert set(doc["entries"]) == set(BELL_KINDS)
    assert doc["pump_parity"] == -1
    assert doc["entries"]["psi-"] == pytest.approx(
        {"A_h|A_v": 0.5, "B_h|B_v": 0.5})


def test_coincidence_basis_only():
    even = signature_table(INCOMPLETE, prepare_inputs(INCOMPLETE, gaussian_pump()),
                           INCOMPLETE_LAYOUT)
    odd = signature_table(INCOMPLETE, prepare_inputs(INCOMPLETE, hg01_pump()),
                          INCOMPLETE_LAYOUT)
    assert not coincidence_basis_only(even)
    assert coincidence_basis_only(odd)
    complete_even = signature_table(COMPLETE, prepare_inputs(COMPLETE, gaussian_pump()),
                                    COMPLETE_LAYOUT)
    assert not coincidence_basis_only(complete_even)


def test_classify_incomplete_odd_pump():
    table = signature_table(INCOMPLETE, prepare_inputs(INCOMPLETE, hg01_pump()),
                            INCOMPLETE_LAYOUT)
    report = classify(table)
    assert len(report.classes) == 3
    assert report.bits == pytest.approx(math.log2(3))
    assert ("phi+", "phi-") in report.ambiguous
    merged = [set(c) for c in report.classes]
    assert {"phi+", "phi-"} in merged


def test_classify_identity_circuit_merges_within_doublets():
    circ = Circuit(paths=("1", "2"), elements=(), inputs=("1", "2"))
    layout = DetectorLayout((
        Detector("1_h", "1", "H"), Detector("1_v", "1", "V"),
        Detector("2_h", "2", "H"), Detector("2_v", "2", "V"),
    ))
    table = signature_table(circ, prepare_inputs(circ, gaussian_pump()), layout)
    report = classify(table)
    assert len(report.classes) == 2
    merged = [set(c) for c in report.classes]
    assert {"psi+", "psi-"} in merged and {"phi+", "phi-"} in merged


def test_classify_merges_inputs_that_share_one_event():
    from bellsieve.analysis import SignatureTable

    table = SignatureTable({"a": {("x", "y"): 0.5, ("x", "z"): 0.5},
                            "b": {("x", "y"): 0.25, ("w", "z"): 0.75},
                            "c": {("u", "v"): 1.0}})
    report = classify(table)
    assert report.classes == (("a", "b"), ("c",))
    assert report.ambiguous == (("a", "b"),)


def test_classify_is_equivariant_under_detector_relabeling():
    table = signature_table(COMPLETE, prepare_inputs(COMPLETE, hg01_pump()),
                            COMPLETE_LAYOUT)
    report = classify(table)
    rename = {d.id: f"D{i}" for i, d in enumerate(COMPLETE_LAYOUT.detectors)}
    renamed_entries = {
        lab: {tuple(sorted((rename[e[0]], rename[e[1]]))): p for e, p in dist.items()}
        for lab, dist in table.entries.items()
    }
    from bellsieve.analysis import SignatureTable

    renamed = classify(SignatureTable(renamed_entries))
    assert [set(c) for c in renamed.classes] == [set(c) for c in report.classes]
    assert renamed.bits == report.bits


def test_overlap_model_shape():
    model = OverlapModel()
    assert model.overlap(0.0) == 1.0
    assert model.overlap(1e-4) < 1.0
    assert model.overlap(2e-4) < model.overlap(1e-4)
    assert model.overlap(-1e-4) == model.overlap(1e-4)
    assert DEFAULT_SIGMA_L == pytest.approx((702.2e-9) ** 2 / 1e-9)
    with pytest.raises(ValueError):
        OverlapModel(sigma_l=0.0)


def test_hom_scan_ideal_extremes():
    deltas = [i * 50e-6 for i in range(-40, 41)]
    dip = dict(hom_scan("psi-", gaussian_pump(), deltas))
    assert dip[0.0] == pytest.approx(1.0)  # psi- antibunches with an even pump
    peak = dict(hom_scan("psi+", hg01_pump(), deltas))
    assert peak[0.0] == pytest.approx(1.0)
    assert peak[deltas[0]] == pytest.approx(0.5, abs=1e-6)
    inverted = dict(hom_scan("psi-", hg01_pump(), deltas))
    assert inverted[0.0] == pytest.approx(0.0, abs=1e-12)
    assert inverted[deltas[-1]] == pytest.approx(0.5, abs=1e-6)


def test_hom_scan_symmetric_in_delay():
    deltas = [i * 40e-6 for i in range(-25, 26)]
    curve = dict(hom_scan("phi+", hg01_pump(), deltas))
    for d in deltas:
        assert curve[d] == pytest.approx(curve[-d], abs=1e-15)


def test_hom_visibility_definitions():
    deltas = [i * 50e-6 for i in range(-40, 41)]
    kind, v = hom_visibility(hom_scan("psi-", hg01_pump(), deltas))
    assert kind == "dip" and v == pytest.approx(1.0, abs=1e-6)
    kind, v = hom_visibility(hom_scan("psi+", hg01_pump(), deltas))
    assert kind == "peak" and v == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError, match="far baseline is 0"):
        hom_visibility([(-1.0, 0.0), (0.0, 0.5), (1.0, 0.0)])


def test_pump_parity_complementarity():
    for kind in BELL_KINDS:
        p_even = coincidence_probability(kind, gaussian_pump(), 1.0)
        p_odd = coincidence_probability(kind, hg01_pump(), 1.0)
        assert p_even + p_odd == pytest.approx(1.0)


def test_coincidence_probability_mixes_linearly():
    o = 0.88
    assert coincidence_probability("psi+", hg01_pump(), o) == pytest.approx((1 + o) / 2)
    assert coincidence_probability("psi-", hg01_pump(), o) == pytest.approx((1 - o) / 2)
    with pytest.raises(ValueError):
        coincidence_probability("psi+", hg01_pump(), 1.2)


def test_success_ideal_overlap_is_perfect():
    report = success_probability(INCOMPLETE, INCOMPLETE_LAYOUT, hg01_pump(), overlap=1.0)
    for stats in report.per_state.values():
        assert stats.success == pytest.approx(1.0)
    assert report.average == pytest.approx(1.0)


def test_success_distinguishable_baseline():
    report = success_probability(INCOMPLETE, INCOMPLETE_LAYOUT, hg01_pump(), overlap=0.0)
    assert report.per_state["psi+"].success == pytest.approx(0.5)
    assert report.per_state["psi-"].success == pytest.approx(0.5)
    # distinguishable phi photons bunch into one detector half the time
    assert report.per_state["phi+"].discarded == pytest.approx(0.5)
    assert report.per_state["phi+"].conditional == pytest.approx(1.0)


def test_success_policies():
    o = 0.85
    strict = success_probability(INCOMPLETE, INCOMPLETE_LAYOUT, hg01_pump(), overlap=o)
    renorm = success_probability(INCOMPLETE, INCOMPLETE_LAYOUT, hg01_pump(), overlap=o,
                                 policy="renormalize")
    assert strict.average == pytest.approx((1 + o) / 2)
    assert renorm.average == pytest.approx((3 + o) / 4)
    with pytest.raises(ValueError):
        success_probability(INCOMPLETE, INCOMPLETE_LAYOUT, hg01_pump(), overlap=o,
                            policy="drop")


def test_success_monotone_in_overlap():
    values = [success_probability(INCOMPLETE, INCOMPLETE_LAYOUT, hg01_pump(), overlap=o).average
              for o in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_oracle_identity_circuit():
    circ = Circuit(paths=("1", "2"), elements=())
    assert oracle_check(circ, bell_state("psi+", "1", "2"))


def test_oracle_on_golden_circuits():
    for pump in (gaussian_pump(), hg01_pump()):
        for label, state in prepare_inputs(INCOMPLETE, pump):
            assert oracle_check(INCOMPLETE, state), (label, pump.joint_parity)
        for label, state in prepare_inputs(COMPLETE, pump):
            assert oracle_check(COMPLETE, state, max_modes=64), (label, pump.joint_parity)


def test_oracle_agrees_with_engine_amplitudes():
    rng = random.Random(99)
    circ = random_circuit(rng, n_paths=3, n_elements=5)
    s = random_state(rng, circ.paths)
    engine = rebase_all(run_circuit(circ, s), 0.0)
    reference = oracle_apply(circ, s)
    assert equal_up_to_global_phase(engine, reference, tol=1e-10)


def test_dense_matrices_are_unitary():
    import numpy as np

    from bellsieve.analysis import circuit_mode_basis, single_photon_unitary

    rng = random.Random(55)
    targets = [(INCOMPLETE, prepare_inputs(INCOMPLETE, hg01_pump())[0][1]),
               (COMPLETE, prepare_inputs(COMPLETE, hg01_pump())[0][1])]
    for _ in range(10):
        circ = random_circuit(rng, n_paths=4)
        targets.append((circ, random_state(rng, circ.paths)))
    for circ, state in targets:
        modes = circuit_mode_basis(circ, state, max_modes=64)
        u = single_photon_unitary(circ, modes)
        assert np.abs(u.conj().T @ u - np.eye(len(modes))).max() < 1e-12


def test_oracle_dimension_cap():
    circ = random_circuit(random.Random(1), n_paths=6, n_elements=2)
    from bellsieve.twophoton import EVEN, ODD, H, PhotonMode, make_state

    # both parities and both temporal tags populated: 6 x 2 x 2 x 2 = 48 modes
    state = make_state({
        (PhotonMode("p0", H, EVEN, 0), PhotonMode("p1", H, ODD, 1)): 1 / math.sqrt(2),
        (PhotonMode("p0", H, ODD, 0), PhotonMode("p1", H, EVEN, 1)): 1 / math.sqrt(2),
    })
    with pytest.raises(ValueError):
        oracle_check(circ, state)
    assert oracle_check(circ, state, max_modes=64)
