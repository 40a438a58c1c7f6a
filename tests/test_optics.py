import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from bellsieve import optics
from bellsieve.analysis import oracle_apply
from bellsieve.hgmodes import gaussian_pump, hg01_pump
from bellsieve.optics import (
    BeamSplitter,
    Circuit,
    CircuitSchemaError,
    Delay,
    Mirror,
    PolarizingBS,
    WavePlate,
    apply_element,
    circuit_from_json,
    circuit_to_json,
    load_circuit,
    run_circuit,
    run_states,
    waveplate_jones,
)
from bellsieve.twophoton import (
    ANTIDIAG,
    BELL_KINDS,
    DIAG,
    EVEN,
    H,
    ODD,
    V,
    PhotonMode,
    attach_pump_parity,
    bell_state,
    equal_up_to_global_phase,
    inner_product,
    joint_parities,
    make_state,
    pair_key,
    rebase_all,
)

from helpers import random_circuit, random_state

HOM = Circuit(paths=("1", "2", "A", "B"),
              elements=(BeamSplitter("1", "2", "A", "B"),), inputs=("1", "2"))


def _prepared(kind, pump):
    return attach_pump_parity(bell_state(kind, "1", "2"), pump)


def _cross_prob(state):
    return sum(abs(a) ** 2 for (m1, m2), a in state.terms.items() if m1.path != m2.path)


def test_bs_routing_even_pump():
    out = run_circuit(HOM, _prepared("psi-", gaussian_pump()))
    assert _cross_prob(out) == pytest.approx(1.0)
    for kind in ("psi+", "phi+", "phi-"):
        out = run_circuit(HOM, _prepared(kind, gaussian_pump()))
        assert _cross_prob(out) == pytest.approx(0.0, abs=1e-12)


def test_bs_routing_odd_pump():
    out = run_circuit(HOM, _prepared("psi-", hg01_pump()))
    assert _cross_prob(out) == pytest.approx(0.0, abs=1e-12)
    # bunched pairs carry orthogonal polarizations in one path
    for (m1, m2), amp in out.terms.items():
        assert m1.path == m2.path
        assert {m1.pol, m2.pol} == {H, V}
    out = run_circuit(HOM, _prepared("psi+", hg01_pump()))
    assert _cross_prob(out) == pytest.approx(1.0)
    for (m1, m2), _ in out.terms.items():
        assert {m1.pol, m2.pol} == {H, V}
    for kind in ("phi+", "phi-"):
        out = run_circuit(HOM, _prepared(kind, hg01_pump()))
        assert _cross_prob(out) == pytest.approx(1.0)


def test_textbook_hom_when_reflection_does_not_flip_y():
    plain = Circuit(paths=("1", "2", "A", "B"),
                    elements=(BeamSplitter("1", "2", "A", "B", reflect_flips_y=False),))
    for pump in (gaussian_pump(), hg01_pump()):
        assert _cross_prob(run_circuit(plain, _prepared("psi-", pump))) == pytest.approx(1.0)
        for kind in ("psi+", "phi+", "phi-"):
            assert _cross_prob(run_circuit(plain, _prepared(kind, pump))) == pytest.approx(0.0, abs=1e-12)


def test_pbs_splits_bunched_orthogonal_pair():
    state = make_state({(PhotonMode("A", H), PhotonMode("A", V)): 1.0})
    pbs = PolarizingBS(in1="A", out_t="T", out_r="R")
    out = apply_element(state, pbs)
    assert len(out.terms) == 1
    ((m1, m2),) = out.terms.keys()
    assert {m1.path, m2.path} == {"T", "R"}
    assert abs(next(iter(out.terms.values()))) == pytest.approx(1.0)


def test_pbs_at_zero_transmits_h():
    state = make_state({(PhotonMode("A", H), PhotonMode("A", H)): 1.0})
    out = apply_element(state, PolarizingBS(in1="A", out_t="T", out_r="R"))
    ((m1, m2),) = out.terms.keys()
    assert (m1.path, m2.path) == ("T", "T")


def test_pbs_at_45_splits_h_photons_evenly():
    state = make_state({(PhotonMode("A", H), PhotonMode("A", H)): 1.0})
    out = apply_element(state, PolarizingBS(in1="A", out_t="T", out_r="R", basis_angle=45.0))
    probs = {}
    for (m1, m2), a in out.terms.items():
        probs[(m1.path, m2.path)] = probs.get((m1.path, m2.path), 0.0) + abs(a) ** 2
    # per-photon 50/50: |TT|^2 = |RR|^2 = 1/4, |TR|^2 = 1/2
    assert probs[("T", "T")] == pytest.approx(0.25)
    assert probs[("R", "R")] == pytest.approx(0.25)
    assert probs[("R", "T")] == pytest.approx(0.5)


def test_run_circuit_keeps_every_path_in_hv():
    circ = Circuit(paths=("1", "2", "3", "4"), elements=(
        PolarizingBS(in1="1", in2="2", out_t="1", out_r="2", basis_angle=22.5),
        WavePlate("1", "half", 30.0),
        PolarizingBS(in1="2", in2="3", out_t="2", out_r="3", basis_angle=45.0),
        PolarizingBS(in1="3", in2="4", out_t="3", out_r="4", basis_angle=135.0),
    ))
    rng = random.Random(5)
    for _ in range(5):
        out = run_circuit(circ, random_state(rng, circ.paths))
        assert {m.pol for pair in out.terms for m in pair} <= {H, V}


def test_diagonal_input_matches_the_oracle():
    # the mirror and the untouched path 4 leave their photons' polarization alone
    circ = Circuit(paths=("1", "2", "3", "4"), elements=(
        BeamSplitter("1", "2", "1", "2"),
        PolarizingBS(in1="1", in2="2", out_t="1", out_r="2", basis_angle=22.5),
        Mirror("3"),
    ))
    s = make_state({
        (PhotonMode("1", DIAG, ODD), PhotonMode("3", ANTIDIAG, EVEN)): 0.6,
        (PhotonMode("2", 30.0, EVEN), PhotonMode("3", DIAG, ODD)): 0.48j,
        (PhotonMode("3", 60.0, ODD), PhotonMode("4", ANTIDIAG, EVEN)): 0.64,
    })
    assert equal_up_to_global_phase(run_circuit(circ, s), oracle_apply(circ, s), tol=1e-12)


def test_each_element_is_compiled_once_per_parity(monkeypatch):
    calls = []
    for cls in (BeamSplitter, PolarizingBS, WavePlate, Mirror):
        def counting(self, modes, mode_map=cls.mode_map):
            modes = list(modes)
            assert len({m.parity for m in modes}) == 1
            calls.append((self, modes[0].parity))
            return mode_map(self, modes)

        monkeypatch.setattr(cls, "mode_map", counting)
    circ = Circuit(paths=("1", "2", "A", "B", "C", "D"), elements=(
        BeamSplitter("1", "2", "A", "B"),
        PolarizingBS(in1="A", in2="B", out_t="C", out_r="D", basis_angle=22.5),
        WavePlate("C", "half", 10.0),
        Mirror("D"),
    ))
    optics._compiled.cache_clear()
    for pump in (gaussian_pump(), hg01_pump(), hg01_pump(), gaussian_pump(), hg01_pump()):
        run_circuit(circ, _prepared("psi+", pump))
    # the same circuit read back from JSON shares the compiled form
    run_circuit(circuit_from_json(circuit_to_json(circ)), _prepared("psi-", hg01_pump()))
    assert Counter(calls) == Counter((el, par) for el in circ.elements for par in (EVEN, ODD))


def _bunched_pair():
    """Both photons in (a - i b)/sqrt(2): a splitter sends the pair to c, none to d."""
    a, b = PhotonMode("a", H), PhotonMode("b", H)
    return make_state({(a, a): 0.5, (a, b): -1j / math.sqrt(2), (b, b): -0.5})


def test_a_fresh_output_is_checked_on_the_amplitudes_before_it():
    paths = ("a", "b", "c", "d", "e")
    split = BeamSplitter("a", "b", "c", "d")
    # d is reachable from a and b, but the pair interferes out of it
    out = run_circuit(Circuit(paths, (split, PolarizingBS(in1="c", out_t="e", out_r="d"))),
                      _bunched_pair())
    ((m1, m2),) = out.terms
    assert (m1, m2) == (PhotonMode("e", H), PhotonMode("e", H))
    with pytest.raises(ValueError, match=r"output paths already populated: \['c'\]"):
        run_circuit(Circuit(paths, (split, BeamSplitter("a", "b", "c", "e"))), _bunched_pair())


def test_four_sector_stacks_match_the_oracle():
    # distinguishable tags under an odd pump occupy (even|odd) x (tag 0|1)
    rng = random.Random(909)
    for _ in range(30):
        circ = random_circuit(rng)
        p, q = rng.sample(circ.paths, 2)
        states = [attach_pump_parity(bell_state(kind, p, q, temporal=(0, 1)), hg01_pump())
                  for kind in BELL_KINDS]
        states.append(random_state(rng, circ.paths, temporals=(0, 1)))
        for state, out in zip(states, run_states(circ, states)):
            assert equal_up_to_global_phase(out, oracle_apply(circ, state, max_modes=64),
                                            tol=1e-12)


def test_hwp_at_45_maps_psi_plus_to_phi_plus():
    wp = WavePlate("1", "half", 45.0)
    out = apply_element(bell_state("psi+", "1", "2"), wp)
    assert equal_up_to_global_phase(out, bell_state("phi+", "1", "2"))


def test_hwp_at_0_maps_psi_plus_to_psi_minus():
    wp = WavePlate("1", "half", 0.0)
    out = apply_element(bell_state("psi+", "1", "2"), wp)
    assert equal_up_to_global_phase(out, bell_state("psi-", "1", "2"))


def test_qwp_twice_equals_hwp():
    rng = random.Random(2)
    for _ in range(5):
        s = random_state(rng, ("1", "2"))
        twice = apply_element(apply_element(s, WavePlate("1", "quarter", 0.0)),
                              WavePlate("1", "quarter", 0.0))
        once = apply_element(s, WavePlate("1", "half", 0.0))
        assert equal_up_to_global_phase(twice, once, tol=1e-12)


def test_apply_element_takes_a_mode_at_any_angle():
    # a 45-degree photon read as V would leave the plate as one term of -1
    s = make_state({(PhotonMode("1", DIAG), PhotonMode("2", H)): 1.0})
    plate = WavePlate("1", "half", 0.0)
    out = apply_element(s, plate)
    assert out.terms == run_circuit(Circuit(paths=("1", "2"), elements=(plate,)), s).terms
    assert out.terms == pytest.approx({(PhotonMode("1", H), PhotonMode("2", H)): 1 / math.sqrt(2),
                                       (PhotonMode("1", V), PhotonMode("2", H)): -1 / math.sqrt(2)})


def test_off_basis_inputs_run_as_their_hv_form():
    # each path holds a pair of orthogonal modes at 0, 30, 45 or 112.5 degrees
    rng = random.Random(1111)
    for _ in range(30):
        circ = random_circuit(rng)
        modes = [PhotonMode(p, axis + turn) for p in circ.paths
                 for axis in [rng.choice((H, 30.0, DIAG, 112.5))] for turn in (0.0, 90.0)]
        terms = {}
        for _ in range(rng.randint(1, 6)):
            k = pair_key(rng.choice(modes), rng.choice(modes))
            terms[k] = terms.get(k, 0j) + complex(rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
        base = make_state({k: a / norm for k, a in terms.items()})
        for pump in (gaussian_pump(), hg01_pump()):
            state = attach_pump_parity(base, pump)
            direct = run_circuit(circ, state)
            written = run_circuit(circ, rebase_all(state, H))
            for k in direct.terms.keys() | written.terms.keys():
                assert abs(direct.terms.get(k, 0j) - written.terms.get(k, 0j)) <= 1e-15
            assert equal_up_to_global_phase(direct, oracle_apply(circ, state), tol=1e-12)


def test_jones_matrices_are_unitary():
    for kind in ("half", "quarter"):
        for axis in (0.0, 17.0, 45.0, 120.0):
            j = waveplate_jones(kind, axis)
            assert np.allclose(j @ j.conj().T, np.eye(2), atol=1e-12)


def test_qwp_at_45_delays_the_slow_axis():
    # H -> ((1 - i) H + (1 + i) V) / 2; retardance -pi/2 would swap the two
    want = np.array([1 - 1j, 1 + 1j]) / 2
    assert abs(waveplate_jones("quarter", 45.0)[:, 0] - want).max() <= 1e-15
    pair = make_state({(PhotonMode("1", H), PhotonMode("2", H)): 1.0})
    out = run_circuit(Circuit(paths=("1", "2"), elements=(WavePlate("1", "quarter", 45.0),)),
                      pair)
    assert out.terms == pytest.approx({(PhotonMode("1", H), PhotonMode("2", H)): want[0],
                                       (PhotonMode("1", V), PhotonMode("2", H)): want[1]},
                                      abs=1e-15)


def test_delay_bookkeeping():
    s = bell_state("psi+", "1", "2")
    out = apply_element(s, Delay("1", 0.0))
    assert out.terms == s.terms
    out = apply_element(apply_element(s, Delay("1", 2e-6)), Delay("1", 3e-6))
    assert out.delays["1"] == pytest.approx(5e-6)
    assert out.terms == s.terms


def test_mirror_flips_odd_parity_amplitudes():
    s = attach_pump_parity(bell_state("psi+", "1", "2"), hg01_pump())
    circ = Circuit(paths=("1", "2"), elements=(Mirror("1"), Mirror("2")))
    out = run_circuit(circ, s)
    assert inner_product(out, s) == pytest.approx(-1.0)


def test_empty_circuit_is_identity():
    circ = Circuit(paths=("1", "2"), elements=())
    s = bell_state("phi-", "1", "2")
    assert run_circuit(circ, s).terms == s.terms


def test_run_circuit_rejects_unknown_paths():
    circ = Circuit(paths=("1", "2"), elements=())
    with pytest.raises(ValueError):
        run_circuit(circ, bell_state("psi+", "1", "3"))


def test_bs_rejects_populated_outputs():
    circ = Circuit(paths=("1", "2", "A", "B"),
                   elements=(BeamSplitter("1", "2", "A", "B"),))
    with pytest.raises(ValueError):
        run_circuit(circ, bell_state("psi+", "1", "A"))


def test_circuit_validates_path_registry():
    with pytest.raises(ValueError):
        Circuit(paths=("1",), elements=(BeamSplitter("1", "2", "A", "B"),))
    with pytest.raises(ValueError):
        Circuit(paths=("1", "1"), elements=())


def test_unitarity_on_random_circuits():
    rng = random.Random(17)
    for _ in range(40):
        circ = random_circuit(rng)
        s1 = random_state(rng, circ.paths)
        s2 = random_state(rng, circ.paths)
        before = inner_product(s1, s2)
        after = inner_product(run_circuit(circ, s1), run_circuit(circ, s2))
        assert after == pytest.approx(before, abs=1e-9)


def test_joint_parity_is_conserved():
    rng = random.Random(23)
    for _ in range(40):
        circ = random_circuit(rng)
        for pump in (gaussian_pump(), hg01_pump()):
            base = bell_state(rng.choice(BELL_KINDS), circ.paths[0], circ.paths[-1])
            s = attach_pump_parity(base, pump)
            out = run_circuit(circ, s)
            assert joint_parities(out) == {pump.joint_parity}


def test_double_pass_through_a_splitter_swaps_up_to_phase():
    circ = Circuit(paths=("1", "2"),
                   elements=(BeamSplitter("1", "2", "1", "2"),
                             BeamSplitter("1", "2", "1", "2")))
    for pump in (gaussian_pump(), hg01_pump()):
        for kind in BELL_KINDS:
            s = _prepared(kind, pump)
            out = run_circuit(circ, s)
            swapped_terms = {}
            swap = {"1": "2", "2": "1"}
            for (m1, m2), a in s.terms.items():
                k1, k2 = m1.with_path(swap[m1.path]), m2.with_path(swap[m2.path])
                key = (k1, k2) if k1 <= k2 else (k2, k1)
                swapped_terms[key] = a
            from bellsieve.twophoton import TwoPhotonState

            assert equal_up_to_global_phase(out, TwoPhotonState(swapped_terms))


def test_disjoint_elements_commute():
    rng = random.Random(31)
    paths = ("1", "2", "3", "4")
    for _ in range(10):
        s = random_state(rng, paths)
        e1 = BeamSplitter("1", "2", "1", "2")
        e2 = WavePlate("3", "half", rng.uniform(0, 180))
        c12 = Circuit(paths=paths, elements=(e1, e2))
        c21 = Circuit(paths=paths, elements=(e2, e1))
        assert equal_up_to_global_phase(run_circuit(c12, s), run_circuit(c21, s), tol=1e-12)


def test_circuit_json_round_trip(tmp_path):
    circ = Circuit(
        paths=("1", "2", "A", "B"),
        elements=(BeamSplitter("1", "2", "A", "B"),
                  PolarizingBS(in1="A", out_t="1", out_r="2", basis_angle=45.0,
                               reflect_flips_y=False),
                  WavePlate("B", "quarter", 10.0),
                  Delay("B", 1e-6),
                  Mirror("A")),
        inputs=("1", "2"),
        name="roundtrip",
    )
    doc = circuit_to_json(circ)
    assert circuit_from_json(doc) == circ
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    assert load_circuit(str(p)) == circ


@pytest.mark.parametrize("doc", [
    [],
    {"paths": ["1"]},
    {"paths": ["1"], "elements": [{"in1": "1"}]},
    {"paths": ["1"], "elements": [{"type": "teleporter", "path": "1"}]},
    {"paths": ["1"], "elements": [{"type": "beam_splitter", "in1": "1", "in2": "2"}]},
    {"paths": ["1"], "elements": [{"type": "mirror", "path": "9"}]},
    {"paths": ["1", "2"], "elements": [
        {"type": "polarizing_bs", "in1": "1", "out_t": "1", "out_r": "2",
         "basis_angle": 200.0}]},
    # booleans must be JSON true/false
    {"paths": ["1", "2"], "elements": [
        {"type": "beam_splitter", "in1": "1", "in2": "2", "out1": "1", "out2": "2",
         "reflect_flips_y": "false"}]},
    {"paths": ["1", "2"], "elements": [
        {"type": "beam_splitter", "in1": "1", "in2": "2", "out1": "1", "out2": "2",
         "reflect_flips_y": 0}]},
    {"paths": ["1"], "elements": [{"type": "mirror", "path": "1", "flips_y": "false"}]},
    {"paths": ["1"], "elements": [{"type": "mirror", "path": "1", "flips_y": 1}]},
    # numbers must be finite
    {"paths": ["1"], "elements": [
        {"type": "wave_plate", "path": "1", "kind": "half", "fast_axis": math.nan}]},
    {"paths": ["1"], "elements": [
        {"type": "wave_plate", "path": "1", "kind": "half", "fast_axis": math.inf}]},
    {"paths": ["1"], "elements": [{"type": "delay", "path": "1", "delta": math.nan}]},
    {"paths": ["1"], "elements": [{"type": "delay", "path": "1", "delta": -math.inf}]},
    # an element's inputs are distinct paths, and so are its outputs
    {"paths": ["1", "A", "B"], "elements": [
        {"type": "beam_splitter", "in1": "1", "in2": "1", "out1": "A", "out2": "B"}]},
    {"paths": ["1", "2", "A"], "elements": [
        {"type": "polarizing_bs", "in1": "1", "in2": "2", "out_t": "A", "out_r": "A"}]},
])
def test_schema_errors(doc):
    with pytest.raises(CircuitSchemaError):
        circuit_from_json(doc)
