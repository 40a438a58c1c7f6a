import math
import random

import pytest

from bellsieve import twophoton
from bellsieve.analysis import event_distribution, layout_from_json, prepare_inputs
from bellsieve.cli import resolve_circuit
from bellsieve.hgmodes import gaussian_pump, hg01_pump
from bellsieve.optics import Circuit, Mirror, WavePlate, run_circuit
from bellsieve.twophoton import (
    BELL_KINDS,
    EVEN,
    H,
    ODD,
    V,
    PhotonMode,
    TwoPhotonState,
    attach_pump_parity,
    bell_state,
    equal_up_to_global_phase,
    hyper_state,
    inner_product,
    joint_parities,
    make_state,
    pair_key,
    pol_pair_probs,
    rebase_all,
    rebase_path,
)

from helpers import count_mode_map_passes, random_state

SQRT2 = math.sqrt(2.0)


def test_psi_minus_amplitudes():
    s = bell_state("psi-", "1", "2")
    hv = pair_key(PhotonMode("1", H), PhotonMode("2", V))
    vh = pair_key(PhotonMode("1", V), PhotonMode("2", H))
    assert s.terms.get(hv, 0j) == pytest.approx(1 / SQRT2)
    assert s.terms.get(vh, 0j) == pytest.approx(-1 / SQRT2)
    assert len(s.terms) == 2


def test_bell_state_rejects_single_path():
    with pytest.raises(ValueError):
        bell_state("psi+", "1", "1")
    with pytest.raises(ValueError):
        bell_state("chi", "1", "2")


def test_bell_orthonormality():
    states = {k: bell_state(k, "1", "2") for k in BELL_KINDS}
    for k1 in BELL_KINDS:
        for k2 in BELL_KINDS:
            expected = 1.0 if k1 == k2 else 0.0
            assert abs(inner_product(states[k1], states[k2])) == pytest.approx(expected, abs=1e-12)


def test_hyper_state_terms():
    s = hyper_state("psi+", ("a", "b", "c", "d"))
    for p1, p2 in (("a", "b"), ("c", "d")):
        assert s.terms.get(pair_key(PhotonMode(p1, H), PhotonMode(p2, V)), 0j) == pytest.approx(0.5)
        assert s.terms.get(pair_key(PhotonMode(p1, V), PhotonMode(p2, H)), 0j) == pytest.approx(0.5)
    assert s.norm_sq() == pytest.approx(1.0)

    f = hyper_state("phi-", ("a", "b", "c", "d"))
    assert f.terms.get(pair_key(PhotonMode("a", H), PhotonMode("b", H)), 0j) == pytest.approx(0.5)
    assert f.terms.get(pair_key(PhotonMode("a", V), PhotonMode("b", V)), 0j) == pytest.approx(-0.5)
    assert f.terms.get(pair_key(PhotonMode("c", H), PhotonMode("d", H)), 0j) == pytest.approx(0.5)
    assert f.terms.get(pair_key(PhotonMode("c", V), PhotonMode("d", V)), 0j) == pytest.approx(-0.5)


def test_hyper_state_rejects_duplicate_paths():
    with pytest.raises(ValueError):
        hyper_state("psi+", ("a", "b", "a", "d"))


def test_attach_even_pump_is_identity_on_parity():
    s = bell_state("psi-", "1", "2")
    out = attach_pump_parity(s, gaussian_pump())
    assert out.terms == s.terms
    assert joint_parities(out) == {+1}


def test_attach_odd_pump_splits_terms():
    s = bell_state("psi-", "1", "2")
    out = attach_pump_parity(s, hg01_pump())
    assert len(out.terms) == 4
    for amp in out.terms.values():
        assert abs(amp) == pytest.approx(0.5)
    assert out.norm_sq() == pytest.approx(1.0)
    assert joint_parities(out) == {-1}


def test_attach_rejects_double_attachment():
    s = attach_pump_parity(bell_state("psi+", "1", "2"), hg01_pump())
    with pytest.raises(ValueError):
        attach_pump_parity(s, hg01_pump())


def test_joint_reflection_flips_odd_pump_state():
    both_reflected = Circuit(paths=("1", "2"), elements=(Mirror("1"), Mirror("2")))
    s = attach_pump_parity(bell_state("phi+", "1", "2"), hg01_pump())
    flipped = run_circuit(both_reflected, s)
    assert inner_product(flipped, s) == pytest.approx(-1.0)
    e = attach_pump_parity(bell_state("phi+", "1", "2"), gaussian_pump())
    assert inner_product(run_circuit(both_reflected, e), e) == pytest.approx(1.0)


def test_orthogonal_parity_sectors():
    odd = attach_pump_parity(bell_state("psi-", "1", "2"), hg01_pump())
    even = attach_pump_parity(bell_state("psi-", "1", "2"), gaussian_pump())
    assert inner_product(odd, even) == 0.0


def test_inner_product_conjugate_symmetry():
    rng = random.Random(3)
    for _ in range(20):
        s1 = random_state(rng, ("x", "y"))
        s2 = random_state(rng, ("x", "y"))
        assert inner_product(s1, s2) == pytest.approx(inner_product(s2, s1).conjugate())


def test_make_state_rejects_unnormalized():
    m1, m2 = PhotonMode("1", H), PhotonMode("2", V)
    with pytest.raises(ValueError):
        make_state({(m1, m2): 0.5})


def test_double_occupancy_key_is_valid():
    m = PhotonMode("1", H)
    s = make_state({(m, m): 1.0})
    assert s.norm_sq() == pytest.approx(1.0)
    out = attach_pump_parity(s, hg01_pump())
    # both photons in one path/pol, one even one odd: a single cross-parity term
    assert len(out.terms) == 1
    assert out.norm_sq() == pytest.approx(1.0)


def test_attach_commutes_with_polarization_unitaries():
    rng = random.Random(11)
    for _ in range(10):
        circuit = Circuit(
            paths=("1", "2"),
            elements=tuple(
                WavePlate(rng.choice(("1", "2")), rng.choice(("half", "quarter")),
                          fast_axis=rng.uniform(0, 180))
                for _ in range(rng.randint(1, 4))
            ),
        )
        base = bell_state(rng.choice(BELL_KINDS), "1", "2")
        first = run_circuit(circuit, attach_pump_parity(base, hg01_pump()))
        second = attach_pump_parity(run_circuit(circuit, base), hg01_pump())
        assert equal_up_to_global_phase(first, second, tol=1e-9)


def test_rebase_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        s = random_state(rng, ("x", "y"))
        back = rebase_path(rebase_path(s, "x", 45.0), "x", 0.0)
        assert equal_up_to_global_phase(back, s, tol=1e-12)
        assert back.norm_sq() == pytest.approx(1.0, abs=1e-12)
    got = rebase_all(rebase_all(s, 30.0), 0.0)
    assert equal_up_to_global_phase(got, s, tol=1e-12)


def test_rebase_paths_is_successive_rebase_path_in_one_pass(monkeypatch):
    rng = random.Random(17)
    bases = {"x": 45.0, "y": 30.0, "z": 112.5}
    for _ in range(20):
        s = random_state(rng, ("x", "y", "z", "w"), temporals=(0, 1))
        expected = s
        for path, angle in bases.items():
            expected = rebase_path(expected, path, angle)
        calls = count_mode_map_passes(monkeypatch)
        got = twophoton.rebase_paths(s, bases)
        monkeypatch.undo()
        assert len(calls) == 1
        assert got.terms.keys() == expected.terms.keys()
        for k, a in expected.terms.items():
            assert abs(got.terms[k] - a) <= 1e-15


def test_event_distribution_makes_no_mode_map_pass(monkeypatch):
    circuit = resolve_circuit("complete_bsa")
    layout = layout_from_json(circuit.layout)  # 45/45b detectors on all four outputs
    for _, state in prepare_inputs(circuit, hg01_pump()):
        out = run_circuit(circuit, state)
        calls = count_mode_map_passes(monkeypatch)
        event_distribution(out, layout)
        monkeypatch.undo()
        assert calls == []  # the 45/45b basis is part of the contraction, not a rebase


def test_make_state_adds_up_both_orders_of_a_pair():
    a, b, c = PhotonMode("1", H), PhotonMode("2", V), PhotonMode("3", H)
    s = make_state({(b, a): 0.2, (a, c): 0.8, (a, b): 0.4})
    assert list(s.terms) == [(a, b), (a, c)]  # first-seen order, canonical keys
    assert s.terms[(a, b)] == pytest.approx(0.6, abs=1e-15)
    assert s.terms[(a, c)] == pytest.approx(0.8, abs=1e-15)


def test_make_state_drops_terms_at_or_below_the_prune_tolerance():
    a, b, c, d = (PhotonMode(p, H) for p in "1234")
    tiny = twophoton.PRUNE_TOL
    s = make_state({(a, b): 1.0, (a, c): tiny, (a, d): 2 * tiny, (b, c): tiny * 1j})
    assert set(s.terms) == {(a, b), (a, d)}
    # terms that cancel to zero are dropped too
    assert set(make_state({(a, b): 1.0, (a, c): 0.5, (c, a): -0.5}).terms) == {(a, b)}


def test_make_state_refuses_an_unnormalized_state():
    a, b = PhotonMode("1", H), PhotonMode("2", V)
    message = r"^state is not normalized: \|amplitude\|\^2 sums to 2\.500e-01$"
    with pytest.raises(ValueError, match=message):
        make_state({(a, b): 0.5})
    with pytest.raises(ValueError, match="sums to 0.000e[+]00"):
        make_state({})


def test_equality_predicate_on_disjoint_and_empty_states():
    s = bell_state("psi+", "1", "2")
    elsewhere = bell_state("psi+", "3", "4")
    assert inner_product(s, elsewhere) == 0
    assert not equal_up_to_global_phase(s, elsewhere)
    empty = TwoPhotonState({})
    assert empty.norm_sq() == 0.0 and inner_product(empty, s) == 0
    assert equal_up_to_global_phase(empty, TwoPhotonState({}))
    assert not equal_up_to_global_phase(empty, s)
    assert not equal_up_to_global_phase(s, empty)


def test_equality_predicate_is_phase_blind():
    s = bell_state("psi+", "1", "2")
    rotated = TwoPhotonState({k: a * complex(math.cos(1.1), math.sin(1.1))
                              for k, a in s.terms.items()})
    assert equal_up_to_global_phase(s, rotated)
    assert not equal_up_to_global_phase(s, bell_state("psi-", "1", "2"))


def test_pol_pair_probs_reduces_parity():
    s = attach_pump_parity(bell_state("psi-", "1", "2"), hg01_pump())
    probs = pol_pair_probs(s)
    assert probs[(("1", H), ("2", V))] == pytest.approx(0.5)
    assert probs[(("1", V), ("2", H))] == pytest.approx(0.5)


def _canonical(m):
    return (m.path, m.pol, 0 if m.parity == EVEN else 1, m.temporal)


def test_pair_key_is_order_insensitive():
    m1 = PhotonMode("b", V, ODD, 1)
    m2 = PhotonMode("a", H, EVEN, 0)
    assert pair_key(m1, m2) == pair_key(m2, m1)
    # tuple order is the canonical order: path, pol, even before odd, temporal
    rng = random.Random(8)
    modes = [PhotonMode(rng.choice("ab"), rng.choice((H, 22.5, V)), rng.choice((ODD, EVEN)),
                        rng.randint(0, 1)) for _ in range(200)]
    assert sorted(modes) == sorted(modes, key=_canonical)
    for m, n in zip(modes, modes[1:]):
        assert pair_key(m, n) == tuple(sorted((m, n), key=_canonical))


@pytest.mark.parametrize("pol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", [lambda pol: PhotonMode("1", float(pol))], ids=["constructor"])
def test_a_non_finite_polarization_is_rejected(build, pol):
    with pytest.raises(ValueError, match=f"polarization angle must be finite, got {pol}$"):
        build(pol)
