"""The two views of a state: its term dict and the pair form it carries.

Every producer of states that already holds a pair matrix (the engine's exit,
a basis change and the dense oracle) hands its form to the state it builds.
The form must be the one `to_pair_matrices` builds from the terms, bit for
bit, and the oracle comparison must read the forms alone.
"""
import inspect
import math
import random

import numpy as np
import pytest

from bellsieve import analysis
from bellsieve.analysis import oracle_apply
from bellsieve.optics import Circuit, apply_element, run_circuit, run_states, waveplate_jones
from bellsieve.twophoton import (
    EVEN,
    H,
    ODD,
    V,
    PhotonMode,
    bell_state,
    equal_up_to_global_phase,
    make_state,
    rebase_all,
    rebase_paths,
    to_pair_matrices,
)

from helpers import random_circuit, random_state


def full_support_state(rng, paths):
    """Random amplitudes on every pair of h/v modes of both parities."""
    modes = [PhotonMode(p, pol, par) for p in paths for pol in (H, V) for par in (EVEN, ODD)]
    terms = {(modes[i], modes[j]): complex(rng.gauss(0, 1), rng.gauss(0, 1))
             for i in range(len(modes)) for j in range(i, len(modes))}
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return make_state({k: a / norm for k, a in terms.items()})


def produced(rng):
    """(name, input, output) for each state producer on seeded random circuits."""
    for _ in range(12):
        circ = random_circuit(rng, n_paths=rng.randint(2, 5))
        for state in (random_state(rng, circ.paths), full_support_state(rng, circ.paths)):
            out = run_circuit(circ, state)
            yield "run_circuit", state, out
            yield "run_states", state, run_states(circ, [state, state])[1]
            yield "apply_element", state, apply_element(state, circ.elements[0])
            yield "rebase_paths", out, rebase_paths(out, {circ.paths[0]: 30.0,
                                                         circ.paths[-1]: 112.5})
            yield "oracle_apply", state, oracle_apply(circ, state, max_modes=64)


def test_every_producer_carries_the_form_that_to_pair_matrices_builds():
    for name, state, out in produced(random.Random(2301)):
        assert out._form is not None, name  # handed over, not rebuilt from the terms
        modes, w = out.pair_form()
        assert modes == sorted({m for pair in out.terms for m in pair}), name
        want = to_pair_matrices([out], {m: k for k, m in enumerate(modes)})[0]
        assert w.tobytes() == want.tobytes(), name
        assert not w.flags.writeable, name
        # the terms are the normalized state, diagonal pairs included
        norm = sum(abs(a) ** 2 for a in out.terms.values())
        assert norm == pytest.approx(state.norm_sq(), abs=1e-12), name


class Unread:
    """Stands in for a state's terms and fails on any read."""

    def __getattribute__(self, name):
        raise AssertionError(f"terms read through {name}")

    def __iter__(self):
        raise AssertionError("terms iterated")

    def __len__(self):
        raise AssertionError("terms counted")


def test_the_oracle_comparison_reads_no_term():
    rng = random.Random(2302)
    for _ in range(10):
        circ = random_circuit(rng, n_paths=4)
        state = full_support_state(rng, circ.paths)
        engine, reference = run_circuit(circ, state), oracle_apply(circ, state)
        for out in (engine, reference):
            object.__setattr__(out, "terms", Unread())
        assert rebase_all(engine, H) is engine
        assert rebase_all(reference, H) is reference
        assert equal_up_to_global_phase(engine, reference, 1e-12)


ENGINE_NAMES = ("mode_map", "to_pair_matrices", "from_pair_matrices", "rebase_", "basis_map",
                "waveplate_jones")


def test_the_oracle_calls_no_engine_code():
    oracle = (analysis.circuit_mode_basis, analysis._mode_basis, analysis._pol_vec,
              analysis._waveplate, analysis._io_roles, analysis._element_unitary,
              analysis._evolve, analysis.single_photon_unitary, analysis.oracle_apply)
    for fn in oracle:
        source = inspect.getsource(fn)
        for name in ENGINE_NAMES:
            assert name not in source, (fn.__name__, name)


def test_the_oracle_refuses_an_unregistered_path_as_the_engine_does():
    circuit, state = Circuit(paths=("1", "2"), elements=()), bell_state("psi+", "1", "zz")
    for evolve in (run_circuit, oracle_apply):
        with pytest.raises(ValueError, match=r"^state occupies unregistered paths: \['zz'\]$"):
            evolve(circuit, state)


def test_the_oracle_wave_plate_is_the_engine_jones_matrix():
    for kind in ("half", "quarter"):
        for axis in np.linspace(0.0, 180.0, 37):
            got = analysis._waveplate(kind, float(axis))
            assert abs(got - waveplate_jones(kind, float(axis))).max() <= 2e-16, (kind, axis)

