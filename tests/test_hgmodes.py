import math

import numpy as np
import pytest

from bellsieve.hgmodes import (
    DetectorPoint,
    HGMode,
    coincidence_amplitude,
    gaussian_pump,
    hg01_pump,
    hg_field,
    hg_pump,
    hermite_poly,
    y_parity,
)


def test_hermite_low_orders():
    assert hermite_poly(0, 0.7) == 1.0
    assert hermite_poly(1, 0.5) == 1.0
    assert hermite_poly(3, 1.0) == -4.0


def test_hermite_matches_closed_forms():
    # independent oracle: explicit polynomials up to n = 4
    closed = [
        lambda x: 1.0,
        lambda x: 2 * x,
        lambda x: 4 * x**2 - 2,
        lambda x: 8 * x**3 - 12 * x,
        lambda x: 16 * x**4 - 48 * x**2 + 12,
    ]
    for n, f in enumerate(closed):
        for x in (-1.3, -0.2, 0.0, 0.41, 2.7):
            assert hermite_poly(n, x) == pytest.approx(f(x), rel=1e-12, abs=1e-12)


def test_hermite_rejects_negative_index():
    with pytest.raises(ValueError):
        hermite_poly(-1, 0.0)


def test_mode_invariants():
    with pytest.raises(ValueError):
        HGMode(-1, 0)
    with pytest.raises(ValueError):
        HGMode(0, 0, waist=0.0)
    with pytest.raises(ValueError):
        HGMode(0, 0, wavelength=-1e-9)
    mode = HGMode(0, 1)
    assert mode.rayleigh_range > 0


def test_y_parity_rule():
    assert y_parity(HGMode(0, 0)) == +1
    assert y_parity(HGMode(0, 1)) == -1
    assert y_parity(HGMode(0, 2)) == +1
    assert y_parity(HGMode(3, 5)) == -1


def test_hg01_nodal_line():
    mode = HGMode(0, 1)
    for x in (-2e-3, 0.0, 1e-3):
        for z in (0.0, 0.3, 2.0):
            assert hg_field(mode, DetectorPoint(x, 0.0, z)) == 0.0


def test_field_parity_identity_is_exact():
    # hg_field(x, -y, z) == (-1)^n hg_field(x, y, z), bitwise in floats
    for m, n in ((0, 0), (0, 1), (1, 2), (2, 3)):
        mode = HGMode(m, n)
        for x in (-1.5e-3, 0.2e-3):
            for y in (-0.8e-3, 0.3e-3, 1.1e-3):
                for z in (0.0, 0.7):
                    a = hg_field(mode, DetectorPoint(x, y, z))
                    b = hg_field(mode, DetectorPoint(x, -y, z))
                    assert b == (-1) ** n * a


@pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (2, 3)])
@pytest.mark.parametrize("z", [0.0, 2.0])
def test_quadrature_normalization(m, n, z):
    mode = HGMode(m, n)
    w = mode.waist * math.sqrt(1 + (z / mode.rayleigh_range) ** 2)
    half = 8.0 * w
    xs = np.linspace(-half, half, 1201)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    f = hg_field(mode, DetectorPoint(X, Y, z))
    integral = np.trapezoid(np.trapezoid(np.abs(f) ** 2, xs, axis=1), xs)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_magnitude_has_no_phase_content():
    # |field| must equal the bare envelope, independent of curvature/Gouy phases
    mode = HGMode(1, 2)
    z = 1.3
    w = mode.waist * math.sqrt(1 + (z / mode.rayleigh_range) ** 2)
    for x, y in ((0.3e-3, -0.2e-3), (-1e-3, 0.9e-3)):
        envelope = (
            mode.norm_constant / w
            * hermite_poly(1, x * math.sqrt(2) / w)
            * hermite_poly(2, y * math.sqrt(2) / w)
            * math.exp(-(x**2 + y**2) / w**2)
        )
        f = hg_field(mode, DetectorPoint(x, y, z))
        assert abs(f) == pytest.approx(abs(envelope), rel=1e-12)


Z = 0.75


def _points(seed=7, count=50):
    import random

    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        pts.append((
            DetectorPoint(rng.uniform(-2e-3, 2e-3), rng.uniform(-2e-3, 2e-3), Z),
            DetectorPoint(rng.uniform(-2e-3, 2e-3), rng.uniform(-2e-3, 2e-3), Z),
        ))
    return pts


def test_even_pump_kills_psi_plus_and_phi():
    pump = gaussian_pump()
    for r1, r2 in _points():
        for kind in ("psi+", "phi+", "phi-"):
            amp, _ = coincidence_amplitude(kind, pump, r1, r2)
            assert amp == 0.0


def test_odd_pump_kills_psi_minus():
    pump = hg01_pump()
    for r1, r2 in _points():
        amp, _ = coincidence_amplitude("psi-", pump, r1, r2)
        assert amp == 0.0


def test_surviving_brackets_are_nonzero_somewhere():
    cases = [("psi-", gaussian_pump()), ("psi+", hg01_pump()),
             ("phi+", hg01_pump()), ("phi-", hg01_pump())]
    for kind, pump in cases:
        peak = max(abs(coincidence_amplitude(kind, pump, r1, r2)[0])
                   for r1, r2 in _points())
        assert peak > 1e-9


def test_phi_on_hg01_nodal_centroid():
    pump = hg01_pump()
    r1 = DetectorPoint(0.4e-3, 0.0, Z)
    r2 = DetectorPoint(-0.9e-3, 0.0, Z)
    amp, tag = coincidence_amplitude("phi-", pump, r1, r2)
    assert amp == 0.0
    assert tag == "hh-vv"


def test_coincident_detectors_give_twice_the_pump_field():
    pump = gaussian_pump()
    r = DetectorPoint(0.3e-3, -0.5e-3, Z)
    amp, tag = coincidence_amplitude("psi-", pump, r, r)
    assert tag == "hv-vh"
    w = pump.field(r.x, r.y, Z)
    assert amp == pytest.approx(2.0 * w, rel=1e-12)


def test_prefactor_is_unit_modulus():
    pump = gaussian_pump()
    for r1, r2 in _points(seed=11, count=20):
        amp, _ = coincidence_amplitude("psi-", pump, r1, r2)
        xm, ym = (r1.x + r2.x) / 2, (r1.y + r2.y) / 2
        bracket = pump.field(xm, ym, Z) + pump.field(xm, -ym, Z)
        assert abs(amp) == pytest.approx(abs(bracket), rel=1e-12)


def test_bad_geometry_rejected():
    pump = gaussian_pump()
    good = DetectorPoint(0.0, 0.0, Z)
    with pytest.raises(ValueError):
        coincidence_amplitude("psi-", pump, DetectorPoint(0, 0, -1.0), DetectorPoint(0, 0, -1.0))
    with pytest.raises(ValueError):
        coincidence_amplitude("psi-", pump, good, DetectorPoint(0.0, 0.0, Z + 0.1))
    with pytest.raises(ValueError):
        coincidence_amplitude("chi", pump, good, good)


def test_pump_constructors():
    assert gaussian_pump().joint_parity == +1
    assert hg01_pump().joint_parity == -1
    assert hg_pump(2, 4).joint_parity == +1
    assert hg_pump(0, 3).joint_parity == -1


# An array call must give bitwise the elementwise scalar calls: `field` maps
# are computed on arrays, and the sign of zero shows in the CSV ("-0").
PUMPS = {"gauss": gaussian_pump(), "hg01": hg01_pump(), "hg12": hg_pump(1, 2),
         "hg03": hg_pump(0, 3)}


def _bits(values):
    a = np.asarray(values, dtype=complex)
    return a.real.view(np.int64).tolist(), a.imag.view(np.int64).tolist()


def _array_points(seed, y_zero, count=200):
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-4e-3, 4e-3, count), rng.uniform(-4e-3, 4e-3, count)
    x[:4] = (0.0, -0.0, 1e-3, -0.0)
    y[:4] = y_zero  # a centroid on the x axis: odd pumps vanish there
    return x, y


@pytest.mark.parametrize("pump", sorted(PUMPS))
@pytest.mark.parametrize("kind", ["psi+", "psi-", "phi+", "phi-"])
def test_coincidence_amplitude_on_arrays_equals_scalar_calls_bitwise(pump, kind):
    z = 0.4
    r2 = DetectorPoint(6e-4, -3e-4, z)
    x, y = _array_points(sum(map(ord, pump + kind)), 3e-4)
    amps, tag = coincidence_amplitude(kind, PUMPS[pump], DetectorPoint(x, y, z), r2)
    scalar = [coincidence_amplitude(kind, PUMPS[pump], DetectorPoint(a, b, z), r2)
              for a, b in zip(x.tolist(), y.tolist())]
    assert amps.shape == x.shape
    assert {t for _, t in scalar} == {tag}
    assert _bits(amps) == _bits([a for a, _ in scalar])


@pytest.mark.parametrize("pump", sorted(PUMPS))
@pytest.mark.parametrize("z", [0.0, 0.4])
def test_hg_field_on_arrays_equals_scalar_calls_bitwise(pump, z):
    mode = PUMPS[pump].mode
    # enough points that libm pow(x, 2), which differs from x * x in about
    # 1e-3 of draws, would show
    x, y = _array_points(len(pump), 0.0, count=3000)
    field = hg_field(mode, DetectorPoint(x, y, z))
    scalar = [hg_field(mode, DetectorPoint(a, b, z)) for a, b in zip(x.tolist(), y.tolist())]
    assert _bits(field) == _bits(scalar)
