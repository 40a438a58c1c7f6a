"""Hermite-Gaussian beam mathematics.

L2-normalized HG_mn modes with closed-form propagation (beam radius w(z),
wavefront curvature R(z), Gouy phase), y-parity classification, and the
two-photon coincidence-detection amplitude fields in which the propagated
pump profile W appears evaluated at the detection centroid.  The transverse
envelope is the decaying Gaussian exp(-(x^2+y^2)/w^2).

All lengths are in meters.  `hg_field` and `coincidence_amplitude` accept
numpy arrays of transverse coordinates in place of scalars (the plane z stays
a scalar), and an array call gives bitwise the results of the elementwise
scalar calls, signs of zero included: squares are written x * x rather than
x**2 (Python's float ** calls libm pow), and the final complex product is
spelled out in real arithmetic (numpy's complex-array product rounds
differently from its scalar product).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .twophoton import BELL_KINDS, SQRT2, BellKind

PUMP_WAVELENGTH = 351.1e-9      # argon-ion pump line
PHOTON_WAVELENGTH = 702.2e-9    # degenerate down-converted wavelength
DEFAULT_WAIST = 1e-3            # pump waist, free configuration


def hermite_poly(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via the standard recurrence.

    H_{n+1}(x) = 2x H_n(x) - 2n H_{n-1}(x).
    """
    if n < 0:
        raise ValueError("Hermite polynomial index must be >= 0")
    h_prev = np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
    if n == 0:
        return h_prev
    h = 2.0 * np.asarray(x, dtype=float) if np.ndim(x) else 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h


@dataclass(frozen=True)
class HGMode:
    """Hermite-Gaussian mode HG_mn with waist w0 and wavelength lambda."""

    m: int
    n: int
    waist: float = DEFAULT_WAIST
    wavelength: float = PUMP_WAVELENGTH

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("mode indices must be >= 0")
        if self.waist <= 0:
            raise ValueError("waist must be positive")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist**2 / self.wavelength

    @property
    def wave_number(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def norm_constant(self) -> float:
        """Dimensionless part of the L2 normalization (the 1/w factor is separate)."""
        return math.sqrt(2.0 / (math.pi * 2.0**(self.m + self.n)
                                * math.factorial(self.m) * math.factorial(self.n)))


@dataclass(frozen=True)
class DetectorPoint:
    """Transverse + longitudinal detection coordinates (meters)."""

    x: float
    y: float
    z: float


def beam_radius(mode: HGMode, z: float) -> float:
    zr = mode.rayleigh_range
    return mode.waist * math.sqrt(1.0 + (z / zr) ** 2)


def gouy_phase(mode: HGMode, z: float) -> float:
    return math.atan2(z, mode.rayleigh_range)


def y_parity(mode: HGMode) -> int:
    """+1 if the mode is even in y (n even), -1 if odd."""
    return +1 if mode.n % 2 == 0 else -1


def hg_field(mode: HGMode, p: DetectorPoint) -> complex:
    """Complex HG_mn field amplitude at point p, L2-normalized at every z.

    Includes the Gaussian envelope, the curvature phase exp(-ik r^2 / 2R) and
    the Gouy phase exp(-i (m+n+1) theta); at z = 0 the wavefront is flat and
    the Gouy phase vanishes.
    """
    z = p.z
    w = beam_radius(mode, z)
    k = mode.wave_number
    r2 = p.x * p.x + p.y * p.y
    amp = (
        mode.norm_constant / w
        * hermite_poly(mode.m, p.x * SQRT2 / w)
        * hermite_poly(mode.n, p.y * SQRT2 / w)
        * np.exp(-r2 / w**2)
    )
    if z == 0.0:
        return amp * (1.0 + 0j)
    zr = mode.rayleigh_range
    curvature = z * (1.0 + (zr / z) ** 2)   # R(z) = (z^2 + zr^2)/z
    phase = -k * r2 / (2.0 * curvature) - (mode.m + mode.n + 1) * gouy_phase(mode, z)
    return amp * np.exp(1j * phase)


@dataclass(frozen=True)
class PumpProfile:
    """Pump beam profile: HG mode plus the derived pump-frame quantities."""

    mode: HGMode

    @property
    def joint_parity(self) -> int:
        """Joint transverse parity transferred to the photon pair."""
        return y_parity(self.mode)

    @property
    def wave_number(self) -> float:
        return self.mode.wave_number

    @property
    def norm_constant(self) -> float:
        return self.mode.norm_constant

    def field(self, x, y, z) -> complex:
        """Propagated transverse profile W(x, y, z)."""
        return hg_field(self.mode, DetectorPoint(x, y, z))


def gaussian_pump(waist: float = DEFAULT_WAIST, wavelength: float = PUMP_WAVELENGTH) -> PumpProfile:
    return PumpProfile(HGMode(0, 0, waist, wavelength))


def hg01_pump(waist: float = DEFAULT_WAIST, wavelength: float = PUMP_WAVELENGTH) -> PumpProfile:
    return PumpProfile(HGMode(0, 1, waist, wavelength))


def hg_pump(m: int, n: int, waist: float = DEFAULT_WAIST,
            wavelength: float = PUMP_WAVELENGTH) -> PumpProfile:
    return PumpProfile(HGMode(m, n, waist, wavelength))


_POL_TAGS = {"psi+": "hv+vh", "psi-": "hv-vh", "phi+": "hh+vv", "phi-": "hh-vv"}


def coincidence_amplitude(
    kind: BellKind,
    pump: PumpProfile,
    r1: DetectorPoint,
    r2: DetectorPoint,
) -> Tuple[complex, str]:
    """Coincidence-detection amplitude of a Bell state behind a balanced
    interferometer, as a function of the two detector positions.

    Returns (amplitude, polarization tag), the amplitude shaped like the
    coordinates.  The amplitude is
    exp{iK/2Z [(x1-x2)^2 + (y1-y2)^2]} x [W(xm, ym, Z) -+ W(xm, -ym, Z)]
    with the centroid xm = (x1+x2)/2, ym = (y1+y2)/2, where the minus sign
    belongs to psi+ and both phi states, and the plus sign to psi-;
    the tag carries the (hv +- vh) / (hh +- vv) polarization structure.
    """
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell kind {kind!r}")
    if r1.z <= 0 or r2.z <= 0:
        raise ValueError("detector plane Z must be positive")
    if abs(r1.z - r2.z) > 1e-12 * max(abs(r1.z), 1.0):
        raise ValueError("both detectors must sit in one plane z1 = z2 = Z")
    z = r1.z
    k = pump.wave_number
    dx = r1.x - r2.x
    dy = r1.y - r2.y
    pref = np.exp(1j * k / (2.0 * z) * (dx * dx + dy * dy))
    xm = 0.5 * (r1.x + r2.x)
    ym = 0.5 * (r1.y + r2.y)
    w_plus = pump.field(xm, ym, z)
    w_minus = pump.field(xm, -ym, z)
    bracket = w_plus + w_minus if kind == "psi-" else w_plus - w_minus
    amp = np.empty(np.shape(bracket), dtype=complex)
    # assigned part by part: re + 1j * im would turn a -0.0 real part into 0.0
    amp.real = pref.real * bracket.real - pref.imag * bracket.imag
    amp.imag = pref.real * bracket.imag + pref.imag * bracket.real
    return amp[()], _POL_TAGS[kind]
