"""Smooth switch (domain-wall) profiles with exact plateaus.

Every wall and the density phi is the standard C-infinity
partition-of-unity bump built from g(t) = exp(-1/t) for t > 0: it
attains its plateau values exactly outside the transition interval,
which downstream invariants rely on (bit-exact plateaus, derivative
identically zero off the transition).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SwitchProfile",
    "ProfileSet",
    "DensityProfile",
    "evaluate",
    "derivative",
    "magnetic_potential",
]


def _g(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, 0 otherwise; vectorized without overflow warnings."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _g_prime(t: np.ndarray) -> np.ndarray:
    """Derivative of _g: exp(-1/t)/t^2 on t > 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


@dataclass(frozen=True)
class SwitchProfile:
    """A smooth switch: equal to `lower` for x <= t_lo, `upper` for x >= t_hi."""

    lower: float
    upper: float
    t_lo: float = -1.0
    t_hi: float = 1.0

    def __post_init__(self):
        if not self.t_lo < self.t_hi:
            raise ValueError(f"invalid transition interval ({self.t_lo}, {self.t_hi})")


def evaluate(p: SwitchProfile, x):
    """Evaluate the profile; plateaus are exact (total function, no errors)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    t = (np.atleast_1d(x) - p.t_lo) / (p.t_hi - p.t_lo)
    gl = _g(t)
    s = np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, gl / (gl + _g(1.0 - t))))
    out = p.lower + (p.upper - p.lower) * s
    # force bit-exact plateau values (the affine form could round)
    out = np.where(t <= 0.0, p.lower, np.where(t >= 1.0, p.upper, out))
    return float(out[0]) if scalar else out


def derivative(p: SwitchProfile, x):
    """Analytic derivative; identically zero outside (t_lo, t_hi)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    w = p.t_hi - p.t_lo
    t = (np.atleast_1d(x) - p.t_lo) / w
    interior = (t > 0.0) & (t < 1.0)
    ds = np.zeros_like(t)
    ti = t[interior]
    g0, g1 = _g(ti), _g(1.0 - ti)
    d0, d1 = _g_prime(ti), _g_prime(1.0 - ti)
    # quotient rule for s = g0 / (g0 + g1); note d(g1)/dt = -d1
    ds[interior] = (d0 * g1 + g0 * d1) / (g0 + g1) ** 2
    out = (p.upper - p.lower) * ds / w
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ProfileSet:
    """The three walls (B, m, V) defining the interface Hamiltonian."""

    B: SwitchProfile
    m: SwitchProfile
    V: SwitchProfile

    def __post_init__(self):
        if self.B.lower == 0.0 or self.B.upper == 0.0:
            raise ValueError("field plateaus must be nonzero")


def magnetic_potential(ps: ProfileSet, x):
    """A2(x) = x * B(x)."""
    x = np.asarray(x, dtype=float)
    out = x * evaluate(ps.B, x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DensityProfile:
    """The density switch phi in S(0, 1; E1, E2), the bump across its window; phi' is the window weight."""

    window: tuple[float, float]

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise ValueError(f"invalid transition interval {self.window}")

    @property
    def phi(self) -> SwitchProfile:
        return SwitchProfile(0.0, 1.0, *self.window)

    @classmethod
    def from_window(cls, e1: float, e2: float) -> "DensityProfile":
        return cls((e1, e2))
