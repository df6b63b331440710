"""Closed-form bulk (half-space) spectra and the analytic spectral-flow prediction.

For a constant-coefficient half-space with field B != 0, mass m, and
potential V, the fiber spectrum is the Landau set

    { eps * sqrt(2 k |B| + m^2) + V : eps = +/-1, k >= 1 }
    union { m * sgn(B) + V }      (the unpaired zeroth level).

The half-space index at a level alpha in the resolvent set is the signed
half-integer

    I(alpha) = sgn(B) * sgn(alpha - V - m*sgn(B)) * (N(alpha) + 1/2),

where N(alpha) counts Landau gaps crossed, and the predicted spectral flow
across an interface is I_minus - I_plus.  Half-integers are carried as
exact fractions so the predicted flow is exactly integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BulkLevelError

__all__ = [
    "HalfSpaceParams",
    "BulkSpectrum",
    "FlowPrediction",
    "landau_levels",
    "count_levels",
    "half_index",
    "predicted_sf",
    "gap_component",
]


@dataclass(frozen=True)
class HalfSpaceParams:
    """Constant bulk triple (B, m, V) with B != 0."""

    B: float
    m: float
    V: float = 0.0

    def __post_init__(self):
        if self.B == 0.0:
            raise ValueError("half-space field B must be nonzero")


@dataclass(frozen=True)
class BulkSpectrum:
    """Sorted Landau levels including the unpaired zeroth level."""

    levels: tuple[float, ...]
    zeroth_level: float
    k_max: int


@dataclass(frozen=True)
class FlowPrediction:
    """Predicted spectral flow sf = I_minus - I_plus (exact half-integers)."""

    I_minus: Fraction
    I_plus: Fraction
    sf: int
    N_minus: int
    N_plus: int


def landau_levels(hp: HalfSpaceParams, k_max: int) -> BulkSpectrum:
    """All Landau levels with index up to k_max, sorted ascending."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    zeroth = hp.m * math.copysign(1.0, hp.B) + hp.V
    levels = [zeroth]
    for k in range(1, k_max + 1):
        e = math.sqrt(2.0 * k * abs(hp.B) + hp.m**2)
        levels.append(hp.V + e)
        levels.append(hp.V - e)
    return BulkSpectrum(levels=tuple(sorted(levels)), zeroth_level=zeroth, k_max=k_max)


def count_levels(hp: HalfSpaceParams, alpha: float) -> int:
    """N(alpha): number of paired Landau magnitudes sqrt(2k|B|+m^2) in (|m|, |alpha - V|).

    Raises BulkLevelError when |alpha - V| sits exactly on a threshold
    (including the zeroth-level magnitude |m|), where the flow is undefined.
    """
    r = abs(alpha - hp.V)
    if r == abs(hp.m):
        raise BulkLevelError(f"alpha on bulk level: |alpha - V| = |m| = {abs(hp.m)}")
    if r < abs(hp.m):
        return 0
    # solve 2k|B| + m^2 = r^2 for the crossing index
    q = (r * r - hp.m * hp.m) / (2.0 * abs(hp.B))
    k = math.floor(q)
    if q == k and k >= 1:
        raise BulkLevelError(f"alpha on bulk level: k = {k}")
    return k


def half_index(hp: HalfSpaceParams, alpha: float) -> Fraction:
    """The signed half-integer index I(alpha) of one half-space."""
    n = count_levels(hp, alpha)
    zeroth = hp.m * math.copysign(1.0, hp.B) + hp.V
    if alpha == zeroth:
        raise BulkLevelError("flow undefined at alpha: alpha equals the zeroth level")
    sgn_b = 1 if hp.B > 0 else -1
    sgn_a = 1 if alpha > zeroth else -1
    return sgn_b * sgn_a * (Fraction(n) + Fraction(1, 2))


def predicted_sf(minus: HalfSpaceParams, plus: HalfSpaceParams, alpha: float) -> FlowPrediction:
    """Predicted spectral flow I(minus; alpha) - I(plus; alpha)."""
    i_minus = half_index(minus, alpha)
    i_plus = half_index(plus, alpha)
    sf = i_minus - i_plus
    assert sf.denominator == 1
    return FlowPrediction(
        I_minus=i_minus,
        I_plus=i_plus,
        sf=int(sf),
        N_minus=count_levels(minus, alpha),
        N_plus=count_levels(plus, alpha),
    )


def gap_component(minus: HalfSpaceParams, plus: HalfSpaceParams, alpha: float) -> tuple[float, float]:
    """The connected component of the joint resolvent set containing alpha.

    Returns the open interval between the nearest bulk levels (of either
    side) below and above alpha; infinite endpoints are +-inf.
    """
    all_levels = []
    for hp in (minus, plus):
        # enough levels to bracket any reasonable alpha
        span = abs(alpha - hp.V) + abs(hp.m) + 1.0
        k_need = max(1, math.ceil(span * span / (2.0 * abs(hp.B))) + 1)
        all_levels.extend(landau_levels(hp, k_need).levels)
    arr = np.sort(np.asarray(all_levels))
    if np.any(np.abs(arr - alpha) < 1e-12):
        raise BulkLevelError("alpha in bulk spectrum")
    below = arr[arr < alpha]
    above = arr[arr > alpha]
    lo = float(below[-1]) if below.size else -math.inf
    hi = float(above[0]) if above.size else math.inf
    return (lo, hi)
