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

The interface conductivity is that integer only when the density window
[E1, E2] lies in a gap of both half-spaces' spectra (check_density_window).

Both questions are answered by one exact count (_paired_counts): the
paired levels below a magnitude r, strictly or with eps_k = r included.
Every float is a rational, so the count is a floor taken in integers:
a level is hit only when it is hit exactly, nothing overflows, and the
window check costs two counts per side of V whatever its width.
landau_levels, the float list of levels, serves printouts and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BulkLevelError, WindowError

__all__ = [
    "HalfSpaceParams",
    "BulkSpectrum",
    "FlowPrediction",
    "landau_levels",
    "count_levels",
    "half_index",
    "predicted_sf",
    "check_density_window",
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


@dataclass(frozen=True)
class FlowPrediction:
    """Predicted spectral flow sf = I_minus - I_plus (exact half-integers)."""

    I_minus: Fraction
    I_plus: Fraction
    sf: int
    N_minus: int
    N_plus: int


def landau_levels(hp: HalfSpaceParams, k_max: int) -> BulkSpectrum:
    """All Landau levels with index up to k_max, sorted ascending, in floats."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    zeroth = hp.m * math.copysign(1.0, hp.B) + hp.V
    levels = [zeroth]
    for k in range(1, k_max + 1):
        e = math.sqrt(2.0 * k * abs(hp.B) + hp.m * hp.m)
        levels.append(hp.V + e)
        levels.append(hp.V - e)
    return BulkSpectrum(levels=tuple(sorted(levels)), zeroth_level=zeroth)


def _ratio(x: float) -> tuple[int, int]:
    """x as an exact integer ratio (numerator, positive denominator)."""
    return float(x).as_integer_ratio()


def _zeroth(hp: HalfSpaceParams) -> tuple[int, int]:
    """The unpaired zeroth level m sgn(B) + V as an exact integer ratio."""
    (mn, md), (vn, vd) = _ratio(hp.m), _ratio(hp.V)
    return (mn if hp.B > 0 else -mn) * vd + vn * md, md * vd


def _paired_counts(hp: HalfSpaceParams, rn: int, rd: int) -> tuple[int, int]:
    """(#{k >= 1 : eps_k < r}, #{k >= 1 : eps_k <= r}) for the paired magnitudes
    eps_k = sqrt(2 k |B| + m^2) and a magnitude r = rn / rd >= 0.  eps_k <= r
    exactly when k <= q = (r^2 - m^2) / (2 |B|), so both counts follow from
    the floor of q, taken in integers: nothing rounds and nothing overflows."""
    (mn, md), (bn, bd) = _ratio(hp.m), _ratio(hp.B)
    k, rest = divmod((rn * rn * md * md - mn * mn * rd * rd) * bd, 2 * abs(bn) * rd * rd * md * md)
    return max(k - 1 if rest == 0 else k, 0), max(k, 0)


def count_levels(hp: HalfSpaceParams, alpha: float) -> int:
    """N(alpha): number of paired Landau magnitudes sqrt(2k|B|+m^2) in (|m|, |alpha - V|).

    Raises BulkLevelError when |alpha - V| sits exactly on a threshold
    (including the zeroth-level magnitude |m|), where the flow is undefined.
    """
    (an, ad), (vn, vd), (mn, md) = _ratio(alpha), _ratio(hp.V), _ratio(hp.m)
    rn, rd = abs(an * vd - vn * ad), ad * vd
    if rn * md == abs(mn) * rd:
        raise BulkLevelError(f"alpha on bulk level: |alpha - V| = |m| = {abs(hp.m)}")
    below, through = _paired_counts(hp, rn, rd)
    if below != through:
        raise BulkLevelError(f"alpha on bulk level: k = {through}")
    return below


def _twice_index(hp: HalfSpaceParams, alpha: float) -> int:
    """2 I(alpha), an odd integer: one count and one comparison with the zeroth
    level.  On the zeroth level |alpha - V| = |m|, where count_levels raises."""
    n = count_levels(hp, alpha)
    (an, ad), (zn, zd) = _ratio(alpha), _zeroth(hp)
    return (2 * n + 1) * (1 if (hp.B > 0) == (an * zd > zn * ad) else -1)


def half_index(hp: HalfSpaceParams, alpha: float) -> Fraction:
    """The signed half-integer index I(alpha) of one half-space."""
    return Fraction(_twice_index(hp, alpha), 2)


def predicted_sf(minus: HalfSpaceParams, plus: HalfSpaceParams, alpha: float) -> FlowPrediction:
    """Predicted spectral flow I(minus; alpha) - I(plus; alpha), an integer: both
    2I are odd.  |2I| = 2N + 1."""
    t_minus, t_plus = _twice_index(minus, alpha), _twice_index(plus, alpha)
    return FlowPrediction(
        I_minus=Fraction(t_minus, 2),
        I_plus=Fraction(t_plus, 2),
        sf=(t_minus - t_plus) // 2,
        N_minus=abs(t_minus) // 2,
        N_plus=abs(t_plus) // 2,
    )


def _paired_level(hp: HalfSpaceParams, k: int, sign: int) -> float:
    """The paired level V + sign * eps_k, from a square root exact to 64 bits: a
    float formula overflows where k or eps_k^2 exceeds the float range."""
    eps2 = 2 * k * abs(Fraction(hp.B)) + Fraction(hp.m) ** 2
    s = eps2.denominator.bit_length() + 64
    eps = Fraction(math.isqrt((eps2.numerator << 2 * s) // eps2.denominator), 1 << s)
    return float(Fraction(hp.V) + sign * eps)


def check_density_window(minus: HalfSpaceParams, plus: HalfSpaceParams, window: tuple[float, float]) -> None:
    """WindowError when the closed window [E1, E2] holds a Landau level of
    either half-space, the zeroth level included.  On each side of V the window
    covers an interval [a, b] of |E - V|, which holds a paired level exactly when
    #{eps_k <= b} exceeds #{eps_k < a}: two counts per side, whatever the width."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    for side, hp in (("minus", minus), ("plus", plus)):
        v, zeroth = Fraction(hp.V), Fraction(*_zeroth(hp))
        level = float(zeroth) if lo <= zeroth <= hi else None
        for sign, a, b in ((-1, v - min(hi, v), v - lo), (1, max(lo, v) - v, hi - v)):
            if level is None and a <= b:
                k = _paired_counts(hp, *a.as_integer_ratio())[0] + 1  # the first paired level at or past a
                if k <= _paired_counts(hp, *b.as_integer_ratio())[1]:
                    level = _paired_level(hp, k, sign)
        if level is not None:
            raise WindowError(
                f"density window [{window[0]:g}, {window[1]:g}] holds the {side} half-space's bulk level {level:.6g}: "
                "the conductivity is quantized only for a window in a bulk gap"
            )
