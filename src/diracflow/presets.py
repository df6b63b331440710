"""Named interface scenarios: the eight standard wall configurations.

Four single-wall panels (uniform bulk, mass wall, field wall with and
without mass) and four dual-wall panels (field + mass walls with a
potential wall of increasing strength).  All walls share the default
transition interval (-1, 1) and the default sweep geometry.  Two presets
have a bulk Landau level at mu = 0, so their level alpha and density
window sit in the common bulk gap above it instead of around 0.
"""

from __future__ import annotations

from dataclasses import asdict

from .profiles import ProfileSet, SwitchProfile

__all__ = ["PRESETS", "preset_profiles", "preset_config"]


def _wall(lo: float, hi: float) -> SwitchProfile:
    return SwitchProfile(lo, hi)


def _const(v: float) -> SwitchProfile:
    return SwitchProfile(v, v)


PRESETS: dict[str, ProfileSet] = {
    "bulk_uniform": ProfileSet(B=_const(2.0), m=_const(2.0), V=_const(0.0)),
    "mass_wall": ProfileSet(B=_const(2.0), m=_wall(-2.0, 2.0), V=_const(0.0)),
    "field_wall_massless": ProfileSet(B=_wall(-2.0, 2.0), m=_const(0.0), V=_const(0.0)),
    "field_wall_massive": ProfileSet(B=_wall(-2.0, 2.0), m=_const(2.0), V=_const(0.0)),
    "dual_wall_v0": ProfileSet(B=_wall(-2.0, 2.0), m=_wall(-2.0, 2.0), V=_const(0.0)),
    "dual_wall_v01": ProfileSet(B=_wall(-2.0, 2.0), m=_wall(-2.0, 2.0), V=_wall(-0.1, 0.1)),
    "dual_wall_v05": ProfileSet(B=_wall(-2.0, 2.0), m=_wall(-2.0, 2.0), V=_wall(-0.5, 0.5)),
    "dual_wall_v2": ProfileSet(B=_wall(-2.0, 2.0), m=_wall(-2.0, 2.0), V=_wall(-2.0, 2.0)),
}

# scenarios with same-sign fields keep a wide filter strip: the staggered
# scheme's zone-edge artifact then lands inside the strip and is removed
# by the boundary-mass rule (see the fiber module docstring)
_WIDE_MARGIN = {"bulk_uniform", "mass_wall"}

# (alpha, density window) inside the common bulk gap above the mu = 0 level
_GAP_ABOVE_ZERO = {
    "field_wall_massless": (1.0, [0.5, 1.5]),  # gap (0, 2)
    "dual_wall_v2": (0.4, [0.2, 0.6]),  # gap (0, 2 sqrt(2) - 2)
}


def preset_profiles(name: str) -> ProfileSet:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


def preset_config(name: str) -> dict:
    """The run config of the named preset; every value not listed is the config default."""
    raw = {"scenario": name, "profiles": asdict(preset_profiles(name)), "alphas": [0.1], "grid2d": {}}
    if name in _WIDE_MARGIN:
        raw["filter"] = {"margin": 5.0}
    if name in _GAP_ABOVE_ZERO:
        alpha, density_window = _GAP_ABOVE_ZERO[name]
        raw["alphas"] = [alpha]
        raw["density"] = {"window": density_window}
    return raw
