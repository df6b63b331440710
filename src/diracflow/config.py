"""Run configuration: strict JSON schema, defaults, and the run manifest.

Each section takes its keys, required fields and defaults from its library
dataclass; this module supplies only the defaults a dataclass leaves open.
Unknown keys are rejected at every nesting level so a typo in a config file
fails loudly instead of silently running defaults; any malformed or invalid
value raises ConfigError (exit code 6).  `RunConfig.resolved()` and
`RunManifest.write` write their dataclasses out whole, so any field of the
config dataclasses reaches `manifest.json` with no edit here; resolved() is
the exact inverse of the parser, and a run replays from its manifest alone.
The output directory is a command-line flag, not a config key: it does not
change the results.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, get_origin, get_type_hints

from . import __version__
from .branches import SweepConfig
from .errors import ConfigError
from .fiber import Grid1D, SpuriousFilter
from .oracle2d import Grid2D, PerturbationSpec
from .profiles import DensityProfile, ProfileSet

__all__ = ["RunConfig", "load_config", "config_from_dict", "RunManifest"]


def _object(raw: Any, ctx: str, keys) -> dict:
    """`raw` as a JSON object whose keys all lie in `keys`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    unknown = sorted(raw.keys() - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys in {ctx}: {unknown}")
    return raw


def _scalar(t: type, val: Any, ctx: str):
    """`val` cast to t after checking its JSON kind: a string for str, a
    finite number within float range (not a bool) for float, an integral one for int."""
    if t is str:
        ok = isinstance(val, str)
    else:
        ok = isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= sys.float_info.max
        if t is int and isinstance(val, float):
            ok = ok and val.is_integer()
    if not ok:
        kind = {str: "a string", float: "a finite number", int: "an integer"}[t]
        raise ConfigError(f"{ctx} must be {kind}, got {val!r}")
    return t(val)


def _pair(val: Any, ctx: str) -> tuple[float, float]:
    if not isinstance(val, (list, tuple)) or len(val) != 2:
        raise ConfigError(f"{ctx} must be a [lo, hi] pair")
    return _scalar(float, val[0], ctx), _scalar(float, val[1], ctx)


def _section(cls, raw: Any, ctx: str, **defaults):
    """Build dataclass `cls` from a JSON object keyed by its field names.

    Each value is checked and cast by its field type (a dataclass field
    recurses); `defaults` fills fields that the dataclass leaves required.
    """
    d = _object(raw, ctx, (f.name for f in fields(cls)))
    types = get_type_hints(cls)
    kw = {}
    for f in fields(cls):
        t, sub = types[f.name], f"{ctx}.{f.name}"
        if f.name not in d:
            if f.name in defaults:
                kw[f.name] = defaults[f.name]
            elif f.default is MISSING:
                raise ConfigError(f"missing required key {f.name!r} in {ctx}")
        elif is_dataclass(t):
            kw[f.name] = _section(t, d[f.name], sub)
        elif get_origin(t) is tuple:
            kw[f.name] = _pair(d[f.name], sub)
        else:
            kw[f.name] = _scalar(t, d[f.name], sub)
    return cls(**kw)


def _plain(obj) -> dict:
    """asdict with tuples as JSON lists."""
    return asdict(obj, dict_factory=lambda kv: {k: list(v) if isinstance(v, tuple) else v for k, v in kv})


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    profiles: ProfileSet
    grid: Grid1D
    sweep: SweepConfig
    filter: SpuriousFilter
    alphas: tuple[float, ...]
    density: DensityProfile
    grid2d: Grid2D | None
    perturbation: PerturbationSpec | None

    def resolved(self) -> dict:
        """Every value made explicit; config_from_dict(cfg.resolved()) == cfg.  The
        config keeps grid2d's x-grid keys beside Ny and Ly, and leaves out a None section."""
        out = {k: v for k, v in _plain(self).items() if v is not None}
        if "grid2d" in out:
            out["grid2d"] |= out["grid2d"].pop("grid_x")
        return out


def config_from_dict(raw: dict) -> RunConfig:
    """Parse and validate a raw config; every defect raises ConfigError."""
    try:
        return _parse(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from None


def _parse(raw: dict) -> RunConfig:
    d = _object(raw, "config", (f.name for f in fields(RunConfig)))
    if "profiles" not in d:
        raise ConfigError("missing required key 'profiles' in config")
    grid = _section(Grid1D, d.get("grid", {}), "grid", L=20.0, N=800)
    sweep = _section(
        SweepConfig, d.get("sweep", {}), "sweep", zeta_min=-8.0, zeta_max=8.0, samples=81, window=(-4.0, 4.0)
    )
    dens = _section(DensityProfile, d.get("density", {}), "density", window=(-0.5, 0.5))

    g2 = None
    if d.get("grid2d") is not None:
        g = _object(d["grid2d"], "grid2d", ("Ny", "Ly", *(f.name for f in fields(Grid1D))))
        x = _section(Grid1D, {k: v for k, v in g.items() if k not in ("Ny", "Ly")}, "grid2d", L=12.0, N=48)
        g2 = _section(Grid2D, {k: v for k, v in g.items() if k in ("Ny", "Ly")}, "grid2d", grid_x=x, Ly=24.0, Ny=32)

    alphas = d.get("alphas", [0.0])
    if not isinstance(alphas, (list, tuple)) or not alphas:
        raise ConfigError("alphas must be a non-empty list of numbers")

    pert = None
    if d.get("perturbation") is not None:
        pert = _section(PerturbationSpec, d["perturbation"], "perturbation")

    # the scenario names the SVG written into the output directory
    scenario = _scalar(str, d.get("scenario", "custom"), "scenario")
    if scenario in ("", ".", "..") or any(c in scenario for c in "/\\\0"):
        raise ConfigError(f"scenario must be a single file-name component, got {scenario!r}")

    return RunConfig(
        scenario=scenario,
        profiles=_section(ProfileSet, d["profiles"], "profiles"),
        grid=grid,
        sweep=sweep,
        filter=_section(SpuriousFilter, d.get("filter", {}), "filter", margin=SpuriousFilter.default(grid).margin),
        alphas=tuple(_scalar(float, a, "alphas") for a in alphas),
        density=dens,
        grid2d=g2,
        perturbation=pert,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return config_from_dict(raw)


@dataclass
class RunManifest:
    """Everything needed to replay and audit a run."""

    config: dict
    version: str = __version__
    timings: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
