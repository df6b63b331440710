"""Run configuration: strict JSON schema, defaults, and the run manifest.

Each section that maps one-to-one onto a library dataclass takes its keys,
required fields and defaults from that dataclass; this module supplies
only the defaults a dataclass leaves open.  Unknown keys are rejected at
every nesting level so a typo in a config file fails loudly instead of
silently running defaults; any malformed or invalid value raises
ConfigError (exit code 6).  `RunConfig.resolved()` materializes every
default into the manifest and is the exact inverse of the parser, making
runs replayable from the manifest alone.  The output directory and the
worker count are command-line flags, not config keys: they do not change
the results.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, get_origin, get_type_hints

from . import __version__
from .branches import SweepConfig
from .errors import ConfigError
from .fiber import Grid1D, SpuriousFilter
from .oracle2d import Grid2D, PerturbationSpec
from .profiles import DensityProfile, ProfileSet, SwitchProfile

__all__ = ["RunConfig", "load_config", "config_from_dict", "RunManifest"]


def _object(raw: Any, ctx: str, keys) -> dict:
    """`raw` as a JSON object whose keys all lie in `keys`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    unknown = sorted(raw.keys() - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys in {ctx}: {unknown}")
    return raw


def _pair(val: Any, ctx: str) -> tuple[float, float]:
    if not isinstance(val, (list, tuple)) or len(val) != 2:
        raise ConfigError(f"{ctx} must be a [lo, hi] pair")
    return float(val[0]), float(val[1])


def _section(cls, raw: Any, ctx: str, **defaults):
    """Build dataclass `cls` from a JSON object keyed by its field names.

    Each value is cast by its field type (a dataclass field recurses);
    `defaults` fills fields that the dataclass leaves required.
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
            kw[f.name] = t(d[f.name])
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
        """Every value made explicit; config_from_dict(cfg.resolved()) == cfg."""
        out: dict[str, Any] = {
            "scenario": self.scenario,
            "profiles": _plain(self.profiles),
            "grid": _plain(self.grid),
            "sweep": _plain(self.sweep),
            "filter": _plain(self.filter),
            "alphas": list(self.alphas),
            "density": {"window": list(self.density.window), "shape": self.density.phi.shape},
        }
        if self.grid2d is not None:
            out["grid2d"] = {**_plain(self.grid2d.grid_x), "Ny": self.grid2d.Ny, "Ly": self.grid2d.Ly}
        if self.perturbation is not None:
            out["perturbation"] = _plain(self.perturbation)
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

    dn = _object(d.get("density", {}), "density", ("window", "shape"))
    dens = DensityProfile.from_window(
        *_pair(dn.get("window", (-0.5, 0.5)), "density.window"), dn.get("shape", SwitchProfile.shape)
    )

    g2 = None
    if d.get("grid2d") is not None:
        g = _object(d["grid2d"], "grid2d", ("Ny", "Ly", *(f.name for f in fields(Grid1D))))
        g_x = {k: v for k, v in g.items() if k not in ("Ny", "Ly")}
        g2 = Grid2D(
            grid_x=_section(Grid1D, g_x, "grid2d", L=12.0, N=48),
            Ly=float(g.get("Ly", 24.0)),
            Ny=int(g.get("Ny", 32)),
        )

    alphas = d.get("alphas", [0.0])
    if not isinstance(alphas, (list, tuple)):
        raise ConfigError("alphas must be a list of numbers")

    pert = None
    if d.get("perturbation") is not None:
        pert = _section(PerturbationSpec, d["perturbation"], "perturbation")

    return RunConfig(
        scenario=str(d.get("scenario", "custom")),
        profiles=_section(ProfileSet, d["profiles"], "profiles"),
        grid=grid,
        sweep=sweep,
        filter=_section(SpuriousFilter, d.get("filter", {}), "filter", margin=SpuriousFilter.default(grid).margin),
        alphas=tuple(float(a) for a in alphas),
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
    tolerances: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def write(self, path: Path) -> None:
        payload = {
            "version": self.version,
            "config": self.config,
            "tolerances": self.tolerances,
            "verdicts": self.verdicts,
            "diagnostics": self.diagnostics,
            "timings": self.timings,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
