"""Run configuration: strict JSON schema, defaults, and the run manifest.

Unknown keys are rejected at every nesting level so a typo in a config
file fails loudly instead of silently running defaults; any malformed
or invalid value raises ConfigError (exit code 6).  All defaults
are materialized into the manifest, making runs replayable byte-for-byte
from the manifest alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import __version__
from .branches import SweepConfig
from .errors import ConfigError
from .fiber import Grid1D, SpuriousFilter
from .oracle2d import Grid2D, PerturbationSpec
from .profiles import DensityProfile, ProfileSet, SwitchProfile

__all__ = ["RunConfig", "load_config", "config_from_dict", "RunManifest"]


def _take(d: dict, ctx: str, known: dict[str, Any]) -> dict:
    """Pop known keys with defaults; reject anything left over."""
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    out = {}
    d = dict(d)
    for key, default in known.items():
        out[key] = d.pop(key, default)
    if d:
        raise ConfigError(f"unknown keys in {ctx}: {sorted(d)}")
    return out


_REQUIRED = object()


def _require(val, key: str, ctx: str):
    if val is _REQUIRED:
        raise ConfigError(f"missing required key {key!r} in {ctx}")
    return val


def _pair(val, ctx: str) -> tuple[float, float]:
    if not isinstance(val, (list, tuple)) or len(val) != 2:
        raise ConfigError(f"{ctx} must be a [lo, hi] pair")
    return float(val[0]), float(val[1])


def _parse_profile(d: dict, ctx: str) -> SwitchProfile:
    got = _take(
        d, ctx, {"lower": _REQUIRED, "upper": _REQUIRED, "t_lo": -1.0, "t_hi": 1.0, "shape": "smooth_bump"}
    )
    for k in ("lower", "upper", "t_lo", "t_hi"):
        got[k] = float(_require(got[k], k, ctx))
    return SwitchProfile(**got)


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
    out: Path
    seed: int
    workers: int

    def resolved(self) -> dict:
        """The fully-materialized config (every default made explicit)."""

        def prof(p: SwitchProfile) -> dict:
            return {
                "lower": p.lower,
                "upper": p.upper,
                "t_lo": p.t_lo,
                "t_hi": p.t_hi,
                "shape": p.shape,
            }

        out: dict[str, Any] = {
            "scenario": self.scenario,
            "profiles": {
                "B": prof(self.profiles.B),
                "m": prof(self.profiles.m),
                "V": prof(self.profiles.V),
            },
            "grid": {"L": self.grid.L, "N": self.grid.N, "bc": self.grid.bc},
            "sweep": {
                "zeta_min": self.sweep.zeta_min,
                "zeta_max": self.sweep.zeta_max,
                "samples": self.sweep.samples,
                "window": list(self.sweep.window),
                "refine_tol": self.sweep.refine_tol,
                "overlap_threshold": self.sweep.overlap_threshold,
                "bisect_floor": self.sweep.bisect_floor,
            },
            "filter": {"margin": self.filter.margin, "threshold": self.filter.threshold},
            "alphas": list(self.alphas),
            "density": {"window": list(self.density.window), "shape": self.density.phi.shape},
            "seed": self.seed,
            "workers": self.workers,
        }
        if self.grid2d is not None:
            out["grid2d"] = {
                "N": self.grid2d.grid_x.N,
                "L": self.grid2d.grid_x.L,
                "Ny": self.grid2d.Ny,
                "Ly": self.grid2d.Ly,
            }
        if self.perturbation is not None:
            w = self.perturbation
            out["perturbation"] = {
                "kind": w.kind,
                "amplitude": w.amplitude,
                "support": w.support,
                "delta": w.delta,
            }
        return out


def config_from_dict(raw: dict, out_dir: str | Path = "out") -> RunConfig:
    """Parse and validate a raw config; every defect raises ConfigError."""
    try:
        return _parse(raw, out_dir)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from None


def _parse(raw: dict, out_dir: str | Path) -> RunConfig:
    got = _take(
        raw,
        "config",
        {
            "scenario": "custom",
            "profiles": _REQUIRED,
            "grid": {},
            "sweep": {},
            "filter": {},
            "alphas": [0.0],
            "density": {},
            "grid2d": None,
            "perturbation": None,
            "out": str(out_dir),
            "seed": 0,
            "workers": 1,
        },
    )
    profs = _require(got["profiles"], "profiles", "config")
    profs = _take(profs, "profiles", {"B": _REQUIRED, "m": _REQUIRED, "V": _REQUIRED})
    ps = ProfileSet(
        B=_parse_profile(_require(profs["B"], "B", "profiles"), "profiles.B"),
        m=_parse_profile(_require(profs["m"], "m", "profiles"), "profiles.m"),
        V=_parse_profile(_require(profs["V"], "V", "profiles"), "profiles.V"),
    )

    gd = _take(got["grid"], "grid", {"L": 20.0, "N": 800, "bc": "dirichlet"})
    grid = Grid1D(L=float(gd["L"]), N=int(gd["N"]), bc=gd["bc"])

    sw = _take(
        got["sweep"],
        "sweep",
        {
            "zeta_min": -8.0,
            "zeta_max": 8.0,
            "samples": 81,
            "window": [-4.0, 4.0],
            "refine_tol": 0.05,
            "overlap_threshold": 0.8,
            "bisect_floor": 1e-4,
        },
    )
    sweep = SweepConfig(
        zeta_min=float(sw["zeta_min"]),
        zeta_max=float(sw["zeta_max"]),
        samples=int(sw["samples"]),
        window=_pair(sw["window"], "sweep.window"),
        refine_tol=float(sw["refine_tol"]),
        overlap_threshold=float(sw["overlap_threshold"]),
        bisect_floor=float(sw["bisect_floor"]),
    )

    fl = _take(got["filter"], "filter", {"margin": grid.L / 8.0, "threshold": 0.3})
    filt = SpuriousFilter(margin=float(fl["margin"]), threshold=float(fl["threshold"]))

    dn = _take(got["density"], "density", {"window": [-0.5, 0.5], "shape": "smooth_bump"})
    dens = DensityProfile.from_window(*_pair(dn["window"], "density.window"), dn["shape"])

    g2 = None
    if got["grid2d"] is not None:
        g2d = _take(got["grid2d"], "grid2d", {"N": 48, "L": 12.0, "Ny": 32, "Ly": 24.0, "bc": "dirichlet"})
        g2 = Grid2D(
            grid_x=Grid1D(L=float(g2d["L"]), N=int(g2d["N"]), bc=g2d["bc"]),
            Ly=float(g2d["Ly"]),
            Ny=int(g2d["Ny"]),
        )

    pert = None
    if got["perturbation"] is not None:
        pw = _take(
            got["perturbation"],
            "perturbation",
            {"kind": _REQUIRED, "amplitude": _REQUIRED, "support": 2.0, "delta": 0.5},
        )
        pert = PerturbationSpec(
            kind=_require(pw["kind"], "kind", "perturbation"),
            amplitude=float(_require(pw["amplitude"], "amplitude", "perturbation")),
            support=float(pw["support"]),
            delta=float(pw["delta"]),
        )

    return RunConfig(
        scenario=str(got["scenario"]),
        profiles=ps,
        grid=grid,
        sweep=sweep,
        filter=filt,
        alphas=tuple(float(a) for a in got["alphas"]),
        density=dens,
        grid2d=g2,
        perturbation=pert,
        out=Path(got["out"]),
        seed=int(got["seed"]),
        workers=int(got["workers"]),
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
