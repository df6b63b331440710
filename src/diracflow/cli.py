"""Command-line orchestration: configs, presets, CSV/SVG emission, manifests.

Verbs:
  bulk-spectrum  closed-form Landau levels and predicted flow
  branches       zeta sweep with branch tracking -> CSV + SVG
  flow           full pipeline: numerical flow vs prediction vs conductivity
  oracle         2D dense-trace oracle and stability experiments
  all-figures    branch plots for every preset scenario

Exit codes: 0 ok, 1 solver or other error, 2 alpha on a bulk level,
3 tracking failure, 4 invalid window, 5 dense-solve budget exceeded,
6 invalid config, 7 failed result (a flow that does not reconcile with
the prediction, or an unstable oracle verdict).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .branches import Branch, _solve_retained, branch_points, sweep_branches
from .bulk import HalfSpaceParams, landau_levels, predicted_sf
from .config import RunConfig, RunManifest, config_from_dict, load_config
from .errors import DiracflowError
from .flow import conductivity, conductivity_quadrature, reconcile, spectral_flow
from .oracle2d import (
    assemble_2d,
    default_projection,
    stability_experiment,
    trace_conductivity,
)
from .presets import PRESETS, preset_config
from .profiles import ProfileSet
from .svgplot import branches_svg

_FMT = "%.12g"
_FAILED_RESULT = 7


def _fmt(v: float) -> str:
    return _FMT % v


def half_spaces(ps: ProfileSet) -> tuple[HalfSpaceParams, HalfSpaceParams]:
    minus = HalfSpaceParams(B=ps.B.lower, m=ps.m.lower, V=ps.V.lower)
    plus = HalfSpaceParams(B=ps.B.upper, m=ps.m.upper, V=ps.V.upper)
    return minus, plus


def run_sweep(cfg: RunConfig, workers: int, man: RunManifest) -> list[Branch]:
    """Sweep with optional parallel prefetch of the initial samples; timed into `man`."""
    t0 = time.perf_counter()
    prefetch = None
    if workers > 1:
        sw = cfg.sweep
        zetas = [float(z) for z in np.linspace(sw.zeta_min, sw.zeta_max, sw.samples)]
        solve = partial(_solve_retained, cfg.grid, cfg.profiles, window=sw.window, f=cfg.filter)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            prefetch = dict(zip(zetas, pool.map(solve, zetas)))
    branches = sweep_branches(cfg.grid, cfg.profiles, cfg.sweep, cfg.filter, prefetch=prefetch)
    man.timings["sweep_seconds"] = round(time.perf_counter() - t0, 3)
    man.timings["workers"] = workers
    return branches


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _manifest(cfg: RunConfig) -> RunManifest:
    man = RunManifest(config=cfg.resolved(), version=__version__)
    man.tolerances = {
        "overlap_threshold": cfg.sweep.overlap_threshold,
        "bisect_floor": cfg.sweep.bisect_floor,
        "refine_tol": cfg.sweep.refine_tol,
        "filter_margin": cfg.filter.margin,
        "filter_threshold": cfg.filter.threshold,
    }
    return man


def cmd_bulk(cfg: RunConfig, out: Path) -> int:
    minus, plus = half_spaces(cfg.profiles)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"scenario: {cfg.scenario}")
    for side, hp in (("minus", minus), ("plus", plus)):
        spec = landau_levels(hp, k_max=4)
        print(f"  {side}: B={hp.B:g} m={hp.m:g} V={hp.V:g}  levels={[round(v, 4) for v in spec.levels]}")
    for alpha in cfg.alphas:
        pred = predicted_sf(minus, plus, alpha)
        print(
            f"  alpha={alpha:g}: N-={pred.N_minus} N+={pred.N_plus} "
            f"I-={pred.I_minus} I+={pred.I_plus} SF_pred = {pred.sf}"
        )
        rows.append(
            (float(alpha), pred.N_minus, pred.N_plus, str(pred.I_minus), str(pred.I_plus), pred.sf)
        )
    _write_csv(out / "bulk.csv", ["alpha", "N_minus", "N_plus", "I_minus", "I_plus", "sf_pred"], rows)
    man = _manifest(cfg)
    man.verdicts["bulk"] = "ok"
    man.write(out / "manifest.json")
    return 0


def cmd_branches(cfg: RunConfig, out: Path, workers: int) -> int:
    out.mkdir(parents=True, exist_ok=True)
    man = _manifest(cfg)
    branches = run_sweep(cfg, workers, man)
    _write_csv(
        out / "branches.csv",
        ["branch_id", "zeta", "mu", "overlap", "boundary_mass"],
        branch_points(branches),
    )
    svg = branches_svg(
        branches,
        (cfg.sweep.zeta_min, cfg.sweep.zeta_max),
        cfg.sweep.window,
        cfg.scenario,
    )
    (out / f"{cfg.scenario}.svg").write_text(svg)
    man.diagnostics["n_branches"] = len(branches)
    man.diagnostics["min_overlap"] = min((b.min_overlap for b in branches), default=1.0)
    man.verdicts["branches"] = "ok"
    man.write(out / "manifest.json")
    print(f"{cfg.scenario}: {len(branches)} branches -> {out / 'branches.csv'}")
    return 0


def cmd_flow(cfg: RunConfig, out: Path, workers: int) -> int:
    out.mkdir(parents=True, exist_ok=True)
    man = _manifest(cfg)
    minus, plus = half_spaces(cfg.profiles)
    branches = run_sweep(cfg, workers, man)

    all_ok = True
    rows = []
    print(f"{'alpha':>8} {'sf_num':>7} {'sf_pred':>8} {'2pi*sigma':>12} {'ok':>4}")
    for alpha in cfg.alphas:
        pred = predicted_sf(minus, plus, alpha)
        report = spectral_flow(branches, alpha, prediction=pred)
        dens = cfg.density
        sigma = conductivity(branches, dens)
        ok = reconcile(report, pred) and abs(sigma - report.sf_numeric) < 1e-6
        all_ok &= ok
        print(f"{alpha:8.3g} {report.sf_numeric:7d} {pred.sf:8d} {sigma:12.6f} {str(ok):>4}")
        rows.append((float(alpha), report.sf_numeric, pred.sf, float(sigma), int(ok)))
        man.diagnostics[f"alpha_{alpha:g}"] = {
            "crossings": [[c.branch_id, c.zeta, c.direction] for c in report.crossings],
            "sigma_quadrature": conductivity_quadrature(branches, dens),
        }
    _write_csv(out / "flow.csv", ["alpha", "sf_numeric", "sf_predicted", "two_pi_sigma", "reconciled"], rows)
    man.verdicts["flow"] = "ok" if all_ok else "mismatch"
    man.write(out / "manifest.json")
    return 0 if all_ok else _FAILED_RESULT


def cmd_oracle(cfg: RunConfig, out: Path) -> int:
    if cfg.grid2d is None:
        raise DiracflowError("oracle requires a grid2d section in the config")
    out.mkdir(parents=True, exist_ok=True)
    man = _manifest(cfg)
    g = cfg.grid2d
    P = default_projection(g)
    dens = cfg.density

    rows = []
    t0 = time.perf_counter()
    H = assemble_2d(g, cfg.profiles)
    res = trace_conductivity(H, g, P, dens, full_result=True)
    man.timings["dense_trace_seconds"] = round(time.perf_counter() - t0, 3)
    rows.append((cfg.scenario, 0.0, res.two_pi_sigma, res.seam_contribution))
    man.diagnostics["oracle"] = {
        "two_pi_sigma": res.two_pi_sigma,
        "literal_commutator": res.literal_two_pi_sigma,
        "analytic_vs_literal": res.two_pi_sigma - res.literal_two_pi_sigma,
        "seam_contribution": res.seam_contribution,
        "states_cut": res.n_states_cut,
    }
    print(f"{cfg.scenario}: 2pi*sigma = {res.two_pi_sigma:.6f} (seam {res.seam_contribution:.2e})")

    verdicts_ok = True
    if cfg.perturbation is not None:
        couplings = [0.0, 0.5, 1.0]
        st = stability_experiment(cfg.profiles, cfg.perturbation, couplings, g, P, dens)
        for c, s in st.rows:
            rows.append((f"{cfg.scenario}+{cfg.perturbation.kind}", c, s, 0.0))
        man.verdicts["stability"] = st.verdict
        verdicts_ok &= st.verdict == "stable"
        print(f"stability ({cfg.perturbation.kind}): {st.verdict}")

    _write_csv(out / "oracle.csv", ["scenario", "coupling", "two_pi_sigma", "seam_residual"], rows)
    man.verdicts["oracle"] = "ok" if verdicts_ok else "failed"
    man.write(out / "manifest.json")
    return 0 if verdicts_ok else _FAILED_RESULT


def cmd_all_figures(out_dir: Path, workers: int) -> int:
    for name in PRESETS:
        cmd_branches(config_from_dict(preset_config(name)), out_dir / name, workers)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="diracflow", description=__doc__)
    ap.add_argument("verb", choices=["bulk-spectrum", "branches", "flow", "oracle", "all-figures"])
    ap.add_argument("--config", type=Path, help="JSON config file")
    ap.add_argument("--preset", choices=sorted(PRESETS), help="named preset scenario")
    ap.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    ap.add_argument("--workers", type=int, default=1, help="parallel fiber solves")
    ns = ap.parse_args(argv)

    try:
        if ns.verb == "all-figures":
            return cmd_all_figures(ns.out, ns.workers)
        if ns.config is not None:
            cfg = load_config(ns.config)
        elif ns.preset is not None:
            cfg = config_from_dict(preset_config(ns.preset))
        else:
            ap.error("need --config or --preset")
        dispatch = {
            "bulk-spectrum": lambda: cmd_bulk(cfg, ns.out),
            "branches": lambda: cmd_branches(cfg, ns.out, ns.workers),
            "flow": lambda: cmd_flow(cfg, ns.out, ns.workers),
            "oracle": lambda: cmd_oracle(cfg, ns.out),
        }
        return dispatch[ns.verb]()
    except DiracflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
