"""Command-line orchestration: configs, presets, CSV/SVG emission, manifests.

Verbs:
  bulk-spectrum  closed-form Landau levels and predicted flow
  branches       zeta sweep with branch tracking -> CSV + SVG
  flow           full pipeline: numerical flow vs prediction vs conductivity
  oracle         2D windowed trace oracle and stability experiments
  all-figures    branch plots for every preset scenario

Exit codes: 0 ok, 1 solver or other error, 2 alpha on a bulk level,
3 tracking failure, 4 invalid window (including a density window that holds a
bulk Landau level, and for flow an alpha or a density window edge outside the
sweep window), 5 a budget exceeded (2D dimension, fiber N or sweep samples),
6 invalid config, command line or --out, 7 failed result (a flow or an oracle trace
that does not reconcile with the prediction, or an unstable oracle verdict), whose
verdict is `mismatch`.

A run that gets past config parsing writes `manifest.json` into --out (`_run`),
also when it fails: the failure is the verdict `<verb>: failed` and the error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from .branches import Branch, branch_points, sweep_branches
from .bulk import HalfSpaceParams, check_density_window, landau_levels, predicted_sf
from .config import RunConfig, RunManifest, config_from_dict, load_config
from .errors import ConfigError, DiracflowError, WindowError
from .flow import conductivity, reconcile, spectral_flow
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


def run_sweep(cfg: RunConfig, man: RunManifest) -> list[Branch]:
    """Sweep, with its time and telemetry (`sweep_branches`' stats) in `man`, also
    when the sweep raises."""
    man.diagnostics["sweep"] = stats = {}
    t0 = time.perf_counter()
    try:
        return sweep_branches(cfg.grid, cfg.profiles, cfg.sweep, cfg.filter, stats=stats)
    finally:
        man.timings["sweep_seconds"] = round(time.perf_counter() - t0, 3)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def cmd_bulk(cfg: RunConfig, out: Path, man: RunManifest) -> int:
    minus, plus = half_spaces(cfg.profiles)
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
        rows.append((float(alpha), pred.N_minus, pred.N_plus, str(pred.I_minus), str(pred.I_plus), pred.sf))
    _write_csv(out / "bulk.csv", ["alpha", "N_minus", "N_plus", "I_minus", "I_plus", "sf_pred"], rows)
    man.verdicts["bulk"] = "ok"
    return 0


def cmd_branches(cfg: RunConfig, out: Path, man: RunManifest) -> int:
    branches = run_sweep(cfg, man)
    _write_csv(
        out / "branches.csv",
        ["branch_id", "zeta", "mu", "slope", "overlap", "boundary_mass"],
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
    man.verdicts["branches"] = "ok"
    print(f"{cfg.scenario}: {len(branches)} branches -> {out / 'branches.csv'}")
    return 0


def _check_sweep_window(cfg: RunConfig) -> None:
    """WindowError unless every alpha and both density window edges lie in the
    sweep window less one sweep step at each end.  A branch moves at most one
    step in mu per step in zeta (its slope is bounded by 1), so a branch that
    leaves through the window's edge is last sampled within one step of it: a
    level nearer the edge than that could be crossed after the last sample,
    and a level outside the window is crossed by no tracked branch at all."""
    sw = cfg.sweep
    step = (sw.zeta_max - sw.zeta_min) / (sw.samples - 1)
    lo, hi = sw.window[0] + step, sw.window[1] - step
    for what, level in [*(("alpha", a) for a in cfg.alphas), *(("density window edge", e) for e in cfg.density.window)]:
        if not lo <= level <= hi:
            raise WindowError(
                f"{what} {level:g} lies outside [{lo:g}, {hi:g}]: the sweep window "
                f"[{sw.window[0]:g}, {sw.window[1]:g}] less one sweep step {step:g} at each end"
            )


def cmd_flow(cfg: RunConfig, out: Path, man: RunManifest) -> int:
    minus, plus = half_spaces(cfg.profiles)
    _check_sweep_window(cfg)
    check_density_window(minus, plus, cfg.density.window)
    branches = run_sweep(cfg, man)

    all_ok = True
    rows = []
    # sigma does not depend on alpha: one value, predicted at the density window's centre
    sigma = conductivity(branches, cfg.density)
    sigma_pred = predicted_sf(minus, plus, 0.5 * sum(cfg.density.window))
    print(f"{'alpha':>8} {'sf_num':>7} {'sf_pred':>8} {'2pi*sigma':>12} {'ok':>4}")
    for alpha in cfg.alphas:
        pred = predicted_sf(minus, plus, alpha)
        report = spectral_flow(branches, alpha, prediction=pred)
        ok = reconcile(report, pred, sigma, sigma_pred)
        all_ok &= ok
        print(f"{_fmt(alpha):>8} {report.sf_numeric:7d} {pred.sf:8d} {sigma:12.6f} {str(ok):>4}")
        rows.append((float(alpha), report.sf_numeric, pred.sf, float(sigma), int(ok)))
        man.diagnostics[f"alpha_{_fmt(alpha)}"] = {
            "crossings": [[c.branch_id, c.zeta, c.direction] for c in report.crossings],
        }
    _write_csv(out / "flow.csv", ["alpha", "sf_numeric", "sf_predicted", "two_pi_sigma", "reconciled"], rows)
    man.verdicts["flow"] = "ok" if all_ok else "mismatch"
    return 0 if all_ok else _FAILED_RESULT


def cmd_oracle(cfg: RunConfig, out: Path, man: RunManifest) -> int:
    if cfg.grid2d is None:
        raise ConfigError("oracle requires a grid2d section in the config")
    minus, plus = half_spaces(cfg.profiles)
    check_density_window(minus, plus, cfg.density.window)
    g = cfg.grid2d
    P = default_projection(g)
    dens = cfg.density

    t0 = time.perf_counter()
    H = assemble_2d(g, cfg.profiles)
    t1 = time.perf_counter()
    res = trace_conductivity(H, g, P, dens, full_result=True)
    man.timings["assemble_seconds"] = round(t1 - t0, 6)
    man.timings["trace_seconds"] = round(time.perf_counter() - t1, 6)
    rows = [(cfg.scenario, 0.0, res.two_pi_sigma)]
    # as in flow: one prediction, at the density window's centre; the 2D grid's
    # zeta sampling leaves 2 pi sigma off the integer by up to 4e-2 on the presets
    sf = predicted_sf(minus, plus, 0.5 * sum(dens.window)).sf
    man.diagnostics["oracle"] = {
        "two_pi_sigma": res.two_pi_sigma,
        "predicted_sf": sf,
        "deviation": res.two_pi_sigma - sf,
        "states_cut": res.n_states_cut,
        "states_in_window": res.n_window,
        "max_residual": res.max_residual,
    }
    verdicts_ok = round(res.two_pi_sigma) == sf
    print(f"{cfg.scenario}: 2pi*sigma = {res.two_pi_sigma:.6f}, predicted {sf}, reconciled {verdicts_ok}")

    if cfg.perturbation is not None:  # a stability trace that raises keeps the base trace's diagnostics
        couplings = [0.0, 0.5, 1.0]
        st = stability_experiment(cfg.profiles, cfg.perturbation, couplings, g, P, dens, res.two_pi_sigma)
        for c, s in st.rows:
            rows.append((f"{cfg.scenario}+{cfg.perturbation.kind}", c, s))
        man.verdicts["stability"] = st.verdict
        verdicts_ok &= st.verdict == "stable"
        print(f"stability ({cfg.perturbation.kind}): {st.verdict}")

    _write_csv(out / "oracle.csv", ["scenario", "coupling", "two_pi_sigma"], rows)
    man.verdicts["oracle"] = "ok" if verdicts_ok else "mismatch"
    return 0 if verdicts_ok else _FAILED_RESULT


# each verb's command and the key of its verdict in the manifest
_VERBS = {
    "bulk-spectrum": (cmd_bulk, "bulk"),
    "branches": (cmd_branches, "branches"),
    "flow": (cmd_flow, "flow"),
    "oracle": (cmd_oracle, "oracle"),
}


def _run(verb: str, cfg: RunConfig, out: Path) -> int:
    """Run `verb` into `out`: make the directory and the run's one manifest, call the
    verb, and write `manifest.json` whether it returns or raises.  A DiracflowError
    is recorded as the verdict `<key>: failed` with the error's class, message and
    zeta under `diagnostics.error`, and re-raised for `main` to report.  An `out`
    that cannot be made a directory is a ConfigError, with no manifest."""
    cmd, key = _VERBS[verb]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: {exc}") from exc
    man = RunManifest(cfg.resolved())
    try:
        return cmd(cfg, out, man)
    except DiracflowError as exc:
        man.verdicts[key] = "failed"
        man.diagnostics["error"] = {"class": type(exc).__name__, "message": str(exc), "zeta": getattr(exc, "zeta", None)}
        raise
    finally:
        man.write(out / "manifest.json")


def cmd_all_figures(out_dir: Path) -> int:
    for name in PRESETS:
        _run("branches", config_from_dict(preset_config(name)), out_dir / name)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 6 as an invalid config: argparse's 2 is the code of alpha on a bulk level
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    ap = _Parser(prog="diracflow", description=__doc__)
    ap.add_argument("verb", choices=[*_VERBS, "all-figures"])
    source = ap.add_mutually_exclusive_group()
    source.add_argument("--config", type=Path, help="JSON config file")
    source.add_argument("--preset", choices=sorted(PRESETS), help="named preset scenario")
    ap.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    try:
        ns = ap.parse_args(argv)
        if ns.verb == "all-figures":
            if ns.config is not None or ns.preset is not None:
                ap.error("all-figures runs every preset: it takes no --config or --preset")
            return cmd_all_figures(ns.out)
        if ns.config is not None:
            cfg = load_config(ns.config)
        elif ns.preset is not None:
            cfg = config_from_dict(preset_config(ns.preset))
        else:
            raise ConfigError("need --config or --preset")
        return _run(ns.verb, cfg, ns.out)
    except DiracflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
