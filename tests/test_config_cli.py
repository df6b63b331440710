"""Config parsing (strict keys) and the command-line pipeline."""

import copy
import dataclasses
import importlib.util
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracflow import cli, fiber, oracle2d
from diracflow.cli import main
from diracflow.config import RunConfig, config_from_dict, load_config
from diracflow.errors import DiracflowError, SolverError, TrackingError
from diracflow.presets import PRESETS, preset_config
from diracflow.profiles import DensityProfile


def tiny_config(**overrides):
    raw = {
        "scenario": "tiny",
        "profiles": {
            "B": {"lower": -2.0, "upper": 2.0},
            "m": {"lower": -2.0, "upper": 2.0},
            "V": {"lower": -0.1, "upper": 0.1},
        },
        "grid": {"L": 10.0, "N": 240},
        "sweep": {"zeta_min": -4.0, "zeta_max": 4.0, "samples": 17,
                  "window": [-3.0, 3.0], "refine_tol": 0.15},
        "filter": {"margin": 2.5, "threshold": 0.3},
        "alphas": [0.0],
        "density": {"window": [-0.5, 0.5]},
    }
    raw.update(overrides)
    return raw


class TestConfig:
    def test_round_trip_resolved(self):
        cfg = config_from_dict(tiny_config())
        r = cfg.resolved()
        assert r["scenario"] == "tiny"
        assert r["grid"] == {"L": 10.0, "N": 240}
        assert r["sweep"] == {"zeta_min": -4.0, "zeta_max": 4.0, "samples": 17,
                              "window": [-3.0, 3.0], "refine_tol": 0.15}
        assert r["density"] == {"window": [-0.5, 0.5]}
        assert "grid2d" not in r and "perturbation" not in r
        full = tiny_config(grid2d={"N": 24, "Ly": 12.0}, perturbation={"kind": "mult_xy", "amplitude": 0.3})
        assert config_from_dict(full).resolved()["grid2d"] == {"L": 12.0, "N": 24, "Ly": 12.0, "Ny": 32}

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(DiracflowError, match="unknown"):
            config_from_dict(tiny_config(typo_key=1))

    def test_unknown_nested_key_rejected(self):
        raw = tiny_config()
        raw["sweep"]["stepsize"] = 0.1
        with pytest.raises(DiracflowError, match="sweep"):
            config_from_dict(raw)
        raw = tiny_config()
        raw["profiles"]["B"]["slope"] = 1.0
        with pytest.raises(DiracflowError, match="profiles.B"):
            config_from_dict(raw)
        # profiles are always the C-infinity bump: the old shape keys are unknown
        raw = tiny_config()
        raw["profiles"]["m"]["shape"] = "smooth_bump"
        with pytest.raises(DiracflowError, match=r"unknown keys in profiles\.m: \['shape'\]"):
            config_from_dict(raw)
        with pytest.raises(DiracflowError, match=r"unknown keys in density: \['shape'\]"):
            config_from_dict(tiny_config(density={"window": [-0.5, 0.5], "shape": "smooth_bump"}))
        # the x-cut is always Dirichlet and the tracker tolerances are constants
        for section, key, value in [
            ("grid", "bc", "periodic"),
            ("grid2d", "bc", "dirichlet"),
            ("sweep", "overlap_threshold", 0.8),
            ("sweep", "bisect_floor", 1e-4),
        ]:
            raw = tiny_config(grid2d={"N": 24})
            raw[section][key] = value
            with pytest.raises(DiracflowError, match=rf"unknown keys in {section}: \['{key}'\]"):
                config_from_dict(raw)

    def test_missing_required_rejected(self):
        raw = tiny_config()
        del raw["profiles"]["m"]
        with pytest.raises(DiracflowError):
            config_from_dict(raw)

    def test_all_presets_parse(self):
        for name in PRESETS:
            cfg = config_from_dict(preset_config(name))
            assert cfg.scenario == name
            assert cfg.grid.N == 800
            assert cfg.grid2d is not None

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config()))
        cfg = load_config(p)
        assert cfg.profiles.B.upper == 2.0


class TestCliBulk:
    def test_bulk_spectrum_preset(self, tmp_path, capsys):
        rc = main(["bulk-spectrum", "--preset", "dual_wall_v01", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SF_pred = 1" in out
        assert (tmp_path / "bulk.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_uniform_predicts_zero(self, tmp_path, capsys):
        rc = main(["bulk-spectrum", "--preset", "bulk_uniform", "--out", str(tmp_path)])
        assert rc == 0
        assert "SF_pred = 0" in capsys.readouterr().out

    def test_huge_alpha_counts_its_levels(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config(alphas=[1e300])))
        assert main(["bulk-spectrum", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["verdicts"] == {"bulk": "ok"}
        row = (tmp_path / "o" / "bulk.csv").read_text().splitlines()[1].split(",")
        assert len(row[1]) == len(row[2]) == 600  # N is about 1e600 / 4 on both sides

    def test_alpha_on_level_exits_2(self, tmp_path, capsys):
        """The failed run still writes its manifest: verdict failed and the error, and no bulk.csv."""
        raw = tiny_config(alphas=[2.5])  # exactly the zeroth level m + V of the plus side
        raw["profiles"]["V"] = {"lower": -0.5, "upper": 0.5}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        rc = main(["bulk-spectrum", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "alpha" in err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["verdicts"] == {"bulk": "failed"}
        error = man["diagnostics"]["error"]
        assert error["class"] == "BulkLevelError" and f"error: {error['message']}" in err
        assert not (tmp_path / "o" / "bulk.csv").exists()


class TestCliBranches:
    def test_empty_window_ok(self, tmp_path):
        # massive field wall: the gap around 0 stays empty
        raw = tiny_config()
        raw["profiles"]["m"] = {"lower": 2.0, "upper": 2.0}
        raw["profiles"]["V"] = {"lower": 0.0, "upper": 0.0}
        raw["sweep"]["window"] = [-0.5, 0.5]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        rc = main(["branches", "--config", str(p), "--out", str(out)])
        assert rc == 0
        lines = (out / "branches.csv").read_text().splitlines()
        assert lines == ["branch_id,zeta,mu,slope,overlap,boundary_mass"]
        assert (out / "tiny.svg").exists()

    def test_svg_title_is_escaped(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config(scenario="a<b&c")))
        out = tmp_path / "o"
        assert main(["branches", "--config", str(p), "--out", str(out)]) == 0
        root = ElementTree.parse(out / "a<b&c.svg").getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert root.tag == f"{ns}svg"
        assert [t.text for t in root.iter(f"{ns}text") if t.get("font-size") == "16"] == ["a<b&c"]

    def test_deterministic_output(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config()))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["branches", "--config", str(p), "--out", str(out)]) == 0
            outs.append((out / "branches.csv").read_bytes())
            svg = (out / "tiny.svg").read_text()
            assert svg.startswith("<svg") or svg.startswith("<?xml")
        assert outs[0] == outs[1]

    def test_manifest_records_sweep_telemetry(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config()))
        out = tmp_path / "o"
        assert main(["branches", "--config", str(p), "--out", str(out)]) == 0
        sweep = json.loads((out / "manifest.json").read_text())["diagnostics"]["sweep"]
        bis = sweep["bisections"]
        assert sweep["solves"] == 17 + bis["motion"] + bis["stranded"]
        # the first solve has no earlier sample to start from
        assert 0 < sweep["warm"] < sweep["solves"]
        # states enter and leave the window on this sweep, and the warm start serves some of those solves
        assert 0 < sweep["warm_recounted"] < sweep["warm"]
        # served solves by Rayleigh-quotient steps (JSON keys are strings)
        steps = sweep["warm_steps"]
        assert sum(steps.values()) == sweep["warm"] and all(0 <= int(n) <= fiber._WARM_STEPS for n in steps)
        assert 0.8 <= sweep["min_overlap"] < 1.0 and -4.0 < sweep["min_overlap_zeta"] <= 4.0
        rows = (out / "branches.csv").read_text().splitlines()[1:]
        slopes = [float(r.split(",")[3]) for r in rows]
        assert slopes and max(abs(v) for v in slopes) <= 1.0

    @pytest.mark.parametrize("preset", ["mass_wall", "field_wall_massless"])
    def test_manifest_records_state_totals_residual_and_rotations(self, tmp_path, preset):
        """mass_wall's boundary strip drops states, and near zeta = 8 some of them are
        degenerate with kept ones, so its clusters are rotated too; field_wall_massless's
        mirrored Landau copies form clusters and none of its states reach the strip."""
        out = tmp_path / "o"
        assert main(["branches", "--preset", preset, "--out", str(out)]) == 0
        sweep = json.loads((out / "manifest.json").read_text())["diagnostics"]["sweep"]
        rows = (out / "branches.csv").read_text().splitlines()[1:]
        # every solved sample is committed, and each state it retains is one row
        assert sweep["retained"] == len(rows) > 0
        assert (sweep["filtered"] > 0) == (preset == "mass_wall")
        assert sweep["cluster_rotations"] > 0
        lo, hi = config_from_dict(preset_config(preset)).sweep.window
        assert 0.0 < sweep["max_residual"] <= 1e-8 * (1.0 + max(abs(lo), abs(hi)))

    def test_tracking_failure_exits_3_with_a_manifest(self, tmp_path, capsys, monkeypatch):
        # no overlap reaches 1.01, so the first step bisects to the floor
        monkeypatch.setattr("diracflow.branches._OVERLAP_THRESHOLD", 1.01)
        out = tmp_path / "o"
        assert main(["branches", "--preset", "mass_wall", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (
            "error: tracking ambiguity at zeta = -7.9999: best overlap 1.000 < 1.01 "
            "with step at bisection floor\n"
        )
        assert "Traceback" not in err
        man = json.loads((out / "manifest.json").read_text())
        assert man["verdicts"] == {"branches": "failed"}
        error = man["diagnostics"]["error"]
        assert error["class"] == "TrackingError" and error["message"] in err
        assert error["zeta"] == pytest.approx(-7.9999, abs=1e-4)
        assert man["diagnostics"]["sweep"]["bisections"]["stranded"] >= 1
        assert not (out / "branches.csv").exists()

    def test_fiber_grid_over_budget_exits_5_with_a_manifest(self, tmp_path, capsys):
        """N one past the largest grid autoscale picks: refused before any fiber is built."""
        raw = tiny_config(grid={"L": 10.0, "N": 4001})
        raw["sweep"].update(samples=3, window=[-1.0, 1.0])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["branches", "--config", str(p), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert "budget" in err and "Traceback" not in err
        man = json.loads((out / "manifest.json").read_text())
        assert man["verdicts"] == {"branches": "failed"}
        assert man["diagnostics"]["error"]["class"] == "BudgetError"
        assert man["diagnostics"]["sweep"] == {}
        assert not (out / "branches.csv").exists()

    def test_sweep_samples_over_budget_exits_5_with_a_manifest(self, tmp_path, capsys):
        """More samples than the points budget: refused before the zeta grid is allocated,
        where numpy's allocation error would end the run in a traceback."""
        raw = tiny_config()
        raw["sweep"]["samples"] = 1e15
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["branches", "--config", str(p), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err == "error: sweep samples = 1000000000000000 exceeds the budget 4000\n"
        man = json.loads((out / "manifest.json").read_text())
        assert man["verdicts"] == {"branches": "failed"}
        assert man["diagnostics"]["error"]["class"] == "BudgetError"
        assert man["config"]["sweep"]["samples"] == 10**15
        assert not (out / "branches.csv").exists()


class TestCliFlow:
    def test_flow_reconciles(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config()))
        rc = main(["flow", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 0
        csv_text = (tmp_path / "o" / "flow.csv").read_text().splitlines()
        assert csv_text[0] == "alpha,sf_numeric,sf_predicted,two_pi_sigma,reconciled"
        assert csv_text[1].split(",") == ["0", "1", "1", "1", "1"]

    def test_two_alphas_reconcile(self, tmp_path, capsys):
        """2 pi sigma does not depend on alpha: it is checked once, against the
        prediction inside the density window, and each row adds its own flow check."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config(alphas=[0.0, 2.5])))
        out = tmp_path / "o"
        assert main(["flow", "--config", str(p), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "flow.csv").read_text().splitlines()[1:]]
        assert rows == [["0", "1", "1", "1", "1"], ["2.5", "-1", "-1", "1", "1"]]
        assert json.loads((out / "manifest.json").read_text())["verdicts"]["flow"] == "ok"

    def test_alphas_equal_to_six_digits_keep_their_own_crossings(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config(alphas=[0.1000001, 0.1000002])))
        out = tmp_path / "o"
        assert main(["flow", "--config", str(p), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "flow.csv").read_text().splitlines()[1:]]
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        entries = [key for key in diagnostics if key.startswith("alpha_")]
        assert len(rows) == 2 and entries == [f"alpha_{row[0]}" for row in rows]
        assert all(len(diagnostics[key]["crossings"]) == 1 for key in entries)

    def test_stdout_rows_tell_close_alphas_apart(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config(alphas=[0.1000001, 0.1000002])))
        assert main(["flow", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[0] == "alpha"
        assert [row.split()[0] for row in rows] == ["0.1000001", "0.1000002"]

    @pytest.mark.parametrize(
        "profiles, window",
        [
            (tiny_config()["profiles"], [1.5, 2.5]),  # holds the bulk levels 1.9 and 2.1
            # the default window (-0.5, 0.5) holds the zeroth level 0, its centre
            (preset_config("field_wall_massless")["profiles"], None),
        ],
        ids=["tiny-1.9-2.1", "field_wall_massless-0"],
    )
    def test_window_on_a_bulk_level_exits_4_before_the_sweep(self, tmp_path, capsys, monkeypatch, profiles, window):
        monkeypatch.setattr(cli, "sweep_branches", _forbidden)
        raw = tiny_config(profiles=profiles)
        if window is None:
            del raw["density"]
        else:
            raw["density"] = {"window": window}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["flow", "--config", str(p), "--out", str(tmp_path / "o")]) == 4
        assert "bulk level" in capsys.readouterr().err
        _assert_failure_record(tmp_path / "o", "flow", "WindowError")

    @pytest.mark.parametrize(
        "raw",
        [
            # sweep window (-4, 4): 5.3 lies above it, and so does the gap (4.15, 4.3)
            dict(preset_config("dual_wall_v01"), alphas=[5.3]),
            dict(preset_config("dual_wall_v01"), density={"window": [4.15, 4.3]}),
            # sweep window (-3, 3) with a step of 0.5: 2.8 lies within one step of its edge
            tiny_config(alphas=[2.8]),
        ],
        ids=["alpha-above", "density-above", "alpha-within-one-step"],
    )
    def test_level_outside_the_sweep_window_exits_4_before_the_sweep(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setattr(cli, "sweep_branches", _forbidden)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["flow", "--config", str(p), "--out", str(tmp_path / "o")]) == 4
        assert "outside" in capsys.readouterr().err
        man = _assert_failure_record(tmp_path / "o", "flow", "WindowError")
        assert "sweep" not in man["diagnostics"]

    def test_invalid_window_exits_4(self, tmp_path, capsys):
        """A flow that fails after its sweep still writes the manifest: the verdict
        `flow: failed`, the error, and the sweep's telemetry and time."""
        # alpha next to the bulk level 1.9: endpoint branches hug it
        raw = tiny_config(alphas=[1.93])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        rc = main(["flow", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "window" in err.lower()
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["verdicts"] == {"flow": "failed"}
        error = man["diagnostics"]["error"]
        assert error["class"] == "WindowError" and err == f"error: {error['message']}\n"
        assert man["diagnostics"]["sweep"]["solves"] > 0 and "sweep_seconds" in man["timings"]
        assert not (tmp_path / "o" / "flow.csv").exists()


def _forbidden(*args, **kwargs):
    raise AssertionError("not expected to run")


def _assert_failure_record(out, key, error_class):
    """`out` holds the manifest of a run that failed, with no CSV."""
    man = json.loads((out / "manifest.json").read_text())
    assert man["verdicts"] == {key: "failed"}
    assert man["diagnostics"]["error"]["class"] == error_class
    assert not list(out.glob("*.csv"))
    return man


class TestCliOracle:
    def test_budget_exceeded_exits_5(self, tmp_path, capsys):
        raw = tiny_config()
        raw["grid2d"] = {"N": 64, "L": 6.0, "Ny": 64, "Ly": 12.0}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        rc = main(["oracle", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 5
        err = capsys.readouterr().err
        assert "budget" in err.lower()
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["verdicts"] == {"oracle": "failed"} and "oracle" not in man["diagnostics"]
        error = man["diagnostics"]["error"]
        assert error["class"] == "BudgetError" and f"error: {error['message']}" in err
        assert not (tmp_path / "o" / "oracle.csv").exists()

    @pytest.mark.parametrize("window", [[-2.5, 2.5], [1.5, 2.5]])
    def test_window_on_a_bulk_level_exits_4_before_assembly(self, tmp_path, capsys, monkeypatch, window):
        """dual_wall_v01's bulk levels 1.9 and 2.1 in the window: without the
        gap check these windows trace to 0.860 and -1.237 and exit 0."""
        monkeypatch.setattr(cli, "assemble_2d", _forbidden)
        raw = preset_config("dual_wall_v01")
        raw["density"] = {"window": window}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["oracle", "--config", str(p), "--out", str(tmp_path / "o")]) == 4
        assert "bulk level 1.9" in capsys.readouterr().err
        _assert_failure_record(tmp_path / "o", "oracle", "WindowError")

    def test_missing_grid2d_exits_6(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config()))
        rc = main(["oracle", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 6
        assert capsys.readouterr().err == "error: oracle requires a grid2d section in the config\n"
        man = _assert_failure_record(tmp_path / "o", "oracle", "ConfigError")
        assert man["diagnostics"]["error"]["message"] == "oracle requires a grid2d section in the config"

    def test_small_oracle_runs(self, tmp_path, capsys):
        raw = tiny_config()
        raw["grid2d"] = {"N": 24, "L": 6.0, "Ny": 16, "Ly": 12.0}
        raw["density"] = {"window": [-1.0, 1.0]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        rc = main(["oracle", "--config", str(p), "--out", str(out)])
        assert rc == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[0] == "scenario,coupling,two_pi_sigma"
        assert len(lines) == 2
        man = json.loads((out / "manifest.json").read_text())
        diag = man["diagnostics"]["oracle"]
        assert not {"literal_commutator", "analytic_vs_literal", "seam_contribution"} & set(diag)

    def test_oracle_run_loads_no_sparse_stack(self, tmp_path):
        """A fresh `diracflow oracle --preset mass_wall`, a y-invariant trace, loads neither
        scipy.sparse nor scipy.sparse.linalg: assembly and trace work on the fibers."""
        code = f"""
import contextlib, io, sys
from diracflow import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["oracle", "--preset", "mass_wall", "--out", {str(tmp_path / "o")!r}]) == 0
print([m for m in ("scipy.sparse", "scipy.sparse.linalg") if m in sys.modules])
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]

    def test_perturbed_run_traces_the_unperturbed_h_once(self, tmp_path, monkeypatch):
        """With a perturbation set, the stability run's coupling-0 row reuses the
        first trace: three traces for couplings 0, 0.5 and 1, and oracle.csv holds
        the values that tracing every coupling anew gives."""
        raw = tiny_config(
            grid2d={"N": 24, "L": 6.0, "Ny": 16, "Ly": 12.0}, perturbation={"kind": "decay_xy", "amplitude": 0.3}
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        traces = []
        trace = oracle2d.trace_conductivity

        def counted(H, *args, **kwargs):
            traces.append(H)
            return trace(H, *args, **kwargs)

        monkeypatch.setattr(oracle2d, "trace_conductivity", counted)
        monkeypatch.setattr(cli, "trace_conductivity", counted)
        out = tmp_path / "o"
        assert main(["oracle", "--config", str(p), "--out", str(out)]) == 0
        assert len(traces) == 3
        cfg = config_from_dict(raw)
        g = cfg.grid2d
        st = oracle2d.stability_experiment(
            cfg.profiles, cfg.perturbation, [0.0, 0.5, 1.0], g, oracle2d.default_projection(g), cfg.density
        )
        assert len(traces) == 6
        values = [st.rows[0][1]] + [v for _, v in st.rows]
        rows = [line.split(",") for line in (out / "oracle.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == [cli._fmt(v) for v in values]
        assert [r[1] for r in rows] == ["0", "0", "0.5", "1"]

    def test_failed_stability_trace_keeps_the_base_trace(self, tmp_path, monkeypatch, capsys):
        """A stability trace that raises after the base trace: exit 1, and the manifest
        keeps the base trace's diagnostics and timings under the verdict failed, and
        names the coupling that failed."""

        def failing(*args, **kwargs):
            raise SolverError("eigensolve returned 3 values, 3 inside the window that holds 4")

        monkeypatch.setattr(oracle2d, "trace_conductivity", failing)  # the stability run's lookup
        raw = tiny_config(
            grid2d={"N": 24, "L": 6.0, "Ny": 16, "Ly": 12.0}, perturbation={"kind": "mult_xy", "amplitude": 0.3}
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["oracle", "--config", str(p), "--out", str(out)]) == 1
        man = json.loads((out / "manifest.json").read_text())
        assert man["verdicts"] == {"oracle": "failed"}
        error = man["diagnostics"]["error"]
        assert error["class"] == "SolverError"
        assert error["message"] == "coupling 0.5: eigensolve returned 3 values, 3 inside the window that holds 4"
        assert man["diagnostics"]["oracle"]["states_in_window"] > 0
        assert set(man["timings"]) == {"assemble_seconds", "trace_seconds"}
        assert "holds 4" in capsys.readouterr().err and not (out / "oracle.csv").exists()

    def test_manifest_records_the_certificate(self, tmp_path):
        raw = tiny_config()
        raw["grid2d"] = {"N": 24, "L": 6.0, "Ny": 16, "Ly": 12.0}
        raw["density"] = {"window": [-1.0, 1.0]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["oracle", "--config", str(p), "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert set(man["timings"]) == {"assemble_seconds", "trace_seconds"}
        assert all(t > 0.0 for t in man["timings"].values())
        diag = man["diagnostics"]["oracle"]
        assert set(diag) == {
            "two_pi_sigma", "predicted_sf", "deviation", "states_cut", "states_in_window", "max_residual"
        }
        assert diag["states_in_window"] > 0
        assert diag["max_residual"] <= 1e-8

    @pytest.mark.parametrize("name", PRESETS)
    def test_every_preset_reconciles(self, tmp_path, name):
        """round(2 pi sigma) is the prediction at the density window's centre on every
        preset's own grid2d; the manifest keeps the prediction and the deviation."""
        out = tmp_path / "o"
        assert main(["oracle", "--preset", name, "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        diag = man["diagnostics"]["oracle"]
        assert diag["deviation"] == diag["two_pi_sigma"] - diag["predicted_sf"]
        assert abs(diag["deviation"]) < 0.5 and man["verdicts"] == {"oracle": "ok"}

    def test_trace_off_by_one_exits_7(self, tmp_path, monkeypatch):
        """A trace one above mass_wall's 1.0045 rounds to 2, not the predicted 1: the
        run still writes oracle.csv and its manifest, with verdict mismatch, and exits 7."""
        trace = oracle2d.trace_conductivity

        def off_by_one(*args, **kwargs):
            res = trace(*args, **kwargs)
            return dataclasses.replace(res, two_pi_sigma=res.two_pi_sigma + 1.0)

        monkeypatch.setattr(cli, "trace_conductivity", off_by_one)
        out = tmp_path / "o"
        assert main(["oracle", "--preset", "mass_wall", "--out", str(out)]) == 7
        man = json.loads((out / "manifest.json").read_text())
        assert man["verdicts"] == {"oracle": "mismatch"}
        diag = man["diagnostics"]["oracle"]
        assert diag["predicted_sf"] == 1 and abs(diag["deviation"] - 1.0045) < 1e-3
        assert len((out / "oracle.csv").read_text().splitlines()) == 2

    def test_unstable_perturbation_exits_7(self, tmp_path, monkeypatch, capsys):
        """Perturbed traces one above the base trace round away from its integer: the
        stability verdict is unstable, the run writes every row of oracle.csv, records
        the oracle's verdict as mismatch, as flow does, and exits 7."""
        trace = oracle2d.trace_conductivity
        # the stability run's lookup
        monkeypatch.setattr(oracle2d, "trace_conductivity", lambda *a, **k: trace(*a, **k) + 1.0)
        raw = tiny_config(
            grid2d={"N": 24, "L": 6.0, "Ny": 16, "Ly": 12.0}, perturbation={"kind": "decay_xy", "amplitude": 0.3}
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["oracle", "--config", str(p), "--out", str(out)]) == 7
        assert "stability (decay_xy): unstable" in capsys.readouterr().out
        man = json.loads((out / "manifest.json").read_text())
        assert man["verdicts"] == {"stability": "unstable", "oracle": "mismatch"}
        assert "error" not in man["diagnostics"]
        assert len((out / "oracle.csv").read_text().splitlines()) == 5


def test_all_figures_stops_at_the_first_failed_preset(tmp_path, monkeypatch, capsys):
    """Each preset runs through the one run lifecycle: the first writes its figure
    and an ok manifest, the second's tracking failure exits 3 with its record, and
    no later preset runs."""
    calls = []

    def sweep(*args, stats):
        calls.append(args)
        if len(calls) == 2:
            stats["solves"] = 1
            raise TrackingError("tracking ambiguity at zeta = 0.5", zeta=0.5)
        return []

    monkeypatch.setattr(cli, "sweep_branches", sweep)
    assert main(["all-figures", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: tracking ambiguity at zeta = 0.5\n"
    first, second = list(PRESETS)[:2]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([first, second])
    man = json.loads((tmp_path / first / "manifest.json").read_text())
    assert man["verdicts"] == {"branches": "ok"} and man["diagnostics"]["n_branches"] == 0
    assert (tmp_path / first / "branches.csv").exists() and (tmp_path / first / f"{first}.svg").exists()
    man = _assert_failure_record(tmp_path / second, "branches", "TrackingError")
    assert man["config"]["scenario"] == second
    assert man["diagnostics"]["error"] == {
        "class": "TrackingError", "message": "tracking ambiguity at zeta = 0.5", "zeta": 0.5
    }
    assert man["diagnostics"]["sweep"] == {"solves": 1} and "sweep_seconds" in man["timings"]
    assert not (tmp_path / second / f"{second}.svg").exists()


def test_convergence_script_stops_at_the_budget(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_oracle_convergence.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--levels", "3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 5
    out, err = capsys.readouterr()
    header, *levels = out.splitlines()
    assert len(levels) == 2  # the two levels within the budget
    assert header.split()[-1] == "ms" and all(float(row.split()[-1]) > 0.0 for row in levels)
    assert err.startswith("error: ") and "budget" in err
    assert "Traceback" not in err


def test_stress_script_runs_one_case(monkeypatch, capsys):
    """The stress table cut to one preset, kind, coupling and window: one row between
    the header and the total, whose n, 2*pi*sigma and cut are the trace's own, and
    whose assembly and trace seconds are the total's."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_oracle_stress.py"
    spec = importlib.util.spec_from_file_location("run_oracle_stress", script)
    stress = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stress)
    monkeypatch.setattr(sys, "argv", [str(script)])
    monkeypatch.setattr(stress, "PRESETS", ("dual_wall_v01",))
    monkeypatch.setattr(stress, "KINDS", ("decay_xy",))
    monkeypatch.setattr(stress, "COUPLINGS", (0.5,))
    monkeypatch.setattr(stress, "WINDOWS", ((-0.5, 0.5),))
    assert stress.main() == 0
    header, row, total = capsys.readouterr().out.splitlines()
    assert header.split()[1:] == ["n", "2pi*sigma", "cut", "assemble", "s", "trace", "s"]
    case, n, two_pi_sigma, cut, assemble_s, trace_s = row.rsplit(maxsplit=5)
    assert total.split() == ["total", assemble_s, trace_s]
    assert case == "dual_wall_v01+decay_xy@0.5 (-0.5, 0.5)"
    cfg = config_from_dict(preset_config("dual_wall_v01"))
    H = oracle2d.assemble_2d(cfg.grid2d, cfg.profiles, oracle2d.PerturbationSpec("decay_xy", 1.0), coupling=0.5)
    res = oracle2d.trace_conductivity(
        H, cfg.grid2d, oracle2d.default_projection(cfg.grid2d), DensityProfile.from_window(-0.5, 0.5), full_result=True
    )
    assert (int(n), two_pi_sigma, int(cut)) == (res.n_window, repr(res.two_pi_sigma), res.n_states_cut)
    assert int(n) > 0 and float(assemble_s) > 0.0 and float(trace_s) > 0.0


@pytest.mark.parametrize(
    "script, args", [("run_random_suite.py", ["--n", "1"]), ("run_oracle_convergence.py", ["--levels", "1"])]
)
def test_scripts_run_from_any_directory(tmp_path, script, args):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


class TestDispatch:
    """Usage errors exit 6 like any invalid config; argparse's own 2 is the code of alpha on a bulk level."""

    def _usage_error(self, capsys, argv):
        assert main(argv) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_needs_config_or_preset(self, capsys):
        self._usage_error(capsys, ["flow"])

    def test_rejects_unknown_verb(self, capsys):
        self._usage_error(capsys, ["render"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["branches"],
            ["flow", "--preset", "nope"],
            ["flow", "--preset", "mass_wall", "--workers", "2"],
            ["flow", "--config", "cfg.json", "--preset", "mass_wall"],
            ["all-figures", "--preset", "mass_wall"],
            ["all-figures", "--config", "cfg.json"],
        ],
    )
    def test_malformed_arguments_exit_6(self, tmp_path, monkeypatch, capsys, argv):
        # a valid cfg.json, so that only the command line is at fault
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(tiny_config()))
        self._usage_error(capsys, argv)
        assert not (tmp_path / "out").exists()

    def test_out_that_cannot_be_a_directory_exits_6(self, tmp_path, capsys):
        """--out on an existing file, or under one: a ConfigError, not an OSError traceback."""
        taken = tmp_path / "taken"
        taken.write_text("keep")
        for out in (taken, taken / "sub"):
            self._usage_error(capsys, ["bulk-spectrum", "--preset", "mass_wall", "--out", str(out)])
        assert taken.read_text() == "keep"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: diracflow")


class TestCliConfigErrors:
    @pytest.mark.parametrize(
        "section, value",
        [
            ("sweep", {"window": [1]}),
            ("grid", {"N": 8}),
            ("profiles", {"B": {"lower": "strong", "upper": 2.0},
                          "m": {"lower": 1.0, "upper": 1.0},
                          "V": {"lower": 0.0, "upper": 0.0}}),
            ("sweep", {"refine_tol": -1.0}),
            ("sweep", {"refine_tol": 0.0}),
            ("sweep", {"bisect_floor": 0.0}),
            ("sweep", {"bisect_floor": -1e-4}),
            ("sweep", {"overlap_threshold": 0.0}),
            ("sweep", {"overlap_threshold": 1.5}),
            ("alphas", []),
        ],
    )
    def test_invalid_config_exits_6(self, tmp_path, capsys, section, value):
        raw = tiny_config(**{section: value})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        rc = main(["flow", "--config", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 6
        assert err.startswith("error: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_flow_reconciles(tmp_path, name):
    out = tmp_path / name
    assert main(["flow", "--preset", name, "--out", str(out)]) == 0
    rows = (out / "flow.csv").read_text().splitlines()
    assert rows[0].endswith(",reconciled")
    assert [r.split(",")[-1] for r in rows[1:]] == ["1"]


def _paths(node, prefix=()):
    """Every key path into a nested JSON value, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


_FUZZ_BASE = tiny_config(grid2d={"N": 24, "Ny": 16}, perturbation={"kind": "mult_x", "amplitude": 0.5})
# edge values drawn as often as all other JSON: overflow, NaN and the enum words
_EDGES = st.sampled_from([float("inf"), float("-inf"), float("nan"), 10**400, "periodic", "decay_y"])
_JSON = _EDGES | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8), kids, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_config_fuzz_raises_only_diracflow_errors(data):
    raw = copy.deepcopy(_FUZZ_BASE)
    path = data.draw(st.sampled_from(list(_paths(raw))))
    if not path:
        raw = data.draw(_JSON)
    else:
        node = raw
        for k in path[:-1]:
            node = node[k]
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = data.draw(_JSON)
    try:
        cfg = config_from_dict(raw)
    except DiracflowError:
        return
    assert isinstance(cfg, RunConfig)


class _FirstSolve(DiracflowError):
    """Raised in place of the first solve, so a fuzzed run stops there."""

    exit_code = 99


def _first_solve(*args, **kwargs):
    raise _FirstSolve("reached the first solve")


_EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.5e-310, -0.0]
# every settable value, defaults included, with a perturbation that reads its delta
_EXTREME_BASE = config_from_dict(
    tiny_config(grid2d={"N": 24, "Ny": 16}, perturbation={"kind": "decay_xy", "amplitude": 0.5})
).resolved()


def _float_paths(node):
    """The key paths of `node` that hold a float, list items included."""
    for path in _paths(node):
        value = node
        for k in path:
            value = value[k]
        if isinstance(value, float):
            yield path


@pytest.mark.parametrize("verb", ["bulk-spectrum", "flow", "oracle"])
def test_extreme_floats_run_to_a_documented_exit(tmp_path, monkeypatch, capsys, verb):
    """Each finite extreme at each float path: bulk-spectrum runs end to end, flow
    and oracle up to their first solve.  Every run exits with a documented code,
    and every run past the parser leaves a manifest with the verb's verdict."""
    monkeypatch.setattr(cli, "sweep_branches", _first_solve)
    monkeypatch.setattr(cli, "trace_conductivity", _first_solve)
    key = cli._VERBS[verb][1]
    p = tmp_path / "cfg.json"
    for i, (path, value) in enumerate((q, v) for q in _float_paths(_EXTREME_BASE) for v in _EXTREMES):
        raw = copy.deepcopy(_EXTREME_BASE)
        node = raw
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        p.write_text(json.dumps(raw))
        out = tmp_path / str(i)
        rc = main([verb, "--config", str(p), "--out", str(out)])
        err = capsys.readouterr().err
        draw = f"{'.'.join(map(str, path))} = {value!r}: exit {rc}, {err.strip()}"
        assert rc in (0, 1, 2, 3, 4, 5, 6, 7, _FirstSolve.exit_code), draw
        assert "Traceback" not in err, draw
        try:
            config_from_dict(raw)
        except DiracflowError:
            assert rc == 6 and not out.exists(), draw
            continue
        verdict = json.loads((out / "manifest.json").read_text())["verdicts"].get(key)
        assert verdict == {0: "ok", 7: "mismatch"}.get(rc, "failed"), draw


@pytest.mark.parametrize(
    "raw",
    [preset_config(name) for name in sorted(PRESETS)]
    + [tiny_config(grid2d={"N": 24},
                   perturbation={"kind": "decay_xy", "amplitude": 0.3, "delta": 0.25},
                   density={"window": [-1.0, 1.0]})],
    ids=sorted(PRESETS) + ["periodic_grid2d_perturbation"],
)
def test_resolved_is_the_parsers_inverse(raw):
    cfg = config_from_dict(raw)
    resolved = cfg.resolved()
    assert json.loads(json.dumps(resolved)) == resolved
    assert config_from_dict(resolved) == cfg


def _leaves(node) -> int:
    """Settable values in a resolved config; a list is one value."""
    return sum(map(_leaves, node.values())) if isinstance(node, dict) else 1


def test_settable_config_values_are_pinned():
    """Every section present; a new config key must update this count."""
    full = tiny_config(grid2d={"N": 24}, perturbation={"kind": "decay_xy", "amplitude": 0.3})
    assert _leaves(config_from_dict(full).resolved()) == 32


@pytest.mark.parametrize(
    "entry, unknown",
    [
        ('"sweep": {"samples": 1e309}', False),
        ('"grid": {"N": 1e309}', False),
        ('"seed": 0', True),
        ('"out": "elsewhere"', True),
        ('"workers": 2', True),
    ],
)
def test_overflow_and_flag_keys_exit_6(tmp_path, capsys, entry, unknown):
    text = json.dumps(tiny_config())
    p = tmp_path / "cfg.json"
    p.write_text(text[:-1] + ", " + entry + "}")
    rc = main(["bulk-spectrum", "--config", str(p), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 6
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert ("unknown keys" in err) == unknown


def test_flow_mismatch_exits_7(tmp_path, monkeypatch):
    real = cli.predicted_sf

    def off_by_one(minus, plus, alpha):
        pred = real(minus, plus, alpha)
        return dataclasses.replace(pred, sf=pred.sf + 1)

    monkeypatch.setattr(cli, "predicted_sf", off_by_one)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(tiny_config()))
    out = tmp_path / "o"
    assert main(["flow", "--config", str(p), "--out", str(out)]) == 7
    man = json.loads((out / "manifest.json").read_text())
    assert man["verdicts"]["flow"] == "mismatch"
    assert "workers" not in man["timings"]


@pytest.mark.parametrize(
    "section, value, field",
    [
        ("grid", {"N": 800.7}, "grid.N"),
        ("grid", {"N": True}, "grid.N"),
        ("grid", {"L": "20"}, "grid.L"),
        ("perturbation", {"kind": 1}, "perturbation.kind"),
        ("sweep", {"samples": 81.9}, "sweep.samples"),
        ("grid2d", {"Ny": 32.5}, "grid2d.Ny"),
        ("grid2d", {"Ly": "24"}, "grid2d.Ly"),
        ("density", {"window": ["-1", 1.0]}, "density.window"),
        ("alphas", ["0.1"], "alphas"),
        ("scenario", 3, "scenario"),
        ("sweep", {"zeta_min": float("-inf")}, "sweep.zeta_min"),
        ("grid", {"L": float("inf")}, "grid.L"),
        ("profiles", {"B": {"lower": -2.0, "upper": 2.0},
                      "m": {"lower": -2.0, "upper": 2.0},
                      "V": {"lower": -0.1, "upper": float("nan")}}, "profiles.V.upper"),
        ("alphas", [0.0, float("nan")], "alphas"),
        ("grid", {"N": 10**400}, "grid.N"),
        ("grid", {"L": 10**400}, "grid.L"),
        # the scenario names a file in the output directory: one path component only
        ("scenario", "a/b", "scenario"),
        ("scenario", "/tmp/x", "scenario"),
        ("scenario", "../x", "scenario"),
        ("scenario", "a\\b", "scenario"),
        ("scenario", "a\0b", "scenario"),
        ("scenario", "", "scenario"),
        ("scenario", ".", "scenario"),
        ("scenario", "..", "scenario"),
    ],
)
def test_non_integral_and_string_values_exit_6(tmp_path, capsys, section, value, field):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(tiny_config(**{section: value})))
    rc = main(["bulk-spectrum", "--config", str(p), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 6
    assert err.startswith(f"error: {field} must be ")
    assert "Traceback" not in err


def test_integral_floats_and_ints_accepted():
    cfg = config_from_dict(tiny_config(grid={"L": 10, "N": 240.0}, grid2d={"Ny": 16.0, "Ly": 12}))
    assert (cfg.grid.L, cfg.grid.N, cfg.grid2d.Ny, cfg.grid2d.Ly) == (10.0, 240, 16, 12.0)
    assert isinstance(cfg.grid.N, int) and isinstance(cfg.grid2d.Ny, int)
