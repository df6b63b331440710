"""Config parsing (strict keys) and the command-line pipeline."""

import json

import pytest

from diracflow.cli import main
from diracflow.config import config_from_dict, load_config
from diracflow.errors import DiracflowError
from diracflow.presets import PRESETS, preset_config


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
        assert r["grid"] == {"L": 10.0, "N": 240, "bc": "dirichlet"}
        assert r["sweep"]["overlap_threshold"] == 0.8
        assert r["density"]["window"] == [-0.5, 0.5]

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

    def test_alpha_on_level_exits_2(self, tmp_path, capsys):
        raw = tiny_config(alphas=[2.1])  # the zeroth level of the plus side
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        rc = main(["bulk-spectrum", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err


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
        assert lines == ["branch_id,zeta,mu,overlap,boundary_mass"]
        assert (out / "tiny.svg").exists()

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

    def test_workers_match_serial(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config()))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["branches", "--config", str(p), "--out", str(serial)]) == 0
        assert main(["branches", "--config", str(p), "--out", str(parallel),
                     "--workers", "2"]) == 0
        assert (serial / "branches.csv").read_bytes() == (parallel / "branches.csv").read_bytes()


class TestCliFlow:
    def test_flow_reconciles(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_config()))
        rc = main(["flow", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 0
        csv_text = (tmp_path / "o" / "flow.csv").read_text().splitlines()
        assert csv_text[0] == "alpha,sf_numeric,sf_predicted,two_pi_sigma,reconciled"
        assert csv_text[1].split(",") == ["0", "1", "1", "1", "1"]

    def test_invalid_window_exits_4(self, tmp_path, capsys):
        # alpha next to the bulk level 1.9: endpoint branches hug it
        raw = tiny_config(alphas=[1.93])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        rc = main(["flow", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "window" in capsys.readouterr().err.lower()


class TestCliOracle:
    def test_budget_exceeded_exits_5(self, tmp_path, capsys):
        raw = tiny_config()
        raw["grid2d"] = {"N": 64, "L": 6.0, "Ny": 64, "Ly": 12.0}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        rc = main(["oracle", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 5
        assert "budget" in capsys.readouterr().err.lower()

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
        assert lines[0] == "scenario,coupling,two_pi_sigma,seam_residual"
        assert len(lines) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert "oracle" in man["diagnostics"]


class TestDispatch:
    def test_needs_config_or_preset(self):
        with pytest.raises(SystemExit):
            main(["flow"])

    def test_rejects_unknown_verb(self):
        with pytest.raises(SystemExit):
            main(["render"])


class TestCliConfigErrors:
    @pytest.mark.parametrize(
        "section, value",
        [
            ("sweep", {"window": [1]}),
            ("grid", {"N": 8}),
            ("profiles", {"B": {"lower": "strong", "upper": 2.0},
                          "m": {"lower": 1.0, "upper": 1.0},
                          "V": {"lower": 0.0, "upper": 0.0}}),
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
