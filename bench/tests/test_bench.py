"""Tests of the benchmark's own code: span arithmetic, metric names, inputs, refusal.

Run from the repository root:  python -m pytest bench/tests -q
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """Clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracing.covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_children_only():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def inner():
        clock.now += 1.0
        tr.wrap(leaf, "leaf")(2.0)
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        tr.wrap(inner, "inner")()
        tr.wrap(leaf, "leaf")(4.0)

    tr.problem = "p1"
    tr.wrap(outer, "outer")()
    spans = {s.name + str(s.id): s for s in tr.spans}
    own = tracing.self_times(tr.spans)
    outer_s, inner_s = spans["outer0"], spans["inner1"]
    assert outer_s.duration == 10.5
    assert own[outer_s.id] == 3.0  # 10.5 minus inner (3.5) and leaf (4.0)
    assert own[inner_s.id] == 1.5  # 3.5 minus its leaf (2.0)
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert {s.problem for s in tr.spans} == {"p1"}
    assert sum(own.values()) == outer_s.duration


def test_failed_call_still_closes_its_span():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap(boom, "boom")()
    assert tr.spans[0].error == "ValueError"
    assert tr.spans[0].end >= tr.spans[0].start
    tr.wrap(lambda: None, "after")()
    assert tr.spans[1].parent is None


def test_layer_metrics_survive_a_call_that_raised():
    tr = tracing.Tracer()

    def solver_error(grid):
        raise RuntimeError("no convergence")

    with pytest.raises(RuntimeError):
        tr.wrap(solver_error, "fiber.eig_window", tracing._eig_pairs)(None)
    m = tracing.layer_metrics(tr.spans)
    assert m["fiber.eig_window.calls"] == 1 and m["fiber.eig_window.pairs"] == 0


def test_installed_restores_every_patched_name():
    import diracflow.branches
    import diracflow.oracle2d

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.PATCHES}
    linalg = diracflow.oracle2d.sla
    with tracing.installed(tracing.Tracer()):
        assert diracflow.branches.eig_window is not before[("diracflow.branches", "eig_window")]
        assert diracflow.oracle2d.sla.eigh is not linalg.eigh
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in before.items())
    assert diracflow.oracle2d.sla is linalg


def test_layer_metrics_of_traced_solves():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    class Pair:
        residual = 1e-15

    def eig(grid):
        clock.now += 0.010
        return [Pair(), Pair()]

    def sweep(grid, ps, cfg):
        for _ in range(4):
            tr.wrap(eig, "fiber.eig_window", tracing._eig_pairs)(grid)
            clock.now += 0.001
        return []

    cfg = type("Cfg", (), {"samples": 3})()
    tr.wrap(sweep, "branches.sweep", tracing._sweep_counts)(None, None, cfg)
    m = tracing.layer_metrics(tr.spans)
    assert m["branches.solves"] == 4 and m["branches.bisections"] == 1
    assert m["branches.step_accept_frac"] == 3 / 4
    assert m["fiber.eig_window.pairs"] == 8
    assert m["fiber.eig_window.s"] == pytest.approx(0.040)
    assert m["branches.self_s"] == pytest.approx(0.004)
    assert m["fiber.eig_window.p50_ms"] == pytest.approx(10.0)


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_valid():
    b = _benchmark()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in b[key]]
    names += [w["name"] for w in b["workloads"]]
    assert len(names) == len(set(names))
    for m in b["end_to_end"] + b["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    assert {w["name"] for w in b["workloads"]} == set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_every_benchmark_metric_is_printed_with_its_unit():
    b = _benchmark()
    plain = {"pass_s": [2.0], "peak_rss_mb": 100.0}
    dev = {"problem": "dim3072", "sigma_dev": 1e-3}
    traced = {"pass_s": [2.5], "layers": tracing.layer_metrics([]), "results": [[dev]]}
    e2e = run.end_to_end_metrics([1.0, 1.2, 0.9], plain)
    layers = run.layer_metrics(2.0, traced)
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in b["end_to_end"]}
    assert {k: v["unit"] for k, v in layers.items()} == {m["name"]: m["unit"] for m in b["per_layer"]}
    assert layers["oracle2d.sigma_dev.3072"]["value"] == 1e-3
    assert layers["trace.overhead_s"]["value"] == 0.5


def test_random_pool_is_the_samplers_seed_11_draws():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    import numpy as np

    rng = np.random.default_rng(11)
    for minus, plus, comp in workloads.RANDOM_POOL:
        m, p, _, c = conftest.draw_interface_scenario(rng)
        assert (m.B, m.m, m.V) == minus and (p.B, p.m, p.V) == plus and c == comp


def test_seed_redraws_alpha_within_each_component():
    a = [s[3] for s in workloads.random_setup(11)["scenarios"]]
    assert a == [s[3] for s in workloads.random_setup(11)["scenarios"]]
    assert a != [s[3] for s in workloads.random_setup(12)["scenarios"]]
    for alpha, (_, _, (lo, hi)) in zip(a, workloads.RANDOM_POOL):
        assert lo + 0.2 <= alpha <= hi - 0.2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig2_pinned", "--seed", "1",
         "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
