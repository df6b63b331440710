#!/usr/bin/env python3
"""diracflow benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the repository root):
    python3 bench/run.py --workload fig2_pinned --seed 11 --seconds 20 --trace 0

--trace 0 prints setup_s, wall_s and peak_rss_mb, measured with tracing off.
--trace 1 runs an untraced, a traced and an untraced pass, checks that
tracing changed no result, and prints the per-layer metrics of the traced
pass with its overhead.
Every pass checks its results against the closed-form bulk prediction (and
criterion 7's gates for the oracle); the run exits 1 when any check fails.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
A record with the environment (and, traced, every span) is written under
.bench_out/.  See bench/README.md for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import ORACLE_DIMS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig2_pinned", "random_autoscaled", "oracle_doubling")
SETUP_SAMPLES = 5  # fresh processes per run whose set-up time is taken
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TRACE_TOL = 1e-9  # |difference| allowed between traced and untraced 2 pi sigma

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")) or ".s." in name:
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_frac", "min_overlap")):
        return "ratio"
    if name.endswith("max_residual") or ".sigma_dev." in name:
        return "1"
    return "count"


class ChildError(RuntimeError):
    pass


def child(mode: str, ns, deadline: float) -> dict:
    """Run worker.py in a fresh process; its last stdout line is its JSON record."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", ns.workload, "--seed", str(ns.seed),
        "--seconds", str(ns.seconds), "--mode", mode,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} process exceeded the run's time limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(records: list[dict]) -> tuple[int, Counter, list[dict]]:
    """Attempted results, failures by class, and every result, over all passes."""
    results = [r for rec in records for pass_results in rec["results"] for r in pass_results]
    failures = Counter(r["error"] or "check" for r in results if not r["ok"])
    return len(results), failures, results


def pass_keys(rec: dict) -> list[list]:
    return [[r["key"] for r in pass_results] for pass_results in rec["results"]]


def same_keys(a: list, b: list) -> bool:
    """Equal result keys; floats (2 pi sigma) may differ by TRACE_TOL."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_keys(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= TRACE_TOL
    return a == b


def end_to_end_metrics(setups: list[float], plain: dict) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(plain["pass_s"]),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def layer_metrics(untraced_s: float, traced: dict) -> dict:
    """The traced pass's layer metrics, its wall time and overhead, and the oracle's accuracy."""
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced["pass_s"][0]
    values["trace.overhead_s"] = traced["pass_s"][0] - untraced_s
    for dim in ORACLE_DIMS:
        devs = [r["sigma_dev"] for r in traced["results"][0] if r["problem"] == f"dim{dim}"]
        values[f"oracle2d.sigma_dev.{dim}"] = devs[0] if devs and devs[0] is not None else 0.0
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    if ns.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "diracflow" / "__init__.py").is_file():
        print(f"bench: no diracflow sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if ns.trace:
            # untraced, traced, untraced: the mean of the two untraced passes
            # cancels a steady drift of the machine's speed out of the overhead
            one_pass = argparse.Namespace(**{**vars(ns), "seconds": 0.0})
            plain = child("measure", one_pass, deadline)
            traced = child("trace", ns, deadline)
            after = child("measure", one_pass, deadline)
            records, setups = [plain, traced, after], []
        else:
            setups = [child("setup", ns, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            plain = child("measure", ns, deadline)
            records = [plain]
            setups.append(plain["setup_s"])
    except ChildError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    attempted, failures, results = tally(records)
    failed = sum(failures.values())
    runs = [pass_keys(rec) for rec in records]
    # every pass of the same inputs must give the same results, traced or not
    consistent = all(same_keys(k, runs[0][0]) for keys in runs for k in keys)
    sigma_devs = [r["sigma_dev"] for r in results if r["sigma_dev"] is not None]
    env = plain["env"]
    print(f"env {json.dumps(env)}")
    for r in results:
        if not r["ok"]:
            print(f"FAILED {r['problem']}: {r['detail']}")
    print(
        f"{ns.workload} seed={ns.seed}: {len(plain['pass_s'])} untraced pass(es) "
        f"{[round(t, 3) for t in plain['pass_s']]} s; attempted={attempted} failed={failed} "
        f"failures by class {dict(failures)}; "
        f"results {'identical' if consistent else 'DIFFER'} across passes"
    )

    if ns.trace:
        untraced = [plain["pass_s"][0], after["pass_s"][0]]
        metrics = layer_metrics(statistics.mean(untraced), traced)
        print(
            f"tracing overhead {metrics['trace.overhead_s']['value']:+.3f} s: traced pass "
            f"{traced['pass_s'][0]:.3f} s, untraced passes {[round(t, 3) for t in untraced]} s"
        )
    else:
        metrics = end_to_end_metrics(setups, plain)
        sigma_dev = f"{max(sigma_devs):.4g} 1" if sigma_devs else "n/a (no conductivity here)"
        print(f"setup_s samples {[round(s, 3) for s in setups]}")
        print(
            " ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in metrics.items())
            + f" fail_frac={failed / attempted:.4g} ratio sigma_dev={sigma_dev}"
        )

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace, "env": env,
              "setup_samples": setups, "records": records, "metrics": metrics}
    (out_dir / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json").write_text(json.dumps(record))

    correct = failed == 0 and consistent
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
