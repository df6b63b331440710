"""One benchmark process: import, build a workload's inputs, time passes, print one JSON line.

Started by run.py, never by hand.  Modes:
  setup    import and build inputs only (one set-up sample)
  measure  whole untraced passes for up to --seconds, at least one
  trace    one pass with every layer wrapped (see tracing.py)
The parent's monotonic clock reading at spawn time arrives as --t0, so
set-up time runs from the fresh process's start to the first timed call.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _blas() -> dict:
    """BLAS build of numpy and scipy, and the thread count each library runs with."""
    info = {}
    for mod in (np, scipy):
        libs = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            entry = {}
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry = {"config": config().decode(), "threads": threads()}
                    break
            info[mod.__name__] = entry or {"library": Path(path).name}
    if not info:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy"] = {"library": f"{blas.get('name')} {blas.get('version')}"}
    return info


def environment() -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": commit or "unknown (not a git checkout)",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ns = ap.parse_args()

    setup, run_pass = WORKLOADS[ns.workload]
    inputs = setup(ns.seed)
    setup_s = time.monotonic() - ns.t0
    out = {"setup_s": setup_s}
    if ns.mode == "setup":
        print(json.dumps(out))
        return 0

    passes = []
    if ns.mode == "trace":
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            t = time.perf_counter()
            results = run_pass(inputs, lambda problem: setattr(tracer, "problem", problem))
            passes.append((time.perf_counter() - t, results))
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["spans"] = [asdict(s) for s in tracer.spans]
    else:
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            results = run_pass(inputs, lambda problem: None)
            dt = time.perf_counter() - t
            passes.append((dt, results))
            # start another pass only if it can end within the run's time
            if time.perf_counter() - start + dt > ns.seconds:
                break

    out.update(
        pass_s=[dt for dt, _ in passes],
        results=[[asdict(r) for r in results] for _, results in passes],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        env=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
