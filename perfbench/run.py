"""One benchmark for the whole repository: four workloads, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cls-missheavy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced round and prints the per-layer metrics, writing the
spans to ``.perfbench_out/``.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The line before
it records provenance (CPU count, versions, commit, backends, engines).

``--smoke`` runs every workload at a tiny size through the same code, in
both modes, and checks that every metric named in ``BENCHMARK.json`` is
emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: (name, unit) of every end-to-end metric, in ``BENCHMARK.json`` order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("sim_maccesses_per_s", "Maccesses/s"),
    ("misses_removed_pct", "%"),
    ("fleet_events_per_s", "events/s"),
    ("serve_events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
)


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    from repro.nn.backends import available_backends, resolve_backend
    from workloads import MALLOC_TRIM

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": _git_commit(),
        "backends_sim": list(available_backends("sim")),
        "backends_nn": list(available_backends("nn")),
        "backend_auto_sim": resolve_backend("auto", domain="sim"),
        "setup_malloc_trim": MALLOC_TRIM is not None,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    """Run one workload; returns the result object (and writes its record)."""
    from layers import PER_LAYER, derive
    from spans import Tracer
    from workloads import WORKLOADS, Ctx

    tracer = Tracer() if trace else None
    started = time.perf_counter()
    outcome = WORKLOADS[workload](Ctx(seed=seed, seconds=seconds, smoke=smoke,
                                      tracer=tracer))
    if tracer is None:
        values = outcome.metrics
        units = END_TO_END
    else:
        values = derive(tracer.table(), outcome.facts)
        units = PER_LAYER
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units},
    }
    record = {"provenance": provenance(workload, seed, trace),
              "run_s": time.perf_counter() - started,
              "cells": outcome.cells, "failures": outcome.failures,
              "detail": outcome.detail,
              "end_to_end": outcome.metrics,
              "per_layer": values if tracer is not None else {},
              "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.save(OUT_DIR / f"spans-{stem}.npz")
    print("provenance " + json.dumps(record["provenance"]), flush=True)
    for failure in outcome.failures:
        print(f"FAILED {failure}", flush=True)
    return result


def smoke() -> int:
    """Every workload, tiny, both modes: every metric named with its unit."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from the benchmark's", flush=True)
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, 1, 1.0, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: failed checks")
    for problem in problems:
        print(problem, flush=True)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
