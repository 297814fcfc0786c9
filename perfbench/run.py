"""Benchmark of the bdcs sweeps; see README.md next to this file.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ref-distance --seed 1 --seconds 20 --trace 0

Each workload runs in its own worker process with one BLAS thread, set in
that process's environment only, and imports bdcs from the checkout's src/.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run. Uses only the standard library, so that a directory
without the program fails fast.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("ref-distance", "snr-adaptive", "se-hybrid")
SETUP_PROBES = 8  # processes that only set up, half before and half after the workload
TIME_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "score",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(args, deadline, setup_only=False):
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(OUT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    done = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "bdcs" / "__init__.py").is_file():
        print(f"run.py: no bdcs package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [_worker(args, deadline, setup_only=True) for _ in range(probes)]
        result = _worker(args, deadline)
        setups += [_worker(args, deadline, setup_only=True) for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    else:
        setups.append(result["setup"])
        values = dict(result["metrics"], setup_s=statistics.median(p["scaled_s"] for p in setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for error in result["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": result["rounds"], "round_rates": result["round_rates"],
        "kernel_s": result["kernel_s"], "setup_samples": setups,
        "problems": result["problems"], "errors": result["errors"], "context": result["context"], "metrics": metrics,
    }
    (OUT / f"{args.workload}-trace{args.trace}-run.json").write_text(json.dumps(record, indent=1))

    print("context: " + json.dumps(result["context"]))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
