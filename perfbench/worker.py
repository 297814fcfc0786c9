"""One benchmark workload in one process; run.py starts it.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T
                 --out DIR [--setup-only]

T is the CLOCK_MONOTONIC time at which run.py started this process, so the
set-up time covers interpreter start, ``import bdcs``, config parsing and
building the workload's pilot, dictionaries and measurement matrices.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np


REFERENCE_KERNEL_S = 0.1
"""Nominal time of reference_kernel(); instances_per_s and setup_s are scaled to it."""


def reference_kernel():
    """Return a timer of a fixed numpy workload shaped like the recovery hot
    path (pinv, Phi^H r correlations, growing lstsq refits). The host's speed
    wanders by 20 % and more in phases of seconds to minutes; this workload
    slows with it, so timing it around each round and after each set-up lets
    the benchmark scale both back to one reference speed (see README.md)."""
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((128, 2248)) + 1j * rng.standard_normal((128, 2248))
    pilot = rng.standard_normal((128, 256)) + 1j * rng.standard_normal((128, 256))
    y = rng.standard_normal((128, 4)) + 1j * rng.standard_normal((128, 4))

    def timed():
        start = time.perf_counter()
        for _ in range(3):
            np.linalg.pinv(pilot)
            for j in range(16):
                phi.conj().T @ y
                np.linalg.lstsq(phi[:, : 16 + j], y, rcond=None)
        return time.perf_counter() - start

    return timed


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def main() -> int:
    args = _parse()

    import bdcs
    from bdcs import (
        ExperimentConfig,
        build_angular_dictionary,
        build_polar_dictionary,
        make_pilot_matrix,
        measurement_matrix,
    )

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg = ExperimentConfig.from_dict(workload.config(args.seed, 0))
    pilot = make_pilot_matrix(cfg.pilot_count, cfg.array.num_antennas, cfg.seed)
    d = cfg.dictionary
    angular = build_angular_dictionary(cfg.array, d.oversampling, d.block_length)
    polar = build_polar_dictionary(cfg.array, d.beta, d.r_min, d.block_length)
    measurement_matrix(pilot, angular)
    measurement_matrix(pilot, polar)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    kernel = reference_kernel()
    kernel()  # the first call also pays one-time LAPACK and page-fault costs
    k = kernel()
    setup = {"setup_s": setup_s, "kernel_s": k, "scaled_s": setup_s * REFERENCE_KERNEL_S / k}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import checks
    import context

    sweep = getattr(bdcs, workload.sweep)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / f"{workload.name}.csv"

    def check_round(cfg, points):
        """Problems found in one round's curve, and the round's accuracy figure."""
        table = checks.curve_table(points)
        if workload.sweep == "run_se_vs_snr":
            return checks.check_se_rows(table), float(np.mean([row["hybrid_polar"] for row in table.values()]))
        snr_of_x = (lambda x: cfg.snr_db[0]) if workload.sweep == "run_nmse_vs_distance" else (lambda x: x)
        problems = checks.check_ls_rows(table, cfg.array.num_antennas, cfg.pilot_count, snr_of_x)
        if workload.name == "ref-distance":
            problems += checks.check_cs_margin(table)
        gain = np.mean([row["ls"] - row["complete_bdcs"] for row in table.values()])
        return problems, float(gain)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(bdcs)

    attempted = failed = 0
    problems: list = []
    errors: list = []
    rates, kernel_s, quality, overheads, layer_rounds = [], [], [], [], []
    csv_sha = None
    begin = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - begin < args.seconds:
        cfg_r = ExperimentConfig.from_dict(workload.config(args.seed, r))
        n = workload.instances(cfg_r)
        attempted += n
        k = kernel() if tracer is None else None  # host speed before the round
        start = time.perf_counter()
        try:
            points = sweep(cfg_r, str(csv_path))
        except Exception as exc:  # a failing round counts its instances as failed
            failed += n
            errors.append(f"round {r}: {type(exc).__name__}: {exc}")
            r += 1
            continue
        wall = time.perf_counter() - start
        if k is not None:
            kernel_s.append((k + kernel()) / 2)  # and after it
        if r == 0:
            csv_sha = context.sha256(csv_path)
        found, q = check_round(cfg_r, points)
        problems += [f"round {r}: {p}" for p in found]
        rates.append(n / wall)
        quality.append(q)
        if tracer is not None:
            with tracer.installed():
                start = time.perf_counter()
                with tracer.span("bench.sweep"):
                    traced_points = sweep(cfg_r, str(csv_path))
                traced_wall = time.perf_counter() - start
            found, layers, self_sum = tracer.finish_round()
            if traced_points != points:
                found.append("the traced sweep returned other points than the untraced one")
            problems += [f"round {r} traced: {p}" for p in found]
            overhead = traced_wall - wall
            if abs(self_sum - traced_wall) > abs(overhead) + 1e-3:
                problems.append(
                    f"round {r}: layer self times sum to {self_sum:.4f} s, traced sweep took {traced_wall:.4f} s"
                )
            overheads.append(overhead)
            layer_rounds.append(layers)
        r += 1

    if tracer is not None:
        metrics = tracer.metrics(layer_rounds, float(np.median(overheads)) if overheads else 0.0)
        tracer.dump(args.out / f"{workload.name}-spans.jsonl")
    else:
        import resource

        scaled = [rate * k / REFERENCE_KERNEL_S for rate, k in zip(rates, kernel_s)]
        metrics = {
            "instances_per_s": float(np.median(scaled)) if scaled else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": float(np.mean(quality)) if quality else 0.0,
        }
    print(json.dumps({
        "setup": setup,
        "rounds": r,
        "round_rates": rates,
        "kernel_s": kernel_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "errors": errors,
        "metrics": metrics,
        "context": context.record(bdcs, csv_sha, tracer.missing if tracer else []),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
