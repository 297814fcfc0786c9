"""Command-line entry points for the benchmark sweeps and inspection tools."""

from __future__ import annotations

import sys
from dataclasses import replace

import click
import numpy as np
import yaml

from .bench import (
    ExperimentConfig,
    Workbench,
    _dictionaries,
    run_nmse_vs_distance,
    run_nmse_vs_snr,
    run_se_vs_snr,
)
from .dictionaries import block_metrics, coherence, export_metadata_csv
from .partition import partition_boundary, sparsity_profile, sparsity_upper_limit


def _load(config_path, seed, out, trials) -> ExperimentConfig:
    raw = {}
    if config_path:
        with open(config_path) as fh:
            raw = yaml.safe_load(fh) or {}
    overrides = {"seed": seed, "output": out, "trials": trials}
    return replace(
        ExperimentConfig.from_dict(raw), **{k: v for k, v in overrides.items() if v is not None}
    )


def _common(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                      help="YAML experiment config; defaults apply when omitted.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Override the config seed.")(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="Output CSV path.")(fn)
    fn = click.option("--trials", type=int, default=None, help="Override the trial count.")(fn)
    return fn


@click.group()
def main():
    """Near-field block-sparse channel estimation and precoding benchmarks."""


@main.command("nmse-distance")
@_common
def nmse_distance(config_path, seed, out, trials):
    """NMSE of the configured methods across the distance grid."""
    cfg = _load(config_path, seed, out, trials)
    points = run_nmse_vs_distance(cfg)
    _echo_summary(cfg, points, "distance_m")


@main.command("nmse-snr")
@_common
def nmse_snr(config_path, seed, out, trials):
    """NMSE of the configured methods across the SNR list."""
    cfg = _load(config_path, seed, out, trials)
    points = run_nmse_vs_snr(cfg)
    _echo_summary(cfg, points, "snr_db")


@main.command("se-snr")
@_common
def se_snr(config_path, seed, out, trials):
    """Spectral efficiency of optimal vs hybrid precoders across the SNR list."""
    cfg = _load(config_path, seed, out, trials)
    points = run_se_vs_snr(cfg)
    _echo_summary(cfg, points, "snr_db", value_label="bits/s/Hz")


@main.command("partition")
@_common
def partition_cmd(config_path, seed, out, trials):
    """Sparsity profile, recovery limit, and inner/outer boundary."""
    cfg = _load(config_path, seed, out, trials)
    part = cfg.partition
    bench = Workbench(cfg)
    metrics = block_metrics(bench.mm_angular.entries, bench.angular.partition)
    k_max = sparsity_upper_limit(metrics, cfg.dictionary.block_length)
    profile = sparsity_profile(
        cfg.array, bench.angular, cfg.distance_grid, part.eta,
        trials=cfg.trials if trials is not None else part.trials, seed=cfg.seed,
    )
    boundary = partition_boundary(profile, k_max)
    click.echo(f"measurement coherence mu={metrics.coherence:.4f} "
               f"mu_B={metrics.block_coherence:.4f} nu={metrics.sub_coherence:.4f}")
    click.echo(f"sparsity upper limit: {k_max} blocks "
               f"(block length {cfg.dictionary.block_length})")
    click.echo(f"partition boundary: {boundary} m "
               f"(grid {profile.distances[0]:.3g} .. {profile.distances[-1]:.3g} m, "
               f"eta={part.eta})")
    if cfg.output:
        profile.write_csv(cfg.output)
        click.echo(f"profile written to {cfg.output}")


@main.command("dict-info")
@_common
@click.option("--domain", type=click.Choice(["angular", "polar"]), default="polar",
              help="Which dictionary's atom table --out exports.")
def dict_info(config_path, seed, out, trials, domain):
    """Dictionary sizes and coherence metrics for the configured array."""
    cfg = _load(config_path, seed, out, trials)
    angular, polar = _dictionaries(cfg)
    click.echo(f"array: N={cfg.array.num_antennas}, carrier={cfg.array.carrier_freq:.4g} Hz, "
               f"spacing={cfg.array.element_spacing:.6g} m")
    click.echo(f"angular dictionary: G={angular.num_atoms} "
               f"(oversampling {cfg.dictionary.oversampling}, "
               f"block length {cfg.dictionary.block_length}), "
               f"coherence={coherence(angular):.4f}")
    _, lengths = np.unique(polar.angles, return_counts=True)
    click.echo(f"polar dictionary: G={polar.num_atoms} "
               f"(beta={cfg.dictionary.beta}, r_min={cfg.dictionary.r_min} m), "
               f"coherence={coherence(polar):.4f}")
    click.echo(f"polar rings per angle: min={lengths.min() - 1}, "
               f"max={lengths.max() - 1}, mean={lengths.mean() - 1:.2f}")
    metrics = block_metrics(angular)
    click.echo(f"angular block metrics: mu={metrics.coherence:.4f} "
               f"mu_B={metrics.block_coherence:.4f} nu={metrics.sub_coherence:.4f}")
    if cfg.output:
        export_metadata_csv(polar if domain == "polar" else angular, cfg.output)
        click.echo(f"{domain} atom table written to {cfg.output}")


def _echo_summary(cfg, points, x_label, value_label="dB"):
    click.echo(f"seed={cfg.seed} trials={cfg.trials} pilots={cfg.pilot_count} "
               f"subcarriers={cfg.subcarrier_count}")
    for p in points:
        click.echo(f"{x_label}={p.x:.6g} {p.method}: {p.mean_db:.2f} {value_label} "
                   f"(+-{p.stderr_db:.2f})")
    if cfg.output:
        click.echo(f"curve written to {cfg.output}")


if __name__ == "__main__":
    sys.exit(main())
