"""Command-line entry points for the benchmark sweeps and inspection tools."""

from __future__ import annotations

import sys
from dataclasses import replace

import click
import numpy as np
import yaml

from .bench import (
    ExperimentConfig,
    _angular_dictionary,
    _pilot,
    _polar_dictionary,
    run_nmse_vs_distance,
    run_nmse_vs_snr,
    run_se_vs_snr,
)
from .dictionaries import block_metrics, coherence, export_metadata_csv
from .errors import ConfigurationError
from .partition import partition_boundary, sparsity_profile, sparsity_upper_limit
from .sensing import measurement_matrix


def _load(config_path, seed, trials) -> ExperimentConfig:
    raw = {}
    if config_path:
        with open(config_path) as fh:
            raw = yaml.safe_load(fh) or {}
    overrides = {k: v for k, v in {"seed": seed, "trials": trials}.items() if v is not None}
    return replace(ExperimentConfig.from_dict(raw), **overrides)


def _common(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                      help="YAML experiment config; defaults apply when omitted.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Override the config seed.")(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="Output CSV path.")(fn)
    fn = click.option("--trials", type=int, default=None, help="Override the trial count.")(fn)
    return fn


class _Commands(click.Group):
    """A ConfigurationError from loading the config or from a command's own
    check of it ends the command with one ``Error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigurationError as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Commands)
def main():
    """Near-field block-sparse channel estimation and precoding benchmarks."""


@main.command("nmse-distance")
@_common
def nmse_distance(config_path, seed, out, trials):
    """NMSE of the configured methods across the distance grid."""
    cfg = _load(config_path, seed, trials)
    points = run_nmse_vs_distance(cfg, out)
    _echo_summary(cfg, points, "distance_m", out)


@main.command("nmse-snr")
@_common
def nmse_snr(config_path, seed, out, trials):
    """NMSE of the configured methods across the SNR list."""
    cfg = _load(config_path, seed, trials)
    points = run_nmse_vs_snr(cfg, out)
    _echo_summary(cfg, points, "snr_db", out)


@main.command("se-snr")
@_common
def se_snr(config_path, seed, out, trials):
    """Spectral efficiency of optimal vs hybrid precoders across the SNR list."""
    cfg = _load(config_path, seed, trials)
    points = run_se_vs_snr(cfg, out)
    _echo_summary(cfg, points, "snr_db", out, value_label="bits/s/Hz")


@main.command("partition")
@_common
def partition_cmd(config_path, seed, out, trials):
    """Sparsity profile, recovery limit, and inner/outer boundary."""
    cfg = _load(config_path, seed, trials)
    part = cfg.partition
    angular = _angular_dictionary(cfg)
    metrics = block_metrics(measurement_matrix(_pilot(cfg), angular).entries, angular.partition)
    k_max = sparsity_upper_limit(metrics, cfg.dictionary.block_length)
    profile = sparsity_profile(
        cfg.array, angular, cfg.distance_grid, part.eta,
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
    if out:
        profile.write_csv(out)
        click.echo(f"profile written to {out}")


@main.command("dict-info")
@_common
@click.option("--domain", type=click.Choice(["angular", "polar"]), default="polar",
              help="Which dictionary's atom table --out exports.")
def dict_info(config_path, seed, out, trials, domain):
    """Dictionary sizes and coherence metrics for the configured array."""
    cfg = _load(config_path, seed, trials)
    angular, polar = _angular_dictionary(cfg), _polar_dictionary(cfg)
    metrics = block_metrics(angular.atoms, angular.partition)
    click.echo(f"array: N={cfg.array.num_antennas}, carrier={cfg.array.carrier_freq:.4g} Hz, "
               f"spacing={cfg.array.element_spacing:.6g} m")
    click.echo(f"angular dictionary: G={angular.num_atoms} "
               f"(oversampling {cfg.dictionary.oversampling}, "
               f"block length {cfg.dictionary.block_length}), "
               f"coherence={metrics.coherence:.4f}")
    _, lengths = np.unique(polar.angles, return_counts=True)
    click.echo(f"polar dictionary: G={polar.num_atoms} "
               f"(beta={cfg.dictionary.beta}, r_min={cfg.dictionary.r_min} m), "
               f"coherence={coherence(polar.atoms):.4f}")
    click.echo(f"polar rings per angle: min={lengths.min() - 1}, "
               f"max={lengths.max() - 1}, mean={lengths.mean() - 1:.2f}")
    click.echo(f"angular block metrics: mu={metrics.coherence:.4f} "
               f"mu_B={metrics.block_coherence:.4f} nu={metrics.sub_coherence:.4f}")
    if out:
        export_metadata_csv(polar if domain == "polar" else angular, out)
        click.echo(f"{domain} atom table written to {out}")


def _echo_summary(cfg, points, x_label, out, value_label="dB"):
    click.echo(f"seed={cfg.seed} trials={cfg.trials} pilots={cfg.pilot_count} "
               f"subcarriers={cfg.subcarrier_count}")
    for p in points:
        click.echo(f"{x_label}={p.x:.6g} {p.method}: {p.mean_db:.2f} {value_label} "
                   f"(+-{p.stderr_db:.2f})")
    if out:
        click.echo(f"curve written to {out}")


if __name__ == "__main__":
    sys.exit(main())
