"""The three benchmark workloads: sweep, config and round size.

A run repeats whole rounds. Round r of a run started with ``--seed s``
passes ``seed = 1000 * s + r`` into the config, so the same seed gives the
same inputs, and rounds of one run draw fresh channels.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: str  # name of the public sweep function in bdcs
    raw: dict  # config mapping for ExperimentConfig.from_dict, without trials and seed
    trials: int  # trials per round

    def config(self, seed: int, round_index: int) -> dict:
        return dict(self.raw, trials=self.trials, seed=1000 * seed + round_index)

    def instances(self, cfg) -> int:
        """NMSE sweeps: (x, trial, user) triples; SE sweep: (SNR, trial) links."""
        if self.sweep == "run_se_vs_snr":
            return len(cfg.snr_db) * cfg.trials
        xs = cfg.distance_grid if self.sweep == "run_nmse_vs_distance" else cfg.snr_db
        return len(xs) * cfg.trials * cfg.channel.num_users


WORKLOADS = {
    w.name: w
    for w in (
        # The reference preset: recovery at a fixed budget of 4 blocks
        # (16 atoms for somp_polar) does almost all of the work.
        Workload("ref-distance", "run_nmse_vs_distance", {}, trials=1),
        # Noise-floor and decay stops end most pursuits early, so fixed
        # per-call costs outweigh per-iteration refits.
        Workload(
            "snr-adaptive",
            "run_nmse_vs_snr",
            {
                "snr_db": [-10, -5, 0, 5, 10, 20, 30],
                "recovery": {"residual_tolerance": None},
                "side_information": {"decay_floor": 0.05},
            },
            trials=2,
        ),
        # Precoding and matrix-channel synthesis only; recovery sits idle.
        Workload("se-hybrid", "run_se_vs_snr", {"snr_db": [-10, 0, 10, 20]}, trials=50),
    )
}
