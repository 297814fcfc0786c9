"""Near-field region partitioning.

The angular-domain sparsity of a point source grows as it approaches the
array (energy spread). Measuring that growth on a distance grid and
intersecting it with the coherence-based recovery limit yields the boundary
between the inner region (recover in the polar domain) and the outer region
(recover in the angular domain). complete_bdcs() routes between the two,
either by a known distance or by comparing residuals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .channel import ArrayConfig, steering_near
from .dictionaries import Dictionary, DictionaryMetrics
from .errors import ConfigurationError
from .recovery import RecoveryConfig, RecoveryResult, SideInformation, bsomp
from .sensing import MeasurementMatrix, Observation


@dataclass(frozen=True)
class SparsityProfile:
    """Blocks needed to capture an energy fraction eta, per distance.

    tap_counts are conservative integers (ceil of the trial mean); mean_taps
    keeps the raw means for trend checks.
    """

    distances: tuple
    tap_counts: tuple
    mean_taps: tuple
    eta: float

    def __post_init__(self):
        d = np.asarray(self.distances)
        if d.size == 0 or np.any(np.diff(d) <= 0):
            raise ValueError("distances must be non-empty and strictly increasing")
        if any(t < 1 for t in self.tap_counts):
            raise ValueError("tap_counts must be at least 1")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["distance_m", "tap_count", "mean_tap_count", "eta"])
            for r, taps, mean in zip(self.distances, self.tap_counts, self.mean_taps):
                writer.writerow([f"{r:.10g}", taps, f"{mean:.6f}", f"{self.eta:.6g}"])


def sparsity_profile(
    array: ArrayConfig,
    angular_dict: Dictionary,
    distance_grid: Sequence[float],
    eta: float = 0.95,
    trials: int = 100,
    seed: int = 0,
) -> SparsityProfile:
    """Average number of angular blocks that capture fraction eta of the
    projection energy of a single point source, per grid distance.

    Per trial a unit-gain source at a uniform random spatial angle is
    projected onto the dictionary; blocks are counted greedily from the
    strongest down. Deterministic in the seed.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    distances = sorted(float(r) for r in distance_grid)
    if len(distances) == 0:
        raise ValueError("distance_grid must not be empty")
    if trials < 1:
        raise ValueError("trials must be at least 1")

    rng = np.random.default_rng(seed)
    atoms = angular_dict.atoms
    starts = angular_dict.partition.starts
    scale = np.sqrt(array.num_antennas)

    means = []
    counts = []
    for r in distances:
        needed = np.empty(trials)
        for t in range(trials):
            angle = rng.uniform(-1.0, 1.0)
            h = scale * steering_near(array, r, angle)
            atom_energy = np.abs(atoms.conj().T @ h) ** 2
            block_energy = np.add.reduceat(atom_energy, starts)
            order = np.sort(block_energy)[::-1]
            cum = np.cumsum(order)
            needed[t] = np.searchsorted(cum, eta * cum[-1]) + 1
        mean = float(needed.mean())
        means.append(mean)
        counts.append(int(np.ceil(mean - 1e-9)))
    return SparsityProfile(tuple(distances), tuple(counts), tuple(means), eta)


def sparsity_upper_limit(
    metrics: DictionaryMetrics, block_length: int, cap: int = 1_000_000
) -> int:
    """Largest block count k guaranteed recoverable by greedy block pursuit:

        k * L < (1/mu_B + L - (L - 1) * nu / mu_B) / 2

    For L = 1 this is the classical k < (1 + 1/mu)/2. Orthogonal dictionaries
    (mu_B = 0) return ``cap``.
    """
    if block_length < 1:
        raise ValueError("block_length must be at least 1")
    mu_b = metrics.block_coherence
    if mu_b <= 0:
        return cap
    bound = 0.5 * (
        1.0 / mu_b + block_length - (block_length - 1) * metrics.sub_coherence / mu_b
    )
    t = bound / block_length
    # snap near-integer bounds so the strict inequality survives fp noise
    rounded = round(t)
    if abs(t - rounded) <= 1e-9 * max(1.0, abs(t)):
        t = float(rounded)
    if t == int(t):
        k = int(t) - 1
    else:
        k = int(np.floor(t))
    return max(k, 0)


def partition_boundary(profile: SparsityProfile, upper_limit: int) -> float:
    """Boundary between the inner and the outer region, in meters: the
    smallest grid distance from which every farther tap count stays within
    the recovery limit. Two sentinels: 0 when the whole grid complies (all
    outer), inf when its farthest point does not (all inner)."""
    taps = np.asarray(profile.tap_counts)
    suffix_start = len(taps)
    for i in range(len(taps) - 1, -1, -1):
        if taps[i] <= upper_limit:
            suffix_start = i
        else:
            break
    if suffix_start == 0:
        return 0.0
    if suffix_start == len(taps):
        return float(np.inf)
    return float(profile.distances[suffix_start])


def complete_bdcs(
    obs: Observation,
    angular_measurement: MeasurementMatrix,
    polar_measurement: MeasurementMatrix,
    cfg: RecoveryConfig,
    routing: str = "by_residual",
    boundary: Optional[float] = None,
    distance: Optional[float] = None,
    si: Optional[SideInformation] = None,
) -> RecoveryResult:
    """Route recovery between the angular and polar domains.

    by_distance: polar when ``distance`` falls inside ``boundary`` (meters,
    as partition_boundary returns it: 0 routes everything to the angular
    domain, inf everything to the polar one), angular otherwise; it requires
    both, and a negative or nan boundary raises ValueError. by_residual: run
    both and keep the smaller final relative residual, ties going to the
    cheaper angular domain. cfg.partition is treated as an angular-domain
    override only; the polar run always uses the polar dictionary's own
    partition.
    """
    if boundary is not None and not boundary >= 0:  # also rejects nan
        raise ValueError("boundary must be non-negative (inf allowed)")
    polar_cfg = replace(cfg, partition=None)
    if routing == "by_distance":
        if boundary is None or distance is None:
            raise ConfigurationError("by_distance routing needs a boundary and a distance")
        if distance < boundary:
            return bsomp(polar_measurement, obs, polar_cfg, si)
        return bsomp(angular_measurement, obs, cfg, si)
    if routing == "by_residual":
        angular = bsomp(angular_measurement, obs, cfg, si)
        polar = bsomp(polar_measurement, obs, polar_cfg, si)
        if polar.final_residual < angular.final_residual:
            return polar
        return angular
    raise ConfigurationError(f"unknown routing mode: {routing!r}")

